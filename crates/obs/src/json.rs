//! The workspace's one JSON writer: the deterministic metrics export here
//! and every bench artifact (`evax_bench::artifact`) render through it.
//!
//! There is no JSON serializer in the workspace, so a document is a small
//! [`Value`] tree: strings are escaped once, each float prints at the
//! precision its field chooses ([`Object::fixed`]), and numbers and
//! pre-rendered blocks are written verbatim. [`Value`]'s `Display` writes
//! a value on one line; [`Object::render`] puts each top-level field on its
//! own line.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string, escaped on output.
    Str(String),
    /// Pre-rendered JSON written verbatim: `null`, a boolean, a number at
    /// its field's precision, or a block a component renders itself.
    Raw(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Object),
}

/// A JSON object, keys in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Object(Vec<(String, Value)>);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(&quote(s)),
            Value::Raw(s) => f.write_str(s),
            Value::Array(a) => {
                let items: Vec<String> = a.iter().map(Value::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Value::Object(o) => write!(f, "{{{}}}", o.fields().collect::<Vec<_>>().join(", ")),
        }
    }
}

/// `s` quoted: `"` and `\` are backslash-escaped, control characters
/// become `\uXXXX`.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Object {
    /// An empty object.
    pub fn new() -> Object {
        Object::default()
    }

    /// Appends `key: value`.
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Object {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Sets `key` to `x` with exactly `digits` decimals (`null` if `x` is
    /// not finite).
    pub fn fixed(self, key: &str, x: f64, digits: usize) -> Object {
        let value = x.is_finite().then(|| Value::Raw(format!("{x:.digits$}")));
        self.field(key, value)
    }

    /// Renders the object as an artifact file body: one top-level field
    /// per line, newline-terminated.
    pub fn render(self) -> String {
        format!(
            "{{\n  {}\n}}\n",
            self.fields().collect::<Vec<_>>().join(",\n  ")
        )
    }

    /// Each field as `"key": value`.
    fn fields(&self) -> impl Iterator<Item = String> + '_ {
        self.0.iter().map(|(k, v)| format!("{}: {v}", quote(k)))
    }
}

macro_rules! from_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Raw(n.to_string())
            }
        }
    )*};
}
from_display!(bool, u32, u64, usize);

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<Object> for Value {
    fn from(o: Object) -> Value {
        Value::Object(o)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Raw("null".into()), Into::into)
    }
}

impl<T: Into<Value>, const N: usize> From<[T; N]> for Value {
    fn from(items: [T; N]) -> Value {
        items.into_iter().collect()
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        let s = Value::from("a\"b\\c\nd\t\u{1}\u{7f}ü").to_string();
        assert_eq!(s, r#""a\"b\\c\u000ad\u0009\u0001\u007fü""#);
    }

    #[test]
    fn fields_keep_their_precision_and_only_the_top_level_wraps() {
        let o = Object::new()
            .field("threads", [4u64])
            .fixed("secs", 1.23456, 3)
            .fixed("per_sec", 9779.6, 0)
            .fixed("nan", f64::NAN, 3)
            .field(
                "inner",
                Object::new().fixed("rate", 2.0 / 3.0, 4).field("ok", true),
            )
            .field("rows", [Object::new().field("k", None::<u64>)])
            .field("raw", Value::Raw("{\"x\":1}".into()))
            .field("empty", [0u64; 0]);
        let expected = "{\n  \"threads\": [4],\n  \"secs\": 1.235,\n  \"per_sec\": 9780,\n  \
                        \"nan\": null,\n  \"inner\": {\"rate\": 0.6667, \"ok\": true},\n  \
                        \"rows\": [{\"k\": null}],\n  \"raw\": {\"x\":1},\n  \
                        \"empty\": []\n}\n";
        assert_eq!(o.render(), expected);
    }

    #[test]
    fn python_json_tool_accepts_the_output() {
        use std::io::Write;
        use std::process::{Command, Stdio};
        let text = Object::new()
            .field("q\"\\", "tab\t\u{0}")
            .field("nested", [Value::from([1u64]), Value::from([0u64; 0])])
            .render();
        let spawned = Command::new("python3")
            .args(["-m", "json.tool"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn();
        let Ok(mut child) = spawned else {
            eprintln!("skipping: python3 not available");
            return;
        };
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin
            .write_all(text.as_bytes())
            .expect("write to json.tool");
        drop(stdin);
        assert!(
            child.wait().expect("json.tool").success(),
            "rejected:\n{text}"
        );
    }
}
