//! The one flag parser for the bench binaries.
//!
//! [`Args`] is a cursor over the command line: a binary walks it with one
//! `match` arm per flag and reads each flag's value with a typed reader
//! ([`Args::seed`], [`Args::threads`], [`Args::positive`], …) that rejects
//! a bad or missing value with the reason and the usage line. `--smoke` is
//! found before the walk ([`Args::smoke`]), so a binary picks its base
//! configuration first and explicit flags override it wherever they appear.

use std::process::ExitCode;
use std::str::FromStr;

use evax_core::par::Parallelism;

/// A command line being parsed. Each value reader reads the value of the
/// flag [`Iterator::next`] returned last, and fails like [`Args::value`].
pub struct Args {
    usage: &'static str,
    args: std::vec::IntoIter<String>,
    current: String,
    /// Whether `--smoke` appears anywhere on the command line.
    pub smoke: bool,
}

impl Args {
    /// A cursor over `args`; `usage` is printed after `usage: ` on errors.
    pub fn new(usage: &'static str, args: Vec<String>) -> Args {
        let smoke = args.iter().any(|a| a == "--smoke");
        Args {
            usage,
            args: args.into_iter(),
            current: String::new(),
            smoke,
        }
    }

    /// The value of the current flag, accepted by `parse`.
    ///
    /// # Errors
    /// "`flag` requires `need`" and the usage line if the value is missing
    /// or `parse` rejects it.
    pub fn value<T>(
        &mut self,
        need: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        let value = self.args.next();
        value
            .as_deref()
            .and_then(parse)
            .ok_or_else(|| self.error(format!("{} requires {need}", self.current)))
    }

    /// `--seed N`.
    pub fn seed(&mut self) -> Result<u64, String> {
        self.value("an integer", |s| s.parse().ok())
    }

    /// `--threads N` for N ≥ 1.
    pub fn threads(&mut self) -> Result<Parallelism, String> {
        self.positive().map(Parallelism::Fixed)
    }

    /// An integer ≥ 1.
    pub fn positive<T: FromStr + PartialOrd + From<u8>>(&mut self) -> Result<T, String> {
        self.value("a positive integer", |s| {
            s.parse().ok().filter(|n| *n >= T::from(1))
        })
    }

    /// A fraction in `[0, max]`.
    pub fn fraction(&mut self, max: f64) -> Result<f64, String> {
        self.value(&format!("a fraction in [0, {max}]"), |s| {
            s.parse().ok().filter(|f| (0.0..=max).contains(f))
        })
    }

    /// A path.
    pub fn path(&mut self) -> Result<String, String> {
        self.value("a path", |s| Some(s.to_string()))
    }

    /// The rejection of the current argument as unknown.
    pub fn unknown(&self) -> String {
        self.error(format!("unknown argument '{}'", self.current))
    }

    fn error(&self, reason: String) -> String {
        format!("{reason}\nusage: {}", self.usage)
    }
}

impl Iterator for Args {
    type Item = String;

    /// The next argument; the value readers read the value of this one.
    fn next(&mut self) -> Option<String> {
        self.current = self.args.next()?;
        Some(self.current.clone())
    }
}

/// Runs `grammar` over the process arguments.
///
/// # Errors
/// `ExitCode::FAILURE` after printing the rejection on stderr.
pub fn parse<T>(grammar: impl FnOnce(Vec<String>) -> Result<T, String>) -> Result<T, ExitCode> {
    grammar(std::env::args().skip(1).collect()).map_err(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

/// Prints the artifact `json` to stdout and writes it to `out`.
///
/// # Errors
/// As [`write()`].
pub fn emit(json: &str, out: &str) -> Result<(), ExitCode> {
    print!("{json}");
    write(out, json)
}

/// Writes `contents` to `path`.
///
/// # Errors
/// `ExitCode::FAILURE` after reporting the write error on stderr.
pub fn write(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| fail(format_args!("cannot write {path}: {e}")))
}

/// Reports `error: {msg}` on stderr; returns `ExitCode::FAILURE`.
pub fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_take_the_current_flags_value() {
        let argv = "fig6 --seed 7 --help --threads 0".split(' ');
        let mut args = Args::new("ids", argv.map(String::from).collect());
        assert!(!args.smoke);
        let mut ids = Vec::new();
        let mut seed = 0;
        let err = loop {
            match args.next().as_deref() {
                Some("--seed") => seed = args.seed().unwrap(),
                Some("--threads") => break args.threads().unwrap_err(),
                Some(id) => ids.push(id.to_string()),
                None => unreachable!("--threads 0 is rejected"),
            }
        };
        assert_eq!((seed, ids.join(" ")), (7, "fig6 --help".to_string()));
        assert_eq!(err, "--threads requires a positive integer\nusage: ids");
        let mut args = Args::new("x", vec!["--out".into()]);
        args.next();
        assert_eq!(args.path().unwrap_err(), "--out requires a path\nusage: x");
        assert!(Args::new("x", vec!["-v".into(), "--smoke".into()]).smoke);
    }
}
