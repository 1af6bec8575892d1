//! The workspace error model: one typed error for everything the stable
//! API surface can fail at, with enough context (path, line, expected/got)
//! to act on without a debugger.
//!
//! Fallible APIs return [`Result`], the crate-wide alias. Simulation and
//! training entry points stay infallible by design: each checks its
//! configuration up front (e.g. [`crate::pipeline::EvaxPipeline::run`]
//! through [`crate::pipeline::EvaxConfig::validate`]) and panics naming the
//! offending field, so the fallible edge is configuration validation plus
//! persistence ([`crate::io`]).

use std::path::PathBuf;

/// Crate-wide result alias over [`EvaxError`].
pub type Result<T> = std::result::Result<T, EvaxError>;

/// The error type of `evax-core`'s fallible public API.
///
/// Variant fields are public and `#[non_exhaustive]` is deliberately *not*
/// used: matching on shape (`EvaxError::Parse { line, .. }`) is part of the
/// stable surface.
#[derive(Debug)]
pub enum EvaxError {
    /// An underlying I/O failure, with the file involved when known.
    Io {
        /// File being read or written, when the operation had one.
        path: Option<PathBuf>,
        /// The OS-level error.
        source: std::io::Error,
    },
    /// Content that failed to parse.
    Parse {
        /// File being parsed, when the operation had one.
        path: Option<PathBuf>,
        /// 1-based line number (0 when the failure is not line-addressable,
        /// e.g. unexpected end of input).
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// Structurally valid content whose pieces disagree — bad magic header,
    /// checksum mismatch, dimension disagreement between bundled artifacts.
    Corrupt {
        /// Which artifact or field is inconsistent.
        what: String,
        /// What was required.
        expected: String,
        /// What was found.
        got: String,
    },
    /// An invalid configuration rejected by a `validate()` check.
    Config {
        /// Which field or combination is invalid.
        what: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl EvaxError {
    /// A [`Parse`](Self::Parse) error with no path context (attach one
    /// later with [`with_path`](Self::with_path)).
    pub fn parse(line: usize, reason: impl Into<String>) -> Self {
        EvaxError::Parse {
            path: None,
            line,
            reason: reason.into(),
        }
    }

    /// A [`Corrupt`](Self::Corrupt) error.
    pub fn corrupt(
        what: impl Into<String>,
        expected: impl Into<String>,
        got: impl Into<String>,
    ) -> Self {
        EvaxError::Corrupt {
            what: what.into(),
            expected: expected.into(),
            got: got.into(),
        }
    }

    /// A [`Config`](Self::Config) error.
    pub fn config(what: impl Into<String>, reason: impl Into<String>) -> Self {
        EvaxError::Config {
            what: what.into(),
            reason: reason.into(),
        }
    }

    /// Attaches file-path context to [`Io`](Self::Io) and
    /// [`Parse`](Self::Parse) errors (other variants pass through
    /// unchanged). Path-taking wrappers like
    /// [`crate::io::read_model_file`] use this so "which file?" is always
    /// answerable.
    pub fn with_path(self, path: impl Into<PathBuf>) -> Self {
        match self {
            EvaxError::Io { source, .. } => EvaxError::Io {
                path: Some(path.into()),
                source,
            },
            EvaxError::Parse { line, reason, .. } => EvaxError::Parse {
                path: Some(path.into()),
                line,
                reason,
            },
            other => other,
        }
    }
}

impl std::fmt::Display for EvaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let at = |path: &Option<PathBuf>| match path {
            Some(p) => format!(" in {}", p.display()),
            None => String::new(),
        };
        match self {
            EvaxError::Io { path, source } => write!(f, "i/o error{}: {source}", at(path)),
            EvaxError::Parse { path, line, reason } => {
                write!(f, "parse error{} at line {line}: {reason}", at(path))
            }
            EvaxError::Corrupt {
                what,
                expected,
                got,
            } => write!(f, "corrupt {what}: expected {expected}, got {got}"),
            EvaxError::Config { what, reason } => {
                write!(f, "invalid config ({what}): {reason}")
            }
        }
    }
}

impl std::error::Error for EvaxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvaxError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for EvaxError {
    fn from(source: std::io::Error) -> Self {
        EvaxError::Io { path: None, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = EvaxError::parse(7, "bad max '?'").with_path("/tmp/model.txt");
        let msg = e.to_string();
        assert!(msg.contains("line 7"), "{msg}");
        assert!(msg.contains("/tmp/model.txt"), "{msg}");
        let e = EvaxError::corrupt("model header", "'evax-model v1'", "'garbage'");
        assert!(e.to_string().contains("expected 'evax-model v1'"));
        let e = EvaxError::config("secure_window", "must be positive");
        assert!(e.to_string().contains("secure_window"));
    }

    #[test]
    fn io_variant_carries_source_and_path() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e = EvaxError::from(io).with_path("missing.csv");
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("missing.csv"));
        match e {
            EvaxError::Io { path, .. } => assert!(path.is_some()),
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn with_path_passes_other_variants_through() {
        let e = EvaxError::config("holdout", "out of range").with_path("x");
        assert!(matches!(e, EvaxError::Config { .. }));
    }
}
