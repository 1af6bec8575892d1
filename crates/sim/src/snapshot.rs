//! Checkpoint container for fast-forward simulation.
//!
//! A [`Snapshot`] captures the full architectural and warm microarchitectural
//! state of a [`crate::Cpu`] (registers, memory pages, caches, TLBs, branch
//! predictor, DRAM disturbance state, pipeline statistics) as a flat `u64`
//! word stream, wrapped in a small self-validating binary envelope:
//!
//! ```text
//! "evax-snapshot v1\n"            magic (17 bytes)
//! config_fingerprint: u64 LE      FNV-1a over Debug render of CpuConfig
//! cpu_word_count:     u64 LE
//! cpu_words:          [u64 LE]    component state, fixed order (see Cpu)
//! cursor_flag:        u64 LE      0 = no cursor section, 1 = present
//! [cursor_word_count: u64 LE]
//! [cursor_words:      [u64 LE]]   SampledCursor state for mid-run resume
//! checksum:           u64 LE      FNV-1a over every preceding byte
//! ```
//!
//! The reader rejects truncated streams, bad magic, checksum mismatches and
//! structurally impossible payloads with a typed [`SnapshotError`], so a
//! corrupt checkpoint can never silently produce a diverged simulation.
//! Restoring additionally checks the configuration fingerprint: a snapshot
//! taken under one [`crate::CpuConfig`] refuses to load into a core built
//! with a different one.

use crate::config::CpuConfig;

/// Leading magic line identifying the container format and version.
pub const SNAPSHOT_MAGIC: &[u8] = b"evax-snapshot v1\n";

/// Incremental 64-bit FNV-1a: the container's checksum, the config and
/// schema fingerprints, and the bench verdict digests. Deterministic and
/// dependency-free; not a cryptographic integrity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds `bytes` in order.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds `v` as eight little-endian bytes.
    pub fn word(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a [`CpuConfig`], used to reject restoring a snapshot into
/// a differently configured core. Hashes the `Debug` rendering, which covers
/// every field (including nested cache/DRAM geometry) without a bespoke
/// serializer.
pub fn config_fingerprint(cfg: &CpuConfig) -> u64 {
    Fnv1a::default()
        .bytes(format!("{cfg:?}").as_bytes())
        .finish()
}

/// Why a snapshot failed to parse or apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    Header {
        /// What the first bytes actually were (lossily decoded).
        got: String,
    },
    /// The byte stream ended before the named section was complete.
    Truncated {
        /// Which section was being read.
        what: &'static str,
    },
    /// The trailing checksum does not match the content.
    Checksum {
        /// Checksum recomputed from the content.
        expected: u64,
        /// Checksum stored in the file.
        got: u64,
    },
    /// The snapshot was taken under a different [`CpuConfig`].
    ConfigMismatch {
        /// Fingerprint of the config the restore target was built with.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        got: u64,
    },
    /// The payload is structurally impossible (bad counts, out-of-range
    /// values) even though the envelope checks passed.
    Malformed {
        /// Which structure failed validation.
        what: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Header { got } => {
                write!(f, "not an evax snapshot (starts with {got:?})")
            }
            SnapshotError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotError::Checksum { expected, got } => write!(
                f,
                "snapshot checksum mismatch (computed {expected:#018x}, stored {got:#018x})"
            ),
            SnapshotError::ConfigMismatch { expected, got } => write!(
                f,
                "snapshot was taken under a different CpuConfig \
                 (target {expected:#018x}, snapshot {got:#018x})"
            ),
            SnapshotError::Malformed { what } => {
                write!(f, "snapshot payload malformed: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A serialized checkpoint of one core, optionally including an in-flight
/// [`crate::SampledCursor`] so an interrupted sampled run can resume exactly
/// where it left off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Fingerprint of the [`CpuConfig`] the snapshot was taken under.
    pub config_fingerprint: u64,
    /// The core's state word stream (see `Cpu::snapshot` for the layout).
    pub cpu_words: Vec<u64>,
    /// Cursor state when snapshotting mid-sampled-run.
    pub cursor_words: Option<Vec<u64>>,
}

impl Snapshot {
    /// Serializes the snapshot to its on-disk byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let cursor_len = self.cursor_words.as_ref().map_or(0, Vec::len);
        let mut out =
            Vec::with_capacity(SNAPSHOT_MAGIC.len() + (self.cpu_words.len() + cursor_len + 5) * 8);
        out.extend_from_slice(SNAPSHOT_MAGIC);
        let word = |w: u64, out: &mut Vec<u8>| out.extend_from_slice(&w.to_le_bytes());
        word(self.config_fingerprint, &mut out);
        word(self.cpu_words.len() as u64, &mut out);
        for &w in &self.cpu_words {
            word(w, &mut out);
        }
        match &self.cursor_words {
            None => word(0, &mut out),
            Some(cw) => {
                word(1, &mut out);
                word(cw.len() as u64, &mut out);
                for &w in cw {
                    word(w, &mut out);
                }
            }
        }
        let checksum = Fnv1a::default().bytes(&out).finish();
        word(checksum, &mut out);
        out
    }

    /// Parses a snapshot, validating magic, section lengths and the trailing
    /// checksum.
    ///
    /// # Errors
    /// Returns a [`SnapshotError`] describing the first problem found.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() || !bytes.starts_with(SNAPSHOT_MAGIC) {
            let head = &bytes[..bytes.len().min(SNAPSHOT_MAGIC.len())];
            return Err(SnapshotError::Header {
                got: String::from_utf8_lossy(head).into_owned(),
            });
        }
        let body = &bytes[SNAPSHOT_MAGIC.len()..];
        if body.len() < 8 {
            return Err(SnapshotError::Truncated { what: "checksum" });
        }
        let (content, tail) = body.split_at(body.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let computed = Fnv1a::default().bytes(&bytes[..bytes.len() - 8]).finish();
        if stored != computed {
            return Err(SnapshotError::Checksum {
                expected: computed,
                got: stored,
            });
        }
        if !content.len().is_multiple_of(8) {
            return Err(SnapshotError::Malformed {
                what: "content length is not word-aligned",
            });
        }
        let words: Vec<u64> = content
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        let mut it = words.iter();
        let mut next = |what: &'static str| -> Result<u64, SnapshotError> {
            it.next().copied().ok_or(SnapshotError::Truncated { what })
        };
        let config_fingerprint = next("config fingerprint")?;
        let cpu_len =
            usize::try_from(next("cpu word count")?).map_err(|_| SnapshotError::Malformed {
                what: "cpu word count overflows usize",
            })?;
        if cpu_len > words.len() {
            return Err(SnapshotError::Malformed {
                what: "cpu word count exceeds content",
            });
        }
        let cpu_words: Vec<u64> = it.by_ref().take(cpu_len).copied().collect();
        if cpu_words.len() != cpu_len {
            return Err(SnapshotError::Truncated { what: "cpu state" });
        }
        let mut next = |what: &'static str| -> Result<u64, SnapshotError> {
            it.next().copied().ok_or(SnapshotError::Truncated { what })
        };
        let cursor_words = match next("cursor flag")? {
            0 => None,
            1 => {
                let n = usize::try_from(next("cursor word count")?).map_err(|_| {
                    SnapshotError::Malformed {
                        what: "cursor word count overflows usize",
                    }
                })?;
                if n > words.len() {
                    return Err(SnapshotError::Malformed {
                        what: "cursor word count exceeds content",
                    });
                }
                let cw: Vec<u64> = it.by_ref().take(n).copied().collect();
                if cw.len() != n {
                    return Err(SnapshotError::Truncated {
                        what: "cursor state",
                    });
                }
                Some(cw)
            }
            _ => {
                return Err(SnapshotError::Malformed {
                    what: "cursor flag is neither 0 nor 1",
                });
            }
        };
        if it.next().is_some() {
            return Err(SnapshotError::Malformed {
                what: "trailing words after cursor section",
            });
        }
        Ok(Snapshot {
            config_fingerprint,
            cpu_words,
            cursor_words,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            config_fingerprint: 0xABCD,
            cpu_words: vec![1, 2, 3, u64::MAX],
            cursor_words: Some(vec![9, 8]),
        }
    }

    #[test]
    fn round_trip_with_cursor() {
        let s = sample();
        assert_eq!(Snapshot::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn round_trip_without_cursor() {
        let s = Snapshot {
            cursor_words: None,
            ..sample()
        };
        assert_eq!(Snapshot::from_bytes(&s.to_bytes()).unwrap(), s);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut b = sample().to_bytes();
        b[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&b),
            Err(SnapshotError::Header { .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let b = sample().to_bytes();
        for cut in [b.len() - 1, b.len() - 9, SNAPSHOT_MAGIC.len() + 3, 5] {
            let err = Snapshot::from_bytes(&b[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated { .. }
                        | SnapshotError::Checksum { .. }
                        | SnapshotError::Header { .. }
                        | SnapshotError::Malformed { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flip_caught_by_checksum() {
        let mut b = sample().to_bytes();
        let mid = SNAPSHOT_MAGIC.len() + 10;
        b[mid] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&b),
            Err(SnapshotError::Checksum { .. })
        ));
    }

    #[test]
    fn config_fingerprint_is_stable_and_sensitive() {
        let a = config_fingerprint(&CpuConfig::default());
        let b = config_fingerprint(&CpuConfig::default());
        assert_eq!(a, b);
        let cfg = CpuConfig {
            rob_entries: 64,
            ..CpuConfig::default()
        };
        assert_ne!(a, config_fingerprint(&cfg));
    }

    #[test]
    fn error_display_is_informative() {
        let e = SnapshotError::Checksum {
            expected: 1,
            got: 2,
        };
        assert!(e.to_string().contains("checksum"));
        let e = SnapshotError::Malformed { what: "x" };
        assert!(e.to_string().contains("x"));
    }
}
