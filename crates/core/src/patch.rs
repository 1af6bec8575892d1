//! Vendor-distributed detector updates (paper §VI-B, *Weight & Feature
//! Updates*): "EVAX is capable of being updated via a vendor distributed
//! patch. We anticipate newly emerging attacks in the future will require
//! updates to neural weights and additions to the set of features being
//! monitored. This is a process similar to microcode updates."
//!
//! A [`DetectorPatch`] carries the deployed perceptron's weights, threshold,
//! engineered-feature definitions and a version counter, serialized to a
//! self-describing binary blob with an integrity checksum — the artifact a
//! vendor would sign and ship.

use crate::detector::Detector;
use crate::feature_engineering::EngineeredFeature;
use evax_nn::detector::{put_f32, put_u32, Cursor};

/// Magic prefix identifying a detector patch blob.
const MAGIC: &[u8; 4] = b"EVXP";
/// Current patch format version.
const FORMAT_VERSION: u16 = 1;

/// A deployable detector update.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DetectorPatch {
    /// Monotonically increasing patch revision (microcode-style).
    pub revision: u32,
    /// Baseline feature dimension the patch expects (must match the HPC
    /// space of the core being patched).
    pub base_dim: usize,
    /// Perceptron weights over the extended (base + engineered) space.
    pub weights: Vec<f32>,
    /// Perceptron bias.
    pub bias: f32,
    /// Decision threshold.
    pub threshold: f32,
    /// Presence-bit cut for the quantized datapath.
    pub presence_cut: f32,
    /// Engineered security-HPC definitions (wiring for the combiner logic).
    pub engineered: Vec<EngineeredFeature>,
}

/// Errors applying or decoding a patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchError {
    /// Blob does not start with the patch magic.
    BadMagic,
    /// Format version is newer than this implementation understands.
    UnsupportedVersion(u16),
    /// Integrity checksum mismatch (corrupt or tampered blob).
    ChecksumMismatch,
    /// Payload failed to decode.
    Malformed(String),
    /// The patch targets a different baseline feature dimension.
    DimensionMismatch {
        /// Dimension the patch expects.
        expected: usize,
        /// Dimension of the core being patched.
        actual: usize,
    },
    /// The patch revision does not advance the deployed revision.
    StaleRevision {
        /// Revision currently deployed.
        deployed: u32,
        /// Revision offered by the patch.
        offered: u32,
    },
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::BadMagic => write!(f, "not a detector patch blob"),
            PatchError::UnsupportedVersion(v) => write!(f, "unsupported patch format version {v}"),
            PatchError::ChecksumMismatch => write!(f, "patch integrity checksum mismatch"),
            PatchError::Malformed(e) => write!(f, "malformed patch payload: {e}"),
            PatchError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "patch expects {expected} baseline features, core has {actual}"
                )
            }
            PatchError::StaleRevision { deployed, offered } => {
                write!(
                    f,
                    "patch revision {offered} does not advance deployed revision {deployed}"
                )
            }
        }
    }
}

impl std::error::Error for PatchError {}

fn fletcher32(data: &[u8]) -> u32 {
    let mut a: u32 = 0;
    let mut b: u32 = 0;
    for &byte in data {
        a = (a + byte as u32) % 65535;
        b = (b + a) % 65535;
    }
    (b << 16) | a
}

/// Frames a payload as a patch blob: magic, version, checksum and length.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 14);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    put_u32(&mut out, fletcher32(payload));
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    out
}

impl DetectorPatch {
    /// Captures a trained detector as a shippable patch.
    pub fn from_detector(detector: &Detector, base_dim: usize, revision: u32) -> Self {
        DetectorPatch {
            revision,
            base_dim,
            weights: detector.perceptron().weights().to_vec(),
            bias: detector.perceptron().bias(),
            threshold: detector.threshold(),
            presence_cut: detector.presence_cut(),
            engineered: detector.engineered().to_vec(),
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_u32(&mut p, self.revision);
        put_u32(&mut p, self.base_dim as u32);
        put_u32(&mut p, self.weights.len() as u32);
        for &w in &self.weights {
            put_f32(&mut p, w);
        }
        put_f32(&mut p, self.bias);
        put_f32(&mut p, self.threshold);
        put_f32(&mut p, self.presence_cut);
        put_u32(&mut p, self.engineered.len() as u32);
        for f in &self.engineered {
            put_u32(&mut p, f.name.len() as u32);
            p.extend_from_slice(f.name.as_bytes());
            put_u32(&mut p, f.components.len() as u32);
            for &c in &f.components {
                put_u32(&mut p, c as u32);
            }
        }
        p
    }

    /// Decodes a payload; the error is the [`PatchError::Malformed`] reason.
    fn decode_payload(p: &[u8]) -> Result<Self, String> {
        let mut r = Cursor::new(p);
        let revision = r.u32()?;
        let base_dim = r.u32()? as usize;
        let n_weights = r.u32()? as usize;
        if n_weights > 1 << 20 {
            return Err("implausible weight count".into());
        }
        let weights = r.f32_vec(n_weights)?;
        let bias = r.f32()?;
        let threshold = r.f32()?;
        let presence_cut = r.f32()?;
        let n_eng = r.u32()? as usize;
        if n_eng > 1 << 12 {
            return Err("implausible feature count".into());
        }
        let mut engineered = Vec::with_capacity(n_eng);
        for _ in 0..n_eng {
            let name_len = r.u32()? as usize;
            if name_len > 4096 {
                return Err("implausible name length".into());
            }
            let name = String::from_utf8(r.take(name_len)?.to_vec())
                .map_err(|_| "feature name not UTF-8".to_string())?;
            let n_comp = r.u32()? as usize;
            if n_comp > 64 {
                return Err("implausible component count".into());
            }
            let mut components = Vec::with_capacity(n_comp);
            for _ in 0..n_comp {
                components.push(r.u32()? as usize);
            }
            engineered.push(EngineeredFeature { name, components });
        }
        r.done()?;
        Ok(DetectorPatch {
            revision,
            base_dim,
            weights,
            bias,
            threshold,
            presence_cut,
            engineered,
        })
    }

    /// Serializes to the signed-blob wire format:
    /// `MAGIC | version(u16) | checksum(u32) | payload-len(u32) | payload`.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(&self.encode_payload())
    }

    /// Decodes and integrity-checks a patch blob. Bytes after the declared
    /// payload, or payload bytes the decoder does not consume, make the
    /// patch malformed.
    ///
    /// # Errors
    /// Returns a [`PatchError`] for bad magic, unsupported versions,
    /// checksum mismatches or malformed payloads.
    pub fn from_bytes(blob: &[u8]) -> Result<Self, PatchError> {
        if blob.len() < 14 || &blob[..4] != MAGIC {
            return Err(PatchError::BadMagic);
        }
        let version = u16::from_le_bytes([blob[4], blob[5]]);
        if version > FORMAT_VERSION {
            return Err(PatchError::UnsupportedVersion(version));
        }
        let checksum = u32::from_le_bytes([blob[6], blob[7], blob[8], blob[9]]);
        let len = u32::from_le_bytes([blob[10], blob[11], blob[12], blob[13]]) as usize;
        let payload = blob
            .get(14..14 + len)
            .ok_or_else(|| PatchError::Malformed("truncated payload".into()))?;
        if blob.len() != 14 + len {
            return Err(PatchError::Malformed("trailing bytes after payload".into()));
        }
        if fletcher32(payload) != checksum {
            return Err(PatchError::ChecksumMismatch);
        }
        Self::decode_payload(payload).map_err(PatchError::Malformed)
    }

    /// Instantiates the deployed detector this patch describes.
    ///
    /// # Errors
    /// Returns [`PatchError::DimensionMismatch`] if `core_base_dim` differs
    /// from the patch's target dimension, or if the weight vector does not
    /// cover base + engineered features.
    pub fn instantiate(&self, core_base_dim: usize) -> Result<Detector, PatchError> {
        if self.base_dim != core_base_dim {
            return Err(PatchError::DimensionMismatch {
                expected: self.base_dim,
                actual: core_base_dim,
            });
        }
        if self.weights.len() != self.base_dim + self.engineered.len() {
            return Err(PatchError::Malformed(format!(
                "weight vector has {} entries for {} features",
                self.weights.len(),
                self.base_dim + self.engineered.len()
            )));
        }
        for f in &self.engineered {
            if f.components.iter().any(|&c| c >= self.base_dim) {
                return Err(PatchError::Malformed(format!(
                    "engineered feature '{}' wires a nonexistent counter",
                    f.name
                )));
            }
        }
        Ok(Detector::from_patch_parts(
            self.weights.clone(),
            self.bias,
            self.threshold,
            self.presence_cut,
            self.engineered.clone(),
        ))
    }
}

/// The on-core update slot: holds the active detector and enforces
/// monotonically increasing revisions, like a microcode update facility.
#[derive(Debug, Clone)]
pub struct PatchableDetector {
    detector: Detector,
    revision: u32,
    base_dim: usize,
}

impl PatchableDetector {
    /// Deploys an initial (factory) detector at revision 0.
    pub fn factory(detector: Detector, base_dim: usize) -> Self {
        PatchableDetector {
            detector,
            revision: 0,
            base_dim,
        }
    }

    /// The active detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// The deployed revision.
    pub fn revision(&self) -> u32 {
        self.revision
    }

    /// Applies a vendor patch blob: integrity check, dimension check,
    /// revision must strictly advance.
    ///
    /// # Errors
    /// All [`PatchError`] variants.
    pub fn apply(&mut self, blob: &[u8]) -> Result<(), PatchError> {
        let patch = DetectorPatch::from_bytes(blob)?;
        if patch.revision <= self.revision {
            return Err(PatchError::StaleRevision {
                deployed: self.revision,
                offered: patch.revision,
            });
        }
        let detector = patch.instantiate(self.base_dim)?;
        self.detector = detector;
        self.revision = patch.revision;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Sample};
    use crate::detector::{DetectorKind, TrainConfig};
    use rand::{Rng, SeedableRng};

    fn trained(seed: u64) -> (Detector, usize) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new();
        for _ in 0..100 {
            let m: f32 = rng.gen_range(0.6..1.0);
            let b: f32 = rng.gen_range(0.0..0.4);
            ds.push(Sample::new(vec![m, b, 0.5], 1));
            ds.push(Sample::new(vec![b, m, 0.5], 0));
        }
        let eng = vec![EngineeredFeature {
            name: "f0_AND_f2".into(),
            components: vec![0, 2],
        }];
        let det = Detector::train(
            DetectorKind::Evax,
            &ds,
            eng,
            &TrainConfig::default(),
            &mut rng,
        );
        (det, 3)
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        let (det, dim) = trained(1);
        let patch = DetectorPatch::from_detector(&det, dim, 5);
        let blob = patch.to_bytes();
        let restored = DetectorPatch::from_bytes(&blob)
            .unwrap()
            .instantiate(dim)
            .unwrap();
        for probe in [[0.9f32, 0.1, 0.5], [0.1, 0.9, 0.5], [0.5, 0.5, 0.0]] {
            assert_eq!(det.classify(&probe), restored.classify(&probe));
            assert!((det.score(&probe) - restored.score(&probe)).abs() < 1e-6);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let (det, dim) = trained(2);
        let mut blob = DetectorPatch::from_detector(&det, dim, 1).to_bytes();
        let mid = blob.len() / 2;
        blob[mid] ^= 0xFF;
        assert!(matches!(
            DetectorPatch::from_bytes(&blob),
            Err(PatchError::ChecksumMismatch) | Err(PatchError::Malformed(_))
        ));
    }

    #[test]
    fn bytes_after_the_payload_rejected() {
        let (det, dim) = trained(6);
        let mut blob = DetectorPatch::from_detector(&det, dim, 1).to_bytes();
        blob.push(0);
        assert!(matches!(
            DetectorPatch::from_bytes(&blob),
            Err(PatchError::Malformed(_))
        ));
    }

    #[test]
    fn checksummed_payload_with_trailing_bytes_rejected() {
        let (det, dim) = trained(7);
        let mut payload = DetectorPatch::from_detector(&det, dim, 1).encode_payload();
        payload.extend_from_slice(&[0; 4]);
        assert!(matches!(
            DetectorPatch::from_bytes(&seal(&payload)),
            Err(PatchError::Malformed(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(
            DetectorPatch::from_bytes(b"NOPE-----"),
            Err(PatchError::BadMagic)
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (det, dim) = trained(3);
        let patch = DetectorPatch::from_detector(&det, dim, 1);
        assert!(matches!(
            patch.instantiate(dim + 1),
            Err(PatchError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn revisions_must_advance() {
        let (det, dim) = trained(4);
        let mut slot = PatchableDetector::factory(det.clone(), dim);
        let p1 = DetectorPatch::from_detector(&det, dim, 1).to_bytes();
        slot.apply(&p1).unwrap();
        assert_eq!(slot.revision(), 1);
        // Replaying the same revision fails (anti-rollback).
        assert!(matches!(
            slot.apply(&p1),
            Err(PatchError::StaleRevision { .. })
        ));
        let p2 = DetectorPatch::from_detector(&det, dim, 2).to_bytes();
        slot.apply(&p2).unwrap();
        assert_eq!(slot.revision(), 2);
    }

    #[test]
    fn patch_with_dangling_engineered_wiring_rejected() {
        let (det, dim) = trained(5);
        let mut patch = DetectorPatch::from_detector(&det, dim, 1);
        patch.engineered[0].components = vec![0, 99];
        assert!(matches!(
            patch.instantiate(dim),
            Err(PatchError::Malformed(_))
        ));
    }
}
