//! First-class feature schema: the ordered, named, modality-tagged counter
//! list that defines what a window vector *means*.
//!
//! Historically the window width was the scattered constant
//! `HPC_BASE_DIM = 133`, hard-coded through sim, featurize, nn, and io.
//! Adding a sensing modality (the energy model, `crate::energy`) makes the
//! width configuration-dependent, so the width — and the identity of every
//! column — is now negotiated by a [`FeatureSchema`]:
//!
//! * built from a [`CpuConfig`] by
//!   [`FeatureSchema::for_config`] (baseline 133 counters, plus the
//!   `energy.*` tail when the sensor is enabled);
//! * extended with engineered-feature names by
//!   [`FeatureSchema::with_engineered`];
//! * identified by an FNV-1a [`fingerprint`](FeatureSchema::fingerprint)
//!   over the `(name, modality)` sequence, which versioned artifacts embed
//!   so a model trained against one schema refuses (with a typed error, not
//!   a slice-length panic) to score windows from another.

use std::borrow::Cow;

use crate::config::CpuConfig;
use crate::energy::ENERGY_NAMES;
use crate::snapshot::Fnv1a;

/// Sensing modality of one schema column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Modality {
    /// Baseline hardware performance counter (raw count or derived rate).
    Hpc,
    /// Energy-model counter (`energy.*`, weighted event sums).
    Energy,
    /// Asynchronous-event device counter (`irq.*`/`dma.*`,
    /// `crate::device`).
    Device,
    /// Engineered feature appended by `evax-core`'s feature engineering.
    Engineered,
}

impl Modality {
    /// Stable single-character tag used in fingerprints and artifact
    /// headers (`h`/`e`/`d`/`g`).
    pub fn tag(self) -> char {
        match self {
            Modality::Hpc => 'h',
            Modality::Energy => 'e',
            Modality::Device => 'd',
            Modality::Engineered => 'g',
        }
    }

    /// Parses a [`tag`](Modality::tag) character.
    pub fn from_tag(c: char) -> Option<Modality> {
        match c {
            'h' => Some(Modality::Hpc),
            'e' => Some(Modality::Energy),
            'd' => Some(Modality::Device),
            'g' => Some(Modality::Engineered),
            _ => None,
        }
    }
}

/// Ordered, named, modality-tagged feature columns with a cached FNV-1a
/// fingerprint. See the module docs for the role it plays.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FeatureSchema {
    names: Vec<Cow<'static, str>>,
    modalities: Vec<Modality>,
    fingerprint: u64,
}

/// FNV-1a over the `(name, modality)` sequence with explicit separators,
/// so `["ab","c"]` and `["a","bc"]` fingerprint differently.
fn fingerprint_of(names: &[Cow<'static, str>], modalities: &[Modality]) -> u64 {
    let mut h = Fnv1a::default();
    for (name, m) in names.iter().zip(modalities) {
        h.bytes(name.as_bytes()).bytes(&[0x1f, m.tag() as u8, 0x1e]);
    }
    h.finish()
}

impl FeatureSchema {
    fn build(names: Vec<Cow<'static, str>>, modalities: Vec<Modality>) -> FeatureSchema {
        debug_assert_eq!(names.len(), modalities.len());
        let fingerprint = fingerprint_of(&names, &modalities);
        FeatureSchema {
            names,
            modalities,
            fingerprint,
        }
    }

    /// The pre-sensor baseline: the 133 HPC counters, all
    /// [`Modality::Hpc`]. Equivalent to `for_config` of a default
    /// [`CpuConfig`].
    pub fn baseline() -> FeatureSchema {
        let names: Vec<Cow<'static, str>> = crate::hpc::base_hpc_names()
            .iter()
            .map(|&n| Cow::Borrowed(n))
            .collect();
        let modalities = vec![Modality::Hpc; names.len()];
        FeatureSchema::build(names, modalities)
    }

    /// The baseline columns with the optional sensor tails appended in
    /// canonical order: `energy.*` ([`Modality::Energy`]), then
    /// `irq.*`/`dma.*` ([`Modality::Device`]) — the order
    /// [`crate::hpc::for_each_hpc`] visits counters.
    fn with_tails(energy: bool, devices: bool) -> FeatureSchema {
        let mut names: Vec<Cow<'static, str>> = crate::hpc::base_hpc_names()
            .iter()
            .map(|&n| Cow::Borrowed(n))
            .collect();
        let mut modalities = vec![Modality::Hpc; names.len()];
        if energy {
            for &n in ENERGY_NAMES.iter() {
                names.push(Cow::Borrowed(n));
                modalities.push(Modality::Energy);
            }
        }
        if devices {
            for &n in crate::device::DEVICE_NAMES.iter() {
                names.push(Cow::Borrowed(n));
                modalities.push(Modality::Device);
            }
        }
        FeatureSchema::build(names, modalities)
    }

    /// The schema a [`Cpu`](crate::cpu::Cpu) built from `cfg` exports:
    /// the baseline counters, plus the `energy.*` tail when the energy
    /// sensor is enabled, plus the `irq.*`/`dma.*` tail when the device
    /// subsystem is enabled.
    pub fn for_config(cfg: &CpuConfig) -> FeatureSchema {
        FeatureSchema::with_tails(cfg.sensor.energy, cfg.devices.enabled)
    }

    /// Best-effort schema recovery from a bare width (for datasets and
    /// artifacts that recorded only their dimension): each known
    /// baseline-plus-tails width maps to its schema, and any other width
    /// gets anonymous columns. The four tail combinations have pairwise
    /// distinct widths (`ENERGY_DIM != DEVICE_DIM`), so the mapping is
    /// unambiguous.
    pub fn for_dim(dim: usize) -> FeatureSchema {
        use crate::device::DEVICE_DIM;
        use crate::energy::ENERGY_DIM;
        use crate::hpc::HPC_BASE_DIM;
        if dim == HPC_BASE_DIM {
            FeatureSchema::baseline()
        } else if dim == HPC_BASE_DIM + ENERGY_DIM {
            FeatureSchema::with_tails(true, false)
        } else if dim == HPC_BASE_DIM + DEVICE_DIM {
            FeatureSchema::with_tails(false, true)
        } else if dim == HPC_BASE_DIM + ENERGY_DIM + DEVICE_DIM {
            FeatureSchema::with_tails(true, true)
        } else {
            FeatureSchema::anonymous(dim)
        }
    }

    /// A schema of anonymous `f0..fN` HPC columns, for artifacts and
    /// datasets predating the schema redesign whose true names are
    /// unknown (everything except the width).
    pub fn anonymous(dim: usize) -> FeatureSchema {
        let names: Vec<Cow<'static, str>> = (0..dim).map(|i| Cow::Owned(format!("f{i}"))).collect();
        let modalities = vec![Modality::Hpc; dim];
        FeatureSchema::build(names, modalities)
    }

    /// Rebuilds a schema from explicit `(name, modality)` columns (the
    /// artifact-loading path).
    pub fn from_columns(columns: Vec<(String, Modality)>) -> FeatureSchema {
        let mut names = Vec::with_capacity(columns.len());
        let mut modalities = Vec::with_capacity(columns.len());
        for (n, m) in columns {
            names.push(Cow::Owned(n));
            modalities.push(m);
        }
        FeatureSchema::build(names, modalities)
    }

    /// This schema extended with engineered-feature columns
    /// ([`Modality::Engineered`]) appended after the sensor columns.
    pub fn with_engineered<I>(&self, engineered: I) -> FeatureSchema
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut names = self.names.clone();
        let mut modalities = self.modalities.clone();
        for n in engineered {
            names.push(Cow::Owned(n.into()));
            modalities.push(Modality::Engineered);
        }
        FeatureSchema::build(names, modalities)
    }

    /// Number of columns — the negotiated window width.
    pub fn dim(&self) -> usize {
        self.names.len()
    }

    /// Name of column `i`.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Modality of column `i`.
    pub fn modality(&self, i: usize) -> Modality {
        self.modalities[i]
    }

    /// All column names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|n| n.as_ref())
    }

    /// All column names as a `Vec<&str>` (for APIs taking `&[&str]`).
    pub fn names_vec(&self) -> Vec<&str> {
        self.names.iter().map(|n| n.as_ref()).collect()
    }

    /// Index of a named column, if present.
    pub fn index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Number of columns of the given modality.
    pub fn count(&self, modality: Modality) -> usize {
        self.modalities.iter().filter(|&&m| m == modality).count()
    }

    /// FNV-1a fingerprint of the `(name, modality)` sequence. Two schemas
    /// agree on every column name, order, and modality iff their
    /// fingerprints match (modulo hash collisions).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// `(name, modality)` pairs, in order (the artifact-writing path).
    pub fn columns(&self) -> impl Iterator<Item = (&str, Modality)> {
        self.names
            .iter()
            .map(|n| n.as_ref())
            .zip(self.modalities.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::ENERGY_DIM;
    use crate::hpc::HPC_BASE_DIM;
    use crate::SensorConfig;

    #[test]
    fn baseline_is_133_hpc_columns() {
        let s = FeatureSchema::baseline();
        assert_eq!(s.dim(), HPC_BASE_DIM);
        assert_eq!(s.count(Modality::Hpc), HPC_BASE_DIM);
        assert_eq!(s.name(0), "cycles");
        assert_eq!(s.index("derived.l2MissRate"), Some(HPC_BASE_DIM - 1));
    }

    #[test]
    fn for_config_default_matches_baseline() {
        let s = FeatureSchema::for_config(&CpuConfig::default());
        assert_eq!(s, FeatureSchema::baseline());
        assert_eq!(s.fingerprint(), FeatureSchema::baseline().fingerprint());
    }

    #[test]
    fn energy_tail_changes_dim_and_fingerprint() {
        let cfg = CpuConfig {
            sensor: SensorConfig {
                energy: true,
                ..Default::default()
            },
            ..CpuConfig::default()
        };
        let s = FeatureSchema::for_config(&cfg);
        assert_eq!(s.dim(), HPC_BASE_DIM + ENERGY_DIM);
        assert_eq!(s.count(Modality::Energy), ENERGY_DIM);
        assert_eq!(s.name(HPC_BASE_DIM), "energy.core");
        assert_ne!(s.fingerprint(), FeatureSchema::baseline().fingerprint());
    }

    #[test]
    fn engineered_extension_appends() {
        let s = FeatureSchema::baseline().with_engineered(["eng.a", "eng.b"]);
        assert_eq!(s.dim(), HPC_BASE_DIM + 2);
        assert_eq!(s.count(Modality::Engineered), 2);
        assert_eq!(s.name(HPC_BASE_DIM), "eng.a");
        assert_ne!(s.fingerprint(), FeatureSchema::baseline().fingerprint());
    }

    #[test]
    fn fingerprint_sensitive_to_order_and_modality() {
        let a = FeatureSchema::from_columns(vec![
            ("x".into(), Modality::Hpc),
            ("y".into(), Modality::Hpc),
        ]);
        let b = FeatureSchema::from_columns(vec![
            ("y".into(), Modality::Hpc),
            ("x".into(), Modality::Hpc),
        ]);
        let c = FeatureSchema::from_columns(vec![
            ("x".into(), Modality::Hpc),
            ("y".into(), Modality::Energy),
        ]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_separator_prevents_concat_aliasing() {
        let a = FeatureSchema::from_columns(vec![
            ("ab".into(), Modality::Hpc),
            ("c".into(), Modality::Hpc),
        ]);
        let b = FeatureSchema::from_columns(vec![
            ("a".into(), Modality::Hpc),
            ("bc".into(), Modality::Hpc),
        ]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn round_trip_through_columns() {
        let cfg = CpuConfig {
            sensor: SensorConfig {
                energy: true,
                ..Default::default()
            },
            ..CpuConfig::default()
        };
        let s = FeatureSchema::for_config(&cfg).with_engineered(["eng.z"]);
        let rebuilt =
            FeatureSchema::from_columns(s.columns().map(|(n, m)| (n.to_string(), m)).collect());
        assert_eq!(s, rebuilt);
        assert_eq!(s.fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn modality_tags_round_trip() {
        for m in [
            Modality::Hpc,
            Modality::Energy,
            Modality::Device,
            Modality::Engineered,
        ] {
            assert_eq!(Modality::from_tag(m.tag()), Some(m));
        }
        assert_eq!(Modality::from_tag('x'), None);
    }

    #[test]
    fn device_tail_changes_dim_and_fingerprint() {
        use crate::device::{DeviceConfig, TimerConfig, DEVICE_DIM};
        let cfg = CpuConfig {
            devices: DeviceConfig {
                enabled: true,
                timer: TimerConfig { period: 500 },
                ..Default::default()
            },
            ..CpuConfig::default()
        };
        let s = FeatureSchema::for_config(&cfg);
        assert_eq!(s.dim(), HPC_BASE_DIM + DEVICE_DIM);
        assert_eq!(s.count(Modality::Device), DEVICE_DIM);
        assert_eq!(s.name(HPC_BASE_DIM), "irq.timerFires");
        assert_eq!(s.name(s.dim() - 1), "dma.portStealCycles");
        assert_ne!(s.fingerprint(), FeatureSchema::baseline().fingerprint());
        assert_eq!(FeatureSchema::for_dim(s.dim()), s);
    }

    #[test]
    fn energy_plus_device_tails_stack_in_order() {
        use crate::device::{DeviceConfig, TimerConfig, DEVICE_DIM};
        let cfg = CpuConfig {
            sensor: SensorConfig {
                energy: true,
                ..Default::default()
            },
            devices: DeviceConfig {
                enabled: true,
                timer: TimerConfig { period: 500 },
                ..Default::default()
            },
            ..CpuConfig::default()
        };
        let s = FeatureSchema::for_config(&cfg);
        assert_eq!(s.dim(), HPC_BASE_DIM + ENERGY_DIM + DEVICE_DIM);
        assert_eq!(s.name(HPC_BASE_DIM), "energy.core");
        assert_eq!(s.name(HPC_BASE_DIM + ENERGY_DIM), "irq.timerFires");
        assert_eq!(s.modality(HPC_BASE_DIM + ENERGY_DIM), Modality::Device);
        assert_eq!(FeatureSchema::for_dim(s.dim()), s);
    }
}
