//! One-import access to the stable API surface.
//!
//! ```
//! use evax_core::prelude::*;
//!
//! EvaxConfig::small().validate().expect("shipped configs validate");
//! ```
//!
//! Everything here is the *stable* surface described in the crate docs:
//! examples, benches and downstream crates should import from this module.
//! Items not re-exported here are internal — public for reproduction
//! scripts, but free to change.

pub use crate::collect::CollectConfig;
pub use crate::dataset::{Dataset, Normalizer, Sample, BENIGN_CLASS, N_CLASSES};
pub use crate::detector::{Detector, DetectorKind, TrainConfig};
pub use crate::error::{EvaxError, Result};
pub use crate::faults::{retry, FaultInjector, FaultKind, FaultingSink, RetryPolicy, SliceSource};
pub use crate::featurize::{
    Featurizer, ProgramSource, RawWindow, StreamStats, WindowBatch, WindowSink, WindowSource,
};
pub use crate::io::{
    read_csv, read_featurizer, read_featurizer_file, read_model, read_model_file, write_csv,
    write_featurizer, write_featurizer_file, write_model, write_model_file,
    write_model_with_hardened, ModelBundle,
};
pub use crate::par::Parallelism;
pub use crate::pipeline::{
    vaccinate, vaccinate_ensemble, EvaxConfig, EvaxPipeline, HoldoutReport, Vaccination,
};
pub use evax_nn::{
    load_detector, Detector as ModelDetector, DetectorScratch, Ensemble, StochasticDetector,
    ThresholdedPerceptron,
};
pub use evax_obs::{MetricsSink, Registry};
