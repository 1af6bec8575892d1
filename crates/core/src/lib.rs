//! # evax-core — the EVAX framework (paper §V–§VI)
//!
//! This crate implements the paper's primary contribution on top of the
//! `evax-sim`/`evax-attacks` substrate:
//!
//! * [`dataset`]/[`collect`] — HPC sample collection from simulated attack
//!   and benign runs, with running-max normalization (§VII).
//! * [`gram`] — the Gram-matrix *attack style loss* `L_GM`, EVAX's quality
//!   and interpretability metric for generated samples (§V-D, Figs. 6–7).
//! * [`gan`] — the **AM-GAN**: a deep conditional Generator against a
//!   shallow, detector-shaped Discriminator, trained per Fig. 4's algorithm;
//!   sample collection gated by the style loss.
//! * [`feature_engineering`] — automatic security-HPC engineering: mining
//!   the trained Generator's hidden weights for concentrated HPC
//!   combinations, yielding the 12 new counters of Table I (§VI-A).
//! * [`detector`] — the deployed hardware detector (quantized perceptron)
//!   and the PerSpectron baseline; *vaccination* = retraining on the
//!   AM-GAN-augmented dataset (§V-C).
//! * [`featurize`] — the unified streaming featurization pipeline: one
//!   window→feature path ([`featurize::WindowSource`] → delta → normalize →
//!   engineered projection → pluggable sinks) shared by collection,
//!   training corpora and the online adaptive defense, with a serializable
//!   [`featurize::Featurizer`] so train and deploy transforms never drift.
//! * [`fuzz`] — analogs of Transynther / TRRespass / Osiris plus manual
//!   evasive transforms, generating the evasive corpora of Fig. 17.
//! * [`aml`] — adversarial-ML evasion bounded by the transient window /
//!   ROB budget (Figs. 2 and 18): perturbations large enough to evade a
//!   hardened detector disable the attack.
//! * [`io`] — CSV dataset export/import (drop the HPC streams into any
//!   external ML tooling), normalizer/featurizer persistence, and the
//!   bundled model format.
//! * [`error`] — the crate-wide typed error ([`error::EvaxError`]) every
//!   fallible API returns, with path/line/expected-got context.
//! * [`faults`] — deterministic fault injection (storage / data /
//!   inference injectors, bounded retry) behind no-op-default hooks; the
//!   robustness layer the `evax-bench` `fault_matrix` chaos harness
//!   drives to prove the pipeline fails secure.
//! * [`prelude`] — one-import access to the stable API surface.
//! * [`metrics`] — accuracy, FP/FN rates per instruction window, ROC/AUC.
//! * [`patch`] — vendor-distributed detector updates (§VI-B), a
//!   microcode-style monotone-revision update slot with integrity checks.
//! * [`replicated`] — replicated per-pipeline-region feature detectors
//!   (§VI-A): suppressing one region's footprint does not evade the rest.
//! * [`kfold`] — leave-one-attack-out cross-validation (zero-day setting,
//!   Fig. 19 and the §VIII-C TPR headlines).
//! * [`par`] — the deterministic parallel execution substrate (scoped
//!   threads + atomic work-queue) behind collection, k-fold, fuzz corpora
//!   and holdout scoring; results are bit-identical at any thread count.
//! * [`deep_eval`] — EVAX training applied to 1/16/32-layer deep networks
//!   (Fig. 20).
//! * [`pipeline`] — the end-to-end `collect → AM-GAN → engineer →
//!   vaccinate` flow with one entry point.
//!
//! ## Example
//!
//! ```no_run
//! use evax_core::pipeline::{EvaxConfig, EvaxPipeline};
//!
//! let config = EvaxConfig::small(); // laptop-scale corpus
//! let pipeline = EvaxPipeline::run(&config, 42);
//! let report = pipeline.evaluate_holdout();
//! println!("detector accuracy: {:.3}", report.accuracy);
//! ```
//!
//! ## Stable vs. internal surface
//!
//! The *stable* surface is what [`prelude`] re-exports: the dataset types,
//! the detector, the streaming featurization entry points, persistence, the
//! error model, the parallelism switch and the pipeline configs (plain
//! structs, checked by `EvaxConfig::validate` when a run starts). Items
//! reachable only through module paths (layer internals, loss plumbing,
//! the GAN's training internals) are *internal*: public for
//! reproduction scripts and tests, but free to change between minor
//! versions. New code should import from the prelude; if something you need
//! is missing there, treat that as an API request, not an invitation to
//! reach into internals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aml;
pub mod collect;
pub mod dataset;
pub mod deep_eval;
pub mod detector;
pub mod error;
pub mod faults;
pub mod feature_engineering;
pub mod featurize;
pub mod fuzz;
pub mod gan;
pub mod gram;
pub mod io;
pub mod kfold;
pub mod metrics;
pub mod par;
pub mod patch;
pub mod pipeline;
pub mod prelude;
pub mod replicated;

pub use dataset::{Dataset, Normalizer, Sample, BENIGN_CLASS, N_CLASSES};
pub use detector::{Detector, DetectorKind};
pub use error::{EvaxError, Result};
pub use featurize::{
    Featurizer, ProgramSource, RawWindow, StreamStats, WindowBatch, WindowSink, WindowSource,
};
pub use gram::{gram_matrix, style_loss, style_loss_normalized};
pub use par::Parallelism;
