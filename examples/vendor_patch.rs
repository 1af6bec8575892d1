//! The paper's §VI-B update story: when a feature-novel attack appears
//! (MicroScope-class), the vendor retrains offline and ships a
//! microcode-style detector patch; the deployed core applies it after
//! integrity and anti-rollback checks.
//!
//! ```text
//! cargo run --release --example vendor_patch
//! ```

use evax::core::metrics::Confusion;
use evax::core::patch::{DetectorPatch, PatchableDetector};
use evax::core::prelude::{EvaxConfig, EvaxPipeline};
use evax::sim::HPC_BASE_DIM;

fn main() {
    // Factory firmware: a detector trained on launch-day attack classes.
    println!("training factory detector...");
    let cfg = EvaxConfig::small();
    let factory = EvaxPipeline::run(&cfg, 100);
    let mut core = PatchableDetector::factory(factory.evax.clone(), HPC_BASE_DIM);
    println!(
        "deployed revision {} (holdout accuracy {:.3})",
        core.revision(),
        Confusion::evaluate(core.detector(), &factory.holdout, cfg.collect.parallelism).accuracy()
    );

    // A new attack campaign: the vendor retrains with fresh data and ships
    // revision 1.
    println!("\nvendor retraining on updated corpus...");
    let updated = EvaxPipeline::run(&cfg, 101);
    let blob = DetectorPatch::from_detector(&updated.evax, HPC_BASE_DIM, 1).to_bytes();
    println!(
        "patch blob: {} bytes (weights + engineered-HPC wiring + threshold)",
        blob.len()
    );

    core.apply(&blob).expect("valid patch applies");
    println!(
        "applied revision {}; accuracy on the new corpus {:.3}",
        core.revision(),
        Confusion::evaluate(core.detector(), &updated.holdout, cfg.collect.parallelism).accuracy()
    );

    // Security properties of the update slot:
    println!("\nupdate-slot hardening:");
    match core.apply(&blob) {
        Err(e) => println!("  replayed patch rejected: {e}"),
        Ok(()) => unreachable!("anti-rollback must reject replays"),
    }
    let mut corrupt = DetectorPatch::from_detector(&updated.evax, HPC_BASE_DIM, 2).to_bytes();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x5A;
    match core.apply(&corrupt) {
        Err(e) => println!("  corrupted patch rejected: {e}"),
        Ok(()) => unreachable!("integrity check must reject corruption"),
    }
    println!("  deployed revision unchanged: {}", core.revision());
}
