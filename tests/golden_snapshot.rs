//! Golden pin of the snapshot wire format.
//!
//! The other snapshot tests round-trip bytes, so a layout change that moves
//! the writer and the reader together passes them. This test records the
//! byte length and FNV-1a digest of [`Snapshot::to_bytes`] for an attack and
//! a benign registry program, each under the default configuration and under
//! a device-enabled carrier configuration. Every snapshot carries a cursor
//! section: it is taken a few windows into a sampled run.
//!
//! A mismatch means the on-disk format changed. That is only correct
//! together with a new `SNAPSHOT_MAGIC` version and re-recorded values.

use evax::attacks::benign::Scale;
use evax::attacks::{
    build_attack, build_benign, AttackClass, BenignKind, CarrierKind, KernelParams,
};
use evax::sim::isa::Program;
use evax::sim::{dim_for, CpuConfig, SampledStep, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MAX_INSTRS: u64 = 4_000;
const INTERVAL: u64 = 250;
/// Windows closed before the snapshot is taken.
const WINDOWS: usize = 6;

/// 64-bit FNV-1a over the whole byte image.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn snapshot_after_windows(cfg: CpuConfig, program: &Program) -> Snapshot {
    let mut cpu = evax::attacks::tenant_core(&cfg);
    let mut cursor = cpu.begin_sampled(MAX_INSTRS, INTERVAL);
    let mut values = vec![0.0f64; dim_for(cpu.config())];
    for window in 0..WINDOWS {
        if let SampledStep::Done(_) = cursor.next_window_into(&mut cpu, program, &mut values) {
            panic!("{}: run ended after {window} windows", program.name());
        }
    }
    cpu.snapshot_with_cursor(&cursor)
}

#[test]
fn snapshot_bytes_match_recorded_digests() {
    let attack = build_attack(
        AttackClass::SpectrePht,
        &KernelParams::default(),
        &mut StdRng::seed_from_u64(3),
    );
    let benign = build_benign(
        BenignKind::Compression,
        Scale(12_000),
        &mut StdRng::seed_from_u64(3),
    );
    let devices = CpuConfig {
        devices: CarrierKind::DmaIrqConsumer.device_config(),
        ..CpuConfig::default()
    };
    // (label, config, program, byte length, FNV-1a digest)
    let cases = [
        (
            "spectre-pht/default",
            CpuConfig::default(),
            &attack,
            1_025_073,
            0x86fb_595c_3739_c9ef,
        ),
        (
            "spectre-pht/devices",
            devices.clone(),
            &attack,
            1_029_553,
            0x2832_9078_92c6_c1fb,
        ),
        (
            "compression/default",
            CpuConfig::default(),
            &benign,
            1_021_233,
            0xd82c_23c0_2f33_53a2,
        ),
        (
            "compression/devices",
            devices,
            &benign,
            1_025_777,
            0x7483_5389_d5cf_eb33,
        ),
    ];
    let mut mismatches = Vec::new();
    for (label, cfg, program, len, digest) in cases {
        let snap = snapshot_after_windows(cfg, program);
        assert!(snap.cursor_words.is_some(), "{label}: no cursor section");
        let bytes = snap.to_bytes();
        let got = (bytes.len(), fnv1a(&bytes));
        if got != (len, digest) {
            mismatches.push(format!(
                "{label}: {} bytes, digest {:016x} (recorded {len} bytes, {digest:016x})",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "snapshot wire format changed:\n{}",
        mismatches.join("\n")
    );
}
