//! Multi-tenant carrier workloads: interrupt/timer/DMA-driven benign
//! programs ("busy carriers") and composed attacks that ride on them.
//!
//! ROADMAP item 4 notes that real full-system traces are never the clean
//! single-program streams the paper evaluates on: timers tick, schedulers
//! preempt, DMA engines stream in the background. A detector calibrated on
//! quiet benign traffic sees all of that as anomaly pressure. This module
//! supplies both sides of that experiment:
//!
//! * [`CarrierKind`] — four benign carriers whose character comes from the
//!   asynchronous-event subsystem ([`evax_sim::DeviceConfig`]): a timer
//!   tick handler, an IRQ-driven scheduler, a DMA-fed streaming reader, and
//!   a DMA-completion consumer. Each carries its own device configuration
//!   ([`CarrierKind::device_config`]); built programs install the matching
//!   service routines and stay architecturally correct whether or not
//!   devices are enabled (handlers sit past the terminator and only run on
//!   delivery).
//! * [`CarrierAttack`] — composed attacks spliced mid-stream into a busy
//!   carrier with [`crate::compose::compose`]: the carrier's handlers stay
//!   live while the attack phase executes, so the attack's HPC footprint is
//!   buried in interrupt and port-steal noise.
//!
//! Service routines use registers `r26`–`r28` and `r31`, which no attack
//! kernel, benign generator, decoy or harness touches — an interrupt can
//! land on any instruction of any segment without corrupting it.

use evax_sim::isa::{AluOp, Op, Program, ProgramBuilder, Reg};
use evax_sim::{DeviceConfig, DmaConfig, TimerConfig, DMA_DST_BASE, DMA_LINE_BYTES};
use rand::Rng;

use crate::benign::Scale;
use crate::common::{emit_loop, layout, regs};
use crate::compose::compose;
use crate::registry::{build_attack, build_benign, AttackClass, BenignKind};
use crate::KernelParams;

/// Tick-count register for service routines (never used by kernels).
const HV: Reg = Reg::new(31);
/// Address scratch register for service routines.
const HA: Reg = Reg::new(28);
/// Data scratch register for service routines.
const HB: Reg = Reg::new(27);

/// Where the tick handler publishes its count.
const TICK_SLOT: u64 = layout::SCRATCH + 0x7E_0000;
/// Run-queue the scheduler handler round-robins over.
const RUN_QUEUE: u64 = layout::SCRATCH + 0x7C_0000;
/// Where the DMA-completion handler accumulates consumed words.
const DMA_SINK: u64 = layout::SCRATCH + 0x7A_0000;

/// Benign carrier workloads driven by asynchronous device events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CarrierKind {
    /// Compute-bound work under a periodic timer tick whose handler bumps a
    /// counter in memory (an OS-tick analog).
    TimerTicker,
    /// Branchy scheduling work preempted by a faster timer whose handler
    /// round-robins a run queue (a preemptive-scheduler analog).
    IrqScheduler,
    /// Streaming reads over the DMA destination ring while the engine
    /// copies lines and steals memory ports — no interrupts, pure
    /// contention (a device-polling analog).
    DmaStreamer,
    /// Pointer-chasing work whose vector-1 handler consumes each DMA
    /// completion (an interrupt-driven driver analog).
    DmaIrqConsumer,
}

/// All carrier kinds, in canonical order.
pub const CARRIER_KINDS: [CarrierKind; 4] = [
    CarrierKind::TimerTicker,
    CarrierKind::IrqScheduler,
    CarrierKind::DmaStreamer,
    CarrierKind::DmaIrqConsumer,
];

impl CarrierKind {
    /// Stable lowercase name (used in reports and dataset labels).
    pub fn name(self) -> &'static str {
        match self {
            CarrierKind::TimerTicker => "timer-ticker",
            CarrierKind::IrqScheduler => "irq-scheduler",
            CarrierKind::DmaStreamer => "dma-streamer",
            CarrierKind::DmaIrqConsumer => "dma-irq-consumer",
        }
    }

    /// The device configuration this carrier is meant to run under. The
    /// program itself is valid under any configuration (including devices
    /// off); this is the pairing the benches evaluate.
    pub fn device_config(self) -> DeviceConfig {
        let on = DeviceConfig {
            enabled: true,
            ..DeviceConfig::default()
        };
        let timer = |period| DeviceConfig {
            timer: TimerConfig { period },
            ..on
        };
        let dma = |dma| DeviceConfig { dma, ..on };
        match self {
            CarrierKind::TimerTicker => timer(600),
            CarrierKind::IrqScheduler => timer(350),
            CarrierKind::DmaStreamer => dma(DmaConfig {
                period: 96,
                burst_lines: 4,
                region_lines: 128,
                irq_every: 0,
            }),
            CarrierKind::DmaIrqConsumer => dma(DmaConfig {
                period: 128,
                burst_lines: 2,
                region_lines: 64,
                irq_every: 2,
            }),
        }
    }
}

impl std::fmt::Display for CarrierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Appends a straight-line service routine to `base` and installs it on
/// `vector`. The handler lives past the terminator, so it is unreachable
/// except through IRQ delivery and the program stays correct with devices
/// disabled.
fn with_irq_handler(base: Program, vector: usize, handler: &Program) -> Program {
    debug_assert!(
        handler
            .instructions()
            .iter()
            .all(|op| !matches!(op, Op::Branch { .. } | Op::Jmp { .. } | Op::Call { .. })),
        "service routines must be straight-line (targets are not rebased)"
    );
    let mut instrs = base.instructions().to_vec();
    let entry = instrs.len();
    instrs.extend_from_slice(handler.instructions());
    let mut p = Program::from_instructions(format!("{}+irq{vector}", base.name()), instrs);
    p.set_fault_handler(base.fault_handler());
    for (v, h) in base.irq_handlers().into_iter().enumerate() {
        p.set_irq_handler(v, h);
    }
    p.set_irq_handler(vector, Some(entry));
    p
}

/// OS-tick service routine: bump the tick count and publish it.
fn tick_handler() -> Program {
    let mut b = ProgramBuilder::new("h-tick");
    b.alu_imm(AluOp::Add, HV, HV, 1);
    b.li(HA, TICK_SLOT);
    b.store(HV, HA, 0);
    b.iret();
    b.build()
}

/// Scheduler service routine: round-robin a 64-entry run queue, touching
/// (load + store) one record per preemption.
fn scheduler_handler() -> Program {
    let mut b = ProgramBuilder::new("h-sched");
    b.alu_imm(AluOp::Add, HV, HV, 1);
    b.alu_imm(AluOp::And, HA, HV, 0x3F);
    b.alu_imm(AluOp::Shl, HA, HA, 3);
    b.li(HB, RUN_QUEUE);
    b.alu(AluOp::Add, HA, HB, HA);
    b.load(HB, HA, 0);
    b.alu_imm(AluOp::Add, HB, HB, 1);
    b.store(HB, HA, 0);
    b.iret();
    b.build()
}

/// DMA-completion service routine: read one line from the destination ring
/// and fold it into a sink word.
fn dma_consumer_handler() -> Program {
    let mut b = ProgramBuilder::new("h-dma");
    b.alu_imm(AluOp::Add, HV, HV, 1);
    b.alu_imm(AluOp::And, HA, HV, 0x3F);
    b.alu_imm(AluOp::Shl, HA, HA, 6);
    b.li(HB, DMA_DST_BASE);
    b.alu(AluOp::Add, HA, HB, HA);
    b.load(HB, HA, 0);
    b.li(HA, DMA_SINK);
    b.store(HB, HA, 0);
    b.iret();
    b.build()
}

/// Streaming reader over the DMA destination ring: the engine overwrites
/// lines underneath these loads, so the miss pattern is device-driven.
fn dma_stream_body(scale: Scale, rng: &mut impl Rng) -> Program {
    let a = regs::attack;
    let (base, i, x, acc, tmp) = (a(0), a(1), a(2), a(3), a(4));
    let mut b = ProgramBuilder::new("carrier-dma-stream");
    b.li(base, DMA_DST_BASE + rng.gen_range(0..4u64) * DMA_LINE_BYTES);
    b.li(acc, 0);
    let iters = scale.0 / 7;
    emit_loop(&mut b, i, iters, |b| {
        b.alu_imm(AluOp::And, x, i, 0x7F);
        b.alu_imm(AluOp::Shl, x, x, 6);
        b.alu(AluOp::Add, x, base, x);
        b.load(tmp, x, 0);
        b.alu(AluOp::Xor, acc, acc, tmp);
    });
    b.li(x, layout::RESULT);
    b.store(acc, x, 0);
    b.halt();
    b.build()
}

/// Builds a benign carrier of roughly `scale` dynamic instructions,
/// including its service routines. Run it under
/// [`CarrierKind::device_config`] for the intended event pressure.
pub fn build_carrier<R: Rng>(kind: CarrierKind, scale: Scale, rng: &mut R) -> Program {
    match kind {
        CarrierKind::TimerTicker => with_irq_handler(
            build_benign(BenignKind::Compression, scale, rng),
            0,
            &tick_handler(),
        ),
        CarrierKind::IrqScheduler => with_irq_handler(
            build_benign(BenignKind::Scheduler, scale, rng),
            0,
            &scheduler_handler(),
        ),
        CarrierKind::DmaStreamer => dma_stream_body(scale, rng),
        CarrierKind::DmaIrqConsumer => with_irq_handler(
            build_benign(BenignKind::DiscreteEvent, scale, rng),
            1,
            &dma_consumer_handler(),
        ),
    }
}

/// Benign continuation after an attack phase: same microarchitectural
/// character as the carrier, but without service routines (the composed
/// prefix already installed them).
fn carrier_tail<R: Rng>(kind: CarrierKind, scale: Scale, rng: &mut R) -> Program {
    match kind {
        CarrierKind::TimerTicker => build_benign(BenignKind::Compression, scale, rng),
        CarrierKind::IrqScheduler => build_benign(BenignKind::Scheduler, scale, rng),
        CarrierKind::DmaStreamer => dma_stream_body(scale, rng),
        CarrierKind::DmaIrqConsumer => build_benign(BenignKind::DiscreteEvent, scale, rng),
    }
}

/// Composed attacks riding on busy carriers: carrier prefix, attack phase,
/// benign tail — with the carrier's interrupt handlers live throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CarrierAttack {
    /// Spectre v1 under periodic timer ticks.
    SpectreOnTicker,
    /// Meltdown under preemptive scheduling interrupts.
    MeltdownOnScheduler,
    /// Flush+Reload against a DMA-saturated memory system.
    FlushReloadOnStreamer,
    /// Rowhammer sharing DRAM with DMA completion traffic.
    RowhammerOnConsumer,
}

/// All carrier-attack compositions, in canonical order.
pub const CARRIER_ATTACKS: [CarrierAttack; 4] = [
    CarrierAttack::SpectreOnTicker,
    CarrierAttack::MeltdownOnScheduler,
    CarrierAttack::FlushReloadOnStreamer,
    CarrierAttack::RowhammerOnConsumer,
];

impl CarrierAttack {
    /// Stable name `<attack>@<carrier>` (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            CarrierAttack::SpectreOnTicker => "spectre-pht@timer-ticker",
            CarrierAttack::MeltdownOnScheduler => "meltdown@irq-scheduler",
            CarrierAttack::FlushReloadOnStreamer => "flush-reload@dma-streamer",
            CarrierAttack::RowhammerOnConsumer => "rowhammer@dma-irq-consumer",
        }
    }

    /// The carrier this attack hides in.
    pub fn carrier(self) -> CarrierKind {
        match self {
            CarrierAttack::SpectreOnTicker => CarrierKind::TimerTicker,
            CarrierAttack::MeltdownOnScheduler => CarrierKind::IrqScheduler,
            CarrierAttack::FlushReloadOnStreamer => CarrierKind::DmaStreamer,
            CarrierAttack::RowhammerOnConsumer => CarrierKind::DmaIrqConsumer,
        }
    }

    /// The attack class spliced into the carrier.
    pub fn attack_class(self) -> AttackClass {
        match self {
            CarrierAttack::SpectreOnTicker => AttackClass::SpectrePht,
            CarrierAttack::MeltdownOnScheduler => AttackClass::Meltdown,
            CarrierAttack::FlushReloadOnStreamer => AttackClass::FlushReload,
            CarrierAttack::RowhammerOnConsumer => AttackClass::Rowhammer,
        }
    }
}

impl std::fmt::Display for CarrierAttack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds the composed program: half of `scale` as carrier prefix (with
/// handlers), the attack kernel, then the other half as a handler-free
/// benign tail. Run under [`CarrierKind::device_config`] of
/// [`CarrierAttack::carrier`].
pub fn build_carrier_attack<R: Rng>(
    which: CarrierAttack,
    scale: Scale,
    params: &KernelParams,
    rng: &mut R,
) -> Program {
    let kind = which.carrier();
    let prefix = build_carrier(kind, Scale(scale.0 / 2), rng);
    let attack = build_attack(which.attack_class(), params, rng);
    let tail = carrier_tail(kind, Scale(scale.0 / 2), rng);
    compose(&[prefix, attack, tail]).expect("prefix handlers and tail never conflict")
}

#[cfg(test)]
mod tests {
    use super::*;
    use evax_sim::{Cpu, CpuConfig};
    use rand::SeedableRng;

    fn cfg_for(kind: CarrierKind) -> CpuConfig {
        CpuConfig {
            devices: kind.device_config(),
            ..CpuConfig::default()
        }
    }

    #[test]
    fn carrier_and_attack_names_are_unique() {
        let mut names: Vec<String> = CARRIER_KINDS.iter().map(|k| k.name().into()).collect();
        names.extend(CARRIER_ATTACKS.iter().map(|a| a.name().to_string()));
        assert_eq!(names.len(), 8, "four carriers + four composed attacks");
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8, "names must be unique");
    }

    #[test]
    fn every_carrier_halts_under_its_devices_with_event_pressure() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for kind in CARRIER_KINDS {
            let p = build_carrier(kind, Scale(4_000), &mut rng);
            let mut cpu = Cpu::new(cfg_for(kind));
            let res = cpu.run(&p, 400_000);
            assert!(res.halted, "{kind} did not halt");
            let s = cpu.device_stats().expect("devices enabled");
            match kind {
                CarrierKind::TimerTicker | CarrierKind::IrqScheduler => {
                    assert!(s.irq_taken > 0, "{kind} handler never ran");
                    assert_eq!(s.irq_dropped, 0, "{kind} dropped raises");
                }
                CarrierKind::DmaStreamer => {
                    assert!(s.dma_port_steal_cycles > 0, "{kind} saw no contention");
                    assert_eq!(s.irq_raised, 0);
                }
                CarrierKind::DmaIrqConsumer => {
                    assert!(s.irq_taken > 0, "{kind} consumed no completions");
                    assert!(s.dma_bursts > 0);
                }
            }
        }
    }

    #[test]
    fn carriers_are_benign_without_devices() {
        // The same programs are architecturally valid with devices off: the
        // handlers are simply dead code past the terminator.
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for kind in CARRIER_KINDS {
            let p = build_carrier(kind, Scale(3_000), &mut rng);
            let mut cpu = Cpu::new(CpuConfig::default());
            let res = cpu.run(&p, 400_000);
            assert!(res.halted, "{kind} did not halt with devices off");
        }
    }

    #[test]
    fn every_composed_attack_halts_and_is_serviced() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let params = KernelParams {
            iterations: 8,
            ..Default::default()
        };
        for which in CARRIER_ATTACKS {
            let p = build_carrier_attack(which, Scale(6_000), &params, &mut rng);
            let mut cpu = Cpu::new(cfg_for(which.carrier()));
            let res = cpu.run(&p, 2_000_000);
            assert!(res.halted, "{which} did not halt");
            let s = cpu.device_stats().expect("devices enabled");
            match which.carrier() {
                CarrierKind::DmaStreamer => assert!(s.dma_port_steal_cycles > 0),
                _ => assert!(s.irq_taken > 0, "{which} carrier was not serviced"),
            }
        }
    }

    #[test]
    fn spectre_on_ticker_still_leaks_under_interrupts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let params = KernelParams {
            iterations: 16,
            ..Default::default()
        };
        let p = build_carrier_attack(
            CarrierAttack::SpectreOnTicker,
            Scale(6_000),
            &params,
            &mut rng,
        );
        let mut cpu = Cpu::new(cfg_for(CarrierKind::TimerTicker));
        let res = cpu.run(&p, 2_000_000);
        assert!(res.halted);
        let secret_line = layout::PROBE + layout::DEFAULT_SECRET * 64;
        assert!(
            cpu.dcache().contains(secret_line) || cpu.l2().contains(secret_line),
            "attack riding a busy carrier must still leak"
        );
    }
}
