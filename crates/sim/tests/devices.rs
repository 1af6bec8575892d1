//! Behavioral tests for the asynchronous-event subsystem: timer IRQs with
//! vectored dispatch, `IRet` return semantics, DMA traffic/port stealing,
//! dual-scheduler equivalence with devices enabled, and the functional
//! fast-forward path.

use evax_sim::isa::{AluOp, Cond, ProgramBuilder, Reg};
use evax_sim::{
    Cpu, CpuConfig, DeviceConfig, DmaConfig, Program, SchedulerKind, TimerConfig, DMA_SRC_BASE,
    NUM_IRQ_VECTORS,
};

fn timer_cfg(period: u64) -> CpuConfig {
    CpuConfig {
        devices: DeviceConfig {
            enabled: true,
            timer: TimerConfig { period },
            ..Default::default()
        },
        ..CpuConfig::default()
    }
}

fn dma_cfg(dma: DmaConfig) -> CpuConfig {
    CpuConfig {
        devices: DeviceConfig {
            enabled: true,
            dma,
            ..Default::default()
        },
        ..CpuConfig::default()
    }
}

/// A long benign loop whose vector-0 handler increments a counter register.
fn timer_counting_program(iters: u64) -> Program {
    let (acc, i, n, ticks) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    let mut b = ProgramBuilder::new("timer_count");
    b.li(acc, 0).li(i, 0).li(n, iters).li(ticks, 0);
    let top = b.label();
    b.alu(AluOp::Add, acc, acc, i);
    b.alu_imm(AluOp::Add, i, i, 1);
    b.branch(Cond::Lt, i, n, top);
    b.halt();
    let handler = b.label();
    b.alu_imm(AluOp::Add, ticks, ticks, 1);
    b.iret();
    b.on_irq(0, handler);
    b.build()
}

fn busy_loop_program(iters: u64) -> Program {
    let (acc, i, n) = (Reg::new(1), Reg::new(2), Reg::new(3));
    let mut b = ProgramBuilder::new("busy");
    b.li(acc, 0).li(i, 0).li(n, iters);
    let top = b.label();
    b.alu(AluOp::Add, acc, acc, i);
    b.alu_imm(AluOp::Add, i, i, 1);
    b.branch(Cond::Lt, i, n, top);
    b.halt();
    b.build()
}

#[test]
fn timer_irq_runs_handler_and_resumes() {
    let p = timer_counting_program(5_000);
    let mut cpu = Cpu::new(timer_cfg(500));
    let r = cpu.run(&p, 100_000);
    assert!(r.halted, "program completes under timer interrupts");
    // The benign loop's architectural result is unperturbed by the IRQs.
    assert_eq!(r.regs[1], (0..5_000).sum::<u64>());
    // The handler ran: ticks (r4) counted the fires it serviced.
    assert!(r.regs[4] > 0, "handler never ran");
    let s = cpu.device_stats().expect("devices enabled");
    assert!(s.timer_fires > 0);
    assert_eq!(s.irq_taken, r.regs[4], "one handler pass per delivery");
    assert_eq!(s.irq_returns, s.irq_taken, "every taken IRQ returned");
    assert_eq!(s.irq_dropped, 0);
}

#[test]
fn unhandled_vector_is_dropped() {
    let p = busy_loop_program(5_000);
    let mut cpu = Cpu::new(timer_cfg(500));
    let r = cpu.run(&p, 100_000);
    assert!(r.halted);
    assert_eq!(r.regs[1], (0..5_000).sum::<u64>());
    let s = cpu.device_stats().expect("devices enabled");
    assert!(s.timer_fires > 0);
    assert_eq!(s.irq_taken, 0);
    assert!(s.irq_dropped > 0, "raises without a handler are dropped");
}

#[test]
fn dma_moves_memory_and_steals_ports() {
    let dma = DmaConfig {
        period: 64,
        burst_lines: 2,
        region_lines: 16,
        irq_every: 0,
    };
    let p = busy_loop_program(5_000);
    let mut cpu = Cpu::new(dma_cfg(dma));
    cpu.memory_mut().write_u64(DMA_SRC_BASE, 0xDEAD_BEEF);
    let r = cpu.run(&p, 100_000);
    assert!(r.halted);
    let s = *cpu.device_stats().expect("devices enabled");
    assert!(s.dma_bursts > 0);
    assert_eq!(s.dma_lines, s.dma_bursts * dma.burst_lines);
    assert_eq!(s.dma_port_steal_cycles, s.dma_bursts);
    // The ring copy actually moved the planted word (line 0 recycles every
    // region_lines/burst_lines bursts, so it was certainly copied).
    assert_eq!(
        cpu.memory().read_u64(evax_sim::DMA_DST_BASE),
        0xDEAD_BEEF,
        "DMA copied src line 0 to dst"
    );
}

#[test]
fn dma_completion_irq_uses_vector_one() {
    let dma = DmaConfig {
        period: 64,
        burst_lines: 1,
        region_lines: 16,
        irq_every: 4,
    };
    let (acc, i, n, bursts) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    let mut b = ProgramBuilder::new("dma_consumer");
    b.li(acc, 0).li(i, 0).li(n, 5_000).li(bursts, 0);
    let top = b.label();
    b.alu(AluOp::Add, acc, acc, i);
    b.alu_imm(AluOp::Add, i, i, 1);
    b.branch(Cond::Lt, i, n, top);
    b.halt();
    let handler = b.label();
    b.alu_imm(AluOp::Add, bursts, bursts, 1);
    b.iret();
    b.on_irq(1, handler);
    let p = b.build();

    let mut cpu = Cpu::new(dma_cfg(dma));
    let r = cpu.run(&p, 100_000);
    assert!(r.halted);
    assert!(r.regs[4] > 0, "vector-1 handler serviced DMA completions");
    let s = cpu.device_stats().expect("devices enabled");
    assert_eq!(s.timer_fires, 0);
    assert_eq!(s.irq_taken, r.regs[4]);
}

#[test]
fn stray_iret_falls_through() {
    let mut b = ProgramBuilder::new("stray_iret");
    b.li(Reg::new(1), 7);
    b.iret(); // no service routine active: slow no-op
    b.alu_imm(AluOp::Add, Reg::new(1), Reg::new(1), 1);
    b.halt();
    let p = b.build();
    // Both with devices on and off (IRet must be safe without a controller).
    for cfg in [CpuConfig::default(), timer_cfg(10_000)] {
        let mut cpu = Cpu::new(cfg);
        let r = cpu.run(&p, 1_000);
        assert!(r.halted);
        assert_eq!(r.regs[1], 8, "stray IRet fell through");
    }
}

#[test]
fn schedulers_agree_with_devices_enabled() {
    let p = timer_counting_program(3_000);
    let dma = DmaConfig {
        period: 96,
        burst_lines: 2,
        region_lines: 32,
        irq_every: 3,
    };
    let mut results = Vec::new();
    for sched in [SchedulerKind::Scan, SchedulerKind::EventDriven] {
        let cfg = CpuConfig {
            scheduler: sched,
            devices: DeviceConfig {
                enabled: true,
                timer: TimerConfig { period: 400 },
                dma,
            },
            ..CpuConfig::default()
        };
        let mut cpu = Cpu::new(cfg);
        let r = cpu.run(&p, 100_000);
        let s = *cpu.device_stats().expect("devices enabled");
        results.push((r, s));
    }
    let (scan, event) = (&results[0], &results[1]);
    assert_eq!(scan.0.cycles, event.0.cycles, "cycle-exact equivalence");
    assert_eq!(scan.0.regs, event.0.regs);
    assert_eq!(scan.1, event.1, "device counters identical across cores");
}

#[test]
fn snapshot_round_trips_device_state_mid_run() {
    let p = timer_counting_program(20_000);
    let cfg = timer_cfg(300);
    let mut cpu = Cpu::new(cfg.clone());
    // Run part-way so IRQ/timer state is warm, then checkpoint.
    let mut cursor = cpu.begin_sampled(20_000, 1_000);
    let dim = evax_sim::dim_for(cpu.config());
    let mut buf = vec![0.0f64; dim];
    for _ in 0..3 {
        let step = cursor.next_window_into(&mut cpu, &p, &mut buf);
        assert!(matches!(step, evax_sim::SampledStep::Window { .. }));
    }
    let snap = cpu.snapshot_with_cursor(&cursor);
    let (mut restored, mut rcursor) =
        Cpu::restore_with_cursor(cfg, &snap).expect("restores with device words");
    assert_eq!(restored.device_stats(), cpu.device_stats());
    // Both cores finish the run identically from the checkpoint.
    let mut a = Vec::new();
    let mut b = Vec::new();
    loop {
        match cursor.next_window_into(&mut cpu, &p, &mut buf) {
            evax_sim::SampledStep::Window { .. } => a.extend(buf.iter().map(|v| v.to_bits())),
            evax_sim::SampledStep::Done(r) => {
                a.extend(r.regs.iter().copied());
                break;
            }
        }
    }
    loop {
        match rcursor.next_window_into(&mut restored, &p, &mut buf) {
            evax_sim::SampledStep::Window { .. } => b.extend(buf.iter().map(|v| v.to_bits())),
            evax_sim::SampledStep::Done(r) => {
                b.extend(r.regs.iter().copied());
                break;
            }
        }
    }
    assert_eq!(a, b, "restored run is bitwise-identical");
}

#[test]
fn fast_forward_services_interrupts_functionally() {
    let p = timer_counting_program(10_000);
    let mut cpu = Cpu::new(timer_cfg(300));
    let retired = cpu.fast_forward(&p, 50_000);
    assert!(retired > 0);
    assert!(cpu.arch_reg(Reg::new(4)) > 0, "handler ran functionally");
    let s = cpu.device_stats().expect("devices enabled");
    assert_eq!(s.irq_returns, s.irq_taken);
}

#[test]
fn irq_handlers_reject_out_of_range_vector() {
    let p = timer_counting_program(10);
    assert!(p.irq_handler(NUM_IRQ_VECTORS).is_none());
    assert!(p.irq_handler(0).is_some());
}
