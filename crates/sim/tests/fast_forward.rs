//! Fault accounting on the functional fast-forward path: a faulting access
//! retires nothing and raises one fault, exactly as at detailed commit, and
//! a fault handler that faults forever still ends the call.

use evax_sim::isa::{ProgramBuilder, Reg};
use evax_sim::{Cpu, CpuConfig};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

#[test]
fn faulting_load_retires_nothing_on_either_path() {
    // li r1, kernel_base; load r2, [r1]; li r3, 7; halt — no handler, so
    // the fault resumes at the next instruction.
    let mut b = ProgramBuilder::new("faulting-load");
    b.li(r(1), CpuConfig::default().kernel_base)
        .load(r(2), r(1), 0)
        .li(r(3), 7)
        .halt();
    let p = b.build();

    let mut detailed = Cpu::new(CpuConfig::default());
    let run = detailed.run(&p, 100);
    assert!(run.halted);
    assert_eq!(run.committed_instructions, 3);
    assert_eq!(detailed.stats().faults_raised, 1);

    let mut functional = Cpu::new(CpuConfig::default());
    assert_eq!(functional.fast_forward(&p, 100), 3);
    assert_eq!(functional.stats().committed_insts, 3);
    assert_eq!(functional.stats().faults_raised, 1);
    assert_eq!(functional.arch_pc(), detailed.arch_pc());
    assert_eq!(
        functional.arch_reg(r(2)),
        0,
        "a faulting load writes nothing"
    );
    assert_eq!(functional.arch_reg(r(3)), 7);
}

#[test]
fn faulting_store_retires_nothing() {
    let kernel = CpuConfig::default().kernel_base;
    let mut b = ProgramBuilder::new("faulting-store");
    b.li(r(1), kernel).li(r(2), 9).store(r(2), r(1), 0).halt();
    let p = b.build();
    let mut cpu = Cpu::new(CpuConfig::default());
    let before = cpu.memory().read_u64(kernel);
    assert_eq!(cpu.fast_forward(&p, 100), 3);
    assert_eq!(cpu.stats().faults_raised, 1);
    assert_eq!(
        cpu.memory().read_u64(kernel),
        before,
        "a faulting store writes nothing"
    );
}

#[test]
fn self_faulting_handler_is_bounded_by_the_cycle_ceiling() {
    // The handler is the faulting load itself: it faults forever and
    // retires nothing after the first `li`.
    let mut b = ProgramBuilder::new("fault-loop");
    let handler = b.forward_label();
    b.on_fault(handler);
    b.li(r(1), CpuConfig::default().kernel_base);
    b.bind(handler);
    b.load(r(2), r(1), 0);
    b.halt();
    let p = b.build();
    let mut cpu = Cpu::new(CpuConfig::default());
    assert_eq!(cpu.fast_forward(&p, 100), 1);
    assert!(cpu.stats().faults_raised > 1);
    // The ceiling for 100 instructions is 100_000 cycles; one iteration
    // overshoots it by at most one memory access.
    assert!(
        cpu.cycle() >= 100_000 && cpu.cycle() < 101_000,
        "{}",
        cpu.cycle()
    );
}
