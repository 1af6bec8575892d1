//! Program composition: splice several programs into one instruction
//! stream, running each segment to completion before falling through to the
//! next. This builds the paper's Fig. 14 scenario — benign execution with
//! attack phases injected mid-stream — without needing OS-level context
//! switching in the simulator.

use evax_sim::isa::{Op, Program};
use evax_sim::NUM_IRQ_VECTORS;

/// Errors composing programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeError {
    /// Nothing to compose.
    Empty,
    /// More than one segment declares a fault handler; a composite program
    /// has a single architectural handler.
    MultipleFaultHandlers {
        /// Index of the first segment with a handler.
        first: usize,
        /// Index of the conflicting segment.
        second: usize,
    },
    /// More than one segment installs a service routine for the same IRQ
    /// vector; a composite program has one handler per vector.
    MultipleIrqHandlers {
        /// The contested vector.
        vector: usize,
        /// Index of the first segment with a handler on that vector.
        first: usize,
        /// Index of the conflicting segment.
        second: usize,
    },
}

impl std::fmt::Display for ComposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComposeError::Empty => write!(f, "cannot compose zero programs"),
            ComposeError::MultipleFaultHandlers { first, second } => write!(
                f,
                "segments {first} and {second} both declare fault handlers; only one is allowed"
            ),
            ComposeError::MultipleIrqHandlers {
                vector,
                first,
                second,
            } => write!(
                f,
                "segments {first} and {second} both install IRQ vector {vector} handlers; \
                 only one per vector is allowed"
            ),
        }
    }
}

impl std::error::Error for ComposeError {}

/// Concatenates programs into one stream: each segment's `Halt` is replaced
/// by fall-through into the next segment (the final segment keeps its
/// terminator), and every control-flow target is rebased.
///
/// Fault and IRQ handlers are rebased along with the code: a carrier
/// segment's interrupt service routines keep working across the whole
/// composite stream, including while a later attack segment executes.
///
/// # Errors
/// [`ComposeError::Empty`] for an empty slice;
/// [`ComposeError::MultipleFaultHandlers`] when two segments both declare a
/// fault handler; [`ComposeError::MultipleIrqHandlers`] when two segments
/// install a service routine on the same IRQ vector.
///
/// # Example
/// ```
/// use evax_attacks::compose::compose;
/// use evax_sim::isa::{ProgramBuilder, Reg};
/// let mut a = ProgramBuilder::new("a");
/// a.li(Reg::new(1), 1);
/// a.halt();
/// let mut b = ProgramBuilder::new("b");
/// b.li(Reg::new(2), 2);
/// b.halt();
/// let combined = compose(&[a.build(), b.build()]).unwrap();
/// // Segment A's halt became a jump into segment B.
/// assert_eq!(combined.len(), 4);
/// ```
pub fn compose(programs: &[Program]) -> Result<Program, ComposeError> {
    if programs.is_empty() {
        return Err(ComposeError::Empty);
    }
    let mut instrs: Vec<Op> = Vec::new();
    let mut fault_handler: Option<(usize, usize)> = None; // (segment, absolute target)
    let mut irq_handlers: [Option<(usize, usize)>; NUM_IRQ_VECTORS] = [None; NUM_IRQ_VECTORS];
    let last = programs.len() - 1;
    let mut name = String::new();
    for (k, p) in programs.iter().enumerate() {
        if k > 0 {
            name.push('+');
        }
        name.push_str(p.name());
        let offset = instrs.len();
        if let Some(h) = p.fault_handler() {
            if let Some((first, _)) = fault_handler {
                return Err(ComposeError::MultipleFaultHandlers { first, second: k });
            }
            fault_handler = Some((k, h + offset));
        }
        for (vector, h) in p.irq_handlers().into_iter().enumerate() {
            if let Some(h) = h {
                if let Some((first, _)) = irq_handlers[vector] {
                    return Err(ComposeError::MultipleIrqHandlers {
                        vector,
                        first,
                        second: k,
                    });
                }
                irq_handlers[vector] = Some((k, h + offset));
            }
        }
        let mut body: Vec<Op> = p
            .instructions()
            .iter()
            .map(|op| match *op {
                Op::Branch { cond, a, b, target } => Op::Branch {
                    cond,
                    a,
                    b,
                    target: target + offset,
                },
                Op::Jmp { target } => Op::Jmp {
                    target: target + offset,
                },
                Op::Call { target } => Op::Call {
                    target: target + offset,
                },
                other => other,
            })
            .collect();
        if k != last {
            // Fall through into the next segment instead of halting. Interior
            // halts (if any) also fall through; the program's own control
            // flow never reaches past its terminator anyway.
            let next_start = offset + body.len();
            for op in &mut body {
                if matches!(op, Op::Halt) {
                    *op = Op::Jmp { target: next_start };
                }
            }
        }
        instrs.extend(body);
    }
    let mut out = Program::from_instructions(name, instrs);
    out.set_fault_handler(fault_handler.map(|(_, h)| h));
    for (vector, h) in irq_handlers.into_iter().enumerate() {
        out.set_irq_handler(vector, h.map(|(_, h)| h));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benign::Scale;
    use crate::{build_attack, build_benign, AttackClass, BenignKind, KernelParams};
    use evax_sim::isa::{AluOp, Cond, ProgramBuilder, Reg};
    use evax_sim::{Cpu, CpuConfig};
    use rand::SeedableRng;

    #[test]
    fn segments_run_in_order() {
        let r = |i| Reg::new(i);
        let mut a = ProgramBuilder::new("a");
        a.li(r(1), 10);
        a.halt();
        let mut b = ProgramBuilder::new("b");
        b.alu_imm(AluOp::Add, r(1), r(1), 5);
        b.halt();
        let p = compose(&[a.build(), b.build()]).unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        let res = cpu.run(&p, 10_000);
        assert!(res.halted);
        assert_eq!(res.regs[1], 15, "both segments must execute");
    }

    #[test]
    fn branch_targets_are_rebased() {
        let r = |i| Reg::new(i);
        // Segment B contains a loop; its targets must survive rebasing.
        let mut a = ProgramBuilder::new("a");
        a.li(r(1), 0);
        a.halt();
        let mut b = ProgramBuilder::new("b");
        b.li(r(2), 0);
        let top = b.label();
        b.alu_imm(AluOp::Add, r(2), r(2), 1);
        b.branch(Cond::Lt, r(2), r(3), top);
        b.halt();
        let mut cpu = Cpu::new(CpuConfig::default());
        let mut setup = ProgramBuilder::new("setup");
        setup.li(r(3), 7);
        setup.halt();
        let p = compose(&[setup.build(), a.build(), b.build()]).unwrap();
        let res = cpu.run(&p, 10_000);
        assert!(res.halted);
        assert_eq!(res.regs[2], 7, "loop in rebased segment must iterate");
    }

    #[test]
    fn attack_phase_inside_benign_timeline_still_leaks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let before = build_benign(BenignKind::Compression, Scale(3_000), &mut rng);
        let attack = build_attack(
            AttackClass::SpectrePht,
            &KernelParams {
                iterations: 16,
                ..Default::default()
            },
            &mut rng,
        );
        let after = build_benign(BenignKind::GeneDp, Scale(3_000), &mut rng);
        let p = compose(&[before, attack, after]).unwrap();
        let mut cpu = Cpu::new(CpuConfig::default());
        let res = cpu.run(&p, 300_000);
        assert!(res.halted);
        let secret_line = crate::common::layout::PROBE + crate::common::layout::DEFAULT_SECRET * 64;
        assert!(
            cpu.dcache().contains(secret_line) || cpu.l2().contains(secret_line),
            "spliced attack must still leak"
        );
    }

    #[test]
    fn fault_handler_segments_compose_once() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let benign = build_benign(BenignKind::Scheduler, Scale(2_000), &mut rng);
        let meltdown = build_attack(AttackClass::Meltdown, &KernelParams::default(), &mut rng);
        let p = compose(&[benign.clone(), meltdown.clone()]).unwrap();
        assert!(p.fault_handler().is_some());
        // Two fault-handling segments conflict.
        let err = compose(&[meltdown.clone(), meltdown]).unwrap_err();
        assert!(matches!(
            err,
            ComposeError::MultipleFaultHandlers {
                first: 0,
                second: 1
            }
        ));
    }

    #[test]
    fn empty_composition_rejected() {
        assert_eq!(compose(&[]).unwrap_err(), ComposeError::Empty);
    }

    #[test]
    fn irq_handlers_are_rebased_and_stay_live_across_segments() {
        use evax_sim::{DeviceConfig, TimerConfig};
        let r = |i| Reg::new(i);
        // Segment A installs a vector-0 tick handler; segment B is a plain
        // busy loop. The handler must keep servicing fires while B runs.
        let mut a = ProgramBuilder::new("carrier");
        a.li(r(1), 0);
        a.halt();
        let h = a.label();
        a.alu_imm(AluOp::Add, r(31), r(31), 1);
        a.iret();
        a.on_irq(0, h);
        let mut b = ProgramBuilder::new("busy");
        b.li(r(2), 0);
        b.li(r(3), 4_000);
        let top = b.label();
        b.alu_imm(AluOp::Add, r(2), r(2), 1);
        b.branch(Cond::Lt, r(2), r(3), top);
        b.halt();
        let (pa, pb) = (a.build(), b.build());
        let expected = pa.irq_handler(0).unwrap();
        let p = compose(&[pa.clone(), pb]).unwrap();
        assert_eq!(p.irq_handler(0), Some(expected), "handler target rebased");
        let cfg = evax_sim::CpuConfig {
            devices: DeviceConfig {
                enabled: true,
                timer: TimerConfig { period: 300 },
                ..Default::default()
            },
            ..evax_sim::CpuConfig::default()
        };
        let mut cpu = Cpu::new(cfg);
        let res = cpu.run(&p, 100_000);
        assert!(res.halted);
        assert_eq!(res.regs[2], 4_000, "segment B completed");
        assert!(res.regs[31] > 0, "handler serviced fires during segment B");
        // Two segments claiming the same vector conflict.
        let err = compose(&[pa.clone(), pa]).unwrap_err();
        assert_eq!(
            err,
            ComposeError::MultipleIrqHandlers {
                vector: 0,
                first: 0,
                second: 1
            }
        );
    }
}
