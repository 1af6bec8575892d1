//! Checkpoints: snapshot and restore of a quiesced core, and the state-word
//! codec they serialize through.

use super::{Cpu, SampledCursor};
use crate::config::{CpuConfig, MitigationMode};
use crate::snapshot::{config_fingerprint, Snapshot, SnapshotError};

impl Cpu {
    /// Captures a checkpoint of this core: architectural state plus warm
    /// microarchitectural state (caches, TLBs, branch predictor, BTB, RAS,
    /// DRAM disturbance state, pipeline statistics).
    ///
    /// The core is **quiesced** first: in-flight speculative pipeline work
    /// is discarded and fetch rolls back to the architectural pc, so the
    /// snapshot needs no ROB/LSQ serialization and a restored core is
    /// exactly this core post-quiesce.
    pub fn snapshot(&mut self) -> Snapshot {
        self.quiesce();
        let mut cpu_words = Vec::new();
        self.save_state_words(&mut cpu_words);
        Snapshot {
            config_fingerprint: config_fingerprint(&self.cfg),
            cpu_words,
            cursor_words: None,
        }
    }

    /// [`Cpu::snapshot`] plus the state of an in-flight [`SampledCursor`],
    /// so an interrupted sampled run can resume mid-stream with
    /// [`Cpu::restore_with_cursor`].
    pub fn snapshot_with_cursor(&mut self, cursor: &SampledCursor) -> Snapshot {
        let mut snap = self.snapshot();
        let mut cursor_words = Vec::new();
        cursor.save_state(&mut cursor_words);
        snap.cursor_words = Some(cursor_words);
        snap
    }

    /// Rebuilds a core from a snapshot taken under an equal configuration.
    ///
    /// # Errors
    /// [`SnapshotError::ConfigMismatch`] if `cfg` does not fingerprint-match
    /// the snapshot; [`SnapshotError::Malformed`] if the payload is
    /// truncated or structurally invalid.
    pub fn restore(cfg: CpuConfig, snap: &Snapshot) -> Result<Cpu, SnapshotError> {
        let expected = config_fingerprint(&cfg);
        if expected != snap.config_fingerprint {
            return Err(SnapshotError::ConfigMismatch {
                expected,
                got: snap.config_fingerprint,
            });
        }
        let mut cpu = Cpu::new(cfg);
        let mut w = snap.cpu_words.iter();
        cpu.load_state_words(&mut w)
            .ok_or(SnapshotError::Malformed {
                what: "cpu state words",
            })?;
        if w.next().is_some() {
            return Err(SnapshotError::Malformed {
                what: "trailing cpu state words",
            });
        }
        Ok(cpu)
    }

    /// [`Cpu::restore`] plus the [`SampledCursor`] recorded by
    /// [`Cpu::snapshot_with_cursor`].
    ///
    /// # Errors
    /// As [`Cpu::restore`]; additionally `Malformed` when the snapshot has
    /// no cursor section or the cursor payload is invalid.
    pub fn restore_with_cursor(
        cfg: CpuConfig,
        snap: &Snapshot,
    ) -> Result<(Cpu, SampledCursor), SnapshotError> {
        let cpu = Cpu::restore(cfg, snap)?;
        let cursor_words = snap.cursor_words.as_ref().ok_or(SnapshotError::Malformed {
            what: "snapshot has no cursor section",
        })?;
        let mut w = cursor_words.iter();
        let expected_dim = crate::hpc::dim_for(cpu.config());
        let cursor =
            SampledCursor::load_state(&mut w, expected_dim).ok_or(SnapshotError::Malformed {
                what: "cursor state words",
            })?;
        if w.next().is_some() {
            return Err(SnapshotError::Malformed {
                what: "trailing cursor state words",
            });
        }
        Ok((cpu, cursor))
    }

    /// Serializes the quiesced core into a word stream: scalars, then each
    /// component in a fixed order. `sched_counters` is intentionally not
    /// serialized — it is pure observability (never feeds back into
    /// scheduling) and restarts from zero in a restored core.
    fn save_state_words(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&[
            self.cycle,
            self.next_seq,
            self.arch_pc as u64,
            self.halted as u64,
            self.committed_since_sample,
            self.rng_state,
            self.rdrand_busy_until,
            mitigation_index(self.mitigation),
        ]);
        out.extend_from_slice(&self.arch_regs);
        out.push(self.arch_ret_stack.len() as u64);
        for &a in &self.arch_ret_stack {
            out.push(a as u64);
        }
        for &(last, stride, conf) in &self.stride_table {
            out.extend_from_slice(&[last, stride as u64, conf as u64]);
        }
        self.stats.save_state(out);
        self.bp.save_state(out);
        self.btb.save_state(out);
        self.ras.save_state(out);
        self.icache.save_state(out);
        self.dcache.save_state(out);
        self.l2.save_state(out);
        self.itlb.save_state(out);
        self.dtlb.save_state(out);
        self.dram.save_state(out);
        self.mem.save_state(out);
        // Device words only exist when the subsystem is enabled; the config
        // fingerprint already separates enabled and disabled snapshots.
        if let Some(dev) = self.dev.as_deref() {
            dev.save_state(out);
        }
    }

    /// Restores state written by `save_state_words` into a freshly
    /// constructed core, then re-quiesces the front end at the restored
    /// architectural pc. Returns `None` on a truncated or malformed stream.
    fn load_state_words(&mut self, w: &mut std::slice::Iter<'_, u64>) -> Option<()> {
        self.cycle = *w.next()?;
        self.next_seq = *w.next()?;
        let arch_pc = usize::try_from(*w.next()?).ok()?;
        let halted = match *w.next()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        self.committed_since_sample = *w.next()?;
        self.rng_state = *w.next()?;
        self.rdrand_busy_until = *w.next()?;
        self.mitigation = mitigation_from_index(*w.next()?)?;
        for r in &mut self.arch_regs {
            *r = *w.next()?;
        }
        let n = usize::try_from(*w.next()?).ok()?;
        self.arch_ret_stack.clear();
        for _ in 0..n {
            self.arch_ret_stack.push(usize::try_from(*w.next()?).ok()?);
        }
        for e in &mut self.stride_table {
            let last = *w.next()?;
            let stride = *w.next()? as i64;
            let conf = u8::try_from(*w.next()?).ok()?;
            if conf > 3 {
                return None;
            }
            *e = (last, stride, conf);
        }
        self.stats.load_state(w)?;
        self.bp.load_state(w)?;
        self.btb.load_state(w)?;
        self.ras.load_state(w)?;
        self.icache.load_state(w)?;
        self.dcache.load_state(w)?;
        self.l2.load_state(w)?;
        self.itlb.load_state(w)?;
        self.dtlb.load_state(w)?;
        self.dram.load_state(w)?;
        self.mem.load_state(w)?;
        if let Some(dev) = self.dev.as_deref_mut() {
            dev.load_state(w)?;
        }
        self.arch_pc = arch_pc;
        self.reset_front_end_at(arch_pc);
        self.halted = halted;
        Some(())
    }
}

/// Stable on-disk index of a [`MitigationMode`] (snapshot encoding).
fn mitigation_index(m: MitigationMode) -> u64 {
    match m {
        MitigationMode::None => 0,
        MitigationMode::FenceSpectre => 1,
        MitigationMode::FenceFuturistic => 2,
        MitigationMode::InvisiSpecSpectre => 3,
        MitigationMode::InvisiSpecFuturistic => 4,
    }
}

/// Inverse of [`mitigation_index`]; `None` for out-of-range values.
fn mitigation_from_index(i: u64) -> Option<MitigationMode> {
    Some(match i {
        0 => MitigationMode::None,
        1 => MitigationMode::FenceSpectre,
        2 => MitigationMode::FenceFuturistic,
        3 => MitigationMode::InvisiSpecSpectre,
        4 => MitigationMode::InvisiSpecFuturistic,
        _ => return None,
    })
}
