//! Checkpoints: snapshot and restore of a quiesced core, driven through the
//! [`Words`] state codec.

use evax_dram::state::Words;

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
        Snapshot {
            config_fingerprint: config_fingerprint(&self.cfg),
            cpu_words: save(|w| self.state(w)),
            cursor_words: None,
        }
    }

    /// [`Cpu::snapshot`] plus the state of an in-flight [`SampledCursor`],
    /// so an interrupted sampled run can resume mid-stream with
    /// [`Cpu::restore_with_cursor`].
    pub fn snapshot_with_cursor(&mut self, cursor: &SampledCursor) -> Snapshot {
        let mut snap = self.snapshot();
        let mut cursor = cursor.clone();
        snap.cursor_words = Some(save(|w| cursor.state(w)));
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
        load(
            &snap.cpu_words,
            "cpu state words",
            "trailing cpu state words",
            |w| cpu.state(w),
        )?;
        cpu.quiesce();
        Ok(cpu)
    }

    /// [`Cpu::restore`] plus the [`SampledCursor`] recorded by
    /// [`Cpu::snapshot_with_cursor`].
    ///
    /// # Errors
    /// As [`Cpu::restore`]; additionally `Malformed` when the snapshot has
    /// no cursor section or the cursor payload is invalid (including a
    /// counter width other than `dim_for(cfg)`).
    pub fn restore_with_cursor(
        cfg: CpuConfig,
        snap: &Snapshot,
    ) -> Result<(Cpu, SampledCursor), SnapshotError> {
        let cpu = Cpu::restore(cfg, snap)?;
        let cursor_words = snap.cursor_words.as_ref().ok_or(SnapshotError::Malformed {
            what: "snapshot has no cursor section",
        })?;
        let mut cursor = SampledCursor::blank(vec![0.0; crate::hpc::dim_for(cpu.config())]);
        load(
            cursor_words,
            "cursor state words",
            "trailing cursor state words",
            |w| cursor.state(w),
        )?;
        Ok((cpu, cursor))
    }

    /// Visits the quiesced core: scalars, then each component in a fixed
    /// order (see [`evax_dram::state`]). `sched_counters` is intentionally
    /// not serialized — it is pure observability (never feeds back into
    /// scheduling) and restarts from zero in a restored core. A loaded
    /// `halted` must be 0/1, the mitigation index known, and a stride
    /// confidence `<= 3`; the caller re-quiesces the front end after a load.
    fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        w.u64s([&mut self.cycle, &mut self.next_seq])?;
        w.usize(&mut self.arch_pc)?;
        w.flag(&mut self.halted)?;
        w.u64s([
            &mut self.committed_since_sample,
            &mut self.rng_state,
            &mut self.rdrand_busy_until,
        ])?;
        let mut mitigation = mitigation_index(self.mitigation);
        w.u64(&mut mitigation)?;
        self.mitigation = mitigation_from_index(mitigation)?;
        w.u64s(&mut self.arch_regs)?;
        w.seq(&mut self.arch_ret_stack, usize::MAX, Words::usize)?;
        for (last, stride, conf) in &mut self.stride_table {
            let mut stride_bits = *stride as u64;
            w.u64s([last, &mut stride_bits])?;
            *stride = stride_bits as i64;
            *conf = w.below((*conf).into(), 4)? as u8;
        }
        self.stats.state(w)?;
        self.bp.state(w)?;
        self.btb.state(w)?;
        self.ras.state(w)?;
        self.icache.state(w)?;
        self.dcache.state(w)?;
        self.l2.state(w)?;
        self.itlb.state(w)?;
        self.dtlb.state(w)?;
        self.dram.state(w)?;
        self.mem.state(w)?;
        // Device words only exist when the subsystem is enabled; the config
        // fingerprint already separates enabled and disabled snapshots.
        self.dev.as_deref_mut().map_or(Some(()), |dev| dev.state(w))
    }
}

/// Saves one snapshot section through `state`.
fn save(state: impl FnOnce(&mut Words<'_>) -> Option<()>) -> Vec<u64> {
    let mut words = Vec::new();
    state(&mut Words::Save(&mut words)).expect("a live core's state is in range");
    words
}

/// Loads one snapshot section through `state`: a failed visit is
/// `Malformed { what }`, a word left over is `Malformed { what: trailing }`.
fn load(
    words: &[u64],
    what: &'static str,
    trailing: &'static str,
    state: impl FnOnce(&mut Words<'_>) -> Option<()>,
) -> Result<(), SnapshotError> {
    let mut w = Words::Load(words.iter());
    state(&mut w).ok_or(SnapshotError::Malformed { what })?;
    if w.remaining() > 0 {
        return Err(SnapshotError::Malformed { what: trailing });
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpc::dim_for;

    /// Restores `snap` with cpu word `at` replaced by `v`.
    fn restore_with(snap: &Snapshot, at: usize, v: u64) -> Result<Cpu, SnapshotError> {
        let mut snap = snap.clone();
        snap.cpu_words[at] = v;
        Cpu::restore(CpuConfig::default(), &snap)
    }

    #[test]
    fn out_of_range_core_words_are_malformed() {
        let snap = Cpu::new(CpuConfig::default()).snapshot();
        let malformed = Err(SnapshotError::Malformed {
            what: "cpu state words",
        });
        // Scalars: cycle, next_seq, arch_pc, halted (3), committed, rng,
        // rdrand, mitigation (7); then 32 registers, the return-stack length
        // (empty on a fresh core) and the stride table's (last, stride,
        // confidence) triples.
        assert_eq!(restore_with(&snap, 3, 2).map(drop), malformed);
        assert_eq!(restore_with(&snap, 7, 5).map(drop), malformed);
        let first_conf = 8 + 32 + 1 + 2;
        assert_eq!(restore_with(&snap, first_conf, 4).map(drop), malformed);
        assert!(restore_with(&snap, first_conf, 3).is_ok());
        assert!(restore_with(&snap, 7, mitigation_index(MitigationMode::FenceSpectre)).is_ok());

        let mut trailing = snap.clone();
        trailing.cpu_words.push(0);
        assert_eq!(
            Cpu::restore(CpuConfig::default(), &trailing).map(drop),
            Err(SnapshotError::Malformed {
                what: "trailing cpu state words",
            })
        );
    }

    #[test]
    fn out_of_range_cursor_words_are_malformed() {
        let cfg = CpuConfig::default();
        let mut cpu = Cpu::new(cfg.clone());
        let cursor = cpu.begin_sampled(1_000, 100);
        let snap = cpu.snapshot_with_cursor(&cursor);
        let restore_with = |at: usize, v: u64| {
            let mut snap = snap.clone();
            let words = snap.cursor_words.as_mut().expect("cursor section");
            match words.get_mut(at) {
                Some(w) => *w = v,
                None => words.push(v),
            }
            Cpu::restore_with_cursor(cfg.clone(), &snap).map(drop)
        };
        let malformed = Err(SnapshotError::Malformed {
            what: "cursor state words",
        });
        // Eight counters, then `done` (8) and the counter width (9).
        assert_eq!(restore_with(8, 2), malformed);
        let dim = dim_for(&cfg) as u64;
        assert_eq!(restore_with(9, dim + 1), malformed);
        assert_eq!(restore_with(9, dim - 1), malformed);
        assert_eq!(restore_with(8, 1), Ok(()));
        let end = snap.cursor_words.as_ref().map_or(0, Vec::len);
        assert_eq!(
            restore_with(end, 0),
            Err(SnapshotError::Malformed {
                what: "trailing cursor state words",
            })
        );
    }
}
