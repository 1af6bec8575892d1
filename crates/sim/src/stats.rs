//! Pipeline event counters, named after the gem5 O3 statistics the EVAX
//! paper samples (§VII: "From gem5 we collect values of 1160
//! microarchitectural counters ... we measure total number, cycles, rate").
//!
//! The flattened HPC feature vector (pipeline + caches + TLBs + DRAM) is
//! assembled in `hpc.rs`.

use evax_dram::state::Words;

/// Counters maintained by the out-of-order core.
///
/// Field names follow the gem5 statistics they model; the paper's Table I
/// and Figs. 9–11 reference several of them directly
/// (`lsq.forwLoads`, `iq.SquashedNonSpecLD`, `rename.serializingInsts`,
/// `iew.ExecSquashedInsts`, `fetch.PendingQuiesceStallCycles`, ...).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PipelineStats {
    // ---- global ----
    /// Elapsed cycles.
    pub cycles: u64,
    /// Committed (retired) instructions.
    pub committed_insts: u64,

    // ---- fetch ----
    /// Instructions fetched (including wrong-path).
    pub fetch_insts: u64,
    /// Control-flow instructions fetched.
    pub fetch_branches: u64,
    /// Branches predicted taken at fetch.
    pub fetch_predicted_taken: u64,
    /// Cycles fetch was redirecting after a squash.
    pub fetch_squash_cycles: u64,
    /// Cycles fetch stalled on an I-cache miss.
    pub fetch_icache_stall_cycles: u64,
    /// Cycles fetch was blocked because downstream buffers were full.
    pub fetch_blocked_cycles: u64,
    /// Cycles fetch idled after `Halt` was fetched.
    pub fetch_idle_cycles: u64,
    /// Cycles the front end was quiesced behind a serializing instruction —
    /// the paper's `PendingQuiesceStallCycles` invariant feature (§VIII-C).
    pub fetch_pending_quiesce_stall_cycles: u64,

    // ---- decode/rename ----
    /// Instructions renamed/dispatched into the ROB.
    pub rename_renamed_insts: u64,
    /// Dispatch stalls because the ROB was full.
    pub rename_rob_full_events: u64,
    /// Dispatch stalls because the IQ was full — "Conflicts in Instruction
    /// Queue" (paper Fig. 6 discussion).
    pub rename_iq_full_events: u64,
    /// Dispatch stalls because the load queue was full.
    pub rename_lq_full_events: u64,
    /// Dispatch stalls because the store queue was full.
    pub rename_sq_full_events: u64,
    /// Dispatch stalls because physical registers ran out.
    pub rename_full_registers_events: u64,
    /// Serializing instructions renamed (`rename.serializingInsts`).
    pub rename_serializing_insts: u64,
    /// Register mappings undone by squashes (`rename.Undone`, Table I #2).
    pub rename_undone_maps: u64,
    /// Register mappings committed (`rename.CommittedMaps`, Table I #2).
    pub rename_committed_maps: u64,

    // ---- issue queue ----
    /// Instructions issued to functional units.
    pub iq_issued_insts: u64,
    /// Issued instructions later squashed.
    pub iq_squashed_insts_issued: u64,
    /// Squashed loads that were *non-speculative* at issue
    /// (`iq.SquashedNonSpecLD`, Table I #6) — fires on fault-based squashes.
    pub iq_squashed_non_spec_ld: u64,
    /// Cycles with at least one instruction stalled for operands.
    pub iq_operand_stall_cycles: u64,
    /// Cycles with ready instructions stalled for functional units.
    pub iq_fu_stall_cycles: u64,

    // ---- execute (IEW) ----
    /// Instructions executed (including squashed-later ones).
    pub iew_executed_insts: u64,
    /// Executed instructions that were squashed (`iew.ExecSquashedInsts`,
    /// Table I #7).
    pub iew_exec_squashed_insts: u64,
    /// Loads executed.
    pub iew_exec_load_insts: u64,
    /// Stores executed (address+data resolved).
    pub iew_exec_store_insts: u64,
    /// Memory-order violations detected (`iew.MemOrderViolation`, Table I #3).
    pub iew_mem_order_violations: u64,
    /// Branch mispredicts resolved at execute.
    pub iew_branch_mispredicts: u64,
    /// Mispredicted-taken branches (predicted taken, actually not).
    pub iew_predicted_taken_incorrect: u64,
    /// Mispredicted-not-taken branches.
    pub iew_predicted_not_taken_incorrect: u64,

    // ---- load/store queue ----
    /// Loads forwarded from an older store (`lsq.forwLoads`, Table I #4).
    pub lsq_forw_loads: u64,
    /// Loads squashed before commit (`lsq.squashedLoads`).
    pub lsq_squashed_loads: u64,
    /// Stores squashed before commit (`lsq.squashedStores`, Table I #4).
    pub lsq_squashed_stores: u64,
    /// Memory responses ignored because the load was squashed/replayed
    /// (`lsq.ignoredResponses`, Table I #5).
    pub lsq_ignored_responses: u64,
    /// Loads replayed after an assisted translation (LVI/MDS surface).
    pub lsq_rescheduled_loads: u64,
    /// Loads blocked by a full cache-port/MSHR (`lsq.CacheBlockedLoads`).
    pub lsq_cache_blocked_loads: u64,
    /// Transient wrong-value forwards from the store buffer (the injected
    /// LVI/Fallout value) — a security-centric event.
    pub lsq_false_forwards: u64,

    // ---- commit ----
    /// Squashed instructions removed at squash time.
    pub commit_squashed_insts: u64,
    /// Committed branches.
    pub commit_branches: u64,
    /// Committed loads.
    pub commit_loads: u64,
    /// Committed stores.
    pub commit_stores: u64,
    /// Committed serializing instructions (fences/membars).
    pub commit_membars: u64,
    /// Cycles the ROB was squashing (recovery).
    pub commit_rob_squashing_cycles: u64,
    /// Cycles commit stalled exposing InvisiSpec loads.
    pub commit_expose_stall_cycles: u64,

    // ---- branch predictor ----
    /// Conditional branches predicted.
    pub bp_cond_predicted: u64,
    /// Conditional branches mispredicted.
    pub bp_cond_incorrect: u64,
    /// BTB lookups (indirect jumps).
    pub bp_btb_lookups: u64,
    /// BTB hits.
    pub bp_btb_hits: u64,
    /// Indirect-target mispredictions.
    pub bp_indirect_mispredicted: u64,
    /// Returns predicted with the RAS.
    pub bp_used_ras: u64,
    /// RAS mispredictions (`RASIncorrect`).
    pub bp_ras_incorrect: u64,

    // ---- faults / transient ----
    /// Architectural faults raised at commit (Meltdown-style).
    pub faults_raised: u64,
    /// Faulting loads whose data was forwarded transiently before the fault
    /// (the Meltdown window).
    pub faults_deferred_with_data: u64,
    /// Wrong-path faults that vanished on squash (Spectre shadow faults).
    pub faults_squashed: u64,
    /// Instructions dispatched while an older unresolved control-flow
    /// instruction was in flight ("Speculative Instructions Added", Fig. 6).
    pub spec_insts_added: u64,
    /// Loads executed speculatively (under an unresolved branch).
    pub spec_loads_executed: u64,
    /// Cycles at least one unresolved control-flow instruction was in flight
    /// (transient-window cycles).
    pub spec_window_cycles: u64,

    // ---- special units ----
    /// RDRAND operations executed.
    pub rdrand_ops: u64,
    /// Cycles RDRAND issuers waited on the shared unit (covert-channel
    /// contention signal).
    pub rdrand_contention_cycles: u64,
    /// System calls committed.
    pub syscalls: u64,
}

/// Applies a macro to every [`PipelineStats`] field, in declaration order —
/// the single list the snapshot word-codec derives from, so adding a field
/// here keeps serialization in sync by construction.
macro_rules! pipeline_stats_fields {
    ($m:ident) => {
        $m!(
            cycles,
            committed_insts,
            fetch_insts,
            fetch_branches,
            fetch_predicted_taken,
            fetch_squash_cycles,
            fetch_icache_stall_cycles,
            fetch_blocked_cycles,
            fetch_idle_cycles,
            fetch_pending_quiesce_stall_cycles,
            rename_renamed_insts,
            rename_rob_full_events,
            rename_iq_full_events,
            rename_lq_full_events,
            rename_sq_full_events,
            rename_full_registers_events,
            rename_serializing_insts,
            rename_undone_maps,
            rename_committed_maps,
            iq_issued_insts,
            iq_squashed_insts_issued,
            iq_squashed_non_spec_ld,
            iq_operand_stall_cycles,
            iq_fu_stall_cycles,
            iew_executed_insts,
            iew_exec_squashed_insts,
            iew_exec_load_insts,
            iew_exec_store_insts,
            iew_mem_order_violations,
            iew_branch_mispredicts,
            iew_predicted_taken_incorrect,
            iew_predicted_not_taken_incorrect,
            lsq_forw_loads,
            lsq_squashed_loads,
            lsq_squashed_stores,
            lsq_ignored_responses,
            lsq_rescheduled_loads,
            lsq_cache_blocked_loads,
            lsq_false_forwards,
            commit_squashed_insts,
            commit_branches,
            commit_loads,
            commit_stores,
            commit_membars,
            commit_rob_squashing_cycles,
            commit_expose_stall_cycles,
            bp_cond_predicted,
            bp_cond_incorrect,
            bp_btb_lookups,
            bp_btb_hits,
            bp_indirect_mispredicted,
            bp_used_ras,
            bp_ras_incorrect,
            faults_raised,
            faults_deferred_with_data,
            faults_squashed,
            spec_insts_added,
            spec_loads_executed,
            spec_window_cycles,
            rdrand_ops,
            rdrand_contention_cycles,
            syscalls,
        );
    };
}

impl PipelineStats {
    /// Visits every counter, in field order (see [`evax_dram::state`]).
    pub(crate) fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        macro_rules! visit {
            ($($f:ident),* $(,)?) => { w.u64s([$(&mut self.$f),*])? };
        }
        pipeline_stats_fields!(visit);
        Some(())
    }

    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_insts as f64 / self.cycles as f64
        }
    }

    /// Fraction of fetched instructions that were squashed (wrong path).
    pub fn wrong_path_fraction(&self) -> f64 {
        if self.fetch_insts == 0 {
            0.0
        } else {
            self.commit_squashed_insts as f64 / self.fetch_insts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_zero_when_no_cycles() {
        assert_eq!(PipelineStats::default().ipc(), 0.0);
    }

    #[test]
    fn ipc_ratio() {
        let s = PipelineStats {
            cycles: 100,
            committed_insts: 250,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn state_words_round_trip() {
        let s = PipelineStats {
            cycles: 1,
            committed_insts: 2,
            lsq_false_forwards: 3,
            syscalls: 4,
            ..Default::default()
        };
        let mut words = Vec::new();
        s.clone()
            .state(&mut Words::Save(&mut words))
            .expect("saves");
        let mut back = PipelineStats::default();
        back.state(&mut Words::Load(words.iter()))
            .expect("enough words");
        assert_eq!(back, s);
        // Truncated streams are rejected, not half-applied silently.
        assert!(back
            .state(&mut Words::Load(words[..words.len() - 1].iter()))
            .is_none());
    }

    #[test]
    fn wrong_path_fraction() {
        let s = PipelineStats {
            fetch_insts: 100,
            commit_squashed_insts: 25,
            ..Default::default()
        };
        assert!((s.wrong_path_fraction() - 0.25).abs() < 1e-12);
    }
}
