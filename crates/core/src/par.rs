//! Dependency-free deterministic parallel execution substrate.
//!
//! The EVAX pipeline is dominated by embarrassingly-parallel work: running
//! attack/benign programs through the cycle-level simulator to collect HPC
//! windows, k-fold retraining, fuzz-corpus generation, and holdout scoring.
//! This module provides the one primitive they all share — a deterministic
//! `map` over a work list — built purely on `std::thread::scope` plus an
//! atomic work-queue, so the workspace stays hermetic (no rayon).
//!
//! # Determinism contract
//!
//! [`map`] guarantees the output is **bit-identical at any thread count**:
//!
//! 1. Work items are fixed before the fan-out; every per-item random stream
//!    is derived from a child seed assigned in canonical item order (callers
//!    pre-derive seeds from their master RNG — see
//!    [`crate::collect::collect_dataset`]).
//! 2. Each item is computed by exactly one worker, with no shared mutable
//!    state, so its result does not depend on scheduling.
//! 3. Results are merged back in item order, not completion order.
//!
//! # Thread budget
//!
//! This module is the one place that decides how many threads run. Thread
//! count resolution (highest priority first): explicit
//! [`Parallelism::Fixed`], the `EVAX_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].
//!
//! Nested fan-outs run inline: [`map`] marks its worker threads, and a `map`
//! called on one of them runs serially on that worker. The budget is
//! therefore spent once, by the outermost fan-out with more than one item.
//! `experiments fig19 --threads 4` fans out one experiment, which runs
//! inline on the caller, so its folds get all 4 threads; `experiments all
//! --threads 4` runs 4 experiment workers and everything inside them runs
//! inline. Either way at most N `map` workers run at once. Inline execution
//! is the serial path, so results stay bit-identical.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set on the worker threads [`map`] spawns; a nested `map` reads it and
    /// runs inline.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// How many worker threads a parallel stage may use.
///
/// Plumbed through [`crate::pipeline::EvaxConfig`],
/// [`crate::collect::CollectConfig`] and [`crate::kfold::KfoldConfig`];
/// `Auto` defers to `EVAX_THREADS` / the machine size at call time, so a
/// stored config stays portable across hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Resolve from `EVAX_THREADS`, falling back to the available cores.
    #[default]
    Auto,
    /// Exactly this many threads (clamped to at least 1). `Fixed(1)` forces
    /// the serial path — useful for baselines and equivalence tests.
    Fixed(usize),
}

impl Parallelism {
    /// Single-threaded execution.
    pub const fn serial() -> Self {
        Parallelism::Fixed(1)
    }

    /// The concrete worker count this policy resolves to right now.
    #[allow(clippy::disallowed_methods)] // the thread policy itself
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => env_threads().unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }),
        }
    }
}

/// Parses `EVAX_THREADS` (ignored when unset, empty, zero or malformed).
fn env_threads() -> Option<usize> {
    let raw = std::env::var("EVAX_THREADS").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Maps `f` over `items`, returning results in item order.
///
/// Runs serially when called on another `map`'s worker thread, when the
/// policy resolves to one thread, or when there is at most one item;
/// otherwise spawns scoped workers that pull item indices from an atomic
/// queue. See the module docs for the determinism contract and the thread
/// budget.
///
/// # Panics
/// Propagates the first worker panic (the panicking closure's payload).
pub fn map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = if ON_WORKER.get() {
        1
    } else {
        par.threads().min(items.len().max(1))
    };
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    let worker = |queue: &AtomicUsize| {
        ON_WORKER.set(true);
        let mut produced: Vec<(usize, R)> = Vec::new();
        loop {
            let idx = queue.fetch_add(1, Ordering::Relaxed);
            if idx >= items.len() {
                return produced;
            }
            produced.push((idx, f(&items[idx])));
        }
    };

    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| worker(&next)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(results) => results,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    for (idx, result) in per_worker.into_iter().flatten() {
        debug_assert!(slots[idx].is_none(), "work item {idx} produced twice");
        slots[idx] = Some(result);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| slot.unwrap_or_else(|| panic!("work item {idx} never completed")))
        .collect()
}

/// Maps `f` over index/item pairs — convenience for callers whose work-item
/// identity is positional (fold number, experiment number, …).
pub fn map_indexed<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let indexed: Vec<(usize, &T)> = items.iter().enumerate().collect();
    map(par, &indexed, |(i, item)| f(*i, item))
}

/// Canonical round-robin shard assignment: item `i` goes to shard
/// `i % n_shards`, and each shard lists its items in ascending order.
///
/// This is the fleet scheduler's stream→shard layout. The shard count is
/// part of the *configuration*, never derived from the thread count, so the
/// work decomposition — and with it every shard-local decision (batch
/// composition, flush timing) — is identical no matter how many workers
/// [`map`] fans the shards out across. Empty when `n_items == 0`;
/// `n_shards` is clamped to at least 1 and at most `n_items`.
pub fn round_robin_shards(n_items: usize, n_shards: usize) -> Vec<Vec<usize>> {
    if n_items == 0 {
        return Vec::new();
    }
    let n_shards = n_shards.clamp(1, n_items);
    let mut shards = vec![Vec::with_capacity(n_items.div_ceil(n_shards)); n_shards];
    for i in 0..n_items {
        shards[i % n_shards].push(i);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_shards_cover_all_items_once() {
        let shards = round_robin_shards(10, 3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0], vec![0, 3, 6, 9]);
        assert_eq!(shards[1], vec![1, 4, 7]);
        assert_eq!(shards[2], vec![2, 5, 8]);
        let mut all: Vec<usize> = shards.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        // Degenerate shapes.
        assert!(round_robin_shards(0, 4).is_empty());
        assert_eq!(round_robin_shards(2, 8).len(), 2); // clamped to n_items
        assert_eq!(round_robin_shards(5, 0).len(), 1); // clamped to 1
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let serial = map(Parallelism::serial(), &items, |&x| x * x);
        for threads in [2, 3, 8, 64] {
            let parallel = map(Parallelism::Fixed(threads), &items, |&x| x * x);
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn nested_map_runs_inline_on_the_outer_worker() {
        let outer: Vec<u64> = (0..8).collect();
        let inner: Vec<u64> = (0..32).collect();
        let value = |o: u64, i: u64| o * 100 + i * i;
        let main = std::thread::current().id();
        let nested = map(Parallelism::Fixed(4), &outer, |&o| {
            let worker = std::thread::current().id();
            assert_ne!(worker, main, "the outer map must fan out");
            let rows = map(Parallelism::Fixed(4), &inner, |&i| {
                (std::thread::current().id(), value(o, i))
            });
            assert!(
                rows.iter().all(|(id, _)| *id == worker),
                "inner map left its worker"
            );
            rows.into_iter().map(|(_, v)| v).collect::<Vec<_>>()
        });
        let serial: Vec<Vec<u64>> = outer
            .iter()
            .map(|&o| inner.iter().map(|&i| value(o, i)).collect())
            .collect();
        assert_eq!(nested, serial);
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(map(Parallelism::Fixed(4), &empty, |&x| x).is_empty());
        assert_eq!(map(Parallelism::Fixed(4), &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn map_indexed_passes_positions() {
        let items = ["a", "b", "c"];
        let out = map_indexed(Parallelism::Fixed(2), &items, |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn fixed_clamps_to_one() {
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert_eq!(Parallelism::serial().threads(), 1);
    }

    #[test]
    fn auto_resolves_to_at_least_one() {
        assert!(Parallelism::Auto.threads() >= 1);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items: Vec<u32> = (0..3).collect();
        assert_eq!(
            map(Parallelism::Fixed(16), &items, |&x| x + 1),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            map(Parallelism::Fixed(2), &items, |&x| {
                assert!(x != 5, "boom on 5");
                x
            })
        });
        assert!(result.is_err());
    }
}
