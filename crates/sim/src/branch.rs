//! Branch prediction: tournament (local + global + choice), BTB, and RAS —
//! the structures Table II configures and the Spectre family mistrains.

use evax_dram::state::Words;

/// Saturating 2-bit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Ctr2(u8);

impl Ctr2 {
    fn taken(self) -> bool {
        self.0 >= 2
    }
    fn update(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Outcome of a direction prediction with enough provenance to update the
/// chooser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirPrediction {
    /// Final predicted direction.
    pub taken: bool,
    /// Local component's vote.
    pub local: bool,
    /// Global component's vote.
    pub global: bool,
    /// `true` if the chooser selected the global component.
    pub chose_global: bool,
}

/// Tournament direction predictor: per-branch local history feeding a local
/// PHT, a global-history PHT, and a chooser.
#[derive(Debug, Clone)]
pub struct TournamentPredictor {
    local_hist: Vec<u16>,
    local_pht: Vec<Ctr2>,
    global_pht: Vec<Ctr2>,
    choice: Vec<Ctr2>,
    ghr: u64,
    local_hist_bits: u32,
    global_bits: u32,
}

impl TournamentPredictor {
    /// Creates a predictor with typical gem5-tournament sizing.
    pub fn new() -> Self {
        TournamentPredictor {
            local_hist: vec![0; 1024],
            local_pht: vec![Ctr2::default(); 1024],
            global_pht: vec![Ctr2::default(); 4096],
            choice: vec![Ctr2::default(); 4096],
            ghr: 0,
            local_hist_bits: 10,
            global_bits: 12,
        }
    }

    fn local_index(&self, pc: usize) -> usize {
        let hist = self.local_hist[pc % self.local_hist.len()];
        (hist as usize) & (self.local_pht.len() - 1)
    }

    fn global_index(&self) -> usize {
        (self.ghr as usize) & (self.global_pht.len() - 1)
    }

    fn choice_index(&self, pc: usize) -> usize {
        (pc ^ self.ghr as usize) & (self.choice.len() - 1)
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: usize) -> DirPrediction {
        let local = self.local_pht[self.local_index(pc)].taken();
        let global = self.global_pht[self.global_index()].taken();
        let chose_global = self.choice[self.choice_index(pc)].taken();
        DirPrediction {
            taken: if chose_global { global } else { local },
            local,
            global,
            chose_global,
        }
    }

    /// Trains all components with the resolved outcome.
    pub fn update(&mut self, pc: usize, pred: DirPrediction, actual: bool) {
        // Chooser learns toward whichever component was right (when they
        // disagree).
        if pred.local != pred.global {
            let idx = self.choice_index(pc);
            self.choice[idx].update(pred.global == actual);
        }
        let li = self.local_index(pc);
        self.local_pht[li].update(actual);
        let gi = self.global_index();
        self.global_pht[gi].update(actual);
        // Histories.
        let lh_idx = pc % self.local_hist.len();
        let lh = &mut self.local_hist[lh_idx];
        *lh = ((*lh << 1) | actual as u16) & ((1 << self.local_hist_bits) - 1);
        self.ghr = ((self.ghr << 1) | actual as u64) & ((1 << self.global_bits) - 1);
    }

    /// Visits predictor state — global history, local histories, then the
    /// local, global and choice counter tables (see [`evax_dram::state`]).
    /// Table sizes are fixed by [`Self::new`]; a loaded local history must
    /// fit `u16` and a counter must be `<= 3`.
    pub(crate) fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        w.u64(&mut self.ghr)?;
        for h in &mut self.local_hist {
            *h = w.below((*h).into(), 1 << 16)? as u16;
        }
        let tables = [&mut self.local_pht, &mut self.global_pht, &mut self.choice];
        for c in tables.into_iter().flatten() {
            c.0 = w.below(c.0.into(), 4)? as u8;
        }
        Some(())
    }
}

impl Default for TournamentPredictor {
    fn default() -> Self {
        Self::new()
    }
}

/// Branch-target buffer: direct-mapped, tagged.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<Option<(usize, usize)>>, // (tag pc, target)
}

impl Btb {
    /// Creates a BTB with `entries` slots.
    ///
    /// # Panics
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "BTB must have entries");
        Btb {
            entries: vec![None; entries],
        }
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn lookup(&self, pc: usize) -> Option<usize> {
        match self.entries[pc % self.entries.len()] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Installs/updates the target for `pc`. Aliasing overwrites — the
    /// property Spectre-BTB mistraining exploits.
    pub fn update(&mut self, pc: usize, target: usize) {
        let len = self.entries.len();
        self.entries[pc % len] = Some((pc, target));
    }

    /// Visits BTB contents, three words per slot: a 0/1 present flag, the
    /// tag and the target (see [`evax_dram::state`]).
    pub(crate) fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        for entry in &mut self.entries {
            let (mut present, (mut tag, mut target)) = (entry.is_some(), entry.unwrap_or_default());
            w.flag(&mut present)?;
            w.usize(&mut tag)?;
            w.usize(&mut target)?;
            *entry = present.then_some((tag, target));
        }
        Some(())
    }
}

/// Return-address stack with a fixed depth; overflow wraps (the Spectre-RSB
/// under/overflow surface).
#[derive(Debug, Clone)]
pub struct Ras {
    stack: Vec<usize>,
    top: usize,
    used: usize,
    capacity: usize,
}

impl Ras {
    /// Creates a RAS holding `capacity` return addresses.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS must have entries");
        Ras {
            stack: vec![0; capacity],
            top: 0,
            used: 0,
            capacity,
        }
    }

    /// Pushes a return address (call).
    pub fn push(&mut self, addr: usize) {
        self.top = (self.top + 1) % self.capacity;
        self.stack[self.top] = addr;
        self.used = (self.used + 1).min(self.capacity);
    }

    /// Pops the predicted return address (ret). Returns `None` when empty —
    /// an underflowed RAS mispredicts.
    pub fn pop(&mut self) -> Option<usize> {
        if self.used == 0 {
            return None;
        }
        let addr = self.stack[self.top];
        self.top = (self.top + self.capacity - 1) % self.capacity;
        self.used -= 1;
        Some(addr)
    }

    /// Snapshot for squash recovery.
    pub fn snapshot(&self) -> RasSnapshot {
        RasSnapshot {
            stack: self.stack.clone(),
            top: self.top,
            used: self.used,
        }
    }

    /// Restores a snapshot taken before a (now squashed) speculative region.
    pub fn restore(&mut self, snap: &RasSnapshot) {
        self.stack = snap.stack.clone();
        self.top = snap.top;
        self.used = snap.used;
    }

    /// Number of live entries.
    pub fn depth(&self) -> usize {
        self.used
    }

    /// Visits RAS state — top, used, then every slot (see
    /// [`evax_dram::state`]). Capacity is fixed by construction; a loaded
    /// `top` must be `< capacity` and `used <= capacity`.
    pub(crate) fn state(&mut self, w: &mut Words<'_>) -> Option<()> {
        self.top = w.below(self.top as u64, self.capacity as u64)? as usize;
        self.used = w.below(self.used as u64, self.capacity as u64 + 1)? as usize;
        self.stack.iter_mut().try_for_each(|slot| w.usize(slot))
    }
}

/// Saved RAS state used to recover from squashes.
#[derive(Debug, Clone)]
pub struct RasSnapshot {
    stack: Vec<usize>,
    top: usize,
    used: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tournament_learns_always_taken() {
        let mut p = TournamentPredictor::new();
        for _ in 0..16 {
            let pred = p.predict(100);
            p.update(100, pred, true);
        }
        assert!(p.predict(100).taken);
    }

    #[test]
    fn tournament_learns_alternating_via_local_history() {
        let mut p = TournamentPredictor::new();
        let mut outcome = false;
        // Train long enough for local history to capture the period-2 pattern.
        for _ in 0..200 {
            let pred = p.predict(64);
            p.update(64, pred, outcome);
            outcome = !outcome;
        }
        let mut correct = 0;
        for _ in 0..40 {
            let pred = p.predict(64);
            if pred.taken == outcome {
                correct += 1;
            }
            p.update(64, pred, outcome);
            outcome = !outcome;
        }
        assert!(correct >= 36, "correct={correct}");
    }

    #[test]
    fn mistraining_transfers_across_aliasing_pcs() {
        // The global component is shared: heavy taken-training on one branch
        // biases a fresh branch's first prediction — the Spectre-PHT setup.
        let mut p = TournamentPredictor::new();
        for pc in 0..64usize {
            for _ in 0..8 {
                let pred = p.predict(pc);
                p.update(pc, pred, true);
            }
        }
        assert!(
            p.predict(9999).taken,
            "global bias should leak to unseen pc"
        );
    }

    #[test]
    fn btb_stores_and_aliases() {
        let mut b = Btb::new(16);
        b.update(5, 100);
        assert_eq!(b.lookup(5), Some(100));
        assert_eq!(b.lookup(21), None); // same slot, different tag
        b.update(21, 200);
        assert_eq!(b.lookup(5), None); // evicted by aliasing
    }

    #[test]
    fn ras_lifo() {
        let mut r = Ras::new(4);
        r.push(1);
        r.push(2);
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_overflow_wraps() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        // Third pop returns the stale slot or None depending on wrap; depth
        // is capped at capacity, so it must be empty now.
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ras_snapshot_restores() {
        let mut r = Ras::new(4);
        r.push(10);
        let snap = r.snapshot();
        r.push(20);
        r.pop();
        r.pop();
        r.restore(&snap);
        assert_eq!(r.depth(), 1);
        assert_eq!(r.pop(), Some(10));
    }

    #[test]
    fn out_of_range_words_fail_to_load() {
        let bp = TournamentPredictor::new();
        // Word 0 is the global history, then 1024 local histories, then the
        // counter tables.
        let hist = |v| crate::reload(&bp, TournamentPredictor::state, 1, v);
        assert!(hist(1 << 16).is_none(), "local history must fit u16");
        assert!(hist(u16::MAX.into()).is_some());
        let ctr = |v| crate::reload(&bp, TournamentPredictor::state, 1 + 1024, v);
        assert!(ctr(4).is_none(), "2-bit counter must be <= 3");
        assert!(ctr(3).is_some());

        let btb = Btb::new(16);
        assert!(
            crate::reload(&btb, Btb::state, 0, 2).is_none(),
            "present is 0/1"
        );
        assert!(crate::reload(&btb, Btb::state, 0, 1).is_some());

        let ras = Ras::new(8);
        assert!(
            crate::reload(&ras, Ras::state, 0, 8).is_none(),
            "top < capacity"
        );
        assert!(crate::reload(&ras, Ras::state, 0, 7).is_some());
        assert!(
            crate::reload(&ras, Ras::state, 1, 9).is_none(),
            "used <= capacity"
        );
        assert!(crate::reload(&ras, Ras::state, 1, 8).is_some());
    }
}
