//! Snapshot word codec shared by every simulator component.
//!
//! A component states its checkpoint layout once, in a single
//! `state(&mut self, w: &mut Words<'_>) -> Option<()>` function that visits
//! its fields in word order. Driven by [`Words::Save`] the visits append the
//! fields to a word stream; driven by [`Words::Load`] the same visits read
//! them back, so the writer and the reader cannot drift apart.
//!
//! Loading is input from outside the program: every visit returns `None`
//! when the stream runs out or a word fails its check, and the caller
//! rejects the whole payload. The checks apply to saving too, so a state
//! that could not be loaded back is never written.

use std::slice;

/// A snapshot word stream being written or read.
#[derive(Debug)]
pub enum Words<'a> {
    /// Each visit appends the field.
    Save(&'a mut Vec<u64>),
    /// Each visit overwrites the field with the next word.
    Load(slice::Iter<'a, u64>),
}

impl<'a> Words<'a> {
    /// `true` when the visits read fields back.
    pub fn loading(&self) -> bool {
        matches!(self, Words::Load(_))
    }

    /// Words not yet read (`0` while saving).
    pub fn remaining(&self) -> usize {
        match self {
            Words::Save(_) => 0,
            Words::Load(it) => it.len(),
        }
    }

    /// Writes `v`, or reads the next word.
    fn word(&mut self, v: u64) -> Option<u64> {
        match self {
            Words::Save(out) => {
                out.push(v);
                Some(v)
            }
            Words::Load(it) => it.next().copied(),
        }
    }

    /// One `u64` field.
    pub fn u64(&mut self, v: &mut u64) -> Option<()> {
        *v = self.word(*v)?;
        Some(())
    }

    /// A list of `u64` fields, in order.
    pub fn u64s<'f>(&mut self, fields: impl IntoIterator<Item = &'f mut u64>) -> Option<()> {
        fields.into_iter().try_for_each(|v| self.u64(v))
    }

    /// One `usize` field; a loaded value must fit the host's `usize`.
    pub fn usize(&mut self, v: &mut usize) -> Option<()> {
        *v = usize::try_from(self.word(*v as u64)?).ok()?;
        Some(())
    }

    /// One `bool` field, stored as a `0`/`1` word.
    pub fn flag(&mut self, v: &mut bool) -> Option<()> {
        *v = self.below(u64::from(*v), 2)? == 1;
        Some(())
    }

    /// A value that must be `< bound`: writes `v`, or returns the loaded
    /// value, failing when it is `>= bound`.
    pub fn below(&mut self, v: u64, bound: u64) -> Option<u64> {
        self.word(v).filter(|&x| x < bound)
    }

    /// A length prefix: writes `n`, or returns the loaded count, failing
    /// when it exceeds `max` or the words left, so a corrupt prefix cannot
    /// drive an allocation.
    pub fn prefix(&mut self, mut n: usize, max: usize) -> Option<usize> {
        self.usize(&mut n)?;
        (n <= max && (!self.loading() || n <= self.remaining())).then_some(n)
    }

    /// A length-prefixed `Vec` of at most `max` items, each visited by
    /// `item`. Loading resizes `v` to the loaded length first.
    pub fn seq<T: Default>(
        &mut self,
        v: &mut Vec<T>,
        max: usize,
        mut item: impl FnMut(&mut Words<'a>, &mut T) -> Option<()>,
    ) -> Option<()> {
        let n = self.prefix(v.len(), max)?;
        v.resize_with(n, T::default);
        v.iter_mut().try_for_each(|x| item(self, x))
    }
}

#[cfg(test)]
/// Saves `c` through `state`, overwrites word `at` with `v`, and loads the
/// words into a copy of `c`. `None` means the corrupt word was rejected.
pub(crate) fn reload<T: Clone>(
    c: &T,
    state: fn(&mut T, &mut Words<'_>) -> Option<()>,
    at: usize,
    v: u64,
) -> Option<T> {
    let mut words = Vec::new();
    state(&mut c.clone(), &mut Words::Save(&mut words)).expect("saves");
    words[at] = v;
    let mut back = c.clone();
    state(&mut back, &mut Words::Load(words.iter()))?;
    Some(back)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Fields = (u64, usize, bool, u64, Vec<u64>);

    fn visit(v: &mut Fields, w: &mut Words<'_>) -> Option<()> {
        w.u64(&mut v.0)?;
        w.usize(&mut v.1)?;
        w.flag(&mut v.2)?;
        v.3 = w.below(v.3, 4)?;
        w.seq(&mut v.4, 3, Words::u64)
    }

    #[test]
    fn visits_round_trip_and_fail_closed() {
        let v: Fields = (7, 9, true, 3, vec![1, 2, 3]);
        let mut words = Vec::new();
        visit(&mut v.clone(), &mut Words::Save(&mut words)).expect("saves");
        assert_eq!(words, [7, 9, 1, 3, 3, 1, 2, 3]);
        assert_eq!(
            reload(&v, visit, 1, 8),
            Some((7, 8, true, 3, vec![1, 2, 3]))
        );
        assert!(reload(&v, visit, 2, 2).is_none(), "flag is 0/1");
        assert!(reload(&v, visit, 3, 4).is_none(), "below the bound");
        assert!(reload(&v, visit, 4, 4).is_none(), "prefix over max");
        assert!(Words::Load([].iter()).u64(&mut 0).is_none(), "truncated");
        let mut long = Vec::new();
        assert!(
            Words::Load([2, 1].iter())
                .seq(&mut long, usize::MAX, Words::u64)
                .is_none(),
            "a prefix beyond the words left fails before allocating"
        );
    }
}
