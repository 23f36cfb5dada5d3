//! A dense set of object ids for the collectors' visited/marked sets.
//!
//! [`ObjId`]s index the heap's object slab, so membership is one bit per
//! slab slot: insert and lookup are a shift and a mask with no hashing,
//! and the whole set is `slab_len / 8` bytes however many ids it holds.

use crate::object::ObjId;

const BITS: usize = u64::BITS as usize;

/// A set of [`ObjId`]s, one bit per slab slot. Build one sized for a heap
/// with [`Heap::mark_set`](crate::Heap::mark_set).
#[derive(Debug, Clone)]
pub struct MarkSet {
    /// Bit `i % 64` of word `i / 64` is `ObjId(i)`.
    words: Vec<u64>,
}

impl MarkSet {
    /// An empty set with room for ids below `slab_len` (it grows if a
    /// larger id is inserted).
    pub(crate) fn with_capacity(slab_len: usize) -> Self {
        MarkSet {
            words: vec![0; slab_len.div_ceil(BITS)],
        }
    }

    /// Add `id`; returns `true` if it was not already present.
    pub fn insert(&mut self, id: ObjId) -> bool {
        let (w, bit) = (id.0 as usize / BITS, 1u64 << (id.0 as usize % BITS));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Is `id` in the set?
    pub fn contains(&self, id: ObjId) -> bool {
        self.words
            .get(id.0 as usize / BITS)
            .is_some_and(|w| w >> (id.0 as usize % BITS) & 1 == 1)
    }

    /// The ids in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    ObjId((w * BITS + bit) as u32)
                })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_first_insertion_only() {
        let mut s = MarkSet::with_capacity(100);
        assert!(!s.contains(ObjId(63)));
        assert!(s.insert(ObjId(63)));
        assert!(!s.insert(ObjId(63)));
        assert!(s.contains(ObjId(63)));
        assert!(!s.contains(ObjId(64)));
        assert!(!s.contains(ObjId(62)));
    }

    #[test]
    fn ids_past_the_initial_capacity() {
        let mut s = MarkSet::with_capacity(0);
        assert!(!s.contains(ObjId(1_000)));
        assert!(s.insert(ObjId(1_000)));
        assert!(s.contains(ObjId(1_000)));
        assert!(!s.contains(ObjId(u32::MAX)));
    }

    #[test]
    fn iter_is_ascending_and_complete() {
        let mut s = MarkSet::with_capacity(300);
        for i in [299, 0, 64, 63, 128, 65] {
            s.insert(ObjId(i));
        }
        let got: Vec<u32> = s.iter().map(|id| id.0).collect();
        assert_eq!(got, [0, 63, 64, 65, 128, 299]);
    }
}
