//! The card table and the shared-card pathology (paper Section 4.2.3).
//!
//! The old generation is divided into 512-byte cards. The write barrier
//! dirties the card containing any reference slot written in the old
//! generation; the minor GC then scans only dirty cards to find
//! old-to-young references. A card is *shared* when two large arrays meet
//! inside it: array A ends mid-card and array B starts immediately after.
//! Two GC threads scanning A and B cannot prove the card clean, so it stays
//! dirty forever and both entire arrays are rescanned at every minor GC —
//! devastating on NVM. Panthera's *card padding* aligns the end of every
//! RDD array to a card boundary, eliminating sharing at a cost of less than
//! one card of waste per array.

use hybridmem::Addr;

/// Card size used by OpenJDK and the paper.
pub const CARD_BYTES: u64 = 512;

/// Round `size` up so an object ending at a card boundary stays aligned
/// (the card-padding optimization).
pub fn pad_to_card(size: u64) -> u64 {
    size.div_ceil(CARD_BYTES) * CARD_BYTES
}

/// A card table covering one old-generation space.
///
/// Dirty and stuck states are kept as `u64` bitmaps — one bit per card —
/// so the write barrier is a mask-and-or, `dirty_count` is a `count_ones`
/// sweep, and the minor GC walks dirty cards with a word-skipping cursor
/// ([`CardTable::next_dirty_from`]) that allocates nothing and skips 64
/// clean cards per iteration in the common mostly-clean case.
#[derive(Debug, Clone)]
pub struct CardTable {
    base: Addr,
    n_cards: usize,
    /// One bit per card; bit `i % 64` of word `i / 64` is card `i`.
    dirty: Vec<u64>,
    /// Cards pinned dirty by the shared-card pathology; cleared only by a
    /// major collection.
    stuck: Vec<u64>,
}

const BITS: usize = u64::BITS as usize;

impl CardTable {
    /// A clean table covering `capacity` bytes starting at `base`.
    pub fn new(base: Addr, capacity: u64) -> Self {
        let n = capacity.div_ceil(CARD_BYTES) as usize;
        let words = n.div_ceil(BITS);
        CardTable {
            base,
            n_cards: n,
            dirty: vec![0; words],
            stuck: vec![0; words],
        }
    }

    /// Number of cards in the table.
    pub fn len(&self) -> usize {
        self.n_cards
    }

    /// True if the table covers zero cards.
    pub fn is_empty(&self) -> bool {
        self.n_cards == 0
    }

    /// Index of the card containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` precedes the table's base or lies past its end.
    #[inline]
    pub fn card_of(&self, addr: Addr) -> usize {
        assert!(addr.0 >= self.base.0, "address below card table base");
        let idx = ((addr.0 - self.base.0) / CARD_BYTES) as usize;
        assert!(idx < self.n_cards, "address past card table end");
        idx
    }

    /// Dirty the card containing `addr` (write-barrier slow path).
    #[inline]
    pub fn mark_dirty(&mut self, addr: Addr) {
        let idx = self.card_of(addr);
        self.dirty[idx / BITS] |= 1u64 << (idx % BITS);
    }

    /// Pin the card containing `addr` dirty until the next major GC
    /// (models the unresolvable shared-card race between scan threads).
    pub fn mark_stuck(&mut self, addr: Addr) {
        let idx = self.card_of(addr);
        self.dirty[idx / BITS] |= 1u64 << (idx % BITS);
        self.stuck[idx / BITS] |= 1u64 << (idx % BITS);
    }

    /// Is the card at `idx` dirty?
    pub fn is_dirty(&self, idx: usize) -> bool {
        self.dirty[idx / BITS] >> (idx % BITS) & 1 == 1
    }

    /// Is the card at `idx` pinned by the shared-card pathology?
    pub fn is_stuck(&self, idx: usize) -> bool {
        self.stuck[idx / BITS] >> (idx % BITS) & 1 == 1
    }

    /// The first dirty card at index `from` or later, skipping whole clean
    /// words, or `None` when the rest of the table is clean.
    ///
    /// This is the minor GC's iteration primitive: start at 0, process the
    /// returned card (cleaning or sticking it freely — mutation behind the
    /// cursor never perturbs cards ahead of it), and resume from
    /// `card + 1`.
    pub fn next_dirty_from(&self, from: usize) -> Option<usize> {
        if from >= self.n_cards {
            return None;
        }
        let mut w = from / BITS;
        // Mask off bits below `from` in its word.
        let mut word = self.dirty[w] & (!0u64 << (from % BITS));
        loop {
            if word != 0 {
                let idx = w * BITS + word.trailing_zeros() as usize;
                return (idx < self.n_cards).then_some(idx);
            }
            w += 1;
            if w >= self.dirty.len() {
                return None;
            }
            word = self.dirty[w];
        }
    }

    /// Indices of all dirty cards, ascending (word-skipping; allocates
    /// nothing until collected).
    pub fn iter_dirty(&self) -> impl Iterator<Item = usize> + '_ {
        let mut next = 0usize;
        std::iter::from_fn(move || {
            let idx = self.next_dirty_from(next)?;
            next = idx + 1;
            Some(idx)
        })
    }

    /// Number of dirty cards.
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clean the card at `idx` after a successful scan — unless it is
    /// stuck, in which case it stays dirty (returns whether it was cleaned).
    pub fn clean(&mut self, idx: usize) -> bool {
        if self.is_stuck(idx) {
            return false;
        }
        self.dirty[idx / BITS] &= !(1u64 << (idx % BITS));
        true
    }

    /// Clear everything, including stuck cards (major GC).
    pub fn clear_all(&mut self) {
        self.dirty.iter_mut().for_each(|w| *w = 0);
        self.stuck.iter_mut().for_each(|w| *w = 0);
    }

    /// Address range `[start, end)` covered by card `idx`.
    pub fn card_range(&self, idx: usize) -> (Addr, Addr) {
        let start = self.base.offset(idx as u64 * CARD_BYTES);
        (start, start.offset(CARD_BYTES))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_aligns_to_cards() {
        assert_eq!(pad_to_card(1), CARD_BYTES);
        assert_eq!(pad_to_card(CARD_BYTES), CARD_BYTES);
        assert_eq!(pad_to_card(CARD_BYTES + 1), 2 * CARD_BYTES);
        assert_eq!(pad_to_card(0), 0);
    }

    #[test]
    fn mark_and_clean() {
        let mut t = CardTable::new(Addr(0), 4096);
        assert_eq!(t.len(), 8);
        t.mark_dirty(Addr(513));
        assert!(t.is_dirty(1));
        assert!(!t.is_dirty(0));
        assert_eq!(t.iter_dirty().collect::<Vec<_>>(), vec![1]);
        assert!(t.clean(1));
        assert_eq!(t.dirty_count(), 0);
    }

    #[test]
    fn cursor_skips_clean_words() {
        // 1 MiB of cards = 2048 cards = 32 words; dirty a card in the
        // first, a middle, and the last word.
        let mut t = CardTable::new(Addr(0), 1 << 20);
        assert_eq!(t.len(), 2048);
        for idx in [3usize, 700, 2047] {
            t.mark_dirty(Addr(idx as u64 * CARD_BYTES));
        }
        assert_eq!(t.next_dirty_from(0), Some(3));
        assert_eq!(t.next_dirty_from(4), Some(700));
        assert_eq!(t.next_dirty_from(700), Some(700));
        assert_eq!(t.next_dirty_from(701), Some(2047));
        assert_eq!(t.next_dirty_from(2048), None);
        assert_eq!(t.iter_dirty().collect::<Vec<_>>(), vec![3, 700, 2047]);
        assert_eq!(t.dirty_count(), 3);
    }

    #[test]
    fn cursor_within_one_word() {
        let mut t = CardTable::new(Addr(0), 64 * CARD_BYTES);
        t.mark_dirty(Addr(0));
        t.mark_dirty(Addr(63 * CARD_BYTES));
        assert_eq!(t.next_dirty_from(1), Some(63));
        t.clean(0);
        assert_eq!(t.next_dirty_from(0), Some(63));
        assert_eq!(t.next_dirty_from(64), None, "past the end");
    }

    #[test]
    fn stuck_cards_resist_cleaning() {
        let mut t = CardTable::new(Addr(0), 2048);
        t.mark_stuck(Addr(0));
        assert!(!t.clean(0), "stuck card stays dirty");
        assert!(t.is_dirty(0));
        t.clear_all();
        assert!(!t.is_dirty(0));
        assert!(!t.is_stuck(0));
    }

    #[test]
    fn card_ranges() {
        let t = CardTable::new(Addr(1000), 2048);
        let (s, e) = t.card_range(1);
        assert_eq!(s, Addr(1000 + 512));
        assert_eq!(e, Addr(1000 + 1024));
        assert_eq!(t.card_of(Addr(1000 + 600)), 1);
    }

    #[test]
    #[should_panic(expected = "below card table base")]
    fn below_base_panics() {
        let t = CardTable::new(Addr(1000), 1024);
        t.card_of(Addr(999));
    }

    #[test]
    #[should_panic(expected = "past card table end")]
    fn past_end_panics() {
        let t = CardTable::new(Addr(0), 1024);
        t.card_of(Addr(1024));
    }
}
