//! Heap objects: identity, headers, kinds.
//!
//! An RDD is, at a low level, a multi-layer object structure (Figure 1 of
//! the paper): a top RDD object references a Java array, which references
//! tuple objects, which reference further data objects. We model each of
//! those as an [`Object`] record whose header carries the mark bit, age,
//! and the two `MEMORY_BITS` Panthera reserves.

use crate::space::SpaceId;
use crate::tag::MemTag;
use hybridmem::Addr;
use std::fmt;
use std::ops::Range;

/// Stable identity of a heap object. Unlike a real collector, the simulator
/// never rewrites references when it moves an object — the id stays fixed
/// and only the object's simulated address changes, which is what the
/// time/energy model observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// The role an object plays in an RDD's structure (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// The top `org.apache.spark.rdd.RDD` object for RDD `rdd_id`.
    RddTop {
        /// Runtime RDD id the top object represents.
        rdd_id: u32,
    },
    /// The backbone array of an RDD partition; the object Panthera
    /// pretenures directly into the tagged space.
    RddArray {
        /// Runtime RDD id the array belongs to.
        rdd_id: u32,
    },
    /// A data tuple (key/value record) or other data object reachable from
    /// an RDD array.
    Tuple,
    /// Framework control objects, iterators, buffers — not associated with
    /// any RDD.
    Control,
}

impl ObjKind {
    /// The RDD this object is structurally part of, if known statically.
    pub fn rdd_id(self) -> Option<u32> {
        match self {
            ObjKind::RddTop { rdd_id } | ObjKind::RddArray { rdd_id } => Some(rdd_id),
            _ => None,
        }
    }

    /// True for the backbone array kind.
    pub fn is_array(self) -> bool {
        matches!(self, ObjKind::RddArray { .. })
    }
}

/// Modelled size of an object header in bytes (mark word + klass pointer).
pub const HEADER_BYTES: u64 = 16;
/// Modelled size of one reference slot in bytes.
pub const REF_BYTES: u64 = 8;

/// Compute an object's modelled size from its payload and reference count.
#[inline]
pub fn object_bytes(payload_bytes: u64, n_refs: usize) -> u64 {
    HEADER_BYTES + payload_bytes + REF_BYTES * n_refs as u64
}

/// One simulated heap object.
#[derive(Debug, Clone)]
pub struct Object {
    /// Structural role.
    pub kind: ObjKind,
    /// Modelled size in bytes (includes header, payload, and ref slots;
    /// may include card-alignment padding for arrays).
    pub size: u64,
    /// Current simulated address.
    pub addr: Addr,
    /// Space the object currently lives in.
    pub space: SpaceId,
    /// The `MEMORY_BITS` placement tag.
    pub tag: MemTag,
    /// Number of minor collections survived.
    pub age: u8,
    /// Mark bit used by the major collector.
    pub marked: bool,
    /// Outgoing references.
    pub refs: Vec<ObjId>,
}

// An object is its size and its references; the records it models stay
// with the engine. Holding no `Rc`, the slab can be traced from several
// threads.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Object>();
};

impl Object {
    /// End address (exclusive) of the object.
    pub fn end(&self) -> Addr {
        self.addr.offset(self.size)
    }

    /// Modelled address of reference slot `index`, clamped to the object's
    /// extent. Slots normally sit at `HEADER_BYTES + REF_BYTES * index`,
    /// but `refs` may legitimately outgrow the modelled size (e.g. an
    /// appended backbone array), so the last byte of the object is used as
    /// the overflow slot address. The write barrier, the collectors'
    /// re-dirty passes, and the heap verifier must all agree on this
    /// mapping — a slot dirtied at one address and checked at another
    /// would be a false card-table violation.
    #[inline]
    pub fn slot_addr(&self, index: usize) -> Addr {
        self.addr
            .offset((HEADER_BYTES + REF_BYTES * index as u64).min(self.size.saturating_sub(1)))
    }

    /// The reference slots whose [`slot_addr`](Self::slot_addr) lies in
    /// `[start, end)` — the inverse of `slot_addr`, as an index range into
    /// `refs`. Slot addresses never decrease with the index, so the slots
    /// inside any address window are contiguous; the clamped overflow
    /// slots all sit on the object's last byte and so belong to whichever
    /// window holds that byte. A card scan uses this to examine only the
    /// slots a dirty card covers.
    pub fn slots_in(&self, start: Addr, end: Addr) -> Range<usize> {
        let last = self.size.saturating_sub(1);
        // First slot index whose address is at or past `addr`.
        let first_at = |addr: Addr| -> usize {
            let off = addr.0.saturating_sub(self.addr.0);
            if off > last {
                return self.refs.len();
            }
            let idx = off.saturating_sub(HEADER_BYTES).div_ceil(REF_BYTES);
            usize::try_from(idx).map_or(self.refs.len(), |i| i.min(self.refs.len()))
        };
        let lo = first_at(start);
        lo..first_at(end).max(lo)
    }

    /// True if the object is in either young-generation space.
    #[inline]
    pub fn in_young(&self) -> bool {
        self.space.is_young()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card::CARD_BYTES;

    #[test]
    fn object_size_model() {
        assert_eq!(object_bytes(0, 0), 16);
        assert_eq!(object_bytes(8, 0), 24);
        assert_eq!(object_bytes(0, 3), 40);
    }

    #[test]
    fn kind_rdd_ids() {
        assert_eq!(ObjKind::RddTop { rdd_id: 3 }.rdd_id(), Some(3));
        assert_eq!(ObjKind::RddArray { rdd_id: 4 }.rdd_id(), Some(4));
        assert_eq!(ObjKind::Tuple.rdd_id(), None);
        assert!(ObjKind::RddArray { rdd_id: 0 }.is_array());
        assert!(!ObjKind::Tuple.is_array());
    }

    #[test]
    fn object_end() {
        let o = Object {
            kind: ObjKind::Tuple,
            size: 32,
            addr: Addr(100),
            space: SpaceId::Eden,
            tag: MemTag::None,
            age: 0,
            marked: false,
            refs: vec![],
        };
        assert_eq!(o.end(), Addr(132));
        assert!(o.in_young());
    }

    #[test]
    fn slot_addresses_clamp_to_extent() {
        let o = Object {
            kind: ObjKind::RddArray { rdd_id: 0 },
            size: HEADER_BYTES + 2 * REF_BYTES,
            addr: Addr(1000),
            space: SpaceId::Old(crate::space::OldSpaceId(0)),
            tag: MemTag::None,
            age: 0,
            marked: false,
            refs: vec![],
        };
        assert_eq!(o.slot_addr(0), Addr(1000 + HEADER_BYTES));
        assert_eq!(o.slot_addr(1), Addr(1000 + HEADER_BYTES + REF_BYTES));
        // Slot 2 would start at the object's end: clamped to the last byte.
        assert_eq!(o.slot_addr(2), Addr(1000 + o.size - 1));
        assert_eq!(o.slot_addr(1000), Addr(1000 + o.size - 1));
    }

    /// An array of `size` bytes at `addr` with `n_refs` slots (the targets
    /// are irrelevant to slot geometry).
    fn array(addr: u64, size: u64, n_refs: usize) -> Object {
        Object {
            kind: ObjKind::RddArray { rdd_id: 0 },
            size,
            addr: Addr(addr),
            space: SpaceId::Old(crate::space::OldSpaceId(0)),
            tag: MemTag::None,
            age: 0,
            marked: false,
            refs: vec![ObjId(0); n_refs],
        }
    }

    /// The card (of a table based at 0) holding `addr`, as an address range.
    fn card_of(addr: Addr) -> (Addr, Addr) {
        let start = addr.0 / CARD_BYTES * CARD_BYTES;
        (Addr(start), Addr(start + CARD_BYTES))
    }

    /// `slots_in` against the definition: the indices whose `slot_addr`
    /// falls in the window.
    fn slots_by_definition(o: &Object, start: Addr, end: Addr) -> Vec<usize> {
        (0..o.refs.len())
            .filter(|i| (start.0..end.0).contains(&o.slot_addr(*i).0))
            .collect()
    }

    #[test]
    fn slots_in_unaligned_start() {
        // Starts 40 bytes before a card boundary: header (16) + 3 slots fit
        // in the first card, the rest spill into the next two.
        let o = array(2 * CARD_BYTES - 40, object_bytes(REF_BYTES * 100, 0), 100);
        assert_eq!(o.slots_in(Addr(CARD_BYTES), Addr(2 * CARD_BYTES)), 0..3);
        assert_eq!(
            o.slots_in(Addr(2 * CARD_BYTES), Addr(3 * CARD_BYTES)),
            3..67
        );
        assert_eq!(
            o.slots_in(Addr(3 * CARD_BYTES), Addr(4 * CARD_BYTES)),
            67..100
        );
        // Windows that miss the object entirely.
        assert!(o.slots_in(Addr(0), Addr(CARD_BYTES)).is_empty());
        assert!(o
            .slots_in(Addr(4 * CARD_BYTES), Addr(5 * CARD_BYTES))
            .is_empty());
    }

    #[test]
    fn slots_in_splits_at_the_card_boundary() {
        // Slot 2 ends exactly at the boundary, slot 3 starts exactly on it.
        let o = array(CARD_BYTES - 40, object_bytes(REF_BYTES * 8, 0), 8);
        assert_eq!(o.slot_addr(2), Addr(CARD_BYTES - 8));
        assert_eq!(o.slot_addr(3), Addr(CARD_BYTES));
        assert_eq!(o.slots_in(Addr(0), Addr(CARD_BYTES)), 0..3);
        assert_eq!(o.slots_in(Addr(CARD_BYTES), Addr(2 * CARD_BYTES)), 3..8);
    }

    #[test]
    fn slots_in_puts_clamped_slots_on_the_last_card_only() {
        // Modelled for 70 slots (spans two cards) but grown to 200: slots
        // 70.. all share the object's last byte.
        let o = array(0, object_bytes(REF_BYTES * 70, 0), 200);
        assert_eq!(o.end(), Addr(576));
        assert_eq!(o.slots_in(Addr(0), Addr(CARD_BYTES)), 0..62);
        assert_eq!(o.slots_in(Addr(CARD_BYTES), Addr(2 * CARD_BYTES)), 62..200);
        // A window that stops short of the last byte excludes them.
        assert_eq!(o.slots_in(Addr(CARD_BYTES), Addr(575)), 62..70);
        assert_eq!(o.slots_in(Addr(575), Addr(576)), 70..200);
    }

    #[test]
    fn slots_in_empty_refs() {
        let o = array(100, 64, 0);
        assert!(o.slots_in(Addr(0), Addr(CARD_BYTES)).is_empty());
        assert!(o.slots_in(Addr(100), Addr(164)).is_empty());
    }

    #[test]
    fn slots_in_round_trips_slot_addr() {
        // Aligned and unaligned starts, sizes that end on and off a slot
        // boundary, refs within and past the modelled size.
        for (addr, size, n) in [
            (0, object_bytes(REF_BYTES * 300, 0), 300),
            (1000, object_bytes(REF_BYTES * 300, 0), 300),
            (488, object_bytes(REF_BYTES * 130, 0) + 5, 400),
            (8, HEADER_BYTES, 3),
            (CARD_BYTES - 1, 1540, 191),
        ] {
            let o = array(addr, size, n);
            let mut covered = 0;
            let mut card = card_of(o.addr);
            while card.0 < o.end() {
                let window = o.slots_in(card.0, card.1);
                assert_eq!(
                    window.clone().collect::<Vec<_>>(),
                    slots_by_definition(&o, card.0, card.1),
                    "object at {addr} size {size}, card {}",
                    card.0 .0
                );
                // Consecutive cards partition the slots in index order.
                assert_eq!(window.start, covered);
                covered = window.end;
                card = (card.1, Addr(card.1 .0 + CARD_BYTES));
            }
            assert_eq!(covered, n, "every slot lies on one of the object's cards");
            for i in 0..n {
                let (s, e) = card_of(o.slot_addr(i));
                assert!(o.slots_in(s, e).contains(&i), "slot {i} lost");
            }
        }
    }
}
