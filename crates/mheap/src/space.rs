//! Heap spaces: bump-allocated regions of the simulated address space.
//!
//! The heap mirrors OpenJDK's Parallel Scavenge layout (paper Section 4.1):
//! a young generation of eden plus two survivor semispaces, always in DRAM,
//! and an old generation that Panthera splits into a DRAM space and an NVM
//! space (baseline modes use a single unified old space instead).

use crate::object::ObjId;
use hybridmem::Addr;
use std::fmt;

/// Identifies one old-generation space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OldSpaceId(pub u8);

/// Identifies a heap space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpaceId {
    /// The young-generation allocation space.
    Eden,
    /// Survivor semispace 0.
    Survivor0,
    /// Survivor semispace 1.
    Survivor1,
    /// An old-generation space (DRAM part, NVM part, or unified).
    Old(OldSpaceId),
}

impl SpaceId {
    /// True for eden and the survivor spaces.
    #[inline]
    pub fn is_young(self) -> bool {
        !matches!(self, SpaceId::Old(_))
    }

    /// The old-space id, if this is an old space.
    pub fn old_id(self) -> Option<OldSpaceId> {
        match self {
            SpaceId::Old(id) => Some(id),
            _ => None,
        }
    }
}

impl fmt::Display for SpaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceId::Eden => write!(f, "eden"),
            SpaceId::Survivor0 => write!(f, "survivor0"),
            SpaceId::Survivor1 => write!(f, "survivor1"),
            SpaceId::Old(id) => write!(f, "old{}", id.0),
        }
    }
}

/// A bump-allocated region.
///
/// The space also tracks, in allocation (= address) order, the objects that
/// currently live in it; collectors rebuild this list when they move or
/// reclaim objects.
#[derive(Debug, Clone)]
pub struct Space {
    id: SpaceId,
    base: Addr,
    capacity: u64,
    top: u64,
    objects: Vec<ObjId>,
}

impl Space {
    /// A new empty space at `base` with the given byte capacity.
    pub fn new(id: SpaceId, base: Addr, capacity: u64) -> Self {
        Space {
            id,
            base,
            capacity,
            top: 0,
            objects: Vec::new(),
        }
    }

    /// This space's id.
    pub fn id(&self) -> SpaceId {
        self.id
    }

    /// First address of the space.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.top
    }

    /// Bytes still free.
    pub fn free(&self) -> u64 {
        self.capacity - self.top
    }

    /// Occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            1.0
        } else {
            self.top as f64 / self.capacity as f64
        }
    }

    /// True if `addr` falls inside this space's address range.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.capacity
    }

    /// Bump-allocate `size` bytes for `obj`, returning the address, or
    /// `None` if the space is full.
    #[inline]
    pub fn alloc(&mut self, obj: ObjId, size: u64) -> Option<Addr> {
        if self.top + size > self.capacity {
            return None;
        }
        let addr = self.base.offset(self.top);
        self.top += size;
        self.objects.push(obj);
        Some(addr)
    }

    /// Objects resident in this space, in address order.
    pub fn objects(&self) -> &[ObjId] {
        &self.objects
    }

    /// Replace the resident-object list and set the bump pointer to
    /// `used_bytes` (used by collectors after evacuation or compaction).
    pub fn reset_with(&mut self, objects: Vec<ObjId>, used_bytes: u64) {
        assert!(
            used_bytes <= self.capacity,
            "reset beyond capacity of {}",
            self.id
        );
        self.objects = objects;
        self.top = used_bytes;
    }

    /// Empty the space entirely.
    pub fn clear(&mut self) {
        self.objects.clear();
        self.top = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation() {
        let mut s = Space::new(SpaceId::Eden, Addr(1000), 100);
        let a = s.alloc(ObjId(1), 40).unwrap();
        let b = s.alloc(ObjId(2), 40).unwrap();
        assert_eq!(a, Addr(1000));
        assert_eq!(b, Addr(1040));
        assert_eq!(s.used(), 80);
        assert_eq!(s.free(), 20);
        assert!(s.alloc(ObjId(3), 40).is_none(), "over capacity");
        assert_eq!(s.objects(), &[ObjId(1), ObjId(2)]);
    }

    #[test]
    fn occupancy_and_contains() {
        let mut s = Space::new(SpaceId::Survivor0, Addr(0), 200);
        assert_eq!(s.occupancy(), 0.0);
        s.alloc(ObjId(1), 100);
        assert_eq!(s.occupancy(), 0.5);
        assert!(s.contains(Addr(199)));
        assert!(!s.contains(Addr(200)));
    }

    #[test]
    fn reset_and_clear() {
        let mut s = Space::new(SpaceId::Old(OldSpaceId(0)), Addr(0), 100);
        s.alloc(ObjId(1), 10);
        s.reset_with(vec![ObjId(5)], 64);
        assert_eq!(s.used(), 64);
        assert_eq!(s.objects(), &[ObjId(5)]);
        s.clear();
        assert_eq!(s.used(), 0);
        assert!(s.objects().is_empty());
    }

    #[test]
    fn space_id_classification() {
        assert!(SpaceId::Eden.is_young());
        assert!(SpaceId::Survivor1.is_young());
        assert!(!SpaceId::Old(OldSpaceId(0)).is_young());
        assert_eq!(SpaceId::Old(OldSpaceId(2)).old_id(), Some(OldSpaceId(2)));
        assert_eq!(SpaceId::Eden.old_id(), None);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn reset_validates() {
        let mut s = Space::new(SpaceId::Eden, Addr(0), 10);
        s.reset_with(vec![], 11);
    }
}
