#![deny(missing_docs)]

//! A simulated managed heap in the image of OpenJDK 8's Parallel Scavenge
//! layout, extended with Panthera's hybrid-memory structure (paper
//! Section 4.1):
//!
//! * a **young generation** (eden + two survivor semispaces) placed
//!   entirely in DRAM;
//! * an **old generation** that is either *split* into a DRAM space and an
//!   NVM space (Panthera) or *unified* on one device / interleaved across
//!   both (the baselines);
//! * two reserved `MEMORY_BITS` in every object header carrying the
//!   DRAM/NVM placement tag;
//! * a **card table** (512-byte cards) maintained by the write barrier,
//!   including the shared-card pathology and the card-padding fix of
//!   Section 4.2.3.
//!
//! Objects are records with stable ids; moving an object only changes its
//! simulated address, and every allocation, copy, scan, and barrier charges
//! traffic to the [`hybridmem`] memory system so time and energy reflect
//! the devices touched.
//!
//! ```
//! use mheap::{Heap, HeapConfig, MemTag, ObjKind, Payload};
//! use hybridmem::MemorySystemConfig;
//!
//! let config = HeapConfig::panthera(1_000_000, 1.0 / 3.0);
//! let mut heap = Heap::new(config, MemorySystemConfig::with_capacities(
//!     333_333, 666_667,
//! )).expect("valid config");
//!
//! // A persisted RDD's backbone array is pretenured into old-gen NVM...
//! let nvm = heap.old_nvm().unwrap();
//! let array = heap.alloc_array_old(nvm, 0, 128, MemTag::Nvm).unwrap();
//! // ...while its tuples start in eden and are moved there by the GC later.
//! let tuple = heap
//!     .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Long(42))
//!     .unwrap();
//! heap.push_ref(array, tuple); // write barrier dirties the card
//! assert_eq!(heap.card_table(nvm).dirty_count(), 1);
//! ```

mod card;
mod config;
mod fnv;
mod heap;
mod markset;
mod object;
mod payload;
mod region;
mod roots;
mod space;
mod tag;
mod verify;
mod wire;

pub use card::{pad_to_card, CardTable, CARD_BYTES};
pub use config::{HeapConfig, OldGenLayout, SURVIVOR_FRACTION, TENURE_THRESHOLD};
pub use fnv::Fnv;
pub use heap::{Heap, HeapError, HeapStats, Rejected};
pub use markset::MarkSet;
pub use object::{object_bytes, ObjId, ObjKind, Object, HEADER_BYTES, REF_BYTES};
pub use payload::{Key, Payload};
pub use region::{RegionBlock, RegionClass, RegionHeap, RegionStats};
pub use roots::RootSet;
pub use space::{OldSpaceId, Space, SpaceId};
pub use tag::MemTag;
pub use verify::{Invariant, VerifyError, VerifyPoint};
pub use wire::{Records, WireBatch, WireRef};

/// The off-heap H2 region's use of the block table: each persisted RDD is
/// one [`RegionHeap`] block on its tagged device, refcounted by the
/// lifetime plan and freed wholesale at zero — the same table the
/// lifetime arenas use.
#[cfg(test)]
mod offheap {
    mod tests {
        use crate::{RegionClass, RegionHeap};
        use hybridmem::DeviceKind;

        const H2: RegionClass = RegionClass::RddLifetime;

        #[test]
        fn refcounted_lifecycle_balances() {
            let mut r = RegionHeap::new();
            r.alloc_block(3, 1000, DeviceKind::Dram, H2, 2);
            r.alloc_block(5, 500, DeviceKind::Nvm, H2, 1);
            r.check_invariants().unwrap();
            assert_eq!(r.resident_bytes(DeviceKind::Dram), 1000);
            assert_eq!(r.resident_bytes(DeviceKind::Nvm), 500);
            assert!(r.release(3).is_none());
            assert_eq!(r.block(3).unwrap().refs, 1);
            let freed = r.release(3).unwrap();
            assert_eq!(freed.bytes, 1000);
            assert!(r.block(3).is_none());
            let freed = r.release(5).unwrap();
            assert_eq!(freed.device, DeviceKind::Nvm);
            assert_eq!(r.live_blocks(), 0);
            assert_eq!(r.total_resident_bytes(), 0);
            let s = r.stats();
            assert_eq!(s.block_allocs, s.block_frees);
            assert_eq!(s.block_bytes, s.freed_bytes);
            r.check_invariants().unwrap();
        }

        #[test]
        fn force_free_ignores_refcount() {
            let mut r = RegionHeap::new();
            r.alloc_block(7, 64, DeviceKind::Nvm, H2, 9);
            let b = r.free(7);
            assert_eq!(b.refs, 9);
            assert_eq!(r.live_blocks(), 0);
            r.check_invariants().unwrap();
        }

        #[test]
        fn live_rdds_are_sorted() {
            let mut r = RegionHeap::new();
            for rdd in [9, 2, 5] {
                r.alloc_block(rdd, 1, DeviceKind::Dram, H2, 1);
            }
            assert_eq!(r.live_rdds(), vec![2, 5, 9]);
        }

        #[test]
        #[should_panic(expected = "double alloc")]
        fn double_alloc_panics() {
            let mut r = RegionHeap::new();
            r.alloc_block(1, 1, DeviceKind::Dram, H2, 1);
            r.alloc_block(1, 1, DeviceKind::Dram, H2, 1);
        }

        #[test]
        #[should_panic(expected = "refcount underflow")]
        fn zero_ref_release_panics() {
            let mut r = RegionHeap::new();
            r.alloc_block(1, 1, DeviceKind::Dram, H2, 1);
            let _ = r.release(1);
            // Block is gone; a second release is a dead-rdd panic, so
            // rebuild the underflow case directly: refs == 0 at creation
            // models a lineage-dead-at-birth block the engine frees
            // immediately, and releasing it must trip the assert.
            r.alloc_block(2, 1, DeviceKind::Dram, H2, 0);
            let _ = r.release(2);
        }
    }
}
