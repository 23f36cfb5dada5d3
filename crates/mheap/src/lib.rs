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
mod heap;
mod markset;
mod object;
mod offheap;
mod payload;
mod region;
mod roots;
mod space;
mod tag;
mod verify;
mod wire;

pub use card::{pad_to_card, CardTable, CARD_BYTES};
pub use config::{HeapConfig, OldGenLayout};
pub use heap::{Heap, HeapError, HeapStats, Rejected};
pub use markset::MarkSet;
pub use object::{object_bytes, ObjId, ObjKind, Object, HEADER_BYTES, REF_BYTES};
pub use offheap::{OffHeapBlock, OffHeapRegion, OffHeapStats};
pub use payload::{Key, Payload};
pub use region::{RegionBlock, RegionClass, RegionHeap, RegionStats};
pub use roots::RootSet;
pub use space::{OldSpaceId, Space, SpaceId};
pub use tag::MemTag;
pub use verify::{Invariant, VerifyError, VerifyPoint};
pub use wire::{Records, WireBatch, WireRef};
