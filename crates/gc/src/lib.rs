#![deny(missing_docs)]

//! Garbage collectors for the Panthera reproduction.
//!
//! One generational collector implementation, parameterized by a
//! [`Policy`] value, reproduces the paper's collector and all of its
//! baselines. A policy is a [`MemoryMode`] plus Panthera's two ablation
//! toggles:
//!
//! | Mode | Old-gen layout | Models |
//! |------|----------------|--------|
//! | [`MemoryMode::DramOnly`] | one DRAM space | the DRAM-only baseline |
//! | [`MemoryMode::Unmanaged`] | chunk-interleaved | the *unmanaged* baseline (Section 5.2) |
//! | [`MemoryMode::KingsguardNursery`] | one NVM space | Kingsguard-Nursery |
//! | [`MemoryMode::KingsguardWrites`] | split DRAM + NVM | Kingsguard-Writes |
//! | [`MemoryMode::Panthera`] | split DRAM + NVM | the paper's contribution (Section 4) |
//!
//! The minor collection is a scavenge with split DRAM-to-young /
//! NVM-to-young card-scan tasks, `MEMORY_BITS` tag propagation, and eager
//! promotion; the major collection is a mark-compact that respects the
//! DRAM/NVM boundary and performs frequency-driven dynamic migration.
//!
//! ```
//! use gc::{GcCoordinator, MemoryMode};
//! use mheap::{Heap, HeapConfig, MemTag, ObjKind, Payload, RootSet};
//! use hybridmem::MemorySystemConfig;
//!
//! let mut heap = Heap::new(
//!     HeapConfig::panthera(600_000, 1.0 / 3.0),
//!     MemorySystemConfig::with_capacities(200_000, 400_000),
//! ).unwrap();
//! let mut gc = GcCoordinator::new(MemoryMode::Panthera.into());
//! let mut roots = RootSet::new();
//!
//! let obj = gc.alloc_young(
//!     &mut heap, &roots, ObjKind::Tuple, MemTag::Dram, vec![], Payload::Long(1),
//! );
//! roots.push(obj);
//! gc.minor_gc(&mut heap, &roots);
//! // Eager promotion moved the tagged object straight to old-gen DRAM.
//! assert_eq!(heap.obj(obj).space, mheap::SpaceId::Old(heap.old_dram().unwrap()));
//! ```

mod coordinator;
mod freq;
mod major;
mod minor;
mod policy;
mod stats;

pub use coordinator::{verify_env_enabled, GcCoordinator};
pub use freq::AccessFreqTable;
pub use minor::card_population;
pub use policy::{MemoryMode, Policy};
pub use stats::GcStats;
