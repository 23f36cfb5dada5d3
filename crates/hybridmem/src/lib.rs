#![deny(missing_docs)]

//! Hybrid DRAM/NVM memory substrate for the Panthera reproduction.
//!
//! This crate simulates the memory hardware the paper evaluates on
//! (Section 5.1, Table 2): a hybrid system where fast, expensive DRAM
//! coexists with slow, capacious, energy-cheap non-volatile memory.
//! Everything above it — the managed heap, the garbage collectors, the Spark
//! engine — charges its memory traffic here, and the experiment harnesses
//! read back time, energy, and bandwidth reports.
//!
//! # Quick tour
//!
//! ```
//! use hybridmem::{
//!     AccessKind, AccessProfile, DeviceKind, MemorySystem, MemorySystemConfig,
//! };
//!
//! // A machine with 32 GB DRAM + 88 GB NVM (Figure 2c's hybrid setup).
//! let mut mem = MemorySystem::new(MemorySystemConfig::with_capacities(
//!     32_000_000_000,
//!     88_000_000_000,
//! ));
//! let young = mem.layout_mut().add_fixed("young", 1 << 20, DeviceKind::Dram);
//! let old = mem.layout_mut().add_fixed("old-nvm", 1 << 24, DeviceKind::Nvm);
//!
//! // The mutator reads a cache line from the young generation...
//! mem.access(young, AccessKind::Read, 64, AccessProfile::mutator());
//! // ...and scans a megabyte of old-generation NVM.
//! mem.access(old, AccessKind::Read, 1 << 20, AccessProfile::parallel_gc());
//!
//! assert!(mem.clock().now_ns() > 0.0);
//! assert!(mem.energy().total_j() > 0.0);
//! ```

mod clock;
mod device;
mod energy;
mod layout;
mod stats;
mod system;
mod traffic;

pub use clock::{ns_of, ps_of, Phase, SimClock};
pub use device::{cache_lines, AccessKind, DeviceKind, DeviceSpec, CACHE_LINE_BYTES};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use layout::{Addr, PhysicalLayout, Region, RegionMapping};
pub use stats::MemoryStats;
pub use system::{AccessProfile, MemorySystem, MemorySystemConfig};
pub use traffic::{BandwidthSample, TrafficMeter, WindowTraffic};
