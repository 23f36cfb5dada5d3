#![deny(missing_docs)]

//! # Panthera
//!
//! A full reproduction of **“Panthera: Holistic Memory Management for Big
//! Data Processing over Hybrid Memories”** (Wang et al., PLDI 2019) as a
//! deterministic simulation in pure Rust.
//!
//! Panthera manages a Spark-like system's memory across hybrid DRAM + NVM:
//! a static analysis infers, per persisted RDD, whether it is hot (DRAM)
//! or cold (NVM); a modified generational GC pretenures RDD backbone
//! arrays into a split old generation, propagates the tags to the rest of
//! each RDD's objects during tracing, and migrates mis-placed RDDs at
//! major collections using runtime access frequencies.
//!
//! This crate ties the substrates together:
//!
//! * [`hybridmem`] — the DRAM/NVM device, time, energy, and traffic models;
//! * [`mheap`] — the simulated managed heap (generations, cards, barriers);
//! * [`gc`] — the policy-parameterized collectors and the five
//!   [`MemoryMode`]s of the evaluation (re-exported here);
//! * [`sparklang`] / [`panthera_analysis`] — the driver-program IR and the
//!   Section 3 tag inference;
//! * [`sparklet`] — the RDD execution engine;
//!
//! and contributes the [`SystemConfig`] that builds each run's
//! [`PantheraRuntime`] (defined in [`sparklet`], re-exported here), the
//! [`cluster`] driver (DESIGN.md §8-9), and the [`RunBuilder`] entry
//! point that produces a [`RunReport`] for every figure in the paper.
//!
//! ```
//! use panthera::{MemoryMode, RunBuilder, SystemConfig, SIM_GB};
//! use sparklang::{ActionKind, ProgramBuilder, StorageLevel};
//! use sparklet::DataRegistry;
//! use mheap::Payload;
//!
//! // A small cached-dataset workload.
//! let mut b = ProgramBuilder::new("demo");
//! let src = b.source("nums");
//! let xs = b.bind("xs", src.distinct());
//! b.persist(xs, StorageLevel::MemoryOnly);
//! b.loop_n(4, |b| b.action(xs, ActionKind::Count));
//! let (program, fns) = b.finish();
//!
//! let mut data = DataRegistry::new();
//! data.register("nums", (0..256).map(Payload::Long).collect());
//!
//! let config = SystemConfig::new(MemoryMode::Panthera, 2 * SIM_GB, 1.0 / 3.0);
//! let run = RunBuilder::new(&program, fns, data)
//!     .config(config)
//!     .run()
//!     .expect("valid configuration");
//! assert_eq!(run.results.len(), 4);
//! assert!(run.report.elapsed_s > 0.0);
//! ```

pub mod cluster;
mod config;
mod error;
mod report;
mod runbuilder;
mod simulate;

pub use cluster::FaultPlan;
pub use config::{ConfigError, RecoveryPolicy, SystemConfig, SIM_GB, STATIC_POWER_TIMEBASE_SCALE};
pub use error::RunError;
pub use gc::MemoryMode;
pub use report::RunReport;
pub use runbuilder::{RunBuilder, RunParts, RunSource, RunSummary};
pub use simulate::{start, start_with_plan, static_plan};
pub use sparklet::{
    to_mem_tag, CostModel, PantheraRuntime, RecoveryStats, ShuffleTransport, StageCursor,
};

// Re-export the observability crate so downstream users attach sinks
// without naming `obs` as a direct dependency.
pub use obs;

/// One-stop imports for driving a simulation end to end.
///
/// ```
/// use panthera::prelude::*;
///
/// let mut b = ProgramBuilder::new("p");
/// let src = b.source("xs");
/// let ys = b.bind("ys", src.distinct());
/// b.persist(ys, StorageLevel::MemoryOnly);
/// b.action(ys, ActionKind::Count);
/// let (program, fns) = b.finish();
///
/// let mut data = DataRegistry::new();
/// data.register("xs", (0..128).map(Payload::Long).collect());
///
/// let run = RunBuilder::new(&program, fns, data)
///     .config(SystemConfig::new(MemoryMode::Panthera, 2 * SIM_GB, 1.0 / 3.0))
///     .run()
///     .expect("valid configuration");
/// assert!(run.report.elapsed_s > 0.0);
/// ```
pub mod prelude {
    pub use crate::{
        ConfigError, MemoryMode, RunBuilder, RunError, RunReport, RunSummary, SystemConfig, SIM_GB,
    };
    pub use mheap::Payload;
    pub use sparklang::{ActionKind, ProgramBuilder, StorageLevel};
    pub use sparklet::{DataRegistry, RunOutcome};
}
