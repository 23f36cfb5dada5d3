#![deny(missing_docs)]

//! A miniature Spark: RDDs, lineage, stages, and shuffles, executed over
//! the simulated managed heap.
//!
//! The [`Engine`] interprets [`sparklang`] driver programs, building a
//! runtime RDD graph (one node per RDD *instance*, so loop iterations
//! produce the instance churn Panthera's analysis reasons about) and
//! evaluating actions and persists the way the paper describes Spark doing
//! it: lazy narrow chains streaming records through the young generation,
//! wide transformations shuffling through simulated disk files, and
//! `ShuffledRDD`s materialized at stage starts and collected when the
//! consuming evaluation completes.
//!
//! The engine drives one memory manager, the [`PantheraRuntime`]: every
//! memory mode of the evaluation, baselines included, is a [`gc::Policy`]
//! setting of it.

mod cluster;
mod costs;
mod cursor;
mod data;
mod engine;
mod rdd;
mod records;
mod runtime;
mod shuffle;

pub use cluster::{
    ActionContrib, BeginOutcome, CheckpointEntry, ClusterCtx, ClusterError, Deposit, Exchange,
    ExecFaults, GatherKind, JournalOp, NvmCheckpointStore, Owner, PartMeta, RecoveryCounters,
    RecoveryStats, ShuffleContrib, ShuffleGather, WireParts,
};
pub use costs::{CostModel, ShuffleTransport};
pub use cursor::StageCursor;
pub use data::{DataRegistry, SharedInput};
pub use engine::{partition_sizes, ActionResult, Engine, EngineConfig, ExecStats, RunOutcome};
pub use hybridmem::{ns_of, ps_of};
pub use rdd::{MatData, RddId, RddNode, RddOp};
pub use records::Records;
pub use runtime::{to_mem_tag, PantheraRuntime};
pub use shuffle::{
    reduce_owned, reduce_side, Buckets, KeyIndex, KeylessRecord, MapPart, MapRecord, MapSide,
    ReduceFold,
};
