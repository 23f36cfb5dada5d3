//! panthera-stream: deterministic micro-batch streaming over the
//! Panthera runtime, with the migration-policy loop closed online.
//!
//! The paper's static analysis guesses each RDD's placement once, before
//! the program runs. A streaming job breaks that premise: the hot set
//! *drifts*, so any fixed placement is wrong for part of the stream. This
//! crate runs seeded micro-batch pipelines — tumbling/sliding windowed
//! aggregations, stream-static joins, cross-batch `reduceByKey` state —
//! and feeds the observability layer's per-RDD access frequencies back
//! into the collector's migration machinery between batches:
//!
//! * [`StreamSpec`] describes a seeded stream (sources, drift, window);
//! * [`StreamBuilder`] drives it batch by batch over
//!   [`panthera::StageCursor`], emitting `BatchStart` / `BatchEnd` /
//!   `Watermark` / `Retag` events;
//! * [`RetagPolicy`] picks who controls placement: the static prior, an
//!   online policy with hysteresis, or a two-pass oracle (the regret
//!   lower bound);
//! * [`StreamReport`] / [`StreamComparison`] carry per-batch latency
//!   quantiles, window-output digests, and regret.
//!
//! Three invariants, all pinned by tests: a fixed spec seed makes the
//! report **bit-identical** across host-thread budgets and crash/replay
//! runs; watermarks are virtual-time barriers (batch `b`'s watermark is
//! emitted exactly at its boundary, before any batch `b+1` work); and
//! policies move bytes, never answers — window outputs are byte-identical
//! under all three policies.

#![deny(missing_docs)]

mod driver;
mod program;
mod report;
mod spec;

pub use driver::{RetagPolicy, StreamBuilder};
pub use program::{build_stream_program, StreamProgram};
pub use report::{digest_result, StreamComparison, StreamReport};
pub use spec::{StreamSpec, WindowSpec};
