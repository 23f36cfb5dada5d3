//! Structured event tracing and metrics aggregation for the Panthera
//! simulator.
//!
//! The runtime crates (`mheap`, `gc`, `hybridmem`, `sparklet`) emit
//! [`Event`]s through a shared [`Observer`] handle installed via
//! `SystemConfig::observer`. The default handle is disabled and every
//! emit is a single branch, so tracing costs nothing when unused.
//!
//! **Observe, never charge.** Emit points read the simulated clock but
//! never advance it, never touch the memory system, and never change
//! control flow: a run with sinks attached produces a bit-identical
//! `RunReport` to the same run without them. This is a tier-1
//! guarantee, enforced by `tests/observability.rs`.
//!
//! Three sinks are built in:
//! - [`RingBufferSink`] — bounded in-memory capture, for tests;
//! - [`JsonlSink`] — one JSON object per line, replayable with
//!   [`replay`] / [`replay_path`];
//! - [`MetricsAggregator`] — derives pause distributions, per-stage
//!   NVM-write ratios, migration churn and recovery totals, and renders
//!   them as JSON or a summary table.
//!
//! **Each record schema is stated once.** Every [`Event`] is one entry of
//! the table in [`event`] (docs, wire label, typed fields); its enum
//! variant, label, JSON writer and JSON parser are generated from that
//! entry. Every report counter block (`GcStats`, `HeapStats`,
//! `ExecStats`, `RecoveryStats`) is one [`counters!`] declaration that
//! generates the struct, its JSON and its field-wise merge, and so is
//! every all-sum section of the aggregator's JSON. Adding an event or a
//! counter is therefore one edit, and it is serialized, parsed and
//! aggregated by construction. [`PauseStats`] is the one pause
//! distribution type, shared by run reports and the aggregator;
//! [`nearest_rank`] is the one nearest-rank quantile of a raw sample.
//!
//! ```
//! use obs::{Event, EventSink, MetricsAggregator, Observer, RingBufferSink};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let ring = Rc::new(RefCell::new(RingBufferSink::new(1024)));
//! let observer = Observer::with_sink(ring.clone());
//! // ... install `observer` in a SystemConfig and run; here, emit directly:
//! observer.emit(42.0, &Event::MinorGcStart);
//! assert_eq!(ring.borrow().total_seen(), 1);
//!
//! let mut metrics = MetricsAggregator::new();
//! for (t, e) in ring.borrow().events() {
//!     metrics.on_event(*t, e);
//! }
//! assert_eq!(metrics.events_seen(), 1);
//! ```

#![deny(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod stats;

pub use event::{AllocSpace, Event, JournalKind, Mem};
pub use json::Json;
pub use metrics::MetricsAggregator;
pub use sink::{replay, replay_path, EventSink, JsonlSink, Observer, RingBufferSink};
pub use stats::{nearest_rank, PauseStats};
