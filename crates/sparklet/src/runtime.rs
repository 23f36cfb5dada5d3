//! The [`MemoryRuntime`] trait: the seam between the Spark-like engine and
//! the memory manager underneath it.
//!
//! The engine calls these hooks for every allocation and materialization;
//! a runtime implementation (the Panthera runtime in the `panthera` crate,
//! or the baselines) decides placement, performs collections, and charges
//! costs. This mirrors the paper's structure: the Spark side is
//! instrumented to *pass tags down*, and the JVM side decides what to do
//! with them.

use mheap::{Heap, ObjId, Payload, RootSet};
use sparklang::ast::MemoryTag;

/// Memory-management hooks the engine drives.
pub trait MemoryRuntime {
    /// The heap (for reads, barrier writes, and reports).
    fn heap(&self) -> &Heap;

    /// Mutable heap access.
    fn heap_mut(&mut self) -> &mut Heap;

    /// Allocate a data tuple holding `payload` in the young generation,
    /// collecting if needed. `model_bytes` is `payload.model_bytes()`,
    /// which the caller already has.
    fn alloc_record(&mut self, roots: &RootSet, payload: Payload, model_bytes: u64) -> ObjId;

    /// Allocate a young data tuple of `model_bytes` that nothing will ever
    /// reference (a streamed record), collecting if needed. It costs what
    /// [`alloc_record`](Self::alloc_record) costs; no payload is kept.
    fn alloc_dead(&mut self, roots: &RootSet, model_bytes: u64);

    /// The instrumented `rdd_alloc(rdd, tag)` + backbone-array allocation:
    /// called at a materialization point with the RDD's tag; the runtime
    /// enters its wait state and places the array per its policy
    /// (Section 4.2.1). Returns the array object.
    fn alloc_rdd_array(
        &mut self,
        roots: &RootSet,
        rdd_id: u32,
        slots: usize,
        tag: Option<MemoryTag>,
    ) -> ObjId;

    /// Allocate the RDD top object (young generation; its `MEMORY_BITS`
    /// are set from the tag so the root-task recognizes it).
    fn alloc_rdd_top(
        &mut self,
        roots: &RootSet,
        rdd_id: u32,
        array: ObjId,
        tag: Option<MemoryTag>,
    ) -> ObjId;

    /// A monitored method call on an RDD object (dynamic re-assessment
    /// input, Section 4.2.2). Runtimes without monitoring ignore it.
    fn record_rdd_call(&mut self, rdd_id: u32);

    /// Whether the engine should run Panthera's stage-start lineage tag
    /// back-propagation (Section 3, "Dealing with ShuffledRDD").
    fn lineage_propagation(&self) -> bool;

    /// A stage boundary was crossed; the runtime may collect.
    fn stage_boundary(&mut self, roots: &RootSet);

    /// The engine evicted cached data under memory pressure and needs the
    /// space back now: run a full collection.
    fn force_major(&mut self, roots: &RootSet) {
        let _ = roots;
    }

    /// Total monitored calls (Table 5); zero for runtimes that don't
    /// monitor.
    fn monitored_calls(&self) -> u64 {
        0
    }
}
