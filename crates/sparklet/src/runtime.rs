//! The Panthera runtime: the JVM-side half of the system (Section 4.2),
//! and the one runtime the engine drives in every memory mode — the
//! baselines are [`gc::Policy`] settings of it, not separate runtimes.
//!
//! The engine calls its hooks for every allocation and materialization;
//! the runtime decides placement, performs collections, and charges
//! costs. This mirrors the paper's structure: the Spark side is
//! instrumented to *pass tags down*, and the JVM side decides what to do
//! with them. The Panthera-specific machinery:
//!
//! * **`rdd_alloc` wait state** (Section 4.2.1) — an instrumented call
//!   right before each materialization point sets a thread-local state
//!   with the RDD's tag; the *next allocation of an array longer than a
//!   threshold* is recognized as the RDD's backbone array and placed
//!   directly into the tagged space. Shorter arrays miss the wait state
//!   and take the ordinary young-generation path.
//! * **monitoring** — instrumented RDD method calls feed the GC's
//!   access-frequency table for major-GC re-assessment.
//! * **lineage propagation** — the engine's stage-start backward tag scan
//!   is enabled only under Panthera.

use gc::{GcCoordinator, MemoryMode};
use mheap::{Heap, MemTag, ObjId, ObjKind, RootSet};
use sparklang::ast::MemoryTag;

/// Convert an analysis tag into header `MEMORY_BITS`.
pub fn to_mem_tag(tag: Option<MemoryTag>) -> MemTag {
    match tag {
        Some(MemoryTag::Dram) => MemTag::Dram,
        Some(MemoryTag::Nvm) => MemTag::Nvm,
        None => MemTag::None,
    }
}

/// The runtime backing one simulated JVM.
#[derive(Debug)]
pub struct PantheraRuntime {
    heap: Heap,
    gc: GcCoordinator,
    /// The `rdd_alloc` wait state: `(rdd_id, tag)` armed by the
    /// instrumented call, consumed by the next large-array allocation.
    wait_state: Option<(u32, MemTag)>,
    large_array_elems: usize,
}

impl PantheraRuntime {
    /// A runtime over a built heap and collector. Arrays with at least
    /// `large_array_elems` elements meet the `rdd_alloc` wait state.
    pub fn new(heap: Heap, gc: GcCoordinator, large_array_elems: usize) -> Self {
        PantheraRuntime {
            heap,
            gc,
            wait_state: None,
            large_array_elems,
        }
    }

    /// The mode this runtime runs in.
    pub fn mode(&self) -> MemoryMode {
        self.gc.policy().mode
    }

    /// The heap (for reads, barrier writes, and reports).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable heap access.
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// The collector (stats, frequency table).
    pub fn gc(&self) -> &GcCoordinator {
        &self.gc
    }

    /// Mutable collector access (for tests and the public APIs).
    pub fn gc_mut(&mut self) -> &mut GcCoordinator {
        &mut self.gc
    }

    /// The instrumented native call `rdd_alloc(rdd, tag)`: arms the wait
    /// state and returns the bits that will be set on the RDD top object.
    pub fn rdd_alloc(&mut self, rdd_id: u32, tag: Option<MemoryTag>) -> MemTag {
        let bits = to_mem_tag(tag);
        if self.mode().is_semantic() && bits.is_tagged() {
            self.wait_state = Some((rdd_id, bits));
        }
        bits
    }

    /// Allocate a data tuple whose record models `model_bytes` in the
    /// young generation, collecting if needed. The heap keeps the size;
    /// the caller keeps the record.
    pub fn alloc_record(&mut self, roots: &RootSet, model_bytes: u64) -> ObjId {
        self.gc.alloc_record(&mut self.heap, roots, model_bytes)
    }

    /// The instrumented `rdd_alloc(rdd, tag)` + backbone-array allocation:
    /// called at a materialization point with the RDD's tag; the runtime
    /// enters its wait state and places the array per its policy
    /// (Section 4.2.1). Returns the array object.
    pub fn alloc_rdd_array(
        &mut self,
        roots: &RootSet,
        rdd_id: u32,
        slots: usize,
        tag: Option<MemoryTag>,
    ) -> ObjId {
        // The instrumented rdd_alloc call right before the materialization
        // point...
        self.rdd_alloc(rdd_id, tag);
        // ...and the array allocation that may match the wait state.
        let bits = match self.wait_state {
            Some((armed_rdd, bits)) if armed_rdd == rdd_id && slots >= self.large_array_elems => {
                self.wait_state = None;
                bits
            }
            // No wait-state match: the array takes the ordinary path
            // (young generation, or the policy's default old space if
            // humongous). Non-semantic modes always land here.
            _ => MemTag::None,
        };
        self.gc
            .alloc_rdd_array(&mut self.heap, roots, rdd_id, slots, bits)
    }

    /// Allocate the RDD top object (young generation; its `MEMORY_BITS`
    /// are set from the tag so the root-task recognizes it).
    pub fn alloc_rdd_top(
        &mut self,
        roots: &RootSet,
        rdd_id: u32,
        array: ObjId,
        tag: Option<MemoryTag>,
    ) -> ObjId {
        // rdd_alloc sets the top object's MEMORY_BITS regardless of where
        // it currently lives; the root-task will move it (Section 4.2.2).
        let bits = if self.mode().is_semantic() {
            to_mem_tag(tag)
        } else {
            MemTag::None
        };
        self.gc.alloc_young_sized(
            &mut self.heap,
            roots,
            ObjKind::RddTop { rdd_id },
            bits,
            vec![array],
            0,
        )
    }

    /// A monitored method call on an RDD object (dynamic re-assessment
    /// input, Section 4.2.2). Modes without monitoring ignore it.
    pub fn record_rdd_call(&mut self, rdd_id: u32) {
        if self.mode().is_semantic() {
            self.gc.record_rdd_call(&mut self.heap, rdd_id);
        }
    }

    /// Whether the engine should run Panthera's stage-start lineage tag
    /// back-propagation (Section 3, "Dealing with ShuffledRDD").
    pub fn lineage_propagation(&self) -> bool {
        self.mode().is_semantic()
    }

    /// A stage boundary was crossed; the runtime may collect.
    pub fn stage_boundary(&mut self, roots: &RootSet) {
        self.gc.maybe_major(&mut self.heap, roots);
    }

    /// The engine evicted cached data under memory pressure and needs the
    /// space back now: run a full collection.
    pub fn force_major(&mut self, roots: &RootSet) {
        self.gc.major_gc(&mut self.heap, roots);
    }

    /// Total monitored calls (Table 5); zero for modes that don't
    /// monitor.
    pub fn monitored_calls(&self) -> u64 {
        self.gc.freq().total_monitored()
    }

    // ------------------------------------------------------------------
    // The two public APIs of Section 4.3
    // ------------------------------------------------------------------

    /// API 1 — *pretenure a data structure with a tag*: place `slots`
    /// array elements for `rdd_id` directly into the space named by `tag`.
    /// The tag can come from developer annotations or from a system-
    /// specific static analysis (the paper's Hadoop HashJoin example).
    pub fn api_pretenure(
        &mut self,
        roots: &RootSet,
        rdd_id: u32,
        slots: usize,
        tag: MemTag,
    ) -> ObjId {
        self.gc
            .alloc_rdd_array(&mut self.heap, roots, rdd_id, slots, tag)
    }

    /// API 2 — *monitor a data structure*: track the number of calls made
    /// on it so the major GC can migrate it between DRAM and NVM when its
    /// access pattern is not statically predictable.
    pub fn api_monitor(&mut self, rdd_id: u32) {
        self.gc.record_rdd_call(&mut self.heap, rdd_id);
    }

    /// Run one minor collection now (e.g. to settle long-lived structures
    /// into the old generation in API-driven workloads).
    pub fn minor_gc(&mut self, roots: &RootSet) {
        self.gc.minor_gc(&mut self.heap, roots);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem::MemorySystemConfig;
    use mheap::{HeapConfig, OldSpaceId, SpaceId};

    /// A runtime in `mode` over a 2 MB heap, one third DRAM, with a
    /// wait-state threshold of 8 elements.
    fn runtime(mode: MemoryMode) -> PantheraRuntime {
        let mut cfg = HeapConfig::panthera(2_000_000, 1.0 / 3.0);
        cfg.old_layout = mode.old_layout(1 << 20);
        let mem = MemorySystemConfig::with_capacities(666_666, 1_333_334);
        let heap = Heap::new(cfg, mem).unwrap();
        PantheraRuntime::new(heap, GcCoordinator::new(mode.into()), 8)
    }

    #[test]
    fn wait_state_matches_large_arrays_only() {
        let mut rt = runtime(MemoryMode::Panthera);
        let roots = RootSet::new();
        // Large array with a tag: goes to NVM old space.
        let big = rt.alloc_rdd_array(&roots, 1, 64, Some(MemoryTag::Nvm));
        let nvm = rt.heap().old_nvm().unwrap();
        assert_eq!(rt.heap().obj(big).space, SpaceId::Old(nvm));
        assert!(rt.wait_state.is_none(), "wait state consumed");

        // Small array: misses the threshold, stays young despite the tag.
        let small = rt.alloc_rdd_array(&roots, 2, 4, Some(MemoryTag::Nvm));
        assert!(rt.heap().obj(small).space.is_young());
    }

    #[test]
    fn baselines_ignore_tags() {
        let mut rt = runtime(MemoryMode::Unmanaged);
        let roots = RootSet::new();
        let arr = rt.alloc_rdd_array(&roots, 1, 64, Some(MemoryTag::Dram));
        // Unified old space 0, regardless of the DRAM tag.
        assert_eq!(rt.heap().obj(arr).space, SpaceId::Old(OldSpaceId(0)));
        assert_eq!(rt.heap().obj(arr).tag, MemTag::None);
        assert!(!rt.lineage_propagation());
        rt.record_rdd_call(1);
        assert_eq!(rt.monitored_calls(), 0, "no monitoring outside Panthera");
    }

    #[test]
    fn panthera_monitors_calls() {
        let mut rt = runtime(MemoryMode::Panthera);
        rt.record_rdd_call(3);
        rt.record_rdd_call(3);
        assert_eq!(rt.monitored_calls(), 2);
    }

    #[test]
    fn top_objects_carry_memory_bits() {
        let mut rt = runtime(MemoryMode::Panthera);
        let roots = RootSet::new();
        let arr = rt.alloc_rdd_array(&roots, 1, 64, Some(MemoryTag::Dram));
        let top = rt.alloc_rdd_top(&roots, 1, arr, Some(MemoryTag::Dram));
        assert_eq!(rt.heap().obj(top).tag, MemTag::Dram);
        assert!(rt.heap().obj(top).space.is_young(), "tops start young");
        assert_eq!(rt.heap().obj(top).refs, vec![arr]);
    }

    #[test]
    fn public_apis_work() {
        let mut rt = runtime(MemoryMode::Panthera);
        let roots = RootSet::new();
        let arr = rt.api_pretenure(&roots, 9, 32, MemTag::Dram);
        let dram = rt.heap().old_dram().unwrap();
        assert_eq!(rt.heap().obj(arr).space, SpaceId::Old(dram));
        rt.api_monitor(9);
        assert_eq!(rt.gc().freq().calls(9), 1);
    }
}
