//! The Panthera runtime: the JVM-side half of the system (Section 4.2).
//!
//! Implements [`sparklet::MemoryRuntime`] for every memory mode. The
//! Panthera-specific machinery:
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

use crate::config::SystemConfig;
use gc::{GcConfig, GcCoordinator, MemoryMode};
use mheap::{Heap, MemTag, ObjId, ObjKind, Payload, RootSet};
use sparklang::ast::MemoryTag;
use sparklet::MemoryRuntime;

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
    /// Build the runtime for a system configuration.
    ///
    /// # Errors
    ///
    /// Returns an error string if the configuration is invalid.
    pub fn new(config: &SystemConfig) -> Result<Self, String> {
        let mut heap = Heap::new(config.heap_config(), config.mem_config())?;
        heap.set_observer(config.observer.clone());
        let gc = GcCoordinator::with_config(
            config.policy(),
            GcConfig {
                verify: config.verify_heap,
                ..GcConfig::default()
            },
        );
        Ok(PantheraRuntime {
            heap,
            gc,
            wait_state: None,
            large_array_elems: config.large_array_elems,
        })
    }

    /// The mode this runtime runs in.
    pub fn mode(&self) -> MemoryMode {
        self.gc.policy().mode
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

    /// Whether the wait state is currently armed (test hook).
    pub fn wait_state_armed(&self) -> bool {
        self.wait_state.is_some()
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

impl MemoryRuntime for PantheraRuntime {
    fn heap(&self) -> &Heap {
        &self.heap
    }

    fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    fn alloc_record(&mut self, roots: &RootSet, payload: Payload, model_bytes: u64) -> ObjId {
        self.gc
            .alloc_record(&mut self.heap, roots, payload, model_bytes)
    }

    fn alloc_dead(&mut self, roots: &RootSet, model_bytes: u64) {
        self.gc.alloc_dead(&mut self.heap, roots, model_bytes);
    }

    fn alloc_rdd_array(
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
        let armed = match self.wait_state {
            Some((armed_rdd, bits)) if armed_rdd == rdd_id && slots >= self.large_array_elems => {
                self.wait_state = None;
                Some(bits)
            }
            _ => None,
        };
        match armed {
            Some(bits) => self
                .gc
                .alloc_rdd_array(&mut self.heap, roots, rdd_id, slots, bits),
            None => {
                // No wait-state match: the array takes the ordinary path
                // (young generation, or the policy's default old space if
                // humongous). Non-semantic modes always land here.
                self.gc
                    .alloc_rdd_array(&mut self.heap, roots, rdd_id, slots, MemTag::None)
            }
        }
    }

    fn alloc_rdd_top(
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
        self.gc.alloc_young(
            &mut self.heap,
            roots,
            ObjKind::RddTop { rdd_id },
            bits,
            vec![array],
            Payload::Unit,
        )
    }

    fn record_rdd_call(&mut self, rdd_id: u32) {
        if self.mode().is_semantic() {
            self.gc.record_rdd_call(&mut self.heap, rdd_id);
        }
    }

    fn lineage_propagation(&self) -> bool {
        self.mode().is_semantic()
    }

    fn stage_boundary(&mut self, roots: &RootSet) {
        self.gc.maybe_major(&mut self.heap, roots);
    }

    fn force_major(&mut self, roots: &RootSet) {
        self.gc.major_gc(&mut self.heap, roots);
    }

    fn monitored_calls(&self) -> u64 {
        self.gc.freq().total_monitored()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SIM_GB;
    use mheap::SpaceId;

    fn runtime(mode: MemoryMode) -> PantheraRuntime {
        let mut cfg = SystemConfig::new(mode, 2 * SIM_GB, 1.0 / 3.0);
        cfg.large_array_elems = 8;
        PantheraRuntime::new(&cfg).unwrap()
    }

    #[test]
    fn wait_state_matches_large_arrays_only() {
        let mut rt = runtime(MemoryMode::Panthera);
        let roots = RootSet::new();
        // Large array with a tag: goes to NVM old space.
        let big = rt.alloc_rdd_array(&roots, 1, 64, Some(MemoryTag::Nvm));
        let nvm = rt.heap().old_nvm().unwrap();
        assert_eq!(rt.heap().obj(big).space, SpaceId::Old(nvm));
        assert!(!rt.wait_state_armed(), "wait state consumed");

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
        assert_eq!(rt.heap().obj(arr).space, SpaceId::Old(mheap::OldSpaceId(0)));
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
