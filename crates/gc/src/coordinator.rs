//! The collection coordinator: triggers, allocation entry points, and the
//! shared state of the minor and major collectors.

use crate::freq::AccessFreqTable;
use crate::policy::Policy;
use crate::stats::GcStats;
use mheap::{
    Heap, MemTag, ObjId, ObjKind, OldSpaceId, Payload, Rejected, RootSet, VerifyError, VerifyPoint,
};
use obs::PauseStats;
use std::collections::HashMap;

/// CPU cost per object processed during tracing (queue and mark
/// bookkeeping), charged on top of the memory traffic.
pub(crate) const TRACE_CPU_NS_PER_OBJ: f64 = 12.0;
/// CPU cost of the instrumented JNI call that bumps an RDD's frequency
/// counter (Section 5.5 reports the total monitoring overhead is < 1%).
const MONITOR_CALL_NS: f64 = 400.0;
/// Fixed safepoint + task-setup cost of a minor collection.
pub(crate) const MINOR_BASE_NS: f64 = 20_000.0;
/// Fixed safepoint + task-setup cost of a major collection.
pub(crate) const MAJOR_BASE_NS: f64 = 100_000.0;
/// Run a major collection when old-generation occupancy exceeds this
/// fraction.
const MAJOR_OCCUPANCY_TRIGGER: f64 = 0.88;
/// An RDD with at least this many calls since the last major GC is hot
/// and belongs in DRAM.
pub(crate) const HOT_CALL_THRESHOLD: u64 = 4;
/// An RDD with fewer than this many calls is cold and belongs in NVM.
pub(crate) const COLD_CALL_THRESHOLD: u64 = 1;
/// Kingsguard-Writes: migrate old objects with at least this many
/// observed writes to the DRAM space.
pub(crate) const KW_WRITE_THRESHOLD: u64 = 4;
/// Objects at least this large count as "large arrays" for the
/// shared-card pathology.
pub(crate) const LARGE_ARRAY_BYTES: u64 = 2 * mheap::CARD_BYTES;

/// True when the `PANTHERA_VERIFY` environment variable force-enables
/// heap verification (set and not `"0"`).
pub fn verify_env_enabled() -> bool {
    std::env::var("PANTHERA_VERIFY").is_ok_and(|v| v != "0")
}

/// Orchestrates collections over a [`Heap`] according to a [`Policy`].
#[derive(Debug)]
pub struct GcCoordinator {
    pub(crate) policy: Policy,
    /// Verify every heap invariant at collection entry and exit
    /// (HotSpot's `VerifyBeforeGC`/`VerifyAfterGC`); a violation panics
    /// after emitting [`obs::Event::VerifyFailure`].
    pub(crate) verify: bool,
    pub(crate) freq: AccessFreqTable,
    pub(crate) stats: GcStats,
    pub(crate) minor_pauses: PauseStats,
    pub(crate) major_pauses: PauseStats,
    /// Per-RDD placement overrides from an online re-tagging policy.
    /// Unlike the frequency table, overrides persist across collections —
    /// they stand until the policy changes its mind.
    pub(crate) tag_overrides: HashMap<u32, MemTag>,
}

impl GcCoordinator {
    /// A coordinator driving the given policy, verifying the heap around
    /// every collection when [`verify_env_enabled`] says so.
    pub fn new(policy: Policy) -> Self {
        Self::with_verify(policy, verify_env_enabled())
    }

    /// A coordinator driving the given policy, verifying the heap around
    /// every collection exactly when `verify` is set.
    pub fn with_verify(policy: Policy, verify: bool) -> Self {
        GcCoordinator {
            policy,
            verify,
            freq: AccessFreqTable::new(),
            stats: GcStats::default(),
            minor_pauses: PauseStats::default(),
            major_pauses: PauseStats::default(),
            tag_overrides: HashMap::new(),
        }
    }

    /// The active placement policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Collection statistics so far.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// The RDD access-frequency table.
    pub fn freq(&self) -> &AccessFreqTable {
        &self.freq
    }

    /// Individual minor-pause durations.
    pub fn minor_pauses(&self) -> &PauseStats {
        &self.minor_pauses
    }

    /// Individual major-pause durations.
    pub fn major_pauses(&self) -> &PauseStats {
        &self.major_pauses
    }

    /// Run a heap verification pass if verification is enabled.
    ///
    /// # Panics
    ///
    /// Panics on the first invariant violation, after emitting
    /// [`obs::Event::VerifyFailure`] so the trace captures it.
    pub(crate) fn run_verify(&self, heap: &Heap, roots: &RootSet, point: VerifyPoint) {
        if !self.verify {
            return;
        }
        if let Err(e) = heap.verify(roots, point) {
            Self::verify_fail(heap, e);
        }
    }

    /// Report a verification failure: trace event, then panic. Never
    /// returns.
    pub(crate) fn verify_fail(heap: &Heap, e: VerifyError) -> ! {
        let observer = heap.observer();
        if observer.enabled() {
            observer.emit(
                heap.mem().clock().now_ns(),
                &obs::Event::VerifyFailure {
                    point: e.point.label().to_string(),
                    invariant: e.invariant.label().to_string(),
                    detail: e.to_string(),
                },
            );
        }
        panic!("{e}");
    }

    /// Record a monitored method call on an RDD (instrumented call sites,
    /// Section 4.2.2), charging the JNI overhead.
    ///
    /// Also exports the observation as [`obs::Event::RddCall`] when an
    /// observer is attached (observe-never-charge — the emission itself
    /// costs nothing; the monitoring overhead charged here is the
    /// call's). An online policy that needs batch-boundary deltas reads
    /// [`AccessFreqTable::lifetime_calls`], which, unlike the per-RDD
    /// counts re-assessment uses, no major collection resets.
    pub fn record_rdd_call(&mut self, heap: &mut Heap, rdd_id: u32) {
        self.freq.record_call(rdd_id);
        let observer = heap.observer();
        if observer.enabled() {
            observer.emit(
                heap.mem().clock().now_ns(),
                &obs::Event::RddCall { rdd: rdd_id },
            );
        }
        heap.mem_mut().compute(MONITOR_CALL_NS);
    }

    /// Pin an RDD's placement to `tag`, overriding both the static tag
    /// and the hot/cold thresholds at the next dynamic re-assessment
    /// (online re-tagging; the override stands until cleared).
    ///
    /// Passing [`MemTag::None`] is equivalent to clearing the override.
    pub fn set_tag_override(&mut self, rdd_id: u32, tag: MemTag) {
        if tag.is_tagged() {
            self.tag_overrides.insert(rdd_id, tag);
        } else {
            self.tag_overrides.remove(&rdd_id);
        }
    }

    /// Allocate a young object, collecting as needed. Only `payload`'s
    /// modelled size is kept.
    ///
    /// Objects too large for eden even after a minor collection are
    /// pretenured into the policy's promotion space.
    ///
    /// # Panics
    ///
    /// Panics if the heap is exhausted even after a major collection.
    #[inline]
    pub fn alloc_young(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        kind: ObjKind,
        tag: MemTag,
        refs: Vec<ObjId>,
        payload: Payload,
    ) -> ObjId {
        self.alloc_young_sized(heap, roots, kind, tag, refs, payload.model_bytes())
    }

    /// [`alloc_young`](Self::alloc_young) of an untagged data tuple whose
    /// record models `model_bytes`.
    #[inline]
    pub fn alloc_record(&mut self, heap: &mut Heap, roots: &RootSet, model_bytes: u64) -> ObjId {
        self.alloc_young_sized(
            heap,
            roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            model_bytes,
        )
    }

    /// [`alloc_young`](Self::alloc_young) of an object whose record models
    /// `model_bytes`. The per-object fast path: eden has room, and `refs`
    /// is moved into the object.
    #[inline]
    pub fn alloc_young_sized(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        kind: ObjKind,
        tag: MemTag,
        refs: Vec<ObjId>,
        model_bytes: u64,
    ) -> ObjId {
        match heap.try_alloc_young(kind, tag, refs, model_bytes) {
            Ok(id) => id,
            Err(full) => self.collect_and_retry(heap, roots, kind, tag, full.refs, model_bytes),
        }
    }

    /// Eden is full: collect and retry with the `refs` the failed attempt
    /// handed back, pretenuring an object too large for eden.
    #[cold]
    fn collect_and_retry(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        kind: ObjKind,
        tag: MemTag,
        refs: Vec<ObjId>,
        model_bytes: u64,
    ) -> ObjId {
        self.minor_gc(heap, roots);
        self.maybe_major(heap, roots);
        match heap.try_alloc_young(kind, tag, refs, model_bytes) {
            Ok(id) => id,
            Err(Rejected { refs, .. }) => {
                // Humongous object: pretenure.
                let space = self.policy.promotion_space(heap, tag);
                self.alloc_old_with_fallback(heap, roots, space, kind, tag, refs, model_bytes)
            }
        }
    }

    /// Allocate a materialized RDD's backbone array per the policy
    /// (Table 1), collecting as needed.
    ///
    /// # Panics
    ///
    /// Panics if no space can hold the array even after a major collection.
    pub fn alloc_rdd_array(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        rdd_id: u32,
        slots: usize,
        tag: MemTag,
    ) -> ObjId {
        match self.policy.array_space(heap, tag) {
            Some(space) => {
                // A full preferred space (e.g. the small DRAM part) falls
                // back to the other old spaces — the paper's "once DRAM is
                // exhausted, the remaining RDDs are placed in NVM".
                for s in fallback_order(heap, space) {
                    if let Ok(id) = heap.alloc_array_old(s, rdd_id, slots, tag) {
                        if s != space {
                            self.stats.promotion_fallbacks += 1;
                        }
                        return id;
                    }
                }
                // Everything is full: reclaim and retry once.
                self.major_gc(heap, roots);
                for s in fallback_order(heap, space) {
                    if let Ok(id) = heap.alloc_array_old(s, rdd_id, slots, tag) {
                        return id;
                    }
                }
                panic!("out of memory: no old space can hold RDD {rdd_id}'s array");
            }
            None => {
                // Untagged arrays start in the young generation like any
                // other object.
                if let Ok(id) = heap.alloc_array_young(rdd_id, slots) {
                    return id;
                }
                self.minor_gc(heap, roots);
                self.maybe_major(heap, roots);
                if let Ok(id) = heap.alloc_array_young(rdd_id, slots) {
                    return id;
                }
                let space = self.policy.promotion_space(heap, MemTag::None);
                for s in fallback_order(heap, space) {
                    if let Ok(id) = heap.alloc_array_old(s, rdd_id, slots, MemTag::None) {
                        return id;
                    }
                }
                panic!("out of memory: no space can hold RDD {rdd_id}'s array");
            }
        }
    }

    /// Run a major collection if old-generation occupancy crossed the
    /// trigger — either overall or in the dominant (largest) old space,
    /// whose exhaustion is what actually blocks promotion.
    pub fn maybe_major(&mut self, heap: &mut Heap, roots: &RootSet) {
        let (used, cap): (u64, u64) = heap
            .old_space_ids()
            .map(|s| (heap.old(s).used(), heap.old(s).capacity()))
            .fold((0, 0), |(u, c), (u2, c2)| (u + u2, c + c2));
        let total_occ = if cap > 0 {
            used as f64 / cap as f64
        } else {
            0.0
        };
        let biggest_occ = heap
            .old_space_ids()
            .max_by_key(|s| heap.old(*s).capacity())
            .map(|s| heap.old(s).occupancy())
            .unwrap_or(0.0);
        if total_occ.max(biggest_occ) > MAJOR_OCCUPANCY_TRIGGER {
            self.major_gc(heap, roots);
        }
    }

    /// Promote one object, falling back to the other old spaces when the
    /// preferred one is full (the paper: when the DRAM space fills up,
    /// everything goes to NVM regardless of tags).
    pub(crate) fn promote(&mut self, heap: &mut Heap, id: ObjId, preferred: OldSpaceId) {
        for s in fallback_order(heap, preferred) {
            if heap.move_to_old(id, s).is_ok() {
                Self::note_promotion(heap, id);
                return;
            }
            if s == preferred {
                self.stats.promotion_fallbacks += 1;
            }
        }
        panic!("out of memory: promotion failed in every old space");
    }

    /// Emit an [`obs::Event::Promotion`] for a just-promoted object
    /// (observes only; the move itself already charged the traffic).
    fn note_promotion(heap: &Heap, id: ObjId) {
        let observer = heap.observer();
        if observer.enabled() {
            let o = heap.obj(id);
            observer.emit(
                heap.mem().clock().now_ns(),
                &obs::Event::Promotion {
                    bytes: o.size,
                    to: heap.device_of(o.addr).into(),
                },
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn alloc_old_with_fallback(
        &mut self,
        heap: &mut Heap,
        roots: &RootSet,
        space: OldSpaceId,
        kind: ObjKind,
        tag: MemTag,
        refs: Vec<ObjId>,
        model_bytes: u64,
    ) -> ObjId {
        let mut refs = match heap.try_alloc_old(space, kind, tag, refs, model_bytes) {
            Ok(id) => return id,
            Err(full) => full.refs,
        };
        self.major_gc(heap, roots);
        for s in fallback_order(heap, space) {
            refs = match heap.try_alloc_old(s, kind, tag, refs, model_bytes) {
                Ok(id) => return id,
                Err(full) => full.refs,
            };
        }
        panic!("out of memory: old allocation failed in every space");
    }
}

/// `preferred`, then every other old space by id: the order in which a
/// full preferred space falls back.
fn fallback_order(heap: &Heap, preferred: OldSpaceId) -> impl Iterator<Item = OldSpaceId> + use<> {
    std::iter::once(preferred).chain(heap.old_space_ids().filter(move |s| *s != preferred))
}
