//! The major (full-heap) collection: mark, dynamically re-assess RDD
//! placement, compact, sweep (paper Section 4.2.2, "Major GC").
//!
//! Compaction never crosses the DRAM/NVM boundary: each old space compacts
//! within itself. Before compacting, the collector re-assesses every RDD
//! array against its access frequency since the last major GC: hot arrays
//! in NVM migrate to the DRAM space, cold arrays in DRAM migrate to NVM,
//! and every object reachable from a migrating array moves with it (with
//! conflicts resolved DRAM-first by the `MEMORY_BITS` merge). Frequencies
//! reset at the end of the collection.

use crate::coordinator::{
    GcCoordinator, COLD_CALL_THRESHOLD, HOT_CALL_THRESHOLD, TRACE_CPU_NS_PER_OBJ,
};
use hybridmem::{ns_of, Phase};
use mheap::{Heap, Invariant, MarkSet, ObjId, OldSpaceId, RootSet, VerifyError, VerifyPoint};
use std::collections::{HashMap, VecDeque};

impl GcCoordinator {
    /// Run one major collection.
    pub fn major_gc(&mut self, heap: &mut Heap, roots: &RootSet) {
        let prev = heap.mem_mut().enter_phase(Phase::MajorGc);
        let pause_start = heap.mem().clock().now_ps();
        heap.observer()
            .emit(ns_of(pause_start), &obs::Event::MajorGcStart);
        self.run_verify(heap, roots, VerifyPoint::BeforeMajor);
        self.stats.major_count += 1;
        heap.mem_mut().compute(crate::coordinator::MAJOR_BASE_NS);

        let migrated_before = self.stats.rdds_migrated;
        let freed_before = self.stats.old_freed;

        // --- mark ---------------------------------------------------------
        let marked = self.mark(heap, roots);

        // Footprint conservation (verifier invariant d): the marked bytes
        // entering compaction+migration must equal the old-generation bytes
        // that come out — migration moves bytes, it never creates or
        // destroys them.
        let live_old_bytes_in: u64 = if self.verify {
            heap.old_space_ids()
                .flat_map(|s| heap.old(s).objects())
                .filter(|id| marked.contains(**id))
                .map(|id| heap.obj(*id).size)
                .sum()
        } else {
            0
        };

        // --- per-space live lists ------------------------------------------
        let mut live: HashMap<OldSpaceId, Vec<ObjId>> = HashMap::new();
        let mut dead: Vec<ObjId> = Vec::new();
        for space in heap.old_space_ids() {
            let mut l = Vec::new();
            for id in heap.old(space).objects() {
                if marked.contains(*id) {
                    l.push(*id);
                } else {
                    dead.push(*id);
                }
            }
            live.insert(space, l);
        }

        // --- dynamic re-assessment (Panthera) -------------------------------
        let mut migrate: HashMap<ObjId, OldSpaceId> = HashMap::new();
        if self.policy.dynamic_migration() {
            migrate = self.plan_migrations(heap, &live);
        }

        // --- compact each space (staying objects only) ----------------------
        let mut movers: Vec<(ObjId, OldSpaceId, OldSpaceId)> = Vec::new();
        for space in heap.old_space_ids() {
            let mut staying = Vec::new();
            for id in live.remove(&space).unwrap_or_default() {
                match migrate.get(&id) {
                    Some(dest) if *dest != space => movers.push((id, space, *dest)),
                    _ => staying.push(id),
                }
            }
            heap.compact_old(space, staying);
        }

        // --- apply migrations after compaction ------------------------------
        let mut migrated_arrays = 0u64;
        for (id, src, dest) in movers {
            let (is_array, rdd, bytes, from_dev) = {
                let o = heap.obj(id);
                (
                    o.kind.is_array(),
                    o.kind.rdd_id(),
                    o.size,
                    heap.device_of(o.addr),
                )
            };
            if heap.move_to_old(id, dest).is_ok() {
                if is_array {
                    migrated_arrays += 1;
                    let observer = heap.observer();
                    if observer.enabled() {
                        observer.emit(
                            heap.mem().clock().now_ns(),
                            &obs::Event::Migration {
                                rdd: rdd.unwrap_or(u32::MAX),
                                from: from_dev.into(),
                                to: heap.device_of(heap.obj(id).addr).into(),
                                bytes,
                            },
                        );
                    }
                }
            } else {
                // The destination is full. The object was excluded from its
                // source space's compaction staying-list, so dropping it
                // here would orphan it from every resident list — invisible
                // to the sweep and re-dirty walks while still holding a
                // slab slot. Re-append it to its (just-compacted) source
                // space, which is guaranteed to have room: compaction freed
                // at least this object's own bytes.
                heap.move_to_old(id, src)
                    .expect("compacted source space has room for a failed migration");
                self.stats.migration_fallbacks += 1;
            }
        }
        self.stats.rdds_migrated += migrated_arrays;

        // --- sweep -----------------------------------------------------------
        for id in dead {
            heap.free(id);
            self.stats.old_freed += 1;
        }

        if self.verify {
            let out: u64 = heap.old_space_ids().map(|s| heap.old(s).used()).sum();
            if out != live_old_bytes_in {
                Self::verify_fail(
                    heap,
                    VerifyError {
                        point: VerifyPoint::AfterMajor,
                        invariant: Invariant::Accounting,
                        object: None,
                        space: None,
                        detail: format!(
                            "footprint not conserved across compaction: \
                             {live_old_bytes_in} live bytes in, {out} bytes out"
                        ),
                    },
                );
            }
        }

        // --- epilogue ---------------------------------------------------------
        for space in heap.old_space_ids() {
            heap.card_table_mut(space).clear_all();
        }
        // Re-dirty cards for old objects that reference the young
        // generation, so the next minor GC still sees them. Each
        // young-pointing *slot's* card is dirtied, not the header's: a
        // multi-card RDD array's young reference can sit many cards past
        // the header, and a header-only mark would let the next minor GC's
        // card scan miss it entirely.
        for space in heap.old_space_ids() {
            for idx in 0..heap.old(space).objects().len() {
                let id = heap.old(space).objects()[idx];
                heap.dirty_young_slots(id);
            }
        }
        for id in marked.iter() {
            if heap.is_live(id) {
                heap.obj_mut(id).marked = false;
            }
        }
        self.freq.reset();
        self.run_verify(heap, roots, VerifyPoint::AfterMajor);
        let pause_ns = ns_of(heap.mem().clock().now_ps() - pause_start);
        self.major_pauses.record(pause_ns);
        let migrated = self.stats.rdds_migrated - migrated_before;
        let freed = self.stats.old_freed - freed_before;
        heap.observer().emit(
            heap.mem().clock().now_ns(),
            &obs::Event::MajorGcEnd {
                pause_ns,
                migrated,
                freed,
            },
        );
        heap.mem_mut().enter_phase(prev);
    }

    /// Full-heap mark from the roots; charges a read per object visited.
    fn mark(&mut self, heap: &mut Heap, roots: &RootSet) -> MarkSet {
        let mut visited = heap.mark_set();
        let mut queue: VecDeque<ObjId> = roots.iter().filter(|r| heap.is_live(*r)).collect();
        while let Some(id) = queue.pop_front() {
            if !visited.insert(id) {
                continue;
            }
            heap.obj_mut(id).marked = true;
            heap.read_object(id);
            heap.mem_mut().compute(TRACE_CPU_NS_PER_OBJ);
            for &t in &heap.obj(id).refs {
                if heap.is_live(t) && !visited.contains(t) {
                    queue.push_back(t);
                }
            }
        }
        visited
    }

    /// Decide which live objects switch old spaces, keyed by the RDD
    /// arrays' access frequencies — or, when an online re-tagging policy
    /// pinned an override for the RDD, by the override alone. Objects
    /// reachable from a migrating array migrate with it; DRAM wins
    /// conflicts.
    fn plan_migrations(
        &mut self,
        heap: &Heap,
        live: &HashMap<OldSpaceId, Vec<ObjId>>,
    ) -> HashMap<ObjId, OldSpaceId> {
        let (Some(dram), Some(nvm)) = (heap.old_dram(), heap.old_nvm()) else {
            return HashMap::new();
        };
        let mut plan: HashMap<ObjId, OldSpaceId> = HashMap::new();
        // DRAM decisions are applied second so they overwrite NVM ones
        // (MEMORY_BITS conflict priority).
        let mut to_nvm: Vec<ObjId> = Vec::new();
        let mut to_dram: Vec<ObjId> = Vec::new();
        // Iterate spaces in id order — `live` is a hash map.
        let mut spaces: Vec<_> = live.keys().copied().collect();
        spaces.sort_unstable();
        for space in spaces {
            let (space, ids) = (&space, &live[&space]);
            for id in ids {
                let o = heap.obj(*id);
                let Some(rdd_id) = o.kind.rdd_id() else {
                    continue;
                };
                if !o.kind.is_array() {
                    continue;
                }
                if let Some(tag) = self.tag_overrides.get(&rdd_id) {
                    match tag {
                        mheap::MemTag::Dram if *space == nvm => to_dram.push(*id),
                        mheap::MemTag::Nvm if *space == dram => to_nvm.push(*id),
                        _ => {}
                    }
                    continue;
                }
                let calls = self.freq.calls(rdd_id);
                if calls >= HOT_CALL_THRESHOLD && *space == nvm {
                    to_dram.push(*id);
                } else if calls < COLD_CALL_THRESHOLD && *space == dram {
                    to_nvm.push(*id);
                }
            }
        }
        for m in reachable_in_old(heap, to_nvm) {
            plan.insert(m, nvm);
        }
        for m in reachable_in_old(heap, to_dram) {
            plan.insert(m, dram);
        }
        plan
    }
}

/// The old-generation objects reachable from any of `roots` (inclusive),
/// each once.
fn reachable_in_old(heap: &Heap, roots: Vec<ObjId>) -> Vec<ObjId> {
    let mut out = Vec::new();
    let mut seen = heap.mark_set();
    let mut queue = VecDeque::from(roots);
    while let Some(id) = queue.pop_front() {
        if !seen.insert(id) || !heap.is_live(id) {
            continue;
        }
        let o = heap.obj(id);
        if o.space.is_young() {
            continue;
        }
        out.push(id);
        queue.extend(&o.refs);
    }
    out
}
