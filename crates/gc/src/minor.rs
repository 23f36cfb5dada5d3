//! The minor (young-generation) collection — a semantics-aware parallel
//! scavenge (paper Section 4.2.2).
//!
//! Tasks mirror the paper's decomposition of Parallel Scavenge:
//!
//! * **root-task** — traces from the root set; RDD top objects whose
//!   `MEMORY_BITS` were set by `rdd_alloc` are recognized here;
//! * **DRAM-to-young-task / NVM-to-young-task** — the split old-to-young
//!   scan walks each old space's dirty cards, finds references into the
//!   young generation, and *propagates the source object's tag* to the
//!   young target;
//! * **steal-task** — work stealing is modelled by the 16-thread access
//!   profile used to charge all GC traffic.
//!
//! Tagged survivors are *eagerly promoted* straight into the old space
//! their `MEMORY_BITS` name; untagged survivors age through the survivor
//! spaces as in the original collector. When the DRAM old space is full,
//! promotion falls back to NVM regardless of tags.

use crate::coordinator::{
    GcCoordinator, KW_WRITE_THRESHOLD, LARGE_ARRAY_BYTES, TRACE_CPU_NS_PER_OBJ,
};
use hybridmem::{ns_of, Phase};
use mheap::{Heap, MemTag, ObjId, OldSpaceId, RootSet, SpaceId, CARD_BYTES, TENURE_THRESHOLD};
use std::collections::{HashMap, VecDeque};
use std::ops::Range;

/// A card scanned this cycle, to be re-examined after evacuation.
struct ScannedCard {
    space: OldSpaceId,
    card: usize,
    /// The objects that overlapped the card when it was scanned, as
    /// indices into the space's resident list. Evacuation only appends to
    /// that list (promotions bump-allocate at the end), so the indices
    /// still name the same objects afterwards.
    objects: Range<usize>,
}

impl GcCoordinator {
    /// Run one minor collection.
    pub fn minor_gc(&mut self, heap: &mut Heap, roots: &RootSet) {
        let prev = heap.mem_mut().enter_phase(Phase::MinorGc);
        let pause_start = heap.mem().clock().now_ps();
        heap.observer()
            .emit(ns_of(pause_start), &obs::Event::MinorGcStart);
        self.run_verify(heap, roots, mheap::VerifyPoint::BeforeMinor);
        self.stats.minor_count += 1;
        heap.mem_mut().compute(crate::coordinator::MINOR_BASE_NS);

        let moved_before = self.stats.total_promotions() + self.stats.survivor_copies;
        let freed_before = self.stats.young_freed;
        let cards_before = self.stats.cards_scanned;
        let card_bytes_before = self.stats.card_scan_bytes;
        let stuck_before = self.stats.stuck_card_rescans;

        let mut queue: VecDeque<(ObjId, MemTag)> = VecDeque::new();

        // --- DRAM-to-young-task and NVM-to-young-task ------------------
        let scanned = self.scan_dirty_cards(heap, &mut queue);
        if heap.observer().enabled() && self.stats.cards_scanned > cards_before {
            heap.observer().emit(
                heap.mem().clock().now_ns(),
                &obs::Event::CardScan {
                    cards: self.stats.cards_scanned - cards_before,
                    bytes: self.stats.card_scan_bytes - card_bytes_before,
                    stuck: self.stats.stuck_card_rescans - stuck_before,
                },
            );
        }

        // --- root-task --------------------------------------------------
        for r in roots.iter() {
            if !heap.is_live(r) {
                continue;
            }
            let o = heap.obj(r);
            if o.space.is_young() {
                // A root object propagates its own MEMORY_BITS (set by
                // rdd_alloc on RDD top objects) to itself.
                queue.push_back((r, o.tag));
            }
        }

        // --- transitive trace with tag propagation ----------------------
        let propagate = self.policy.propagate_tags();
        let mut visited = heap.mark_set();
        while let Some((id, incoming)) = queue.pop_front() {
            let o = heap.obj(id);
            if !o.space.is_young() {
                continue;
            }
            let old_tag = o.tag;
            let new_tag = if propagate {
                old_tag.merge(incoming)
            } else {
                old_tag
            };
            if visited.insert(id) {
                heap.obj_mut(id).tag = new_tag;
                heap.read_object(id);
                heap.mem_mut().compute(TRACE_CPU_NS_PER_OBJ);
            } else if new_tag != old_tag {
                // Tag upgraded after the first visit: re-propagate. Tags
                // only increase (none < NVM < DRAM), so this terminates.
                heap.obj_mut(id).tag = new_tag;
            } else {
                continue;
            }
            for &t in &heap.obj(id).refs {
                if heap.is_young(t) {
                    queue.push_back((t, new_tag));
                }
            }
        }

        // --- evacuation ---------------------------------------------------
        // Tracing moved nothing, so eden's and the from-space's resident
        // lists still name the whole young population.
        let mut survivors: Vec<ObjId> = heap
            .eden()
            .objects()
            .iter()
            .chain(heap.from_space().objects())
            .copied()
            .filter(|id| visited.contains(*id))
            .collect();
        survivors.sort_by_key(|id| heap.obj(*id).addr);
        let eager_on = self.policy.eager_promotion();
        for id in survivors {
            let (tag, age) = {
                let o = heap.obj(id);
                (o.tag, o.age)
            };
            let eager = eager_on && tag.is_tagged();
            let tenured = age + 1 >= TENURE_THRESHOLD;
            if eager || tenured {
                let dest = self.policy.promotion_space(heap, tag);
                self.promote(heap, id, dest);
                if eager {
                    self.stats.eager_promotions += 1;
                } else {
                    self.stats.tenured_promotions += 1;
                }
            } else if heap.copy_to_survivor(id) {
                self.stats.survivor_copies += 1;
            } else {
                // Survivor space overflow: promote instead.
                let dest = self.policy.promotion_space(heap, tag);
                self.promote(heap, id, dest);
                self.stats.tenured_promotions += 1;
            }
        }

        // --- remembered-set maintenance ----------------------------------
        // Newly promoted objects that still reference young survivors are
        // already covered: `move_to_old` dirties the card of every
        // young-pointing *slot* as part of the move (a header-only mark
        // here used to under-dirty multi-card arrays).
        //
        // Scanned cards stay dirty if their objects still point into the
        // young generation (e.g. a reference to an object that merely moved
        // to a survivor space); otherwise they are cleaned — unless stuck.
        //
        // The answer is a property of the object, not of the card, and
        // nothing below changes it, so it is worked out once per object: an
        // array spanning many scanned cards is the last object of one card
        // and the first of the next, which a one-entry memo catches.
        let mut memo: Option<(ObjId, bool)> = None;
        for sc in scanned {
            let still_young =
                heap.old(sc.space).objects()[sc.objects]
                    .iter()
                    .any(|&id| match memo {
                        Some((known, answer)) if known == id => answer,
                        _ => {
                            let answer = heap.is_live(id)
                                && heap.obj(id).refs.iter().any(|t| heap.is_young(*t));
                            memo = Some((id, answer));
                            answer
                        }
                    });
            if still_young {
                let (start, _) = heap.card_table(sc.space).card_range(sc.card);
                heap.card_table_mut(sc.space).mark_dirty(start);
            } else {
                heap.card_table_mut(sc.space).clean(sc.card);
            }
        }

        // --- sweep --------------------------------------------------------
        // Evacuation only appended to the to-space and old spaces, so the
        // lists are still the young population, in the order the sweep
        // must return slab ids.
        self.stats.young_freed += heap.sweep_young(&visited);

        // Kingsguard-Writes: rescue write-hot objects into DRAM.
        if self.policy.write_migration() {
            self.write_rationing_pass(heap);
        }
        self.run_verify(heap, roots, mheap::VerifyPoint::AfterMinor);

        let pause_ns = ns_of(heap.mem().clock().now_ps() - pause_start);
        self.minor_pauses.record(pause_ns);
        let moved = self.stats.total_promotions() + self.stats.survivor_copies - moved_before;
        let freed = self.stats.young_freed - freed_before;
        heap.observer().emit(
            heap.mem().clock().now_ns(),
            &obs::Event::MinorGcEnd {
                pause_ns,
                moved,
                freed,
            },
        );
        heap.mem_mut().enter_phase(prev);
    }

    /// Walk every old space's dirty cards, enqueueing the young targets of
    /// the slots each card covers with the source object's tag. Returns the
    /// scanned cards for post-evacuation cleaning.
    ///
    /// Only a card's own window of slots is examined: every slot holding a
    /// live young target lies on a dirty card (the verifier's
    /// `CardCoverage` invariant), so the windows of the dirty cards
    /// together hold every old-to-young reference, each once, in address
    /// order.
    fn scan_dirty_cards(
        &mut self,
        heap: &mut Heap,
        queue: &mut VecDeque<(ObjId, MemTag)>,
    ) -> Vec<ScannedCard> {
        let mut scanned = Vec::new();
        for old_id in heap.old_space_ids() {
            // Word-skipping cursor over the dirty bitmap: no snapshot
            // allocation, and cleaning/sticking the card under the cursor
            // never disturbs cards ahead of it.
            let mut cursor = 0usize;
            while let Some(card) = heap.card_table(old_id).next_dirty_from(cursor) {
                cursor = card + 1;
                let (start, end) = heap.card_table(old_id).card_range(card);
                let objects = overlapping_objects(heap, old_id, start.0, end.0);
                if objects.is_empty() {
                    heap.card_table_mut(old_id).clean(card);
                    continue;
                }
                // Shared-card pathology (Section 4.2.3): two large arrays
                // meeting inside one card defeat card cleaning.
                let large_arrays = heap.old(old_id).objects()[objects.clone()]
                    .iter()
                    .filter(|id| {
                        let o = heap.obj(**id);
                        o.kind.is_array() && o.size >= LARGE_ARRAY_BYTES
                    })
                    .count();
                if !heap.config().card_padding && large_arrays >= 2 {
                    heap.card_table_mut(old_id).mark_stuck(start);
                }
                let stuck = heap.card_table(old_id).is_stuck(card);
                self.stats.cards_scanned += 1;
                for idx in objects.clone() {
                    let id = heap.old(old_id).objects()[idx];
                    let o = heap.obj(id);
                    let (size, tag) = (o.size, o.tag);
                    // A stuck card forces a rescan of the array's every
                    // element; a clean scan touches only the card's window.
                    let bytes = if stuck { size } else { size.min(CARD_BYTES) };
                    heap.read_bytes(id, bytes);
                    self.stats.card_scan_bytes += bytes;
                    if stuck {
                        self.stats.stuck_card_rescans += 1;
                        // Scanning every element means examining every
                        // referenced object's header to test whether it
                        // still lives in the young generation — random
                        // accesses that NVM's latency punishes.
                        let refs = &heap.obj(id).refs;
                        if let Some(first_live) = refs.iter().find(|t| heap.is_live(**t)) {
                            let target_addr = heap.obj(*first_live).addr;
                            let header_bytes = refs.len() as u64 * mheap::HEADER_BYTES;
                            // Pointer chasing: no prefetcher helps, and
                            // the threads contend on the same arrays.
                            heap.mem_mut().access(
                                target_addr,
                                hybridmem::AccessKind::Read,
                                header_bytes,
                                hybridmem::AccessProfile {
                                    threads: 16.0,
                                    mlp: 1.0,
                                },
                            );
                            self.stats.card_scan_bytes += header_bytes;
                        }
                    }
                    let o = heap.obj(id);
                    for &t in &o.refs[o.slots_in(start, end)] {
                        if heap.is_young(t) {
                            queue.push_back((t, tag));
                        }
                    }
                }
                scanned.push(ScannedCard {
                    space: old_id,
                    card,
                    objects,
                });
            }
        }
        scanned
    }

    /// Kingsguard-Writes: ration the DRAM old space by observed writes —
    /// objects written heavily since the last pass move to DRAM, and DRAM
    /// residents that went write-cold are demoted back to NVM. Read-mostly
    /// data (like persisted RDDs) therefore settles in NVM, which is the
    /// source of Kingsguard-Writes' overhead on Big Data workloads
    /// (Section 5.2).
    fn write_rationing_pass(&mut self, heap: &mut Heap) {
        let (Some(dram), Some(nvm)) = (heap.old_dram(), heap.old_nvm()) else {
            return;
        };
        let mut hot: Vec<ObjId> = heap
            .write_counts()
            .iter()
            .filter(|(id, n)| {
                **n >= KW_WRITE_THRESHOLD
                    && heap.is_live(**id)
                    && heap.obj(**id).space == SpaceId::Old(nvm)
            })
            .map(|(id, _)| *id)
            .collect();
        // The write-count table is a hash map; keep migration order
        // deterministic. Sorting by `ObjId` makes slab id assignment part
        // of this collector's simulated behaviour: any change to how ids
        // are taken or recycled (every tuple takes one from the slab, and
        // `Heap::sweep_young` returns them in list order) is a
        // Kingsguard-W sim change.
        hot.sort_unstable();
        let cold: Vec<ObjId> = heap
            .old(dram)
            .objects()
            .iter()
            .copied()
            .filter(|id| {
                heap.is_live(*id)
                    && heap.obj(*id).space == SpaceId::Old(dram)
                    && heap.write_counts().get(id).copied().unwrap_or(0) < KW_WRITE_THRESHOLD
            })
            .collect();
        let mut moved_any = false;
        for id in hot {
            if heap.move_to_old(id, dram).is_ok() {
                self.stats.write_migrations += 1;
                moved_any = true;
            }
        }
        for id in cold {
            if heap.move_to_old(id, nvm).is_ok() {
                self.stats.write_migrations += 1;
                moved_any = true;
            }
        }
        heap.clear_write_counts();
        if moved_any {
            // Migrated objects leave stale entries in their source space's
            // resident list; drop them so later collections see each object
            // exactly once.
            for space in heap.old_space_ids() {
                let live: Vec<ObjId> = heap
                    .old(space)
                    .objects()
                    .iter()
                    .copied()
                    .filter(|id| heap.is_live(*id) && heap.obj(*id).space == SpaceId::Old(space))
                    .collect();
                let used = heap.old(space).used();
                heap.retain_old(space, live, used);
            }
        }
    }
}

/// Objects of `space` whose extents intersect `[start, end)`, as an index
/// range into the space's address-ordered resident list (found by binary
/// search for the first, then a walk over the few a card can hold).
fn overlapping_objects(heap: &Heap, space: OldSpaceId, start: u64, end: u64) -> Range<usize> {
    let objs = heap.old(space).objects();
    // First object whose end is past `start`.
    let lo = objs.partition_point(|id| heap.obj(*id).end().0 <= start);
    let n = objs[lo..]
        .iter()
        .take_while(|id| heap.obj(**id).addr.0 < end)
        .count();
    lo..lo + n
}

/// Map from card index to overlapping objects — exposed for tests and the
/// card-scan cost accounting in benches.
pub fn card_population(heap: &Heap, space: OldSpaceId) -> HashMap<usize, Vec<ObjId>> {
    let table = heap.card_table(space);
    let mut out: HashMap<usize, Vec<ObjId>> = HashMap::new();
    for idx in 0..table.len() {
        let (s, e) = table.card_range(idx);
        let objs = overlapping_objects(heap, space, s.0, e.0);
        if !objs.is_empty() {
            out.insert(idx, heap.old(space).objects()[objs].to_vec());
        }
    }
    out
}
