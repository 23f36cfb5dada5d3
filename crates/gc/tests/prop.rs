//! Property tests for the collectors over random object graphs: the
//! reachable survive, the unreachable die, survivors keep their sizes and
//! references, and tags propagate to everything reachable from a tagged
//! source.

use gc::{GcCoordinator, MemoryMode};
use hybridmem::{DeviceKind, MemorySystemConfig};
use mheap::{
    Heap, HeapConfig, MemTag, ObjId, ObjKind, OldGenLayout, Payload, RootSet, SpaceId, VerifyPoint,
};
use obs::{Event, Observer, RingBufferSink};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// A random DAG: `edges[i]` lists children of node `i` (only to lower
/// indices, so the graph is acyclic by construction... actually to any
/// index — cycles are fine for a tracing GC, so allow them).
#[derive(Debug, Clone)]
struct GraphSpec {
    n: usize,
    edges: Vec<(usize, usize)>,
    roots: Vec<usize>,
}

fn graph() -> impl Strategy<Value = GraphSpec> {
    (2usize..40).prop_flat_map(|n| {
        (
            prop::collection::vec((0..n, 0..n), 0..n * 2),
            prop::collection::vec(0..n, 0..4),
        )
            .prop_map(move |(edges, roots)| GraphSpec { n, edges, roots })
    })
}

fn build(heap: &mut Heap, gc: &mut GcCoordinator, spec: &GraphSpec) -> Vec<ObjId> {
    let roots = RootSet::new();
    let ids: Vec<ObjId> = (0..spec.n)
        .map(|i| {
            gc.alloc_young(
                heap,
                &roots,
                ObjKind::Tuple,
                MemTag::None,
                vec![],
                Payload::Long(i as i64),
            )
        })
        .collect();
    for (src, dst) in &spec.edges {
        heap.push_ref(ids[*src], ids[*dst]);
    }
    ids
}

/// What a collection must preserve of an object: its size and references.
fn shape(heap: &Heap, id: ObjId) -> (u64, Vec<ObjId>) {
    let o = heap.obj(id);
    (o.size, o.refs.clone())
}

fn reachable(spec: &GraphSpec) -> HashSet<usize> {
    let mut seen: HashSet<usize> = HashSet::new();
    let mut stack: Vec<usize> = spec.roots.clone();
    while let Some(i) = stack.pop() {
        if seen.insert(i) {
            for (s, d) in &spec.edges {
                if *s == i {
                    stack.push(*d);
                }
            }
        }
    }
    seen
}

fn panthera_heap() -> (Heap, GcCoordinator) {
    let heap = Heap::new(
        HeapConfig::panthera(2_000_000, 1.0 / 3.0),
        MemorySystemConfig::with_capacities(700_000, 1_300_000),
    )
    .unwrap();
    (heap, GcCoordinator::new(MemoryMode::Panthera.into()))
}

/// One old-generation holder of references for the card-window test.
#[derive(Debug, Clone)]
struct HolderSpec {
    /// `Some(modelled slots)` for an RDD array, `None` for an old tuple
    /// (which shares cards with whatever array ends or starts beside it).
    array: Option<usize>,
    /// Reference slots actually filled. For an array this may stop short
    /// of the modelled size or run past it (appended slots all clamp to
    /// the array's last byte).
    len: usize,
    /// Lives in the DRAM old space with a DRAM tag (else NVM).
    dram: bool,
}

fn holders() -> impl Strategy<Value = Vec<HolderSpec>> {
    // Two arrays for every old tuple.
    let holder = (0usize..3, 1usize..260, 0usize..340, any::<bool>()).prop_map(
        |(kind, slots, len, dram)| match kind {
            0 => HolderSpec {
                array: None,
                len: len % 4,
                dram,
            },
            _ => HolderSpec {
                array: Some(slots),
                len,
                dram,
            },
        },
    );
    prop::collection::vec(holder, 2..8)
}

proptest! {
    /// The card scan examines only the slots inside each dirty card's
    /// window. Multi-card arrays (padded and not, partly filled and grown
    /// past their modelled size), several meeting in one card, and old
    /// tuples sharing cards with array ends hold young targets behind a
    /// *sparse* set of dirty cards; the collection must still keep exactly
    /// the reachable young objects, give each the strongest tag among the
    /// holders that reach it, and leave nothing for a second collection.
    /// The verifier (card coverage included) runs at every entry and exit.
    #[test]
    fn card_windows_find_every_young_target(
        padding in any::<bool>(),
        specs in holders(),
        stores in prop::collection::vec((0usize..64, 0usize..4096, 0usize..12), 0..90),
        garbage in 0usize..5,
    ) {
        let mut cfg = HeapConfig::panthera(8_000_000, 1.0 / 3.0);
        cfg.card_padding = padding;
        let mut heap =
            Heap::new(cfg, MemorySystemConfig::with_capacities(2_700_000, 5_300_000)).unwrap();
        let mut gc = GcCoordinator::with_verify(MemoryMode::Panthera.into(), true);
        let (dram, nvm) = (heap.old_dram().unwrap(), heap.old_nvm().unwrap());
        let place = |in_dram: bool| if in_dram { (dram, MemTag::Dram) } else { (nvm, MemTag::Nvm) };
        let mut roots = RootSet::new();

        // An old object for slots that hold no young target.
        let filler = heap
            .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Unit)
            .unwrap();
        roots.push(filler);
        let holder_ids: Vec<ObjId> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let (space, tag) = place(spec.dram);
                let id = match spec.array {
                    Some(slots) => {
                        let id = heap.alloc_array_old(space, i as u32, slots, tag).unwrap();
                        for _ in 0..spec.len {
                            heap.push_ref(id, filler);
                        }
                        id
                    }
                    None => heap
                        .alloc_old(space, ObjKind::Tuple, tag, vec![filler; spec.len], Payload::Unit)
                        .unwrap(),
                };
                roots.push(id);
                id
            })
            .collect();
        // Filling the arrays dirtied every card they touch; a collection
        // with nothing young cleans them, so the stores below dirty only
        // the cards they land on.
        gc.minor_gc(&mut heap, &roots);

        // Young tuples, named by their index in `young`:
        // `slot_of[(holder, slot)]` is the final occupant of a slot (a
        // later store overwrites an earlier one), `child[t]` a young
        // object only `t` references.
        let mut young: Vec<ObjId> = Vec::new();
        let mut new_young = |heap: &mut Heap, refs: Vec<ObjId>| {
            let payload = Payload::Long(young.len() as i64);
            let id = heap.alloc_young(ObjKind::Tuple, MemTag::None, refs, payload).unwrap();
            young.push(id);
            (young.len() - 1, id)
        };
        let mut child: HashMap<usize, usize> = HashMap::new();
        let mut slot_of: HashMap<(usize, usize), (usize, ObjId)> = HashMap::new();
        for (h, slot, pick) in stores {
            let h = h % specs.len();
            if specs[h].len == 0 {
                continue;
            }
            let slot = slot % specs[h].len;
            let target = match pick {
                // Share an existing target between slots (and holders).
                0..=2 if !slot_of.is_empty() => {
                    let mut taken: Vec<(usize, ObjId)> = slot_of.values().copied().collect();
                    taken.sort_unstable();
                    taken[slot % taken.len()]
                }
                // A target with a young child of its own.
                3..=5 => {
                    let (c, c_id) = new_young(&mut heap, vec![]);
                    let t = new_young(&mut heap, vec![c_id]);
                    child.insert(t.0, c);
                    t
                }
                _ => new_young(&mut heap, vec![]),
            };
            heap.set_ref(holder_ids[h], slot, target.1);
            slot_of.insert((h, slot), target);
        }
        for _ in 0..garbage {
            new_young(&mut heap, vec![]);
        }

        // Model: what is reachable, and with which tag.
        let mut expected: HashMap<usize, MemTag> = HashMap::new();
        for ((h, _), (t, _)) in &slot_of {
            let (_, tag) = place(specs[*h].dram);
            for obj in std::iter::once(*t).chain(child.get(t).copied()) {
                let e = expected.entry(obj).or_insert(MemTag::None);
                *e = e.merge(tag);
            }
        }

        let before: Vec<_> = young.iter().map(|id| shape(&heap, *id)).collect();
        gc.minor_gc(&mut heap, &roots);
        for (i, id) in young.iter().enumerate() {
            prop_assert_eq!(heap.is_live(*id), expected.contains_key(&i), "young {} liveness", i);
            if let Some(tag) = expected.get(&i) {
                prop_assert_eq!(&shape(&heap, *id), &before[i], "young {} shape", i);
                let o = heap.obj(*id);
                prop_assert_eq!(o.tag, *tag, "young {} tag", i);
                let (space, _) = place(*tag == MemTag::Dram);
                prop_assert_eq!(o.space, SpaceId::Old(space), "young {} placement", i);
            }
        }

        // Nothing is young any more, so a second collection moves and
        // frees nothing, and cleans every card that is not stuck.
        let ring = Rc::new(RefCell::new(RingBufferSink::new(64)));
        heap.set_observer(Observer::with_sink(ring.clone()));
        gc.minor_gc(&mut heap, &roots);
        let second = ring.borrow().events().find_map(|(_, e)| match *e {
            Event::MinorGcEnd { moved, freed, .. } => Some((moved, freed)),
            _ => None,
        });
        prop_assert_eq!(second, Some((0, 0)));
        for space in heap.old_space_ids() {
            let table = heap.card_table(space);
            prop_assert!(table.iter_dirty().all(|c| table.is_stuck(c)));
            prop_assert!(!padding || table.dirty_count() == 0, "padding leaves no stuck card");
        }
    }

    /// Minor GC is precise on random graphs: survivors = reachable set,
    /// sizes and references intact.
    #[test]
    fn minor_gc_is_precise(spec in graph()) {
        let (mut heap, mut gc) = panthera_heap();
        let ids = build(&mut heap, &mut gc, &spec);
        let mut roots = RootSet::new();
        for r in &spec.roots {
            roots.push(ids[*r]);
        }
        let before: Vec<_> = ids.iter().map(|id| shape(&heap, *id)).collect();
        gc.minor_gc(&mut heap, &roots);
        let live = reachable(&spec);
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(
                heap.is_live(*id),
                live.contains(&i),
                "object {} liveness wrong", i
            );
            if live.contains(&i) {
                prop_assert_eq!(&shape(&heap, *id), &before[i], "object {} shape", i);
            }
        }
    }

    /// Repeated collections reach a fixed point: after enough minor GCs,
    /// every survivor is in the old generation and stays there.
    #[test]
    fn collections_reach_fixed_point(spec in graph()) {
        let (mut heap, mut gc) = panthera_heap();
        let ids = build(&mut heap, &mut gc, &spec);
        let mut roots = RootSet::new();
        for r in &spec.roots {
            roots.push(ids[*r]);
        }
        for _ in 0..5 {
            gc.minor_gc(&mut heap, &roots);
        }
        let live = reachable(&spec);
        for i in &live {
            prop_assert!(!heap.obj(ids[*i]).in_young(), "survivor {} still young", i);
        }
        // A major GC must not change liveness.
        gc.major_gc(&mut heap, &roots);
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(heap.is_live(*id), live.contains(&i));
        }
    }

    /// Everything reachable from a DRAM-tagged array lands in the DRAM
    /// old space (given room), regardless of graph shape.
    #[test]
    fn tags_reach_the_whole_structure(spec in graph()) {
        let (mut heap, mut gc) = panthera_heap();
        let mut roots = RootSet::new();
        let arr = gc.alloc_rdd_array(&mut heap, &roots, 1, 128, MemTag::Dram);
        roots.push(arr);
        let ids = build(&mut heap, &mut gc, &spec);
        // Link the graph's roots beneath the array.
        for r in &spec.roots {
            heap.push_ref(arr, ids[*r]);
        }
        gc.minor_gc(&mut heap, &roots);
        let dram = heap.old_dram().unwrap();
        for i in reachable(&spec) {
            prop_assert_eq!(heap.obj(ids[i]).tag, MemTag::Dram, "tag missed {}", i);
            prop_assert_eq!(heap.obj(ids[i]).space, mheap::SpaceId::Old(dram));
        }
    }

    /// Remembered-set torture: old arrays accumulate references to young
    /// objects with minor GCs randomly interleaved between the stores.
    /// Every referenced object must survive, land in the array's space
    /// eventually, and the heap must stay structurally sound.
    #[test]
    fn card_logic_survives_random_mutation(
        ops in prop::collection::vec((any::<bool>(), 0usize..4, any::<bool>()), 1..60)
    ) {
        let (mut heap, mut gc) = panthera_heap();
        let mut roots = RootSet::new();
        let tags = [MemTag::Dram, MemTag::Nvm, MemTag::None, MemTag::None];
        let arrays: Vec<ObjId> = (0..4u32)
            .map(|i| {
                let a = gc.alloc_rdd_array(&mut heap, &roots, i, 16, tags[i as usize]);
                roots.push(a);
                a
            })
            .collect();
        let mut stored: Vec<(usize, ObjId, (u64, Vec<ObjId>))> = Vec::new();
        let mut counter = 0i64;
        for (do_gc, which, double) in ops {
            if do_gc {
                gc.minor_gc(&mut heap, &roots);
                prop_assert!(heap.verify(&roots, VerifyPoint::AfterMinor).is_ok());
            } else {
                counter += 1;
                let t = gc.alloc_young(
                    &mut heap,
                    &roots,
                    ObjKind::Tuple,
                    MemTag::None,
                    vec![],
                    Payload::Long(counter),
                );
                stored.push((which, t, shape(&heap, t)));
                heap.push_ref(arrays[which], t);
                if double {
                    // Same object referenced from a second array too
                    // (conflict fodder).
                    heap.push_ref(arrays[(which + 1) % 4], t);
                }
            }
        }
        // Drain: everything must settle out of the young generation.
        for _ in 0..5 {
            gc.minor_gc(&mut heap, &roots);
        }
        heap.verify(&roots, VerifyPoint::AfterMinor)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        for (which, t, before) in stored {
            prop_assert!(heap.is_live(t), "array {which}'s element died");
            prop_assert!(!heap.obj(t).in_young(), "element never tenured");
            prop_assert_eq!(shape(&heap, t), before);
        }
        gc.major_gc(&mut heap, &roots);
        heap.verify(&roots, VerifyPoint::AfterMajor)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// The unified DRAM-only heap never produces NVM traffic, whatever the
    /// workload graph.
    #[test]
    fn dram_only_invariant(spec in graph()) {
        let mut cfg = HeapConfig::panthera(2_000_000, 1.0);
        cfg.old_layout = OldGenLayout::Unified(DeviceKind::Dram);
        let mut heap =
            Heap::new(cfg, MemorySystemConfig::with_capacities(2_000_000, 0)).unwrap();
        let mut gc = GcCoordinator::new(MemoryMode::DramOnly.into());
        let ids = build(&mut heap, &mut gc, &spec);
        let mut roots = RootSet::new();
        for r in &spec.roots {
            roots.push(ids[*r]);
        }
        for _ in 0..4 {
            gc.minor_gc(&mut heap, &roots);
        }
        gc.major_gc(&mut heap, &roots);
        prop_assert_eq!(heap.mem().stats().total_device_bytes(DeviceKind::Nvm), 0);
    }
}

/// A Kingsguard-W heap and collector with the verifier on: its
/// write-rationing pass orders its hot set by `ObjId`.
fn kingsguard_w() -> (Heap, GcCoordinator) {
    let mut cfg = HeapConfig::panthera(300_000, 1.0 / 3.0);
    cfg.track_writes = true;
    let heap = Heap::new(cfg, MemorySystemConfig::with_capacities(100_000, 200_000)).unwrap();
    let gc = GcCoordinator::with_verify(MemoryMode::KingsguardWrites.into(), true);
    (heap, gc)
}

/// Two heaps agree on every counter, the clock, and eden's entries, and
/// both verify against `roots`.
fn assert_twins(a: (&Heap, &GcCoordinator), b: (&Heap, &GcCoordinator), roots: &RootSet) {
    assert_eq!(format!("{:?}", a.0.stats()), format!("{:?}", b.0.stats()));
    assert_eq!(format!("{:?}", a.1.stats()), format!("{:?}", b.1.stats()));
    let now = |h: &Heap| h.mem().clock().now_ns().to_bits();
    assert_eq!(now(a.0), now(b.0));
    assert_eq!(a.0.eden().objects(), b.0.eden().objects());
    a.0.verify(roots, VerifyPoint::Manual).unwrap();
    b.0.verify(roots, VerifyPoint::Manual).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A tuple allocated by its record's size alone is the tuple its
    /// record would make. Two Kingsguard-W heaps run the same mixed
    /// sequence of kept and dead tuples: one allocates every tuple with
    /// its record, the other through `alloc_record` with the record's
    /// modelled size, with minor collections between steps. Every tuple,
    /// and each of the 64 allocations after every collection, gets the
    /// same id, and the heap and collector counters agree throughout.
    #[test]
    fn dead_tuples_keep_ids_and_counters(
        steps in prop::collection::vec(
            prop::collection::vec((0u8..5, 0usize..64), 1..400),
            1..6,
        ),
    ) {
        let (mut ha, mut gca) = kingsguard_w();
        let (mut hb, mut gcb) = kingsguard_w();
        let mut roots = RootSet::new();
        let arr_a = gca.alloc_rdd_array(&mut ha, &roots, 1, 4096, MemTag::None);
        let arr_b = gcb.alloc_rdd_array(&mut hb, &roots, 1, 4096, MemTag::None);
        prop_assert_eq!(arr_a, arr_b);
        roots.push(arr_a);
        let mut kept: Vec<ObjId> = Vec::new();
        for step in steps {
            for (choice, n) in step {
                let payload = match n {
                    0 => Payload::Unit,
                    1 => Payload::Long(1),
                    n => Payload::longs(vec![0; n]),
                };
                let bytes = payload.model_bytes();
                let a = gca.alloc_young(
                    &mut ha, &roots, ObjKind::Tuple, MemTag::None, vec![], payload,
                );
                let b = gcb.alloc_record(&mut hb, &roots, bytes);
                prop_assert_eq!(a, b);
                if choice >= 1 {
                    // Dead on arrival: the next sweep frees it between the
                    // kept tuples.
                    continue;
                }
                ha.push_ref(arr_a, a);
                hb.push_ref(arr_b, b);
                // Write an older kept tuple hot, so Kingsguard-W has a hot
                // set to order by id.
                if let Some(&src) = kept.get(n * 7 % kept.len().max(1)) {
                    for _ in 0..4 {
                        ha.push_ref(src, a);
                        hb.push_ref(src, b);
                    }
                }
                kept.push(a);
            }
            assert_twins((&ha, &gca), (&hb, &gcb), &roots);
            gca.minor_gc(&mut ha, &roots);
            gcb.minor_gc(&mut hb, &roots);
            assert_twins((&ha, &gca), (&hb, &gcb), &roots);
            for _ in 0..64 {
                let a = ha
                    .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Long(0))
                    .unwrap();
                let b = hb.try_alloc_young(ObjKind::Tuple, MemTag::None, vec![], 8).unwrap();
                prop_assert_eq!(a, b);
            }
            assert_twins((&ha, &gca), (&hb, &gcb), &roots);
        }
    }
}
