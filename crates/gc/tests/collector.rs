//! Scenario tests for the collectors: each test builds a small heap,
//! arranges an object graph the paper cares about, runs collections, and
//! checks both placement and cost accounting.

use gc::{GcCoordinator, MemoryMode, Policy};
use hybridmem::{DeviceKind, MemorySystemConfig, Phase};
use mheap::{
    Heap, HeapConfig, MemTag, ObjId, ObjKind, OldGenLayout, Payload, RootSet, SpaceId, VerifyPoint,
    TENURE_THRESHOLD,
};
use obs::{Event, Observer, RingBufferSink};
use std::cell::RefCell;
use std::rc::Rc;

fn split_heap(heap_bytes: u64) -> Heap {
    let cfg = HeapConfig::panthera(heap_bytes, 1.0 / 3.0);
    let dram = (heap_bytes as f64 / 3.0) as u64;
    Heap::new(
        cfg,
        MemorySystemConfig::with_capacities(dram, heap_bytes - dram),
    )
    .unwrap()
}

fn panthera() -> GcCoordinator {
    GcCoordinator::new(MemoryMode::Panthera.into())
}

/// A Panthera coordinator with heap verification forced on, so the
/// regression tests below also exercise the verifier at every GC point.
fn verified_panthera() -> GcCoordinator {
    GcCoordinator::with_verify(MemoryMode::Panthera.into(), true)
}

#[test]
fn minor_gc_frees_unreachable_young() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let roots = RootSet::new();
    for _ in 0..100 {
        gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(1),
        );
    }
    assert_eq!(heap.live_objects(), 100);
    gc.minor_gc(&mut heap, &roots);
    assert_eq!(heap.live_objects(), 0);
    assert_eq!(gc.stats().young_freed, 100);
    assert_eq!(heap.eden().used(), 0);
}

#[test]
fn rooted_untagged_objects_age_through_survivors() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    let id = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Tuple,
        MemTag::None,
        vec![],
        Payload::Long(7),
    );
    roots.push(id);
    let size = heap.obj(id).size;

    gc.minor_gc(&mut heap, &roots);
    assert!(heap.obj(id).in_young(), "age 1: still young");
    gc.minor_gc(&mut heap, &roots);
    assert!(heap.obj(id).in_young(), "age 2: still young");
    gc.minor_gc(&mut heap, &roots);
    // Tenure threshold 3: now promoted, untagged objects default to NVM.
    assert_eq!(heap.obj(id).space, SpaceId::Old(heap.old_nvm().unwrap()));
    assert_eq!(gc.stats().tenured_promotions, 1);
    // Size and references survive the moves.
    assert_eq!((heap.obj(id).size, heap.obj(id).refs.len()), (size, 0));
}

#[test]
fn eager_promotion_of_tagged_objects() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    let d = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Tuple,
        MemTag::Dram,
        vec![],
        Payload::Long(1),
    );
    let n = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Tuple,
        MemTag::Nvm,
        vec![],
        Payload::Long(2),
    );
    roots.push(d);
    roots.push(n);
    gc.minor_gc(&mut heap, &roots);
    assert_eq!(heap.obj(d).space, SpaceId::Old(heap.old_dram().unwrap()));
    assert_eq!(heap.obj(n).space, SpaceId::Old(heap.old_nvm().unwrap()));
    assert_eq!(gc.stats().eager_promotions, 2);
}

#[test]
fn tags_propagate_from_old_arrays_through_cards() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    // A persisted RDD's array pretenured in NVM (as rdd_alloc would do).
    let arr = gc.alloc_rdd_array(&mut heap, &roots, 42, 8, MemTag::Nvm);
    roots.push(arr);
    // Its tuples are created in eden and linked in: the barrier dirties
    // the array's cards.
    let mut tuples = Vec::new();
    for i in 0..8 {
        let t = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(i),
        );
        heap.push_ref(arr, t);
        tuples.push(t);
    }
    gc.minor_gc(&mut heap, &roots);
    // Tag propagation + eager promotion: every tuple followed the array.
    for t in tuples {
        let o = heap.obj(t);
        assert_eq!(o.tag, MemTag::Nvm, "tag propagated");
        assert_eq!(
            o.space,
            SpaceId::Old(heap.old_nvm().unwrap()),
            "eagerly promoted"
        );
    }
    // Card no longer references young objects, so it was cleaned.
    assert_eq!(heap.card_table(heap.old_nvm().unwrap()).dirty_count(), 0);
}

#[test]
fn dram_wins_tag_conflicts() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    let nvm_arr = gc.alloc_rdd_array(&mut heap, &roots, 1, 4, MemTag::Nvm);
    let dram_arr = gc.alloc_rdd_array(&mut heap, &roots, 2, 4, MemTag::Dram);
    roots.push(nvm_arr);
    roots.push(dram_arr);
    // One shared tuple referenced by both arrays (the map-reuses-keys case
    // from Section 3).
    let shared = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Tuple,
        MemTag::None,
        vec![],
        Payload::Long(0),
    );
    heap.push_ref(nvm_arr, shared);
    heap.push_ref(dram_arr, shared);
    gc.minor_gc(&mut heap, &roots);
    let o = heap.obj(shared);
    assert_eq!(o.tag, MemTag::Dram, "DRAM > NVM on conflict");
    assert_eq!(o.space, SpaceId::Old(heap.old_dram().unwrap()));
}

#[test]
fn promotion_falls_back_to_nvm_when_dram_full() {
    // Tiny DRAM old space: 1/4 ratio on a small heap.
    let heap_bytes = 240_000u64;
    let cfg = HeapConfig::panthera(heap_bytes, 0.26);
    let mut heap = Heap::new(cfg, MemorySystemConfig::with_capacities(60_000, 180_000)).unwrap();
    let mut gc = panthera();
    let mut roots = RootSet::new();
    // Fill the DRAM old space directly.
    let dram = heap.old_dram().unwrap();
    while heap
        .alloc_old(
            dram,
            ObjKind::Control,
            MemTag::Dram,
            vec![],
            Payload::Long(0),
        )
        .is_ok()
    {}
    // Now a DRAM-tagged young object (bigger than any leftover slack in the
    // DRAM space) must fall back to NVM on promotion.
    let id = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Tuple,
        MemTag::Dram,
        vec![],
        Payload::doubles(vec![1.0; 16]),
    );
    roots.push(id);
    gc.minor_gc(&mut heap, &roots);
    assert_eq!(heap.obj(id).space, SpaceId::Old(heap.old_nvm().unwrap()));
    assert!(gc.stats().promotion_fallbacks > 0);
}

#[test]
fn shared_cards_stick_without_padding_and_rescan_arrays() {
    let mut cfg = HeapConfig::panthera(600_000, 1.0 / 3.0);
    cfg.card_padding = false;
    let mut heap = Heap::new(cfg, MemorySystemConfig::with_capacities(200_000, 400_000)).unwrap();
    let mut gc = panthera();
    let mut roots = RootSet::new();

    // Two large arrays, back to back: A's tail and B's head share a card.
    let a = gc.alloc_rdd_array(&mut heap, &roots, 1, 150, MemTag::Nvm);
    let b = gc.alloc_rdd_array(&mut heap, &roots, 2, 150, MemTag::Nvm);
    roots.push(a);
    roots.push(b);
    // Fill both arrays; tail slots dirty the shared boundary card.
    for i in 0..150 {
        let t = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(i),
        );
        heap.push_ref(a, t);
        let t2 = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(i),
        );
        heap.push_ref(b, t2);
    }
    gc.minor_gc(&mut heap, &roots);
    assert!(gc.stats().stuck_card_rescans > 0, "pathology triggered");
    let nvm = heap.old_nvm().unwrap();
    assert!(
        heap.card_table(nvm).dirty_count() > 0,
        "stuck card stays dirty"
    );

    // Every further minor GC rescans both full arrays even with no writes.
    let before = gc.stats().card_scan_bytes;
    gc.minor_gc(&mut heap, &roots);
    let delta = gc.stats().card_scan_bytes - before;
    let full = heap.obj(a).size + heap.obj(b).size;
    assert!(
        delta >= full,
        "rescan cost covers both arrays: {delta} vs {full}"
    );
}

#[test]
fn card_padding_prevents_stuck_cards() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    let a = gc.alloc_rdd_array(&mut heap, &roots, 1, 150, MemTag::Nvm);
    let b = gc.alloc_rdd_array(&mut heap, &roots, 2, 150, MemTag::Nvm);
    roots.push(a);
    roots.push(b);
    for i in 0..150 {
        let t = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(i),
        );
        heap.push_ref(a, t);
        let t2 = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(i),
        );
        heap.push_ref(b, t2);
    }
    gc.minor_gc(&mut heap, &roots);
    assert_eq!(gc.stats().stuck_card_rescans, 0);
    assert_eq!(heap.card_table(heap.old_nvm().unwrap()).dirty_count(), 0);
}

#[test]
fn major_gc_reclaims_and_compacts_old() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    let nvm = heap.old_nvm().unwrap();
    let keep = heap
        .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(1))
        .unwrap();
    let drop1 = heap
        .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(2))
        .unwrap();
    let keep2 = heap
        .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(3))
        .unwrap();
    roots.push(keep);
    roots.push(keep2);
    let used_before = heap.old(nvm).used();
    gc.major_gc(&mut heap, &roots);
    assert!(!heap.is_live(drop1));
    assert!(heap.is_live(keep) && heap.is_live(keep2));
    assert!(
        heap.old(nvm).used() < used_before,
        "compaction reclaimed space"
    );
    assert_eq!(gc.stats().old_freed, 1);
    // keep2 slid down into drop1's slot.
    assert_eq!(heap.obj(keep2).addr, heap.obj(keep).end());
}

#[test]
fn dynamic_migration_moves_hot_rdd_to_dram() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    // A "mis-placed" hot RDD in NVM with its tuples.
    let arr = gc.alloc_rdd_array(&mut heap, &roots, 9, 4, MemTag::Nvm);
    roots.push(arr);
    let mut tuples = Vec::new();
    for i in 0..4 {
        let t = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(i),
        );
        heap.push_ref(arr, t);
        tuples.push(t);
    }
    gc.minor_gc(&mut heap, &roots); // tuples follow the array into NVM
    for _ in 0..10 {
        gc.record_rdd_call(&mut heap, 9); // hot!
    }
    gc.major_gc(&mut heap, &roots);
    let dram = heap.old_dram().unwrap();
    assert_eq!(
        heap.obj(arr).space,
        SpaceId::Old(dram),
        "hot array migrated"
    );
    for t in tuples {
        assert_eq!(
            heap.obj(t).space,
            SpaceId::Old(dram),
            "reachable objects follow"
        );
    }
    assert_eq!(gc.stats().rdds_migrated, 1);
    // Frequencies reset after the major GC.
    assert_eq!(gc.freq().calls(9), 0);
}

#[test]
fn dynamic_migration_demotes_cold_rdd_to_nvm() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    let arr = gc.alloc_rdd_array(&mut heap, &roots, 5, 4, MemTag::Dram);
    roots.push(arr);
    gc.major_gc(&mut heap, &roots); // zero calls on RDD 5 => cold
    assert_eq!(heap.obj(arr).space, SpaceId::Old(heap.old_nvm().unwrap()));
    assert_eq!(gc.stats().rdds_migrated, 1);
}

#[test]
fn monitoring_is_cheap() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let t0 = heap.mem().clock().now_ns();
    for _ in 0..300 {
        gc.record_rdd_call(&mut heap, 1);
    }
    let dt = heap.mem().clock().now_ns() - t0;
    // 300 calls (PageRank's count over a 20-minute run) cost microseconds.
    assert!(dt < 1e6, "monitoring overhead is negligible: {dt} ns");
    assert_eq!(gc.freq().total_monitored(), 300);
}

#[test]
fn alloc_young_collects_when_eden_fills() {
    let mut heap = split_heap(240_000);
    let mut gc = panthera();
    let roots = RootSet::new();
    // Allocate far more than eden holds; dead garbage is collected along
    // the way.
    for i in 0..2_000 {
        gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::doubles(vec![i as f64; 8]),
        );
    }
    assert!(
        gc.stats().minor_count > 0,
        "eden pressure triggered minor GCs"
    );
    assert!(heap.mem().clock().phase_ns(Phase::MinorGc) > 0.0);
}

#[test]
fn humongous_young_request_is_pretenured() {
    let mut heap = split_heap(240_000);
    let mut gc = panthera();
    let roots = RootSet::new();
    // Bigger than eden (240_000/6 - survivors): goes to the old gen.
    let id = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Control,
        MemTag::None,
        vec![],
        Payload::doubles(vec![0.0; 8_000]),
    );
    assert!(matches!(heap.obj(id).space, SpaceId::Old(_)));
}

#[test]
fn unified_dram_only_never_touches_nvm() {
    let mut cfg = HeapConfig::panthera(600_000, 1.0);
    cfg.old_layout = OldGenLayout::Unified(DeviceKind::Dram);
    let mut heap = Heap::new(cfg, MemorySystemConfig::with_capacities(600_000, 0)).unwrap();
    let mut gc = GcCoordinator::new(MemoryMode::DramOnly.into());
    let mut roots = RootSet::new();
    let arr = gc.alloc_rdd_array(&mut heap, &roots, 1, 64, MemTag::Nvm);
    roots.push(arr);
    for i in 0..64 {
        let t = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(i),
        );
        heap.push_ref(arr, t);
    }
    gc.minor_gc(&mut heap, &roots);
    gc.major_gc(&mut heap, &roots);
    assert_eq!(heap.mem().stats().total_device_bytes(DeviceKind::Nvm), 0);
}

#[test]
fn unmanaged_interleaving_spreads_old_gen() {
    let mut cfg = HeapConfig::panthera(600_000, 1.0 / 3.0);
    cfg.old_layout = OldGenLayout::Interleaved { chunk_bytes: 4096 };
    let mut heap = Heap::new(cfg, MemorySystemConfig::with_capacities(200_000, 400_000)).unwrap();
    let mut gc = GcCoordinator::new(MemoryMode::Unmanaged.into());
    let mut roots = RootSet::new();
    // Allocate many arrays across the interleaved old space.
    for r in 0..40 {
        let arr = gc.alloc_rdd_array(&mut heap, &roots, r, 64, MemTag::None);
        roots.push(arr);
        heap.read_object(arr);
    }
    let dram = heap.mem().stats().total_device_bytes(DeviceKind::Dram);
    let nvm = heap.mem().stats().total_device_bytes(DeviceKind::Nvm);
    assert!(
        dram > 0 && nvm > 0,
        "traffic hits both devices: {dram} / {nvm}"
    );
}

#[test]
fn kingsguard_writes_migrates_write_hot_objects() {
    let mut cfg = HeapConfig::panthera(600_000, 1.0 / 3.0);
    cfg.track_writes = true;
    let mut heap = Heap::new(cfg, MemorySystemConfig::with_capacities(200_000, 400_000)).unwrap();
    let mut gc = GcCoordinator::new(MemoryMode::KingsguardWrites.into());
    let mut roots = RootSet::new();
    let arr = gc.alloc_rdd_array(&mut heap, &roots, 1, 16, MemTag::Dram);
    roots.push(arr);
    // KW ignores tags: array landed in NVM.
    assert_eq!(heap.obj(arr).space, SpaceId::Old(heap.old_nvm().unwrap()));
    // Hammer it with writes, then collect.
    for i in 0..16 {
        let t = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(i),
        );
        heap.push_ref(arr, t);
    }
    gc.minor_gc(&mut heap, &roots);
    assert_eq!(
        heap.obj(arr).space,
        SpaceId::Old(heap.old_dram().unwrap()),
        "write-hot object rescued to DRAM"
    );
    assert!(gc.stats().write_migrations >= 1);
}

#[test]
fn survivor_overflow_promotes() {
    let mut heap = split_heap(240_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    // Live set far bigger than a survivor space (10% of young = 4 000 B).
    let mut ids: Vec<ObjId> = Vec::new();
    for i in 0..120 {
        let id = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::doubles(vec![i as f64; 8]),
        );
        roots.push(id);
        ids.push(id);
    }
    gc.minor_gc(&mut heap, &roots);
    let promoted = ids
        .iter()
        .filter(|id| matches!(heap.obj(**id).space, SpaceId::Old(_)))
        .count();
    assert!(promoted > 0, "overflowing survivors promoted early");
}

#[test]
fn major_gc_triggered_by_occupancy() {
    let mut heap = split_heap(240_000);
    let mut gc = panthera();
    let roots = RootSet::new();
    let nvm = heap.old_nvm().unwrap();
    // Fill the old NVM space past the trigger with garbage.
    while heap.old(nvm).occupancy() < 0.95 {
        heap.alloc_old(
            nvm,
            ObjKind::Control,
            MemTag::Nvm,
            vec![],
            Payload::doubles(vec![0.0; 32]),
        )
        .unwrap();
    }
    gc.maybe_major(&mut heap, &roots);
    assert_eq!(gc.stats().major_count, 1);
    assert_eq!(heap.old(nvm).used(), 0, "all garbage reclaimed");
}

#[test]
fn root_scopes_release_temporaries() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    roots.push_scope();
    let tmp = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Control,
        MemTag::None,
        vec![],
        Payload::Unit,
    );
    roots.push(tmp);
    gc.minor_gc(&mut heap, &roots);
    assert!(heap.is_live(tmp), "rooted while in scope");
    roots.pop_scope();
    gc.minor_gc(&mut heap, &roots);
    assert!(!heap.is_live(tmp), "collected after scope exit");
}

#[test]
fn gc_time_is_attributed_to_phases() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    let arr = gc.alloc_rdd_array(&mut heap, &roots, 1, 32, MemTag::Nvm);
    roots.push(arr);
    for i in 0..32 {
        let t = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(i),
        );
        heap.push_ref(arr, t);
    }
    gc.minor_gc(&mut heap, &roots);
    gc.major_gc(&mut heap, &roots);
    let clock = heap.mem().clock();
    assert!(clock.phase_ns(Phase::MinorGc) > 0.0);
    assert!(clock.phase_ns(Phase::MajorGc) > 0.0);
    assert!(clock.mutator_ns() > 0.0);
    let split: u64 = Phase::ALL.iter().map(|p| clock.phase_ps(*p)).sum();
    assert_eq!(split, clock.now_ps());
}

#[test]
fn tag_upgrade_repropagates_through_chains() {
    // A chain t1 -> t2 -> t3 first reached via an NVM array, then via a
    // DRAM array: the later (higher-priority) tag must re-propagate down
    // the whole chain even though the objects were already visited.
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    let nvm_arr = gc.alloc_rdd_array(&mut heap, &roots, 1, 4, MemTag::Nvm);
    let dram_arr = gc.alloc_rdd_array(&mut heap, &roots, 2, 4, MemTag::Dram);
    roots.push(nvm_arr);
    roots.push(dram_arr);
    let t3 = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Tuple,
        MemTag::None,
        vec![],
        Payload::Long(3),
    );
    let t2 = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Tuple,
        MemTag::None,
        vec![t3],
        Payload::Long(2),
    );
    let t1 = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Tuple,
        MemTag::None,
        vec![t2],
        Payload::Long(1),
    );
    // NVM array reaches the chain head; DRAM array also reaches it.
    heap.push_ref(nvm_arr, t1);
    heap.push_ref(dram_arr, t1);
    gc.minor_gc(&mut heap, &roots);
    let dram = heap.old_dram().unwrap();
    for t in [t1, t2, t3] {
        assert_eq!(heap.obj(t).tag, MemTag::Dram, "{t:?} kept a stale tag");
        assert_eq!(heap.obj(t).space, SpaceId::Old(dram));
    }
}

#[test]
fn cards_stay_dirty_while_refs_point_at_survivors() {
    // An old array referencing an *untagged* young object: the object only
    // moves to a survivor space, so the card must stay dirty for the next
    // collection — otherwise the survivor would be lost.
    let mut heap = split_heap(600_000);
    let mut gc = GcCoordinator::new(Policy {
        mode: MemoryMode::Panthera,
        eager_promotion: false,
        dynamic_migration: false,
    });
    let mut roots = RootSet::new();
    let nvm = heap.old_nvm().unwrap();
    let arr = heap.alloc_array_old(nvm, 1, 4, MemTag::None).unwrap();
    roots.push(arr);
    let t = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Tuple,
        MemTag::None,
        vec![],
        Payload::Long(5),
    );
    heap.push_ref(arr, t);

    // Minor GCs with only the card keeping `t` alive: it ages in the
    // survivor spaces until the tenuring threshold.
    for age in 1..TENURE_THRESHOLD {
        gc.minor_gc(&mut heap, &roots);
        assert!(heap.is_live(t), "survivor lost at age {age}");
        assert!(heap.obj(t).in_young(), "still young at age {age}");
        assert!(
            heap.card_table(nvm).dirty_count() > 0,
            "card cleaned too early at age {age}"
        );
    }
    gc.minor_gc(&mut heap, &roots);
    assert_eq!(heap.obj(t).space, SpaceId::Old(nvm), "tenured at threshold");
    // Now nothing in the array points at the young gen: cards clean.
    gc.minor_gc(&mut heap, &roots);
    assert_eq!(heap.card_table(nvm).dirty_count(), 0);
}

#[test]
fn interleaved_old_gen_spreads_gc_traffic() {
    let mut cfg = HeapConfig::panthera(600_000, 0.5);
    cfg.old_layout = OldGenLayout::Interleaved { chunk_bytes: 4096 };
    let mut heap = Heap::new(cfg, MemorySystemConfig::with_capacities(300_000, 300_000)).unwrap();
    let mut gc = GcCoordinator::new(MemoryMode::Unmanaged.into());
    let mut roots = RootSet::new();
    // Many tagged-less arrays + tuples promoted across the chunk map.
    for r in 0..24 {
        let arr = gc.alloc_rdd_array(&mut heap, &roots, r, 64, MemTag::None);
        roots.push(arr);
        for i in 0..16 {
            let t = gc.alloc_young(
                &mut heap,
                &roots,
                ObjKind::Tuple,
                MemTag::None,
                vec![],
                Payload::Long(i),
            );
            heap.push_ref(arr, t);
        }
        gc.minor_gc(&mut heap, &roots);
    }
    gc.major_gc(&mut heap, &roots);
    let s = heap.mem().stats();
    let gc_dram: u64 = [hybridmem::Phase::MinorGc, hybridmem::Phase::MajorGc]
        .iter()
        .map(|p| {
            s.bytes(*p, DeviceKind::Dram, hybridmem::AccessKind::Read)
                + s.bytes(*p, DeviceKind::Dram, hybridmem::AccessKind::Write)
        })
        .sum();
    let gc_nvm: u64 = [hybridmem::Phase::MinorGc, hybridmem::Phase::MajorGc]
        .iter()
        .map(|p| {
            s.bytes(*p, DeviceKind::Nvm, hybridmem::AccessKind::Read)
                + s.bytes(*p, DeviceKind::Nvm, hybridmem::AccessKind::Write)
        })
        .sum();
    assert!(
        gc_dram > 0 && gc_nvm > 0,
        "GC touches both devices: {gc_dram}/{gc_nvm}"
    );
    // With a 50% chunk map, neither device should dominate absurdly.
    let ratio = gc_dram as f64 / gc_nvm as f64;
    assert!(
        (0.2..5.0).contains(&ratio),
        "interleave ratio off: {ratio:.2}"
    );
}

#[test]
fn pause_statistics_are_recorded() {
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    for i in 0..64 {
        let id = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::doubles(vec![i as f64; 16]),
        );
        if i % 4 == 0 {
            roots.push(id);
        }
    }
    gc.minor_gc(&mut heap, &roots);
    gc.minor_gc(&mut heap, &roots);
    gc.major_gc(&mut heap, &roots);
    assert_eq!(gc.minor_pauses().count(), 2);
    assert_eq!(gc.major_pauses().count(), 1);
    assert!(gc.minor_pauses().max_ns() > 0.0);
    assert!(gc.minor_pauses().mean_ns() <= gc.minor_pauses().max_ns());
    assert!(gc.major_pauses().quantile_ns(1.0) >= gc.major_pauses().quantile_ns(0.0));
}

#[test]
fn heap_integrity_holds_across_collection_cycles() {
    // Build a mutating workload-like object graph and check the heap's
    // structural invariants after every collection.
    let mut heap = split_heap(600_000);
    let mut gc = panthera();
    let mut roots = RootSet::new();
    let mut arrays = Vec::new();
    for round in 0..6u32 {
        let tag = if round % 2 == 0 {
            MemTag::Dram
        } else {
            MemTag::Nvm
        };
        let arr = gc.alloc_rdd_array(&mut heap, &roots, round, 32, tag);
        roots.push(arr);
        arrays.push(arr);
        for i in 0..32 {
            let t = gc.alloc_young(
                &mut heap,
                &roots,
                ObjKind::Tuple,
                MemTag::None,
                vec![],
                Payload::Long(i),
            );
            heap.push_ref(arr, t);
            // Plus some garbage.
            gc.alloc_young(
                &mut heap,
                &roots,
                ObjKind::Control,
                MemTag::None,
                vec![],
                Payload::Unit,
            );
        }
        gc.minor_gc(&mut heap, &roots);
        heap.verify(&roots, VerifyPoint::AfterMinor)
            .unwrap_or_else(|e| panic!("after minor {round}: {e}"));
        if round % 2 == 1 {
            // Drop an old array (unpersist-like), then major-collect.
            let victim = arrays.remove(0);
            roots.remove(victim);
            gc.major_gc(&mut heap, &roots);
            heap.verify(&roots, VerifyPoint::AfterMajor)
                .unwrap_or_else(|e| panic!("after major {round}: {e}"));
        }
    }
}

#[test]
fn heap_integrity_holds_under_kingsguard_writes() {
    let mut cfg = HeapConfig::panthera(600_000, 1.0 / 3.0);
    cfg.track_writes = true;
    let mut heap = Heap::new(cfg, MemorySystemConfig::with_capacities(200_000, 400_000)).unwrap();
    let mut gc = GcCoordinator::new(MemoryMode::KingsguardWrites.into());
    let mut roots = RootSet::new();
    for round in 0..5u32 {
        let arr = gc.alloc_rdd_array(&mut heap, &roots, round, 24, MemTag::None);
        roots.push(arr);
        for i in 0..24 {
            let t = gc.alloc_young(
                &mut heap,
                &roots,
                ObjKind::Tuple,
                MemTag::None,
                vec![],
                Payload::Long(i),
            );
            heap.push_ref(arr, t);
        }
        gc.minor_gc(&mut heap, &roots);
        heap.verify(&roots, VerifyPoint::AfterMinor)
            .unwrap_or_else(|e| panic!("KW after minor {round}: {e}"));
    }
    gc.major_gc(&mut heap, &roots);
    heap.verify(&roots, VerifyPoint::AfterMajor)
        .unwrap_or_else(|e| panic!("KW after major: {e}"));
}

#[test]
fn event_log_records_every_collection_in_order() {
    let mut heap = split_heap(600_000);
    let ring = Rc::new(RefCell::new(RingBufferSink::new(1 << 12)));
    heap.set_observer(Observer::with_sink(ring.clone()));
    let mut gc = panthera();
    let mut roots = RootSet::new();
    let arr = gc.alloc_rdd_array(&mut heap, &roots, 1, 32, MemTag::Nvm);
    roots.push(arr);
    for i in 0..32 {
        let t = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(i),
        );
        heap.push_ref(arr, t);
        // Plus garbage.
        gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Control,
            MemTag::None,
            vec![],
            Payload::Unit,
        );
    }
    gc.minor_gc(&mut heap, &roots);
    gc.minor_gc(&mut heap, &roots);
    gc.major_gc(&mut heap, &roots);

    // Each collection's start time, and its kind, pause, moved and freed
    // counts from its end event.
    let mut starts = Vec::new();
    let mut events = Vec::new();
    for (t, e) in ring.borrow().events() {
        match *e {
            Event::MinorGcStart | Event::MajorGcStart => starts.push(*t),
            Event::MinorGcEnd {
                pause_ns,
                moved,
                freed,
            } => events.push(("minor", pause_ns, moved, freed)),
            Event::MajorGcEnd {
                pause_ns,
                migrated,
                freed,
            } => events.push(("major", pause_ns, migrated, freed)),
            _ => {}
        }
    }
    let kinds: Vec<&str> = events.iter().map(|e| e.0).collect();
    assert_eq!(kinds, ["minor", "minor", "major"]);
    assert_eq!(starts.len(), 3);
    // Chronological, positive pauses, and the first minor did the work.
    assert!(starts.windows(2).all(|w| w[0] <= w[1]));
    assert!(events.iter().all(|e| e.1 > 0.0));
    assert!(events[0].2 >= 32, "tuples promoted eagerly");
    assert!(events[0].3 >= 32, "garbage reclaimed");
    assert_eq!(events[1].2, 0, "second minor had nothing to do");
    // Pauses in the trace agree with the aggregated stats.
    let minor_total: f64 = events.iter().filter(|e| e.0 == "minor").map(|e| e.1).sum();
    assert!((minor_total - gc.minor_pauses().mean_ns() * 2.0).abs() < 1e-6);
}

#[test]
fn failed_migration_reappends_to_source_space() {
    // Regression: a mover whose destination is too full used to be
    // orphaned — removed from its source resident list but never
    // re-appended anywhere, leaving a live object that no card scan or
    // compaction would ever visit again. It must instead stay put in its
    // source space and be counted under `migration_fallbacks`.
    let mut heap = split_heap(600_000);
    let mut gc = verified_panthera();
    let mut roots = RootSet::new();
    let nvm = heap.old_nvm().unwrap();
    let dram = heap.old_dram().unwrap();
    // A cold DRAM-resident RDD: zero recorded calls puts it under the
    // cold threshold, so the major GC plans a demotion to NVM.
    let arr = gc.alloc_rdd_array(&mut heap, &roots, 11, 256, MemTag::Dram);
    roots.push(arr);
    // Fill the NVM destination with rooted objects so the demotion
    // cannot possibly fit.
    while let Ok(filler) = heap.alloc_old(
        nvm,
        ObjKind::Control,
        MemTag::Nvm,
        vec![],
        Payload::doubles(vec![0.0; 32]),
    ) {
        roots.push(filler);
    }
    gc.major_gc(&mut heap, &roots);
    // The mover fell back: still live, still resident in its source
    // space, and the fallback was counted (not as a promotion fallback).
    assert!(heap.is_live(arr));
    assert_eq!(heap.obj(arr).space, SpaceId::Old(dram));
    assert!(
        heap.old(dram).objects().contains(&arr),
        "failed mover must be re-appended to the source resident list"
    );
    assert_eq!(gc.stats().migration_fallbacks, 1);
    assert_eq!(gc.stats().promotion_fallbacks, 0);
    assert_eq!(gc.stats().rdds_migrated, 0);
    // The old code's orphan is exactly what the verifier's resident-list
    // invariant catches; a manual pass must be clean.
    heap.verify(&roots, VerifyPoint::Manual).unwrap();
}

#[test]
fn major_gc_may_leave_young_garbage_referencing_freed_old() {
    // A major collection frees old objects without sweeping the young
    // generation, so unreachable young garbage may still list a freed id.
    // That state is legal until the next minor collection frees the
    // garbage; a checker demanding that every live object's references be
    // live rejects it.
    let mut heap = split_heap(600_000);
    let mut gc = verified_panthera();
    let roots = RootSet::new();
    let nvm = heap.old_nvm().unwrap();
    let old = heap
        .alloc_old(nvm, ObjKind::Tuple, MemTag::None, vec![], Payload::Long(1))
        .unwrap();
    let young = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Tuple,
        MemTag::None,
        vec![old],
        Payload::Long(2),
    );
    gc.major_gc(&mut heap, &roots);
    assert!(!heap.is_live(old), "the unrooted old tuple is freed");
    assert!(heap.obj(young).in_young(), "a major GC leaves eden alone");
    assert_eq!(heap.obj(young).refs, vec![old], "and its dangling ref");
    heap.verify(&roots, VerifyPoint::AfterMajor).unwrap();
    gc.minor_gc(&mut heap, &roots);
    assert!(!heap.is_live(young), "the next minor GC frees the garbage");
    heap.verify(&roots, VerifyPoint::AfterMinor).unwrap();
}

#[test]
fn major_gc_redirties_the_referencing_slot_card() {
    // Regression: the post-major re-dirty loop marked only the card of
    // the *header* of an old object holding young references. For an
    // array spanning several cards, the next minor GC's card scan then
    // missed the referencing slot and freed its young target, leaving a
    // dangling reference.
    let mut heap = split_heap(600_000);
    let mut gc = verified_panthera();
    let mut roots = RootSet::new();
    let nvm = heap.old_nvm().unwrap();
    // A 300-slot NVM array spans several 512-byte cards. Pad the first
    // 200 slots with self-references so the young reference lands in a
    // card well past the header's.
    let arr = gc.alloc_rdd_array(&mut heap, &roots, 21, 300, MemTag::Nvm);
    roots.push(arr);
    for _ in 0..200 {
        heap.push_ref(arr, arr);
    }
    let t = gc.alloc_young(
        &mut heap,
        &roots,
        ObjKind::Tuple,
        MemTag::None,
        vec![],
        Payload::Long(7),
    );
    heap.push_ref(arr, t);
    gc.major_gc(&mut heap, &roots);
    // The card holding slot 200 (not just the header card) must be dirty.
    let slot_addr = heap.obj(arr).slot_addr(200);
    let header_addr = heap.obj(arr).addr;
    let table = heap.card_table(nvm);
    assert_ne!(
        table.card_of(slot_addr),
        table.card_of(header_addr),
        "test must place the reference on a non-header card"
    );
    assert!(
        table.is_dirty(table.card_of(slot_addr)),
        "the referencing slot's card must be re-dirtied after major GC"
    );
    // And the card scan of the next minor GC must therefore keep the
    // young target (reachable only through the old array) alive.
    gc.minor_gc(&mut heap, &roots);
    assert!(heap.is_live(t), "young target reachable only via the card");
    heap.verify(&roots, VerifyPoint::Manual).unwrap();
}
