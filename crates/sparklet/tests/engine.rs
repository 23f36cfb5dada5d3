//! End-to-end engine tests: small programs run over a real heap + GC with
//! the Panthera policy, checking both computed answers and memory effects.

use gc::{GcCoordinator, MemoryMode};
use hybridmem::MemorySystemConfig;
use mheap::{Heap, HeapConfig, Payload, RootSet, SpaceId};
use panthera_analysis::{analyze, InstrumentationPlan};
use sparklang::ast::{MemoryTag, Program};
use sparklang::{ActionKind, ProgramBuilder, StorageLevel};
use sparklet::{
    ActionResult, DataRegistry, Engine, EngineConfig, PantheraRuntime, RunOutcome, StageCursor,
};

/// The production runtime in Panthera mode over a `heap_bytes` heap, one
/// third DRAM. Its wait-state threshold is 0, so every tagged backbone
/// array is placed in its tagged space.
fn runtime(heap_bytes: u64) -> PantheraRuntime {
    let dram = heap_bytes / 3;
    let heap = Heap::new(
        HeapConfig::panthera(heap_bytes, 1.0 / 3.0),
        MemorySystemConfig::with_capacities(dram, heap_bytes - dram),
    )
    .unwrap();
    PantheraRuntime::new(heap, GcCoordinator::new(MemoryMode::Panthera.into()), 0)
}

fn engine_with(data: DataRegistry, fns: sparklang::FnTable) -> Engine {
    Engine::with_config(runtime(2_000_000), fns, data, EngineConfig::default())
}

/// Run `p` under `plan` to completion: start a [`StageCursor`] over `e`,
/// step it until no stage remains, and finish it.
fn run(e: Engine, p: &Program, plan: &InstrumentationPlan) -> (Engine, RunOutcome) {
    let mut cursor = StageCursor::new(e, p.clone(), plan.clone()).expect("well-formed program");
    while cursor
        .step()
        .expect("an engine without a cluster context never fails")
    {}
    cursor.finish()
}

fn long_records(values: &[i64]) -> Vec<Payload> {
    values.iter().map(|v| Payload::Long(*v)).collect()
}

#[test]
fn map_and_count() {
    let mut b = ProgramBuilder::new("t");
    let double = b.map_fn(|p| Payload::Long(p.as_long().unwrap() * 2));
    let src = b.source("nums");
    let x = b.bind("x", src.map(double));
    b.action(x, ActionKind::Collect);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[1, 2, 3]));
    let (_, out) = run(engine_with(data, fns), &p, &analyze(&p).plan);
    let collected = out.results[0].1.as_collected().unwrap();
    assert_eq!(collected, long_records(&[2, 4, 6]));
    assert_eq!(out.stats.actions, 1);
}

#[test]
fn filter_and_flatmap() {
    let mut b = ProgramBuilder::new("t");
    let odd = b.filter_fn(|p| p.as_long().unwrap() % 2 == 1);
    let dup = b.flat_map_fn(|p| vec![p.clone(), p.clone()]);
    let src = b.source("nums");
    let x = b.bind("x", src.filter(odd).flat_map(dup));
    b.action(x, ActionKind::Count);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[1, 2, 3, 4, 5]));
    let (_, out) = run(engine_with(data, fns), &p, &Default::default());
    assert_eq!(
        out.results[0].1.as_count(),
        Some(6),
        "3 odd numbers duplicated"
    );
}

#[test]
fn reduce_by_key_through_shuffle() {
    let mut b = ProgramBuilder::new("t");
    let add = b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap() + c.as_long().unwrap()));
    let src = b.source("pairs");
    let x = b.bind("x", src.reduce_by_key(add));
    b.action(x, ActionKind::Collect);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register(
        "pairs",
        vec![
            Payload::keyed(1, Payload::Long(10)),
            Payload::keyed(2, Payload::Long(1)),
            Payload::keyed(1, Payload::Long(5)),
        ],
    );
    let (_, out) = run(engine_with(data, fns), &p, &Default::default());
    let collected = out.results[0].1.as_collected().unwrap();
    assert_eq!(
        collected,
        &[
            Payload::keyed(1, Payload::Long(15)),
            Payload::keyed(2, Payload::Long(1))
        ]
    );
    assert_eq!(out.stats.shuffles, 1);
    assert!(out.stats.shuffle_bytes > 0);
}

/// K-Means' in-place reducer over values that share storage with
/// persisted RDDs. The map-side fold moves each key's first value into its
/// accumulator (a fused chain's output, or an unfused stage's) or
/// shallow-copies it (a persisted RDD's records), and copy-on-write must
/// still copy the shared vector at the first in-place merge: every
/// iteration sums the same points, and the persisted records read the same
/// after the last one.
#[test]
fn in_place_reducer_leaves_persisted_records_unchanged() {
    let point = |i: usize| vec![i as f64 - 5.5, 1.0, (i * i) as f64];
    let cluster = |x: &[f64]| i64::from(x[0] > 0.0);
    let assigned = |x: &[f64]| {
        Payload::keyed(
            cluster(x),
            Payload::pair(Payload::doubles(x.to_vec()), Payload::Long(1)),
        )
    };
    let n = 12;
    let mut sums = [(vec![0.0; 3], 0i64), (vec![0.0; 3], 0i64)];
    for i in 0..n {
        let x = point(i);
        let (sum, count) = &mut sums[cluster(&x) as usize];
        for (s, v) in sum.iter_mut().zip(&x) {
            *s += v;
        }
        *count += 1;
    }
    let expect: Vec<Payload> = sums
        .iter()
        .enumerate()
        .map(|(c, (sum, count))| {
            Payload::keyed(
                c as i64,
                Payload::pair(Payload::doubles(sum.clone()), Payload::Long(*count)),
            )
        })
        .collect();
    for fuse_narrow in [true, false] {
        let mut b = ProgramBuilder::new("t");
        let assign = b.map_fn(move |p| {
            let Payload::Doubles(x) = p else {
                panic!("expected a point, got {p:?}")
            };
            // The sum vector shares the cached point's storage.
            Payload::keyed(
                cluster(x),
                Payload::pair(Payload::Doubles(x.clone()), Payload::Long(1)),
            )
        });
        let merge = b.reduce_fn(|mut acc, c| {
            let (Payload::Doubles(vc), nc) = c.as_pair().unwrap() else {
                panic!("expected (sum, count)");
            };
            let (sum, n) = acc.pair_mut().unwrap();
            for (x, y) in sum.doubles_mut().unwrap().iter_mut().zip(vc.iter()) {
                *x += y;
            }
            *n = Payload::Long(n.as_long().unwrap() + nc.as_long().unwrap());
            acc
        });
        let src = b.source("points");
        let pts = b.bind("points", src);
        b.persist(pts, StorageLevel::MemoryOnly);
        let pairs = b.bind("pairs", b.var(pts).map(assign));
        b.persist(pairs, StorageLevel::MemoryOnly);
        b.loop_n(3, |b| {
            let chained = b.bind("chained", b.var(pts).map(assign).reduce_by_key(merge));
            b.action(chained, ActionKind::Collect);
            let direct = b.bind("direct", b.var(pairs).reduce_by_key(merge));
            b.action(direct, ActionKind::Collect);
        });
        let (p, fns) = b.finish();

        let mut data = DataRegistry::new();
        data.register(
            "points",
            (0..n).map(|i| Payload::doubles(point(i))).collect(),
        );
        let config = EngineConfig {
            fuse_narrow,
            ..EngineConfig::default()
        };
        let e = Engine::with_config(runtime(2_000_000), fns, data, config);
        let (e, out) = run(e, &p, &analyze(&p).plan);
        assert_eq!(out.results.len(), 6);
        for (name, result) in &out.results {
            assert_eq!(
                result.as_collected().unwrap(),
                &expect[..],
                "{name}, fuse_narrow {fuse_narrow}"
            );
        }
        let persisted = |label: &str| {
            let node = e.rdds().iter().find(|n| n.label.as_deref() == Some(label));
            node.and_then(|n| n.materialized.as_ref())
                .unwrap()
                .records
                .clone()
        };
        let points: Vec<Payload> = (0..n).map(|i| Payload::doubles(point(i))).collect();
        assert_eq!(*persisted("points"), points, "fuse_narrow {fuse_narrow}");
        let pairs: Vec<Payload> = (0..n).map(|i| assigned(&point(i))).collect();
        assert_eq!(*persisted("pairs"), pairs, "fuse_narrow {fuse_narrow}");
    }
}

#[test]
fn join_distinct_and_union() {
    let mut b = ProgramBuilder::new("t");
    let sa = b.source("a");
    let sb = b.source("b");
    let a = b.bind("a", sa);
    let bb = b.bind("b", sb);
    let j = b.bind("j", b.var(a).join(b.var(bb)));
    b.action(j, ActionKind::Count);
    let u = b.bind("u", b.var(a).union(b.var(bb)).distinct());
    b.action(u, ActionKind::Count);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register(
        "a",
        vec![
            Payload::keyed(1, Payload::Long(10)),
            Payload::keyed(2, Payload::Long(20)),
        ],
    );
    data.register(
        "b",
        vec![
            Payload::keyed(1, Payload::Long(100)),
            Payload::keyed(1, Payload::Long(10)),
        ],
    );
    let (_, out) = run(engine_with(data, fns), &p, &Default::default());
    assert_eq!(out.results[0].1.as_count(), Some(2), "key 1 joins 1x2");
    // union = 4 records, distinct removes the duplicate (1,10).
    assert_eq!(out.results[1].1.as_count(), Some(3));
}

#[test]
fn persisted_rdd_lands_in_tagged_space() {
    // A persisted, loop-read RDD gets DRAM from the analysis and its
    // backbone array is pretenured in the DRAM old space.
    let mut b = ProgramBuilder::new("t");
    let src = b.source("nums");
    let x = b.bind("x", src.distinct());
    b.persist(x, StorageLevel::MemoryOnly);
    b.loop_n(3, |b| {
        b.action(x, ActionKind::Count);
    });
    let (p, fns) = b.finish();
    let report = analyze(&p);
    assert_eq!(report.tags.tag(x), Some(MemoryTag::Dram));

    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[5, 6, 7, 6]));
    let (e, out) = run(engine_with(data, fns), &p, &report.plan);
    assert_eq!(out.results.len(), 3);
    assert!(out.results.iter().all(|(_, r)| r.as_count() == Some(3)));

    // Find the persisted node and check its array's space.
    let node = e.rdds().iter().find(|n| n.persisted.is_some()).unwrap();
    assert_eq!(node.tag, Some(MemoryTag::Dram));
    let mat = node.materialized.clone().unwrap();
    let dram = e.runtime().heap().old_dram().unwrap();
    for array in &mat.arrays {
        assert_eq!(e.runtime().heap().obj(*array).space, SpaceId::Old(dram));
    }
}

#[test]
fn nvm_tagged_rdd_pretenures_in_nvm() {
    // Defined-in-loop persists get NVM; their arrays go to old-gen NVM.
    let mut b = ProgramBuilder::new("t");
    let inc = b.map_fn(|p| Payload::Long(p.as_long().unwrap() + 1));
    let keep = b.map_fn(|p| p.clone());
    let src = b.source("nums");
    let stable = b.bind("stable", src);
    b.persist(stable, StorageLevel::MemoryOnly);
    let x = b.bind("x", b.var(stable).map(keep));
    b.loop_n(3, |b| {
        let e = b.var(x).map(inc);
        b.rebind(x, e);
        b.persist(x, StorageLevel::MemoryOnly);
        b.action(stable, ActionKind::Count); // keeps `stable` used-only => DRAM
    });
    let (p, fns) = b.finish();
    let report = analyze(&p);
    assert_eq!(report.tags.tag(x), Some(MemoryTag::Nvm));
    assert_eq!(report.tags.tag(stable), Some(MemoryTag::Dram));

    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[0; 16]));
    let (e, _) = run(engine_with(data, fns), &p, &report.plan);

    let nvm = e.runtime().heap().old_nvm().unwrap();
    let x_nodes: Vec<_> = e
        .rdds()
        .iter()
        .filter(|n| n.label.as_deref() == Some("x") && n.materialized.is_some())
        .collect();
    assert!(!x_nodes.is_empty());
    for n in x_nodes {
        let mat = n.materialized.clone().unwrap();
        for array in &mat.arrays {
            assert_eq!(
                e.runtime().heap().obj(*array).space,
                SpaceId::Old(nvm),
                "iteration instance of x pretenured in NVM"
            );
        }
    }
}

#[test]
fn lineage_backprop_tags_shuffled_rdds() {
    // contribs-like pattern: persist(NVM) of a chain ending in a shuffle.
    let mut b = ProgramBuilder::new("t");
    let add = b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap() + c.as_long().unwrap()));
    let keep = b.map_fn(|p| p.clone());
    let src = b.source("pairs");
    let base = b.bind("base", src);
    b.persist(base, StorageLevel::MemoryOnly);
    let x = b.bind("x", b.var(base).map(keep));
    b.loop_n(2, |b| {
        let e = b.var(x).reduce_by_key(add).map_values(keep);
        b.rebind(x, e);
        b.persist(x, StorageLevel::MemoryOnly);
        // base stays used-only in the loop => DRAM, so the all-NVM flip
        // does not fire and x keeps its NVM tag.
        b.action(base, ActionKind::Count);
    });
    let (p, fns) = b.finish();
    let report = analyze(&p);
    assert_eq!(report.tags.tag(x), Some(MemoryTag::Nvm));

    let mut data = DataRegistry::new();
    data.register("pairs", vec![Payload::keyed(1, Payload::Long(1))]);
    let (e, _) = run(engine_with(data, fns), &p, &report.plan);

    // Every ShuffledRDD instance produced inside the loop must have
    // received the NVM tag through backward propagation.
    let shuffled: Vec<_> = e.rdds().iter().filter(|n| n.is_wide()).collect();
    assert!(!shuffled.is_empty());
    for n in shuffled {
        assert_eq!(n.tag, Some(MemoryTag::Nvm), "{} missed propagation", n.id);
    }
}

#[test]
fn unpersist_releases_heap_objects() {
    let mut b = ProgramBuilder::new("t");
    let src = b.source("nums");
    let x = b.bind("x", src.distinct());
    b.persist(x, StorageLevel::MemoryOnly);
    b.action(x, ActionKind::Count);
    b.unpersist(x);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[1, 2, 3]));
    let (mut e, _) = run(engine_with(data, fns), &p, &Default::default());

    // After unpersist, a full collection reclaims the RDD's objects.
    let roots = RootSet::new();
    let rt = e.runtime_mut();
    let before = rt.heap().live_objects();
    rt.force_major(&roots);
    rt.minor_gc(&roots);
    assert!(rt.heap().live_objects() < before);
    assert_eq!(rt.heap().live_objects(), 0, "nothing is rooted anymore");
}

#[test]
fn disk_only_persist_touches_no_heap_array() {
    let mut b = ProgramBuilder::new("t");
    let src = b.source("nums");
    let x = b.bind("x", src.distinct());
    b.persist(x, StorageLevel::DiskOnly);
    b.action(x, ActionKind::Count);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[1, 2, 2]));
    let (e, out) = run(engine_with(data, fns), &p, &analyze(&p).plan);
    assert_eq!(out.results[0].1.as_count(), Some(2));
    let node = e.rdds().iter().find(|n| n.persisted.is_some()).unwrap();
    assert!(
        node.materialized.is_none(),
        "DISK_ONLY stores no heap objects"
    );
}

#[test]
fn off_heap_persist_charges_nvm_traffic() {
    let mut b = ProgramBuilder::new("t");
    let src = b.source("nums");
    let x = b.bind("x", src.distinct());
    b.persist(x, StorageLevel::OffHeap);
    b.action(x, ActionKind::Count);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[1, 2, 3]));
    let e = engine_with(data, fns);
    let nvm_before = e
        .runtime()
        .heap()
        .mem()
        .stats()
        .total_device_bytes(hybridmem::DeviceKind::Nvm);
    let (e, out) = run(e, &p, &analyze(&p).plan);
    assert_eq!(out.results[0].1.as_count(), Some(3));
    let nvm_after = e
        .runtime()
        .heap()
        .mem()
        .stats()
        .total_device_bytes(hybridmem::DeviceKind::Nvm);
    assert!(nvm_after > nvm_before, "off-heap data lives in native NVM");
}

#[test]
fn iterative_program_reclaims_transients() {
    // A loop of shuffles must not leak ShuffledRDD materializations.
    let mut b = ProgramBuilder::new("t");
    let add = b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap() + c.as_long().unwrap()));
    let src = b.source("pairs");
    let x = b.bind("x", src);
    b.persist(x, StorageLevel::MemoryOnly);
    b.loop_n(5, |b| {
        let y = b.bind("y", b.var(x).reduce_by_key(add));
        b.action(y, ActionKind::Count);
    });
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register(
        "pairs",
        (0..64)
            .map(|i| Payload::keyed(i % 8, Payload::Long(i)))
            .collect(),
    );
    let (mut e, out) = run(engine_with(data, fns), &p, &Default::default());
    assert_eq!(out.stats.shuffles, 5);
    // Only the persisted x should still be materialized.
    let live_mats = e.rdds().iter().filter(|n| n.materialized.is_some()).count();
    assert_eq!(live_mats, 1);
    // And a GC drops everything not reachable from x's top.
    let mat = e
        .rdds()
        .iter()
        .find(|n| n.materialized.is_some())
        .unwrap()
        .materialized
        .clone()
        .unwrap();
    let n_arrays = mat.arrays.len();
    let mut roots = RootSet::new();
    roots.push(mat.top);
    let rt = e.runtime_mut();
    rt.force_major(&roots);
    rt.minor_gc(&roots);
    // x's top + partition arrays + 64 tuples survive.
    assert_eq!(rt.heap().live_objects(), 1 + n_arrays + 64);
}

#[test]
fn reduce_action_folds() {
    let mut b = ProgramBuilder::new("t");
    let add = b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap() + c.as_long().unwrap()));
    let src = b.source("nums");
    let x = b.bind("x", src);
    b.action(x, ActionKind::Reduce(add));
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[1, 2, 3, 4]));
    let (_, out) = run(engine_with(data, fns), &p, &Default::default());
    assert_eq!(
        out.results[0].1,
        ActionResult::Reduced(Some(Payload::Long(10)))
    );
}

#[test]
fn monitored_calls_accumulate() {
    let mut b = ProgramBuilder::new("t");
    let keep = b.map_fn(|p| p.clone());
    let src = b.source("nums");
    let x = b.bind("x", src);
    b.persist(x, StorageLevel::MemoryOnly);
    b.loop_n(4, |b| {
        let y = b.bind("y", b.var(x).map(keep));
        b.action(y, ActionKind::Count);
    });
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[1]));
    let (e, _) = run(engine_with(data, fns), &p, &Default::default());
    // Per iteration: one call on x (map) + one on y (count) = 8 total.
    assert_eq!(e.runtime().monitored_calls(), 8);
}

#[test]
fn serialized_persist_stores_compact_buffers() {
    let mut b = ProgramBuilder::new("t");
    let src = b.source("nums");
    let x = b.bind("x", src.distinct());
    b.persist(x, StorageLevel::MemoryOnlySer);
    b.action(x, ActionKind::Count);
    b.action(x, ActionKind::Collect);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[4, 5, 6, 5]));
    let (e, out) = run(engine_with(data, fns), &p, &Default::default());
    assert_eq!(out.results[0].1.as_count(), Some(3));
    assert_eq!(out.results[1].1.as_collected().unwrap().len(), 3);

    let node = e.rdds().iter().find(|n| n.persisted.is_some()).unwrap();
    let mat = node.materialized.clone().unwrap();
    assert!(mat.serialized);
    // The buffers carry no tuple refs — records live serialized.
    for a in &mat.arrays {
        assert!(e.runtime().heap().obj(*a).refs.is_empty());
    }
}

#[test]
fn serialized_form_is_smaller_than_deserialized() {
    let build = |level: StorageLevel| {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("nums");
        let x = b.bind("x", src.distinct());
        b.persist(x, level);
        b.action(x, ActionKind::Count);
        let (p, fns) = b.finish();
        let mut data = DataRegistry::new();
        data.register("nums", long_records(&(0..512).collect::<Vec<i64>>()));
        let (e, _) = run(engine_with(data, fns), &p, &Default::default());
        let node = e.rdds().iter().find(|n| n.persisted.is_some()).unwrap();
        let mat = node.materialized.clone().unwrap();
        let heap = e.runtime().heap();
        // Size of everything reachable from the arrays.
        let mut bytes: u64 = 0;
        for a in &mat.arrays {
            bytes += heap.obj(*a).size;
            for t in &heap.obj(*a).refs {
                bytes += heap.obj(*t).size;
            }
        }
        bytes
    };
    let deser = build(StorageLevel::MemoryOnly);
    let ser = build(StorageLevel::MemoryOnlySer);
    assert!(
        ser * 2 < deser,
        "serialized ({ser}B) should be far smaller than deserialized ({deser}B)"
    );
}

#[test]
fn serialized_results_match_deserialized() {
    let run_level = |level: StorageLevel| {
        let mut b = ProgramBuilder::new("t");
        let add = b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap() + c.as_long().unwrap()));
        let src = b.source("pairs");
        let x = b.bind("x", src.reduce_by_key(add));
        let y = b.bind("y", b.var(x).values());
        b.persist(y, level);
        b.action(y, ActionKind::Collect);
        let (p, fns) = b.finish();
        let mut data = DataRegistry::new();
        data.register(
            "pairs",
            (0..64)
                .map(|i| Payload::keyed(i % 8, Payload::Long(i)))
                .collect(),
        );
        run(engine_with(data, fns), &p, &Default::default())
            .1
            .results
    };
    assert_eq!(
        run_level(StorageLevel::MemoryOnly),
        run_level(StorageLevel::MemoryAndDiskSer)
    );
}

#[test]
fn sort_by_key_through_engine() {
    let mut b = ProgramBuilder::new("t");
    let src = b.source("pairs");
    let x = b.bind("x", src.sort_by_key());
    b.action(x, ActionKind::Collect);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register(
        "pairs",
        vec![
            Payload::keyed(9, Payload::Long(90)),
            Payload::keyed(2, Payload::Long(20)),
            Payload::keyed(5, Payload::Long(50)),
        ],
    );
    let (_, out) = run(engine_with(data, fns), &p, &Default::default());
    let keys: Vec<i64> = out.results[0]
        .1
        .as_collected()
        .unwrap()
        .iter()
        .map(|r| r.as_pair().unwrap().0.as_long().unwrap())
        .collect();
    assert_eq!(keys, vec![2, 5, 9]);
    assert_eq!(out.stats.shuffles, 1, "sortByKey shuffles");
}

#[test]
fn sample_is_deterministic_and_proportional() {
    let run_sample = |seed: u64| {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("nums");
        let x = b.bind("x", src.sample(0.25, seed));
        b.action(x, ActionKind::Count);
        let (p, fns) = b.finish();
        let mut data = DataRegistry::new();
        data.register("nums", (0..4_000).map(Payload::Long).collect());
        let (_, out) = run(engine_with(data, fns), &p, &Default::default());
        out.results[0].1.as_count().unwrap()
    };
    let a = run_sample(1);
    assert_eq!(a, run_sample(1), "same seed, same sample");
    assert_ne!(a, run_sample(2), "different seed, different sample");
    assert!((800..1200).contains(&a), "roughly a quarter kept: {a}");
}

#[test]
fn empty_source_flows_through_everything() {
    let mut b = ProgramBuilder::new("t");
    let add = b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap() + c.as_long().unwrap()));
    let keep = b.map_fn(|p| p.clone());
    let src = b.source("empty");
    let x = b.bind("x", src.map(keep).distinct().reduce_by_key(add));
    b.persist(x, StorageLevel::MemoryOnly);
    b.action(x, ActionKind::Count);
    b.action(x, ActionKind::Collect);
    b.action(x, ActionKind::Reduce(add));
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register("empty", vec![]);
    let (_, out) = run(engine_with(data, fns), &p, &Default::default());
    assert_eq!(out.results[0].1.as_count(), Some(0));
    assert_eq!(out.results[1].1.as_collected().unwrap().len(), 0);
    assert_eq!(out.results[2].1, ActionResult::Reduced(None));
}

#[test]
fn filter_all_out_is_fine() {
    let mut b = ProgramBuilder::new("t");
    let none = b.filter_fn(|_| false);
    let src = b.source("nums");
    let x = b.bind("x", src.filter(none));
    b.persist(x, StorageLevel::MemoryOnly);
    b.action(x, ActionKind::Count);
    let (p, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[1, 2, 3]));
    let (_, out) = run(engine_with(data, fns), &p, &Default::default());
    assert_eq!(out.results[0].1.as_count(), Some(0));
}

#[test]
fn nested_loops_execute_inner_times_outer() {
    let mut b = ProgramBuilder::new("t");
    let src = b.source("nums");
    let x = b.bind("x", src);
    b.loop_n(3, |b| {
        b.loop_n(2, |b| {
            b.action(x, ActionKind::Count);
        });
        b.action(x, ActionKind::Count);
    });
    let (p, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[1]));
    let (_, out) = run(engine_with(data, fns), &p, &Default::default());
    assert_eq!(out.results.len(), 3 * 2 + 3);
    assert!(out.results.iter().all(|(_, r)| r.as_count() == Some(1)));
}

#[test]
fn diamond_lineage_reuses_one_materialization() {
    // base feeds both sides of a join: it must materialize once (persist)
    // and be read twice, not recomputed.
    let mut b = ProgramBuilder::new("t");
    let swap = b.map_fn(|r| {
        let (k, v) = r.as_pair().unwrap();
        Payload::pair(v.clone(), k.clone())
    });
    let src = b.source("pairs");
    let base = b.bind("base", src);
    b.persist(base, StorageLevel::MemoryOnly);
    let j = b.bind("j", b.var(base).join(b.var(base).map(swap)));
    b.action(j, ActionKind::Count);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register(
        "pairs",
        vec![
            Payload::keyed(1, Payload::Long(2)),
            Payload::keyed(2, Payload::Long(1)),
        ],
    );
    let (_, out) = run(engine_with(data, fns), &p, &Default::default());
    // base=(1->2),(2->1); swapped=(2->1),(1->2); join on keys 1 and 2: 2 rows.
    assert_eq!(out.results[0].1.as_count(), Some(2));
    // Materializations: base (persist) + the join's ShuffledRDD + the
    // action target is the join itself (already materialized).
    assert_eq!(out.stats.materializations, 2);
}

#[test]
fn deep_narrow_chains_stream_once() {
    let mut b = ProgramBuilder::new("t");
    let inc = b.map_fn(|p| Payload::Long(p.as_long().unwrap() + 1));
    let src = b.source("nums");
    let mut expr = src;
    for _ in 0..32 {
        expr = expr.map(inc);
    }
    let x = b.bind("x", expr);
    b.action(x, ActionKind::Collect);
    let (p, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[0, 10]));
    let (_, out) = run(engine_with(data, fns), &p, &Default::default());
    assert_eq!(
        out.results[0].1.as_collected().unwrap(),
        &long_records(&[32, 42])[..]
    );
    // 2 records x (32 maps + 1 source parse) + transient action target.
    assert_eq!(out.stats.records_streamed, 2 * 33);
}

#[test]
fn action_directly_on_source() {
    let mut b = ProgramBuilder::new("t");
    let src = b.source("nums");
    let x = b.bind("x", src);
    b.action(x, ActionKind::Count);
    let (p, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[7; 10]));
    let (_, out) = run(engine_with(data, fns), &p, &Default::default());
    assert_eq!(out.results[0].1.as_count(), Some(10));
}

/// An engine over a deliberately tiny heap, to force evictions.
fn tiny_engine(data: DataRegistry, fns: sparklang::FnTable) -> Engine {
    Engine::with_config(runtime(400_000), fns, data, EngineConfig::default())
}

#[test]
fn memory_pressure_spills_memory_and_disk_blocks() {
    // Three fat persisted RDDs that cannot all fit the old generation:
    // the oldest MEMORY_AND_DISK block must spill, and later reads must
    // still see its records.
    let mut b = ProgramBuilder::new("t");
    let mut vars = Vec::new();
    for i in 0..3 {
        let src = b.source(&format!("s{i}"));
        let v = b.bind(&format!("v{i}"), src);
        b.persist(v, StorageLevel::MemoryAndDisk);
        vars.push(v);
    }
    for v in &vars {
        b.action(*v, ActionKind::Count);
    }
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    for i in 0..3 {
        data.register(
            &format!("s{i}"),
            (0..900)
                .map(|k| Payload::keyed(k, Payload::doubles(vec![i as f64; 24])))
                .collect(),
        );
    }
    let (_, out) = run(tiny_engine(data, fns), &p, &Default::default());
    assert!(out.stats.evictions > 0, "pressure must evict");
    for (_, r) in &out.results {
        assert_eq!(r.as_count(), Some(900), "spilled block still readable");
    }
}

#[test]
fn memory_only_blocks_are_dropped_and_recomputed() {
    let mut b = ProgramBuilder::new("t");
    let mut vars = Vec::new();
    for i in 0..4 {
        let src = b.source(&format!("s{i}"));
        let v = b.bind(&format!("v{i}"), src);
        b.persist(v, StorageLevel::MemoryOnly);
        vars.push(v);
    }
    for v in &vars {
        b.action(*v, ActionKind::Count);
    }
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    for i in 0..4 {
        data.register(
            &format!("s{i}"),
            (0..650)
                .map(|k| Payload::keyed(k, Payload::doubles(vec![i as f64; 16])))
                .collect(),
        );
    }
    let (_, out) = run(tiny_engine(data, fns), &p, &Default::default());
    assert!(out.stats.evictions > 0, "pressure must evict");
    // The full collection after each eviction frees enough space that
    // the loop stops before dropping every block.
    assert!(out.stats.evictions < 4, "evicted {}", out.stats.evictions);
    // Dropped MEMORY_ONLY blocks recompute from their lineage on access.
    for (_, r) in &out.results {
        assert_eq!(r.as_count(), Some(650));
    }
}

/// A program exercising every statement kind the cursor must replay:
/// binds, persist/unpersist, checkpoint, actions, nested loops.
fn cursor_program() -> (sparklang::ast::Program, sparklang::FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("cursor");
    let inc = b.map_fn(|p| Payload::Long(p.as_long().unwrap() + 1));
    let src = b.source("nums");
    let x = b.bind("x", src.map(inc));
    b.persist(x, StorageLevel::MemoryOnly);
    b.checkpoint(x);
    b.loop_n(3, |b| {
        let y = b.bind("y", b.var(x).map(inc));
        b.action(y, ActionKind::Count);
        b.loop_n(2, |b| {
            b.action(x, ActionKind::Collect);
        });
    });
    b.unpersist(x);
    b.action(x, ActionKind::Count);
    let (p, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[1, 2, 3, 4]));
    (p, fns, data)
}

#[test]
fn cursor_stage_count_unrolls_loops() {
    let (p, fns, data) = cursor_program();
    let plan = analyze(&p).plan;
    let mut cursor = StageCursor::new(engine_with(data, fns), p, plan).unwrap();
    // Top level: bind, persist, checkpoint, loop(enter+exit), unpersist,
    // action = 5 simple + 2 loop markers. Outer body per iteration: bind,
    // action, inner loop enter+exit + 2 inner actions. 3 outer iters.
    let outer_body = 2 + 2 + 2;
    let total = cursor.total_stages();
    assert_eq!(total, 7 + 3 * outer_body);
    let mut steps = 0usize;
    while cursor.step().unwrap() {
        steps += 1;
    }
    assert_eq!(steps, total);
    assert!(cursor.is_done());
    assert_eq!(
        cursor.step(),
        Ok(false),
        "step after completion must be a no-op"
    );
    let (_, out) = cursor.finish();
    // One Count + two Collects per outer iteration, plus the final Count.
    assert_eq!(out.results.len(), 3 * 3 + 1);
}

#[test]
fn cursor_refuses_an_ill_formed_program() {
    // `Program`'s fields are public, so not every program comes out of
    // the builder: this one reads `b` before binding it.
    use sparklang::ast::{RddExpr, Stmt, VarId};
    let p = Program {
        name: "use-before-def".into(),
        stmts: vec![
            Stmt::Bind {
                var: VarId(0),
                expr: RddExpr::Var(VarId(1)),
            },
            Stmt::Bind {
                var: VarId(1),
                expr: RddExpr::Source("nums".into()),
            },
        ],
        var_names: vec!["a".into(), "b".into()],
        n_funcs: 0,
    };
    let mut data = DataRegistry::new();
    data.register("nums", long_records(&[1, 2, 3]));
    let engine = engine_with(data, sparklang::FnTable::new());
    let started = StageCursor::new(engine, p, Default::default());
    assert_eq!(
        started.err(),
        Some(sparklang::ValidateProgramError::UseBeforeDef(VarId(1)))
    );
}

#[test]
fn h2_and_arenas_share_one_block_table_that_drains() {
    // Both storage switches on: persists become H2 blocks, temporaries
    // bump the stage scratch arena, and both live in one table. The
    // persisted shuffle output reaches its block through a scratch copy.
    let mut b = ProgramBuilder::new("t");
    let add = b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap() + c.as_long().unwrap()));
    let src = b.source("pairs");
    let x = b.bind("x", src.reduce_by_key(add));
    b.persist(x, StorageLevel::MemoryOnly);
    let y = b.bind("y", b.var(x).values());
    b.persist(y, StorageLevel::MemoryOnlySer);
    b.action(x, ActionKind::Count);
    b.action(y, ActionKind::Collect);
    b.action(x, ActionKind::Count);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register(
        "pairs",
        (0..40)
            .map(|k| Payload::keyed(k % 7, Payload::Long(k)))
            .collect(),
    );
    let config = EngineConfig {
        offheap_cache: true,
        region_alloc: true,
        ..Default::default()
    };
    let (e, out) = run(
        Engine::with_config(runtime(2_000_000), fns, data, config),
        &p,
        &analyze(&p).plan,
    );
    assert_eq!(out.results[0].1.as_count(), Some(7));
    assert_eq!(out.results[1].1.as_collected().map(<[_]>::len), Some(7));
    let s = out.stats;
    assert_eq!(s.offheap_allocs, 2, "both persists become H2 blocks");
    assert_eq!(s.offheap_frees, s.offheap_allocs);
    assert_eq!(s.offheap_leaks + s.offheap_dead_reads, 0);
    assert_eq!(s.region_allocs, 0, "H2 takes persists when both are on");
    assert!(s.region_stage_bytes > 0, "temporaries still bump scratch");
    let blocks = e.blocks();
    assert_eq!(blocks.live_blocks(), 0, "the table is empty after run");
    assert_eq!(blocks.total_resident_bytes(), 0);
    assert!(!blocks.stage_open());
    blocks.check_invariants().unwrap();
}
