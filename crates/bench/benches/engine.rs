//! Micro-benchmarks of the execution engine: streaming, shuffles, and
//! materialized reads through the simulated heap.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use mheap::{Payload, WireBatch};
use panthera::{MemoryMode, SystemConfig, SIM_GB};
use panthera_analysis::analyze;
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder, StorageLevel, Transform};
use sparklet::{
    reduce_owned, reduce_side, Buckets, DataRegistry, Engine, EngineConfig, Owner, RunOutcome,
    ShuffleContrib, ShuffleGather, StageCursor,
};
use std::hint::black_box;

fn stream_program(n_maps: u32) -> (Program, FnTable) {
    let mut b = ProgramBuilder::new("stream");
    let inc = b.map_fn(|p| Payload::Long(p.as_long().unwrap_or(0) + 1));
    let src = b.source("nums");
    let mut e = src;
    for _ in 0..n_maps {
        e = e.map(inc);
    }
    let x = b.bind("x", e);
    b.action(x, ActionKind::Count);
    b.finish()
}

fn shuffle_program() -> (Program, FnTable) {
    let mut b = ProgramBuilder::new("shuffle");
    let add =
        b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap_or(0) + c.as_long().unwrap_or(0)));
    let src = b.source("pairs");
    let x = b.bind("x", src.reduce_by_key(add));
    b.persist(x, StorageLevel::MemoryOnly);
    b.action(x, ActionKind::Count);
    b.finish()
}

/// Run `program` to completion on `e` under its analyzed plan: start a
/// [`StageCursor`], step it until no stage remains, and finish it.
fn run(e: Engine, program: Program) -> RunOutcome {
    let plan = analyze(&program).plan;
    let mut cursor = StageCursor::new(e, program, plan).expect("well-formed program");
    while cursor
        .step()
        .expect("an engine without a cluster context never fails")
    {}
    cursor.finish().1
}

fn engine() -> impl FnMut(Program, FnTable, DataRegistry) -> u64 {
    move |program, fns, data| {
        let cfg = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
        let rt = cfg.runtime().expect("valid config");
        let e = Engine::with_config(rt, fns, data, cfg.engine_config());
        run(e, program).stats.records_streamed
    }
}

fn bench_streaming(c: &mut Criterion) {
    c.bench_function("engine/stream_4_maps_x_4k_records", |b| {
        let mut run = engine();
        b.iter_batched(
            || {
                let (p, fns) = stream_program(4);
                let mut data = DataRegistry::new();
                data.register("nums", (0..4_096).map(Payload::Long).collect());
                (p, fns, data)
            },
            |(p, fns, data)| black_box(run(p, fns, data)),
            BatchSize::SmallInput,
        );
    });
}

fn bench_shuffle(c: &mut Criterion) {
    c.bench_function("engine/shuffle_4k_records_64_keys", |b| {
        let mut run = engine();
        b.iter_batched(
            || {
                let (p, fns) = shuffle_program();
                let mut data = DataRegistry::new();
                data.register(
                    "pairs",
                    (0..4_096)
                        .map(|i| Payload::keyed(i % 64, Payload::Long(i)))
                        .collect(),
                );
                (p, fns, data)
            },
            |(p, fns, data)| black_box(run(p, fns, data)),
            BatchSize::SmallInput,
        );
    });
}

fn pair_pipeline_program(n_maps: u32) -> (Program, FnTable) {
    let mut b = ProgramBuilder::new("pipeline");
    // Structure-preserving map: every handoff moves a composite record,
    // so the Rc-vs-deep-copy difference is what gets measured.
    let keep = b.map_fn(|p| p.clone());
    let src = b.source("pairs");
    let mut e = src;
    for _ in 0..n_maps {
        e = e.map(keep);
    }
    let x = b.bind("x", e);
    b.action(x, ActionKind::Count);
    b.finish()
}

/// The pipeline's two execution modes over one narrow chain of eight
/// maps on composite (pair-of-doubles) records:
///
/// * `fused` — the default engine (single streaming pass);
/// * `unfused` — the stage-at-a-time reference path.
///
/// Both report bit-identical simulated results; only host time differs.
/// Save a baseline with `CRITERION_SAVE_BASELINE=<name>`.
fn bench_pipeline_modes(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    for (label, fuse) in [("fused", true), ("unfused", false)] {
        g.bench_with_input(
            BenchmarkId::new("8_maps_x_4k_pairs", label),
            &fuse,
            |b, &fuse| {
                b.iter_batched(
                    || {
                        let (p, fns) = pair_pipeline_program(8);
                        let mut data = DataRegistry::new();
                        data.register(
                            "pairs",
                            (0..4_096)
                                .map(|i| Payload::keyed(i, Payload::doubles(vec![i as f64; 8])))
                                .collect(),
                        );
                        (p, fns, data)
                    },
                    |(p, fns, data)| {
                        let cfg = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
                        let rt = cfg.runtime().expect("valid config");
                        let ecfg = EngineConfig {
                            fuse_narrow: fuse,
                            ..cfg.engine_config()
                        };
                        let e = Engine::with_config(rt, fns, data, ecfg);
                        black_box(run(e, p).stats.records_streamed)
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    g.finish();
}

/// One executor's share of a gathered shuffle — decode, bucket, reduce,
/// trim — with the key index given (it is built once per shuffle, not
/// per executor). The input is fixed: 200 k keyed records over 20 k keys,
/// mapped as 64 partitions spread over the `E` executors; what varies is
/// how much of the output executor 0 owns, so the times should fall as
/// `1/E`.
fn bench_reduce_owned(c: &mut Criterion) {
    const RECORDS: i64 = 200_000;
    const KEYS: i64 = 20_000;
    const PARTITIONS: usize = 64;
    let mut b = ProgramBuilder::new("reduce_owned");
    let add =
        b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap_or(0) + c.as_long().unwrap_or(0)));
    let (_, fns) = b.finish();
    let transform = Transform::ReduceByKey(add);
    let records: Vec<Payload> = (0..RECORDS)
        .map(|i| Payload::keyed((i * 7919) % KEYS, Payload::Long(i)))
        .collect();
    let mut g = c.benchmark_group("shuffle");
    for n_exec in [1u16, 2, 4, 8] {
        let owner = |exec| Owner {
            exec,
            n_exec,
            partitions: PARTITIONS,
        };
        let contribs: Vec<ShuffleContrib> = (0..n_exec)
            .map(|exec| {
                let (meta, owned) = owner(exec).parts(records.len());
                let parts = meta.gids.into_iter().zip(owned);
                ShuffleContrib {
                    left: parts
                        .map(|(gid, r)| (gid, WireBatch::encode(&records[r])))
                        .collect(),
                    right: None,
                }
            })
            .collect();
        let gathered = ShuffleGather::from(contribs);
        let index = gathered.key_index(&transform).expect("keyed records");
        let left = gathered.left();
        let owner = owner(0);
        g.bench_function(&format!("reduce_owned/E={n_exec}"), |b| {
            b.iter(|| {
                let (out, _) = reduce_owned(&transform, &fns, index, &left, None, Some(owner));
                black_box(out.len())
            });
        });
    }
    g.finish();
}

/// K-Means' `reduceByKey` fold on its own: 12 000 `(cluster, (point,
/// 1))` records over 8 keys, each point an 8-dimensional vector whose
/// storage the record shares with a cached point, summed by an in-place
/// reducer. The buckets are built once; what is timed is the fold, whose
/// first merge per key copies and whose later merges allocate nothing.
fn bench_reduce_by_key_vec8(c: &mut Criterion) {
    const RECORDS: i64 = 12_000;
    const KEYS: i64 = 8;
    let mut b = ProgramBuilder::new("reduce_by_key_vec8");
    let merge = b.reduce_fn(|mut acc, c| {
        let (Payload::Doubles(vc), nc) = c.as_pair().expect("(sum, count)") else {
            panic!("expected vector sums");
        };
        let (sum, n) = acc.pair_mut().expect("(sum, count)");
        let sum = sum.doubles_mut().expect("vector sum");
        for (x, y) in sum.iter_mut().zip(vc.iter()) {
            *x += y;
        }
        *n = Payload::Long(n.as_long().unwrap_or(0) + nc.as_long().unwrap_or(0));
        acc
    });
    let (_, fns) = b.finish();
    let transform = Transform::ReduceByKey(merge);
    let points: Vec<Payload> = (0..RECORDS)
        .map(|i| Payload::doubles((0..8).map(|d| (i * 8 + d) as f64 * 0.5).collect()))
        .collect();
    let records: Vec<Payload> = points
        .iter()
        .zip(0..)
        .map(|(p, i)| Payload::keyed(i % KEYS, Payload::pair(p.clone(), Payload::Long(1))))
        .collect();
    let buckets = Buckets::of(&records, None);
    c.bench_function("shuffle/reduce_by_key_vec8", |b| {
        b.iter(|| black_box(reduce_side(&transform, &fns, black_box(&buckets)).len()));
    });
}

/// Building and freeing keyed records — the cost every record pays at
/// least once on the heap side and once per wire crossing. A pair is one
/// heap box holding both halves; a partition's wire form is one buffer.
fn bench_keyed_alloc_drop(c: &mut Criterion) {
    c.bench_function("payload/keyed_alloc_drop", |b| {
        b.iter(|| {
            let records: Vec<Payload> = (0..4_096)
                .map(|i| Payload::keyed(i, Payload::Long(i)))
                .collect();
            let wire = WireBatch::encode(&records);
            black_box((records.len(), wire.len()))
        });
    });
}

/// The wire layer on its own, over the two record shapes a PageRank
/// iteration ships: `(Text, Double)` contributions and `(Text,
/// List<Text>)` adjacency lists (8 links each). Every iteration handles
/// 1 000 records, so a reported µs is that many ns per record — directly
/// comparable with `shuffle/reduce_owned`, which decodes through the same
/// code.
fn bench_wire_batch(c: &mut Criterion) {
    const RECORDS: u64 = 1_000;
    let url = |sym: u64| Payload::Text { sym, len: 40 };
    let ranks: Vec<Payload> = (0..RECORDS)
        .map(|i| Payload::pair(url(i), Payload::Double(1.0 / (i + 1) as f64)))
        .collect();
    let links: Vec<Payload> = (0..RECORDS)
        .map(|i| Payload::pair(url(i), Payload::list((1..=8).map(|d| url(i + d)).collect())))
        .collect();
    let mut g = c.benchmark_group("wire_batch");
    for (shape, records) in [("rank", &ranks), ("links", &links)] {
        let batch = WireBatch::encode(records);
        g.bench_function(&format!("encode/{shape}"), |b| {
            b.iter(|| black_box(WireBatch::encode(black_box(records)).digest()));
        });
        g.bench_function(&format!("decode/{shape}"), |b| {
            b.iter(|| black_box(black_box(&batch).payloads().count()));
        });
        g.bench_function(&format!("key_scan/{shape}"), |b| {
            b.iter(|| {
                let scan = black_box(&batch).iter();
                black_box(scan.fold(0u64, |n, r| {
                    n + u64::from(r.shuffle_key() > mheap::Key::Sym(7))
                }))
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_streaming,
    bench_shuffle,
    bench_pipeline_modes,
    bench_reduce_owned,
    bench_reduce_by_key_vec8,
    bench_keyed_alloc_drop,
    bench_wire_batch
);
criterion_main!(benches);
