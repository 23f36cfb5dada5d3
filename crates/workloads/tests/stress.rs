//! Randomized end-to-end stress: generate arbitrary (well-formed)
//! pipelines over keyed integer data, execute them under different memory
//! modes, and check that (a) results never depend on memory management,
//! (b) the heap's structural invariants survive, and (c) runs are
//! deterministic.

use mheap::Payload;
use panthera::{MemoryMode, RunBuilder, SystemConfig, SIM_GB};
use proptest::prelude::*;
use sparklang::{ActionKind, Expr, FnTable, Program, ProgramBuilder, StorageLevel};
use sparklet::{ActionResult, DataRegistry};

/// One step of a random pipeline.
#[derive(Debug, Clone)]
enum Step {
    MapAddOne,
    MapValuesDouble,
    FlatMapDup,
    FilterEvenKey,
    Distinct,
    GroupByKey,
    ReduceByKeySum,
    SortByKey,
    Sample(u64),
    KeysAsPairs,
}

#[derive(Debug, Clone)]
struct Pipeline {
    steps: Vec<Step>,
    persist_at: Option<(usize, u8)>,
    loops: u8,
    n_records: usize,
    n_keys: i64,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::MapAddOne),
        Just(Step::MapValuesDouble),
        Just(Step::FlatMapDup),
        Just(Step::FilterEvenKey),
        Just(Step::Distinct),
        Just(Step::GroupByKey),
        Just(Step::ReduceByKeySum),
        Just(Step::SortByKey),
        any::<u64>().prop_map(Step::Sample),
        Just(Step::KeysAsPairs),
    ]
}

fn pipeline() -> impl Strategy<Value = Pipeline> {
    (
        prop::collection::vec(step(), 1..7),
        prop::option::of((0usize..7, 0u8..4)),
        1u8..3,
        16usize..200,
        1i64..12,
    )
        .prop_map(|(steps, persist_at, loops, n_records, n_keys)| Pipeline {
            steps,
            persist_at,
            loops,
            n_records,
            n_keys,
        })
}

const LEVELS: [StorageLevel; 4] = [
    StorageLevel::MemoryOnly,
    StorageLevel::MemoryOnlySer,
    StorageLevel::MemoryAndDisk,
    StorageLevel::MemoryAndDiskSer,
];

/// A group value (list) reduced to something comparable and keyable.
fn normalize(p: &Payload) -> Payload {
    match p {
        Payload::Pair(p) => Payload::pair(normalize(&p.0), normalize(&p.1)),
        Payload::List(items) => Payload::Long(items.len() as i64),
        other => other.clone(),
    }
}

fn build(pipe: &Pipeline) -> (Program, FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("stress");
    let add_one = b.map_fn(|r| {
        let (k, v) = r.as_pair().expect("pair");
        Payload::pair(k.clone(), Payload::Long(v.as_long().unwrap_or(0) + 1))
    });
    let double = b.map_fn(|v| Payload::Long(v.as_long().unwrap_or(1) * 2));
    let dup = b.flat_map_fn(|r| vec![r.clone(), r.clone()]);
    let even = b.filter_fn(|r| r.as_pair().and_then(|(k, _)| k.as_long()).unwrap_or(0) % 2 == 0);
    let sum = b.reduce_fn(|a, c| {
        // Values may be longs or grouped lists; count lists as lengths.
        let x = match a {
            Payload::List(v) => v.len() as i64,
            other => other.as_long().unwrap_or(0),
        };
        let y = match c {
            Payload::List(v) => v.len() as i64,
            other => other.as_long().unwrap_or(0),
        };
        Payload::Long(x + y)
    });
    let key_self = b.map_fn(|r| {
        let k = r
            .as_pair()
            .map(|(k, _)| k.clone())
            .unwrap_or_else(|| r.clone());
        Payload::pair(k.clone(), k)
    });
    // groupByKey produces list values the next steps can't always digest:
    // normalize after every step to keep the pipeline total.
    let norm = b.map_fn(normalize);

    let apply = |e: Expr, s: &Step| -> Expr {
        let e = match s {
            Step::MapAddOne => e.map(add_one),
            Step::MapValuesDouble => e.map_values(double),
            Step::FlatMapDup => e.flat_map(dup),
            Step::FilterEvenKey => e.filter(even),
            Step::Distinct => e.distinct(),
            Step::GroupByKey => e.group_by_key(),
            Step::ReduceByKeySum => e.reduce_by_key(sum),
            Step::SortByKey => e.sort_by_key(),
            Step::Sample(seed) => e.sample(0.7, *seed),
            Step::KeysAsPairs => e.map(key_self),
        };
        e.map(norm)
    };

    let src = b.source("data");
    let mut expr = src;
    let mut persisted_prefix = None;
    for (i, s) in pipe.steps.iter().enumerate() {
        expr = apply(expr, s);
        if let Some((at, level)) = pipe.persist_at {
            if at == i {
                let v = b.bind("cached", expr.clone());
                b.persist(v, LEVELS[level as usize % LEVELS.len()]);
                persisted_prefix = Some(v);
                expr = b.var(v);
            }
        }
    }
    let out = b.bind("out", expr);
    b.loop_n(pipe.loops as u32, |b| {
        b.action(out, ActionKind::Count);
        if let Some(v) = persisted_prefix {
            b.action(v, ActionKind::Count);
        }
    });
    b.action(out, ActionKind::Collect);
    let (p, fns) = b.finish();

    let mut data = DataRegistry::new();
    data.register(
        "data",
        (0..pipe.n_records)
            .map(|i| Payload::keyed(i as i64 % pipe.n_keys, Payload::Long(i as i64)))
            .collect(),
    );
    (p, fns, data)
}

fn run(pipe: &Pipeline, mode: MemoryMode) -> Vec<(String, ActionResult)> {
    let (p, fns, data) = build(pipe);
    let cfg = SystemConfig::new(mode, 8 * SIM_GB, 1.0 / 3.0);
    RunBuilder::new(&p, fns, data)
        .config(cfg)
        .run()
        .expect("valid configuration")
        .results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn results_are_memory_mode_independent(pipe in pipeline()) {
        let base = run(&pipe, MemoryMode::DramOnly);
        for mode in [MemoryMode::Panthera, MemoryMode::Unmanaged, MemoryMode::KingsguardWrites] {
            let other = run(&pipe, mode);
            prop_assert_eq!(&base, &other, "{} changed results", mode);
        }
    }

    #[test]
    fn random_pipelines_are_deterministic(pipe in pipeline()) {
        let a = run(&pipe, MemoryMode::Panthera);
        let b = run(&pipe, MemoryMode::Panthera);
        prop_assert_eq!(a, b);
    }
}
