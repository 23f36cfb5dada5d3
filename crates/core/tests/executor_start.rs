//! An executor that fails inside its own thread ends its run with a typed
//! error, and the caller's thread neither panics nor waits forever:
//!
//! * an executor that does not start — the program as built before the
//!   run is well formed and each executor's own build of it is not, so
//!   the checks made before the run starts pass — poisons the exchange so
//!   its peers return, and the run returns
//!   `RunError::Config` naming an executor;
//! * an executor whose user function panics poisons the exchange as it
//!   unwinds, and the run returns `RunError::ExecutorPanicked` with the
//!   panic message;
//! * a shuffle over records with no shuffle key ends a one-runtime run
//!   and a cluster run alike with `RunError::KeylessRecord`, naming the
//!   first such record in scan order.

use mheap::Payload;
use panthera::{MemoryMode, RunBuilder, RunError, SystemConfig, SIM_GB};
use sparklang::ast::{RddExpr, Stmt, VarId};
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder};
use sparklet::DataRegistry;
use std::sync::atomic::{AtomicU64, Ordering};

fn nums() -> DataRegistry {
    let mut data = DataRegistry::new();
    data.register("nums", (0..64).map(Payload::Long).collect());
    data
}

fn cluster_config() -> SystemConfig {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = 4;
    cfg
}

fn well_formed() -> (Program, FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("distinct-nums");
    let src = b.source("nums");
    let xs = b.bind("xs", src.distinct());
    b.action(xs, ActionKind::Count);
    let (program, fns) = b.finish();
    (program, fns, nums())
}

/// Uses `b` before defining it.
fn ill_formed() -> (Program, FnTable, DataRegistry) {
    let program = Program {
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
    (program, FnTable::new(), nums())
}

/// Maps every record to itself except 13, on which the map panics. The
/// 64 records fill 8 source partitions of 8, and partition `i` belongs to
/// executor `i % 4`, so record 13 (partition 1) is executor 1's alone.
fn panics_on_13() -> (Program, FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("panicky-map");
    let f = b.map_fn(|r| match r {
        Payload::Long(13) => panic!("user map rejected record 13"),
        other => other.clone(),
    });
    let src = b.source("nums");
    let xs = b.bind("xs", src.map(f));
    b.action(xs, ActionKind::Count);
    let (program, fns) = b.finish();
    (program, fns, nums())
}

#[test]
fn an_executor_that_does_not_start_is_a_config_error() {
    for host_threads in [1, 4] {
        let builds = AtomicU64::new(0);
        let build = || match builds.fetch_add(1, Ordering::SeqCst) {
            0 => well_formed(),
            _ => ill_formed(),
        };
        let run = RunBuilder::from_build(&build)
            .config(cluster_config())
            .host_threads(host_threads)
            .run();
        match run {
            Err(RunError::Config(e)) => {
                let msg = e.message();
                assert!(
                    msg.starts_with("executor ") && msg.contains("did not start"),
                    "{host_threads} host threads: {msg}"
                );
                assert!(msg.contains("ill-formed program"), "{msg}");
            }
            other => {
                panic!("{host_threads} host threads: expected RunError::Config, got {other:?}")
            }
        }
        assert!(
            builds.load(Ordering::SeqCst) >= 2,
            "the driver's build and at least one executor's ran"
        );
    }
}

/// At one host thread the panicking executor held the only run permit
/// when it died, so its peers are parked waiting for one: the run returns
/// only because the unwinding executor poisons the exchange.
#[test]
fn executor_panic_is_a_run_error() {
    for host_threads in [1, 4] {
        let run = RunBuilder::from_build(&panics_on_13)
            .config(cluster_config())
            .host_threads(host_threads)
            .run();
        match run {
            Err(RunError::ExecutorPanicked { exec, message }) => {
                assert_eq!(exec, 1, "{host_threads} host threads: {message}");
                assert!(
                    message.contains("user map rejected record 13"),
                    "{host_threads} host threads: {message}"
                );
            }
            other => panic!(
                "{host_threads} host threads: expected RunError::ExecutorPanicked, got {other:?}"
            ),
        }
    }
}

/// `reduceByKey` (straight over the source, and behind a fused `map`) or
/// `groupByKey` over `Payload::doubles` points, which have no shuffle key.
fn keyless_shuffle(which: usize) -> (Program, FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("keyless-shuffle");
    let add = b.reduce_fn(|a, _| a);
    let same = b.map_fn(Payload::clone);
    let src = b.source("points");
    let shuffled = match which {
        0 => src.reduce_by_key(add),
        1 => src.map(same).reduce_by_key(add),
        _ => src.group_by_key(),
    };
    let xs = b.bind("xs", shuffled);
    b.action(xs, ActionKind::Count);
    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    let points = (0..16).map(|i| Payload::doubles(vec![f64::from(i), 2.0]));
    data.register("points", points.collect());
    (program, fns, data)
}

#[test]
fn keyless_shuffle_record_is_a_typed_error() {
    for which in 0..3 {
        let (program, fns, data) = keyless_shuffle(which);
        let one = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
        match RunBuilder::new(&program, fns, data).config(one).run() {
            Err(RunError::KeylessRecord { record, .. }) => {
                assert_eq!(record, "Doubles([0.0, 2.0])", "shuffle {which}");
            }
            other => panic!("shuffle {which}: expected RunError::KeylessRecord, got {other:?}"),
        }
        let build = || keyless_shuffle(which);
        for host_threads in [1, 4] {
            match RunBuilder::from_build(&build)
                .config(cluster_config())
                .host_threads(host_threads)
                .run()
            {
                Err(RunError::KeylessRecord { record, .. }) => {
                    assert_eq!(
                        record, "Doubles([0.0, 2.0])",
                        "shuffle {which}, {host_threads} host threads"
                    );
                }
                other => panic!(
                    "shuffle {which}, {host_threads} host threads: \
                     expected RunError::KeylessRecord, got {other:?}"
                ),
            }
        }
    }
}
