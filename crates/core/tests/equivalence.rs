//! Cluster-mode equivalence guarantees (ISSUE 4 acceptance criteria):
//!
//! 1. An `E = 1` cluster run matches the classic single-runtime path —
//!    identical action results AND a bit-identical simulated report.
//! 2. An `E`-executor run produces a bit-identical report whether the
//!    host uses 1 thread or `E` threads (the exchange is a Kahn network;
//!    host scheduling cannot change a simulated value).
//! 3. Shuffle semantics are partition- and executor-independent:
//!    `group_by_key` / `join` / `distinct` results from an `E`-executor
//!    run equal the `E = 1` run for arbitrary partition counts, including
//!    the `partition_sizes` edge cases (`n < parts`, `parts = 1`, empty).

use mheap::Payload;
use panthera::cluster::FaultPlan;
use panthera::{MemoryMode, RunBuilder, RunError, RunSummary, SystemConfig, SIM_GB};
use proptest::prelude::*;
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder};
use sparklet::{ActionResult, DataRegistry};
use workloads::{build_workload, WorkloadId};

/// Drive a cluster run through the one entry point. The empty fault plan
/// forces the cluster driver (exchange, executor threads) even at `E = 1`.
fn cluster_run(
    build: impl Fn() -> (Program, FnTable, DataRegistry) + Sync,
    cfg: &SystemConfig,
    host_threads: usize,
) -> Result<RunSummary, RunError> {
    RunBuilder::from_build(&build)
        .config(cfg.clone())
        .host_threads(host_threads)
        .faults(&FaultPlan::none())
        .run()
}

fn cluster_config(mode: MemoryMode, executors: u16) -> SystemConfig {
    let mut cfg = SystemConfig::new(mode, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = executors;
    cfg
}

fn run_workload_cluster(
    id: WorkloadId,
    mode: MemoryMode,
    scale: f64,
    seed: u64,
    executors: u16,
    host_threads: usize,
) -> RunSummary {
    let cfg = cluster_config(mode, executors);
    cluster_run(|| workload_triple(id, scale, seed), &cfg, host_threads)
        .expect("valid cluster config")
}

fn workload_triple(id: WorkloadId, scale: f64, seed: u64) -> (Program, FnTable, DataRegistry) {
    let w = build_workload(id, scale, seed);
    (w.program, w.fns, w.data)
}

fn assert_results_eq(a: &[(String, ActionResult)], b: &[(String, ActionResult)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: action count");
    for ((av, ar), (bv, br)) in a.iter().zip(b.iter()) {
        assert_eq!(av, bv, "{what}: action order");
        assert_eq!(ar, br, "{what}: {av}");
    }
}

#[test]
fn single_executor_cluster_matches_legacy_runtime() {
    // Engine knobs off their defaults: the cluster driver must carry them
    // to its executor exactly as the on-thread run does.
    let mut engine_knobs = cluster_config(MemoryMode::Panthera, 1);
    engine_knobs.partitions = 3;
    engine_knobs.fuse_narrow = false;
    let mut reports = Vec::new();
    for (id, cfg) in [
        (WorkloadId::Tc, cluster_config(MemoryMode::Panthera, 1)),
        (WorkloadId::Pr, cluster_config(MemoryMode::Panthera, 1)),
        (WorkloadId::Tc, cluster_config(MemoryMode::Unmanaged, 1)),
        (WorkloadId::Tc, engine_knobs),
    ] {
        let out =
            cluster_run(|| workload_triple(id, 0.06, 13), &cfg, 1).expect("valid cluster config");
        let (program, fns, data) = workload_triple(id, 0.06, 13);
        let legacy = RunBuilder::new(&program, fns, data)
            .config(cfg.clone())
            .run()
            .expect("valid configuration");
        let what = format!("{id}/{}/partitions={}", cfg.mode, cfg.partitions);
        assert_results_eq(&out.results, &legacy.results, &what);
        let report = out.report.to_json().to_compact();
        assert_eq!(
            report,
            legacy.report.to_json().to_compact(),
            "{what}: E=1 cluster report must be bit-identical to the legacy runtime"
        );
        assert_eq!(out.per_executor.len(), 1, "{what}: one sub-report");
        reports.push(report);
    }
    assert_ne!(
        reports[3], reports[0],
        "partitions = 3 must reach the engine and change the report"
    );
}

#[test]
fn host_thread_count_is_invisible() {
    for executors in [2u16, 4] {
        let serial =
            run_workload_cluster(WorkloadId::Pr, MemoryMode::Panthera, 0.05, 7, executors, 1);
        let threaded = run_workload_cluster(
            WorkloadId::Pr,
            MemoryMode::Panthera,
            0.05,
            7,
            executors,
            usize::from(executors),
        );
        let what = format!("E={executors}");
        assert_results_eq(&serial.results, &threaded.results, &what);
        assert_eq!(
            serial.report.to_json().to_compact(),
            threaded.report.to_json().to_compact(),
            "{what}: aggregate report must not depend on host threads"
        );
        for (e, (s, t)) in serial
            .per_executor
            .iter()
            .zip(threaded.per_executor.iter())
            .enumerate()
        {
            assert_eq!(
                s.to_json().to_compact(),
                t.to_json().to_compact(),
                "{what}: executor {e} sub-report must not depend on host threads"
            );
        }
    }
}

#[test]
fn count_actions_are_executor_count_independent() {
    let base = run_workload_cluster(WorkloadId::Tc, MemoryMode::Panthera, 0.06, 13, 1, 1);
    for executors in [2u16, 3, 4] {
        let out = run_workload_cluster(
            WorkloadId::Tc,
            MemoryMode::Panthera,
            0.06,
            13,
            executors,
            usize::from(executors),
        );
        assert_results_eq(&out.results, &base.results, &format!("Tc E={executors}"));
        assert_eq!(out.per_executor.len(), usize::from(executors));
    }
}

#[test]
fn heap_verifier_passes_on_every_executor() {
    let mut cfg = cluster_config(MemoryMode::Panthera, 3);
    cfg.verify_heap = true; // a violation on any executor's heap aborts
    let out = cluster_run(|| workload_triple(WorkloadId::Tc, 0.05, 5), &cfg, 3)
        .expect("valid cluster config");
    assert_eq!(out.per_executor.len(), 3);
}

#[test]
fn executor_count_must_be_positive() {
    let cfg = cluster_config(MemoryMode::Panthera, 0);
    let err = cluster_run(|| workload_triple(WorkloadId::Tc, 0.05, 5), &cfg, 1).unwrap_err();
    assert!(err.to_string().contains("executors"), "{err}");
}

// ---------------------------------------------------------------------------
// Cross-executor shuffle semantics: group_by_key / join / distinct.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum ShuffleOp {
    GroupBy,
    Distinct,
    Join,
}

/// A one-shuffle program collecting its output, over `n` keyed records
/// (keys folded into `n / 3 + 1` groups so buckets collide).
fn shuffle_case(op: ShuffleOp, n: usize) -> (Program, FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("shuffle-case");
    let left = b.source("left");
    let expr = match op {
        ShuffleOp::GroupBy => left.group_by_key(),
        ShuffleOp::Distinct => left.distinct(),
        ShuffleOp::Join => {
            let right = b.source("right");
            left.join(right)
        }
    };
    let out = b.bind("out", expr);
    b.action(out, ActionKind::Collect);
    b.action(out, ActionKind::Count);
    let (program, fns) = b.finish();

    let keys = (n / 3 + 1) as i64;
    let mut data = DataRegistry::new();
    data.register(
        "left",
        (0..n)
            .map(|i| Payload::keyed(i as i64 % keys, Payload::Long(i as i64 * 31 + 7)))
            .collect(),
    );
    if matches!(op, ShuffleOp::Join) {
        data.register(
            "right",
            (0..n / 2)
                .map(|i| Payload::keyed(i as i64 % keys, Payload::Long(i as i64 * 13 + 1)))
                .collect(),
        );
    }
    (program, fns, data)
}

fn run_shuffle_case(op: ShuffleOp, n: usize, partitions: usize, executors: u16) -> RunSummary {
    let mut cfg = cluster_config(MemoryMode::Panthera, executors);
    cfg.partitions = partitions;
    cluster_run(|| shuffle_case(op, n), &cfg, usize::from(executors)).expect("valid cluster config")
}

#[test]
fn shuffle_results_match_single_executor_across_partitionings() {
    for op in [ShuffleOp::GroupBy, ShuffleOp::Distinct, ShuffleOp::Join] {
        // n < parts, parts = 1, empty input, and a "normal" shape.
        for n in [0usize, 1, 2, 5, 40] {
            for partitions in [1usize, 3, 17] {
                let base = run_shuffle_case(op, n, partitions, 1);
                for executors in [2u16, 3] {
                    let out = run_shuffle_case(op, n, partitions, executors);
                    assert_results_eq(
                        &out.results,
                        &base.results,
                        &format!("{op:?} n={n} parts={partitions} E={executors}"),
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random shapes: an E-executor shuffle equals the E=1 run.
    #[test]
    fn shuffle_equivalence_under_random_shapes(
        n in 0usize..60,
        partitions in 1usize..12,
        executors in 2u16..=4,
        op_pick in 0usize..3,
    ) {
        let op = [ShuffleOp::GroupBy, ShuffleOp::Distinct, ShuffleOp::Join][op_pick];
        let base = run_shuffle_case(op, n, partitions, 1);
        let out = run_shuffle_case(op, n, partitions, executors);
        assert_results_eq(
            &out.results,
            &base.results,
            &format!("{op:?} n={n} parts={partitions} E={executors}"),
        );
    }
}

/// A hand-built program that uses `b` before defining it — `Program`'s
/// fields are public, so not every program comes out of the builder.
fn use_before_def() -> (Program, FnTable, DataRegistry) {
    use sparklang::ast::{RddExpr, Stmt, VarId};
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
    let mut data = DataRegistry::new();
    data.register("nums", (0..8).map(Payload::Long).collect());
    (program, FnTable::new(), data)
}

#[test]
fn ill_formed_program_is_a_config_error_for_any_executor_count() {
    let expect_rejected = |what: &str, run: Result<RunSummary, RunError>| match run {
        Err(RunError::Config(e)) => {
            assert!(e.message().contains("ill-formed program"), "{what}: {e}")
        }
        other => panic!("{what}: expected RunError::Config, got {other:?}"),
    };
    let cfg = cluster_config(MemoryMode::Panthera, 1);
    let (program, fns, data) = use_before_def();
    expect_rejected(
        "one-shot",
        RunBuilder::new(&program, fns, data)
            .config(cfg.clone())
            .run(),
    );
    expect_rejected(
        "rebuild, E=1",
        RunBuilder::from_build(&use_before_def).config(cfg).run(),
    );
    expect_rejected(
        "E=2",
        RunBuilder::from_build(&use_before_def)
            .config(cluster_config(MemoryMode::Panthera, 2))
            .run(),
    );
    let (program, fns, data) = use_before_def();
    let cursor = panthera::start(program, fns, data, &cluster_config(MemoryMode::Panthera, 1));
    assert!(
        matches!(&cursor, Err(e) if e.message().contains("ill-formed program")),
        "panthera::start must refuse, not panic"
    );
}
