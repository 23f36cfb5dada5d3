//! Planned faults are values, not panics: an injected crash returns from
//! the engine to its executor's restart loop, and nothing in a cluster run
//! touches the process-wide panic hook. A sentinel hook counts every panic
//! while crashing runs execute — recovered, unrecovered, and crashed at a
//! virtual instant mid-stage — and must see none; a deliberate panic
//! afterwards must still reach it, so nothing replaced it.
//!
//! This is the only test in this binary: it installs a process-wide panic
//! hook and must not race other tests.

use panthera::cluster::FaultPlan;
use panthera::{
    MemoryMode, RecoveryPolicy, RunBuilder, RunError, RunSummary, SystemConfig, SIM_GB,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::{build_workload, WorkloadId};

static SENTINEL_HITS: AtomicUsize = AtomicUsize::new(0);

fn run_tc(plan: &FaultPlan) -> Result<RunSummary, RunError> {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = 2;
    cfg.recovery = RecoveryPolicy::Recompute;
    let build = || {
        let w = build_workload(WorkloadId::Tc, 0.03, 11);
        (w.program, w.fns, w.data)
    };
    RunBuilder::from_build(&build)
        .config(cfg)
        .host_threads(2)
        .faults(plan)
        .run()
}

#[test]
fn planned_faults_raise_no_panic() {
    let horizon_ns = run_tc(&FaultPlan::none())
        .expect("fault-free run")
        .report
        .elapsed_s
        * 1e9;
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {
        SENTINEL_HITS.fetch_add(1, Ordering::SeqCst);
    }));

    let recovered = run_tc(&FaultPlan::single_crash(1, 2)).expect("recovered run");
    assert_eq!(recovered.report.recovery.executor_crashes, 1);

    let unrecovered = FaultPlan {
        recover: false,
        ..FaultPlan::single_crash(1, 2)
    };
    match run_tc(&unrecovered) {
        Err(RunError::ExecutorCrash {
            exec: 1,
            barrier: 2,
        }) => {}
        other => panic!("expected RunError::ExecutorCrash at executor 1, barrier 2: {other:?}"),
    }

    let mid_stage = run_tc(&FaultPlan::crash_at(1, 0.5 * horizon_ns)).expect("vcrash run");
    assert_eq!(mid_stage.report.recovery.executor_crashes, 1);

    let planned = SENTINEL_HITS.load(Ordering::SeqCst);
    let err = std::panic::catch_unwind(|| panic!("deliberate panic"));
    let after = SENTINEL_HITS.load(Ordering::SeqCst);
    std::panic::set_hook(default_hook);
    assert_eq!(planned, 0, "a planned fault raised a panic");
    assert!(err.is_err());
    assert_eq!(after, 1, "the sentinel hook is still installed");
}
