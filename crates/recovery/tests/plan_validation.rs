//! A fault plan is checked once, before any executor starts: a plan that
//! names a missing executor, carries a crash time that is not a number,
//! or a penalty that would move the virtual clock backwards is a
//! configuration error, not a run that silently injects nothing, panics
//! on the caller's thread, or rewinds time.

use panthera::cluster::{FaultPlan, VCrashPoint};
use panthera::{MemoryMode, RunBuilder, RunError, RunSummary, SystemConfig, SIM_GB};
use workloads::{build_workload, WorkloadId};

fn run(plan: &FaultPlan) -> Result<u64, RunError> {
    Ok(run_summary(plan)?.report.recovery.executor_crashes)
}

fn run_summary(plan: &FaultPlan) -> Result<RunSummary, RunError> {
    let build = || {
        let w = build_workload(WorkloadId::Tc, 0.03, 11);
        (w.program, w.fns, w.data)
    };
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = 2;
    RunBuilder::from_build(&build)
        .config(cfg)
        .faults(plan)
        .run()
}

fn assert_config_error(plan: &FaultPlan, what: &str) {
    match run(plan) {
        Err(RunError::Config(err)) => assert!(!err.message().is_empty(), "{what}"),
        other => panic!("{what}: expected RunError::Config, got {other:?}"),
    }
}

#[test]
fn a_fault_point_on_a_missing_executor_is_a_config_error() {
    assert_config_error(
        &FaultPlan::single_crash(5, 2),
        "barrier crash on executor 5 of 2",
    );
    assert_config_error(&FaultPlan::crash_at(2, 1.0e6), "vcrash on executor 2 of 2");
}

#[test]
fn a_crash_time_that_is_not_a_number_is_a_config_error() {
    let plan = FaultPlan {
        vcrashes: vec![
            VCrashPoint {
                exec: 1,
                at_ns: 1.0e6,
            },
            VCrashPoint {
                exec: 1,
                at_ns: f64::NAN,
            },
        ],
        ..FaultPlan::crash_at(1, 1.0e6)
    };
    assert_config_error(&plan, "two crash times on executor 1, one NaN");
}

#[test]
fn a_penalty_that_rewinds_the_clock_is_a_config_error() {
    for bad in [-1.0, f64::NAN, f64::INFINITY] {
        let base = FaultPlan::single_crash(1, 2);
        for (name, plan) in [
            (
                "restart_penalty_ns",
                FaultPlan {
                    restart_penalty_ns: bad,
                    ..base.clone()
                },
            ),
            (
                "retransmit_penalty_ns",
                FaultPlan {
                    retransmit_penalty_ns: bad,
                    ..base.clone()
                },
            ),
            (
                "alloc_retry_ns",
                FaultPlan {
                    alloc_retry_ns: bad,
                    ..base.clone()
                },
            ),
        ] {
            assert_config_error(&plan, &format!("{name} = {bad}"));
        }
    }
    // The plan those were derived from is fine.
    assert_eq!(
        run(&FaultPlan::single_crash(1, 2)).expect("a valid plan"),
        1
    );
}

/// A penalty validation accepts, however large, saturates the integer
/// clock instead of overflowing it: the run finishes, every executor
/// pinned at the clock's last picosecond by the barrier after the restart.
#[test]
fn a_huge_restart_penalty_saturates_the_clock() {
    let plan = FaultPlan {
        restart_penalty_ns: 1e300,
        ..FaultPlan::single_crash(1, 2)
    };
    let report = run_summary(&plan).expect("a valid plan").report;
    assert_eq!(report.recovery.executor_crashes, 1);
    assert_eq!(report.elapsed_s, sparklet::ns_of(u64::MAX) / 1e9);
}
