//! The PR 5 core guarantee: fault injection is *result-transparent* and
//! *deterministic*.
//!
//! 1. A fault-injected run (crashes + recovery, message losses, transient
//!    allocation failures) produces bit-identical workload results to the
//!    fault-free run, under both recovery policies.
//! 2. For a fixed fault plan, the merged `RunReport` — including every
//!    per-executor sub-report — is bit-identical across host-thread
//!    budgets.
//! 3. An injected crash with recovery disabled surfaces as a typed error
//!    (the poisoned exchange), never a deadlock.
//! 4. A literal plan fires the same faults whatever order it lists its
//!    points in, and a barrier crash listed twice fires twice.

use panthera::cluster::{
    AllocFaultPoint, CrashPoint, FaultPlan, FaultSpec, GatherKind, LossPoint, VCrashPoint,
};
use panthera::{
    MemoryMode, RecoveryPolicy, RunBuilder, RunError, RunSummary, SystemConfig, SIM_GB,
};
use sparklang::{FnTable, Program};
use sparklet::{ActionResult, DataRegistry};
use workloads::{build_workload, WorkloadId};

fn cluster_config(mode: MemoryMode, executors: u16, policy: RecoveryPolicy) -> SystemConfig {
    let mut cfg = SystemConfig::new(mode, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = executors;
    cfg.recovery = policy;
    cfg.verify_heap = true; // every incarnation's heap must stay sound
    cfg
}

/// Run a cluster under `plan` through the one entry point.
fn faulted_run(
    build: impl Fn() -> (Program, FnTable, DataRegistry) + Sync,
    cfg: &SystemConfig,
    host_threads: usize,
    plan: &FaultPlan,
) -> Result<RunSummary, RunError> {
    RunBuilder::from_build(&build)
        .config(cfg.clone())
        .host_threads(host_threads)
        .faults(plan)
        .run()
}

fn run_faulted(
    id: WorkloadId,
    policy: RecoveryPolicy,
    executors: u16,
    host_threads: usize,
    plan: &FaultPlan,
) -> RunSummary {
    let cfg = cluster_config(MemoryMode::Panthera, executors, policy);
    faulted_run(
        || {
            let w = build_workload(id, 0.05, 11);
            (w.program, w.fns, w.data)
        },
        &cfg,
        host_threads,
        plan,
    )
    .expect("valid cluster config")
}

fn assert_results_eq(a: &[(String, ActionResult)], b: &[(String, ActionResult)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: action count");
    for ((av, ar), (bv, br)) in a.iter().zip(b.iter()) {
        assert_eq!(av, bv, "{what}: action order");
        assert_eq!(ar, br, "{what}: {av}");
    }
}

#[test]
fn crashed_executor_recovers_with_identical_results() {
    for (id, policy) in [
        (WorkloadId::Tc, RecoveryPolicy::Recompute),
        (WorkloadId::Pr, RecoveryPolicy::Recompute),
        (WorkloadId::Tc, RecoveryPolicy::CheckpointEvery(1)),
        (WorkloadId::Pr, RecoveryPolicy::CheckpointEvery(2)),
    ] {
        let what = format!("{id}/{policy:?}");
        let baseline = run_faulted(id, policy, 3, 3, &FaultPlan::none());
        let faulted = run_faulted(id, policy, 3, 3, &FaultPlan::single_crash(1, 2));
        assert_results_eq(&faulted.results, &baseline.results, &what);
        let rec = faulted.report.recovery;
        assert_eq!(rec.executor_crashes, 1, "{what}: the planned crash fired");
        assert!(rec.recovery_s > 0.0, "{what}: recovery took virtual time");
        match policy {
            RecoveryPolicy::Recompute => {
                assert!(
                    rec.partitions_recomputed > 0,
                    "{what}: lineage recomputation must do work"
                );
                assert_eq!(rec.checkpoint_writes, 0, "{what}: no auto checkpoints");
            }
            RecoveryPolicy::CheckpointEvery(_) => {
                assert!(rec.checkpoint_writes > 0, "{what}: checkpoints were taken");
                assert!(rec.checkpoint_bytes > 0, "{what}: checkpoints have bytes");
            }
        }
        // Recovery cost is visible in the simulated timeline: the crashed
        // run cannot be faster than the fault-free one.
        assert!(
            faulted.report.elapsed_s >= baseline.report.elapsed_s,
            "{what}: recovery must not make the run faster"
        );
    }
}

#[test]
fn message_loss_and_alloc_faults_preserve_results() {
    let plan = FaultPlan {
        losses: vec![
            LossPoint {
                exec: 0,
                kind: GatherKind::Shuffle,
                ordinal: 0,
            },
            LossPoint {
                exec: 1,
                kind: GatherKind::Action,
                ordinal: 0,
            },
        ],
        alloc_faults: vec![AllocFaultPoint {
            exec: 0,
            materialization: 1,
        }],
        ..FaultPlan::none()
    };
    let plan = FaultPlan {
        retransmit_penalty_ns: 2.0e5,
        alloc_retry_ns: 1.0e5,
        ..plan
    };
    let baseline = run_faulted(
        WorkloadId::Tc,
        RecoveryPolicy::Recompute,
        2,
        2,
        &FaultPlan::none(),
    );
    let faulted = run_faulted(WorkloadId::Tc, RecoveryPolicy::Recompute, 2, 2, &plan);
    assert_results_eq(&faulted.results, &baseline.results, "loss+alloc");
    let rec = faulted.report.recovery;
    assert_eq!(rec.messages_lost, 2, "both loss points fired");
    assert_eq!(rec.alloc_faults, 1, "the alloc fault fired");
    assert_eq!(rec.executor_crashes, 0);
    assert!(
        faulted.report.elapsed_s > baseline.report.elapsed_s,
        "retransmits and retries cost virtual time"
    );
}

#[test]
fn fixed_fault_plan_is_host_thread_invariant() {
    let spec = FaultSpec {
        crashes: 1,
        barrier_lo: 1,
        barrier_hi: 3,
        max_losses: 2,
        max_alloc_faults: 2,
        ..FaultSpec::default()
    };
    let plan = FaultPlan::generate(0xFEED, 3, spec);
    assert!(!plan.crashes.is_empty(), "plan must contain a crash");
    for policy in [
        RecoveryPolicy::Recompute,
        RecoveryPolicy::CheckpointEvery(2),
    ] {
        let serial = run_faulted(WorkloadId::Pr, policy, 3, 1, &plan);
        let threaded = run_faulted(WorkloadId::Pr, policy, 3, 3, &plan);
        let what = format!("{policy:?}");
        assert_results_eq(&serial.results, &threaded.results, &what);
        assert!(
            serial.report.recovery.executor_crashes >= 1,
            "{what}: the planned crash fired"
        );
        assert_eq!(
            serial.report.to_json().to_compact(),
            threaded.report.to_json().to_compact(),
            "{what}: fault-injected aggregate report must not depend on host threads"
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
fn unrecovered_crash_is_a_typed_error_not_a_deadlock() {
    let mut plan = FaultPlan::single_crash(1, 1);
    plan.recover = false;
    let cfg = cluster_config(MemoryMode::Panthera, 3, RecoveryPolicy::Recompute);
    let err = faulted_run(
        || {
            let w = build_workload(WorkloadId::Tc, 0.05, 11);
            (w.program, w.fns, w.data)
        },
        &cfg,
        3,
        &plan,
    )
    .unwrap_err();
    assert!(
        matches!(err, RunError::ExecutorCrash { exec: 1, .. })
            && err.to_string().contains("crashed"),
        "typed crash error, got: {err}"
    );
}

#[test]
fn empty_plan_matches_plain_cluster_run() {
    let cfg = cluster_config(MemoryMode::Panthera, 2, RecoveryPolicy::Recompute);
    let build = || {
        let w = build_workload(WorkloadId::Tc, 0.05, 11);
        (w.program, w.fns, w.data)
    };
    let plain = RunBuilder::from_build(&build)
        .config(cfg.clone())
        .host_threads(2)
        .run()
        .unwrap();
    let faulted = faulted_run(build, &cfg, 2, &FaultPlan::none()).unwrap();
    assert_eq!(
        plain.report.to_json().to_compact(),
        faulted.report.to_json().to_compact(),
        "an empty fault plan must be invisible"
    );
}

/// A barrier crash listed twice crashes the executor twice: once, then
/// again when the restarted incarnation's replay re-reaches the barrier.
#[test]
fn repeated_barrier_crash_fires_again_on_replay() {
    let crash = CrashPoint {
        exec: 1,
        barrier: 3,
    };
    let plan = FaultPlan {
        crashes: vec![crash, crash],
        ..FaultPlan::single_crash(1, 3)
    };
    for host_threads in [1, 4] {
        let what = format!("host_threads {host_threads}");
        let policy = RecoveryPolicy::Recompute;
        let baseline = run_faulted(WorkloadId::Tc, policy, 3, host_threads, &FaultPlan::none());
        let faulted = run_faulted(WorkloadId::Tc, policy, 3, host_threads, &plan);
        assert_results_eq(&faulted.results, &baseline.results, &what);
        assert_eq!(faulted.report.recovery.executor_crashes, 2, "{what}");
    }
}

/// Every list of a literal plan in reverse order fires exactly what the
/// sorted plan fires: the reports are byte-identical.
#[test]
fn literal_plan_order_does_not_matter() {
    let policy = RecoveryPolicy::Recompute;
    let baseline = run_faulted(WorkloadId::Tc, policy, 3, 1, &FaultPlan::none());
    let horizon_ns = baseline.report.elapsed_s * 1e9;
    let loss = |exec, kind, ordinal| LossPoint {
        exec,
        kind,
        ordinal,
    };
    let alloc = |exec, materialization| AllocFaultPoint {
        exec,
        materialization,
    };
    let sorted = FaultPlan {
        crashes: vec![
            CrashPoint {
                exec: 0,
                barrier: 2,
            },
            CrashPoint {
                exec: 1,
                barrier: 1,
            },
            CrashPoint {
                exec: 1,
                barrier: 3,
            },
        ],
        vcrashes: vec![
            VCrashPoint {
                exec: 2,
                at_ns: 0.3 * horizon_ns,
            },
            VCrashPoint {
                exec: 2,
                at_ns: 0.6 * horizon_ns,
            },
        ],
        losses: vec![
            loss(0, GatherKind::Shuffle, 0),
            loss(0, GatherKind::Shuffle, 2),
            loss(1, GatherKind::Action, 1),
        ],
        alloc_faults: vec![alloc(0, 1), alloc(0, 4), alloc(2, 3)],
        ..FaultPlan::single_crash(0, 2)
    };
    let mut reversed = sorted.clone();
    reversed.crashes.reverse();
    reversed.vcrashes.reverse();
    reversed.losses.reverse();
    reversed.alloc_faults.reverse();
    for host_threads in [1, 4] {
        let what = format!("host_threads {host_threads}");
        let a = run_faulted(WorkloadId::Tc, policy, 3, host_threads, &sorted);
        let b = run_faulted(WorkloadId::Tc, policy, 3, host_threads, &reversed);
        assert_results_eq(&a.results, &baseline.results, &what);
        assert!(a.report.recovery.executor_crashes >= 3, "{what}");
        assert_eq!(
            a.report.to_json().to_compact(),
            b.report.to_json().to_compact(),
            "{what}: a reversed plan must fire what the sorted one does"
        );
    }
}
