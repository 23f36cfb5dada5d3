//! The quiet-unwind panic hook is *scoped to cluster runs* (PR 8 fix —
//! PR 5 installed it once and leaked it for the life of the process):
//!
//! * while a run is live, only `ClusterError` panics on cluster-owned
//!   executor threads are silenced; every other panic — including a
//!   `ClusterError` payload thrown on a non-cluster thread — still
//!   reaches the previously installed hook with its report intact;
//! * when the last run ends, the previous hook is restored verbatim.
//!
//! This is the only test in this binary: it manipulates the process-wide
//! panic hook and must not race other tests.

use panthera::cluster::{quiet_unwind_idle, FaultPlan};
use panthera::{MemoryMode, RecoveryPolicy, RunBuilder, SystemConfig, SIM_GB};
use sparklet::ClusterError;
use std::sync::atomic::{AtomicUsize, Ordering};
use workloads::{build_workload, WorkloadId};

static CUSTOM_HOOK_HITS: AtomicUsize = AtomicUsize::new(0);

fn run_once_with_crash() {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = 2;
    cfg.recovery = RecoveryPolicy::Recompute;
    let build = || {
        let w = build_workload(WorkloadId::Tc, 0.03, 11);
        (w.program, w.fns, w.data)
    };
    let outcome = RunBuilder::from_build(&build)
        .config(cfg)
        .host_threads(2)
        .faults(&FaultPlan::single_crash(1, 2))
        .run()
        .expect("valid cluster config");
    assert_eq!(
        outcome.report.recovery.executor_crashes, 1,
        "the planned crash fired (executor threads really panicked)"
    );
}

#[test]
fn hook_is_restored_and_only_cluster_panics_are_silenced() {
    assert!(
        quiet_unwind_idle(),
        "no quiet hook before the first cluster run"
    );

    // Install a sentinel hook so restoration is observable: after the
    // runs, panics must land here again.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {
        CUSTOM_HOOK_HITS.fetch_add(1, Ordering::SeqCst);
    }));

    // Two back-to-back runs exercise install → restore → reinstall;
    // each injects a real executor crash, so ClusterError panics fly on
    // cluster threads and must all be silenced (no sentinel hits).
    run_once_with_crash();
    assert!(quiet_unwind_idle(), "hook handed back after the first run");
    run_once_with_crash();
    assert!(quiet_unwind_idle(), "hook handed back after the second run");
    assert_eq!(
        CUSTOM_HOOK_HITS.load(Ordering::SeqCst),
        0,
        "planned executor unwinds never reached the outer hook"
    );

    // A ClusterError payload on a *non-cluster* thread is somebody
    // else's bug: it must reach the (restored) outer hook.
    let err = std::panic::catch_unwind(|| {
        std::panic::panic_any(ClusterError::InjectedCrash {
            exec: 0,
            barrier: 0,
            at_ns: 0.0,
        });
    });
    assert!(err.is_err());
    assert_eq!(
        CUSTOM_HOOK_HITS.load(Ordering::SeqCst),
        1,
        "a ClusterError off a cluster thread is not silenced"
    );

    // An ordinary panic also reaches the restored hook.
    let err = std::panic::catch_unwind(|| panic!("plain panic"));
    assert!(err.is_err());
    assert_eq!(
        CUSTOM_HOOK_HITS.load(Ordering::SeqCst),
        2,
        "the pre-run hook is back in place"
    );

    std::panic::set_hook(default_hook);
}
