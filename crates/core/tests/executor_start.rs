//! An executor that does not start ends its run with a typed error. The
//! driver's build here is well formed and every executor's is not, so the
//! driver's checks pass and each executor fails inside its own thread:
//! the exchange is poisoned so peers unwind, and the run returns
//! `RunError::Config` naming an executor instead of panicking.
//!
//! This is the only test in this binary: it checks that the process-wide
//! quiet-unwind hook is handed back afterwards, which must not race other
//! cluster runs.

use mheap::Payload;
use panthera::cluster::quiet_unwind_idle;
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

#[test]
fn an_executor_that_does_not_start_is_a_config_error() {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = 4;
    for host_threads in [1, 4] {
        let builds = AtomicU64::new(0);
        let build = || match builds.fetch_add(1, Ordering::SeqCst) {
            0 => well_formed(),
            _ => ill_formed(),
        };
        let run = RunBuilder::from_build(&build)
            .config(cfg.clone())
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
        assert!(
            quiet_unwind_idle(),
            "{host_threads} host threads: hook handed back"
        );
    }
}
