//! Cross-crate integration: full workloads through analysis, engine, GC,
//! heap, and memory model, checking end-to-end invariants.

use mheap::Payload;
use panthera::{MemoryMode, RunBuilder, RunSummary, SystemConfig, SIM_GB};
use sparklang::{ActionKind, ProgramBuilder};
use sparklet::{ActionResult, DataRegistry};
use workloads::{build_workload, WorkloadId};

const SCALE: f64 = 0.15;

fn run_cfg(id: WorkloadId, cfg: SystemConfig) -> RunSummary {
    let w = build_workload(id, SCALE, 11);
    RunBuilder::new(&w.program, w.fns, w.data)
        .config(cfg)
        .run()
        .expect("valid configuration")
}

fn run(id: WorkloadId, mode: MemoryMode) -> RunSummary {
    run_cfg(id, SystemConfig::new(mode, 16 * SIM_GB, 1.0 / 3.0))
}

fn run_report(id: WorkloadId, mode: MemoryMode) -> panthera::RunReport {
    run(id, mode).report
}

#[test]
fn every_workload_runs_under_every_mode() {
    for id in WorkloadId::ALL {
        for mode in MemoryMode::ALL {
            let r = run(id, mode);
            assert!(r.report.elapsed_s > 0.0, "{id}/{mode}: no time elapsed");
            assert!(!r.results.is_empty(), "{id}/{mode}: no action results");
            assert!(
                r.report.exec.records_streamed > 0,
                "{id}/{mode}: nothing streamed"
            );
        }
    }
}

#[test]
fn results_are_mode_independent() {
    // Memory management must never change computed answers.
    for id in WorkloadId::ALL {
        let base = run(id, MemoryMode::DramOnly);
        for mode in [
            MemoryMode::Unmanaged,
            MemoryMode::Panthera,
            MemoryMode::KingsguardWrites,
        ] {
            let other = run(id, mode);
            assert_eq!(
                base.results, other.results,
                "{id}: {mode} changed the computed results"
            );
        }
    }
}

#[test]
fn phase_times_sum_to_elapsed() {
    for mode in MemoryMode::ALL {
        let r = run_report(WorkloadId::Pr, mode);
        let sum = r.mutator_s + r.minor_gc_s + r.major_gc_s;
        assert!(
            (sum - r.elapsed_s).abs() < 1e-9,
            "{mode}: phases {sum} != elapsed {}",
            r.elapsed_s
        );
    }
}

#[test]
fn dram_only_never_touches_nvm() {
    let r = run_report(WorkloadId::Cc, MemoryMode::DramOnly);
    assert_eq!(r.device_bytes[1], 0, "DRAM-only moved NVM bytes");
    assert_eq!(r.energy.nvm_dynamic_j, 0.0);
    assert_eq!(r.energy.nvm_static_j, 0.0, "no NVM installed");
}

#[test]
fn hybrid_modes_use_both_devices() {
    for mode in [
        MemoryMode::Unmanaged,
        MemoryMode::Panthera,
        MemoryMode::KingsguardNursery,
    ] {
        let r = run_report(WorkloadId::Pr, mode);
        assert!(r.device_bytes[0] > 0, "{mode}: no DRAM traffic");
        assert!(r.device_bytes[1] > 0, "{mode}: no NVM traffic");
    }
}

#[test]
fn panthera_monitors_baselines_do_not() {
    let pan = run_report(WorkloadId::Cc, MemoryMode::Panthera);
    assert!(pan.monitored_calls > 0);
    for mode in [
        MemoryMode::DramOnly,
        MemoryMode::Unmanaged,
        MemoryMode::KingsguardNursery,
    ] {
        let r = run_report(WorkloadId::Cc, mode);
        assert_eq!(r.monitored_calls, 0, "{mode} should not monitor");
    }
}

#[test]
fn gc_actually_collects_garbage() {
    let r = run_report(WorkloadId::Pr, MemoryMode::Panthera);
    assert!(r.gc.minor_count > 0, "no minor GCs under memory pressure");
    assert!(
        r.gc.young_freed > 0,
        "streaming garbage was never reclaimed"
    );
    assert!(
        r.heap.young_allocs > 1_000,
        "workload too small to be meaningful"
    );
}

#[test]
fn kingsguard_writes_performs_write_migration() {
    let r = run_report(WorkloadId::Pr, MemoryMode::KingsguardWrites);
    assert!(r.gc.write_migrations > 0, "KW never migrated anything");
}

#[test]
fn bandwidth_traces_cover_the_run() {
    let r = run_report(WorkloadId::Cc, MemoryMode::Panthera);
    let windows = r.traffic.windows();
    assert!(!windows.is_empty());
    let total: u64 = windows.iter().map(|w| w.total()).sum();
    assert_eq!(total, r.device_bytes[0] + r.device_bytes[1]);
}

#[test]
fn energy_grows_with_installed_dram() {
    let r64 = run_cfg(
        WorkloadId::Km,
        SystemConfig::new(MemoryMode::DramOnly, 16 * SIM_GB, 1.0),
    )
    .report;
    let r120 = run_cfg(
        WorkloadId::Km,
        SystemConfig::new(MemoryMode::DramOnly, 32 * SIM_GB, 1.0),
    )
    .report;
    assert!(
        r120.energy.dram_static_j > r64.energy.dram_static_j,
        "double the DRAM must burn more background energy"
    );
}

#[test]
fn a_block_of_more_than_65536_statements_runs_each_once() {
    // One bind, 65 535 self-rebinds and one count: 65 537 top-level
    // statements, so a statement's position in its block needs more than
    // 16 bits.
    let mut b = ProgramBuilder::new("long-block");
    let src = b.source("nums");
    let x = b.bind("x", src);
    for _ in 0..65_535 {
        let same = b.var(x);
        b.rebind(x, same);
    }
    b.action(x, ActionKind::Count);
    let (program, fns) = b.finish();
    assert_eq!(program.stmts.len(), 65_537);
    let mut data = DataRegistry::new();
    data.register("nums", (0..16).map(Payload::Long).collect());
    let run = RunBuilder::new(&program, fns, data)
        .config(SystemConfig::new(
            MemoryMode::Panthera,
            2 * SIM_GB,
            1.0 / 3.0,
        ))
        .run()
        .expect("valid configuration");
    assert_eq!(run.results, [("x".to_string(), ActionResult::Count(16))]);
}
