//! Fused narrow-stage execution is an observational no-op: for every
//! workload, running with [`SystemConfig::fuse_narrow`] on and off yields
//! identical action results AND a bit-identical simulated report — same
//! clock, same energy, same GC counts, same allocation totals.
//!
//! This is the guard for the zero-copy pipeline rework: fusion changes
//! *host* execution (no intermediate `Vec<Payload>` per narrow stage) but
//! must not change anything the simulator can observe, because the fused
//! path replays the exact per-stage charge sequence the stage-at-a-time
//! interpreter would have issued.
//!
//! The executor count is one more input: the charges are
//! partition-independent and replayed in flat order, so the same holds on
//! every executor of a cluster, for either shuffle transport, with
//! lifetime regions on or off.

use mheap::Payload;
use panthera::cluster::FaultPlan;
use panthera::{MemoryMode, RunBuilder, RunSummary, ShuffleTransport, SystemConfig, SIM_GB};
use proptest::prelude::*;
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder};
use sparklet::{ActionResult, DataRegistry};
use workloads::{build_workload, WorkloadId};

fn run_once(id: WorkloadId, mode: MemoryMode, seed: u64, fuse: bool) -> RunSummary {
    let w = build_workload(id, 0.08, seed);
    let mut cfg = SystemConfig::new(mode, 16 * SIM_GB, 1.0 / 3.0);
    cfg.fuse_narrow = fuse;
    RunBuilder::new(&w.program, w.fns, w.data)
        .config(cfg)
        .run()
        .expect("valid configuration")
}

fn assert_equivalent(id: WorkloadId, mode: MemoryMode, seed: u64) {
    let fused = run_once(id, mode, seed, true);
    let plain = run_once(id, mode, seed, false);
    assert_same_run(&fused, &plain, &format!("{id}/{mode}/seed{seed}"));
}

/// The fused and the stage-at-a-time run of one program agree on every
/// action result and, bit for bit, on the simulated report.
fn assert_same_run(fused: &RunSummary, plain: &RunSummary, what: &str) {
    let (fused_rep, plain_rep) = (&fused.report, &plain.report);

    // Observable program results: same actions, same values.
    assert_eq!(
        fused.results.len(),
        plain.results.len(),
        "{what}: action count"
    );
    for ((fv, fr), (pv, pr)) in fused.results.iter().zip(plain.results.iter()) {
        assert_eq!(fv, pv, "{what}: action order");
        assert_action_eq(fr, pr, &format!("{what}: {fv}"));
    }

    // Simulated physics: bit-identical.
    assert_eq!(
        fused_rep.elapsed_s.to_bits(),
        plain_rep.elapsed_s.to_bits(),
        "{what}: elapsed"
    );
    assert_eq!(
        fused_rep.mutator_s.to_bits(),
        plain_rep.mutator_s.to_bits(),
        "{what}: mutator"
    );
    assert_eq!(
        fused_rep.energy_j().to_bits(),
        plain_rep.energy_j().to_bits(),
        "{what}: energy"
    );
    assert_eq!(
        fused_rep.gc.minor_count, plain_rep.gc.minor_count,
        "{what}: minor GCs"
    );
    assert_eq!(
        fused_rep.gc.major_count, plain_rep.gc.major_count,
        "{what}: major GCs"
    );
    assert_eq!(
        fused_rep.heap.allocated_bytes, plain_rep.heap.allocated_bytes,
        "{what}: allocation"
    );
    assert_eq!(
        fused_rep.device_bytes, plain_rep.device_bytes,
        "{what}: traffic"
    );
}

/// ActionResult comparison that treats floats bit-exactly (NaN-safe).
fn assert_action_eq(a: &ActionResult, b: &ActionResult, what: &str) {
    match (a, b) {
        (ActionResult::Count(x), ActionResult::Count(y)) => {
            assert_eq!(x, y, "{what}: count");
        }
        _ => assert_eq!(a, b, "{what}: result"),
    }
}

#[test]
fn fusion_is_invisible_on_every_workload() {
    for id in WorkloadId::ALL {
        assert_equivalent(id, MemoryMode::Panthera, 7);
    }
}

#[test]
fn fusion_is_invisible_across_memory_modes() {
    for mode in [
        MemoryMode::Unmanaged,
        MemoryMode::KingsguardWrites,
        MemoryMode::Panthera,
    ] {
        assert_equivalent(WorkloadId::Pr, mode, 11);
        assert_equivalent(WorkloadId::Km, mode, 11);
    }
}

/// A lone executor folds `reduceByKey` as the fused chain emits each
/// record. A `flat_map` that emits zero, one or several records per input
/// gives stage logs whose entries are 0 and above 1; the fold must still
/// receive exactly the records the stage-at-a-time engine collects, in
/// its order, which an order-sensitive combiner would expose.
#[test]
fn fusion_is_invisible_when_a_chain_feeds_a_reduce() {
    let run = |fuse: bool| {
        let mut b = ProgramBuilder::new("chain-into-reduce");
        let fan = b.flat_map_fn(|p| {
            let n = p.as_long().unwrap();
            (0..n % 4)
                .map(|i| Payload::keyed((n + i) % 7, Payload::Long(n * 10 + i)))
                .collect()
        });
        let keep = b.filter_fn(|p| p.as_pair().unwrap().1.as_long().unwrap() % 5 != 0);
        let scale = b.map_fn(|v| Payload::Long(v.as_long().unwrap() * 3 + 1));
        let fold = b.reduce_fn(|a, c| {
            let (a, c) = (a.as_long().unwrap(), c.as_long().unwrap());
            Payload::Long(a.wrapping_mul(31).wrapping_add(c))
        });
        let src = b.source("nums");
        let chain = src.flat_map(fan).filter(keep).map_values(scale);
        let x = b.bind("x", chain.reduce_by_key(fold));
        b.action(x, ActionKind::Collect);
        let (program, fns) = b.finish();
        let mut data = DataRegistry::new();
        data.register("nums", (0..500).map(Payload::Long).collect());
        let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
        cfg.fuse_narrow = fuse;
        RunBuilder::new(&program, fns, data)
            .config(cfg)
            .run()
            .expect("valid configuration")
    };
    let (fused, plain) = (run(true), run(false));
    let keys = fused.results[0].1.as_collected().map(<[Payload]>::len);
    assert_eq!(keys, Some(7), "one record per key");
    assert_same_run(&fused, &plain, "chain-into-reduce");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeds: fused and unfused stay equivalent on the workloads
    /// with the longest narrow chains.
    #[test]
    fn fusion_is_invisible_under_random_seeds(seed in 0u64..1_000) {
        assert_equivalent(WorkloadId::Pr, MemoryMode::Panthera, seed);
        assert_equivalent(WorkloadId::Tc, MemoryMode::Unmanaged, seed);
    }
}

/// One cluster run of `build`; the empty fault plan forces the cluster
/// driver (exchange, executor threads, recovery wiring) even at `E = 1`.
fn run_on_cluster(
    build: &(dyn Fn() -> (Program, FnTable, DataRegistry) + Sync),
    executors: u16,
    transport: ShuffleTransport,
    regions: bool,
    fuse: bool,
) -> RunSummary {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = executors;
    cfg.transport = transport;
    cfg.region_alloc = regions;
    cfg.fuse_narrow = fuse;
    RunBuilder::from_build(build)
        .config(cfg)
        .faults(&FaultPlan::none())
        .run()
        .expect("valid cluster configuration")
}

/// Fused and unfused cluster runs of `build` are byte-identical: the
/// aggregate report, every executor's report, and the results.
fn assert_cluster_equivalent(
    build: &(dyn Fn() -> (Program, FnTable, DataRegistry) + Sync),
    what: &str,
) {
    for executors in [1u16, 2, 4] {
        for transport in [ShuffleTransport::Serde, ShuffleTransport::SharedRegion] {
            for regions in [false, true] {
                let what = format!("{what}/E{executors}/{transport:?}/regions={regions}");
                let fused = run_on_cluster(build, executors, transport, regions, true);
                let plain = run_on_cluster(build, executors, transport, regions, false);
                assert_eq!(fused.results, plain.results, "{what}: results");
                assert_eq!(
                    fused.report.to_json().to_compact(),
                    plain.report.to_json().to_compact(),
                    "{what}: aggregate report"
                );
                assert_eq!(fused.per_executor.len(), usize::from(executors), "{what}");
                for (e, (f, p)) in fused
                    .per_executor
                    .iter()
                    .zip(&plain.per_executor)
                    .enumerate()
                {
                    assert_eq!(
                        f.to_json().to_compact(),
                        p.to_json().to_compact(),
                        "{what}: executor {e} report"
                    );
                }
                assert_eq!(
                    fused.shared_region_bytes, plain.shared_region_bytes,
                    "{what}: shared-region deposits"
                );
            }
        }
    }
}

#[test]
fn fusion_is_invisible_in_cluster_mode() {
    for id in [WorkloadId::Pr, WorkloadId::Km] {
        let build = move || {
            let w = build_workload(id, 0.05, 7);
            (w.program, w.fns, w.data)
        };
        assert_cluster_equivalent(&build, &id.to_string());
    }
}

/// A `checkpoint()`-marked narrow RDD that was an action target has a
/// snapshot in the NVM store but no live materialization; a later chain
/// through it must restore the snapshot (charging the NVM read) exactly
/// as the stage-at-a-time engine does, not fuse past it.
#[test]
fn fusion_stops_at_a_restorable_checkpoint() {
    let build = || {
        let mut b = ProgramBuilder::new("ckpt-chain");
        let inc = b.map_fn(|p| Payload::Long(p.as_long().unwrap() + 1));
        let even = b.filter_fn(|p| p.as_long().unwrap() % 2 == 0);
        let src = b.source("nums");
        let x = b.bind("x", src.map(inc).filter(even));
        b.checkpoint(x);
        b.action(x, ActionKind::Count);
        let y = b.bind("y", b.var(x).map(inc).map(inc));
        b.loop_n(2, |b| b.action(y, ActionKind::Collect));
        let (program, fns) = b.finish();
        let mut data = DataRegistry::new();
        data.register("nums", (0..200).map(Payload::Long).collect());
        (program, fns, data)
    };
    let fused = run_on_cluster(&build, 2, ShuffleTransport::Serde, false, true);
    assert!(
        fused.report.recovery.restore_bytes > 0,
        "the chain through x must read x's snapshot back"
    );
    assert_cluster_equivalent(&build, "ckpt-chain");
}
