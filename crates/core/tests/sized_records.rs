//! A record vector (`sparklet::Records`) carries each record's modelled
//! size, taken once where the record is produced, and every charge reads
//! the carried size. A debug build checks each carried size against
//! `Payload::model_bytes` as the vector is built, so these runs hold
//! every producer to it: the fused chain and the stage-at-a-time stream,
//! the reducers, the source scan, the wire decode of a cluster's input
//! and checkpoints, and the stage scratch arena — the seven workloads at
//! `E = 1`, fused and not, and at `E = 4` under `cluster_crash`'s storage
//! mix, fault-free and with crashes that replay from checkpoints. Every
//! run must also produce the lone fused run's results. (That the sizes
//! change no simulated value is pinned by `ci/golden/`.)

use panthera::cluster::{FaultPlan, FaultSpec};
use panthera::{
    MemoryMode, RecoveryPolicy, RunBuilder, RunSummary, ShuffleTransport, SystemConfig, SIM_GB,
};
use workloads::{build_workload, WorkloadId};

const EXECUTORS: u16 = 4;

fn config(executors: u16) -> SystemConfig {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = executors;
    cfg
}

/// `cluster_crash`'s storage mix: checkpoints every second shuffle,
/// shared-region transport, off-heap blocks and arenas.
fn crash_mix() -> SystemConfig {
    let mut cfg = config(EXECUTORS);
    cfg.recovery = RecoveryPolicy::CheckpointEvery(2);
    cfg.transport = ShuffleTransport::SharedRegion;
    cfg.offheap_cache = true;
    cfg.region_alloc = true;
    cfg
}

#[test]
fn every_record_producer_carries_its_records_sizes() {
    let mut restored = 0;
    for id in WorkloadId::ALL {
        let build = move || {
            let w = build_workload(id, 0.05, 11);
            (w.program, w.fns, w.data)
        };
        let run = |cfg: SystemConfig, plan: Option<&FaultPlan>| -> RunSummary {
            let builder = RunBuilder::from_build(&build).config(cfg);
            match plan {
                Some(plan) => builder.faults(plan).run(),
                None => builder.run(),
            }
            .unwrap_or_else(|e| panic!("{id}: {e}"))
        };
        let fused = run(config(1), None);
        let mut stepwise = config(1);
        stepwise.fuse_narrow = false;
        assert_eq!(run(stepwise, None).results, fused.results, "{id}: unfused");

        let clean = run(crash_mix(), None);
        assert_eq!(clean.results, fused.results, "{id}: E={EXECUTORS}");
        let plan = FaultPlan::generate(
            7,
            EXECUTORS,
            FaultSpec {
                crashes: 0,
                max_losses: 0,
                max_alloc_faults: 0,
                vcrashes: 3,
                vtime_lo_ns: 0.0,
                vtime_hi_ns: clean.report.elapsed_s * 1e9,
                ..FaultSpec::default()
            },
        );
        let crashed = run(crash_mix(), Some(&plan));
        assert_eq!(crashed.results, fused.results, "{id}: crashed");
        assert!(
            crashed.report.recovery.executor_crashes > 0,
            "{id}: no crash fired"
        );
        restored += crashed.report.recovery.partitions_restored;
    }
    assert!(restored > 0, "no replay restored a checkpoint");
}
