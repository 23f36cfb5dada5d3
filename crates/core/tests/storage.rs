//! Storage outside the traced heap with both switches on — `offheap_cache`
//! and `region_alloc`, `cluster_crash`'s configuration — plus the checks
//! that span all three non-default configurations (DESIGN.md §11):
//!
//! 1. With both on, persists become H2 blocks of the one block table and
//!    temporaries bump the stage scratch arena; the blocks drain exactly,
//!    results equal the traced-heap run, and the GC sees less work.
//! 2. Blocks are per-executor: in every executor of a cluster, under
//!    every configuration, results stay bit-identical and blocks drain.
//!
//! `offheap.rs` and `regions.rs` hold the same checks for each switch
//! alone; all three share them through `common`.

mod common;

use common::{assert_drained, run, Storage, STORAGE};
use panthera::{MemoryMode, RunBuilder, SystemConfig, SIM_GB};
use proptest::prelude::*;
use workloads::{build_workload, WorkloadId};

#[test]
fn both_drain_and_preserve_results_on_all_workloads() {
    common::drain_and_preserve_results_on_all_workloads(Storage::Both);
}

#[test]
fn both_take_cache_pressure_off_the_gc() {
    common::take_cache_pressure_off_the_gc(Storage::Both);
    common::have_no_evictions(Storage::Both);
}

#[test]
fn blocks_drain_in_every_executor() {
    // Blocks are per-executor: each executor plans lifetimes over its own
    // slice of the data, so results must stay bit-identical to the
    // traced-heap run at any cluster width — and every executor's blocks
    // must drain exactly.
    for id in WorkloadId::ALL {
        for executors in [2u16, 4] {
            let build = move || {
                let w = build_workload(id, 0.05, 11);
                (w.program, w.fns, w.data)
            };
            let run = |storage: Option<Storage>| {
                let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
                cfg.executors = executors;
                if let Some(s) = storage {
                    s.apply(&mut cfg);
                }
                RunBuilder::from_build(&build)
                    .config(cfg)
                    .run()
                    .expect("valid configuration")
            };
            let off = run(None);
            for storage in STORAGE {
                let on = run(Some(storage));
                let what = format!("{id}/E={executors}");
                assert_eq!(
                    on.results, off.results,
                    "{what} {storage:?}: storage outside the heap must never change a clustered value"
                );
                assert_eq!(
                    on.per_executor.len(),
                    executors as usize,
                    "{what}: executor count"
                );
                for (i, rep) in on.per_executor.iter().enumerate() {
                    assert_drained(storage, rep, &format!("{what}/executor-{i}"));
                }
            }
        }
    }
}

#[test]
fn offheap_cache_wins_over_region_alloc_for_persists() {
    // Both switches on: persisted RDDs become H2 blocks; streamed
    // temporaries still use the stage scratch arena.
    let (rep, stacked) = run(
        WorkloadId::Pr,
        MemoryMode::Panthera,
        0.05,
        11,
        Some(Storage::Both),
    );
    assert!(rep.exec.offheap_allocs > 0, "persists go off-heap");
    assert_eq!(rep.exec.region_allocs, 0, "no RDD-lifetime arenas");
    assert!(rep.exec.region_stage_bytes > 0, "scratch arena still used");
    let (_, offheap_only) = run(
        WorkloadId::Pr,
        MemoryMode::Panthera,
        0.05,
        11,
        Some(Storage::OffHeap),
    );
    assert_eq!(stacked, offheap_only, "stacking switches changes no value");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn both_lifetimes_are_exact_under_random_shapes(
        pick in 0usize..7,
        scale_milli in 30u64..90,
        seed in 0u64..1_000,
    ) {
        common::lifetimes_are_exact(Storage::Both, pick, scale_milli, seed)?;
    }
}
