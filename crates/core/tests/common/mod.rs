//! Shared checks for storage outside the traced heap (DESIGN.md §11),
//! parameterised over the three non-default configurations: off-heap H2
//! blocks (`offheap_cache`), lifetime arenas (`region_alloc`), and both.
//! `offheap.rs`, `regions.rs` and `storage.rs` each drive a subset.

#![allow(dead_code)]

use panthera::{MemoryMode, RunBuilder, RunReport, SystemConfig, SIM_GB};
use proptest::prelude::*;
use sparklet::{ActionResult, ExecStats};
use workloads::{build_workload, WorkloadId};

/// A non-default storage configuration.
#[derive(Clone, Copy, Debug)]
pub enum Storage {
    /// `offheap_cache`: persists become H2 blocks.
    OffHeap,
    /// `region_alloc`: persists become arenas; temporaries bump scratch.
    Arenas,
    /// Both: persists become H2 blocks; temporaries bump scratch.
    Both,
}

pub const STORAGE: [Storage; 3] = [Storage::OffHeap, Storage::Arenas, Storage::Both];

impl Storage {
    /// Whether persists become H2 blocks (`offheap_cache`).
    pub fn h2(self) -> bool {
        matches!(self, Storage::OffHeap | Storage::Both)
    }

    /// Whether evaluations open stage scratch arenas (`region_alloc`).
    pub fn scratch(self) -> bool {
        matches!(self, Storage::Arenas | Storage::Both)
    }

    pub fn apply(self, cfg: &mut SystemConfig) {
        cfg.offheap_cache = self.h2();
        cfg.region_alloc = self.scratch();
    }

    /// The counter family this configuration's blocks count in — H2's
    /// whenever `offheap_cache` is on — as allocs, frees, leaks, dead
    /// reads; then the other family's allocs, which must stay zero.
    pub fn counters(self, e: &ExecStats) -> ([u64; 4], u64) {
        let h2 = [
            e.offheap_allocs,
            e.offheap_frees,
            e.offheap_leaks,
            e.offheap_dead_reads,
        ];
        let arenas = [
            e.region_allocs,
            e.region_frees,
            e.region_leaks,
            e.region_dead_reads,
        ];
        if self.h2() {
            (h2, e.region_allocs)
        } else {
            (arenas, e.offheap_allocs)
        }
    }
}

pub fn run(
    id: WorkloadId,
    mode: MemoryMode,
    scale: f64,
    seed: u64,
    storage: Option<Storage>,
) -> (RunReport, Vec<(String, ActionResult)>) {
    let mut cfg = SystemConfig::new(mode, 16 * SIM_GB, 1.0 / 3.0);
    if let Some(s) = storage {
        s.apply(&mut cfg);
    }
    let w = build_workload(id, scale, seed);
    let run = RunBuilder::new(&w.program, w.fns, w.data)
        .config(cfg)
        .run()
        .expect("valid configuration");
    (run.report, run.results)
}

pub fn assert_drained(storage: Storage, report: &RunReport, what: &str) {
    let ([allocs, frees, leaks, dead_reads], other_allocs) = storage.counters(&report.exec);
    assert_eq!(
        frees, allocs,
        "{what} {storage:?}: every block must be freed exactly once \
         (allocs={allocs}, frees={frees})"
    );
    assert_eq!(
        leaks, 0,
        "{what} {storage:?}: the end-of-run sweep found blocks the lifetime plan missed"
    );
    assert_eq!(
        dead_reads, 0,
        "{what} {storage:?}: a consumer read a block after its planned death"
    );
    assert_eq!(
        other_allocs, 0,
        "{what} {storage:?}: blocks count in one family only"
    );
    assert_eq!(
        report.exec.region_stage_arenas > 0,
        storage.scratch(),
        "{what} {storage:?}: every evaluation opens a stage scratch arena iff region_alloc"
    );
}

/// Every Table 4 workload in both memory modes: results equal the
/// traced-heap run, and every block drains.
pub fn drain_and_preserve_results_on_all_workloads(storage: Storage) {
    for id in WorkloadId::ALL {
        for mode in [MemoryMode::Panthera, MemoryMode::Unmanaged] {
            let what = format!("{id}/{mode}");
            let (rep_off, out_off) = run(id, mode, 0.05, 11, None);
            let e = &rep_off.exec;
            assert_eq!(
                e.offheap_allocs + e.region_allocs + e.region_stage_arenas,
                0,
                "{what}: storage off means no block or arena activity"
            );
            let (rep_on, out_on) = run(id, mode, 0.05, 11, Some(storage));
            assert_eq!(
                out_on, out_off,
                "{what} {storage:?}: storage outside the heap must never change a value"
            );
            assert_drained(storage, &rep_on, &what);
        }
    }
}

/// PageRank at a scale where major collections fire, with `storage` on.
/// PageRank persists its link structure for every iteration plus a fresh
/// contributions RDD per iteration, and streams contributions every
/// iteration — the cache-heaviest Table 4 workload. (At tiny scales GC
/// timing is noise — a collection landing on a different live set can go
/// either way.)
pub fn pagerank(storage: Option<Storage>) -> RunReport {
    run(WorkloadId::Pr, MemoryMode::Panthera, 0.4, 3, storage).0
}

/// Outside the heap none of PageRank's cached or streamed data is traced
/// or card-marked: no more GC time or cards scanned than the traced-heap
/// run, and strictly less heap allocation.
pub fn take_cache_pressure_off_the_gc(storage: Storage) {
    let rep_off = pagerank(None);
    let rep_on = pagerank(Some(storage));
    let ([allocs, ..], _) = storage.counters(&rep_on.exec);
    assert!(allocs > 0, "{storage:?}: PR must cache through blocks");
    if storage.scratch() {
        assert!(
            rep_on.exec.region_stage_bytes > 0,
            "{storage:?}: PR must stream through the stage scratch arena"
        );
    }
    let gc_off = rep_off.minor_gc_s + rep_off.major_gc_s;
    let gc_on = rep_on.minor_gc_s + rep_on.major_gc_s;
    assert!(
        gc_on <= gc_off,
        "{storage:?}: storage outside the heap must not add GC time (on={gc_on}, off={gc_off})"
    );
    assert!(
        rep_on.minor_gc_s <= rep_off.minor_gc_s,
        "{storage:?}: storage outside the heap must not add minor-GC time (on={}, off={})",
        rep_on.minor_gc_s,
        rep_off.minor_gc_s
    );
    assert!(
        rep_on.gc.cards_scanned <= rep_off.gc.cards_scanned,
        "{storage:?}: storage outside the heap must not add card-scan work"
    );
    assert!(
        rep_on.heap.allocated_bytes < rep_off.heap.allocated_bytes,
        "{storage:?}: cached data must leave the managed heap"
    );
}

/// Heap-level persists bypass the managed cache entirely — the engine's
/// LRU has nothing to evict, which is what keeps the static lifetime plan
/// and the dynamic run in lockstep.
pub fn have_no_evictions(storage: Storage) {
    assert_eq!(
        pagerank(Some(storage)).exec.evictions,
        0,
        "{storage:?}: block-cached runs must not evict"
    );
}

/// Random (workload, scale, seed) shapes: refcounts hit zero exactly at
/// lineage death — no leak, no premature free — and results are
/// unchanged.
pub fn lifetimes_are_exact(
    storage: Storage,
    pick: usize,
    scale_milli: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let id = WorkloadId::ALL[pick];
    let scale = scale_milli as f64 / 1000.0;
    let (_, out_off) = run(id, MemoryMode::Panthera, scale, seed, None);
    let (rep_on, out_on) = run(id, MemoryMode::Panthera, scale, seed, Some(storage));
    prop_assert_eq!(&out_on, &out_off, "{} {:?} results", id, storage);
    let ([allocs, frees, leaks, dead_reads], other_allocs) = storage.counters(&rep_on.exec);
    prop_assert_eq!(frees, allocs, "{} {:?} frees == allocs", id, storage);
    prop_assert_eq!(leaks, 0, "{} {:?} leaks", id, storage);
    prop_assert_eq!(dead_reads, 0, "{} {:?} dead reads", id, storage);
    prop_assert_eq!(other_allocs, 0, "{} {:?} one family", id, storage);
    Ok(())
}
