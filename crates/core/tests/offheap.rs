//! Off-heap H2 guarantees (`offheap_cache` alone):
//!
//! 1. Every persisted heap-level RDD lives as an H2 block for exactly its
//!    lineage lifetime: the static
//!    [`panthera_analysis::collect_lifetimes`] schedule drives the
//!    refcounts, so frees == allocs, nothing leaks to the end-of-run
//!    sweep, and no consumer ever reads a block after its planned death.
//! 2. Action results are bit-identical to the traced-heap run — blocks
//!    move storage, never values.
//! 3. Cached data is invisible to the GC: no more GC time or cards
//!    scanned, strictly less heap allocation, and no evictions on the
//!    cache-heaviest workload.
//!
//! Exercised across every Table 4 workload deterministically plus random
//! (workload, scale, seed) shapes via proptest. The checks are shared
//! with `regions.rs` and `storage.rs` through `common`.

mod common;

use common::Storage;
use proptest::prelude::*;

#[test]
fn offheap_region_drains_and_preserves_results_on_all_workloads() {
    common::drain_and_preserve_results_on_all_workloads(Storage::OffHeap);
}

#[test]
fn offheap_region_takes_cache_pressure_off_the_gc() {
    common::take_cache_pressure_off_the_gc(Storage::OffHeap);
}

#[test]
fn offheap_eviction_free_runs_have_no_evictions() {
    common::have_no_evictions(Storage::OffHeap);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn offheap_lifetimes_are_exact_under_random_shapes(
        pick in 0usize..7,
        scale_milli in 30u64..90,
        seed in 0u64..1_000,
    ) {
        common::lifetimes_are_exact(Storage::OffHeap, pick, scale_milli, seed)?;
    }
}
