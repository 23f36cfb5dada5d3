//! Lifetime-arena guarantees (`region_alloc` alone):
//!
//! 1. Streamed temporaries live in a stage-scoped scratch arena reset
//!    wholesale at stage end, and heap-level persists live in refcounted
//!    RDD-lifetime arenas driven by the static
//!    [`panthera_analysis::collect_lifetimes`] schedule: frees == allocs,
//!    nothing leaks to the end-of-run sweep, and no consumer ever reads
//!    an arena after its planned death.
//! 2. Action results are bit-identical to the traced-heap run — arenas
//!    move storage and charges, never values.
//! 3. Neither the scratch data nor the cached data is ever traced,
//!    card-marked, or promoted: no more GC time or cards scanned,
//!    strictly less heap allocation, and no evictions on the workload
//!    that streams and caches the most.
//!
//! Exercised across every Table 4 workload deterministically plus random
//! (workload, scale, seed) shapes via proptest. The checks are shared
//! with `offheap.rs` and `storage.rs` through `common`.

mod common;

use common::Storage;
use proptest::prelude::*;

#[test]
fn region_arenas_drain_and_preserve_results_on_all_workloads() {
    common::drain_and_preserve_results_on_all_workloads(Storage::Arenas);
}

#[test]
fn region_allocation_takes_streaming_pressure_off_the_gc() {
    common::take_cache_pressure_off_the_gc(Storage::Arenas);
}

#[test]
fn region_runs_have_no_evictions() {
    common::have_no_evictions(Storage::Arenas);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn region_lifetimes_are_exact_under_random_shapes(
        pick in 0usize..7,
        scale_milli in 30u64..90,
        seed in 0u64..1_000,
    ) {
        common::lifetimes_are_exact(Storage::Arenas, pick, scale_milli, seed)?;
    }
}
