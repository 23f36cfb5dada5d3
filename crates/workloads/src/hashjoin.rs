//! Section 4.3's applicability example: a Hadoop-style HashJoin managed
//! directly through Panthera's two public runtime APIs, with no Spark
//! driver program and no static analysis.
//!
//! A SQL-engine building block: the *build* table is loaded entirely into
//! memory and probed by every map worker — long-lived and frequently
//! accessed, so it is **pretenured in DRAM** (API 1). The *probe* table is
//! streamed through the young generation partition by partition and dies
//! there. A third, optional *archive* table has an unpredictable pattern,
//! so it is **monitored** (API 2) and left to the major GC's dynamic
//! re-assessment.

use mheap::{Key, MemTag, ObjId, Payload, RootSet};
use panthera::{MemoryMode, RunReport, SystemConfig};
use std::collections::HashMap;

/// Synthetic input tables for the join.
#[derive(Debug, Clone)]
pub struct HashJoinInput {
    /// The in-memory build side: `(key, value)` rows.
    pub build: Vec<Payload>,
    /// The streamed probe side, already partitioned across map workers.
    pub probe_partitions: Vec<Vec<Payload>>,
}

/// Generate a build table of `build_rows` rows and `map_workers` probe
/// partitions of `probe_rows_each` rows, with ~50% key hit rate.
pub fn hashjoin_input(
    build_rows: usize,
    map_workers: usize,
    probe_rows_each: usize,
    seed: u64,
) -> HashJoinInput {
    let mut x = seed | 1;
    let mut next = move || {
        // SplitMix64 step — deterministic, dependency-free.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let build = (0..build_rows)
        .map(|k| Payload::keyed(k as i64, Payload::Long(next() as i64 & 0xffff)))
        .collect();
    let probe_partitions = (0..map_workers)
        .map(|_| {
            (0..probe_rows_each)
                .map(|_| {
                    let k = (next() % (2 * build_rows as u64)) as i64;
                    Payload::keyed(k, Payload::Long(next() as i64 & 0xffff))
                })
                .collect()
        })
        .collect();
    HashJoinInput {
        build,
        probe_partitions,
    }
}

/// Outcome of a HashJoin run.
#[derive(Debug)]
pub struct HashJoinOutcome {
    /// Matched `(key, (build, probe))` output rows.
    pub matches: u64,
    /// The run's measurements.
    pub report: RunReport,
}

/// Run the HashJoin under the given mode, driving the runtime APIs
/// directly (API 1 for the build table, API 2 for an archive table).
///
/// # Panics
///
/// Panics if the configuration is invalid for the chosen mode.
pub fn run_hashjoin(input: &HashJoinInput, config: &SystemConfig) -> HashJoinOutcome {
    let mut rt = config.runtime().expect("valid config");
    let mut roots = RootSet::new();
    let semantic = config.mode == MemoryMode::Panthera;

    // --- load the build table -------------------------------------------
    const BUILD: u32 = 1;
    let build_array = if semantic {
        // API 1: the developer knows this table is hot.
        rt.api_pretenure(&roots, BUILD, input.build.len().max(1), MemTag::Dram)
    } else {
        rt.alloc_rdd_array(&roots, BUILD, input.build.len().max(1), None)
    };
    roots.push(build_array);
    let mut hash: HashMap<Key, ObjId> = HashMap::new();
    for row in &input.build {
        let obj = rt.alloc_record(&roots, row.model_bytes());
        rt.heap_mut().push_ref(build_array, obj);
        hash.insert(row.shuffle_key(), obj);
    }
    // The table is long-lived: let it settle into the old generation
    // (eagerly under Panthera, by aging under the baselines).
    for _ in 0..3 {
        rt.minor_gc(&roots);
    }

    // --- probe, one map worker at a time ---------------------------------
    let mut matches = 0u64;
    for partition in &input.probe_partitions {
        roots.push_scope();
        // One monitored method call per worker's scan of the shared table
        // (API 2) — not per row; monitoring is method-level (Section 4.2.2).
        if semantic {
            rt.api_monitor(BUILD);
        }
        for row in partition {
            // Each probe row is a short-lived young object...
            rt.alloc_record(&roots, row.model_bytes());
            // ...that probes the shared build table.
            if let Some(&obj) = hash.get(&row.shuffle_key()) {
                // Touch the matched build row where it physically lives.
                rt.heap_mut().read_object(obj);
                matches += 1;
            }
        }
        roots.pop_scope();
        rt.stage_boundary(&roots);
    }

    let report = RunReport::collect("hashjoin", &rt, sparklet::ExecStats::default());
    HashJoinOutcome { matches, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheap::SpaceId;
    use panthera::SIM_GB;

    fn input() -> HashJoinInput {
        hashjoin_input(512, 4, 1_024, 9)
    }

    #[test]
    fn matches_are_mode_independent() {
        let input = input();
        let a = run_hashjoin(
            &input,
            &SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0),
        );
        let b = run_hashjoin(
            &input,
            &SystemConfig::new(MemoryMode::Unmanaged, 8 * SIM_GB, 1.0 / 3.0),
        );
        assert_eq!(a.matches, b.matches);
        // ~50% of probes hit the half-range key space.
        let probes = 4 * 1_024;
        assert!((probes / 3..probes).contains(&(a.matches as usize)));
    }

    #[test]
    fn build_table_probes_hit_dram_under_panthera() {
        let input = input();
        let cfg = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
        let out = run_hashjoin(&input, &cfg);
        assert!(out.report.monitored_calls > 0, "API 2 counted probes");
        // The build table was pretenured in DRAM, so a hybrid machine's
        // probe traffic is DRAM-dominated.
        assert!(out.report.device_bytes[0] > 10 * out.report.device_bytes[1]);
    }

    #[test]
    fn kingsguard_nursery_pays_nvm_probes() {
        let input = input();
        let kn = run_hashjoin(
            &input,
            &SystemConfig::new(MemoryMode::KingsguardNursery, 8 * SIM_GB, 1.0 / 3.0),
        );
        let pan = run_hashjoin(
            &input,
            &SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0),
        );
        assert!(
            kn.report.elapsed_s > pan.report.elapsed_s,
            "KN probes the build table in NVM and pays latency: {} vs {}",
            kn.report.elapsed_s,
            pan.report.elapsed_s
        );
    }

    #[test]
    fn pretenured_build_array_is_in_dram_old_gen() {
        let cfg = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
        let mut rt = cfg.runtime().unwrap();
        let roots = RootSet::new();
        let arr = rt.api_pretenure(&roots, 7, 256, MemTag::Dram);
        assert_eq!(
            rt.heap().obj(arr).space,
            SpaceId::Old(rt.heap().old_dram().unwrap())
        );
    }
}
