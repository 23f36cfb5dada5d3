//! The benchmark's vocabulary: every workload and metric name, with its
//! unit, clock and regression bound, in one place.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! ([`manifest`]); a unit test keeps the committed file equal to them.
//! Later issues cite these names verbatim, so a rename is a breaking
//! change to the perf trajectory.

use obs::Json;

/// How long one run measures, seconds (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 14;

/// One benchmark workload: its name and the one-line reason it exists.
pub struct WorkloadName {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadName; 6] = [
    WorkloadName {
        name: "graph_minor",
        why: "GraphX-CC on one runtime: minor GC, card scan and promotion take most of the host time, so a gc/mheap gain must show here",
    },
    WorkloadName {
        name: "ml_scan",
        why: "iteration-heavy K-Means: sparklet pipeline, shuffle and hybridmem charging do the work and GC almost none, so gc work must not move it",
    },
    WorkloadName {
        name: "stream_drift",
        why: "micro-batch stream with online re-tagging: forced major GCs and migrations every batch, the reverse gc/mheap mix of graph_minor",
    },
    WorkloadName {
        name: "cluster_shuffle",
        why: "4-executor PageRank over the serde exchange, fault-free: permits, gathers and network charging, where host parallelism must show",
    },
    WorkloadName {
        name: "cluster_crash",
        why: "same program with 3 virtual-time crashes, checkpoints, shared-region transport, off-heap and arena storage: the replay path",
    },
    WorkloadName {
        name: "service_mix",
        why: "100 short jobs from 3 tenants on a 4-executor fair-share pool: scheduling loop, preemption and per-run fixed cost dominate",
    },
];

/// Which clock (or none) a metric is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall/CPU time or memory: noisy, compared against a bound.
    Host,
    /// The simulated clock or a value derived from it: repeats exactly
    /// for one seed, so two commits compare exactly.
    Virtual,
    /// An exact counter read from a report: compared exactly, reported
    /// as a count and never as a speed-up.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

/// One metric: name, unit, direction, clock, and the share of the
/// parent's median by which it may worsen (0: no bound).
pub struct MetricName {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub clock: Clock,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, clock: Clock, bound: f64) -> MetricName {
    MetricName {
        name,
        unit,
        higher_is_better: false,
        clock,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock) -> MetricName {
    MetricName {
        name,
        unit,
        higher_is_better: false,
        clock,
        bound: 0.0,
    }
}

/// A host per-layer metric that `benchmark compare` holds to a bound
/// (the manifest prints no bound for per-layer metrics).
const fn layer_bounded(name: &'static str, unit: &'static str, bound: f64) -> MetricName {
    MetricName {
        name,
        unit,
        higher_is_better: false,
        clock: Clock::Host,
        bound,
    }
}

const fn layer_up(name: &'static str, unit: &'static str, clock: Clock) -> MetricName {
    MetricName {
        name,
        unit,
        higher_is_better: true,
        clock,
        bound: 0.0,
    }
}

/// The end-to-end metrics, reported for every workload with tracing off.
///
/// The bounds are sized from the spread between ten invocations under
/// ten seeds on the reference box (`spread.py`, README). The host bounds
/// are the widest the contract allows because that box's speed depends
/// on its neighbours: host times spread 2-6 % in a quiet hour and 25-45 %
/// in a busy one. The `sim_*` bounds are three times their spread, which exists
/// only because the driver varies `--seed` and the inputs, hence the
/// simulated numbers, vary with it (`stream_drift` most, 4.8 %). For one
/// seed they repeat bit-exactly and `benchmark compare` holds them to
/// 0.1 %.
pub const END_TO_END: [MetricName; 6] = [
    e2e("setup_s", "s", Clock::Host, 0.25),
    e2e("host_peak_rss_mb", "MB", Clock::Host, 0.25),
    e2e("sim_elapsed_s", "s", Clock::Virtual, 0.15),
    e2e("sim_energy_j", "J", Clock::Virtual, 0.15),
    e2e("sim_time_vs_dram_only", "ratio", Clock::Virtual, 0.05),
    e2e("sim_energy_vs_dram_only", "ratio", Clock::Virtual, 0.05),
];

/// The per-layer metrics, reported for every workload by the traced run.
pub const PER_LAYER: &[MetricName] = &[
    // Virtual-clock GC totals: end-to-end in spirit, listed here because
    // they are legitimately 0 on cluster_crash (nothing reaches the young
    // generation there) and the manifest's bounded metrics must never be 0.
    layer("sim_gc_s", "s", Clock::Virtual),
    layer("sim_max_pause_ms", "ms", Clock::Virtual),
    // Host time of a warm run: end-to-end in spirit as well, listed here
    // because identical runs on a shared host spread by more than the
    // widest bound the manifest may carry (README, *Bounds*). `compare`
    // still holds them to a bound.
    layer_bounded("host_s", "s", 0.25),
    layer_bounded("host_cpu_s", "s", 0.25),
    layer("workloads.build_ms", "ms", Clock::Host),
    layer("sparklang.parse_us", "us", Clock::Host),
    layer("analysis.infer_us", "us", Clock::Host),
    layer_up("analysis.tagged_dram", "count", Clock::Count),
    layer_up("analysis.tagged_nvm", "count", Clock::Count),
    layer("sparklet.stage_host_s", "s", Clock::Host),
    layer("sparklet.self_host_s", "s", Clock::Host),
    layer("sparklet.self_ns_per_record", "ns", Clock::Host),
    layer("sparklet.records_streamed", "count", Clock::Count),
    layer("sparklet.shuffles", "count", Clock::Count),
    layer("sparklet.shuffle_bytes", "bytes", Clock::Count),
    layer("sparklet.materializations", "count", Clock::Count),
    layer("sparklet.evictions", "count", Clock::Count),
    layer("sparklet.sim_mutator_s", "s", Clock::Virtual),
    layer("mheap.alloc_ns_per_obj", "ns", Clock::Host),
    layer("mheap.young_allocs", "count", Clock::Count),
    layer("mheap.pretenured_allocs", "count", Clock::Count),
    layer("mheap.allocated_bytes", "bytes", Clock::Count),
    layer("mheap.cards_dirtied", "count", Clock::Count),
    layer("mheap.offheap_allocs", "count", Clock::Count),
    layer("mheap.region_allocs", "count", Clock::Count),
    layer("mheap.region_stage_bytes", "bytes", Clock::Count),
    layer("mheap.storage_leaks", "count", Clock::Count),
    layer("gc.minor_host_s", "s", Clock::Host),
    layer("gc.minor_host_ms_p50", "ms", Clock::Host),
    layer("gc.minor_host_ms_max", "ms", Clock::Host),
    layer("gc.major_host_s", "s", Clock::Host),
    layer("gc.host_frac", "ratio", Clock::Host),
    layer("gc.minor_count", "count", Clock::Count),
    layer("gc.major_count", "count", Clock::Count),
    layer("gc.cards_scanned", "count", Clock::Count),
    layer("gc.survivor_copies", "count", Clock::Count),
    layer("gc.promotions", "count", Clock::Count),
    layer("gc.rdds_migrated", "count", Clock::Count),
    layer("gc.sim_minor_s", "s", Clock::Virtual),
    layer("gc.sim_major_s", "s", Clock::Virtual),
    layer("gc.sim_minor_pause_p90_ms", "ms", Clock::Virtual),
    layer("hybridmem.access_ns_per_op", "ns", Clock::Host),
    layer("hybridmem.dram_bytes", "bytes", Clock::Count),
    layer("hybridmem.nvm_bytes", "bytes", Clock::Count),
    layer_up("hybridmem.dram_byte_frac", "ratio", Clock::Count),
    layer("hybridmem.traffic_windows", "count", Clock::Count),
    layer("core.nonstage_host_s", "s", Clock::Host),
    layer("core.monitored_calls", "count", Clock::Count),
    layer_up("cluster.host_threads", "count", Clock::Count),
    layer_up("cluster.host_parallelism", "ratio", Clock::Host),
    layer("cluster.host_s_ht1", "s", Clock::Host),
    layer_up("cluster.ht_speedup", "ratio", Clock::Host),
    layer("cluster.sim_skew", "ratio", Clock::Virtual),
    layer_up("cluster.fastpath_bytes", "bytes", Clock::Count),
    layer("recovery.executor_crashes", "count", Clock::Count),
    layer("recovery.journal_noops", "count", Clock::Count),
    layer("recovery.partitions_restored", "count", Clock::Count),
    layer("recovery.partitions_recomputed", "count", Clock::Count),
    layer("recovery.checkpoint_bytes", "bytes", Clock::Count),
    layer("recovery.sim_recovery_s", "s", Clock::Virtual),
    layer("recovery.sim_overhead_frac", "ratio", Clock::Virtual),
    layer("recovery.host_overhead_frac", "ratio", Clock::Host),
    layer("jobs.queue_p50_s", "s", Clock::Virtual),
    layer("jobs.queue_p99_s", "s", Clock::Virtual),
    layer_up("jobs.jobs_per_sim_s", "1/s", Clock::Virtual),
    layer("jobs.preemptions", "count", Clock::Count),
    layer("jobs.max_vtime_spread_s", "s", Clock::Virtual),
    layer_up("jobs.finished", "count", Clock::Count),
    layer("jobs.host_ms_per_job", "ms", Clock::Host),
    layer("stream.batch_p50_ms", "ms", Clock::Virtual),
    layer("stream.batch_p99_ms", "ms", Clock::Virtual),
    layer("stream.retags", "count", Clock::Count),
    layer("stream.migrations", "count", Clock::Count),
    layer_up("stream.dram_byte_frac", "ratio", Clock::Count),
    layer("stream.batch_host_ms_p50", "ms", Clock::Host),
    layer("stream.policy_host_s", "s", Clock::Host),
    layer("obs.events", "count", Clock::Count),
    layer("obs.trace_overhead_frac", "ratio", Clock::Host),
    layer("obs.aggregate_ns_per_event", "ns", Clock::Host),
    layer("obs.jsonl_ns_per_event", "ns", Clock::Host),
];

/// Look a metric up in either table.
pub fn metric(name: &str) -> Option<&'static MetricName> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

fn better(m: &MetricName) -> Json {
    Json::Str(
        if m.higher_is_better {
            "higher"
        } else {
            "lower"
        }
        .into(),
    )
}

/// The contents of the repository's `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj(vec![
        (
            "command",
            Json::Arr(vec![
                Json::Str("bash".into()),
                Json::Str("benchmark/run.sh".into()),
            ]),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::UInt(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name, 64), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(well_formed(m.name, 64), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
    }

    #[test]
    fn tables_match_the_issue() {
        let workloads: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            workloads,
            [
                "graph_minor",
                "ml_scan",
                "stream_drift",
                "cluster_shuffle",
                "cluster_crash",
                "service_mix"
            ]
        );
        // The issue's eleven end-to-end names: six are bounded here,
        // four sit in PER_LAYER (see the comments there), and error_rate
        // is the result line's failed/attempted.
        for name in [
            "setup_s",
            "host_s",
            "host_cpu_s",
            "host_peak_rss_mb",
            "sim_elapsed_s",
            "sim_energy_j",
            "sim_gc_s",
            "sim_max_pause_ms",
            "sim_time_vs_dram_only",
            "sim_energy_vs_dram_only",
        ] {
            assert!(metric(name).is_some(), "{name}");
        }
        for layer in [
            "workloads",
            "sparklang",
            "analysis",
            "sparklet",
            "mheap",
            "gc",
            "hybridmem",
            "core",
            "cluster",
            "recovery",
            "jobs",
            "stream",
            "obs",
        ] {
            let prefix = format!("{layer}.");
            assert!(
                PER_LAYER.iter().any(|m| m.name.starts_with(&prefix)),
                "no metric for layer {layer}"
            );
        }
        assert_eq!(PER_LAYER.len(), 80);
    }

    #[test]
    fn bounds_fit_the_contract() {
        assert!((1..=60).contains(&RUN_SECONDS));
        let setup = END_TO_END[0].bound;
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup, "setup_s carries the largest bound");
            assert!(!m.higher_is_better);
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert_eq!(END_TO_END[0].unit, "s");
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `benchmark manifest`"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
