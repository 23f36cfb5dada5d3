//! Run reports: the measurements every figure and table is built from.

use gc::GcStats;
use hybridmem::{AccessKind, DeviceKind, EnergyBreakdown, MemoryStats, Phase, TrafficMeter};
use mheap::HeapStats;
use obs::PauseStats;
use sparklet::{ExecStats, PantheraRuntime, RecoveryStats, RunOutcome, StageCursor};

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Memory mode label.
    pub mode: String,
    /// Workload name.
    pub workload: String,
    /// Total simulated elapsed time, seconds.
    pub elapsed_s: f64,
    /// Mutator (computation) time, seconds — Figure 5's lower bar.
    pub mutator_s: f64,
    /// Minor-GC time, seconds.
    pub minor_gc_s: f64,
    /// Major-GC time, seconds.
    pub major_gc_s: f64,
    /// Memory energy breakdown, joules.
    pub energy: EnergyBreakdown,
    /// Collector counters.
    pub gc: GcStats,
    /// Heap counters.
    pub heap: HeapStats,
    /// Engine counters.
    pub exec: ExecStats,
    /// Monitored RDD method calls (Table 5).
    pub monitored_calls: u64,
    /// Bytes moved on each device `[dram, nvm]`.
    pub device_bytes: [u64; 2],
    /// Windowed traffic for bandwidth plots (Figure 8).
    pub traffic: TrafficMeter,
    /// Full per-phase access counters.
    pub mem: MemoryStats,
    /// Individual minor-pause durations.
    pub minor_pauses: PauseStats,
    /// Individual major-pause durations.
    pub major_pauses: PauseStats,
    /// Fault-injection and recovery counters (all zero when no faults
    /// were injected and no checkpoints taken).
    pub recovery: RecoveryStats,
}

impl RunReport {
    /// Total GC time, seconds.
    pub fn gc_s(&self) -> f64 {
        self.minor_gc_s + self.major_gc_s
    }

    /// Total memory energy, joules.
    pub fn energy_j(&self) -> f64 {
        self.energy.total_j()
    }

    /// Elapsed time relative to a baseline run.
    pub fn time_vs(&self, baseline: &RunReport) -> f64 {
        self.elapsed_s / baseline.elapsed_s
    }

    /// Energy relative to a baseline run.
    pub fn energy_vs(&self, baseline: &RunReport) -> f64 {
        self.energy_j() / baseline.energy_j()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<10} {:<20} time {:>8.3}s (mutator {:>7.3}s, minor {:>7.3}s, major {:>7.3}s)  \
             energy {:>8.2}J  minor GCs {:<4} major GCs {:<3} migrated RDDs {}",
            self.workload,
            self.mode,
            self.elapsed_s,
            self.mutator_s,
            self.minor_gc_s,
            self.major_gc_s,
            self.energy_j(),
            self.gc.minor_count,
            self.gc.major_count,
            self.gc.rdds_migrated,
        )
    }

    /// Build a report from a finished runtime and its engine's counters.
    pub fn collect(workload: &str, runtime: &PantheraRuntime, exec: ExecStats) -> RunReport {
        let (heap, gc) = (runtime.heap(), runtime.gc());
        let mem = heap.mem();
        let clock = mem.clock();
        const S: f64 = 1e9;
        RunReport {
            mode: runtime.mode().label().to_string(),
            workload: workload.to_string(),
            elapsed_s: clock.now_ns() / S,
            mutator_s: clock.mutator_ns() / S,
            minor_gc_s: clock.phase_ns(Phase::MinorGc) / S,
            major_gc_s: clock.phase_ns(Phase::MajorGc) / S,
            energy: mem.energy(),
            gc: *gc.stats(),
            heap: *heap.stats(),
            exec,
            monitored_calls: runtime.monitored_calls(),
            device_bytes: [
                mem.stats().total_device_bytes(DeviceKind::Dram),
                mem.stats().total_device_bytes(DeviceKind::Nvm),
            ],
            traffic: mem.meter().clone(),
            mem: mem.stats().clone(),
            minor_pauses: gc.minor_pauses().clone(),
            major_pauses: gc.major_pauses().clone(),
            recovery: RecoveryStats::default(),
        }
    }

    /// Finish a fully stepped cursor (end-of-run sweeps) and collect the
    /// report, the recovery counters included.
    ///
    /// # Panics
    ///
    /// Panics if stages remain.
    pub fn finish(cursor: StageCursor) -> (RunReport, RunOutcome) {
        let workload = cursor.program().name.clone();
        let (engine, outcome) = cursor.finish();
        let mut report = RunReport::collect(&workload, engine.runtime(), outcome.stats);
        report.recovery = engine.recovery().report();
        (report, outcome)
    }

    /// Merge per-executor reports into one cluster report: elapsed time is
    /// the straggler's (stage barriers make every executor finish at the
    /// cluster-wide max), every counter, energy term, and phase time is
    /// summed across executors, and pause distributions are concatenated
    /// in executor-id order. Aggregating a single report returns it
    /// unchanged, so an `E = 1` cluster aggregate is bit-identical to the
    /// legacy single-runtime report.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn aggregate(reports: &[RunReport]) -> RunReport {
        let mut agg = reports[0].clone();
        for r in &reports[1..] {
            agg.elapsed_s = agg.elapsed_s.max(r.elapsed_s);
            agg.mutator_s += r.mutator_s;
            agg.minor_gc_s += r.minor_gc_s;
            agg.major_gc_s += r.major_gc_s;
            agg.energy.merge(&r.energy);
            agg.gc.merge(&r.gc);
            agg.heap.merge(&r.heap);
            agg.exec.merge(&r.exec);
            agg.monitored_calls += r.monitored_calls;
            agg.device_bytes[0] += r.device_bytes[0];
            agg.device_bytes[1] += r.device_bytes[1];
            agg.traffic.merge(&r.traffic);
            agg.mem.merge(&r.mem);
            agg.minor_pauses.merge(&r.minor_pauses);
            agg.major_pauses.merge(&r.major_pauses);
            agg.recovery.merge(&r.recovery);
        }
        agg
    }

    /// Peak NVM read bandwidth observed (GB/s), for Figure 8 commentary.
    pub fn peak_nvm_read_gbps(&self) -> f64 {
        self.traffic.peak_gbps(DeviceKind::Nvm, AccessKind::Read)
    }

    /// Worst single GC pause, in milliseconds — the number that holds up
    /// the whole cluster (Section 5.2's citation of Taurus).
    pub fn max_pause_ms(&self) -> f64 {
        self.minor_pauses.max_ns().max(self.major_pauses.max_ns()) / 1e6
    }

    /// Serialize the report as one JSON object: headline times and
    /// energy, the full counter blocks (`gc`, `heap`, `exec`, `mem`),
    /// and the pause distributions. This is the single serialization
    /// path shared by reports and the bench suite's `BENCH_*.json`.
    pub fn to_json(&self) -> obs::Json {
        use obs::Json;
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("mode", Json::Str(self.mode.clone())),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            ("mutator_s", Json::Num(self.mutator_s)),
            ("minor_gc_s", Json::Num(self.minor_gc_s)),
            ("major_gc_s", Json::Num(self.major_gc_s)),
            ("energy", self.energy.to_json()),
            ("gc", self.gc.to_json()),
            ("heap", self.heap.to_json()),
            ("exec", self.exec.to_json()),
            ("monitored_calls", Json::UInt(self.monitored_calls)),
            ("dram_bytes", Json::UInt(self.device_bytes[0])),
            ("nvm_bytes", Json::UInt(self.device_bytes[1])),
            ("recovery", self.recovery.to_json()),
            ("mem", self.mem.to_json()),
            ("minor_pauses", self.minor_pauses.to_json()),
            ("major_pauses", self.major_pauses.to_json()),
            ("max_pause_ms", Json::Num(self.max_pause_ms())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(elapsed: f64, energy_j: f64) -> RunReport {
        RunReport {
            mode: "m".into(),
            workload: "w".into(),
            elapsed_s: elapsed,
            mutator_s: elapsed * 0.8,
            minor_gc_s: elapsed * 0.15,
            major_gc_s: elapsed * 0.05,
            energy: EnergyBreakdown {
                dram_static_j: energy_j,
                nvm_static_j: 0.0,
                dram_dynamic_j: 0.0,
                nvm_dynamic_j: 0.0,
            },
            gc: GcStats::default(),
            heap: HeapStats::default(),
            exec: ExecStats::default(),
            monitored_calls: 0,
            device_bytes: [0, 0],
            traffic: TrafficMeter::new(1_000_000_000),
            mem: MemoryStats::new(),
            minor_pauses: PauseStats::default(),
            major_pauses: PauseStats::default(),
            recovery: RecoveryStats::default(),
        }
    }

    #[test]
    fn normalization() {
        let base = dummy(10.0, 100.0);
        let other = dummy(12.0, 60.0);
        assert!((other.time_vs(&base) - 1.2).abs() < 1e-12);
        assert!((other.energy_vs(&base) - 0.6).abs() < 1e-12);
        assert!((other.gc_s() - 2.4).abs() < 1e-12);
    }

    /// A report whose gc/heap/exec/recovery counters and energy terms are
    /// all distinct and non-zero: the `k`-th is `base + k` (plus a fraction
    /// for the non-integer ones).
    fn filled(base: u64) -> RunReport {
        let mut k = base;
        let mut n = || {
            k += 1;
            k
        };
        let mut r = dummy(1.0, 1.0);
        r.gc = GcStats {
            minor_count: n(),
            major_count: n(),
            survivor_copies: n(),
            tenured_promotions: n(),
            eager_promotions: n(),
            promotion_fallbacks: n(),
            migration_fallbacks: n(),
            young_freed: n(),
            old_freed: n(),
            cards_scanned: n(),
            card_scan_bytes: n(),
            stuck_card_rescans: n(),
            rdds_migrated: n(),
            write_migrations: n(),
        };
        r.heap = HeapStats {
            young_allocs: n(),
            pretenured_allocs: n(),
            allocated_bytes: n(),
            ref_stores: n(),
            cards_dirtied: n(),
            moves: n(),
            frees: n(),
        };
        r.exec = ExecStats {
            records_streamed: n(),
            shuffles: n(),
            shuffle_bytes: n(),
            materializations: n(),
            actions: n(),
            rdd_instances: n(),
            evictions: n(),
            fastpath_bytes: n(),
            offheap_allocs: n(),
            offheap_frees: n(),
            offheap_bytes: n(),
            offheap_leaks: n(),
            offheap_dead_reads: n(),
            region_stage_arenas: n(),
            region_stage_bytes: n(),
            region_allocs: n(),
            region_frees: n(),
            region_bytes: n(),
            region_leaks: n(),
            region_dead_reads: n(),
        };
        r.recovery = RecoveryStats {
            executor_crashes: n(),
            messages_lost: n(),
            alloc_faults: n(),
            partitions_lost: n(),
            partitions_recomputed: n(),
            partitions_restored: n(),
            stages_recomputed: n(),
            checkpoint_writes: n(),
            checkpoint_bytes: n(),
            restore_bytes: n(),
            journal_noops: n(),
            journal_torn: n(),
            recovery_s: n() as f64 + 0.25,
        };
        r.energy = EnergyBreakdown {
            dram_static_j: n() as f64 + 0.5,
            nvm_static_j: n() as f64 + 0.5,
            dram_dynamic_j: n() as f64 + 0.5,
            nvm_dynamic_j: n() as f64 + 0.5,
        };
        r
    }

    /// The four counter blocks of `r` and its energy breakdown (derived
    /// total included), as one flat list of JSON values.
    fn counters(r: &RunReport) -> Vec<(String, obs::Json)> {
        [
            r.gc.to_json(),
            r.heap.to_json(),
            r.exec.to_json(),
            r.recovery.to_json(),
            r.energy.to_json(),
        ]
        .into_iter()
        .flat_map(|block| match block {
            obs::Json::Obj(pairs) => pairs,
            other => panic!("counter block is not an object: {other:?}"),
        })
        .collect()
    }

    #[test]
    fn aggregate_sums_every_counter_field_wise() {
        use obs::Json;
        let (a, b) = (filled(0), filled(1000));
        let (ca, cb) = (counters(&a), counters(&b));
        let distinct: std::collections::HashSet<String> =
            ca.iter().map(|(_, v)| v.to_compact()).collect();
        assert_eq!(distinct.len(), ca.len(), "values must be distinct");
        let expected: Vec<(String, Json)> = ca
            .iter()
            .zip(&cb)
            .map(|((k, x), (kb, y))| {
                assert_eq!(k, kb);
                let sum = match (x, y) {
                    (Json::UInt(x), Json::UInt(y)) => Json::UInt(x + y),
                    (Json::Num(x), Json::Num(y)) => Json::Num(x + y),
                    other => panic!("{k}: unexpected counter types {other:?}"),
                };
                (k.clone(), sum)
            })
            .collect();
        assert_eq!(counters(&RunReport::aggregate(&[a, b])), expected);
    }

    #[test]
    fn summary_is_nonempty() {
        assert!(dummy(1.0, 1.0).summary().contains("time"));
    }

    #[test]
    fn to_json_parses_back_and_keeps_headline_numbers() {
        let r = dummy(2.5, 7.0);
        let text = r.to_json().to_pretty();
        let parsed = obs::Json::parse(&text).unwrap();
        assert_eq!(parsed.get("workload").unwrap().as_str(), Some("w"));
        assert_eq!(
            parsed.get("elapsed_s").unwrap().as_f64().unwrap().to_bits(),
            2.5f64.to_bits()
        );
        assert_eq!(
            parsed
                .get("energy")
                .unwrap()
                .get("total_j")
                .unwrap()
                .as_f64()
                .unwrap()
                .to_bits(),
            7.0f64.to_bits()
        );
        assert!(parsed.get("gc").unwrap().get("minor_count").is_some());
    }
}
