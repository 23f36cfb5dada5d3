//! Run reports: the measurements every figure and table is built from.

use gc::{GcStats, PauseStats};
use hybridmem::{AccessKind, DeviceKind, EnergyBreakdown, MemoryStats, Phase, TrafficMeter};
use mheap::HeapStats;
use sparklet::ExecStats;

/// Fault-tolerance counters for one run (or one executor of a cluster
/// run): what was injected, what was lost, and what recovery cost in
/// virtual time and NVM traffic. All zeros in a fault-free run without
/// checkpointing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Injected executor crashes that fired.
    pub executor_crashes: u64,
    /// Injected exchange message losses (charged as retransmit latency).
    pub messages_lost: u64,
    /// Injected transient allocation failures (charged as retries).
    pub alloc_faults: u64,
    /// Materialized partitions lost when an executor's heap died.
    pub partitions_lost: u64,
    /// Partitions rebuilt by lineage recomputation during replay.
    pub partitions_recomputed: u64,
    /// Partitions restored from NVM checkpoints instead of recomputed.
    pub partitions_restored: u64,
    /// Shuffle stages re-executed during replay.
    pub stages_recomputed: u64,
    /// Checkpoint snapshots written to the durable NVM store.
    pub checkpoint_writes: u64,
    /// Modelled bytes written to NVM checkpoints.
    pub checkpoint_bytes: u64,
    /// Modelled bytes read back from NVM checkpoints.
    pub restore_bytes: u64,
    /// Journaled operations (exchange deposits, checkpoint saves) that a
    /// replay re-issued and the journal validated as no-ops.
    pub journal_noops: u64,
    /// Torn journal entries (crash between `begin` and `commit`) found
    /// and rolled forward during replay.
    pub journal_torn: u64,
    /// Virtual time spent recovering (crash → replay caught up), seconds.
    pub recovery_s: f64,
}

impl RecoveryStats {
    /// Serialize as a JSON object (field order fixed).
    pub fn to_json(&self) -> obs::Json {
        use obs::Json;
        Json::obj(vec![
            ("executor_crashes", Json::UInt(self.executor_crashes)),
            ("messages_lost", Json::UInt(self.messages_lost)),
            ("alloc_faults", Json::UInt(self.alloc_faults)),
            ("partitions_lost", Json::UInt(self.partitions_lost)),
            (
                "partitions_recomputed",
                Json::UInt(self.partitions_recomputed),
            ),
            ("partitions_restored", Json::UInt(self.partitions_restored)),
            ("stages_recomputed", Json::UInt(self.stages_recomputed)),
            ("checkpoint_writes", Json::UInt(self.checkpoint_writes)),
            ("checkpoint_bytes", Json::UInt(self.checkpoint_bytes)),
            ("restore_bytes", Json::UInt(self.restore_bytes)),
            ("journal_noops", Json::UInt(self.journal_noops)),
            ("journal_torn", Json::UInt(self.journal_torn)),
            ("recovery_s", Json::Num(self.recovery_s)),
        ])
    }
}

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

    /// GC time relative to a baseline run.
    pub fn gc_time_vs(&self, baseline: &RunReport) -> f64 {
        self.gc_s() / baseline.gc_s()
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

    /// Build a report from a finished runtime + engine.
    pub fn collect(
        workload: &str,
        mode: &str,
        heap: &mheap::Heap,
        gc: &gc::GcCoordinator,
        exec: ExecStats,
        monitored_calls: u64,
    ) -> RunReport {
        let mem = heap.mem();
        let clock = mem.clock();
        const S: f64 = 1e9;
        RunReport {
            mode: mode.to_string(),
            workload: workload.to_string(),
            elapsed_s: clock.now_ns() / S,
            mutator_s: clock.mutator_ns() / S,
            minor_gc_s: clock.phase_ns(Phase::MinorGc) / S,
            major_gc_s: clock.phase_ns(Phase::MajorGc) / S,
            energy: mem.energy(),
            gc: *gc.stats(),
            heap: *heap.stats(),
            exec,
            monitored_calls,
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
            agg.energy.dram_static_j += r.energy.dram_static_j;
            agg.energy.nvm_static_j += r.energy.nvm_static_j;
            agg.energy.dram_dynamic_j += r.energy.dram_dynamic_j;
            agg.energy.nvm_dynamic_j += r.energy.nvm_dynamic_j;
            agg.gc.minor_count += r.gc.minor_count;
            agg.gc.major_count += r.gc.major_count;
            agg.gc.survivor_copies += r.gc.survivor_copies;
            agg.gc.tenured_promotions += r.gc.tenured_promotions;
            agg.gc.eager_promotions += r.gc.eager_promotions;
            agg.gc.promotion_fallbacks += r.gc.promotion_fallbacks;
            agg.gc.migration_fallbacks += r.gc.migration_fallbacks;
            agg.gc.young_freed += r.gc.young_freed;
            agg.gc.old_freed += r.gc.old_freed;
            agg.gc.cards_scanned += r.gc.cards_scanned;
            agg.gc.card_scan_bytes += r.gc.card_scan_bytes;
            agg.gc.stuck_card_rescans += r.gc.stuck_card_rescans;
            agg.gc.rdds_migrated += r.gc.rdds_migrated;
            agg.gc.write_migrations += r.gc.write_migrations;
            agg.heap.young_allocs += r.heap.young_allocs;
            agg.heap.pretenured_allocs += r.heap.pretenured_allocs;
            agg.heap.allocated_bytes += r.heap.allocated_bytes;
            agg.heap.ref_stores += r.heap.ref_stores;
            agg.heap.cards_dirtied += r.heap.cards_dirtied;
            agg.heap.moves += r.heap.moves;
            agg.heap.frees += r.heap.frees;
            agg.exec.records_streamed += r.exec.records_streamed;
            agg.exec.shuffles += r.exec.shuffles;
            agg.exec.shuffle_bytes += r.exec.shuffle_bytes;
            agg.exec.materializations += r.exec.materializations;
            agg.exec.actions += r.exec.actions;
            agg.exec.rdd_instances += r.exec.rdd_instances;
            agg.exec.evictions += r.exec.evictions;
            agg.exec.fastpath_bytes += r.exec.fastpath_bytes;
            agg.exec.offheap_allocs += r.exec.offheap_allocs;
            agg.exec.offheap_frees += r.exec.offheap_frees;
            agg.exec.offheap_bytes += r.exec.offheap_bytes;
            agg.exec.offheap_leaks += r.exec.offheap_leaks;
            agg.exec.offheap_dead_reads += r.exec.offheap_dead_reads;
            agg.exec.region_stage_arenas += r.exec.region_stage_arenas;
            agg.exec.region_stage_bytes += r.exec.region_stage_bytes;
            agg.exec.region_allocs += r.exec.region_allocs;
            agg.exec.region_frees += r.exec.region_frees;
            agg.exec.region_bytes += r.exec.region_bytes;
            agg.exec.region_leaks += r.exec.region_leaks;
            agg.exec.region_dead_reads += r.exec.region_dead_reads;
            agg.monitored_calls += r.monitored_calls;
            agg.device_bytes[0] += r.device_bytes[0];
            agg.device_bytes[1] += r.device_bytes[1];
            agg.traffic.merge(&r.traffic);
            agg.mem.merge(&r.mem);
            agg.minor_pauses.merge(&r.minor_pauses);
            agg.major_pauses.merge(&r.major_pauses);
            agg.recovery.executor_crashes += r.recovery.executor_crashes;
            agg.recovery.messages_lost += r.recovery.messages_lost;
            agg.recovery.alloc_faults += r.recovery.alloc_faults;
            agg.recovery.partitions_lost += r.recovery.partitions_lost;
            agg.recovery.partitions_recomputed += r.recovery.partitions_recomputed;
            agg.recovery.partitions_restored += r.recovery.partitions_restored;
            agg.recovery.stages_recomputed += r.recovery.stages_recomputed;
            agg.recovery.checkpoint_writes += r.recovery.checkpoint_writes;
            agg.recovery.checkpoint_bytes += r.recovery.checkpoint_bytes;
            agg.recovery.restore_bytes += r.recovery.restore_bytes;
            agg.recovery.journal_noops += r.recovery.journal_noops;
            agg.recovery.journal_torn += r.recovery.journal_torn;
            agg.recovery.recovery_s += r.recovery.recovery_s;
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
            traffic: TrafficMeter::new(1e6),
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
