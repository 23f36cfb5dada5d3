//! A metrics-aggregating sink: consumes the event stream (live or
//! replayed from JSONL) and derives the evaluation-grade aggregates —
//! pause distributions, per-stage NVM-write ratios, migration churn.

use crate::event::{Event, Mem};
use crate::json::Json;
use crate::sink::EventSink;
use crate::stats::PauseStats;
use std::collections::BTreeMap;

/// Fraction of `dram + nvm` written bytes that hit NVM, or 0 if nothing
/// was written.
fn nvm_write_ratio(dram: u64, nvm: u64) -> f64 {
    let total = dram + nvm;
    if total == 0 {
        0.0
    } else {
        nvm as f64 / total as f64
    }
}

/// Per-stage write traffic derived from paired `StageStart`/`StageEnd`
/// events' cumulative counters.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage sequence number.
    pub stage: u32,
    /// Simulated time at stage start (ns).
    pub start_ns: f64,
    /// Simulated time at stage end (ns); `NaN` until the end arrives.
    pub end_ns: f64,
    /// DRAM bytes written during the stage.
    pub dram_write_bytes: u64,
    /// NVM bytes written during the stage.
    pub nvm_write_bytes: u64,
}

impl StageRow {
    /// Fraction of the stage's writes that hit NVM, or 0 if it wrote
    /// nothing.
    pub fn nvm_write_ratio(&self) -> f64 {
        nvm_write_ratio(self.dram_write_bytes, self.nvm_write_bytes)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("stage", Json::UInt(u64::from(self.stage))),
            ("start_ns", Json::Num(self.start_ns)),
            ("end_ns", Json::Num(self.end_ns)),
            ("dram_write_bytes", Json::UInt(self.dram_write_bytes)),
            ("nvm_write_bytes", Json::UInt(self.nvm_write_bytes)),
            ("nvm_write_ratio", Json::Num(self.nvm_write_ratio())),
        ])
    }
}

/// Migration churn between devices: object counts and bytes moved in
/// each direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationChurn {
    /// Arrays migrated NVM → DRAM (promoted hot data).
    pub to_dram: u64,
    /// Arrays migrated DRAM → NVM (demoted cold data).
    pub to_nvm: u64,
    /// Bytes moved NVM → DRAM.
    pub to_dram_bytes: u64,
    /// Bytes moved DRAM → NVM.
    pub to_nvm_bytes: u64,
}

impl MigrationChurn {
    /// Total arrays migrated in either direction.
    pub fn total(&self) -> u64 {
        self.to_dram + self.to_nvm
    }
}

/// Per-executor slice of the aggregates: pause distributions and stage
/// write traffic attributed to one executor's event stream.
///
/// Populated from the executor id carried by
/// [`EventSink::on_event_from`]; single-runtime traces put everything
/// under executor 0.
#[derive(Debug, Clone, Default)]
pub struct ExecutorMetrics {
    events: u64,
    minor_pauses: PauseStats,
    major_pauses: PauseStats,
    dram_write_bytes: u64,
    nvm_write_bytes: u64,
    open_stage: Option<(u32, u64, u64)>,
}

impl ExecutorMetrics {
    /// Events attributed to this executor.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Minor-GC pause distribution on this executor's heap.
    pub fn minor_pauses(&self) -> &PauseStats {
        &self.minor_pauses
    }

    /// Major-GC pause distribution on this executor's heap.
    pub fn major_pauses(&self) -> &PauseStats {
        &self.major_pauses
    }

    /// DRAM bytes written during this executor's stages (sum of
    /// stage-delta counters).
    pub fn dram_write_bytes(&self) -> u64 {
        self.dram_write_bytes
    }

    /// NVM bytes written during this executor's stages.
    pub fn nvm_write_bytes(&self) -> u64 {
        self.nvm_write_bytes
    }

    /// Fraction of this executor's stage writes that hit NVM, or 0 if
    /// it wrote nothing.
    pub fn nvm_write_ratio(&self) -> f64 {
        nvm_write_ratio(self.dram_write_bytes, self.nvm_write_bytes)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("events", Json::UInt(self.events)),
            ("minor_pauses", self.minor_pauses.to_json()),
            ("major_pauses", self.major_pauses.to_json()),
            ("dram_write_bytes", Json::UInt(self.dram_write_bytes)),
            ("nvm_write_bytes", Json::UInt(self.nvm_write_bytes)),
            ("nvm_write_ratio", Json::Num(self.nvm_write_ratio())),
        ])
    }
}

/// The aggregating sink. Feed it events (directly, via an
/// [`crate::Observer`], or by replaying a JSONL trace) and read the
/// aggregates or render [`MetricsAggregator::summary_table`].
///
/// Aggregation is deterministic: the same event sequence always yields
/// the same [`MetricsAggregator::to_json`] output, which is how the
/// JSONL round-trip test proves a written trace is complete.
#[derive(Debug, Clone, Default)]
pub struct MetricsAggregator {
    events_seen: u64,
    last_t_ns: f64,
    minor_pauses: PauseStats,
    major_pauses: PauseStats,
    promotions: u64,
    promotion_bytes: u64,
    promotions_to_nvm: u64,
    churn: MigrationChurn,
    stages: Vec<StageRow>,
    open_stage: Option<(u32, u64, u64, f64)>,
    shuffle_spills: u64,
    shuffle_bytes: u64,
    fastpath_transfers: u64,
    fastpath_bytes: u64,
    offheap_allocs: u64,
    offheap_alloc_bytes: u64,
    offheap_frees: u64,
    offheap_freed_bytes: u64,
    region_allocs: u64,
    region_alloc_bytes: u64,
    region_frees: u64,
    region_freed_bytes: u64,
    region_stage_frees: u64,
    region_stage_freed_bytes: u64,
    card_scans: u64,
    cards_scanned: u64,
    card_scan_bytes: u64,
    stuck_rescans: u64,
    alloc_fails: u64,
    verify_failures: u64,
    executor_crashes: u64,
    recoveries: u64,
    recovery_ns: f64,
    checkpoint_writes: u64,
    checkpoint_write_bytes: u64,
    checkpoint_restores: u64,
    checkpoint_restore_bytes: u64,
    journal_noops: u64,
    journal_torn: u64,
    traffic_windows: u64,
    peak_window_bytes: u64,
    peak_window_nvm_write: u64,
    jobs_submitted: u64,
    jobs_started: u64,
    jobs_preempted: u64,
    jobs_finished: u64,
    job_queued_ns: f64,
    job_elapsed_ns: f64,
    rdd_calls: BTreeMap<u32, u64>,
    batches: u64,
    batch_latency: PauseStats,
    watermarks: u64,
    retags_to_dram: u64,
    retags_to_nvm: u64,
    per_exec: BTreeMap<u16, ExecutorMetrics>,
}

impl MetricsAggregator {
    /// A fresh, empty aggregator.
    pub fn new() -> MetricsAggregator {
        MetricsAggregator::default()
    }

    /// Total events consumed.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Timestamp of the last event consumed (ns), or 0 if none.
    pub fn last_t_ns(&self) -> f64 {
        self.last_t_ns
    }

    /// Minor-GC pause distribution.
    pub fn minor_pauses(&self) -> &PauseStats {
        &self.minor_pauses
    }

    /// Major-GC pause distribution.
    pub fn major_pauses(&self) -> &PauseStats {
        &self.major_pauses
    }

    /// Migration churn between DRAM and NVM.
    pub fn migration_churn(&self) -> MigrationChurn {
        self.churn
    }

    /// Per-stage write-traffic rows, in stage order.
    pub fn stages(&self) -> &[StageRow] {
        &self.stages
    }

    /// Promotions observed (count, total bytes, count landing on NVM).
    pub fn promotions(&self) -> (u64, u64, u64) {
        (
            self.promotions,
            self.promotion_bytes,
            self.promotions_to_nvm,
        )
    }

    /// Allocation failures observed.
    pub fn alloc_fails(&self) -> u64 {
        self.alloc_fails
    }

    /// Per-executor breakdowns, keyed by executor id. Single-runtime
    /// traces have exactly one entry, under executor 0.
    pub fn per_executor(&self) -> &BTreeMap<u16, ExecutorMetrics> {
        &self.per_exec
    }

    /// Heap-verification failures observed (a healthy trace has zero).
    pub fn verify_failures(&self) -> u64 {
        self.verify_failures
    }

    /// Cumulative per-RDD access counts derived from [`Event::RddCall`]
    /// events, keyed by RDD id. These counters are *never reset* (unlike
    /// the GC-internal frequency table, which clears at every major
    /// collection), so two snapshots taken at batch boundaries subtract to
    /// a well-defined per-window delta — the quantity the online
    /// re-tagging policy consumes.
    pub fn rdd_calls(&self) -> &BTreeMap<u32, u64> {
        &self.rdd_calls
    }

    /// Micro-batches completed (paired `BatchStart`/`BatchEnd`).
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Per-batch latency distribution from [`Event::BatchEnd`].
    pub fn batch_latency(&self) -> &PauseStats {
        &self.batch_latency
    }

    /// Re-tag decisions observed (to DRAM, to NVM).
    pub fn retags(&self) -> (u64, u64) {
        (self.retags_to_dram, self.retags_to_nvm)
    }

    /// Per-RDD access-count growth from `baseline` (an earlier
    /// [`MetricsAggregator::rdd_calls`] snapshot) to `current`.
    ///
    /// Only RDDs whose counter grew appear in the result. The subtraction
    /// saturates: a baseline entry *larger* than the current counter (only
    /// possible when the caller mixes snapshots from different traces, or
    /// a restarted trace re-counted from zero after an RDD id was freed
    /// and reused) contributes 0 rather than wrapping, so a confused
    /// baseline can never fabricate a hot RDD.
    pub fn rdd_call_delta(
        current: &BTreeMap<u32, u64>,
        baseline: &BTreeMap<u32, u64>,
    ) -> BTreeMap<u32, u64> {
        current
            .iter()
            .filter_map(|(rdd, calls)| {
                let grown = calls.saturating_sub(baseline.get(rdd).copied().unwrap_or(0));
                (grown > 0).then_some((*rdd, grown))
            })
            .collect()
    }

    /// Deterministic JSON form of every aggregate (used by
    /// `trace_summary` and the round-trip tests).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("events_seen", Json::UInt(self.events_seen)),
            ("last_t_ns", Json::Num(self.last_t_ns)),
            ("minor_pauses", self.minor_pauses.to_json()),
            ("major_pauses", self.major_pauses.to_json()),
            (
                "promotions",
                Json::obj(vec![
                    ("count", Json::UInt(self.promotions)),
                    ("bytes", Json::UInt(self.promotion_bytes)),
                    ("to_nvm", Json::UInt(self.promotions_to_nvm)),
                ]),
            ),
            (
                "migration",
                Json::obj(vec![
                    ("to_dram", Json::UInt(self.churn.to_dram)),
                    ("to_nvm", Json::UInt(self.churn.to_nvm)),
                    ("to_dram_bytes", Json::UInt(self.churn.to_dram_bytes)),
                    ("to_nvm_bytes", Json::UInt(self.churn.to_nvm_bytes)),
                ]),
            ),
            (
                "stages",
                Json::Arr(self.stages.iter().map(StageRow::to_json).collect()),
            ),
            (
                "shuffle",
                Json::obj(vec![
                    ("spills", Json::UInt(self.shuffle_spills)),
                    ("bytes", Json::UInt(self.shuffle_bytes)),
                    ("fastpath_transfers", Json::UInt(self.fastpath_transfers)),
                    // Fast-path bytes cross at memory bandwidth with zero
                    // serde on either side — they ARE the serde bytes the
                    // shared-region transport avoided.
                    ("serde_bytes_avoided", Json::UInt(self.fastpath_bytes)),
                ]),
            ),
            (
                "offheap",
                Json::obj(vec![
                    ("allocs", Json::UInt(self.offheap_allocs)),
                    ("alloc_bytes", Json::UInt(self.offheap_alloc_bytes)),
                    ("frees", Json::UInt(self.offheap_frees)),
                    ("freed_bytes", Json::UInt(self.offheap_freed_bytes)),
                ]),
            ),
            (
                "region",
                Json::obj(vec![
                    ("allocs", Json::UInt(self.region_allocs)),
                    ("alloc_bytes", Json::UInt(self.region_alloc_bytes)),
                    ("frees", Json::UInt(self.region_frees)),
                    ("freed_bytes", Json::UInt(self.region_freed_bytes)),
                    ("stage_frees", Json::UInt(self.region_stage_frees)),
                    (
                        "stage_freed_bytes",
                        Json::UInt(self.region_stage_freed_bytes),
                    ),
                ]),
            ),
            (
                "card_scan",
                Json::obj(vec![
                    ("scans", Json::UInt(self.card_scans)),
                    ("cards", Json::UInt(self.cards_scanned)),
                    ("bytes", Json::UInt(self.card_scan_bytes)),
                    ("stuck_rescans", Json::UInt(self.stuck_rescans)),
                ]),
            ),
            ("alloc_fails", Json::UInt(self.alloc_fails)),
            ("verify_failures", Json::UInt(self.verify_failures)),
            (
                "traffic",
                Json::obj(vec![
                    ("windows", Json::UInt(self.traffic_windows)),
                    ("peak_window_bytes", Json::UInt(self.peak_window_bytes)),
                    (
                        "peak_window_nvm_write",
                        Json::UInt(self.peak_window_nvm_write),
                    ),
                ]),
            ),
        ];
        // Like the executor breakdown below: job aggregates only appear in
        // traces that contain job events, keeping single-job trace
        // summaries byte-identical to the pre-service format.
        if self.jobs_submitted > 0 {
            fields.push((
                "jobs",
                Json::obj(vec![
                    ("submitted", Json::UInt(self.jobs_submitted)),
                    ("started", Json::UInt(self.jobs_started)),
                    ("preempted", Json::UInt(self.jobs_preempted)),
                    ("finished", Json::UInt(self.jobs_finished)),
                    ("queued_ns", Json::Num(self.job_queued_ns)),
                    ("elapsed_ns", Json::Num(self.job_elapsed_ns)),
                ]),
            ));
        }
        // Access-frequency export and stream aggregates appear only in
        // traces that contain the corresponding events, keeping batch
        // trace summaries byte-identical to the pre-streaming format.
        if !self.rdd_calls.is_empty() {
            fields.push((
                "rdd_calls",
                Json::Obj(
                    self.rdd_calls
                        .iter()
                        .map(|(rdd, calls)| (rdd.to_string(), Json::UInt(*calls)))
                        .collect(),
                ),
            ));
        }
        if self.batches > 0 || self.retags_to_dram + self.retags_to_nvm > 0 {
            fields.push((
                "stream",
                Json::obj(vec![
                    ("batches", Json::UInt(self.batches)),
                    ("batch_latency", self.batch_latency.to_json()),
                    ("watermarks", Json::UInt(self.watermarks)),
                    ("retags_to_dram", Json::UInt(self.retags_to_dram)),
                    ("retags_to_nvm", Json::UInt(self.retags_to_nvm)),
                ]),
            ));
        }
        // Keep single-executor output byte-identical to the pre-cluster
        // format; the breakdown only appears once a second executor shows up.
        if self.per_exec.len() > 1 {
            fields.push((
                "executors",
                Json::Obj(
                    self.per_exec
                        .iter()
                        .map(|(exec, m)| (exec.to_string(), m.to_json()))
                        .collect(),
                ),
            ));
        }
        Json::obj(fields)
    }

    /// Render a human-readable summary table of the aggregates.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        let ms = 1e-6;
        out.push_str(&format!(
            "events: {}  (last t = {:.3} ms)\n",
            self.events_seen,
            self.last_t_ns * ms
        ));
        out.push_str(&format!(
            "{:<10} {:>7} {:>11} {:>11} {:>11} {:>11}\n",
            "pauses", "count", "mean ms", "p50 ms", "p99 ms", "max ms"
        ));
        for (name, h) in [("minor", &self.minor_pauses), ("major", &self.major_pauses)] {
            out.push_str(&format!(
                "{:<10} {:>7} {:>11.4} {:>11.4} {:>11.4} {:>11.4}\n",
                name,
                h.count(),
                h.mean_ns() * ms,
                h.quantile_ns(0.50) * ms,
                h.quantile_ns(0.99) * ms,
                h.max_ns() * ms,
            ));
        }
        out.push_str(&format!(
            "promotions: {} ({} B, {} to NVM)   alloc fails: {}\n",
            self.promotions, self.promotion_bytes, self.promotions_to_nvm, self.alloc_fails
        ));
        if self.verify_failures > 0 {
            out.push_str(&format!("VERIFY FAILURES: {}\n", self.verify_failures));
        }
        if self.executor_crashes > 0 || self.checkpoint_writes > 0 {
            out.push_str(&format!(
                "recovery: {} crashes, {} recoveries ({:.3} ms), \
                 {} checkpoint writes ({} B), {} restores ({} B)\n",
                self.executor_crashes,
                self.recoveries,
                self.recovery_ns * ms,
                self.checkpoint_writes,
                self.checkpoint_write_bytes,
                self.checkpoint_restores,
                self.checkpoint_restore_bytes
            ));
        }
        if self.journal_noops > 0 || self.journal_torn > 0 {
            out.push_str(&format!(
                "journal: {} validated no-op replays, {} torn entries rolled forward\n",
                self.journal_noops, self.journal_torn
            ));
        }
        out.push_str(&format!(
            "migration churn: {} to DRAM ({} B), {} to NVM ({} B)\n",
            self.churn.to_dram,
            self.churn.to_dram_bytes,
            self.churn.to_nvm,
            self.churn.to_nvm_bytes
        ));
        out.push_str(&format!(
            "shuffle: {} spills ({} B)   card scans: {} ({} cards, {} stuck rescans)\n",
            self.shuffle_spills,
            self.shuffle_bytes,
            self.card_scans,
            self.cards_scanned,
            self.stuck_rescans
        ));
        if self.fastpath_transfers > 0 {
            out.push_str(&format!(
                "shared-region fast path: {} transfers, serde bytes avoided: {}\n",
                self.fastpath_transfers, self.fastpath_bytes
            ));
        }
        if self.offheap_allocs > 0 || self.offheap_frees > 0 {
            out.push_str(&format!(
                "off-heap region: {} allocs ({} B), {} frees ({} B)\n",
                self.offheap_allocs,
                self.offheap_alloc_bytes,
                self.offheap_frees,
                self.offheap_freed_bytes
            ));
        }
        if self.region_allocs > 0 || self.region_stage_frees > 0 {
            out.push_str(&format!(
                "region arenas: {} blocks ({} B), {} block frees ({} B), \
                 {} stage resets ({} B)\n",
                self.region_allocs,
                self.region_alloc_bytes,
                self.region_frees,
                self.region_freed_bytes,
                self.region_stage_frees,
                self.region_stage_freed_bytes
            ));
        }
        out.push_str(&format!(
            "traffic windows: {} (peak {} B total, peak {} B NVM writes)\n",
            self.traffic_windows, self.peak_window_bytes, self.peak_window_nvm_write
        ));
        if self.jobs_submitted > 0 {
            out.push_str(&format!(
                "jobs: {} submitted, {} started, {} preempted, {} finished \
                 (queued {:.3} ms, elapsed {:.3} ms)\n",
                self.jobs_submitted,
                self.jobs_started,
                self.jobs_preempted,
                self.jobs_finished,
                self.job_queued_ns * ms,
                self.job_elapsed_ns * ms
            ));
        }
        if self.batches > 0 {
            out.push_str(&format!(
                "stream: {} batches (p50 {:.4} ms, p99 {:.4} ms), {} watermarks, \
                 retags: {} to DRAM, {} to NVM\n",
                self.batches,
                self.batch_latency.quantile_ns(0.50) * ms,
                self.batch_latency.quantile_ns(0.99) * ms,
                self.watermarks,
                self.retags_to_dram,
                self.retags_to_nvm
            ));
        }
        if !self.rdd_calls.is_empty() {
            let total: u64 = self.rdd_calls.values().sum();
            out.push_str(&format!(
                "rdd calls: {} across {} RDDs\n",
                total,
                self.rdd_calls.len()
            ));
        }
        if self.per_exec.len() > 1 {
            out.push_str(&format!(
                "{:<6} {:>8} {:>7} {:>11} {:>7} {:>11} {:>14} {:>14} {:>9}\n",
                "exec",
                "events",
                "minor",
                "minor p99ms",
                "major",
                "major p99ms",
                "DRAM wr B",
                "NVM wr B",
                "NVM frac"
            ));
            for (exec, m) in &self.per_exec {
                out.push_str(&format!(
                    "{:<6} {:>8} {:>7} {:>11.4} {:>7} {:>11.4} {:>14} {:>14} {:>9.3}\n",
                    exec,
                    m.events,
                    m.minor_pauses.count(),
                    m.minor_pauses.quantile_ns(0.99) * ms,
                    m.major_pauses.count(),
                    m.major_pauses.quantile_ns(0.99) * ms,
                    m.dram_write_bytes,
                    m.nvm_write_bytes,
                    m.nvm_write_ratio()
                ));
            }
        }
        if !self.stages.is_empty() {
            out.push_str(&format!(
                "{:<7} {:>12} {:>16} {:>16} {:>9}\n",
                "stage", "dur ms", "DRAM wr B", "NVM wr B", "NVM frac"
            ));
            for row in &self.stages {
                let dur = if row.end_ns.is_finite() {
                    (row.end_ns - row.start_ns) * ms
                } else {
                    f64::NAN
                };
                out.push_str(&format!(
                    "{:<7} {:>12.4} {:>16} {:>16} {:>9.3}\n",
                    row.stage,
                    dur,
                    row.dram_write_bytes,
                    row.nvm_write_bytes,
                    row.nvm_write_ratio()
                ));
            }
        }
        out
    }
}

impl MetricsAggregator {
    fn observe_exec(&mut self, exec: u16, event: &Event) {
        let m = self.per_exec.entry(exec).or_default();
        m.events += 1;
        match event {
            Event::MinorGcEnd { pause_ns, .. } => m.minor_pauses.record(*pause_ns),
            Event::MajorGcEnd { pause_ns, .. } => m.major_pauses.record(*pause_ns),
            Event::StageStart {
                stage,
                dram_write_bytes,
                nvm_write_bytes,
            } => {
                m.open_stage = Some((*stage, *dram_write_bytes, *nvm_write_bytes));
            }
            Event::StageEnd {
                stage,
                dram_write_bytes,
                nvm_write_bytes,
            } => {
                // Same pairing rule as the global stage rows, but against
                // this executor's own open-stage slot, so interleaved
                // multi-executor traces attribute deltas correctly.
                let (dram0, nvm0) = match m.open_stage.take() {
                    Some((s, d, n)) if s == *stage => (d, n),
                    _ => (*dram_write_bytes, *nvm_write_bytes),
                };
                m.dram_write_bytes += dram_write_bytes.saturating_sub(dram0);
                m.nvm_write_bytes += nvm_write_bytes.saturating_sub(nvm0);
            }
            _ => {}
        }
    }

    fn observe_global(&mut self, t_ns: f64, event: &Event) {
        self.events_seen += 1;
        self.last_t_ns = t_ns;
        match event {
            Event::MinorGcStart | Event::MajorGcStart => {}
            Event::MinorGcEnd { pause_ns, .. } => self.minor_pauses.record(*pause_ns),
            Event::MajorGcEnd { pause_ns, .. } => self.major_pauses.record(*pause_ns),
            Event::Promotion { bytes, to } => {
                self.promotions += 1;
                self.promotion_bytes += bytes;
                if *to == Mem::Nvm {
                    self.promotions_to_nvm += 1;
                }
            }
            Event::Migration {
                from, to, bytes, ..
            } => match (from, to) {
                (Mem::Nvm, Mem::Dram) => {
                    self.churn.to_dram += 1;
                    self.churn.to_dram_bytes += bytes;
                }
                (Mem::Dram, Mem::Nvm) => {
                    self.churn.to_nvm += 1;
                    self.churn.to_nvm_bytes += bytes;
                }
                _ => {}
            },
            Event::StageStart {
                stage,
                dram_write_bytes,
                nvm_write_bytes,
            } => {
                self.open_stage = Some((*stage, *dram_write_bytes, *nvm_write_bytes, t_ns));
            }
            Event::StageEnd {
                stage,
                dram_write_bytes,
                nvm_write_bytes,
            } => {
                // Pair with the open start; a mismatched or missing start
                // (truncated trace) yields a row with zero deltas.
                let (dram0, nvm0, start_ns) = match self.open_stage.take() {
                    Some((s, d, n, t0)) if s == *stage => (d, n, t0),
                    _ => (*dram_write_bytes, *nvm_write_bytes, f64::NAN),
                };
                self.stages.push(StageRow {
                    stage: *stage,
                    start_ns,
                    end_ns: t_ns,
                    dram_write_bytes: dram_write_bytes.saturating_sub(dram0),
                    nvm_write_bytes: nvm_write_bytes.saturating_sub(nvm0),
                });
            }
            Event::ShuffleSpill { bytes } => {
                self.shuffle_spills += 1;
                self.shuffle_bytes += bytes;
            }
            Event::CardScan {
                cards,
                bytes,
                stuck,
            } => {
                self.card_scans += 1;
                self.cards_scanned += cards;
                self.card_scan_bytes += bytes;
                self.stuck_rescans += stuck;
            }
            Event::AllocFail { .. } => self.alloc_fails += 1,
            Event::VerifyFailure { .. } => self.verify_failures += 1,
            Event::ExecutorCrash { .. } => self.executor_crashes += 1,
            Event::RecoveryStart { .. } => {}
            Event::RecoveryEnd { recovery_ns, .. } => {
                self.recoveries += 1;
                self.recovery_ns += recovery_ns;
            }
            Event::CheckpointWrite { bytes, .. } => {
                self.checkpoint_writes += 1;
                self.checkpoint_write_bytes += bytes;
            }
            Event::CheckpointRestore { bytes, .. } => {
                self.checkpoint_restores += 1;
                self.checkpoint_restore_bytes += bytes;
            }
            Event::JournalNoop { .. } => self.journal_noops += 1,
            Event::JournalTorn { .. } => self.journal_torn += 1,
            Event::ShuffleFastPath { bytes } => {
                self.fastpath_transfers += 1;
                self.fastpath_bytes += bytes;
            }
            Event::OffHeapAlloc { bytes, .. } => {
                self.offheap_allocs += 1;
                self.offheap_alloc_bytes += bytes;
            }
            Event::OffHeapFree { bytes, .. } => {
                self.offheap_frees += 1;
                self.offheap_freed_bytes += bytes;
            }
            Event::RegionAlloc { bytes, .. } => {
                self.region_allocs += 1;
                self.region_alloc_bytes += bytes;
            }
            Event::RegionFree { bytes, .. } => {
                self.region_frees += 1;
                self.region_freed_bytes += bytes;
            }
            Event::RegionStageFree { bytes } => {
                self.region_stage_frees += 1;
                self.region_stage_freed_bytes += bytes;
            }
            Event::TrafficWindow {
                dram_read,
                dram_write,
                nvm_read,
                nvm_write,
                ..
            } => {
                self.traffic_windows += 1;
                let total = dram_read + dram_write + nvm_read + nvm_write;
                self.peak_window_bytes = self.peak_window_bytes.max(total);
                self.peak_window_nvm_write = self.peak_window_nvm_write.max(*nvm_write);
            }
            Event::JobSubmitted { .. } => self.jobs_submitted += 1,
            Event::JobStarted { queued_ns, .. } => {
                self.jobs_started += 1;
                self.job_queued_ns += queued_ns;
            }
            Event::JobPreempted { .. } => self.jobs_preempted += 1,
            Event::JobFinished { elapsed_ns, .. } => {
                self.jobs_finished += 1;
                self.job_elapsed_ns += elapsed_ns;
            }
            Event::RddCall { rdd } => {
                *self.rdd_calls.entry(*rdd).or_insert(0) += 1;
            }
            Event::BatchStart { .. } => {}
            Event::BatchEnd { latency_ns, .. } => {
                self.batches += 1;
                self.batch_latency.record(*latency_ns);
            }
            Event::Watermark { .. } => self.watermarks += 1,
            Event::Retag { to, .. } => match to {
                Mem::Dram => self.retags_to_dram += 1,
                Mem::Nvm => self.retags_to_nvm += 1,
            },
        }
    }
}

impl EventSink for MetricsAggregator {
    fn on_event(&mut self, t_ns: f64, event: &Event) {
        self.on_event_from(t_ns, 0, event);
    }

    fn on_event_from(&mut self, t_ns: f64, exec: u16, event: &Event) {
        self.observe_global(t_ns, event);
        self.observe_exec(exec, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_pause_histograms_and_churn() {
        let mut m = MetricsAggregator::new();
        for (i, pause) in [100.0, 300.0, 200.0].iter().enumerate() {
            m.on_event(i as f64 * 1e6, &Event::MinorGcStart);
            m.on_event(
                i as f64 * 1e6 + pause,
                &Event::MinorGcEnd {
                    pause_ns: *pause,
                    moved: 1,
                    freed: 1,
                },
            );
        }
        m.on_event(
            4e6,
            &Event::Migration {
                rdd: 1,
                from: Mem::Nvm,
                to: Mem::Dram,
                bytes: 100,
            },
        );
        m.on_event(
            5e6,
            &Event::Migration {
                rdd: 2,
                from: Mem::Dram,
                to: Mem::Nvm,
                bytes: 50,
            },
        );
        assert_eq!(m.minor_pauses().count(), 3);
        assert_eq!(m.minor_pauses().max_ns(), 300.0);
        assert_eq!(m.minor_pauses().quantile_ns(0.5), 200.0);
        assert_eq!(
            m.migration_churn(),
            MigrationChurn {
                to_dram: 1,
                to_nvm: 1,
                to_dram_bytes: 100,
                to_nvm_bytes: 50,
            }
        );
        assert!(m.summary_table().contains("migration churn: 1 to DRAM"));
    }

    #[test]
    fn stage_rows_use_cumulative_counter_deltas() {
        let mut m = MetricsAggregator::new();
        m.on_event(
            10.0,
            &Event::StageStart {
                stage: 0,
                dram_write_bytes: 1000,
                nvm_write_bytes: 500,
            },
        );
        m.on_event(
            90.0,
            &Event::StageEnd {
                stage: 0,
                dram_write_bytes: 1600,
                nvm_write_bytes: 900,
            },
        );
        let rows = m.stages();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].dram_write_bytes, 600);
        assert_eq!(rows[0].nvm_write_bytes, 400);
        assert!((rows[0].nvm_write_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(rows[0].start_ns, 10.0);
        assert_eq!(rows[0].end_ns, 90.0);
    }

    #[test]
    fn unmatched_stage_end_yields_zero_delta_row() {
        let mut m = MetricsAggregator::new();
        m.on_event(
            50.0,
            &Event::StageEnd {
                stage: 7,
                dram_write_bytes: 123,
                nvm_write_bytes: 456,
            },
        );
        assert_eq!(m.stages().len(), 1);
        assert_eq!(m.stages()[0].dram_write_bytes, 0);
        assert_eq!(m.stages()[0].nvm_write_bytes, 0);
        assert!(m.stages()[0].start_ns.is_nan());
    }

    #[test]
    fn per_executor_breakdowns_attribute_interleaved_stages() {
        let mut m = MetricsAggregator::new();
        // Two executors run stage 0 with interleaved events; each has its
        // own cumulative counters and its own pauses.
        m.on_event_from(
            1.0,
            0,
            &Event::StageStart {
                stage: 0,
                dram_write_bytes: 100,
                nvm_write_bytes: 0,
            },
        );
        m.on_event_from(
            2.0,
            1,
            &Event::StageStart {
                stage: 0,
                dram_write_bytes: 1000,
                nvm_write_bytes: 500,
            },
        );
        m.on_event_from(
            3.0,
            1,
            &Event::MinorGcEnd {
                pause_ns: 70.0,
                moved: 0,
                freed: 0,
            },
        );
        m.on_event_from(
            4.0,
            0,
            &Event::StageEnd {
                stage: 0,
                dram_write_bytes: 150,
                nvm_write_bytes: 25,
            },
        );
        m.on_event_from(
            5.0,
            1,
            &Event::StageEnd {
                stage: 0,
                dram_write_bytes: 1000,
                nvm_write_bytes: 900,
            },
        );
        let per = m.per_executor();
        assert_eq!(per.len(), 2);
        assert_eq!(per[&0].dram_write_bytes(), 50);
        assert_eq!(per[&0].nvm_write_bytes(), 25);
        assert_eq!(per[&1].dram_write_bytes(), 0);
        assert_eq!(per[&1].nvm_write_bytes(), 400);
        assert_eq!(per[&1].minor_pauses().count(), 1);
        assert_eq!(per[&0].minor_pauses().count(), 0);
        // The global aggregates still see everything.
        assert_eq!(m.events_seen(), 5);
        assert_eq!(m.stages().len(), 2);
        assert!(m.summary_table().contains("NVM frac"));
        assert!(m.to_json().to_compact().contains("\"executors\""));
    }

    #[test]
    fn single_executor_json_has_no_executors_field() {
        let mut m = MetricsAggregator::new();
        m.on_event(1.0, &Event::MinorGcStart);
        assert!(!m.to_json().to_compact().contains("\"executors\""));
    }

    #[test]
    fn rdd_call_counters_are_cumulative_and_deltas_subtract() {
        let mut m = MetricsAggregator::new();
        for _ in 0..3 {
            m.on_event(1.0, &Event::RddCall { rdd: 4 });
        }
        m.on_event(2.0, &Event::RddCall { rdd: 9 });
        let baseline = m.rdd_calls().clone();
        assert_eq!(baseline[&4], 3);
        assert_eq!(baseline[&9], 1);

        // More calls land in the next batch window; counters keep growing.
        for _ in 0..5 {
            m.on_event(3.0, &Event::RddCall { rdd: 4 });
        }
        m.on_event(4.0, &Event::RddCall { rdd: 2 });
        let delta = MetricsAggregator::rdd_call_delta(m.rdd_calls(), &baseline);
        assert_eq!(delta.get(&4), Some(&5));
        assert_eq!(delta.get(&2), Some(&1));
        // RDD 9 did not grow this window: absent, not zero.
        assert_eq!(delta.get(&9), None);
    }

    #[test]
    fn rdd_call_delta_survives_freed_then_reused_id() {
        // RDD 7 is called, freed (the aggregator cannot see frees — the
        // counter just stops growing), and a *new* RDD reuses id 7 in a
        // restarted trace counted by a fresh aggregator. A baseline taken
        // from the old aggregator is larger than the new counter; the
        // delta must saturate to 0 for that id instead of wrapping to a
        // huge "hot" count.
        let mut old = MetricsAggregator::new();
        for _ in 0..10 {
            old.on_event(1.0, &Event::RddCall { rdd: 7 });
        }
        let stale_baseline = old.rdd_calls().clone();

        let mut fresh = MetricsAggregator::new();
        for _ in 0..2 {
            fresh.on_event(2.0, &Event::RddCall { rdd: 7 });
        }
        let delta = MetricsAggregator::rdd_call_delta(fresh.rdd_calls(), &stale_baseline);
        assert_eq!(delta.get(&7), None, "stale baseline must not underflow");

        // Within ONE aggregator the reuse is benign: the cumulative
        // counter for the reused id keeps growing, and per-window deltas
        // attribute exactly the window's growth to the new incarnation.
        let before = fresh.rdd_calls().clone();
        for _ in 0..4 {
            fresh.on_event(3.0, &Event::RddCall { rdd: 7 });
        }
        let delta = MetricsAggregator::rdd_call_delta(fresh.rdd_calls(), &before);
        assert_eq!(delta.get(&7), Some(&4));
        assert_eq!(fresh.rdd_calls()[&7], 6);
    }

    #[test]
    fn rdd_call_delta_against_empty_baseline_is_identity() {
        let mut m = MetricsAggregator::new();
        m.on_event(1.0, &Event::RddCall { rdd: 0 });
        m.on_event(1.0, &Event::RddCall { rdd: 3 });
        m.on_event(1.0, &Event::RddCall { rdd: 3 });
        let delta = MetricsAggregator::rdd_call_delta(m.rdd_calls(), &BTreeMap::new());
        assert_eq!(delta, m.rdd_calls().clone());
    }

    #[test]
    fn stream_aggregates_and_conditional_json_sections() {
        let mut m = MetricsAggregator::new();
        // No stream events: summary JSON has no stream/rdd_calls fields,
        // keeping pre-streaming trace summaries byte-identical.
        m.on_event(1.0, &Event::MinorGcStart);
        let json = m.to_json().to_compact();
        assert!(!json.contains("\"stream\""), "{json}");
        assert!(!json.contains("\"rdd_calls\""), "{json}");

        m.on_event(2.0, &Event::BatchStart { batch: 0 });
        m.on_event(3.0, &Event::RddCall { rdd: 1 });
        m.on_event(
            4.0,
            &Event::BatchEnd {
                batch: 0,
                latency_ns: 2.0,
            },
        );
        m.on_event(
            4.0,
            &Event::Watermark {
                batch: 0,
                event_time: 32,
            },
        );
        m.on_event(
            4.0,
            &Event::Retag {
                rdd: 1,
                from: Mem::Nvm,
                to: Mem::Dram,
            },
        );
        assert_eq!(m.batches(), 1);
        assert_eq!(m.batch_latency().count(), 1);
        assert_eq!(m.retags(), (1, 0));
        let json = m.to_json().to_compact();
        assert!(json.contains("\"stream\""), "{json}");
        assert!(json.contains("\"rdd_calls\""), "{json}");
        assert!(json.contains("\"watermarks\":1"), "{json}");
        assert!(m.summary_table().contains("stream: 1 batches"));
        assert!(m.summary_table().contains("rdd calls: 1 across 1 RDDs"));
    }

    #[test]
    fn json_output_is_deterministic() {
        let mut a = MetricsAggregator::new();
        let mut b = MetricsAggregator::new();
        let seq = [
            (1.0, Event::MinorGcStart),
            (
                2.0,
                Event::MinorGcEnd {
                    pause_ns: 1.0,
                    moved: 0,
                    freed: 0,
                },
            ),
            (3.0, Event::ShuffleSpill { bytes: 10 }),
        ];
        for (t, e) in &seq {
            a.on_event(*t, e);
            b.on_event(*t, e);
        }
        assert_eq!(a.to_json().to_compact(), b.to_json().to_compact());
    }
}
