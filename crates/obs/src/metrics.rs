//! A metrics-aggregating sink: consumes the event stream (live or
//! replayed from JSONL) and derives the evaluation-grade aggregates —
//! pause distributions, per-stage NVM-write ratios, migration churn,
//! recovery totals.
//!
//! Every section of [`MetricsAggregator::to_json`] that only sums is one
//! [`counters!`](crate::counters) declaration below, so its keys are
//! stated once; each event's aggregation is one arm of one `match`.

use crate::event::{Event, Mem};
use crate::json::Json;
use crate::sink::EventSink;
use crate::stats::PauseStats;
use std::collections::BTreeMap;

/// The all-sum JSON sections. Field names are the keys, in order.
// `counters!` also generates `merge`, which no section needs.
#[allow(dead_code)]
mod sections {
    crate::counters! {
        /// `Promotion` events: count, bytes, and how many landed on NVM.
        #[derive(Debug, Clone, Default)]
        pub struct Promotions {
            pub count: u64,
            pub bytes: u64,
            pub to_nvm: u64,
        }
    }

    crate::counters! {
        /// `Migration` events by direction: arrays and bytes moved.
        #[derive(Debug, Clone, Default)]
        pub struct Migration {
            pub to_dram: u64,
            pub to_nvm: u64,
            pub to_dram_bytes: u64,
            pub to_nvm_bytes: u64,
        }
    }

    crate::counters! {
        /// `ShuffleSpill` and `ShuffleFastPath` events. Fast-path bytes
        /// cross at memory bandwidth with zero serde on either side: they
        /// are the serde bytes the shared-region transport avoided.
        #[derive(Debug, Clone, Default)]
        pub struct Shuffle {
            pub spills: u64,
            pub bytes: u64,
            pub fastpath_transfers: u64,
            pub serde_bytes_avoided: u64,
        }
    }

    crate::counters! {
        /// `OffHeapAlloc` and `OffHeapFree` events.
        #[derive(Debug, Clone, Default)]
        pub struct OffHeap {
            pub allocs: u64,
            pub alloc_bytes: u64,
            pub frees: u64,
            pub freed_bytes: u64,
        }
    }

    crate::counters! {
        /// `RegionAlloc`, `RegionFree` and `RegionStageFree` events.
        #[derive(Debug, Clone, Default)]
        pub struct Region {
            pub allocs: u64,
            pub alloc_bytes: u64,
            pub frees: u64,
            pub freed_bytes: u64,
            pub stage_frees: u64,
            pub stage_freed_bytes: u64,
        }
    }

    crate::counters! {
        /// `CardScan` events.
        #[derive(Debug, Clone, Default)]
        pub struct CardScan {
            pub scans: u64,
            pub cards: u64,
            pub bytes: u64,
            pub stuck_rescans: u64,
        }
    }

    crate::counters! {
        /// Crash, recovery, checkpoint and journal events.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct Recovery {
            pub executor_crashes: u64,
            pub recoveries: u64,
            pub recovery_ns: f64,
            pub checkpoint_writes: u64,
            pub checkpoint_write_bytes: u64,
            pub checkpoint_restores: u64,
            pub checkpoint_restore_bytes: u64,
            pub journal_noops: u64,
            pub journal_torn: u64,
        }
    }

    crate::counters! {
        /// Job-service events: lifecycle counts, summed queueing and
        /// elapsed time.
        #[derive(Debug, Clone, Default)]
        pub struct Jobs {
            pub submitted: u64,
            pub started: u64,
            pub preempted: u64,
            pub finished: u64,
            pub queued_ns: f64,
            pub elapsed_ns: f64,
        }
    }
}

use sections::{CardScan, Jobs, Migration, OffHeap, Promotions, Recovery, Region, Shuffle};

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

/// A JSON object with one member per map entry, keyed by its id.
fn by_id<K: ToString, V>(map: &BTreeMap<K, V>, value: impl Fn(&V) -> Json) -> Json {
    Json::Obj(map.iter().map(|(k, v)| (k.to_string(), value(v))).collect())
}

/// An open `StageStart`: stage number, cumulative DRAM and NVM write
/// counters, and time (ns).
type OpenStage = Option<(u32, u64, u64, f64)>;

/// One stage's write traffic, from paired `StageStart`/`StageEnd`
/// events' cumulative counters.
#[derive(Debug, Clone)]
struct StageRow {
    stage: u32,
    start_ns: f64,
    end_ns: f64,
    dram_write_bytes: u64,
    nvm_write_bytes: u64,
}

impl StageRow {
    /// Pairs a `StageEnd` at `end_ns` with the `open` start, which it
    /// takes. A mismatched or missing start (truncated trace) yields zero
    /// deltas and a `NaN` start.
    fn close(open: &mut OpenStage, end_ns: f64, stage: u32, dram: u64, nvm: u64) -> StageRow {
        let (dram0, nvm0, start_ns) = match open.take() {
            Some((s, d, n, t0)) if s == stage => (d, n, t0),
            _ => (dram, nvm, f64::NAN),
        };
        StageRow {
            stage,
            start_ns,
            end_ns,
            dram_write_bytes: dram.saturating_sub(dram0),
            nvm_write_bytes: nvm.saturating_sub(nvm0),
        }
    }

    fn nvm_write_ratio(&self) -> f64 {
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

/// The slice of the aggregates attributed to one executor's events:
/// pause distributions and stage write traffic, paired against this
/// executor's own open stage so interleaved executors stay apart.
#[derive(Debug, Clone, Default)]
struct ExecutorSlice {
    events: u64,
    minor_pauses: PauseStats,
    major_pauses: PauseStats,
    dram_write_bytes: u64,
    nvm_write_bytes: u64,
    open_stage: OpenStage,
}

impl ExecutorSlice {
    fn nvm_write_ratio(&self) -> f64 {
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
/// [`crate::Observer`], or by replaying a JSONL trace), then read
/// [`MetricsAggregator::to_json`] or
/// [`MetricsAggregator::summary_table`].
///
/// Aggregation is deterministic: the same event sequence always yields
/// the same [`MetricsAggregator::to_json`] output, which is how the
/// JSONL round-trip test proves a written trace is complete. Events
/// carry an executor id through [`EventSink::on_event_from`];
/// single-runtime traces put everything under executor 0.
#[derive(Debug, Clone, Default)]
pub struct MetricsAggregator {
    events_seen: u64,
    last_t_ns: f64,
    minor_pauses: PauseStats,
    major_pauses: PauseStats,
    promotions: Promotions,
    migration: Migration,
    stages: Vec<StageRow>,
    open_stage: OpenStage,
    shuffle: Shuffle,
    offheap: OffHeap,
    region: Region,
    card_scan: CardScan,
    alloc_fails: u64,
    verify_failures: u64,
    traffic_windows: u64,
    peak_window_bytes: u64,
    peak_window_nvm_write: u64,
    recovery: Recovery,
    jobs: Jobs,
    rdd_calls: BTreeMap<u32, u64>,
    batches: u64,
    batch_latency: PauseStats,
    watermarks: u64,
    retags_to_dram: u64,
    retags_to_nvm: u64,
    per_exec: BTreeMap<u16, ExecutorSlice>,
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

    /// Minor-GC pause distribution.
    pub fn minor_pauses(&self) -> &PauseStats {
        &self.minor_pauses
    }

    /// Deterministic JSON form of every aggregate (used by
    /// `trace_summary` and the round-trip tests).
    ///
    /// The `recovery`, `jobs`, `rdd_calls`, `stream` and `executors`
    /// sections appear only in traces with events that feed them (a
    /// second executor, for `executors`), so traces without those events
    /// print as they did before the sections existed.
    pub fn to_json(&self) -> Json {
        let stages = self.stages.iter().map(StageRow::to_json).collect();
        let mut fields = vec![
            ("events_seen", Json::UInt(self.events_seen)),
            ("last_t_ns", Json::Num(self.last_t_ns)),
            ("minor_pauses", self.minor_pauses.to_json()),
            ("major_pauses", self.major_pauses.to_json()),
            ("promotions", self.promotions.to_json()),
            ("migration", self.migration.to_json()),
            ("stages", Json::Arr(stages)),
            ("shuffle", self.shuffle.to_json()),
            ("offheap", self.offheap.to_json()),
            ("region", self.region.to_json()),
            ("card_scan", self.card_scan.to_json()),
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
        if self.recovery != Recovery::default() {
            fields.push(("recovery", self.recovery.to_json()));
        }
        if self.jobs.submitted > 0 {
            fields.push(("jobs", self.jobs.to_json()));
        }
        if !self.rdd_calls.is_empty() {
            fields.push(("rdd_calls", by_id(&self.rdd_calls, |n| Json::UInt(*n))));
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
        if self.per_exec.len() > 1 {
            fields.push(("executors", by_id(&self.per_exec, ExecutorSlice::to_json)));
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
        out.push_str("pauses       count     mean ms      p50 ms      p99 ms      max ms\n");
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
        let p = &self.promotions;
        out.push_str(&format!(
            "promotions: {} ({} B, {} to NVM)   alloc fails: {}\n",
            p.count, p.bytes, p.to_nvm, self.alloc_fails
        ));
        if self.verify_failures > 0 {
            out.push_str(&format!("VERIFY FAILURES: {}\n", self.verify_failures));
        }
        let r = &self.recovery;
        if r.executor_crashes > 0 || r.checkpoint_writes > 0 {
            out.push_str(&format!(
                "recovery: {} crashes, {} recoveries ({:.3} ms), \
                 {} checkpoint writes ({} B), {} restores ({} B)\n",
                r.executor_crashes,
                r.recoveries,
                r.recovery_ns * ms,
                r.checkpoint_writes,
                r.checkpoint_write_bytes,
                r.checkpoint_restores,
                r.checkpoint_restore_bytes
            ));
        }
        if r.journal_noops > 0 || r.journal_torn > 0 {
            out.push_str(&format!(
                "journal: {} validated no-op replays, {} torn entries rolled forward\n",
                r.journal_noops, r.journal_torn
            ));
        }
        let m = &self.migration;
        out.push_str(&format!(
            "migration churn: {} to DRAM ({} B), {} to NVM ({} B)\n",
            m.to_dram, m.to_dram_bytes, m.to_nvm, m.to_nvm_bytes
        ));
        let (s, c) = (&self.shuffle, &self.card_scan);
        out.push_str(&format!(
            "shuffle: {} spills ({} B)   card scans: {} ({} cards, {} stuck rescans)\n",
            s.spills, s.bytes, c.scans, c.cards, c.stuck_rescans
        ));
        if s.fastpath_transfers > 0 {
            out.push_str(&format!(
                "shared-region fast path: {} transfers, serde bytes avoided: {}\n",
                s.fastpath_transfers, s.serde_bytes_avoided
            ));
        }
        let o = &self.offheap;
        if o.allocs > 0 || o.frees > 0 {
            out.push_str(&format!(
                "off-heap region: {} allocs ({} B), {} frees ({} B)\n",
                o.allocs, o.alloc_bytes, o.frees, o.freed_bytes
            ));
        }
        let g = &self.region;
        if g.allocs > 0 || g.stage_frees > 0 {
            out.push_str(&format!(
                "region arenas: {} blocks ({} B), {} block frees ({} B), \
                 {} stage resets ({} B)\n",
                g.allocs, g.alloc_bytes, g.frees, g.freed_bytes, g.stage_frees, g.stage_freed_bytes
            ));
        }
        out.push_str(&format!(
            "traffic windows: {} (peak {} B total, peak {} B NVM writes)\n",
            self.traffic_windows, self.peak_window_bytes, self.peak_window_nvm_write
        ));
        let j = &self.jobs;
        if j.submitted > 0 {
            out.push_str(&format!(
                "jobs: {} submitted, {} started, {} preempted, {} finished \
                 (queued {:.3} ms, elapsed {:.3} ms)\n",
                j.submitted,
                j.started,
                j.preempted,
                j.finished,
                j.queued_ns * ms,
                j.elapsed_ns * ms
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
            out.push_str(concat!(
                "exec     events   minor minor p99ms   major major p99ms",
                "      DRAM wr B       NVM wr B  NVM frac\n"
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
            out.push_str("stage         dur ms        DRAM wr B         NVM wr B  NVM frac\n");
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

impl EventSink for MetricsAggregator {
    fn on_event(&mut self, t_ns: f64, event: &Event) {
        self.on_event_from(t_ns, 0, event);
    }

    fn on_event_from(&mut self, t_ns: f64, exec: u16, event: &Event) {
        self.events_seen += 1;
        self.last_t_ns = t_ns;
        let slice = self.per_exec.entry(exec).or_default();
        slice.events += 1;
        match *event {
            Event::MinorGcStart | Event::MajorGcStart => {}
            Event::MinorGcEnd { pause_ns, .. } => {
                self.minor_pauses.record(pause_ns);
                slice.minor_pauses.record(pause_ns);
            }
            Event::MajorGcEnd { pause_ns, .. } => {
                self.major_pauses.record(pause_ns);
                slice.major_pauses.record(pause_ns);
            }
            Event::Promotion { bytes, to } => {
                self.promotions.count += 1;
                self.promotions.bytes += bytes;
                self.promotions.to_nvm += u64::from(to == Mem::Nvm);
            }
            Event::Migration {
                from, to, bytes, ..
            } => match (from, to) {
                (Mem::Nvm, Mem::Dram) => {
                    self.migration.to_dram += 1;
                    self.migration.to_dram_bytes += bytes;
                }
                (Mem::Dram, Mem::Nvm) => {
                    self.migration.to_nvm += 1;
                    self.migration.to_nvm_bytes += bytes;
                }
                _ => {}
            },
            Event::StageStart {
                stage,
                dram_write_bytes,
                nvm_write_bytes,
            } => {
                self.open_stage = Some((stage, dram_write_bytes, nvm_write_bytes, t_ns));
                slice.open_stage = self.open_stage;
            }
            Event::StageEnd {
                stage,
                dram_write_bytes: dram,
                nvm_write_bytes: nvm,
            } => {
                let row = StageRow::close(&mut self.open_stage, t_ns, stage, dram, nvm);
                self.stages.push(row);
                let own = StageRow::close(&mut slice.open_stage, t_ns, stage, dram, nvm);
                slice.dram_write_bytes += own.dram_write_bytes;
                slice.nvm_write_bytes += own.nvm_write_bytes;
            }
            Event::ShuffleSpill { bytes } => {
                self.shuffle.spills += 1;
                self.shuffle.bytes += bytes;
            }
            Event::CardScan {
                cards,
                bytes,
                stuck,
            } => {
                self.card_scan.scans += 1;
                self.card_scan.cards += cards;
                self.card_scan.bytes += bytes;
                self.card_scan.stuck_rescans += stuck;
            }
            Event::AllocFail { .. } => self.alloc_fails += 1,
            Event::VerifyFailure { .. } => self.verify_failures += 1,
            Event::ExecutorCrash { .. } => self.recovery.executor_crashes += 1,
            Event::RecoveryStart { .. } => {}
            Event::RecoveryEnd { recovery_ns, .. } => {
                self.recovery.recoveries += 1;
                self.recovery.recovery_ns += recovery_ns;
            }
            Event::CheckpointWrite { bytes, .. } => {
                self.recovery.checkpoint_writes += 1;
                self.recovery.checkpoint_write_bytes += bytes;
            }
            Event::CheckpointRestore { bytes, .. } => {
                self.recovery.checkpoint_restores += 1;
                self.recovery.checkpoint_restore_bytes += bytes;
            }
            Event::JournalNoop { .. } => self.recovery.journal_noops += 1,
            Event::JournalTorn { .. } => self.recovery.journal_torn += 1,
            Event::ShuffleFastPath { bytes } => {
                self.shuffle.fastpath_transfers += 1;
                self.shuffle.serde_bytes_avoided += bytes;
            }
            Event::OffHeapAlloc { bytes, .. } => {
                self.offheap.allocs += 1;
                self.offheap.alloc_bytes += bytes;
            }
            Event::OffHeapFree { bytes, .. } => {
                self.offheap.frees += 1;
                self.offheap.freed_bytes += bytes;
            }
            Event::RegionAlloc { bytes, .. } => {
                self.region.allocs += 1;
                self.region.alloc_bytes += bytes;
            }
            Event::RegionFree { bytes, .. } => {
                self.region.frees += 1;
                self.region.freed_bytes += bytes;
            }
            Event::RegionStageFree { bytes } => {
                self.region.stage_frees += 1;
                self.region.stage_freed_bytes += bytes;
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
                self.peak_window_nvm_write = self.peak_window_nvm_write.max(nvm_write);
            }
            Event::JobSubmitted { .. } => self.jobs.submitted += 1,
            Event::JobStarted { queued_ns, .. } => {
                self.jobs.started += 1;
                self.jobs.queued_ns += queued_ns;
            }
            Event::JobPreempted { .. } => self.jobs.preempted += 1,
            Event::JobFinished { elapsed_ns, .. } => {
                self.jobs.finished += 1;
                self.jobs.elapsed_ns += elapsed_ns;
            }
            Event::RddCall { rdd } => *self.rdd_calls.entry(rdd).or_insert(0) += 1,
            Event::BatchStart { .. } => {}
            Event::BatchEnd { latency_ns, .. } => {
                self.batches += 1;
                self.batch_latency.record(latency_ns);
            }
            Event::Watermark { .. } => self.watermarks += 1,
            Event::Retag { to, .. } => match to {
                Mem::Dram => self.retags_to_dram += 1,
                Mem::Nvm => self.retags_to_nvm += 1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::JournalKind;

    /// Section `key` of `m.to_json()`, compact, or `None` if it is absent.
    fn section(m: &MetricsAggregator, key: &str) -> Option<String> {
        m.to_json().get(key).map(Json::to_compact)
    }

    /// Every event kind of the table, fed on executor 0 and then on
    /// executor 1.
    fn every_event_on_two_executors() -> MetricsAggregator {
        let mut m = MetricsAggregator::new();
        let events = crate::event::tests::all_events();
        for exec in 0..2u16 {
            for (i, e) in events.iter().enumerate() {
                let t = 17.25 * (i + 1 + usize::from(exec) * events.len()) as f64;
                m.on_event_from(t, exec, e);
            }
        }
        m
    }

    /// `every_event_on_two_executors().to_json()`, as the aggregator
    /// printed it before its sections were `counters!` declarations, plus
    /// the `recovery` section.
    const PINNED_JSON: &str = concat!(
        r#"{"events_seen":70,"last_t_ns":1207.5,"#,
        r#""minor_pauses":{"count":2,"mean_ns":1234.5,"p50_ns":1234.5,"p90_ns":1234.5,"#,
        r#""p99_ns":1234.5,"max_ns":1234.5},"#,
        r#""major_pauses":{"count":2,"mean_ns":1000000.0,"p50_ns":1000000.0,"#,
        r#""p90_ns":1000000.0,"p99_ns":1000000.0,"max_ns":1000000.0},"#,
        r#""promotions":{"count":2,"bytes":128,"to_nvm":2},"#,
        r#""migration":{"to_dram":2,"to_nvm":0,"to_dram_bytes":8192,"to_nvm_bytes":0},"#,
        r#""stages":[{"stage":0,"start_ns":120.75,"end_ns":138.0,"dram_write_bytes":1024,"#,
        r#""nvm_write_bytes":2048,"nvm_write_ratio":0.6666666666666666},"#,
        r#"{"stage":0,"start_ns":724.5,"end_ns":741.75,"dram_write_bytes":1024,"#,
        r#""nvm_write_bytes":2048,"nvm_write_ratio":0.6666666666666666}],"#,
        r#""shuffle":{"spills":2,"bytes":18000,"fastpath_transfers":2,"#,
        r#""serde_bytes_avoided":8192},"#,
        r#""offheap":{"allocs":2,"alloc_bytes":131072,"frees":2,"freed_bytes":131072},"#,
        r#""region":{"allocs":2,"alloc_bytes":65536,"frees":2,"freed_bytes":65536,"#,
        r#""stage_frees":2,"stage_freed_bytes":2048},"#,
        r#""card_scan":{"scans":2,"cards":24,"bytes":12288,"stuck_rescans":2},"#,
        r#""alloc_fails":2,"verify_failures":2,"#,
        r#""traffic":{"windows":2,"peak_window_bytes":10,"peak_window_nvm_write":4},"#,
        r#""recovery":{"executor_crashes":2,"recoveries":2,"recovery_ns":5000000000.0,"#,
        r#""checkpoint_writes":2,"checkpoint_write_bytes":16384,"checkpoint_restores":2,"#,
        r#""checkpoint_restore_bytes":16384,"journal_noops":2,"journal_torn":2},"#,
        r#""jobs":{"submitted":2,"started":2,"preempted":2,"finished":2,"#,
        r#""queued_ns":3000000000.0,"elapsed_ns":19000000000.0},"#,
        r#""rdd_calls":{"5":2},"#,
        r#""stream":{"batches":2,"batch_latency":{"count":2,"mean_ns":325000000.0,"#,
        r#""p50_ns":325000000.0,"p90_ns":325000000.0,"p99_ns":325000000.0,"#,
        r#""max_ns":325000000.0},"watermarks":2,"retags_to_dram":2,"retags_to_nvm":0},"#,
        r#""executors":{"0":{"events":35,"minor_pauses":{"count":1,"mean_ns":1234.5,"#,
        r#""p50_ns":1234.5,"p90_ns":1234.5,"p99_ns":1234.5,"max_ns":1234.5},"#,
        r#""major_pauses":{"count":1,"mean_ns":1000000.0,"p50_ns":1000000.0,"#,
        r#""p90_ns":1000000.0,"p99_ns":1000000.0,"max_ns":1000000.0},"#,
        r#""dram_write_bytes":1024,"nvm_write_bytes":2048,"#,
        r#""nvm_write_ratio":0.6666666666666666},"#,
        r#""1":{"events":35,"minor_pauses":{"count":1,"mean_ns":1234.5,"#,
        r#""p50_ns":1234.5,"p90_ns":1234.5,"p99_ns":1234.5,"max_ns":1234.5},"#,
        r#""major_pauses":{"count":1,"mean_ns":1000000.0,"p50_ns":1000000.0,"#,
        r#""p90_ns":1000000.0,"p99_ns":1000000.0,"max_ns":1000000.0},"#,
        r#""dram_write_bytes":1024,"nvm_write_bytes":2048,"#,
        r#""nvm_write_ratio":0.6666666666666666}}}"#,
    );

    /// `every_event_on_two_executors().summary_table()`, as the
    /// aggregator printed it before its sections were `counters!`
    /// declarations.
    const PINNED_TABLE: &str = "\
events: 70  (last t = 0.001 ms)
pauses       count     mean ms      p50 ms      p99 ms      max ms
minor            2      0.0012      0.0012      0.0012      0.0012
major            2      1.0000      1.0000      1.0000      1.0000
promotions: 2 (128 B, 2 to NVM)   alloc fails: 2
VERIFY FAILURES: 2
recovery: 2 crashes, 2 recoveries (5000.000 ms), 2 checkpoint writes (16384 B), 2 restores (16384 B)
journal: 2 validated no-op replays, 2 torn entries rolled forward
migration churn: 2 to DRAM (8192 B), 0 to NVM (0 B)
shuffle: 2 spills (18000 B)   card scans: 2 (24 cards, 2 stuck rescans)
shared-region fast path: 2 transfers, serde bytes avoided: 8192
off-heap region: 2 allocs (131072 B), 2 frees (131072 B)
region arenas: 2 blocks (65536 B), 2 block frees (65536 B), 2 stage resets (2048 B)
traffic windows: 2 (peak 10 B total, peak 4 B NVM writes)
jobs: 2 submitted, 2 started, 2 preempted, 2 finished (queued 3000.000 ms, elapsed 19000.000 ms)
stream: 2 batches (p50 325.0000 ms, p99 325.0000 ms), 2 watermarks, retags: 2 to DRAM, 0 to NVM
rdd calls: 2 across 1 RDDs
exec     events   minor minor p99ms   major major p99ms      DRAM wr B       NVM wr B  NVM frac
0            35       1      0.0012       1      1.0000           1024           2048     0.667
1            35       1      0.0012       1      1.0000           1024           2048     0.667
stage         dur ms        DRAM wr B         NVM wr B  NVM frac
0             0.0000             1024             2048     0.667
0             0.0000             1024             2048     0.667
";

    #[test]
    fn every_section_is_pinned() {
        let m = every_event_on_two_executors();
        assert_eq!(m.to_json().to_compact(), PINNED_JSON);
        assert_eq!(m.summary_table(), PINNED_TABLE);
    }

    #[test]
    fn crash_traces_keep_their_recovery_totals() {
        let mut m = MetricsAggregator::new();
        m.on_event(1.0, &Event::MinorGcStart);
        assert_eq!(
            section(&m, "recovery"),
            None,
            "fault-free output is unchanged"
        );

        let events = [
            Event::ExecutorCrash { barrier: 3 },
            Event::RecoveryEnd {
                barrier: 3,
                recovery_ns: 1.5e6,
            },
            Event::CheckpointWrite { rdd: 2, bytes: 100 },
            Event::CheckpointWrite { rdd: 4, bytes: 60 },
            Event::CheckpointRestore { rdd: 2, bytes: 100 },
            Event::JournalNoop {
                kind: JournalKind::Shuffle,
                key: 7,
            },
            Event::JournalTorn {
                kind: JournalKind::Checkpoint,
                key: 4,
            },
        ];
        for e in &events {
            m.on_event_from(2.0, 1, e);
        }
        assert_eq!(
            section(&m, "recovery").unwrap(),
            concat!(
                r#"{"executor_crashes":1,"recoveries":1,"recovery_ns":1500000.0,"#,
                r#""checkpoint_writes":2,"checkpoint_write_bytes":160,"checkpoint_restores":1,"#,
                r#""checkpoint_restore_bytes":100,"journal_noops":1,"journal_torn":1}"#
            )
        );
        // A journal event alone opens the section too.
        let mut j = MetricsAggregator::new();
        j.on_event(1.0, &events[5]);
        assert!(section(&j, "recovery")
            .unwrap()
            .contains(r#""journal_noops":1"#));
    }

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
            section(&m, "migration").unwrap(),
            r#"{"to_dram":1,"to_nvm":1,"to_dram_bytes":100,"to_nvm_bytes":50}"#
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
        assert_eq!(
            section(&m, "stages").unwrap(),
            concat!(
                r#"[{"stage":0,"start_ns":10.0,"end_ns":90.0,"dram_write_bytes":600,"#,
                r#""nvm_write_bytes":400,"nvm_write_ratio":0.4}]"#
            )
        );
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
        // The missing start is a NaN, which JSON writes as `null`.
        assert_eq!(
            section(&m, "stages").unwrap(),
            concat!(
                r#"[{"stage":7,"start_ns":null,"end_ns":50.0,"dram_write_bytes":0,"#,
                r#""nvm_write_bytes":0,"nvm_write_ratio":0.0}]"#
            )
        );
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
        let json = m.to_json();
        let per = json.get("executors").unwrap();
        let slice = |exec: &str, key: &str| per.get(exec).unwrap().get(key).unwrap().clone();
        assert_eq!(slice("0", "dram_write_bytes"), Json::UInt(50));
        assert_eq!(slice("0", "nvm_write_bytes"), Json::UInt(25));
        assert_eq!(slice("1", "dram_write_bytes"), Json::UInt(0));
        assert_eq!(slice("1", "nvm_write_bytes"), Json::UInt(400));
        assert_eq!(
            slice("1", "minor_pauses").get("count"),
            Some(&Json::UInt(1))
        );
        assert_eq!(
            slice("0", "minor_pauses").get("count"),
            Some(&Json::UInt(0))
        );
        // The global aggregates still see everything; the global stage
        // slot pairs executor 1's end with its own start only.
        assert_eq!(m.events_seen(), 5);
        assert_eq!(json.get("stages").unwrap().as_array().unwrap().len(), 2);
        assert!(m.summary_table().contains("NVM frac"));
    }

    #[test]
    fn single_executor_json_has_no_executors_field() {
        let mut m = MetricsAggregator::new();
        m.on_event(1.0, &Event::MinorGcStart);
        assert!(!m.to_json().to_compact().contains("\"executors\""));
    }

    #[test]
    fn rdd_call_counters_are_cumulative() {
        let mut m = MetricsAggregator::new();
        for _ in 0..3 {
            m.on_event(1.0, &Event::RddCall { rdd: 4 });
        }
        m.on_event(2.0, &Event::RddCall { rdd: 9 });
        assert_eq!(section(&m, "rdd_calls").unwrap(), r#"{"4":3,"9":1}"#);

        // More calls land in the next batch window; counters keep growing.
        for _ in 0..5 {
            m.on_event(3.0, &Event::RddCall { rdd: 4 });
        }
        m.on_event(4.0, &Event::RddCall { rdd: 2 });
        assert_eq!(section(&m, "rdd_calls").unwrap(), r#"{"2":1,"4":8,"9":1}"#);
        assert!(m.summary_table().contains("rdd calls: 10 across 3 RDDs"));
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
        let stream = section(&m, "stream").unwrap();
        assert!(
            stream.starts_with(r#"{"batches":1,"batch_latency":{"count":1,"#),
            "{stream}"
        );
        assert!(
            stream.ends_with(r#""watermarks":1,"retags_to_dram":1,"retags_to_nvm":0}"#),
            "{stream}"
        );
        assert!(section(&m, "rdd_calls").is_some());
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
