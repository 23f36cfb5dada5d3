//! Host-time spans recorded from outside the program.
//!
//! [`HostSpanSink`] is an ordinary [`obs::EventSink`]: attached through
//! `SystemConfig.observer` (and `JobService::set_observer`) it stamps
//! the host clock on the program's own start/end events, which sit at
//! the layer boundaries (engine stage, minor/major collection, stream
//! batch, recovery, job). Nothing inside the program changes, and events
//! never charge, so a traced run's report equals an untraced one's.
//!
//! Spans carry a name, start, end and the span that was open when they
//! began (a collection inside a stage inside a batch). A span's self
//! time is its duration minus what its direct children cover. Everything
//! stays in memory until [`HostSpanSink::finish`].
//!
//! Two things the program's event stream cannot give, stated rather than
//! papered over:
//!
//! * the cluster driver buffers executor events and re-emits them after
//!   the run, so on multi-executor runs host stamps would all read "after
//!   the run": a sink built with [`HostSpanSink::virtual_only`] records
//!   counts and virtual-time spans and reports no host split;
//! * service jobs interleave at stage barriers, so job spans overlap and
//!   stage events name no job: jobs are recorded flat, outside the
//!   nesting stack.

use obs::{Event, EventSink, Json};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    Job,
    Batch,
    Recovery,
    Stage,
    MinorGc,
    MajorGc,
}

impl SpanKind {
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Job => "job",
            SpanKind::Batch => "batch",
            SpanKind::Recovery => "recovery",
            SpanKind::Stage => "stage",
            SpanKind::MinorGc => "minor_gc",
            SpanKind::MajorGc => "major_gc",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub kind: SpanKind,
    /// Stage sequence number, batch, job id or recovery attempt; 0 for
    /// collections.
    pub id: u32,
    pub exec: u16,
    /// Index of the span open when this one began.
    pub parent: Option<usize>,
    pub start_host_ns: u64,
    pub end_host_ns: u64,
    pub start_sim_ns: f64,
    pub end_sim_ns: f64,
    /// Host time covered by direct children.
    pub child_host_ns: u64,
    /// Closed by `finish` or by an enclosing span's end, not by its own
    /// end event.
    pub unclosed: bool,
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.end_host_ns - self.start_host_ns
    }

    pub fn self_host_ns(&self) -> u64 {
        self.host_ns().saturating_sub(self.child_host_ns)
    }
}

pub struct HostSpanSink {
    epoch: Instant,
    host: bool,
    spans: Vec<Span>,
    /// Open nesting spans per executor, innermost last.
    stacks: BTreeMap<u16, Vec<usize>>,
    open_jobs: BTreeMap<u32, usize>,
    last_batch_end_ns: Option<u64>,
    policy_gap_ns: u64,
    orphan_ends: u64,
    events: Vec<(f64, u16, Event)>,
}

/// What a finished trace holds.
pub struct Trace {
    /// Whether host stamps are meaningful (false for buffered re-emits).
    pub host: bool,
    /// Host time from sink creation to `finish`.
    pub wall_ns: u64,
    pub spans: Vec<Span>,
    pub orphan_ends: u64,
    /// Host time between each `BatchEnd` and the next `BatchStart`.
    pub policy_gap_ns: u64,
    /// Every event seen, in order, for the `obs` replay drives.
    pub events: Vec<(f64, u16, Event)>,
}

impl HostSpanSink {
    /// A sink for a run whose events arrive live (single runtime, the
    /// stream driver, the service loop).
    pub fn live() -> HostSpanSink {
        HostSpanSink::new(true)
    }

    /// A sink for a run whose events are buffered and re-emitted after
    /// it (multi-executor): counts and virtual-time spans only.
    pub fn virtual_only() -> HostSpanSink {
        HostSpanSink::new(false)
    }

    fn new(host: bool) -> HostSpanSink {
        HostSpanSink {
            epoch: Instant::now(),
            host,
            spans: Vec::new(),
            stacks: BTreeMap::new(),
            open_jobs: BTreeMap::new(),
            last_batch_end_ns: None,
            policy_gap_ns: 0,
            orphan_ends: 0,
            events: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        if self.host {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    fn open(&mut self, now: u64, kind: SpanKind, id: u32, exec: u16, sim_ns: f64) -> usize {
        let nests = kind != SpanKind::Job;
        let stack = self.stacks.entry(exec).or_default();
        let idx = self.spans.len();
        self.spans.push(Span {
            kind,
            id,
            exec,
            parent: if nests { stack.last().copied() } else { None },
            start_host_ns: now,
            end_host_ns: now,
            start_sim_ns: sim_ns,
            end_sim_ns: sim_ns,
            child_host_ns: 0,
            unclosed: false,
        });
        if nests {
            stack.push(idx);
        }
        idx
    }

    fn seal(&mut self, idx: usize, now: u64, sim_ns: f64, unclosed: bool) {
        let span = &mut self.spans[idx];
        span.end_host_ns = now;
        span.end_sim_ns = sim_ns;
        span.unclosed = unclosed;
        let dur = span.host_ns();
        if let Some(p) = span.parent {
            self.spans[p].child_host_ns += dur;
        }
    }

    /// Close the innermost open span of `kind` on `exec`; spans opened
    /// inside it that never saw their own end close with it. An end with
    /// no matching start is counted and dropped.
    fn close(&mut self, now: u64, kind: SpanKind, exec: u16, sim_ns: f64) {
        let stack = self.stacks.entry(exec).or_default();
        let Some(pos) = stack.iter().rposition(|&i| self.spans[i].kind == kind) else {
            self.orphan_ends += 1;
            return;
        };
        let closing = stack.split_off(pos);
        for (depth, idx) in closing.into_iter().enumerate().rev() {
            self.seal(idx, now, sim_ns, depth != 0);
        }
    }

    /// Stop recording: every still-open span ends now, marked unclosed.
    pub fn finish(self) -> Trace {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.finish_at(now)
    }

    fn finish_at(mut self, now: u64) -> Trace {
        let open_spans = std::mem::take(&mut self.stacks)
            .into_values()
            .flat_map(|stack| stack.into_iter().rev());
        for idx in open_spans.chain(std::mem::take(&mut self.open_jobs).into_values()) {
            let sim = self.spans[idx].start_sim_ns;
            self.seal(idx, now, sim, true);
        }
        Trace {
            host: self.host,
            wall_ns: now,
            spans: self.spans,
            orphan_ends: self.orphan_ends,
            policy_gap_ns: self.policy_gap_ns,
            events: self.events,
        }
    }

    /// Record one event stamped `now` host nanoseconds after the epoch.
    fn record(&mut self, now: u64, t_ns: f64, exec: u16, event: &Event) {
        match event {
            Event::StageStart { stage, .. } => {
                self.open(now, SpanKind::Stage, *stage, exec, t_ns);
            }
            Event::StageEnd { .. } => self.close(now, SpanKind::Stage, exec, t_ns),
            Event::MinorGcStart => {
                self.open(now, SpanKind::MinorGc, 0, exec, t_ns);
            }
            Event::MinorGcEnd { .. } => self.close(now, SpanKind::MinorGc, exec, t_ns),
            Event::MajorGcStart => {
                self.open(now, SpanKind::MajorGc, 0, exec, t_ns);
            }
            Event::MajorGcEnd { .. } => self.close(now, SpanKind::MajorGc, exec, t_ns),
            Event::BatchStart { batch } => {
                if let Some(end) = self.last_batch_end_ns.take() {
                    self.policy_gap_ns += now.saturating_sub(end);
                }
                self.open(now, SpanKind::Batch, *batch, exec, t_ns);
            }
            Event::BatchEnd { .. } => {
                self.close(now, SpanKind::Batch, exec, t_ns);
                self.last_batch_end_ns = Some(now);
            }
            Event::RecoveryStart { attempt } => {
                self.open(now, SpanKind::Recovery, *attempt, exec, t_ns);
            }
            Event::RecoveryEnd { .. } => self.close(now, SpanKind::Recovery, exec, t_ns),
            Event::JobStarted { job, .. } => {
                let idx = self.open(now, SpanKind::Job, *job, exec, t_ns);
                self.open_jobs.insert(*job, idx);
            }
            Event::JobFinished { job, .. } => match self.open_jobs.remove(job) {
                Some(idx) => self.seal(idx, now, t_ns, false),
                None => self.orphan_ends += 1,
            },
            _ => {}
        }
        self.events.push((t_ns, exec, event.clone()));
    }
}

impl EventSink for HostSpanSink {
    fn on_event(&mut self, t_ns: f64, event: &Event) {
        self.on_event_from(t_ns, 0, event);
    }

    fn on_event_from(&mut self, t_ns: f64, exec: u16, event: &Event) {
        self.record(self.now_ns(), t_ns, exec, event);
    }
}

/// The flat profile a trace reduces to. Every host nanosecond of the
/// traced wall lands in exactly one of `stage_self`, `minor_gc`,
/// `major_gc` and `nonstage`, so the four sum to `wall` by construction;
/// the acceptance check compares that sum against the wall clock read
/// separately around the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    pub wall_ns: u64,
    /// Outermost stage spans, collections inside them included.
    pub stage_ns: u64,
    /// Stage self time: stage spans minus every span nested in them.
    pub stage_self_ns: u64,
    pub minor_gc_ns: u64,
    pub major_gc_ns: u64,
    /// Wall minus stage self minus collections: validation, analysis,
    /// input registration, report collection, scheduling, policy.
    pub nonstage_ns: u64,
    /// Each minor collection's host duration.
    pub minor_gc_each_ns: Vec<u64>,
    /// Each batch's host duration.
    pub batch_each_ns: Vec<u64>,
}

impl Trace {
    pub fn profile(&self) -> Profile {
        let mut p = Profile {
            wall_ns: self.wall_ns,
            ..Profile::default()
        };
        if !self.host {
            return p;
        }
        for span in &self.spans {
            match span.kind {
                SpanKind::Stage => {
                    p.stage_self_ns += span.self_host_ns();
                    if !self.has_ancestor(span, SpanKind::Stage) {
                        p.stage_ns += span.host_ns();
                    }
                }
                SpanKind::MinorGc => {
                    p.minor_gc_ns += span.self_host_ns();
                    p.minor_gc_each_ns.push(span.host_ns());
                }
                SpanKind::MajorGc => p.major_gc_ns += span.self_host_ns(),
                SpanKind::Batch => p.batch_each_ns.push(span.host_ns()),
                SpanKind::Job | SpanKind::Recovery => {}
            }
        }
        p.nonstage_ns = p
            .wall_ns
            .saturating_sub(p.stage_self_ns + p.minor_gc_ns + p.major_gc_ns);
        p
    }

    fn has_ancestor(&self, span: &Span, kind: SpanKind) -> bool {
        let mut cur = span.parent;
        while let Some(i) = cur {
            if self.spans[i].kind == kind {
                return true;
            }
            cur = self.spans[i].parent;
        }
        false
    }

    /// Events seen, by label.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        let mut counts = BTreeMap::new();
        for (_, _, e) in &self.events {
            *counts.entry(e.label()).or_insert(0) += 1;
        }
        counts
    }

    /// The trace file: one run id, the spans, and the event counts.
    pub fn to_json(&self, run_id: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name", Json::Str(s.kind.label().into())),
                    ("id", Json::UInt(u64::from(s.id))),
                    ("exec", Json::UInt(u64::from(s.exec))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("start_sim_ns", Json::Num(s.start_sim_ns)),
                    ("end_sim_ns", Json::Num(s.end_sim_ns)),
                ];
                if self.host {
                    fields.push(("start_host_ns", Json::UInt(s.start_host_ns)));
                    fields.push(("end_host_ns", Json::UInt(s.end_host_ns)));
                    fields.push(("self_host_ns", Json::UInt(s.self_host_ns())));
                }
                if s.unclosed {
                    fields.push(("unclosed", Json::Bool(true)));
                }
                Json::obj(fields)
            })
            .collect();
        Json::obj(vec![
            ("run", Json::Str(run_id.into())),
            (
                "host_clock",
                Json::Str(
                    if self.host {
                        "stamped live at each event"
                    } else {
                        "absent: executor events are buffered and re-emitted after the run"
                    }
                    .into(),
                ),
            ),
            ("wall_ns", Json::UInt(self.wall_ns)),
            ("orphan_ends", Json::UInt(self.orphan_ends)),
            (
                "event_counts",
                Json::Obj(
                    self.counts()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), Json::UInt(v)))
                        .collect(),
                ),
            ),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a sink with a scripted host clock: each step is
    /// (host ns, executor, event); the run ends at `end_ns`.
    fn run(host: bool, steps: &[(u64, u16, Event)], end_ns: u64) -> Trace {
        let mut sink = HostSpanSink::new(host);
        for (at, exec, ev) in steps {
            sink.record(*at, *at as f64, *exec, ev);
        }
        sink.finish_at(end_ns)
    }

    fn stage_start(stage: u32) -> Event {
        Event::StageStart {
            stage,
            dram_write_bytes: 0,
            nvm_write_bytes: 0,
        }
    }

    fn stage_end(stage: u32) -> Event {
        Event::StageEnd {
            stage,
            dram_write_bytes: 0,
            nvm_write_bytes: 0,
        }
    }

    const MINOR_END: Event = Event::MinorGcEnd {
        pause_ns: 0.0,
        moved: 0,
        freed: 0,
    };
    const MAJOR_END: Event = Event::MajorGcEnd {
        pause_ns: 0.0,
        migrated: 0,
        freed: 0,
    };

    #[test]
    fn gc_nests_in_stage_nests_in_batch_and_self_times_partition_the_wall() {
        let t = run(
            true,
            &[
                (10, 0, Event::BatchStart { batch: 0 }),
                (20, 0, stage_start(0)),
                (30, 0, Event::MinorGcStart),
                (45, 0, MINOR_END),
                (50, 0, stage_start(1)), // nested evaluation
                (60, 0, Event::MajorGcStart),
                (70, 0, MAJOR_END),
                (80, 0, stage_end(1)),
                (90, 0, stage_end(0)),
                (
                    95,
                    0,
                    Event::BatchEnd {
                        batch: 0,
                        latency_ns: 85.0,
                    },
                ),
            ],
            100,
        );
        assert_eq!(t.orphan_ends, 0);
        assert_eq!(t.spans.len(), 5);
        let kinds: Vec<_> = t.spans.iter().map(|s| (s.kind, s.parent)).collect();
        assert_eq!(
            kinds,
            [
                (SpanKind::Batch, None),
                (SpanKind::Stage, Some(0)),
                (SpanKind::MinorGc, Some(1)),
                (SpanKind::Stage, Some(1)),
                (SpanKind::MajorGc, Some(3)),
            ]
        );
        // Outer stage: 70 long, children cover 15 + 30.
        assert_eq!(t.spans[1].host_ns(), 70);
        assert_eq!(t.spans[1].self_host_ns(), 25);
        assert_eq!(t.spans[3].self_host_ns(), 20);
        let p = t.profile();
        assert_eq!(p.stage_ns, 70, "only the outermost stage counts once");
        assert_eq!(p.stage_self_ns, 45);
        assert_eq!(p.minor_gc_ns, 15);
        assert_eq!(p.major_gc_ns, 10);
        assert_eq!(p.nonstage_ns, 30);
        assert_eq!(
            p.stage_self_ns + p.minor_gc_ns + p.major_gc_ns + p.nonstage_ns,
            p.wall_ns
        );
        assert_eq!(p.minor_gc_each_ns, [15]);
        assert_eq!(p.batch_each_ns, [85]);
    }

    #[test]
    fn gc_outside_any_stage_is_gc_time_not_stage_time() {
        let t = run(
            true,
            &[
                (0, 0, stage_start(0)),
                (10, 0, stage_end(0)),
                (20, 0, Event::MajorGcStart), // forced between batches
                (50, 0, MAJOR_END),
            ],
            60,
        );
        assert_eq!(t.spans[1].parent, None);
        let p = t.profile();
        assert_eq!(
            (p.stage_self_ns, p.major_gc_ns, p.nonstage_ns),
            (10, 30, 20)
        );
    }

    #[test]
    fn unclosed_spans_end_with_their_parent_or_at_finish() {
        let t = run(
            true,
            &[
                (0, 0, stage_start(0)),
                (5, 0, Event::MinorGcStart), // never ends
                (30, 0, stage_end(0)),
                (40, 0, stage_start(1)), // never ends
            ],
            100,
        );
        assert_eq!(t.orphan_ends, 0);
        let gc = &t.spans[1];
        assert!(gc.unclosed);
        assert_eq!((gc.start_host_ns, gc.end_host_ns), (5, 30));
        assert!(!t.spans[0].unclosed);
        let tail = &t.spans[2];
        assert!(tail.unclosed);
        assert_eq!((tail.start_host_ns, tail.end_host_ns), (40, 100));
        let p = t.profile();
        assert_eq!(
            p.stage_self_ns + p.minor_gc_ns + p.major_gc_ns + p.nonstage_ns,
            100
        );
    }

    #[test]
    fn an_end_without_a_start_is_counted_and_dropped() {
        let t = run(true, &[(0, 0, MINOR_END), (1, 0, stage_end(3))], 10);
        assert_eq!(t.orphan_ends, 2);
        assert!(t.spans.is_empty());
        assert_eq!(t.profile().nonstage_ns, 10);
    }

    #[test]
    fn recovery_nests_in_recovery() {
        let end = |b| Event::RecoveryEnd {
            barrier: b,
            recovery_ns: 0.0,
        };
        let t = run(
            true,
            &[
                (0, 0, Event::RecoveryStart { attempt: 1 }),
                (10, 0, Event::RecoveryStart { attempt: 2 }), // crashed while recovering
                (15, 0, stage_start(0)),
                (25, 0, stage_end(0)),
                (30, 0, end(4)),
                (50, 0, end(4)),
            ],
            50,
        );
        assert_eq!(t.spans[0].id, 1);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        assert_eq!(t.spans[0].self_host_ns(), 30);
        assert_eq!(t.spans[1].self_host_ns(), 10);
        assert!(t.spans.iter().all(|s| !s.unclosed));
    }

    #[test]
    fn jobs_overlap_and_stay_off_the_stack() {
        let t = run(
            true,
            &[
                (
                    0,
                    0,
                    Event::JobStarted {
                        job: 1,
                        queued_ns: 0.0,
                        dram_share: 0,
                    },
                ),
                (
                    5,
                    0,
                    Event::JobStarted {
                        job: 2,
                        queued_ns: 0.0,
                        dram_share: 0,
                    },
                ),
                (10, 0, stage_start(0)),
                (20, 0, stage_end(0)),
                (
                    30,
                    0,
                    Event::JobFinished {
                        job: 1,
                        elapsed_ns: 0.0,
                    },
                ),
                (
                    40,
                    0,
                    Event::JobFinished {
                        job: 2,
                        elapsed_ns: 0.0,
                    },
                ),
            ],
            40,
        );
        assert_eq!(t.spans[0].host_ns(), 30);
        assert_eq!(t.spans[1].host_ns(), 35);
        assert_eq!(t.spans[2].parent, None, "a stage names no job");
        assert_eq!(t.spans[0].child_host_ns, 0);
    }

    #[test]
    fn executors_keep_separate_nesting_and_virtual_only_has_no_host_split() {
        let steps = [
            (0, 0, stage_start(0)),
            (0, 1, stage_start(0)),
            (0, 0, stage_end(0)),
            (0, 1, stage_end(0)),
        ];
        let t = run(false, &steps, 0);
        assert_eq!(t.orphan_ends, 0);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.profile().stage_self_ns, 0);
        assert_eq!(t.counts().get("stage_start"), Some(&2));
        let json = t.to_json("r");
        assert!(json.get("spans").unwrap().as_array().unwrap()[0]
            .get("start_host_ns")
            .is_none());
    }

    #[test]
    fn live_sink_stamps_monotone_host_time_and_measures_policy_gaps() {
        let mut sink = HostSpanSink::live();
        sink.on_event(0.0, &Event::BatchStart { batch: 0 });
        sink.on_event(
            1.0,
            &Event::BatchEnd {
                batch: 0,
                latency_ns: 1.0,
            },
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.on_event(1.0, &Event::BatchStart { batch: 1 });
        let t = sink.finish();
        assert!(t.policy_gap_ns >= 2_000_000);
        assert!(t.spans[0].end_host_ns >= t.spans[0].start_host_ns);
        assert!(t.spans[1].unclosed);
        assert!(t.wall_ns >= t.spans[1].end_host_ns);
        assert_eq!(t.events.len(), 3);
    }
}
