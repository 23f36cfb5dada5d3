//! The observability layer's tier-1 contracts:
//!
//! * events observe, never charge — attaching sinks changes no field of
//!   the `RunReport` (bit-identical determinism is preserved);
//! * event timestamps are monotone in simulated time;
//! * a JSONL trace replays to the exact same aggregates as an in-process
//!   metrics sink, executor-tagged crash traces included;
//! * `Migration` events appear exactly when dynamic migration is on.

use panthera::cluster::FaultPlan;
use panthera::obs::{replay, Event, Json, JsonlSink, MetricsAggregator, Observer, RingBufferSink};
use panthera::{MemoryMode, RecoveryPolicy, RunBuilder, RunError, RunReport, SystemConfig, SIM_GB};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{build_workload, WorkloadId};

const SCALE: f64 = 0.12;
const SEED: u64 = 3;

fn config(mode: MemoryMode) -> SystemConfig {
    SystemConfig::new(mode, 16 * SIM_GB, 1.0 / 3.0)
}

fn run_with(id: WorkloadId, cfg: &SystemConfig) -> RunReport {
    let w = build_workload(id, SCALE, SEED);
    RunBuilder::new(&w.program, w.fns, w.data)
        .config(cfg.clone())
        .run()
        .expect("valid configuration")
        .report
}

/// Run with a fresh ring sink attached; return the report and the sink.
fn run_traced(id: WorkloadId, mode: MemoryMode) -> (RunReport, Rc<RefCell<RingBufferSink>>) {
    let ring = Rc::new(RefCell::new(RingBufferSink::new(1 << 20)));
    let mut cfg = config(mode);
    cfg.observer = Observer::with_sink(ring.clone());
    let report = run_with(id, &cfg);
    (report, ring)
}

#[test]
fn ring_sink_changes_no_report_field() {
    for mode in [MemoryMode::Panthera, MemoryMode::Unmanaged] {
        let bare = run_with(WorkloadId::Pr, &config(mode));
        let (traced, ring) = run_traced(WorkloadId::Pr, mode);
        assert!(
            ring.borrow().total_seen() > 0,
            "{mode}: the traced run must actually observe events"
        );
        assert_eq!(
            bare.elapsed_s.to_bits(),
            traced.elapsed_s.to_bits(),
            "{mode}: elapsed"
        );
        assert_eq!(
            bare.mutator_s.to_bits(),
            traced.mutator_s.to_bits(),
            "{mode}: mutator"
        );
        assert_eq!(
            bare.minor_gc_s.to_bits(),
            traced.minor_gc_s.to_bits(),
            "{mode}: minor GC time"
        );
        assert_eq!(
            bare.major_gc_s.to_bits(),
            traced.major_gc_s.to_bits(),
            "{mode}: major GC time"
        );
        assert_eq!(
            bare.energy_j().to_bits(),
            traced.energy_j().to_bits(),
            "{mode}: energy"
        );
        assert_eq!(bare.gc.minor_count, traced.gc.minor_count, "{mode}");
        assert_eq!(bare.gc.major_count, traced.gc.major_count, "{mode}");
        assert_eq!(bare.gc.rdds_migrated, traced.gc.rdds_migrated, "{mode}");
        assert_eq!(
            bare.gc.total_promotions(),
            traced.gc.total_promotions(),
            "{mode}"
        );
        assert_eq!(
            bare.heap.allocated_bytes, traced.heap.allocated_bytes,
            "{mode}"
        );
        assert_eq!(bare.device_bytes, traced.device_bytes, "{mode}");
        assert_eq!(bare.monitored_calls, traced.monitored_calls, "{mode}");
    }
}

#[test]
fn event_times_are_monotone() {
    let (_, ring) = run_traced(WorkloadId::Pr, MemoryMode::Panthera);
    let ring = ring.borrow();
    assert!(ring.total_seen() > 0);
    assert_eq!(
        ring.total_seen(),
        ring.len() as u64,
        "ring must be large enough to keep every event for this check"
    );
    let mut prev = f64::NEG_INFINITY;
    for (t, e) in ring.events() {
        assert!(
            *t >= prev,
            "event {e:?} at t={t} precedes its predecessor at t={prev}"
        );
        prev = *t;
    }
}

#[test]
fn event_stream_matches_report_counts() {
    let (report, ring) = run_traced(WorkloadId::Pr, MemoryMode::Panthera);
    let ring = ring.borrow();
    let count = |f: &dyn Fn(&Event) -> bool| ring.events().filter(|(_, e)| f(e)).count() as u64;
    assert_eq!(
        count(&|e| matches!(e, Event::MinorGcEnd { .. })),
        report.gc.minor_count,
        "one MinorGcEnd per minor collection"
    );
    assert_eq!(
        count(&|e| matches!(e, Event::MajorGcEnd { .. })),
        report.gc.major_count,
        "one MajorGcEnd per major collection"
    );
    assert_eq!(
        count(&|e| matches!(e, Event::Migration { .. })),
        report.gc.rdds_migrated,
        "one Migration per migrated RDD array"
    );
    assert_eq!(
        count(&|e| matches!(e, Event::Promotion { .. })),
        report.gc.total_promotions(),
        "one Promotion per promoted object"
    );
    // Each logical shuffle charges spill traffic more than once (map-side
    // write and reduce-side read), so the event count is a superset.
    let spills = count(&|e| matches!(e, Event::ShuffleSpill { .. }));
    assert!(
        spills >= report.exec.shuffles,
        "at least one ShuffleSpill per shuffle ({spills} events, {} shuffles)",
        report.exec.shuffles
    );
    assert_eq!(
        spills > 0,
        report.exec.shuffles > 0,
        "ShuffleSpill events appear exactly when shuffles happen"
    );
    // Stage events pair up.
    assert_eq!(
        count(&|e| matches!(e, Event::StageStart { .. })),
        count(&|e| matches!(e, Event::StageEnd { .. })),
    );
}

#[test]
fn migrations_require_dynamic_migration() {
    // PageRank only migrates when the heap is tight enough that major
    // collections see stale placements: scale 0.2 on an 8 GB heap does.
    let run_pr = |dynamic: bool, ring: Rc<RefCell<RingBufferSink>>| {
        let w = build_workload(WorkloadId::Pr, 0.2, SEED);
        let mut cfg = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
        cfg.dynamic_migration = dynamic;
        cfg.observer = Observer::with_sink(ring);
        RunBuilder::new(&w.program, w.fns, w.data)
            .config(cfg)
            .run()
            .expect("valid configuration")
            .report
    };

    let ring_on = Rc::new(RefCell::new(RingBufferSink::new(1 << 20)));
    let report_on = run_pr(true, ring_on.clone());
    assert!(
        report_on.gc.rdds_migrated >= 1,
        "PageRank under Panthera must migrate at least one RDD at this scale"
    );
    assert!(
        ring_on
            .borrow()
            .events()
            .any(|(_, e)| matches!(e, Event::Migration { .. })),
        "migrations must surface as events"
    );

    let ring_off = Rc::new(RefCell::new(RingBufferSink::new(1 << 20)));
    let report_off = run_pr(false, ring_off.clone());
    assert_eq!(report_off.gc.rdds_migrated, 0);
    assert!(
        !ring_off
            .borrow()
            .events()
            .any(|(_, e)| matches!(e, Event::Migration { .. })),
        "no Migration events when dynamic migration is disabled"
    );
}

#[test]
fn jsonl_round_trip_reproduces_aggregates() {
    // Live pipeline: events go to a metrics aggregator and a JSONL sink.
    let metrics = Rc::new(RefCell::new(MetricsAggregator::new()));
    let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::<u8>::new())));
    let observer = Observer::with_sink(metrics.clone());
    observer.attach(jsonl.clone());
    let mut cfg = config(MemoryMode::Panthera);
    cfg.observer = observer;
    run_with(WorkloadId::Pr, &cfg);

    let live = metrics.borrow();
    assert!(live.events_seen() > 0);
    assert_eq!(
        jsonl.borrow().lines_written(),
        live.events_seen(),
        "one JSONL line per event"
    );

    // Replay the written trace into a fresh aggregator. The config's
    // observer still holds a reference to the sink, so drop it first.
    drop(cfg);
    let bytes = Rc::try_unwrap(jsonl)
        .expect("observer dropped with the config")
        .into_inner()
        .into_inner();
    let mut replayed = MetricsAggregator::new();
    let n = replay(std::io::Cursor::new(bytes), &mut replayed).expect("trace must be well-formed");
    assert_eq!(n, live.events_seen());
    assert_eq!(
        replayed.to_json().to_compact(),
        live.to_json().to_compact(),
        "replayed aggregates must be identical to the live sink's"
    );
    assert!(replayed.minor_pauses().count() > 0);
}

#[test]
fn faulted_cluster_trace_round_trips() {
    // Two executors, executor 1 crashing at barrier 2 and recovering from
    // checkpoints: the trace is executor-tagged and carries recovery
    // events, and the JSONL file must still reproduce every aggregate.
    let metrics = Rc::new(RefCell::new(MetricsAggregator::new()));
    let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::<u8>::new())));
    let mut cfg = config(MemoryMode::Panthera);
    cfg.executors = 2;
    cfg.recovery = RecoveryPolicy::CheckpointEvery(1);
    cfg.observer = Observer::with_sink(metrics.clone());
    cfg.observer.attach(jsonl.clone());
    let build = || {
        let w = build_workload(WorkloadId::Pr, 0.05, SEED);
        (w.program, w.fns, w.data)
    };
    let report = RunBuilder::from_build(&build)
        .config(cfg)
        .faults(&FaultPlan::single_crash(1, 2))
        .run()
        .expect("the crash is recovered")
        .report;
    assert_eq!(report.recovery.executor_crashes, 1);

    let bytes =
        std::mem::replace(&mut *jsonl.borrow_mut(), JsonlSink::new(Vec::new())).into_inner();
    let mut replayed = MetricsAggregator::new();
    replay(std::io::Cursor::new(bytes), &mut replayed).expect("trace must be well-formed");
    let live = metrics.borrow().to_json().to_compact();
    let json = replayed.to_json();
    assert_eq!(
        json.to_compact(),
        live,
        "replayed aggregates must equal the live sink's"
    );
    assert!(json.get("executors").is_some(), "{live}");
    let crashes = json.get("recovery").and_then(|r| r.get("executor_crashes"));
    assert_eq!(
        crashes.and_then(Json::as_u64),
        Some(report.recovery.executor_crashes)
    );
}

#[test]
fn invalid_config_is_an_error_not_a_panic() {
    let w = build_workload(WorkloadId::Pr, 0.02, SEED);
    // A DRAM ratio of zero cannot hold the nursery.
    let cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 0.0);
    assert!(cfg.validate().is_err());
    let err = RunBuilder::new(&w.program, w.fns, w.data)
        .config(cfg)
        .run()
        .expect_err("zero DRAM must be rejected");
    let RunError::Config(config_err) = err else {
        panic!("zero DRAM should surface as RunError::Config, got {err}");
    };
    assert!(!config_err.message().is_empty());
}
