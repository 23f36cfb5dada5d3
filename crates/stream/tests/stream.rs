//! panthera-stream tier-1 contracts:
//!
//! * determinism — a fixed spec seed makes the `StreamReport` bit-identical
//!   across reruns (and, via the `simarms` `stream` golden, across host
//!   thread budgets);
//! * crash recovery — a driver crash at any batch boundary replays, from
//!   the seed alone, to the same per-batch latencies and final report;
//! * policy transparency — window outputs are byte-identical under the
//!   static, online, and oracle policies: placement moves bytes, never
//!   answers;
//! * the regret ordering — closing the loop from observed frequencies
//!   beats trusting the static prior;
//! * the event protocol — `BatchStart`/`BatchEnd`/`Watermark`/`Retag`
//!   appear exactly per schedule, with watermarks at batch barriers.

use panthera::obs::{Event, Observer, RingBufferSink};
use panthera::{MemoryMode, SystemConfig, SIM_GB};
use panthera_analysis::analyze;
use panthera_stream::{
    build_stream_program, RetagPolicy, StreamBuilder, StreamProgram, StreamSpec, WindowSpec,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

fn builder(seed: u64) -> StreamBuilder {
    StreamBuilder::new(StreamSpec::small(seed))
}

#[test]
fn window_outputs_are_identical_under_all_policies() {
    let cmp = builder(7).compare().expect("valid spec");
    assert!(
        cmp.outputs_identical(),
        "placement policy must never change answers"
    );
    let windows = cmp.static_run.window_outputs();
    assert_eq!(windows.len(), 4, "8 batches / tumbling 2 close 4 windows");
    assert_eq!(windows, cmp.online.window_outputs());
    assert_eq!(windows, cmp.oracle.window_outputs());
    // The policies genuinely differ in *behavior*, just not in answers.
    assert!(cmp.online.retags > 0, "the hot set drifts: online must act");
    assert_eq!(cmp.static_run.retags, 0);
}

#[test]
fn policies_are_transparent_under_sliding_windows_too() {
    let mut spec = StreamSpec::small(13);
    spec.window = WindowSpec::Sliding(3);
    let cmp = StreamBuilder::new(spec).compare().expect("valid spec");
    assert!(cmp.outputs_identical());
    assert_eq!(
        cmp.static_run.window_outputs().len(),
        8,
        "one window per batch"
    );
}

#[test]
fn online_regret_is_at_most_static_regret() {
    let cmp = builder(7).compare().expect("valid spec");
    assert!(
        cmp.online_regret_ns() <= cmp.static_regret_ns(),
        "online ({:.3e} ns) must not regret more than static ({:.3e} ns)",
        cmp.online_regret_ns(),
        cmp.static_regret_ns()
    );
    // The clairvoyant baseline must beat the static prior outright.
    assert!(
        cmp.oracle.elapsed_ns <= cmp.static_run.elapsed_ns,
        "oracle ({:.4e} ns) must not lose to static ({:.4e} ns)",
        cmp.oracle.elapsed_ns,
        cmp.static_run.elapsed_ns
    );
}

#[test]
fn stream_report_is_bit_identical_across_reruns() {
    for policy in [
        RetagPolicy::Static,
        RetagPolicy::Online { hysteresis: 1 },
        RetagPolicy::Oracle,
    ] {
        let a = builder(11).policy(policy).run().expect("valid spec");
        let b = builder(11).policy(policy).run().expect("valid spec");
        assert_eq!(
            a.to_json().to_compact(),
            b.to_json().to_compact(),
            "{}: a fixed seed must replay bit-identically",
            policy.label()
        );
    }
}

#[test]
fn crash_at_any_batch_boundary_replays_identically() {
    let b = builder(3).policy(RetagPolicy::Online { hysteresis: 1 });
    let full = b.run().expect("valid spec");
    for crash_after in [1u32, 4, 7] {
        // The "crashed" driver observed a latency prefix...
        let prefix = b.run_prefix(crash_after).expect("valid spec");
        assert_eq!(
            prefix.as_slice(),
            &full.batch_latency_ns[..crash_after as usize],
            "crash after batch {crash_after}: the observed prefix must match"
        );
    }
    // ...and the restarted driver, rebuilt from the seed alone, replays
    // the entire stream to the same report, bit for bit.
    let replay = b.run().expect("valid spec");
    assert_eq!(full.to_json().to_compact(), replay.to_json().to_compact());
}

#[test]
fn batch_events_follow_the_protocol() {
    let ring = Rc::new(RefCell::new(RingBufferSink::new(1 << 20)));
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 4 * SIM_GB, 1.0 / 3.0);
    cfg.observer = Observer::with_sink(ring.clone());
    let report = builder(7)
        .config(cfg)
        .policy(RetagPolicy::Online { hysteresis: 1 })
        .run()
        .expect("valid spec");

    let ring = ring.borrow();
    let count = |f: &dyn Fn(&Event) -> bool| ring.events().filter(|(_, e)| f(e)).count() as u64;
    let batches = u64::from(report.batches);
    assert_eq!(count(&|e| matches!(e, Event::BatchStart { .. })), batches);
    assert_eq!(count(&|e| matches!(e, Event::BatchEnd { .. })), batches);
    assert_eq!(
        count(&|e| matches!(e, Event::Watermark { .. })),
        u64::from(report.watermarks)
    );
    assert_eq!(
        count(&|e| matches!(e, Event::Retag { .. })),
        u64::from(report.retags)
    );
    assert_eq!(
        count(&|e| matches!(e, Event::RddCall { .. })),
        report.run.monitored_calls,
        "every monitored call surfaces as an RddCall event"
    );

    // Watermarks are virtual-time barriers: batch b's watermark carries
    // the exclusive event-time bound (b+1) * ticks and is emitted before
    // any batch b+1 event; BatchEnd latencies match the report.
    let mut seen_batch = 0u32;
    let mut latencies = Vec::new();
    let mut prev_t = f64::NEG_INFINITY;
    for (t, e) in ring.events() {
        assert!(*t >= prev_t, "event times must be monotone");
        prev_t = *t;
        match e {
            Event::BatchStart { batch } => seen_batch = *batch,
            Event::BatchEnd { batch, latency_ns } => {
                assert_eq!(*batch, seen_batch);
                latencies.push(*latency_ns);
            }
            Event::Watermark { batch, event_time } => {
                assert_eq!(*batch, seen_batch, "watermark emitted at its own barrier");
                assert_eq!(*event_time, u64::from(batch + 1) * 1_000);
            }
            _ => {}
        }
    }
    assert_eq!(latencies, report.batch_latency_ns);
}

#[test]
fn an_untraced_run_reports_what_a_traced_run_reports() {
    for policy in [
        RetagPolicy::Static,
        RetagPolicy::Online { hysteresis: 1 },
        RetagPolicy::Oracle,
    ] {
        let untraced = builder(7).policy(policy).run().expect("valid spec");
        let ring = Rc::new(RefCell::new(RingBufferSink::new(1 << 20)));
        let mut cfg = SystemConfig::new(MemoryMode::Panthera, 4 * SIM_GB, 1.0 / 3.0);
        cfg.observer = Observer::with_sink(ring.clone());
        let traced = builder(7)
            .config(cfg)
            .policy(policy)
            .run()
            .expect("valid spec");
        assert_eq!(
            untraced.to_json().to_compact(),
            traced.to_json().to_compact(),
            "{}: observing a run must not change it",
            policy.label()
        );
        // The oracle drives a recording pass first; count the reported
        // drive's events only, from its opening `BatchStart`.
        let ring = ring.borrow();
        let events: Vec<&Event> = ring.events().map(|(_, e)| e).collect();
        let start = events
            .iter()
            .rposition(|e| matches!(e, Event::BatchStart { batch: 0 }))
            .expect("the caller's sink sees the run");
        let calls = events[start..]
            .iter()
            .filter(|e| matches!(e, Event::RddCall { .. }))
            .count() as u64;
        assert!(calls > 0);
        assert_eq!(calls, traced.run.monitored_calls, "{}", policy.label());
    }
}

#[test]
fn lifetime_calls_count_every_rdd_call_event_across_major_collections() {
    let StreamProgram {
        program, fns, data, ..
    } = build_stream_program(&StreamSpec::small(7));
    let ring = Rc::new(RefCell::new(RingBufferSink::new(1 << 20)));
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 4 * SIM_GB, 1.0 / 3.0);
    cfg.observer = Observer::with_sink(ring.clone());
    let plan = analyze(&program).plan;
    let mut cursor =
        panthera::start_with_plan(program, fns, data, &cfg, plan).expect("valid config");
    let mut steps = 0;
    while cursor.step().unwrap() {
        steps += 1;
        if steps % 16 == 0 {
            // Resets the collector's per-RDD counts, never the lifetime ones.
            cursor.engine_mut().force_major();
        }
    }
    let lifetime = cursor
        .engine()
        .runtime()
        .gc()
        .freq()
        .lifetime_calls()
        .clone();
    let mut events: BTreeMap<u32, u64> = BTreeMap::new();
    for (_, e) in ring.borrow().events() {
        if let Event::RddCall { rdd } = e {
            *events.entry(*rdd).or_default() += 1;
        }
    }
    assert!(!events.is_empty());
    assert_eq!(lifetime, events, "per-RDD lifetime calls match the events");
    assert_eq!(
        lifetime.values().sum::<u64>(),
        cursor.engine().runtime().gc().freq().total_monitored()
    );
}

#[test]
fn online_policy_requires_a_semantic_mode() {
    let cfg = SystemConfig::new(MemoryMode::Unmanaged, 4 * SIM_GB, 1.0 / 3.0);
    let err = builder(7)
        .config(cfg.clone())
        .policy(RetagPolicy::Online { hysteresis: 1 })
        .run()
        .expect_err("re-tagging without tagged spaces must be rejected");
    assert!(err.message().contains("unmanaged"), "got: {err}");
    // The static policy is mode-agnostic: it never re-tags.
    let report = builder(7)
        .config(cfg)
        .policy(RetagPolicy::Static)
        .run()
        .expect("static streaming works in any mode");
    assert_eq!(report.retags, 0);
    assert_eq!(report.batches, 8);
}

#[test]
fn hysteresis_suppresses_single_batch_noise() {
    // A persistent disagreement (a cold dataset with a DRAM prior) can
    // accumulate across every boundary, so only hysteresis beyond the
    // boundary count is fully inert — but it must be *exactly* inert.
    let spec = StreamSpec::small(7);
    let batches = spec.batches;
    let calm = StreamBuilder::new(spec)
        .policy(RetagPolicy::Online {
            hysteresis: batches,
        })
        .run()
        .expect("valid spec");
    assert_eq!(
        calm.retags, 0,
        "hysteresis beyond the boundary count is inert"
    );
    let eager = builder(7)
        .policy(RetagPolicy::Online { hysteresis: 1 })
        .run()
        .expect("valid spec");
    assert!(eager.retags > 0);
}
