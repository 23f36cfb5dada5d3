//! PR 8 acceptance: executors may crash *anywhere* in virtual time — not
//! just at statement barriers — and the run still ends with results
//! bit-identical to the fault-free run.
//!
//! 1. A sweep of 200 seeded plans with crash points drawn uniformly over
//!    the fault-free run's virtual duration (one to three points per
//!    plan, so some land inside an open recovery window) preserves
//!    results under both recovery policies, and exercises both journal
//!    paths: committed entries re-validated as no-ops and torn entries
//!    rolled forward.
//! 2. A deliberately replayed committed journal entry is a provable
//!    no-op: the replaying incarnation re-issues its deposits, the
//!    journal digest-validates them, and `journal_noops` says so.
//! 3. Nested faults (a crash during a prior recovery) count once per
//!    physical event in `RecoveryStats`, and the merged trace carries
//!    their crash/recovery timeline in order.
//! 4. For a fixed random-point plan, the merged report and every
//!    per-executor sub-report are bit-identical across host-thread
//!    budgets.
//! 5. A shuffle's key index is built once per run for all its readers —
//!    the replaying incarnations of a crashed executor included.
//! 6. What the exchange retains as replay state is packed: fewer host
//!    bytes than the modelled bytes deposited, the same at any host-thread
//!    budget and with or without crashes.
//! 7. A replay that does *not* reproduce what it journaled ends the run
//!    with a typed error, for the diverging executor and its peers alike.
//! 8. The input is generated once per run, however many executors start
//!    and restart.

use mheap::Payload;
use obs::{Event, Json, JsonlSink, Observer, RingBufferSink};
use panthera::cluster::{FaultPlan, FaultSpec, VCrashPoint};
use panthera::{
    MemoryMode, RecoveryPolicy, RunBuilder, RunError, RunSummary, ShuffleTransport, SystemConfig,
    SIM_GB,
};
use proptest::prelude::*;
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder};
use sparklet::{ActionResult, DataRegistry};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use workloads::{build_workload, pagerank, power_law_edges_text, WorkloadId};

const SCALE: f64 = 0.03;
const DATA_SEED: u64 = 11;
const EXECUTORS: u16 = 2;

fn cluster_config(policy: RecoveryPolicy) -> SystemConfig {
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    cfg.executors = EXECUTORS;
    cfg.recovery = policy;
    cfg
}

fn run_with_plan(policy: RecoveryPolicy, host_threads: usize, plan: &FaultPlan) -> RunSummary {
    let build = || {
        let w = build_workload(WorkloadId::Tc, SCALE, DATA_SEED);
        (w.program, w.fns, w.data)
    };
    RunBuilder::from_build(&build)
        .config(cluster_config(policy))
        .host_threads(host_threads)
        .faults(plan)
        .run()
        .expect("valid cluster config")
}

fn assert_results_eq(a: &[(String, ActionResult)], b: &[(String, ActionResult)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: action count");
    for ((av, ar), (bv, br)) in a.iter().zip(b.iter()) {
        assert_eq!(av, bv, "{what}: action order");
        assert_eq!(ar, br, "{what}: {av}");
    }
}

/// The fault-free outcome and its virtual duration in nanoseconds — the
/// window random crash points are drawn from.
fn fault_free(policy: RecoveryPolicy) -> (RunSummary, f64) {
    let baseline = run_with_plan(policy, usize::from(EXECUTORS), &FaultPlan::none());
    let horizon_ns = baseline.report.elapsed_s * 1e9;
    (baseline, horizon_ns)
}

#[test]
fn two_hundred_random_point_crashes_preserve_results() {
    let mut fired = 0u64;
    let mut noops = 0u64;
    let mut torn = 0u64;
    let mut nested = 0u64;
    for policy in [
        RecoveryPolicy::Recompute,
        RecoveryPolicy::CheckpointEvery(2),
    ] {
        let (baseline, horizon_ns) = fault_free(policy);
        assert!(horizon_ns > 0.0, "workload must take virtual time");
        for case in 0..100u64 {
            let spec = FaultSpec {
                crashes: 0,
                max_losses: 0,
                max_alloc_faults: 0,
                vcrashes: 1 + (case % 3) as u32,
                vtime_lo_ns: 0.0,
                vtime_hi_ns: horizon_ns,
                ..FaultSpec::default()
            };
            let plan = FaultPlan::generate(0xC4A5_4000 + case, EXECUTORS, spec);
            assert!(!plan.vcrashes.is_empty(), "plan draws its crash points");
            let faulted = run_with_plan(policy, usize::from(EXECUTORS), &plan);
            let what = format!("{policy:?} case {case} plan {:?}", plan.vcrashes);
            assert_results_eq(&faulted.results, &baseline.results, &what);
            let rec = faulted.report.recovery;
            assert!(
                rec.executor_crashes <= plan.vcrashes.len() as u64,
                "{what}: each point fires at most once"
            );
            if rec.executor_crashes > 0 {
                assert!(rec.recovery_s > 0.0, "{what}: recovery takes virtual time");
                assert!(
                    faulted.report.elapsed_s >= baseline.report.elapsed_s,
                    "{what}: recovery must not make the run faster"
                );
            }
            fired += rec.executor_crashes;
            noops += rec.journal_noops;
            torn += rec.journal_torn;
            // Two points on one executor that both fired means the later
            // one interrupted the earlier one's replay window (its clock
            // resumes past both draw positions only via the replay).
            for e in 0..EXECUTORS {
                let planned = plan.vcrashes.iter().filter(|p| p.exec == e).count() as u64;
                if planned >= 2 && rec.executor_crashes >= 2 {
                    nested += 1;
                }
            }
        }
    }
    // The sweep is only meaningful if the injected faults actually bite:
    // most points must fire, replays must re-issue committed deposits,
    // and at least some crashes must land inside a journal window or a
    // prior recovery.
    assert!(fired >= 150, "only {fired}/~300 crash points fired");
    assert!(noops > 0, "no replay ever re-validated a committed deposit");
    assert!(torn > 0, "no crash ever landed between begin and commit");
    assert!(nested > 0, "no crash ever interrupted an open recovery");
}

#[test]
fn replayed_journal_entries_are_validated_noops() {
    let policy = RecoveryPolicy::CheckpointEvery(1);
    let (baseline, horizon_ns) = fault_free(policy);
    // Crash late: plenty of committed shuffle deposits, action deposits,
    // and checkpoint saves exist for the replay to re-issue.
    let plan = FaultPlan::crash_at(1, 0.6 * horizon_ns);
    let faulted = run_with_plan(policy, usize::from(EXECUTORS), &plan);
    assert_results_eq(&faulted.results, &baseline.results, "late vcrash");
    let rec = faulted.report.recovery;
    assert_eq!(rec.executor_crashes, 1, "the planned point fired");
    assert!(
        rec.journal_noops > 0,
        "replay re-issued committed deposits and the journal validated \
         them as no-ops; stats: {rec:?}"
    );
}

#[test]
fn nested_crash_during_recovery_counts_physical_events_once() {
    for policy in [
        RecoveryPolicy::Recompute,
        RecoveryPolicy::CheckpointEvery(2),
    ] {
        let (baseline, horizon_ns) = fault_free(policy);
        // The second point sits just past the first: the restarted
        // incarnation's clock resumes at the crash time plus the restart
        // penalty, so the very first probe of the replay consumes it —
        // a crash during recovery, inside the still-open window.
        let plan = FaultPlan {
            vcrashes: vec![
                VCrashPoint {
                    exec: 1,
                    at_ns: 0.5 * horizon_ns,
                },
                VCrashPoint {
                    exec: 1,
                    at_ns: 0.5 * horizon_ns + 1.0,
                },
            ],
            ..FaultPlan::crash_at(1, 0.5 * horizon_ns)
        };
        let faulted = run_with_plan(policy, usize::from(EXECUTORS), &plan);
        let what = format!("{policy:?} nested");
        assert_results_eq(&faulted.results, &baseline.results, &what);
        let rec = faulted.report.recovery;
        assert_eq!(
            rec.executor_crashes, 2,
            "{what}: one count per physical crash, no double counting"
        );
        assert!(rec.recovery_s > 0.0, "{what}: the window was charged");
        assert!(
            rec.journal_noops > 0,
            "{what}: the replay re-validated committed deposits"
        );
    }
}

/// The crash/recovery timeline of a nested crash, as the merged trace
/// carries it: each crashed incarnation's own event buffer dies with it,
/// so the driver rebuilds these events for the surviving incarnation.
/// Executor 1 crashes at `t1`, restarts at `t1 + penalty`, crashes again
/// at `t2` inside the still-open window, restarts at `t2 + penalty`, and
/// one `RecoveryEnd` closes the whole window at the furthest crash barrier
/// with the span the report charges. The executor-tagged JSONL trace is
/// the same bytes at every host-thread budget.
#[test]
fn nested_crash_timeline_is_rebuilt_in_order() {
    let policy = RecoveryPolicy::CheckpointEvery(2);
    let (_, horizon_ns) = fault_free(policy);
    let plan = FaultPlan {
        vcrashes: vec![
            VCrashPoint {
                exec: 1,
                at_ns: 0.5 * horizon_ns,
            },
            VCrashPoint {
                exec: 1,
                at_ns: 0.5 * horizon_ns + 1.0,
            },
        ],
        ..FaultPlan::crash_at(1, 0.5 * horizon_ns)
    };
    let traced = |host_threads: usize| {
        let ring = Rc::new(RefCell::new(RingBufferSink::new(usize::MAX)));
        let jsonl = Rc::new(RefCell::new(JsonlSink::new(Vec::<u8>::new())));
        let mut cfg = cluster_config(policy);
        cfg.observer = Observer::with_sink(ring.clone());
        cfg.observer.attach(jsonl.clone());
        let build = || {
            let w = build_workload(WorkloadId::Tc, SCALE, DATA_SEED);
            (w.program, w.fns, w.data)
        };
        let report = RunBuilder::from_build(&build)
            .config(cfg)
            .host_threads(host_threads)
            .faults(&plan)
            .run()
            .expect("valid cluster config")
            .report;
        let timeline: Vec<(f64, Event)> = ring
            .borrow()
            .events()
            .filter(|(_, e)| {
                matches!(
                    e,
                    Event::ExecutorCrash { .. }
                        | Event::RecoveryStart { .. }
                        | Event::RecoveryEnd { .. }
                )
            })
            .cloned()
            .collect();
        let bytes =
            std::mem::replace(&mut *jsonl.borrow_mut(), JsonlSink::new(Vec::new())).into_inner();
        (report, timeline, bytes)
    };
    let (report, timeline, trace) = traced(1);
    let penalty = plan.restart_penalty_ns;
    let [(t1, crash1), (s1, start1), (t2, crash2), (s2, start2), (t_end, end)] = &timeline[..]
    else {
        panic!("expected crash, start, crash, start, end; got {timeline:?}");
    };
    let (Event::ExecutorCrash { barrier: b1 }, Event::ExecutorCrash { barrier: b2 }) =
        (crash1, crash2)
    else {
        panic!("crashes out of place: {timeline:?}");
    };
    assert_eq!(*start1, Event::RecoveryStart { attempt: 1 });
    assert_eq!(*start2, Event::RecoveryStart { attempt: 2 });
    assert!(*t1 >= 0.5 * horizon_ns && *t2 >= 0.5 * horizon_ns + 1.0);
    assert_eq!(*s1, t1 + penalty);
    assert!(*t2 >= *s1, "the second crash fires inside the replay");
    assert_eq!(*s2, t2 + penalty);
    let Event::RecoveryEnd {
        barrier,
        recovery_ns,
    } = end
    else {
        panic!("the window does not end last: {timeline:?}");
    };
    assert_eq!(*barrier, (*b1).max(*b2), "closed at the furthest barrier");
    assert_eq!(*recovery_ns, t_end - t1, "spans the whole window once");
    assert_eq!(recovery_ns / 1e9, report.recovery.recovery_s);
    assert_eq!(report.recovery.executor_crashes, 2);
    let kinds = [
        "\"executor_crash\"",
        "\"recovery_start\"",
        "\"recovery_end\"",
    ];
    let tagged: Vec<u16> = std::str::from_utf8(&trace)
        .expect("a JSONL trace is UTF-8")
        .lines()
        .filter(|l| kinds.iter().any(|k| l.contains(k)))
        .map(|l| Event::exec_of_json(&Json::parse(l).expect("a JSON line")).expect("an exec"))
        .collect();
    assert_eq!(tagged, [1; 5], "the trace tags all five with executor 1");
    assert_eq!(traced(2).2, trace, "the trace is host-thread independent");
}

/// A completed gather stays in the exchange with its key index, so a
/// shuffle is indexed once per run however many executors reduce it, on
/// however many host threads, and however often a crashed executor
/// replays it.
#[test]
fn every_shuffle_is_indexed_exactly_once_per_run_crashes_included() {
    for policy in [
        RecoveryPolicy::Recompute,
        RecoveryPolicy::CheckpointEvery(2),
    ] {
        let (baseline, horizon_ns) = fault_free(policy);
        let (built, gathered) = baseline.shuffle_index_builds;
        assert!(gathered > 0, "{policy:?}: the workload shuffles");
        assert_eq!(built, gathered, "{policy:?}: one index per shuffle");
        // Executor 1 dies mid-run and again inside its own recovery;
        // executor 0 dies later. Every replay re-reads the gathers the
        // dead incarnations had completed.
        let plan = FaultPlan {
            vcrashes: vec![
                VCrashPoint {
                    exec: 1,
                    at_ns: 0.5 * horizon_ns,
                },
                VCrashPoint {
                    exec: 1,
                    at_ns: 0.5 * horizon_ns + 1.0,
                },
                VCrashPoint {
                    exec: 0,
                    at_ns: 0.8 * horizon_ns,
                },
            ],
            ..FaultPlan::crash_at(1, 0.5 * horizon_ns)
        };
        for host_threads in [1, usize::from(EXECUTORS)] {
            let faulted = run_with_plan(policy, host_threads, &plan);
            let what = format!("{policy:?}, {host_threads} host threads");
            assert_results_eq(&faulted.results, &baseline.results, &what);
            let rec = faulted.report.recovery;
            assert_eq!(rec.executor_crashes, 3, "{what}: every point fired");
            assert!(rec.journal_noops > 0, "{what}: gathers were replayed");
            assert_eq!(
                faulted.shuffle_index_builds, baseline.shuffle_index_builds,
                "{what}: replays reuse the index the first readers built"
            );
        }
    }
}

/// Every completed gather stays in the exchange for replay, so what a
/// record costs there is paid for the whole run. A 4-executor PageRank
/// ships `(Text, Double)` contributions (80 modelled bytes, 44 packed)
/// and `(Text, List<Text>)` adjacency lists: the host bytes retained at
/// the end must not exceed the modelled bytes that were deposited — the
/// shared-region transport counts those — and, being a sum of buffer
/// lengths, must not depend on host threads or on crashes.
#[test]
fn the_exchange_retains_fewer_host_bytes_than_the_modelled_bytes_deposited() {
    const EXECUTORS: u16 = 4;
    let run = |host_threads: usize, plan: &FaultPlan| {
        let build = || {
            let w = build_workload(WorkloadId::Pr, SCALE, DATA_SEED);
            (w.program, w.fns, w.data)
        };
        let mut cfg = cluster_config(RecoveryPolicy::CheckpointEvery(2));
        cfg.executors = EXECUTORS;
        cfg.transport = ShuffleTransport::SharedRegion;
        RunBuilder::from_build(&build)
            .config(cfg)
            .host_threads(host_threads)
            .faults(plan)
            .run()
            .expect("valid cluster config")
    };
    let baseline = run(usize::from(EXECUTORS), &FaultPlan::none());
    let retained = baseline.exchange_retained_bytes;
    assert!(retained > 0, "PageRank shuffles");
    assert!(
        retained <= baseline.shared_region_bytes,
        "{retained} host bytes retained for {} modelled bytes deposited",
        baseline.shared_region_bytes
    );
    assert_eq!(run(1, &FaultPlan::none()).exchange_retained_bytes, retained);
    let horizon_ns = baseline.report.elapsed_s * 1e9;
    let plan = FaultPlan {
        vcrashes: vec![
            VCrashPoint {
                exec: 3,
                at_ns: 0.4 * horizon_ns,
            },
            VCrashPoint {
                exec: 0,
                at_ns: 0.7 * horizon_ns,
            },
        ],
        ..FaultPlan::crash_at(3, 0.4 * horizon_ns)
    };
    let faulted = run(usize::from(EXECUTORS), &plan);
    assert_eq!(faulted.report.recovery.executor_crashes, 2);
    assert_results_eq(&faulted.results, &baseline.results, "crashed PageRank");
    assert_eq!(faulted.exchange_retained_bytes, retained);
    assert_eq!(faulted.shared_region_bytes, baseline.shared_region_bytes);
}

/// The input is generated once per run, on the driver: every executor
/// incarnation — the replays after a crash included — decodes its
/// partitions out of that one packed copy, and the registries their own
/// builds return are dropped without being generated.
#[test]
fn the_input_is_generated_once_per_run_restarts_included() {
    const EXECUTORS: u16 = 4;
    let generated = Arc::new(AtomicU64::new(0));
    let builds = AtomicU64::new(0);
    let build = || {
        builds.fetch_add(1, Ordering::SeqCst);
        let mut w = pagerank(135, 720, 3, DATA_SEED);
        let generated = Arc::clone(&generated);
        w.data.register_with("wikipedia-links", move || {
            generated.fetch_add(1, Ordering::SeqCst);
            power_law_edges_text(135, 720, 40, DATA_SEED)
        });
        (w.program, w.fns, w.data)
    };
    let mut cfg = cluster_config(RecoveryPolicy::Recompute);
    cfg.executors = EXECUTORS;
    let run = |host_threads: usize, plan: &FaultPlan| {
        builds.store(0, Ordering::SeqCst);
        generated.store(0, Ordering::SeqCst);
        let run = RunBuilder::from_build(&build)
            .config(cfg.clone())
            .host_threads(host_threads)
            .faults(plan)
            .run()
            .expect("valid cluster config");
        let counts = (
            builds.load(Ordering::SeqCst),
            generated.load(Ordering::SeqCst),
        );
        (run, counts)
    };
    for host_threads in [1, usize::from(EXECUTORS)] {
        let what = format!("{host_threads} host threads");
        let (baseline, counts) = run(host_threads, &FaultPlan::none());
        assert_eq!(
            counts,
            (1 + 4, 1),
            "{what}: (builds, generations), fault-free"
        );
        let horizon_ns = baseline.report.elapsed_s * 1e9;
        let plan = FaultPlan {
            vcrashes: vec![
                VCrashPoint {
                    exec: 3,
                    at_ns: 0.4 * horizon_ns,
                },
                VCrashPoint {
                    exec: 0,
                    at_ns: 0.7 * horizon_ns,
                },
            ],
            ..FaultPlan::crash_at(3, 0.4 * horizon_ns)
        };
        let (faulted, counts) = run(host_threads, &plan);
        assert_eq!(faulted.report.recovery.executor_crashes, 2, "{what}");
        assert_eq!(
            counts,
            (1 + 4 + 2, 1),
            "{what}: (builds, generations), crashed"
        );
        assert_results_eq(&faulted.results, &baseline.results, &what);
    }
}

/// A keyed sum, repeated, over an input whose map step adds `salt` to
/// every value: under another salt every shuffle deposit digests
/// differently, while every count stays the same.
fn salted_sums(salt: i64) -> (Program, FnTable, DataRegistry) {
    let mut b = ProgramBuilder::new("salted-sums");
    let add = b.map_fn(move |r| {
        let (k, v) = r.as_pair().expect("(key, value)");
        Payload::pair(k.clone(), Payload::Long(v.as_long().expect("value") + salt))
    });
    let sum =
        b.reduce_fn(|a, c| Payload::Long(a.as_long().expect("sum") + c.as_long().expect("sum")));
    let src = b.source("src");
    let xs = b.bind("xs", src.map(add));
    b.loop_n(4, |b| {
        let sums = b.bind("sums", b.var(xs).reduce_by_key(sum));
        b.action(sums, ActionKind::Count);
    });
    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register(
        "src",
        (0..400)
            .map(|i| Payload::keyed(i % 37, Payload::Long(i)))
            .collect(),
    );
    (program, fns, data)
}

/// Idempotent recovery rests on the rebuild closure being deterministic.
/// One that is not — here the replaying incarnation gets another user
/// function — re-issues operations that digest differently from what the
/// dead incarnation journaled; the run ends in a typed error naming the
/// executor, while its peer is parked in a gather waiting for it.
#[test]
fn divergent_replay_is_a_typed_run_error() {
    let policy = RecoveryPolicy::Recompute;
    let horizon_ns = RunBuilder::from_build(&|| salted_sums(0))
        .config(cluster_config(policy))
        .faults(&FaultPlan::none())
        .run()
        .expect("valid cluster config")
        .report
        .elapsed_s
        * 1e9;
    // Build 0 is the driver's, builds 1 and 2 the first incarnations;
    // every later one is a replay.
    let builds = AtomicU64::new(0);
    let build = || {
        let replaying = builds.fetch_add(1, Ordering::SeqCst) > u64::from(EXECUTORS);
        salted_sums(i64::from(replaying))
    };
    let plan = FaultPlan::crash_at(1, 0.5 * horizon_ns);
    for host_threads in [1, usize::from(EXECUTORS)] {
        builds.store(0, Ordering::SeqCst);
        let err = RunBuilder::from_build(&build)
            .config(cluster_config(policy))
            .host_threads(host_threads)
            .faults(&plan)
            .run()
            .expect_err("a divergent replay must not produce results");
        match err {
            RunError::DivergentDeposit {
                exec,
                landed,
                replayed,
            } => {
                assert_eq!(exec, 1, "the crashed executor is the one that diverged");
                assert_ne!(landed, replayed);
            }
            other => panic!("expected DivergentDeposit, got {other}"),
        }
    }
}

#[test]
fn random_point_plan_is_host_thread_invariant() {
    let spec = FaultSpec {
        crashes: 0,
        max_losses: 1,
        max_alloc_faults: 1,
        vcrashes: 2,
        vtime_lo_ns: 0.0,
        vtime_hi_ns: 2.0e9,
        ..FaultSpec::default()
    };
    let plan = FaultPlan::generate(0xD1CE, EXECUTORS, spec);
    assert!(!plan.vcrashes.is_empty());
    for policy in [
        RecoveryPolicy::Recompute,
        RecoveryPolicy::CheckpointEvery(2),
    ] {
        let serial = run_with_plan(policy, 1, &plan);
        let threaded = run_with_plan(policy, usize::from(EXECUTORS), &plan);
        let what = format!("{policy:?}");
        assert_results_eq(&serial.results, &threaded.results, &what);
        assert_eq!(
            serial.report.to_json().to_compact(),
            threaded.report.to_json().to_compact(),
            "{what}: aggregate report must not depend on host threads"
        );
        for (e, (s, t)) in serial
            .per_executor
            .iter()
            .zip(threaded.per_executor.iter())
            .enumerate()
        {
            assert_eq!(
                s.to_json().to_compact(),
                t.to_json().to_compact(),
                "{what}: executor {e} sub-report must not depend on host threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property form of the sweep: any pair of points anywhere in the
    /// run (same executor or different, ordered or not) preserves the
    /// action results exactly.
    #[test]
    fn arbitrary_crash_points_preserve_results(
        frac_a in 0.0f64..1.0,
        frac_b in 0.0f64..1.0,
        exec_a in 0u16..EXECUTORS,
        exec_b in 0u16..EXECUTORS,
    ) {
        thread_local! {
            static BASE: std::cell::OnceCell<(Vec<(String, ActionResult)>, f64)> =
                const { std::cell::OnceCell::new() };
        }
        BASE.with(|base| {
            let (base_results, horizon_ns) = base.get_or_init(|| {
                let (b, h) = fault_free(RecoveryPolicy::Recompute);
                (b.results, h)
            });
            let mut vcrashes = vec![
                VCrashPoint { exec: exec_a, at_ns: frac_a * horizon_ns },
                VCrashPoint { exec: exec_b, at_ns: frac_b * horizon_ns },
            ];
            vcrashes.sort_by(|a, b| {
                (a.exec, a.at_ns)
                    .partial_cmp(&(b.exec, b.at_ns))
                    .expect("finite crash times")
            });
            let plan = FaultPlan { vcrashes, ..FaultPlan::none() };
            let faulted = run_with_plan(
                RecoveryPolicy::Recompute,
                usize::from(EXECUTORS),
                &plan,
            );
            assert_results_eq(&faulted.results, base_results, "proptest vcrash");
        });
    }
}
