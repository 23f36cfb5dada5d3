//! simarms: the table of deterministic simulated-result arms — the seven
//! extension arms defined here and the sixteen experiments of the paper's
//! evaluation ([`crate::paperarms`]).
//!
//! Each [`Arm`] renders one document holding only *simulated*
//! quantities — virtual time, energy, GC and recovery counters, whole
//! [`RunReport`]s — so the rendering is a pure function of the source
//! tree: the same bytes on every host, at every host-thread budget, in
//! debug and release builds. `tests/simarms.rs` pins the quick rendering
//! of every arm byte-for-byte against `ci/golden/`; a change that claims
//! to be host-only proves it by passing that test unchanged, and one that
//! means to move a simulated value shows the move as a reviewable diff of
//! the goldens (`ci/sim_determinism.sh --bless`).
//!
//! An extension arm also *asserts* the claim it exists to measure while
//! rendering — fused ≡ unfused, crash recovery changes no result, the
//! shared-region shuffle never simulates slower than serde, region arenas
//! cut minor-GC pauses, fair share beats FIFO on tail queueing delay,
//! online re-tagging beats the static prior — so a document cannot exist
//! without its invariants holding. Host time is not measured here at all: that is
//! `benchmark/`'s job (`bash benchmark/run.sh`).

use mheap::Payload;
use obs::Json;
use panthera::cluster::{FaultPlan, FaultSpec};
use panthera::{
    MemoryMode, RecoveryPolicy, RunBuilder, RunReport, RunSummary, SystemConfig, SIM_GB,
};
use panthera_jobs::{JobOutcome, JobService, JobSpec, SchedPolicy, ServiceConfig, ServiceReport};
use panthera_stream::{StreamBuilder, StreamReport, StreamSpec};
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder};
use sparklet::{DataRegistry, ShuffleTransport};
use workloads::{build_workload, WorkloadId};

use crate::paperarms::{self, Runs};
use crate::SEED;

/// How big an arm's inputs are. The goldens are quick renderings; the
/// numbers DESIGN.md §9–§14 and EXPERIMENTS.md quote come from full-size
/// ones.
#[derive(Debug, Clone, Copy)]
pub enum Size {
    /// CI-sized: every extension arm in about a second (release).
    Quick,
    /// The evaluation-sized inputs.
    Full,
}

impl Size {
    /// Dataset scale of the extension arms that take one (`regions` and
    /// the cached PageRank of `shuffle` pin their own cache-heavy scale
    /// instead).
    fn scale(self) -> f64 {
        match self {
            Size::Quick => 0.05,
            Size::Full => 0.15,
        }
    }

    /// Executors — and virtual-time crash points — of the fault arms.
    fn fault_width(self) -> u16 {
        match self {
            Size::Quick => 2,
            Size::Full => 3,
        }
    }

    /// What the paper arms divide the evaluation's datasets and heaps by:
    /// full size is the paper's setup at 1 simulated MB per paper GB.
    pub(crate) fn paper_shrink(self) -> u64 {
        match self {
            Size::Quick => 8,
            Size::Full => 1,
        }
    }
}

/// One arm: its name and the function rendering it.
pub struct Arm {
    /// What `simarms` calls the arm; the stem of its files.
    pub name: &'static str,
    /// Run every configuration of the arm once and return its document.
    pub body: Body,
}

/// The members of an extension arm's document after its `"bench"` header.
type Fields = Vec<(&'static str, Json)>;

/// The two kinds of arm body.
pub enum Body {
    /// An extension arm: runs its configurations, asserts its invariants
    /// and returns the members of `ci/golden/<name>.sim` that follow the
    /// `"bench": <name>` header. The `usize` bounds how many executor
    /// threads compute concurrently; it may change wall-clock time only,
    /// never a rendered byte.
    Sim(fn(Size, usize) -> Fields),
    /// An experiment of the paper's evaluation: the text of
    /// `ci/golden/<name>.txt` (quick) and `ci/paper/<name>.txt` (full
    /// size), its engine runs drawn from the shared cache.
    Paper(fn(&mut Runs) -> String),
}

impl Arm {
    /// File the arm's rendering is kept in.
    pub fn file_name(&self) -> String {
        match self.body {
            Body::Sim(_) => format!("{}.sim", self.name),
            Body::Paper(_) => format!("{}.txt", self.name),
        }
    }

    /// Whether the arm is one of the paper's experiments.
    pub fn is_paper(&self) -> bool {
        matches!(self.body, Body::Paper(_))
    }

    /// Render the arm at the size of `runs`.
    pub fn render(&self, runs: &mut Runs, host_threads: usize) -> String {
        match self.body {
            Body::Sim(body) => {
                let mut doc = vec![("bench", Json::Str(self.name.into()))];
                doc.extend(body(runs.size(), host_threads));
                Json::obj(doc).to_pretty() + "\n"
            }
            Body::Paper(body) => body(runs),
        }
    }
}

const fn sim(name: &'static str, body: fn(Size, usize) -> Fields) -> Arm {
    Arm {
        name,
        body: Body::Sim(body),
    }
}

const fn paper(name: &'static str, body: fn(&mut Runs) -> String) -> Arm {
    Arm {
        name,
        body: Body::Paper(body),
    }
}

/// Every arm, in the order CI renders them: the extension arms, then the
/// paper's evaluation in paper order.
pub const ARMS: [Arm; 23] = [
    sim("default", default_arm),
    sim("faults_42", faults_arm),
    sim("faults-anywhere_42", faults_anywhere_arm),
    sim("shuffle", shuffle_arm),
    sim("regions", regions_arm),
    sim("service", service_arm),
    sim("stream", stream_arm),
    paper("table1", paperarms::table1),
    paper("table2", paperarms::table2),
    paper("table4", paperarms::table4),
    paper("fig2c", paperarms::fig2c),
    paper("fig4", paperarms::fig4),
    paper("fig5", paperarms::fig5),
    paper("fig6", paperarms::fig6),
    paper("fig7", paperarms::fig7),
    paper("fig8", paperarms::fig8),
    paper("table5", paperarms::table5),
    paper("baselines", paperarms::baselines),
    paper("ablation", paperarms::ablation),
    paper("nursery", paperarms::nursery),
    paper("hashjoin", paperarms::hashjoin),
    paper("nvmtech", paperarms::nvmtech),
    paper("matrix", paperarms::matrix),
];

/// Seed of both fault arms' plans (the `_42` of their names).
const FAULT_SEED: u64 = 42;

/// Cache-heavy scale of the GC-effect runs (`regions`, and the cached
/// PageRank of `shuffle`): fixed, so the effect is out of the noise floor
/// at either [`Size`].
const GC_SCALE: f64 = 0.4;

type Build = (Program, FnTable, DataRegistry);

/// A deterministic rebuild source, as the cluster driver needs one.
type BuildFn<'a> = &'a (dyn Fn() -> Build + Sync);

/// Panthera on a 16 GB heap, 1/3 DRAM — the configuration every arm but
/// `service` and `stream` starts from.
fn base_cfg() -> SystemConfig {
    SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0)
}

fn workload(id: WorkloadId, scale: f64) -> Build {
    let w = build_workload(id, scale, SEED);
    (w.program, w.fns, w.data)
}

/// An inline two-source hash join (no `WorkloadId` covers one): `n`
/// keyed records joined against `n / 2`, keys folded so buckets collide,
/// counted once. Exercises the two-parent shuffle path the cluster
/// exchange has to merge from both sides.
fn hashjoin(scale: f64) -> Build {
    let n = ((40_000.0 * scale) as usize).max(64);
    let keys = (n / 8).max(1) as i64;
    let mut b = ProgramBuilder::new("hashjoin");
    let left = b.source("left");
    let right = b.source("right");
    let joined = b.bind("joined", left.join(right));
    b.action(joined, ActionKind::Count);
    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register("left", keyed_longs(n, keys, 31, 7));
    data.register("right", keyed_longs(n / 2, keys, 13, 1));
    (program, fns, data)
}

/// An inline group-by (`n` keyed records folded into colliding buckets,
/// grouped, counted) — the shuffle whose map output is pure fan-out.
fn groupby(scale: f64) -> Build {
    let n = ((40_000.0 * scale) as usize).max(64);
    let keys = (n / 8).max(1) as i64;
    let mut b = ProgramBuilder::new("groupby");
    let src = b.source("src");
    let grouped = b.bind("grouped", src.group_by_key());
    b.action(grouped, ActionKind::Count);
    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register("src", keyed_longs(n, keys, 31, 7));
    (program, fns, data)
}

fn keyed_longs(n: usize, keys: i64, mul: i64, add: i64) -> Vec<Payload> {
    (0..n as i64)
        .map(|i| Payload::keyed(i % keys, Payload::Long(i * mul + add)))
        .collect()
}

/// One run on the single-runtime path.
fn single(build: Build, cfg: SystemConfig) -> RunSummary {
    let (program, fns, data) = build;
    RunBuilder::new(&program, fns, data)
        .config(cfg)
        .run()
        .unwrap_or_else(|e| panic!("{}: {e}", program.name))
}

/// One run on the cluster driver. Passing a plan — even the empty one —
/// pins the cluster path at E = 1 too, so `default`'s E = 1 check
/// compares the two runtimes, not one with itself.
fn cluster(
    build: BuildFn<'_>,
    cfg: SystemConfig,
    plan: &FaultPlan,
    host_threads: usize,
) -> RunSummary {
    RunBuilder::from_build(build)
        .config(cfg)
        .host_threads(host_threads)
        .faults(plan)
        .run()
        .expect("valid cluster config")
}

fn compact(report: &RunReport) -> String {
    report.to_json().to_compact()
}

/// Neither the aggregate report nor any executor's sub-report may depend
/// on the host-thread budget.
fn assert_host_thread_invariant(what: &str, serial: &RunSummary, threaded: &RunSummary) {
    assert_eq!(
        compact(&serial.report),
        compact(&threaded.report),
        "{what}: aggregate report depends on the host-thread budget"
    );
    for (e, (s, t)) in (serial.per_executor.iter())
        .zip(&threaded.per_executor)
        .enumerate()
    {
        assert_eq!(
            compact(s),
            compact(t),
            "{what}: executor {e} sub-report depends on the host-thread budget"
        );
    }
}

// ---------------------------------------------------------------------------
// `default`: fused ≡ unfused, and the executor-scaling ladder.
// ---------------------------------------------------------------------------

/// Four Table 4 workloads under the fused engine, each checked against
/// the stage-at-a-time reference path (`fuse_narrow: false`), then
/// PageRank and the hash join on the cluster driver at E = 1, 2, 4 —
/// E = 1 must be bit-identical to the single-runtime path, and the top of
/// the ladder must not depend on the host-thread budget.
fn default_arm(size: Size, host_threads: usize) -> Fields {
    let scale = size.scale();
    let mut workloads = Vec::new();
    for id in [
        WorkloadId::Pr,
        WorkloadId::Km,
        WorkloadId::Lr,
        WorkloadId::Cc,
    ] {
        let run = |fuse_narrow| {
            let mut cfg = base_cfg();
            cfg.fuse_narrow = fuse_narrow;
            single(workload(id, scale), cfg).report
        };
        let (reference, report) = (run(false), run(true));
        // The invariant that makes fusion an optimisation and not a
        // different simulator: both paths simulate the same machine doing
        // the same thing.
        let sim_identical = reference.elapsed_s.to_bits() == report.elapsed_s.to_bits()
            && reference.energy_j().to_bits() == report.energy_j().to_bits()
            && reference.gc.minor_count == report.gc.minor_count
            && reference.gc.major_count == report.gc.major_count
            && reference.heap.allocated_bytes == report.heap.allocated_bytes;
        assert!(
            sim_identical,
            "{}: fused and unfused engines diverged in simulated results",
            id.name()
        );
        workloads.push(Json::obj(vec![
            ("id", Json::Str(id.name().into())),
            ("sim_elapsed_s", Json::Num(report.elapsed_s)),
            ("sim_identical", Json::Bool(sim_identical)),
            ("report", report.to_json()),
        ]));
    }

    let none = FaultPlan::none();
    let mut scaling = Vec::new();
    let pr = || workload(WorkloadId::Pr, scale);
    let hj = || hashjoin(scale);
    let builds: [(&str, BuildFn); 2] = [("pr", &pr), ("hashjoin", &hj)];
    for (wl, build) in builds {
        for e in [1u16, 2, 4] {
            let mut cfg = base_cfg();
            cfg.executors = e;
            let out = cluster(build, cfg.clone(), &none, host_threads);
            let mut fields = vec![
                ("workload", Json::Str(wl.into())),
                ("executors", Json::UInt(u64::from(e))),
                ("sim_elapsed_s", Json::Num(out.report.elapsed_s)),
                ("sim_energy_j", Json::Num(out.report.energy_j())),
            ];
            if e == 1 {
                let single_runtime = single(build(), base_cfg()).report;
                assert_eq!(
                    compact(&out.report),
                    compact(&single_runtime),
                    "{wl}: E=1 cluster diverged from the single-runtime path"
                );
                fields.push(("e1_matches_single_runtime", Json::Bool(true)));
            }
            if e == 4 {
                let serial = cluster(build, cfg, &none, 1);
                assert_host_thread_invariant(&format!("{wl} E={e}"), &serial, &out);
            }
            fields.push(("report", out.report.to_json()));
            scaling.push(Json::obj(fields));
        }
    }

    vec![
        ("scale", Json::Num(scale)),
        ("workloads", Json::Arr(workloads)),
        ("executor_scaling", Json::Arr(scaling)),
        ("sim_invariants_hold", Json::Bool(true)),
        ("cluster_determinism_holds", Json::Bool(true)),
    ]
}

// ---------------------------------------------------------------------------
// `faults_42` and `faults-anywhere_42`: recovery overhead.
// ---------------------------------------------------------------------------

/// One recovery policy measured fault-free and under its plan.
struct FaultPair {
    policy: &'static str,
    plan: FaultPlan,
    clean: RunSummary,
    faulted: RunSummary,
}

/// Cluster PageRank under `{Recompute, CheckpointEvery(2)}` × {fault-free,
/// the plan `plan_for` derives from the fault-free twin}, with the core
/// recovery guarantee asserted: a faulted run produces bit-identical
/// workload results, at least one planned crash fired, and no report —
/// aggregate or per-executor — depends on the host-thread budget.
fn fault_pairs(
    size: Size,
    host_threads: usize,
    mut plan_for: impl FnMut(&RunSummary) -> FaultPlan,
) -> Vec<FaultPair> {
    let build = || workload(WorkloadId::Pr, size.scale());
    let policies = [
        ("recompute", RecoveryPolicy::Recompute),
        ("checkpoint_every_2", RecoveryPolicy::CheckpointEvery(2)),
    ];
    (policies.into_iter())
        .map(|(policy, recovery)| {
            let mut cfg = base_cfg();
            cfg.executors = size.fault_width();
            cfg.recovery = recovery;
            let clean = cluster(&build, cfg.clone(), &FaultPlan::none(), host_threads);
            let plan = plan_for(&clean);
            let faulted = cluster(&build, cfg.clone(), &plan, host_threads);
            assert_eq!(
                faulted.results, clean.results,
                "{policy}: fault injection changed the workload results"
            );
            assert!(
                faulted.report.recovery.executor_crashes >= 1,
                "{policy}: no planned crash fired"
            );
            let serial = cluster(&build, cfg, &plan, 1);
            assert_host_thread_invariant(policy, &serial, &faulted);
            FaultPair {
                policy,
                plan,
                clean,
                faulted,
            }
        })
        .collect()
}

fn fault_row(policy: &str, faulted: bool, run: &RunSummary) -> Json {
    let rec = &run.report.recovery;
    Json::obj(vec![
        ("policy", Json::Str(policy.into())),
        ("faulted", Json::Bool(faulted)),
        ("sim_elapsed_s", Json::Num(run.report.elapsed_s)),
        ("sim_energy_j", Json::Num(run.report.energy_j())),
        ("executor_crashes", Json::UInt(rec.executor_crashes)),
        ("messages_lost", Json::UInt(rec.messages_lost)),
        ("alloc_faults", Json::UInt(rec.alloc_faults)),
        (
            "partitions_recomputed",
            Json::UInt(rec.partitions_recomputed),
        ),
        ("partitions_restored", Json::UInt(rec.partitions_restored)),
        ("stages_recomputed", Json::UInt(rec.stages_recomputed)),
        ("checkpoint_writes", Json::UInt(rec.checkpoint_writes)),
        ("checkpoint_bytes", Json::UInt(rec.checkpoint_bytes)),
        ("journal_noops", Json::UInt(rec.journal_noops)),
        ("journal_torn", Json::UInt(rec.journal_torn)),
        ("recovery_s", Json::Num(rec.recovery_s)),
        ("report", run.report.to_json()),
    ])
}

/// The document both fault arms share; `plans` is the one member that
/// differs (one plan for the arm, or one per policy).
fn fault_doc(size: Size, plans: (&'static str, Json), pairs: &[FaultPair]) -> Fields {
    let arms = (pairs.iter())
        .flat_map(|p| {
            [
                fault_row(p.policy, false, &p.clean),
                fault_row(p.policy, true, &p.faulted),
            ]
        })
        .collect();
    let overheads = (pairs.iter())
        .map(|p| {
            let clean_s = p.clean.report.elapsed_s;
            let overhead_s = p.faulted.report.elapsed_s - clean_s;
            Json::obj(vec![
                ("policy", Json::Str(p.policy.into())),
                ("overhead_sim_s", Json::Num(overhead_s)),
                ("overhead_pct", Json::Num(100.0 * overhead_s / clean_s)),
            ])
        })
        .collect();
    vec![
        ("scale", Json::Num(size.scale())),
        ("executors", Json::UInt(u64::from(size.fault_width()))),
        plans,
        ("arms", Json::Arr(arms)),
        ("recovery_overhead", Json::Arr(overheads)),
        ("results_identical", Json::Bool(true)),
        ("host_thread_invariant", Json::Bool(true)),
    ]
}

/// One seeded executor crash at a barrier, mid-run.
fn faults_arm(size: Size, host_threads: usize) -> Fields {
    let plan = FaultPlan::generate(
        FAULT_SEED,
        size.fault_width(),
        FaultSpec {
            crashes: 1,
            ..FaultSpec::default()
        },
    );
    assert!(
        !plan.crashes.is_empty(),
        "the fault arm needs its mid-run crash"
    );
    let pairs = fault_pairs(size, host_threads, |_| plan.clone());
    let plan_json = Json::obj(vec![
        ("seed", Json::UInt(FAULT_SEED)),
        (
            "crash_barriers",
            Json::Arr(plan.crashes.iter().map(|c| Json::UInt(c.barrier)).collect()),
        ),
        ("losses", Json::UInt(plan.losses.len() as u64)),
        ("alloc_faults", Json::UInt(plan.alloc_faults.len() as u64)),
    ]);
    fault_doc(size, ("fault_plan", plan_json), &pairs)
}

/// Virtual-time crash points drawn uniformly over the fault-free run's
/// duration — executors die mid-stage, mid-deposit and mid-checkpoint
/// rather than at barriers — and every replayed deposit must re-validate
/// against the journal as a no-op.
fn faults_anywhere_arm(size: Size, host_threads: usize) -> Fields {
    let pairs = fault_pairs(size, host_threads, |clean| {
        // The fault-free duration bounds the window the points are drawn
        // from. It is a simulated quantity, so every host-thread budget
        // derives the identical plan.
        let plan = FaultPlan::generate(
            FAULT_SEED,
            size.fault_width(),
            FaultSpec {
                crashes: 0,
                max_losses: 0,
                max_alloc_faults: 0,
                vcrashes: u32::from(size.fault_width()),
                vtime_lo_ns: 0.0,
                vtime_hi_ns: clean.report.elapsed_s * 1e9,
                ..FaultSpec::default()
            },
        );
        assert!(
            !plan.vcrashes.is_empty(),
            "the crash-anywhere arm needs its crash points"
        );
        plan
    });
    let plans = (pairs.iter())
        .map(|p| {
            assert!(
                p.faulted.report.recovery.journal_noops > 0,
                "{}: the replay re-validated no committed deposit",
                p.policy
            );
            let points = (p.plan.vcrashes.iter())
                .map(|v| {
                    Json::obj(vec![
                        ("exec", Json::UInt(u64::from(v.exec))),
                        ("at_ns", Json::Num(v.at_ns)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("policy", Json::Str(p.policy.into())),
                ("seed", Json::UInt(FAULT_SEED)),
                ("points", Json::Arr(points)),
            ])
        })
        .collect();
    fault_doc(size, ("fault_plans", Json::Arr(plans)), &pairs)
}

// ---------------------------------------------------------------------------
// `shuffle`: the serde tax, and the off-heap H2 region.
// ---------------------------------------------------------------------------

/// Shuffle-heavy join and group-by at E = 2, 4, 8 under both transports,
/// plus cached PageRank with and without the off-heap H2 region.
/// Asserted while rendering:
///
/// * the two transports produce bit-identical action results, and the
///   shared region never simulates slower than serde;
/// * serde arms charge zero fast-path bytes, shared-region arms always
///   move cross-executor bytes through it;
/// * the off-heap region changes no PageRank value, drains exactly, and
///   strictly reduces total GC pause time on the cache-heavy run.
fn shuffle_arm(size: Size, host_threads: usize) -> Fields {
    let scale = size.scale();
    let none = FaultPlan::none();
    let mut arms = Vec::new();
    let mut reductions = Vec::new();
    let hj = || hashjoin(scale);
    let gb = || groupby(scale);
    let builds: [(&str, BuildFn); 2] = [("hashjoin", &hj), ("groupby", &gb)];
    for (wl, build) in builds {
        for e in [2u16, 4, 8] {
            let run = |transport| {
                let mut cfg = base_cfg();
                cfg.executors = e;
                cfg.transport = transport;
                cluster(build, cfg, &none, host_threads)
            };
            let serde = run(ShuffleTransport::Serde);
            let shared = run(ShuffleTransport::SharedRegion);
            assert_eq!(
                shared.results, serde.results,
                "{wl} E={e}: transport changed the workload results"
            );
            assert_eq!(
                serde.report.exec.fastpath_bytes, 0,
                "{wl} E={e}: serde transport charged the fast path"
            );
            assert!(
                shared.report.exec.fastpath_bytes > 0,
                "{wl} E={e}: no cross-executor bytes rode the shared region"
            );
            let (serde_s, shared_s) = (serde.report.elapsed_s, shared.report.elapsed_s);
            assert!(
                shared_s <= serde_s,
                "{wl} E={e}: shared region simulated slower than serde ({shared_s} > {serde_s})"
            );
            reductions.push(Json::obj(vec![
                ("workload", Json::Str(wl.into())),
                ("executors", Json::UInt(u64::from(e))),
                ("saved_sim_s", Json::Num(serde_s - shared_s)),
                (
                    "saved_pct",
                    Json::Num(100.0 * (serde_s - shared_s) / serde_s),
                ),
            ]));
            for (transport, run) in [("serde", &serde), ("shared_region", &shared)] {
                arms.push(Json::obj(vec![
                    ("workload", Json::Str(wl.into())),
                    ("executors", Json::UInt(u64::from(e))),
                    ("transport", Json::Str(transport.into())),
                    ("sim_elapsed_s", Json::Num(run.report.elapsed_s)),
                    ("sim_energy_j", Json::Num(run.report.energy_j())),
                    ("shuffle_bytes", Json::UInt(run.report.exec.shuffle_bytes)),
                    ("fastpath_bytes", Json::UInt(run.report.exec.fastpath_bytes)),
                    ("shared_region_bytes", Json::UInt(run.shared_region_bytes)),
                    ("report", run.report.to_json()),
                ]));
            }
        }
    }

    // PageRank re-reads its persisted link structure every iteration:
    // the cached data the H2 region takes out of the collector's sight.
    let cached_pr = |offheap: bool| {
        let mut cfg = base_cfg();
        cfg.offheap_cache = offheap;
        single(workload(WorkloadId::Pr, GC_SCALE), cfg)
    };
    let (heap_run, off_run) = (cached_pr(false), cached_pr(true));
    let (heap_rep, off_rep) = (&heap_run.report, &off_run.report);
    assert_eq!(
        off_run.results, heap_run.results,
        "cached PageRank: the off-heap region changed a value"
    );
    assert_eq!(
        off_rep.exec.offheap_frees, off_rep.exec.offheap_allocs,
        "cached PageRank: the off-heap region must drain"
    );
    assert_eq!(off_rep.exec.offheap_leaks, 0, "cached PageRank: leaks");
    let gc_heap = heap_rep.minor_gc_s + heap_rep.major_gc_s;
    let gc_off = off_rep.minor_gc_s + off_rep.major_gc_s;
    assert!(
        gc_off < gc_heap,
        "cached PageRank: off-heap caching must reduce GC pause totals ({gc_off} >= {gc_heap})"
    );
    let cached_pagerank = Json::obj(vec![
        ("scale", Json::Num(GC_SCALE)),
        ("gc_pause_s_heap_cached", Json::Num(gc_heap)),
        ("gc_pause_s_offheap", Json::Num(gc_off)),
        (
            "gc_pause_saved_pct",
            Json::Num(100.0 * (gc_heap - gc_off) / gc_heap),
        ),
        ("offheap_allocs", Json::UInt(off_rep.exec.offheap_allocs)),
        ("offheap_bytes", Json::UInt(off_rep.exec.offheap_bytes)),
        (
            "heap_allocated_bytes_heap_cached",
            Json::UInt(heap_rep.heap.allocated_bytes),
        ),
        (
            "heap_allocated_bytes_offheap",
            Json::UInt(off_rep.heap.allocated_bytes),
        ),
    ]);

    vec![
        ("scale", Json::Num(scale)),
        ("arms", Json::Arr(arms)),
        ("shuffle_cost_reduction", Json::Arr(reductions)),
        ("cached_pagerank", cached_pagerank),
        ("results_identical", Json::Bool(true)),
    ]
}

// ---------------------------------------------------------------------------
// `regions`: Deca-style lifetime arenas.
// ---------------------------------------------------------------------------

/// Every Table 4 workload at the cache-heavy scale with `region_alloc`
/// off and on, plus clustered PageRank at E = 2, 4. Asserted while
/// rendering:
///
/// * action results are bit-identical with regions off or on, at every
///   width;
/// * every RDD-lifetime arena drains exactly (frees == allocs, no leaks,
///   no dead reads) in every run and every executor;
/// * at least 4 of the 7 workloads strictly reduce both the minor-GC
///   pause p90 and the cards scanned.
///
/// The same at either [`Size`]: the scale is pinned.
fn regions_arm(_size: Size, host_threads: usize) -> Fields {
    let cfg = |executors: u16, regions: bool| {
        let mut cfg = base_cfg();
        cfg.executors = executors;
        cfg.region_alloc = regions;
        cfg
    };
    let mut arms = Vec::new();
    let mut improved = 0u64;
    for id in WorkloadId::ALL {
        let run = |regions| single(workload(id, GC_SCALE), cfg(1, regions));
        let (off_run, on_run) = (run(false), run(true));
        assert_eq!(
            on_run.results,
            off_run.results,
            "{}: region allocation changed a value",
            id.name()
        );
        let (off, on) = (&off_run.report, &on_run.report);
        assert_eq!(
            on.exec.region_frees,
            on.exec.region_allocs,
            "{}: RDD-lifetime arenas must drain",
            id.name()
        );
        assert_eq!(on.exec.region_leaks, 0, "{}: arena leaks", id.name());
        assert_eq!(
            on.exec.region_dead_reads,
            0,
            "{}: arena dead reads",
            id.name()
        );
        let (p90_off, p90_on) = (
            off.minor_pauses.quantile_ns(0.90),
            on.minor_pauses.quantile_ns(0.90),
        );
        let better = p90_on < p90_off && on.gc.cards_scanned < off.gc.cards_scanned;
        improved += u64::from(better);
        arms.push(Json::obj(vec![
            ("workload", Json::Str(id.name().into())),
            ("minor_p90_ns_off", Json::Num(p90_off)),
            ("minor_p90_ns_on", Json::Num(p90_on)),
            ("cards_scanned_off", Json::UInt(off.gc.cards_scanned)),
            ("cards_scanned_on", Json::UInt(on.gc.cards_scanned)),
            ("minor_gc_s_off", Json::Num(off.minor_gc_s)),
            ("minor_gc_s_on", Json::Num(on.minor_gc_s)),
            ("region_allocs", Json::UInt(on.exec.region_allocs)),
            (
                "region_stage_arenas",
                Json::UInt(on.exec.region_stage_arenas),
            ),
            ("region_stage_bytes", Json::UInt(on.exec.region_stage_bytes)),
            ("improved", Json::Bool(better)),
        ]));
    }
    assert!(
        improved >= 4,
        "region arenas must reduce minor-pause p90 and cards scanned on \
         at least 4 of {} workloads (got {improved})",
        arms.len()
    );

    let build = || workload(WorkloadId::Pr, GC_SCALE);
    let none = FaultPlan::none();
    let cluster_pagerank = [2u16, 4]
        .into_iter()
        .map(|e| {
            let off = cluster(&build, cfg(e, false), &none, host_threads);
            let on = cluster(&build, cfg(e, true), &none, host_threads);
            assert_eq!(
                on.results, off.results,
                "clustered PR E={e}: region allocation changed a value"
            );
            for (i, rep) in on.per_executor.iter().enumerate() {
                assert_eq!(
                    rep.exec.region_frees, rep.exec.region_allocs,
                    "clustered PR E={e} executor {i}: arenas must drain"
                );
                assert_eq!(
                    rep.exec.region_leaks, 0,
                    "clustered PR E={e} executor {i}: leaks"
                );
            }
            Json::obj(vec![
                ("executors", Json::UInt(u64::from(e))),
                ("sim_elapsed_s", Json::Num(on.report.elapsed_s)),
                ("region_allocs", Json::UInt(on.report.exec.region_allocs)),
                (
                    "region_stage_arenas",
                    Json::UInt(on.report.exec.region_stage_arenas),
                ),
            ])
        })
        .collect();

    vec![
        ("scale", Json::Num(GC_SCALE)),
        ("arms", Json::Arr(arms)),
        ("cluster_pagerank", Json::Arr(cluster_pagerank)),
        ("workloads_improved", Json::UInt(improved)),
        ("results_identical", Json::Bool(true)),
    ]
}

// ---------------------------------------------------------------------------
// `service`: multi-tenant scheduling.
// ---------------------------------------------------------------------------

/// Rebuild source for the service arm's atomic 2-executor jobs (a plain
/// `fn` so it outlives any service borrowing it).
fn service_hashjoin() -> Build {
    hashjoin(0.05)
}

/// Submit the 20-job mixed workload and drain the service under
/// `policy`. The sequence is adversarial for FIFO: one tenant front-loads
/// five long PageRank jobs, then two tenants trail in with thirteen small
/// jobs and two atomic 2-executor hash joins — under FIFO every small job
/// queues behind the long ones; under fair share the light tenants
/// dispatch at the first stage barriers.
fn service_run(policy: SchedPolicy, host_threads: usize, size: Size) -> ServiceReport {
    // PageRank at scale 0.2 needs the 8 GB heap the migration tests use;
    // the budget and quota scale with it so the DRAM split and the
    // quota-gating of tenant 3's atomic jobs behave the same at both
    // sizes.
    let (huge_scale, tiny_scale, heap) = match size {
        Size::Quick => (0.08, 0.02, 4 * SIM_GB),
        Size::Full => (0.2, 0.03, 8 * SIM_GB),
    };
    let mut svc = JobService::new(ServiceConfig {
        pool_executors: 4,
        policy,
        dram_budget_bytes: Some(6 * heap),
        host_threads: Some(host_threads),
    });
    svc.add_tenant(1, 1.0, None);
    svc.add_tenant(2, 1.0, None);
    svc.add_tenant(3, 1.0, Some(4 * heap));
    let job_cfg = SystemConfig::new(MemoryMode::Panthera, heap, 1.0 / 3.0);
    // Jobs 0-4: tenant 1's long PageRank runs, front of the queue.
    for seed in 0..5u64 {
        let w = build_workload(WorkloadId::Pr, huge_scale, seed);
        svc.submit(JobSpec::inline(1, w.program, w.fns, w.data).with_config(job_cfg.clone()))
            .expect("admissible");
    }
    // Jobs 5-17: tenants 2 and 3 alternate small Table 4 jobs.
    const SMALL: [WorkloadId; 6] = [
        WorkloadId::Km,
        WorkloadId::Lr,
        WorkloadId::Tc,
        WorkloadId::Cc,
        WorkloadId::Sssp,
        WorkloadId::Bc,
    ];
    for i in 0..13u64 {
        let tenant = 2 + (i % 2) as u32;
        let w = build_workload(SMALL[(i % 6) as usize], tiny_scale, 100 + i);
        svc.submit(
            JobSpec::inline(tenant, w.program, w.fns, w.data)
                .with_config(job_cfg.clone())
                .with_priority((i % 3) as u32),
        )
        .expect("admissible");
    }
    // Jobs 18-19: tenant 3's atomic 2-executor hash joins (the cluster
    // path inside the service).
    for _ in 0..2 {
        let mut c = job_cfg.clone();
        c.executors = 2;
        svc.submit(JobSpec::rebuild(3, "hashjoin-e2", &service_hashjoin).with_config(c))
            .expect("admissible");
    }
    svc.run()
}

/// The 20-job mixed workload over an E = 4 pool under fair share and
/// FIFO. Asserted while rendering:
///
/// * every job finishes under both policies;
/// * fair share beats FIFO on p99 queueing delay without giving up more
///   than 5% throughput (jobs per service second);
/// * the `ServiceReport` is bit-identical at 1 and 4 host threads.
///
/// The one-stage virtual-time spread bound is a theorem only under
/// single-slot contention (the panthera-jobs proptest pins it there). On
/// a multi-slot pool a tenant whose only job is mid-stage stands still in
/// virtual time while other tenants keep dispatching, so its lag
/// legitimately exceeds one charge (DESIGN.md §13): the spread is
/// reported, not bounded.
fn service_arm(size: Size, host_threads: usize) -> Fields {
    let fair = service_run(SchedPolicy::FairShare, host_threads, size);
    let fifo = service_run(SchedPolicy::Fifo, host_threads, size);
    for (name, r) in [("fair_share", &fair), ("fifo", &fifo)] {
        for job in &r.jobs {
            assert_eq!(
                job.outcome,
                JobOutcome::Finished,
                "{name}: job {} ({}) did not finish",
                job.job,
                job.name
            );
        }
    }
    let throughput_ratio = fair.jobs_per_s / fifo.jobs_per_s;
    assert!(
        fair.queue_p99_s < fifo.queue_p99_s,
        "fair share must beat FIFO on p99 queueing delay (fair={}, fifo={})",
        fair.queue_p99_s,
        fifo.queue_p99_s
    );
    assert!(
        throughput_ratio >= 0.95,
        "fair share gave up more than 5% throughput (ratio {throughput_ratio})"
    );
    // Host threads only bound the atomic jobs' wall-clock concurrency;
    // the report must not notice.
    let at = |threads| {
        service_run(SchedPolicy::FairShare, threads, size)
            .to_json()
            .to_compact()
    };
    assert_eq!(
        at(1),
        at(4),
        "ServiceReport depends on the host-thread budget"
    );

    let arm = |policy: &str, r: &ServiceReport| {
        Json::obj(vec![
            ("policy", Json::Str(policy.into())),
            ("jobs_per_s", Json::Num(r.jobs_per_s)),
            ("makespan_s", Json::Num(r.makespan_s)),
            ("queue_p50_s", Json::Num(r.queue_p50_s)),
            ("queue_p99_s", Json::Num(r.queue_p99_s)),
            ("queue_max_s", Json::Num(r.queue_max_s)),
            ("preemptions", Json::UInt(r.preemptions)),
            ("max_vtime_spread_s", Json::Num(r.max_vtime_spread_s)),
            ("max_stage_charge_s", Json::Num(r.max_stage_charge_s)),
            ("report", r.to_json()),
        ])
    };
    let p99_saved_pct = 100.0 * (fifo.queue_p99_s - fair.queue_p99_s) / fifo.queue_p99_s;
    vec![
        ("jobs", Json::UInt(fair.jobs.len() as u64)),
        ("pool_executors", Json::UInt(u64::from(fair.pool_executors))),
        (
            "arms",
            Json::Arr(vec![arm("fair_share", &fair), arm("fifo", &fifo)]),
        ),
        (
            "fairness",
            Json::obj(vec![
                ("queue_p99_s_fair", Json::Num(fair.queue_p99_s)),
                ("queue_p99_s_fifo", Json::Num(fifo.queue_p99_s)),
                ("p99_saved_pct", Json::Num(p99_saved_pct)),
                ("throughput_ratio", Json::Num(throughput_ratio)),
                ("slo_holds", Json::Bool(true)),
            ]),
        ),
        ("host_thread_invariant", Json::Bool(true)),
    ]
}

// ---------------------------------------------------------------------------
// `stream`: online re-tagging regret.
// ---------------------------------------------------------------------------

/// One seeded drifting micro-batch stream under the static, online and
/// oracle re-tagging policies. Asserted while rendering:
///
/// * window outputs are byte-identical under all three policies —
///   placement moves bytes, never answers;
/// * the online policy's regret against the clairvoyant oracle is at
///   most the static prior's (closing the loop from observed access
///   frequencies pays for itself);
/// * the oracle never loses to the static prior outright.
///
/// The stream runs on the single-runtime path, so there is no host-thread
/// budget to be invariant to. Quick swaps the benchmark-sized
/// sliding-window spec for the small tumbling one on a smaller heap.
fn stream_arm(size: Size, _host_threads: usize) -> Fields {
    let (spec, heap_gb) = match size {
        Size::Quick => (StreamSpec::small(SEED), 4u64),
        // The perf spec's resident datasets overflow a small DRAM share;
        // 16 sim-GB is the smallest heap that avoids promotion failure
        // while keeping placement contended.
        Size::Full => (StreamSpec::perf(SEED), 16u64),
    };
    let cfg = SystemConfig::new(MemoryMode::Panthera, heap_gb * SIM_GB, 1.0 / 3.0);
    let cmp = StreamBuilder::new(spec.clone())
        .config(cfg)
        .compare()
        .expect("valid stream spec");
    assert!(
        cmp.outputs_identical(),
        "a re-tagging policy changed the window outputs"
    );
    let (static_regret, online_regret) = (cmp.static_regret_ns(), cmp.online_regret_ns());
    assert!(
        online_regret <= static_regret,
        "online regret ({online_regret:.3e} ns) exceeds static regret ({static_regret:.3e} ns)"
    );
    assert!(
        cmp.oracle.elapsed_ns <= cmp.static_run.elapsed_ns,
        "the clairvoyant oracle lost to the static prior"
    );

    let arm = |policy: &str, r: &StreamReport| {
        Json::obj(vec![
            ("policy", Json::Str(policy.into())),
            ("sim_elapsed_ns", Json::Num(r.elapsed_ns)),
            (
                "batch_latency_p50_ns",
                Json::Num(r.latency_quantile_ns(0.50)),
            ),
            (
                "batch_latency_p90_ns",
                Json::Num(r.latency_quantile_ns(0.90)),
            ),
            (
                "batch_latency_p99_ns",
                Json::Num(r.latency_quantile_ns(0.99)),
            ),
            ("dram_byte_frac", Json::Num(r.dram_byte_frac)),
            (
                "minor_pause_p90_ns",
                Json::Num(r.run.minor_pauses.quantile_ns(0.90)),
            ),
            (
                "major_pause_p90_ns",
                Json::Num(r.run.major_pauses.quantile_ns(0.90)),
            ),
            ("retags", Json::UInt(u64::from(r.retags))),
            ("migrations", Json::UInt(r.migrations)),
            ("outputs_digest", Json::UInt(r.outputs_digest)),
            ("stream", r.to_json()),
        ])
    };
    let closed_pct = if static_regret > 0.0 {
        100.0 * (static_regret - online_regret) / static_regret
    } else {
        0.0
    };
    vec![
        ("heap_sim_gb", Json::UInt(heap_gb)),
        (
            "spec",
            Json::obj(vec![
                ("name", Json::Str(spec.name.clone())),
                ("seed", Json::UInt(spec.seed)),
                ("batches", Json::UInt(u64::from(spec.batches))),
                ("datasets", Json::UInt(u64::from(spec.datasets))),
                ("window", Json::Str(format!("{:?}", spec.window))),
                ("drift_period", Json::UInt(u64::from(spec.drift_period))),
                ("hot_threshold", Json::UInt(spec.hot_threshold)),
            ]),
        ),
        (
            "arms",
            Json::Arr(vec![
                arm("static", &cmp.static_run),
                arm("online", &cmp.online),
                arm("oracle", &cmp.oracle),
            ]),
        ),
        (
            "regret_ns",
            Json::obj(vec![
                ("static_ns", Json::Num(static_regret)),
                ("online_ns", Json::Num(online_regret)),
                ("online_closed_pct", Json::Num(closed_pct)),
            ]),
        ),
        ("outputs_identical", Json::Bool(true)),
    ]
}

#[cfg(test)]
mod tests {
    use super::ARMS;
    use std::collections::BTreeSet;

    fn files_in(dir: &str) -> BTreeSet<String> {
        let dir = format!("{}/../../ci/{dir}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect()
    }

    /// The table and the committed renderings name each other exactly:
    /// one golden per arm, one full-size text per paper arm, no strays.
    #[test]
    fn arms_and_committed_renderings_correspond() {
        let names: BTreeSet<&str> = ARMS.iter().map(|a| a.name).collect();
        assert_eq!(names.len(), ARMS.len(), "two arms share a name");
        let goldens: BTreeSet<String> = ARMS.iter().map(|a| a.file_name()).collect();
        assert_eq!(files_in("golden"), goldens, "ci/golden vs ARMS");
        let paper: BTreeSet<String> = (ARMS.iter().filter(|a| a.is_paper()))
            .map(|a| a.file_name())
            .collect();
        assert_eq!(files_in("paper"), paper, "ci/paper vs the paper arms");
    }
}
