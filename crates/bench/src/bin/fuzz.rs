//! Deterministic GC fuzzer: random alloc/mutate/persist/unpersist/GC
//! schedules across all five memory modes with the heap verifier on,
//! plus differential whole-workload checks.
//!
//! Two parts:
//!
//! 1. **Invariant fuzzing** — for each seed and each [`MemoryMode`],
//!    drive a small heap through a random schedule of allocations,
//!    reference stores, payload writes, persists/unpersists, and
//!    collections, with [`gc::GcConfig::verify`] on so every minor/major
//!    GC entry and exit re-checks the full invariant set (DESIGN.md §7).
//!    A violation panics with the typed `VerifyError`, which makes the
//!    binary exit non-zero.
//! 2. **Differential runs** — the same workload must produce a
//!    bit-identical [`panthera::RunReport`] with the observer attached
//!    vs detached, with narrow-stage fusion on vs off, and with the
//!    verifier on vs off ("observe/verify, never charge").
//! 3. **Cluster dimension** — per seed, a random executor count `E` in
//!    `1..=4`, a random shuffle transport (serde vs shared-region), and
//!    random off-heap H2 and region-arena settings drive the same
//!    workload through the cluster path of [`panthera::RunBuilder`] with
//!    the heap verifier on in *every* executor's heap. The report must
//!    not depend on the host-thread budget (1 vs `E` threads), no knob
//!    may change an action result, blocks must drain exactly in either
//!    counter family, and the `E = 1` cluster output must be
//!    record-identical to the legacy single-runtime path.
//! 4. **Fault dimension** — per round, a random deterministic
//!    [`panthera::FaultPlan`] (0-2 executor crashes at random
//!    stage boundaries, message losses, transient allocation faults)
//!    under a random recovery policy, with the heap verifier on in every
//!    executor heap — including every *restarted* heap. Results must be
//!    bit-identical to the fault-free run, and for the fixed plan the
//!    merged report must not depend on the host-thread budget.
//! 5. **Crash-anywhere dimension** — per round, 1-3 virtual-time crash
//!    points drawn uniformly over the fault-free run's duration, so
//!    executors die mid-stage, mid-deposit, mid-checkpoint, and inside
//!    still-open recovery windows (not just at barriers). Same
//!    acceptance: results bit-identical to the fault-free run, report
//!    host-thread invariant, journal replays validated as no-ops.
//! 6. **Streaming dimension** — per round, a random micro-batch stream
//!    shape (batch count, tumbling or sliding window width, drift
//!    period, dataset count, access rate) drawn from a seeded rng and
//!    driven under all three [`panthera_stream::RetagPolicy`] arms.
//!    Window outputs must be byte-identical across the static, online,
//!    and oracle policies, and a driver crash at a random batch
//!    boundary must replay its latency prefix bit-identically from the
//!    seed alone.
//!
//! Seed protocol: schedules are generated by the vendored xoshiro256++
//! [`rand::rngs::StdRng`], seeded with `seed * 5 + mode_index`, so every
//! reported failure reproduces with `--seeds` covering that seed. The
//! binary takes `--seeds N` (default 32) and `--quick` (shorter
//! schedules, one differential workload) for CI smoke runs.

use gc::{GcConfig, GcCoordinator};
use mheap::{Heap, MemTag, ObjId, ObjKind, Payload, RootSet, VerifyPoint};
use panthera::cluster::{FaultPlan, FaultSpec};
use panthera::obs::{Observer, RingBufferSink};
use panthera::{MemoryMode, RecoveryPolicy, RunBuilder, SystemConfig, SIM_GB};
use panthera_stream::{RetagPolicy, StreamBuilder, StreamSpec, WindowSpec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sparklet::{EngineConfig, ShuffleTransport};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{build_workload, WorkloadId};

/// Live-handle caps: keep the rooted set small enough that the tight
/// quarter-simulated-MB heap never hard-OOMs, while still forcing regular
/// promotions, compactions, migrations, and destination-full fallbacks.
const MAX_TUPLES: usize = 48;
const MAX_ARRAYS: usize = 24;

fn main() {
    let (seeds, quick) = parse_args();
    let ops = if quick { 150 } else { 400 };
    println!(
        "fuzz: {seeds} seeds x {} modes, {ops} ops/schedule, verifier on",
        MemoryMode::ALL.len()
    );
    for seed in 0..seeds {
        for (mi, mode) in MemoryMode::ALL.into_iter().enumerate() {
            fuzz_schedule(seed * 5 + mi as u64, mode, ops);
        }
        if (seed + 1) % 8 == 0 || seed + 1 == seeds {
            println!("  schedules: {}/{seeds} seeds clean", seed + 1);
        }
    }
    differential(quick);
    cluster_differential(quick);
    fault_differential(quick, Faults::AtBarriers);
    fault_differential(quick, Faults::Anywhere);
    streaming_differential(quick);
    println!("fuzz: all schedules and differential checks passed");
}

fn parse_args() -> (u64, bool) {
    let mut seeds = 32u64;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--seeds needs a value"));
                seeds = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seeds needs an integer"));
            }
            "--quick" => quick = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    (seeds.max(1), quick)
}

fn usage(msg: &str) -> ! {
    eprintln!("fuzz: {msg}\nusage: fuzz [--seeds N] [--quick]");
    std::process::exit(2);
}

/// One random schedule on one mode's heap layout, verifier on throughout.
fn fuzz_schedule(rng_seed: u64, mode: MemoryMode, ops: u32) {
    // A deliberately tight heap: a quarter of a simulated GB with a 1/4
    // DRAM ratio keeps the old spaces small enough that migrations and
    // promotions regularly find their preferred destination full,
    // exercising every fallback path.
    let cfg = SystemConfig::new(mode, SIM_GB / 4, 1.0 / 4.0);
    let mut heap = Heap::new(cfg.heap_config(), cfg.mem_config())
        .unwrap_or_else(|e| panic!("seed {rng_seed}/{mode}: heap config: {e}"));
    let mut gc = GcCoordinator::with_config(
        cfg.policy(),
        GcConfig {
            verify: true,
            ..GcConfig::default()
        },
    );
    let mut roots = RootSet::new();
    let mut rng = StdRng::seed_from_u64(rng_seed);
    // Rooted handles the schedule mutates through. ObjIds are stable
    // across moves, so handles survive promotions and migrations.
    let mut tuples: Vec<ObjId> = Vec::new();
    let mut arrays: Vec<(ObjId, usize)> = Vec::new();
    let mut rdds: Vec<u32> = Vec::new();
    let mut next_rdd = 0u32;

    for _ in 0..ops {
        // Unpersisted handles die at the next collection of their
        // generation; drop the stale ids.
        tuples.retain(|id| heap.is_live(*id));
        arrays.retain(|(id, _)| heap.is_live(*id));
        match rng.random_range(0u32..100) {
            // Young tuple, 0-2 refs to existing handles, sometimes tagged,
            // rooted 60% of the time (the rest is short-lived garbage).
            0..=34 => {
                let mut refs = Vec::new();
                for _ in 0..rng.random_range(0usize..3) {
                    if let Some(t) = pick(&mut rng, &tuples) {
                        refs.push(t);
                    }
                }
                let id = gc.alloc_young(
                    &mut heap,
                    &roots,
                    ObjKind::Tuple,
                    random_tag(&mut rng),
                    refs,
                    Payload::Long(rng.random_range(0i64..1 << 32)),
                );
                if rng.random_range(0u32..10) < 6 && tuples.len() < MAX_TUPLES {
                    roots.push(id);
                    tuples.push(id);
                }
            }
            // Persist an RDD backbone array (pretenured per the policy).
            35..=44 => {
                if arrays.len() < MAX_ARRAYS {
                    let slots = rng.random_range(96usize..448);
                    let rdd = next_rdd;
                    next_rdd += 1;
                    let id =
                        gc.alloc_rdd_array(&mut heap, &roots, rdd, slots, random_tag(&mut rng));
                    roots.push(id);
                    arrays.push((id, slots));
                    rdds.push(rdd);
                }
            }
            // Link a tuple into an array (the old-to-young stores the
            // card table exists for).
            45..=59 => {
                let arr = arrays
                    .iter()
                    .find(|(id, cap)| heap.obj(*id).refs.len() < *cap)
                    .map(|(id, _)| *id);
                if let (Some(arr), Some(t)) = (arr, pick(&mut rng, &tuples)) {
                    heap.push_ref(arr, t);
                }
            }
            // Overwrite an existing ref slot through the barrier.
            60..=64 => {
                let src = pick(&mut rng, &tuples).filter(|id| !heap.obj(*id).refs.is_empty());
                if let (Some(src), Some(t)) = (src, pick(&mut rng, &tuples)) {
                    let slot = rng.random_range(0usize..heap.obj(src).refs.len());
                    heap.set_ref(src, slot, t);
                }
            }
            // Mutate a payload in place (charges a write, moves no refs).
            65..=69 => {
                if let Some(id) = pick(&mut rng, &tuples) {
                    heap.write_payload(id, Payload::Long(rng.random_range(0i64..1 << 32)));
                }
            }
            // Heat an RDD past the hot threshold so major GCs plan
            // migrations toward the (small, often full) DRAM old space.
            70..=76 => {
                for _ in 0..rng.random_range(2usize..10) {
                    if let Some(rdd) = pick(&mut rng, &rdds) {
                        for _ in 0..5 {
                            gc.record_rdd_call(&mut heap, rdd);
                        }
                    }
                }
            }
            // Unpersist: drop a root, letting the object become garbage.
            77..=83 => {
                if rng.random::<bool>() {
                    if let Some(id) = pick(&mut rng, &tuples) {
                        roots.remove(id);
                        tuples.retain(|t| *t != id);
                    }
                } else if let Some((id, _)) = pick(&mut rng, &arrays) {
                    roots.remove(id);
                    arrays.retain(|(a, _)| *a != id);
                }
            }
            // A burst of unrooted garbage to churn eden.
            84..=87 => {
                for _ in 0..10 {
                    gc.alloc_young(
                        &mut heap,
                        &roots,
                        ObjKind::Control,
                        MemTag::None,
                        vec![],
                        Payload::Long(0),
                    );
                }
            }
            // Collections (each re-verifies at entry and exit).
            88..=93 => gc.minor_gc(&mut heap, &roots),
            94..=96 => gc.maybe_major(&mut heap, &roots),
            _ => gc.major_gc(&mut heap, &roots),
        }
    }
    gc.major_gc(&mut heap, &roots);
    if let Err(e) = heap.verify(&roots, VerifyPoint::Manual) {
        panic!("seed {rng_seed}/{mode}: final verification failed: {e}");
    }
}

fn pick<T: Copy>(rng: &mut StdRng, from: &[T]) -> Option<T> {
    if from.is_empty() {
        None
    } else {
        Some(from[rng.random_range(0usize..from.len())])
    }
}

fn random_tag(rng: &mut StdRng) -> MemTag {
    match rng.random_range(0u32..10) {
        0..=2 => MemTag::Dram,
        3 | 4 => MemTag::Nvm,
        _ => MemTag::None,
    }
}

/// Differential checks: the report must not see the observer, the
/// verifier, or narrow-stage fusion.
fn differential(quick: bool) {
    const SCALE: f64 = 0.06;
    const SEED: u64 = 13;
    let ids: &[WorkloadId] = if quick {
        &[WorkloadId::Tc]
    } else {
        &[WorkloadId::Tc, WorkloadId::Pr]
    };
    for id in ids {
        for mode in MemoryMode::ALL {
            let run = |observe: bool, fuse: bool, verify: bool| -> String {
                let w = build_workload(*id, SCALE, SEED);
                let mut cfg = SystemConfig::new(mode, 8 * SIM_GB, 1.0 / 3.0);
                cfg.verify_heap = verify;
                if observe {
                    cfg.observer =
                        Observer::with_sink(Rc::new(RefCell::new(RingBufferSink::new(1024))));
                }
                let ecfg = EngineConfig {
                    fuse_narrow: fuse,
                    ..EngineConfig::default()
                };
                let run = RunBuilder::new(&w.program, w.fns, w.data)
                    .config(cfg)
                    .engine(ecfg)
                    .run()
                    .unwrap_or_else(|e| panic!("{id}/{mode}: {e}"));
                run.report.to_json().to_compact()
            };
            let base = run(false, true, false);
            assert_eq!(
                base,
                run(true, true, false),
                "{id}/{mode}: observer-on changed the report"
            );
            assert_eq!(
                base,
                run(false, false, false),
                "{id}/{mode}: unfused run changed the report"
            );
            assert_eq!(
                base,
                run(false, true, true),
                "{id}/{mode}: verifier-on changed the report"
            );
            println!("  differential: {id}/{mode} bit-identical across observer/fusion/verifier");
        }
    }
}

/// Cluster dimension: random executor counts with the verifier on in
/// every executor's heap, a random shuffle transport, a random off-heap
/// region setting, and a random region-arena setting. Checks host-thread
/// invisibility at the drawn `(E, transport, offheap, regions)`,
/// transport/region transparency of the action results, and
/// record-identity of the `E = 1` cluster vs the legacy path.
fn cluster_differential(quick: bool) {
    const SCALE: f64 = 0.05;
    let rounds = if quick { 2u64 } else { 6 };
    for round in 0..rounds {
        let mut rng = StdRng::seed_from_u64(0xC1A5 + round);
        let executors = rng.random_range(1u32..5) as u16;
        let mode = MemoryMode::ALL[rng.random_range(0usize..MemoryMode::ALL.len())];
        let id = if rng.random::<bool>() {
            WorkloadId::Tc
        } else {
            WorkloadId::Pr
        };
        let data_seed = rng.random_range(0u64..1 << 20);
        let transport = if rng.random::<bool>() {
            ShuffleTransport::SharedRegion
        } else {
            ShuffleTransport::Serde
        };
        let offheap = rng.random::<bool>();
        let regions = rng.random::<bool>();
        let build = move || {
            let w = build_workload(id, SCALE, data_seed);
            (w.program, w.fns, w.data)
        };
        let cluster = |e: u16,
                       host_threads: usize,
                       transport: ShuffleTransport,
                       offheap: bool,
                       regions: bool| {
            let mut cfg = SystemConfig::new(mode, 8 * SIM_GB, 1.0 / 3.0);
            cfg.executors = e;
            cfg.verify_heap = true;
            cfg.transport = transport;
            cfg.offheap_cache = offheap;
            cfg.region_alloc = regions;
            // An empty fault plan pins the cluster driver even at E = 1.
            let none = FaultPlan::none();
            RunBuilder::from_build(&build)
                .config(cfg)
                .host_threads(host_threads)
                .faults(&none)
                .run()
                .unwrap_or_else(|e| panic!("round {round}: {e}"))
        };
        let serial = cluster(executors, 1, transport, offheap, regions);
        let threaded = cluster(
            executors,
            usize::from(executors),
            transport,
            offheap,
            regions,
        );
        assert_eq!(
            serial.report.to_json().to_compact(),
            threaded.report.to_json().to_compact(),
            "round {round} ({id}/{mode} E={executors} {transport:?} offheap={offheap} \
             regions={regions}): report depends on host threads"
        );
        // Neither the transport, the off-heap region, nor region arenas
        // may change a value: the drawn combination's results must equal
        // the plain serde / traced-heap run.
        let plain = cluster(
            executors,
            usize::from(executors),
            ShuffleTransport::Serde,
            false,
            false,
        );
        assert_eq!(
            plain.results.len(),
            threaded.results.len(),
            "round {round} ({id}/{mode} E={executors}): action count"
        );
        for (a, b) in plain.results.iter().zip(threaded.results.iter()) {
            assert_eq!(
                a, b,
                "round {round} ({id}/{mode} E={executors} {transport:?} offheap={offheap} \
                 regions={regions}): output diverged from the serde/traced-heap run"
            );
        }
        // Blocks must drain exactly in whichever counter family they
        // count in; a family no block counts in is all zeros.
        let e = &threaded.report.exec;
        for (family, allocs, frees, leaks, dead) in [
            (
                "off-heap",
                e.offheap_allocs,
                e.offheap_frees,
                e.offheap_leaks,
                e.offheap_dead_reads,
            ),
            (
                "arena",
                e.region_allocs,
                e.region_frees,
                e.region_leaks,
                e.region_dead_reads,
            ),
        ] {
            assert!(
                frees == allocs && leaks == 0 && dead == 0,
                "round {round} ({id}/{mode}): {family} blocks must drain \
                 (allocs={allocs} frees={frees} leaks={leaks} dead reads={dead})"
            );
        }
        let single = if executors == 1 {
            serial
        } else {
            cluster(1, 1, transport, offheap, regions)
        };
        let w = build_workload(id, SCALE, data_seed);
        let mut cfg = SystemConfig::new(mode, 8 * SIM_GB, 1.0 / 3.0);
        cfg.verify_heap = true;
        cfg.transport = transport;
        cfg.offheap_cache = offheap;
        cfg.region_alloc = regions;
        let legacy = RunBuilder::new(&w.program, w.fns, w.data)
            .config(cfg)
            .run()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert_eq!(
            single.results.len(),
            legacy.results.len(),
            "round {round} ({id}/{mode}): action count"
        );
        for (a, b) in single.results.iter().zip(legacy.results.iter()) {
            assert_eq!(
                a, b,
                "round {round} ({id}/{mode}): E=1 cluster output diverged from legacy"
            );
        }
        println!(
            "  cluster: round {round} {id}/{mode} E={executors} {transport:?} \
             offheap={offheap} regions={regions} verified — host-thread, \
             transport, and region invariants + E=1 record-identity hold"
        );
    }
}

/// How a fault round draws its plan.
#[derive(Clone, Copy)]
enum Faults {
    /// 0-2 executor crashes at random statement barriers, plus message
    /// losses and transient allocation faults.
    AtBarriers,
    /// 1-3 virtual-time crash points drawn uniformly over the fault-free
    /// run's virtual duration, so executors die between barriers —
    /// mid-stage, between a journal `begin` and its deposit, after a
    /// deposit but before its `commit`, inside a checkpoint save, and
    /// inside a still-open recovery window.
    Anywhere,
}

/// Fault and crash-anywhere dimensions: random deterministic fault plans
/// against the cluster runner under a random recovery policy, heap
/// verifier on in every (including restarted) executor heap. Results
/// must be bit-identical to the fault-free run and, for the drawn plan,
/// the merged report host-thread invariant.
fn fault_differential(quick: bool, faults: Faults) {
    const SCALE: f64 = 0.05;
    let (what, seed) = match faults {
        Faults::AtBarriers => ("faults", 0xFA07),
        Faults::Anywhere => ("crash-anywhere", 0xA272_0000),
    };
    let rounds = if quick { 4u64 } else { 10 };
    let mut noops = 0u64;
    let mut torn = 0u64;
    for round in 0..rounds {
        let mut rng = StdRng::seed_from_u64(seed + round);
        let executors = rng.random_range(1u32..5) as u16;
        let id = if rng.random::<bool>() {
            WorkloadId::Tc
        } else {
            WorkloadId::Pr
        };
        let data_seed = rng.random_range(0u64..1 << 20);
        let policy = if rng.random::<bool>() {
            RecoveryPolicy::Recompute
        } else {
            RecoveryPolicy::CheckpointEvery(rng.random_range(1u32..4))
        };
        let build = move || {
            let w = build_workload(id, SCALE, data_seed);
            (w.program, w.fns, w.data)
        };
        let cluster = |host_threads: usize, plan: &FaultPlan| {
            let mut cfg = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
            cfg.executors = executors;
            cfg.recovery = policy;
            cfg.verify_heap = true;
            RunBuilder::from_build(&build)
                .config(cfg)
                .host_threads(host_threads)
                .faults(plan)
                .run()
                .unwrap_or_else(|e| panic!("{what} round {round}: {e}"))
        };
        // The fault-free run both sets the acceptance baseline and
        // bounds the virtual-time window crash points are drawn from.
        let clean = cluster(usize::from(executors), &FaultPlan::none());
        let spec = match faults {
            Faults::AtBarriers => FaultSpec {
                crashes: rng.random_range(0u32..3),
                barrier_lo: 1,
                barrier_hi: 8,
                max_losses: 2,
                max_alloc_faults: 2,
                ..FaultSpec::default()
            },
            Faults::Anywhere => FaultSpec {
                crashes: 0,
                max_losses: rng.random_range(0u32..3),
                max_alloc_faults: rng.random_range(0u32..3),
                vcrashes: rng.random_range(1u32..4),
                vtime_lo_ns: 0.0,
                vtime_hi_ns: clean.report.elapsed_s * 1e9,
                ..FaultSpec::default()
            },
        };
        let plan = FaultPlan::generate(rng.random::<u64>(), executors, spec);
        let faulted = cluster(usize::from(executors), &plan);
        assert_eq!(
            clean.results.len(),
            faulted.results.len(),
            "{what} round {round} ({id} E={executors} {policy:?}): action count"
        );
        for (a, b) in clean.results.iter().zip(faulted.results.iter()) {
            assert_eq!(
                a, b,
                "{what} round {round} ({id} E={executors} {policy:?} \
                 points={:?}): output diverged from fault-free run",
                plan.vcrashes
            );
        }
        let serial = cluster(1, &plan);
        assert_eq!(
            serial.report.to_json().to_compact(),
            faulted.report.to_json().to_compact(),
            "{what} round {round} ({id} E={executors} {policy:?}): \
             report depends on host threads"
        );
        let rec = faulted.report.recovery;
        noops += rec.journal_noops;
        torn += rec.journal_torn;
        let outcome = match faults {
            Faults::AtBarriers => format!(
                "{} crash(es), {} loss(es), {} alloc fault(s) recovered",
                rec.executor_crashes, rec.messages_lost, rec.alloc_faults
            ),
            Faults::Anywhere => format!(
                "{}/{} point(s) fired, {} journal no-op(s), {} torn entr(ies)",
                rec.executor_crashes,
                plan.vcrashes.len(),
                rec.journal_noops,
                rec.journal_torn
            ),
        };
        println!(
            "  {what}: round {round} {id} E={executors} {policy:?} — {outcome}, results identical"
        );
    }
    if let Faults::Anywhere = faults {
        // The dimension is vacuous if replays never re-issue a journaled
        // deposit; torn entries are rarer (the crash must land inside the
        // begin→commit window) but must appear over a full run.
        assert!(noops > 0, "no replay ever re-validated a committed deposit");
        if !quick {
            assert!(torn > 0, "no crash ever landed inside a journal window");
        }
    }
}

/// Streaming dimension: random micro-batch stream shapes driven under
/// all three re-tagging policies. Placement must never change a window
/// output, and a driver crash at a random batch boundary must replay its
/// latency prefix bit-identically from the seed alone.
fn streaming_differential(quick: bool) {
    let rounds = if quick { 2u64 } else { 6 };
    for round in 0..rounds {
        let mut rng = StdRng::seed_from_u64(0x57EA_0000 + round);
        let mut spec = StreamSpec::small(rng.random::<u64>());
        spec.name = format!("fuzz-stream-{round}");
        spec.batches = rng.random_range(4u32..11);
        spec.datasets = rng.random_range(2u32..5);
        spec.drift_period = rng.random_range(1u32..4);
        let width = rng.random_range(1u32..4);
        spec.window = if rng.random::<bool>() {
            WindowSpec::Tumbling(width)
        } else {
            WindowSpec::Sliding(width)
        };
        spec.accesses_per_batch = rng.random_range(2u32..6);
        let builder =
            StreamBuilder::new(spec.clone()).policy(RetagPolicy::Online { hysteresis: 1 });
        let cmp = builder
            .compare()
            .unwrap_or_else(|e| panic!("stream round {round} ({spec:?}): {e}"));
        assert!(
            cmp.outputs_identical(),
            "stream round {round} ({spec:?}): a re-tagging policy changed a window output"
        );
        let crash_after = rng.random_range(1u32..spec.batches);
        let prefix = builder
            .run_prefix(crash_after)
            .unwrap_or_else(|e| panic!("stream round {round}: {e}"));
        assert_eq!(
            prefix.as_slice(),
            &cmp.online.batch_latency_ns[..crash_after as usize],
            "stream round {round} ({spec:?}): crash after batch {crash_after} \
             did not replay its latency prefix"
        );
        println!(
            "  streaming: round {round} {:?} x{} batches drift={} — outputs identical \
             across policies ({} online retag(s)), crash@{crash_after} prefix replays",
            spec.window, spec.batches, spec.drift_period, cmp.online.retags
        );
    }
}
