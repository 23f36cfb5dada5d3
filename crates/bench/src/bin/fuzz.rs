//! Deterministic fuzzer: random heap schedules with the verifier on,
//! and one seeded matrix of whole runs checked against the sparklang
//! reference interpreter ([`panthera_bench::oracle`]).
//!
//! Three parts, each driven by `--seeds N`:
//!
//! 1. **Heap schedules** — for each seed and each [`MemoryMode`], drive a
//!    small heap through a random schedule of allocations, reference
//!    stores, record writes, persists/unpersists, and collections, with
//!    the collector built by [`gc::GcCoordinator::with_verify`] so every
//!    minor/major GC entry and exit re-checks the full invariant set
//!    (DESIGN.md §7). A violation panics with the typed `VerifyError`,
//!    which makes the binary exit non-zero.
//! 2. **The matrix** — one round per seed draws a program (one of the
//!    seven workloads, or [`every_transform`]) and a run: memory mode,
//!    executors `E` in `1..=4`, driver (lone [`RunBuilder::new`] or
//!    [`RunBuilder::from_build`]), shuffle transport, off-heap H2 and
//!    region arenas, partitions, fusion, observer, heap verifier,
//!    recovery policy, and faults (none, 0-2 crashes at statement
//!    barriers, or 1-3 crash points anywhere in virtual time, each with
//!    message losses and allocation faults). A `collect()` of every
//!    variable is appended to the program, less any that the oracle finds
//!    would re-run a closure writing shared state
//!    ([`oracle::with_collects`]). The round asserts that the
//!    action results equal the oracle's; that the report is bit-identical
//!    to a twin run with observer, fusion and verifier flipped on one
//!    host thread; and that off-heap and arena blocks drain exactly. Over
//!    all rounds some replay must re-validate a journaled deposit as a
//!    no-op, and without `--quick` some crash must tear a journal entry.
//! 3. **Streams** — random micro-batch stream shapes driven under all
//!    three [`panthera_stream::RetagPolicy`] arms: window outputs must be
//!    byte-identical across the policies and equal to the oracle's over
//!    the same stream program, and a driver crash at a random batch
//!    boundary must replay its latency prefix bit-identically.
//!
//! Seed protocol: everything is drawn from the vendored xoshiro256++
//! [`rand::rngs::StdRng`]; heap schedules are seeded with
//! `seed * 5 + mode_index`, and every matrix and stream round prints its
//! drawn configuration on one line, so a failure reproduces with
//! `--seeds` covering its seed. `--seeds N` (default 32) sets the number
//! of seeds; `--quick` only shortens the heap schedules and shrinks the
//! workloads.

use gc::GcCoordinator;
use mheap::{Heap, MemTag, ObjId, ObjKind, Payload, RootSet, VerifyPoint};
use panthera::cluster::{FaultPlan, FaultSpec};
use panthera::obs::{Observer, RingBufferSink};
use panthera::{MemoryMode, RecoveryPolicy, RunBuilder, SystemConfig, SIM_GB};
use panthera_bench::{every_transform, oracle};
use panthera_stream::{
    build_stream_program, digest_result, RetagPolicy, StreamBuilder, StreamSpec, WindowSpec,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sparklet::ShuffleTransport;
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
    let (ops, scale) = if quick { (150, 0.05) } else { (400, 0.1) };
    println!(
        "fuzz: {seeds} seeds x {} modes, {ops} ops/schedule, verifier on; \
         matrix rounds at workload scale {scale}",
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
    let (mut noops, mut torn) = (0, 0);
    for seed in 0..seeds {
        let (n, t) = matrix_round(seed, scale);
        noops += n;
        torn += t;
    }
    // The crash dimension is vacuous if replays never re-issue a
    // journaled deposit; torn entries are rarer (the crash must land
    // inside the begin→commit window) but must appear over a full run.
    assert!(
        noops > 0,
        "no replay in {seeds} rounds re-validated a committed deposit"
    );
    assert!(
        quick || torn > 0,
        "no crash in {seeds} rounds landed inside a journal window"
    );
    streaming_differential(seeds);
    println!("fuzz: all schedules, matrix rounds and stream rounds passed");
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
    let mut gc = GcCoordinator::with_verify(cfg.policy(), true);
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
            // Update a record in place (charges a write, moves no refs).
            65..=69 => {
                if let Some(id) = pick(&mut rng, &tuples) {
                    let v = rng.random_range(0i64..1 << 32);
                    heap.write_bytes(id, Payload::Long(v).model_bytes().max(8));
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

/// One matrix round: draw a program and a run configuration from `seed`,
/// run it, and check its action results against the [`oracle`], its
/// report against a twin run that flips the invisible axes (observer,
/// fusion, verifier, host threads), and its off-heap and arena blocks for
/// a full drain. Returns the run's journal `(no-ops, torn entries)`.
fn matrix_round(seed: u64, scale: f64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(0x3A7_0000 + seed);
    // The seven workloads, and at index 7 the program of every transform.
    let pick = rng.random_range(0..WorkloadId::ALL.len() + 1);
    let data_seed = rng.random_range(0u64..1 << 20);
    let mode = MemoryMode::ALL[rng.random_range(0..MemoryMode::ALL.len())];
    let mut cfg = SystemConfig::new(mode, 8 * SIM_GB, 1.0 / 3.0);
    // A lone `RunBuilder::new` runs one executor on the caller's thread
    // and takes no fault plan; `from_build` always passes one, which pins
    // the cluster driver even at E = 1.
    let lone = rng.random_range(0u32..4) == 0;
    let e = if lone {
        1
    } else {
        rng.random_range(1u32..5) as u16
    };
    cfg.executors = e;
    cfg.transport = match rng.random() {
        true => ShuffleTransport::SharedRegion,
        false => ShuffleTransport::Serde,
    };
    cfg.offheap_cache = rng.random();
    cfg.region_alloc = rng.random();
    cfg.partitions = rng.random_range(1usize..13);
    cfg.fuse_narrow = rng.random();
    cfg.verify_heap = rng.random();
    let observe: bool = rng.random();
    cfg.recovery = match rng.random() {
        true => RecoveryPolicy::Recompute,
        false => RecoveryPolicy::CheckpointEvery(rng.random_range(1u32..4)),
    };
    let faults = match lone {
        true => "none",
        false => ["none", "barriers", "anywhere"][rng.random_range(0usize..3)],
    };
    let name = WorkloadId::ALL
        .get(pick)
        .map_or("every-transform", |id| id.name());
    let what = format!(
        "round {seed}: {name} {mode} E={e} {} {:?} offheap={} regions={} parts={} fuse={} \
         observe={observe} verify={} {:?} faults={faults}",
        if lone { "lone" } else { "from_build" },
        cfg.transport,
        cfg.offheap_cache,
        cfg.region_alloc,
        cfg.partitions,
        cfg.fuse_narrow,
        cfg.verify_heap,
        cfg.recovery,
    );

    let source = move || match WorkloadId::ALL.get(pick) {
        Some(id) => {
            let w = build_workload(*id, scale, data_seed);
            (w.program, w.fns, w.data)
        }
        None => every_transform((2000.0 * scale) as usize, data_seed),
    };
    let (program, left_out) = oracle::with_collects(&source);
    let build = || {
        let (_, fns, data) = source();
        (program.clone(), fns, data)
    };
    let run = |twin: bool, plan: &FaultPlan| {
        let mut cfg = cfg.clone();
        if twin {
            cfg.fuse_narrow = !cfg.fuse_narrow;
            cfg.verify_heap = !cfg.verify_heap;
        }
        if observe != twin {
            cfg.observer = Observer::with_sink(Rc::new(RefCell::new(RingBufferSink::new(1024))));
        }
        let builder = match lone {
            true => {
                let (program, fns, data) = build();
                RunBuilder::new(&program, fns, data)
            }
            false => RunBuilder::from_build(&build).faults(plan),
        };
        let host_threads = if twin { 1 } else { usize::from(e) };
        (builder.config(cfg).host_threads(host_threads).run())
            .unwrap_or_else(|err| panic!("{what}: {err}"))
    };
    // Barrier faults crash 0-2 executors at statement barriers; crashes
    // anywhere draw 1-3 points over the fault-free run's virtual duration,
    // so executors also die mid-stage, mid-deposit, inside a checkpoint
    // save and inside an open recovery window. Both also lose messages
    // and fail allocations.
    let none = FaultPlan::none();
    let mut spec = FaultSpec {
        crashes: 0,
        max_losses: rng.random_range(0u32..3),
        max_alloc_faults: rng.random_range(0u32..3),
        ..FaultSpec::default()
    };
    match faults {
        "barriers" => spec.crashes = rng.random_range(0u32..3),
        "anywhere" => {
            spec.vcrashes = rng.random_range(1u32..4);
            spec.vtime_hi_ns = run(false, &none).report.elapsed_s * 1e9;
        }
        _ => {}
    }
    let plan = match faults {
        "none" => none,
        _ => FaultPlan::generate(rng.random(), e, spec),
    };

    let (_, fns, data) = source();
    let want = oracle::run(&program, &fns, &data);
    let (got, twin) = (run(false, &plan), run(true, &plan));
    for (side, r) in [("run", &got), ("twin", &twin)] {
        if let Some(diff) = oracle::first_difference(&r.results, &want) {
            panic!("{what}: the {side}'s {diff}");
        }
    }
    assert!(
        got.report.to_json().to_compact() == twin.report.to_json().to_compact(),
        "{what}: the report depends on observer, fusion, verifier or host threads"
    );
    // Blocks drain exactly in whichever family they count in.
    let x = &got.report.exec;
    assert_eq!(
        [x.offheap_frees, x.offheap_leaks, x.offheap_dead_reads],
        [x.offheap_allocs, 0, 0],
        "{what}: off-heap blocks must drain (frees, leaks, dead reads)"
    );
    assert_eq!(
        [x.region_frees, x.region_leaks, x.region_dead_reads],
        [x.region_allocs, 0, 0],
        "{what}: arena blocks must drain (frees, leaks, dead reads)"
    );
    let rec = got.report.recovery;
    println!(
        "  {what} — {} results equal the oracle's ({left_out} collect(s) left out), \
         twin identical, {} crash(es), {} loss(es), {} alloc fault(s), {} journal no-op(s), \
         {} torn",
        want.len(),
        rec.executor_crashes,
        rec.messages_lost,
        rec.alloc_faults,
        rec.journal_noops,
        rec.journal_torn
    );
    (rec.journal_noops, rec.journal_torn)
}

/// Stream rounds: random micro-batch stream shapes driven under all
/// three re-tagging policies. Placement must never change a window
/// output, the static run's window outputs must equal the oracle's over
/// the same stream program, and a driver crash at a random batch boundary
/// must replay its latency prefix bit-identically from the seed alone.
fn streaming_differential(rounds: u64) {
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
        let what = format!(
            "stream round {round}: {:?} x{} batches, {} datasets, drift={}, {} accesses/batch",
            spec.window, spec.batches, spec.datasets, spec.drift_period, spec.accesses_per_batch
        );
        let builder =
            StreamBuilder::new(spec.clone()).policy(RetagPolicy::Online { hysteresis: 1 });
        let cmp = builder.compare().unwrap_or_else(|e| panic!("{what}: {e}"));
        assert!(
            cmp.outputs_identical(),
            "{what}: a re-tagging policy changed a window output"
        );
        let stream = build_stream_program(&spec);
        let want: Vec<(String, u64)> = oracle::run(&stream.program, &stream.fns, &stream.data)
            .iter()
            .filter(|(name, _)| name.starts_with("win"))
            .map(|(name, r)| (name.clone(), digest_result(r)))
            .collect();
        assert!(
            cmp.static_run.window_outputs() == want,
            "{what}: a window output differs from the oracle's"
        );
        let crash_after = rng.random_range(1u32..spec.batches);
        let prefix = builder
            .run_prefix(crash_after)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            prefix.as_slice(),
            &cmp.online.batch_latency_ns[..crash_after as usize],
            "{what}: crash after batch {crash_after} did not replay its latency prefix"
        );
        println!(
            "  {what} — outputs identical across policies and equal to the oracle's \
             ({} online retag(s)), crash@{crash_after} prefix replays",
            cmp.online.retags
        );
    }
}
