//! The per-layer phase (`--trace 1`): warm untraced runs (whose fastest
//! is `host_s`), one traced run, exact counters, and direct drives of
//! single layers.
//!
//! Every number has one of three sources, named in `names::PER_LAYER`
//! by its clock:
//!
//! * **T** (host): spans of the traced run (`trace`). On the cluster
//!   workloads the program buffers executor events until the run is
//!   over, so there is no host split to report and every T metric reads
//!   0 there; the host picture comes from the D metrics instead.
//! * **C** (count / virtual): counters read from the run's reports. They
//!   repeat exactly for one seed and compare exactly across commits.
//! * **D** (host): a timed drive of the layer's public functions from
//!   here, sized from the workload's own counters.

use crate::check::Checks;
use crate::e2e::{check_run, same_answers, same_run};
use crate::procstat::timed;
use crate::stats::{median, summarize, Summary};
use crate::trace::{HostSpanSink, Trace};
use crate::workload::{
    crash_plan, generate, generator_drive, run, sample_program, storage_leaks, system_config, Kind,
    RunOpts, RunOutput, SERVICE_JOBS,
};
use gc::GcCoordinator;
use hybridmem::{AccessKind, AccessProfile, DeviceKind, MemorySystem};
use mheap::{Heap, MemTag, ObjKind, Payload, RootSet};
use obs::{EventSink, JsonlSink, MetricsAggregator, Observer};
use panthera::MemoryMode;
use panthera_analysis::analyze;
use sparklang::ast::MemoryTag;
use sparklang::{parse, Pretty};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Untraced runs: `host_s` is the fastest of them, and the traced run is
/// compared against their median.
const UNTRACED_RUNS: usize = 5;
/// Repetitions of the short parser, analysis and generator drives.
const PARSE_REPS: usize = 100;
const BUILD_REPS: usize = 5;
/// Cap on objects one pass of the allocator drive allocates.
const ALLOC_CAP: u64 = 2_000_000;
/// Calls one pass of the memory-system drive makes.
const ACCESS_OPS: u64 = 1_000_000;
/// Passes of those two drives; the median pass is reported.
const DRIVE_PASSES: usize = 5;

pub struct Layers {
    /// `(metric name, value)` for every `names::PER_LAYER` entry.
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Checks,
    /// The untraced runs behind `host_s`.
    pub host: Summary,
    pub cpu_is_wall: bool,
    /// The traced run's spans and counts, for the trace file.
    pub trace: Trace,
    /// Host wall clock read around the traced run, independently of the
    /// trace's own clock.
    pub traced_wall_s: f64,
}

fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    median_of(reps, || {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e6
    })
}

fn median_of(reps: usize, sample: impl FnMut() -> f64) -> f64 {
    median(
        &std::iter::repeat_with(sample)
            .take(reps)
            .collect::<Vec<_>>(),
    )
}

/// Allocate tuples of the run's mean object size through the full
/// coordinator path (bump allocation plus the collections a filling eden
/// triggers) on the workload's own heap geometry, nothing rooted.
fn alloc_ns_per_obj(kind: Kind, reference: &RunOutput) -> f64 {
    let heap_stats = &reference.report.heap;
    let objects = heap_stats.young_allocs + heap_stats.pretenured_allocs;
    if heap_stats.young_allocs == 0 {
        return 0.0;
    }
    let cfg = system_config(kind, MemoryMode::Panthera, None);
    let n = heap_stats.young_allocs.min(ALLOC_CAP);
    median_of(DRIVE_PASSES, || {
        let mut heap = Heap::new(cfg.heap_config(), cfg.mem_config()).expect("the run's own heap");
        let mut gc = GcCoordinator::new(cfg.policy());
        let roots = RootSet::new();
        let mut alloc = |heap: &mut Heap, payload: Payload| {
            gc.alloc_young(heap, &roots, ObjKind::Tuple, MemTag::None, vec![], payload)
        };
        // Size of a tuple with an empty buffer, to pad up to the mean from.
        let probe = alloc(&mut heap, Payload::Bytes { len: 0 });
        let payload = Payload::Bytes {
            len: (heap_stats.allocated_bytes / objects).saturating_sub(heap.obj(probe).size),
        };
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(alloc(&mut heap, payload.clone()));
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    })
}

/// Charge accesses and compute time on the workload's memory system:
/// what the engine pays per record, half on each device.
fn access_ns_per_op(kind: Kind) -> f64 {
    let cfg = system_config(kind, MemoryMode::Panthera, None);
    median_of(DRIVE_PASSES, || {
        access_pass(MemorySystem::new(cfg.mem_config()))
    })
}

fn access_pass(mut mem: MemorySystem) -> f64 {
    let profile = AccessProfile::mutator();
    let t0 = Instant::now();
    for i in 0..ACCESS_OPS {
        let device = if i % 2 == 0 {
            DeviceKind::Dram
        } else {
            DeviceKind::Nvm
        };
        let access = if i % 4 < 2 {
            AccessKind::Read
        } else {
            AccessKind::Write
        };
        mem.access_device(device, access, 64 + (i % 7) * 32, profile);
        mem.compute(25.0);
    }
    black_box(mem.clock().now_ns());
    t0.elapsed().as_nanos() as f64 / ACCESS_OPS as f64
}

fn replay_ns_per_event(trace: &Trace, sink: &mut dyn EventSink) -> f64 {
    if trace.events.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    for (t_ns, exec, event) in &trace.events {
        sink.on_event_from(*t_ns, *exec, event);
    }
    t0.elapsed().as_nanos() as f64 / trace.events.len() as f64
}

/// Run the per-layer phase.
pub fn layers(kind: Kind, seed: u64) -> Layers {
    let mut checks = Checks::default();
    let fault_free = RunOpts::plain();
    let timed_run = |opts: RunOpts<'_>| {
        let inputs = generate(kind, seed);
        timed(|| run(kind, seed, inputs, opts))
    };

    // Warm-up; for cluster_crash also the fault-free twin (twice: the
    // second, warm, sample is what recovery overhead is measured against).
    let warm = timed_run(fault_free);
    let plan = (kind == Kind::ClusterCrash).then(|| crash_plan(warm.value.sim.elapsed_s));
    let clean = plan.as_ref().map(|_| timed_run(fault_free));
    let opts = RunOpts {
        faults: plan.as_ref(),
        ..fault_free
    };

    // Untraced reference runs.
    let untraced: Vec<_> = (0..UNTRACED_RUNS).map(|_| timed_run(opts)).collect();
    let host = summarize(&untraced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let cpu = summarize(&untraced.iter().map(|t| t.cpu_s).collect::<Vec<_>>());
    let (host_s, cpu_s) = (host.median, cpu.median);
    let reference = &untraced[0].value;
    check_run(&mut checks, kind, reference);
    for t in &untraced[1..] {
        same_run(&mut checks, "untraced runs identical", reference, &t.value);
    }
    if let Some(clean) = &clean {
        same_answers(
            &mut checks,
            "crashed answers equal the fault-free run's",
            &clean.value,
            reference,
        );
    }

    // The traced run. The sink's clock starts after the inputs exist, so
    // the trace covers exactly what `traced.wall_s` covers.
    let inputs = generate(kind, seed);
    let sink = Rc::new(RefCell::new(if kind.clustered() {
        HostSpanSink::virtual_only()
    } else {
        HostSpanSink::live()
    }));
    let observer = Observer::with_sink(sink.clone());
    let traced_opts = RunOpts {
        observer: Some(&observer),
        ..opts
    };
    let traced = timed(|| run(kind, seed, inputs, traced_opts));
    let trace = sink.replace(HostSpanSink::virtual_only()).finish();
    drop(observer);
    same_run(
        &mut checks,
        "traced run identical to untraced",
        reference,
        &traced.value,
    );
    let p = trace.profile();
    let s = |ns: u64| ns as f64 / 1e9;
    if trace.host {
        let parts = s(p.stage_self_ns + p.minor_gc_ns + p.major_gc_ns + p.nonstage_ns);
        checks.check(
            "trace parts sum to the traced wall within 2%",
            (parts - traced.wall_s).abs() <= 0.02 * traced.wall_s,
            || format!("parts {parts} s vs wall {} s", traced.wall_s),
        );
    }

    // One extra run on a single host thread.
    let ht1 = kind.uses_host_threads().then(|| {
        let t = timed_run(RunOpts {
            host_threads: 1,
            ..opts
        });
        same_run(
            &mut checks,
            "report identical at host_threads 1 vs N",
            reference,
            &t.value,
        );
        t.wall_s
    });

    // Direct drives.
    let build_ms = median_us(BUILD_REPS, || generator_drive(kind, seed)) / 1e3;
    let program = sample_program(kind, seed);
    let mut parse_ok = true;
    let parse_us = median_us(PARSE_REPS, || {
        let text = Pretty(&program).to_string();
        parse_ok &= black_box(parse(&text)).is_ok();
    });
    checks.check("pretty-printed program parses back", parse_ok, || {
        "sparklang::parse rejected sparklang::Pretty output".into()
    });
    let infer_us = median_us(PARSE_REPS, || {
        black_box(analyze(&program));
    });
    let tags = analyze(&program).tags;
    let tagged = |t: MemoryTag| tags.vars.values().filter(|v| v.tag == Some(t)).count() as f64;
    let mut aggregator = MetricsAggregator::new();
    let aggregate_ns = replay_ns_per_event(&trace, &mut aggregator);
    let mut jsonl = JsonlSink::new(Vec::<u8>::new());
    let jsonl_ns = replay_ns_per_event(&trace, &mut jsonl);
    checks.check(
        "obs replay saw every event",
        aggregator.events_seen() == trace.events.len() as u64
            && jsonl.lines_written() == trace.events.len() as u64,
        || "a replay sink dropped events".into(),
    );

    let r = &reference.report;
    let rec = &r.recovery;
    let exec_elapsed: Vec<f64> = reference.per_executor.iter().map(|e| e.elapsed_s).collect();
    let skew = if exec_elapsed.is_empty() {
        1.0
    } else {
        let max = exec_elapsed.iter().copied().fold(0.0, f64::max);
        max / (exec_elapsed.iter().sum::<f64>() / exec_elapsed.len() as f64)
    };
    let device_bytes = (r.device_bytes[0] + r.device_bytes[1]) as f64;
    let minor_ms: Vec<f64> = p.minor_gc_each_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let batch_ms: Vec<f64> = p.batch_each_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let frac = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let service = reference.service.as_ref();
    let stream = reference.stream.as_ref();
    let ms = |ns: f64| ns / 1e6;

    let metrics = vec![
        ("sim_gc_s", reference.sim.gc_s),
        ("sim_max_pause_ms", reference.sim.max_pause_ms),
        // The fastest run: every run does bit-identical work, so what
        // differs between them is what the host's other tenants took.
        ("host_s", host.min),
        ("host_cpu_s", cpu.min),
        ("workloads.build_ms", build_ms),
        ("sparklang.parse_us", parse_us),
        ("analysis.infer_us", infer_us),
        ("analysis.tagged_dram", tagged(MemoryTag::Dram)),
        ("analysis.tagged_nvm", tagged(MemoryTag::Nvm)),
        ("sparklet.stage_host_s", s(p.stage_ns)),
        ("sparklet.self_host_s", s(p.stage_self_ns)),
        (
            "sparklet.self_ns_per_record",
            frac(p.stage_self_ns as f64, r.exec.records_streamed as f64),
        ),
        ("sparklet.records_streamed", r.exec.records_streamed as f64),
        ("sparklet.shuffles", r.exec.shuffles as f64),
        ("sparklet.shuffle_bytes", r.exec.shuffle_bytes as f64),
        ("sparklet.materializations", r.exec.materializations as f64),
        ("sparklet.evictions", r.exec.evictions as f64),
        ("sparklet.sim_mutator_s", r.mutator_s),
        ("mheap.alloc_ns_per_obj", alloc_ns_per_obj(kind, reference)),
        ("mheap.young_allocs", r.heap.young_allocs as f64),
        ("mheap.pretenured_allocs", r.heap.pretenured_allocs as f64),
        ("mheap.allocated_bytes", r.heap.allocated_bytes as f64),
        ("mheap.cards_dirtied", r.heap.cards_dirtied as f64),
        ("mheap.offheap_allocs", r.exec.offheap_allocs as f64),
        ("mheap.region_allocs", r.exec.region_allocs as f64),
        ("mheap.region_stage_bytes", r.exec.region_stage_bytes as f64),
        ("mheap.storage_leaks", storage_leaks(r) as f64),
        ("gc.minor_host_s", s(p.minor_gc_ns)),
        ("gc.minor_host_ms_p50", median(&minor_ms)),
        (
            "gc.minor_host_ms_max",
            minor_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("gc.major_host_s", s(p.major_gc_ns)),
        (
            "gc.host_frac",
            frac((p.minor_gc_ns + p.major_gc_ns) as f64, p.wall_ns as f64),
        ),
        ("gc.minor_count", r.gc.minor_count as f64),
        ("gc.major_count", r.gc.major_count as f64),
        ("gc.cards_scanned", r.gc.cards_scanned as f64),
        ("gc.survivor_copies", r.gc.survivor_copies as f64),
        ("gc.promotions", r.gc.total_promotions() as f64),
        ("gc.rdds_migrated", r.gc.rdds_migrated as f64),
        ("gc.sim_minor_s", r.minor_gc_s),
        ("gc.sim_major_s", r.major_gc_s),
        (
            "gc.sim_minor_pause_p90_ms",
            ms(r.minor_pauses.quantile_ns(0.90)),
        ),
        ("hybridmem.access_ns_per_op", access_ns_per_op(kind)),
        ("hybridmem.dram_bytes", r.device_bytes[0] as f64),
        ("hybridmem.nvm_bytes", r.device_bytes[1] as f64),
        (
            "hybridmem.dram_byte_frac",
            frac(r.device_bytes[0] as f64, device_bytes),
        ),
        (
            "hybridmem.traffic_windows",
            r.traffic.windows().len() as f64,
        ),
        ("core.nonstage_host_s", s(p.nonstage_ns)),
        ("core.monitored_calls", r.monitored_calls as f64),
        ("cluster.host_threads", fault_free.host_threads as f64),
        ("cluster.host_parallelism", frac(cpu_s, host_s)),
        ("cluster.host_s_ht1", ht1.unwrap_or(host_s)),
        ("cluster.ht_speedup", ht1.map_or(1.0, |t| frac(t, host_s))),
        ("cluster.sim_skew", skew),
        ("cluster.fastpath_bytes", r.exec.fastpath_bytes as f64),
        ("recovery.executor_crashes", rec.executor_crashes as f64),
        ("recovery.journal_noops", rec.journal_noops as f64),
        (
            "recovery.partitions_restored",
            rec.partitions_restored as f64,
        ),
        (
            "recovery.partitions_recomputed",
            rec.partitions_recomputed as f64,
        ),
        ("recovery.checkpoint_bytes", rec.checkpoint_bytes as f64),
        ("recovery.sim_recovery_s", rec.recovery_s),
        (
            "recovery.sim_overhead_frac",
            clean.as_ref().map_or(0.0, |c| {
                reference.sim.elapsed_s / c.value.sim.elapsed_s - 1.0
            }),
        ),
        (
            "recovery.host_overhead_frac",
            clean.as_ref().map_or(0.0, |c| host_s / c.wall_s - 1.0),
        ),
        ("jobs.queue_p50_s", service.map_or(0.0, |v| v.queue_p50_s)),
        ("jobs.queue_p99_s", service.map_or(0.0, |v| v.queue_p99_s)),
        ("jobs.jobs_per_sim_s", service.map_or(0.0, |v| v.jobs_per_s)),
        (
            "jobs.preemptions",
            service.map_or(0.0, |v| v.preemptions as f64),
        ),
        (
            "jobs.max_vtime_spread_s",
            service.map_or(0.0, |v| v.max_vtime_spread_s),
        ),
        (
            "jobs.finished",
            service.map_or(0.0, |v| {
                v.jobs
                    .iter()
                    .filter(|j| j.outcome == panthera_jobs::JobOutcome::Finished)
                    .count() as f64
            }),
        ),
        (
            "jobs.host_ms_per_job",
            service.map_or(0.0, |_| host_s * 1e3 / SERVICE_JOBS as f64),
        ),
        (
            "stream.batch_p50_ms",
            stream.map_or(0.0, |v| ms(v.latency_quantile_ns(0.50))),
        ),
        (
            "stream.batch_p99_ms",
            stream.map_or(0.0, |v| ms(v.latency_quantile_ns(0.99))),
        ),
        ("stream.retags", stream.map_or(0.0, |v| f64::from(v.retags))),
        (
            "stream.migrations",
            stream.map_or(0.0, |v| v.migrations as f64),
        ),
        (
            "stream.dram_byte_frac",
            stream.map_or(0.0, |v| v.dram_byte_frac),
        ),
        ("stream.batch_host_ms_p50", median(&batch_ms)),
        ("stream.policy_host_s", s(trace.policy_gap_ns)),
        ("obs.events", trace.events.len() as f64),
        ("obs.trace_overhead_frac", traced.wall_s / host_s - 1.0),
        ("obs.aggregate_ns_per_event", aggregate_ns),
        ("obs.jsonl_ns_per_event", jsonl_ns),
    ];
    for (name, v) in &metrics {
        checks.check("metric is a number", v.is_finite(), || {
            format!("{name} = {v}")
        });
    }
    Layers {
        metrics,
        checks,
        host,
        cpu_is_wall: untraced.iter().any(|t| t.cpu_is_wall),
        traced_wall_s: traced.wall_s,
        trace,
    }
}
