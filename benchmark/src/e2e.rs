//! The end-to-end phase (`--trace 0`): what a user of the system sees,
//! measured with tracing off.
//!
//! Closed loop, one client: one run at a time from this one process. A
//! run of this system is a batch job that pays its own set-up, so the
//! unit measured is a complete set-up: generate inputs, then one complete
//! run from a fresh engine (program build, static analysis, lazy
//! initialisation, the run itself). Set-ups repeat until `--seconds` have
//! passed ([`SETUP_REPS`] at least), `setup_s` is their median, and every
//! one must produce the byte-identical report. One more run under
//! `MemoryMode::DramOnly` gives the paper's Figure 4 ratios and an
//! independent copy of the answers.
//!
//! The wall and CPU time of a warm run alone (`host_s`, `host_cpu_s`) are
//! reported by the per-layer phase, without a bound: on a shared host,
//! runs of bit-identical work spread by more than the widest bound the
//! manifest may carry (README, *Bounds*).

use crate::check::{check_golden, first_difference, Checks};
use crate::procstat::peak_rss_mb;
use crate::stats::{median, summarize, Summary};
use crate::workload::{
    crash_plan, generate, run, storage_leaks, Kind, RunOpts, RunOutput, SERVICE_JOBS,
};
use panthera::MemoryMode;
use panthera_jobs::JobOutcome;
use std::time::Instant;

/// Fewest set-ups behind `setup_s`, however short `--seconds` is.
pub const SETUP_REPS: usize = 3;
/// Upper limit on set-ups, so a mis-sized workload cannot make one
/// invocation's memory of samples grow without bound.
const MAX_REPS: usize = 64;

pub struct EndToEnd {
    /// `(metric name, value)` for every `names::END_TO_END` entry.
    pub metrics: Vec<(&'static str, f64)>,
    /// The set-ups behind `setup_s`.
    pub setups: Summary,
    pub checks: Checks,
}

/// Checks every run of `kind` must pass, whatever phase produced it.
pub fn check_run(checks: &mut Checks, kind: Kind, out: &RunOutput) {
    let leaks = storage_leaks(&out.report);
    checks.check("mheap.storage_leaks == 0", leaks == 0, || {
        format!("{leaks} off-heap/region leaks or dead reads")
    });
    if let Some(service) = &out.service {
        // One operation per job.
        for j in &service.jobs {
            checks.check("job finished", j.outcome == JobOutcome::Finished, || {
                format!("job {} ({}) {}", j.job, j.name, j.outcome.label())
            });
        }
        checks.check(
            "every submitted job is reported",
            service.jobs.len() as u64 == SERVICE_JOBS,
            || format!("{} of {SERVICE_JOBS}", service.jobs.len()),
        );
    }
    if kind == Kind::ClusterCrash {
        let r = &out.report.recovery;
        checks.check("a crash fired", r.executor_crashes >= 1, || {
            "no planned crash point fired".into()
        });
        checks.check(
            "replay validated journal no-ops",
            r.journal_noops > 0,
            || "journal_noops == 0".into(),
        );
    }
}

pub fn same_answers(checks: &mut Checks, name: &str, a: &RunOutput, b: &RunOutput) {
    checks.check(name, a.answers == b.answers, || {
        first_difference(&format!("{:?}", a.answers), &format!("{:?}", b.answers))
    });
}

pub fn same_run(checks: &mut Checks, name: &str, a: &RunOutput, b: &RunOutput) {
    checks.check(name, a.rendered == b.rendered, || {
        first_difference(&a.rendered, &b.rendered)
    });
}

/// Run the end-to-end phase. With `quick` one set-up is made.
pub fn end_to_end(kind: Kind, seed: u64, seconds: f64, quick: bool) -> EndToEnd {
    let mut checks = Checks::default();
    let fault_free = RunOpts::plain();

    // Set-ups, tracing off. For cluster_crash they run the fault-free
    // twin: its duration bounds where the crash points are drawn and its
    // answers are what the crashed run must reproduce.
    let mut setup_s = Vec::new();
    let mut warm: Option<RunOutput> = None;
    let phase = Instant::now();
    loop {
        let t0 = Instant::now();
        let out = run(kind, seed, generate(kind, seed), fault_free);
        setup_s.push(t0.elapsed().as_secs_f64());
        match &warm {
            None => warm = Some(out),
            Some(first) => same_run(&mut checks, "set-up runs identical", first, &out),
        }
        let enough = setup_s.len() >= SETUP_REPS && phase.elapsed().as_secs_f64() >= seconds;
        if quick || enough || setup_s.len() >= MAX_REPS {
            break;
        }
    }
    let warm = warm.expect("at least one set-up");
    let plan = (kind == Kind::ClusterCrash).then(|| crash_plan(warm.sim.elapsed_s));
    let opts = RunOpts {
        faults: plan.as_ref(),
        ..fault_free
    };
    let crashed = plan
        .as_ref()
        .map(|_| run(kind, seed, generate(kind, seed), opts));
    let reference = crashed.as_ref().unwrap_or(&warm);
    let rss_mb = peak_rss_mb();

    check_run(&mut checks, kind, reference);
    if crashed.is_some() {
        same_answers(
            &mut checks,
            "crashed answers equal the fault-free run's",
            &warm,
            reference,
        );
    }
    check_golden(&mut checks, kind, seed, &reference.answers);

    // The same workload with every configuration in DramOnly mode.
    let baseline = run(
        kind,
        seed,
        generate(kind, seed),
        RunOpts {
            mode: MemoryMode::DramOnly,
            ..opts
        },
    );
    same_answers(
        &mut checks,
        "DRAM-only answers equal Panthera's",
        &baseline,
        reference,
    );

    let sim = reference.sim;
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        // Where /proc gives no reading this is 0, which fails the check
        // below rather than passing for a measurement.
        ("host_peak_rss_mb", rss_mb.unwrap_or(0.0)),
        ("sim_elapsed_s", sim.elapsed_s),
        ("sim_energy_j", sim.energy_j),
        (
            "sim_time_vs_dram_only",
            sim.elapsed_s / baseline.sim.elapsed_s,
        ),
        (
            "sim_energy_vs_dram_only",
            sim.energy_j / baseline.sim.energy_j,
        ),
    ];
    for (name, v) in &metrics {
        checks.check(
            "metric is a positive number",
            v.is_finite() && *v > 0.0,
            || format!("{name} = {v}"),
        );
    }
    EndToEnd {
        metrics,
        setups: summarize(&setup_s),
        checks,
    }
}
