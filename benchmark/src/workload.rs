//! The six workloads: how each one's inputs are generated from the seed
//! and how one complete run is driven through the program's public entry
//! points (`RunBuilder::run`, `JobService::run`, `StreamBuilder::run`).
//!
//! Each workload has exactly one size constant ([`Kind::size`]), tuned
//! once so a run takes about 1-1.5 s on the reference 2-core box and
//! frozen since. Why each workload is here is in `names::WORKLOADS`.

use crate::names::WORKLOADS;
use mheap::Payload;
use obs::Observer;
use panthera::cluster::{FaultPlan, FaultSpec};
use panthera::{
    MemoryMode, RecoveryPolicy, RunBuilder, RunReport, RunSummary, ShuffleTransport, SystemConfig,
    SIM_GB,
};
use panthera_jobs::{JobService, JobSpec, SchedPolicy, ServiceConfig, ServiceReport};
use panthera_stream::{
    build_stream_program, digest_result, RetagPolicy, StreamBuilder, StreamReport, StreamSpec,
};
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder};
use sparklet::{ActionResult, DataRegistry};
use workloads::{build_workload, kmeans, BuiltWorkload, WorkloadId};

/// Executors in the two cluster workloads and in the service pool.
pub const EXECUTORS: u16 = 4;

const GRAPH_MINOR_CC_SCALE: f64 = 1.5;
const ML_SCAN_KMEANS_ITERS: u32 = 256;
const STREAM_DRIFT_BATCHES: u32 = 24;
const CLUSTER_PR_SCALE: f64 = 2.5;
/// How many times the perfsuite `--service` mix (5 PageRank, 13 small
/// Table-4 jobs, 2 two-executor hash joins) is repeated.
const SERVICE_MIX_MULTIPLIER: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GraphMinor,
    MlScan,
    StreamDrift,
    ClusterShuffle,
    ClusterCrash,
    ServiceMix,
}

/// A published number this workload's DRAM-only ratios can be held
/// against (EXPERIMENTS.md, Figure 4, 64 GB heap, 1/3 DRAM).
pub struct PaperRef {
    pub program: &'static str,
    pub time_vs_dram_only: f64,
    pub energy_vs_dram_only: f64,
    /// The paper ran one executor; a multi-executor run of the same
    /// program is shown beside the value but not held to it.
    pub informational: bool,
}

impl Kind {
    /// In `names::WORKLOADS` order.
    pub const ALL: [Kind; 6] = [
        Kind::GraphMinor,
        Kind::MlScan,
        Kind::StreamDrift,
        Kind::ClusterShuffle,
        Kind::ClusterCrash,
        Kind::ServiceMix,
    ];

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's one size constant, by name.
    pub fn size(self) -> (&'static str, f64) {
        match self {
            Kind::GraphMinor => ("cc_scale", GRAPH_MINOR_CC_SCALE),
            Kind::MlScan => ("kmeans_iters", f64::from(ML_SCAN_KMEANS_ITERS)),
            Kind::StreamDrift => ("batches", f64::from(STREAM_DRIFT_BATCHES)),
            Kind::ClusterShuffle | Kind::ClusterCrash => ("pr_scale", CLUSTER_PR_SCALE),
            Kind::ServiceMix => ("mix_multiplier", SERVICE_MIX_MULTIPLIER as f64),
        }
    }

    /// Whether the whole run is one multi-executor cluster run, whose
    /// events reach a sink only after the run (see `trace`).
    pub fn clustered(self) -> bool {
        matches!(self, Kind::ClusterShuffle | Kind::ClusterCrash)
    }

    /// Whether `host_threads` changes how the run executes on the host.
    pub fn uses_host_threads(self) -> bool {
        self.clustered() || self == Kind::ServiceMix
    }

    pub fn paper_ref(self) -> Option<PaperRef> {
        let (program, time, energy, informational) = match self {
            Kind::GraphMinor => ("GraphX-CC", 0.99, 0.60, false),
            Kind::MlScan => ("KM", 1.24, 0.70, false),
            Kind::ClusterShuffle | Kind::ClusterCrash => ("PR", 1.11, 0.66, true),
            Kind::StreamDrift | Kind::ServiceMix => return None,
        };
        Some(PaperRef {
            program,
            time_vs_dram_only: time,
            energy_vs_dram_only: energy,
            informational,
        })
    }
}

/// Generated inputs for one run. A run consumes them: user functions
/// carry state (K-Means centres) and registries move into the engine.
pub enum Inputs {
    Single(BuiltWorkload),
    Stream(StreamSpec),
    /// Executors rebuild their inputs from the seed inside the run, once
    /// per incarnation, so nothing is generated up front.
    Cluster,
    /// The inline jobs in submission order.
    Service(Vec<BuiltWorkload>),
}

/// K-Means charges the same simulated cost for any 12 000 points, so a
/// fixed count would make every `sim_*` number of `ml_scan` independent
/// of the seed. The count is therefore drawn from the seed, within 1 % of
/// 12 000: different seeds are different inputs on both clocks.
fn ml_scan_points(seed: u64) -> usize {
    let draw = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    11_880 + (draw % 241) as usize
}

fn stream_spec(seed: u64) -> StreamSpec {
    StreamSpec {
        batches: STREAM_DRIFT_BATCHES,
        ..StreamSpec::perf(seed)
    }
}

fn cluster_build(seed: u64) -> (Program, FnTable, DataRegistry) {
    let w = build_workload(WorkloadId::Pr, CLUSTER_PR_SCALE, seed);
    (w.program, w.fns, w.data)
}

const SERVICE_SMALL: [WorkloadId; 6] = [
    WorkloadId::Km,
    WorkloadId::Lr,
    WorkloadId::Tc,
    WorkloadId::Cc,
    WorkloadId::Sssp,
    WorkloadId::Bc,
];
const SERVICE_LONG_JOBS: u64 = 5 * SERVICE_MIX_MULTIPLIER;
const SERVICE_SMALL_JOBS: u64 = 13 * SERVICE_MIX_MULTIPLIER;
const SERVICE_JOIN_JOBS: u64 = 2 * SERVICE_MIX_MULTIPLIER;

/// Jobs one `service_mix` run submits.
pub const SERVICE_JOBS: u64 = SERVICE_LONG_JOBS + SERVICE_SMALL_JOBS + SERVICE_JOIN_JOBS;

/// The service's atomic two-executor job: `n` keyed records joined
/// against `n / 2`, keys folded so buckets collide, counted once (the
/// perfsuite `--service` join, its values offset by the seed).
fn service_hashjoin(seed: u64) -> (Program, FnTable, DataRegistry) {
    const N: i64 = 2_000;
    const KEYS: i64 = N / 8;
    let salt = (seed % 1_000) as i64;
    let mut b = ProgramBuilder::new("hashjoin");
    let left = b.source("left");
    let right = b.source("right");
    let joined = b.bind("joined", left.join(right));
    b.action(joined, ActionKind::Count);
    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register(
        "left",
        (0..N)
            .map(|i| Payload::keyed((i + salt) % KEYS, Payload::Long(i * 31 + 7)))
            .collect(),
    );
    data.register(
        "right",
        (0..N / 2)
            .map(|i| Payload::keyed(i % KEYS, Payload::Long(i * 13 + 1 + salt)))
            .collect(),
    );
    (program, fns, data)
}

/// Run the workload's generator once and drop what it made: what the
/// `workloads.build_ms` drive times. The cluster and stream runs call
/// their generators themselves (once per executor incarnation; once per
/// stream), so [`generate`] has nothing to build for them up front.
pub fn generator_drive(kind: Kind, seed: u64) {
    match generate(kind, seed) {
        Inputs::Cluster => drop(cluster_build(seed)),
        Inputs::Stream(spec) => drop(build_stream_program(&spec)),
        built => drop(built),
    }
}

/// Generate one run's inputs. The same seed gives the same inputs.
pub fn generate(kind: Kind, seed: u64) -> Inputs {
    match kind {
        Kind::GraphMinor => {
            Inputs::Single(build_workload(WorkloadId::Cc, GRAPH_MINOR_CC_SCALE, seed))
        }
        Kind::MlScan => Inputs::Single(kmeans(
            ml_scan_points(seed),
            8,
            8,
            ML_SCAN_KMEANS_ITERS,
            seed,
        )),
        Kind::StreamDrift => Inputs::Stream(stream_spec(seed)),
        Kind::ClusterShuffle | Kind::ClusterCrash => Inputs::Cluster,
        Kind::ServiceMix => {
            // Distinct inputs per job, all derived from the one seed.
            let job_seed = |i: u64| seed.wrapping_mul(1_000).wrapping_add(i);
            let long =
                (0..SERVICE_LONG_JOBS).map(|i| build_workload(WorkloadId::Pr, 0.2, job_seed(i)));
            let small = (0..SERVICE_SMALL_JOBS)
                .map(|i| build_workload(SERVICE_SMALL[(i % 6) as usize], 0.03, job_seed(100 + i)));
            Inputs::Service(long.chain(small).collect())
        }
    }
}

/// A program of the workload, for the parser and analysis drives: the
/// run's own program, or for `service_mix` its first (PageRank) job's.
pub fn sample_program(kind: Kind, seed: u64) -> Program {
    match generate(kind, seed) {
        Inputs::Single(w) => w.program,
        Inputs::Stream(spec) => build_stream_program(&spec).program,
        Inputs::Cluster => cluster_build(seed).0,
        Inputs::Service(mut jobs) => jobs.swap_remove(0).program,
    }
}

/// Seed of the crash plan, deliberately not `--seed`: where the crashes
/// land decides how much is replayed, and drawing them per seed moved
/// `sim_elapsed_s` by 15 % and `host_s` by 9 % between seeds, more than
/// any bound could absorb. The inputs still follow `--seed`, and with
/// them the fault-free duration the points are scaled to.
const CRASH_PLAN_SEED: u64 = 7;

/// The three virtual-time crash points of `cluster_crash`, spread over
/// the fault-free run's duration.
pub fn crash_plan(clean_elapsed_s: f64) -> FaultPlan {
    FaultPlan::generate(
        CRASH_PLAN_SEED,
        EXECUTORS,
        FaultSpec {
            crashes: 0,
            max_losses: 0,
            max_alloc_faults: 0,
            vcrashes: 3,
            vtime_lo_ns: 0.0,
            vtime_hi_ns: clean_elapsed_s * 1e9,
            ..FaultSpec::default()
        },
    )
}

/// `min(nproc, 4)`: the executor threads allowed to compute at once in
/// the cluster and service workloads.
pub fn host_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Off-heap and region leaks plus dead reads of a run; must be 0.
pub fn storage_leaks(report: &RunReport) -> u64 {
    let e = &report.exec;
    e.offheap_leaks + e.offheap_dead_reads + e.region_leaks + e.region_dead_reads
}

/// How to drive one run.
#[derive(Clone, Copy)]
pub struct RunOpts<'a> {
    /// `Panthera`, or `DramOnly` for the baseline the ratios divide by.
    pub mode: MemoryMode,
    /// Attach this observer to everything the run configures; `None`
    /// leaves tracing off.
    pub observer: Option<&'a Observer>,
    /// Executor threads allowed to compute at once (cluster, service).
    pub host_threads: usize,
    /// `cluster_crash` only: the crash plan, or `None` for its
    /// fault-free twin. Ignored elsewhere.
    pub faults: Option<&'a FaultPlan>,
}

impl RunOpts<'static> {
    /// The plain run: Panthera, tracing off, fault-free, this host's
    /// thread budget.
    pub fn plain() -> Self {
        RunOpts {
            mode: MemoryMode::Panthera,
            observer: None,
            host_threads: host_threads(),
            faults: None,
        }
    }
}

/// The virtual-clock headline numbers of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    pub elapsed_s: f64,
    pub energy_j: f64,
    pub gc_s: f64,
    pub max_pause_ms: f64,
}

/// Everything one complete run produced.
pub struct RunOutput {
    /// The run's report; for `service_mix` the finished jobs' reports
    /// aggregated (counters summed, pauses concatenated).
    pub report: RunReport,
    pub per_executor: Vec<RunReport>,
    pub sim: Sim,
    /// `(name, digest)` of every action result, in program (and job)
    /// order: the answers, free of any simulated quantity.
    pub answers: Vec<(String, u64)>,
    /// Everything the run reported, rendered canonically: two runs are
    /// the same run exactly when these are equal.
    pub rendered: String,
    pub service: Option<ServiceReport>,
    pub stream: Option<StreamReport>,
}

fn digests(prefix: &str, results: &[(String, ActionResult)]) -> Vec<(String, u64)> {
    results
        .iter()
        .map(|(var, r)| (format!("{prefix}{var}"), digest_result(r)))
        .collect()
}

fn sim_of(report: &RunReport, elapsed_s: f64) -> Sim {
    Sim {
        elapsed_s,
        energy_j: report.energy_j(),
        gc_s: report.gc_s(),
        max_pause_ms: report.max_pause_ms(),
    }
}

fn from_summary(run: RunSummary) -> RunOutput {
    let mut rendered = run.report.to_json().to_compact();
    for r in &run.per_executor {
        rendered.push('\n');
        rendered.push_str(&r.to_json().to_compact());
    }
    RunOutput {
        sim: sim_of(&run.report, run.report.elapsed_s),
        answers: digests("", &run.results),
        rendered,
        report: run.report,
        per_executor: run.per_executor,
        service: None,
        stream: None,
    }
}

/// The system configuration `kind` runs under in `mode`, with
/// `observer` attached when tracing.
pub fn system_config(kind: Kind, mode: MemoryMode, observer: Option<&Observer>) -> SystemConfig {
    let heap_gb = match kind {
        Kind::GraphMinor => 128,
        Kind::MlScan => 64,
        Kind::StreamDrift => 16,
        Kind::ClusterShuffle | Kind::ClusterCrash => 192,
        Kind::ServiceMix => SERVICE_HEAP_GB,
    };
    let mut cfg = SystemConfig::new(mode, heap_gb * SIM_GB, 1.0 / 3.0);
    if let Some(o) = observer {
        cfg.observer = o.clone();
    }
    if kind.clustered() {
        cfg.executors = EXECUTORS;
    }
    if kind == Kind::ClusterCrash {
        cfg.recovery = RecoveryPolicy::CheckpointEvery(2);
        cfg.transport = ShuffleTransport::SharedRegion;
        cfg.offheap_cache = true;
        cfg.region_alloc = true;
    }
    cfg
}

const SERVICE_HEAP_GB: u64 = 8;

fn run_service(jobs: Vec<BuiltWorkload>, seed: u64, opts: RunOpts<'_>) -> RunOutput {
    let heap = SERVICE_HEAP_GB * SIM_GB;
    let join = move || service_hashjoin(seed);
    let mut svc = JobService::new(ServiceConfig {
        pool_executors: EXECUTORS,
        policy: SchedPolicy::FairShare,
        dram_budget_bytes: Some(6 * heap),
        host_threads: Some(opts.host_threads),
    });
    if let Some(o) = opts.observer {
        svc.set_observer(o.clone());
    }
    svc.add_tenant(1, 1.0, None);
    svc.add_tenant(2, 1.0, None);
    // Tenant 3's quota admits two of its two-executor joins at a time.
    svc.add_tenant(3, 1.0, Some(4 * heap));
    let inline_cfg = system_config(Kind::ServiceMix, opts.mode, opts.observer);
    // Everything is submitted at virtual t = 0: tenant 1 front-loads the
    // long PageRank jobs, tenants 2 and 3 trail in with the small ones.
    for (i, w) in jobs.into_iter().enumerate() {
        let i = i as u64;
        let spec = if i < SERVICE_LONG_JOBS {
            JobSpec::inline(1, w.program, w.fns, w.data)
        } else {
            let k = i - SERVICE_LONG_JOBS;
            JobSpec::inline(2 + (k % 2) as u32, w.program, w.fns, w.data)
                .with_priority((k % 3) as u32)
        };
        svc.submit(spec.with_config(inline_cfg.clone()))
            .expect("inline job is admissible");
    }
    // Atomic jobs run on the buffered cluster path: their events carry
    // no usable host stamps, so they get no observer (see `trace`).
    let mut join_cfg = system_config(Kind::ServiceMix, opts.mode, None);
    join_cfg.executors = 2;
    for _ in 0..SERVICE_JOIN_JOBS {
        svc.submit(JobSpec::rebuild(3, "hashjoin-e2", &join).with_config(join_cfg.clone()))
            .expect("atomic job is admissible");
    }
    let service = svc.run();

    let reports: Vec<RunReport> = service
        .jobs
        .iter()
        .filter_map(|j| j.report.clone())
        .collect();
    assert!(!reports.is_empty(), "service_mix finished no job at all");
    let report = RunReport::aggregate(&reports);
    let answers = service
        .jobs
        .iter()
        .flat_map(|j| digests(&format!("job{}:", j.job), &j.results))
        .collect();
    RunOutput {
        sim: sim_of(&report, service.makespan_s),
        answers,
        rendered: service.to_json().to_compact(),
        report,
        per_executor: Vec::new(),
        service: Some(service),
        stream: None,
    }
}

/// Drive one complete run of `kind` over `inputs`.
///
/// # Panics
///
/// Panics where the program does: an invalid configuration or an
/// exhausted simulated heap. The caller runs in a child process, which
/// turns a panic into failed operations.
pub fn run(kind: Kind, seed: u64, inputs: Inputs, opts: RunOpts<'_>) -> RunOutput {
    match (kind, inputs) {
        (Kind::GraphMinor | Kind::MlScan, Inputs::Single(w)) => from_summary(
            RunBuilder::new(&w.program, w.fns, w.data)
                .config(system_config(kind, opts.mode, opts.observer))
                .run()
                .expect("valid single-runtime configuration"),
        ),
        (Kind::StreamDrift, Inputs::Stream(spec)) => {
            // Re-tagging needs tagged spaces; the DRAM-only baseline has
            // none and runs the static policy.
            let policy = if opts.mode == MemoryMode::Panthera {
                RetagPolicy::Online { hysteresis: 1 }
            } else {
                RetagPolicy::Static
            };
            let stream = StreamBuilder::new(spec)
                .config(system_config(kind, opts.mode, opts.observer))
                .policy(policy)
                .run()
                .expect("valid stream configuration");
            RunOutput {
                sim: sim_of(&stream.run, stream.elapsed_ns / 1e9),
                answers: stream.outputs.clone(),
                rendered: stream.to_json().to_compact(),
                report: stream.run.clone(),
                per_executor: Vec::new(),
                service: None,
                stream: Some(stream),
            }
        }
        (Kind::ClusterShuffle | Kind::ClusterCrash, Inputs::Cluster) => {
            let build = move || cluster_build(seed);
            // An explicit (possibly empty) plan pins the cluster path.
            let none = FaultPlan::none();
            let plan = match kind {
                Kind::ClusterCrash => opts.faults.unwrap_or(&none),
                _ => &none,
            };
            from_summary(
                RunBuilder::from_build(&build)
                    .config(system_config(kind, opts.mode, opts.observer))
                    .host_threads(opts.host_threads)
                    .faults(plan)
                    .run()
                    .expect("valid cluster configuration"),
            )
        }
        (Kind::ServiceMix, Inputs::Service(jobs)) => run_service(jobs, seed, opts),
        (kind, _) => panic!("inputs were not generated for {}", kind.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_line_up_with_the_name_table() {
        assert_eq!(Kind::ALL.len(), WORKLOADS.len());
        for (i, kind) in Kind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i);
            assert_eq!(kind.name(), WORKLOADS[i].name);
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn ml_scan_point_count_follows_the_seed_within_one_percent() {
        let counts: Vec<usize> = (0..64).map(ml_scan_points).collect();
        assert!(counts.iter().all(|n| (11_880..=12_120).contains(n)));
        let distinct: std::collections::BTreeSet<_> = counts.iter().collect();
        assert!(distinct.len() > 32, "{} distinct counts", distinct.len());
        assert_eq!(ml_scan_points(7), ml_scan_points(7));
    }

    #[test]
    fn the_crash_plan_scales_with_the_fault_free_duration_only() {
        let plan = crash_plan(0.2);
        assert_eq!(plan.vcrashes.len(), 3);
        assert!(plan.crashes.is_empty() && plan.losses.is_empty());
        assert!(plan
            .vcrashes
            .iter()
            .all(|p| p.at_ns < 0.2e9 && p.exec < EXECUTORS));
        assert_eq!(plan, crash_plan(0.2));
    }
}
