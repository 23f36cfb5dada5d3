//! The deterministic multi-tenant job service.
//!
//! [`JobService`] owns a pool of executor slots and a queue of submitted
//! jobs, and drives them concurrently in *service virtual time*: a
//! discrete-event loop dispatches one statement-stage per free slot,
//! advances to the earliest stage completion, and repeats. Nothing about
//! host threads or wall-clock ordering enters the loop, so a fixed
//! submission sequence yields a bit-identical [`ServiceReport`] on any
//! machine.
//!
//! Scheduling is stride/deficit fair-share keyed per tenant (DESIGN.md
//! §13): each dispatch charges the owning tenant `stage_seconds / weight`
//! of weighted virtual runtime, and the next dispatch goes to the
//! schedulable tenant furthest behind. Jobs yield only at stage barriers
//! — the engine's own statement boundaries — so every invariant of the
//! cluster/recovery machinery survives preemption untouched.

use crate::report::{JobOutcome, JobRecord, ServiceReport, TenantReport, NEVER_S};
use obs::{nearest_rank, Event, Observer};
use panthera::{
    ConfigError, FaultPlan, RunBuilder, RunReport, RunSource, StageCursor, SystemConfig,
};
use sparklang::{FnTable, Program};
use sparklet::{ns_of, ActionResult, DataRegistry};
use std::collections::BTreeMap;
use std::fmt;

const NS_PER_S: f64 = 1e9;

/// How the service orders runnable work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Stride/deficit fair share: the schedulable tenant with the least
    /// weighted virtual runtime dispatches next.
    #[default]
    FairShare,
    /// Strict submission order: the runnable job with the lowest id
    /// dispatches next (jobs still run concurrently across free slots).
    Fifo,
}

impl SchedPolicy {
    /// Stable serialization label.
    pub fn label(self) -> &'static str {
        match self {
            SchedPolicy::FairShare => "fair_share",
            SchedPolicy::Fifo => "fifo",
        }
    }
}

/// Static configuration of a [`JobService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Executor slots in the shared pool.
    pub pool_executors: u16,
    /// Dispatch policy.
    pub policy: SchedPolicy,
    /// Hot-memory (DRAM) budget split across live jobs by tenant weight;
    /// `None` disables arbitration entirely.
    pub dram_budget_bytes: Option<u64>,
    /// Host-thread bound forwarded to atomic multi-executor jobs. Changes
    /// wall-clock time only, never a simulated value.
    pub host_threads: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            pool_executors: 4,
            policy: SchedPolicy::FairShare,
            dram_budget_bytes: None,
            host_threads: None,
        }
    }
}

impl ServiceConfig {
    /// A fair-share service over `pool_executors` slots, no DRAM
    /// arbitration.
    pub fn new(pool_executors: u16) -> ServiceConfig {
        ServiceConfig {
            pool_executors,
            ..ServiceConfig::default()
        }
    }
}

/// One job submission: a program source plus its per-job configuration,
/// tenancy, and priority.
pub struct JobSpec<'a> {
    /// The program source: a one-shot triple, which the service drives
    /// through a resumable stage cursor, or a rebuild closure — required
    /// for multi-executor and fault-injected jobs, which run atomically
    /// through the cluster driver.
    pub source: RunSource<'a>,
    /// Per-job system configuration (heap geometry, mode, executors…).
    pub config: SystemConfig,
    /// Submitting tenant id.
    pub tenant: u32,
    /// Priority within the tenant — higher dispatches first.
    pub priority: u32,
    /// Deterministic fault plan (forces the atomic cluster path).
    pub faults: Option<&'a FaultPlan>,
    /// Display name; defaults to the program name for inline sources.
    pub name: String,
}

impl<'a> JobSpec<'a> {
    /// A single-runtime job from an owned `(program, fns, data)` triple,
    /// in the paper-default configuration until [`JobSpec::with_config`]
    /// replaces it.
    pub fn inline(tenant: u32, program: Program, fns: FnTable, data: DataRegistry) -> JobSpec<'a> {
        let name = program.name.clone();
        JobSpec {
            source: RunSource::Once { program, fns, data },
            config: SystemConfig::paper_default(panthera::MemoryMode::Panthera),
            tenant,
            priority: 0,
            faults: None,
            name,
        }
    }

    /// A job from a deterministic rebuild closure — the only source the
    /// atomic multi-executor / fault-injected path accepts.
    pub fn rebuild(
        tenant: u32,
        name: &str,
        build: &'a (dyn Fn() -> (Program, FnTable, DataRegistry) + Sync),
    ) -> JobSpec<'a> {
        JobSpec {
            source: RunSource::Rebuild(build),
            config: SystemConfig::paper_default(panthera::MemoryMode::Panthera),
            tenant,
            priority: 0,
            faults: None,
            name: name.to_string(),
        }
    }

    /// Replace the per-job system configuration.
    pub fn with_config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the within-tenant priority (higher dispatches first).
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Run under a deterministic fault plan (atomic path; needs a
    /// [`RunSource::Rebuild`] source).
    pub fn with_faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Why a submission was refused outright (as opposed to admitted and
/// later [`JobOutcome::Rejected`]).
#[derive(Debug)]
pub enum SubmitError {
    /// Multi-executor or fault-injected jobs need a rebuild source.
    NeedsRebuild {
        /// Executors the job asked for.
        executors: u16,
    },
    /// The job asks for more executors than the pool will ever have.
    PoolTooSmall {
        /// Executors the job asked for.
        executors: u16,
        /// Slots the pool has.
        pool: u16,
    },
    /// The job's configuration violates a constraint.
    Config(ConfigError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::NeedsRebuild { executors } => write!(
                f,
                "job asks for {executors} executors (or faults); submit a rebuild source"
            ),
            SubmitError::PoolTooSmall { executors, pool } => write!(
                f,
                "job asks for {executors} executors but the pool has only {pool} slots"
            ),
            SubmitError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Per-tenant scheduler state.
#[derive(Debug, Clone)]
struct TenantState {
    weight: f64,
    quota_bytes: Option<u64>,
    /// Weighted virtual runtime, nanoseconds.
    vruntime_ns: f64,
    /// Unweighted stage nanoseconds consumed.
    busy_ns: f64,
    /// Heap bytes of the tenant's currently-running jobs.
    live_heap_bytes: u64,
    /// Largest DRAM share sum its live jobs ever held.
    max_dram_share: u64,
    submitted: u32,
    finished: u32,
    rejected: u32,
    failed: u32,
    reports: Vec<RunReport>,
}

impl TenantState {
    fn new(weight: f64, quota_bytes: Option<u64>) -> TenantState {
        TenantState {
            weight,
            quota_bytes,
            vruntime_ns: 0.0,
            busy_ns: 0.0,
            live_heap_bytes: 0,
            max_dram_share: 0,
            submitted: 0,
            finished: 0,
            rejected: 0,
            failed: 0,
            reports: Vec::new(),
        }
    }
}

/// Execution phase of one job.
enum Phase<'a> {
    /// Submitted, not yet admitted.
    Queued { spec: Box<JobSpec<'a>> },
    /// Admitted and paused at a stage barrier, wanting one slot.
    Barrier { cursor: Box<StageCursor> },
    /// A statement-stage is in flight on one slot until the scheduled
    /// completion.
    RunningStage { cursor: Box<StageCursor> },
    /// An atomic multi-executor / fault-injected run is in flight on the
    /// job's `executors` slots; its (already computed, host-time-free)
    /// result unpacks at completion.
    RunningAtomic {
        result: Box<Result<AtomicDone, panthera::RunError>>,
    },
    /// Left the service.
    Done,
}

impl Phase<'_> {
    /// Admitted and not yet finished: running a stage or an atomic run,
    /// or paused at a barrier between stages.
    fn is_live(&self) -> bool {
        matches!(
            self,
            Phase::Barrier { .. } | Phase::RunningStage { .. } | Phase::RunningAtomic { .. }
        )
    }
}

/// The pieces of a completed atomic run the service keeps.
struct AtomicDone {
    report: RunReport,
    results: Vec<(String, ActionResult)>,
}

struct JobState<'a> {
    tenant: u32,
    priority: u32,
    name: String,
    /// Modelled heap footprint: per-runtime heap bytes × executors.
    footprint: u64,
    executors: u16,
    submit_ns: f64,
    start_ns: f64,
    finish_ns: f64,
    stages: u32,
    preemptions: u32,
    /// Set when the job reached a barrier and has not been re-dispatched;
    /// cleared (counting one preemption) the first time another job takes
    /// a slot instead.
    passed_over: bool,
    dram_share: u64,
    outcome: Option<JobOutcome>,
    report: Option<RunReport>,
    results: Vec<(String, ActionResult)>,
    phase: Phase<'a>,
}

/// A stage/run completion scheduled on the service clock.
struct Pending {
    t_ns: f64,
    seq: u64,
    job: usize,
}

/// The long-lived, deterministic multi-tenant job service.
///
/// ```
/// use panthera::{MemoryMode, SystemConfig, SIM_GB};
/// use panthera_jobs::{JobService, JobSpec, ServiceConfig};
/// use sparklang::{ActionKind, ProgramBuilder};
/// use sparklet::DataRegistry;
/// use mheap::Payload;
///
/// let mut service = JobService::new(ServiceConfig::new(2));
/// service.add_tenant(1, 2.0, None);
///
/// let mut b = ProgramBuilder::new("demo");
/// let src = b.source("nums");
/// let xs = b.bind("xs", src.distinct());
/// b.action(xs, ActionKind::Count);
/// let (program, fns) = b.finish();
/// let mut data = DataRegistry::new();
/// data.register("nums", (0..64).map(Payload::Long).collect());
///
/// let cfg = SystemConfig::new(MemoryMode::Panthera, 2 * SIM_GB, 1.0 / 3.0);
/// service
///     .submit(JobSpec::inline(1, program, fns, data).with_config(cfg))
///     .unwrap();
/// let report = service.run();
/// assert_eq!(report.jobs.len(), 1);
/// assert_eq!(report.jobs[0].results[0].1.as_count(), Some(64));
/// ```
pub struct JobService<'a> {
    cfg: ServiceConfig,
    observer: Observer,
    tenants: BTreeMap<u32, TenantState>,
    jobs: Vec<JobState<'a>>,
    /// Service clock, nanoseconds.
    now_ns: f64,
    /// Monotone dispatch counter — the deterministic tie-break for
    /// completions scheduled at the same instant.
    dispatch_seq: u64,
    max_vtime_spread_ns: f64,
    max_stage_charge_ns: f64,
}

impl<'a> JobService<'a> {
    /// An empty service over a fresh pool.
    pub fn new(cfg: ServiceConfig) -> JobService<'a> {
        JobService {
            cfg,
            observer: Observer::disabled(),
            tenants: BTreeMap::new(),
            jobs: Vec::new(),
            now_ns: 0.0,
            dispatch_seq: 0,
            max_vtime_spread_ns: 0.0,
            max_stage_charge_ns: 0.0,
        }
    }

    /// Route the service's `Job*` events through `observer`.
    pub fn set_observer(&mut self, observer: Observer) {
        self.observer = observer;
    }

    /// Register a tenant with a fair-share `weight` and an optional heap
    /// quota. Submitting for an unregistered tenant auto-registers it
    /// with weight 1 and no quota.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite weight.
    pub fn add_tenant(&mut self, tenant: u32, weight: f64, quota_bytes: Option<u64>) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "tenant weight must be positive and finite"
        );
        self.tenants
            .insert(tenant, TenantState::new(weight, quota_bytes));
    }

    /// Submit a job; returns its service-assigned id. The job runs when
    /// [`JobService::run`] drains the queue.
    ///
    /// A job whose footprint can *never* fit its tenant quota is admitted
    /// as a record but immediately [`JobOutcome::Rejected`] — that is an
    /// admission decision, not a submission error.
    ///
    /// # Errors
    ///
    /// [`SubmitError::NeedsRebuild`] for a multi-executor or
    /// fault-injected job over an inline source,
    /// [`SubmitError::PoolTooSmall`] if the job can never be granted
    /// enough slots, and [`SubmitError::Config`] for an invalid per-job
    /// configuration.
    pub fn submit(&mut self, spec: JobSpec<'a>) -> Result<u32, SubmitError> {
        spec.config.validate().map_err(SubmitError::Config)?;
        let executors = spec.config.executors.max(1);
        let atomic = executors > 1 || spec.faults.is_some();
        if atomic && matches!(spec.source, RunSource::Once { .. }) {
            return Err(SubmitError::NeedsRebuild { executors });
        }
        if executors > self.cfg.pool_executors {
            return Err(SubmitError::PoolTooSmall {
                executors,
                pool: self.cfg.pool_executors,
            });
        }
        let id = self.jobs.len() as u32;
        let tenant = spec.tenant;
        self.tenants
            .entry(tenant)
            .or_insert_with(|| TenantState::new(1.0, None));
        let tstate = self.tenants.get_mut(&tenant).expect("just inserted");
        tstate.submitted += 1;
        let footprint = spec.config.heap_bytes.saturating_mul(u64::from(executors));
        let over_quota = tstate.quota_bytes.is_some_and(|q| footprint > q);
        let job = JobState {
            tenant,
            priority: spec.priority,
            name: spec.name.clone(),
            footprint,
            executors,
            submit_ns: self.now_ns,
            start_ns: -1.0,
            finish_ns: -1.0,
            stages: 0,
            preemptions: 0,
            passed_over: false,
            dram_share: 0,
            outcome: None,
            report: None,
            results: Vec::new(),
            phase: Phase::Queued {
                spec: Box::new(spec),
            },
        };
        self.observer
            .emit(self.now_ns, &Event::JobSubmitted { job: id, tenant });
        self.jobs.push(job);
        if over_quota {
            self.reject(id as usize);
        }
        Ok(id)
    }

    /// Turn `job` away: it leaves the service without running.
    fn reject(&mut self, job: usize) {
        let j = &mut self.jobs[job];
        j.outcome = Some(JobOutcome::Rejected);
        j.phase = Phase::Done;
        self.tenants
            .get_mut(&j.tenant)
            .expect("known tenant")
            .rejected += 1;
    }

    /// The DRAM share a newly-starting job of `tenant` would receive,
    /// given the currently-live jobs: `budget × weight / Σ live weights`
    /// (the starting job counts itself).
    fn dram_split(&self, tenant: u32) -> Option<u64> {
        let budget = self.cfg.dram_budget_bytes?;
        let mut total_w = self.tenants[&tenant].weight;
        for j in &self.jobs {
            if j.phase.is_live() {
                total_w += self.tenants[&j.tenant].weight;
            }
        }
        Some((budget as f64 * self.tenants[&tenant].weight / total_w) as u64)
    }

    /// Re-record per-tenant DRAM share sums after a job starts or
    /// finishes. Running jobs keep the binding they started with (a live
    /// heap cannot resize); the re-split governs what the *next* starting
    /// job receives and what the tenant rollups report.
    fn resplit_dram(&mut self) {
        if self.cfg.dram_budget_bytes.is_none() {
            return;
        }
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for j in &self.jobs {
            if j.phase.is_live() {
                *sums.entry(j.tenant).or_insert(0) += j.dram_share;
            }
        }
        for (tenant, sum) in sums {
            let t = self.tenants.get_mut(&tenant).expect("tenant of live job");
            t.max_dram_share = t.max_dram_share.max(sum);
        }
    }

    /// Whether a queued job could be admitted (quota and DRAM split) given
    /// its tenant's current `split` ([`JobService::dram_split`]), and the
    /// DRAM ratio it would run with if the split clamps it (`None`: its
    /// own). Executor-slot availability is deliberately *not* checked
    /// here: slot-blocked jobs stay in the candidate set so the scheduler
    /// can reserve slots for them (see [`JobService::run`]). `Err(wait)`
    /// distinguishes "wait and retry" (`true`) from "reject outright"
    /// (`false`). Nothing is cloned: `submit` validated the job's config,
    /// and clamping changes only its DRAM ratio.
    fn admission(&self, job: usize, split: Option<u64>) -> Result<Option<f64>, bool> {
        let j = &self.jobs[job];
        let Phase::Queued { spec } = &j.phase else {
            unreachable!("admission check on a non-queued job");
        };
        let tstate = &self.tenants[&j.tenant];
        if tstate
            .quota_bytes
            .is_some_and(|q| tstate.live_heap_bytes + j.footprint > q)
        {
            return Err(true);
        }
        let config = &spec.config;
        let Some(share) = split else {
            return Ok(None);
        };
        let per_runtime = share / u64::from(j.executors);
        if per_runtime >= config.dram_capacity() {
            return Ok(None);
        }
        // Clamp the job's hot memory down to its arbitrated share.
        let ratio = per_runtime as f64 / config.heap_bytes as f64;
        let mut heap = config.heap_config();
        if config.mode.uses_nvm() {
            heap.dram_ratio = ratio;
        }
        if heap.validate().is_err() {
            // Too little DRAM to even hold the nursery: wait for a bigger
            // split if other jobs will finish, reject if the job is alone
            // and the full budget still isn't enough.
            return Err(self.jobs.iter().any(|other| other.phase.is_live()));
        }
        Ok(Some(ratio))
    }

    /// Tenants that could schedule work this instant (slot availability
    /// aside), with their candidate jobs: `(tenant, job)` per candidate.
    /// Jobs short on executor slots are included — the dispatch loop
    /// reserves slots for them when the policy picks them — so a
    /// multi-slot job's tenant keeps its seat at the fairness table.
    /// Each tenant's DRAM split is summed once per call.
    fn candidates(&self) -> Vec<(u32, usize)> {
        let mut out = Vec::new();
        let mut splits: BTreeMap<u32, Option<u64>> = BTreeMap::new();
        for (idx, j) in self.jobs.iter().enumerate() {
            let ok = match &j.phase {
                Phase::Barrier { .. } => true,
                Phase::Queued { .. } => {
                    let split =
                        *(splits.entry(j.tenant)).or_insert_with(|| self.dram_split(j.tenant));
                    self.admission(idx, split).is_ok()
                }
                _ => false,
            };
            if ok {
                out.push((j.tenant, idx));
            }
        }
        out
    }

    /// Pick the next dispatch among `cands` per the configured policy.
    fn pick(&self, cands: &[(u32, usize)]) -> Option<usize> {
        if cands.is_empty() {
            return None;
        }
        match self.cfg.policy {
            SchedPolicy::Fifo => cands.iter().map(|&(_, idx)| idx).min(),
            SchedPolicy::FairShare => {
                // Tenant furthest behind in weighted virtual time; ties
                // fall to the lower tenant id (BTreeMap order).
                let (&best_tenant, _) = cands
                    .iter()
                    .map(|&(t, _)| (t, self.tenants[&t].vruntime_ns))
                    .collect::<BTreeMap<u32, f64>>()
                    .iter()
                    .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
                    .expect("non-empty candidate set");
                // Within the tenant: higher priority first, then the job
                // with the least progress (round-robin over the tenant's
                // jobs — serializing them would leave the pool idle at
                // the tail when one late starter is all that remains),
                // then lower id.
                cands
                    .iter()
                    .filter(|&&(t, _)| t == best_tenant)
                    .map(|&(_, idx)| idx)
                    .min_by_key(|&idx| {
                        let j = &self.jobs[idx];
                        (std::cmp::Reverse(j.priority), j.stages, idx)
                    })
            }
        }
    }

    /// Record the fairness spread across the schedulable tenants of this
    /// dispatch round.
    fn record_spread(&mut self, cands: &[(u32, usize)], charged_tenant: u32) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut seen: Vec<u32> = cands.iter().map(|&(t, _)| t).collect();
        seen.push(charged_tenant);
        seen.sort_unstable();
        seen.dedup();
        if seen.len() < 2 {
            return;
        }
        for t in seen {
            let v = self.tenants[&t].vruntime_ns;
            lo = lo.min(v);
            hi = hi.max(v);
        }
        self.max_vtime_spread_ns = self.max_vtime_spread_ns.max(hi - lo);
    }

    /// Count a stage-barrier preemption for every runnable job passed
    /// over by this dispatch.
    fn record_preemptions(&mut self, dispatched: usize) {
        let mut events = Vec::new();
        for (idx, j) in self.jobs.iter_mut().enumerate() {
            if idx != dispatched && matches!(j.phase, Phase::Barrier { .. }) && !j.passed_over {
                j.passed_over = true;
                j.preemptions += 1;
                events.push(Event::JobPreempted {
                    job: idx as u32,
                    stage: j.stages,
                });
            }
        }
        for ev in events {
            self.observer.emit(self.now_ns, &ev);
        }
    }

    /// Dispatch `job` (admitting it first if queued) onto the pool's
    /// `free` slots. Returns `false` if admission rejected it outright.
    fn dispatch(&mut self, job: usize, free: &mut u16, pending: &mut Vec<Pending>) -> bool {
        // Admission for queued jobs.
        if matches!(self.jobs[job].phase, Phase::Queued { .. }) {
            let split = self.dram_split(self.jobs[job].tenant);
            let ratio = match self.admission(job, split) {
                Ok(ratio) => ratio,
                Err(_wait) => {
                    // `candidates` vetted this job; reaching here means an
                    // admission race within one round — treat as reject.
                    self.reject(job);
                    return false;
                }
            };
            let spec = match std::mem::replace(&mut self.jobs[job].phase, Phase::Done) {
                Phase::Queued { spec } => *spec,
                _ => unreachable!(),
            };
            // The clamped config, built once, for the job that runs.
            let mut config = spec.config.clone();
            if let Some(ratio) = ratio {
                config.dram_ratio = ratio;
            }
            let share = split.unwrap_or(0);
            let atomic = self.jobs[job].executors > 1 || spec.faults.is_some();
            let started = if atomic {
                self.start_atomic(job, spec, config, free, pending)
            } else {
                self.start_cursor(job, spec, config)
            };
            if !started {
                self.reject(job);
                return false;
            }
            let j = &mut self.jobs[job];
            j.start_ns = self.now_ns;
            j.dram_share = share;
            let queued_ns = self.now_ns - j.submit_ns;
            let tenant = j.tenant;
            let footprint = j.footprint;
            self.observer.emit(
                self.now_ns,
                &Event::JobStarted {
                    job: job as u32,
                    queued_ns,
                    dram_share: share,
                },
            );
            self.tenants
                .get_mut(&tenant)
                .expect("known tenant")
                .live_heap_bytes += footprint;
            self.resplit_dram();
        }
        // Run the next statement-stage of a cursor job now paused at a
        // barrier (a freshly admitted cursor job starts at stage 0's
        // barrier).
        if matches!(self.jobs[job].phase, Phase::Barrier { .. }) {
            self.run_stage(job, free, pending);
        }
        true
    }

    /// Build the cursor for an admitted single-runtime job; `false` means
    /// the (clamped) configuration was unusable after all.
    fn start_cursor(&mut self, job: usize, spec: JobSpec<'a>, config: SystemConfig) -> bool {
        let (program, fns, data) = match spec.source {
            RunSource::Once { program, fns, data } => (program, fns, data),
            RunSource::Rebuild(build) => build(),
        };
        match panthera::start(program, fns, data, &config) {
            Ok(cursor) => {
                self.jobs[job].phase = Phase::Barrier {
                    cursor: Box::new(cursor),
                };
                true
            }
            Err(_) => false,
        }
    }

    /// Run an admitted multi-executor / fault-injected job atomically
    /// through the cluster driver, occupying its slots for the run's
    /// simulated duration. The result is computed host-side at dispatch
    /// (it is host-time-free by the cluster driver's own determinism
    /// guarantee) and unpacked at the scheduled completion.
    fn start_atomic(
        &mut self,
        job: usize,
        spec: JobSpec<'a>,
        config: SystemConfig,
        free: &mut u16,
        pending: &mut Vec<Pending>,
    ) -> bool {
        let RunSource::Rebuild(build) = spec.source else {
            return false; // submit() already refused inline atomics
        };
        // The dispatch loop checked the slots are free.
        *free -= self.jobs[job].executors;
        let mut builder = RunBuilder::from_build(build).config(config);
        if let Some(plan) = spec.faults {
            builder = builder.faults(plan);
        }
        if let Some(n) = self.cfg.host_threads {
            builder = builder.host_threads(n);
        }
        let result = builder.run().map(|summary| AtomicDone {
            report: summary.report,
            results: summary.results,
        });
        let elapsed_ns = match &result {
            Ok(done) => done.report.elapsed_s * NS_PER_S,
            Err(_) => 0.0,
        };
        self.charge(self.jobs[job].tenant, elapsed_ns);
        self.jobs[job].phase = Phase::RunningAtomic {
            result: Box::new(result),
        };
        self.dispatch_seq += 1;
        pending.push(Pending {
            t_ns: self.now_ns + elapsed_ns,
            seq: self.dispatch_seq,
            job,
        });
        true
    }

    /// Execute one statement-stage of a barrier-paused cursor job and
    /// schedule its completion.
    fn run_stage(&mut self, job: usize, free: &mut u16, pending: &mut Vec<Pending>) {
        *free -= 1; // the dispatch loop checked a slot is free
        let Phase::Barrier { mut cursor } =
            std::mem::replace(&mut self.jobs[job].phase, Phase::Done)
        else {
            unreachable!("run_stage on a non-barrier job");
        };
        let before = cursor.now_ps();
        let stage_ns = match cursor.step() {
            Ok(true) => {
                self.jobs[job].stages += 1;
                ns_of(cursor.now_ps() - before)
            }
            Ok(false) => 0.0, // empty program: nothing to run, completes immediately
            Err(_) => {
                // The program is at fault (a shuffle record with no key):
                // like a failed atomic run, the job fails at once, charges
                // nothing, and gives its slot straight back.
                *free += 1;
                self.finish_job(job, JobOutcome::Failed, None, Vec::new());
                return;
            }
        };
        self.jobs[job].passed_over = false;
        self.charge(self.jobs[job].tenant, stage_ns);
        self.jobs[job].phase = Phase::RunningStage { cursor };
        self.dispatch_seq += 1;
        pending.push(Pending {
            t_ns: self.now_ns + stage_ns,
            seq: self.dispatch_seq,
            job,
        });
    }

    /// Charge `stage_ns` of simulated work to a tenant's weighted
    /// virtual runtime.
    fn charge(&mut self, tenant: u32, stage_ns: f64) {
        let t = self.tenants.get_mut(&tenant).expect("known tenant");
        let charge = stage_ns / t.weight;
        t.vruntime_ns += charge;
        t.busy_ns += stage_ns;
        self.max_stage_charge_ns = self.max_stage_charge_ns.max(charge);
    }

    /// Handle the completion scheduled for `job` at the (already
    /// advanced) service clock, giving its slots back to `free`.
    fn complete(&mut self, job: usize, free: &mut u16) {
        match std::mem::replace(&mut self.jobs[job].phase, Phase::Done) {
            Phase::RunningStage { cursor } => {
                *free += 1;
                if cursor.is_done() {
                    let (report, outcome) = RunReport::finish(*cursor);
                    self.finish_job(job, JobOutcome::Finished, Some(report), outcome.results);
                } else {
                    self.jobs[job].phase = Phase::Barrier { cursor };
                }
            }
            Phase::RunningAtomic { result } => {
                *free += self.jobs[job].executors;
                match *result {
                    Ok(done) => {
                        self.finish_job(job, JobOutcome::Finished, Some(done.report), done.results)
                    }
                    Err(_) => self.finish_job(job, JobOutcome::Failed, None, Vec::new()),
                }
            }
            other => {
                self.jobs[job].phase = other;
                unreachable!("completion for a job that is not running");
            }
        }
    }

    /// Final bookkeeping for a job leaving the service.
    fn finish_job(
        &mut self,
        job: usize,
        outcome: JobOutcome,
        report: Option<RunReport>,
        results: Vec<(String, ActionResult)>,
    ) {
        let j = &mut self.jobs[job];
        j.finish_ns = self.now_ns;
        j.outcome = Some(outcome);
        j.results = results;
        let tenant = j.tenant;
        let footprint = j.footprint;
        let elapsed_ns = self.now_ns - j.submit_ns;
        let t = self.tenants.get_mut(&tenant).expect("known tenant");
        t.live_heap_bytes = t.live_heap_bytes.saturating_sub(footprint);
        match outcome {
            JobOutcome::Finished => {
                t.finished += 1;
                if let Some(r) = &report {
                    t.reports.push(r.clone());
                }
            }
            JobOutcome::Failed => t.failed += 1,
            JobOutcome::Rejected => t.rejected += 1,
        }
        self.jobs[job].report = report;
        self.jobs[job].phase = Phase::Done;
        self.observer.emit(
            self.now_ns,
            &Event::JobFinished {
                job: job as u32,
                elapsed_ns,
            },
        );
        self.resplit_dram();
    }

    /// Drain the queue: run every submitted job to its outcome and
    /// produce the [`ServiceReport`]. Deterministic — a fixed submission
    /// sequence yields a bit-identical report regardless of host threads.
    pub fn run(&mut self) -> ServiceReport {
        let mut free = self.cfg.pool_executors;
        let mut pending: Vec<Pending> = Vec::new();
        loop {
            // Fill free slots, one dispatch at a time (each changes the
            // candidate set and the fairness accounting). When the
            // policy's top choice needs more slots than are free, the
            // free slots are *reserved* for it — nothing else dispatches
            // until completions accumulate enough. Without reservation a
            // multi-slot job starves under constant single-slot churn
            // (two slots are rarely free at once); with it, the wait is
            // bounded by the in-flight stages draining. No deadlock: with
            // nothing in flight every slot is free, and `submit` already
            // bounded each job's executors by the pool size.
            loop {
                let cands = self.candidates();
                let Some(job) = self.pick(&cands) else { break };
                let need = match &self.jobs[job].phase {
                    Phase::Barrier { .. } => 1,
                    Phase::Queued { .. } => self.jobs[job].executors,
                    _ => unreachable!("picked a job that is not schedulable"),
                };
                if need > free {
                    break; // reserve: hold the free slots for this pick
                }
                let tenant = self.jobs[job].tenant;
                if self.dispatch(job, &mut free, &mut pending) {
                    self.record_preemptions(job);
                    self.record_spread(&cands, tenant);
                }
            }
            // Advance to the earliest completion (ties: dispatch order).
            let Some(next) = pending
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.t_ns.total_cmp(&b.1.t_ns).then(a.1.seq.cmp(&b.1.seq)))
                .map(|(i, _)| i)
            else {
                break; // nothing running and nothing dispatchable
            };
            let Pending { t_ns, job, .. } = pending.swap_remove(next);
            self.now_ns = t_ns;
            self.complete(job, &mut free);
        }
        // Jobs still queued are permanently blocked (quota or DRAM split
        // that no finish can ever relax): reject them.
        for idx in 0..self.jobs.len() {
            if matches!(self.jobs[idx].phase, Phase::Queued { .. }) {
                self.reject(idx);
            }
        }
        self.build_report()
    }

    fn build_report(&self) -> ServiceReport {
        let jobs: Vec<JobRecord> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(idx, j)| JobRecord {
                job: idx as u32,
                name: j.name.clone(),
                tenant: j.tenant,
                priority: j.priority,
                submit_s: j.submit_ns / NS_PER_S,
                start_s: if j.start_ns >= 0.0 {
                    j.start_ns / NS_PER_S
                } else {
                    NEVER_S
                },
                finish_s: if j.finish_ns >= 0.0 {
                    j.finish_ns / NS_PER_S
                } else {
                    NEVER_S
                },
                stages: j.stages,
                preemptions: j.preemptions,
                dram_share_bytes: j.dram_share,
                outcome: j.outcome.unwrap_or(JobOutcome::Rejected),
                report: j.report.clone(),
                results: j.results.clone(),
            })
            .collect();
        let tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|(&tenant, t)| TenantReport {
                tenant,
                weight: t.weight,
                quota_bytes: t.quota_bytes,
                submitted: t.submitted,
                finished: t.finished,
                rejected: t.rejected,
                failed: t.failed,
                vruntime_s: t.vruntime_ns / NS_PER_S,
                busy_s: t.busy_ns / NS_PER_S,
                dram_share_bytes: t.max_dram_share,
                aggregate: (!t.reports.is_empty()).then(|| RunReport::aggregate(&t.reports)),
            })
            .collect();
        let finished = jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::Finished)
            .count() as u64;
        let first_submit = jobs
            .iter()
            .map(|j| j.submit_s)
            .fold(f64::INFINITY, f64::min);
        let last_finish = jobs
            .iter()
            .filter(|j| j.finish_s >= 0.0)
            .map(|j| j.finish_s)
            .fold(0.0, f64::max);
        let makespan_s = if first_submit.is_finite() && last_finish > first_submit {
            last_finish - first_submit
        } else {
            0.0
        };
        let mut delays: Vec<f64> = jobs.iter().filter_map(JobRecord::queued_s).collect();
        ServiceReport {
            policy: self.cfg.policy.label().to_string(),
            pool_executors: self.cfg.pool_executors,
            dram_budget_bytes: self.cfg.dram_budget_bytes,
            makespan_s,
            jobs_per_s: if makespan_s > 0.0 {
                finished as f64 / makespan_s
            } else {
                0.0
            },
            queue_p50_s: nearest_rank(&mut delays, 0.50),
            queue_p99_s: nearest_rank(&mut delays, 0.99),
            queue_max_s: delays.last().copied().unwrap_or(0.0),
            preemptions: jobs.iter().map(|j| u64::from(j.preemptions)).sum(),
            max_vtime_spread_s: self.max_vtime_spread_ns / NS_PER_S,
            max_stage_charge_s: self.max_stage_charge_ns / NS_PER_S,
            jobs,
            tenants,
        }
    }
}
