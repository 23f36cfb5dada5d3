//! Service-level reporting: per-job records, per-tenant rollups, and the
//! [`ServiceReport`] the whole service run produces.
//!
//! Everything here is deterministic and `to_json`-able with a fixed field
//! order, so a fixed submission sequence yields a byte-identical report —
//! the property the CI determinism check `cmp`s across host-thread
//! budgets.

use obs::Json;
use panthera::RunReport;
use sparklet::ActionResult;

/// Sentinel for "never happened" timestamps (`start_s` of a rejected
/// job): a negative time, impossible for the service clock.
pub const NEVER_S: f64 = -1.0;

/// How a submitted job left the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion; its [`RunReport`] and action results are in the
    /// job record.
    Finished,
    /// Never admitted: its footprint exceeded the tenant quota, or its
    /// arbitrated DRAM share could not satisfy the configuration's
    /// constraints even running alone.
    Rejected,
    /// Admitted but its run errored (an injected crash with recovery
    /// disabled, or a shuffle record with no key). Other tenants' jobs are
    /// unaffected — each job owns its whole runtime.
    Failed,
}

impl JobOutcome {
    /// Stable serialization label.
    pub fn label(self) -> &'static str {
        match self {
            JobOutcome::Finished => "finished",
            JobOutcome::Rejected => "rejected",
            JobOutcome::Failed => "failed",
        }
    }
}

/// Everything the service measured about one submitted job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Service-assigned id (submission order).
    pub job: u32,
    /// Workload/program name.
    pub name: String,
    /// The submitting tenant.
    pub tenant: u32,
    /// Submission priority (higher dispatches first within the tenant).
    pub priority: u32,
    /// Submission time on the service clock, seconds.
    pub submit_s: f64,
    /// First-dispatch time, seconds ([`NEVER_S`] if never admitted).
    pub start_s: f64,
    /// Finish time, seconds ([`NEVER_S`] if never finished).
    pub finish_s: f64,
    /// Statement-stages executed (0 for atomic multi-executor jobs, whose
    /// stages run inside the cluster driver).
    pub stages: u32,
    /// Times the job was paused at a stage barrier in favour of another
    /// tenant's stage.
    pub preemptions: u32,
    /// DRAM budget bytes arbitrated to the job when it started.
    pub dram_share_bytes: u64,
    /// How the job left the service.
    pub outcome: JobOutcome,
    /// The job's full run measurements (absent for rejected/failed jobs).
    pub report: Option<RunReport>,
    /// `(variable name, result)` per executed action, in program order.
    pub results: Vec<(String, ActionResult)>,
}

impl JobRecord {
    /// Queueing delay (submission → first dispatch), seconds; `None` if
    /// the job was never admitted.
    pub fn queued_s(&self) -> Option<f64> {
        (self.start_s >= 0.0).then_some(self.start_s - self.submit_s)
    }

    /// Serialize as a JSON object (field order fixed). Action results are
    /// summarized by count — their values live in the in-memory record.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("job", Json::UInt(u64::from(self.job))),
            ("name", Json::Str(self.name.clone())),
            ("tenant", Json::UInt(u64::from(self.tenant))),
            ("priority", Json::UInt(u64::from(self.priority))),
            ("submit_s", Json::Num(self.submit_s)),
            ("start_s", Json::Num(self.start_s)),
            ("finish_s", Json::Num(self.finish_s)),
            ("stages", Json::UInt(u64::from(self.stages))),
            ("preemptions", Json::UInt(u64::from(self.preemptions))),
            ("dram_share_bytes", Json::UInt(self.dram_share_bytes)),
            ("outcome", Json::Str(self.outcome.label().to_string())),
            ("actions", Json::UInt(self.results.len() as u64)),
            (
                "report",
                match &self.report {
                    Some(r) => r.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Per-tenant rollup across the whole service run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant id.
    pub tenant: u32,
    /// Fair-share weight.
    pub weight: f64,
    /// Heap quota, bytes (`None` = unlimited).
    pub quota_bytes: Option<u64>,
    /// Jobs submitted.
    pub submitted: u32,
    /// Jobs that ran to completion.
    pub finished: u32,
    /// Jobs rejected at admission.
    pub rejected: u32,
    /// Jobs that errored.
    pub failed: u32,
    /// Final weighted virtual runtime, seconds.
    pub vruntime_s: f64,
    /// Unweighted simulated seconds of stage time the tenant consumed.
    pub busy_s: f64,
    /// Largest DRAM budget sum its concurrently-live jobs ever held.
    pub dram_share_bytes: u64,
    /// Aggregate of the tenant's finished jobs' reports
    /// ([`RunReport::aggregate`]); `None` if nothing finished.
    pub aggregate: Option<RunReport>,
}

impl TenantReport {
    /// Serialize as a JSON object (field order fixed).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tenant", Json::UInt(u64::from(self.tenant))),
            ("weight", Json::Num(self.weight)),
            (
                "quota_bytes",
                match self.quota_bytes {
                    Some(q) => Json::UInt(q),
                    None => Json::Null,
                },
            ),
            ("submitted", Json::UInt(u64::from(self.submitted))),
            ("finished", Json::UInt(u64::from(self.finished))),
            ("rejected", Json::UInt(u64::from(self.rejected))),
            ("failed", Json::UInt(u64::from(self.failed))),
            ("vruntime_s", Json::Num(self.vruntime_s)),
            ("busy_s", Json::Num(self.busy_s)),
            ("dram_share_bytes", Json::UInt(self.dram_share_bytes)),
            (
                "aggregate",
                match &self.aggregate {
                    Some(r) => r.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Everything one whole service run produced.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Scheduling policy label (`"fair_share"` or `"fifo"`).
    pub policy: String,
    /// Executor slots in the shared pool.
    pub pool_executors: u16,
    /// Hot-memory budget arbitrated across live jobs (`None` = no
    /// arbitration).
    pub dram_budget_bytes: Option<u64>,
    /// One record per submitted job, in submission order.
    pub jobs: Vec<JobRecord>,
    /// One rollup per registered tenant, in tenant-id order.
    pub tenants: Vec<TenantReport>,
    /// First submission → last finish, service seconds.
    pub makespan_s: f64,
    /// Finished jobs per service second.
    pub jobs_per_s: f64,
    /// Median queueing delay over admitted jobs, seconds.
    pub queue_p50_s: f64,
    /// 99th-percentile queueing delay (nearest-rank), seconds.
    pub queue_p99_s: f64,
    /// Worst queueing delay, seconds.
    pub queue_max_s: f64,
    /// Stage-barrier preemptions across all jobs.
    pub preemptions: u64,
    /// Largest weighted virtual-time spread ever observed between
    /// schedulable tenants at a dispatch — the stage-level fairness
    /// metric. Bounded by [`ServiceReport::max_stage_charge_s`] under
    /// fair-share.
    pub max_vtime_spread_s: f64,
    /// Largest single weighted stage charge (stage seconds / weight) any
    /// dispatch ever added.
    pub max_stage_charge_s: f64,
}

impl ServiceReport {
    /// Serialize as a JSON object (field order fixed).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("policy", Json::Str(self.policy.clone())),
            ("pool_executors", Json::UInt(u64::from(self.pool_executors))),
            (
                "dram_budget_bytes",
                match self.dram_budget_bytes {
                    Some(b) => Json::UInt(b),
                    None => Json::Null,
                },
            ),
            ("makespan_s", Json::Num(self.makespan_s)),
            ("jobs_per_s", Json::Num(self.jobs_per_s)),
            ("queue_p50_s", Json::Num(self.queue_p50_s)),
            ("queue_p99_s", Json::Num(self.queue_p99_s)),
            ("queue_max_s", Json::Num(self.queue_max_s)),
            ("preemptions", Json::UInt(self.preemptions)),
            ("max_vtime_spread_s", Json::Num(self.max_vtime_spread_s)),
            ("max_stage_charge_s", Json::Num(self.max_stage_charge_s)),
            (
                "jobs",
                Json::Arr(self.jobs.iter().map(JobRecord::to_json).collect()),
            ),
            (
                "tenants",
                Json::Arr(self.tenants.iter().map(TenantReport::to_json).collect()),
            ),
        ])
    }
}
