#![deny(missing_docs)]

//! # panthera-jobs
//!
//! A deterministic, multi-tenant **job service** over the Panthera
//! simulation: many driver programs share one executor pool and one DRAM
//! budget, scheduled fairly across tenants (DESIGN.md §13).
//!
//! The service accepts a queue of [`JobSpec`]s — a sparklang program plus
//! per-job [`panthera::SystemConfig`] overrides, a tenant id, and a
//! priority — and runs them concurrently in *service virtual time*:
//!
//! * **Fair share.** Stage dispatches charge the owning tenant
//!   `stage_seconds / weight` of weighted virtual runtime; the
//!   schedulable tenant furthest behind runs next
//!   ([`SchedPolicy::FairShare`]; [`SchedPolicy::Fifo`] for the
//!   baseline). Jobs yield only at stage barriers, so every engine
//!   invariant survives preemption.
//! * **Tenancy.** Per-tenant heap quotas gate admission; a hot-memory
//!   (DRAM) budget is split across live jobs by tenant weight and
//!   re-split whenever a job starts or finishes. Each job owns its whole
//!   simulated runtime, so a crashing or quota-bounced job cannot perturb
//!   another tenant's measurements.
//! * **Determinism.** The event loop runs on the service clock alone: a
//!   fixed submission sequence yields a bit-identical [`ServiceReport`]
//!   regardless of host-thread budgets, and a single-tenant service run
//!   reproduces the equivalent [`panthera::RunBuilder`] run exactly.
//!
//! Entry points: build a [`JobService`], [`JobService::submit`] specs (or
//! use [`SubmitTo::submit_to`] on a configured `RunBuilder`), then
//! [`JobService::run`] to drain the queue and collect the report.

mod report;
mod service;
mod submit;

pub use report::{JobOutcome, JobRecord, ServiceReport, TenantReport, NEVER_S};
pub use service::{JobService, JobSpec, SchedPolicy, ServiceConfig, SubmitError};
pub use submit::SubmitTo;
