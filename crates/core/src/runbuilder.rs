//! The unified run entry point: one builder for every kind of run.
//!
//! [`RunBuilder`] is the one way to launch a run — single-executor,
//! multi-executor, or fault-injected — as one fluent chain:
//!
//! ```
//! use panthera::{MemoryMode, RunBuilder, SystemConfig, SIM_GB};
//! use sparklang::{ActionKind, ProgramBuilder, StorageLevel};
//! use sparklet::DataRegistry;
//! use mheap::Payload;
//!
//! let mut b = ProgramBuilder::new("demo");
//! let src = b.source("nums");
//! let xs = b.bind("xs", src.distinct());
//! b.persist(xs, StorageLevel::MemoryOnly);
//! b.loop_n(4, |b| b.action(xs, ActionKind::Count));
//! let (program, fns) = b.finish();
//!
//! let mut data = DataRegistry::new();
//! data.register("nums", (0..256).map(Payload::Long).collect());
//!
//! let cfg = SystemConfig::new(MemoryMode::Panthera, 2 * SIM_GB, 1.0 / 3.0);
//! let run = RunBuilder::new(&program, fns, data)
//!     .config(cfg)
//!     .run()
//!     .expect("valid configuration");
//! assert_eq!(run.results.len(), 4);
//! assert!(run.report.elapsed_s > 0.0);
//! ```
//!
//! Multi-executor and fault-injected runs need a *rebuild closure*
//! instead of a one-shot `(program, fns, data)` triple — user functions
//! and input registries cannot cross executor threads, so each executor
//! rebuilds them deterministically:
//!
//! ```
//! use panthera::{MemoryMode, RunBuilder, SystemConfig, SIM_GB};
//! # use sparklang::{ActionKind, ProgramBuilder};
//! # use sparklet::DataRegistry;
//! # use mheap::Payload;
//! # fn build() -> (sparklang::Program, sparklang::FnTable, DataRegistry) {
//! #     let mut b = ProgramBuilder::new("demo");
//! #     let src = b.source("nums");
//! #     let xs = b.bind("xs", src.distinct());
//! #     b.action(xs, ActionKind::Count);
//! #     let (program, fns) = b.finish();
//! #     let mut data = DataRegistry::new();
//! #     data.register("nums", (0..64).map(Payload::Long).collect());
//! #     (program, fns, data)
//! # }
//! let cfg = SystemConfig::new(MemoryMode::Panthera, 2 * SIM_GB, 1.0 / 3.0);
//! let run = RunBuilder::from_build(&build)
//!     .config(cfg)
//!     .executors(2)
//!     .run()
//!     .expect("valid configuration");
//! assert_eq!(run.per_executor.len(), 2);
//! ```

use crate::cluster::{self, FaultPlan};
use crate::config::SystemConfig;
use crate::error::RunError;
use crate::mode::MemoryMode;
use crate::report::RunReport;
use crate::simulate::SingleCursor;
use sparklang::{FnTable, Program};
use sparklet::{ActionResult, DataRegistry, EngineConfig};

/// Everything a completed run produces, for any executor count.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// The run's measurements. For multi-executor runs this is the
    /// cluster-level aggregate: elapsed time is the barrier-synced
    /// maximum; energy, traffic, and GC work are summed.
    pub report: RunReport,
    /// `(variable name, result)` per executed action, in program order.
    pub results: Vec<(String, ActionResult)>,
    /// One sub-report per executor, in executor-id order. Empty for
    /// single-runtime runs (the top-level `report` is the only runtime).
    pub per_executor: Vec<RunReport>,
    /// Total modelled bytes deposited into the shared shuffle region —
    /// 0 for single-runtime runs and under
    /// [`sparklet::ShuffleTransport::Serde`].
    pub shared_region_bytes: u64,
    /// `(key indexes built, shuffles gathered)` over the run's exchange —
    /// equal, and the same with or without crashes, because a shuffle is
    /// gathered once and its map output indexed once for all its readers,
    /// replaying incarnations included. `(0, 0)` for single-runtime runs,
    /// which have no exchange.
    pub shuffle_index_builds: (u64, u64),
    /// Host bytes of packed wire records the exchange still holds when the
    /// run ends — every completed gather stays re-readable for replay. A
    /// sum of buffer lengths, so the same at any host-thread budget and
    /// with or without crashes; 0 for single-runtime runs.
    pub exchange_retained_bytes: u64,
}

/// Where a run's program, functions, and data come from. Public so
/// [`RunBuilder::into_parts`] can hand it to other drivers (the
/// `panthera-jobs` service) that execute a configured run themselves.
pub enum RunSource<'a> {
    /// A one-shot triple: enough for exactly one single-runtime run.
    Once {
        /// The driver program.
        program: &'a Program,
        /// Its user-function table.
        fns: FnTable,
        /// Its input datasets.
        data: DataRegistry,
    },
    /// A deterministic rebuild closure, callable once per executor
    /// incarnation (multi-executor, fault injection, replay).
    Rebuild(&'a (dyn Fn() -> (Program, FnTable, DataRegistry) + Sync)),
}

/// A [`RunBuilder`] taken apart into its configured pieces
/// ([`RunBuilder::into_parts`]). Everything the builder would have used
/// to run, available to an external driver.
pub struct RunParts<'a> {
    /// The program source.
    pub source: RunSource<'a>,
    /// The full system configuration.
    pub config: SystemConfig,
    /// The engine's execution knobs.
    pub engine: EngineConfig,
    /// The explicit host-thread bound, if one was set.
    pub host_threads: Option<usize>,
    /// The fault plan, if one was set.
    pub faults: Option<&'a FaultPlan>,
}

/// Builder for one simulated run — single-runtime, multi-executor, or
/// fault-injected (see the [crate docs](crate) for an example).
pub struct RunBuilder<'a>(RunParts<'a>);

impl<'a> RunBuilder<'a> {
    /// A run of `source` in the paper's default configuration (Panthera
    /// mode, 64 GB heap, 1/3 DRAM) until [`config`](Self::config)
    /// replaces it.
    fn over(source: RunSource<'a>) -> Self {
        RunBuilder(RunParts {
            source,
            config: SystemConfig::paper_default(MemoryMode::Panthera),
            engine: EngineConfig::default(),
            host_threads: None,
            faults: None,
        })
    }

    /// A run over a one-shot `(program, fns, data)` triple. One-shot
    /// sources drive exactly one runtime; asking for more executors (or
    /// faults) yields [`RunError::NeedsRebuild`] at [`run`](Self::run).
    pub fn new(program: &'a Program, fns: FnTable, data: DataRegistry) -> Self {
        Self::over(RunSource::Once { program, fns, data })
    }

    /// A run over a deterministic rebuild closure — required for
    /// multi-executor and fault-injected runs, where each executor
    /// thread (and each post-crash incarnation) rebuilds the program,
    /// functions, and data from scratch. Every call of `build` must
    /// produce the identical program and data.
    pub fn from_build(build: &'a (dyn Fn() -> (Program, FnTable, DataRegistry) + Sync)) -> Self {
        Self::over(RunSource::Rebuild(build))
    }

    /// Replace the full system configuration (mode, heap geometry,
    /// ablations, costs, region/off-heap stores, executors, recovery).
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.0.config = config;
        self
    }

    /// Override the engine's execution knobs (fusion, partition count).
    /// Cost, transport, and store settings are always taken from the
    /// system config, which is their single source of truth.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.0.engine = engine;
        self
    }

    /// Executors in the simulated cluster (overrides the config's
    /// count). Values above 1 need a [`from_build`](Self::from_build)
    /// source.
    pub fn executors(mut self, n: u16) -> Self {
        self.0.config.executors = n;
        self
    }

    /// Bound how many executor threads compute concurrently. Changes
    /// wall-clock time only, never a simulated value; defaults to the
    /// `PANTHERA_HOST_THREADS` environment variable, then to one thread
    /// per executor.
    pub fn host_threads(mut self, n: usize) -> Self {
        self.0.host_threads = Some(n);
        self
    }

    /// Run under a deterministic fault plan (DESIGN.md §9): injected
    /// executor crashes, gather losses, and transient allocation
    /// failures. Needs a [`from_build`](Self::from_build) source — a
    /// restarted executor replays the program from scratch.
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.0.faults = Some(plan);
        self
    }

    /// The assembled system configuration, for inspection.
    pub fn peek_config(&self) -> &SystemConfig {
        &self.0.config
    }

    /// Dismantle the builder into its configured pieces without running.
    ///
    /// This is how alternative drivers — `RunBuilder::submit_to` in the
    /// `panthera-jobs` crate — reuse the builder's fluent surface while
    /// executing the run under their own scheduler.
    pub fn into_parts(self) -> RunParts<'a> {
        self.0
    }

    /// Execute the run.
    ///
    /// # Errors
    ///
    /// [`RunError::Config`] for a constraint violation,
    /// [`RunError::NeedsRebuild`] for a multi-executor or fault-injected
    /// run over a one-shot source, [`RunError::ExecutorCrash`] for an
    /// injected crash with recovery disabled, and
    /// [`RunError::DivergentDeposit`] when a restarted executor's replay
    /// deposits something other than what its first incarnation did.
    ///
    /// # Panics
    ///
    /// Panics if a simulated heap is exhausted mid-run, or if a
    /// rebuild closure is nondeterministic (executors then disagree on
    /// global action results — the cross-check fails rather than
    /// returning wrong data).
    pub fn run(self) -> Result<RunSummary, RunError> {
        let RunParts {
            source,
            config,
            engine,
            host_threads,
            faults,
        } = self.0;
        // One fault-free executor runs right here, on the caller's thread
        // with the caller's observer live: start, step to done, finish.
        if config.executors <= 1 && faults.is_none() {
            let (program, fns, data) = match source {
                RunSource::Once { program, fns, data } => (program.clone(), fns, data),
                RunSource::Rebuild(build) => build(),
            };
            let mut exec = SingleCursor::start(program, fns, data, &config, engine)?;
            while exec.step() {}
            let (report, outcome) = exec.finish();
            return Ok(RunSummary {
                report,
                results: outcome.results,
                per_executor: Vec::new(),
                shared_region_bytes: 0,
                shuffle_index_builds: (0, 0),
                exchange_retained_bytes: 0,
            });
        }
        let RunSource::Rebuild(build) = source else {
            return Err(RunError::NeedsRebuild {
                executors: config.executors,
            });
        };
        let host_threads = host_threads
            .unwrap_or_else(|| cluster::host_threads_from_env(usize::from(config.executors)));
        let none = FaultPlan::none();
        cluster::run_executors(
            build,
            &config,
            engine,
            host_threads,
            faults.unwrap_or(&none),
        )
    }
}
