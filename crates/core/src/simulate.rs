//! The one executor-run routine: validate, analyze, build, step, report.
//!
//! Every run is made of executors, and every executor is a
//! [`SingleCursor`]: [`crate::RunBuilder`] starts one on the caller's
//! thread and steps it to completion, the cluster driver starts one per
//! executor thread with a [`ClusterCtx`] attached, and external schedulers
//! (the job service, the streaming driver) pause theirs at stage barriers.

use crate::config::{ConfigError, SystemConfig};
use crate::report::RunReport;
use panthera_analysis::{analyze, InstrumentationPlan};
use sparklang::ast::{LoopId, RddExpr, Stmt, StmtId};
use sparklang::visit::{walk, Visitor};
use sparklang::{FnTable, Program};
use sparklet::{
    ClusterCtx, ClusterError, DataRegistry, Engine, PantheraRuntime, RecoveryCounters, RunOutcome,
    StageCursor,
};

/// The instrumentation plan `config.mode` runs `program` under: the
/// Section 3 analysis for semantic modes, nothing for the baselines.
pub(crate) fn static_plan(program: &Program, config: &SystemConfig) -> InstrumentationPlan {
    if config.mode.is_semantic() {
        analyze(program).plan
    } else {
        InstrumentationPlan::default()
    }
}

/// Check that `program` is well-formed, naming it in the error.
pub(crate) fn validate_program(program: &Program) -> Result<(), ConfigError> {
    sparklang::validate(program)
        .map_err(|e| ConfigError::new(format!("ill-formed program {:?}: {e}", program.name)))
}

/// Check that every dataset `program` reads is registered in `data`,
/// naming the program and the first missing dataset in the error.
pub(crate) fn check_sources(program: &Program, data: &DataRegistry) -> Result<(), ConfigError> {
    fn missing<'e>(expr: &'e RddExpr, data: &DataRegistry) -> Option<&'e String> {
        match expr {
            RddExpr::Source(name) => (!data.contains(name)).then_some(name),
            RddExpr::Apply { inputs, .. } => inputs.iter().find_map(|e| missing(e, data)),
            RddExpr::Var(_) => None,
        }
    }
    /// The registry, and the first source missing from it.
    struct Missing<'d>(&'d DataRegistry, Option<String>);
    impl Visitor for Missing<'_> {
        fn stmt(&mut self, _: StmtId, stmt: &Stmt, _: &[LoopId]) {
            if let (Stmt::Bind { expr, .. }, None) = (stmt, &self.1) {
                self.1 = missing(expr, self.0).cloned();
            }
        }
    }
    let mut visitor = Missing(data, None);
    walk(program, &mut visitor);
    match visitor.1 {
        Some(name) => Err(ConfigError::new(format!(
            "program {:?} reads the unregistered dataset {name:?}",
            program.name
        ))),
        None => Ok(()),
    }
}

/// One executor's run, paused at every stage barrier: a validated
/// configuration and program, a private [`PantheraRuntime`], and the
/// engine's resumable [`StageCursor`].
///
/// Stepping a `SingleCursor` to completion *is* a
/// `RunBuilder::new(..).config(..).run()` — the builder does exactly
/// that — and nothing about *when* stages run (in host time) touches the
/// simulated clock, so an external scheduler (the `panthera-jobs`
/// service) can interleave this run's statement-stages with other jobs'.
pub struct SingleCursor {
    cursor: StageCursor,
    workload: String,
}

impl SingleCursor {
    /// Validate `config` and `program`, analyze, build the runtime and
    /// engine, and pause before the first statement-stage.
    ///
    /// # Errors
    ///
    /// The first violated configuration constraint (asking for more than
    /// one executor is one: a cursor drives exactly one), an ill-formed
    /// program, or a program reading a dataset `data` does not register.
    pub fn start(
        program: Program,
        fns: FnTable,
        data: DataRegistry,
        config: &SystemConfig,
    ) -> Result<SingleCursor, ConfigError> {
        let plan = static_plan(&program, config);
        Self::start_with_plan(program, fns, data, config, plan)
    }

    /// [`SingleCursor::start`] with an explicit instrumentation plan
    /// instead of the freshly analyzed one — the hook a re-tagging policy
    /// uses to treat the static tags as priors and override them (e.g.
    /// the oracle pre-tags every site from a prior observation pass)
    /// before the run begins.
    ///
    /// # Errors
    ///
    /// Same constraints as [`SingleCursor::start`].
    pub fn start_with_plan(
        program: Program,
        fns: FnTable,
        data: DataRegistry,
        config: &SystemConfig,
        plan: InstrumentationPlan,
    ) -> Result<SingleCursor, ConfigError> {
        Self::start_executor(program, fns, data, config, plan, None)
    }

    /// The one set-up routine. `cluster` makes this executor a member of
    /// a cluster: it then reads its sources from the context's shared
    /// input, keeping only the partitions it owns, `data` goes unread, and
    /// it rendezvouses with its peers through the context's exchange; the
    /// engine owns the executor's recovery counters until
    /// [`SingleCursor::take_recovery`] or [`SingleCursor::finish`].
    /// `config` is always this executor's own one-runtime configuration.
    pub(crate) fn start_executor(
        program: Program,
        fns: FnTable,
        data: DataRegistry,
        config: &SystemConfig,
        plan: InstrumentationPlan,
        cluster: Option<(ClusterCtx, RecoveryCounters)>,
    ) -> Result<SingleCursor, ConfigError> {
        config.validate()?;
        if config.executors > 1 {
            return Err(ConfigError::new(format!(
                "config asks for {} executors; a stage cursor drives exactly one — \
                 drive multi-executor runs through RunBuilder::from_build",
                config.executors
            )));
        }
        validate_program(&program)?;
        if cluster.is_none() {
            check_sources(&program, &data)?;
        }
        let runtime = config.runtime()?;
        let engine_config = config.engine_config();
        let engine = match cluster {
            Some((ctx, recovery)) => {
                Engine::with_cluster(runtime, fns, engine_config, ctx, recovery)
            }
            None => Engine::with_config(runtime, fns, data, engine_config),
        };
        let workload = program.name.clone();
        Ok(SingleCursor {
            cursor: StageCursor::new(engine, program, plan),
            workload,
        })
    }

    /// Execute the next statement-stage; `false` once the schedule is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// Only a cluster executor fails, and only the driver starts one: a
    /// cursor from [`SingleCursor::start`] or
    /// [`SingleCursor::start_with_plan`] always returns `Ok`.
    pub fn step(&mut self) -> Result<bool, ClusterError> {
        self.cursor.step()
    }

    /// Whether every stage has executed.
    pub fn is_done(&self) -> bool {
        self.cursor.is_done()
    }

    /// The job's simulated clock, in nanoseconds.
    pub fn now_ns(&self) -> f64 {
        self.cursor.now_ns()
    }

    /// The paused runtime, for reading heap, GC, and frequency state at a
    /// stage barrier.
    pub fn runtime(&self) -> &PantheraRuntime {
        self.cursor.engine().runtime()
    }

    /// Mutable runtime access at a stage barrier — how an online policy
    /// pins per-RDD tag overrides on the collector between batches.
    pub fn runtime_mut(&mut self) -> &mut PantheraRuntime {
        self.cursor.engine_mut().runtime_mut()
    }

    /// The runtime RDD graph built so far (RDD ids ↔ variable labels).
    pub fn rdds(&self) -> &[sparklet::RddNode] {
        self.cursor.engine().rdds()
    }

    /// Force a full collection with the engine's current roots, applying
    /// any pinned tag overrides via the dynamic re-assessment.
    pub fn force_major(&mut self) {
        self.cursor.engine_mut().force_major();
    }

    /// A crashed cluster executor's recovery counters, for the driver to
    /// hand to the next incarnation.
    pub(crate) fn take_recovery(&mut self) -> RecoveryCounters {
        self.cursor.engine_mut().take_recovery()
    }

    /// Finish the run (end-of-run sweeps) and collect the report, the
    /// recovery counters included.
    ///
    /// # Panics
    ///
    /// Panics if stages remain.
    pub fn finish(self) -> (RunReport, RunOutcome) {
        let (engine, outcome) = self.cursor.finish();
        let mut report = RunReport::collect(&self.workload, engine.runtime(), outcome.stats);
        report.recovery = engine.recovery().report();
        (report, outcome)
    }
}
