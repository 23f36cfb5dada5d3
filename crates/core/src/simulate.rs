//! The one executor-run routine: validate, analyze, build, start.
//!
//! Every run is made of executors, and every executor is a
//! [`StageCursor`] started here: [`crate::RunBuilder`] starts one on the
//! caller's thread and steps it to completion, the cluster driver starts
//! one per executor thread with a [`ClusterCtx`] attached, and external
//! schedulers (the job service, the streaming driver) pause theirs at
//! stage barriers. [`crate::RunReport::finish`] turns a finished cursor
//! into the run's report.

use crate::config::{ConfigError, SystemConfig};
use panthera_analysis::{analyze, InstrumentationPlan};
use sparklang::ast::{LoopId, RddExpr, Stmt, StmtId};
use sparklang::visit::{walk, Visitor};
use sparklang::{FnTable, Program, ValidateProgramError};
use sparklet::{ClusterCtx, DataRegistry, Engine, RecoveryCounters, StageCursor};

/// The instrumentation plan `config.mode` runs `program` under: the
/// Section 3 analysis for semantic modes, nothing for the baselines.
pub fn static_plan(program: &Program, config: &SystemConfig) -> InstrumentationPlan {
    if config.mode.is_semantic() {
        analyze(program).plan
    } else {
        InstrumentationPlan::default()
    }
}

/// The error of an ill-formed program, naming it.
fn ill_formed(name: &str, e: ValidateProgramError) -> ConfigError {
    ConfigError::new(format!("ill-formed program {name:?}: {e}"))
}

/// Check that `program` is well-formed, naming it in the error — the
/// cluster driver's check of its build before any executor starts.
pub(crate) fn validate_program(program: &Program) -> Result<(), ConfigError> {
    sparklang::validate(program).map_err(|e| ill_formed(&program.name, e))
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

/// Validate `config` and `program`, analyze, build the runtime and
/// engine, and pause before the first statement-stage.
///
/// Stepping the cursor to completion and passing it to
/// [`crate::RunReport::finish`] *is* a
/// `RunBuilder::new(..).config(..).run()` — the builder does exactly that
/// — and nothing about *when* stages run (in host time) touches the
/// simulated clock, so an external scheduler (the `panthera-jobs`
/// service) can interleave this run's statement-stages with other jobs'.
///
/// # Errors
///
/// The first violated configuration constraint (asking for more than one
/// executor is one: a cursor drives exactly one), a program reading a
/// dataset `data` does not register, or an ill-formed program.
pub fn start(
    program: Program,
    fns: FnTable,
    data: DataRegistry,
    config: &SystemConfig,
) -> Result<StageCursor, ConfigError> {
    let plan = static_plan(&program, config);
    start_with_plan(program, fns, data, config, plan)
}

/// [`start`] with an explicit instrumentation plan instead of the freshly
/// analyzed one — the hook a re-tagging policy uses to treat the static
/// tags as priors and override them (e.g. the oracle pre-tags every site
/// from a prior observation pass) before the run begins.
///
/// # Errors
///
/// Same constraints as [`start`].
pub fn start_with_plan(
    program: Program,
    fns: FnTable,
    data: DataRegistry,
    config: &SystemConfig,
    plan: InstrumentationPlan,
) -> Result<StageCursor, ConfigError> {
    start_executor(program, fns, data, config, plan, None)
}

/// The one set-up routine. `cluster` makes this executor a member of a
/// cluster: it then reads its sources from the context's shared input,
/// keeping only the partitions it owns, `data` goes unread, and it
/// rendezvouses with its peers through the context's exchange; the engine
/// owns the executor's recovery counters until the driver takes them back
/// (`Engine::take_recovery`) or `RunReport::finish` reports them.
/// `config` is always this executor's own one-runtime configuration.
pub(crate) fn start_executor(
    program: Program,
    fns: FnTable,
    data: DataRegistry,
    config: &SystemConfig,
    plan: InstrumentationPlan,
    cluster: Option<(ClusterCtx, RecoveryCounters)>,
) -> Result<StageCursor, ConfigError> {
    config.validate()?;
    if config.executors > 1 {
        return Err(ConfigError::new(format!(
            "config asks for {} executors; a stage cursor drives exactly one — \
             drive multi-executor runs through RunBuilder::from_build",
            config.executors
        )));
    }
    if cluster.is_none() {
        check_sources(&program, &data)?;
    }
    let runtime = config.runtime()?;
    let engine_config = config.engine_config();
    let engine = match cluster {
        Some((ctx, recovery)) => Engine::with_cluster(runtime, fns, engine_config, ctx, recovery),
        None => Engine::with_config(runtime, fns, data, engine_config),
    };
    let name = program.name.clone();
    StageCursor::new(engine, program, plan).map_err(|e| ill_formed(&name, e))
}
