//! The cluster driver: `E` executors, each with its own Panthera heap,
//! scheduled over host OS threads with bit-identical results.
//!
//! The paper evaluates Panthera inside a single Spark executor JVM; this
//! module models the *cluster* around it (DESIGN.md §8). A multi-executor
//! or fault-injected [`crate::RunBuilder`] run plays the Spark driver
//! here: it validates the configuration and the program once, generates
//! the input once and packs it into one `Send` [`SharedInput`], then
//! spawns one scoped OS thread per executor. Each executor is the same
//! [`sparklet::StageCursor`] a one-executor run steps, started with a
//! [`ClusterCtx`]: it replays the same driver program over its own
//! [`crate::PantheraRuntime`] — a private heap, GC coordinator,
//! traffic meter, and energy model — computing only the partitions
//! `i % E` of every stage (SPMD with deterministic ownership), and
//! decodes only its own source partitions out of the shared input. Wide
//! dependencies exchange map-side buckets through one
//! [`sparklet::Exchange`] (the engine charges serialization and transfer
//! on both sides), and virtual clocks synchronize at statement barriers,
//! which are gathers of the same exchange (stage end-time = max over
//! executors, modelling straggler skew).
//!
//! Every cross-thread interaction is a deterministic collective keyed by
//! program structure, so the merged [`RunReport`] is bit-identical
//! regardless of how many host threads actually run (`host_threads` only
//! rations permits) — and an `E = 1` cluster, whose collectives are all
//! no-ops, matches the on-thread one-executor run record for record.
//!
//! # Fault tolerance
//!
//! [`crate::RunBuilder::faults`] runs the same cluster under a
//! deterministic [`FaultPlan`] (DESIGN.md §9). The driver hands each
//! executor its [`FaultPlan::for_executor`] slice and the shared
//! [`sparklet::Exchange`]; the engine's own probes fire every planned
//! fault — barrier and virtual-time crashes, message losses, allocation
//! faults.
//! An injected executor crash returns from the engine as a
//! [`sparklet::ClusterError`] value, and the driver restarts the executor
//! with a fresh [`crate::PantheraRuntime`] whose clock resumes at the
//! crash time plus a restart penalty. The new incarnation replays the
//! program from the top — re-reading completed collectives from the
//! exchange cache, recomputing lost partitions through lineage (or
//! restoring them from the NVM checkpoint store, under
//! `RecoveryPolicy::CheckpointEvery`). Genuine panics and unrecovered
//! crashes poison the exchange instead, so surviving executors return a
//! typed [`sparklet::ClusterError`] rather than deadlocking.

pub use panthera_recovery::{
    AllocFaultPoint, CrashPoint, FaultPlan, FaultSpec, GatherKind, LossPoint, VCrashPoint,
};
pub use sparklet::NvmCheckpointStore;

use crate::error::RunError;
use crate::simulate::{check_sources, start_executor, static_plan, validate_program};
use crate::{ConfigError, MemoryMode, RecoveryPolicy, RunReport, RunSummary, SystemConfig};
use hybridmem::DeviceSpec;
use mheap::WireBatch;
use obs::{Event, EventSink, Observer};
use sparklang::{FnTable, Program};
use sparklet::{
    ActionResult, ClusterCtx, ClusterError, DataRegistry, Exchange, RecoveryCounters, SharedInput,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A `Send`able mirror of [`ActionResult`] for crossing executor-thread
/// boundaries (payloads come back packed in a [`WireBatch`]; a reduced
/// value is a batch of one record, or of none).
#[derive(Debug, Clone, PartialEq)]
enum WireResult {
    Count(u64),
    Collected(WireBatch),
    Reduced(WireBatch),
}

fn to_wire(r: &ActionResult) -> WireResult {
    match r {
        ActionResult::Count(n) => WireResult::Count(*n),
        ActionResult::Collected(recs) => WireResult::Collected(WireBatch::encode(recs)),
        ActionResult::Reduced(rec) => WireResult::Reduced(WireBatch::encode(rec)),
    }
}

fn from_wire(r: &WireResult) -> ActionResult {
    match r {
        WireResult::Count(n) => ActionResult::Count(*n),
        WireResult::Collected(recs) => ActionResult::Collected(recs.payloads().collect()),
        WireResult::Reduced(rec) => ActionResult::Reduced(rec.payloads().next()),
    }
}

/// The `Send`able plain-data core of a [`SystemConfig`], used to rebuild
/// an identical per-executor configuration (fresh observer, one executor)
/// inside each worker thread — `SystemConfig` itself holds an `Rc`-based
/// observer handle and cannot cross threads.
struct CfgSeed {
    mode: MemoryMode,
    heap_bytes: u64,
    dram_ratio: f64,
    nursery_fraction: f64,
    chunk_bytes: u64,
    eager_promotion: bool,
    card_padding: bool,
    dynamic_migration: bool,
    large_array_elems: usize,
    tuple_bloat_bytes: u64,
    nvm_spec: Option<DeviceSpec>,
    seed: u64,
    verify_heap: bool,
    recovery: RecoveryPolicy,
    costs: sparklet::CostModel,
    transport: sparklet::ShuffleTransport,
    offheap_cache: bool,
    region_alloc: bool,
    partitions: usize,
    fuse_narrow: bool,
}

impl CfgSeed {
    /// Destructures exhaustively, and [`CfgSeed::rebuild`] names every
    /// field: a knob added to [`SystemConfig`] fails to compile here
    /// instead of silently resetting to its default on every executor.
    fn of(c: &SystemConfig) -> CfgSeed {
        let SystemConfig {
            mode,
            heap_bytes,
            dram_ratio,
            nursery_fraction,
            chunk_bytes,
            eager_promotion,
            card_padding,
            dynamic_migration,
            large_array_elems,
            tuple_bloat_bytes,
            nvm_spec,
            seed,
            observer: _, // per-executor: a thread-local buffer sink
            verify_heap,
            executors: _, // per-executor: always 1
            recovery,
            costs,
            transport,
            offheap_cache,
            region_alloc,
            partitions,
            fuse_narrow,
        } = c.clone();
        CfgSeed {
            mode,
            heap_bytes,
            dram_ratio,
            nursery_fraction,
            chunk_bytes,
            eager_promotion,
            card_padding,
            dynamic_migration,
            large_array_elems,
            tuple_bloat_bytes,
            nvm_spec,
            seed,
            verify_heap,
            recovery,
            costs,
            transport,
            offheap_cache,
            region_alloc,
            partitions,
            fuse_narrow,
        }
    }

    fn rebuild(&self, observer: Observer) -> SystemConfig {
        SystemConfig {
            mode: self.mode,
            heap_bytes: self.heap_bytes,
            dram_ratio: self.dram_ratio,
            nursery_fraction: self.nursery_fraction,
            chunk_bytes: self.chunk_bytes,
            eager_promotion: self.eager_promotion,
            card_padding: self.card_padding,
            dynamic_migration: self.dynamic_migration,
            large_array_elems: self.large_array_elems,
            tuple_bloat_bytes: self.tuple_bloat_bytes,
            nvm_spec: self.nvm_spec.clone(),
            seed: self.seed,
            observer,
            verify_heap: self.verify_heap,
            executors: 1, // each executor is one classic single-JVM runtime
            recovery: self.recovery,
            costs: self.costs,
            transport: self.transport,
            offheap_cache: self.offheap_cache,
            region_alloc: self.region_alloc,
            partitions: self.partitions,
            fuse_narrow: self.fuse_narrow,
        }
    }
}

/// Buffers an executor's event stream inside its thread; the driver
/// re-emits the buffered events through the caller's observer afterwards,
/// tagged with the executor id.
struct BufSink {
    events: Vec<(f64, Event)>,
}

impl EventSink for BufSink {
    fn on_event(&mut self, t_ns: f64, event: &Event) {
        self.events.push((t_ns, event.clone()));
    }
}

/// Poisons the exchange when its executor thread unwinds from a genuine
/// panic, so peers blocked in a collective return the poison error
/// instead of waiting for an executor that will never arrive. The panic
/// itself comes back from the thread's `join`.
struct PoisonOnPanic<'a> {
    exchange: &'a Exchange,
    exec: u16,
}

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.exchange.poison(ClusterError::Poisoned {
                exec: self.exec,
                reason: "executor panicked".into(),
            });
        }
    }
}

/// The run error an executor's stop reports: a broken exchange protocol
/// or a program fault. `None` for the failures the driver handles itself
/// (crashes and poison). A peer's poison is not the run's error: the
/// executor that poisoned the exchange reports it.
pub(crate) fn run_error(err: &ClusterError) -> Option<RunError> {
    match *err {
        ClusterError::DivergentDeposit {
            exec,
            landed,
            replayed,
        } => Some(RunError::DivergentDeposit {
            exec,
            landed,
            replayed,
        }),
        ClusterError::PermitHeld { exec } => Some(RunError::PermitHeld { exec }),
        ClusterError::KeylessRecord { rdd, ref record } => Some(RunError::KeylessRecord {
            rdd,
            record: record.clone(),
        }),
        ClusterError::Poisoned { .. } | ClusterError::InjectedCrash { .. } => None,
    }
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The cluster driver behind every [`crate::RunBuilder`] run that is not
/// one fault-free executor (see the [module docs](self)).
///
/// `build` is called once here (validation, the Section 3 analysis, and
/// the input: its datasets are packed into one [`SharedInput`] that every
/// executor incarnation reads) and once inside each executor incarnation
/// for the program and user functions alone, whose data goes unread; it
/// must be deterministic. `host_threads` bounds how many executor threads
/// compute concurrently (clamped to `1..=executors`) and changes
/// wall-clock time only.
///
/// If the caller's `config.observer` has sinks attached, each executor's
/// event stream is buffered in its thread and re-emitted through those
/// sinks after the join, grouped by executor id and tagged via
/// [`Observer::emit_from`] — a deterministic order, independent of host
/// scheduling.
///
/// # Errors
///
/// [`RunError::Config`] for an invalid configuration, fault plan or
/// program, or a program reading a dataset the driver's build does not
/// register, before any executor starts. Past that point each failure
/// poisons the exchange, and once every executor has stopped the run
/// returns the first failure in this order (ties go to the lowest
/// executor id):
/// [`RunError::ExecutorPanicked`] for an executor thread that panics
/// (heap exhaustion, say), [`RunError::Config`] for an executor whose
/// build does not start (an ill-formed program),
/// [`RunError::DivergentDeposit`] for a replayed deposit that diverges
/// from the one that landed or [`RunError::PermitHeld`] for an
/// incarnation that acquires its run permit twice, and
/// [`RunError::ExecutorCrash`] for an injected crash when
/// `plan.recover` is unset.
///
/// # Panics
///
/// If `build` is nondeterministic, executors disagree on global action
/// results and the cross-check panics rather than returning wrong data.
pub(crate) fn run_executors(
    build: &(dyn Fn() -> (Program, FnTable, DataRegistry) + Sync),
    config: &SystemConfig,
    host_threads: usize,
    plan: &FaultPlan,
) -> Result<RunSummary, RunError> {
    config.validate()?;
    let n_exec = config.executors;
    plan.validate(n_exec).map_err(ConfigError::new)?;
    let seed = CfgSeed::of(config);
    // The driver's build is the run's input; an ill-formed program or an
    // unregistered source surfaces here as an `Err`, not inside a worker
    // thread.
    let (input, instr_plan) = {
        let (program, _, data) = build();
        validate_program(&program)?;
        check_sources(&program, &data)?;
        (
            Arc::new(SharedInput::pack(&data)),
            static_plan(&program, config),
        )
    };
    let observe = config.observer.enabled();
    let checkpoint_every = match config.recovery {
        RecoveryPolicy::Recompute => 0,
        RecoveryPolicy::CheckpointEvery(n) => n,
    };

    let exchange = Exchange::new(n_exec, host_threads, config.transport);
    let store = Arc::new(NvmCheckpointStore::new());

    type ExecYield = (RunReport, Vec<(String, WireResult)>, Vec<(f64, Event)>);
    let mut yields: Vec<ExecYield> = Vec::with_capacity(usize::from(n_exec));
    let mut failures: Vec<RunError> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(usize::from(n_exec));
        for exec in 0..n_exec {
            let instr_plan = &instr_plan;
            let input = &input;
            let seed = &seed;
            let exchange = Arc::clone(&exchange);
            let store = Arc::clone(&store);
            let faults = Arc::new(plan.for_executor(exec));
            // `Err(None)`: a peer's poison stopped this executor, and the
            // peer reports why.
            handles.push(scope.spawn(move || -> Result<ExecYield, Option<RunError>> {
                let _poison = PoisonOnPanic {
                    exchange: &exchange,
                    exec,
                };
                // Recovery counters outlive each incarnation: the running
                // engine owns them, and a crash hands them back here.
                let mut counters = RecoveryCounters::default();
                // The executor's restart loop: one iteration per heap
                // incarnation, all in this same OS thread. An injected
                // crash stops the attempt; with recovery on, the next
                // iteration replays the program against a fresh runtime.
                loop {
                    exchange.acquire_permit(exec).map_err(|e| run_error(&e))?;
                    // Every source comes from `input`: `data` goes unread,
                    // and a lazily registered one is never generated.
                    let (program, fns, data) = build();
                    let sink =
                        observe.then(|| Rc::new(RefCell::new(BufSink { events: Vec::new() })));
                    let cfg = seed.rebuild(match &sink {
                        Some(s) => Observer::with_sink(s.clone()),
                        None => Observer::disabled(),
                    });
                    if let Some(s) = &sink {
                        // Crashed incarnations took their event buffers
                        // with them; the counters kept their timeline.
                        s.borrow_mut().events.extend_from_slice(counters.marks());
                    }
                    let resume_ps = counters.resume_ps();
                    let ctx = ClusterCtx {
                        exec,
                        n_exec,
                        exchange: exchange.clone(),
                        input: Arc::clone(input),
                        store: Arc::clone(&store),
                        checkpoint_every,
                        faults: Arc::clone(&faults),
                    };
                    let started = start_executor(
                        program,
                        fns,
                        data,
                        &cfg,
                        instr_plan.clone(),
                        Some((ctx, counters)),
                    );
                    let mut executor = match started {
                        Ok(executor) => executor,
                        Err(e) => {
                            exchange.release_permit(exec);
                            let reason = format!("executor {exec} did not start: {}", e.message());
                            exchange.poison(ClusterError::Poisoned {
                                exec,
                                reason: reason.clone(),
                            });
                            return Err(Some(RunError::Config(ConfigError::new(reason))));
                        }
                    };
                    if let Some(resume_ps) = resume_ps {
                        // Restarts don't rewind time: the fresh heap's
                        // clock resumes at the crash instant plus the
                        // executor bring-up penalty, so every replayed
                        // stage — and the barrier times the survivors
                        // observe — carries the recovery cost.
                        executor
                            .engine_mut()
                            .runtime_mut()
                            .heap_mut()
                            .mem_mut()
                            .advance_to(resume_ps);
                    }
                    let stopped = loop {
                        match executor.step() {
                            Ok(true) => {}
                            Ok(false) => break None,
                            Err(err) => break Some(err),
                        }
                    };
                    let Some(err) = stopped else {
                        let (report, outcome) = RunReport::finish(executor);
                        let results = outcome
                            .results
                            .iter()
                            .map(|(name, r)| (name.clone(), to_wire(r)))
                            .collect();
                        let events = sink
                            .map(|s| std::mem::take(&mut s.borrow_mut().events))
                            .unwrap_or_default();
                        exchange.release_permit(exec);
                        return Ok((report, results, events));
                    };
                    exchange.release_permit(exec);
                    match err {
                        ClusterError::InjectedCrash { barrier, at_ps, .. } if plan.recover => {
                            // Restart: the next iteration replays.
                            counters = executor.engine_mut().take_recovery();
                            counters.crashed(barrier, at_ps, plan.restart_penalty_ns);
                        }
                        ClusterError::InjectedCrash { exec, barrier, .. } => {
                            exchange.poison(ClusterError::Poisoned {
                                exec,
                                reason: format!(
                                    "injected crash at barrier {barrier}, recovery disabled"
                                ),
                            });
                            return Err(Some(RunError::ExecutorCrash { exec, barrier }));
                        }
                        // A peer's poison, or a broken protocol — from the
                        // journal, or from the exchange, which then has
                        // poisoned itself already (first poisoner wins).
                        err => {
                            let failure = run_error(&err);
                            exchange.poison(err);
                            return Err(failure);
                        }
                    }
                }
            }));
        }
        for (exec, h) in (0..n_exec).zip(handles) {
            match h.join() {
                Ok(Ok(y)) => yields.push(y),
                Ok(Err(failure)) => failures.extend(failure),
                Err(payload) => failures.push(RunError::ExecutorPanicked {
                    exec,
                    message: panic_reason(payload.as_ref()),
                }),
            }
        }
    });

    // The first failure by kind, then by executor: a panic, an executor
    // that did not start, a broken protocol, an unrecovered crash.
    let rank = |err: &RunError| match err {
        RunError::ExecutorPanicked { .. } => 0,
        RunError::Config(_) => 1,
        RunError::ExecutorCrash { .. } => 3,
        _ => 2,
    };
    if let Some(err) = failures.into_iter().min_by_key(rank) {
        return Err(err);
    }
    assert_eq!(
        yields.len(),
        usize::from(n_exec),
        "cluster run lost executors without a recorded failure"
    );

    for (exec, (_, results, _)) in yields.iter().enumerate().skip(1) {
        assert_eq!(
            results, &yields[0].1,
            "executor {exec} computed action results diverging from executor 0 — \
             is the `build` closure deterministic?"
        );
    }
    if observe {
        for (exec, (_, _, events)) in yields.iter().enumerate() {
            for (t_ns, event) in events {
                config.observer.emit_from(*t_ns, exec as u16, event);
            }
        }
    }
    let per_executor: Vec<RunReport> = yields.iter().map(|p| p.0.clone()).collect();
    let report = RunReport::aggregate(&per_executor);
    let results = yields[0]
        .1
        .iter()
        .map(|(name, r)| (name.clone(), from_wire(r)))
        .collect();
    Ok(RunSummary {
        report,
        results,
        per_executor,
        shared_region_bytes: exchange.shared_region_bytes(),
        shuffle_index_builds: exchange.shuffle_index_builds(),
        exchange_retained_bytes: exchange.retained_bytes(),
    })
}

/// The host-thread budget from `PANTHERA_HOST_THREADS`, or `default` if
/// the variable is unset or unparsable. Zero is treated as unset.
pub fn host_threads_from_env(default: usize) -> usize {
    std::env::var("PANTHERA_HOST_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SIM_GB;

    #[test]
    fn cfg_seed_round_trips_every_knob() {
        // Every field off its default, so a knob dropped by `of` or
        // `rebuild` shows up as a diff.
        let mut c = SystemConfig::new(MemoryMode::KingsguardWrites, 12 * SIM_GB, 0.4);
        c.nursery_fraction = 0.2;
        c.chunk_bytes = 2 * SIM_GB;
        c.eager_promotion = false;
        c.card_padding = false;
        c.dynamic_migration = false;
        c.large_array_elems = 17;
        c.tuple_bloat_bytes = 99;
        c.nvm_spec = Some(DeviceSpec::stt_mram());
        c.seed = 42;
        c.verify_heap = !c.verify_heap;
        c.executors = 4;
        c.recovery = RecoveryPolicy::CheckpointEvery(3);
        c.costs.disk_ns_per_byte *= 2.0;
        c.costs.net_ns_per_byte *= 3.0;
        c.costs.serde_cpu_ns *= 4.0;
        c.costs.mem_ns_per_byte *= 5.0;
        c.transport = sparklet::ShuffleTransport::SharedRegion;
        c.offheap_cache = true;
        c.region_alloc = true;
        c.partitions = 3;
        c.fuse_narrow = false;
        let rebuilt = CfgSeed::of(&c).rebuild(Observer::disabled());
        c.executors = 1; // the one knob `rebuild` pins
        assert_eq!(format!("{rebuilt:?}"), format!("{c:?}"));
    }

    /// A broken protocol surfaces as the run error naming its executor;
    /// crashes and poison are the driver's own to handle.
    #[test]
    fn protocol_errors_name_their_executor() {
        assert_eq!(
            run_error(&ClusterError::PermitHeld { exec: 2 }),
            Some(RunError::PermitHeld { exec: 2 })
        );
        let diverged = ClusterError::DivergentDeposit {
            exec: 1,
            landed: 3,
            replayed: 4,
        };
        assert_eq!(
            run_error(&diverged),
            Some(RunError::DivergentDeposit {
                exec: 1,
                landed: 3,
                replayed: 4,
            })
        );
        let poisoned = ClusterError::Poisoned {
            exec: 0,
            reason: "gone".into(),
        };
        assert_eq!(run_error(&poisoned), None);
        let crash = ClusterError::InjectedCrash {
            exec: 0,
            barrier: 1,
            at_ps: 2_000,
        };
        assert_eq!(run_error(&crash), None);
    }
}
