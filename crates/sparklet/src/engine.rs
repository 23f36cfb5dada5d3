//! The execution engine: interprets driver programs over the simulated
//! heap, reproducing Spark's evaluation strategy as the paper describes it
//! (Section 2):
//!
//! * transformations are lazy — a `Bind` only creates runtime RDD nodes;
//! * `persist` materializes the RDD immediately, at the storage level (and
//!   DRAM/NVM sub-level) the analysis inferred;
//! * actions force evaluation and materialize their (non-persisted) target
//!   for the duration of the evaluation;
//! * wide transformations cut stages: map-side records are shuffled
//!   through simulated disk files, and the reduce side's output is
//!   materialized immediately as a `ShuffledRDD` that dies when the
//!   consuming evaluation completes;
//! * unmaterialized intermediate records stream through the young
//!   generation one at a time and die there — exactly the epochal
//!   behaviour Panthera's heap design exploits.

use crate::cluster::{
    ActionContrib, BeginOutcome, ClusterCtx, ClusterError, Deposit, JournalOp, Owner, PartMeta,
    RecoveryCtx, ShuffleContrib, ShuffleGather, WireParts,
};
use crate::costs::{CostModel, ShuffleTransport};
use crate::cursor::Schedule;
use crate::data::DataRegistry;
use crate::rdd::{MatData, RddId, RddNode, RddOp};
use crate::runtime::MemoryRuntime;
use crate::shuffle::{reduce_owned, KeyIndex};
use hybridmem::{AccessKind, AccessProfile, DeviceKind};
use mheap::{ObjKind, Payload, RegionHeap, RootSet, WireBatch};
use panthera_analysis::{collect_lifetimes, InstrumentationPlan, LifetimePlan};
use sparklang::ast::{ActionKind, Program, RddExpr, Stmt, StmtId, StorageLevel, Transform, VarId};
use sparklang::{FnTable, FuncId, UserFn};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Cost knobs of the engine's non-heap activities.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Data-movement charges (disk, network, serde, shared memory) — the
    /// single source of truth the engine and the cluster exchange share.
    pub costs: CostModel,
    /// CPU cost of one user-closure application.
    pub record_cpu_ns: f64,
    /// CPU cost of interpreting one driver statement.
    pub driver_cpu_ns: f64,
    /// Partitions per materialized RDD: each partition gets its own
    /// backbone array, and the arrays are allocated back to back — the
    /// reason shared cards "exist pervasively" (Section 4.2.3).
    pub partitions: usize,
    /// Fuse maximal chains of narrow transformations into one host-side
    /// streaming pass (records flow record-at-a-time through the whole
    /// chain; no intermediate stage ever materializes a `Vec<Payload>`).
    /// Simulated costs are charged from per-stage event logs in exactly
    /// the stage-at-a-time order the unfused engine uses, so simulated
    /// time/energy/GC behaviour is bit-identical either way, for any
    /// executor count. `false` selects the reference stage-at-a-time
    /// execution (kept for A/B benchmarking and the fused-vs-unfused
    /// equivalence tests).
    pub fuse_narrow: bool,
    /// How shuffle data crosses executors. Only consulted on the exchange
    /// leg of a shuffle, which a lone executor never takes.
    pub transport: ShuffleTransport,
    /// Store heap-level persisted RDDs as off-heap H2 blocks instead of
    /// materializing them into the traced heap: the GC neither traces nor
    /// card-marks them, they are never serialized, and they are released
    /// on the lifetime schedule the analysis crate computes. Blocks count
    /// in the `offheap_*` counters. Takes precedence over
    /// [`EngineConfig::region_alloc`] for persists.
    pub offheap_cache: bool,
    /// Lifetime-based region allocation (Deca-style): streamed
    /// temporaries bump a stage-scratch arena reset wholesale at stage
    /// end instead of allocating young heap objects, and — unless
    /// [`EngineConfig::offheap_cache`] is set — heap-level persists become
    /// RDD-lifetime arenas, counted in the `region_*` counters. Both
    /// kinds of block share one table and one lifetime schedule.
    /// Region-resident data is never traced, card-marked, or promoted;
    /// action results are bit-identical to a region-off run.
    pub region_alloc: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            costs: CostModel::default(),
            record_cpu_ns: 80.0,
            driver_cpu_ns: 1_000.0,
            partitions: 8,
            fuse_narrow: true,
            transport: ShuffleTransport::Serde,
            offheap_cache: false,
            region_alloc: false,
        }
    }
}

/// The value an action produced.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionResult {
    /// `count()`.
    Count(u64),
    /// `collect()`.
    Collected(Vec<Payload>),
    /// `reduce(f)`; `None` for an empty RDD.
    Reduced(Option<Payload>),
}

impl ActionResult {
    /// The count, if this is a `Count` result.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            ActionResult::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// The collected records, if this is a `Collected` result.
    pub fn as_collected(&self) -> Option<&[Payload]> {
        match self {
            ActionResult::Collected(v) => Some(v),
            _ => None,
        }
    }
}

obs::counters! {
    /// Execution counters.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct ExecStats {
        /// Records that flowed through narrow transformations.
        pub records_streamed: u64,
        /// Shuffles executed.
        pub shuffles: u64,
        /// Bytes written to + read from shuffle files.
        pub shuffle_bytes: u64,
        /// RDD materializations into the heap.
        pub materializations: u64,
        /// Actions executed.
        pub actions: u64,
        /// Runtime RDD instances created.
        pub rdd_instances: u64,
        /// Persisted RDDs evicted from the heap under memory pressure
        /// (dropped for MEMORY_ONLY levels, spilled to disk for
        /// MEMORY_AND_DISK levels — Spark's block-manager behaviour).
        pub evictions: u64,
        /// Shuffle bytes that crossed executors over the shared-region fast
        /// path instead of serde + network (these are the serde bytes
        /// avoided).
        pub fastpath_bytes: u64,
        /// Off-heap region blocks allocated.
        pub offheap_allocs: u64,
        /// Off-heap region blocks freed (refcount-zero releases, unpersists,
        /// and end-of-run sweeps together).
        pub offheap_frees: u64,
        /// Bytes allocated into the off-heap region.
        pub offheap_bytes: u64,
        /// Off-heap blocks still live at end of run and reclaimed by the
        /// sweep — a non-zero value means the lifetime schedule leaked.
        pub offheap_leaks: u64,
        /// Reads of off-heap record data whose region block was already
        /// freed — a non-zero value means the lifetime schedule freed early.
        pub offheap_dead_reads: u64,
        /// Stage-scratch region arenas opened (one per evaluation under
        /// [`EngineConfig::region_alloc`]).
        pub region_stage_arenas: u64,
        /// Bytes bumped into stage-scratch arenas (streamed temporaries and
        /// transient materializations that would otherwise hit the young
        /// generation).
        pub region_stage_bytes: u64,
        /// RDD-lifetime region arenas allocated.
        pub region_allocs: u64,
        /// RDD-lifetime region arenas freed wholesale (refcount-zero
        /// releases, unpersists, and end-of-run sweeps together).
        pub region_frees: u64,
        /// Bytes allocated into RDD-lifetime region arenas.
        pub region_bytes: u64,
        /// Region arenas still live at end of run and reclaimed by the sweep
        /// — a non-zero value means the lifetime schedule leaked.
        pub region_leaks: u64,
        /// Reads of region record data whose arena was already freed — a
        /// non-zero value means the lifetime schedule freed early.
        pub region_dead_reads: u64,
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// `(variable name, result)` per executed action, in order.
    pub results: Vec<(String, ActionResult)>,
    /// Execution counters.
    pub stats: ExecStats,
}

/// Where the records of a stored RDD sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stored {
    /// `DISK_ONLY`, or a `MEMORY_AND_DISK*` level spilled under pressure.
    Disk,
    /// Native `OFF_HEAP` storage — placed entirely in NVM (Section 4.1).
    Native,
    /// A serialized heap level: the heap holds compact byte buffers and
    /// the records sit here.
    Serialized,
    /// A block of the block table. The entry lives until `unpersist`;
    /// the block's bytes are released earlier, on the lifetime schedule.
    Block,
    /// The current stage's scratch arena: dropped with it when the
    /// evaluation completes.
    Scratch,
}

/// The space heap-level persists take outside the traced heap. It also
/// picks which [`ExecStats`] family a block counts in and which events it
/// emits, so reports keep one family per extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockSpace {
    /// Off-heap H2 blocks: `offheap_*` counters, `OffHeapAlloc`/`OffHeapFree`.
    OffHeap,
    /// RDD-lifetime arenas: `region_*` counters, `RegionAlloc`/`RegionFree`.
    Arena,
}

impl BlockSpace {
    /// This space's counters in `s`: allocs, frees, bytes, leaks, dead
    /// reads.
    fn counters(self, s: &mut ExecStats) -> [&mut u64; 5] {
        match self {
            BlockSpace::OffHeap => [
                &mut s.offheap_allocs,
                &mut s.offheap_frees,
                &mut s.offheap_bytes,
                &mut s.offheap_leaks,
                &mut s.offheap_dead_reads,
            ],
            BlockSpace::Arena => [
                &mut s.region_allocs,
                &mut s.region_frees,
                &mut s.region_bytes,
                &mut s.region_leaks,
                &mut s.region_dead_reads,
            ],
        }
    }

    fn alloc_event(self, rdd: u32, bytes: u64) -> obs::Event {
        match self {
            BlockSpace::OffHeap => obs::Event::OffHeapAlloc { rdd, bytes },
            BlockSpace::Arena => obs::Event::RegionAlloc { rdd, bytes },
        }
    }

    fn free_event(self, rdd: u32, bytes: u64) -> obs::Event {
        match self {
            BlockSpace::OffHeap => obs::Event::OffHeapFree { rdd, bytes },
            BlockSpace::Arena => obs::Event::RegionFree { rdd, bytes },
        }
    }
}

/// The engine. Owns the runtime, the function table, the input data, and
/// the runtime RDD graph.
#[derive(Debug)]
pub struct Engine<R: MemoryRuntime> {
    runtime: R,
    fns: FnTable,
    data: DataRegistry,
    config: EngineConfig,
    rdds: Vec<RddNode>,
    vars: Vec<Option<RddId>>,
    roots: RootSet,
    stats: ExecStats,
    /// Records of every RDD whose data sits outside the traced heap's
    /// objects, and where they sit. Behind `Rc` so re-reads hand out the
    /// same vector instead of copying it.
    stored: HashMap<RddId, (Stored, Rc<Vec<Payload>>)>,
    /// ShuffledRDDs (and action targets) materialized for the current
    /// evaluation only; reclaimed when it completes.
    transients: Vec<RddId>,
    /// Heap-persisted RDDs in persist order (LRU eviction order).
    persist_order: Vec<RddId>,
    /// Where heap-level persists go: `None` is the traced heap.
    persist_space: Option<BlockSpace>,
    /// Whether every evaluation opens a stage scratch arena.
    scratch_arenas: bool,
    /// Simulated-byte accounting for the blocks and the stage arena.
    blocks: RegionHeap,
    /// The static release schedule driving block refcounts; `Some` only
    /// when `persist_space` is.
    lifetime: Option<LifetimePlan>,
    /// Dynamic statement counter, in the lifetime plan's step numbering.
    lifetime_step: usize,
    /// The statement step currently executing (what `persist_block`
    /// looks its planned block up under).
    lifetime_cur: usize,
    /// Which RDD each plan block id materialized as, in block order.
    plan_blocks: Vec<RddId>,
    /// Non-zero while computing the inputs of a join: hash-probe access is
    /// random (latency-bound), not streaming.
    random_read_depth: u32,
    /// Sequence number for `StageStart`/`StageEnd` events.
    stage_seq: u32,
    /// Cluster membership; `None` is a lone executor that owns every
    /// partition and skips the barrier and both exchange legs.
    cluster: Option<ClusterCtx>,
    /// Cluster mode: where each computed RDD's local records sit in the
    /// global partition space. Entries persist across evictions (a
    /// recompute re-derives the identical layout).
    part_meta: HashMap<RddId, PartMeta>,
    /// Cluster mode: monotone statement-barrier counter.
    barrier_seq: u64,
    /// Cluster mode: monotone action-gather counter.
    action_seq: u64,
}

impl<R: MemoryRuntime> Engine<R> {
    /// Build an engine over a runtime, closures, and input data.
    pub fn new(runtime: R, fns: FnTable, data: DataRegistry) -> Self {
        Self::with_config(runtime, fns, data, EngineConfig::default())
    }

    /// Build an engine with explicit cost knobs.
    pub fn with_config(runtime: R, fns: FnTable, data: DataRegistry, config: EngineConfig) -> Self {
        // The one reading of the two storage switches: H2 wins over
        // arenas for persists, and the scratch arena follows
        // `region_alloc` alone.
        let scratch_arenas = config.region_alloc;
        let persist_space = if config.offheap_cache {
            Some(BlockSpace::OffHeap)
        } else if scratch_arenas {
            Some(BlockSpace::Arena)
        } else {
            None
        };
        Engine {
            runtime,
            fns,
            data,
            config,
            rdds: Vec::new(),
            vars: Vec::new(),
            roots: RootSet::new(),
            stats: ExecStats::default(),
            stored: HashMap::new(),
            transients: Vec::new(),
            persist_order: Vec::new(),
            persist_space,
            scratch_arenas,
            blocks: RegionHeap::new(),
            lifetime: None,
            lifetime_step: 0,
            lifetime_cur: 0,
            plan_blocks: Vec::new(),
            random_read_depth: 0,
            stage_seq: 0,
            cluster: None,
            part_meta: HashMap::new(),
            barrier_seq: 0,
            action_seq: 0,
        }
    }

    /// Build an executor-resident engine: it keeps only the source
    /// partitions assigned to `ctx.exec` and rendezvouses with its peers
    /// through `ctx.exchange` at shuffles, actions, and statement
    /// barriers. With `ctx.n_exec == 1` every collective is a no-op and
    /// the run is bit-identical to one without a `ClusterCtx`.
    pub fn with_cluster(
        runtime: R,
        fns: FnTable,
        data: DataRegistry,
        config: EngineConfig,
        ctx: ClusterCtx,
    ) -> Self {
        let mut e = Self::with_config(runtime, fns, data, config);
        e.cluster = Some(ctx);
        e
    }

    /// The runtime (heap, GC, energy reports).
    pub fn runtime(&self) -> &R {
        &self.runtime
    }

    /// Mutable runtime access.
    pub fn runtime_mut(&mut self) -> &mut R {
        &mut self.runtime
    }

    /// The runtime RDD graph built so far.
    pub fn rdds(&self) -> &[RddNode] {
        &self.rdds
    }

    /// Execution counters.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Force a full collection with the engine's current root set.
    ///
    /// External drivers call this at a stage barrier after changing
    /// placement inputs (e.g. an online policy pinned new per-RDD tag
    /// overrides) so the dynamic re-assessment applies them immediately
    /// instead of waiting for an organic major collection.
    pub fn force_major(&mut self) {
        self.runtime.force_major(&self.roots);
    }

    /// Run a program under an instrumentation plan (use
    /// `InstrumentationPlan::default()` for un-instrumented baselines).
    /// # Panics
    ///
    /// Panics if the program is ill-formed (see [`sparklang::validate`]) —
    /// programs built with the [`sparklang::ProgramBuilder`] always pass.
    pub fn run(&mut self, program: &Program, plan: &InstrumentationPlan) -> RunOutcome {
        self.begin_run(program);
        let mut schedule = Schedule::new(program);
        while schedule.step(self, program, plan) {}
        self.finish_run();
        RunOutcome {
            results: schedule.into_results(),
            stats: self.stats,
        }
    }

    /// Start-of-run setup shared by [`Engine::run`] and the resumable
    /// [`crate::StageCursor`]: validate the program, size the variable
    /// table, and (re)derive the lifetime schedule.
    pub(crate) fn begin_run(&mut self, program: &Program) {
        if let Err(e) = sparklang::validate(program) {
            panic!("ill-formed program {:?}: {e}", program.name);
        }
        self.vars = vec![None; program.n_vars()];
        if self.persist_space.is_some() {
            self.lifetime = Some(collect_lifetimes(program));
            self.lifetime_step = 0;
            self.plan_blocks.clear();
        }
    }

    /// End-of-run sweep shared by [`Engine::run`] and
    /// [`crate::StageCursor::finish`]: the lifetime schedule must have
    /// freed every block by now, so anything still live is a leak —
    /// reclaim it and count it (tests pin the counters to zero).
    pub(crate) fn finish_run(&mut self) {
        debug_assert!(
            !self.blocks.stage_open(),
            "stage scratch arena left open past the last evaluation"
        );
        for rdd in self.blocks.live_rdds() {
            let freed = self.blocks.free(rdd);
            let [_, _, _, leaks, _] = self.block_space().counters(&mut self.stats);
            *leaks += 1;
            self.note_block_free(rdd, freed.bytes);
        }
    }

    // ------------------------------------------------------------------
    // Interpreter
    // ------------------------------------------------------------------

    /// Per-statement entry bookkeeping: claim the next lifetime step and
    /// charge the driver-interpretation CPU cost. Returns the claimed
    /// step, which the matching [`Engine::stmt_epilogue`] consumes.
    pub(crate) fn stmt_prologue(&mut self) -> usize {
        let step = self.lifetime_step;
        self.lifetime_step += 1;
        self.lifetime_cur = step;
        self.cpu(self.config.driver_cpu_ns);
        step
    }

    /// Execute one non-loop statement (loops are unrolled by the flattened
    /// [`Schedule`], which calls this for each body statement).
    pub(crate) fn exec_simple(
        &mut self,
        program: &Program,
        s: &Stmt,
        id: StmtId,
        plan: &InstrumentationPlan,
        results: &mut Vec<(String, ActionResult)>,
    ) {
        match s {
            Stmt::Loop { .. } => unreachable!("loops are unrolled by the caller"),
            Stmt::Bind { var, expr } => {
                let rdd = self.build_expr(expr);
                self.rdds[rdd.0 as usize].label = Some(program.var_name(*var).to_string());
                self.vars[var.0 as usize] = Some(rdd);
            }
            Stmt::Persist { var, level } => {
                let rdd = self.var_rdd(*var);
                // The instrumented rdd_alloc call passes the inferred
                // tag down right before the materialization point.
                if let Some(tag) = plan.tag_at(id) {
                    self.rdds[rdd.0 as usize].merge_tag(tag);
                }
                self.rdds[rdd.0 as usize].persisted = Some(*level);
                self.persist_now(rdd);
            }
            Stmt::Unpersist { var } => {
                let rdd = self.var_rdd(*var);
                self.unpersist(rdd);
            }
            Stmt::Checkpoint { var } => {
                let rdd = self.var_rdd(*var);
                self.rdds[rdd.0 as usize].checkpointed = true;
            }
            Stmt::Action { var, action } => {
                let rdd = self.var_rdd(*var);
                self.runtime.record_rdd_call(rdd.0);
                if let Some(tag) = plan.tag_at(id) {
                    self.rdds[rdd.0 as usize].merge_tag(tag);
                }
                let value = self.run_action(rdd, action);
                self.stats.actions += 1;
                results.push((program.var_name(*var).to_string(), value));
            }
        }
    }

    /// Per-statement exit bookkeeping, the other half of
    /// [`Engine::stmt_prologue`].
    pub(crate) fn stmt_epilogue(&mut self, step: usize) {
        // Block bookkeeping scheduled for this statement: releases for
        // the persisted blocks its evaluation consumed, frees for blocks
        // born lineage-dead.
        self.apply_lifetime_ops(step);
        // Cluster mode: stage barrier after every statement. Loop trip
        // counts are static, so every executor reaches the same
        // barriers in the same order; the barrier clock is the max
        // arrival time — straggler skew stalls the whole cluster.
        self.cluster_barrier();
    }

    /// Statement barrier: rendezvous with every peer executor and advance
    /// this executor's virtual clock to the barrier time (the maximum
    /// arrival clock). No-op outside cluster mode, and a zero-length wait
    /// in a single-executor cluster.
    fn cluster_barrier(&mut self) {
        let Some(ctx) = self.cluster.clone() else {
            return;
        };
        self.crash_probe();
        let index = self.barrier_seq;
        self.barrier_seq += 1;
        let now = self.runtime.heap().mem().clock().now_ns();
        self.note_recovery_progress(index, now);
        let t_bar = ctx
            .exchange
            .barrier(ctx.exec, index, now)
            .unwrap_or_else(|e| std::panic::panic_any(e));
        self.sync_to(t_bar);
    }

    /// Replay-completion bookkeeping: if this executor is a restarted
    /// incarnation and its replay just re-reached the barrier its
    /// predecessor crashed at, recovery is complete — close the window,
    /// charge nothing (the clock already carries the replay cost), and
    /// emit [`obs::Event::RecoveryEnd`].
    fn note_recovery_progress(&self, index: u64, now: f64) {
        let Some((_, rec)) = self.recovery() else {
            return;
        };
        let done = rec.slot.with(|c| {
            if c.replay_until == Some(index) {
                c.replay_until = None;
                c.in_replay = false;
                // Nested faults widen `replay_until` to the furthest crash
                // barrier, so reaching it closes the whole (possibly
                // overlapping) window at once: the depth resets and the
                // single window is charged from the outermost crash.
                c.replay_depth = 0;
                let recovery_ns = now - c.recovery_started_ns;
                c.recovery_ns += recovery_ns;
                c.marks.push((
                    now,
                    crate::cluster::RecoveryMark::End {
                        barrier: index,
                        recovery_ns,
                    },
                ));
                Some(recovery_ns)
            } else {
                None
            }
        });
        if let Some(recovery_ns) = done {
            self.emit(obs::Event::RecoveryEnd {
                barrier: index,
                recovery_ns,
            });
        }
    }

    /// Advance the virtual clock to `t_bar` if it is behind (the executor
    /// idles until the cluster's straggler arrives). Monotone: a cached
    /// barrier time from a re-gathered shuffle never rewinds the clock.
    fn sync_to(&mut self, t_bar: f64) {
        let now = self.runtime.heap().mem().clock().now_ns();
        if t_bar > now {
            self.cpu(t_bar - now);
        }
    }

    fn var_rdd(&self, var: VarId) -> RddId {
        self.vars[var.0 as usize].unwrap_or_else(|| panic!("variable v{} unbound", var.0))
    }

    fn build_expr(&mut self, expr: &RddExpr) -> RddId {
        match expr {
            RddExpr::Var(v) => {
                let rdd = self.var_rdd(*v);
                // A transformation invoked on a named RDD object is a
                // monitored method call (Section 4.2.2).
                self.runtime.record_rdd_call(rdd.0);
                rdd
            }
            RddExpr::Source(name) => self.new_node(RddOp::Source(name.clone())),
            RddExpr::Apply { transform, inputs } => {
                let parents: Vec<RddId> = inputs.iter().map(|e| self.build_expr(e)).collect();
                self.new_node(RddOp::Transformed {
                    transform: transform.clone(),
                    parents,
                })
            }
        }
    }

    fn new_node(&mut self, op: RddOp) -> RddId {
        let id = RddId(self.rdds.len() as u32);
        self.rdds.push(RddNode::new(id, op));
        self.stats.rdd_instances += 1;
        id
    }

    fn unpersist(&mut self, rdd: RddId) {
        if let Some(mat) = self.rdds[rdd.0 as usize].materialized.take() {
            self.roots.remove(mat.top);
        }
        match self.stored.remove(&rdd) {
            Some((Stored::Block, _)) if self.blocks.block(rdd.0).is_some() => {
                // The lifetime schedule releases a block's last reference
                // at its last consuming statement, which precedes any
                // unpersist — so this free is defensive only.
                let freed = self.blocks.free(rdd.0);
                self.note_block_free(rdd.0, freed.bytes);
            }
            _ => {}
        }
        self.persist_order.retain(|r| *r != rdd);
        self.rdds[rdd.0 as usize].persisted = None;
    }

    // ------------------------------------------------------------------
    // Evaluation lifecycle
    // ------------------------------------------------------------------

    /// Run one top-level evaluation (a persist materialization or an
    /// action): opens a root scope, cleans up transient ShuffledRDDs at
    /// the end, and gives the runtime a stage boundary.
    ///
    /// Emits paired `StageStart`/`StageEnd` events carrying *cumulative*
    /// device write counters, so an aggregator derives per-evaluation
    /// write traffic by differencing. (Wide transformations inside one
    /// evaluation also pass a GC stage boundary but do not emit stage
    /// events: the event granularity is the top-level evaluation.)
    fn evaluation<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let stage = self.stage_seq;
        self.stage_seq += 1;
        self.emit_stage_event(stage, true);
        if self.scratch_arenas {
            // Every streamed temporary of this evaluation bumps the stage
            // scratch arena instead of the young generation.
            self.blocks.open_stage();
            self.stats.region_stage_arenas += 1;
        }
        self.roots.push_scope();
        let out = f(self);
        for rdd in std::mem::take(&mut self.transients) {
            if let Some(mat) = self.rdds[rdd.0 as usize].materialized.take() {
                self.roots.remove(mat.top);
            }
        }
        if self.scratch_arenas {
            // Wholesale reset, records and bytes together: no per-object
            // work, no GC involvement.
            self.stored.retain(|_, (at, _)| *at != Stored::Scratch);
            let freed = self.blocks.close_stage();
            if freed > 0 {
                self.emit(obs::Event::RegionStageFree { bytes: freed });
            }
        }
        if cfg!(debug_assertions) {
            if let Err(e) = self.blocks.check_invariants() {
                panic!("block table invariant violated at stage {stage}: {e}");
            }
        }
        self.roots.pop_scope();
        self.runtime.stage_boundary(&self.roots);
        self.emit_stage_event(stage, false);
        out
    }

    /// Emit one observation at the current virtual time (never charges; a
    /// single branch when no sink is attached).
    fn emit(&self, event: obs::Event) {
        let mem = self.runtime.heap().mem();
        mem.observer().emit(mem.clock().now_ns(), &event);
    }

    /// Emit one `StageStart`/`StageEnd` observation (never charges).
    fn emit_stage_event(&self, stage: u32, start: bool) {
        let mem = self.runtime.heap().mem();
        let observer = mem.observer();
        if !observer.enabled() {
            return;
        }
        let dram_write_bytes = mem
            .stats()
            .total_kind_bytes(DeviceKind::Dram, AccessKind::Write);
        let nvm_write_bytes = mem
            .stats()
            .total_kind_bytes(DeviceKind::Nvm, AccessKind::Write);
        let event = if start {
            obs::Event::StageStart {
                stage,
                dram_write_bytes,
                nvm_write_bytes,
            }
        } else {
            obs::Event::StageEnd {
                stage,
                dram_write_bytes,
                nvm_write_bytes,
            }
        };
        observer.emit(mem.clock().now_ns(), &event);
    }

    /// Materialize a persisted RDD immediately (Section 2: "persisted RDDs
    /// are materialized at the moment the method persist is called").
    fn persist_now(&mut self, rdd: RddId) {
        if self.is_materialized(rdd) {
            return;
        }
        self.propagate_tag_of(rdd);
        let level = self.rdds[rdd.0 as usize].persisted;
        self.evaluation(|e| {
            let records = e.compute(rdd);
            match level {
                Some(StorageLevel::DiskOnly) => {
                    e.charge_disk(&records);
                    e.stored.insert(rdd, (Stored::Disk, records));
                }
                Some(StorageLevel::OffHeap) => {
                    e.charge_native(&records, AccessKind::Write);
                    e.stored.insert(rdd, (Stored::Native, records));
                }
                // With a block space, every heap-level persist — serialized
                // levels included, since blocks are never serialized —
                // becomes a block instead of going into old gen.
                Some(l) if l.uses_heap() && e.persist_space.is_some() => {
                    e.persist_block(rdd, records);
                }
                Some(l) if l.is_serialized() => {
                    // A wide node may already carry its shuffle's transient
                    // (deserialized) materialization; replace it with the
                    // serialized form.
                    if let Some(mat) = e.rdds[rdd.0 as usize].materialized.take() {
                        e.roots.remove(mat.top);
                        e.transients.retain(|r| *r != rdd);
                    }
                    e.materialize_serialized(rdd, records);
                    e.persist_order.push(rdd);
                }
                // A persisted wide RDD was already materialized
                // persistently by its own shuffle.
                _ if e.is_materialized(rdd) => {
                    e.persist_order.push(rdd);
                }
                _ => {
                    e.materialize_into_heap(rdd, &records, false);
                    e.persist_order.push(rdd);
                }
            }
        });
    }

    /// Spark's block manager under memory pressure: when the old
    /// generation cannot hold a new persisted RDD, evict the oldest
    /// heap-resident persisted RDD — dropping it (MEMORY_ONLY, to be
    /// recomputed on next use) or spilling it to disk (MEMORY_AND_DISK).
    fn ensure_heap_capacity(&mut self, records: &[Payload]) {
        let need: u64 = records
            .iter()
            .map(|r| self.runtime.heap().tuple_footprint(r.model_bytes()))
            .sum::<u64>()
            + 8 * records.len() as u64
            // Headroom for promotions out of the young generation: the
            // paper's JVM throws OutOfMemoryError here, but Spark's block
            // manager evicts cached blocks before that happens.
            + self.runtime.heap().config().young_bytes();
        loop {
            if self.runtime.heap().old_free() >= need {
                return;
            }
            let Some(pos) = self
                .persist_order
                .iter()
                .position(|r| self.rdds[r.0 as usize].materialized.is_some())
            else {
                return; // nothing to evict; allocation fallbacks take over
            };
            let victim = self.persist_order.remove(pos);
            self.evict(victim);
            self.runtime.force_major(&self.roots);
        }
    }

    fn evict(&mut self, rdd: RddId) {
        self.stats.evictions += 1;
        let level = self.rdds[rdd.0 as usize].persisted;
        let spill = matches!(
            level,
            Some(StorageLevel::MemoryAndDisk)
                | Some(StorageLevel::MemoryAndDisk2)
                | Some(StorageLevel::MemoryAndDiskSer)
                | Some(StorageLevel::MemoryAndDiskSer2)
        );
        // Of the stored kinds, only a serialized level's records sit
        // beside a heap materialization.
        let serialized = match self.stored.remove(&rdd) {
            Some((Stored::Serialized, records)) => Some(records),
            None => None,
            Some((at, _)) => unreachable!("evicted {rdd} is stored as {at:?}"),
        };
        if spill {
            // Serialized blocks spill their bytes directly — no
            // deserialization; deserialized blocks are read out first.
            let records = serialized.unwrap_or_else(|| self.read_materialized(rdd));
            self.charge_disk(&records);
            self.stored.insert(rdd, (Stored::Disk, records));
        }
        if let Some(mat) = self.rdds[rdd.0 as usize].materialized.take() {
            self.roots.remove(mat.top);
        }
    }

    /// Run an action: evaluate the target, form this executor's local
    /// partial (a count, its records, or a locally-folded reduce partial —
    /// local folds charge per-step CPU), and in a cluster merge it with
    /// the peers' partials through [`Engine::exchange_action`]. A lone
    /// executor's partial *is* the global result.
    fn run_action(&mut self, rdd: RddId, action: &ActionKind) -> ActionResult {
        self.propagate_tag_of(rdd);
        self.evaluation(|e| {
            let records = e.compute(rdd);
            // Actions materialize their not-yet-persisted target
            // (Section 2) — transiently, since nothing keeps it alive.
            if !e.is_materialized(rdd) {
                e.materialize_into_heap(rdd, &records, true);
            }
            let local = match action {
                ActionKind::Count => ActionResult::Count(records.len() as u64),
                ActionKind::Collect => ActionResult::Collected(
                    Rc::try_unwrap(records).unwrap_or_else(|rc| rc.as_ref().clone()),
                ),
                ActionKind::Reduce(f) => {
                    let mut it = records.iter();
                    let first = it.next().cloned();
                    let folded = first.map(|mut acc| {
                        for r in it {
                            acc = e.apply_reduce(*f, &acc, r);
                        }
                        acc
                    });
                    ActionResult::Reduced(folded)
                }
            };
            match e.cluster.clone() {
                None => local,
                Some(ctx) => e.exchange_action(&ctx, rdd, action, local),
            }
        })
    }

    /// The cross-executor leg of an action: contribute the local partial,
    /// gather every executor's, and merge them into the global result —
    /// identically on every executor, so the driver can take any one of
    /// them. The cross-executor merge of reduce partials is uncharged
    /// driver work (a parallel-reduce tree root).
    fn exchange_action(
        &mut self,
        ctx: &ClusterCtx,
        rdd: RddId,
        action: &ActionKind,
        local: ActionResult,
    ) -> ActionResult {
        let contrib = match &local {
            ActionResult::Count(n) => ActionContrib::Count(*n),
            ActionResult::Collected(records) => {
                ActionContrib::Collect(self.wire_parts(rdd, records))
            }
            ActionResult::Reduced(folded) => ActionContrib::Reduce(WireBatch::encode(folded)),
        };
        let seq = self.action_seq;
        self.action_seq += 1;
        // Journaled deposit: begin (persist intent + digest), deposit,
        // commit. The probes expose both torn windows — crashed before
        // the deposit landed (replay rolls it forward) and after (the
        // exchange validates the replayed digest and keeps the
        // original).
        let deposit = Deposit::from(contrib);
        self.journal_begin(JournalOp::ActionDeposit, seq, deposit.digest, deposit.bytes);
        self.crash_probe();
        let now = self.runtime.heap().mem().clock().now_ns();
        let (contribs, t_bar) = ctx
            .exchange
            .gather_action(ctx.exec, seq, deposit, now)
            .unwrap_or_else(|err| std::panic::panic_any(err));
        self.sync_to(t_bar);
        self.crash_probe();
        self.journal_commit(JournalOp::ActionDeposit, seq);
        match action {
            ActionKind::Count => ActionResult::Count(
                contribs
                    .iter()
                    .map(|c| match c {
                        ActionContrib::Count(n) => *n,
                        other => panic!("mismatched action contribution {other:?}"),
                    })
                    .sum(),
            ),
            ActionKind::Collect => {
                let mut parts: Vec<&(u64, WireBatch)> = contribs
                    .iter()
                    .flat_map(|c| match c {
                        ActionContrib::Collect(parts) => parts,
                        other => panic!("mismatched action contribution {other:?}"),
                    })
                    .collect();
                parts.sort_by_key(|(gid, _)| *gid);
                let records = parts.into_iter().flat_map(|(_, recs)| recs.payloads());
                ActionResult::Collected(records.collect())
            }
            ActionKind::Reduce(f) => {
                let partials: Vec<Payload> = contribs
                    .iter()
                    .filter_map(|c| match c {
                        ActionContrib::Reduce(p) => p.payloads().next(),
                        other => panic!("mismatched action contribution {other:?}"),
                    })
                    .collect();
                let combine = match self.fns.get(*f) {
                    UserFn::Reduce(f) => f,
                    other => panic!("expected a reduce function, got {other:?}"),
                };
                ActionResult::Reduced(partials.into_iter().reduce(|a, b| combine(&a, &b)))
            }
        }
    }

    fn is_materialized(&self, rdd: RddId) -> bool {
        self.rdds[rdd.0 as usize].materialized.is_some() || self.stored.contains_key(&rdd)
    }

    /// Whether `rdd` persists into the traced heap: a heap storage level,
    /// and no block space this run.
    fn persists_in_heap(&self, rdd: RddId) -> bool {
        self.persist_space.is_none()
            && matches!(self.rdds[rdd.0 as usize].persisted, Some(l) if l.uses_heap())
    }

    /// Panthera's stage-start lineage scan: push this RDD's tag backward
    /// to the unmaterialized shuffle outputs it depends on (DRAM wins).
    fn propagate_tag_of(&mut self, rdd: RddId) {
        if !self.runtime.lineage_propagation() {
            return;
        }
        let Some(tag) = self.rdds[rdd.0 as usize].tag else {
            return;
        };
        let mut queue = vec![rdd];
        let mut seen = std::collections::HashSet::new();
        while let Some(id) = queue.pop() {
            if !seen.insert(id) {
                continue;
            }
            let node = &self.rdds[id.0 as usize];
            if id != rdd && (node.materialized.is_some() || node.persisted.is_some()) {
                // A previous stage's RDD: it has its own tag.
                continue;
            }
            queue.extend(node.parents().iter().copied());
            if node.is_wide() {
                self.rdds[id.0 as usize].merge_tag(tag);
            }
        }
    }

    /// Materialize `records` in serialized form: one compact byte buffer
    /// per partition (a `byte[]` in Spark), pretenured like any RDD array.
    /// Reads deserialize on the fly; the heap holds no per-tuple objects.
    fn materialize_serialized(&mut self, rdd: RddId, records: Rc<Vec<Payload>>) {
        debug_assert!(
            self.rdds[rdd.0 as usize].materialized.is_none(),
            "double materialization of {rdd}"
        );
        let tag = self.rdds[rdd.0 as usize].tag;
        // Serialization CPU, once per record.
        self.cpu(self.config.costs.serde_ns(records.len() as u64));
        self.roots.push_scope();
        let n_parts = self.config.partitions.clamp(1, records.len().max(1));
        let per_part = records.len().div_ceil(n_parts).max(1);
        let mut arrays = Vec::with_capacity(n_parts);
        for chunk in records.chunks(per_part) {
            let bytes: u64 = chunk.iter().map(Payload::model_bytes).sum();
            // The buffer is a primitive byte array: size it in 8-byte slots.
            let slots = (bytes.div_ceil(8) as usize).max(1);
            let array = self.runtime.alloc_rdd_array(&self.roots, rdd.0, slots, tag);
            self.roots.push(array);
            arrays.push(array);
        }
        if arrays.is_empty() {
            let array = self.runtime.alloc_rdd_array(&self.roots, rdd.0, 1, tag);
            self.roots.push(array);
            arrays.push(array);
        }
        let top = self
            .runtime
            .alloc_rdd_top(&self.roots, rdd.0, arrays[0], tag);
        for a in &arrays[1..] {
            self.runtime.heap_mut().push_ref(top, *a);
        }
        self.roots.pop_scope();
        self.roots.push_global(top);
        let len = records.len();
        self.stored.insert(rdd, (Stored::Serialized, records));
        self.rdds[rdd.0 as usize].materialized = Some(MatData {
            top,
            arrays,
            len,
            serialized: true,
        });
        self.stats.materializations += 1;
    }

    /// Build the Figure 1 object structure for `records`.
    fn materialize_into_heap(&mut self, rdd: RddId, records: &[Payload], transient: bool) {
        debug_assert!(
            self.rdds[rdd.0 as usize].materialized.is_none(),
            "double materialization of {rdd}"
        );
        if transient && self.blocks.stage_open() {
            // A transient materialization dies with the evaluation: route
            // it into the stage scratch arena instead of the young gen.
            self.materialize_scratch(rdd, records);
            return;
        }
        self.fault_probe_materialize(records);
        self.ensure_heap_capacity(records);
        let tag = self.rdds[rdd.0 as usize].tag;
        self.roots.push_scope();
        // One backbone array per partition, allocated back to back (the
        // tasks' tuples come later, so consecutive arrays share boundary
        // cards unless padded).
        let n_parts = self.config.partitions.clamp(1, records.len().max(1));
        let per_part = records.len().div_ceil(n_parts).max(1);
        let mut arrays = Vec::with_capacity(n_parts);
        for chunk_len in partition_sizes(records.len(), n_parts) {
            let array = self
                .runtime
                .alloc_rdd_array(&self.roots, rdd.0, chunk_len, tag);
            self.roots.push(array);
            arrays.push(array);
        }
        let top = self
            .runtime
            .alloc_rdd_top(&self.roots, rdd.0, arrays[0], tag);
        for a in &arrays[1..] {
            self.runtime.heap_mut().push_ref(top, *a);
        }
        self.roots.push(top);
        for (i, r) in records.iter().enumerate() {
            let tuple = self
                .runtime
                .alloc_record(&self.roots, ObjKind::Tuple, r.clone());
            self.runtime
                .heap_mut()
                .push_ref(arrays[i / per_part], tuple);
        }
        self.roots.pop_scope();
        if transient {
            // Rooted for the current evaluation only.
            self.roots.push(top);
            self.transients.push(rdd);
        } else {
            // Long-lived: registered like Spark's block manager would.
            self.roots.push_global(top);
        }
        self.rdds[rdd.0 as usize].materialized = Some(MatData {
            top,
            arrays,
            len: records.len(),
            serialized: false,
        });
        self.stats.materializations += 1;
        self.note_live_partitions(rdd);
        self.maybe_checkpoint(rdd, records);
    }

    // ------------------------------------------------------------------
    // Fault injection and checkpoint/recovery hooks (cluster mode only).
    // Every hook is a no-op — no charge, no event, no counter — unless
    // the cluster runs under a fault plan or checkpoint policy, so
    // fault-free runs are bit-identical to a build without these hooks.
    // ------------------------------------------------------------------

    /// The guard every hook early-returns on: this executor's id and its
    /// recovery wiring, present only in a cluster run.
    fn recovery(&self) -> Option<(u16, &RecoveryCtx)> {
        let ctx = self.cluster.as_ref()?;
        Some((ctx.exec, ctx.recovery.as_ref()?))
    }

    /// Virtual-time crash probe: if the fault plan schedules a crash for
    /// this executor at a virtual time its clock has now reached, consume
    /// that crash point and kill the incarnation. Probes sit at every
    /// interruptible point of a stage — materializations, barrier
    /// entries, both legs of an exchange deposit, and inside checkpoint
    /// saves — so a planned time maps to the *first probe at or past it*,
    /// a deterministic structural point regardless of host scheduling.
    /// `vcrash_next` lives in the recovery slot and survives restarts, so
    /// each planned point fires exactly once; a point that falls inside a
    /// still-open recovery window crashes the replaying incarnation
    /// (crash-during-recovery), which the driver handles by widening the
    /// replay window rather than starting a second one.
    fn crash_probe(&self) {
        let Some((exec, rec)) = self.recovery() else {
            return;
        };
        if rec.crash_points.is_empty() {
            return;
        }
        let barrier = self.barrier_seq;
        let now = self.runtime.heap().mem().clock().now_ns();
        let fire = rec
            .slot
            .with(|c| match rec.crash_points.get(c.vcrash_next) {
                Some(&at) if now >= at => {
                    c.vcrash_next += 1;
                    true
                }
                _ => false,
            });
        if fire {
            std::panic::panic_any(ClusterError::InjectedCrash {
                exec,
                barrier,
                at_ns: now,
            });
        }
    }

    /// Open a journal entry for an exchange deposit or checkpoint save.
    /// Pure NVM bookkeeping — charges no virtual time (the persist leg
    /// rides on the operation's own device charges), so fault-free runs
    /// are bit-identical whether or not anything ever reads the journal.
    /// Replay/torn outcomes are counted (and surfaced as events) only
    /// while the executor is replaying: a same-incarnation re-issue (an
    /// evicted RDD recomputed) is a quiet idempotent hit, not a recovery
    /// event. A digest mismatch — replay produced a different payload
    /// than the journaled one, which breaks the determinism argument
    /// idempotent recovery rests on — kills the incarnation with a typed
    /// [`ClusterError::DivergentDeposit`] that fails the run.
    fn journal_begin(&self, op: JournalOp, key: u64, digest: u64, bytes: u64) {
        let Some((exec, rec)) = self.recovery() else {
            return;
        };
        let outcome = rec.journal.begin(exec, op, key, digest, bytes);
        if let BeginOutcome::Diverged { landed } = outcome {
            std::panic::panic_any(ClusterError::DivergentDeposit {
                exec,
                landed,
                replayed: digest,
            });
        }
        let event = rec.slot.with(|c| {
            if !c.in_replay {
                return None;
            }
            match outcome {
                BeginOutcome::Fresh | BeginOutcome::Diverged { .. } => None,
                BeginOutcome::Replay => {
                    c.stats.journal_noops += 1;
                    Some(obs::Event::JournalNoop {
                        kind: journal_kind(op),
                        key,
                    })
                }
                BeginOutcome::Torn => {
                    c.stats.journal_torn += 1;
                    Some(obs::Event::JournalTorn {
                        kind: journal_kind(op),
                        key,
                    })
                }
            }
        });
        if let Some(ev) = event {
            self.emit(ev);
        }
    }

    /// Mark a journaled operation durable. Idempotent: re-committing a
    /// replayed entry is a no-op, so the replay path can run the same
    /// begin → effect → commit sequence as a fresh execution.
    fn journal_commit(&self, op: JournalOp, key: u64) {
        let Some((exec, rec)) = self.recovery() else {
            return;
        };
        rec.journal.commit(exec, op, key);
    }

    /// Planned transient allocation failure: fires when this executor's
    /// (monotone, attempt-spanning) materialization ordinal is listed in
    /// the fault plan. The failed attempt is retried after a charged
    /// back-off, modelling an allocation that succeeds on its second try.
    fn fault_probe_materialize(&mut self, records: &[Payload]) {
        self.crash_probe();
        let Some((_, rec)) = self.recovery() else {
            return;
        };
        let rec = rec.clone();
        let seq = rec.slot.with(|c| {
            let s = c.materialize_seq;
            c.materialize_seq += 1;
            s
        });
        if !rec.alloc_faults.contains(&seq) {
            return;
        }
        rec.slot.with(|c| c.stats.alloc_faults += 1);
        let need: u64 = records.iter().map(Payload::model_bytes).sum();
        self.emit(obs::Event::AllocFail {
            space: obs::AllocSpace::Eden,
            need,
        });
        self.cpu(rec.alloc_retry_ns);
    }

    /// Track how many partitions are currently materialized in this
    /// incarnation's heap — what a crash right now would lose.
    fn note_live_partitions(&self, rdd: RddId) {
        let Some((_, rec)) = self.recovery() else {
            return;
        };
        let parts = self
            .part_meta
            .get(&rdd)
            .map(|m| m.gids.len() as u64)
            .unwrap_or(0);
        rec.slot.with(|c| c.live_partitions += parts);
    }

    /// Snapshot `rdd`'s local partitions into the durable NVM checkpoint
    /// store if the policy selects it: explicitly `checkpoint()`-marked,
    /// or every `n`-th shuffle output under `CheckpointEvery(n)` (counted
    /// by structural ordinal, which is stable across executors and replay
    /// attempts). Writes are charged to the NVM device; `save` is
    /// idempotent, so a replaying executor never double-charges.
    fn maybe_checkpoint(&mut self, rdd: RddId, records: &[Payload]) {
        let Some((exec, rec)) = self.recovery() else {
            return;
        };
        let rec = rec.clone();
        if !self.part_meta.contains_key(&rdd) {
            return;
        }
        let node = &self.rdds[rdd.0 as usize];
        let auto = rec.checkpoint_every > 0
            && node.is_wide()
            && (self.wide_ordinal(rdd) + 1).is_multiple_of(u64::from(rec.checkpoint_every));
        if !(node.checkpointed || auto) {
            return;
        }
        let tag = node.tag;
        let parts = self.wire_parts(rdd, records);
        let bytes: u64 = parts.iter().map(|(_, recs)| recs.model_bytes()).sum();
        let entry = crate::cluster::CheckpointEntry {
            parts,
            global_parts: self.part_meta[&rdd].global_parts,
            bytes,
            tag,
        };
        // Journaled save: the first probe exposes the torn window (intent
        // journaled, snapshot not yet durable — replay rolls it forward),
        // the last one a crash after the charged write (replay finds the
        // committed entry and validates the no-op).
        self.journal_begin(
            JournalOp::CheckpointSave,
            u64::from(rdd.0),
            entry.digest(),
            bytes,
        );
        self.crash_probe();
        if !rec.store.save(rdd.0, exec, entry) {
            // Already durable (a replay re-reached this point): settle the
            // journal and move on without re-charging the write.
            self.journal_commit(JournalOp::CheckpointSave, u64::from(rdd.0));
            return;
        }
        self.journal_commit(JournalOp::CheckpointSave, u64::from(rdd.0));
        rec.slot.with(|c| {
            c.stats.checkpoint_writes += 1;
            c.stats.checkpoint_bytes += bytes;
        });
        self.charge_native(records, AccessKind::Write);
        self.emit(obs::Event::CheckpointWrite { rdd: rdd.0, bytes });
        self.crash_probe();
    }

    /// The structural ordinal of a wide node: how many wide nodes precede
    /// it in instance order. Replay rebuilds the identical graph, so the
    /// ordinal — unlike anything keyed on time — is replay-stable.
    fn wide_ordinal(&self, rdd: RddId) -> u64 {
        self.rdds[..rdd.0 as usize]
            .iter()
            .filter(|n| n.is_wide())
            .count() as u64
    }

    /// Whether [`Engine::try_restore_checkpoint`] would serve `rdd`: only
    /// explicitly `checkpoint()`-marked narrow nodes can have a snapshot
    /// (automatic checkpoints take shuffle outputs only).
    fn has_checkpoint(&self, rdd: RddId) -> bool {
        self.rdds[rdd.0 as usize].checkpointed
            && self
                .recovery()
                .is_some_and(|(exec, rec)| rec.store.load(rdd.0, exec).is_some())
    }

    /// Serve a materialization from the durable checkpoint store, if this
    /// executor snapshotted `rdd` in a previous (crashed) incarnation or
    /// earlier in this one. Short-circuits the lineage recursion — this is
    /// what bounds replay recomputation under `CheckpointEvery(n)`. Reads
    /// are charged to the NVM device.
    fn try_restore_checkpoint(&mut self, rdd: RddId) -> Option<Rc<Vec<Payload>>> {
        let (exec, rec) = self.recovery()?;
        let rec = rec.clone();
        let entry = rec.store.load(rdd.0, exec)?;
        let mut gids = Vec::with_capacity(entry.parts.len());
        let mut lens = Vec::with_capacity(entry.parts.len());
        let mut records = Vec::new();
        for (gid, recs) in &entry.parts {
            gids.push(*gid);
            lens.push(recs.len());
            records.extend(recs.payloads());
        }
        if let Some(tag) = entry.tag {
            self.rdds[rdd.0 as usize].merge_tag(tag);
        }
        let restored_parts = gids.len() as u64;
        rec.slot.with(|c| {
            c.stats.partitions_restored += restored_parts;
            c.stats.restore_bytes += entry.bytes;
        });
        self.part_meta.insert(
            rdd,
            PartMeta {
                gids,
                lens,
                global_parts: entry.global_parts,
            },
        );
        self.charge_native(&records, AccessKind::Read);
        self.emit(obs::Event::CheckpointRestore {
            rdd: rdd.0,
            bytes: entry.bytes,
        });
        self.materialize_into_heap(rdd, &records, !self.persists_in_heap(rdd));
        Some(Rc::new(records))
    }

    // ------------------------------------------------------------------
    // Record computation
    // ------------------------------------------------------------------

    /// Produce the records of `rdd`, charging all memory traffic. The
    /// result is shared: callers that only read (materialization, charge
    /// accounting, bucket filling) never copy the vector.
    fn compute(&mut self, rdd: RddId) -> Rc<Vec<Payload>> {
        if self.rdds[rdd.0 as usize].materialized.is_some() {
            return self.read_materialized(rdd);
        }
        if let Some((at, records)) = self.stored.get(&rdd) {
            let (at, records) = (*at, Rc::clone(records));
            match at {
                Stored::Disk => self.charge_disk(&records),
                Stored::Native => self.charge_native(&records, AccessKind::Read),
                Stored::Block => {
                    let device = self.block_read_device(rdd);
                    let bytes: u64 = records.iter().map(Payload::model_bytes).sum();
                    self.charge_device(device, AccessKind::Read, bytes);
                }
                Stored::Scratch => {
                    let bytes: u64 = records.iter().map(Payload::model_bytes).sum();
                    self.charge_device(DeviceKind::Dram, AccessKind::Read, bytes);
                }
                Stored::Serialized => {
                    unreachable!("serialized {rdd} is read through its heap buffers")
                }
            }
            return records;
        }
        if let Some(records) = self.try_restore_checkpoint(rdd) {
            return records;
        }
        let op = self.rdds[rdd.0 as usize].op.clone();
        match op {
            RddOp::Source(name) => self.compute_source(rdd, &name),
            RddOp::Transformed { transform, parents } => {
                if transform.is_wide() {
                    self.compute_shuffle(rdd, &transform, &parents)
                } else if let Transform::Union = transform {
                    let mut out: Vec<Payload> = self.compute(parents[0]).as_ref().clone();
                    out.extend(self.compute(parents[1]).iter().cloned());
                    if let (Some(m0), Some(m1)) = (
                        self.part_meta.get(&parents[0]),
                        self.part_meta.get(&parents[1]),
                    ) {
                        // The union's local flat is parent 0's partitions
                        // followed by parent 1's, renumbered past parent
                        // 0's global partition space (ownership inherits
                        // parent placement, like Spark's UnionRDD).
                        let meta = PartMeta {
                            gids: (m0.gids.iter().copied())
                                .chain(m1.gids.iter().map(|g| g + m0.global_parts))
                                .collect(),
                            lens: [m0.lens.as_slice(), m1.lens.as_slice()].concat(),
                            global_parts: m0.global_parts + m1.global_parts,
                        };
                        self.part_meta.insert(rdd, meta);
                    }
                    Rc::new(out)
                } else if self.config.fuse_narrow {
                    self.compute_fused(rdd)
                } else {
                    let input = self.compute(parents[0]);
                    self.stream(rdd, parents[0], &input, &transform)
                }
            }
        }
    }

    /// Source scan: lay the input out in partitions, keep the ones this
    /// executor owns, and charge disk and parsing for those records only.
    fn compute_source(&mut self, rdd: RddId, name: &str) -> Rc<Vec<Payload>> {
        let global = self.data.records_shared(name);
        let records = match self.owner() {
            Some(owner) => {
                let (meta, owned) = owner.parts(global.len());
                self.part_meta.insert(rdd, meta);
                Rc::new(
                    owned
                        .into_iter()
                        .flat_map(|r| &global[r])
                        .cloned()
                        .collect(),
                )
            }
            None => global,
        };
        self.charge_disk(&records);
        // Parsing allocates one short-lived young object per record.
        for r in records.iter() {
            self.stream_alloc(r.clone());
        }
        records
    }

    /// This executor's place in the ownership rule ([`Owner::parts`]) that
    /// source scans and shuffle outputs share. Outside a cluster the
    /// executor owns everything and keeps no partition layout: `None`.
    fn owner(&self) -> Option<Owner> {
        let ctx = self.cluster.as_ref()?;
        Some(Owner {
            exec: ctx.exec,
            n_exec: ctx.n_exec,
            partitions: self.config.partitions,
        })
    }

    /// Pack this executor's local records of `rdd` into their wire form,
    /// one batch per global partition, ready to contribute to a gather.
    fn wire_parts(&self, rdd: RddId, records: &[Payload]) -> WireParts {
        let meta = &self.part_meta[&rdd];
        let mut out = Vec::with_capacity(meta.gids.len());
        let mut off = 0usize;
        for (i, &gid) in meta.gids.iter().enumerate() {
            let len = meta.lens[i];
            out.push((gid, WireBatch::encode(&records[off..off + len])));
            off += len;
        }
        debug_assert_eq!(off, records.len(), "partition metadata out of sync");
        out
    }

    /// Fused execution of the maximal narrow chain ending at `rdd`: every
    /// record flows through the whole chain depth-first, so intermediate
    /// stages never materialize a `Vec<Payload>` — only the chain's final
    /// output is collected. Simulated costs are *not* charged during the
    /// host-side pass; each stage logs its charge events (one CPU tick per
    /// input record, one young allocation per output record, in record
    /// order) and the logs are replayed stage-by-stage afterwards. The
    /// replayed sequence is exactly what the unfused engine would have
    /// issued, so simulated time, energy, and GC scheduling are
    /// bit-identical to stage-at-a-time execution.
    fn compute_fused(&mut self, rdd: RddId) -> Rc<Vec<Payload>> {
        let (base, stages) = self.narrow_chain(rdd);
        let input = self.compute(base);
        debug_assert!(!stages.is_empty(), "narrow node must contribute a stage");
        let mut logs: Vec<StageLog> = stages.iter().map(|_| StageLog::default()).collect();
        logs[0].outputs_per_input.reserve(input.len());
        logs[0].alloc_bytes.reserve(input.len());
        let mut out = Vec::with_capacity(input.len());
        self.per_partition(rdd, base, input.len(), &mut out, |e, part, out| {
            for r in &input[part] {
                drive_chain(&e.fns, &stages, r, &mut logs, out);
            }
        });
        for log in &logs {
            let mut next = 0usize;
            for &n_out in &log.outputs_per_input {
                self.cpu(self.config.record_cpu_ns);
                for &bytes in &log.alloc_bytes[next..next + n_out as usize] {
                    self.stream_alloc(size_stand_in(bytes));
                }
                next += n_out as usize;
            }
        }
        Rc::new(out)
    }

    /// The maximal chain of fusable narrow transformations ending at
    /// `rdd`, bottom-up, plus the base RDD feeding it. Fusion stops at
    /// wide nodes, unions, sources, and anything already materialized,
    /// stored, or restorable from a checkpoint — those produce their
    /// records through their own paths.
    fn narrow_chain(&self, rdd: RddId) -> (RddId, Vec<Transform>) {
        let mut stages = Vec::new();
        let mut cur = rdd;
        loop {
            if cur != rdd && (self.is_materialized(cur) || self.has_checkpoint(cur)) {
                break;
            }
            match &self.rdds[cur.0 as usize].op {
                RddOp::Transformed { transform, parents }
                    if !transform.is_wide() && !matches!(transform, Transform::Union) =>
                {
                    stages.push(transform.clone());
                    cur = parents[0];
                }
                _ => break,
            }
        }
        stages.reverse();
        (cur, stages)
    }

    /// Reference stage-at-a-time streaming (`fuse_narrow: false`): apply
    /// one narrow transformation to every input record, allocating a
    /// short-lived young object per output record (the streaming
    /// behaviour of Section 2).
    fn stream(
        &mut self,
        rdd: RddId,
        parent: RddId,
        input: &[Payload],
        transform: &Transform,
    ) -> Rc<Vec<Payload>> {
        let mut out = Vec::with_capacity(input.len());
        self.per_partition(rdd, parent, input.len(), &mut out, |e, part, out| {
            e.stream_into(&input[part], transform, out)
        });
        Rc::new(out)
    }

    /// Run a narrow `pass` over the `n_in` local records of `base`,
    /// appending `rdd`'s records to `out`. If `base` carries a partition
    /// layout (cluster mode) the pass runs once per local partition and
    /// the output lengths become `rdd`'s layout; narrow transformations
    /// are element-wise and their charges partition-independent, so the
    /// sequence is identical to the single whole-input pass a layout-less
    /// base gets.
    fn per_partition(
        &mut self,
        rdd: RddId,
        base: RddId,
        n_in: usize,
        out: &mut Vec<Payload>,
        mut pass: impl FnMut(&mut Self, std::ops::Range<usize>, &mut Vec<Payload>),
    ) {
        let Some(meta) = self.part_meta.get(&base).cloned() else {
            pass(self, 0..n_in, out);
            return;
        };
        let mut lens = Vec::with_capacity(meta.lens.len());
        let mut off = 0usize;
        for &len in &meta.lens {
            let before = out.len();
            pass(self, off..off + len, out);
            lens.push(out.len() - before);
            off += len;
        }
        debug_assert_eq!(off, n_in, "partition metadata out of sync");
        self.part_meta.insert(
            rdd,
            PartMeta {
                gids: meta.gids,
                lens,
                global_parts: meta.global_parts,
            },
        );
    }

    /// The streaming loop of [`Engine::stream`], appending to `out` so it
    /// can run once per local partition.
    fn stream_into(&mut self, input: &[Payload], transform: &Transform, out: &mut Vec<Payload>) {
        for r in input {
            self.cpu(self.config.record_cpu_ns);
            let first = out.len();
            apply_narrow(&self.fns, transform, r, &mut |p| out.push(p));
            for p in &out[first..] {
                self.stream_alloc(p.clone());
            }
        }
    }

    /// Allocate (and immediately abandon) the young object modelling one
    /// streamed record — or, under region allocation, bump the stage
    /// scratch arena so the record never touches the traced heap.
    fn stream_alloc(&mut self, record: Payload) {
        self.stats.records_streamed += 1;
        if self.blocks.stage_open() {
            let bytes = self.runtime.heap().tuple_footprint(record.model_bytes());
            self.blocks.stage_bump(bytes);
            self.stats.region_stage_bytes += bytes;
            self.charge_device(DeviceKind::Dram, AccessKind::Write, bytes);
        } else {
            self.runtime
                .alloc_record(&self.roots, ObjKind::Tuple, record);
        }
    }

    /// Execute a wide transformation: map side (compute each parent's
    /// local slice and write its shuffle files), the cross-executor leg
    /// when there are peers ([`Engine::exchange_shuffle`]), then the
    /// reduce side over the keys behind the output partitions this
    /// executor owns ([`reduce_owned`]), which it charges and
    /// materializes.
    fn compute_shuffle(
        &mut self,
        rdd: RddId,
        transform: &Transform,
        parents: &[RddId],
    ) -> Rc<Vec<Payload>> {
        self.stats.shuffles += 1;
        // Joins build and probe per-key hash structures: their input
        // accesses are random, unlike the streaming scans of aggregations.
        // The flag covers only this shuffle's direct input chains — a
        // nested shuffle's own inputs are scanned sequentially again.
        let saved_depth = std::mem::take(&mut self.random_read_depth);
        if matches!(transform, Transform::Join) {
            self.random_read_depth = 1;
        }
        let left_records = self.compute(parents[0]);
        self.charge_shuffle(&left_records);
        let right_records = parents.get(1).map(|&p| {
            let records = self.compute(p);
            self.charge_shuffle(&records);
            records
        });
        self.random_read_depth = saved_depth;
        let gathered = self.cluster.clone().map(|ctx| {
            self.exchange_shuffle(
                &ctx,
                rdd,
                transform,
                parents,
                &left_records,
                right_records.as_deref(),
            )
        });
        // The consuming stage starts by reading the shuffle files.
        self.runtime.stage_boundary(&self.roots);
        // The map output the reduce side reads: everyone's wire records
        // after the exchange leg, this executor's own otherwise. Either
        // way a record is born as a `Payload` inside the bucket of a key
        // reduced here and nowhere else, and dies with its bucket — the
        // buckets are freed in key-id order, never in hash order (which
        // cost 7–11 % of a 4-executor run's host time). The gathered
        // output itself is not this executor's to free: the exchange
        // keeps it, index and all, for replays.
        let owner = self.owner();
        let (out, meta) = match &gathered {
            Some(g) => {
                let (left, right) = (g.left(), g.right());
                let index = g.key_index(transform);
                reduce_owned(transform, &self.fns, index, &left, right.as_deref(), owner)
            }
            None => {
                let left = [(0u16, &left_records[..])];
                let right = right_records.as_deref().map(|r| [(0u16, &r[..])]);
                let right = right.as_ref().map(|r| &r[..]);
                let index = KeyIndex::build(transform, 1, &left, right);
                reduce_owned(transform, &self.fns, &index, &left, right, owner)
            }
        };
        if let Some(meta) = meta {
            self.part_meta.insert(rdd, meta);
        }
        for _ in &out {
            self.cpu(self.config.record_cpu_ns);
        }
        self.charge_shuffle(&out);
        self.note_stage_recomputed(rdd);
        // The ShuffledRDD is materialized immediately — it holds data read
        // freshly from shuffle files (Section 2). It dies with the current
        // evaluation unless this node is itself a heap-persisted RDD, in
        // which case the shuffle output *is* the persisted materialization.
        // (Its partition layout is already recorded: the checkpoint hook
        // inside `materialize_into_heap` snapshots by global partition id.)
        self.materialize_into_heap(rdd, &out, !self.persists_in_heap(rdd));
        Rc::new(out)
    }

    /// The cross-executor leg of a shuffle: all-gather every executor's
    /// local map-side partitions through the exchange (a journaled
    /// deposit, see [`Engine::exchange_action`] for the protocol), charge
    /// this executor's share of the transfer — read off the shuffle's
    /// shared key index — and return the gathered map output, still in
    /// wire form, in the order a lone executor scans its own in. With one
    /// executor nothing crosses the network and the charges collapse to
    /// zero.
    fn exchange_shuffle(
        &mut self,
        ctx: &ClusterCtx,
        rdd: RddId,
        transform: &Transform,
        parents: &[RddId],
        left_records: &[Payload],
        right_records: Option<&Vec<Payload>>,
    ) -> Arc<ShuffleGather> {
        let deposit = Deposit::from(ShuffleContrib {
            left: self.wire_parts(parents[0], left_records),
            right: right_records.map(|r| self.wire_parts(parents[1], r)),
        });
        self.journal_begin(
            JournalOp::ShuffleDeposit,
            u64::from(rdd.0),
            deposit.digest,
            deposit.bytes,
        );
        self.crash_probe();
        let now = self.runtime.heap().mem().clock().now_ns();
        let (gathered, t_bar) = ctx
            .exchange
            .gather_shuffle(ctx.exec, rdd.0, deposit, now)
            .unwrap_or_else(|err| std::panic::panic_any(err));
        self.sync_to(t_bar);
        self.crash_probe();
        self.journal_commit(JournalOp::ShuffleDeposit, u64::from(rdd.0));
        let (xfer_records, xfer_bytes) = gathered.key_index(transform).crossing(ctx.exec);
        let xfer_ns =
            self.config
                .costs
                .transfer_ns(self.config.transport, xfer_records, xfer_bytes);
        if xfer_ns > 0.0 {
            self.cpu(xfer_ns);
        }
        if xfer_bytes > 0 && self.config.transport == ShuffleTransport::SharedRegion {
            // Colocated fast path taken: these bytes moved at memory
            // bandwidth with zero serde. E=1 transfers nothing, so this
            // never fires there.
            self.stats.fastpath_bytes += xfer_bytes;
            self.emit(obs::Event::ShuffleFastPath { bytes: xfer_bytes });
        }
        gathered
    }

    /// Replay bookkeeping: a shuffle re-executed by a restarted
    /// incarnation counts as a recomputed stage over the partitions this
    /// executor owns. No-op outside a recovery window.
    fn note_stage_recomputed(&self, rdd: RddId) {
        let Some((_, rec)) = self.recovery() else {
            return;
        };
        let owned_parts = self.part_meta[&rdd].gids.len() as u64;
        rec.slot.with(|c| {
            if c.in_replay {
                c.stats.stages_recomputed += 1;
                c.stats.partitions_recomputed += owned_parts;
            }
        });
    }

    fn read_materialized(&mut self, rdd: RddId) -> Rc<Vec<Payload>> {
        let mat = self.rdds[rdd.0 as usize]
            .materialized
            .clone()
            .expect("read_materialized on unmaterialized RDD");
        if mat.serialized {
            // Scan the byte buffers, then deserialize record by record —
            // each deserialized record is a fresh young object.
            for array in &mat.arrays {
                self.runtime.heap_mut().read_object_streaming(*array);
            }
            let records = self
                .stored
                .get(&rdd)
                .map(|(_, records)| Rc::clone(records))
                .unwrap_or_default();
            self.cpu(self.config.costs.serde_ns(records.len() as u64));
            for r in records.iter() {
                self.stream_alloc(r.clone());
            }
            return records;
        }
        let random = self.random_read_depth > 0;
        let mut out = Vec::with_capacity(mat.len);
        for array in mat.arrays {
            debug_assert!(
                matches!(
                    self.runtime.heap().obj(array).kind,
                    mheap::ObjKind::RddArray { rdd_id } if rdd_id == rdd.0
                ),
                "stale MatData: {rdd} holds someone else's array"
            );
            self.runtime.heap_mut().read_object_streaming(array);
            let tuples = self.runtime.heap().obj(array).refs.clone();
            for t in tuples {
                if random {
                    self.runtime.heap_mut().read_object(t);
                } else {
                    self.runtime.heap_mut().read_object_streaming(t);
                }
                // Shallow: the payload's contents stay shared with the
                // heap object.
                out.push(self.runtime.heap().obj(t).payload.clone());
            }
        }
        Rc::new(out)
    }

    // ------------------------------------------------------------------
    // Cost charging and closure lookup
    // ------------------------------------------------------------------

    fn charge_disk(&mut self, records: &[Payload]) {
        let bytes: u64 = records.iter().map(Payload::model_bytes).sum();
        self.cpu(self.config.costs.disk_ns(bytes));
    }

    fn charge_shuffle(&mut self, records: &[Payload]) {
        let bytes: u64 = records.iter().map(Payload::model_bytes).sum();
        self.stats.shuffle_bytes += bytes;
        self.emit(obs::Event::ShuffleSpill { bytes });
        self.cpu(self.config.costs.disk_ns(bytes));
    }

    fn charge_native(&mut self, records: &[Payload], kind: AccessKind) {
        let bytes: u64 = records.iter().map(Payload::model_bytes).sum();
        self.charge_device(DeviceKind::Nvm, kind, bytes);
    }

    /// Charge one mutator access of `bytes` to `device`.
    fn charge_device(&mut self, device: DeviceKind, kind: AccessKind, bytes: u64) {
        self.runtime.heap_mut().mem_mut().access_device(
            device,
            kind,
            bytes,
            AccessProfile::mutator(),
        );
    }

    /// Advance the virtual clock by `ns` of pure computation.
    fn cpu(&mut self, ns: f64) {
        self.runtime.heap_mut().mem_mut().compute(ns);
    }

    // ------------------------------------------------------------------
    // Blocks outside the traced heap: H2 or arenas, one table
    // ------------------------------------------------------------------

    /// The block table and the stage scratch arena (tests assert its
    /// invariants and end-of-run emptiness).
    pub fn blocks(&self) -> &RegionHeap {
        &self.blocks
    }

    /// The space this run's blocks live in.
    ///
    /// # Panics
    ///
    /// Panics if heap-level persists stay in the traced heap — no block
    /// exists then.
    fn block_space(&self) -> BlockSpace {
        self.persist_space
            .expect("no block exists while persists stay in the traced heap")
    }

    /// Which device a block for `rdd` lives on: the analysis tag decides,
    /// exactly as it does for heap placement — DRAM-tagged RDDs go to
    /// DRAM, everything else to NVM.
    fn tag_device(&self, rdd: RddId) -> DeviceKind {
        match self.rdds[rdd.0 as usize].tag {
            Some(sparklang::ast::MemoryTag::Dram) => DeviceKind::Dram,
            _ => DeviceKind::Nvm,
        }
    }

    /// The device a read of `rdd`'s block is charged to. An arena is read
    /// where it was allocated; an H2 block follows the RDD's tag at read
    /// time (the two differ only if the tag was raised after the persist).
    fn block_read_device(&mut self, rdd: RddId) -> DeviceKind {
        let space = self.block_space();
        match self.blocks.block(rdd.0) {
            Some(b) if space == BlockSpace::Arena => b.device,
            Some(_) => self.tag_device(rdd),
            None => {
                // The schedule freed this block before its last read —
                // results stay correct (the map keeps the records), but
                // the premature free must be visible to tests.
                let [_, _, _, _, dead_reads] = space.counters(&mut self.stats);
                *dead_reads += 1;
                self.tag_device(rdd)
            }
        }
    }

    /// Persist `records` as a block: copy them there at the tagged
    /// device's bandwidth, register the block under the lifetime plan's
    /// refcount and class, and make the RDD block-materialized. The GC
    /// never sees the block — no heap objects, no roots, no cards — and
    /// the records are never serialized.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no block for this step: the plan mirrors
    /// every heap-level persist the engine executes.
    fn persist_block(&mut self, rdd: RddId, records: Rc<Vec<Payload>>) {
        let space = self.block_space();
        let step = self.lifetime_cur;
        let block = self
            .lifetime
            .as_ref()
            .and_then(|p| p.ops(step))
            .and_then(|o| o.block)
            .unwrap_or_else(|| panic!("persist of {rdd} at step {step} has no planned block"));
        assert_eq!(
            block.id as usize,
            self.plan_blocks.len(),
            "block order diverged from the lifetime plan"
        );
        self.plan_blocks.push(rdd);
        let bytes: u64 = records.iter().map(Payload::model_bytes).sum();
        let device = self.tag_device(rdd);
        self.blocks
            .alloc_block(rdd.0, bytes, device, block.class, block.retain);
        self.charge_device(device, AccessKind::Write, bytes);
        let [allocs, _, total, _, _] = space.counters(&mut self.stats);
        *allocs += 1;
        *total += bytes;
        self.emit(space.alloc_event(rdd.0, bytes));
        // A wide node reaches here already materialized by its shuffle,
        // which ran the live-partition and checkpoint hooks. An arena
        // takes over a scratch copy along with its hooks; an H2 block
        // (both switches on) runs them again. Only a never-materialized
        // (narrow) target is new to both.
        let scratch = matches!(self.stored.get(&rdd), Some((Stored::Scratch, _)));
        let hooked = self.rdds[rdd.0 as usize].materialized.is_some()
            || (scratch && space == BlockSpace::Arena);
        if !hooked {
            self.note_live_partitions(rdd);
            self.maybe_checkpoint(rdd, &records);
        }
        self.stored.insert(rdd, (Stored::Block, records));
    }

    /// Route a transient materialization into the stage scratch arena:
    /// the records bump the arena (charged as one DRAM copy), the map
    /// keeps them readable for the rest of the evaluation, and the whole
    /// arena dies at stage close — no heap objects, no roots, no cards.
    fn materialize_scratch(&mut self, rdd: RddId, records: &[Payload]) {
        self.fault_probe_materialize(records);
        let bytes: u64 = records
            .iter()
            .map(|r| self.runtime.heap().tuple_footprint(r.model_bytes()))
            .sum();
        self.blocks.stage_bump(bytes);
        self.stats.region_stage_bytes += bytes;
        self.charge_device(DeviceKind::Dram, AccessKind::Write, bytes);
        self.stored
            .insert(rdd, (Stored::Scratch, Rc::new(records.to_vec())));
        self.stats.materializations += 1;
        self.note_live_partitions(rdd);
        self.maybe_checkpoint(rdd, records);
    }

    /// Apply the lifetime schedule's operations for dynamic statement
    /// `step`: decrement each consumed block once (freeing at zero) and
    /// force-free blocks born lineage-dead at this statement.
    fn apply_lifetime_ops(&mut self, step: usize) {
        let Some(ops) = self.lifetime.as_ref().and_then(|p| p.ops(step)) else {
            return;
        };
        if ops.releases.is_empty() && ops.frees.is_empty() {
            return;
        }
        let releases = ops.releases.clone();
        let frees = ops.frees.clone();
        for b in releases {
            let rdd = self.plan_blocks[b as usize];
            if let Some(freed) = self.blocks.release(rdd.0) {
                self.note_block_free(rdd.0, freed.bytes);
            }
        }
        for b in frees {
            let rdd = self.plan_blocks[b as usize];
            let freed = self.blocks.free(rdd.0);
            self.note_block_free(rdd.0, freed.bytes);
        }
    }

    /// Count one block free in this run's family and emit its
    /// observation.
    fn note_block_free(&mut self, rdd: u32, bytes: u64) {
        let space = self.block_space();
        let [_, frees, _, _, _] = space.counters(&mut self.stats);
        *frees += 1;
        self.emit(space.free_event(rdd, bytes));
    }

    fn apply_reduce(&mut self, f: FuncId, a: &Payload, b: &Payload) -> Payload {
        self.cpu(self.config.record_cpu_ns);
        match self.fns.get(f) {
            UserFn::Reduce(f) => f(a, b),
            other => panic!("expected a reduce function, got {other:?}"),
        }
    }
}

/// The deferred simulated-cost log of one fused narrow stage, compact
/// enough to build on the hot path: entry `i` of `outputs_per_input` is
/// how many records input `i` produced, and `alloc_bytes` holds every
/// output's `model_bytes` in production order. Replaying charges, per
/// input: one CPU tick, then one young allocation per output — the exact
/// sequence the stage-at-a-time engine issues.
#[derive(Debug, Default)]
struct StageLog {
    outputs_per_input: Vec<u32>,
    alloc_bytes: Vec<u64>,
}

/// A payload with exactly the given modelled size, standing in for a
/// streamed temporary whose young object is never read back — only its
/// size matters to the allocator, the GC, and the access model.
fn size_stand_in(model_bytes: u64) -> Payload {
    match model_bytes {
        0 => Payload::Unit,
        8 => Payload::Long(0),
        m => {
            debug_assert!(m >= 16, "composite payloads model at least 16 bytes");
            Payload::Bytes { len: m - 16 }
        }
    }
}

/// Push one record depth-first through the chain's remaining stages,
/// logging each stage's charge events in the order the stage-at-a-time
/// engine would issue them and collecting the chain's final outputs into
/// `out`. `stages` and `logs` both start at the current stage (the caller
/// passes the full chain; recursion passes the tail).
fn drive_chain(
    fns: &FnTable,
    stages: &[Transform],
    r: &Payload,
    logs: &mut [StageLog],
    out: &mut Vec<Payload>,
) {
    let (transform, deeper_stages) = stages.split_first().expect("non-empty chain");
    // Split the log slice so the closure can log this stage while the
    // recursion logs the deeper ones.
    let (log_k, deeper_logs) = logs.split_first_mut().expect("one log per stage");
    let mut n_out: u32 = 0;
    let mut sink = |p: Payload| {
        n_out += 1;
        log_k.alloc_bytes.push(p.model_bytes());
        if deeper_stages.is_empty() {
            out.push(p);
        } else {
            drive_chain(fns, deeper_stages, &p, deeper_logs, out);
        }
    };
    apply_narrow(fns, transform, r, &mut sink);
    log_k.outputs_per_input.push(n_out);
}

/// Record-level semantics of the narrow transformations: feed every output
/// record for input `r` to `sink`, in order. Sink style keeps the hot path
/// free of a per-record `Vec` allocation (map/filter produce at most one
/// output).
fn apply_narrow(fns: &FnTable, transform: &Transform, r: &Payload, sink: &mut dyn FnMut(Payload)) {
    match transform {
        Transform::Map(f) => match fns.get(*f) {
            UserFn::Map(f) => sink(f(r)),
            other => panic!("map expects a map function, got {other:?}"),
        },
        Transform::MapValues(f) => match fns.get(*f) {
            UserFn::Map(f) => match r.as_pair() {
                Some((k, v)) => sink(Payload::pair(k.clone(), f(v))),
                None => sink(f(r)),
            },
            other => panic!("mapValues expects a map function, got {other:?}"),
        },
        Transform::FlatMap(f) => match fns.get(*f) {
            UserFn::FlatMap(f) => {
                for p in f(r) {
                    sink(p);
                }
            }
            UserFn::Map(f) => sink(f(r)),
            other => panic!("flatMap expects a flatMap function, got {other:?}"),
        },
        Transform::Filter(f) => match fns.get(*f) {
            UserFn::Filter(f) => {
                if f(r) {
                    sink(r.clone());
                }
            }
            other => panic!("filter expects a filter function, got {other:?}"),
        },
        Transform::Values => match r.as_pair() {
            Some((_, v)) => sink(v.clone()),
            None => sink(r.clone()),
        },
        Transform::Keys => match r.as_pair() {
            Some((k, _)) => sink(k.clone()),
            None => sink(r.clone()),
        },
        Transform::Sample { fraction, seed } => {
            // Deterministic Bernoulli: hash the record with the seed.
            let h = r.fingerprint() ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < *fraction {
                sink(r.clone());
            }
        }
        wide => panic!("{} is not narrow", wide.name()),
    }
}

fn journal_kind(op: JournalOp) -> obs::JournalKind {
    match op {
        JournalOp::ShuffleDeposit => obs::JournalKind::Shuffle,
        JournalOp::ActionDeposit => obs::JournalKind::Action,
        JournalOp::CheckpointSave => obs::JournalKind::Checkpoint,
    }
}

/// Split `n` records into `parts` chunk lengths (the last may be short).
/// This is the engine's canonical partitioning rule: materialized heap
/// layouts, cluster source placement, and shuffle-output placement all
/// chunk with it, so tests can predict partition boundaries.
pub fn partition_sizes(n: usize, parts: usize) -> Vec<usize> {
    if n == 0 {
        return vec![0];
    }
    let per = n.div_ceil(parts).max(1);
    let mut out = Vec::new();
    let mut left = n;
    while left > 0 {
        let take = left.min(per);
        out.push(take);
        left -= take;
    }
    out
}
