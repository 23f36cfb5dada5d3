//! Static RDD lifetimes: the release schedule for blocks outside the
//! traced heap.
//!
//! The engine can hold persisted RDDs outside the traced heap, as
//! off-heap H2 blocks or as RDD-lifetime arenas, in one block table
//! reference-counted at RDD granularity. Both spaces take their refcounts
//! from here: this pass statically mirrors the engine's deterministic
//! execution (loop trip counts are static, evaluation order is fixed) and
//! computes, for every *dynamic* statement execution, which persisted RDD
//! instances that statement's evaluation consumes. A persisted instance's
//! retain count is exactly the number of future consuming statements, so
//! the engine — decrementing once per consuming statement on this
//! schedule — frees each block at the precise statement where the
//! def/use lifetime says the RDD is dead.
//!
//! The mirroring is exact because both sides follow the same rules:
//!
//! * dynamic steps are numbered in engine visit order — a `Loop`
//!   statement is one step, then its body statements are numbered per
//!   iteration;
//! * `Bind` is lazy (no consumption); a pure-alias bind (`y = x`) shares
//!   `x`'s instance, any other bind creates a fresh instance whose
//!   parents are the instances of the variables the expression mentions;
//! * `Persist` evaluates unless the instance is already materialized,
//!   and materializes it (creating a block for heap storage
//!   levels — `DISK_ONLY` and native `OFF_HEAP` persists materialize
//!   without one);
//! * `Action` always evaluates;
//! * an evaluation consumes the persisted instances reachable from its
//!   target through *unmaterialized* bindings, stopping at materialized
//!   instances (the engine's compute recursion short-circuits there);
//! * `Unpersist` drops the materialization, so later evaluations recurse
//!   past the instance and consume its ancestors instead.

use mheap::RegionClass;
use sparklang::ast::{Program, RddExpr, Stmt, VarId};
use std::collections::{BTreeSet, HashMap};

/// A block the plan schedules: created by the persist step that
/// carries it, kept alive for exactly `retain` future consuming steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanBlock {
    /// Sequential block id, in persist-execution order. The engine keys
    /// its block registry by this id.
    pub id: u32,
    /// Number of future steps that consume the block. Zero means the RDD
    /// is lineage-dead at birth; the creating step lists the block in its
    /// own `frees`.
    pub retain: u32,
    /// Region class of the block's data: [`RegionClass::Eternal`] when
    /// the last consuming step is the final dynamic step of the program
    /// (the data lives to the end of the run), [`RegionClass::RddLifetime`]
    /// otherwise. Plan blocks are never stage scratch — that class covers
    /// the engine's streamed temporaries, which no block addresses.
    pub class: RegionClass,
}

/// The block operations one dynamic statement execution performs,
/// applied by the engine after the statement completes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepOps {
    /// Block this step creates (persist of a heap-level RDD).
    pub block: Option<PlanBlock>,
    /// Blocks this step's evaluation consumed: decrement each once.
    pub releases: Vec<u32>,
    /// Blocks to force-free after this step (retain-zero births).
    pub frees: Vec<u32>,
}

impl StepOps {
    /// True if the step performs no block operation.
    pub fn is_empty(&self) -> bool {
        self.block.is_none() && self.releases.is_empty() && self.frees.is_empty()
    }
}

/// The full release schedule: one [`StepOps`] per dynamic statement
/// execution, in engine visit order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifetimePlan {
    /// Per-step operations, indexed by dynamic step number.
    pub steps: Vec<StepOps>,
    /// Total blocks the schedule creates.
    pub n_blocks: u32,
}

impl LifetimePlan {
    /// The operations of dynamic step `step`, if the plan covers it.
    pub fn ops(&self, step: usize) -> Option<&StepOps> {
        self.steps.get(step)
    }

    /// Internal consistency: every block is released exactly `retain`
    /// times, all after its creating step, and retain-zero blocks are
    /// freed at birth.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (the walk cannot
    /// produce one; this is the test suite's cross-check).
    pub fn check(&self) -> Result<(), String> {
        let mut created: HashMap<u32, usize> = HashMap::new();
        let mut released: HashMap<u32, u32> = HashMap::new();
        for (i, ops) in self.steps.iter().enumerate() {
            if let Some(b) = &ops.block {
                if created.insert(b.id, i).is_some() {
                    return Err(format!("block {} created twice", b.id));
                }
                if b.retain == 0 && !ops.frees.contains(&b.id) {
                    return Err(format!("retain-0 block {} not freed at birth", b.id));
                }
            }
            for &b in &ops.releases {
                match created.get(&b) {
                    None => return Err(format!("block {b} released before creation (step {i})")),
                    Some(&c) if c >= i => {
                        return Err(format!("block {b} released at its own creating step {i}"))
                    }
                    _ => {}
                }
                *released.entry(b).or_insert(0) += 1;
            }
        }
        let mut last_release: HashMap<u32, usize> = HashMap::new();
        for (i, ops) in self.steps.iter().enumerate() {
            for &b in &ops.releases {
                last_release.insert(b, i);
            }
        }
        let final_step = self.steps.len().saturating_sub(1);
        for (i, ops) in self.steps.iter().enumerate() {
            if let Some(b) = &ops.block {
                let got = released.get(&b.id).copied().unwrap_or(0);
                if got != b.retain {
                    return Err(format!(
                        "block {} (step {i}) retain {} but released {got} times",
                        b.id, b.retain
                    ));
                }
                let want = if b.retain > 0 && last_release.get(&b.id) == Some(&final_step) {
                    mheap::RegionClass::Eternal
                } else {
                    mheap::RegionClass::RddLifetime
                };
                if b.class != want {
                    return Err(format!(
                        "block {} classified {:?} but its schedule says {want:?}",
                        b.id, b.class
                    ));
                }
            }
        }
        if created.len() != self.n_blocks as usize {
            return Err(format!(
                "plan says {} blocks but {} were created",
                self.n_blocks,
                created.len()
            ));
        }
        Ok(())
    }
}

/// Abstract RDD instance id inside the walk.
type Inst = usize;

#[derive(Default)]
struct Walker {
    steps: Vec<StepOps>,
    /// Parents of each instance (instances of the vars its bind mentions).
    parents: Vec<Vec<Inst>>,
    /// Current binding of each variable.
    env: HashMap<VarId, Inst>,
    /// Materialized instances → their block id (`None` for
    /// disk/native materializations, which have no block).
    materialized: HashMap<Inst, Option<u32>>,
    n_blocks: u32,
}

impl Walker {
    fn instance_of(&mut self, expr: &RddExpr) -> Inst {
        if let RddExpr::Var(v) = expr {
            // Pure alias: the engine reuses the variable's node.
            return self.env[v];
        }
        let mut parents: Vec<Inst> = Vec::new();
        for v in expr.vars() {
            let inst = self.env[&v];
            if !parents.contains(&inst) {
                parents.push(inst);
            }
        }
        self.parents.push(parents);
        self.parents.len() - 1
    }

    /// The persisted instances an evaluation of `target` consumes:
    /// reachable through unmaterialized bindings, stopping at (and
    /// collecting) materialized instances.
    fn consumed(&self, target: Inst) -> BTreeSet<Inst> {
        let mut out = BTreeSet::new();
        let mut seen = vec![false; self.parents.len()];
        let mut stack = vec![target];
        while let Some(inst) = stack.pop() {
            if std::mem::replace(&mut seen[inst], true) {
                continue;
            }
            if self.materialized.contains_key(&inst) {
                out.insert(inst);
            } else {
                stack.extend(self.parents[inst].iter().copied());
            }
        }
        out
    }

    /// Attribute an evaluation's consumption to the consumed instances'
    /// blocks (instances materialized without a block decrement nothing).
    fn attribute(&mut self, step: usize, consumed: &BTreeSet<Inst>) {
        for inst in consumed {
            if let Some(Some(block)) = self.materialized.get(inst) {
                self.steps[step].releases.push(*block);
            }
        }
    }

    fn walk(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            let step = self.steps.len();
            self.steps.push(StepOps::default());
            match s {
                Stmt::Loop { n, body } => {
                    for _ in 0..*n {
                        self.walk(body);
                    }
                }
                Stmt::Bind { var, expr } => {
                    let inst = self.instance_of(expr);
                    self.env.insert(*var, inst);
                }
                Stmt::Persist { var, level } => {
                    let inst = self.env[var];
                    if self.materialized.contains_key(&inst) {
                        continue; // The engine's early return: no evaluation.
                    }
                    let consumed = self.consumed(inst);
                    self.attribute(step, &consumed);
                    let block = if level.uses_heap() {
                        let id = self.n_blocks;
                        self.n_blocks += 1;
                        self.steps[step].block = Some(PlanBlock {
                            id,
                            retain: 0,
                            class: RegionClass::RddLifetime,
                        });
                        Some(id)
                    } else {
                        None
                    };
                    self.materialized.insert(inst, block);
                }
                Stmt::Unpersist { var } => {
                    self.materialized.remove(&self.env[var]);
                }
                Stmt::Checkpoint { .. } => {}
                Stmt::Action { var, .. } => {
                    let consumed = self.consumed(self.env[var]);
                    self.attribute(step, &consumed);
                }
            }
        }
    }
}

/// Compute the block release schedule for `program`.
///
/// # Panics
///
/// Panics if the program is ill-formed (uses a variable before binding
/// it); run [`sparklang::validate`] first — the engine already does.
pub fn collect_lifetimes(program: &Program) -> LifetimePlan {
    let mut w = Walker::default();
    w.walk(&program.stmts);
    // Pass 2: retain counts, region classes, and freeing retain-zero
    // blocks at birth.
    let mut released: HashMap<u32, u32> = HashMap::new();
    let mut last_release: HashMap<u32, usize> = HashMap::new();
    for (i, ops) in w.steps.iter().enumerate() {
        for &b in &ops.releases {
            *released.entry(b).or_insert(0) += 1;
            last_release.insert(b, i);
        }
    }
    let final_step = w.steps.len().saturating_sub(1);
    for ops in &mut w.steps {
        if let Some(block) = &mut ops.block {
            block.retain = released.get(&block.id).copied().unwrap_or(0);
            if block.retain == 0 {
                ops.frees.push(block.id);
            } else if last_release.get(&block.id) == Some(&final_step) {
                // The last consumer is the program's final dynamic step:
                // the data effectively lives to the end of the run.
                block.class = RegionClass::Eternal;
            }
        }
    }
    LifetimePlan {
        steps: w.steps,
        n_blocks: w.n_blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklang::ast::{ActionKind, StorageLevel};
    use sparklang::ProgramBuilder;

    #[test]
    fn persist_retained_once_per_consumer() {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("s");
        let x = b.bind("x", src);
        b.persist(x, StorageLevel::MemoryOnly);
        b.action(x, ActionKind::Count);
        b.action(x, ActionKind::Count);
        let (p, _) = b.finish();
        let plan = collect_lifetimes(&p);
        plan.check().unwrap();
        assert_eq!(plan.n_blocks, 1);
        // Steps: 0 bind, 1 persist, 2 action, 3 action.
        let block = plan.steps[1].block.unwrap();
        assert_eq!(block.retain, 2);
        assert_eq!(plan.steps[2].releases, vec![0]);
        assert_eq!(plan.steps[3].releases, vec![0]);
    }

    #[test]
    fn consumers_reach_through_unmaterialized_bindings() {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("s");
        let x = b.bind("x", src);
        b.persist(x, StorageLevel::MemoryOnly);
        let y = b.bind("y", b.var(x).values());
        b.action(y, ActionKind::Count); // Evaluating y reads x.
        let (p, _) = b.finish();
        let plan = collect_lifetimes(&p);
        plan.check().unwrap();
        assert_eq!(plan.steps[1].block.unwrap().retain, 1);
        assert_eq!(plan.steps[3].releases, vec![0]);
    }

    #[test]
    fn rebind_does_not_kill_instances_still_reachable() {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("s");
        let x = b.bind("x", src);
        b.persist(x, StorageLevel::MemoryOnly);
        let y = b.bind("y", b.var(x).values()); // y's lineage references old x.
        let src2 = b.source("s2");
        b.rebind(x, src2);
        b.action(y, ActionKind::Count); // Still consumes the old instance.
        let (p, _) = b.finish();
        let plan = collect_lifetimes(&p);
        plan.check().unwrap();
        assert_eq!(plan.steps[1].block.unwrap().retain, 1);
        assert_eq!(plan.steps[4].releases, vec![0]);
    }

    #[test]
    fn disk_persist_stops_attribution_without_a_block() {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("s");
        let x = b.bind("x", src);
        b.persist(x, StorageLevel::MemoryOnly);
        let y = b.bind("y", b.var(x).values());
        b.persist(y, StorageLevel::DiskOnly); // Consumes x; no block for y.
        b.action(y, ActionKind::Count); // Stops at y: x not consumed.
        let (p, _) = b.finish();
        let plan = collect_lifetimes(&p);
        plan.check().unwrap();
        assert_eq!(plan.n_blocks, 1);
        assert_eq!(plan.steps[1].block.unwrap().retain, 1);
        assert_eq!(plan.steps[3].releases, vec![0]); // y's persist evaluation.
        assert!(plan.steps[3].block.is_none());
        assert!(plan.steps[4].releases.is_empty());
    }

    #[test]
    fn unconsumed_block_is_freed_at_birth() {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("s");
        let x = b.bind("x", src);
        b.persist(x, StorageLevel::MemoryOnly);
        let (p, _) = b.finish();
        let plan = collect_lifetimes(&p);
        plan.check().unwrap();
        let block = plan.steps[1].block.unwrap();
        assert_eq!(block.retain, 0);
        assert_eq!(plan.steps[1].frees, vec![0]);
    }

    #[test]
    fn loop_iterations_get_their_own_steps_and_blocks() {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("s");
        let x = b.bind("x", src);
        b.loop_n(3, |b| {
            let y = b.bind("y", b.var(x).values());
            b.persist(y, StorageLevel::MemoryOnly);
            b.action(y, ActionKind::Count);
        });
        let (p, _) = b.finish();
        let plan = collect_lifetimes(&p);
        plan.check().unwrap();
        // Steps: 0 bind x, 1 loop, then 3 iterations of (bind, persist,
        // action) — but `y` aliases no new instance per iteration? It
        // does: each `bind y = x.values()` creates a fresh instance, so
        // three blocks, each retained by its iteration's action.
        assert_eq!(plan.steps.len(), 2 + 3 * 3);
        assert_eq!(plan.n_blocks, 3);
        for i in 0..3 {
            let persist_step = 2 + i * 3 + 1;
            let action_step = persist_step + 1;
            let block = plan.steps[persist_step].block.unwrap();
            assert_eq!(block.retain, 1);
            assert_eq!(plan.steps[action_step].releases, vec![block.id]);
        }
        // The loop header itself does nothing.
        assert!(plan.steps[1].is_empty());
    }

    #[test]
    fn unpersist_ends_attribution() {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("s");
        let x = b.bind("x", src);
        b.persist(x, StorageLevel::MemoryOnly);
        b.action(x, ActionKind::Count);
        b.unpersist(x);
        b.action(x, ActionKind::Count); // Recomputes from source: no release.
        let (p, _) = b.finish();
        let plan = collect_lifetimes(&p);
        plan.check().unwrap();
        assert_eq!(plan.steps[1].block.unwrap().retain, 1);
        assert_eq!(plan.steps[2].releases, vec![0]);
        assert!(plan.steps[4].releases.is_empty());
    }

    #[test]
    fn last_step_consumer_makes_a_block_eternal() {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("s");
        let x = b.bind("x", src);
        b.persist(x, StorageLevel::MemoryOnly);
        let y = b.bind("y", b.var(x).values());
        b.persist(y, StorageLevel::MemoryOnly);
        b.action(x, ActionKind::Count); // x consumed mid-program.
        b.action(y, ActionKind::Count); // y consumed at the final step.
        let (p, _) = b.finish();
        let plan = collect_lifetimes(&p);
        plan.check().unwrap();
        assert_eq!(plan.steps[1].block.unwrap().class, RegionClass::RddLifetime);
        assert_eq!(plan.steps[3].block.unwrap().class, RegionClass::Eternal);
    }

    #[test]
    fn pagerank_schedule_is_consistent() {
        // The paper's running example: `links` cached once and read every
        // iteration; `contribs` re-created and persisted per iteration.
        let mut b = ProgramBuilder::new("pagerank-shape");
        let one = b.map_fn(|_| mheap::Payload::Long(1));
        let lines = b.source("edges");
        let links = b.bind("links", lines.distinct().group_by_key());
        b.persist(links, StorageLevel::MemoryOnly);
        let ranks = b.bind("ranks", b.var(links).map_values(one));
        b.loop_n(4, |b| {
            let contribs = b.bind("contribs", b.var(links).join(b.var(ranks)).values());
            b.persist(contribs, StorageLevel::MemoryAndDiskSer);
            b.rebind(ranks, b.var(contribs).map_values(one));
        });
        b.action(ranks, ActionKind::Count);
        let (p, _) = b.finish();
        let plan = collect_lifetimes(&p);
        plan.check().unwrap();
        // One block for links + one per loop iteration for contribs.
        assert_eq!(plan.n_blocks, 5);
        // links is consumed by every iteration's contribs persist (the
        // join reads it); contribs_i is consumed by the next iteration's
        // persist (through the unmaterialized ranks rebind) or by the
        // final action.
        let links_block = plan
            .steps
            .iter()
            .find_map(|s| s.block)
            .expect("links block");
        assert_eq!(links_block.retain, 4);
        for ops in &plan.steps {
            if let Some(b) = ops.block {
                if b.id > 0 {
                    assert_eq!(b.retain, 1, "contribs block {} retained once", b.id);
                }
            }
        }
    }
}
