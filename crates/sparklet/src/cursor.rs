//! The interpreter loop: a program flattened into statement-stages.
//!
//! A [`StageCursor`] unrolls a program's loops by their static trip counts
//! into one flat list of statement-stages and executes exactly one per
//! [`StageCursor::step`] call. It is the engine's only interpreter: a
//! one-shot run steps it to completion, a multi-tenant scheduler pauses
//! it at each stage barrier and hands the executor pool to somebody else,
//! and the streaming driver acts on the engine between batches. Every
//! caller therefore issues the same prologue/execute/epilogue calls in the
//! same order with the same pre-order statement ids.

use crate::cluster::ClusterError;
use crate::engine::{ActionResult, Engine, RunOutcome};
use panthera_analysis::InstrumentationPlan;
use sparklang::ast::{Program, Stmt, StmtId};
use sparklang::ValidateProgramError;

/// What a flattened step does when executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepKind {
    /// A non-loop statement: prologue, execute, epilogue.
    Simple,
    /// Entry of a `Loop` statement: runs the loop's own per-statement
    /// prologue once, before the first unrolled iteration.
    LoopEnter,
    /// Exit of a `Loop` statement: runs the loop's per-statement epilogue
    /// once, after the last unrolled iteration.
    LoopExit,
}

/// One entry of the flattened step list.
#[derive(Debug, Clone)]
struct CursorStep {
    /// Child indices from the program root down to the statement; each
    /// non-final component descends into a `Loop` body.
    path: Vec<usize>,
    /// The statement's pre-order [`StmtId`] (ids repeat across unrolled
    /// loop iterations: every iteration re-numbers from the loop's base).
    id: u32,
    kind: StepKind,
}

/// Statements in a block, counted the way the pre-order numbering does.
fn count_stmts(stmts: &[Stmt]) -> u32 {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Loop { body, .. } => 1 + count_stmts(body),
            _ => 1,
        })
        .sum()
}

/// Flatten a block into the step list with pre-order statement
/// numbering (the numbering `panthera_analysis` keys its plan on): each
/// statement claims one id, a loop body is re-numbered from the same base
/// every iteration, and the loop advances the counter past one body's
/// worth of ids when it closes.
fn flatten(stmts: &[Stmt], path: &mut Vec<usize>, next: &mut u32, out: &mut Vec<CursorStep>) {
    for (i, s) in stmts.iter().enumerate() {
        let id = *next;
        *next += 1;
        path.push(i);
        match s {
            Stmt::Loop { n, body } => {
                let body_count = count_stmts(body);
                out.push(CursorStep {
                    path: path.clone(),
                    id,
                    kind: StepKind::LoopEnter,
                });
                for _ in 0..*n {
                    let mut inner = *next;
                    flatten(body, path, &mut inner, out);
                }
                *next += body_count;
                out.push(CursorStep {
                    path: path.clone(),
                    id,
                    kind: StepKind::LoopExit,
                });
            }
            _ => out.push(CursorStep {
                path: path.clone(),
                id,
                kind: StepKind::Simple,
            }),
        }
        path.pop();
    }
}

/// Walk a path back to its statement.
fn resolve<'p>(stmts: &'p [Stmt], path: &[usize]) -> &'p Stmt {
    let s = &stmts[path[0]];
    if path.len() == 1 {
        return s;
    }
    match s {
        Stmt::Loop { body, .. } => resolve(body, &path[1..]),
        _ => unreachable!("cursor path descends through a non-loop statement"),
    }
}

/// A paused, resumable run: owns the engine, the program and its plan,
/// and executes one statement-stage per [`StageCursor::step`] call.
///
/// Statement boundaries are exactly the engine's stage barriers (the
/// epilogue's `cluster_barrier`), so pausing here never splits a shuffle,
/// a collective, or a journaled deposit — the preemption-safety argument
/// of DESIGN.md §13 rests on this.
#[derive(Debug)]
pub struct StageCursor {
    engine: Engine,
    program: Program,
    plan: InstrumentationPlan,
    steps: Vec<CursorStep>,
    /// Index of the next step to execute.
    pos: usize,
    /// Lifetime steps claimed by the prologues of still-open loops,
    /// innermost last; popped by the matching `LoopExit`.
    loop_frames: Vec<usize>,
    results: Vec<(String, ActionResult)>,
}

impl StageCursor {
    /// Begin a run of `program` on `engine` under `plan` (use
    /// `InstrumentationPlan::default()` for un-instrumented baselines):
    /// validate the program, size the variable table, derive the
    /// lifetime schedule, and flatten the program into its steps.
    ///
    /// # Errors
    ///
    /// The program is ill-formed (see [`sparklang::validate`]); programs
    /// built with the [`sparklang::ProgramBuilder`] always pass.
    pub fn new(
        mut engine: Engine,
        program: Program,
        plan: InstrumentationPlan,
    ) -> Result<Self, ValidateProgramError> {
        sparklang::validate(&program)?;
        engine.begin_run(&program);
        let mut steps = Vec::new();
        flatten(&program.stmts, &mut Vec::new(), &mut 0, &mut steps);
        Ok(StageCursor {
            engine,
            program,
            plan,
            steps,
            pos: 0,
            loop_frames: Vec::new(),
            results: Vec::new(),
        })
    }

    /// Total statement-stages in the flattened program.
    pub fn total_stages(&self) -> usize {
        self.steps.len()
    }

    /// Stages still to run.
    pub fn remaining(&self) -> usize {
        self.steps.len() - self.pos
    }

    /// Whether every stage has executed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// The engine's simulated clock, in picoseconds.
    pub fn now_ps(&self) -> u64 {
        self.engine.runtime().heap().mem().clock().now_ps()
    }

    /// The program this cursor runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Read access to the engine between stages.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access between stages, for drivers that act at
    /// stage barriers (the streaming driver re-tags and forces
    /// collections here). Statement boundaries are safe points: no
    /// evaluation is in flight.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Execute the next statement-stage. Returns `false` if every stage
    /// has already run (and nothing ran).
    ///
    /// # Errors
    ///
    /// An engine with a cluster context fails on a planned crash that
    /// fired or a collective that failed; any engine fails on a shuffle
    /// record with no shuffle key ([`ClusterError::KeylessRecord`]). The
    /// run stopped where it happened, and the cursor must not be stepped
    /// again.
    pub fn step(&mut self) -> Result<bool, ClusterError> {
        let Some(cs) = self.steps.get(self.pos) else {
            return Ok(false);
        };
        self.pos += 1;
        let engine = &mut self.engine;
        match cs.kind {
            StepKind::LoopEnter => {
                let step = engine.stmt_prologue();
                self.loop_frames.push(step);
            }
            StepKind::LoopExit => {
                let step = self
                    .loop_frames
                    .pop()
                    .expect("LoopExit without a matching LoopEnter");
                engine.stmt_epilogue(step)?;
            }
            StepKind::Simple => {
                let stmt = resolve(&self.program.stmts, &cs.path);
                let step = engine.stmt_prologue();
                engine.exec_simple(
                    &self.program,
                    stmt,
                    StmtId(cs.id),
                    &self.plan,
                    &mut self.results,
                )?;
                engine.stmt_epilogue(step)?;
            }
        }
        Ok(true)
    }

    /// Finish the run: the end-of-run sweeps, then the engine plus the
    /// [`RunOutcome`].
    ///
    /// Panics if stages remain — drive [`StageCursor::step`] to
    /// completion first.
    pub fn finish(mut self) -> (Engine, RunOutcome) {
        assert!(
            self.is_done(),
            "StageCursor::finish with {} stages remaining",
            self.remaining()
        );
        self.engine.finish_run();
        let stats = *self.engine.stats();
        (
            self.engine,
            RunOutcome {
                results: self.results,
                stats,
            },
        )
    }
}
