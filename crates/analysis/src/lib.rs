#![deny(missing_docs)]

//! Static inference of memory tags (paper Section 3).
//!
//! Given a [`sparklang`] driver program, this crate reproduces Panthera's
//! Scala-side analysis: it collects def/use facts per RDD variable
//! ([`DefUse`]), infers a DRAM/NVM [`MemoryTag`](sparklang::MemoryTag) for
//! each materialized variable ([`infer_tags`]), and plans the `rdd_alloc`
//! instrumentation the runtime consumes ([`InstrumentationPlan`]).
//!
//! The inference rules, verbatim from the paper:
//!
//! * a variable *defined* in each iteration of a qualifying loop leaves its
//!   old instances cached-but-unused → **NVM**;
//! * a variable *used-only* in some qualifying loop is one instance read
//!   repeatedly → **DRAM**;
//! * a loop qualifies only if the variable's materialization point
//!   (its first `persist`, else its first action) precedes or lies inside
//!   the loop;
//! * no loops → **NVM**; all heap-persisted variables NVM → flip all to
//!   **DRAM**;
//! * `OFF_HEAP` → `OFF_HEAP_NVM`; `DISK_ONLY` → no tag.
//!
//! ```
//! use sparklang::{ProgramBuilder, StorageLevel, ActionKind, MemoryTag};
//! use panthera_analysis::{analyze, infer_tags};
//!
//! let mut b = ProgramBuilder::new("loop-cache");
//! let src = b.source("points");
//! let points = b.bind("points", src);
//! b.persist(points, StorageLevel::MemoryOnly);
//! b.loop_n(10, |b| {
//!     b.action(points, ActionKind::Count); // used-only in the loop
//! });
//! let (program, _) = b.finish();
//!
//! assert_eq!(infer_tags(&program).tag(points), Some(MemoryTag::Dram));
//! let report = analyze(&program);
//! assert_eq!(report.plan.sites.len(), 1);
//! ```

mod defuse;
mod infer;
mod instrument;
mod lifetime;

pub use defuse::{DefUse, LoopExtent, Occurrence, PersistSite};
pub use infer::{infer_tags, infer_tags_with, AnalysisOptions, TagAssignment, TagReason, VarTag};
pub use instrument::{InstrumentationPlan, RddAllocSite};
pub use lifetime::{collect_lifetimes, LifetimePlan, PlanBlock, StepOps};

use sparklang::ast::Program;

/// Everything the analysis produces for one program.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Def/use facts.
    pub defuse: DefUse,
    /// The tag assignment.
    pub tags: TagAssignment,
    /// The instrumentation plan.
    pub plan: InstrumentationPlan,
}

impl AnalysisReport {
    /// Human-readable per-variable summary lines.
    pub fn summary(&self, program: &Program) -> Vec<String> {
        self.tags
            .vars
            .iter()
            .map(|(v, t)| {
                let tag = t
                    .tag
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".to_string());
                format!(
                    "{:<12} -> {:<5} ({:?})",
                    program.var_name(*v),
                    tag,
                    t.reason
                )
            })
            .collect()
    }
}

/// Run the complete pipeline: collect, infer, plan.
pub fn analyze(program: &Program) -> AnalysisReport {
    let defuse = DefUse::collect(program);
    let tags = infer::infer(&defuse, AnalysisOptions::default());
    let plan = InstrumentationPlan::build(&defuse, &tags);
    AnalysisReport { defuse, tags, plan }
}
