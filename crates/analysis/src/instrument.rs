//! Instrumentation planning: which `rdd_alloc(rdd, tag)` calls to insert.
//!
//! Panthera's analysis rewrites the Spark program, inserting a native
//! `rdd_alloc` call right before each materialization point (a `persist`
//! call or a Spark action) so the inferred tag reaches the runtime
//! (Section 4.2.1). Our interpreter consults this plan when it executes
//! the corresponding statement.

use crate::defuse::DefUse;
use crate::infer::TagAssignment;
use sparklang::ast::{MemoryTag, StmtId, VarId};
use std::collections::BTreeMap;

/// One inserted `rdd_alloc` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RddAllocSite {
    /// The statement the call precedes.
    pub stmt: StmtId,
    /// The RDD variable whose top object gets its `MEMORY_BITS` set.
    pub var: VarId,
    /// The tag passed to the runtime; `None` for untagged (`DISK_ONLY`)
    /// RDDs, for which no call is inserted but the site is recorded.
    pub tag: Option<MemoryTag>,
}

/// The full instrumentation plan for a program.
#[derive(Debug, Clone, Default)]
pub struct InstrumentationPlan {
    /// Sites keyed by statement (each persist/action statement has at most
    /// one site).
    pub sites: BTreeMap<StmtId, RddAllocSite>,
}

impl InstrumentationPlan {
    /// Build a plan from the def/use facts and the tag assignment.
    pub fn build(du: &DefUse, tags: &TagAssignment) -> Self {
        let mut sites = BTreeMap::new();
        for (var, persists) in &du.persists {
            for p in persists {
                sites.insert(
                    p.stmt,
                    RddAllocSite {
                        stmt: p.stmt,
                        var: *var,
                        tag: tags.tag(*var),
                    },
                );
            }
        }
        for (var, actions) in &du.actions {
            // Actions materialize only not-yet-persisted RDDs; if the
            // variable also has persist sites, those already carry the tag.
            if du.persists.contains_key(var) {
                continue;
            }
            for a in actions {
                sites.insert(
                    a.stmt,
                    RddAllocSite {
                        stmt: a.stmt,
                        var: *var,
                        tag: tags.tag(*var),
                    },
                );
            }
        }
        InstrumentationPlan { sites }
    }

    /// The site (if any) attached to a statement.
    pub fn site_at(&self, stmt: StmtId) -> Option<&RddAllocSite> {
        self.sites.get(&stmt)
    }

    /// The tag to pass to `rdd_alloc` at `stmt`, if a tagged site exists.
    pub fn tag_at(&self, stmt: StmtId) -> Option<MemoryTag> {
        self.sites.get(&stmt).and_then(|s| s.tag)
    }

    /// Override the tag at every site that materializes `var`, returning
    /// how many sites changed.
    ///
    /// The statically inferred tags are *priors*: an online re-tagging
    /// policy that has watched real access frequencies may overwrite them
    /// (before a run, or between streaming micro-batches for sites not
    /// yet executed) when the static guess is measurably wrong.
    pub fn override_tag(&mut self, var: VarId, tag: Option<MemoryTag>) -> usize {
        let mut changed = 0;
        for site in self.sites.values_mut() {
            if site.var == var && site.tag != tag {
                site.tag = tag;
                changed += 1;
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::{infer, AnalysisOptions};
    use sparklang::{ActionKind, ProgramBuilder, StorageLevel};

    #[test]
    fn plan_covers_persists_and_bare_actions() {
        let mut b = ProgramBuilder::new("t");
        let s1 = b.source("a");
        let s2 = b.source("b");
        let x = b.bind("x", s1);
        b.persist(x, StorageLevel::MemoryOnly);
        let y = b.bind("y", s2);
        b.action(y, ActionKind::Count);
        b.action(x, ActionKind::Count); // x already persisted: no new site
        let (p, _) = b.finish();
        let du = DefUse::collect(&p);
        let tags = infer(&du, AnalysisOptions::default());
        let plan = InstrumentationPlan::build(&du, &tags);

        assert_eq!(plan.sites.len(), 2);
        let persist_stmt = du.persists[&x][0].stmt;
        assert_eq!(plan.site_at(persist_stmt).unwrap().var, x);
        let y_action = du.actions[&y][0].stmt;
        assert_eq!(plan.site_at(y_action).unwrap().var, y);
        let x_action = du.actions[&x][0].stmt;
        assert!(plan.site_at(x_action).is_none());
        assert!(plan.tag_at(persist_stmt).is_some());
    }
}
