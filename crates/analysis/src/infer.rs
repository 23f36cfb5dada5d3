//! Memory-tag inference (paper Section 3).
//!
//! For each materialized RDD variable the analysis asks: *after this RDD
//! materializes, is it repeatedly read, or does each loop iteration replace
//! it with a fresh instance?* Concretely:
//!
//! 1. Consider only loops whose extent the materialization point precedes
//!    or lies within — behaviour before materialization is irrelevant.
//! 2. If some such loop *uses* the variable without ever *defining* it,
//!    only one RDD instance exists and is read every iteration → **DRAM**.
//! 3. Otherwise (defined in the loops, or no qualifying loop at all) most
//!    instances are written once and left cached → **NVM**.
//! 4. `OFF_HEAP` persists are forced to NVM; `DISK_ONLY` gets no tag.
//! 5. If *every* heap-persisted RDD ended up NVM, flip them all to DRAM —
//!    DRAM should be filled first, with overflow spilling to NVM anyway.

use crate::defuse::DefUse;
use sparklang::ast::{MemoryTag, Program, StmtId, StorageLevel, VarId};
use std::collections::BTreeMap;

/// Options controlling optional analysis extensions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Understand `unpersist`: a variable that is redefined in a loop but
    /// *unpersisted in the same loop* does not accumulate stale cached
    /// instances — the single live instance is read every iteration, so it
    /// earns a DRAM tag. The paper's analysis lacks this (Section 5.5:
    /// GraphX's per-superstep graphs are handled by dynamic migration
    /// instead); off by default for paper fidelity.
    pub unpersist_support: bool,
}

/// Why a variable got its tag — kept for reports and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagReason {
    /// Used-only in a qualifying loop.
    UsedOnlyInLoop,
    /// Defined in every qualifying loop it appears in.
    DefinedInLoop,
    /// No qualifying loop follows or contains the materialization point.
    NoQualifyingLoop,
    /// `OFF_HEAP` storage level forces NVM.
    OffHeapForced,
    /// `DISK_ONLY` carries no memory tag.
    DiskOnly,
    /// Flipped NVM→DRAM because every persisted RDD was NVM.
    AllNvmFlip,
    /// Extension (`unpersist_support`): redefined in a loop but promptly
    /// unpersisted there, so only the hot live instance exists.
    RecycledInLoop,
}

/// The tag assigned to one variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarTag {
    /// The inferred tag; `None` for `DISK_ONLY`.
    pub tag: Option<MemoryTag>,
    /// Why.
    pub reason: TagReason,
    /// The materialization point the decision was keyed on.
    pub mat_point: StmtId,
}

/// The full assignment for a program.
#[derive(Debug, Clone, Default)]
pub struct TagAssignment {
    /// Per-variable decisions (ordered for deterministic reports).
    pub vars: BTreeMap<VarId, VarTag>,
}

impl TagAssignment {
    /// The tag for `var`, if the variable is materialized and tagged.
    pub fn tag(&self, var: VarId) -> Option<MemoryTag> {
        self.vars.get(&var).and_then(|t| t.tag)
    }

    /// Expanded storage-level name for a persist site, e.g.
    /// `MEMORY_ONLY_DRAM` (Section 3's sub-level expansion).
    pub fn expanded_level(&self, var: VarId, level: StorageLevel) -> String {
        match (level.expands_to_tagged(), self.tag(var)) {
            (true, Some(t)) => format!("{level}_{t}"),
            (_, _) if level == StorageLevel::OffHeap => "OFF_HEAP_NVM".to_string(),
            _ => level.to_string(),
        }
    }
}

/// Run the inference over a program with the paper's exact rules.
///
/// # Examples
///
/// ```
/// use panthera_analysis::infer_tags;
/// use sparklang::{ActionKind, MemoryTag, ProgramBuilder, StorageLevel};
///
/// let mut b = ProgramBuilder::new("cache");
/// let src = b.source("input");
/// let table = b.bind("table", src.distinct());
/// b.persist(table, StorageLevel::MemoryOnly);
/// b.loop_n(8, |b| b.action(table, ActionKind::Count));
/// let (program, _) = b.finish();
///
/// // Used-only in a loop after materialization => hot => DRAM.
/// assert_eq!(infer_tags(&program).tag(table), Some(MemoryTag::Dram));
/// ```
pub fn infer_tags(program: &Program) -> TagAssignment {
    infer_tags_with(program, AnalysisOptions::default())
}

/// Run the inference with optional extensions enabled.
pub fn infer_tags_with(program: &Program, options: AnalysisOptions) -> TagAssignment {
    infer(&DefUse::collect(program), options)
}

/// The inference over a program's pre-collected def/use facts.
pub(crate) fn infer(du: &DefUse, options: AnalysisOptions) -> TagAssignment {
    let mut out = TagAssignment::default();
    for var in du.materialized_vars() {
        let Some(mat) = du.materialization_point(var) else {
            continue;
        };
        let level = du
            .persists
            .get(&var)
            .and_then(|p| p.iter().min_by_key(|s| s.stmt))
            .map(|s| s.level);

        let decision = match level {
            Some(StorageLevel::OffHeap) => VarTag {
                tag: Some(MemoryTag::Nvm),
                reason: TagReason::OffHeapForced,
                mat_point: mat,
            },
            Some(StorageLevel::DiskOnly) => VarTag {
                tag: None,
                reason: TagReason::DiskOnly,
                mat_point: mat,
            },
            _ => rule_based(du, var, mat, options),
        };
        out.vars.insert(var, decision);
    }

    // Rule 5: the all-NVM flip. Only rule-based decisions participate —
    // OFF_HEAP stays NVM and DISK_ONLY stays untagged.
    let rule_based: Vec<VarId> = out
        .vars
        .iter()
        .filter(|(_, t)| {
            matches!(
                t.reason,
                TagReason::UsedOnlyInLoop
                    | TagReason::DefinedInLoop
                    | TagReason::NoQualifyingLoop
                    | TagReason::RecycledInLoop
            )
        })
        .map(|(v, _)| *v)
        .collect();
    let all_nvm = !rule_based.is_empty()
        && rule_based
            .iter()
            .all(|v| out.vars[v].tag == Some(MemoryTag::Nvm));
    if all_nvm {
        for v in rule_based {
            let t = out.vars.get_mut(&v).expect("just inserted");
            t.tag = Some(MemoryTag::Dram);
            t.reason = TagReason::AllNvmFlip;
        }
    }
    out
}

fn rule_based(du: &DefUse, var: VarId, mat: StmtId, options: AnalysisOptions) -> VarTag {
    // Qualifying loops: the materialization point precedes the loop or
    // lies inside its extent.
    let mut saw_qualifying = false;
    for (loop_id, extent) in &du.loops {
        if mat > extent.end {
            continue;
        }
        if !du.used_in(var, *loop_id) {
            continue;
        }
        saw_qualifying = true;
        if !du.defined_in(var, *loop_id) {
            // Used-only in a loop that follows/contains materialization.
            return VarTag {
                tag: Some(MemoryTag::Dram),
                reason: TagReason::UsedOnlyInLoop,
                mat_point: mat,
            };
        }
        if options.unpersist_support && unpersisted_in(du, var, *loop_id) {
            // Extension: the loop recycles the variable's instances, so
            // only the (hot) live one occupies memory.
            return VarTag {
                tag: Some(MemoryTag::Dram),
                reason: TagReason::RecycledInLoop,
                mat_point: mat,
            };
        }
    }
    let reason = if saw_qualifying {
        TagReason::DefinedInLoop
    } else {
        TagReason::NoQualifyingLoop
    };
    VarTag {
        tag: Some(MemoryTag::Nvm),
        reason,
        mat_point: mat,
    }
}

fn unpersisted_in(du: &DefUse, var: VarId, l: sparklang::ast::LoopId) -> bool {
    du.unpersists
        .get(&var)
        .is_some_and(|v| v.iter().any(|o| o.in_loop(l)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklang::{ActionKind, ProgramBuilder, StorageLevel};

    /// Figure 2(a)'s PageRank: links → DRAM, contribs → NVM, ranks → NVM.
    fn pagerank() -> sparklang::Program {
        let mut b = ProgramBuilder::new("pr");
        let f = b.map_fn(|p| p.clone());
        let src = b.source("wiki");
        let links = b.bind("links", src.map(f).distinct().group_by_key());
        b.persist(links, StorageLevel::MemoryOnly);
        let ranks = b.bind("ranks", b.var(links).map_values(f));
        b.loop_n(10, |b| {
            let e = b.var(links).join(b.var(ranks)).values().flat_map(f);
            let contribs = b.bind("contribs", e);
            b.persist(contribs, StorageLevel::MemoryAndDiskSer);
            let e2 = b.var(contribs).reduce_by_key(f).map_values(f);
            b.rebind(ranks, e2);
        });
        b.action(ranks, ActionKind::Count);
        b.finish().0
    }

    #[test]
    fn pagerank_tags_match_paper() {
        let p = pagerank();
        let tags = infer_tags(&p);
        let (links, ranks, contribs) = (VarId(0), VarId(1), VarId(2));
        assert_eq!(tags.tag(links), Some(MemoryTag::Dram));
        assert_eq!(tags.vars[&links].reason, TagReason::UsedOnlyInLoop);
        assert_eq!(tags.tag(contribs), Some(MemoryTag::Nvm));
        assert_eq!(tags.vars[&contribs].reason, TagReason::DefinedInLoop);
        // ranks materializes at count() *after* the loop — the loop does
        // not qualify, so ranks is NVM (Section 3's ordering constraint).
        assert_eq!(tags.tag(ranks), Some(MemoryTag::Nvm));
        assert_eq!(tags.vars[&ranks].reason, TagReason::NoQualifyingLoop);
    }

    #[test]
    fn expanded_level_names() {
        let p = pagerank();
        let tags = infer_tags(&p);
        assert_eq!(
            tags.expanded_level(VarId(0), StorageLevel::MemoryOnly),
            "MEMORY_ONLY_DRAM"
        );
        assert_eq!(
            tags.expanded_level(VarId(2), StorageLevel::MemoryAndDiskSer),
            "MEMORY_AND_DISK_SER_NVM"
        );
    }

    #[test]
    fn no_loop_program_flips_to_dram() {
        // Section 3: with no loops, everything is NVM first, then the
        // all-NVM rule flips every tag to DRAM to fill DRAM first.
        let mut b = ProgramBuilder::new("batch");
        let src = b.source("input");
        let x = b.bind("x", src.distinct());
        b.persist(x, StorageLevel::MemoryOnly);
        b.action(x, ActionKind::Count);
        let (p, _) = b.finish();
        let tags = infer_tags(&p);
        assert_eq!(tags.tag(x), Some(MemoryTag::Dram));
        assert_eq!(tags.vars[&x].reason, TagReason::AllNvmFlip);
    }

    #[test]
    fn off_heap_is_forced_nvm_and_excluded_from_flip() {
        let mut b = ProgramBuilder::new("t");
        let s1 = b.source("a");
        let s2 = b.source("b");
        let x = b.bind("x", s1);
        b.persist(x, StorageLevel::OffHeap);
        let y = b.bind("y", s2);
        b.persist(y, StorageLevel::MemoryOnly);
        b.action(y, ActionKind::Count);
        let (p, _) = b.finish();
        let tags = infer_tags(&p);
        assert_eq!(tags.vars[&x].reason, TagReason::OffHeapForced);
        assert_eq!(tags.tag(x), Some(MemoryTag::Nvm));
        // y was rule-based NVM and is the only rule-based var → flipped.
        assert_eq!(tags.tag(y), Some(MemoryTag::Dram));
        assert_eq!(
            tags.expanded_level(x, StorageLevel::OffHeap),
            "OFF_HEAP_NVM"
        );
    }

    #[test]
    fn disk_only_gets_no_tag() {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("a");
        let x = b.bind("x", src);
        b.persist(x, StorageLevel::DiskOnly);
        b.loop_n(3, |b| {
            b.action(x, ActionKind::Count);
        });
        let (p, _) = b.finish();
        let tags = infer_tags(&p);
        assert_eq!(tags.tag(x), None);
        assert_eq!(tags.vars[&x].reason, TagReason::DiskOnly);
        assert_eq!(tags.expanded_level(x, StorageLevel::DiskOnly), "DISK_ONLY");
    }

    #[test]
    fn used_only_in_later_loop_wins_over_earlier_defining_loop() {
        // "If there are multiple loops ... tag DRAM as long as there exists
        // one loop in which the variable is used-only and that loop follows
        // or contains the materialization point."
        let mut b = ProgramBuilder::new("t");
        let f = b.map_fn(|p| p.clone());
        let src = b.source("a");
        let x = b.bind("x", src);
        b.persist(x, StorageLevel::MemoryOnly);
        b.loop_n(2, |b| {
            let e = b.var(x).map(f);
            b.rebind(x, e); // defined here → would be NVM
        });
        b.loop_n(2, |b| {
            b.action(x, ActionKind::Count); // used-only here → DRAM
        });
        let (p, _) = b.finish();
        let tags = infer_tags(&p);
        assert_eq!(tags.tag(x), Some(MemoryTag::Dram));
        assert_eq!(tags.vars[&x].reason, TagReason::UsedOnlyInLoop);
    }

    #[test]
    fn transitive_closure_tags() {
        // TC: tc = tc.union(tc.join(edges)...).distinct() in a loop — tc is
        // defined every iteration. edges used-only. So edges=DRAM, tc=NVM,
        // no flip.
        let mut b = ProgramBuilder::new("tc");
        let f = b.map_fn(|p| p.clone());
        let src = b.source("graph");
        let edges = b.bind("edges", src);
        b.persist(edges, StorageLevel::MemoryOnly);
        let tc = b.bind("tc", b.var(edges));
        b.persist(tc, StorageLevel::MemoryOnly);
        b.loop_n(5, |b| {
            let grown = b.var(tc).join(b.var(edges)).values().map(f);
            let e = b.var(tc).union(grown).distinct();
            b.rebind(tc, e);
            b.persist(tc, StorageLevel::MemoryOnly);
        });
        b.action(tc, ActionKind::Count);
        let (p, _) = b.finish();
        let tags = infer_tags(&p);
        assert_eq!(tags.tag(edges), Some(MemoryTag::Dram));
        assert_eq!(tags.tag(tc), Some(MemoryTag::Nvm));
    }

    #[test]
    fn unpersist_extension_recognizes_recycling() {
        // The GraphX pattern: state redefined each superstep but promptly
        // unpersisted — stale instances never accumulate.
        let build = || {
            let mut b = ProgramBuilder::new("pregel");
            let f = b.map_fn(|p| p.clone());
            let src = b.source("g");
            let anchor = b.bind("anchor", src.distinct());
            b.persist(anchor, StorageLevel::MemoryOnly);
            let state = b.bind("state", b.var(anchor).map(f));
            b.persist(state, StorageLevel::MemoryOnly);
            b.loop_n(5, |b| {
                let e = b.var(state).map(f);
                b.unpersist(state);
                b.rebind(state, e);
                b.persist(state, StorageLevel::MemoryOnly);
                b.action(anchor, ActionKind::Count); // keeps anchor DRAM
            });
            (b.finish().0, state)
        };
        let (p, state) = build();
        // Paper-faithful: defined-in-loop => NVM.
        let base = infer_tags(&p);
        assert_eq!(base.tag(state), Some(MemoryTag::Nvm));
        assert_eq!(base.vars[&state].reason, TagReason::DefinedInLoop);
        // Extension: recycled => DRAM.
        let ext = infer_tags_with(
            &p,
            AnalysisOptions {
                unpersist_support: true,
            },
        );
        assert_eq!(ext.tag(state), Some(MemoryTag::Dram));
        assert_eq!(ext.vars[&state].reason, TagReason::RecycledInLoop);
    }

    #[test]
    fn unpersist_extension_leaves_pagerank_alone() {
        // contribs is never unpersisted: the extension must not change
        // Figure 2(a)'s tags.
        let p = pagerank();
        let ext = infer_tags_with(
            &p,
            AnalysisOptions {
                unpersist_support: true,
            },
        );
        assert_eq!(ext.tag(VarId(0)), Some(MemoryTag::Dram), "links");
        assert_eq!(ext.tag(VarId(2)), Some(MemoryTag::Nvm), "contribs");
    }

    #[test]
    fn unmaterialized_vars_get_no_entry() {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("a");
        let x = b.bind("x", src);
        let y = b.bind("y", b.var(x).distinct());
        b.action(y, ActionKind::Count);
        let (p, _) = b.finish();
        let tags = infer_tags(&p);
        assert!(!tags.vars.contains_key(&x), "x is never materialized");
        assert!(tags.vars.contains_key(&y));
    }
}
