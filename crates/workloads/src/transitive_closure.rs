//! Spark Transitive Closure: the classic path-doubling loop. `tc` is
//! redefined (and re-persisted) every iteration — the analysis tags it
//! NVM — while the static `edges` set is used-only (DRAM).

use crate::data::power_law_edges;
use crate::BuiltWorkload;
use mheap::Payload;
use sparklang::{ActionKind, ProgramBuilder, StorageLevel};
use sparklet::DataRegistry;

/// Build transitive closure over a small synthetic web graph (the paper
/// uses the Notre Dame graph, its smallest input).
pub fn transitive_closure(
    n_vertices: usize,
    n_edges: usize,
    iters: u32,
    seed: u64,
) -> BuiltWorkload {
    let mut b = ProgramBuilder::new("transitive-closure");

    // (x, y) -> (y, x): key paths by their endpoint for the join.
    let swap = b.map_fn(|r| {
        let (x, y) = r.as_pair().expect("(x, y)");
        Payload::pair(y.clone(), x.clone())
    });
    // (mid, (x, z)) joined records -> (x, z) paths.
    let to_path = b.map_fn(|r| {
        let (x, z) = r.as_pair().expect("(x, z)");
        Payload::pair(x.clone(), z.clone())
    });

    let src = b.source("notre-dame");
    let edges = b.bind("edges", src.distinct());
    b.persist(edges, StorageLevel::MemoryOnly);
    let tc = b.bind("tc", b.var(edges));
    b.loop_n(iters, |b| {
        // tc = tc.union(tc.map(swap).join(edges).values.map(toPath))
        //        .distinct()
        let grown = b.var(tc).map(swap).join(b.var(edges)).values().map(to_path);
        let e = b.var(tc).union(grown).distinct();
        b.rebind(tc, e);
        b.persist(tc, StorageLevel::MemoryOnly);
    });
    b.action(tc, ActionKind::Count);

    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register_with("notre-dame", move || {
        power_law_edges(n_vertices, n_edges, seed)
    });
    BuiltWorkload { program, fns, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panthera_analysis::infer_tags;
    use sparklang::ast::MemoryTag;
    use sparklang::VarId;

    #[test]
    fn edges_dram_tc_nvm() {
        let w = transitive_closure(40, 80, 3, 1);
        let tags = infer_tags(&w.program);
        assert_eq!(tags.tag(VarId(0)), Some(MemoryTag::Dram), "edges used-only");
        assert_eq!(
            tags.tag(VarId(1)),
            Some(MemoryTag::Nvm),
            "tc redefined per iter"
        );
    }
}
