//! Spark PageRank — the paper's running example (Figure 2a).
//!
//! `links` is built once, cached with `MEMORY_ONLY`, and read every
//! iteration (the analysis tags it DRAM); `contribs` is re-created and
//! persisted with `MEMORY_AND_DISK_SER` every iteration, primarily for
//! fault tolerance (tagged NVM).

use crate::data::power_law_edges_text;
use crate::BuiltWorkload;
use mheap::Payload;
use sparklang::{ActionKind, ProgramBuilder, StorageLevel};
use sparklet::DataRegistry;

/// Modelled URL length in the synthetic link graph.
const URL_LEN: u32 = 40;

/// Build PageRank over a synthetic power-law web graph with URL-string
/// vertices.
pub fn pagerank(n_vertices: usize, n_edges: usize, iters: u32, seed: u64) -> BuiltWorkload {
    let mut b = ProgramBuilder::new("pagerank");

    let spread = b.flat_map_fn(|joined| {
        // joined = (urls, rank) after `.values()` of links.join(ranks).
        let (urls, rank) = joined.as_pair().expect("(urls, rank)");
        let rank = rank.as_double().expect("rank");
        match urls {
            Payload::List(urls) => {
                let size = urls.len().max(1) as f64;
                urls.iter()
                    .map(|u| Payload::pair(u.clone(), Payload::Double(rank / size)))
                    .collect()
            }
            other => panic!("expected adjacency list, got {other:?}"),
        }
    });
    let one = b.map_fn(|_| Payload::Double(1.0));
    let add = b.reduce_fn(|a, c| {
        Payload::Double(a.as_double().expect("contrib") + c.as_double().expect("contrib"))
    });
    let damp = b.map_fn(|v| Payload::Double(0.15 + 0.85 * v.as_double().expect("sum")));

    // var links = lines.map{...}.distinct().groupByKey()
    //                 .persist(StorageLevel.MEMORY_ONLY)
    let lines = b.source("wikipedia-links");
    let links = b.bind("links", lines.distinct().group_by_key());
    b.persist(links, StorageLevel::MemoryOnly);

    // var ranks = links.mapValues(v => 1.0)
    let ranks = b.bind("ranks", b.var(links).map_values(one));

    // for (i <- 1 to iters) { ... }
    b.loop_n(iters, |b| {
        let contribs_expr = b.var(links).join(b.var(ranks)).values().flat_map(spread);
        let contribs = b.bind("contribs", contribs_expr);
        b.persist(contribs, StorageLevel::MemoryAndDiskSer);
        let ranks_expr = b.var(contribs).reduce_by_key(add).map_values(damp);
        b.rebind(ranks, ranks_expr);
    });

    // ranks.count()
    b.action(ranks, ActionKind::Count);

    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register_with("wikipedia-links", move || {
        power_law_edges_text(n_vertices, n_edges, URL_LEN, seed)
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
    fn tags_match_figure_2() {
        let w = pagerank(100, 400, 3, 1);
        let tags = infer_tags(&w.program);
        let (links, ranks, contribs) = (VarId(0), VarId(1), VarId(2));
        assert_eq!(tags.tag(links), Some(MemoryTag::Dram));
        assert_eq!(tags.tag(contribs), Some(MemoryTag::Nvm));
        assert_eq!(tags.tag(ranks), Some(MemoryTag::Nvm));
    }

    #[test]
    fn dataset_is_registered() {
        let w = pagerank(100, 400, 3, 1);
        assert_eq!(w.data.records("wikipedia-links").len(), 400);
    }
}
