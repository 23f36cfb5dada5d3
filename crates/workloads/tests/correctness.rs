//! The workloads compute *correct answers*: each is checked against an
//! independent reference implementation over the same generated dataset.
//! Memory management must never change results, so references are compared
//! under the Panthera mode (the most intrusive one).

use mheap::Payload;
use panthera::{MemoryMode, RunBuilder, SystemConfig, SIM_GB};
use sparklet::ActionResult;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet};
use workloads::{
    connected_components, naive_bayes, pagerank, power_law_edges, sssp, symmetric_edges,
    transitive_closure, weighted_edges,
};

const SEED: u64 = 21;

fn run(w: workloads::BuiltWorkload) -> Vec<(String, ActionResult)> {
    let cfg = SystemConfig::new(MemoryMode::Panthera, 16 * SIM_GB, 1.0 / 3.0);
    RunBuilder::new(&w.program, w.fns, w.data)
        .config(cfg)
        .run()
        .expect("valid configuration")
        .results
}

fn edge_pairs(records: &[Payload]) -> Vec<(i64, i64)> {
    records
        .iter()
        .map(|e| {
            let (s, d) = e.as_pair().unwrap();
            (s.as_long().unwrap(), d.as_long().unwrap())
        })
        .collect()
}

// ---------------------------------------------------------------------
// Connected components vs union-find
// ---------------------------------------------------------------------

struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n).collect())
    }

    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let r = self.find(self.0[x]);
            self.0[x] = r;
        }
        self.0[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.0[ra.max(rb)] = ra.min(rb);
    }
}

#[test]
fn cc_matches_union_find() {
    let (n, m, steps) = (120usize, 150usize, 16u32);
    let w = connected_components(n, m, steps, SEED);
    let results = run(w);
    let labels = results.last().unwrap().1.as_collected().unwrap();

    // Reference: union-find over the same symmetric edge set, component
    // labelled by its minimum vertex id.
    let edges = edge_pairs(&symmetric_edges(n, m, SEED));
    let mut uf = UnionFind::new(n);
    let mut present: BTreeSet<i64> = BTreeSet::new();
    for (s, d) in &edges {
        uf.union(*s as usize, *d as usize);
        present.insert(*s);
        present.insert(*d);
    }
    // Min label per component, over vertices that appear in the graph.
    let mut min_label: HashMap<usize, i64> = HashMap::new();
    for v in &present {
        let root = uf.find(*v as usize);
        let e = min_label.entry(root).or_insert(*v);
        *e = (*e).min(*v);
    }
    let expect: BTreeMap<i64, i64> = present
        .iter()
        .map(|v| (*v, min_label[&uf.find(*v as usize)]))
        .collect();

    let got: BTreeMap<i64, i64> = labels
        .iter()
        .map(|r| {
            let (v, l) = r.as_pair().unwrap();
            (v.as_long().unwrap(), l.as_long().unwrap())
        })
        .collect();
    assert_eq!(
        got, expect,
        "connected-components labels diverge from union-find"
    );
}

// ---------------------------------------------------------------------
// SSSP vs Dijkstra
// ---------------------------------------------------------------------

#[test]
fn sssp_matches_dijkstra() {
    let (n, m, steps) = (100usize, 260usize, 24u32);
    let w = sssp(n, m, steps, SEED);
    let results = run(w);
    let dists = results.last().unwrap().1.as_collected().unwrap();

    // Reference: Dijkstra from vertex 0 over the same weighted edges.
    let raw = weighted_edges(n, m, SEED);
    let mut adj: HashMap<i64, Vec<(i64, f64)>> = HashMap::new();
    let mut present: BTreeSet<i64> = BTreeSet::new();
    for e in &raw {
        let (s, dw) = e.as_pair().unwrap();
        let (d, wgt) = dw.as_pair().unwrap();
        let (s, d, wgt) = (
            s.as_long().unwrap(),
            d.as_long().unwrap(),
            wgt.as_double().unwrap(),
        );
        adj.entry(s).or_default().push((d, wgt));
        present.insert(s);
        present.insert(d);
    }
    let mut dist: HashMap<i64, f64> = HashMap::new();
    let mut heap: BinaryHeap<(std::cmp::Reverse<u64>, i64)> = BinaryHeap::new();
    if present.contains(&0) {
        dist.insert(0, 0.0);
        heap.push((std::cmp::Reverse(0), 0));
    }
    while let Some((std::cmp::Reverse(bits), v)) = heap.pop() {
        let d = f64::from_bits(bits);
        if d > dist.get(&v).copied().unwrap_or(f64::MAX) {
            continue;
        }
        for (u, w) in adj.get(&v).into_iter().flatten() {
            let nd = d + w;
            if nd < dist.get(u).copied().unwrap_or(f64::MAX) {
                dist.insert(*u, nd);
                heap.push((std::cmp::Reverse(nd.to_bits()), *u));
            }
        }
    }

    const INF: f64 = f64::MAX / 4.0;
    for r in dists {
        let (v, d) = r.as_pair().unwrap();
        let (v, d) = (v.as_long().unwrap(), d.as_double().unwrap());
        match dist.get(&v) {
            Some(expect) => assert!(
                (d - expect).abs() < 1e-9,
                "vertex {v}: sssp {d}, dijkstra {expect}"
            ),
            None => assert!(d >= INF, "vertex {v} unreachable but got {d}"),
        }
    }
}

// ---------------------------------------------------------------------
// Transitive closure vs bounded reachability
// ---------------------------------------------------------------------

#[test]
fn tc_matches_bounded_reachability() {
    let (n, m, iters) = (48usize, 110usize, 3u32);
    let w = transitive_closure(n, m, iters, SEED);
    let results = run(w);
    let count = results.last().unwrap().1.as_count().unwrap();

    // The loop grows paths by one edge per iteration: after k iterations,
    // tc holds pairs (x, z) connected by a path of 1..=k+1 edges.
    let edges: BTreeSet<(i64, i64)> = edge_pairs(&power_law_edges(n, m, SEED))
        .into_iter()
        .collect();
    let mut closure: BTreeSet<(i64, i64)> = edges.clone();
    for _ in 0..iters {
        let grown: BTreeSet<(i64, i64)> = closure
            .iter()
            .flat_map(|(x, y)| {
                edges
                    .iter()
                    .filter(move |(s, _)| s == y)
                    .map(move |(_, z)| (*x, *z))
            })
            .collect();
        closure.extend(grown);
    }
    assert_eq!(
        count,
        closure.len() as u64,
        "transitive closure size diverges"
    );
}

// ---------------------------------------------------------------------
// PageRank vs a reference iteration
// ---------------------------------------------------------------------

#[test]
fn pagerank_count_matches_reference() {
    let (n, m, iters) = (150usize, 700usize, 4u32);
    let w = pagerank(n, m, iters, SEED);
    let results = run(w);
    let count = results.last().unwrap().1.as_count().unwrap();

    // Reference: mirror the program's semantics. links = distinct edges
    // grouped by src; ranks_0 = 1.0 for every src; each iteration spreads
    // rank/deg along links for srcs present in ranks, then ranks = damped
    // sums keyed by dst. The final count is |ranks_iters|.
    let edges: BTreeSet<(i64, i64)> = edge_pairs(&power_law_edges(n, m, SEED))
        .into_iter()
        .collect();
    let mut links: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    for (s, d) in &edges {
        links.entry(*s).or_default().push(*d);
    }
    let mut ranks: BTreeMap<i64, f64> = links.keys().map(|s| (*s, 1.0)).collect();
    for _ in 0..iters {
        let mut contribs: BTreeMap<i64, f64> = BTreeMap::new();
        for (src, rank) in &ranks {
            if let Some(dsts) = links.get(src) {
                let share = rank / dsts.len() as f64;
                for d in dsts {
                    *contribs.entry(*d).or_insert(0.0) += share;
                }
            }
        }
        ranks = contribs
            .into_iter()
            .map(|(d, c)| (d, 0.15 + 0.85 * c))
            .collect();
    }
    assert_eq!(count, ranks.len() as u64, "pagerank rank-set size diverges");
}

// ---------------------------------------------------------------------
// Naive Bayes aggregations
// ---------------------------------------------------------------------

#[test]
fn bayes_priors_and_cells_match() {
    let (docs_n, vocab, labels_n, wpd) = (300usize, 120usize, 3usize, 9usize);
    let w = naive_bayes(docs_n, vocab, labels_n, wpd, SEED);
    let results = run(w);
    // results: [model.count, priors.collect]
    let model_cells = results[0].1.as_count().unwrap();
    let priors = results[1].1.as_collected().unwrap();

    let docs = workloads::labeled_documents(docs_n, vocab, labels_n, wpd, SEED);
    let mut cells: HashSet<i64> = HashSet::new();
    let mut label_counts: BTreeMap<i64, i64> = BTreeMap::new();
    for d in &docs {
        let (l, ws) = d.as_pair().unwrap();
        let l = l.as_long().unwrap();
        *label_counts.entry(l).or_insert(0) += 1;
        if let Payload::Longs(ws) = ws {
            for w in ws.iter() {
                cells.insert(l * vocab as i64 + w);
            }
        }
    }
    assert_eq!(
        model_cells,
        cells.len() as u64,
        "distinct (class, word) cells"
    );
    let got: BTreeMap<i64, i64> = priors
        .iter()
        .map(|r| {
            let (l, c) = r.as_pair().unwrap();
            (l.as_long().unwrap(), c.as_long().unwrap())
        })
        .collect();
    assert_eq!(got, label_counts, "class priors diverge");
}

// ---------------------------------------------------------------------
// K-Means: the in-place fold leaves the cached points untouched
// ---------------------------------------------------------------------

/// K-Means sums each cluster's points in place, into an accumulator that
/// starts out sharing the first point's storage. The copy-on-write fold
/// copies before the first add, so the registered points come out of a
/// whole run bit-identical to freshly generated ones.
#[test]
fn kmeans_fold_leaves_the_cached_points_untouched() {
    let (n, dims, k, iters) = (400usize, 4usize, 3usize, 4u32);
    let w = workloads::kmeans(n, dims, k, iters, SEED);
    let data = w.data.clone();
    let results = run(w);
    assert_eq!(results.len(), iters as usize);
    let after = data.records("wikipedia-points");
    let fresh = workloads::clustered_points(n, dims, k, SEED);
    assert_eq!(after.len(), fresh.len());
    for (i, (a, f)) in after.iter().zip(&fresh).enumerate() {
        assert_eq!(a.fingerprint(), f.fingerprint(), "point {i} changed");
    }
}

// ---------------------------------------------------------------------
// Text round-trip of every workload program
// ---------------------------------------------------------------------

#[test]
fn every_workload_program_roundtrips_through_text() {
    use sparklang::{parse, Pretty};
    for id in workloads::WorkloadId::ALL {
        let w = workloads::build_workload(id, 0.05, SEED);
        let text = Pretty(&w.program).to_string();
        let reparsed = parse(&text).unwrap_or_else(|e| panic!("{id}: {e}\n--- source ---\n{text}"));
        assert_eq!(w.program.stmts, reparsed.stmts, "{id}: AST changed");
        assert_eq!(
            Pretty(&reparsed).to_string(),
            text,
            "{id}: pretty/parse not a fixed point"
        );
        // The analysis agrees on the reparsed program.
        use panthera_analysis::infer_tags;
        assert_eq!(
            infer_tags(&w.program).vars,
            infer_tags(&reparsed).vars,
            "{id}: tags diverge after round-trip"
        );
    }
}
