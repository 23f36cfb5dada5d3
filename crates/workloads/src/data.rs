//! Synthetic dataset generators standing in for Table 4's inputs.
//!
//! The paper runs on real datasets (Wikipedia link dumps, the Notre Dame
//! web graph, KDD 2012) we cannot ship; these generators produce scaled
//! synthetic equivalents with the properties the workloads' memory
//! behaviour depends on: skewed (power-law-ish) degree distributions for
//! the graphs, clustered points for K-Means, and sparse labeled vectors
//! for the classifiers. Everything is seeded and deterministic.

use mheap::Payload;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The `(src, dst)` vertex pairs of [`power_law_edges`], in order.
fn power_law_pairs(
    n_vertices: usize,
    n_edges: usize,
    seed: u64,
) -> impl Iterator<Item = (i64, i64)> {
    assert!(n_vertices > 1, "need at least two vertices");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_edges).map(move |_| {
        let u: f64 = rng.random();
        let src = ((u * u) * n_vertices as f64) as i64;
        let dst = rng.random_range(0..n_vertices as i64);
        (src.min(n_vertices as i64 - 1), dst)
    })
}

/// A directed graph as `(src, dst)` pair records, with a skewed
/// out-degree distribution (sources drawn quadratically toward low ids,
/// approximating a power law).
pub fn power_law_edges(n_vertices: usize, n_edges: usize, seed: u64) -> Vec<Payload> {
    power_law_pairs(n_vertices, n_edges, seed)
        .map(|(src, dst)| Payload::keyed(src, Payload::Long(dst)))
        .collect()
}

/// Like [`power_law_edges`] but with URL-string vertices, as in the
/// paper's Wikipedia link datasets — this is what makes the cached
/// `links` RDD heavy. A vertex is a [`Payload::Text`] of modelled length
/// `url_len` whose symbol is its rank in order of first appearance: the
/// dense id interning each vertex's distinct URL would assign, without
/// building the string.
pub fn power_law_edges_text(
    n_vertices: usize,
    n_edges: usize,
    url_len: u32,
    seed: u64,
) -> Vec<Payload> {
    let mut syms: Vec<Option<u64>> = vec![None; n_vertices];
    let mut next = 0u64;
    let mut text = |v: i64| {
        let v = usize::try_from(v).expect("vertex ids are non-negative");
        let sym = *syms[v].get_or_insert_with(|| {
            next += 1;
            next - 1
        });
        Payload::Text { sym, len: url_len }
    };
    power_law_pairs(n_vertices, n_edges, seed)
        .map(|(src, dst)| {
            let s = text(src);
            Payload::pair(s, text(dst))
        })
        .collect()
}

/// A symmetric version of [`power_law_edges`] (each edge in both
/// directions), for connected components.
pub fn symmetric_edges(n_vertices: usize, n_edges: usize, seed: u64) -> Vec<Payload> {
    let mut out = power_law_edges(n_vertices, n_edges, seed);
    let reversed: Vec<Payload> = out
        .iter()
        .map(|e| {
            let (k, v) = e.as_pair().expect("edge pair");
            Payload::keyed(v.as_long().expect("dst"), k.clone())
        })
        .collect();
    out.extend(reversed);
    out
}

/// A weighted graph as `(src, (dst, weight))` records for shortest paths.
pub fn weighted_edges(n_vertices: usize, n_edges: usize, seed: u64) -> Vec<Payload> {
    let mut rng = StdRng::seed_from_u64(seed);
    power_law_edges(n_vertices, n_edges, seed.wrapping_add(1))
        .into_iter()
        .map(|e| {
            let (k, v) = e.as_pair().expect("edge pair");
            let w: f64 = rng.random_range(1.0..10.0);
            Payload::pair(k.clone(), Payload::pair(v.clone(), Payload::Double(w)))
        })
        .collect()
}

/// Points drawn from `k` Gaussian-ish clusters in `dims` dimensions.
pub fn clustered_points(n: usize, dims: usize, k: usize, seed: u64) -> Vec<Payload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..dims).map(|_| rng.random_range(-10.0..10.0)).collect())
        .collect();
    (0..n)
        .map(|i| {
            let c = &centres[i % k];
            let p: Vec<f64> = c.iter().map(|x| x + rng.random_range(-1.0..1.0)).collect();
            Payload::doubles(p)
        })
        .collect()
}

/// Labeled points `(y ∈ {-1, +1}, x)` that are linearly separable with
/// noise, for logistic regression.
pub fn labeled_points(n: usize, dims: usize, seed: u64) -> Vec<Payload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let w: Vec<f64> = (0..dims).map(|_| rng.random_range(-1.0..1.0)).collect();
    (0..n)
        .map(|_| {
            let x: Vec<f64> = (0..dims).map(|_| rng.random_range(-1.0..1.0)).collect();
            let dot: f64 = w.iter().zip(&x).map(|(a, b)| a * b).sum();
            let noise: f64 = rng.random_range(-0.1..0.1);
            let y = if dot + noise >= 0.0 { 1 } else { -1 };
            Payload::pair(Payload::Long(y), Payload::doubles(x))
        })
        .collect()
}

/// Sparse labeled documents `(label, [word ids])` with Zipf-ish word
/// frequencies, for Naive Bayes.
pub fn labeled_documents(
    n_docs: usize,
    vocab: usize,
    n_labels: usize,
    words_per_doc: usize,
    seed: u64,
) -> Vec<Payload> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_docs)
        .map(|i| {
            let label = (i % n_labels) as i64;
            let words: Vec<i64> = (0..words_per_doc)
                .map(|_| {
                    let u: f64 = rng.random();
                    // Skew word ids toward the label's region of the vocab.
                    let base = (label as usize * vocab / n_labels) as f64;
                    ((base + u * u * vocab as f64) as i64) % vocab as i64
                })
                .collect();
            Payload::pair(Payload::Long(label), Payload::longs(words))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_deterministic_and_in_range() {
        let a = power_law_edges(100, 500, 7);
        let b = power_law_edges(100, 500, 7);
        assert_eq!(a, b);
        for e in &a {
            let (k, v) = e.as_pair().unwrap();
            assert!((0..100).contains(&k.as_long().unwrap()));
            assert!((0..100).contains(&v.as_long().unwrap()));
        }
        assert_ne!(a, power_law_edges(100, 500, 8), "seed matters");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let edges = power_law_edges(1000, 10_000, 1);
        let low_sources = edges
            .iter()
            .filter(|e| e.as_pair().unwrap().0.as_long().unwrap() < 250)
            .count();
        // Quadratic skew: half the mass lands in the lowest quarter.
        assert!(low_sources > 4_000, "got {low_sources}");
    }

    /// The oracle for [`power_law_edges_text`]: format every vertex's URL
    /// and intern it, symbols dense in order of first appearance.
    fn interned_urls(n_vertices: usize, n_edges: usize, url_len: u32, seed: u64) -> Vec<Payload> {
        let mut urls: std::collections::HashMap<String, u64> = Default::default();
        power_law_edges(n_vertices, n_edges, seed)
            .into_iter()
            .map(|e| {
                let (s, d) = e.as_pair().expect("edge pair");
                let mut text = |v: &Payload| {
                    let url = format!(
                        "https://en.wikipedia.org/wiki/v{:07}",
                        v.as_long().expect("vertex")
                    );
                    let next = urls.len() as u64;
                    let sym = *urls.entry(url).or_insert(next);
                    Payload::Text { sym, len: url_len }
                };
                let s = text(s);
                Payload::pair(s, text(d))
            })
            .collect()
    }

    #[test]
    fn text_edges_are_their_interned_urls() {
        // Includes the cluster workloads' PageRank input (scale 2.5).
        for (n_vertices, n_edges, seed) in [
            (2, 0, 1),
            (2, 9, 3),
            (100, 500, 7),
            (1_000, 250, 8),
            (11_250, 60_000, 11),
        ] {
            assert_eq!(
                power_law_edges_text(n_vertices, n_edges, 40, seed),
                interned_urls(n_vertices, n_edges, 40, seed),
                "{n_vertices} vertices, {n_edges} edges, seed {seed}"
            );
        }
    }

    #[test]
    fn symmetric_edges_double() {
        let e = symmetric_edges(50, 100, 3);
        assert_eq!(e.len(), 200);
    }

    #[test]
    fn weighted_edges_carry_weights() {
        let e = weighted_edges(50, 100, 3);
        let (_, v) = e[0].as_pair().unwrap();
        let (_, w) = v.as_pair().unwrap();
        let w = w.as_double().unwrap();
        assert!((1.0..10.0).contains(&w));
    }

    #[test]
    fn points_have_requested_shape() {
        let pts = clustered_points(100, 4, 5, 2);
        assert_eq!(pts.len(), 100);
        assert!(pts
            .iter()
            .all(|p| matches!(p, Payload::Doubles(v) if v.len() == 4)));
    }

    #[test]
    fn labeled_points_are_balanced_ish() {
        let pts = labeled_points(500, 4, 2);
        let pos = pts
            .iter()
            .filter(|p| p.as_pair().unwrap().0.as_long() == Some(1))
            .count();
        assert!(pos > 100 && pos < 400, "roughly balanced: {pos}");
    }

    #[test]
    fn documents_have_words_in_vocab() {
        let docs = labeled_documents(50, 200, 2, 10, 5);
        for d in &docs {
            let (l, ws) = d.as_pair().unwrap();
            assert!((0..2).contains(&l.as_long().unwrap()));
            match ws {
                Payload::Longs(ws) => {
                    assert_eq!(ws.len(), 10);
                    assert!(ws.iter().all(|w| (0..200).contains(w)));
                }
                other => panic!("expected word ids, got {other:?}"),
            }
        }
    }
}
