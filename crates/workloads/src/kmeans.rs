//! Spark K-Means: the cached point set is read every iteration (DRAM);
//! per-iteration aggregates are small temporaries.
//!
//! The driver-side centre update (which real Spark does after a
//! `collect()`) is modelled as a closure side effect on shared state —
//! the per-record memory behaviour is identical.

use crate::data::clustered_points;
use crate::BuiltWorkload;
use mheap::Payload;
use sparklang::{ActionKind, ProgramBuilder, StorageLevel};
use sparklet::DataRegistry;
use std::cell::RefCell;
use std::rc::Rc;

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Build K-Means over synthetic clustered points.
pub fn kmeans(n_points: usize, dims: usize, k: usize, iters: u32, seed: u64) -> BuiltWorkload {
    let mut b = ProgramBuilder::new("kmeans");

    // Shared mutable centres, initialized from the first k data points.
    let points = clustered_points(n_points, dims, k, seed);
    let init: Vec<Vec<f64>> = points[..k]
        .iter()
        .map(|p| match p {
            Payload::Doubles(v) => v.as_ref().clone(),
            other => panic!("expected point, got {other:?}"),
        })
        .collect();
    let centres = Rc::new(RefCell::new(init));

    let assign = {
        let centres = Rc::clone(&centres);
        b.map_fn(move |p| {
            let Payload::Doubles(x) = p else {
                panic!("expected point, got {p:?}")
            };
            let cs = centres.borrow();
            let (best, _) = cs
                .iter()
                .enumerate()
                .map(|(i, c)| (i, squared_distance(x, c)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("k > 0");
            // (cluster, (sum_vector, count)); the sum vector shares the
            // cached point's storage until the key's first merge copies it.
            Payload::keyed(
                best as i64,
                Payload::pair(Payload::Doubles(x.clone()), Payload::Long(1)),
            )
        })
    };
    // Sums in place: only a key's first merge copies (the accumulator's
    // pair box and vector), every later one allocates nothing.
    let merge = b.reduce_fn(|mut acc, c| {
        let (vc, nc) = c.as_pair().expect("(sum, count)");
        let Payload::Doubles(vc) = vc else {
            panic!("expected vector sums");
        };
        let (sum, n) = acc.pair_mut().expect("(sum, count)");
        let sum = sum.doubles_mut().expect("vector sum");
        for (x, y) in sum.iter_mut().zip(vc.iter()) {
            *x += y;
        }
        *n = Payload::Long(n.as_long().expect("count") + nc.as_long().expect("count"));
        acc
    });
    let update = {
        let centres = Rc::clone(&centres);
        b.map_fn(move |r| {
            let (cluster, sum_count) = r.as_pair().expect("(cluster, (sum, count))");
            let (sum, count) = sum_count.as_pair().expect("(sum, count)");
            let Payload::Doubles(sum) = sum else {
                panic!("expected sum vector")
            };
            let n = count.as_long().expect("count").max(1) as f64;
            let centre: Vec<f64> = sum.iter().map(|x| x / n).collect();
            let idx = cluster.as_long().expect("cluster") as usize;
            centres.borrow_mut()[idx] = centre.clone();
            Payload::keyed(idx as i64, Payload::doubles(centre))
        })
    };

    let src = b.source("wikipedia-points");
    let pts = b.bind("points", src);
    b.persist(pts, StorageLevel::MemoryOnly);
    b.loop_n(iters, |b| {
        let sums = b.var(pts).map(assign).reduce_by_key(merge);
        let newc = b.bind("centres", sums.map(update));
        b.action(newc, ActionKind::Count);
    });

    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register("wikipedia-points", points);
    BuiltWorkload { program, fns, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panthera_analysis::infer_tags;
    use sparklang::ast::MemoryTag;
    use sparklang::VarId;

    #[test]
    fn cached_points_are_dram() {
        let w = kmeans(100, 4, 3, 2, 1);
        let tags = infer_tags(&w.program);
        assert_eq!(
            tags.tag(VarId(0)),
            Some(MemoryTag::Dram),
            "points used-only"
        );
        assert_eq!(
            tags.tag(VarId(1)),
            Some(MemoryTag::Nvm),
            "centres defined in loop"
        );
    }
}
