//! Spark Logistic Regression (gradient descent): the cached training set
//! is read every iteration (DRAM); per-iteration gradients are shuffled
//! to a single key and folded.

use crate::data::labeled_points;
use crate::BuiltWorkload;
use mheap::Payload;
use sparklang::{ActionKind, ProgramBuilder, StorageLevel};
use sparklet::DataRegistry;
use std::cell::RefCell;
use std::rc::Rc;

/// Build logistic regression over synthetic labeled points.
pub fn logistic_regression(n_points: usize, dims: usize, iters: u32, seed: u64) -> BuiltWorkload {
    let mut b = ProgramBuilder::new("logistic-regression");
    let weights = Rc::new(RefCell::new(vec![0.0f64; dims]));
    const LEARNING_RATE: f64 = 0.1;

    let gradient = {
        let weights = Rc::clone(&weights);
        b.map_fn(move |r| {
            let (y, x) = r.as_pair().expect("(label, features)");
            let y = y.as_long().expect("label") as f64;
            let Payload::Doubles(x) = x else {
                panic!("expected features")
            };
            let w = weights.borrow();
            let margin: f64 = w.iter().zip(x.iter()).map(|(wi, xi)| wi * xi).sum();
            let scale = (1.0 / (1.0 + (-y * margin).exp()) - 1.0) * y;
            let g: Vec<f64> = x.iter().map(|xi| xi * scale).collect();
            Payload::keyed(0, Payload::doubles(g))
        })
    };
    // Sums in place: only the first merge copies the accumulator.
    let add_vec = b.reduce_fn(|mut acc, c| {
        let (Some(sum), Payload::Doubles(c)) = (acc.doubles_mut(), c) else {
            panic!("expected gradient vectors");
        };
        for (x, y) in sum.iter_mut().zip(c.iter()) {
            *x += y;
        }
        acc
    });
    let apply = {
        let weights = Rc::clone(&weights);
        b.map_fn(move |r| {
            let (_, g) = r.as_pair().expect("(0, gradient)");
            let Payload::Doubles(g) = g else {
                panic!("expected gradient")
            };
            let mut w = weights.borrow_mut();
            for (wi, gi) in w.iter_mut().zip(g.iter()) {
                *wi -= LEARNING_RATE * gi;
            }
            Payload::doubles(w.clone())
        })
    };

    let src = b.source("wikipedia-features");
    let pts = b.bind("points", src);
    b.persist(pts, StorageLevel::MemoryOnly);
    b.loop_n(iters, |b| {
        let step = b.var(pts).map(gradient).reduce_by_key(add_vec).map(apply);
        let w_rdd = b.bind("weights", step);
        b.action(w_rdd, ActionKind::Count);
    });

    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register_with("wikipedia-features", move || {
        labeled_points(n_points, dims, seed)
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
    fn training_set_is_dram() {
        let w = logistic_regression(100, 4, 2, 1);
        let tags = infer_tags(&w.program);
        assert_eq!(tags.tag(VarId(0)), Some(MemoryTag::Dram));
    }
}
