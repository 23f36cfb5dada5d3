//! A reference interpreter for sparklang programs: what a program's
//! actions must return, stated without the engine.
//!
//! Every RDD is a plain `Vec<Payload>`, with no heap, collector,
//! partitions, stages or sizing. The interpreter shares with `sparklet`
//! only the program IR, the user functions, the input records
//! ([`DataRegistry::records`]), [`Payload`] and its accessors, and the
//! [`ActionResult`] it reports in — none of the engine's shuffle, narrow
//! chain or partitioning code, so a bug there cannot pass both sides.
//!
//! Evaluation is lazy, as in Spark: an RDD is computed when an action
//! needs it, and a persisted RDD is kept from its first computation until
//! it is unpersisted, so an unpersisted RDD re-runs its closures on every
//! action (K-Means' centre update writes shared state). Shuffle output
//! follows the documented order, so results compare exactly, floats
//! included: keys in order of first appearance (the left input's first),
//! records in scan order within a key; `sortByKey` sorts keys ascending;
//! `join` is left-major; `distinct` keeps the first record of each
//! fingerprint.

use mheap::{Key, Payload};
use sparklang::{ActionKind, FnTable, FuncId, Program, RddExpr, Stmt, Transform, UserFn, VarId};
use sparklet::{ActionResult, DataRegistry};
use std::collections::{HashMap, HashSet};

/// A program, its functions and its data, built afresh on every call.
pub type Build<'a> = &'a dyn Fn() -> (Program, FnTable, DataRegistry);

/// `build`'s program with a `collect()` of every variable appended, so a
/// comparison sees every variable's final records and not only the
/// counts the program's own actions return — less each variable whose
/// collect would evaluate an RDD again to other records than before. That
/// collect re-runs a closure that writes shared state (Logistic
/// Regression's weight update) and so asks how often an engine evaluates
/// an RDD, which has no single answer. Returns the program and the number
/// of variables left out.
pub fn with_collects(build: Build) -> (Program, usize) {
    let n_vars = build().0.n_vars();
    let mut vars: Vec<usize> = (0..n_vars).collect();
    loop {
        let (mut program, fns, data) = build();
        program.stmts.extend(vars.iter().map(|&v| Stmt::Action {
            var: VarId(v as u32),
            action: ActionKind::Collect,
        }));
        let oracle = Oracle::run(&program, &fns, &data);
        let appended = oracle.results.len() - vars.len();
        match oracle.diverged {
            Some(at) if at >= appended => vars.remove(at - appended),
            _ => return (program, n_vars - vars.len()),
        };
    }
}

/// `(variable name, result)` per action `program` executes, in program
/// order: what [`panthera::RunSummary::results`] must equal.
///
/// # Panics
///
/// Panics on a program the engine rejects too: an unbound variable, a
/// function of the wrong kind, or a shuffled record without a key.
pub fn run(program: &Program, fns: &FnTable, data: &DataRegistry) -> Vec<(String, ActionResult)> {
    Oracle::run(program, fns, data).results
}

/// The first difference between `got` and the oracle's results `want`,
/// described; `None` if they are equal.
pub fn first_difference(
    got: &[(String, ActionResult)],
    want: &[(String, ActionResult)],
) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!(
            "{} results, the oracle has {}",
            got.len(),
            want.len()
        ));
    }
    let (at, ((var, g), (_, w))) = got
        .iter()
        .zip(want)
        .enumerate()
        .find(|(_, (g, w))| g != w)?;
    let detail = match (g, w) {
        (ActionResult::Collected(g), ActionResult::Collected(w)) => {
            match g.iter().zip(w).position(|(a, b)| a != b) {
                Some(i) => format!("record {i} is {}, the oracle's is {}", g[i], w[i]),
                None => format!("{} records, the oracle has {}", g.len(), w.len()),
            }
        }
        _ => format!("{g:?}, the oracle has {w:?}"),
    };
    Some(format!("action {at} (`{var}`): {detail}"))
}

/// One RDD instance: how to compute it, and its last records (what a
/// read returns while `cached`).
struct Rdd {
    node: Node,
    persisted: bool,
    cached: bool,
    last: Option<Vec<Payload>>,
}

#[derive(Clone)]
enum Node {
    Source(String),
    Apply(Transform, Vec<usize>),
}

struct Oracle<'a> {
    fns: &'a FnTable,
    data: &'a DataRegistry,
    rdds: Vec<Rdd>,
    /// The RDD instance each variable is bound to.
    vars: Vec<Option<usize>>,
    results: Vec<(String, ActionResult)>,
    /// The first action that evaluated an RDD instance again to other
    /// records than its previous evaluation.
    diverged: Option<usize>,
}

impl<'a> Oracle<'a> {
    fn run(program: &Program, fns: &'a FnTable, data: &'a DataRegistry) -> Oracle<'a> {
        let mut oracle = Oracle {
            fns,
            data,
            rdds: Vec::new(),
            vars: vec![None; program.n_vars()],
            results: Vec::new(),
            diverged: None,
        };
        oracle.block(program, &program.stmts);
        oracle
    }

    fn block(&mut self, program: &Program, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Loop { n, body } => (0..*n).for_each(|_| self.block(program, body)),
                Stmt::Bind { var, expr } => self.vars[var.0 as usize] = Some(self.build(expr)),
                Stmt::Persist { var, .. } => self.rdd(*var).persisted = true,
                Stmt::Unpersist { var } => {
                    let rdd = self.rdd(*var);
                    (rdd.persisted, rdd.cached) = (false, false);
                }
                Stmt::Checkpoint { .. } => {}
                Stmt::Action { var, action } => {
                    let records =
                        self.compute(self.vars[var.0 as usize].expect("unbound variable"));
                    let result = match action {
                        ActionKind::Count => ActionResult::Count(records.len() as u64),
                        ActionKind::Collect => ActionResult::Collected(records),
                        ActionKind::Reduce(f) => {
                            let f = self.reducer(*f);
                            ActionResult::Reduced(records.into_iter().reduce(|a, r| f(a, &r)))
                        }
                    };
                    self.results
                        .push((program.var_name(*var).to_string(), result));
                }
            }
        }
    }

    fn rdd(&mut self, var: VarId) -> &mut Rdd {
        &mut self.rdds[self.vars[var.0 as usize].expect("unbound variable")]
    }

    /// A new RDD instance per transformation; a variable stands for the
    /// instance it is bound to when the expression is built.
    fn build(&mut self, expr: &RddExpr) -> usize {
        let node = match expr {
            RddExpr::Var(v) => return self.vars[v.0 as usize].expect("unbound variable"),
            RddExpr::Source(name) => Node::Source(name.clone()),
            RddExpr::Apply { transform, inputs } => Node::Apply(
                transform.clone(),
                inputs.iter().map(|e| self.build(e)).collect(),
            ),
        };
        let (persisted, cached, last) = (false, false, None);
        self.rdds.push(Rdd {
            node,
            persisted,
            cached,
            last,
        });
        self.rdds.len() - 1
    }

    fn compute(&mut self, id: usize) -> Vec<Payload> {
        if let (true, Some(records)) = (self.rdds[id].cached, &self.rdds[id].last) {
            return records.clone();
        }
        let records = match self.rdds[id].node.clone() {
            Node::Source(name) => self.data.records(&name).to_vec(),
            Node::Apply(transform, inputs) => {
                let inputs: Vec<_> = inputs.into_iter().map(|i| self.compute(i)).collect();
                self.apply(&transform, &inputs[0], inputs.get(1).map(|r| &r[..]))
            }
        };
        let rdd = &mut self.rdds[id];
        if rdd.last.as_ref().is_some_and(|last| *last != records) {
            self.diverged.get_or_insert(self.results.len());
        }
        (rdd.cached, rdd.last) = (rdd.persisted, Some(records.clone()));
        records
    }

    fn apply(&self, transform: &Transform, xs: &[Payload], ys: Option<&[Payload]>) -> Vec<Payload> {
        let each = |f: &dyn Fn(&Payload) -> Payload| xs.iter().map(f).collect();
        let keep = |f: &dyn Fn(&Payload) -> bool| xs.iter().filter(|r| f(r)).cloned().collect();
        match transform {
            Transform::Map(f) => each(self.mapper(*f)),
            Transform::MapValues(f) => {
                let f = self.mapper(*f);
                each(&|r| {
                    r.as_pair()
                        .map_or_else(|| f(r), |(k, v)| Payload::pair(k.clone(), f(v)))
                })
            }
            Transform::FlatMap(f) => match self.fns.get(*f) {
                UserFn::FlatMap(f) => xs.iter().flat_map(f).collect(),
                _ => each(self.mapper(*f)),
            },
            Transform::Filter(f) => match self.fns.get(*f) {
                UserFn::Filter(f) => keep(f),
                other => panic!("filter needs a predicate, got {other:?}"),
            },
            Transform::Values => each(&|r| value(r).clone()),
            Transform::Keys => each(&|r| key(r).clone()),
            Transform::Union => [xs, ys.expect("union of two inputs")].concat(),
            // Bernoulli: the record's fingerprint mixed with the seed.
            Transform::Sample { fraction, seed } => keep(&|r| {
                let h = r.fingerprint() ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                ((h >> 11) as f64 / (1u64 << 53) as f64) < *fraction
            }),
            Transform::ReduceByKey(f) => {
                let f = self.reducer(*f);
                let fold = |rs: &[&Payload]| {
                    let acc = rs[1..]
                        .iter()
                        .fold(value(rs[0]).clone(), |a, r| f(a, value(r)));
                    Payload::pair(key(rs[0]).clone(), acc)
                };
                groups(xs).iter().map(|(_, rs)| fold(rs)).collect()
            }
            Transform::GroupByKey => (groups(xs).iter())
                .map(|(_, rs)| {
                    let values = rs.iter().map(|r| value(r).clone()).collect();
                    Payload::pair(key(rs[0]).clone(), Payload::list(values))
                })
                .collect(),
            Transform::Distinct => {
                let mut seen = HashSet::new();
                let grouped = groups(xs).into_iter().flat_map(|(_, rs)| rs);
                grouped
                    .filter(|r| seen.insert(r.fingerprint()))
                    .cloned()
                    .collect()
            }
            Transform::Join => {
                let right: HashMap<_, _> = groups(ys.expect("join of two inputs"))
                    .into_iter()
                    .collect();
                let mut out = Vec::new();
                for (k, ls) in groups(xs) {
                    for (l, r) in ls
                        .iter()
                        .flat_map(|l| right.get(&k).into_iter().flatten().map(move |r| (l, r)))
                    {
                        let joined = Payload::pair(value(l).clone(), value(r).clone());
                        out.push(Payload::pair(key(l).clone(), joined));
                    }
                }
                out
            }
            Transform::SortByKey => {
                let mut sorted = groups(xs);
                sorted.sort_by_key(|(k, _)| *k);
                sorted.into_iter().flat_map(|(_, rs)| rs).cloned().collect()
            }
        }
    }

    fn mapper(&self, f: FuncId) -> &dyn Fn(&Payload) -> Payload {
        match self.fns.get(f) {
            UserFn::Map(f) => f,
            other => panic!("map needs a map function, got {other:?}"),
        }
    }

    fn reducer(&self, f: FuncId) -> &dyn Fn(Payload, &Payload) -> Payload {
        match self.fns.get(f) {
            UserFn::Reduce(f) => f,
            other => panic!("reduce needs a combiner, got {other:?}"),
        }
    }
}

/// A pair record's key, or the record itself.
fn key(r: &Payload) -> &Payload {
    r.as_pair().map_or(r, |(k, _)| k)
}

/// A pair record's value, or the record itself.
fn value(r: &Payload) -> &Payload {
    r.as_pair().map_or(r, |(_, v)| v)
}

/// Records grouped by shuffle key: keys in order of first appearance,
/// each key's records in scan order.
fn groups(xs: &[Payload]) -> Vec<(Key, Vec<&Payload>)> {
    let mut at: HashMap<Key, usize> = HashMap::new();
    let mut out: Vec<(Key, Vec<&Payload>)> = Vec::new();
    for r in xs {
        let k = r
            .try_shuffle_key()
            .unwrap_or_else(|| panic!("{r:?} has no shuffle key"));
        let i = *at.entry(k).or_insert_with(|| {
            out.push((k, Vec::new()));
            out.len() - 1
        });
        out[i].1.push(r);
    }
    out
}
