//! Fluent construction of driver programs, mirroring how the paper's Spark
//! programs read (Figure 2a).
//!
//! ```
//! use sparklang::{ProgramBuilder, StorageLevel, ActionKind};
//! use mheap::Payload;
//!
//! let mut b = ProgramBuilder::new("pagerank-sketch");
//! let parse = b.map_fn(|r| r.clone());
//! let lines = b.source("wiki");
//! let links = b.bind("links", lines.map(parse).distinct().group_by_key());
//! b.persist(links, StorageLevel::MemoryOnly);
//! b.action(links, ActionKind::Count);
//! let (program, fns) = b.finish();
//! assert_eq!(program.n_vars(), 1);
//! assert_eq!(fns.len(), 1);
//! ```

use crate::ast::{ActionKind, FuncId, Program, RddExpr, Stmt, StorageLevel, Transform, VarId};
use mheap::Payload;

/// A boxed one-to-one record function.
pub type MapFn = Box<dyn Fn(&Payload) -> Payload>;
/// A boxed one-to-many record function.
pub type FlatMapFn = Box<dyn Fn(&Payload) -> Vec<Payload>>;
/// A boxed record predicate.
pub type FilterFn = Box<dyn Fn(&Payload) -> bool>;
/// A boxed binary combiner: `f(acc, next)` folds `next` into the owned
/// accumulator `acc` and returns it (see [`ProgramBuilder::reduce_fn`]).
pub type ReduceFn = Box<dyn Fn(Payload, &Payload) -> Payload>;

/// A user closure invoked per record by the execution engine.
pub enum UserFn {
    /// One-to-one record function.
    Map(MapFn),
    /// One-to-many record function.
    FlatMap(FlatMapFn),
    /// Record predicate.
    Filter(FilterFn),
    /// Binary combiner for reductions.
    Reduce(ReduceFn),
}

impl std::fmt::Debug for UserFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            UserFn::Map(_) => "map",
            UserFn::FlatMap(_) => "flatMap",
            UserFn::Filter(_) => "filter",
            UserFn::Reduce(_) => "reduce",
        };
        write!(f, "UserFn::{kind}")
    }
}

/// The table of user functions a program references.
#[derive(Debug, Default)]
pub struct FnTable {
    fns: Vec<UserFn>,
}

impl FnTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a function, returning its id.
    pub fn add(&mut self, f: UserFn) -> FuncId {
        self.fns.push(f);
        FuncId((self.fns.len() - 1) as u32)
    }

    /// Look up a function.
    ///
    /// # Panics
    ///
    /// Panics if the id is unknown.
    pub fn get(&self, id: FuncId) -> &UserFn {
        &self.fns[id.0 as usize]
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// True if no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }
}

/// An RDD-valued expression under construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr(pub(crate) RddExpr);

impl Expr {
    fn apply1(self, transform: Transform) -> Expr {
        Expr(RddExpr::Apply {
            transform,
            inputs: vec![self.0],
        })
    }

    fn apply2(self, transform: Transform, other: Expr) -> Expr {
        Expr(RddExpr::Apply {
            transform,
            inputs: vec![self.0, other.0],
        })
    }

    /// `rdd.map(f)`
    pub fn map(self, f: FuncId) -> Expr {
        self.apply1(Transform::Map(f))
    }

    /// `rdd.mapValues(f)`
    pub fn map_values(self, f: FuncId) -> Expr {
        self.apply1(Transform::MapValues(f))
    }

    /// `rdd.flatMap(f)`
    pub fn flat_map(self, f: FuncId) -> Expr {
        self.apply1(Transform::FlatMap(f))
    }

    /// `rdd.filter(f)`
    pub fn filter(self, f: FuncId) -> Expr {
        self.apply1(Transform::Filter(f))
    }

    /// `rdd.distinct()`
    pub fn distinct(self) -> Expr {
        self.apply1(Transform::Distinct)
    }

    /// `rdd.groupByKey()`
    pub fn group_by_key(self) -> Expr {
        self.apply1(Transform::GroupByKey)
    }

    /// `rdd.reduceByKey(f)`
    pub fn reduce_by_key(self, f: FuncId) -> Expr {
        self.apply1(Transform::ReduceByKey(f))
    }

    /// `rdd.join(other)`
    pub fn join(self, other: Expr) -> Expr {
        self.apply2(Transform::Join, other)
    }

    /// `rdd.values`
    pub fn values(self) -> Expr {
        self.apply1(Transform::Values)
    }

    /// `rdd.keys`
    pub fn keys(self) -> Expr {
        self.apply1(Transform::Keys)
    }

    /// `rdd.union(other)`
    pub fn union(self, other: Expr) -> Expr {
        self.apply2(Transform::Union, other)
    }

    /// `rdd.sortByKey()`
    pub fn sort_by_key(self) -> Expr {
        self.apply1(Transform::SortByKey)
    }

    /// `rdd.sample(false, fraction, seed)` — Bernoulli sampling.
    pub fn sample(self, fraction: f64, seed: u64) -> Expr {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        self.apply1(Transform::Sample { fraction, seed })
    }

    /// The underlying IR expression.
    pub fn into_inner(self) -> RddExpr {
        self.0
    }
}

/// Builds a [`Program`] and its [`FnTable`] together.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    var_names: Vec<String>,
    fns: FnTable,
    /// Statement stack: the last element is the innermost open block.
    blocks: Vec<Vec<Stmt>>,
    loop_counts: Vec<u32>,
}

impl ProgramBuilder {
    /// Start a program named `name`.
    pub fn new(name: &str) -> Self {
        ProgramBuilder {
            name: name.to_string(),
            var_names: Vec::new(),
            fns: FnTable::new(),
            blocks: vec![Vec::new()],
            loop_counts: Vec::new(),
        }
    }

    /// Register a one-to-one record function.
    pub fn map_fn(&mut self, f: impl Fn(&Payload) -> Payload + 'static) -> FuncId {
        self.fns.add(UserFn::Map(Box::new(f)))
    }

    /// Register a one-to-many record function.
    pub fn flat_map_fn(&mut self, f: impl Fn(&Payload) -> Vec<Payload> + 'static) -> FuncId {
        self.fns.add(UserFn::FlatMap(Box::new(f)))
    }

    /// Register a record predicate.
    pub fn filter_fn(&mut self, f: impl Fn(&Payload) -> bool + 'static) -> FuncId {
        self.fns.add(UserFn::Filter(Box::new(f)))
    }

    /// Register a binary combiner `f(acc, next)`, applied left to right
    /// over a key's values (or an RDD's records).
    ///
    /// The accumulator `acc` is owned: return it updated in place rather
    /// than building a new value. Its composite storage may still be
    /// shared with a cached record, so mutate it only through the
    /// copy-on-write [`Payload::pair_mut`] and [`Payload::doubles_mut`] —
    /// the first update of a fold copies, the rest allocate nothing. The
    /// right operand `next` is borrowed from a record the engine keeps
    /// and must not be retained.
    ///
    /// ```
    /// use mheap::Payload;
    /// use sparklang::ProgramBuilder;
    ///
    /// let mut b = ProgramBuilder::new("sum-vectors");
    /// b.reduce_fn(|mut acc, next| {
    ///     let (Some(acc_v), Payload::Doubles(v)) = (acc.doubles_mut(), next) else {
    ///         panic!("expected vectors");
    ///     };
    ///     for (x, y) in acc_v.iter_mut().zip(v.iter()) {
    ///         *x += y;
    ///     }
    ///     acc
    /// });
    /// ```
    pub fn reduce_fn(&mut self, f: impl Fn(Payload, &Payload) -> Payload + 'static) -> FuncId {
        self.fns.add(UserFn::Reduce(Box::new(f)))
    }

    /// An input source expression (resolved by name at run time).
    pub fn source(&mut self, name: &str) -> Expr {
        Expr(RddExpr::Source(name.to_string()))
    }

    /// Declare a fresh variable and bind it: `let var = expr`.
    pub fn bind(&mut self, name: &str, expr: Expr) -> VarId {
        let var = VarId(self.var_names.len() as u32);
        self.var_names.push(name.to_string());
        self.stmt(Stmt::Bind { var, expr: expr.0 });
        var
    }

    /// Re-assign an existing variable: `var = expr`.
    pub fn rebind(&mut self, var: VarId, expr: Expr) {
        assert!((var.0 as usize) < self.var_names.len(), "unknown variable");
        self.stmt(Stmt::Bind { var, expr: expr.0 });
    }

    /// Reference a variable in an expression.
    pub fn var(&self, var: VarId) -> Expr {
        assert!((var.0 as usize) < self.var_names.len(), "unknown variable");
        Expr(RddExpr::Var(var))
    }

    /// `var.persist(level)`
    pub fn persist(&mut self, var: VarId, level: StorageLevel) {
        self.stmt(Stmt::Persist { var, level });
    }

    /// `var.unpersist()`
    pub fn unpersist(&mut self, var: VarId) {
        self.stmt(Stmt::Unpersist { var });
    }

    /// `var.checkpoint()` — snapshot the variable's RDD to durable NVM
    /// storage at its next materialization (cluster recovery restores it
    /// from there instead of recomputing its lineage).
    pub fn checkpoint(&mut self, var: VarId) {
        self.stmt(Stmt::Checkpoint { var });
    }

    /// `var.count()` / `var.collect()` / `var.reduce(f)`
    pub fn action(&mut self, var: VarId, action: ActionKind) {
        self.stmt(Stmt::Action { var, action });
    }

    /// `for i in 1..=n { ... }` — the closure builds the loop body.
    pub fn loop_n(&mut self, n: u32, body: impl FnOnce(&mut ProgramBuilder)) {
        self.blocks.push(Vec::new());
        self.loop_counts.push(n);
        body(self);
        let stmts = self.blocks.pop().expect("unbalanced loop block");
        let n = self.loop_counts.pop().expect("unbalanced loop count");
        self.stmt(Stmt::Loop { n, body: stmts });
    }

    fn stmt(&mut self, s: Stmt) {
        self.blocks.last_mut().expect("no open block").push(s);
    }

    /// Finish, producing the program and its function table.
    ///
    /// # Panics
    ///
    /// Panics if a loop block is still open.
    pub fn finish(mut self) -> (Program, FnTable) {
        assert_eq!(self.blocks.len(), 1, "unclosed loop block");
        let stmts = self.blocks.pop().unwrap();
        (
            Program {
                name: self.name,
                stmts,
                var_names: self.var_names,
                n_funcs: self.fns.len() as u32,
            },
            self.fns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_loops() {
        let mut b = ProgramBuilder::new("t");
        let src = b.source("data");
        let x = b.bind("x", src);
        b.loop_n(3, |b| {
            let e = b.var(x).distinct();
            b.rebind(x, e);
            b.loop_n(2, |b| {
                b.action(x, ActionKind::Count);
            });
        });
        let (p, _) = b.finish();
        assert_eq!(p.stmts.len(), 2);
        match &p.stmts[1] {
            Stmt::Loop { n, body } => {
                assert_eq!(*n, 3);
                assert_eq!(body.len(), 2);
                assert!(matches!(body[1], Stmt::Loop { n: 2, .. }));
            }
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn fn_table_dispatch() {
        let mut b = ProgramBuilder::new("t");
        let double = b.map_fn(|p| Payload::Long(p.as_long().unwrap() * 2));
        let (_, fns) = b.finish();
        match fns.get(double) {
            UserFn::Map(f) => assert_eq!(f(&Payload::Long(4)).as_long(), Some(8)),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn rebind_requires_declared_var() {
        let mut b = ProgramBuilder::new("t");
        let e = b.source("s");
        b.rebind(VarId(9), e);
    }

    #[test]
    fn expression_chaining_builds_apply_trees() {
        let mut b = ProgramBuilder::new("t");
        let f = b.map_fn(|p| p.clone());
        let g = b.reduce_fn(|a, _| a);
        let src = b.source("s");
        let e = src.map(f).reduce_by_key(g);
        match e.into_inner() {
            RddExpr::Apply {
                transform: Transform::ReduceByKey(got),
                inputs,
            } => {
                assert_eq!(got, g);
                assert!(matches!(
                    inputs[0],
                    RddExpr::Apply {
                        transform: Transform::Map(_),
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
