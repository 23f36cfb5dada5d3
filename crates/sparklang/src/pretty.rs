//! Pretty-printing of driver programs.
//!
//! The output is the crate's concrete syntax: it round-trips through
//! [`parse`](crate::parse), so programs can be stored as text (closures
//! are referenced by function id, e.g. `map(f0)`, and bound to a
//! [`FnTable`](crate::FnTable) at run time).

use crate::ast::{Program, RddExpr, Stmt, Transform};
use std::fmt;

/// Wrapper giving a [`Program`] a readable, parseable `Display`.
#[derive(Debug, Clone, Copy)]
pub struct Pretty<'a>(pub &'a Program);

impl fmt::Display for Pretty<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} {{", self.0.name)?;
        print_block(f, self.0, &self.0.stmts, 1)?;
        write!(f, "}}")
    }
}

fn indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        write!(f, "  ")?;
    }
    Ok(())
}

fn print_block(
    f: &mut fmt::Formatter<'_>,
    p: &Program,
    stmts: &[Stmt],
    depth: usize,
) -> fmt::Result {
    for s in stmts {
        indent(f, depth)?;
        match s {
            Stmt::Bind { var, expr } => {
                writeln!(f, "{} = {}", p.var_name(*var), ExprFmt(p, expr))?;
            }
            Stmt::Persist { var, level } => {
                writeln!(f, "{}.persist({level})", p.var_name(*var))?;
            }
            Stmt::Unpersist { var } => writeln!(f, "{}.unpersist()", p.var_name(*var))?,
            Stmt::Checkpoint { var } => writeln!(f, "{}.checkpoint()", p.var_name(*var))?,
            Stmt::Action { var, action } => match action {
                crate::ast::ActionKind::Reduce(func) => {
                    writeln!(f, "{}.reduce(f{})", p.var_name(*var), func.0)?;
                }
                other => writeln!(f, "{}.{}()", p.var_name(*var), other.name())?,
            },
            Stmt::Loop { n, body } => {
                writeln!(f, "for i in 1..={n} {{")?;
                print_block(f, p, body, depth + 1)?;
                indent(f, depth)?;
                writeln!(f, "}}")?;
            }
        }
    }
    Ok(())
}

struct ExprFmt<'a>(&'a Program, &'a RddExpr);

impl fmt::Display for ExprFmt<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            RddExpr::Var(v) => write!(f, "{}", self.0.var_name(*v)),
            RddExpr::Source(name) => write!(f, "source({name:?})"),
            RddExpr::Apply { transform, inputs } => {
                write!(f, "{}", ExprFmt(self.0, &inputs[0]))?;
                write!(f, ".{}(", transform.name())?;
                let mut first = true;
                // The transformation's own arguments come first...
                match transform {
                    Transform::Map(func)
                    | Transform::MapValues(func)
                    | Transform::FlatMap(func)
                    | Transform::Filter(func)
                    | Transform::ReduceByKey(func) => {
                        write!(f, "f{}", func.0)?;
                        first = false;
                    }
                    Transform::Sample { fraction, seed } => {
                        write!(f, "{fraction}, {seed}")?;
                        first = false;
                    }
                    _ => {}
                }
                // ...then any further input RDDs (join/union).
                for input in inputs.iter().skip(1) {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", ExprFmt(self.0, input))?;
                    first = false;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::{ActionKind, Pretty, StorageLevel};

    #[test]
    fn renders_programs() {
        let mut b = ProgramBuilder::new("demo");
        let f = b.map_fn(|p| p.clone());
        let src = b.source("input");
        let x = b.bind("x", src.map(f));
        b.persist(x, StorageLevel::MemoryOnly);
        b.loop_n(2, |b| {
            let e = b.var(x).distinct();
            b.rebind(x, e);
        });
        b.action(x, ActionKind::Count);
        let (p, _) = b.finish();
        let text = Pretty(&p).to_string();
        assert!(text.contains("x = source(\"input\").map(f0)"));
        assert!(text.contains("x.persist(MEMORY_ONLY)"));
        assert!(text.contains("for i in 1..=2 {"));
        assert!(text.contains("x = x.distinct()"));
        assert!(text.contains("x.count()"));
    }

    #[test]
    fn renders_new_transforms() {
        let mut b = ProgramBuilder::new("demo");
        let src = b.source("a");
        let x = b.bind("x", src.sort_by_key().sample(0.5, 7));
        b.action(x, ActionKind::Count);
        let (p, _) = b.finish();
        let text = Pretty(&p).to_string();
        assert!(text.contains("sortByKey()"));
        assert!(text.contains("sample(0.5, 7)"));
    }

    #[test]
    fn renders_binary_transforms() {
        let mut b = ProgramBuilder::new("demo");
        let s1 = b.source("a");
        let s2 = b.source("b");
        let a = b.bind("a", s1);
        let bb = b.bind("b", s2);
        let joined = b.var(a).join(b.var(bb));
        b.bind("j", joined);
        let (p, _) = b.finish();
        assert!(Pretty(&p).to_string().contains("j = a.join(b)"));
    }

    #[test]
    fn renders_reduce_actions_with_func() {
        let mut b = ProgramBuilder::new("demo");
        let f = b.reduce_fn(|a, _| a);
        let src = b.source("a");
        let x = b.bind("x", src);
        b.action(x, ActionKind::Reduce(f));
        let (p, _) = b.finish();
        assert!(Pretty(&p).to_string().contains("x.reduce(f0)"));
    }
}
