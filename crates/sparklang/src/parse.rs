//! A parser for the concrete syntax the pretty-printer emits, so programs
//! can live in text files and round-trip:
//!
//! ```text
//! program pagerank {
//!   links = source("wiki").distinct().groupByKey()
//!   links.persist(MEMORY_ONLY)
//!   ranks = links.mapValues(f1)
//!   for i in 1..=10 {
//!     contribs = links.join(ranks).values().flatMap(f2)
//!     contribs.persist(MEMORY_AND_DISK_SER)
//!     ranks = contribs.reduceByKey(f3).mapValues(f4)
//!   }
//!   ranks.count()
//! }
//! ```
//!
//! Closures are referenced by id (`f0`, `f1`, ...) and bound to a
//! [`FnTable`](crate::FnTable) at run time.

use crate::ast::{ActionKind, FuncId, Program, RddExpr, Stmt, StorageLevel, Transform, VarId};
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with a 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    /// A numeric literal: its value, and its text as written.
    Number(f64, String),
    Dot,
    Comma,
    Eq,
    LParen,
    RParen,
    LBrace,
    RBrace,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    fn rest(&self) -> &str {
        &self.src[self.pos..]
    }

    fn bump(&mut self, n: usize) {
        for c in self.src[self.pos..self.pos + n].chars() {
            if c == '\n' {
                self.line += 1;
            }
        }
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        loop {
            let rest = self.rest();
            let trimmed = rest.trim_start_matches([' ', '\t', '\r', '\n']);
            let skipped = rest.len() - trimmed.len();
            if skipped > 0 {
                self.bump(skipped);
            }
            // Line comments.
            if self.rest().starts_with("//") {
                let end = self.rest().find('\n').unwrap_or(self.rest().len());
                self.bump(end);
                continue;
            }
            if skipped == 0 {
                break;
            }
        }
    }

    fn next(&mut self) -> Result<Option<(Tok, usize)>, ParseError> {
        self.skip_ws();
        let line = self.line;
        let rest = self.rest();
        let Some(c) = rest.chars().next() else {
            return Ok(None);
        };
        let tok = match c {
            '.' => {
                // "1..=10" range dots are consumed by number parsing; a
                // bare "..=" appears after a number token.
                if rest.starts_with("..=") {
                    self.bump(3);
                    return self.next();
                }
                self.bump(1);
                Tok::Dot
            }
            ',' => {
                self.bump(1);
                Tok::Comma
            }
            '=' => {
                self.bump(1);
                Tok::Eq
            }
            '(' => {
                self.bump(1);
                Tok::LParen
            }
            ')' => {
                self.bump(1);
                Tok::RParen
            }
            '{' => {
                self.bump(1);
                Tok::LBrace
            }
            '}' => {
                self.bump(1);
                Tok::RBrace
            }
            '"' => {
                let body = &rest[1..];
                let end = body
                    .find('"')
                    .ok_or_else(|| self.err("unterminated string literal"))?;
                let s = body[..end].to_string();
                self.bump(end + 2);
                Tok::Str(s)
            }
            c if c.is_ascii_digit() => {
                // A number: integer or float. Stop before "..=" ranges.
                let mut len = 0;
                let bytes = rest.as_bytes();
                while len < bytes.len() && bytes[len].is_ascii_digit() {
                    len += 1;
                }
                if len < bytes.len() && bytes[len] == b'.' && !rest[len..].starts_with("..") {
                    len += 1;
                    while len < bytes.len() && bytes[len].is_ascii_digit() {
                        len += 1;
                    }
                }
                let text = rest[..len].to_string();
                let n: f64 = text
                    .parse()
                    .map_err(|_| self.err(format!("bad number {text:?}")))?;
                self.bump(len);
                Tok::Number(n, text)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                // Hyphens are allowed inside identifiers ("graphx-cc");
                // the language has no arithmetic to clash with.
                let len = rest
                    .find(|ch: char| !(ch.is_ascii_alphanumeric() || ch == '_' || ch == '-'))
                    .unwrap_or(rest.len());
                let s = rest[..len].to_string();
                self.bump(len);
                Tok::Ident(s)
            }
            other => return Err(self.err(format!("unexpected character {other:?}"))),
        };
        Ok(Some((tok, line)))
    }
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    vars: HashMap<String, VarId>,
    var_names: Vec<String>,
    max_func: u32,
}

impl Parser {
    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(1)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .map(|(t, _)| t.clone())
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(self.err(format!("expected {want:?}, got {got:?}")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, got {other:?}"))),
        }
    }

    fn func_id(&mut self) -> Result<FuncId, ParseError> {
        let name = self.ident()?;
        let id = name
            .strip_prefix('f')
            .and_then(|n| n.parse::<u32>().ok())
            .ok_or_else(|| self.err(format!("expected a function id like f0, got {name:?}")))?;
        self.max_func = self.max_func.max(id + 1);
        Ok(FuncId(id))
    }

    fn var_lookup(&self, name: &str) -> Result<VarId, ParseError> {
        self.vars
            .get(name)
            .copied()
            .ok_or_else(|| self.err(format!("unknown variable {name:?}")))
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let kw = self.ident()?;
        if kw != "program" {
            return Err(self.err("expected `program <name> { ... }`"));
        }
        let name = self.ident()?;
        self.expect(Tok::LBrace)?;
        let stmts = self.block()?;
        if self.pos != self.toks.len() {
            return Err(self.err("trailing input after program body"));
        }
        Ok(Program {
            name,
            stmts,
            var_names: self.var_names.clone(),
            n_funcs: self.max_func,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::RBrace) => {
                    self.pos += 1;
                    return Ok(stmts);
                }
                Some(Tok::Ident(kw)) if kw == "for" => {
                    self.pos += 1;
                    stmts.push(self.loop_stmt()?);
                }
                Some(Tok::Ident(_)) => stmts.push(self.simple_stmt()?),
                other => return Err(self.err(format!("expected a statement, got {other:?}"))),
            }
        }
    }

    /// `for i in 1..=N { ... }` — the `..=` was consumed by the lexer.
    fn loop_stmt(&mut self) -> Result<Stmt, ParseError> {
        let _i = self.ident()?;
        let kw = self.ident()?;
        if kw != "in" {
            return Err(self.err("expected `in` in loop header"));
        }
        let Tok::Number(start, _) = self.next()? else {
            return Err(self.err("expected loop start bound"));
        };
        if start != 1.0 {
            return Err(self.err("loops must start at 1"));
        }
        let line = self.line();
        let Tok::Number(n, _) = self.next()? else {
            return Err(self.err("expected loop end bound"));
        };
        // A trip count is a whole `u32`: `2.5` would truncate and
        // `5000000000` saturate, each silently running another loop.
        if n.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&n) {
            let message = format!(
                "loop end bound {n} is not a whole number in 0..={}",
                u32::MAX
            );
            return Err(ParseError { line, message });
        }
        self.expect(Tok::LBrace)?;
        let body = self.block()?;
        Ok(Stmt::Loop { n: n as u32, body })
    }

    /// `x = expr` or `x.method(...)`.
    fn simple_stmt(&mut self) -> Result<Stmt, ParseError> {
        let name = self.ident()?;
        match self.next()? {
            Tok::Eq => {
                let expr = self.expr()?;
                let var = *self.vars.entry(name.clone()).or_insert_with(|| {
                    self.var_names.push(name.clone());
                    VarId(self.var_names.len() as u32 - 1)
                });
                Ok(Stmt::Bind { var, expr })
            }
            Tok::Dot => {
                let var = self.var_lookup(&name)?;
                let method = self.ident()?;
                self.expect(Tok::LParen)?;
                let stmt = match method.as_str() {
                    "persist" => {
                        let level = self.storage_level()?;
                        Stmt::Persist { var, level }
                    }
                    "unpersist" => Stmt::Unpersist { var },
                    "checkpoint" => Stmt::Checkpoint { var },
                    "count" => Stmt::Action {
                        var,
                        action: ActionKind::Count,
                    },
                    "collect" => Stmt::Action {
                        var,
                        action: ActionKind::Collect,
                    },
                    "reduce" => {
                        let f = self.func_id()?;
                        Stmt::Action {
                            var,
                            action: ActionKind::Reduce(f),
                        }
                    }
                    other => {
                        return Err(self.err(format!(
                            "unknown statement method {other:?} (transformations \
                             belong on the right of `=`)"
                        )))
                    }
                };
                self.expect(Tok::RParen)?;
                Ok(stmt)
            }
            other => Err(self.err(format!("expected `=` or `.`, got {other:?}"))),
        }
    }

    fn storage_level(&mut self) -> Result<StorageLevel, ParseError> {
        let name = self.ident()?;
        StorageLevel::ALL
            .into_iter()
            .find(|l| l.to_string() == name)
            .ok_or_else(|| self.err(format!("unknown storage level {name:?}")))
    }

    /// `primary (.method(args))*`
    fn expr(&mut self) -> Result<RddExpr, ParseError> {
        let mut e = self.primary()?;
        while matches!(self.peek(), Some(Tok::Dot)) {
            self.pos += 1;
            let method = self.ident()?;
            self.expect(Tok::LParen)?;
            e = self.apply(method, e)?;
            self.expect(Tok::RParen)?;
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<RddExpr, ParseError> {
        match self.next()? {
            Tok::Ident(name) if name == "source" => {
                self.expect(Tok::LParen)?;
                let Tok::Str(s) = self.next()? else {
                    return Err(self.err("source() takes a string literal"));
                };
                self.expect(Tok::RParen)?;
                Ok(RddExpr::Source(s))
            }
            Tok::Ident(name) => Ok(RddExpr::Var(self.var_lookup(&name)?)),
            other => Err(self.err(format!("expected an expression, got {other:?}"))),
        }
    }

    fn apply(&mut self, method: String, recv: RddExpr) -> Result<RddExpr, ParseError> {
        let (transform, inputs) = match method.as_str() {
            "map" => (Transform::Map(self.func_id()?), vec![recv]),
            "mapValues" => (Transform::MapValues(self.func_id()?), vec![recv]),
            "flatMap" => (Transform::FlatMap(self.func_id()?), vec![recv]),
            "filter" => (Transform::Filter(self.func_id()?), vec![recv]),
            "reduceByKey" => (Transform::ReduceByKey(self.func_id()?), vec![recv]),
            "distinct" => (Transform::Distinct, vec![recv]),
            "groupByKey" => (Transform::GroupByKey, vec![recv]),
            "sortByKey" => (Transform::SortByKey, vec![recv]),
            "values" => (Transform::Values, vec![recv]),
            "keys" => (Transform::Keys, vec![recv]),
            "sample" => {
                let Tok::Number(fraction, _) = self.next()? else {
                    return Err(self.err("sample() takes (fraction, seed)"));
                };
                self.expect(Tok::Comma)?;
                let line = self.line();
                let Tok::Number(_, text) = self.next()? else {
                    return Err(self.err("sample() takes (fraction, seed)"));
                };
                // A seed is a whole `u64`, read off its text: through an
                // `f64`, `2.7` would truncate and a seed above 2^53 round.
                let Some(seed) = whole_u64(&text) else {
                    let message = format!(
                        "sample seed {text} is not a whole number in 0..={}",
                        u64::MAX
                    );
                    return Err(ParseError { line, message });
                };
                (Transform::Sample { fraction, seed }, vec![recv])
            }
            "join" => {
                let rhs = self.expr()?;
                (Transform::Join, vec![recv, rhs])
            }
            "union" => {
                let rhs = self.expr()?;
                (Transform::Union, vec![recv, rhs])
            }
            other => return Err(self.err(format!("unknown transformation {other:?}"))),
        };
        Ok(RddExpr::Apply { transform, inputs })
    }
}

/// Parse a program from its concrete syntax.
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number on malformed input.
///
/// # Examples
///
/// ```
/// let src = r#"
/// program cache {
///   xs = source("nums").distinct()
///   xs.persist(MEMORY_ONLY)
///   for i in 1..=4 {
///     xs.count()
///   }
/// }
/// "#;
/// let program = sparklang::parse(src).expect("parses");
/// assert_eq!(program.name, "cache");
/// assert_eq!(program.n_vars(), 1);
/// sparklang::validate(&program).expect("well-formed");
/// ```
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    while let Some(t) = lexer.next()? {
        toks.push(t);
    }
    let mut parser = Parser {
        toks,
        pos: 0,
        vars: HashMap::new(),
        var_names: Vec::new(),
        max_func: 0,
    };
    parser.program()
}

/// The whole number a numeric literal's `text` spells exactly — digits,
/// then optionally a point and zeros — if it fits a `u64`.
fn whole_u64(text: &str) -> Option<u64> {
    let (int, frac) = text.split_once('.').unwrap_or((text, ""));
    frac.bytes().all(|b| b == b'0').then(|| int.parse().ok())?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, Pretty, ProgramBuilder};

    #[test]
    fn parses_the_docs_example() {
        let src = r#"
        program pagerank {
          links = source("wiki").distinct().groupByKey()
          links.persist(MEMORY_ONLY)
          ranks = links.mapValues(f1)
          for i in 1..=10 {
            contribs = links.join(ranks).values().flatMap(f2)
            contribs.persist(MEMORY_AND_DISK_SER)
            ranks = contribs.reduceByKey(f3).mapValues(f4)
          }
          ranks.count()
        }
        "#;
        let p = parse(src).unwrap();
        assert_eq!(p.name, "pagerank");
        assert_eq!(p.n_vars(), 3);
        assert_eq!(p.n_funcs, 5, "highest id f4 implies five functions");
        validate(&p).unwrap();
    }

    #[test]
    fn roundtrips_builder_output() {
        let mut b = ProgramBuilder::new("rt");
        let f = b.map_fn(|p| p.clone());
        let g = b.reduce_fn(|a, _| a);
        let s1 = b.source("a");
        let s2 = b.source("b");
        let x = b.bind("x", s1.map(f).sample(0.25, 7));
        let y = b.bind("y", s2);
        b.persist(x, crate::StorageLevel::MemoryOnlySer);
        b.loop_n(3, |b| {
            let e = b
                .var(x)
                .join(b.var(y))
                .values()
                .reduce_by_key(g)
                .sort_by_key();
            b.rebind(x, e);
            b.action(y, crate::ActionKind::Count);
        });
        b.unpersist(x);
        b.action(x, crate::ActionKind::Reduce(g));
        let (p, _) = b.finish();

        let text = Pretty(&p).to_string();
        let reparsed = parse(&text).unwrap();
        let text2 = Pretty(&reparsed).to_string();
        assert_eq!(text, text2, "pretty -> parse -> pretty is a fixed point");
        assert_eq!(p.stmts, reparsed.stmts, "ASTs agree");
    }

    #[test]
    fn reports_line_numbers() {
        let src = "program p {\n  x = source(\"a\")\n  x.explode()\n}";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("explode"));
    }

    #[test]
    fn rejects_a_loop_bound_that_is_not_a_whole_u32() {
        for bound in ["2.5", "5000000000"] {
            let src = format!("program p {{\n x = source(\"a\")\n for i in 1..={bound} {{ }}\n}}");
            let e = parse(&src).unwrap_err();
            assert_eq!(e.line, 3, "{bound}: {e}");
            assert!(e.message.contains("loop end bound"), "{bound}: {e}");
        }
        let edge = format!(
            "program p {{ x = source(\"a\") for i in 1..={} {{ }} }}",
            u32::MAX
        );
        assert!(matches!(
            parse(&edge).unwrap().stmts[1],
            Stmt::Loop { n: u32::MAX, .. }
        ));
    }

    #[test]
    fn a_sample_seed_is_read_exactly_or_rejected() {
        let sample = |seed: &str| {
            parse(&format!(
                "program p {{\n x = source(\"a\")\n y = x.sample(0.5, {seed})\n}}"
            ))
        };
        let e = sample("2.7").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("sample seed 2.7"), "{e}");
        let e = sample("18446744073709551616").unwrap_err();
        assert!(e.message.contains("not a whole number"), "{e}");
        let seed_of = |seed: &str| match &sample(seed).unwrap().stmts[1] {
            Stmt::Bind {
                expr: RddExpr::Apply { transform, .. },
                ..
            } => transform.clone(),
            other => panic!("expected a bind, got {other:?}"),
        };
        // Above 2^53 an `f64` would round this to 9007199254740992.
        assert_eq!(
            seed_of("9007199254740993"),
            Transform::Sample {
                fraction: 0.5,
                seed: 9_007_199_254_740_993
            }
        );
        assert_eq!(
            seed_of("2.00"),
            Transform::Sample {
                fraction: 0.5,
                seed: 2
            }
        );
    }

    #[test]
    fn every_builder_seed_survives_pretty_and_parse() {
        for seed in [0, 7, (1 << 53) + 1, u64::MAX] {
            let mut b = ProgramBuilder::new("s");
            let s = b.source("a");
            b.bind("x", s.sample(0.5, seed));
            let (p, _) = b.finish();
            let reparsed = parse(&Pretty(&p).to_string()).unwrap();
            assert_eq!(p.stmts, reparsed.stmts, "seed {seed}");
        }
    }

    #[test]
    fn rejects_unknown_vars() {
        let e = parse("program p { y.count() }").unwrap_err();
        assert!(e.message.contains("unknown variable"));
    }

    #[test]
    fn rejects_bad_storage_level() {
        let e = parse("program p {\n x = source(\"a\")\n x.persist(TURBO) }").unwrap_err();
        assert!(e.message.contains("unknown storage level"));
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let src = "program p { // header\n  x = source(\"a\") // load\n  x.count()\n}";
        let p = parse(src).unwrap();
        assert_eq!(p.stmts.len(), 2);
    }
}
