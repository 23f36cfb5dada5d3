//! Property tests for the IR: pretty-print/parse round-trips and
//! validation totality over randomly built programs.

use proptest::prelude::*;
use sparklang::{parse, validate, ActionKind, Expr, Pretty, Program, ProgramBuilder, StorageLevel};

#[derive(Debug, Clone)]
enum Op {
    NewFromSource,
    Chain(u8),
    Persist(u8),
    Unpersist,
    Count,
    Collect,
    LoopAround(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::NewFromSource),
        (0u8..8).prop_map(Op::Chain),
        (0u8..10).prop_map(Op::Persist),
        Just(Op::Unpersist),
        Just(Op::Count),
        Just(Op::Collect),
        (1u8..4).prop_map(Op::LoopAround),
    ]
}

fn build(ops: &[Op]) -> Program {
    let mut b = ProgramBuilder::new("random");
    let f = b.map_fn(|p| p.clone());
    let g = b.reduce_fn(|a, _| a);
    let fm = b.flat_map_fn(|p| vec![p.clone()]);
    let fl = b.filter_fn(|_| true);
    let mut vars = Vec::new();
    let mut n = 0usize;

    let chain = |_b: &ProgramBuilder, e: Expr, which: u8| -> Expr {
        match which {
            0 => e.map(f),
            1 => e.map_values(f),
            2 => e.flat_map(fm),
            3 => e.filter(fl),
            4 => e.distinct(),
            5 => e.reduce_by_key(g),
            6 => e.sort_by_key(),
            _ => e.sample(0.5, 9),
        }
    };
    let _ = &chain;

    let mut pending_loop: Option<(u8, usize)> = None;
    for (i, o) in ops.iter().enumerate() {
        match o {
            Op::NewFromSource => {
                n += 1;
                let src = b.source(&format!("s{n}"));
                vars.push(b.bind(&format!("v{n}"), src));
            }
            Op::Chain(which) if !vars.is_empty() => {
                let v = vars[i % vars.len()];
                let e = chain(&b, b.var(v), *which);
                b.rebind(v, e);
            }
            Op::Persist(l) if !vars.is_empty() => {
                let v = vars[i % vars.len()];
                b.persist(v, StorageLevel::ALL[*l as usize % StorageLevel::ALL.len()]);
            }
            Op::Unpersist if !vars.is_empty() => {
                let v = vars[i % vars.len()];
                b.unpersist(v);
            }
            Op::Count if !vars.is_empty() => {
                b.action(vars[i % vars.len()], ActionKind::Count);
            }
            Op::Collect if !vars.is_empty() => {
                b.action(vars[i % vars.len()], ActionKind::Collect);
            }
            Op::LoopAround(k) if !vars.is_empty() => {
                // Queue a loop around the next var's action.
                pending_loop = Some((*k, i % vars.len()));
            }
            _ => {}
        }
        if let Some((k, vi)) = pending_loop.take() {
            let v = vars[vi];
            b.loop_n(k as u32, |b| {
                b.action(v, ActionKind::Count);
            });
        }
    }
    if vars.is_empty() {
        let src = b.source("fallback");
        let v = b.bind("v", src);
        b.action(v, ActionKind::Count);
    }
    b.finish().0
}

proptest! {
    /// pretty -> parse -> pretty is a fixed point, and the reparsed AST is
    /// structurally identical (modulo the function-table size, which the
    /// parser infers from the highest id it sees).
    #[test]
    fn pretty_parse_roundtrip(ops in prop::collection::vec(op(), 1..24)) {
        let p = build(&ops);
        let text = Pretty(&p).to_string();
        let reparsed = parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n--- source ---\n{text}")))?;
        prop_assert_eq!(&p.stmts, &reparsed.stmts);
        prop_assert_eq!(&p.var_names, &reparsed.var_names);
        prop_assert_eq!(Pretty(&reparsed).to_string(), text);
    }

    /// The parser is total: arbitrary input returns `Ok` or `Err`, never
    /// panics, and errors carry plausible line numbers.
    #[test]
    fn parser_never_panics(src in "\\PC*") {
        match parse(&src) {
            Ok(p) => {
                // Anything that parses must also pretty-print.
                let _ = Pretty(&p).to_string();
            }
            Err(e) => {
                prop_assert!(e.line >= 1);
                prop_assert!(!e.message.is_empty());
            }
        }
    }

    /// Mutating one byte of a valid program never panics the parser.
    #[test]
    fn parser_survives_mutations(
        ops in prop::collection::vec(op(), 1..12),
        idx in any::<prop::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let p = build(&ops);
        let mut text = Pretty(&p).to_string().into_bytes();
        let i = idx.index(text.len());
        text[i] = byte;
        if let Ok(s) = String::from_utf8(text) {
            let _ = parse(&s); // must not panic
        }
    }

    /// Everything the builder produces validates, and so does its reparse.
    #[test]
    fn built_programs_validate(ops in prop::collection::vec(op(), 1..24)) {
        let p = build(&ops);
        prop_assert!(validate(&p).is_ok());
        let text = Pretty(&p).to_string();
        let reparsed = parse(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(validate(&reparsed).is_ok());
    }
}
