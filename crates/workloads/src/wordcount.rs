//! WordCount — the canonical Hadoop/Spark program, included as an extra
//! (non-Table-4) workload demonstrating the paper's Section 4.3 claim that
//! the runtime generalizes beyond the seven evaluation programs.
//!
//! Documents are flat-mapped into words, counted with a `reduceByKey`, and
//! the top words are inspected repeatedly (so the counts table is hot).

use crate::data::labeled_documents;
use crate::BuiltWorkload;
use mheap::Payload;
use sparklang::{ActionKind, ProgramBuilder, StorageLevel};
use sparklet::DataRegistry;

/// Build WordCount over synthetic documents.
pub fn wordcount(n_docs: usize, vocab: usize, words_per_doc: usize, seed: u64) -> BuiltWorkload {
    let mut b = ProgramBuilder::new("wordcount");

    // (label, words) -> one (word, 1) pair per word.
    let explode = b.flat_map_fn(|r| {
        let (_, words) = r.as_pair().expect("(label, words)");
        let Payload::Longs(words) = words else {
            panic!("expected word ids")
        };
        words
            .iter()
            .map(|w| Payload::keyed(*w, Payload::Long(1)))
            .collect()
    });
    let add = b
        .reduce_fn(|a, c| Payload::Long(a.as_long().expect("count") + c.as_long().expect("count")));

    let src = b.source("documents");
    let docs = b.bind("docs", src);
    b.persist(docs, StorageLevel::MemoryOnly);
    let counts = b.bind("counts", b.var(docs).flat_map(explode).reduce_by_key(add));
    b.persist(counts, StorageLevel::MemoryOnly);
    // The counts table is queried repeatedly (dashboards, top-k, ...):
    // used-only in a loop => the analysis tags it DRAM.
    b.loop_n(4, |b| {
        b.action(counts, ActionKind::Count);
    });
    b.action(counts, ActionKind::Collect);

    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register_with("documents", move || {
        labeled_documents(n_docs, vocab, 2, words_per_doc, seed)
    });
    BuiltWorkload { program, fns, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panthera::{MemoryMode, RunBuilder, SystemConfig, SIM_GB};
    use panthera_analysis::infer_tags;
    use sparklang::ast::MemoryTag;
    use sparklang::VarId;
    use std::collections::BTreeMap;

    #[test]
    fn counts_are_hot_tagged() {
        let w = wordcount(200, 100, 8, 3);
        let tags = infer_tags(&w.program);
        // docs is read once to build counts and never again: cold => NVM.
        assert_eq!(tags.tag(VarId(0)), Some(MemoryTag::Nvm), "docs");
        // counts is queried every loop iteration: hot => DRAM.
        assert_eq!(tags.tag(VarId(1)), Some(MemoryTag::Dram), "counts");
    }

    #[test]
    fn counts_match_a_hand_count() {
        let w = wordcount(300, 80, 10, 5);
        let cfg = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
        let run = RunBuilder::new(&w.program, w.fns, w.data)
            .config(cfg)
            .run()
            .expect("valid configuration");
        let collected = run.results.last().unwrap().1.as_collected().unwrap();

        let docs = crate::labeled_documents(300, 80, 2, 10, 5);
        let mut expect: BTreeMap<i64, i64> = BTreeMap::new();
        for d in &docs {
            let (_, words) = d.as_pair().unwrap();
            if let Payload::Longs(ws) = words {
                for w in ws.iter() {
                    *expect.entry(*w).or_insert(0) += 1;
                }
            }
        }
        let got: BTreeMap<i64, i64> = collected
            .iter()
            .map(|r| {
                let (w, c) = r.as_pair().unwrap();
                (w.as_long().unwrap(), c.as_long().unwrap())
            })
            .collect();
        assert_eq!(got, expect, "word counts diverge");
    }
}
