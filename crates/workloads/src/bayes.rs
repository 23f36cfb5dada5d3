//! MLlib Naive Bayes classifier training: one pass of aggregations over a
//! cached document set, no loops — the analysis's all-NVM flip rule fires
//! and everything persisted lands in DRAM first.

use crate::data::labeled_documents;
use crate::BuiltWorkload;
use mheap::Payload;
use sparklang::{ActionKind, ProgramBuilder, StorageLevel};
use sparklet::DataRegistry;

/// Build Naive Bayes training over synthetic labeled documents.
pub fn naive_bayes(
    n_docs: usize,
    vocab: usize,
    n_labels: usize,
    words_per_doc: usize,
    seed: u64,
) -> BuiltWorkload {
    let mut b = ProgramBuilder::new("mllib-bayes");
    let vocab_i = vocab as i64;

    // (label, words) -> [(label * vocab + word, 1)]: per-class word counts.
    let explode = b.flat_map_fn(move |r| {
        let (label, words) = r.as_pair().expect("(label, words)");
        let label = label.as_long().expect("label");
        let Payload::Longs(words) = words else {
            panic!("expected word ids")
        };
        words
            .iter()
            .map(|w| Payload::keyed(label * vocab_i + w, Payload::Long(1)))
            .collect()
    });
    // (label, words) -> (label, 1): class priors.
    let label_one = b.map_fn(|r| {
        let (label, _) = r.as_pair().expect("(label, words)");
        Payload::pair(label.clone(), Payload::Long(1))
    });
    let add = b
        .reduce_fn(|a, c| Payload::Long(a.as_long().expect("count") + c.as_long().expect("count")));
    // Laplace-smoothed log-likelihood per (class, word) cell; applied via
    // mapValues, so it sees the count only.
    let smooth = b.map_fn(move |count| {
        let n = count.as_long().expect("count") as f64;
        Payload::Double(((n + 1.0) / (vocab_i as f64)).ln())
    });

    let src = b.source("kdd-2012");
    let docs = b.bind("docs", src);
    b.persist(docs, StorageLevel::MemoryOnly);

    let counts = b.bind(
        "wordCounts",
        b.var(docs).flat_map(explode).reduce_by_key(add),
    );
    b.persist(counts, StorageLevel::MemoryOnly);
    let model = b.bind("model", b.var(counts).map_values(smooth));
    b.action(model, ActionKind::Count);

    let priors = b.bind("priors", b.var(docs).map(label_one).reduce_by_key(add));
    b.action(priors, ActionKind::Collect);

    let (program, fns) = b.finish();
    let mut data = DataRegistry::new();
    data.register_with("kdd-2012", move || {
        labeled_documents(n_docs, vocab, n_labels, words_per_doc, seed)
    });
    BuiltWorkload { program, fns, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panthera_analysis::{infer_tags, TagReason};
    use sparklang::ast::MemoryTag;
    use sparklang::VarId;

    #[test]
    fn no_loops_means_all_flipped_to_dram() {
        let w = naive_bayes(100, 50, 2, 5, 1);
        let tags = infer_tags(&w.program);
        for v in 0..4u32 {
            let t = &tags.vars[&VarId(v)];
            assert_eq!(t.tag, Some(MemoryTag::Dram), "var {v}");
            assert_eq!(t.reason, TagReason::AllNvmFlip, "var {v}");
        }
    }
}
