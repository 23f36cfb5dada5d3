//! Property tests for the heap: payload sizing/hashing, card geometry,
//! bump allocation, and root-scope discipline.

use hybridmem::{Addr, MemorySystemConfig};
use mheap::{
    pad_to_card, CardTable, Heap, HeapConfig, Key, MemTag, ObjId, ObjKind, Payload, RootSet,
    WireBatch, CARD_BYTES,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One step of a card-table torture schedule.
#[derive(Debug, Clone, Copy)]
enum CardOp {
    Dirty(usize),
    Stuck(usize),
    Clean(usize),
    ClearAll,
}

/// A naive reference model of the card table: one bool per card, no
/// bitmaps, no word skipping.
#[derive(Debug, Clone)]
struct NaiveCards {
    dirty: Vec<bool>,
    stuck: Vec<bool>,
}

impl NaiveCards {
    fn new(cards: usize) -> Self {
        NaiveCards {
            dirty: vec![false; cards],
            stuck: vec![false; cards],
        }
    }

    fn apply(&mut self, op: CardOp) {
        match op {
            CardOp::Dirty(i) => self.dirty[i] = true,
            CardOp::Stuck(i) => {
                self.dirty[i] = true;
                self.stuck[i] = true;
            }
            CardOp::Clean(i) => {
                if !self.stuck[i] {
                    self.dirty[i] = false;
                }
            }
            CardOp::ClearAll => {
                self.dirty.iter_mut().for_each(|b| *b = false);
                self.stuck.iter_mut().for_each(|b| *b = false);
            }
        }
    }

    fn next_dirty_from(&self, from: usize) -> Option<usize> {
        (from..self.dirty.len()).find(|i| self.dirty[*i])
    }

    fn iter_dirty(&self) -> Vec<usize> {
        (0..self.dirty.len()).filter(|i| self.dirty[*i]).collect()
    }
}

/// Generator for arbitrary payloads (recursion bounded).
fn payload() -> impl Strategy<Value = Payload> {
    let leaf = prop_oneof![
        Just(Payload::Unit),
        any::<i64>().prop_map(Payload::Long),
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Payload::Double),
        (any::<u64>(), 0u32..100).prop_map(|(sym, len)| Payload::Text { sym, len }),
        prop::collection::vec(any::<i64>(), 0..8).prop_map(Payload::longs),
        prop::collection::vec(-1e9f64..1e9, 0..8).prop_map(Payload::doubles),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Payload::pair(a, b)),
            prop::collection::vec(inner, 0..4).prop_map(Payload::list),
        ]
    })
}

/// Generator for everything the wire form has to carry: every variant,
/// empty composites, doubles by raw bit pattern (NaNs of any payload,
/// -0.0, infinities), and texts drawn from so few symbols that equal
/// `sym`s with different `len`s meet.
fn wire_payload() -> impl Strategy<Value = Payload> {
    let double = prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::NAN),
        Just(-0.0f64),
        Just(0.0f64),
    ]
    .boxed();
    let leaf = prop_oneof![
        Just(Payload::Unit),
        any::<i64>().prop_map(Payload::Long),
        double.clone().prop_map(Payload::Double),
        (0u64..3, 0u32..4).prop_map(|(sym, len)| Payload::Text { sym, len }),
        (any::<u64>(), any::<u32>()).prop_map(|(sym, len)| Payload::Text { sym, len }),
        prop::collection::vec(any::<i64>(), 0..5).prop_map(Payload::longs),
        prop::collection::vec(double, 0..5).prop_map(Payload::doubles),
        any::<u64>().prop_map(|len| Payload::Bytes { len: len >> 8 }),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Payload::pair(a, b)),
            prop::collection::vec(inner, 0..4).prop_map(Payload::list),
        ]
    })
}

/// Structural equality with floats compared by bit pattern (`PartialEq`
/// says a NaN differs from itself).
fn same_bits(a: &Payload, b: &Payload) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    match (a, b) {
        (Payload::Double(x), Payload::Double(y)) => x.to_bits() == y.to_bits(),
        (Payload::Doubles(x), Payload::Doubles(y)) => bits(x) == bits(y),
        (Payload::Pair(x), Payload::Pair(y)) => same_bits(&x.0, &y.0) && same_bits(&x.1, &y.1),
        (Payload::List(x), Payload::List(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(x, y)| same_bits(x, y))
        }
        _ => a == b,
    }
}

/// A shuffle key, or the message of the panic that refused one.
fn key_or_panic(key: impl FnOnce() -> Key) -> Result<Key, String> {
    catch_unwind(AssertUnwindSafe(key)).map_err(|e| {
        let msg = e.downcast_ref::<String>().expect("a formatted panic");
        msg.clone()
    })
}

proptest! {
    /// The packed wire form is the heap form, observably: every record of
    /// a batch decodes to the payload it was encoded from, and answers
    /// `model_bytes` and `shuffle_key` — panics included — as that payload
    /// does; the batch's own tallies are the sums of its records'. Any
    /// range of records decodes to that slice of the payloads.
    #[test]
    fn wire_batch_mirrors_its_payloads(
        records in prop::collection::vec(wire_payload(), 0..6),
        lo in any::<prop::sample::Index>(),
        hi in any::<prop::sample::Index>(),
    ) {
        let batch = WireBatch::encode(&records);
        prop_assert_eq!(batch.len(), records.len());
        prop_assert_eq!(batch.is_empty(), records.is_empty());
        let total: u64 = records.iter().map(Payload::model_bytes).sum();
        prop_assert_eq!(batch.model_bytes(), total);
        for (wire, p) in batch.iter().zip(&records) {
            let back = wire.to_payload();
            prop_assert!(same_bits(&back, p), "{:?} decoded as {:?}", p, back);
            prop_assert_eq!(back.fingerprint(), p.fingerprint());
            prop_assert_eq!(wire.model_bytes(), p.model_bytes());
            let heap_key = key_or_panic(|| p.shuffle_key());
            if heap_key.is_err() {
                prop_assert!(heap_key.as_ref().unwrap_err().contains("no shuffle key"));
            }
            prop_assert_eq!(key_or_panic(|| wire.shuffle_key()), heap_key);
        }
        let decoded: Vec<Payload> = batch.payloads().collect();
        prop_assert_eq!(&WireBatch::encode(&decoded), &batch, "re-encoding is exact");
        let (a, b) = (lo.index(records.len() + 1), hi.index(records.len() + 1));
        let at = a.min(b)..a.max(b);
        let part: Vec<Payload> = batch.range(at.clone()).map(|w| w.to_payload()).collect();
        prop_assert_eq!(&WireBatch::encode(&part), &WireBatch::encode(&records[at]));
    }

    /// What the shuffle reads off a packed record without decoding it is
    /// the heap form's answer: the fingerprint, word for word, and a
    /// pair's halves — with everything they answer in turn.
    #[test]
    fn wire_reads_mirror_the_heap_form(p in wire_payload()) {
        let batch = WireBatch::encode([&p]);
        let wire = batch.iter().next().unwrap();
        prop_assert_eq!(wire.fingerprint(), p.fingerprint());
        prop_assert_eq!(wire.try_shuffle_key(), p.try_shuffle_key());
        match (wire.halves(), p.as_pair()) {
            (Some((wk, wv)), Some((k, v))) => {
                for (half, heap) in [(wk, k), (wv, v)] {
                    prop_assert!(same_bits(&half.to_payload(), heap), "{:?} vs {:?}", half, heap);
                    prop_assert_eq!(half.fingerprint(), heap.fingerprint());
                    prop_assert_eq!(half.model_bytes(), heap.model_bytes());
                    prop_assert_eq!(half.try_shuffle_key(), heap.try_shuffle_key());
                }
            }
            (None, None) => {}
            (w, h) => prop_assert!(false, "halves {:?} vs as_pair {:?}", w, h),
        }
    }

    /// Digests follow contents: the same records digest the same however
    /// the batch came to be, and changing one word of one record — here a
    /// scalar slipped in anywhere — always changes the digest.
    #[test]
    fn wire_digest_follows_contents(
        records in prop::collection::vec(wire_payload(), 0..6),
        at in any::<prop::sample::Index>(),
        word in any::<i64>(),
        flip in 0u32..64,
    ) {
        let rebuilt: Vec<Payload> = WireBatch::encode(&records).payloads().collect();
        prop_assert_eq!(
            WireBatch::encode(&records).digest(),
            WireBatch::encode(&rebuilt).digest()
        );
        let with = |w: i64| {
            let mut all = records.clone();
            all.insert(at.index(records.len() + 1), Payload::Long(w));
            WireBatch::encode(&all)
        };
        let (a, b) = (with(word), with(word ^ (1 << flip)));
        prop_assert_eq!(a.host_bytes(), b.host_bytes(), "same shape, one word apart");
        prop_assert_ne!(a.digest(), b.digest());
        prop_assert_ne!(a, b);
    }

    /// Fingerprints are a pure function of structure: equal payloads hash
    /// equal, and cloning never changes the hash.
    #[test]
    fn fingerprint_is_stable(p in payload()) {
        prop_assert_eq!(p.fingerprint(), p.clone().fingerprint());
    }

    /// Wrapping a payload changes its fingerprint (no trivial collisions
    /// between a value and its 1-tuple).
    #[test]
    fn fingerprint_sees_structure(p in payload()) {
        let wrapped = Payload::list(vec![p.clone()]);
        prop_assert_ne!(p.fingerprint(), wrapped.fingerprint());
    }

    /// model_bytes is consistent under composition: a pair costs its parts
    /// plus a constant.
    #[test]
    fn pair_bytes_compose(a in payload(), b in payload()) {
        let pair = Payload::pair(a.clone(), b.clone());
        prop_assert_eq!(pair.model_bytes(), 16 + a.model_bytes() + b.model_bytes());
    }

    /// Keyed payloads always expose their key.
    #[test]
    fn keyed_payloads_have_keys(k in any::<i64>(), v in payload()) {
        prop_assert_eq!(Payload::keyed(k, v).shuffle_key(), Key::Long(k));
    }

    /// Card padding: the result is card-aligned, never smaller, and adds
    /// less than one card.
    #[test]
    fn padding_properties(size in 0u64..1_000_000) {
        let padded = pad_to_card(size);
        prop_assert_eq!(padded % CARD_BYTES, 0);
        prop_assert!(padded >= size);
        prop_assert!(padded - size < CARD_BYTES);
    }

    /// Young allocations never overlap and stay inside eden.
    #[test]
    fn young_objects_never_overlap(sizes in prop::collection::vec(0usize..32, 1..64)) {
        let mut heap = Heap::new(
            HeapConfig::panthera(6_000_000, 1.0 / 3.0),
            MemorySystemConfig::with_capacities(2_000_000, 4_000_000),
        ).unwrap();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for n in sizes {
            let id = heap
                .alloc_young(
                    ObjKind::Tuple,
                    MemTag::None,
                    vec![],
                    Payload::doubles(vec![0.0; n]),
                )
                .unwrap();
            let o = heap.obj(id);
            spans.push((o.addr.0, o.end().0));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "objects overlap: {w:?}");
        }
        let eden = heap.eden();
        prop_assert!(spans.last().unwrap().1 <= eden.base().0 + eden.capacity());
    }

    /// Arrays in old spaces end card-aligned when padding is on, for any
    /// interleaving of tuples and arrays.
    #[test]
    fn arrays_end_card_aligned(ops in prop::collection::vec((any::<bool>(), 1usize..64), 1..32)) {
        let mut heap = Heap::new(
            HeapConfig::panthera(8_000_000, 1.0 / 3.0),
            MemorySystemConfig::with_capacities(2_000_000, 6_000_000),
        ).unwrap();
        let nvm = heap.old_nvm().unwrap();
        let base = heap.old(nvm).base().0;
        for (i, (is_array, n)) in ops.into_iter().enumerate() {
            if is_array {
                let id = heap.alloc_array_old(nvm, i as u32, n, MemTag::Nvm).unwrap();
                let o = heap.obj(id);
                prop_assert_eq!((o.end().0 - base) % CARD_BYTES, 0);
            } else {
                heap.alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::longs(vec![0; n]))
                    .unwrap();
            }
        }
    }

    /// The bitmap card table agrees with a naive per-card bool model under
    /// arbitrary mark/stick/clean/clear schedules: same dirty set, same
    /// word-skipping cursor answers from every start index, same counts.
    #[test]
    fn card_table_matches_naive_reference(
        cards in 1usize..200,
        ops in prop::collection::vec((any::<u64>(), any::<u64>()), 0..64),
    ) {
        let base = Addr(CARD_BYTES * 3); // non-zero base: card_of must offset
        let mut table = CardTable::new(base, cards as u64 * CARD_BYTES);
        let mut naive = NaiveCards::new(cards);
        prop_assert_eq!(table.len(), cards);
        for (a, b) in ops {
            // Derive an op from two raw u64s so the schedule shrinks well.
            let op = match a % 9 {
                0..=3 => CardOp::Dirty(b as usize % cards),
                4 => CardOp::Stuck(b as usize % cards),
                5..=7 => CardOp::Clean(b as usize % cards),
                _ => CardOp::ClearAll,
            };
            match op {
                CardOp::Dirty(i) => {
                    // Any address within the card must mark it.
                    let within = b % CARD_BYTES;
                    table.mark_dirty(Addr(base.0 + i as u64 * CARD_BYTES + within));
                }
                CardOp::Stuck(i) => table.mark_stuck(Addr(base.0 + i as u64 * CARD_BYTES)),
                CardOp::Clean(i) => {
                    let cleaned = table.clean(i);
                    prop_assert_eq!(cleaned, !naive.stuck[i], "clean({i})");
                }
                CardOp::ClearAll => table.clear_all(),
            }
            naive.apply(op);
            // Full dirty-set agreement after every step.
            prop_assert_eq!(table.iter_dirty().collect::<Vec<_>>(), naive.iter_dirty());
            prop_assert_eq!(table.dirty_count(), naive.iter_dirty().len());
            for i in 0..cards {
                prop_assert_eq!(table.is_dirty(i), naive.dirty[i], "card {i}");
                prop_assert_eq!(table.is_stuck(i), naive.stuck[i], "card {i}");
            }
            // The word-skipping cursor agrees with a linear scan from every
            // start position, including past-the-end.
            for from in 0..=cards {
                prop_assert_eq!(
                    table.next_dirty_from(from),
                    naive.next_dirty_from(from),
                    "from {from}"
                );
            }
        }
    }

    /// Root scopes: after popping every scope, exactly the pre-scope roots
    /// (minus removals) remain, in order.
    #[test]
    fn root_scopes_balance(
        outer in prop::collection::vec(any::<u32>(), 0..8),
        scoped in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..4), 0..4),
    ) {
        let mut roots = RootSet::new();
        for r in &outer {
            roots.push(ObjId(*r));
        }
        for scope in &scoped {
            roots.push_scope();
            for r in scope {
                roots.push(ObjId(*r));
            }
        }
        for _ in &scoped {
            roots.pop_scope();
        }
        let expect: Vec<ObjId> = outer.iter().map(|r| ObjId(*r)).collect();
        prop_assert_eq!(roots.iter().collect::<Vec<_>>(), expect);
    }
}
