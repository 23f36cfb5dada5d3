//! Property tests for the shuffle semantics: conservation and algebraic
//! laws of the wide transformations, and the ownership rule — an executor
//! that reduces only the keys behind its own output partitions ends up
//! with exactly the partitions it would have kept of the whole output.

use mheap::{Key, Payload, WireBatch};
use proptest::prelude::*;
use sparklang::{FnTable, ProgramBuilder, Transform};
use sparklet::{
    partition_sizes, reduce_owned, reduce_side, Buckets, KeyIndex, Owner, PartMeta, ReduceFold,
    ShuffleContrib, ShuffleGather,
};
use std::collections::HashMap;

fn keyed(records: &[(i64, i64)]) -> Vec<Payload> {
    records
        .iter()
        .map(|(k, v)| Payload::keyed(*k, Payload::Long(*v)))
        .collect()
}

/// The five wide transformations, with `combine` as `reduceByKey`'s
/// function, and the function table they run against.
fn wide_transforms_with(
    combine: impl Fn(Payload, &Payload) -> Payload + 'static,
) -> (Vec<Transform>, FnTable) {
    let mut b = ProgramBuilder::new("t");
    let f = b.reduce_fn(combine);
    let (_, fns) = b.finish();
    let all = vec![
        Transform::ReduceByKey(f),
        Transform::GroupByKey,
        Transform::Distinct,
        Transform::Join,
        Transform::SortByKey,
    ];
    (all, fns)
}

/// The five wide transformations (`reduceByKey` summing longs) and the
/// function table they run against.
fn wide_transforms() -> (Vec<Transform>, FnTable) {
    wide_transforms_with(add_longs)
}

/// A combiner summing `Long` values.
fn add_longs(a: Payload, c: &Payload) -> Payload {
    Payload::Long(a.as_long().unwrap() + c.as_long().unwrap())
}

/// An order-sensitive combiner over values of any shape: `a * 31 + b`,
/// where a value that is not a `Long` counts as its fingerprint.
fn mul31_add(a: Payload, c: &Payload) -> Payload {
    let num = |p: &Payload| p.as_long().unwrap_or(p.fingerprint() as i64);
    Payload::Long(num(&a).wrapping_mul(31).wrapping_add(num(c)))
}

/// A record's key half and value half: a non-pair record is both.
fn halves(record: &Payload) -> (&Payload, &Payload) {
    record.as_pair().unwrap_or((record, record))
}

/// The `reduceByKey` the shuffle's folds implement, kept as their
/// reference: a hash map of accumulators plus the keys in
/// first-appearance order. A key's output key is its first record's key
/// half; its accumulator starts as that record's value, and every later
/// value is combined into it in input order.
fn reference_reduce_by_key(
    records: &[Payload],
    combine: impl Fn(Payload, &Payload) -> Payload,
) -> Vec<Payload> {
    let mut keys: Vec<Key> = Vec::new();
    let mut accs: HashMap<Key, (Payload, Payload)> = HashMap::new();
    for r in records {
        let (k, v) = halves(r);
        let key = r.shuffle_key();
        let next = match accs.remove(&key) {
            None => {
                keys.push(key);
                (k.clone(), v.clone())
            }
            Some((first_key, acc)) => (first_key, combine(acc, v)),
        };
        accs.insert(key, next);
    }
    keys.iter()
        .map(|key| {
            let (k, acc) = accs.remove(key).unwrap();
            Payload::pair(k, acc)
        })
        .collect()
}

/// The join the shuffle implements, kept as its reference: per left key
/// in first-appearance order, every left record's `(key, (value, right
/// value))` with every right record of the same shuffle key, left-major.
/// Each output carries its own left record's key half.
fn reference_join(left: &[Payload], right: &[Payload]) -> Vec<Payload> {
    let mut keys: Vec<Key> = Vec::new();
    for l in left {
        if !keys.contains(&l.shuffle_key()) {
            keys.push(l.shuffle_key());
        }
    }
    let of_key = |side: &[Payload], key: Key| -> Vec<Payload> {
        let mut recs = side.to_vec();
        recs.retain(|r| r.shuffle_key() == key);
        recs
    };
    let mut out = Vec::new();
    for key in keys {
        for l in of_key(left, key) {
            let (k, v) = halves(&l);
            for r in of_key(right, key) {
                let pair = Payload::pair(v.clone(), halves(&r).1.clone());
                out.push(Payload::pair(k.clone(), pair));
            }
        }
    }
    out
}

/// A record of any shape the shuffle must carry: a `Long`, `Double` or
/// `Text` key — a `Double` whose bits equal a `Long` key's shares its
/// shuffle key but not its key payload — paired with a scalar, list or
/// vector value, or alone as a non-pair record.
fn mixed_record() -> impl Strategy<Value = Payload> {
    (0u8..3, 0i64..5, 0u8..5, -50i64..50, any::<bool>()).prop_map(|(kind, k, vkind, v, pair)| {
        let key = match kind {
            0 => Payload::Long(k),
            1 => Payload::Double(f64::from_bits(k as u64)),
            _ => Payload::Text {
                sym: k as u64,
                len: 3,
            },
        };
        if !pair {
            return key;
        }
        let value = match vkind {
            0 => Payload::Long(v),
            1 => Payload::Double(v as f64 * 0.5),
            2 => Payload::list(vec![Payload::Long(v), Payload::Text { sym: 7, len: 1 }]),
            3 => Payload::longs(vec![v, v + 1]),
            _ => Payload::doubles(vec![v as f64, -0.25]),
        };
        Payload::pair(key, value)
    })
}

/// The partitioning rule, stated apart from the engine's
/// `partition_sizes` so that a bug there cannot pass both sides: at most
/// one partition per record, `n.div_ceil(partitions)` records each, the
/// last possibly short; no records are one empty partition.
fn chunked(records: &[Payload], partitions: usize) -> Vec<&[Payload]> {
    if records.is_empty() {
        return vec![records];
    }
    let per = records.len().div_ceil(partitions.clamp(1, records.len()));
    records.chunks(per).collect()
}

/// The behaviour `reduce_owned` replaced, kept as its reference: chunk the
/// *whole* reduce output by the partitioning rule and keep the partitions
/// `gid % E == exec`.
fn reference_owned(whole: &[Payload], owner: Owner) -> (Vec<Payload>, PartMeta) {
    let parts = chunked(whole, owner.partitions);
    let (mut local, mut gids, mut lens) = (Vec::new(), Vec::new(), Vec::new());
    for (gid, part) in parts.iter().enumerate() {
        if gid as u64 % u64::from(owner.n_exec) == u64::from(owner.exec) {
            local.extend_from_slice(part);
            gids.push(gid as u64);
            lens.push(part.len());
        }
    }
    let meta = PartMeta {
        gids,
        lens,
        global_parts: parts.len() as u64,
    };
    (local, meta)
}

/// The transfer tally `KeyIndex::crossing` replaced, kept as its
/// reference: a hash map over every record, twice, once per executor.
fn reference_transfer_cost(sides: &[&[(u16, Vec<Payload>)]], exec: u16, n_exec: u16) -> (u64, u64) {
    let mut key_bucket: HashMap<Key, usize> = HashMap::new();
    let records = || sides.iter().flat_map(|s| s.iter());
    for (_, recs) in records() {
        for r in recs {
            let next = key_bucket.len();
            key_bucket.entry(r.shuffle_key()).or_insert(next);
        }
    }
    let (mut n, mut bytes) = (0u64, 0u64);
    for (origin, recs) in records() {
        for r in recs {
            let reducer = (key_bucket[&r.shuffle_key()] % n_exec as usize) as u16;
            let crossing = if *origin == exec {
                reducer != exec
            } else {
                reducer == exec
            };
            if crossing {
                n += 1;
                bytes += r.model_bytes();
            }
        }
    }
    (n, bytes)
}

/// Lay `records` out as an upstream RDD would be: chunked by the
/// partitioning rule, partition `gid` mapped on executor `gid % E`.
/// Returns the partitions in scan order as `(origin, records)`.
fn map_side(records: &[Payload], n_exec: u16, partitions: usize) -> Vec<(u16, Vec<Payload>)> {
    let parts = chunked(records, partitions).into_iter().enumerate();
    parts
        .map(|(gid, part)| ((gid % usize::from(n_exec)) as u16, part.to_vec()))
        .collect()
}

/// What the exchange hands back for that layout: every executor's
/// deposit of its own partitions, merged.
fn gather(
    left: &[(u16, Vec<Payload>)],
    right: Option<&[(u16, Vec<Payload>)]>,
    n_exec: u16,
) -> ShuffleGather {
    let deposit_of = |side: &[(u16, Vec<Payload>)], exec: u16| -> Vec<(u64, WireBatch)> {
        side.iter()
            .enumerate()
            .filter(|(_, (origin, _))| *origin == exec)
            .map(|(gid, (_, recs))| (gid as u64, WireBatch::encode(recs)))
            .collect()
    };
    let contribs: Vec<ShuffleContrib> = (0..n_exec)
        .map(|exec| ShuffleContrib {
            left: deposit_of(left, exec),
            right: right.map(|r| deposit_of(r, exec)),
        })
        .collect();
    ShuffleGather::from(contribs)
}

/// Run `transform` over `left` (and `right`) on `n_exec` executors with
/// `partitions` partitions, and hold every executor's owned output, its
/// order, its `PartMeta` and its transfer tally against the references;
/// then splice the slices back together. Returns the whole output and the
/// executors' layouts.
fn check_ownership(
    transform: &Transform,
    fns: &FnTable,
    left: &[Payload],
    right: Option<&[Payload]>,
    n_exec: u16,
    partitions: usize,
) -> Result<(Vec<Payload>, Vec<PartMeta>), TestCaseError> {
    let right = right.filter(|_| matches!(transform, Transform::Join));
    let whole = reduce_side(transform, fns, &Buckets::of(left, right));

    // A lone executor reduces everything and keeps no layout.
    let lone_l = [(0u16, left)];
    let lone_r = right.map(|r| [(0u16, r)]);
    let lone_r = lone_r.as_ref().map(|r| &r[..]);
    let lone_index = KeyIndex::build(transform, 1, &lone_l, lone_r).unwrap();
    let lone = reduce_owned(transform, fns, &lone_index, &lone_l, lone_r, None);
    prop_assert_eq!(&lone.0[..], &whole[..]);
    prop_assert_eq!(lone.1, None);
    prop_assert_eq!(lone_index.crossing(0), (0, 0));

    let l_parts = map_side(left, n_exec, partitions);
    let r_parts = right.map(|r| map_side(r, n_exec, partitions));
    let gathered = gather(&l_parts, r_parts.as_deref(), n_exec);
    let index = gathered.key_index(transform).unwrap();
    let (l, r) = (gathered.left(), gathered.right());
    let mut sides: Vec<&[(u16, Vec<Payload>)]> = vec![&l_parts];
    sides.extend(r_parts.as_deref());

    let mut spliced: Vec<(u64, Vec<Payload>)> = Vec::new();
    let mut metas: Vec<PartMeta> = Vec::new();
    for exec in 0..n_exec {
        let owner = Owner {
            exec,
            n_exec,
            partitions,
        };
        let (got, meta) = reduce_owned(transform, fns, index, &l, r.as_deref(), Some(owner));
        let meta = meta.expect("an owner gets a layout");
        let (want, want_meta) = reference_owned(&whole, owner);
        prop_assert_eq!(
            &got[..],
            &want[..],
            "exec {} of {}, {} partitions",
            exec,
            n_exec,
            partitions
        );
        prop_assert_eq!(&meta, &want_meta);
        prop_assert_eq!(
            index.crossing(exec),
            reference_transfer_cost(&sides, exec, n_exec)
        );
        let mut off = 0usize;
        for (gid, len) in meta.gids.iter().zip(&meta.lens) {
            spliced.push((*gid, got[off..off + len].to_vec()));
            off += len;
        }
        prop_assert_eq!(off, got.len());
        metas.push(meta);
    }
    spliced.sort_by_key(|(gid, _)| *gid);
    let gids: Vec<u64> = spliced.iter().map(|(gid, _)| *gid).collect();
    prop_assert_eq!(gids, (0..metas[0].global_parts).collect::<Vec<u64>>());
    let spliced: Vec<Payload> = spliced.into_iter().flat_map(|(_, recs)| recs).collect();
    prop_assert_eq!(&spliced, &whole);
    Ok((whole, metas))
}

/// A `reduceByKey` over `(sum vector, count)` values that sums in place,
/// as K-Means does, and the function table it runs against.
fn in_place_vector_sum() -> (Transform, FnTable) {
    let mut b = ProgramBuilder::new("t");
    let merge = b.reduce_fn(|mut acc, c| {
        let (Payload::Doubles(vc), nc) = c.as_pair().unwrap() else {
            panic!("expected (sum, count)");
        };
        let (sum, n) = acc.pair_mut().unwrap();
        let sum = sum.doubles_mut().unwrap();
        for (x, y) in sum.iter_mut().zip(vc.iter()) {
            *x += y;
        }
        *n = Payload::Long(n.as_long().unwrap() + nc.as_long().unwrap());
        acc
    });
    (Transform::ReduceByKey(merge), b.finish().1)
}

/// The fold [`in_place_vector_sum`] replaced, kept as its reference: per
/// key in first-appearance order, a fresh vector at every step.
fn reference_vector_sums(records: &[Payload]) -> Vec<Payload> {
    let mut keys: Vec<i64> = Vec::new();
    let mut sums: HashMap<i64, (Vec<f64>, i64)> = HashMap::new();
    for r in records {
        let (k, v) = r.as_pair().unwrap();
        let (Payload::Doubles(v), n) = v.as_pair().unwrap() else {
            panic!("expected (sum, count)");
        };
        let (k, n) = (k.as_long().unwrap(), n.as_long().unwrap());
        match sums.get(&k) {
            None => {
                keys.push(k);
                sums.insert(k, (v.to_vec(), n));
            }
            Some((acc, acc_n)) => {
                let fresh: Vec<f64> = acc.iter().zip(v.iter()).map(|(x, y)| x + y).collect();
                sums.insert(k, (fresh, acc_n + n));
            }
        }
    }
    keys.iter()
        .map(|k| {
            let (sum, n) = &sums[k];
            Payload::keyed(
                *k,
                Payload::pair(Payload::doubles(sum.clone()), Payload::Long(*n)),
            )
        })
        .collect()
}

const EXECUTORS: [u16; 5] = [1, 2, 3, 4, 8];
const PARTITIONS: [usize; 4] = [1, 3, 8, 64];

/// Every transformation of `wide` × every cluster shape over one input.
/// Returns each transformation's whole output.
fn check_every_shape(
    (transforms, fns): &(Vec<Transform>, FnTable),
    left: &[Payload],
    right: &[Payload],
) -> Result<Vec<Vec<Payload>>, TestCaseError> {
    let mut wholes = Vec::new();
    for t in transforms {
        for n_exec in EXECUTORS {
            for partitions in PARTITIONS {
                let (whole, _) = check_ownership(t, fns, left, Some(right), n_exec, partitions)?;
                if n_exec == 1 && partitions == 1 {
                    wholes.push(whole);
                }
            }
        }
    }
    Ok(wholes)
}

/// A join key whose `left × right` run of output records straddles a
/// partition boundary is reduced by both neighbours, each keeping its own
/// end of the run.
#[test]
fn join_run_straddling_a_partition_boundary_is_split_between_its_owners() {
    let (_, fns) = wide_transforms();
    // Key 1 emits 3 x 4 = 12 records at positions 1..13 of 14; with 3
    // partitions of 5 the run crosses both boundaries.
    let left = keyed(&[(0, 0), (1, 10), (1, 11), (1, 12), (2, 20)]);
    let right = keyed(&[(1, 100), (0, 1), (1, 101), (1, 102), (2, 2), (1, 103)]);
    for n_exec in EXECUTORS {
        let (whole, _) = check_ownership(&Transform::Join, &fns, &left, Some(&right), n_exec, 3)
            .expect("join ownership");
        assert_eq!(whole.len(), 14);
        let keys: Vec<i64> = whole
            .iter()
            .map(|r| r.as_pair().unwrap().0.as_long().unwrap())
            .collect();
        assert_eq!(
            &keys[4..6],
            [1, 1],
            "partition 0 | 1 falls inside key 1's run"
        );
        assert_eq!(
            &keys[9..11],
            [1, 1],
            "partition 1 | 2 falls inside key 1's run"
        );
    }
}

/// Keys that occur only on the right side emit nothing, but they take
/// ids after every left key and their records still travel to reducer
/// `id % E` — so they move the transfer tally exactly as before.
#[test]
fn right_only_keys_are_numbered_last_and_still_cross() {
    let (_, fns) = wide_transforms();
    let left = keyed(&[(5, 0), (6, 1), (5, 2)]);
    let right = keyed(&[(9, 0), (6, 1), (8, 2), (9, 3), (7, 4)]);
    let (whole, _) =
        check_ownership(&Transform::Join, &fns, &left, Some(&right), 4, 8).expect("join ownership");
    assert_eq!(whole.len(), 1, "only key 6 is on both sides");
    // Ids: 5 -> 0, 6 -> 1 (left), then 9 -> 2, 8 -> 3, 7 -> 4 (right only).
    let l = [(0u16, &left[..])];
    let r = [(0u16, &right[..])];
    let index = KeyIndex::build(&Transform::Join, 4, &l, Some(&r)).unwrap();
    assert_eq!(index.n_keys(), 5);
    // Everything was mapped on executor 0; reducers 1, 2, 3 and 0 (= 4 % 4)
    // receive key 6's two records, key 9's two, key 8's one, key 7's none.
    let each = left[0].model_bytes();
    assert_eq!(index.crossing(1), (2, 2 * each));
    assert_eq!(index.crossing(2), (2, 2 * each));
    assert_eq!(index.crossing(3), (1, each));
    assert_eq!(index.crossing(0), (5, 5 * each));
}

/// An empty output is one empty partition (`partition_sizes(0, _)` is
/// `[0]`), and executor 0 owns it.
#[test]
fn empty_output_is_one_empty_partition_owned_by_executor_0() {
    assert_eq!(partition_sizes(0, 8), vec![0]);
    let (transforms, fns) = wide_transforms();
    // Nothing in — and, for the join, keys that never meet.
    let mut cases: Vec<(&Transform, Vec<Payload>, Vec<Payload>)> = transforms
        .iter()
        .map(|t| (t, Vec::new(), Vec::new()))
        .collect();
    cases.push((&Transform::Join, keyed(&[(1, 1), (2, 2)]), keyed(&[(3, 3)])));
    for (t, left, right) in &cases {
        for n_exec in EXECUTORS {
            let (whole, metas) =
                check_ownership(t, &fns, left, Some(right), n_exec, 8).expect("empty ownership");
            assert!(whole.is_empty());
            let the_partition = PartMeta {
                gids: vec![0],
                lens: vec![0],
                global_parts: 1,
            };
            assert_eq!(metas[0], the_partition);
            assert!(metas[1..]
                .iter()
                .all(|m| m.gids.is_empty() && m.global_parts == 1));
        }
    }
}

/// More executors than keys: the surplus executors own nothing and
/// reduce nothing, and the rest still splice to the whole output.
#[test]
fn more_executors_than_keys() {
    let (transforms, fns) = wide_transforms();
    let left = keyed(&[(1, 1), (2, 2), (1, 3)]);
    let right = keyed(&[(2, 5), (1, 6)]);
    for t in &transforms {
        for partitions in PARTITIONS {
            check_ownership(t, &fns, &left, Some(&right), 8, partitions).expect("ownership");
        }
    }
}

proptest! {
    /// Skewed keys: many records per key, joins that multiply, `distinct`
    /// with real duplicates.
    #[test]
    fn owned_reduce_matches_reduce_then_slice_on_skewed_keys(
        left in prop::collection::vec((0i64..6, 0i64..4), 0..40),
        right in prop::collection::vec((0i64..8, 0i64..4), 0..12),
    ) {
        check_every_shape(&wide_transforms(), &keyed(&left), &keyed(&right))?;
    }

    /// Unique keys: every key one record, so one output position per key
    /// and (for the join) mostly unmatched keys on both sides.
    #[test]
    fn owned_reduce_matches_reduce_then_slice_on_unique_keys(
        n_left in 0usize..48,
        n_right in 0usize..48,
        stride in 1i64..5,
        values in prop::collection::vec(any::<i64>(), 48),
    ) {
        // Descending on the left so sortByKey has work to do.
        let left: Vec<(i64, i64)> =
            (0..n_left).map(|i| ((n_left - i) as i64 * stride, values[i] >> 1)).collect();
        let right: Vec<(i64, i64)> = (0..n_right).map(|i| (i as i64 * 2, values[i] >> 1)).collect();
        check_every_shape(&wide_transforms(), &keyed(&left), &keyed(&right))?;
    }

    /// Records of every shape — `Text` keys, `Double` keys that share a
    /// `Long` key's shuffle key, list and vector values, non-pair records
    /// — under an order-sensitive combiner: a gathered record decoded
    /// only into the output it lands in gives every executor the output a
    /// lone executor reduces from its heap records, and that output is
    /// the independent references' (each join output carries its own left
    /// record's key, each reduced key its first record's).
    #[test]
    fn owned_reduce_matches_reduce_then_slice_on_mixed_records(
        left in prop::collection::vec(mixed_record(), 0..32),
        right in prop::collection::vec(mixed_record(), 0..12),
    ) {
        let wholes = check_every_shape(&wide_transforms_with(mul31_add), &left, &right)?;
        prop_assert_eq!(&wholes[0], &reference_reduce_by_key(&left, mul31_add));
        prop_assert_eq!(&wholes[3], &reference_join(&left, &right));
    }

    /// reduceByKey with addition preserves the total sum and emits one
    /// record per distinct key.
    #[test]
    fn reduce_by_key_conserves_sums(records in prop::collection::vec((0i64..16, -100i64..100), 0..64)) {
        let mut b = ProgramBuilder::new("t");
        let add = b.reduce_fn(add_longs);
        let (_, fns) = b.finish();
        let keyed_records = keyed(&records);
        let out = reduce_side(&Transform::ReduceByKey(add), &fns, &Buckets::of(&keyed_records, None));
        prop_assert_eq!(&out, &reference_reduce_by_key(&keyed_records, add_longs));

        let expect_total: i64 = records.iter().map(|(_, v)| v).sum();
        let got_total: i64 = out
            .iter()
            .map(|r| r.as_pair().unwrap().1.as_long().unwrap())
            .sum();
        prop_assert_eq!(expect_total, got_total);

        let distinct_keys: std::collections::HashSet<i64> =
            records.iter().map(|(k, _)| *k).collect();
        prop_assert_eq!(out.len(), distinct_keys.len());
    }

    /// A lone executor's streaming fold, fed one record at a time —
    /// owned or borrowed, in any mix — is the bucketed reduce, and both
    /// are the reference fold: the same pairs in the same key order,
    /// through the same combiner calls, which an order-sensitive combiner
    /// would expose. Keys are few (skewed) or all distinct, and a non-pair
    /// record keys on itself.
    #[test]
    fn reduce_fold_matches_the_bucketed_reduce(
        picks in prop::collection::vec((0i64..4, -1000i64..1000, any::<bool>(), any::<bool>()), 0..80),
        unique in any::<bool>(),
    ) {
        let mut b = ProgramBuilder::new("t");
        let f = b.reduce_fn(mul31_add);
        let (_, fns) = b.finish();
        let record = |i: usize| {
            let (k, v, is_pair, _) = picks[i];
            let k = if unique { i as i64 * 4 + k } else { k };
            if is_pair { Payload::keyed(k, Payload::Long(v)) } else { Payload::Long(k) }
        };
        let records: Vec<Payload> = (0..picks.len()).map(record).collect();
        let expect = reduce_side(&Transform::ReduceByKey(f), &fns, &Buckets::of(&records, None));
        prop_assert_eq!(&expect, &reference_reduce_by_key(&records, mul31_add));

        let mut fold = ReduceFold::new(&fns, f);
        for (i, r) in records.iter().enumerate() {
            if picks[i].3 {
                fold.push(record(i));
            } else {
                fold.push_ref(r);
            }
        }
        prop_assert_eq!(fold.finish().unwrap().into_payloads(), expect);
    }

    /// An in-place summing reducer folds bit-equal to one that allocates a
    /// fresh vector per step, and copies before it writes: the cached
    /// vectors its records share storage with, and the bucket records
    /// themselves, come out unchanged.
    #[test]
    fn in_place_fold_matches_a_fresh_fold_and_mutates_no_input(
        dims in 1usize..8,
        cached in prop::collection::vec(prop::collection::vec(-1e6f64..1e6, 8), 1..6),
        picks in prop::collection::vec((0i64..5, any::<prop::sample::Index>(), 1i64..4), 0..40),
    ) {
        let cached: Vec<Payload> = cached.iter().map(|v| Payload::doubles(v[..dims].to_vec())).collect();
        let records: Vec<Payload> = picks
            .iter()
            .map(|(k, at, n)| {
                let point = cached[at.index(cached.len())].clone();
                Payload::keyed(*k, Payload::pair(point, Payload::Long(*n)))
            })
            .collect();
        let prints = |ps: &[Payload]| ps.iter().map(Payload::fingerprint).collect::<Vec<u64>>();
        let (cached_before, records_before) = (prints(&cached), prints(&records));

        let (merge, fns) = in_place_vector_sum();
        let buckets = Buckets::of(&records, None);
        let bucketed = |b: &Buckets<&Payload>| {
            b.iter().flat_map(|(_, l, _)| l.iter().map(|r| r.fingerprint())).collect::<Vec<u64>>()
        };
        let buckets_before = bucketed(&buckets);
        let out = reduce_side(&merge, &fns, &buckets);

        prop_assert_eq!(prints(&out), prints(&reference_vector_sums(&records)));
        prop_assert_eq!(prints(&cached), cached_before);
        prop_assert_eq!(prints(&records), records_before);
        prop_assert_eq!(bucketed(&buckets), buckets_before);

        // Through a gather, each key's accumulator starts as a freshly
        // decoded value: every executor's fold is its slice of the whole
        // output (checked by `check_ownership`), which is the reference's.
        for n_exec in [2, 4] {
            for partitions in PARTITIONS {
                let (whole, _) = check_ownership(&merge, &fns, &records, None, n_exec, partitions)?;
                prop_assert_eq!(prints(&whole), prints(&reference_vector_sums(&records)));
            }
        }
        prop_assert_eq!(prints(&cached), cached_before);
    }

    /// groupByKey loses no records: list lengths sum to the input size.
    #[test]
    fn group_by_key_conserves_records(records in prop::collection::vec((0i64..16, any::<i64>()), 0..64)) {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let out = reduce_side(&Transform::GroupByKey, &fns, &Buckets::of(&keyed(&records), None));
        let total: usize = out
            .iter()
            .map(|r| match r.as_pair().unwrap().1 {
                Payload::List(items) => items.len(),
                other => panic!("expected list, got {other:?}"),
            })
            .sum();
        prop_assert_eq!(total, records.len());
    }

    /// distinct is idempotent and never grows the input.
    #[test]
    fn distinct_is_idempotent(records in prop::collection::vec((0i64..8, 0i64..4), 0..64)) {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let once = reduce_side(&Transform::Distinct, &fns, &Buckets::of(&keyed(&records), None));
        prop_assert!(once.len() <= records.len());
        let twice = reduce_side(&Transform::Distinct, &fns, &Buckets::of(&once, None));
        prop_assert_eq!(once, twice);
    }

    /// join emits exactly |L_k| * |R_k| records per key.
    #[test]
    fn join_counts_are_products(
        left in prop::collection::vec((0i64..6, any::<i64>()), 0..32),
        right in prop::collection::vec((0i64..6, any::<i64>()), 0..32),
    ) {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let (left_records, right_records) = (keyed(&left), keyed(&right));
        let buckets = Buckets::of(&left_records, Some(&right_records));
        let out = reduce_side(&Transform::Join, &fns, &buckets);
        let mut expect = 0usize;
        for k in 0..6i64 {
            let l = left.iter().filter(|(lk, _)| *lk == k).count();
            let r = right.iter().filter(|(rk, _)| *rk == k).count();
            expect += l * r;
        }
        prop_assert_eq!(out.len(), expect);
    }

    /// Buckets count exactly what goes in.
    #[test]
    fn buckets_conserve(records in prop::collection::vec((any::<i64>(), any::<i64>()), 0..64)) {
        let keyed_records = keyed(&records);
        let b = Buckets::of(&keyed_records, None);
        prop_assert_eq!(b.n_records(), records.len());
        let distinct: std::collections::HashSet<i64> = records.iter().map(|(k, _)| *k).collect();
        prop_assert_eq!(b.n_keys(), distinct.len());
    }
}
