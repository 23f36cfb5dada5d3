//! Shuffle semantics: who reduces which key, and the reduce side of the
//! wide transformations.
//!
//! A shuffle's map output is every map-side partition of its one or two
//! inputs, scanned in global-partition order. [`KeyIndex`] is the one
//! pass over that output that hashes: it numbers the keys, counts each
//! key's records, tallies the cross-executor traffic, and — because every
//! wide transformation but `distinct` fixes a key's output count from its
//! record counts alone — lays the reduce output out position by position
//! before a single record is reduced. An executor then selects the keys
//! whose output lands in partitions it owns ([`KeyIndex::select`]),
//! buckets only their records ([`Buckets`]), runs the reduce side
//! ([`reduce_side`]) and trims a key that straddles a partition boundary
//! ([`reduce_owned`] is the whole sequence).
//!
//! A record stays in the form it arrived in ([`MapRecord`]): a bucket
//! borrows it — a `&Payload` of a lone executor's own output, a `WireRef`
//! into a gathered batch — and the reducer that emits it decodes only
//! what lands in its output: a key, a value, or the whole record once it
//! is known to be kept. `distinct` and `sortByKey` emit records whole,
//! so their output stays borrowed until it is trimmed to the owned
//! positions, and an executor decodes only the records it keeps.
//!
//! A lone executor reduces `reduceByKey` without any of that: a
//! [`ReduceFold`] folds each map-side record into its key's accumulator
//! as the record is produced — Spark's map-side combine — so that map
//! output is never collected, indexed or bucketed. The index and the
//! buckets serve the cluster, which must gather every executor's map
//! output before it reduces, and the other four wide transformations.
//!
//! The heap effects (disk traffic, `ShuffledRDD` materialization) are
//! charged by the engine; this is pure record logic.

use crate::cluster::{Owner, PartMeta};
use crate::records::Records;
use mheap::{Key, Payload, WireRef};
use sparklang::{FnTable, FuncId, Transform, UserFn};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::rc::Rc;

/// FxHash-style multiplicative hasher: one rotate-xor-multiply per 8-byte
/// word. Shuffle keys are one or two words, so this is a handful of
/// instructions per insert versus SipHash's full rounds — and unlike
/// `RandomState` it is deterministic across processes, which keeps bucket
/// iteration order (and therefore simulated cost) reproducible.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.write_u64(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(FX_SEED);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Deterministic build-hasher for shuffle-side hash maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A map-side record that has no shuffle key: neither a pair nor a
/// scalar, or a pair whose key is neither. A wide transformation cannot
/// place it, so the run stops with this error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeylessRecord {
    /// The record, as `{:?}` prints it.
    pub record: String,
}

impl KeylessRecord {
    fn of(record: &Payload) -> KeylessRecord {
        KeylessRecord {
            record: format!("{record:?}"),
        }
    }
}

impl fmt::Display for KeylessRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "payload {} has no shuffle key", self.record)
    }
}

impl std::error::Error for KeylessRecord {}

/// A map-output record in either of its forms: a heap [`Payload`] of a
/// lone executor's own output, or a packed record of a gathered one. The
/// shuffle's buckets hold records in this form, and each reducer reads
/// off a record only what it emits — its key, its value, its fingerprint,
/// or the whole record. Decoding the heap form is a clone, which shares
/// the record's storage; sizing it walks it, and a packed record is sized
/// as it is decoded.
/// (The impls are `#[inline]` because the shuffle is instantiated in
/// downstream crates and would otherwise pay a second call per record to
/// get here.)
pub trait MapRecord: Copy {
    /// The record's grouping key ([`Payload::try_shuffle_key`]), `None`
    /// for a keyless record.
    fn shuffle_key(self) -> Option<Key>;
    /// The record's modelled size ([`Payload::model_bytes`]).
    fn model_bytes(self) -> u64;
    /// The record's structural hash ([`Payload::fingerprint`]).
    fn fingerprint(self) -> u64;
    /// The whole record as a heap payload.
    fn to_payload(self) -> Payload;
    /// The whole record as a heap payload, with its modelled size.
    fn to_sized(self) -> (Payload, u64);
    /// A pair record's key half, or the record itself, as a heap payload.
    fn key_payload(self) -> Payload;
    /// A pair record's value half, or the record itself: borrowed from
    /// the heap form, decoded alone — no pair box — from the packed one.
    fn value_of(&self) -> Cow<'_, Payload>;
    /// [`MapRecord::value_of`], with what the value models.
    fn value_sized(&self) -> (Cow<'_, Payload>, u64);
}

impl MapRecord for &Payload {
    #[inline]
    fn shuffle_key(self) -> Option<Key> {
        Payload::try_shuffle_key(self)
    }
    #[inline]
    fn model_bytes(self) -> u64 {
        Payload::model_bytes(self)
    }
    #[inline]
    fn fingerprint(self) -> u64 {
        Payload::fingerprint(self)
    }
    #[inline]
    fn to_payload(self) -> Payload {
        self.clone()
    }
    #[inline]
    fn to_sized(self) -> (Payload, u64) {
        (self.clone(), Payload::model_bytes(self))
    }
    #[inline]
    fn key_payload(self) -> Payload {
        self.as_pair().map_or(self, |(k, _)| k).clone()
    }
    #[inline]
    fn value_of(&self) -> Cow<'_, Payload> {
        Cow::Borrowed(value_ref(self))
    }
    #[inline]
    fn value_sized(&self) -> (Cow<'_, Payload>, u64) {
        let value = value_ref(self);
        (Cow::Borrowed(value), value.model_bytes())
    }
}

impl MapRecord for WireRef<'_> {
    #[inline]
    fn shuffle_key(self) -> Option<Key> {
        WireRef::try_shuffle_key(self)
    }
    #[inline]
    fn model_bytes(self) -> u64 {
        WireRef::model_bytes(self)
    }
    #[inline]
    fn fingerprint(self) -> u64 {
        WireRef::fingerprint(self)
    }
    #[inline]
    fn to_payload(self) -> Payload {
        WireRef::to_payload(self)
    }
    #[inline]
    fn to_sized(self) -> (Payload, u64) {
        WireRef::to_sized_payload(self)
    }
    #[inline]
    fn key_payload(self) -> Payload {
        self.halves().map_or(self, |(k, _)| k).to_payload()
    }
    #[inline]
    fn value_of(&self) -> Cow<'_, Payload> {
        Cow::Owned(self.halves().map_or(*self, |(_, v)| v).to_payload())
    }
    #[inline]
    fn value_sized(&self) -> (Cow<'_, Payload>, u64) {
        let (value, bytes) = self.halves().map_or(*self, |(_, v)| v).to_sized_payload();
        (Cow::Owned(value), bytes)
    }
}

/// A map-side partition: anything cheap to copy that iterates its
/// [`MapRecord`]s and knows how many there are — `&[Payload]` and
/// `&WireBatch`.
pub trait MapPart: Copy + IntoIterator<Item: MapRecord, IntoIter: ExactSizeIterator> {}

impl<P> MapPart for P where P: Copy + IntoIterator<Item: MapRecord, IntoIter: ExactSizeIterator> {}

/// One side of a shuffle's map output in scan order: `(origin executor,
/// partition)` per map-side partition, ascending by global partition id.
pub type MapSide<P> = [(u16, P)];

/// "This executor does not reduce the key" in [`Selection::slot_of`].
const NO_SLOT: u32 = u32::MAX;

/// The key index of one shuffle: built once from the complete map output,
/// read by every executor.
///
/// Key ids are dense and follow first appearance over the left side's
/// scan, then the right side's — so the left side's keys take the first
/// ids, in the order its buckets have always been kept in, and keys that
/// occur only on the right come after every one of them. The transfer
/// tally places key `id`'s reducer on executor `id % E`: a cost-model
/// rule of its own, older than and independent of which executor's
/// output partitions the key's records end up in.
#[derive(Debug)]
pub struct KeyIndex {
    /// The key behind each id.
    keys: Vec<Key>,
    /// Records per key as `(left, right)`.
    counts: Vec<(u32, u32)>,
    /// Key id of every record, per side, in scan order.
    ids: [Vec<u32>; 2],
    /// Per executor, the `(records, bytes)` that cross its boundary: the
    /// records it maps for another executor's reducer plus the records
    /// other executors map for its own.
    crossing: Vec<(u64, u64)>,
    /// Left key ids in the order the reduce side emits them: ascending
    /// key for `sortByKey`, id order otherwise.
    emit: Vec<u32>,
    /// Cumulative output count along `emit` — `reduceByKey`/`groupByKey`
    /// emit 1 record per key, `join` `left × right`, `sortByKey` `left`.
    /// `None` for `distinct`, whose count depends on record contents.
    ends: Option<Vec<usize>>,
}

impl KeyIndex {
    /// Index the map output of a `transform` shuffle gathered from
    /// `n_exec` executors. A record's modelled size is only asked of
    /// crossing records.
    ///
    /// # Errors
    ///
    /// [`KeylessRecord`] for the first record without a shuffle key.
    pub fn build<P: MapPart>(
        transform: &Transform,
        n_exec: u16,
        left: &MapSide<P>,
        right: Option<&MapSide<P>>,
    ) -> Result<KeyIndex, KeylessRecord> {
        let n_exec = usize::from(n_exec.max(1));
        let mut id_of: HashMap<Key, u32, FxBuildHasher> = HashMap::default();
        let mut keys = Vec::new();
        let mut counts: Vec<(u32, u32)> = Vec::new();
        let mut crossing = vec![(0u64, 0u64); n_exec];
        let mut scan = |side: &MapSide<P>, is_right: bool| -> Result<Vec<u32>, KeylessRecord> {
            let n_records = side.iter().map(|(_, part)| part.into_iter().len()).sum();
            let mut ids = Vec::with_capacity(n_records);
            for &(origin, records) in side {
                for r in records {
                    let k = r
                        .shuffle_key()
                        .ok_or_else(|| KeylessRecord::of(&r.to_payload()))?;
                    let id = *id_of.entry(k).or_insert_with(|| {
                        let id = u32::try_from(keys.len()).expect("shuffle key ids fit in u32");
                        assert_ne!(id, NO_SLOT, "shuffle key ids fit in u32");
                        keys.push(k);
                        counts.push((0, 0));
                        id
                    });
                    let count = &mut counts[id as usize];
                    if is_right {
                        count.1 += 1;
                    } else {
                        count.0 += 1;
                    }
                    let reducer = id as usize % n_exec;
                    if reducer != usize::from(origin) {
                        let b = r.model_bytes();
                        for e in [usize::from(origin), reducer] {
                            crossing[e].0 += 1;
                            crossing[e].1 += b;
                        }
                    }
                    ids.push(id);
                }
            }
            Ok(ids)
        };
        let left_ids = scan(left, false)?;
        let right_ids = right.map_or(Ok(Vec::new()), |r| scan(r, true))?;
        // Right-only keys were numbered after every left key.
        let left_keys = counts.partition_point(|c| c.0 > 0);
        let mut emit: Vec<u32> = (0..left_keys as u32).collect();
        if matches!(transform, Transform::SortByKey) {
            emit.sort_by_key(|&id| keys[id as usize]);
        }
        let count_of = |id: u32| -> Option<usize> {
            let (l, r) = counts[id as usize];
            match transform {
                Transform::ReduceByKey(_) | Transform::GroupByKey => Some(1),
                Transform::Join => Some(l as usize * r as usize),
                Transform::SortByKey => Some(l as usize),
                _ => None,
            }
        };
        let mut total = 0usize;
        let ends = emit
            .iter()
            .map(|&id| {
                total += count_of(id)?;
                Some(total)
            })
            .collect();
        Ok(KeyIndex {
            keys,
            counts,
            ids: [left_ids, right_ids],
            crossing,
            emit,
            ends,
        })
    }

    /// Distinct keys across both sides.
    pub fn n_keys(&self) -> usize {
        self.keys.len()
    }

    /// The `(records, bytes)` crossing executor `exec`'s boundary.
    pub fn crossing(&self, exec: u16) -> (u64, u64) {
        self.crossing[usize::from(exec)]
    }

    /// Length of the shuffle's complete output, when the transformation
    /// fixes it before the reduce (`None` for `distinct`).
    pub fn total_out(&self) -> Option<usize> {
        self.ends.as_ref().map(|e| e.last().copied().unwrap_or(0))
    }

    /// Select the keys whose output overlaps `owned` — ascending, disjoint
    /// ranges of output positions — and say where the selected keys'
    /// output sits in the complete output. `None` selects every left key;
    /// so does a shuffle whose positions are not known yet
    /// ([`Self::total_out`] is `None`), which has to be reduced whole and
    /// trimmed afterwards. Selecting everything returns no chunk list:
    /// the reduce output then *is* the complete output.
    fn select(&self, owned: Option<&[Range<usize>]>) -> (Selection, Option<Vec<Seg>>) {
        let mut sel = Selection {
            slot_of: vec![NO_SLOT; self.keys.len()],
            keys: Vec::new(),
            sizes: [Vec::new(), Vec::new()],
        };
        let take = |sel: &mut Selection, at: usize| {
            let id = self.emit[at] as usize;
            sel.slot_of[id] = sel.keys.len() as u32;
            sel.keys.push(self.keys[id]);
            sel.sizes[0].push(self.counts[id].0);
            sel.sizes[1].push(self.counts[id].1);
        };
        let (Some(owned), Some(ends)) = (owned, &self.ends) else {
            for at in 0..self.emit.len() {
                take(&mut sel, at);
            }
            return (sel, None);
        };
        let mut segs: Vec<Seg> = Vec::new();
        // First emit position not yet considered: one key can overlap
        // two owned ranges (or span the gap between them).
        let mut next = 0usize;
        for range in owned.iter().filter(|r| !r.is_empty()) {
            let first = ends.partition_point(|&e| e <= range.start).max(next);
            let last = ends.partition_point(|&e| e < range.end);
            for at in first..=last {
                let start = if at == 0 { 0 } else { ends[at - 1] };
                let len = ends[at] - start;
                if len == 0 {
                    continue;
                }
                take(&mut sel, at);
                match segs.last_mut() {
                    Some((s, l)) if *s + *l == start => *l += len,
                    _ => segs.push((start, len)),
                }
            }
            next = last + 1;
        }
        (sel, Some(segs))
    }
}

/// A run of the reduce output that is consecutive in the shuffle's
/// complete output: `(first position, length)`.
type Seg = (usize, usize);

/// The keys one executor reduces, in emit order.
#[derive(Debug)]
struct Selection {
    /// Key id → bucket slot, [`NO_SLOT`] for a key reduced elsewhere.
    slot_of: Vec<u32>,
    /// The selected keys, by slot.
    keys: Vec<Key>,
    /// Records per selected key, per side, by slot.
    sizes: [Vec<u32>; 2],
}

/// Keep of `out` — the reduce output of a selection, laid out in the
/// complete output as `segs` says (`None`: it is the complete output) —
/// the records at the `owned` positions (ascending, disjoint, and covered
/// by the selection).
fn trim<T>(out: Vec<T>, segs: Option<&[Seg]>, owned: &[Range<usize>]) -> Vec<T> {
    let n_owned: usize = owned.iter().map(Range::len).sum();
    if n_owned == out.len() {
        return out;
    }
    let whole = [(0, out.len())];
    let segs = segs.unwrap_or(&whole);
    let mut kept = Vec::with_capacity(n_owned);
    let mut records = out.into_iter();
    let mut seg_off = 0usize; // offset of the current chunk in `out`
    let mut taken = 0usize; // records of `out` consumed so far
    let mut ri = 0usize;
    for &(start, len) in segs {
        while ri < owned.len() && owned[ri].end <= start {
            ri += 1;
        }
        for range in &owned[ri..] {
            if range.start >= start + len {
                break;
            }
            let lo = seg_off + range.start.max(start) - start;
            let hi = seg_off + range.end.min(start + len) - start;
            kept.extend(records.by_ref().skip(lo - taken).take(hi - lo));
            taken = hi;
        }
        seg_off += len;
    }
    debug_assert_eq!(
        kept.len(),
        n_owned,
        "selection does not cover owned positions"
    );
    kept
}

/// One side's records grouped by bucket slot: slot `s` holds
/// `flat[offs[s]..offs[s + 1]]`, in scan order.
#[derive(Debug)]
struct Side<R> {
    flat: Vec<R>,
    offs: Vec<usize>,
}

impl<R: MapRecord> Side<R> {
    /// Place the selected records of `side`, as they are: a bucket
    /// borrows its records and converts none. The buckets share one
    /// allocation laid out in slot order, sized from the index's counts,
    /// so nothing hashes and nothing reallocates.
    fn fill<P: MapPart<Item = R>>(
        sel: &Selection,
        sizes: &[u32],
        ids: &[u32],
        side: &MapSide<P>,
    ) -> Side<R> {
        let mut offs = Vec::with_capacity(sizes.len() + 1);
        let mut total = 0usize;
        offs.push(0);
        for &n in sizes {
            total += n as usize;
            offs.push(total);
        }
        // Every position is written exactly once below; until then it
        // holds a copy of the side's first record, which exists whenever
        // a position does.
        let mut flat = match side
            .iter()
            .find_map(|&(_, records)| records.into_iter().next())
        {
            Some(first) => vec![first; total],
            None => Vec::new(),
        };
        let mut next = offs.clone();
        let mut ids = ids.iter();
        for &(_, records) in side {
            for (r, &id) in records.into_iter().zip(ids.by_ref()) {
                let slot = sel.slot_of[id as usize];
                if slot != NO_SLOT {
                    let at = &mut next[slot as usize];
                    flat[*at] = r;
                    *at += 1;
                }
            }
        }
        Side { flat, offs }
    }

    fn bucket(&self, slot: usize) -> &[R] {
        &self.flat[self.offs[slot]..self.offs[slot + 1]]
    }
}

/// Map-side output grouped by key: one bucket per selected key and side,
/// indexed by slot, in emit order (first appearance on the left side, or
/// ascending key under `sortByKey`). The buckets borrow their records
/// from the map output.
#[derive(Debug)]
pub struct Buckets<R> {
    keys: Vec<Key>,
    left: Side<R>,
    /// Slot-aligned with `left`; `None` for one-input shuffles.
    right: Option<Side<R>>,
}

impl<R: MapRecord> Buckets<R> {
    /// Bucket the records of the keys `sel` selects; records of other
    /// keys are not touched. `left` and `right` must be the map output
    /// `index` was built from.
    fn fill<P: MapPart<Item = R>>(
        index: &KeyIndex,
        sel: Selection,
        left: &MapSide<P>,
        right: Option<&MapSide<P>>,
    ) -> Buckets<R> {
        let l = Side::fill(&sel, &sel.sizes[0], &index.ids[0], left);
        let r = right.map(|r| Side::fill(&sel, &sel.sizes[1], &index.ids[1], r));
        Buckets {
            keys: sel.keys,
            left: l,
            right: r,
        }
    }

    /// Number of distinct (left-side) keys.
    pub fn n_keys(&self) -> usize {
        self.keys.len()
    }

    /// Total left-side records across all keys.
    pub fn n_records(&self) -> usize {
        self.left.flat.len()
    }

    /// Iterate `(key, left records, right records)` in slot order; the
    /// right bucket is empty for one-input shuffles.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &[R], &[R])> + '_ {
        self.keys.iter().enumerate().map(move |(slot, k)| {
            let right = self.right.as_ref().map_or(&[][..], |r| r.bucket(slot));
            (*k, self.left.bucket(slot), right)
        })
    }
}

impl<'a> Buckets<&'a Payload> {
    /// Every record of a lone executor's map output, bucketed in
    /// first-appearance order — the input [`reduce_side`] takes for any
    /// transformation (indexed as for `distinct`, i.e. with no output
    /// layout, since nothing is going to be selected by position).
    ///
    /// # Panics
    ///
    /// Panics if a record has no shuffle key.
    pub fn of(left: &'a [Payload], right: Option<&'a [Payload]>) -> Buckets<&'a Payload> {
        let left = [(0u16, left)];
        let right = right.map(|r| [(0u16, r)]);
        let right = right.as_ref().map(|r| &r[..]);
        let index = KeyIndex::build(&Transform::Distinct, 1, &left, right)
            .unwrap_or_else(|e| panic!("{e}"));
        Buckets::fill(&index, index.select(None).0, &left, right)
    }
}

/// The value of a pair record (or the record itself if not a pair).
fn value_ref(record: &Payload) -> &Payload {
    record.as_pair().map_or(record, |(_, v)| v)
}

/// The reduce side's output before decoding: records it builds, each
/// with the size taken as it was built, or the map-side records it emits
/// whole (`distinct`, `sortByKey`), still borrowed — so that trimming
/// them to the owned positions comes before decoding any.
enum Reduced<R> {
    Built(Vec<Payload>, Vec<u64>),
    Kept(Vec<R>),
}

impl<R: MapRecord> Reduced<R> {
    fn len(&self) -> usize {
        match self {
            Reduced::Built(out, _) => out.len(),
            Reduced::Kept(out) => out.len(),
        }
    }

    fn trim(self, segs: Option<&[Seg]>, owned: &[Range<usize>]) -> Reduced<R> {
        match self {
            Reduced::Built(out, sizes) => {
                Reduced::Built(trim(out, segs, owned), trim(sizes, segs, owned))
            }
            Reduced::Kept(out) => Reduced::Kept(trim(out, segs, owned)),
        }
    }

    fn decode(self) -> Records {
        match self {
            Reduced::Built(out, sizes) => Records::new(out, sizes),
            Reduced::Kept(out) => out.into_iter().map(R::to_sized).collect(),
        }
    }
}

/// Run the reduce side of `transform` over bucketed map output.
///
/// # Panics
///
/// Panics if `transform` is narrow, if a required function id is of the
/// wrong kind, or if `Join` is invoked over one-input buckets.
pub fn reduce_side<R: MapRecord>(
    transform: &Transform,
    fns: &FnTable,
    buckets: &Buckets<R>,
) -> Vec<Payload> {
    reduce(transform, fns, buckets).decode().into_payloads()
}

fn reduce<R: MapRecord>(transform: &Transform, fns: &FnTable, buckets: &Buckets<R>) -> Reduced<R> {
    match transform {
        Transform::ReduceByKey(f) => {
            let (out, sizes) = reduce_by_key(fns, *f, buckets);
            Reduced::Built(out, sizes)
        }
        Transform::GroupByKey => {
            let (out, sizes) = group_by_key(buckets);
            Reduced::Built(out, sizes)
        }
        Transform::Distinct => Reduced::Kept(distinct(buckets)),
        Transform::Join => {
            let (out, sizes) = join(buckets);
            Reduced::Built(out, sizes)
        }
        Transform::SortByKey => Reduced::Kept(sort_by_key(buckets)),
        other => panic!("{} is not a wide transformation", other.name()),
    }
}

/// One executor's share of a shuffle, start to finish: select the keys
/// behind the output partitions `owner` owns, bucket only their records,
/// reduce, trim to the owned positions, decode what is left, and describe
/// the result's partition layout. Each output record carries the size
/// its reducer or its decode took. Without an `owner` (a lone executor)
/// every key is reduced and there is no layout to describe.
///
/// The result equals reducing the whole map output and then keeping
/// `owner`'s partitions of it.
pub fn reduce_owned<P: MapPart>(
    transform: &Transform,
    fns: &FnTable,
    index: &KeyIndex,
    left: &MapSide<P>,
    right: Option<&MapSide<P>>,
    owner: Option<Owner>,
) -> (Records, Option<PartMeta>) {
    // Ownership is decided before the reduce wherever the transformation
    // lets it be; `distinct` finds out how long its output is by running.
    let early = owner.zip(index.total_out()).map(|(o, n)| o.parts(n));
    let (sel, segs) = index.select(early.as_ref().map(|(_, owned)| &owned[..]));
    let buckets = Buckets::fill(index, sel, left, right);
    let out = reduce(transform, fns, &buckets);
    match early.or_else(|| owner.map(|o| o.parts(out.len()))) {
        Some((meta, owned)) => (out.trim(segs.as_deref(), &owned).decode(), Some(meta)),
        None => (out.decode(), None),
    }
}

fn combiner(fns: &FnTable, f: FuncId) -> &dyn Fn(Payload, &Payload) -> Payload {
    match fns.get(f) {
        UserFn::Reduce(f) => f,
        other => panic!("reduceByKey requires a reduce function, got {other:?}"),
    }
}

/// Fold each key's values left to right into an owned accumulator. The
/// accumulator starts as the key's first value — a shallow copy of a heap
/// record's, a freshly decoded one of a packed record's — and every later
/// value is borrowed or decoded alone. A reducer that updates the
/// accumulator in place copies a shallow copy's storage once, at the
/// key's first merge, and a decoded one's never. [`ReduceFold`] is the
/// same fold over unbucketed records. Returns the records and their
/// sizes.
fn reduce_by_key<R: MapRecord>(
    fns: &FnTable,
    f: FuncId,
    buckets: &Buckets<R>,
) -> (Vec<Payload>, Vec<u64>) {
    let combine = combiner(fns, f);
    let mut out = Vec::with_capacity(buckets.n_keys());
    let mut sizes = Vec::with_capacity(buckets.n_keys());
    for (_, records, _) in buckets.iter() {
        let mut acc = records[0].value_of().into_owned();
        for r in &records[1..] {
            acc = combine(acc, &r.value_of());
        }
        let record = Payload::pair(records[0].key_payload(), acc);
        sizes.push(record.model_bytes());
        out.push(record);
    }
    (out, sizes)
}

/// `reduceByKey` as one streaming pass over unbucketed map output: each
/// record is folded into its key's accumulator as it arrives. Keys take
/// slots in first-appearance order, and [`ReduceFold::finish`] emits one
/// `(key, accumulator)` pair per slot in that order.
///
/// The result is [`reduce_side`]'s for `ReduceByKey` over [`Buckets::of`]
/// the same records, combiner call for combiner call: a key's
/// accumulator starts as its first value, every later value is borrowed,
/// and a non-pair record keys on itself. Only the first value's storage
/// differs. An owned record ([`ReduceFold::push`]) hands its value over
/// whole, so an in-place reducer copies just the storage that another
/// holder still shares; a borrowed one ([`ReduceFold::push_ref`]) starts
/// the accumulator as a shallow copy, as the bucketed fold does.
pub struct ReduceFold<'f> {
    combine: &'f dyn Fn(Payload, &Payload) -> Payload,
    slot_of: HashMap<Key, usize, FxBuildHasher>,
    /// `(key, accumulator)` per slot.
    slots: Vec<(Payload, Payload)>,
    /// The first record without a shuffle key, which fails the fold.
    keyless: Option<KeylessRecord>,
}

impl<'f> ReduceFold<'f> {
    /// An empty fold with the reduce function `f` of `fns` as combiner.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a reduce function.
    pub fn new(fns: &'f FnTable, f: FuncId) -> ReduceFold<'f> {
        ReduceFold {
            combine: combiner(fns, f),
            slot_of: HashMap::default(),
            slots: Vec::new(),
            keyless: None,
        }
    }

    /// Fold in a record the caller gives up.
    pub fn push(&mut self, record: Payload) {
        match self.slot(&record) {
            Some(slot) if slot < self.slots.len() => self.merge(slot, value_ref(&record)),
            Some(_) => self.slots.push(match record {
                Payload::Pair(p) => Rc::try_unwrap(p).unwrap_or_else(|p| p.as_ref().clone()),
                other => (other.clone(), other),
            }),
            None => {}
        }
    }

    /// Fold in a record that stays with the caller.
    pub fn push_ref(&mut self, record: &Payload) {
        match self.slot(record) {
            Some(slot) if slot < self.slots.len() => self.merge(slot, value_ref(record)),
            Some(_) => self
                .slots
                .push((record.key_payload(), record.value_of().into_owned())),
            None => {}
        }
    }

    /// The slot of `record`'s key — one past the last for a new key —
    /// or `None` for a keyless record, the first of which is kept.
    fn slot(&mut self, record: &Payload) -> Option<usize> {
        let Some(key) = record.try_shuffle_key() else {
            self.keyless
                .get_or_insert_with(|| KeylessRecord::of(record));
            return None;
        };
        let next = self.slots.len();
        Some(*self.slot_of.entry(key).or_insert(next))
    }

    fn merge(&mut self, slot: usize, value: &Payload) {
        let acc = &mut self.slots[slot].1;
        *acc = (self.combine)(std::mem::take(acc), value);
    }

    /// One `(key, accumulator)` pair per key, in first-appearance order,
    /// each sized as it is built.
    ///
    /// # Errors
    ///
    /// [`KeylessRecord`] if any record pushed had no shuffle key.
    pub fn finish(self) -> Result<Records, KeylessRecord> {
        match self.keyless {
            Some(e) => Err(e),
            None => Ok(self
                .slots
                .into_iter()
                .map(|(key, acc)| {
                    let record = Payload::pair(key, acc);
                    let bytes = record.model_bytes();
                    (record, bytes)
                })
                .collect()),
        }
    }
}

/// Each key's values in one list, sized from the values' own sizes.
fn group_by_key<R: MapRecord>(buckets: &Buckets<R>) -> (Vec<Payload>, Vec<u64>) {
    buckets
        .iter()
        .map(|(_, records, _)| {
            let key = records[0].key_payload();
            // The pair's box, the key, and the list's box and values.
            let mut bytes = 2 * Payload::BOX_BYTES + key.model_bytes();
            let values = (records.iter())
                .map(|r| {
                    let (value, value_bytes) = r.value_sized();
                    bytes += value_bytes;
                    value.into_owned()
                })
                .collect();
            (Payload::pair(key, Payload::list(values)), bytes)
        })
        .unzip()
}

/// The first record of every fingerprint, in bucket order, by reference.
fn distinct<R: MapRecord>(buckets: &Buckets<R>) -> Vec<R> {
    let mut seen: HashSet<u64, FxBuildHasher> = HashSet::default();
    let mut out = Vec::new();
    for (_, records, _) in buckets.iter() {
        for &r in records {
            if seen.insert(r.fingerprint()) {
                out.push(r);
            }
        }
    }
    out
}

/// The left records in ascending key order, by reference.
fn sort_by_key<R: MapRecord>(buckets: &Buckets<R>) -> Vec<R> {
    let mut keyed: Vec<(Key, &[R])> = buckets.iter().map(|(k, l, _)| (k, l)).collect();
    keyed.sort_by_key(|(k, _)| *k);
    let mut out = Vec::with_capacity(buckets.n_records());
    for (_, records) in keyed {
        out.extend_from_slice(records);
    }
    out
}

/// Every `(key, (left value, right value))` of each key, left-major. The
/// key's right values, and each left record's key and value, are decoded
/// and sized once and shared by the pairs they occur in; a pair's size is
/// the sum of its parts' plus two pair boxes.
fn join<R: MapRecord>(buckets: &Buckets<R>) -> (Vec<Payload>, Vec<u64>) {
    assert!(buckets.right.is_some(), "join needs two inputs");
    let n_out = buckets.iter().map(|(_, l, r)| l.len() * r.len()).sum();
    let mut out = Vec::with_capacity(n_out);
    let mut sizes = Vec::with_capacity(n_out);
    let mut right = Vec::new();
    for (_, lrecords, rrecords) in buckets.iter() {
        if rrecords.is_empty() {
            continue;
        }
        right.clear();
        right.extend(rrecords.iter().map(|r| {
            let (value, bytes) = r.value_sized();
            (value.into_owned(), bytes)
        }));
        for l in lrecords {
            let key = l.key_payload();
            let (value, value_bytes) = l.value_sized();
            let value = value.into_owned();
            let outer = 2 * Payload::BOX_BYTES + key.model_bytes() + value_bytes;
            for (r, r_bytes) in &right {
                out.push(Payload::pair(
                    key.clone(),
                    Payload::pair(value.clone(), r.clone()),
                ));
                sizes.push(outer + r_bytes);
            }
        }
    }
    (out, sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklang::ProgramBuilder;

    fn keyed(k: i64, v: i64) -> Payload {
        Payload::keyed(k, Payload::Long(v))
    }

    fn bucket(records: &[Payload]) -> Buckets<&Payload> {
        Buckets::of(records, None)
    }

    #[test]
    fn reduce_by_key_sums() {
        let mut b = ProgramBuilder::new("t");
        let add = b.reduce_fn(|a, c| Payload::Long(a.as_long().unwrap() + c.as_long().unwrap()));
        let (_, fns) = b.finish();
        let records = [keyed(1, 10), keyed(2, 5), keyed(1, 7)];
        let buckets = bucket(&records);
        let out = reduce_side(&Transform::ReduceByKey(add), &fns, &buckets);
        assert_eq!(out, vec![keyed(1, 17), keyed(2, 5)]);
    }

    #[test]
    fn group_by_key_builds_lists() {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let records = [keyed(1, 10), keyed(1, 20)];
        let buckets = bucket(&records);
        let out = reduce_side(&Transform::GroupByKey, &fns, &buckets);
        assert_eq!(out.len(), 1);
        let (k, v) = out[0].as_pair().unwrap();
        assert_eq!(k.as_long(), Some(1));
        assert!(matches!(v, Payload::List(items) if items.len() == 2));
    }

    #[test]
    fn distinct_dedupes_whole_records() {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let records = [keyed(1, 10), keyed(1, 10), keyed(1, 11)];
        let buckets = bucket(&records);
        let out = reduce_side(&Transform::Distinct, &fns, &buckets);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn join_is_a_cross_product_per_key() {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let left = [keyed(1, 10), keyed(1, 11), keyed(2, 20)];
        let right = [keyed(1, 100), keyed(3, 300)];
        let out = reduce_side(&Transform::Join, &fns, &Buckets::of(&left, Some(&right)));
        // Key 1: 2x1 combinations; key 2 and 3 have no match.
        assert_eq!(out.len(), 2);
        let (k, v) = out[0].as_pair().unwrap();
        assert_eq!(k.as_long(), Some(1));
        let (l, r) = v.as_pair().unwrap();
        assert_eq!(l.as_long(), Some(10));
        assert_eq!(r.as_long(), Some(100));
    }

    #[test]
    fn sort_by_key_orders_records() {
        let (_, fns) = ProgramBuilder::new("t").finish();
        let records = [keyed(5, 50), keyed(1, 10), keyed(3, 30), keyed(1, 11)];
        let buckets = bucket(&records);
        let out = reduce_side(&Transform::SortByKey, &fns, &buckets);
        let keys: Vec<i64> = out
            .iter()
            .map(|r| r.as_pair().unwrap().0.as_long().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 1, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "not a wide transformation")]
    fn narrow_transform_rejected() {
        let (_, fns) = ProgramBuilder::new("t").finish();
        reduce_side(&Transform::Values, &fns, &bucket(&[]));
    }

    #[test]
    fn keyless_records_are_errors() {
        let mut b = ProgramBuilder::new("t");
        let first = b.reduce_fn(|a, _| a);
        let (_, fns) = b.finish();
        let point = Payload::doubles(vec![1.0, 2.0]);
        let mut fold = ReduceFold::new(&fns, first);
        fold.push(keyed(1, 10));
        fold.push_ref(&point);
        fold.push(keyed(2, 20));
        let err = fold.finish().unwrap_err();
        assert_eq!(
            err.to_string(),
            "payload Doubles([1.0, 2.0]) has no shuffle key"
        );
        let left = [keyed(1, 10), point];
        let index = KeyIndex::build(&Transform::GroupByKey, 1, &[(0u16, &left[..])], None);
        assert_eq!(index.unwrap_err(), err);
    }

    #[test]
    fn buckets_preserve_insertion_order() {
        let records = [keyed(5, 0), keyed(3, 0), keyed(5, 1)];
        let buckets = bucket(&records);
        let keys: Vec<Key> = buckets.iter().map(|(k, _, _)| k).collect();
        assert_eq!(keys, vec![Key::Long(5), Key::Long(3)]);
        assert_eq!(buckets.n_keys(), 2);
        assert_eq!(buckets.n_records(), 3);
    }
}
