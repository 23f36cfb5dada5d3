//! Records: the scalar data the engine computes over.
//!
//! Workloads compute real answers (page ranks, cluster centres, shortest
//! paths), so records hold actual values. A record also knows how many
//! bytes it would occupy in a real heap, which feeds the object-size
//! model: a heap object keeps only that size ([`Payload::model_bytes`]),
//! and the record itself stays in the engine's record vectors.
//!
//! # Sharing
//!
//! Composite payloads (`Pair`, `Longs`, `Doubles`, `List`) hold their
//! contents behind [`Rc`], so `Payload::clone()` is a reference-count bump
//! — O(1) regardless of structural depth. A record vector is handed from
//! stage to stage, to materializations and to the serialized and off-heap
//! stores; sharing the immutable contents instead of deep-copying them is
//! what keeps the simulator's host time proportional to the *number* of
//! records rather than their *size*.
//!
//! Shared contents are never changed in place. A reducer that owns its
//! accumulator updates it through the copy-on-write accessors
//! [`Payload::pair_mut`] and [`Payload::doubles_mut`]: the first update
//! of storage another holder still reads copies it, and every later
//! update of the now-unique copy allocates nothing.

use crate::Fnv;
use std::fmt;
use std::rc::Rc;

/// A scalar or small-composite record value.
///
/// Cloning is O(1): composite variants share their contents via [`Rc`].
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Payload {
    /// No value; models zero bytes.
    #[default]
    Unit,
    /// A 64-bit integer (vertex ids, counts, labels).
    Long(i64),
    /// A 64-bit float (ranks, distances, gradients).
    Double(f64),
    /// A string identified by the symbol id its generator assigned; `len`
    /// models the string's character storage.
    Text {
        /// Symbol identity (equality = string equality).
        sym: u64,
        /// Modelled length in bytes.
        len: u32,
    },
    /// A key/value pair (the backbone tuple shape of Figure 1). Both halves
    /// share one heap box: a keyed record is one allocation, not two.
    Pair(Rc<(Payload, Payload)>),
    /// A vector of integers (adjacency lists, document word ids).
    Longs(Rc<Vec<i64>>),
    /// A vector of floats (points, feature vectors, weight vectors).
    Doubles(Rc<Vec<f64>>),
    /// A list of payloads (grouped values, compact buffers — Figure 1's
    /// `CompactBuffer`).
    List(Rc<Vec<Payload>>),
    /// An opaque serialized buffer of `len` bytes (the `byte[]` backing a
    /// `*_SER` storage level).
    Bytes {
        /// Buffer length in bytes.
        len: u64,
    },
}

impl Payload {
    /// A pair of two payloads.
    #[inline]
    pub fn pair(a: Payload, b: Payload) -> Payload {
        Payload::Pair(Rc::new((a, b)))
    }

    /// An integer vector.
    pub fn longs(v: Vec<i64>) -> Payload {
        Payload::Longs(Rc::new(v))
    }

    /// A float vector.
    pub fn doubles(v: Vec<f64>) -> Payload {
        Payload::Doubles(Rc::new(v))
    }

    /// A list of payloads.
    pub fn list(v: Vec<Payload>) -> Payload {
        Payload::List(Rc::new(v))
    }

    /// What a composite payload — a text, pair, vector, list or buffer —
    /// models beyond its contents: the box holding them.
    pub const BOX_BYTES: u64 = 16;

    /// Modelled storage footprint of the payload in bytes (unscaled).
    pub fn model_bytes(&self) -> u64 {
        const BOX: u64 = Payload::BOX_BYTES;
        match self {
            Payload::Unit => 0,
            Payload::Long(_) | Payload::Double(_) => 8,
            Payload::Text { len, .. } => BOX + *len as u64,
            Payload::Pair(p) => BOX + p.0.model_bytes() + p.1.model_bytes(),
            Payload::Longs(v) => BOX + 8 * v.len() as u64,
            Payload::Doubles(v) => BOX + 8 * v.len() as u64,
            Payload::List(v) => BOX + v.iter().map(Payload::model_bytes).sum::<u64>(),
            Payload::Bytes { len } => BOX + len,
        }
    }

    /// A structural hash usable for `distinct` and shuffle dedup; floats
    /// hash by bit pattern.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over a structural encoding.
        fn go(p: &Payload, h: &mut Fnv) {
            match p {
                Payload::Unit => h.write_u64(0),
                Payload::Long(v) => {
                    h.write_u64(1);
                    h.write_u64(*v as u64);
                }
                Payload::Double(v) => {
                    h.write_u64(2);
                    h.write_u64(v.to_bits());
                }
                Payload::Text { sym, .. } => {
                    h.write_u64(3);
                    h.write_u64(*sym);
                }
                Payload::Pair(p) => {
                    h.write_u64(4);
                    go(&p.0, h);
                    go(&p.1, h);
                }
                Payload::Longs(v) => {
                    h.write_u64(5);
                    for x in v.iter() {
                        h.write_u64(*x as u64);
                    }
                }
                Payload::Doubles(v) => {
                    h.write_u64(6);
                    for x in v.iter() {
                        h.write_u64(x.to_bits());
                    }
                }
                Payload::List(v) => {
                    h.write_u64(7);
                    for x in v.iter() {
                        go(x, h);
                    }
                }
                Payload::Bytes { len } => {
                    h.write_u64(8);
                    h.write_u64(*len);
                }
            }
        }
        let mut h = Fnv::new();
        go(self, &mut h);
        h.finish()
    }

    /// The integer value, if this payload is a `Long`.
    #[inline]
    pub fn as_long(&self) -> Option<i64> {
        match self {
            Payload::Long(v) => Some(*v),
            _ => None,
        }
    }

    /// The float value, if this payload is a `Double`.
    #[inline]
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Payload::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// The pair components, if this payload is a `Pair`.
    #[inline]
    pub fn as_pair(&self) -> Option<(&Payload, &Payload)> {
        match self {
            Payload::Pair(p) => Some((&p.0, &p.1)),
            _ => None,
        }
    }

    /// The pair components for in-place update, if this payload is a
    /// `Pair`. Copy-on-write: a pair box shared with another holder is
    /// copied first (its halves' own storage is shared, not deep-copied),
    /// so no other holder ever sees the change.
    #[inline]
    pub fn pair_mut(&mut self) -> Option<(&mut Payload, &mut Payload)> {
        match self {
            Payload::Pair(p) => {
                let (a, b) = Rc::make_mut(p);
                Some((a, b))
            }
            _ => None,
        }
    }

    /// The float vector for in-place update, if this payload is
    /// `Doubles`. Copy-on-write like [`Payload::pair_mut`]: a vector
    /// shared with another holder is copied first.
    #[inline]
    pub fn doubles_mut(&mut self) -> Option<&mut Vec<f64>> {
        match self {
            Payload::Doubles(v) => Some(Rc::make_mut(v)),
            _ => None,
        }
    }

    /// A key usable for grouping/shuffling. Pairs key on their first
    /// component; scalars key on themselves.
    ///
    /// # Panics
    ///
    /// Panics if the payload (or pair key) is not a scalar.
    pub fn shuffle_key(&self) -> Key {
        match self {
            Payload::Pair(p) => p.0.shuffle_key(),
            other => other
                .try_shuffle_key()
                .unwrap_or_else(|| panic!("payload {other:?} has no shuffle key")),
        }
    }

    /// [`Payload::shuffle_key`], or `None` where that panics.
    #[inline]
    pub fn try_shuffle_key(&self) -> Option<Key> {
        match self {
            Payload::Pair(p) => p.0.try_shuffle_key(),
            Payload::Long(v) => Some(Key::Long(*v)),
            Payload::Text { sym, .. } => Some(Key::Sym(*sym)),
            Payload::Double(v) => Some(Key::Long(v.to_bits() as i64)),
            _ => None,
        }
    }

    /// Convenience constructor for a `(long, payload)` pair.
    #[inline]
    pub fn keyed(key: i64, value: Payload) -> Payload {
        Payload::pair(Payload::Long(key), value)
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Unit => write!(f, "()"),
            Payload::Long(v) => write!(f, "{v}"),
            Payload::Double(v) => write!(f, "{v}"),
            Payload::Text { sym, .. } => write!(f, "text#{sym}"),
            Payload::Pair(p) => write!(f, "({}, {})", p.0, p.1),
            Payload::Longs(v) => write!(f, "longs[{}]", v.len()),
            Payload::Doubles(v) => write!(f, "doubles[{}]", v.len()),
            Payload::List(v) => write!(f, "list[{}]", v.len()),
            Payload::Bytes { len } => write!(f, "bytes[{len}]"),
        }
    }
}

/// A hashable grouping key extracted from a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    /// Integer key.
    Long(i64),
    /// Interned-string key.
    Sym(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireBatch;

    #[test]
    fn model_bytes_compose() {
        let p = Payload::keyed(1, Payload::Double(0.5));
        assert_eq!(p.model_bytes(), 16 + 8 + 8);
        assert_eq!(Payload::longs(vec![1, 2, 3]).model_bytes(), 16 + 24);
        assert_eq!(Payload::Unit.model_bytes(), 0);
    }

    #[test]
    fn shuffle_keys() {
        assert_eq!(Payload::Long(7).shuffle_key(), Key::Long(7));
        assert_eq!(Payload::keyed(9, Payload::Unit).shuffle_key(), Key::Long(9));
        let t = Payload::Text { sym: 3, len: 10 };
        assert_eq!(t.shuffle_key(), Key::Sym(3));
    }

    #[test]
    #[should_panic(expected = "no shuffle key")]
    fn unit_has_no_key() {
        Payload::Unit.shuffle_key();
    }

    #[test]
    fn fingerprints_distinguish_values() {
        assert_eq!(
            Payload::Long(1).fingerprint(),
            Payload::Long(1).fingerprint()
        );
        assert_ne!(
            Payload::Long(1).fingerprint(),
            Payload::Long(2).fingerprint()
        );
        assert_ne!(
            Payload::Long(1).fingerprint(),
            Payload::Double(1.0).fingerprint()
        );
        let a = Payload::keyed(3, Payload::list(vec![Payload::Long(1)]));
        let b = Payload::keyed(3, Payload::list(vec![Payload::Long(1)]));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Payload::keyed(3, Payload::list(vec![Payload::Long(2)]));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn bytes_model_bytes() {
        assert_eq!(Payload::Bytes { len: 100 }.model_bytes(), 116);
        assert_ne!(
            Payload::Bytes { len: 1 }.fingerprint(),
            Payload::Bytes { len: 2 }.fingerprint()
        );
    }

    #[test]
    fn list_model_bytes() {
        let l = Payload::list(vec![Payload::Long(1), Payload::Long(2)]);
        assert_eq!(l.model_bytes(), 16 + 16);
    }

    #[test]
    fn clone_shares_storage() {
        let v = Payload::longs((0..1024).collect());
        let shallow = v.clone();
        assert_eq!(v, shallow);
        match (&v, &shallow) {
            (Payload::Longs(a), Payload::Longs(b)) => {
                assert!(Rc::ptr_eq(a, b), "clone() must share storage");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn doubles_mut_copies_shared_storage_and_mutates_unique_storage() {
        let cached = Payload::doubles(vec![1.0, 2.0]);
        let mut acc = cached.clone();
        acc.doubles_mut().unwrap()[0] = 5.0;
        let (Payload::Doubles(old), Payload::Doubles(new)) = (&cached, &acc) else {
            unreachable!()
        };
        assert!(!Rc::ptr_eq(old, new), "shared storage must be copied");
        assert_eq!(
            **old,
            vec![1.0, 2.0],
            "the other holder reads the old value"
        );
        assert_eq!(**new, vec![5.0, 2.0]);
        // Unique now: the next update happens in place.
        let before = Rc::as_ptr(new);
        acc.doubles_mut().unwrap()[1] = 7.0;
        let Payload::Doubles(after) = &acc else {
            unreachable!()
        };
        assert_eq!(
            Rc::as_ptr(after),
            before,
            "unique storage is updated in place"
        );
        assert_eq!(**after, vec![5.0, 7.0]);
    }

    #[test]
    fn pair_mut_copies_shared_storage_and_mutates_unique_storage() {
        let record = Payload::pair(Payload::doubles(vec![1.0]), Payload::Long(1));
        let mut acc = record.clone();
        let (_, n) = acc.pair_mut().unwrap();
        *n = Payload::Long(2);
        let (Payload::Pair(old), Payload::Pair(new)) = (&record, &acc) else {
            unreachable!()
        };
        assert!(!Rc::ptr_eq(old, new), "shared storage must be copied");
        assert_eq!(
            old.1,
            Payload::Long(1),
            "the other holder reads the old value"
        );
        assert_eq!(new.1, Payload::Long(2));
        // The copy shares the halves' own storage until they are updated.
        let (Payload::Doubles(v_old), Payload::Doubles(v_new)) = (&old.0, &new.0) else {
            unreachable!()
        };
        assert!(Rc::ptr_eq(v_old, v_new), "the copy is shallow");
        let before = Rc::as_ptr(new);
        *acc.pair_mut().unwrap().1 = Payload::Long(3);
        let Payload::Pair(after) = &acc else {
            unreachable!()
        };
        assert_eq!(
            Rc::as_ptr(after),
            before,
            "unique storage is updated in place"
        );
        assert_eq!(after.1, Payload::Long(3));
    }

    #[test]
    fn mutable_accessors_reject_other_variants() {
        for mut p in [
            Payload::Unit,
            Payload::Long(1),
            Payload::Double(1.0),
            Payload::Text { sym: 1, len: 2 },
            Payload::longs(vec![1]),
            Payload::list(vec![Payload::Long(1)]),
            Payload::Bytes { len: 3 },
        ] {
            assert!(p.pair_mut().is_none(), "{p:?}");
            assert!(p.doubles_mut().is_none(), "{p:?}");
        }
        assert!(Payload::doubles(vec![1.0]).pair_mut().is_none());
        assert!(Payload::keyed(1, Payload::Unit).doubles_mut().is_none());
    }

    /// `p` alone in a packed batch ([`crate::wire`]).
    fn one(p: &Payload) -> WireBatch {
        WireBatch::encode([p])
    }

    #[test]
    fn wire_round_trip_is_structurally_lossless() {
        let shared = Payload::longs(vec![1, 2, 3]);
        let original = Payload::list(vec![
            Payload::Unit,
            Payload::keyed(7, Payload::Double(0.25)),
            Payload::pair(shared.clone(), shared),
            Payload::doubles(vec![1.5, -2.5]),
            Payload::Text { sym: 4, len: 11 },
            Payload::Bytes { len: 99 },
        ]);
        let wire = one(&original);
        let back = wire.iter().next().unwrap().to_payload();
        assert_eq!(back, original);
        assert_eq!(back.model_bytes(), original.model_bytes());
        assert_eq!(back.fingerprint(), original.fingerprint());
        let sized = wire.iter().next().unwrap().to_sized_payload();
        assert_eq!(sized, (original.clone(), original.model_bytes()));
        // The wire form's own answers are the heap form's, and a batch
        // re-encoded from either side digests the same, so a journal
        // entry written from one validates against the other.
        assert_eq!(wire.model_bytes(), original.model_bytes());
        assert_eq!(wire.digest(), one(&back).digest());
        assert_ne!(
            wire.digest(),
            one(&Payload::Long(1)).digest(),
            "distinct values must digest differently"
        );
    }

    #[test]
    fn wire_shuffle_keys_mirror_the_heap_form() {
        for p in [
            Payload::Long(7),
            Payload::Double(-0.5),
            Payload::Text { sym: 3, len: 10 },
            Payload::keyed(9, Payload::longs(vec![1, 2])),
            Payload::pair(Payload::Text { sym: 4, len: 1 }, Payload::Unit),
        ] {
            let wire = one(&p);
            assert_eq!(wire.iter().next().unwrap().shuffle_key(), p.shuffle_key());
        }
    }

    #[test]
    #[should_panic(expected = "no shuffle key")]
    fn wire_unit_has_no_key() {
        one(&Payload::Unit).iter().next().unwrap().shuffle_key();
    }

    #[test]
    fn accessors() {
        assert_eq!(Payload::Long(3).as_long(), Some(3));
        assert_eq!(Payload::Double(2.0).as_double(), Some(2.0));
        assert!(Payload::Long(3).as_double().is_none());
        let p = Payload::keyed(1, Payload::Long(2));
        let (k, v) = p.as_pair().unwrap();
        assert_eq!(k.as_long(), Some(1));
        assert_eq!(v.as_long(), Some(2));
    }
}
