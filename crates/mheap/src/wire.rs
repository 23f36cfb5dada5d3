//! The wire form: records that leave their thread, packed flat.
//!
//! [`Payload`] shares composite contents behind `Rc` (a host-side
//! optimization), so it cannot cross an executor-thread boundary — and a
//! record that does cross one (a shuffle deposit, an action partial, a
//! checkpoint snapshot) is then kept for the whole run as replay state.
//! A [`WireBatch`] holds one partition's worth of such records as plain
//! words in one buffer, plus one offset per record: no pointers, nothing
//! to walk or free per record, `Send` by construction. The round trip
//! `Payload -> WireBatch -> Payload` loses `Rc` identity and nothing the
//! simulation can observe.
//!
//! # Encoding
//!
//! A value is a header word — the variant's tag in the low 8 bits, one
//! inline field in the high 56 — followed by its body. Tags are the ones
//! [`Payload::fingerprint`] mixes in.
//!
//! | tag | variant   | inline field | body                              |
//! |-----|-----------|--------------|-----------------------------------|
//! | 0   | `Unit`    | —            | —                                 |
//! | 1   | `Long`    | —            | the value                         |
//! | 2   | `Double`  | —            | the bit pattern                   |
//! | 3   | `Text`    | `len`        | `sym`                             |
//! | 4   | `Pair`    | —            | first value, second value         |
//! | 5   | `Longs`   | count        | `count` values                    |
//! | 6   | `Doubles` | count        | `count` bit patterns              |
//! | 7   | `List`    | count        | `count` values                    |
//! | 8   | `Bytes`   | —            | `len`                             |
//!
//! Every value is self-delimiting, so the words of a batch determine its
//! record sequence: hashing the words (and the count) digests the records.
//! A `(Text, Double)` pair — modelled at 80 bytes — is five words.

use crate::payload::{Key, Payload};
use crate::Fnv;
use std::fmt;
use std::ops::Range;

const UNIT: u64 = 0;
const LONG: u64 = 1;
const DOUBLE: u64 = 2;
const TEXT: u64 = 3;
const PAIR: u64 = 4;
const LONGS: u64 = 5;
const DOUBLES: u64 = 6;
const LIST: u64 = 7;
const BYTES: u64 = 8;

const TAG_BITS: u32 = 8;

fn head(tag: u64, field: u64) -> u64 {
    assert!(
        field >> (u64::BITS - TAG_BITS) == 0,
        "wire header field {field} exceeds 56 bits"
    );
    field << TAG_BITS | tag
}

fn count_head(tag: u64, count: usize) -> u64 {
    head(
        tag,
        u64::try_from(count).expect("element count fits in u64"),
    )
}

fn split(head: u64) -> (u64, u64) {
    (head & ((1 << TAG_BITS) - 1), head >> TAG_BITS)
}

fn count_of(field: u64) -> usize {
    usize::try_from(field).expect("element count fits in usize")
}

/// Append `p`'s encoding to `words`; returns `p.model_bytes()`, summed on
/// the way down so the caller never walks the payload a second time.
fn encode(words: &mut Vec<u64>, p: &Payload) -> u64 {
    match p {
        Payload::Unit => {
            words.push(head(UNIT, 0));
            0
        }
        Payload::Long(v) => {
            words.extend([head(LONG, 0), v.cast_unsigned()]);
            8
        }
        Payload::Double(v) => {
            words.extend([head(DOUBLE, 0), v.to_bits()]);
            8
        }
        Payload::Text { sym, len } => {
            words.extend([head(TEXT, u64::from(*len)), *sym]);
            16 + u64::from(*len)
        }
        Payload::Pair(p) => {
            words.push(head(PAIR, 0));
            16 + encode(words, &p.0) + encode(words, &p.1)
        }
        Payload::Longs(v) => {
            words.push(count_head(LONGS, v.len()));
            words.extend(v.iter().map(|x| x.cast_unsigned()));
            16 + 8 * v.len() as u64
        }
        Payload::Doubles(v) => {
            words.push(count_head(DOUBLES, v.len()));
            words.extend(v.iter().map(|x| x.to_bits()));
            16 + 8 * v.len() as u64
        }
        Payload::List(v) => {
            words.push(count_head(LIST, v.len()));
            16 + v.iter().map(|x| encode(words, x)).sum::<u64>()
        }
        Payload::Bytes { len } => {
            words.extend([head(BYTES, 0), *len]);
            16 + len
        }
    }
}

/// A read position in a batch's words.
struct Cursor<'a> {
    words: &'a [u64],
    at: usize,
}

impl Cursor<'_> {
    fn word(&mut self) -> u64 {
        let w = self.words[self.at];
        self.at += 1;
        w
    }

    /// Decode one value, with what [`Payload::model_bytes`] says of it.
    fn decode(&mut self) -> (Payload, u64) {
        let (tag, field) = split(self.word());
        match tag {
            UNIT => (Payload::Unit, 0),
            LONG => (Payload::Long(self.word().cast_signed()), 8),
            DOUBLE => (Payload::Double(f64::from_bits(self.word())), 8),
            TEXT => {
                let len = u32::try_from(field).expect("text length was encoded from a u32");
                (
                    Payload::Text {
                        sym: self.word(),
                        len,
                    },
                    16 + field,
                )
            }
            PAIR => {
                let (first, first_bytes) = self.decode();
                let (second, second_bytes) = self.decode();
                (
                    Payload::pair(first, second),
                    16 + first_bytes + second_bytes,
                )
            }
            LONGS => {
                let run = self.run(field);
                let bytes = 16 + 8 * run.len() as u64;
                (
                    Payload::longs(run.iter().map(|w| w.cast_signed()).collect()),
                    bytes,
                )
            }
            DOUBLES => {
                let run = self.run(field);
                let bytes = 16 + 8 * run.len() as u64;
                (
                    Payload::doubles(run.iter().map(|&w| f64::from_bits(w)).collect()),
                    bytes,
                )
            }
            LIST => {
                let mut bytes = 16;
                let items = (0..count_of(field))
                    .map(|_| {
                        let (item, item_bytes) = self.decode();
                        bytes += item_bytes;
                        item
                    })
                    .collect();
                (Payload::list(items), bytes)
            }
            BYTES => {
                let len = self.word();
                (Payload::Bytes { len }, 16 + len)
            }
            other => unreachable!("wire tag {other}"),
        }
    }

    /// The `count` body words of a `Longs`/`Doubles` value.
    fn run(&mut self, count: u64) -> &[u64] {
        let start = self.at;
        self.at += count_of(count);
        &self.words[start..self.at]
    }

    /// Fold one value into `h` as [`Payload::fingerprint`] does: the tag,
    /// then the scalar word or the elements — a text's `sym` but not its
    /// `len`, a vector's elements but not its count.
    fn fingerprint(&mut self, h: &mut Fnv) {
        let (tag, field) = split(self.word());
        h.write_u64(tag);
        match tag {
            UNIT => {}
            LONG | DOUBLE | TEXT | BYTES => h.write_u64(self.word()),
            PAIR => {
                self.fingerprint(h);
                self.fingerprint(h);
            }
            LONGS | DOUBLES => self.run(field).iter().for_each(|&w| h.write_u64(w)),
            LIST => (0..field).for_each(|_| self.fingerprint(h)),
            other => unreachable!("wire tag {other}"),
        }
    }

    /// Skip one value, returning what [`Payload::model_bytes`] says of it.
    fn model_bytes(&mut self) -> u64 {
        let (tag, field) = split(self.word());
        match tag {
            UNIT => 0,
            LONG | DOUBLE => {
                self.at += 1;
                8
            }
            TEXT => {
                self.at += 1;
                16 + field
            }
            PAIR => 16 + self.model_bytes() + self.model_bytes(),
            LONGS | DOUBLES => 16 + 8 * self.run(field).len() as u64,
            LIST => 16 + (0..field).map(|_| self.model_bytes()).sum::<u64>(),
            BYTES => 16 + self.word(),
            other => unreachable!("wire tag {other}"),
        }
    }
}

/// A borrowed view of one packed value — a record of a [`WireBatch`] —
/// answering what the shuffle asks of a record with exactly
/// [`Payload`]'s semantics, without rebuilding one.
#[derive(Clone, Copy)]
pub struct WireRef<'a> {
    /// From the value's header word on (to the end of the batch).
    words: &'a [u64],
}

impl<'a> WireRef<'a> {
    /// The grouping key — identical, case for case, to
    /// [`Payload::shuffle_key`].
    ///
    /// # Panics
    ///
    /// Panics if the payload (or pair key) is not a scalar.
    pub fn shuffle_key(self) -> Key {
        self.try_shuffle_key().unwrap_or_else(|| {
            let other = self.first_component();
            panic!("payload {other:?} has no shuffle key")
        })
    }

    /// [`WireRef::shuffle_key`], or `None` where that panics — as
    /// [`Payload::try_shuffle_key`].
    #[inline]
    pub fn try_shuffle_key(self) -> Option<Key> {
        let key = self.first_component();
        match split(key.words[0]).0 {
            LONG | DOUBLE => Some(Key::Long(key.words[1].cast_signed())),
            TEXT => Some(Key::Sym(key.words[1])),
            _ => None,
        }
    }

    /// The value a record keys on: the first non-pair value down the
    /// chain of first components.
    #[inline]
    fn first_component(self) -> WireRef<'a> {
        let mut at = 0;
        while split(self.words[at]).0 == PAIR {
            at += 1;
        }
        WireRef {
            words: &self.words[at..],
        }
    }

    /// A pair's two halves, or `None` for any other value — as
    /// [`Payload::as_pair`], without building the pair.
    #[inline]
    pub fn halves(self) -> Option<(WireRef<'a>, WireRef<'a>)> {
        if split(self.words[0]).0 != PAIR {
            return None;
        }
        let mut first = Cursor {
            words: self.words,
            at: 1,
        };
        first.model_bytes(); // skips the first half
        let half = |at: usize| WireRef {
            words: &self.words[at..],
        };
        Some((half(1), half(first.at)))
    }

    /// [`Payload::fingerprint`] of the record, read off the packed words:
    /// equal to the heap form's, word for word.
    pub fn fingerprint(self) -> u64 {
        let mut h = Fnv::new();
        self.cursor().fingerprint(&mut h);
        h.finish()
    }

    /// Modelled storage footprint in bytes — identical, case for case, to
    /// [`Payload::model_bytes`], so a packed record costs exactly what the
    /// heap-resident one would.
    pub fn model_bytes(self) -> u64 {
        self.cursor().model_bytes()
    }

    /// Rebuild the heap form.
    pub fn to_payload(self) -> Payload {
        self.cursor().decode().0
    }

    /// Rebuild the heap form, sizing it on the way: the record and its
    /// [`Payload::model_bytes`], for one pass over the words.
    pub fn to_sized_payload(self) -> (Payload, u64) {
        self.cursor().decode()
    }

    fn cursor(self) -> Cursor<'a> {
        Cursor {
            words: self.words,
            at: 0,
        }
    }
}

impl fmt::Debug for WireRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_payload().fmt(f)
    }
}

/// A sequence of records — one map-side partition, one action partial —
/// packed into a flat word buffer (see the module docs for the encoding).
///
/// Encoding is one pass over the records that also yields what every
/// layer a deposit passes through asks of it: its modelled bytes
/// ([`Self::model_bytes`]) and a digest of its contents
/// ([`Self::digest`]). Equality is equality of the packed words, so
/// floats compare by bit pattern.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct WireBatch {
    words: Vec<u64>,
    /// Where each record starts in `words`.
    offs: Vec<u32>,
    model_bytes: u64,
    digest: u64,
}

impl WireBatch {
    /// Pack `records`, in order.
    ///
    /// # Panics
    ///
    /// Panics if the batch outgrows its 32-bit record offsets (32 GiB of
    /// packed words).
    pub fn encode<'a>(records: impl IntoIterator<Item = &'a Payload>) -> WireBatch {
        let records = records.into_iter();
        let n = records.size_hint().0;
        let mut batch = WireBatch {
            offs: Vec::with_capacity(n),
            ..WireBatch::default()
        };
        for p in records {
            let start = batch.words.len();
            batch
                .offs
                .push(u32::try_from(start).expect("wire batch exceeds 2^32 words"));
            batch.model_bytes += encode(&mut batch.words, p);
            if start == 0 {
                // Partitions are mostly uniform: size the buffer for `n`
                // records like the first and it rarely grows again.
                batch
                    .words
                    .reserve_exact(batch.words.len() * (n.max(1) - 1));
            }
            for &w in &batch.words[start..] {
                batch.digest = mix(batch.digest, w);
            }
        }
        // The batch outlives its encoder by the rest of the run.
        batch.words.shrink_to_fit();
        batch.offs.shrink_to_fit();
        batch
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.offs.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.offs.is_empty()
    }

    /// The records, in order.
    #[inline]
    pub fn iter(&self) -> Records<'_> {
        self.range(0..self.len())
    }

    /// The records at positions `at`, in order: decoding part of a batch
    /// reads no word outside those records.
    ///
    /// # Panics
    ///
    /// Panics if `at` reaches past the last record.
    #[inline]
    pub fn range(&self, at: Range<usize>) -> Records<'_> {
        Records {
            words: &self.words,
            offs: self.offs[at].iter(),
        }
    }

    /// The records rebuilt in their heap form, in order.
    pub fn payloads(&self) -> impl Iterator<Item = Payload> + '_ {
        self.iter().map(WireRef::to_payload)
    }

    /// Σ [`Payload::model_bytes`] over the records, summed while encoding.
    pub fn model_bytes(&self) -> u64 {
        self.model_bytes
    }

    /// A hash of the packed words and the record count, computed while
    /// encoding. Equal record sequences digest equal, and two batches of
    /// equally many words that differ in one word never do (every mixing
    /// step is a bijection of the running hash). The value is only ever
    /// compared with another batch's, never reported.
    pub fn digest(&self) -> u64 {
        mix(self.digest, self.offs.len() as u64)
    }

    /// Host bytes this batch holds on to: its words and its offsets.
    pub fn host_bytes(&self) -> u64 {
        (self.words.len() * size_of::<u64>() + self.offs.len() * size_of::<u32>()) as u64
    }
}

/// One step of the batch digest: xor-multiply-xorshift, each a bijection
/// of `h` for a fixed `w`.
fn mix(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 32)
}

impl fmt::Debug for WireBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a WireBatch {
    type Item = WireRef<'a>;
    type IntoIter = Records<'a>;

    #[inline]
    fn into_iter(self) -> Records<'a> {
        self.iter()
    }
}

/// Iterator over a batch's records ([`WireBatch::iter`]).
#[derive(Debug, Clone)]
pub struct Records<'a> {
    words: &'a [u64],
    offs: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for Records<'a> {
    type Item = WireRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<WireRef<'a>> {
        let &off = self.offs.next()?;
        let off = usize::try_from(off).expect("a 32-bit offset fits in usize");
        Some(WireRef {
            words: &self.words[off..],
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.offs.size_hint()
    }
}

impl ExactSizeIterator for Records<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(p: &Payload) -> WireBatch {
        WireBatch::encode([p])
    }

    #[test]
    fn a_text_double_pair_packs_into_five_words_and_one_offset() {
        let p = Payload::pair(Payload::Text { sym: 1, len: 40 }, Payload::Double(0.5));
        assert_eq!(p.model_bytes(), 80);
        assert_eq!(one(&p).host_bytes(), 5 * 8 + 4);
    }

    #[test]
    fn flipping_any_one_word_changes_the_digest() {
        let records = [
            Payload::keyed(1, Payload::doubles(vec![0.5, 1.5])),
            Payload::Unit,
            Payload::list(vec![Payload::Text { sym: 2, len: 3 }]),
        ];
        let batch = WireBatch::encode(&records);
        let rehash = |words: &[u64]| {
            let h = words.iter().fold(0, |h, &w| mix(h, w));
            mix(h, records.len() as u64)
        };
        assert_eq!(rehash(&batch.words), batch.digest());
        for i in 0..batch.words.len() {
            let mut words = batch.words.clone();
            words[i] ^= 1 << (i % 64);
            assert_ne!(rehash(&words), batch.digest(), "word {i}");
        }
    }
}
