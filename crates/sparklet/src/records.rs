//! The engine's record vectors: [`Records`] holds each record with its
//! modelled size.

use mheap::Payload;
use std::ops::Deref;
use std::rc::Rc;

/// A shared, immutable vector of records and each record's modelled
/// bytes ([`Payload::model_bytes`]).
///
/// A record is sized once, where it is produced and still in cache: by a
/// fused chain's final stage, by the reducer that builds it, by a wire
/// batch's decode, or on a dataset's first read. Every later charge —
/// shuffle files, heap and scratch materializations, blocks, disk,
/// checkpoints — reads the carried sizes instead of walking the records
/// again. The sizes share one allocation with the records and are
/// dropped with them; a clone is a reference-count bump.
///
/// `Records` dereferences to the records as a slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Records(Rc<Vectors>);

#[derive(Debug, Default, PartialEq)]
struct Vectors {
    payloads: Vec<Payload>,
    sizes: Vec<u64>,
    /// Σ `sizes`.
    bytes: u64,
}

impl Records {
    /// `payloads`, where `sizes[i]` is what `payloads[i]` models.
    ///
    /// # Panics
    ///
    /// Panics if the two lengths differ; debug builds also panic if a
    /// size is not its record's [`Payload::model_bytes`].
    pub fn new(mut payloads: Vec<Payload>, mut sizes: Vec<u64>) -> Records {
        assert_eq!(payloads.len(), sizes.len(), "one size per record");
        // The vectors outlive their producer, often by the rest of the run.
        payloads.shrink_to_fit();
        sizes.shrink_to_fit();
        debug_assert!(
            payloads
                .iter()
                .zip(&sizes)
                .all(|(p, &s)| p.model_bytes() == s),
            "a carried size is not its record's model_bytes"
        );
        let bytes = sizes.iter().sum();
        Records(Rc::new(Vectors {
            payloads,
            sizes,
            bytes,
        }))
    }

    /// `payloads`, each sized here: the one walk of records that were
    /// made without their sizes (a registered dataset, on first read).
    pub fn measure(payloads: Vec<Payload>) -> Records {
        let sizes = payloads.iter().map(|p| p.model_bytes()).collect();
        Records::new(payloads, sizes)
    }

    /// Each record's modelled bytes, in record order.
    #[inline]
    pub fn sizes(&self) -> &[u64] {
        &self.0.sizes
    }

    /// What the records model in all, in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.0.bytes
    }

    /// Whether `a` and `b` share one vector.
    #[cfg(test)]
    pub(crate) fn ptr_eq(a: &Records, b: &Records) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }

    /// The records, taken whole if this is their only holder.
    ///
    /// # Errors
    ///
    /// `self`, unchanged, while another holder shares the records.
    pub fn try_into_payloads(self) -> Result<Vec<Payload>, Records> {
        Rc::try_unwrap(self.0).map(|v| v.payloads).map_err(Records)
    }

    /// The records: taken whole if this is their only holder, else a
    /// shallow copy (each record shares its storage).
    pub fn into_payloads(self) -> Vec<Payload> {
        self.try_into_payloads()
            .unwrap_or_else(|shared| shared.to_vec())
    }
}

impl Deref for Records {
    type Target = [Payload];

    #[inline]
    fn deref(&self) -> &[Payload] {
        &self.0.payloads
    }
}

impl FromIterator<(Payload, u64)> for Records {
    /// Collect records produced with their sizes.
    fn from_iter<I: IntoIterator<Item = (Payload, u64)>>(iter: I) -> Records {
        let (payloads, sizes) = iter.into_iter().unzip();
        Records::new(payloads, sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_carry_their_sizes_and_share_one_vector() {
        let records = Records::measure(vec![Payload::Long(1), Payload::keyed(2, Payload::Unit)]);
        assert_eq!(records.sizes(), &[8, 24]);
        assert_eq!(records.bytes(), 32);
        let pairs = records.iter().cloned().zip(records.sizes().iter().copied());
        assert_eq!(pairs.collect::<Records>(), records);
        let copy = records.clone();
        assert!(Records::ptr_eq(&records, &copy));
        let copy = copy.try_into_payloads().unwrap_err();
        assert_eq!(copy.into_payloads(), records[..]);
        assert_eq!(
            records.into_payloads(),
            [Payload::Long(1), Payload::keyed(2, Payload::Unit)]
        );
    }

    #[test]
    #[should_panic(expected = "one size per record")]
    fn a_missing_size_panics() {
        Records::new(vec![Payload::Long(1)], vec![]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not its record's model_bytes")]
    fn a_wrong_size_panics_in_debug_builds() {
        Records::new(vec![Payload::Long(1)], vec![9]);
    }
}
