//! Run statistics shared by every layer: the [`PauseStats`] distribution
//! and the [`counters!`](crate::counters) declaration that states each
//! report counter block once.

use crate::json::Json;
use std::cell::RefCell;
use std::fmt;

/// Declares a counter block once: the struct, a fixed-order `to_json`
/// (keys are the field names, in declaration order) and a field-wise
/// `merge` (`self.f += other.f` for every field, in declaration order).
/// Fields are `u64` or `f64`. Attributes on the struct and its fields —
/// docs, derives — pass through.
///
/// ```
/// obs::counters! {
///     /// Things that happened.
///     #[derive(Debug, Clone, Copy, Default, PartialEq)]
///     pub struct Tally {
///         /// Times it happened.
///         pub count: u64,
///         /// Seconds it took.
///         pub secs: f64,
///     }
/// }
/// let mut a = Tally { count: 1, secs: 0.5 };
/// a.merge(&Tally { count: 2, secs: 1.0 });
/// assert_eq!(a, Tally { count: 3, secs: 1.5 });
/// assert_eq!(a.to_json().to_compact(), r#"{"count":3,"secs":1.5}"#);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $name {
            /// Serialize every counter as a JSON object with stable key order.
            pub fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $((stringify!($field).to_string(), $crate::Json::from(self.$field)),)*
                ])
            }

            /// Add `other`'s counters into this block, field by field.
            pub fn merge(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

/// Distribution of individual pause (or latency) durations, in
/// nanoseconds.
///
/// Section 5.2 notes that one node's GC pause holds up the whole cluster,
/// so *individual* pause times matter beyond the aggregate: these feed the
/// pause percentiles in run reports and trace summaries.
///
/// Quantile queries sort lazily: the first [`PauseStats::quantile_ns`]
/// call after a [`PauseStats::record`] sorts a cached copy once, and
/// subsequent queries reuse it.
#[derive(Clone, Default)]
pub struct PauseStats {
    pauses_ns: Vec<f64>,
    sorted: RefCell<Option<Vec<f64>>>,
}

impl fmt::Debug for PauseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The sort cache is a query-side memo, not state.
        f.debug_struct("PauseStats")
            .field("pauses_ns", &self.pauses_ns)
            .finish()
    }
}

impl PauseStats {
    /// Record one pause.
    pub fn record(&mut self, ns: f64) {
        self.pauses_ns.push(ns);
        *self.sorted.get_mut() = None;
    }

    /// Number of pauses recorded.
    pub fn count(&self) -> usize {
        self.pauses_ns.len()
    }

    /// Longest pause, in nanoseconds (0 if none).
    pub fn max_ns(&self) -> f64 {
        self.pauses_ns.iter().copied().fold(0.0, f64::max)
    }

    /// Mean pause, in nanoseconds (0 if none).
    pub fn mean_ns(&self) -> f64 {
        if self.pauses_ns.is_empty() {
            0.0
        } else {
            self.pauses_ns.iter().sum::<f64>() / self.pauses_ns.len() as f64
        }
    }

    /// The `q`-quantile pause (nearest rank, `round((n - 1) * q)`).
    /// Out-of-range `q` is a bug in the caller: debug builds panic,
    /// release builds clamp `q` into `[0, 1]` and answer anyway.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `q` is outside `[0, 1]`.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&q), "quantile out of range");
        let q = q.clamp(0.0, 1.0);
        if self.pauses_ns.is_empty() {
            return 0.0;
        }
        let mut cache = self.sorted.borrow_mut();
        let sorted = cache.get_or_insert_with(|| {
            let mut s = self.pauses_ns.clone();
            s.sort_by(f64::total_cmp);
            s
        });
        let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        sorted[idx]
    }

    /// Absorb another distribution (cluster report aggregation: one
    /// executor's pauses appended to the aggregate's). Order-preserving
    /// concatenation, so merging in executor-id order is deterministic.
    pub fn merge(&mut self, other: &PauseStats) {
        self.pauses_ns.extend_from_slice(&other.pauses_ns);
        *self.sorted.get_mut() = None;
    }

    /// Serialize count, mean, key quantiles, and max as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::UInt(self.count() as u64)),
            ("mean_ns", Json::Num(self.mean_ns())),
            ("p50_ns", Json::Num(self.quantile_ns(0.50))),
            ("p90_ns", Json::Num(self.quantile_ns(0.90))),
            ("p99_ns", Json::Num(self.quantile_ns(0.99))),
            ("max_ns", Json::Num(self.max_ns())),
        ])
    }
}

/// The `q`-quantile of `samples` by nearest rank: the `ceil(n * q)`-th
/// smallest (the smallest for `q = 0`), or 0 for an empty sample. Sorts
/// `samples` in place. [`PauseStats::quantile_ns`] takes the rounded
/// rank `round((n - 1) * q)` instead, so the two differ on small samples.
pub fn nearest_rank(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pause_quantiles() {
        let mut p = PauseStats::default();
        for v in [10.0, 20.0, 30.0, 40.0, 100.0] {
            p.record(v);
        }
        assert_eq!(p.count(), 5);
        assert_eq!(p.max_ns(), 100.0);
        assert_eq!(p.mean_ns(), 40.0);
        assert_eq!(p.quantile_ns(0.0), 10.0);
        assert_eq!(p.quantile_ns(0.5), 30.0);
        assert_eq!(p.quantile_ns(1.0), 100.0);
    }

    #[test]
    fn empty_pauses_are_zero() {
        let p = PauseStats::default();
        assert_eq!(p.max_ns(), 0.0);
        assert_eq!(p.mean_ns(), 0.0);
        assert_eq!(p.quantile_ns(0.9), 0.0);
    }

    #[test]
    fn quantile_cache_invalidates_on_record() {
        let mut p = PauseStats::default();
        p.record(10.0);
        assert_eq!(p.quantile_ns(1.0), 10.0); // builds the cache
        p.record(50.0);
        assert_eq!(p.quantile_ns(1.0), 50.0); // must see the new pause
        assert_eq!(p.quantile_ns(0.0), 10.0); // and reuse the rebuilt cache
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        PauseStats::default().quantile_ns(1.5);
    }
}
