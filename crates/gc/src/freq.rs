//! The RDD access-frequency table (paper Section 4.2.2).
//!
//! Panthera's instrumented call sites invoke a native method on every RDD
//! method call (map, reduce, ...); the JVM keeps a hash table from RDD
//! object to call count. At each major GC the counts drive re-assessment of
//! RDD placement, after which they are reset.

use std::collections::{BTreeMap, HashMap};

/// Per-RDD method-call counters.
#[derive(Debug, Clone, Default)]
pub struct AccessFreqTable {
    calls: HashMap<u32, u64>,
    lifetime: BTreeMap<u32, u64>,
    total_monitored: u64,
}

impl AccessFreqTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one method call on RDD `rdd_id`.
    pub fn record_call(&mut self, rdd_id: u32) {
        *self.calls.entry(rdd_id).or_insert(0) += 1;
        *self.lifetime.entry(rdd_id).or_insert(0) += 1;
        self.total_monitored += 1;
    }

    /// Calls observed on `rdd_id` since the last reset.
    pub fn calls(&self, rdd_id: u32) -> u64 {
        self.calls.get(&rdd_id).copied().unwrap_or(0)
    }

    /// Calls ever observed per RDD, never reset: what a caller reading
    /// deltas between its own checkpoints (the stream driver's batch
    /// boundaries) subtracts.
    pub fn lifetime_calls(&self) -> &BTreeMap<u32, u64> {
        &self.lifetime
    }

    /// All calls ever monitored (Table 5's "# Calls monitored").
    pub fn total_monitored(&self) -> u64 {
        self.total_monitored
    }

    /// Reset the per-RDD counts (done at the end of each major GC);
    /// the lifetime totals are preserved.
    pub fn reset(&mut self) {
        self.calls.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_resets() {
        let mut t = AccessFreqTable::new();
        t.record_call(1);
        t.record_call(1);
        t.record_call(2);
        assert_eq!(t.calls(1), 2);
        assert_eq!(t.calls(2), 1);
        assert_eq!(t.calls(3), 0);
        assert_eq!(t.total_monitored(), 3);
        t.reset();
        assert_eq!(t.calls(1), 0);
        assert_eq!(t.total_monitored(), 3, "lifetime total survives resets");
        t.record_call(2);
        let lifetime: Vec<_> = t.lifetime_calls().iter().map(|(r, n)| (*r, *n)).collect();
        assert_eq!(lifetime, [(1, 2), (2, 2)], "per-RDD totals survive resets");
    }
}
