//! Collector statistics for the evaluation's GC breakdowns (Figure 5,
//! Table 5, and the Section 5.3 optimization accounting).

obs::counters! {
    /// Counters accumulated across a run.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct GcStats {
        /// Minor (young-generation) collections run.
        pub minor_count: u64,
        /// Major (full-heap) collections run.
        pub major_count: u64,
        /// Young objects copied to a survivor space.
        pub survivor_copies: u64,
        /// Objects promoted because they reached the tenure threshold.
        pub tenured_promotions: u64,
        /// Objects promoted eagerly because their `MEMORY_BITS` were set.
        pub eager_promotions: u64,
        /// Promotions that fell back to NVM because the preferred DRAM old
        /// space was full.
        pub promotion_fallbacks: u64,
        /// Dynamic migrations abandoned because the destination old space was
        /// full; the object was re-appended to its source space.
        pub migration_fallbacks: u64,
        /// Young objects reclaimed.
        pub young_freed: u64,
        /// Old objects reclaimed.
        pub old_freed: u64,
        /// Dirty cards scanned across all minor GCs.
        pub cards_scanned: u64,
        /// Bytes read while scanning dirty cards.
        pub card_scan_bytes: u64,
        /// Full-array rescans forced by stuck (shared) cards.
        pub stuck_card_rescans: u64,
        /// RDD arrays migrated between DRAM and NVM by dynamic re-assessment
        /// (Table 5's "# RDDs migrated").
        pub rdds_migrated: u64,
        /// Objects moved by Kingsguard-Writes write-rationing migration.
        pub write_migrations: u64,
    }
}

impl GcStats {
    /// Total promotions of any kind.
    pub fn total_promotions(&self) -> u64 {
        self.tenured_promotions + self.eager_promotions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = GcStats {
            tenured_promotions: 3,
            eager_promotions: 4,
            ..Default::default()
        };
        assert_eq!(s.total_promotions(), 7);
    }
}
