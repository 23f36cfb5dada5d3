//! Heap sizing and layout configuration.

use hybridmem::DeviceKind;

/// Fraction of the young generation given to *each* survivor space
/// (OpenJDK's default eden:survivor:survivor is 8:1:1).
pub const SURVIVOR_FRACTION: f64 = 0.1;

/// Promote survivors after this many minor collections.
pub const TENURE_THRESHOLD: u8 = 3;

/// How the old generation maps onto physical devices.
#[derive(Debug, Clone, PartialEq)]
pub enum OldGenLayout {
    /// Panthera's split old generation: a DRAM space plus an NVM space
    /// whose sizes are derived from the DRAM ratio.
    SplitDramNvm,
    /// One unified old space pinned to a single device (DRAM-only baseline
    /// or Kingsguard-Nursery, which puts the whole old generation in NVM).
    Unified(DeviceKind),
    /// One unified old space whose chunks are mapped to DRAM with
    /// probability equal to the DRAM ratio — the paper's "unmanaged"
    /// baseline (Section 5.2).
    Interleaved {
        /// Chunk granularity in bytes (1 GB in the paper, scaled here).
        chunk_bytes: u64,
    },
}

/// Full heap configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapConfig {
    /// Total heap size in simulated bytes.
    pub heap_bytes: u64,
    /// Fraction of the heap given to the young generation (the paper uses
    /// 1/6 after a sensitivity study in Section 5.2).
    pub nursery_fraction: f64,
    /// DRAM as a fraction of total memory (1/4 or 1/3 in the evaluation).
    /// Determines the split-old-generation sizes and the interleaving
    /// probability.
    pub dram_ratio: f64,
    /// Old-generation device layout.
    pub old_layout: OldGenLayout,
    /// Apply the card-padding optimization to RDD arrays (Section 4.2.3).
    pub card_padding: bool,
    /// Track per-object write counts in the barrier (Kingsguard-Writes).
    pub track_writes: bool,
    /// Seed for the interleaved chunk map.
    pub seed: u64,
    /// Extra bytes added to every data-tuple object, modelling managed-
    /// runtime representation bloat (boxed fields, object headers, pointer
    /// indirection) — the reason the paper's RDDs occupy 10-30 GB of heap
    /// for gigabyte-scale inputs.
    pub tuple_bloat_bytes: u64,
}

impl HeapConfig {
    /// A Panthera-style config for the given heap size and DRAM ratio.
    pub fn panthera(heap_bytes: u64, dram_ratio: f64) -> Self {
        HeapConfig {
            heap_bytes,
            nursery_fraction: 1.0 / 6.0,
            dram_ratio,
            old_layout: OldGenLayout::SplitDramNvm,
            card_padding: true,
            track_writes: false,
            seed: 0x9a77_0e11,
            tuple_bloat_bytes: 0,
        }
    }

    /// Young-generation size in bytes.
    pub fn young_bytes(&self) -> u64 {
        (self.heap_bytes as f64 * self.nursery_fraction) as u64
    }

    /// Eden size in bytes.
    pub fn eden_bytes(&self) -> u64 {
        self.young_bytes() - 2 * self.survivor_bytes()
    }

    /// Size of each survivor space in bytes.
    pub fn survivor_bytes(&self) -> u64 {
        (self.young_bytes() as f64 * SURVIVOR_FRACTION) as u64
    }

    /// Old-generation size in bytes.
    pub fn old_bytes(&self) -> u64 {
        self.heap_bytes - self.young_bytes()
    }

    /// DRAM budget available to the old generation: total DRAM minus the
    /// young generation, which always resides in DRAM.
    pub fn old_dram_bytes(&self) -> u64 {
        let total_dram = (self.heap_bytes as f64 * self.dram_ratio) as u64;
        total_dram.saturating_sub(self.young_bytes())
    }

    /// NVM share of the old generation under the split layout.
    pub fn old_nvm_bytes(&self) -> u64 {
        self.old_bytes() - self.old_dram_bytes().min(self.old_bytes())
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.heap_bytes == 0 {
            return Err("heap size must be positive".into());
        }
        if !(0.0 < self.nursery_fraction && self.nursery_fraction < 0.5) {
            return Err("nursery fraction must be in (0, 0.5)".into());
        }
        if !(0.0 < self.dram_ratio && self.dram_ratio <= 1.0) {
            return Err("DRAM ratio must be in (0, 1]".into());
        }
        if self.old_layout == OldGenLayout::SplitDramNvm && self.old_dram_bytes() == 0 {
            return Err(
                "DRAM ratio too small: no DRAM left for the old generation after \
                 placing the nursery (the paper requires DRAM to hold at least one RDD)"
                    .into(),
            );
        }
        // Every region `Heap::new` creates must be non-empty.
        let old = match self.old_layout {
            OldGenLayout::SplitDramNvm => ("old-nvm", self.old_nvm_bytes()),
            OldGenLayout::Interleaved { chunk_bytes: 0 } => {
                return Err("interleave chunk size must be positive".into())
            }
            _ => ("old", self.old_bytes()),
        };
        let regions = [
            ("eden", self.eden_bytes()),
            ("survivor", self.survivor_bytes()),
            old,
        ];
        match regions.into_iter().find(|&(_, bytes)| bytes == 0) {
            Some((name, _)) => Err(format!(
                "heap too small for its layout: region {name} would be empty"
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panthera_config_sizes() {
        let c = HeapConfig::panthera(60_000, 1.0 / 3.0);
        assert_eq!(c.young_bytes(), 10_000);
        assert_eq!(c.old_bytes(), 50_000);
        // 20 000 DRAM total − 10 000 young = 10 000 old DRAM.
        assert_eq!(c.old_dram_bytes(), 10_000);
        assert_eq!(c.old_nvm_bytes(), 40_000);
        assert_eq!(c.eden_bytes() + 2 * c.survivor_bytes(), c.young_bytes());
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_tiny_dram() {
        // DRAM ratio 1/6 exactly covers the nursery, leaving nothing for
        // the old generation's DRAM space.
        let c = HeapConfig::panthera(60_000, 1.0 / 6.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_degenerate() {
        let mut c = HeapConfig::panthera(0, 0.25);
        assert!(c.validate().is_err());
        c = HeapConfig::panthera(1000, 0.25);
        c.nursery_fraction = 0.9;
        assert!(c.validate().is_err());
        let mut c2 = HeapConfig::panthera(1000, 0.25);
        c2.dram_ratio = 0.0;
        assert!(c2.validate().is_err());
    }

    #[test]
    fn unified_layout_has_no_dram_constraint() {
        let mut c = HeapConfig::panthera(60_000, 1.0);
        c.old_layout = OldGenLayout::Unified(DeviceKind::Dram);
        c.validate().unwrap();
    }
}
