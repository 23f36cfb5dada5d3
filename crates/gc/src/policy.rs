//! The placement policy: where arrays are pretenured and survivors
//! promoted. The paper's baselines (Section 5.2) differ from Panthera only
//! in where Table 1 sends tagged and untagged objects, so one collector
//! serves them all, and a [`Policy`] is a [`MemoryMode`] plus Panthera's
//! two ablation toggles.

use hybridmem::DeviceKind;
use mheap::{Heap, MemTag, OldGenLayout, OldSpaceId};
use std::fmt;

/// One of the paper's memory-management configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryMode {
    /// Everything in DRAM — the normalization baseline of every figure.
    DramOnly,
    /// Young generation in DRAM; old generation's virtual space divided
    /// into chunks, each mapped to DRAM with probability equal to the
    /// DRAM ratio (the paper's strongest baseline, Section 5.2).
    Unmanaged,
    /// Kingsguard-Nursery: young generation in DRAM, entire old
    /// generation in NVM.
    KingsguardNursery,
    /// Kingsguard-Writes: like KN plus write-monitoring barriers that
    /// migrate write-intensive objects to a DRAM old space.
    KingsguardWrites,
    /// The paper's contribution: semantics-aware placement with a split
    /// old generation.
    Panthera,
}

impl MemoryMode {
    /// All modes in presentation order.
    pub const ALL: [MemoryMode; 5] = [
        MemoryMode::DramOnly,
        MemoryMode::Unmanaged,
        MemoryMode::KingsguardNursery,
        MemoryMode::KingsguardWrites,
        MemoryMode::Panthera,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MemoryMode::DramOnly => "dram-only",
            MemoryMode::Unmanaged => "unmanaged",
            MemoryMode::KingsguardNursery => "kingsguard-nursery",
            MemoryMode::KingsguardWrites => "kingsguard-writes",
            MemoryMode::Panthera => "panthera",
        }
    }

    /// Does this mode use Panthera's semantic machinery (tags, lineage
    /// propagation, monitoring)?
    pub fn is_semantic(self) -> bool {
        matches!(self, MemoryMode::Panthera)
    }

    /// Does the mode install any NVM at all?
    pub fn uses_nvm(self) -> bool {
        !matches!(self, MemoryMode::DramOnly)
    }

    /// The old-generation layout this mode's [`Policy`] places into;
    /// `chunk_bytes` is the Unmanaged interleaving granularity.
    pub fn old_layout(self, chunk_bytes: u64) -> OldGenLayout {
        match self {
            MemoryMode::DramOnly => OldGenLayout::Unified(DeviceKind::Dram),
            MemoryMode::Unmanaged => OldGenLayout::Interleaved { chunk_bytes },
            MemoryMode::KingsguardNursery => OldGenLayout::Unified(DeviceKind::Nvm),
            MemoryMode::KingsguardWrites | MemoryMode::Panthera => OldGenLayout::SplitDramNvm,
        }
    }
}

impl fmt::Display for MemoryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Decides object placement for the collectors, on a heap whose old
/// generation has the mode's [`MemoryMode::old_layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// The memory mode.
    pub mode: MemoryMode,
    /// Enable eager promotion (ablation toggle; Section 5.3 credits it with
    /// ~9% of the GC improvement). Only counts under Panthera.
    pub eager_promotion: bool,
    /// Enable major-GC dynamic migration (Section 5.5 ablation). Only
    /// counts under Panthera.
    pub dynamic_migration: bool,
}

// Collector state is shared across host threads by value.
const _: fn() = || {
    fn shareable<T: Copy + Send + Sync>() {}
    shareable::<Policy>();
};

impl From<MemoryMode> for Policy {
    /// The mode with both ablation toggles on.
    fn from(mode: MemoryMode) -> Self {
        Policy {
            mode,
            eager_promotion: true,
            dynamic_migration: true,
        }
    }
}

impl Policy {
    /// Old space a materialized RDD array with tag `tag` should pretenure
    /// into, or `None` to allocate it in the young generation.
    pub fn array_space(self, heap: &Heap, tag: MemTag) -> Option<OldSpaceId> {
        match self.mode {
            MemoryMode::Panthera if tag == MemTag::None => None,
            // Everything else pretenures where its survivors promote: RDD
            // backbone arrays are humongous, and like HotSpot the baselines
            // allocate them directly in the old generation.
            _ => Some(self.promotion_space(heap, tag)),
        }
    }

    /// Old space a surviving young object with tag `tag` promotes to.
    pub fn promotion_space(self, heap: &Heap, tag: MemTag) -> OldSpaceId {
        match self.mode {
            MemoryMode::Panthera if tag == MemTag::Dram => heap.old_dram().expect("split layout"),
            // Untagged long-lived objects default to NVM (Section 4.1), and
            // Kingsguard-Writes starts everything old there.
            MemoryMode::Panthera | MemoryMode::KingsguardWrites => {
                heap.old_nvm().expect("split layout")
            }
            MemoryMode::DramOnly | MemoryMode::Unmanaged | MemoryMode::KingsguardNursery => {
                OldSpaceId(0)
            }
        }
    }

    /// Promote tagged objects immediately during tracing instead of aging
    /// them through the survivor spaces (Section 4.2.2).
    pub fn eager_promotion(self) -> bool {
        matches!(self.mode, MemoryMode::Panthera) && self.eager_promotion
    }

    /// Propagate `MEMORY_BITS` along references during tracing.
    pub fn propagate_tags(self) -> bool {
        matches!(self.mode, MemoryMode::Panthera)
    }

    /// Re-assess RDD placement from access frequencies at major GCs.
    pub fn dynamic_migration(self) -> bool {
        matches!(self.mode, MemoryMode::Panthera) && self.dynamic_migration
    }

    /// Migrate write-hot old objects to DRAM (Kingsguard-Writes).
    pub fn write_migration(self) -> bool {
        matches!(self.mode, MemoryMode::KingsguardWrites)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem::MemorySystemConfig;
    use mheap::HeapConfig;

    /// A heap with `mode`'s old-generation layout.
    fn heap(mode: MemoryMode) -> Heap {
        let mut cfg = HeapConfig::panthera(600_000, 1.0 / 3.0);
        cfg.old_layout = mode.old_layout(50_000);
        Heap::new(cfg, MemorySystemConfig::with_capacities(600_000, 600_000)).unwrap()
    }

    #[test]
    fn every_mode_places_every_tag() {
        use MemoryMode::*;
        // The only old space of a unified layout, and the split layout's two.
        const OLD: OldSpaceId = OldSpaceId(0);
        const DRAM: OldSpaceId = OldSpaceId(0);
        const NVM: OldSpaceId = OldSpaceId(1);
        type Row = (MemoryMode, [(Option<OldSpaceId>, OldSpaceId); 3], [bool; 4]);
        // Per mode: (array_space, promotion_space) for untagged, NVM- and
        // DRAM-tagged objects, then eager promotion, tag propagation,
        // dynamic migration and write migration.
        let table: [Row; 5] = [
            (DramOnly, [(Some(OLD), OLD); 3], [false; 4]),
            (Unmanaged, [(Some(OLD), OLD); 3], [false; 4]),
            (KingsguardNursery, [(Some(OLD), OLD); 3], [false; 4]),
            (
                KingsguardWrites,
                [(Some(NVM), NVM); 3],
                [false, false, false, true],
            ),
            (
                Panthera,
                [(None, NVM), (Some(NVM), NVM), (Some(DRAM), DRAM)],
                [true, true, true, false],
            ),
        ];
        assert_eq!(table.map(|row| row.0), MemoryMode::ALL);
        for (mode, spaces, predicates) in table {
            let h = heap(mode);
            if matches!(mode, KingsguardWrites | Panthera) {
                assert_eq!((h.old_dram(), h.old_nvm()), (Some(DRAM), Some(NVM)));
            }
            let p = Policy::from(mode);
            for (tag, (array, promotion)) in [MemTag::None, MemTag::Nvm, MemTag::Dram]
                .into_iter()
                .zip(spaces)
            {
                assert_eq!(p.array_space(&h, tag), array, "{mode} {tag:?}");
                assert_eq!(p.promotion_space(&h, tag), promotion, "{mode} {tag:?}");
            }
            let actual = [
                p.eager_promotion(),
                p.propagate_tags(),
                p.dynamic_migration(),
                p.write_migration(),
            ];
            assert_eq!(actual, predicates, "{mode}");
        }
    }

    #[test]
    fn panthera_follows_table_1() {
        let h = heap(MemoryMode::Panthera);
        let p = Policy::from(MemoryMode::Panthera);
        assert_eq!(p.array_space(&h, MemTag::Dram), h.old_dram());
        assert_eq!(p.array_space(&h, MemTag::Nvm), h.old_nvm());
        assert_eq!(p.array_space(&h, MemTag::None), None);
        assert_eq!(p.promotion_space(&h, MemTag::Dram), h.old_dram().unwrap());
        assert_eq!(p.promotion_space(&h, MemTag::None), h.old_nvm().unwrap());
    }

    #[test]
    fn unified_ignores_tags() {
        for mode in [
            MemoryMode::DramOnly,
            MemoryMode::Unmanaged,
            MemoryMode::KingsguardNursery,
        ] {
            let h = heap(mode);
            let p = Policy::from(mode);
            for tag in [MemTag::None, MemTag::Dram, MemTag::Nvm] {
                assert_eq!(p.array_space(&h, tag), Some(OldSpaceId(0)));
                assert_eq!(p.promotion_space(&h, tag), OldSpaceId(0));
            }
        }
    }

    #[test]
    fn kingsguard_writes_defaults_to_nvm() {
        let h = heap(MemoryMode::KingsguardWrites);
        let p = Policy::from(MemoryMode::KingsguardWrites);
        assert_eq!(p.array_space(&h, MemTag::Dram), h.old_nvm());
        assert_eq!(p.promotion_space(&h, MemTag::Dram), h.old_nvm().unwrap());
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = MemoryMode::ALL.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), MemoryMode::ALL.len());
    }

    #[test]
    fn semantics_flag() {
        assert!(MemoryMode::Panthera.is_semantic());
        assert!(!MemoryMode::Unmanaged.is_semantic());
        assert!(!MemoryMode::DramOnly.uses_nvm());
        assert!(MemoryMode::KingsguardNursery.uses_nvm());
    }
}
