//! Memory outside the traced heap: one table of refcounted blocks plus a
//! bump-pointer stage arena, none of which the GC ever traces.
//!
//! Two extensions take data out of the collector's sight, and both keep
//! their bytes here:
//!
//! * the off-heap H2 region (after TeraHeap's H2, "Garbage Collection or
//!   Serialization?"), which holds persisted RDDs outside every heap
//!   space — never traced, card-marked, or serialized;
//! * Deca-style region allocation ("Lifetime-Based Memory Management for
//!   Distributed Data Processing Systems"), which decomposes data by
//!   lifetime instead of by age: where the generational heap pays
//!   tracing, card marking, and promotion for every object, an arena is a
//!   bump pointer — allocation is an addition, and death is wholesale,
//!   with no per-object work at all.
//!
//! Either way a persisted RDD is one *block*: its modelled bytes, the
//! device it sits on, its lifetime class, and the number of scheduled
//! consumers the static [`LifetimePlan`] gives it. The block is freed
//! wholesale when that count reaches zero. Which extension a run's blocks
//! stand for is the engine's decision; the table is the same.
//!
//! Three region classes cover the engine's allocation sites:
//!
//! * [`RegionClass::StageScratch`] — operator scratch and streamed
//!   temporaries that die when the enclosing stage completes. Backed by
//!   one open *stage arena* at a time, always in DRAM (scratch is hot by
//!   construction), reset at stage end.
//! * [`RegionClass::RddLifetime`] — persisted RDD payloads whose death
//!   is scheduled by the lifetime plan: a refcounted block.
//! * [`RegionClass::Eternal`] — persisted RDDs whose last scheduled
//!   consumer is the program's final step; they live to the end of the
//!   run. Same mechanism as `RddLifetime`, but the classification lets
//!   placement and reporting distinguish data that never dies.
//!
//! Blocks are tagged [`DeviceKind::Dram`] or [`DeviceKind::Nvm`] as a
//! whole — they compose with Panthera's migration tagging at block
//! granularity, not per object. The tracing heap treats them as roots
//! with opaque interiors: block payloads hold no [`ObjId`]s, so the
//! six-invariant verifier is unaffected by construction.
//!
//! Like the rest of `mheap`, this module is pure bookkeeping over
//! *modelled* bytes; device time and energy are charged by the caller
//! through the [`MemorySystem`].
//!
//! [`LifetimePlan`]: ../index.html
//! [`ObjId`]: crate::ObjId
//! [`MemorySystem`]: hybridmem::MemorySystem

use hybridmem::DeviceKind;
use std::collections::HashMap;

/// The lifetime class of a region, inferred per allocation site.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegionClass {
    /// Dies when the enclosing stage completes (operator scratch,
    /// streamed temporaries, unconsumed transients).
    StageScratch,
    /// Dies when the lifetime plan's consumer refcount reaches zero.
    RddLifetime,
    /// Lives until the end of the program (last consumer is the final
    /// step of the plan).
    Eternal,
}

impl RegionClass {
    /// Stable lowercase label for reports and events.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RegionClass::StageScratch => "stage",
            RegionClass::RddLifetime => "rdd",
            RegionClass::Eternal => "eternal",
        }
    }
}

/// One block — an H2 block or an RDD-lifetime arena: modelled size,
/// device tag, class, and the number of scheduled consumers still
/// outstanding.
#[derive(Clone, Copy, Debug)]
pub struct RegionBlock {
    /// Modelled payload bytes bumped into the arena.
    pub bytes: u64,
    /// Which device the whole arena resides on.
    pub device: DeviceKind,
    /// Lifetime class ([`RegionClass::RddLifetime`] or
    /// [`RegionClass::Eternal`]; stage scratch is not block-addressed).
    pub class: RegionClass,
    /// Remaining scheduled consumers. The arena is freed wholesale when
    /// this reaches zero.
    pub refs: u32,
}

/// Cumulative allocator counters. Monotone over a run; never reset.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegionStats {
    /// Stage arenas opened.
    pub stages_opened: u64,
    /// Stage arenas closed (reset wholesale).
    pub stages_closed: u64,
    /// Bytes bumped into stage arenas.
    pub stage_bytes: u64,
    /// Blocks allocated.
    pub block_allocs: u64,
    /// Blocks freed (refcount zero or forced).
    pub block_frees: u64,
    /// Bytes allocated into blocks.
    pub block_bytes: u64,
    /// Bytes returned by wholesale frees (stage resets + block frees).
    pub freed_bytes: u64,
}

/// The region allocator: at most one open stage arena plus the table of
/// refcounted blocks, with per-device residency totals.
///
/// All operations are O(1) or O(live arenas); iteration orders are
/// sorted so observable output is deterministic.
#[derive(Debug, Default)]
pub struct RegionHeap {
    /// Bytes bumped into the currently open stage arena, if any.
    stage: Option<u64>,
    /// Live blocks keyed by RDD id.
    blocks: HashMap<u32, RegionBlock>,
    /// Live arena bytes per device, indexed by [`dev_idx`].
    resident: [u64; 2],
    stats: RegionStats,
}

fn dev_idx(device: DeviceKind) -> usize {
    match device {
        DeviceKind::Dram => 0,
        DeviceKind::Nvm => 1,
    }
}

impl RegionHeap {
    /// An empty region heap with no open arenas.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Open the stage arena for the next stage.
    ///
    /// # Panics
    ///
    /// Panics if a stage arena is already open — stages do not nest.
    pub fn open_stage(&mut self) {
        assert!(
            self.stage.is_none(),
            "region: stage arena opened while one is already open"
        );
        self.stage = Some(0);
        self.stats.stages_opened += 1;
    }

    /// Whether a stage arena is currently open.
    #[must_use]
    pub fn stage_open(&self) -> bool {
        self.stage.is_some()
    }

    /// Bump `bytes` into the open stage arena. Stage arenas are always
    /// DRAM-resident.
    ///
    /// # Panics
    ///
    /// Panics if no stage arena is open.
    pub fn stage_bump(&mut self, bytes: u64) {
        let bumped = self
            .stage
            .as_mut()
            .expect("region: stage bump with no open stage arena");
        *bumped += bytes;
        self.resident[dev_idx(DeviceKind::Dram)] += bytes;
        self.stats.stage_bytes += bytes;
    }

    /// Bytes bumped into the open stage arena so far (0 if none open).
    #[must_use]
    pub fn stage_bytes(&self) -> u64 {
        self.stage.unwrap_or(0)
    }

    /// Close the open stage arena, freeing its contents wholesale.
    /// Returns the bytes released.
    ///
    /// # Panics
    ///
    /// Panics if no stage arena is open.
    pub fn close_stage(&mut self) -> u64 {
        let bumped = self
            .stage
            .take()
            .expect("region: stage close with no open stage arena");
        self.resident[dev_idx(DeviceKind::Dram)] -= bumped;
        self.stats.stages_closed += 1;
        self.stats.freed_bytes += bumped;
        bumped
    }

    /// Allocate the block for `rdd`: `bytes` on `device`, freed
    /// wholesale after `refs` scheduled consumers release it. A
    /// `refs` of 0 is legal — the caller's schedule frees it in the same
    /// step it was born.
    ///
    /// # Panics
    ///
    /// Panics if `rdd` already has a live arena.
    pub fn alloc_block(
        &mut self,
        rdd: u32,
        bytes: u64,
        device: DeviceKind,
        class: RegionClass,
        refs: u32,
    ) {
        assert!(
            !matches!(class, RegionClass::StageScratch),
            "region: stage scratch is not block-addressed; use stage_bump"
        );
        let prev = self.blocks.insert(
            rdd,
            RegionBlock {
                bytes,
                device,
                class,
                refs,
            },
        );
        assert!(
            prev.is_none(),
            "region: double alloc of arena for rdd {rdd}"
        );
        self.resident[dev_idx(device)] += bytes;
        self.stats.block_allocs += 1;
        self.stats.block_bytes += bytes;
    }

    /// The live arena for `rdd`, if any.
    #[must_use]
    pub fn block(&self, rdd: u32) -> Option<&RegionBlock> {
        self.blocks.get(&rdd)
    }

    /// Release one scheduled consumer reference on `rdd`'s arena. If the
    /// refcount reaches zero the arena is freed wholesale and returned.
    ///
    /// # Panics
    ///
    /// Panics if `rdd` has no live arena or its refcount is already zero
    /// — both indicate a schedule bug, not a runtime condition.
    pub fn release(&mut self, rdd: u32) -> Option<RegionBlock> {
        let block = self
            .blocks
            .get_mut(&rdd)
            .unwrap_or_else(|| panic!("region: release of dead arena for rdd {rdd}"));
        assert!(block.refs > 0, "region: refcount underflow on rdd {rdd}");
        block.refs -= 1;
        if block.refs == 0 {
            return Some(self.free(rdd));
        }
        None
    }

    /// Free `rdd`'s arena wholesale regardless of refcount (unpersist,
    /// retain-0 birth-death, or end-of-run sweep). Returns the arena.
    ///
    /// # Panics
    ///
    /// Panics if `rdd` has no live arena.
    pub fn free(&mut self, rdd: u32) -> RegionBlock {
        let block = self
            .blocks
            .remove(&rdd)
            .unwrap_or_else(|| panic!("region: free of dead arena for rdd {rdd}"));
        self.resident[dev_idx(block.device)] -= block.bytes;
        self.stats.block_frees += 1;
        self.stats.freed_bytes += block.bytes;
        block
    }

    /// Number of live RDD-lifetime arenas.
    #[must_use]
    pub fn live_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Live arena bytes resident on `device` (stage arena included, as
    /// DRAM).
    #[must_use]
    pub fn resident_bytes(&self, device: DeviceKind) -> u64 {
        self.resident[dev_idx(device)]
    }

    /// Live arena bytes across both devices.
    #[must_use]
    pub fn total_resident_bytes(&self) -> u64 {
        self.resident.iter().sum()
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> RegionStats {
        self.stats
    }

    /// RDD ids with live arenas, sorted for deterministic output.
    #[must_use]
    pub fn live_rdds(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.blocks.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Check the allocator's internal invariants:
    ///
    /// 1. per-device residency equals the sum of live arena bytes (plus
    ///    the open stage arena, on DRAM);
    /// 2. every live block-addressed arena has a block class;
    /// 3. frees never exceed allocations (stage and block counts);
    /// 4. bytes bumped minus bytes freed equals bytes resident.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut live = [self.stage.unwrap_or(0), 0];
        for (rdd, b) in &self.blocks {
            if matches!(b.class, RegionClass::StageScratch) {
                return Err(format!("rdd {rdd} arena carries the stage-scratch class"));
            }
            live[dev_idx(b.device)] += b.bytes;
        }
        if live != self.resident {
            return Err(format!(
                "residency drift: counted {live:?}, recorded {:?}",
                self.resident
            ));
        }
        if self.stats.stages_closed > self.stats.stages_opened {
            return Err("more stage arenas closed than opened".to_string());
        }
        if self.stats.block_frees > self.stats.block_allocs {
            return Err("more block arenas freed than allocated".to_string());
        }
        let bumped = self.stats.stage_bytes + self.stats.block_bytes;
        if bumped - self.stats.freed_bytes != self.total_resident_bytes() {
            return Err(format!(
                "byte ledger drift: bumped {bumped} - freed {} != resident {}",
                self.stats.freed_bytes,
                self.total_resident_bytes()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_arena_resets_wholesale() {
        let mut r = RegionHeap::new();
        r.open_stage();
        r.stage_bump(100);
        r.stage_bump(28);
        assert_eq!(r.stage_bytes(), 128);
        assert_eq!(r.resident_bytes(DeviceKind::Dram), 128);
        let freed = r.close_stage();
        assert_eq!(freed, 128);
        assert_eq!(r.total_resident_bytes(), 0);
        let s = r.stats();
        assert_eq!((s.stages_opened, s.stages_closed), (1, 1));
        assert_eq!(s.stage_bytes, 128);
        assert_eq!(s.freed_bytes, 128);
        r.check_invariants().unwrap();
    }

    #[test]
    fn refcounted_block_lifecycle_balances() {
        let mut r = RegionHeap::new();
        r.alloc_block(3, 512, DeviceKind::Nvm, RegionClass::RddLifetime, 2);
        assert_eq!(r.block(3).unwrap().refs, 2);
        assert!(r.release(3).is_none());
        let freed = r.release(3).expect("second release frees");
        assert_eq!(freed.bytes, 512);
        assert_eq!(r.live_blocks(), 0);
        assert_eq!(r.total_resident_bytes(), 0);
        r.check_invariants().unwrap();
    }

    #[test]
    fn force_free_ignores_refcount() {
        let mut r = RegionHeap::new();
        r.alloc_block(7, 64, DeviceKind::Dram, RegionClass::Eternal, 9);
        let b = r.free(7);
        assert_eq!((b.bytes, b.refs), (64, 9));
        assert_eq!(r.total_resident_bytes(), 0);
        r.check_invariants().unwrap();
    }

    #[test]
    fn live_rdds_are_sorted() {
        let mut r = RegionHeap::new();
        for id in [9, 2, 5] {
            r.alloc_block(id, 8, DeviceKind::Dram, RegionClass::RddLifetime, 1);
        }
        assert_eq!(r.live_rdds(), vec![2, 5, 9]);
    }

    #[test]
    fn stage_and_blocks_coexist_in_ledger() {
        let mut r = RegionHeap::new();
        r.open_stage();
        r.stage_bump(10);
        r.alloc_block(1, 20, DeviceKind::Nvm, RegionClass::RddLifetime, 1);
        assert_eq!(r.resident_bytes(DeviceKind::Dram), 10);
        assert_eq!(r.resident_bytes(DeviceKind::Nvm), 20);
        r.check_invariants().unwrap();
        r.close_stage();
        assert_eq!(r.total_resident_bytes(), 20);
        r.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "double alloc")]
    fn double_alloc_panics() {
        let mut r = RegionHeap::new();
        r.alloc_block(1, 8, DeviceKind::Dram, RegionClass::RddLifetime, 1);
        r.alloc_block(1, 8, DeviceKind::Dram, RegionClass::RddLifetime, 1);
    }

    #[test]
    #[should_panic(expected = "refcount underflow")]
    fn zero_ref_release_panics() {
        let mut r = RegionHeap::new();
        r.alloc_block(1, 8, DeviceKind::Dram, RegionClass::RddLifetime, 0);
        r.release(1);
    }

    #[test]
    #[should_panic(expected = "already open")]
    fn nested_stage_panics() {
        let mut r = RegionHeap::new();
        r.open_stage();
        r.open_stage();
    }
}
