//! The simulated managed heap.
//!
//! Owns the object slab, the generational spaces, the card tables, the
//! write barrier, and the [`MemorySystem`] every operation charges its
//! traffic to. Collection *policy* lives in the `gc` crate; this module
//! provides the mechanisms collectors are built from (allocate, move,
//! free, dirty cards, rebuild spaces).

use crate::card::{pad_to_card, CardTable};
use crate::config::{HeapConfig, OldGenLayout};
use crate::markset::MarkSet;
use crate::object::{object_bytes, ObjId, ObjKind, Object, HEADER_BYTES, REF_BYTES};
use crate::payload::Payload;
use crate::space::{OldSpaceId, Space, SpaceId};
use crate::tag::MemTag;
use hybridmem::{AccessKind, AccessProfile, Addr, DeviceKind, MemorySystem, MemorySystemConfig};
use std::collections::HashMap;

/// CPU cost of the write-barrier fast path, per reference store.
const BARRIER_NS: f64 = 1.0;
/// Extra CPU cost per store for Kingsguard-Writes-style write monitoring.
const WRITE_MONITOR_NS: f64 = 25.0;

/// Errors surfaced by heap operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// Eden cannot satisfy an allocation; the caller should run a minor GC.
    EdenFull {
        /// Bytes that were requested.
        need: u64,
    },
    /// An old space cannot satisfy an allocation or promotion.
    OldSpaceFull {
        /// The exhausted space.
        space: OldSpaceId,
        /// Bytes that were requested.
        need: u64,
    },
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::EdenFull { need } => write!(f, "eden full ({need} bytes requested)"),
            HeapError::OldSpaceFull { space, need } => {
                write!(f, "old space {} full ({need} bytes requested)", space.0)
            }
        }
    }
}

impl std::error::Error for HeapError {}

/// An allocation the heap could not place: the error, and the `refs` the
/// call consumed, handed back for the retry.
#[derive(Debug)]
pub struct Rejected {
    /// Why the allocation failed.
    pub error: HeapError,
    /// The `refs` argument, untouched.
    pub refs: Vec<ObjId>,
}

obs::counters! {
    /// Aggregate heap counters.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct HeapStats {
        /// Objects allocated in the young generation.
        pub young_allocs: u64,
        /// Objects allocated directly in the old generation (pretenured).
        pub pretenured_allocs: u64,
        /// Total bytes ever allocated.
        pub allocated_bytes: u64,
        /// Reference stores that went through the write barrier.
        pub ref_stores: u64,
        /// Cards dirtied by the barrier.
        pub cards_dirtied: u64,
        /// Objects moved by collectors.
        pub moves: u64,
        /// Objects freed by collectors.
        pub frees: u64,
    }
}

/// The simulated heap. See the crate docs for the overall model.
#[derive(Debug)]
pub struct Heap {
    config: HeapConfig,
    mem: MemorySystem,
    objects: Vec<Option<Object>>,
    free_ids: Vec<u32>,
    eden: Space,
    survivors: [Space; 2],
    /// Index into `survivors` of the current from-space.
    from_idx: usize,
    olds: Vec<Space>,
    cards: Vec<CardTable>,
    old_dram: Option<OldSpaceId>,
    old_nvm: Option<OldSpaceId>,
    write_counts: HashMap<ObjId, u64>,
    stats: HeapStats,
}

impl Heap {
    /// Build a heap per `config`, registering its regions with a fresh
    /// [`MemorySystem`] configured by `mem_config`.
    ///
    /// # Errors
    ///
    /// Returns an error string if the configuration is inconsistent.
    pub fn new(config: HeapConfig, mem_config: MemorySystemConfig) -> Result<Self, String> {
        config.validate()?;
        let mut mem = MemorySystem::new(mem_config);

        // Young generation: always DRAM (design choice in Section 1.2).
        let eden_base = mem
            .layout_mut()
            .add_fixed("eden", config.eden_bytes(), DeviceKind::Dram);
        let s0_base =
            mem.layout_mut()
                .add_fixed("survivor0", config.survivor_bytes(), DeviceKind::Dram);
        let s1_base =
            mem.layout_mut()
                .add_fixed("survivor1", config.survivor_bytes(), DeviceKind::Dram);

        let eden = Space::new(SpaceId::Eden, eden_base, config.eden_bytes());
        let survivors = [
            Space::new(SpaceId::Survivor0, s0_base, config.survivor_bytes()),
            Space::new(SpaceId::Survivor1, s1_base, config.survivor_bytes()),
        ];

        let mut olds = Vec::new();
        let mut cards = Vec::new();
        let mut old_dram = None;
        let mut old_nvm = None;
        match &config.old_layout {
            OldGenLayout::SplitDramNvm => {
                let dram_bytes = config.old_dram_bytes();
                let nvm_bytes = config.old_nvm_bytes();
                let base = mem
                    .layout_mut()
                    .add_fixed("old-dram", dram_bytes, DeviceKind::Dram);
                olds.push(Space::new(SpaceId::Old(OldSpaceId(0)), base, dram_bytes));
                cards.push(CardTable::new(base, dram_bytes));
                old_dram = Some(OldSpaceId(0));
                let base = mem
                    .layout_mut()
                    .add_fixed("old-nvm", nvm_bytes, DeviceKind::Nvm);
                olds.push(Space::new(SpaceId::Old(OldSpaceId(1)), base, nvm_bytes));
                cards.push(CardTable::new(base, nvm_bytes));
                old_nvm = Some(OldSpaceId(1));
            }
            OldGenLayout::Unified(device) => {
                let bytes = config.old_bytes();
                let base = mem.layout_mut().add_fixed("old", bytes, *device);
                olds.push(Space::new(SpaceId::Old(OldSpaceId(0)), base, bytes));
                cards.push(CardTable::new(base, bytes));
            }
            OldGenLayout::Interleaved { chunk_bytes } => {
                let bytes = config.old_bytes();
                let base = mem.layout_mut().add_interleaved(
                    "old-interleaved",
                    bytes,
                    *chunk_bytes,
                    config.dram_ratio,
                    config.seed,
                );
                olds.push(Space::new(SpaceId::Old(OldSpaceId(0)), base, bytes));
                cards.push(CardTable::new(base, bytes));
            }
        }

        Ok(Heap {
            config,
            mem,
            objects: Vec::new(),
            free_ids: Vec::new(),
            eden,
            survivors,
            from_idx: 0,
            olds,
            cards,
            old_dram,
            old_nvm,
            write_counts: HashMap::new(),
            stats: HeapStats::default(),
        })
    }

    /// The heap's configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// The underlying memory system.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable access to the memory system (phase switching, compute time).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// Install the event-observer handle on the underlying memory system.
    pub fn set_observer(&mut self, observer: obs::Observer) {
        self.mem.set_observer(observer);
    }

    /// The event-observer handle (disabled by default).
    pub fn observer(&self) -> &obs::Observer {
        self.mem.observer()
    }

    /// The [`obs::AllocSpace`] label for an old space, for `AllocFail`
    /// events.
    fn alloc_space_of(&self, space: OldSpaceId) -> obs::AllocSpace {
        if self.old_dram == Some(space) {
            obs::AllocSpace::OldDram
        } else if self.old_nvm == Some(space) {
            obs::AllocSpace::OldNvm
        } else {
            obs::AllocSpace::Old
        }
    }

    /// Emit an [`obs::Event::AllocFail`] observation (never charges).
    fn note_alloc_fail(&self, space: obs::AllocSpace, need: u64) {
        let observer = self.mem.observer();
        if observer.enabled() {
            observer.emit(
                self.mem.clock().now_ns(),
                &obs::Event::AllocFail { space, need },
            );
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> &HeapStats {
        &self.stats
    }

    /// The DRAM old space, if the old generation is split.
    pub fn old_dram(&self) -> Option<OldSpaceId> {
        self.old_dram
    }

    /// The NVM old space, if the old generation is split.
    pub fn old_nvm(&self) -> Option<OldSpaceId> {
        self.old_nvm
    }

    /// Ids of all old spaces, ascending. The iterator does not borrow the
    /// heap, so a loop over it may mutate the spaces it names.
    pub fn old_space_ids(&self) -> impl Iterator<Item = OldSpaceId> + use<> {
        (0..self.olds.len() as u8).map(OldSpaceId)
    }

    /// Total free bytes across the old generation.
    pub fn old_free(&self) -> u64 {
        self.olds.iter().map(Space::free).sum()
    }

    /// Modelled heap footprint of one tuple carrying `payload_bytes`.
    #[inline]
    pub fn tuple_footprint(&self, payload_bytes: u64) -> u64 {
        object_bytes(payload_bytes, 0) + self.config.tuple_bloat_bytes
    }

    /// The access profile matching the current phase: 16-thread parallel GC
    /// inside collections, single mutator thread otherwise.
    #[inline]
    pub fn profile(&self) -> AccessProfile {
        if self.mem.clock().phase().is_gc() {
            AccessProfile::parallel_gc()
        } else {
            AccessProfile::mutator()
        }
    }

    // ------------------------------------------------------------------
    // Object access
    // ------------------------------------------------------------------

    /// Borrow an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dangling.
    #[inline]
    pub fn obj(&self, id: ObjId) -> &Object {
        match self.objects.get(id.0 as usize) {
            Some(Some(o)) => o,
            _ => dangling(id),
        }
    }

    /// Mutably borrow an object.
    ///
    /// # Panics
    ///
    /// Panics if `id` is dangling.
    #[inline]
    pub fn obj_mut(&mut self, id: ObjId) -> &mut Object {
        match self.objects.get_mut(id.0 as usize) {
            Some(Some(o)) => o,
            _ => dangling(id),
        }
    }

    /// True if `id` refers to a live (unreclaimed) object.
    #[inline]
    pub fn is_live(&self, id: ObjId) -> bool {
        self.objects.get(id.0 as usize).is_some_and(|o| o.is_some())
    }

    /// True if `id` is live and in the young generation — what a collector
    /// asks of every reference it follows.
    #[inline]
    pub fn is_young(&self, id: ObjId) -> bool {
        slab_is_young(&self.objects, id)
    }

    /// Number of live objects.
    pub fn live_objects(&self) -> usize {
        self.objects.iter().filter(|o| o.is_some()).count()
    }

    /// Ids of every live object in the slab, ascending (the verifier's
    /// whole-heap walk).
    pub fn live_ids(&self) -> impl Iterator<Item = ObjId> + '_ {
        self.objects
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(i, _)| ObjId(i as u32))
    }

    /// An empty [`MarkSet`] sized for every id this heap has handed out.
    pub fn mark_set(&self) -> MarkSet {
        MarkSet::with_capacity(self.objects.len())
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocate a young-generation object (the TLAB fast path). Only
    /// `payload`'s modelled size is kept: the heap holds sizes, not
    /// records.
    ///
    /// # Examples
    ///
    /// ```
    /// use mheap::{Heap, HeapConfig, MemTag, ObjKind, Payload};
    /// use hybridmem::MemorySystemConfig;
    ///
    /// let mut heap = Heap::new(
    ///     HeapConfig::panthera(600_000, 1.0 / 3.0),
    ///     MemorySystemConfig::with_capacities(200_000, 400_000),
    /// )?;
    /// let tuple = heap
    ///     .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Long(1))
    ///     .expect("eden has room");
    /// assert!(heap.obj(tuple).in_young());
    /// # Ok::<(), String>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`HeapError::EdenFull`] if eden cannot hold the object; the caller
    /// should collect and retry.
    pub fn alloc_young(
        &mut self,
        kind: ObjKind,
        tag: MemTag,
        refs: Vec<ObjId>,
        payload: Payload,
    ) -> Result<ObjId, HeapError> {
        self.try_alloc_young(kind, tag, refs, payload.model_bytes())
            .map_err(|r| r.error)
    }

    /// [`alloc_young`](Self::alloc_young) of an object whose record models
    /// `model_bytes`, for a caller that collects and retries: a failed
    /// allocation hands `refs` back, so the successful path moves them.
    ///
    /// # Errors
    ///
    /// [`Rejected`] carrying [`HeapError::EdenFull`] and `refs`.
    #[inline]
    pub fn try_alloc_young(
        &mut self,
        kind: ObjKind,
        tag: MemTag,
        refs: Vec<ObjId>,
        model_bytes: u64,
    ) -> Result<ObjId, Rejected> {
        let size = object_bytes(model_bytes, refs.len()) + self.bloat_of(kind);
        let (id, addr) = match self.bump_eden(size) {
            Ok(placed) => placed,
            Err(error) => return Err(Rejected { error, refs }),
        };
        self.install(id, kind, size, addr, SpaceId::Eden, tag, refs);
        self.stats.young_allocs += 1;
        self.stats.allocated_bytes += size;
        self.charge(addr, AccessKind::Write, size);
        Ok(id)
    }

    /// Reserve a slab id and `size` bytes of eden for it; if eden is full,
    /// give the id back and observe the failure.
    #[inline]
    fn bump_eden(&mut self, size: u64) -> Result<(ObjId, Addr), HeapError> {
        let id = self.reserve_id();
        match self.eden.alloc(id, size) {
            Some(addr) => Ok((id, addr)),
            None => {
                self.release_id(id);
                self.note_alloc_fail(obs::AllocSpace::Eden, size);
                Err(HeapError::EdenFull { need: size })
            }
        }
    }

    /// Allocate an object directly in an old space (pretenuring), keeping
    /// only `payload`'s modelled size. RDD arrays are card-padded when the
    /// optimization is enabled.
    ///
    /// # Errors
    ///
    /// [`HeapError::OldSpaceFull`] if the space cannot hold the object.
    pub fn alloc_old(
        &mut self,
        space: OldSpaceId,
        kind: ObjKind,
        tag: MemTag,
        refs: Vec<ObjId>,
        payload: Payload,
    ) -> Result<ObjId, HeapError> {
        self.try_alloc_old(space, kind, tag, refs, payload.model_bytes())
            .map_err(|r| r.error)
    }

    /// [`alloc_old`](Self::alloc_old) of an object whose record models
    /// `model_bytes`, handing `refs` back on failure for a caller that
    /// falls back to another space.
    ///
    /// # Errors
    ///
    /// [`Rejected`] carrying [`HeapError::OldSpaceFull`] and `refs`.
    pub fn try_alloc_old(
        &mut self,
        space: OldSpaceId,
        kind: ObjKind,
        tag: MemTag,
        refs: Vec<ObjId>,
        model_bytes: u64,
    ) -> Result<ObjId, Rejected> {
        let raw = object_bytes(model_bytes, refs.len()) + self.bloat_of(kind);
        let size = self.sized_for(space, kind, raw);
        let id = self.reserve_id();
        let addr = match self.olds[space.0 as usize].alloc(id, size) {
            Some(a) => a,
            None => {
                self.release_id(id);
                self.note_alloc_fail(self.alloc_space_of(space), size);
                return Err(Rejected {
                    error: HeapError::OldSpaceFull { space, need: size },
                    refs,
                });
            }
        };
        self.install(id, kind, size, addr, SpaceId::Old(space), tag, refs);
        self.stats.pretenured_allocs += 1;
        self.stats.allocated_bytes += size;
        self.charge(addr, AccessKind::Write, size);
        Ok(id)
    }

    /// Allocate an RDD backbone array with `slots` reference slots in the
    /// given old space.
    ///
    /// # Errors
    ///
    /// [`HeapError::OldSpaceFull`] if the space cannot hold the array.
    pub fn alloc_array_old(
        &mut self,
        space: OldSpaceId,
        rdd_id: u32,
        slots: usize,
        tag: MemTag,
    ) -> Result<ObjId, HeapError> {
        let raw = object_bytes(REF_BYTES * slots as u64, 0);
        let size = self.sized_for(space, ObjKind::RddArray { rdd_id }, raw);
        let id = self.reserve_id();
        let addr = match self.olds[space.0 as usize].alloc(id, size) {
            Some(a) => a,
            None => {
                self.release_id(id);
                self.note_alloc_fail(self.alloc_space_of(space), size);
                return Err(HeapError::OldSpaceFull { space, need: size });
            }
        };
        self.install(
            id,
            ObjKind::RddArray { rdd_id },
            size,
            addr,
            SpaceId::Old(space),
            tag,
            Vec::with_capacity(slots.min(1 << 20)),
        );
        self.stats.pretenured_allocs += 1;
        self.stats.allocated_bytes += size;
        self.charge(addr, AccessKind::Write, HEADER_BYTES);
        Ok(id)
    }

    /// Allocate an RDD backbone array in the young generation (used when
    /// the RDD has no tag).
    ///
    /// # Errors
    ///
    /// [`HeapError::EdenFull`] if eden cannot hold the array.
    pub fn alloc_array_young(&mut self, rdd_id: u32, slots: usize) -> Result<ObjId, HeapError> {
        let payload_bytes = REF_BYTES * slots as u64;
        let size = object_bytes(payload_bytes, 0);
        let (id, addr) = self.bump_eden(size)?;
        self.install(
            id,
            ObjKind::RddArray { rdd_id },
            size,
            addr,
            SpaceId::Eden,
            MemTag::None,
            Vec::with_capacity(slots.min(1 << 20)),
        );
        self.stats.young_allocs += 1;
        self.stats.allocated_bytes += size;
        self.charge(addr, AccessKind::Write, HEADER_BYTES);
        Ok(id)
    }

    /// Representation-bloat surcharge for data tuples (see
    /// [`HeapConfig::tuple_bloat_bytes`]).
    #[inline]
    fn bloat_of(&self, kind: ObjKind) -> u64 {
        if matches!(kind, ObjKind::Tuple) {
            self.config.tuple_bloat_bytes
        } else {
            0
        }
    }

    /// Size an object for an old-space allocation. With card padding on,
    /// RDD arrays are padded so their *end* lands on a card boundary
    /// (Section 4.2.3) — the padding therefore depends on where the space's
    /// bump pointer currently is.
    fn sized_for(&self, space: OldSpaceId, kind: ObjKind, raw: u64) -> u64 {
        if kind.is_array() && self.config.card_padding {
            let end_rel = self.olds[space.0 as usize].used() + raw;
            raw + (pad_to_card(end_rel) - end_rel)
        } else {
            raw
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn install(
        &mut self,
        id: ObjId,
        kind: ObjKind,
        size: u64,
        addr: Addr,
        space: SpaceId,
        tag: MemTag,
        refs: Vec<ObjId>,
    ) {
        self.objects[id.0 as usize] = Some(Object {
            kind,
            size,
            addr,
            space,
            tag,
            age: 0,
            marked: false,
            refs,
        });
    }

    #[inline]
    fn reserve_id(&mut self) -> ObjId {
        if let Some(i) = self.free_ids.pop() {
            ObjId(i)
        } else {
            self.objects.push(None);
            ObjId((self.objects.len() - 1) as u32)
        }
    }

    fn release_id(&mut self, id: ObjId) {
        debug_assert!(self.objects[id.0 as usize].is_none());
        self.free_ids.push(id.0);
    }

    // ------------------------------------------------------------------
    // Reads, writes, barrier
    // ------------------------------------------------------------------

    #[inline]
    fn charge(&mut self, addr: Addr, kind: AccessKind, bytes: u64) {
        let profile = self.profile();
        self.mem.access(addr, kind, bytes, profile);
    }

    /// Charge a read of the whole object (header + payload + ref slots).
    #[inline]
    pub fn read_object(&mut self, id: ObjId) {
        let (addr, size) = {
            let o = self.obj(id);
            (o.addr, o.size)
        };
        self.charge(addr, AccessKind::Read, size);
    }

    /// Charge a *sequential* read of the whole object, as part of a bulk
    /// scan that enjoys hardware prefetching.
    #[inline]
    pub fn read_object_streaming(&mut self, id: ObjId) {
        let (addr, size) = {
            let o = self.obj(id);
            (o.addr, o.size)
        };
        self.mem
            .access(addr, AccessKind::Read, size, AccessProfile::streaming());
    }

    /// Charge a read of `bytes` bytes of the object.
    #[inline]
    pub fn read_bytes(&mut self, id: ObjId, bytes: u64) {
        let addr = self.obj(id).addr;
        self.charge(addr, AccessKind::Read, bytes);
    }

    /// Charge a write of `bytes` bytes of the object (an in-place update
    /// of its record; no reference moves).
    pub fn write_bytes(&mut self, id: ObjId, bytes: u64) {
        let addr = self.obj(id).addr;
        self.charge(addr, AccessKind::Write, bytes);
    }

    /// Store a reference `src.refs[index] = target` through the write
    /// barrier: charges the slot write, dirties the card if `src` is in the
    /// old generation, and counts the write when write tracking is on.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_ref(&mut self, src: ObjId, index: usize, target: ObjId) {
        let slot_addr = {
            let o = self.obj_mut(src);
            assert!(index < o.refs.len(), "ref slot {index} out of bounds");
            o.refs[index] = target;
            o.slot_addr(index)
        };
        self.barrier(src, slot_addr);
    }

    /// Append a reference to `src.refs` through the write barrier.
    #[inline]
    pub fn push_ref(&mut self, src: ObjId, target: ObjId) {
        let slot_addr = {
            let o = self.obj_mut(src);
            o.refs.push(target);
            o.slot_addr(o.refs.len() - 1)
        };
        self.barrier(src, slot_addr);
    }

    #[inline]
    fn barrier(&mut self, src: ObjId, slot_addr: Addr) {
        self.stats.ref_stores += 1;
        self.charge(slot_addr, AccessKind::Write, REF_BYTES);
        self.mem.compute(BARRIER_NS);
        let space = self.obj(src).space;
        if let SpaceId::Old(old_id) = space {
            self.cards[old_id.0 as usize].mark_dirty(slot_addr);
            self.stats.cards_dirtied += 1;
        }
        if self.config.track_writes {
            self.mem.compute(WRITE_MONITOR_NS);
            *self.write_counts.entry(src).or_insert(0) += 1;
        }
    }

    /// Per-object write counts (Kingsguard-Writes monitoring).
    pub fn write_counts(&self) -> &HashMap<ObjId, u64> {
        &self.write_counts
    }

    /// Clear the write-count table (after a migration pass).
    pub fn clear_write_counts(&mut self) {
        self.write_counts.clear();
    }

    // ------------------------------------------------------------------
    // Spaces
    // ------------------------------------------------------------------

    /// The eden space.
    pub fn eden(&self) -> &Space {
        &self.eden
    }

    /// The current from-survivor space.
    pub fn from_space(&self) -> &Space {
        &self.survivors[self.from_idx]
    }

    /// The current to-survivor space.
    pub fn to_space(&self) -> &Space {
        &self.survivors[1 - self.from_idx]
    }

    /// An old space by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn old(&self, id: OldSpaceId) -> &Space {
        &self.olds[id.0 as usize]
    }

    /// The card table of an old space.
    pub fn card_table(&self, id: OldSpaceId) -> &CardTable {
        &self.cards[id.0 as usize]
    }

    /// Mutable card table of an old space.
    pub fn card_table_mut(&mut self, id: OldSpaceId) -> &mut CardTable {
        &mut self.cards[id.0 as usize]
    }

    /// Device backing a fixed space (interleaved spaces vary per address).
    pub fn device_of(&self, addr: Addr) -> DeviceKind {
        self.mem.device_of(addr)
    }

    /// Resolve a space id to the space.
    pub fn space(&self, id: SpaceId) -> &Space {
        match id {
            SpaceId::Eden => &self.eden,
            SpaceId::Survivor0 => &self.survivors[0],
            SpaceId::Survivor1 => &self.survivors[1],
            SpaceId::Old(o) => &self.olds[o.0 as usize],
        }
    }

    // ------------------------------------------------------------------
    // Collector mechanisms
    // ------------------------------------------------------------------

    /// Move an object into an old space, charging the copy traffic
    /// (read at the source device, write at the destination device).
    ///
    /// # Errors
    ///
    /// [`HeapError::OldSpaceFull`] if the destination cannot hold it.
    pub fn move_to_old(&mut self, id: ObjId, dest: OldSpaceId) -> Result<(), HeapError> {
        let (src_addr, size) = {
            let o = self.obj(id);
            (o.addr, o.size)
        };
        let new_addr =
            self.olds[dest.0 as usize]
                .alloc(id, size)
                .ok_or(HeapError::OldSpaceFull {
                    space: dest,
                    need: size,
                })?;
        self.charge(src_addr, AccessKind::Read, size);
        self.charge(new_addr, AccessKind::Write, size);
        let o = self.obj_mut(id);
        o.addr = new_addr;
        o.space = SpaceId::Old(dest);
        self.stats.moves += 1;
        // The object's remembered-set state must move with it.
        self.dirty_young_slots(id);
        Ok(())
    }

    /// Dirty the card of every slot of old object `id` that references the
    /// young generation. It is the card *the slot itself* lands on — a
    /// multi-card array's young pointer can sit many cards past the
    /// header, and dirtying only the header card would let the next minor
    /// GC miss it. A no-op for a young `id`.
    pub fn dirty_young_slots(&mut self, id: ObjId) {
        let Heap { objects, cards, .. } = self;
        let o = objects[id.0 as usize]
            .as_ref()
            .unwrap_or_else(|| panic!("dangling {id}"));
        let SpaceId::Old(space) = o.space else {
            return;
        };
        for (i, &t) in o.refs.iter().enumerate() {
            if slab_is_young(objects, t) {
                cards[space.0 as usize].mark_dirty(o.slot_addr(i));
            }
        }
    }

    /// Copy a surviving young object into the to-space, charging traffic.
    ///
    /// Returns `false` (without copying) if the to-space is full — the
    /// caller should promote instead.
    pub fn copy_to_survivor(&mut self, id: ObjId) -> bool {
        let (src_addr, size) = {
            let o = self.obj(id);
            (o.addr, o.size)
        };
        let to = 1 - self.from_idx;
        let Some(new_addr) = self.survivors[to].alloc(id, size) else {
            return false;
        };
        self.charge(src_addr, AccessKind::Read, size);
        self.charge(new_addr, AccessKind::Write, size);
        let to_id = self.survivors[to].id();
        let o = self.obj_mut(id);
        o.addr = new_addr;
        o.space = to_id;
        o.age = o.age.saturating_add(1);
        self.stats.moves += 1;
        true
    }

    /// After a minor collection's evacuation: reclaim every entry of eden's
    /// and then the from-space's resident list that is not in `survivors`,
    /// in list order; then empty both spaces and swap survivor roles.
    /// Returns the number reclaimed.
    pub fn sweep_young(&mut self, survivors: &MarkSet) -> u64 {
        let Heap {
            objects,
            free_ids,
            eden,
            survivors: semis,
            from_idx,
            ..
        } = self;
        let mut freed = 0u64;
        for &id in eden.objects().iter().chain(semis[*from_idx].objects()) {
            if survivors.contains(id) {
                continue;
            }
            let reclaimed = objects[id.0 as usize].take();
            debug_assert!(reclaimed.is_some(), "young lists hold a freed {id}");
            free_ids.push(id.0);
            freed += 1;
        }
        self.stats.frees += freed;
        self.eden.clear();
        self.survivors[self.from_idx].clear();
        self.from_idx = 1 - self.from_idx;
        freed
    }

    /// Reclaim an object (no traffic: the collector simply never copies the
    /// dead).
    pub fn free(&mut self, id: ObjId) {
        let slot = &mut self.objects[id.0 as usize];
        assert!(slot.is_some(), "double free of {id}");
        *slot = None;
        self.free_ids.push(id.0);
        self.stats.frees += 1;
    }

    /// Rebuild an old space after compaction: reassign addresses in order,
    /// charging copy traffic for every object that actually moves.
    ///
    /// `live` must be the surviving objects of that space in (old) address
    /// order. Returns the bytes in use after compaction.
    pub fn compact_old(&mut self, space_id: OldSpaceId, live: Vec<ObjId>) -> u64 {
        let base = self.olds[space_id.0 as usize].base();
        let mut cursor = 0u64;
        for &id in &live {
            let (old_addr, size) = {
                let o = self.obj(id);
                (o.addr, o.size)
            };
            let new_addr = base.offset(cursor);
            if new_addr != old_addr {
                self.charge(old_addr, AccessKind::Read, size);
                self.charge(new_addr, AccessKind::Write, size);
                let o = self.obj_mut(id);
                o.addr = new_addr;
                self.stats.moves += 1;
            }
            cursor += size;
        }
        self.olds[space_id.0 as usize].reset_with(live, cursor);
        cursor
    }

    /// Replace an old space's resident list without moving anything (used
    /// after sweeps that only remove dead entries).
    pub fn retain_old(&mut self, space_id: OldSpaceId, live: Vec<ObjId>, used: u64) {
        self.olds[space_id.0 as usize].reset_with(live, used);
    }

    /// A one-line occupancy summary per space, for debugging and examples.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let spaces: Vec<&Space> = std::iter::once(&self.eden)
            .chain(self.survivors.iter())
            .chain(self.olds.iter())
            .collect();
        for s in spaces {
            let device = match s.id() {
                SpaceId::Old(_) => None,
                _ => Some(DeviceKind::Dram),
            };
            let device = device
                .unwrap_or_else(|| self.mem.device_of(s.base()))
                .to_string();
            out.push_str(&format!(
                "{:<10} {:>9}B / {:>9}B ({:>5.1}%) on {} with {} objects\n",
                s.id().to_string(),
                s.used(),
                s.capacity(),
                s.occupancy() * 100.0,
                device,
                s.objects().len(),
            ));
        }
        out
    }
}

/// [`Heap::is_young`] over the bare slab, for a caller that holds another
/// field of the heap mutably.
#[inline]
fn slab_is_young(objects: &[Option<Object>], id: ObjId) -> bool {
    objects
        .get(id.0 as usize)
        .and_then(Option::as_ref)
        .is_some_and(Object::in_young)
}

/// The panic of a lookup of `id`, which names no live object.
#[cold]
fn dangling(id: ObjId) -> ! {
    panic!("dangling {id}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridmem::Phase;

    fn heap() -> Heap {
        let cfg = HeapConfig::panthera(600_000, 1.0 / 3.0);
        let mem = MemorySystemConfig::with_capacities(200_000, 400_000);
        Heap::new(cfg, mem).unwrap()
    }

    #[test]
    fn layout_registers_young_in_dram() {
        let h = heap();
        assert_eq!(h.device_of(h.eden().base()), DeviceKind::Dram);
        assert_eq!(h.device_of(h.from_space().base()), DeviceKind::Dram);
        let dram = h.old_dram().unwrap();
        let nvm = h.old_nvm().unwrap();
        assert_eq!(h.device_of(h.old(dram).base()), DeviceKind::Dram);
        assert_eq!(h.device_of(h.old(nvm).base()), DeviceKind::Nvm);
    }

    #[test]
    fn young_allocation_charges_writes() {
        let mut h = heap();
        let id = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Long(1))
            .unwrap();
        assert!(h.is_live(id));
        assert_eq!(h.obj(id).space, SpaceId::Eden);
        assert!(h.mem().stats().total_device_bytes(DeviceKind::Dram) > 0);
        assert_eq!(h.stats().young_allocs, 1);
    }

    #[test]
    fn eden_exhaustion_reports_error() {
        let mut h = heap();
        let huge = Payload::doubles(vec![0.0; 100_000]);
        let err = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], huge)
            .unwrap_err();
        assert!(matches!(err, HeapError::EdenFull { .. }));
    }

    #[test]
    fn pretenured_array_goes_to_tagged_space() {
        let mut h = heap();
        let nvm = h.old_nvm().unwrap();
        let id = h.alloc_array_old(nvm, 7, 100, MemTag::Nvm).unwrap();
        let o = h.obj(id);
        assert_eq!(o.space, SpaceId::Old(nvm));
        assert_eq!(o.tag, MemTag::Nvm);
        assert!(o.kind.is_array());
        assert_eq!(h.device_of(o.addr), DeviceKind::Nvm);
    }

    #[test]
    fn array_padding_aligns_end_to_card() {
        let mut h = heap();
        let nvm = h.old_nvm().unwrap();
        // Disturb alignment with a small tuple first.
        h.alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(1))
            .unwrap();
        let id = h.alloc_array_old(nvm, 7, 3, MemTag::Nvm).unwrap();
        let o = h.obj(id);
        let base = h.old(nvm).base();
        let end_rel = o.addr.0 - base.0 + o.size;
        assert_eq!(
            end_rel % crate::card::CARD_BYTES,
            0,
            "array end is card-aligned"
        );
    }

    #[test]
    fn no_padding_when_disabled() {
        let mut cfg = HeapConfig::panthera(600_000, 1.0 / 3.0);
        cfg.card_padding = false;
        let mut h = Heap::new(cfg, MemorySystemConfig::with_capacities(1, 1)).unwrap();
        let nvm = h.old_nvm().unwrap();
        let id = h.alloc_array_old(nvm, 7, 3, MemTag::Nvm).unwrap();
        assert_eq!(h.obj(id).size, object_bytes(REF_BYTES * 3, 0));
    }

    #[test]
    fn barrier_dirties_old_cards_only() {
        let mut h = heap();
        let nvm = h.old_nvm().unwrap();
        let arr = h.alloc_array_old(nvm, 1, 10, MemTag::Nvm).unwrap();
        let t = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Long(5))
            .unwrap();
        assert_eq!(h.card_table(nvm).dirty_count(), 0);
        h.push_ref(arr, t);
        assert_eq!(h.card_table(nvm).dirty_count(), 1);

        // Young-to-young stores do not dirty cards.
        let t2 = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![t], Payload::Unit)
            .unwrap();
        h.set_ref(t2, 0, t);
        assert_eq!(h.stats().cards_dirtied, 1);
    }

    #[test]
    fn write_tracking_counts() {
        let cfg = {
            let mut c = HeapConfig::panthera(600_000, 1.0 / 3.0);
            c.track_writes = true;
            c
        };
        let mut h = Heap::new(cfg, MemorySystemConfig::with_capacities(1, 1)).unwrap();
        let a = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        let b = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        h.push_ref(a, b);
        h.push_ref(a, b);
        assert_eq!(h.write_counts()[&a], 2);
        h.clear_write_counts();
        assert!(h.write_counts().is_empty());
    }

    #[test]
    fn survivor_copy_and_swap() {
        let mut h = heap();
        let id = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Long(9))
            .unwrap();
        assert!(h.copy_to_survivor(id));
        let to_id = h.to_space().id();
        assert_eq!(h.obj(id).space, to_id);
        assert_eq!(h.obj(id).age, 1);
        let mut kept = h.mark_set();
        kept.insert(id);
        assert_eq!(h.sweep_young(&kept), 0);
        // The object's space is now the *from*-space after the swap.
        assert_eq!(h.from_space().id(), to_id);
        assert_eq!(h.eden().used(), 0);
    }

    #[test]
    fn move_to_old_charges_both_devices() {
        let mut h = heap();
        let id = h
            .alloc_young(ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(3))
            .unwrap();
        let before_nvm = h.mem().stats().total_device_bytes(DeviceKind::Nvm);
        let nvm = h.old_nvm().unwrap();
        h.move_to_old(id, nvm).unwrap();
        assert_eq!(h.obj(id).space, SpaceId::Old(nvm));
        assert!(h.mem().stats().total_device_bytes(DeviceKind::Nvm) > before_nvm);
    }

    #[test]
    fn compaction_slides_objects() {
        let mut h = heap();
        let nvm = h.old_nvm().unwrap();
        let a = h
            .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(1))
            .unwrap();
        let b = h
            .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(2))
            .unwrap();
        let c = h
            .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(3))
            .unwrap();
        let base = h.old(nvm).base();
        let size = h.obj(a).size;
        // Kill b, compact: c slides into b's slot.
        h.free(b);
        let used = h.compact_old(nvm, vec![a, c]);
        assert_eq!(used, 2 * size);
        assert_eq!(h.obj(a).addr, base);
        assert_eq!(h.obj(c).addr, base.offset(size));
        assert_eq!(h.old(nvm).objects(), &[a, c]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut h = heap();
        let id = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        h.free(id);
        h.free(id);
    }

    #[test]
    fn freed_ids_are_reused() {
        let mut h = heap();
        let a = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        h.free(a);
        let b = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        assert_eq!(a, b, "slab reuses freed slots");
    }

    #[test]
    fn describe_covers_every_space() {
        let h = heap();
        let d = h.describe();
        for name in ["eden", "survivor0", "survivor1", "old0", "old1"] {
            assert!(d.contains(name), "describe missing {name}: {d}");
        }
        assert!(d.contains("DRAM") && d.contains("NVM"));
    }

    #[test]
    fn gc_phase_switches_profile() {
        let mut h = heap();
        assert_eq!(h.profile(), AccessProfile::mutator());
        h.mem_mut().enter_phase(Phase::MinorGc);
        assert_eq!(h.profile(), AccessProfile::parallel_gc());
    }
}
