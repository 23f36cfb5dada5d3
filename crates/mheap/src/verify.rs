//! Heap-invariant verification, in the image of HotSpot's
//! `-XX:+VerifyBeforeGC` / `-XX:+VerifyAfterGC`.
//!
//! [`Heap::verify`] walks the whole heap — slab, spaces, card tables, and
//! the root set — and checks every structural invariant the simulator's
//! fidelity rests on. Collectors call it at collection entry and exit when
//! verification is enabled; it charges nothing and mutates nothing, so an
//! enabled verifier never changes a simulated quantity (the
//! observe-never-charge rule extends to verify-never-charge).
//!
//! The invariants, by [`Invariant`] tag:
//!
//! * **`Liveness`** — every root is live, every reference held by a
//!   *reachable* object points at a live object (no reachable object was
//!   lost to a sweep), every reference held by an *old* resident is live
//!   (the card scan keeps old objects' young targets alive, and major
//!   sweeps reclaim old garbage before its referents), and no object
//!   carries a stale major-GC mark bit outside a collection. Unreachable
//!   young garbage may hold dangling references — a major collection
//!   frees old objects without sweeping the young generation, and every
//!   collector path guards reference loads with a liveness check.
//! * **`ResidentList`** — the object slab and the spaces' resident lists
//!   agree: every listed object is live and records the space that lists
//!   it, every live object is listed exactly once.
//! * **`Spacing`** — resident lists are address-sorted, objects don't
//!   overlap, and every object lies inside its space's bounds.
//! * **`DeviceBoundary`** — spaces sit on the device their role demands
//!   (the young generation and the old DRAM space on DRAM, the old NVM
//!   space on NVM), and no object straddles out of its space — compaction
//!   never crosses the DRAM/NVM boundary (paper Section 4.2).
//! * **`CardCoverage`** — the card table over-approximates old-to-young
//!   references at *slot* granularity: for every old object, every
//!   reference slot holding a live young target lies on a dirty card.
//! * **`Accounting`** — bump pointers agree with the object slab: young
//!   spaces' used bytes equal the sum of their residents' sizes; old
//!   spaces' sums never exceed the bump pointer (sweeps may leave holes),
//!   and immediately after a major compaction they are equal — bytes in
//!   plus bytes migrated equal bytes out.

use crate::config::OldGenLayout;
use crate::heap::Heap;
use crate::object::ObjId;
use crate::roots::RootSet;
use crate::space::{Space, SpaceId};
use hybridmem::DeviceKind;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Where in a collection cycle a verification pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyPoint {
    /// Entry of a minor collection.
    BeforeMinor,
    /// Exit of a minor collection.
    AfterMinor,
    /// Entry of a major collection.
    BeforeMajor,
    /// Exit of a major collection. Old-space accounting is checked
    /// strictly here: compaction leaves no holes.
    AfterMajor,
    /// An explicit caller-requested pass (tests, the fuzzer's final sweep).
    Manual,
}

impl VerifyPoint {
    /// Stable label, used in error messages and trace events.
    pub fn label(self) -> &'static str {
        match self {
            VerifyPoint::BeforeMinor => "before_minor",
            VerifyPoint::AfterMinor => "after_minor",
            VerifyPoint::BeforeMajor => "before_major",
            VerifyPoint::AfterMajor => "after_major",
            VerifyPoint::Manual => "manual",
        }
    }
}

/// The class of invariant a [`VerifyError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// A root or reference points at a reclaimed object, or a mark bit
    /// leaked out of a major collection.
    Liveness,
    /// Slab / resident-list disagreement (orphaned or double-listed
    /// object, dead object still listed).
    ResidentList,
    /// Resident list out of address order, overlapping objects, or an
    /// object outside its space's bounds.
    Spacing,
    /// A space (or object) on the wrong memory device.
    DeviceBoundary,
    /// An old object's young-pointing slot sits on a clean card.
    CardCoverage,
    /// Bump pointer and per-space byte accounting disagree with the slab.
    Accounting,
}

impl Invariant {
    /// Stable label, used in error messages and trace events.
    pub fn label(self) -> &'static str {
        match self {
            Invariant::Liveness => "liveness",
            Invariant::ResidentList => "resident_list",
            Invariant::Spacing => "spacing",
            Invariant::DeviceBoundary => "device_boundary",
            Invariant::CardCoverage => "card_coverage",
            Invariant::Accounting => "accounting",
        }
    }
}

/// One invariant violation, with everything needed to localize it.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Where in the collection cycle the violation was found.
    pub point: VerifyPoint,
    /// Which invariant failed.
    pub invariant: Invariant,
    /// The offending object, when one is identifiable.
    pub object: Option<ObjId>,
    /// The offending space, when one is identifiable.
    pub space: Option<SpaceId>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "heap verification failed at {}: {} invariant",
            self.point.label(),
            self.invariant.label()
        )?;
        if let Some(id) = self.object {
            write!(f, " ({id}")?;
            if let Some(s) = self.space {
                write!(f, " in {s}")?;
            }
            write!(f, ")")?;
        } else if let Some(s) = self.space {
            write!(f, " (in {s})")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for VerifyError {}

impl Heap {
    /// Verify every heap invariant, returning the first violation found.
    ///
    /// Performs no charging and no mutation; safe to call at any point
    /// where no collection is mid-flight.
    ///
    /// # Errors
    ///
    /// The first violated invariant, localized to an object and space
    /// where possible.
    pub fn verify(&self, roots: &RootSet, point: VerifyPoint) -> Result<(), VerifyError> {
        let err = |invariant: Invariant,
                   object: Option<ObjId>,
                   space: Option<SpaceId>,
                   detail: String| {
            Err(VerifyError {
                point,
                invariant,
                object,
                space,
                detail,
            })
        };

        // --- spaces: resident lists, spacing, accounting, devices --------
        let strict_old_accounting = point == VerifyPoint::AfterMajor;
        let mut listed: HashMap<ObjId, SpaceId> = HashMap::new();
        let spaces: Vec<&Space> = std::iter::once(self.eden())
            .chain([self.from_space(), self.to_space()])
            .chain(self.old_space_ids().map(|s| self.old(s)))
            .collect();
        for space in spaces {
            let sid = space.id();
            if space.used() > space.capacity() {
                return err(
                    Invariant::Accounting,
                    None,
                    Some(sid),
                    format!(
                        "bump pointer {} past capacity {}",
                        space.used(),
                        space.capacity()
                    ),
                );
            }
            let expected_device = self.expected_device(sid);
            if let Some(device) = expected_device {
                let actual = self.device_of(space.base());
                if actual != device {
                    return err(
                        Invariant::DeviceBoundary,
                        None,
                        Some(sid),
                        format!("space on {actual}, expected {device}"),
                    );
                }
            }
            let mut prev_end = space.base().0;
            let mut resident_bytes = 0u64;
            for &id in space.objects() {
                if !self.is_live(id) {
                    return err(
                        Invariant::ResidentList,
                        Some(id),
                        Some(sid),
                        "resident list entry is dead".into(),
                    );
                }
                let o = self.obj(id);
                if o.space != sid {
                    return err(
                        Invariant::ResidentList,
                        Some(id),
                        Some(sid),
                        format!("object records space {}", o.space),
                    );
                }
                if o.addr.0 < space.base().0 || o.end().0 > space.base().0 + space.capacity() {
                    return err(
                        Invariant::Spacing,
                        Some(id),
                        Some(sid),
                        format!("extent [{}, {}) outside space", o.addr.0, o.end().0),
                    );
                }
                if o.addr.0 < prev_end {
                    return err(
                        Invariant::Spacing,
                        Some(id),
                        Some(sid),
                        format!("address {} overlaps predecessor end {prev_end}", o.addr.0),
                    );
                }
                prev_end = o.end().0;
                resident_bytes += o.size;
                if let Some(device) = expected_device {
                    // Compaction and promotion never cross the device
                    // boundary: both ends of the object sit on the space's
                    // device.
                    for probe in [o.addr, hybridmem::Addr(o.end().0 - 1)] {
                        let actual = self.device_of(probe);
                        if actual != device {
                            return err(
                                Invariant::DeviceBoundary,
                                Some(id),
                                Some(sid),
                                format!("byte at {} on {actual}, expected {device}", probe.0),
                            );
                        }
                    }
                }
                if let Some(first) = listed.insert(id, sid) {
                    return err(
                        Invariant::ResidentList,
                        Some(id),
                        Some(sid),
                        format!("also listed in {first}"),
                    );
                }
            }
            let exact = sid.is_young() || strict_old_accounting;
            if exact && resident_bytes != space.used() {
                return err(
                    Invariant::Accounting,
                    None,
                    Some(sid),
                    format!(
                        "resident objects sum to {resident_bytes} bytes but bump pointer is {}",
                        space.used()
                    ),
                );
            }
            if resident_bytes > space.used() {
                return err(
                    Invariant::Accounting,
                    None,
                    Some(sid),
                    format!(
                        "resident objects sum to {resident_bytes} bytes, past bump pointer {}",
                        space.used()
                    ),
                );
            }
        }

        // --- reachability: roots live, then BFS over live refs ----------
        let mut reachable: HashSet<ObjId> = HashSet::new();
        let mut queue: VecDeque<ObjId> = VecDeque::new();
        for r in roots.iter() {
            if !self.is_live(r) {
                return err(
                    Invariant::Liveness,
                    Some(r),
                    None,
                    "root points at reclaimed object".into(),
                );
            }
            if reachable.insert(r) {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for &t in &self.obj(id).refs {
                if self.is_live(t) && reachable.insert(t) {
                    queue.push_back(t);
                }
            }
        }

        // --- slab: every live object listed, refs live, marks clear ------
        for id in self.live_ids() {
            let o = self.obj(id);
            if !listed.contains_key(&id) {
                return err(
                    Invariant::ResidentList,
                    Some(id),
                    Some(o.space),
                    "live object missing from every resident list (orphaned)".into(),
                );
            }
            if o.marked {
                return err(
                    Invariant::Liveness,
                    Some(id),
                    Some(o.space),
                    "mark bit still set outside a major collection".into(),
                );
            }
            // A dangling reference is a violation unless its holder is
            // unreachable young garbage, which a major collection can
            // legitimately leave behind (it frees old objects without
            // sweeping the young generation).
            if !o.in_young() || reachable.contains(&id) {
                for (slot, &t) in o.refs.iter().enumerate() {
                    if !self.is_live(t) {
                        return err(
                            Invariant::Liveness,
                            Some(id),
                            Some(o.space),
                            format!("ref slot {slot} points at reclaimed {t}"),
                        );
                    }
                }
            }
        }

        // --- card coverage at slot granularity ---------------------------
        for old_id in self.old_space_ids() {
            let table = self.card_table(old_id);
            for &id in self.old(old_id).objects() {
                let o = self.obj(id);
                for (slot, &t) in o.refs.iter().enumerate() {
                    if self.is_live(t) && self.obj(t).in_young() {
                        let slot_addr = o.slot_addr(slot);
                        let card = table.card_of(slot_addr);
                        if !table.is_dirty(card) {
                            return err(
                                Invariant::CardCoverage,
                                Some(id),
                                Some(SpaceId::Old(old_id)),
                                format!(
                                    "slot {slot} (addr {}) references young {t} but card {card} is clean",
                                    slot_addr.0
                                ),
                            );
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The device a space must sit on, if its role pins one. Interleaved
    /// old spaces deliberately mix devices and are exempt.
    fn expected_device(&self, sid: SpaceId) -> Option<DeviceKind> {
        match sid {
            // The young generation always lives in DRAM (Section 1.2).
            SpaceId::Eden | SpaceId::Survivor0 | SpaceId::Survivor1 => Some(DeviceKind::Dram),
            SpaceId::Old(old) => match &self.config().old_layout {
                OldGenLayout::SplitDramNvm => {
                    if self.old_dram() == Some(old) {
                        Some(DeviceKind::Dram)
                    } else if self.old_nvm() == Some(old) {
                        Some(DeviceKind::Nvm)
                    } else {
                        None
                    }
                }
                OldGenLayout::Unified(device) => Some(*device),
                OldGenLayout::Interleaved { .. } => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HeapConfig;
    use crate::object::ObjKind;
    use crate::payload::Payload;
    use crate::tag::MemTag;
    use hybridmem::MemorySystemConfig;

    fn heap() -> Heap {
        Heap::new(
            HeapConfig::panthera(600_000, 1.0 / 3.0),
            MemorySystemConfig::with_capacities(200_000, 400_000),
        )
        .unwrap()
    }

    #[test]
    fn clean_heap_verifies_at_every_point() {
        let mut h = heap();
        let roots = RootSet::new();
        let nvm = h.old_nvm().unwrap();
        let arr = h.alloc_array_old(nvm, 1, 16, MemTag::Nvm).unwrap();
        let t = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Long(1))
            .unwrap();
        h.push_ref(arr, t);
        for point in [
            VerifyPoint::BeforeMinor,
            VerifyPoint::AfterMinor,
            VerifyPoint::BeforeMajor,
            VerifyPoint::AfterMajor,
            VerifyPoint::Manual,
        ] {
            h.verify(&roots, point).unwrap();
        }
    }

    #[test]
    fn an_empty_slot_in_any_space_is_a_resident_list_violation() {
        let mut h = heap();
        // In eden: free a fresh tuple's slab entry behind eden's back.
        let t = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        h.free(t);
        let e = h.verify(&RootSet::new(), VerifyPoint::Manual).unwrap_err();
        assert_eq!(e.invariant, Invariant::ResidentList);
        assert_eq!((e.object, e.space), (Some(t), Some(SpaceId::Eden)));
        // In a survivor space: the same for an evacuated tuple.
        let mut h = heap();
        let t = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        assert!(h.copy_to_survivor(t));
        let mut kept = h.mark_set();
        kept.insert(t);
        h.sweep_young(&kept);
        h.free(t);
        let e = h.verify(&RootSet::new(), VerifyPoint::Manual).unwrap_err();
        assert_eq!(e.invariant, Invariant::ResidentList);
        assert_eq!((e.object, e.space), (Some(t), Some(h.from_space().id())));
    }

    #[test]
    fn dangling_ref_in_reachable_object_is_a_liveness_violation() {
        let mut h = heap();
        let t = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        // Forge a reference to a never-allocated id, bypassing the barrier.
        h.obj_mut(t).refs.push(ObjId(9999));
        let mut roots = RootSet::new();
        roots.push(t);
        let e = h.verify(&roots, VerifyPoint::Manual).unwrap_err();
        assert_eq!(e.invariant, Invariant::Liveness);
        assert_eq!(e.object, Some(t));
        // The same dangling reference in *unreachable* young garbage is
        // legal: a major collection frees old objects without sweeping
        // the young generation.
        h.verify(&RootSet::new(), VerifyPoint::Manual).unwrap();
    }

    #[test]
    fn dangling_ref_in_old_object_is_always_a_violation() {
        let mut h = heap();
        let nvm = h.old_nvm().unwrap();
        let o = h
            .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Unit)
            .unwrap();
        h.obj_mut(o).refs.push(ObjId(9999));
        // Unrooted, but old residents' references must stay live: the card
        // scan walks them without a reachability pre-pass.
        let e = h.verify(&RootSet::new(), VerifyPoint::Manual).unwrap_err();
        assert_eq!(e.invariant, Invariant::Liveness);
        assert_eq!(e.object, Some(o));
    }

    #[test]
    fn dead_root_is_a_liveness_violation() {
        let h = heap();
        let mut roots = RootSet::new();
        roots.push(ObjId(42));
        let e = h.verify(&roots, VerifyPoint::Manual).unwrap_err();
        assert_eq!(e.invariant, Invariant::Liveness);
        assert_eq!(e.object, Some(ObjId(42)));
    }

    #[test]
    fn wrong_space_record_is_a_resident_list_violation() {
        let mut h = heap();
        let t = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        h.obj_mut(t).space = SpaceId::Survivor1;
        let e = h.verify(&RootSet::new(), VerifyPoint::Manual).unwrap_err();
        assert_eq!(e.invariant, Invariant::ResidentList);
    }

    #[test]
    fn freed_but_listed_object_is_caught() {
        let mut h = heap();
        let nvm = h.old_nvm().unwrap();
        let id = h
            .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(1))
            .unwrap();
        // Free the slab entry without telling the space — the shape of a
        // sweep bug.
        h.free(id);
        let e = h.verify(&RootSet::new(), VerifyPoint::Manual).unwrap_err();
        assert_eq!(e.invariant, Invariant::ResidentList);
        assert_eq!(e.object, Some(id));
    }

    #[test]
    fn unbarriered_young_ref_is_a_card_violation() {
        let mut h = heap();
        let nvm = h.old_nvm().unwrap();
        let arr = h.alloc_array_old(nvm, 1, 16, MemTag::Nvm).unwrap();
        let t = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        // Store the reference behind the barrier's back: no card dirtied.
        h.obj_mut(arr).refs.push(t);
        let e = h.verify(&RootSet::new(), VerifyPoint::Manual).unwrap_err();
        assert_eq!(e.invariant, Invariant::CardCoverage);
        assert_eq!(e.object, Some(arr));
        assert_eq!(e.space, Some(SpaceId::Old(nvm)));
    }

    #[test]
    fn multi_card_slot_must_dirty_the_slot_card_not_the_header() {
        let mut h = heap();
        let nvm = h.old_nvm().unwrap();
        // An array spanning several cards; a young ref whose slot lies in
        // a later card.
        let arr = h.alloc_array_old(nvm, 1, 300, MemTag::Nvm).unwrap();
        let t = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        for _ in 0..200 {
            h.obj_mut(arr).refs.push(t);
        }
        // Dirtying only the header card is the historical bug; the slot's
        // card is still clean, so the verifier must object.
        let header = h.obj(arr).addr;
        h.card_table_mut(nvm).mark_dirty(header);
        let e = h.verify(&RootSet::new(), VerifyPoint::Manual).unwrap_err();
        assert_eq!(e.invariant, Invariant::CardCoverage);
        // Dirtying every slot's card satisfies it.
        let slots: Vec<_> = (0..200).map(|i| h.obj(arr).slot_addr(i)).collect();
        for s in slots {
            h.card_table_mut(nvm).mark_dirty(s);
        }
        h.verify(&RootSet::new(), VerifyPoint::Manual).unwrap();
    }

    #[test]
    fn old_holes_allowed_except_after_major() {
        let mut h = heap();
        let nvm = h.old_nvm().unwrap();
        let a = h
            .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(1))
            .unwrap();
        let b = h
            .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(2))
            .unwrap();
        // Sweep b without compacting: a hole remains (bump pointer stays).
        let used = h.old(nvm).used();
        h.free(b);
        h.retain_old(nvm, vec![a], used);
        h.verify(&RootSet::new(), VerifyPoint::AfterMinor).unwrap();
        let e = h
            .verify(&RootSet::new(), VerifyPoint::AfterMajor)
            .unwrap_err();
        assert_eq!(e.invariant, Invariant::Accounting);
        assert_eq!(e.space, Some(SpaceId::Old(nvm)));
    }

    #[test]
    fn stale_mark_bit_is_caught() {
        let mut h = heap();
        let t = h
            .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Unit)
            .unwrap();
        h.obj_mut(t).marked = true;
        let e = h
            .verify(&RootSet::new(), VerifyPoint::AfterMajor)
            .unwrap_err();
        assert_eq!(e.invariant, Invariant::Liveness);
        assert!(e.detail.contains("mark bit"));
    }

    #[test]
    fn errors_render_their_location() {
        let e = VerifyError {
            point: VerifyPoint::AfterMajor,
            invariant: Invariant::CardCoverage,
            object: Some(ObjId(7)),
            space: Some(SpaceId::Old(crate::space::OldSpaceId(1))),
            detail: "card 3 is clean".into(),
        };
        let s = e.to_string();
        assert!(s.contains("after_major"), "{s}");
        assert!(s.contains("card_coverage"), "{s}");
        assert!(s.contains("obj#7"), "{s}");
        assert!(s.contains("old1"), "{s}");
        assert!(s.contains("card 3 is clean"), "{s}");
    }
}
