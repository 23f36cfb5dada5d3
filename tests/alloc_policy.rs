//! Table 1 as executable assertions: initial and final space for every
//! (tag, object type) combination under Panthera's policies.

use gc::{GcCoordinator, MemoryMode};
use hybridmem::MemorySystemConfig;
use mheap::{Heap, HeapConfig, MemTag, ObjId, ObjKind, Payload, RootSet, SpaceId};

struct Fixture {
    heap: Heap,
    gc: GcCoordinator,
    roots: RootSet,
}

impl Fixture {
    fn new() -> Self {
        let heap = Heap::new(
            HeapConfig::panthera(4 << 20, 1.0 / 3.0),
            MemorySystemConfig::with_capacities(4 << 20, 8 << 20),
        )
        .expect("valid config");
        Fixture {
            heap,
            gc: GcCoordinator::new(MemoryMode::Panthera.into()),
            roots: RootSet::new(),
        }
    }

    /// Build one RDD structure (top + array + one tuple) with `tag`.
    fn rdd(&mut self, tag: MemTag) -> (ObjId, ObjId, ObjId) {
        let array = self
            .gc
            .alloc_rdd_array(&mut self.heap, &self.roots, 1, 512, tag);
        let top = self.gc.alloc_young(
            &mut self.heap,
            &self.roots,
            ObjKind::RddTop { rdd_id: 1 },
            tag,
            vec![array],
            Payload::Unit,
        );
        let tuple = self.gc.alloc_young(
            &mut self.heap,
            &self.roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(7),
        );
        self.heap.push_ref(array, tuple);
        self.roots.push(top);
        (top, array, tuple)
    }

    fn settle(&mut self) {
        for _ in 0..4 {
            self.gc.minor_gc(&mut self.heap, &self.roots);
        }
    }

    fn dram(&self) -> SpaceId {
        SpaceId::Old(self.heap.old_dram().unwrap())
    }

    fn nvm(&self) -> SpaceId {
        SpaceId::Old(self.heap.old_nvm().unwrap())
    }
}

#[test]
fn dram_tag_row() {
    let mut f = Fixture::new();
    let (top, array, tuple) = f.rdd(MemTag::Dram);
    // Initial: top young, array pretenured DRAM, data young.
    assert!(f.heap.obj(top).space.is_young());
    assert_eq!(f.heap.obj(array).space, f.dram());
    assert!(f.heap.obj(tuple).space.is_young());
    f.settle();
    // Final: everything in DRAM of old gen.
    assert_eq!(f.heap.obj(top).space, f.dram());
    assert_eq!(f.heap.obj(array).space, f.dram());
    assert_eq!(f.heap.obj(tuple).space, f.dram());
    assert_eq!(
        f.heap.obj(tuple).tag,
        MemTag::Dram,
        "tag propagated to data"
    );
}

#[test]
fn nvm_tag_row() {
    let mut f = Fixture::new();
    let (top, array, tuple) = f.rdd(MemTag::Nvm);
    assert!(f.heap.obj(top).space.is_young());
    assert_eq!(f.heap.obj(array).space, f.nvm());
    assert!(f.heap.obj(tuple).space.is_young());
    f.settle();
    assert_eq!(f.heap.obj(top).space, f.nvm());
    assert_eq!(f.heap.obj(array).space, f.nvm());
    assert_eq!(f.heap.obj(tuple).space, f.nvm());
}

#[test]
fn untagged_row() {
    let mut f = Fixture::new();
    let (top, array, tuple) = f.rdd(MemTag::None);
    // Initial: everything young (the array too — no wait-state match).
    assert!(f.heap.obj(top).space.is_young());
    assert!(f.heap.obj(array).space.is_young());
    assert!(f.heap.obj(tuple).space.is_young());
    f.settle();
    // Final: long-lived untagged objects default to the NVM space.
    assert_eq!(f.heap.obj(top).space, f.nvm());
    assert_eq!(f.heap.obj(array).space, f.nvm());
    assert_eq!(f.heap.obj(tuple).space, f.nvm());
}

#[test]
fn short_lived_untagged_objects_die_young() {
    let mut f = Fixture::new();
    let tuple = f.gc.alloc_young(
        &mut f.heap,
        &f.roots,
        ObjKind::Tuple,
        MemTag::None,
        vec![],
        Payload::Long(1),
    );
    f.gc.minor_gc(&mut f.heap, &f.roots);
    assert!(
        !f.heap.is_live(tuple),
        "unreferenced intermediate data dies in eden"
    );
}
