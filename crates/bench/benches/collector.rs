//! Micro-benchmarks of the collectors: minor scavenges over dead/live
//! populations, tag propagation, and major mark-compact.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use gc::{GcCoordinator, MemoryMode};
use hybridmem::{Addr, MemorySystemConfig};
use mheap::{CardTable, Heap, HeapConfig, MemTag, ObjKind, Payload, RootSet, CARD_BYTES};
use std::hint::black_box;

fn setup() -> (Heap, GcCoordinator) {
    let heap = Heap::new(
        HeapConfig::panthera(64 << 20, 1.0 / 3.0),
        MemorySystemConfig::with_capacities(21 << 20, 43 << 20),
    )
    .expect("valid config");
    (heap, GcCoordinator::new(MemoryMode::Panthera.into()))
}

fn bench_minor_all_dead(c: &mut Criterion) {
    c.bench_function("gc/minor_4k_dead", |b| {
        b.iter_batched(
            || {
                let (mut heap, gc) = setup();
                let roots = RootSet::new();
                for i in 0..4_096 {
                    heap.alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Long(i))
                        .unwrap();
                }
                (heap, gc, roots)
            },
            |(mut heap, mut gc, roots)| {
                gc.minor_gc(&mut heap, &roots);
                black_box(heap.live_objects())
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_minor_with_tagged_survivors(c: &mut Criterion) {
    c.bench_function("gc/minor_1k_eager_promotions", |b| {
        b.iter_batched(
            || {
                let (mut heap, gc) = setup();
                let mut roots = RootSet::new();
                let nvm = heap.old_nvm().unwrap();
                let arr = heap.alloc_array_old(nvm, 1, 1_024, MemTag::Nvm).unwrap();
                roots.push(arr);
                for i in 0..1_024 {
                    let t = heap
                        .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Long(i))
                        .unwrap();
                    heap.push_ref(arr, t);
                }
                (heap, gc, roots)
            },
            |(mut heap, mut gc, roots)| {
                gc.minor_gc(&mut heap, &roots);
                black_box(gc.stats().eager_promotions)
            },
            BatchSize::SmallInput,
        );
    });
}

/// One all-dirty RDD array, every slot a young tuple: the card scan's
/// cost per slot. Each card's window is examined once, so time divided by
/// the slot count should read flat from 4k to 64k slots (8 to 128 cards'
/// worth per 512 slots) rather than growing with the array's length.
fn bench_minor_multicard_array(c: &mut Criterion) {
    let mut g = c.benchmark_group("gc/minor_multicard_array");
    for (label, slots) in [("4k", 4_096usize), ("16k", 16_384), ("64k", 65_536)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &slots, |b, &slots| {
            b.iter_batched(
                || {
                    let (mut heap, gc) = setup();
                    let mut roots = RootSet::new();
                    let nvm = heap.old_nvm().unwrap();
                    let arr = heap.alloc_array_old(nvm, 1, slots, MemTag::Nvm).unwrap();
                    roots.push(arr);
                    for i in 0..slots {
                        let t = heap
                            .alloc_young(
                                ObjKind::Tuple,
                                MemTag::None,
                                vec![],
                                Payload::Long(i as i64),
                            )
                            .unwrap();
                        heap.push_ref(arr, t);
                    }
                    (heap, gc, roots)
                },
                |(mut heap, mut gc, roots)| {
                    gc.minor_gc(&mut heap, &roots);
                    black_box(gc.stats().cards_scanned)
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_major_compaction(c: &mut Criterion) {
    c.bench_function("gc/major_2k_live_2k_dead", |b| {
        b.iter_batched(
            || {
                let (mut heap, gc) = setup();
                let mut roots = RootSet::new();
                let nvm = heap.old_nvm().unwrap();
                for i in 0..4_096i64 {
                    let id = heap
                        .alloc_old(nvm, ObjKind::Tuple, MemTag::Nvm, vec![], Payload::Long(i))
                        .unwrap();
                    if i % 2 == 0 {
                        roots.push(id);
                    }
                }
                (heap, gc, roots)
            },
            |(mut heap, mut gc, roots)| {
                gc.major_gc(&mut heap, &roots);
                black_box(gc.stats().old_freed)
            },
            BatchSize::SmallInput,
        );
    });
}

/// The minor GC's dirty-card sweep in isolation: a 64 MiB card table
/// (131 072 cards) walked with the word-skipping bitmap cursor, at the
/// two densities that matter — sparse post-mutator dirt and a quarter-
/// dirty table after heavy barrier traffic. Compare against a saved
/// baseline with `CRITERION_BASELINE=<name>`.
fn bench_card_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("cards");
    for (label, stride) in [("sparse_1pct", 97usize), ("dense_1of4", 4)] {
        let mut table = CardTable::new(Addr(0), 64 << 20);
        let n = table.len();
        let mut i = 0usize;
        while i < n {
            table.mark_dirty(Addr(i as u64 * CARD_BYTES));
            i += stride;
        }
        g.bench_with_input(BenchmarkId::new("sweep_64MiB", label), &table, |b, t| {
            b.iter(|| {
                let mut sum = 0usize;
                let mut cursor = 0usize;
                while let Some(card) = t.next_dirty_from(cursor) {
                    sum += card;
                    cursor = card + 1;
                }
                black_box(sum + t.dirty_count())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_minor_all_dead,
    bench_minor_with_tagged_survivors,
    bench_minor_multicard_array,
    bench_major_compaction,
    bench_card_sweep
);
criterion_main!(benches);
