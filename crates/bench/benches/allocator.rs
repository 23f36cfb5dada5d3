//! Micro-benchmarks of the heap's allocation paths: the young-generation
//! fast path, pretenured array allocation, the write barrier, and the
//! traffic meter every charge records into.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hybridmem::{AccessKind, DeviceKind, MemorySystemConfig, TrafficMeter};
use mheap::{Heap, HeapConfig, MemTag, ObjKind, Payload};
use std::hint::black_box;

fn heap() -> Heap {
    Heap::new(
        HeapConfig::panthera(256 << 20, 1.0 / 3.0),
        MemorySystemConfig::with_capacities(85 << 20, 171 << 20),
    )
    .expect("valid config")
}

fn bench_young_alloc(c: &mut Criterion) {
    c.bench_function("alloc/young_tuple_x1024", |b| {
        b.iter_batched(
            heap,
            |mut h| {
                for i in 0..1_024 {
                    let id = h
                        .alloc_young(
                            ObjKind::Tuple,
                            MemTag::None,
                            vec![],
                            Payload::Long(black_box(i)),
                        )
                        .expect("eden sized for the batch");
                    black_box(id);
                }
                h
            },
            BatchSize::LargeInput,
        );
    });
}

fn bench_traffic_record(c: &mut Criterion) {
    c.bench_function("traffic/record_monotone", |b| {
        b.iter_batched(
            || TrafficMeter::new(10_000_000_000),
            |mut m| {
                // 4 096 accesses 5 µs apart: runs inside one 10 ms window,
                // crossing into the next one once.
                for i in 0..4_096u64 {
                    let device = [DeviceKind::Dram, DeviceKind::Nvm][(i % 2) as usize];
                    let kind = [AccessKind::Read, AccessKind::Write][(i / 2 % 2) as usize];
                    m.record(black_box(i * 5_000_000), device, kind, 64);
                }
                m
            },
            BatchSize::LargeInput,
        );
    });
}

fn bench_pretenured_array(c: &mut Criterion) {
    c.bench_function("alloc/pretenured_array_1k_slots_x64", |b| {
        b.iter_batched(
            heap,
            |mut h| {
                let nvm = h.old_nvm().unwrap();
                for rdd in 0..64 {
                    black_box(
                        h.alloc_array_old(nvm, rdd, 1024, MemTag::Nvm)
                            .expect("space"),
                    );
                }
                h
            },
            BatchSize::LargeInput,
        );
    });
}

fn bench_write_barrier(c: &mut Criterion) {
    c.bench_function("alloc/write_barrier_push_ref_x1024", |b| {
        b.iter_batched(
            || {
                let mut h = heap();
                let nvm = h.old_nvm().unwrap();
                let arr = h.alloc_array_old(nvm, 1, 1 << 20, MemTag::Nvm).unwrap();
                let t = h
                    .alloc_young(ObjKind::Tuple, MemTag::None, vec![], Payload::Long(1))
                    .unwrap();
                (h, arr, t)
            },
            |(mut h, arr, t)| {
                for _ in 0..1_024 {
                    h.push_ref(black_box(arr), black_box(t));
                }
                h
            },
            BatchSize::LargeInput,
        );
    });
}

criterion_group!(
    benches,
    bench_young_alloc,
    bench_pretenured_array,
    bench_traffic_record,
    bench_write_barrier
);
criterion_main!(benches);
