//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **compiled plan** — pack a committed vector through its cached
//!    plan vs the plain segment walk over the same type;
//! 2. **commit-time flattening** — compile a plan from a committed type
//!    (flat slice iteration) vs the same type uncommitted (streaming
//!    frame machine);
//! 3. **online coalescing** — segment iteration with and without merging
//!    adjacent runs, on a type built from mergeable blocks.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nonctg_datatype::{as_bytes, pack_into, pack_into_uncompiled, Datatype, PackPlan, SegIter};
use std::hint::black_box;

fn bench_compiled_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_compiled_plan");
    g.sample_size(20);
    let n = 1usize << 16;
    let src: Vec<f64> = (0..2 * n).map(|i| i as f64).collect();
    let mut out = vec![0u8; n * 8];
    let vector = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();

    g.throughput(Throughput::Bytes((n * 8) as u64));
    g.bench_function("compiled_plan", |b| {
        b.iter(|| pack_into(black_box(as_bytes(&src)), 0, &vector, 1, &mut out).unwrap());
    });
    g.bench_function("segment_walk", |b| {
        b.iter(|| pack_into_uncompiled(black_box(as_bytes(&src)), 0, &vector, 1, &mut out).unwrap());
    });
    g.finish();
}

fn bench_flattening(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_commit_flattening");
    g.sample_size(20);
    // An irregular type below the flatten cap (so commit materializes it).
    let nblocks = 1usize << 12;
    let blocks: Vec<(usize, i64)> =
        (0..nblocks).map(|j| (2usize, (j * 5 + j % 2) as i64)).collect();
    let streaming = Datatype::indexed(&blocks, &Datatype::f64()).unwrap();
    let flattened = Datatype::indexed(&blocks, &Datatype::f64()).unwrap().commit();
    assert!(flattened.flattened().is_some());

    g.bench_function("flattened_slice", |b| {
        b.iter(|| PackPlan::compile(black_box(&flattened), 1).unwrap());
    });
    g.bench_function("streaming_frames", |b| {
        b.iter(|| PackPlan::compile(black_box(&streaming), 1).unwrap());
    });
    g.finish();
}

fn bench_coalescing(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_online_coalescing");
    g.sample_size(20);
    // Blocks that frequently abut: coalescing merges runs of them.
    let nblocks = 1usize << 14;
    let blocks: Vec<(usize, i64)> = (0..nblocks)
        .map(|j| (1usize, (j + j / 4) as i64)) // 3 of 4 adjacent
        .collect();
    let d = Datatype::indexed(&blocks, &Datatype::f64()).unwrap();

    g.bench_function("coalesced_iteration", |b| {
        b.iter(|| SegIter::new(black_box(&d), 1).count());
    });
    g.bench_function("raw_iteration", |b| {
        b.iter(|| SegIter::new_raw(black_box(&d), 1).count());
    });
    // Report the compression the design buys.
    let merged = SegIter::new(&d, 1).count();
    let raw = SegIter::new_raw(&d, 1).count();
    eprintln!("coalescing: {raw} raw segments -> {merged} merged");
    g.finish();
}

criterion_group!(benches, bench_compiled_plan, bench_flattening, bench_coalescing);
criterion_main!(benches);
