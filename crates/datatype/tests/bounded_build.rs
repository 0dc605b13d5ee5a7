//! Bounded descriptions stay bounded: a type whose description is O(1)
//! must cost O(1) memory to build, commit, normalize and plan, whatever
//! its count. Vector, hvector and subarray types of 2^29..2^30 blocks
//! must allocate a few kilobytes, not a per-block list (16 bytes a block:
//! 16 MiB for `vector(2^20, 1, 2)`, 16 GiB at 2^30), and counts whose
//! offsets overflow must fail with a typed error before allocating.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nonctg_datatype::{plan_for, ArrayOrder, Datatype, DatatypeError};

/// Counts bytes requested from the allocator by the current thread (frees
/// are ignored: we measure allocation churn, not live footprint), so tests
/// running in parallel do not see each other's allocations.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BUDGET: u64 = 64 << 10;

#[test]
fn regular_types_build_normalize_and_plan_in_constant_memory() {
    let f64_t = Datatype::f64();
    // Warm up process-wide lazies (plan cache, normalization interner)
    // outside the measurement.
    let warm = Datatype::vector(4, 1, 2, &f64_t).unwrap().commit();
    let _ = plan_for(&warm, 1);

    let before = allocated();
    let v = Datatype::vector(1 << 30, 1, 2, &f64_t).unwrap().commit();
    let h = Datatype::hvector(1 << 30, 1, 24, &f64_t).unwrap().commit();
    // The paper's subarray form of `vector(n, 1, 2)`: a column of an n x 2 array.
    let s = Datatype::subarray(&[1 << 29, 2], &[1 << 29, 1], &[0, 0], ArrayOrder::C, &f64_t)
        .unwrap()
        .commit();
    for t in [&v, &h, &s] {
        let _ = t.normalized();
        assert!(plan_for(t, 1).is_some(), "no plan for {:?}", t.kind());
    }
    let used = allocated() - before;

    assert_eq!((v.size(), v.seg_count_hint()), (8 << 30, 1 << 30));
    assert_eq!(h.ub(), ((1 << 30) - 1) * 24 + 8);
    assert_eq!((s.size(), s.seg_count_hint()), (8 << 29, 1 << 29));
    assert!(
        used < BUDGET,
        "building, normalizing and planning three 2^29..2^30-block regular types \
         allocated {used} bytes (budget {BUDGET}): construction walks the blocks again"
    );
}

#[test]
fn huge_counts_fail_with_a_typed_error() {
    let f64_t = Datatype::f64();
    let before = allocated();
    // (2^62 - 1) blocks * 32-byte stride overflows the offset range.
    let v = Datatype::vector(1 << 62, 1, 4, &f64_t);
    let h = Datatype::hvector(1 << 40, 1, i64::MAX / 2, &f64_t);
    let used = allocated() - before;
    assert_eq!(v.err(), Some(DatatypeError::Overflow));
    assert_eq!(h.err(), Some(DatatypeError::Overflow));
    assert!(used < BUDGET, "overflowing constructions allocated {used} bytes first");
}
