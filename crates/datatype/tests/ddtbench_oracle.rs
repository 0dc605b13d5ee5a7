//! Differential oracle battery over the four ddtbench application
//! layouts: every pack engine (uncompiled walker, compiled plan, each
//! forced SIMD tier x streaming x thread count) must produce
//! byte-identical packed output, and unpack must round-trip, on the
//! exact access patterns the application kernels send.

use nonctg_datatype::layouts::{lammps_exchange, milc_su3_zdown, nas_face, wrf_halo};
use nonctg_datatype::{
    available_tiers, check_type, pack_into_uncompiled, plan_for, Datatype, SimdTier,
};

/// The four ddtbench layouts at sizes big enough to exercise multi-chunk
/// parallel packing but small enough to keep the battery fast.
fn layouts() -> Vec<(&'static str, Datatype)> {
    vec![
        ("lammps", lammps_exchange(192).unwrap()),
        ("milc", milc_su3_zdown(16, 8, 4, 4).unwrap()),
        ("nas", nas_face(24, 32, 32).unwrap()),
        ("wrf", wrf_halo(4, 8, 16, 32, 2).unwrap()),
    ]
}

fn patterned(len: usize, seed: u64) -> Vec<u8> {
    (0..len)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed);
            (x >> 32) as u8
        })
        .collect()
}

/// Random-walk oracle over each layout (the datatype crate's own
/// differential checker: tree walker vs compiled plan vs manual model).
#[test]
fn ddtbench_layouts_pass_the_type_oracle() {
    for (name, t) in layouts() {
        for (count, seed) in [(1usize, 0xdd71_u64), (2, 0xdd72)] {
            check_type(&t, count, seed)
                .unwrap_or_else(|r| panic!("{name} x{count} failed the oracle: {r:?}"));
        }
    }
}

/// Every available SIMD tier, with and without streaming stores, at one
/// and several worker threads, must pack byte-identically to the plain
/// per-op scalar path and to the uncompiled tree walker.
#[test]
fn every_simd_tier_packs_ddtbench_layouts_identically() {
    for (name, t) in layouts() {
        let extent = (t.extent() as i64).max(t.lb() + t.size() as i64) as usize;
        let src = patterned(extent + 64, 0xa11ce);
        let packed_len = t.size() as usize;

        let mut walker = vec![0u8; packed_len];
        let n = pack_into_uncompiled(&src, 0, &t, 1, &mut walker).unwrap();
        assert_eq!(n, packed_len, "{name}: walker length");

        let plan = plan_for(&t, 1).unwrap_or_else(|| panic!("{name}: no plan"));
        let mut reference = vec![0u8; packed_len];
        plan.pack_into_forced(&src, 0, &mut reference, 1, SimdTier::Off, false).unwrap();
        assert_eq!(reference, walker, "{name}: plan(Off) != tree walker");

        for tier in available_tiers() {
            for stream in [false, true] {
                for threads in [1usize, 3] {
                    let mut out = vec![0xAAu8; packed_len];
                    plan.pack_into_forced(&src, 0, &mut out, threads, tier, stream).unwrap();
                    assert_eq!(
                        out, reference,
                        "{name}: pack mismatch tier={tier:?} stream={stream} threads={threads}"
                    );
                }
            }
        }
    }
}

/// Unpacking the packed bytes through every tier must scatter them back
/// to exactly the source's touched bytes (untouched gap bytes keep the
/// destination's fill value).
#[test]
fn every_simd_tier_unpacks_ddtbench_layouts_identically() {
    for (name, t) in layouts() {
        let extent = (t.extent() as i64).max(t.lb() + t.size() as i64) as usize;
        let src = patterned(extent + 64, 0x5ca77e);
        let packed_len = t.size() as usize;
        let plan = plan_for(&t, 1).unwrap_or_else(|| panic!("{name}: no plan"));
        let mut packed = vec![0u8; packed_len];
        plan.pack_into_forced(&src, 0, &mut packed, 1, SimdTier::Off, false).unwrap();

        let mut reference = vec![0u8; src.len()];
        plan.unpack_from_forced(&packed, &mut reference, 0, 1, SimdTier::Off).unwrap();

        for tier in available_tiers() {
            for threads in [1usize, 3] {
                let mut dst = vec![0u8; src.len()];
                plan.unpack_from_forced(&packed, &mut dst, 0, threads, tier).unwrap();
                assert_eq!(
                    dst, reference,
                    "{name}: unpack mismatch tier={tier:?} threads={threads}"
                );
            }
        }

        // Round trip: repacking the scattered buffer recovers the bytes.
        let mut repacked = vec![0u8; packed_len];
        plan.pack_into_forced(&reference, 0, &mut repacked, 1, SimdTier::Off, false).unwrap();
        assert_eq!(repacked, packed, "{name}: scatter/gather round trip");
    }
}
