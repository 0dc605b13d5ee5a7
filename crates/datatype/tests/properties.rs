//! Property-based tests of the datatype algebra and pack engine.

use nonctg_datatype::{
    pack, pack_size, strided_form, unpack_from, ArrayOrder, Datatype, DatatypeError, Primitive,
    SegIter,
};
use proptest::prelude::*;

/// A small random type tree (depth <= 3) with bounded extents.
fn arb_datatype() -> impl Strategy<Value = Datatype> {
    let leaf = prop_oneof![
        Just(Datatype::f64()),
        Just(Datatype::i32()),
        Just(Datatype::byte()),
        Just(Datatype::primitive(Primitive::Int16)),
        Just(Datatype::complex128()),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop_oneof![
            // contiguous
            (1usize..5, inner.clone())
                .prop_map(|(n, c)| Datatype::contiguous(n, &c).unwrap()),
            // vector with non-negative stride >= blocklen (non-overlapping)
            (1usize..5, 1usize..4, 0i64..4, inner.clone()).prop_map(|(n, bl, extra, c)| {
                Datatype::vector(n, bl, bl as i64 + extra, &c).unwrap()
            }),
            // indexed with increasing displacements
            (proptest::collection::vec((1usize..3, 0i64..4), 1..4), inner.clone()).prop_map(
                |(blocks, c)| {
                    let mut disp = 0i64;
                    let blocks: Vec<(usize, i64)> = blocks
                        .into_iter()
                        .map(|(bl, gap)| {
                            let d = disp;
                            disp += bl as i64 + gap;
                            (bl, d)
                        })
                        .collect();
                    Datatype::indexed(&blocks, &c).unwrap()
                }
            ),
            // 2-D subarray
            (1usize..4, 1usize..4, 0usize..3, proptest::bool::ANY, inner.clone()).prop_map(
                |(rows, cols, start, fortran, c)| {
                    let sizes = [rows + start, cols + start];
                    let subsizes = [rows, cols];
                    let starts = [start, start.min(sizes[1] - subsizes[1])];
                    let order = if fortran { ArrayOrder::Fortran } else { ArrayOrder::C };
                    Datatype::subarray(&sizes, &subsizes, &starts, order, &c).unwrap()
                }
            ),
            // struct of two fields at consecutive displacements
            (1usize..3, 1usize..3, inner.clone()).prop_map(|(a, b, c)| {
                let ext = c.extent() as i64;
                Datatype::structure(&[
                    (a, 0, c.clone()),
                    (b, a as i64 * ext, c.clone()),
                ])
                .unwrap()
            }),
        ]
    })
}

/// Buffer sized to hold `count` instances with margin.
fn buffer_for(d: &Datatype, count: usize) -> usize {
    let span = d.extent() as usize * count + d.true_extent() as usize + 64;
    span.max(d.true_ub().max(0) as usize + d.extent() as usize * count + 64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// size <= true_extent <= extent for non-overlapping constructions,
    /// and the signature byte count equals the size.
    #[test]
    fn size_and_extent_invariants(d in arb_datatype()) {
        prop_assert!(d.size() <= d.true_extent().max(d.size()));
        prop_assert!(d.true_extent() <= d.extent() || d.extent() == 0);
        prop_assert_eq!(d.signature().total_bytes(), d.size());
        prop_assert!(d.true_lb() >= d.lb());
        prop_assert!(d.true_ub() <= d.ub());
    }

    /// The streaming iterator's total byte count equals count * size, and
    /// its segments are disjoint and within the type's true bounds.
    #[test]
    fn segments_cover_exactly_size(d in arb_datatype(), count in 1usize..4) {
        let mut total = 0u64;
        let mut prev_end = i64::MIN;
        let mut monotone = true;
        for b in SegIter::new(&d, count as u64) {
            prop_assert!(b.len > 0);
            if b.offset < prev_end {
                monotone = false;
            }
            prev_end = b.offset + b.len as i64;
            total += b.len;
            prop_assert!(b.offset >= d.true_lb());
            prop_assert!(
                b.offset + b.len as i64
                    <= d.true_ub() + (count as i64 - 1) * d.extent() as i64
            );
        }
        prop_assert_eq!(total, d.size() * count as u64);
        // Our generators build non-overlapping types in address order.
        prop_assert!(monotone, "segments emitted out of order");
    }

    /// Segments after coalescing never abut (adjacent would have merged).
    #[test]
    fn coalescing_leaves_no_adjacent_segments(d in arb_datatype(), count in 1usize..4) {
        let segs: Vec<_> = SegIter::new(&d, count as u64).collect();
        for w in segs.windows(2) {
            prop_assert!(
                w[0].offset + w[0].len as i64 != w[1].offset,
                "adjacent segments not coalesced: {:?}", w
            );
        }
    }

    /// pack followed by unpack restores exactly the selected bytes and
    /// touches nothing else.
    #[test]
    fn pack_unpack_roundtrip(d in arb_datatype(), count in 1usize..3) {
        let len = buffer_for(&d, count);
        let src: Vec<u8> = (0..len).map(|i| (i % 251) as u8 + 1).collect();
        let origin = (-d.true_lb()).max(0) as usize;

        let packed = pack(&src, origin, &d, count).unwrap();
        prop_assert_eq!(packed.len(), pack_size(&d, count).unwrap());

        let mut dst = vec![0u8; len];
        unpack_from(&packed, &d, count, &mut dst, origin).unwrap();

        // Every selected byte restored; every unselected byte still zero.
        let mut selected = vec![false; len];
        for b in SegIter::new(&d, count as u64) {
            let from = (origin as i64 + b.offset) as usize;
            selected[from..from + b.len as usize].fill(true);
        }
        for i in 0..len {
            if selected[i] {
                prop_assert_eq!(dst[i], src[i], "byte {} corrupted", i);
            } else {
                prop_assert_eq!(dst[i], 0u8, "byte {} spuriously written", i);
            }
        }
    }

    /// The strided fast path and the generic segment walk agree.
    #[test]
    fn strided_fast_path_matches_generic(
        count in 1usize..20,
        blocklen in 1usize..5,
        extra in 0i64..6,
        inst in 1usize..3,
    ) {
        let d = Datatype::vector(count, blocklen, blocklen as i64 + extra, &Datatype::f64())
            .unwrap()
            .commit();
        prop_assume!(strided_form(&d).is_some());
        let len = buffer_for(&d, inst);
        let src: Vec<u8> = (0..len).map(|i| (i * 7 % 255) as u8).collect();
        let fast = pack(&src, 0, &d, inst).unwrap();
        // Generic path: walk segments manually.
        let mut slow = Vec::with_capacity(fast.len());
        for b in SegIter::new(&d, inst as u64) {
            let from = b.offset as usize;
            slow.extend_from_slice(&src[from..from + b.len as usize]);
        }
        prop_assert_eq!(fast, slow);
    }

    /// A vector and the equivalent 2-D subarray pack identical bytes.
    #[test]
    fn vector_equals_subarray_selection(
        count in 1usize..12,
        blocklen in 1usize..4,
        extra in 1usize..4,
    ) {
        let stride = blocklen + extra;
        let v = Datatype::vector(count, blocklen, stride as i64, &Datatype::f64()).unwrap();
        let s = Datatype::subarray(
            &[count, stride],
            &[count, blocklen],
            &[0, 0],
            ArrayOrder::C,
            &Datatype::f64(),
        )
        .unwrap();
        prop_assert_eq!(v.size(), s.size());
        let len = buffer_for(&v, 1).max(buffer_for(&s, 1));
        let src: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        prop_assert_eq!(pack(&src, 0, &v, 1).unwrap(), pack(&src, 0, &s, 1).unwrap());
    }

    /// An indexed type listing each block of a vector packs identically.
    #[test]
    fn vector_equals_indexed_blocks(
        count in 1usize..10,
        blocklen in 1usize..4,
        extra in 0i64..4,
    ) {
        let stride = blocklen as i64 + extra;
        let v = Datatype::vector(count, blocklen, stride, &Datatype::i32()).unwrap();
        let blocks: Vec<(usize, i64)> =
            (0..count).map(|j| (blocklen, j as i64 * stride)).collect();
        let ix = Datatype::indexed(&blocks, &Datatype::i32()).unwrap();
        prop_assert_eq!(v.size(), ix.size());
        prop_assert_eq!(v.lb(), ix.lb());
        prop_assert_eq!(v.ub(), ix.ub());
        let len = buffer_for(&v, 1);
        let src: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
        prop_assert_eq!(pack(&src, 0, &v, 1).unwrap(), pack(&src, 0, &ix, 1).unwrap());
    }

    /// Committing never changes observable properties, and the flattened
    /// list (when present) matches the streaming iterator.
    #[test]
    fn commit_is_transparent(d in arb_datatype()) {
        let size = d.size();
        let extent = d.extent();
        let hint = d.seg_count_hint();
        let c = d.commit();
        prop_assert_eq!(c.size(), size);
        prop_assert_eq!(c.extent(), extent);
        prop_assert_eq!(c.seg_count_hint(), hint);
        if let Some(f) = c.flattened() {
            let live: Vec<_> = SegIter::new(&c, 1).collect();
            prop_assert_eq!(f.as_ref(), &live[..]);
        }
    }

    /// seg_count_hint is an upper bound on the real coalesced segment
    /// count, and exact for non-adjacent regular types.
    #[test]
    fn seg_hint_is_upper_bound(d in arb_datatype()) {
        let real = SegIter::new(&d, 1).count() as u64;
        prop_assert!(
            real <= d.seg_count_hint(),
            "real {} > hint {}", real, d.seg_count_hint()
        );
    }
}

/// Children for the strided-construction equivalence test: the random
/// trees, plus the edge cases of the closed form — resized children with
/// negative or huge bounds (which push offsets into overflow), a padded
/// struct, and the empty type.
fn arb_strided_child() -> impl Strategy<Value = Datatype> {
    prop_oneof![
        arb_datatype(),
        (arb_datatype(), -64i64..64, 0u64..256)
            .prop_map(|(c, lb, extent)| Datatype::resized(&c, lb, extent).unwrap()),
        (arb_datatype(), 0u64..3, proptest::bool::ANY).prop_map(|(c, k, neg)| {
            let lb = (i64::MAX >> 2) * if neg { -1 } else { 1 };
            Datatype::resized(&c, lb, (u64::MAX >> 4) + k).unwrap()
        }),
        Just(Datatype::structure(&[(1, 0, Datatype::f64()), (1, 8, Datatype::i32())]).unwrap()),
        Just(Datatype::contiguous(0, &Datatype::f64()).unwrap()),
    ]
}

/// The per-block reference for `count` blocks of `blocklen` children at
/// byte offsets `j * stride_bytes`: an hindexed type, which walks its
/// block list one block at a time.
fn per_block_reference(
    count: usize,
    blocklen: usize,
    stride_bytes: Option<i64>,
    child: &Datatype,
) -> Result<Datatype, DatatypeError> {
    let sb = stride_bytes.ok_or(DatatypeError::Overflow)?;
    let blocks: Vec<(usize, i64)> = (0..count)
        .map(|j| (j as i64).checked_mul(sb).map(|o| (blocklen, o)).ok_or(DatatypeError::Overflow))
        .collect::<Result<_, _>>()?;
    Datatype::hindexed(&blocks, child)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Vector and hvector build in closed form; every cached property, and
    /// whether construction fails, equals the per-block walk.
    #[test]
    fn strided_closed_form_matches_per_block_walk(
        child in arb_strided_child(),
        count in 0usize..64,
        blocklen in 0usize..4,
        stride in -8i64..8,
        hvector in proptest::bool::ANY,
    ) {
        let (built, sb) = if hvector {
            (Datatype::hvector(count, blocklen, stride, &child), Some(stride))
        } else {
            (Datatype::vector(count, blocklen, stride, &child), stride.checked_mul(child.extent() as i64))
        };
        let reference = per_block_reference(count, blocklen, sb, &child);
        match (built, reference) {
            (Ok(d), Ok(r)) => {
                prop_assert_eq!(d.size(), r.size());
                prop_assert_eq!((d.lb(), d.ub()), (r.lb(), r.ub()));
                prop_assert_eq!((d.true_lb(), d.true_ub()), (r.true_lb(), r.true_ub()));
                prop_assert_eq!(d.dense_block(), r.dense_block());
                prop_assert_eq!(d.seg_count_hint(), r.seg_count_hint());
                prop_assert_eq!(d.signature(), r.signature());
                prop_assert_eq!((d.align(), d.depth()), (r.align(), r.depth()));
            }
            (d, r) => prop_assert_eq!(d.err(), r.err()),
        }
    }
}

/// Deeply nested stress: five levels of composition over a realistic
/// footprint must keep all invariants and round-trip through the packed
/// form, through external32, and through the flattened representation.
#[test]
fn deep_nesting_stress() {
    use nonctg_datatype::{layout_eq, pack_external, unpack_external};

    // struct { 2 x i32; vector(3, 2, 5) of (contiguous 2 f64) } repeated
    // in an hvector, selected by an indexed type.
    let pair = Datatype::contiguous(2, &Datatype::f64()).unwrap();
    let vec3 = Datatype::vector(3, 2, 5, &pair).unwrap();
    let st = Datatype::structure(&[(2, 0, Datatype::i32()), (1, 16, vec3)]).unwrap();
    let hv = Datatype::hvector(4, 1, 512, &st).unwrap();
    let top = Datatype::indexed(&[(1, 0), (1, 2)], &hv).unwrap().commit();

    assert!(top.depth() >= 5);
    assert_eq!(top.signature().total_bytes(), top.size());
    let total: u64 = SegIter::new(&top, 1).map(|b| b.len).sum();
    assert_eq!(total, top.size());

    // Round-trip with margin for the full extent of both indexed blocks.
    let span = top.true_ub().max(top.ub()) as usize + 64;
    let src: Vec<u8> = (0..span).map(|i| (i % 251) as u8 + 1).collect();
    let packed = pack(&src, 0, &top, 1).unwrap();
    let mut back = vec![0u8; span];
    unpack_from(&packed, &top, 1, &mut back, 0).unwrap();
    for b in SegIter::new(&top, 1) {
        let r = b.offset as usize..(b.offset + b.len as i64) as usize;
        assert_eq!(&back[r.clone()], &src[r]);
    }

    // external32 round-trip too.
    let ext = pack_external(&src, 0, &top, 1).unwrap();
    assert_eq!(ext.len(), packed.len());
    let mut back2 = vec![0u8; span];
    unpack_external(&ext, &top, 1, &mut back2, 0).unwrap();
    assert_eq!(back, back2);

    // The committed flattened list matches the stream.
    let fresh = Datatype::indexed(&[(1, 0), (1, 2)], &Datatype::hvector(4, 1, 512,
        &Datatype::structure(&[(2, 0, Datatype::i32()), (1, 16,
            Datatype::vector(3, 2, 5, &Datatype::contiguous(2, &Datatype::f64()).unwrap()).unwrap())]).unwrap()).unwrap()).unwrap();
    assert!(layout_eq(&top, &fresh));
}
