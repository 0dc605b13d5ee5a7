//! The pack/unpack engine.
//!
//! Converts between a user buffer laid out according to a datatype and a
//! contiguous packed representation, exactly as `MPI_Pack`/`MPI_Unpack`
//! (and the internals of any MPI implementation sending a derived type)
//! must. Two engines:
//!
//! 1. **compiled plan** — committed types run the cached [`crate::plan`]
//!    kernel program, the only fast engine;
//! 2. **segment walk** — uncommitted and unplannable types stream the
//!    coalesced [`SegIter`] segments one copy at a time. The walk is also
//!    the reference the plan is tested against.
//!
//! All offsets are validated against the user buffer; packing never reads
//! and unpacking never writes out of bounds.

use crate::error::{DatatypeError, Result};
use crate::node::{ArrayOrder, Block, Datatype, Kind};
use crate::segiter::SegIter;

/// A normalized strided description: `nblocks` runs of `block_len` bytes,
/// starting at `base` and advancing `stride` bytes per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strided {
    /// Byte offset of the first run, relative to the instance origin.
    pub base: i64,
    /// Number of runs.
    pub nblocks: u64,
    /// Bytes per run.
    pub block_len: u64,
    /// Byte distance between run starts.
    pub stride: i64,
}

/// Recognize a single instance of the type as a regular strided pattern.
///
/// Returns `None` for irregular or nested-irregular types; those take the
/// generic path.
pub fn strided_form(dtype: &Datatype) -> Option<Strided> {
    if let Some(b) = dtype.dense_block() {
        return Some(Strided { base: b.offset, nblocks: 1, block_len: b.len, stride: 0 });
    }
    match dtype.kind() {
        Kind::Vector { count, blocklen, stride, child } => {
            let b = child.dense_block()?;
            let ext = child.extent_i64();
            if ext != b.len as i64 && *blocklen > 1 {
                return None;
            }
            Some(Strided {
                base: b.offset,
                nblocks: *count,
                block_len: b.len * *blocklen,
                stride: stride * ext,
            })
        }
        Kind::Hvector { count, blocklen, stride_bytes, child } => {
            let b = child.dense_block()?;
            let ext = child.extent_i64();
            if ext != b.len as i64 && *blocklen > 1 {
                return None;
            }
            Some(Strided {
                base: b.offset,
                nblocks: *count,
                block_len: b.len * *blocklen,
                stride: *stride_bytes,
            })
        }
        Kind::Subarray { sizes, subsizes, starts, order, child } => {
            let b = child.dense_block()?;
            let ext = child.extent_i64();
            if ext != b.len as i64 {
                return None;
            }
            // Regular pattern iff at most one outer (non-run) dimension.
            let ndims = sizes.len();
            let mut stride = vec![1u64; ndims];
            match order {
                ArrayOrder::C => {
                    for d in (0..ndims.saturating_sub(1)).rev() {
                        stride[d] = stride[d + 1] * sizes[d + 1];
                    }
                }
                ArrayOrder::Fortran => {
                    for d in 1..ndims {
                        stride[d] = stride[d - 1] * sizes[d - 1];
                    }
                }
            }
            let locality: Vec<usize> = match order {
                ArrayOrder::C => (0..ndims).collect(),
                ArrayOrder::Fortran => (0..ndims).rev().collect(),
            };
            let mut run_elems = 1u64;
            let mut fixed = 0u64;
            let mut outer: Vec<usize> = Vec::new();
            let mut still_inner = true;
            for &d in locality.iter().rev() {
                if still_inner {
                    if subsizes[d] == sizes[d] {
                        run_elems *= sizes[d];
                        continue;
                    }
                    run_elems *= subsizes[d];
                    fixed += starts[d] * stride[d];
                    still_inner = false;
                } else if subsizes[d] == 1 {
                    fixed += starts[d] * stride[d];
                } else {
                    outer.push(d);
                }
            }
            if subsizes.contains(&0) {
                return Some(Strided { base: 0, nblocks: 0, block_len: 0, stride: 0 });
            }
            match outer.len() {
                0 => Some(Strided {
                    base: fixed as i64 * ext + b.offset,
                    nblocks: 1,
                    block_len: run_elems * b.len,
                    stride: 0,
                }),
                1 => {
                    let d = outer[0];
                    Some(Strided {
                        base: (fixed + starts[d] * stride[d]) as i64 * ext + b.offset,
                        nblocks: subsizes[d],
                        block_len: run_elems * b.len,
                        stride: stride[d] as i64 * ext,
                    })
                }
                _ => None,
            }
        }
        Kind::Resized { child, .. } => strided_form(child),
        _ => None,
    }
}

/// Number of packed bytes for `count` instances (`MPI_Pack_size`, exact).
pub fn pack_size(dtype: &Datatype, count: usize) -> Result<usize> {
    dtype
        .size()
        .checked_mul(count as u64)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or(DatatypeError::Overflow)
}

fn check_block(origin: usize, b: Block, buf_len: usize) -> Result<(usize, usize)> {
    let from = origin as i64 + b.offset;
    let to = from + b.len as i64;
    if from < 0 || to < from || to as u64 > buf_len as u64 {
        return Err(DatatypeError::OutOfBounds { needed_from: from, needed_to: to, buffer_len: buf_len });
    }
    Ok((from as usize, to as usize))
}

/// The bytes `[lo, hi)` that `count` instances of `dtype` touch, relative
/// to the origin of instance 0; `None` when they touch none.
pub fn user_span(dtype: &Datatype, count: usize) -> Option<(i128, i128)> {
    if count == 0 || dtype.size() == 0 {
        return None;
    }
    let shift = (count as i128 - 1) * dtype.extent_i64() as i128;
    Some((dtype.true_lb() as i128 + shift.min(0), dtype.true_ub() as i128 + shift.max(0)))
}

/// Check that a [`user_span`] placed at `origin` lies inside a buffer of
/// `buf_len` bytes: the one aggregate bound check that the compiled plan,
/// the send route and the iovec scatter share, so every datapath reports
/// the same `OutOfBounds`.
pub fn check_span(origin: usize, span: Option<(i128, i128)>, buf_len: usize) -> Result<()> {
    let Some((lo, hi)) = span else { return Ok(()) };
    let from = origin as i128 + lo;
    let to = origin as i128 + hi;
    if from < 0 || to < from || to > buf_len as i128 {
        return Err(DatatypeError::OutOfBounds {
            needed_from: from.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
            needed_to: to.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
            buffer_len: buf_len,
        });
    }
    Ok(())
}

/// Pack `count` instances of `dtype` read from `src` (instance 0 origin at
/// byte `origin`) into `dst`. Returns the number of packed bytes written.
///
/// Committed types go through the compiled-plan engine (see
/// [`crate::plan`]): the kernel program is fetched from the bounded plan
/// cache (compiled on first use) and executed, parallelized for large
/// payloads. Everything else falls back to [`pack_into_uncompiled`].
pub fn pack_into(
    src: &[u8],
    origin: usize,
    dtype: &Datatype,
    count: usize,
    dst: &mut [u8],
) -> Result<usize> {
    if let Some(plan) = crate::plan::plan_for(dtype, count) {
        return plan.pack_into(src, origin, dst);
    }
    pack_into_uncompiled(src, origin, dtype, count, dst)
}

/// The segment walk: pack by copying the coalesced [`SegIter`] segments
/// one at a time, checking each against `src`, without consulting the
/// plan cache. The reference the compiled plan is tested against, and
/// the engine for uncommitted types.
pub fn pack_into_uncompiled(
    src: &[u8],
    origin: usize,
    dtype: &Datatype,
    count: usize,
    dst: &mut [u8],
) -> Result<usize> {
    let total = pack_size(dtype, count)?;
    if dst.len() < total {
        return Err(DatatypeError::BufferTooSmall { needed: total, available: dst.len() });
    }
    let mut pos = 0usize;
    for b in SegIter::new(dtype, count as u64) {
        let (from, to) = check_block(origin, b, src.len())?;
        dst[pos..pos + b.len as usize].copy_from_slice(&src[from..to]);
        pos += b.len as usize;
    }
    debug_assert_eq!(pos, total);
    Ok(pos)
}

/// Unpack `count` instances of `dtype` from `packed` into the user buffer
/// `dst` (instance 0 origin at byte `origin`). Returns bytes consumed.
///
/// Committed types use the compiled-plan engine; see [`pack_into`].
pub fn unpack_from(
    packed: &[u8],
    dtype: &Datatype,
    count: usize,
    dst: &mut [u8],
    origin: usize,
) -> Result<usize> {
    if let Some(plan) = crate::plan::plan_for(dtype, count) {
        return plan.unpack_from(packed, dst, origin);
    }
    unpack_from_uncompiled(packed, dtype, count, dst, origin)
}

/// The segment-walk unpack; counterpart of [`pack_into_uncompiled`].
pub fn unpack_from_uncompiled(
    packed: &[u8],
    dtype: &Datatype,
    count: usize,
    dst: &mut [u8],
    origin: usize,
) -> Result<usize> {
    let total = pack_size(dtype, count)?;
    if packed.len() < total {
        return Err(DatatypeError::BufferTooSmall { needed: total, available: packed.len() });
    }
    let mut pos = 0usize;
    for b in SegIter::new(dtype, count as u64) {
        let (from, to) = check_block(origin, b, dst.len())?;
        dst[from..to].copy_from_slice(&packed[pos..pos + b.len as usize]);
        pos += b.len as usize;
    }
    debug_assert_eq!(pos, total);
    Ok(pos)
}

/// Convenience: pack into a fresh `Vec`.
///
/// The output is built in reserved capacity filled directly by the pack
/// engine — no zero-initializing memset of `total` bytes beforehand.
pub fn pack(src: &[u8], origin: usize, dtype: &Datatype, count: usize) -> Result<Vec<u8>> {
    let total = pack_size(dtype, count)?;
    let mut out = Vec::with_capacity(total);
    // SAFETY: `spare` views the reserved capacity. Every engine path only
    // ever *writes* through the destination slice (memcpy-style), never
    // reads it, and `set_len` runs only after a successful pack has
    // written all `total` bytes; on error the Vec keeps length 0.
    let spare = unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr(), total) };
    let written = pack_into(src, origin, dtype, count, spare)?;
    debug_assert_eq!(written, total);
    // SAFETY: `written == total` bytes of the capacity are initialized.
    unsafe { out.set_len(written) };
    Ok(out)
}

/// Incremental packing with an explicit position cursor — the exact
/// `MPI_Pack(inbuf, incount, datatype, outbuf, outsize, &position)` shape.
pub fn pack_with_position(
    src: &[u8],
    origin: usize,
    dtype: &Datatype,
    count: usize,
    outbuf: &mut [u8],
    position: &mut usize,
) -> Result<()> {
    if *position > outbuf.len() {
        return Err(DatatypeError::InvalidPosition { position: *position, buffer_len: outbuf.len() });
    }
    let written = pack_into(src, origin, dtype, count, &mut outbuf[*position..])?;
    *position += written;
    Ok(())
}

/// Incremental unpacking with an explicit position cursor (`MPI_Unpack`).
pub fn unpack_with_position(
    inbuf: &[u8],
    position: &mut usize,
    dtype: &Datatype,
    count: usize,
    dst: &mut [u8],
    origin: usize,
) -> Result<()> {
    if *position > inbuf.len() {
        return Err(DatatypeError::InvalidPosition { position: *position, buffer_len: inbuf.len() });
    }
    let consumed = unpack_from(&inbuf[*position..], dtype, count, dst, origin)?;
    *position += consumed;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64s(n: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(n * 8);
        for i in 0..n {
            v.extend_from_slice(&(i as f64).to_le_bytes());
        }
        v
    }

    #[test]
    fn pack_contiguous_is_identity() {
        let src = f64s(16);
        let d = Datatype::contiguous(16, &Datatype::f64()).unwrap().commit();
        let p = pack(&src, 0, &d, 1).unwrap();
        assert_eq!(p, src);
    }

    #[test]
    fn span_check_agrees_with_plan() {
        let src = f64s(4);
        for count in 1..3 {
            let d = Datatype::vector(4, 1, 2, &Datatype::f64()).unwrap().commit();
            let mut dst = vec![0u8; 64];
            let plan = pack_into(&src, 8, &d, count, &mut dst).unwrap_err();
            let span = check_span(8, user_span(&d, count), src.len()).unwrap_err();
            assert_eq!(plan, span);
        }
        let neg = Datatype::vector(3, 1, -2, &Datatype::f64()).unwrap();
        assert_eq!(user_span(&neg, 1), Some((-32, 8)));
        assert!(check_span(32, user_span(&neg, 1), 40).is_ok());
        assert!(check_span(0, user_span(&neg, 1), 40).is_err());
        assert!(check_span(usize::MAX, None, 0).is_ok());
    }

    #[test]
    fn pack_vector_every_other() {
        let src = f64s(8);
        let d = Datatype::vector(4, 1, 2, &Datatype::f64()).unwrap().commit();
        let p = pack(&src, 0, &d, 1).unwrap();
        let expect: Vec<u8> = [0.0f64, 2.0, 4.0, 6.0]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        assert_eq!(p, expect);
    }

    #[test]
    fn roundtrip_vector() {
        let src = f64s(20);
        let d = Datatype::vector(10, 1, 2, &Datatype::f64()).unwrap().commit();
        let p = pack(&src, 0, &d, 1).unwrap();
        let mut dst = vec![0u8; src.len()];
        unpack_from(&p, &d, 1, &mut dst, 0).unwrap();
        // even elements restored, odd remain zero
        for i in 0..20 {
            let got = f64::from_le_bytes(dst[i * 8..i * 8 + 8].try_into().unwrap());
            if i % 2 == 0 {
                assert_eq!(got, i as f64);
            } else {
                assert_eq!(got, 0.0);
            }
        }
    }

    #[test]
    fn roundtrip_generic_indexed() {
        let src = f64s(32);
        let d = Datatype::indexed(&[(3, 1), (2, 9), (1, 30)], &Datatype::f64())
            .unwrap()
            .commit();
        let p = pack(&src, 0, &d, 1).unwrap();
        assert_eq!(p.len(), 6 * 8);
        let mut dst = vec![0u8; src.len()];
        unpack_from(&p, &d, 1, &mut dst, 0).unwrap();
        for i in [1usize, 2, 3, 9, 10, 30] {
            assert_eq!(&dst[i * 8..i * 8 + 8], &src[i * 8..i * 8 + 8]);
        }
        assert_eq!(&dst[0..8], &[0u8; 8]);
    }

    #[test]
    fn pack_multiple_instances() {
        let src = f64s(12);
        // extent 3 f64s: one element then skip 2
        let base = Datatype::vector(1, 1, 1, &Datatype::f64()).unwrap();
        let d = Datatype::resized(&base, 0, 24).unwrap().commit();
        let p = pack(&src, 0, &d, 4).unwrap();
        let expect: Vec<u8> = [0.0f64, 3.0, 6.0, 9.0]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        assert_eq!(p, expect);
    }

    #[test]
    fn origin_shifts_reads() {
        let src = f64s(8);
        let d = Datatype::vector(2, 1, 2, &Datatype::f64()).unwrap().commit();
        let p = pack(&src, 8, &d, 1).unwrap();
        let expect: Vec<u8> = [1.0f64, 3.0].iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(p, expect);
    }

    #[test]
    fn out_of_bounds_detected() {
        let src = f64s(4);
        let d = Datatype::vector(4, 1, 2, &Datatype::f64()).unwrap().commit();
        assert!(matches!(
            pack(&src, 0, &d, 1),
            Err(DatatypeError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn dst_too_small_detected() {
        let src = f64s(8);
        let d = Datatype::vector(4, 1, 2, &Datatype::f64()).unwrap().commit();
        let mut dst = vec![0u8; 8];
        assert!(matches!(
            pack_into(&src, 0, &d, 1, &mut dst),
            Err(DatatypeError::BufferTooSmall { .. })
        ));
    }

    #[test]
    fn position_cursor_accumulates() {
        let src = f64s(8);
        let one = Datatype::f64();
        let mut out = vec![0u8; 64];
        let mut pos = 0usize;
        for i in 0..4 {
            pack_with_position(&src, i * 16, &one, 1, &mut out, &mut pos).unwrap();
        }
        assert_eq!(pos, 32);
        let expect: Vec<u8> = [0.0f64, 2.0, 4.0, 6.0]
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        assert_eq!(&out[..32], &expect[..]);
    }

    #[test]
    fn unpack_position_roundtrip() {
        let src = f64s(6);
        let d = Datatype::vector(3, 1, 2, &Datatype::f64()).unwrap().commit();
        let mut out = vec![0u8; 24];
        let mut pos = 0usize;
        pack_with_position(&src, 0, &d, 1, &mut out, &mut pos).unwrap();
        assert_eq!(pos, 24);
        let mut dst = vec![0u8; 48];
        let mut rpos = 0usize;
        unpack_with_position(&out, &mut rpos, &d, 1, &mut dst, 0).unwrap();
        assert_eq!(rpos, 24);
        for i in [0usize, 2, 4] {
            assert_eq!(&dst[i * 8..i * 8 + 8], &src[i * 8..i * 8 + 8]);
        }
    }

    #[test]
    fn strided_form_of_vector() {
        let d = Datatype::vector(10, 2, 5, &Datatype::f64()).unwrap();
        let s = strided_form(&d).unwrap();
        assert_eq!(s, Strided { base: 0, nblocks: 10, block_len: 16, stride: 40 });
    }

    #[test]
    fn strided_form_of_2d_subarray() {
        let d = Datatype::subarray(&[8, 10], &[8, 4], &[0, 3], ArrayOrder::C, &Datatype::f64())
            .unwrap();
        let s = strided_form(&d).unwrap();
        assert_eq!(s, Strided { base: 24, nblocks: 8, block_len: 32, stride: 80 });
    }

    #[test]
    fn strided_form_rejects_irregular() {
        let d = Datatype::indexed(&[(1, 0), (2, 5)], &Datatype::f64()).unwrap();
        assert!(strided_form(&d).is_none());
    }

    #[test]
    fn subarray_pack_matches_generic() {
        // the compiled plan and a hand-rolled segment copy must agree
        let src = f64s(64);
        let d = Datatype::subarray(&[8, 8], &[5, 3], &[2, 4], ArrayOrder::C, &Datatype::f64())
            .unwrap()
            .commit();
        let fast = pack(&src, 0, &d, 1).unwrap();
        let mut slow = vec![0u8; fast.len()];
        let mut pos = 0;
        for b in SegIter::new(&d, 1) {
            let from = b.offset as usize;
            slow[pos..pos + b.len as usize].copy_from_slice(&src[from..from + b.len as usize]);
            pos += b.len as usize;
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn negative_stride_vector_roundtrip() {
        let src = f64s(8);
        let d = Datatype::vector(3, 1, -2, &Datatype::f64()).unwrap().commit();
        // origin must sit high enough that offsets stay in bounds
        let p = pack(&src, 40, &d, 1).unwrap();
        let expect: Vec<u8> = [5.0f64, 3.0, 1.0].iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(p, expect);
        let mut dst = vec![0u8; 64];
        unpack_from(&p, &d, 1, &mut dst, 40).unwrap();
        assert_eq!(&dst[40..48], &src[40..48]);
        assert_eq!(&dst[24..32], &src[24..32]);
        assert_eq!(&dst[8..16], &src[8..16]);
    }

    #[test]
    fn struct_pack_roundtrip() {
        // {i32 a; f64 b;} with C layout
        let d = Datatype::structure(&[(1, 0, Datatype::i32()), (1, 8, Datatype::f64())])
            .unwrap()
            .commit();
        assert_eq!(d.extent(), 16);
        let mut src = vec![0u8; 32];
        src[0..4].copy_from_slice(&7i32.to_le_bytes());
        src[8..16].copy_from_slice(&1.5f64.to_le_bytes());
        src[16..20].copy_from_slice(&8i32.to_le_bytes());
        src[24..32].copy_from_slice(&2.5f64.to_le_bytes());
        let p = pack(&src, 0, &d, 2).unwrap();
        assert_eq!(p.len(), 24);
        let mut dst = vec![0u8; 32];
        unpack_from(&p, &d, 2, &mut dst, 0).unwrap();
        assert_eq!(dst[0..4], src[0..4]);
        assert_eq!(dst[8..16], src[8..16]);
        assert_eq!(dst[16..20], src[16..20]);
        assert_eq!(dst[24..32], src[24..32]);
        // padding bytes untouched
        assert_eq!(&dst[4..8], &[0u8; 4]);
    }

    #[test]
    fn empty_type_packs_to_nothing() {
        let d = Datatype::vector(0, 1, 2, &Datatype::f64()).unwrap().commit();
        assert_eq!(pack(&[], 0, &d, 1).unwrap(), Vec::<u8>::new());
        assert_eq!(pack_size(&d, 100).unwrap(), 0);
    }
}
