//! Compiled pack plans: cached kernel programs for the pack engine.
//!
//! Walking a datatype tree (even through the coalescing [`SegIter`]) costs
//! branchy per-segment work on every pack call. A [`PackPlan`] pays that
//! cost once: the segment stream of **one instance** is canonicalized into
//! a short program of typed ops — a single memcpy for dense runs, a
//! strided descriptor for runs of equal-length blocks, plain copies for
//! the rest — plus instance-tiling metadata `(count, extent)` so a plan
//! for `(datatype, count)` stays O(segments-per-instance) in memory no
//! matter how large `count` is. Execution hands each op to the
//! runtime-dispatched kernel tier in [`crate::kernels`] (AVX2/SSE2/NEON/
//! scalar, selected once per process, `NONCTG_SIMD` to override), which
//! also supplies non-temporal streaming stores for packs larger than the
//! last-level cache and a `pshufb` record-transpose kernel for small
//! all-`Copy` struct plans.
//!
//! Plans for committed types live behind a bounded LRU cache keyed by
//! [`Datatype::type_id`] (see [`plan_for`]), so the sweep's
//! commit-once-pack-repeatedly pattern never re-walks the tree.
//!
//! Payloads at or above [`parallel_threshold`] bytes are partitioned at
//! segment boundaries into chunks claimed dynamically by the persistent
//! worker pool in `kernels::pool` (plus the calling thread), each writing
//! a disjoint destination slice. This is a pure **wall-clock**
//! optimization: the virtual-time cost model in `core::packbuf` /
//! `simnet::cost` charges for packed bytes exactly as before and is
//! unaffected by the thread count or kernel tier.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::error::{DatatypeError, Result};
use crate::kernels::{self, Exec, RecordField, RecordKernel, SimdTier};
use crate::node::Datatype;
use crate::pack::{check_span, strided_form, Strided};
use crate::segiter::SegIter;

/// Compilation bails out (falling back to the uncompiled engine) once a
/// single instance needs more than this many ops.
pub const MAX_PLAN_OPS: usize = 1 << 16;

/// Maximum number of `(datatype, count)` entries the process-wide plan
/// cache retains; beyond this the least-recently-used entry is evicted.
pub const PLAN_CACHE_CAP: usize = 128;

/// One kernel invocation of a compiled plan, covering a contiguous range
/// of the packed representation. Offsets are relative to the instance
/// origin (before the per-instance extent shift).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanOp {
    /// One dense run: `len` bytes at user offset `src`.
    Copy { src: i64, len: u64 },
    /// `nblocks` runs of `block_len` bytes, `stride` bytes apart,
    /// starting at user offset `base`.
    Strided { base: i64, nblocks: u64, block_len: u64, stride: i64 },
}

impl PlanOp {
    #[inline]
    fn packed_bytes(&self) -> u64 {
        match *self {
            PlanOp::Copy { len, .. } => len,
            PlanOp::Strided { nblocks, block_len, .. } => nblocks * block_len,
        }
    }
}

/// A compiled pack program for `count` instances of one datatype.
///
/// Immutable once built: execution takes `&self`, so a cached plan can be
/// shared (via `Arc`) by any number of concurrent pack calls.
#[derive(Debug)]
pub struct PackPlan {
    /// Kernel program for one instance, in typemap (packed) order.
    ops: Vec<PlanOp>,
    /// Packed-byte prefix sums per op: `dst_off[i]` is where op `i`
    /// starts within one instance; `dst_off.last() == inst_size`.
    dst_off: Vec<u64>,
    /// Packed bytes per instance.
    inst_size: u64,
    /// Number of instances. Dense tilings are folded to a single
    /// whole-message instance at compile time.
    count: u64,
    /// Byte shift between consecutive instances in the user buffer.
    extent: i64,
    /// Lowest user-buffer byte touched by instance 0.
    user_lo: i64,
    /// One past the highest user-buffer byte touched by instance 0.
    user_hi: i64,
    /// Whether blocks are pairwise disjoint and monotone in the user
    /// buffer, making partitioned parallel *unpack* safe. Parallel pack is
    /// always safe (workers write disjoint packed slices).
    par_safe: bool,
    /// Whole-instance transpose kernel, compiled when the plan is a
    /// small all-`Copy` record (interleaved struct); lifts the
    /// per-instance op-walk overhead that floors struct pack bandwidth.
    record: Option<RecordKernel>,
}

/// Accumulates blocks into a canonical op program.
struct Builder {
    ops: Vec<PlanOp>,
    /// Bytes emitted so far (must equal the instance size at finish).
    cursor: u64,
    /// End of the highest block seen, for monotonicity tracking.
    prev_end: i64,
    par_safe: bool,
    lo: i64,
    hi: i64,
    any: bool,
}

impl Builder {
    fn new() -> Self {
        Builder { ops: Vec::new(), cursor: 0, prev_end: 0, par_safe: true, lo: 0, hi: 0, any: false }
    }

    /// Record bounds / monotonicity for one block without emitting an op.
    fn note(&mut self, off: i64, len: u64) -> Option<()> {
        let end = off.checked_add(i64::try_from(len).ok()?)?;
        if self.any {
            if off < self.prev_end {
                self.par_safe = false;
            }
            self.lo = self.lo.min(off);
            self.hi = self.hi.max(end);
            self.prev_end = self.prev_end.max(end);
        } else {
            self.any = true;
            self.lo = off;
            self.hi = end;
            self.prev_end = end;
        }
        self.cursor = self.cursor.checked_add(len)?;
        Some(())
    }

    /// Append one coalesced block, merging regular patterns into strided
    /// ops: equal-length blocks at a constant pitch collapse to a single
    /// `Strided` op regardless of how many there are.
    fn push_block(&mut self, off: i64, len: u64) -> Option<()> {
        if len == 0 {
            return Some(());
        }
        self.note(off, len)?;
        match self.ops.last_mut() {
            Some(PlanOp::Strided { base, nblocks, block_len, stride })
                if *block_len == len && off == *base + *nblocks as i64 * *stride =>
            {
                *nblocks += 1;
                return Some(());
            }
            Some(PlanOp::Copy { src, len: plen }) if *plen == len && off != *src => {
                let op = PlanOp::Strided {
                    base: *src,
                    nblocks: 2,
                    block_len: len,
                    stride: off - *src,
                };
                *self.ops.last_mut().unwrap() = op;
                return Some(());
            }
            Some(PlanOp::Copy { src, len: plen }) if off == *src + *plen as i64 => {
                // Defensive: inputs are already coalesced, but merge anyway.
                *plen += len;
                return Some(());
            }
            _ => {}
        }
        if self.ops.len() >= MAX_PLAN_OPS {
            return None;
        }
        self.ops.push(PlanOp::Copy { src: off, len });
        Some(())
    }

    /// Append an already-recognized strided pattern as one op.
    fn push_strided(&mut self, s: Strided) -> Option<()> {
        if s.nblocks == 0 || s.block_len == 0 {
            return Some(());
        }
        if s.nblocks == 1 {
            return self.push_block(s.base, s.block_len);
        }
        let bl = i64::try_from(s.block_len).ok()?;
        let last = s.base.checked_add((s.nblocks as i64 - 1).checked_mul(s.stride)?)?;
        let (lo, hi) = if s.stride >= 0 {
            (s.base, last.checked_add(bl)?)
        } else {
            (last, s.base.checked_add(bl)?)
        };
        if self.any {
            if s.stride < bl || s.base < self.prev_end {
                self.par_safe = false;
            }
            self.lo = self.lo.min(lo);
            self.hi = self.hi.max(hi);
            self.prev_end = self.prev_end.max(hi);
        } else {
            self.any = true;
            self.lo = lo;
            self.hi = hi;
            self.prev_end = hi;
            if s.stride < bl {
                self.par_safe = false;
            }
        }
        self.cursor = self.cursor.checked_add(s.nblocks.checked_mul(s.block_len)?)?;
        if self.ops.len() >= MAX_PLAN_OPS {
            return None;
        }
        self.ops.push(PlanOp::Strided {
            base: s.base,
            nblocks: s.nblocks,
            block_len: s.block_len,
            stride: s.stride,
        });
        Some(())
    }

    fn finish(self, inst_size: u64, count: u64, extent: i64) -> Option<PackPlan> {
        if self.cursor != inst_size {
            return None; // defensive: program must cover the instance exactly
        }
        let mut dst_off = Vec::with_capacity(self.ops.len() + 1);
        let mut pos = 0u64;
        for op in &self.ops {
            dst_off.push(pos);
            pos = pos.checked_add(op.packed_bytes())?;
        }
        dst_off.push(pos);
        if pos != inst_size {
            return None;
        }
        // Instances tile by `extent`; they stay pairwise disjoint iff one
        // instance's true span fits within the extent.
        let span_fits = self.hi.checked_sub(self.lo)? <= extent;
        let par_safe = self.par_safe && (count <= 1 || span_fits);
        // Small all-`Copy` multi-instance plans (interleaved structs)
        // additionally compile to a whole-instance record kernel.
        let record = if count > 1
            && extent > 0
            && inst_size <= RecordKernel::MAX_INST as u64
            && self.ops.len() <= RecordKernel::MAX_FIELDS
        {
            self.ops
                .iter()
                .zip(dst_off.iter())
                .map(|(op, &d)| match *op {
                    PlanOp::Copy { src, len } => {
                        Some(RecordField { src, dst: d as u32, len: len as u32 })
                    }
                    PlanOp::Strided { .. } => None,
                })
                .collect::<Option<Vec<_>>>()
                .and_then(|fields| RecordKernel::new(fields, inst_size as usize, extent))
        } else {
            None
        };
        Some(PackPlan {
            ops: self.ops,
            dst_off,
            inst_size,
            count,
            extent,
            user_lo: self.lo,
            user_hi: self.hi,
            par_safe,
            record,
        })
    }
}

impl PackPlan {
    /// Compile a plan for `count` instances of `dtype`.
    ///
    /// Returns `None` when the type is not plannable — more than
    /// [`MAX_PLAN_OPS`] coalesced segments per instance, or arithmetic
    /// overflow in offsets — in which case callers fall back to the
    /// uncompiled engine.
    pub fn compile(dtype: &Datatype, count: usize) -> Option<PackPlan> {
        let total = dtype.size().checked_mul(count as u64)?;
        usize::try_from(total).ok()?;
        if total == 0 {
            return Some(PackPlan {
                ops: Vec::new(),
                dst_off: vec![0],
                inst_size: 0,
                count: 0,
                extent: 0,
                user_lo: 0,
                user_hi: 0,
                par_safe: true,
                record: None,
            });
        }
        let extent = dtype.ub().checked_sub(dtype.lb())?;
        if extent < 0 && count > 1 {
            return None;
        }
        // Dense tiling folds to a single whole-message memcpy instance.
        if dtype.is_contiguous_run(count as u64) {
            let b = dtype.dense_block()?;
            let mut bld = Builder::new();
            bld.push_block(b.offset, total)?;
            return bld.finish(total, 1, 0);
        }
        let mut bld = Builder::new();
        if let Some(s) = strided_form(dtype) {
            bld.push_strided(s)?;
        } else if let Some(flat) = dtype.flattened() {
            for b in flat.iter() {
                bld.push_block(b.offset, b.len)?;
            }
        } else {
            for b in SegIter::new(dtype, 1) {
                bld.push_block(b.offset, b.len)?;
            }
        }
        bld.finish(dtype.size(), count as u64, extent)
    }

    /// Total packed bytes this plan produces/consumes.
    #[inline]
    pub fn packed_len(&self) -> usize {
        (self.inst_size * self.count) as usize
    }

    /// Number of kernel ops per instance.
    #[inline]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Whether partitioned parallel *unpack* is permitted (blocks are
    /// monotone and pairwise disjoint in the user buffer).
    #[inline]
    pub fn par_safe(&self) -> bool {
        self.par_safe
    }

    /// The `(offset, len)` region list of the full message in typemap
    /// order, relative to the message origin — an iovec descriptor built
    /// without materializing a pack buffer (the safe analogue of mpicd's
    /// `MemRegions`). Adjacent regions are merged; returns `None` when the
    /// message needs more than `cap` regions, in which case callers should
    /// use a staged pack instead.
    pub fn regions(&self, cap: usize) -> Option<Vec<(i64, u64)>> {
        // Pre-merge block count: instance tiling never merges across the
        // boundary unless the whole run is dense, which compile() already
        // folded into a single Copy op.
        let per_inst: u64 = self
            .ops
            .iter()
            .map(|op| match *op {
                PlanOp::Copy { .. } => 1,
                PlanOp::Strided { nblocks, .. } => nblocks,
            })
            .sum();
        if per_inst.checked_mul(self.count)? > cap as u64 {
            return None;
        }
        let mut out: Vec<(i64, u64)> = Vec::with_capacity((per_inst * self.count) as usize);
        let push = |out: &mut Vec<(i64, u64)>, off: i64, len: u64| {
            if len == 0 {
                return;
            }
            match out.last_mut() {
                Some((po, pl)) if off == *po + *pl as i64 => *pl += len,
                _ => out.push((off, len)),
            }
        };
        for i in 0..self.count {
            let shift = i as i64 * self.extent;
            for op in &self.ops {
                match *op {
                    PlanOp::Copy { src, len } => push(&mut out, shift + src, len),
                    PlanOp::Strided { base, nblocks, block_len, stride } => {
                        for j in 0..nblocks as i64 {
                            push(&mut out, shift + base + j * stride, block_len);
                        }
                    }
                }
            }
        }
        Some(out)
    }

    /// Validate that every byte the plan touches lies inside the user
    /// buffer, in one aggregate check instead of per-segment checks.
    fn validate_user(&self, buf_len: usize, origin: usize) -> Result<()> {
        let span = (self.packed_len() > 0).then(|| {
            let shift = (self.count as i128 - 1) * self.extent as i128;
            (self.user_lo as i128, self.user_hi as i128 + shift)
        });
        check_span(origin, span, buf_len)
    }

    /// Pack into `dst`, parallelizing above [`parallel_threshold`].
    /// Returns packed bytes written.
    pub fn pack_into(&self, src: &[u8], origin: usize, dst: &mut [u8]) -> Result<usize> {
        let threads =
            if self.packed_len() >= parallel_threshold() { pack_threads() } else { 1 };
        self.pack_into_with(src, origin, dst, threads)
    }

    /// Pack into `dst` with an explicit worker count (1 = sequential),
    /// ignoring the size threshold. Exposed for benches and differential
    /// tests of the parallel path.
    pub fn pack_into_with(
        &self,
        src: &[u8],
        origin: usize,
        dst: &mut [u8],
        threads: usize,
    ) -> Result<usize> {
        self.pack_into_exec(src, origin, dst, threads, Exec::for_pack(self.packed_len()))
    }

    /// [`Self::pack_into_with`] under an explicit kernel tier and
    /// streaming-store choice, bypassing the process-wide `NONCTG_SIMD`
    /// selection — the hook the differential tests use to prove every
    /// tier packs byte-identically.
    pub fn pack_into_forced(
        &self,
        src: &[u8],
        origin: usize,
        dst: &mut [u8],
        threads: usize,
        tier: SimdTier,
        stream: bool,
    ) -> Result<usize> {
        let ex = Exec { tier, stream: stream && tier.has_streaming() };
        self.pack_into_exec(src, origin, dst, threads, ex)
    }

    fn pack_into_exec(
        &self,
        src: &[u8],
        origin: usize,
        dst: &mut [u8],
        threads: usize,
        ex: Exec,
    ) -> Result<usize> {
        let total = self.packed_len();
        if dst.len() < total {
            return Err(DatatypeError::BufferTooSmall { needed: total, available: dst.len() });
        }
        if total == 0 {
            return Ok(0);
        }
        self.validate_user(src.len(), origin)?;
        let dst = &mut dst[..total];
        let cuts = self.split_points(chunk_parts(threads));
        if cuts.len() <= 2 {
            // SAFETY: `validate_user` succeeded above, so every plan block
            // lies within `src`.
            unsafe { self.pack_range(src, origin as i64, dst, 0, total as u64, ex) };
            return Ok(total);
        }
        let base = SendPtr(dst.as_mut_ptr());
        kernels::pool::run(cuts.len() - 1, &|k| {
            let (lo, hi) = (cuts[k], cuts[k + 1]);
            // SAFETY: chunk windows are disjoint, so each pool worker
            // writes a disjoint slice of `dst`; reads of `src` may
            // overlap. Bounds per `validate_user` above.
            unsafe {
                let chunk =
                    std::slice::from_raw_parts_mut(base.get().add(lo as usize), (hi - lo) as usize);
                self.pack_range(src, origin as i64, chunk, lo, hi, ex);
            }
        });
        Ok(total)
    }

    /// Unpack from `packed`, parallelizing above [`parallel_threshold`]
    /// when the plan is [`Self::par_safe`]. Returns packed bytes consumed.
    pub fn unpack_from(&self, packed: &[u8], dst: &mut [u8], origin: usize) -> Result<usize> {
        let threads =
            if self.packed_len() >= parallel_threshold() { pack_threads() } else { 1 };
        self.unpack_from_with(packed, dst, origin, threads)
    }

    /// Unpack with an explicit worker count, ignoring the size threshold.
    /// Non-`par_safe` plans are forced sequential regardless of `threads`.
    pub fn unpack_from_with(
        &self,
        packed: &[u8],
        dst: &mut [u8],
        origin: usize,
        threads: usize,
    ) -> Result<usize> {
        self.unpack_from_exec(packed, dst, origin, threads, Exec::no_stream(kernels::simd_tier()))
    }

    /// [`Self::unpack_from_with`] under an explicit kernel tier (scatter
    /// never streams); the differential-test hook for the unpack side.
    pub fn unpack_from_forced(
        &self,
        packed: &[u8],
        dst: &mut [u8],
        origin: usize,
        threads: usize,
        tier: SimdTier,
    ) -> Result<usize> {
        self.unpack_from_exec(packed, dst, origin, threads, Exec::no_stream(tier))
    }

    fn unpack_from_exec(
        &self,
        packed: &[u8],
        dst: &mut [u8],
        origin: usize,
        threads: usize,
        ex: Exec,
    ) -> Result<usize> {
        let total = self.packed_len();
        if packed.len() < total {
            return Err(DatatypeError::BufferTooSmall { needed: total, available: packed.len() });
        }
        if total == 0 {
            return Ok(0);
        }
        self.validate_user(dst.len(), origin)?;
        let packed = &packed[..total];
        let threads = if self.par_safe { threads } else { 1 };
        let cuts = self.split_points(chunk_parts(threads));
        if cuts.len() <= 2 {
            // SAFETY: exclusive access via `&mut dst`; all offsets were
            // validated against `dst.len()` above.
            unsafe {
                self.unpack_range(packed, dst.as_mut_ptr(), origin as i64, 0, total as u64, ex)
            };
            return Ok(total);
        }
        let base = SendPtr(dst.as_mut_ptr());
        kernels::pool::run(cuts.len() - 1, &|k| {
            let (lo, hi) = (cuts[k], cuts[k + 1]);
            // SAFETY: `par_safe` (checked above) guarantees distinct
            // packed ranges scatter to pairwise-disjoint user bytes,
            // so concurrent writes never alias; bounds validated.
            unsafe {
                self.unpack_range(
                    &packed[lo as usize..hi as usize],
                    base.get(),
                    origin as i64,
                    lo,
                    hi,
                    ex,
                )
            }
        });
        Ok(total)
    }

    /// Clamp a packed-byte position to the message and round it down to
    /// the nearest block boundary — the only positions the sub-range API
    /// ([`Self::pack_range_into`] / [`Self::unpack_range_from`]) accepts.
    /// The chunk-fault forecast cuts its notional chunks with this.
    pub fn align_chunk(&self, pos: u64) -> u64 {
        let total = self.packed_len() as u64;
        if pos >= total {
            return total;
        }
        self.align_cut(pos)
    }

    /// Reject sub-range bounds that are out of order, past the end, or not
    /// block-aligned (a misaligned cut would gather/scatter wrong bytes:
    /// the range kernels assume whole blocks).
    fn check_range(&self, lo: u64, hi: u64) -> Result<()> {
        let total = self.packed_len() as u64;
        for &pos in &[lo, hi] {
            if pos > total || self.align_chunk(pos) != pos {
                return Err(DatatypeError::InvalidPosition {
                    position: pos as usize,
                    buffer_len: total as usize,
                });
            }
        }
        if lo > hi {
            return Err(DatatypeError::InvalidPosition {
                position: lo as usize,
                buffer_len: hi as usize,
            });
        }
        Ok(())
    }

    /// Gather packed bytes `[lo, hi)` of the message into `dst` — one
    /// block of a blocked copy. Bounds must be [`Self::align_chunk`]
    /// positions. Parallelizes above [`parallel_threshold`]; returns the
    /// bytes written (`hi - lo`).
    pub fn pack_range_into(
        &self,
        src: &[u8],
        origin: usize,
        dst: &mut [u8],
        lo: u64,
        hi: u64,
    ) -> Result<usize> {
        let threads =
            if (hi.saturating_sub(lo)) as usize >= parallel_threshold() { pack_threads() } else { 1 };
        self.pack_range_into_with(src, origin, dst, lo, hi, threads)
    }

    /// [`Self::pack_range_into`] with an explicit worker count, ignoring
    /// the size threshold.
    pub fn pack_range_into_with(
        &self,
        src: &[u8],
        origin: usize,
        dst: &mut [u8],
        lo: u64,
        hi: u64,
        threads: usize,
    ) -> Result<usize> {
        self.check_range(lo, hi)?;
        let n = (hi - lo) as usize;
        if dst.len() < n {
            return Err(DatatypeError::BufferTooSmall { needed: n, available: dst.len() });
        }
        if n == 0 {
            return Ok(0);
        }
        self.validate_user(src.len(), origin)?;
        let dst = &mut dst[..n];
        let ex = Exec::for_pack(n);
        let cuts = self.split_range(lo, hi, chunk_parts(threads));
        if cuts.len() <= 2 {
            // SAFETY: `validate_user` succeeded above, so every plan block
            // lies within `src`; bounds are block-aligned per check_range.
            unsafe { self.pack_range(src, origin as i64, dst, lo, hi, ex) };
            return Ok(n);
        }
        let base = SendPtr(dst.as_mut_ptr());
        kernels::pool::run(cuts.len() - 1, &|k| {
            let (l, h) = (cuts[k], cuts[k + 1]);
            // SAFETY: as the sequential branch; each pool worker writes a
            // disjoint slice of `dst`.
            unsafe {
                let chunk = std::slice::from_raw_parts_mut(
                    base.get().add((l - lo) as usize),
                    (h - l) as usize,
                );
                self.pack_range(src, origin as i64, chunk, l, h, ex);
            }
        });
        Ok(n)
    }

    /// Scatter packed bytes `[lo, hi)` (supplied in `packed`) into the
    /// user buffer in place — one block of a blocked copy. Bounds must
    /// be [`Self::align_chunk`] positions. Sequential (exclusive `&mut`
    /// access makes it safe for any plan, `par_safe` or not); returns the
    /// bytes consumed.
    pub fn unpack_range_from(
        &self,
        packed: &[u8],
        dst: &mut [u8],
        origin: usize,
        lo: u64,
        hi: u64,
    ) -> Result<usize> {
        self.check_range(lo, hi)?;
        let n = (hi - lo) as usize;
        if packed.len() < n {
            return Err(DatatypeError::BufferTooSmall { needed: n, available: packed.len() });
        }
        if n == 0 {
            return Ok(0);
        }
        self.validate_user(dst.len(), origin)?;
        let ex = Exec::no_stream(kernels::simd_tier());
        // SAFETY: exclusive access via `&mut dst`; all offsets validated
        // against `dst.len()` above; bounds block-aligned per check_range.
        unsafe { self.unpack_range(&packed[..n], dst.as_mut_ptr(), origin as i64, lo, hi, ex) };
        Ok(n)
    }

    /// Packed-byte positions to cut the message at for `parts` chunks:
    /// evenly spaced targets rounded down to segment boundaries.
    fn split_points(&self, parts: usize) -> Vec<u64> {
        self.split_range(0, self.packed_len() as u64, parts)
    }

    /// As [`Self::split_points`], but over the sub-range `[lo, hi)` (whose
    /// bounds must themselves be aligned).
    fn split_range(&self, lo: u64, hi: u64, parts: usize) -> Vec<u64> {
        let parts = parts.clamp(1, 256) as u64;
        let mut cuts = vec![lo];
        for k in 1..parts {
            let target = lo + (((hi - lo) as u128 * k as u128) / parts as u128) as u64;
            let c = self.align_cut(target);
            if c > *cuts.last().unwrap() && c < hi {
                cuts.push(c);
            }
        }
        cuts.push(hi);
        cuts
    }

    /// Round a packed position down to the nearest block boundary, so a
    /// worker's range covers whole blocks only.
    fn align_cut(&self, t: u64) -> u64 {
        let inst = t / self.inst_size;
        let rel = t % self.inst_size;
        let i = match self.dst_off.binary_search(&rel) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        if i >= self.ops.len() {
            return t;
        }
        let aligned = match self.ops[i] {
            PlanOp::Copy { .. } => rel,
            PlanOp::Strided { block_len, .. } => {
                let op_lo = self.dst_off[i];
                op_lo + (rel - op_lo) / block_len * block_len
            }
        };
        inst * self.inst_size + aligned
    }

    /// Gather packed bytes `[lo, hi)` into `dst` (of length `hi - lo`).
    ///
    /// # Safety
    /// Caller must have run [`Self::validate_user`] against this `src`
    /// length and `origin`: the kernels elide per-block bounds checks.
    unsafe fn pack_range(&self, src: &[u8], origin: i64, dst: &mut [u8], lo: u64, hi: u64, ex: Exec) {
        debug_assert_eq!(dst.len() as u64, hi - lo);
        let mut out = dst;
        let mut pos = lo;
        // Partial head instance (a thread cut landed mid-instance).
        if !pos.is_multiple_of(self.inst_size) {
            let inst = pos / self.inst_size;
            let inst_lo = inst * self.inst_size;
            let seg_hi = hi.min(inst_lo + self.inst_size);
            let base = origin + inst as i64 * self.extent;
            let (chunk, rest) = out.split_at_mut((seg_hi - pos) as usize);
            // SAFETY: forwarded caller contract.
            unsafe {
                self.pack_instance_range(src, base, chunk, pos - inst_lo, seg_hi - inst_lo, ex)
            };
            out = rest;
            pos = seg_hi;
        }
        // Whole instances.
        let whole = (hi - pos) / self.inst_size;
        if whole > 0 {
            if let Some(rk) = record_for(self, ex) {
                // Record plans transpose every whole instance in one
                // kernel call: no per-instance op walk or slicing.
                let nbytes = (whole * self.inst_size) as usize;
                let (chunk, rest) = out.split_at_mut(nbytes);
                let base = origin + (pos / self.inst_size) as i64 * self.extent;
                // SAFETY: forwarded caller contract.
                unsafe { rk.gather(ex, src, base, whole as usize, chunk) };
                out = rest;
                pos += whole * self.inst_size;
            } else {
                // Straight op walk, no searches, no clamping.
                while pos + self.inst_size <= hi {
                    let base = origin + (pos / self.inst_size) as i64 * self.extent;
                    let (chunk, rest) = out.split_at_mut(self.inst_size as usize);
                    // SAFETY: forwarded caller contract.
                    unsafe { self.pack_instance_full(src, base, chunk, ex) };
                    out = rest;
                    pos += self.inst_size;
                }
            }
        }
        // Partial tail instance.
        if pos < hi {
            let inst = pos / self.inst_size;
            let base = origin + inst as i64 * self.extent;
            // SAFETY: forwarded caller contract.
            unsafe { self.pack_instance_range(src, base, out, 0, hi - inst * self.inst_size, ex) };
        }
    }

    /// Gather one whole instance whose origin is user-buffer byte `base`.
    ///
    /// # Safety
    /// As [`Self::pack_range`].
    unsafe fn pack_instance_full(&self, src: &[u8], base: i64, out: &mut [u8], ex: Exec) {
        let mut out = out;
        for (i, op) in self.ops.iter().enumerate() {
            let n = (self.dst_off[i + 1] - self.dst_off[i]) as usize;
            let (chunk, rest) = out.split_at_mut(n);
            // SAFETY (both arms): every block was validated in-bounds.
            match *op {
                PlanOp::Copy { src: s, .. } => unsafe {
                    kernels::copy_run(src.as_ptr().add((base + s) as usize), chunk.as_mut_ptr(), n);
                },
                PlanOp::Strided { base: b, block_len, stride, .. } => unsafe {
                    kernels::gather_blocks(ex, src, base + b, stride, block_len as usize, chunk);
                },
            }
            out = rest;
        }
    }

    /// Gather instance-relative packed bytes `[ilo, ihi)`; `base` is the
    /// user-buffer byte address of this instance's origin.
    ///
    /// # Safety
    /// As [`Self::pack_range`].
    unsafe fn pack_instance_range(
        &self,
        src: &[u8],
        base: i64,
        out: &mut [u8],
        ilo: u64,
        ihi: u64,
        ex: Exec,
    ) {
        let mut i = match self.dst_off.binary_search(&ilo) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let mut out = out;
        let mut pos = ilo;
        while pos < ihi {
            let op_lo = self.dst_off[i];
            let take_hi = ihi.min(self.dst_off[i + 1]);
            let n = (take_hi - pos) as usize;
            let (chunk, rest) = out.split_at_mut(n);
            // SAFETY (both arms): every block was validated in-bounds.
            match self.ops[i] {
                PlanOp::Copy { src: s, .. } => {
                    let from = (base + s) as usize + (pos - op_lo) as usize;
                    unsafe { kernels::copy_run(src.as_ptr().add(from), chunk.as_mut_ptr(), n) };
                }
                PlanOp::Strided { base: b, block_len, stride, .. } => {
                    // Cuts are block-aligned, so this range is whole blocks.
                    let j0 = (pos - op_lo) / block_len;
                    let first = base + b + j0 as i64 * stride;
                    unsafe {
                        kernels::gather_blocks(ex, src, first, stride, block_len as usize, chunk)
                    };
                }
            }
            out = rest;
            pos = take_hi;
            i += 1;
        }
    }

    /// Scatter `packed` (packed bytes `[lo, hi)`) into the user buffer at
    /// `dst`.
    ///
    /// # Safety
    /// Caller guarantees every scattered byte lies within the allocation
    /// at `dst` (validated against the buffer length) and that no other
    /// thread concurrently writes any byte this range touches.
    unsafe fn unpack_range(
        &self,
        packed: &[u8],
        dst: *mut u8,
        origin: i64,
        lo: u64,
        hi: u64,
        ex: Exec,
    ) {
        debug_assert_eq!(packed.len() as u64, hi - lo);
        let mut input = packed;
        let mut pos = lo;
        // Partial head instance (a thread cut landed mid-instance).
        if !pos.is_multiple_of(self.inst_size) {
            let inst = pos / self.inst_size;
            let inst_lo = inst * self.inst_size;
            let seg_hi = hi.min(inst_lo + self.inst_size);
            let base = origin + inst as i64 * self.extent;
            let (chunk, rest) = input.split_at((seg_hi - pos) as usize);
            // SAFETY: forwarded caller contract.
            unsafe {
                self.unpack_instance_range(chunk, dst, base, pos - inst_lo, seg_hi - inst_lo, ex)
            };
            input = rest;
            pos = seg_hi;
        }
        // Whole instances.
        let whole = (hi - pos) / self.inst_size;
        if whole > 0 {
            if let Some(rk) = record_for(self, ex) {
                let nbytes = (whole * self.inst_size) as usize;
                let (chunk, rest) = input.split_at(nbytes);
                let base = origin + (pos / self.inst_size) as i64 * self.extent;
                // SAFETY: forwarded caller contract.
                unsafe { rk.scatter(chunk, dst, base, whole as usize) };
                input = rest;
                pos += whole * self.inst_size;
            } else {
                // Straight op walk, no searches, no clamping.
                while pos + self.inst_size <= hi {
                    let base = origin + (pos / self.inst_size) as i64 * self.extent;
                    let (chunk, rest) = input.split_at(self.inst_size as usize);
                    // SAFETY: forwarded caller contract.
                    unsafe { self.unpack_instance_full(chunk, dst, base, ex) };
                    input = rest;
                    pos += self.inst_size;
                }
            }
        }
        // Partial tail instance.
        if pos < hi {
            let inst = pos / self.inst_size;
            let base = origin + inst as i64 * self.extent;
            // SAFETY: forwarded caller contract.
            unsafe { self.unpack_instance_range(input, dst, base, 0, hi - inst * self.inst_size, ex) };
        }
    }

    /// Scatter one whole instance's packed bytes.
    ///
    /// # Safety
    /// As [`Self::unpack_range`].
    unsafe fn unpack_instance_full(&self, input: &[u8], dst: *mut u8, base: i64, ex: Exec) {
        let mut input = input;
        for (i, op) in self.ops.iter().enumerate() {
            let n = (self.dst_off[i + 1] - self.dst_off[i]) as usize;
            let (chunk, rest) = input.split_at(n);
            // SAFETY (both arms): in-bounds per caller contract; src and
            // dst allocations are distinct.
            match *op {
                PlanOp::Copy { src: s, .. } => unsafe {
                    kernels::copy_run(chunk.as_ptr(), dst.add((base + s) as usize), n);
                },
                PlanOp::Strided { base: b, block_len, stride, .. } => unsafe {
                    kernels::scatter_blocks(ex, chunk, dst, base + b, stride, block_len as usize);
                },
            }
            input = rest;
        }
    }

    /// Scatter one instance's packed bytes `[ilo, ihi)`.
    ///
    /// # Safety
    /// As [`Self::unpack_range`].
    unsafe fn unpack_instance_range(
        &self,
        input: &[u8],
        dst: *mut u8,
        base: i64,
        ilo: u64,
        ihi: u64,
        ex: Exec,
    ) {
        let mut i = match self.dst_off.binary_search(&ilo) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let mut input = input;
        let mut pos = ilo;
        while pos < ihi {
            let op_lo = self.dst_off[i];
            let take_hi = ihi.min(self.dst_off[i + 1]);
            let n = (take_hi - pos) as usize;
            let (chunk, rest) = input.split_at(n);
            match self.ops[i] {
                PlanOp::Copy { src: s, .. } => {
                    let to = (base + s) as usize + (pos - op_lo) as usize;
                    // SAFETY: in-bounds per caller contract; src and dst
                    // allocations are distinct.
                    unsafe { kernels::copy_run(chunk.as_ptr(), dst.add(to), n) };
                }
                PlanOp::Strided { base: b, block_len, stride, .. } => {
                    let j0 = (pos - op_lo) / block_len;
                    let first = base + b + j0 as i64 * stride;
                    // SAFETY: as above; blocks within one op are disjoint
                    // (uniform stride) and cuts are block-aligned.
                    unsafe {
                        kernels::scatter_blocks(ex, chunk, dst, first, stride, block_len as usize)
                    };
                }
            }
            input = rest;
            pos = take_hi;
            i += 1;
        }
    }
}

/// A raw pointer that may cross pool/worker-thread boundaries. Safety of
/// the writes it enables is argued at each submission site.
#[derive(Clone, Copy)]
struct SendPtr(*mut u8);
// SAFETY: sharing the address is safe; dereferences justify themselves.
unsafe impl Send for SendPtr {}
// SAFETY: as above — pool chunk closures capture it by shared reference.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Send` wrapper, not the raw pointer field.
    fn get(self) -> *mut u8 {
        self.0
    }
}

/// The plan's record kernel, when the execution context lets it run
/// (`NONCTG_SIMD=off` disables the whole kernel layer, including this).
#[inline]
fn record_for(plan: &PackPlan, ex: Exec) -> Option<&RecordKernel> {
    if ex.tier == SimdTier::Off {
        None
    } else {
        plan.record.as_ref()
    }
}

/// Chunks to split a parallel pack into: oversplit ~4x relative to the
/// worker count so the pool's dynamic claiming load-balances, capped so
/// per-chunk overhead stays negligible. `threads <= 1` stays sequential.
fn chunk_parts(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        threads.saturating_mul(4).min(256)
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Worker threads used for packs above [`parallel_threshold`].
///
/// Defaults to `min(available_parallelism, 8)`; override with
/// `NONCTG_PACK_THREADS`. Resolved once per process.
pub fn pack_threads() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| {
        env_usize("NONCTG_PACK_THREADS")
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
            })
            .clamp(1, 64)
    })
}

/// Packed-byte size at which pack/unpack goes parallel (default 8 MiB;
/// override with `NONCTG_PACK_PAR_THRESHOLD`). Resolved once per process.
pub fn parallel_threshold() -> usize {
    static V: OnceLock<usize> = OnceLock::new();
    *V.get_or_init(|| env_usize("NONCTG_PACK_PAR_THRESHOLD").unwrap_or(8 << 20).max(1))
}

struct CacheEntry {
    /// `None` caches "not plannable" so uncompilable types skip the
    /// compile attempt on every call.
    plan: Option<Arc<PackPlan>>,
    last_used: u64,
}

#[derive(Default)]
struct PlanCache {
    map: HashMap<(u64, usize), CacheEntry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    compile_nanos: u64,
}

fn cache() -> &'static Mutex<PlanCache> {
    static C: OnceLock<Mutex<PlanCache>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(PlanCache::default()))
}

/// Fetch (compiling on miss) the cached plan for `count` instances of a
/// **committed** datatype. Returns `None` for uncommitted types, zero
/// counts, or unplannable types.
///
/// Entries are keyed on the *normalized* type id (see
/// [`Datatype::normalized_id`]), so canonically-equal types — however they
/// were constructed — share one compiled plan, and compilation itself runs
/// against the canonical representative (fewer, more regular ops).
///
/// The cache holds at most [`PLAN_CACHE_CAP`] entries, evicting the least
/// recently used. Compilation happens outside the cache lock, so two
/// threads missing simultaneously may both compile — the duplicate is
/// discarded, never double-inserted.
pub fn plan_for(dtype: &Datatype, count: usize) -> Option<Arc<PackPlan>> {
    if count == 0 || !dtype.is_committed() {
        return None;
    }
    let key = (dtype.normalized_id(), count);
    {
        let mut c = cache().lock().expect("plan cache poisoned");
        c.tick += 1;
        let t = c.tick;
        if let Some(e) = c.map.get_mut(&key) {
            e.last_used = t;
            let p = e.plan.clone();
            c.hits += 1;
            return p;
        }
        c.misses += 1;
    }
    let t0 = std::time::Instant::now();
    let plan = PackPlan::compile(&dtype.normalized(), count).map(Arc::new);
    let spent = t0.elapsed().as_nanos() as u64;
    let out = plan.clone();
    let mut c = cache().lock().expect("plan cache poisoned");
    c.compile_nanos += spent;
    c.tick += 1;
    let t = c.tick;
    c.map.entry(key).or_insert(CacheEntry { plan, last_used: t });
    while c.map.len() > PLAN_CACHE_CAP {
        let victim = c.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k);
        match victim {
            Some(k) => {
                c.map.remove(&k);
                c.evictions += 1;
            }
            None => break,
        }
    }
    out
}

/// Counters of the process-wide plan cache, for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Entries currently cached (bounded by [`PLAN_CACHE_CAP`]).
    pub size: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Wall-clock nanoseconds spent inside `PackPlan::compile` (including
    /// duplicate compiles that lost the insert race).
    pub compile_nanos: u64,
    /// Normalization lookups served from the per-node memo.
    pub norm_hits: u64,
    /// Normalization lookups that ran the canonicalization rewrite.
    pub norm_misses: u64,
}

impl PlanCacheStats {
    /// Counter deltas since an earlier snapshot (`size` stays absolute —
    /// it is a level, not a counter). Saturating, so a reset between the
    /// snapshots yields zeros rather than wrapping.
    pub fn delta_since(self, base: PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            size: self.size,
            hits: self.hits.saturating_sub(base.hits),
            misses: self.misses.saturating_sub(base.misses),
            evictions: self.evictions.saturating_sub(base.evictions),
            compile_nanos: self.compile_nanos.saturating_sub(base.compile_nanos),
            norm_hits: self.norm_hits.saturating_sub(base.norm_hits),
            norm_misses: self.norm_misses.saturating_sub(base.norm_misses),
        }
    }
}

/// Snapshot the plan-cache counters (plus the normalization memo's
/// hit/miss counters, which feed the same observability surface).
pub fn cache_stats() -> PlanCacheStats {
    let (norm_hits, norm_misses) = crate::normalize::norm_counters();
    let c = cache().lock().expect("plan cache poisoned");
    PlanCacheStats {
        size: c.map.len(),
        hits: c.hits,
        misses: c.misses,
        evictions: c.evictions,
        compile_nanos: c.compile_nanos,
        norm_hits,
        norm_misses,
    }
}

/// Zero the hit/miss/eviction/compile-time counters (and the
/// normalization counters) without touching the cached plans themselves
/// (warmed plans stay warm). For harnesses that want per-phase
/// attribution of cache activity.
pub fn reset_cache_stats() {
    crate::normalize::reset_norm_counters();
    let mut c = cache().lock().expect("plan cache poisoned");
    c.hits = 0;
    c.misses = 0;
    c.evictions = 0;
    c.compile_nanos = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{pack_into_uncompiled, unpack_from_uncompiled};

    fn f64s(n: usize) -> Vec<u8> {
        (0..n).flat_map(|i| (i as f64).to_le_bytes()).collect()
    }

    #[test]
    fn vector_compiles_to_one_strided_op() {
        let d = Datatype::vector(64, 1, 2, &Datatype::f64()).unwrap();
        let p = PackPlan::compile(&d, 1).unwrap();
        assert_eq!(p.op_count(), 1);
        assert_eq!(p.packed_len(), 64 * 8);
        assert!(p.par_safe());
    }

    #[test]
    fn dense_run_folds_to_single_memcpy() {
        let d = Datatype::contiguous(16, &Datatype::f64()).unwrap();
        let p = PackPlan::compile(&d, 100).unwrap();
        assert_eq!(p.op_count(), 1);
        assert_eq!(p.packed_len(), 16 * 8 * 100);
    }

    #[test]
    fn negative_stride_is_not_par_safe() {
        let d = Datatype::vector(3, 1, -2, &Datatype::f64()).unwrap();
        let p = PackPlan::compile(&d, 1).unwrap();
        assert!(!p.par_safe());
        let src = f64s(8);
        let mut fast = vec![0u8; 24];
        p.pack_into(&src, 40, &mut fast).unwrap();
        let mut slow = vec![0u8; 24];
        pack_into_uncompiled(&src, 40, &d, 1, &mut slow).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn indexed_blocks_merge_into_strided_op() {
        // equal-length blocks at constant pitch -> one strided op
        let d = Datatype::indexed(&[(2, 0), (2, 5), (2, 10), (2, 15)], &Datatype::f64()).unwrap();
        let p = PackPlan::compile(&d, 1).unwrap();
        assert_eq!(p.op_count(), 1);
        assert!(p.par_safe());
    }

    #[test]
    fn plan_matches_uncompiled_for_struct_instances() {
        let d = Datatype::structure(&[(1, 0, Datatype::i32()), (1, 8, Datatype::f64())]).unwrap();
        let p = PackPlan::compile(&d, 4).unwrap();
        let src: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let mut fast = vec![0u8; p.packed_len()];
        p.pack_into(&src, 0, &mut fast).unwrap();
        let mut slow = vec![0u8; p.packed_len()];
        pack_into_uncompiled(&src, 0, &d, 4, &mut slow).unwrap();
        assert_eq!(fast, slow);

        let mut ufast = vec![0u8; 64];
        p.unpack_from(&fast, &mut ufast, 0).unwrap();
        let mut uslow = vec![0u8; 64];
        unpack_from_uncompiled(&fast, &d, 4, &mut uslow, 0).unwrap();
        assert_eq!(ufast, uslow);
    }

    #[test]
    fn forced_parallel_matches_sequential() {
        let d = Datatype::vector(1000, 3, 7, &Datatype::f64()).unwrap();
        let p = PackPlan::compile(&d, 2).unwrap();
        assert!(p.par_safe());
        let n = p.packed_len();
        let src = f64s(7 * 1000 * 2 + 16);
        let mut seq = vec![0u8; n];
        p.pack_into_with(&src, 0, &mut seq, 1).unwrap();
        let mut par = vec![0u8; n];
        p.pack_into_with(&src, 0, &mut par, 5).unwrap();
        assert_eq!(seq, par);

        let mut useq = vec![0u8; src.len()];
        p.unpack_from_with(&seq, &mut useq, 0, 1).unwrap();
        let mut upar = vec![0u8; src.len()];
        p.unpack_from_with(&seq, &mut upar, 0, 5).unwrap();
        assert_eq!(useq, upar);
    }

    #[test]
    fn range_pack_unpack_matches_whole_message() {
        let d = Datatype::vector(500, 3, 7, &Datatype::f64()).unwrap();
        let p = PackPlan::compile(&d, 2).unwrap();
        let total = p.packed_len() as u64;
        let src = f64s(7 * 500 * 2 + 16);
        let mut whole = vec![0u8; total as usize];
        p.pack_into_with(&src, 0, &mut whole, 1).unwrap();

        // Walk the message in ~1000-byte chunks cut at aligned positions,
        // packing each sub-range (threaded) and unpacking it in place.
        let mut chunked = Vec::new();
        let mut recon = vec![0u8; src.len()];
        let mut pos = 0u64;
        while pos < total {
            let hi = p.align_chunk(pos + 1000);
            let mut buf = vec![0u8; (hi - pos) as usize];
            p.pack_range_into_with(&src, 0, &mut buf, pos, hi, 3).unwrap();
            p.unpack_range_from(&buf, &mut recon, 0, pos, hi).unwrap();
            chunked.extend_from_slice(&buf);
            pos = hi;
        }
        assert_eq!(chunked, whole);
        let mut expect = vec![0u8; src.len()];
        p.unpack_from(&whole, &mut expect, 0).unwrap();
        assert_eq!(recon, expect);

        // Misaligned or out-of-range bounds are rejected, not misread.
        let mut buf = vec![0u8; 64];
        assert!(matches!(
            p.pack_range_into(&src, 0, &mut buf, 1, 25),
            Err(DatatypeError::InvalidPosition { .. })
        ));
        assert!(matches!(
            p.unpack_range_from(&buf, &mut recon, 0, 24, 25),
            Err(DatatypeError::InvalidPosition { .. })
        ));
        assert!(matches!(
            p.pack_range_into(&src, 0, &mut buf, 0, total + 24),
            Err(DatatypeError::InvalidPosition { .. })
        ));
    }

    #[test]
    fn split_points_are_block_aligned_and_cover() {
        let d = Datatype::vector(97, 1, 3, &Datatype::f64()).unwrap();
        let p = PackPlan::compile(&d, 3).unwrap();
        let cuts = p.split_points(4);
        assert_eq!(cuts[0], 0);
        assert_eq!(*cuts.last().unwrap(), p.packed_len() as u64);
        for w in cuts.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &c in &cuts[1..cuts.len() - 1] {
            assert_eq!(c % 8, 0, "cut {c} not at a block boundary");
        }
    }

    #[test]
    fn out_of_bounds_and_small_dst_detected() {
        let d = Datatype::vector(8, 1, 2, &Datatype::f64()).unwrap();
        let p = PackPlan::compile(&d, 1).unwrap();
        let src = f64s(4); // too small
        let mut dst = vec![0u8; p.packed_len()];
        assert!(matches!(
            p.pack_into(&src, 0, &mut dst),
            Err(DatatypeError::OutOfBounds { .. })
        ));
        let src = f64s(16);
        let mut tiny = vec![0u8; 8];
        assert!(matches!(
            p.pack_into(&src, 0, &mut tiny),
            Err(DatatypeError::BufferTooSmall { .. })
        ));
    }

    /// Serializes tests that assert on the process-global cache counters
    /// (the reset in `stats_delta_and_compile_time` would race them).
    fn stats_lock() -> &'static std::sync::Mutex<()> {
        static L: OnceLock<std::sync::Mutex<()>> = OnceLock::new();
        L.get_or_init(|| std::sync::Mutex::new(()))
    }

    #[test]
    fn cache_is_bounded_and_hits_on_reuse() {
        let _g = stats_lock().lock().unwrap();
        let d = Datatype::vector(4, 1, 2, &Datatype::f64()).unwrap().commit();
        let before = cache_stats();
        let a = plan_for(&d, 1).expect("plannable");
        let b = plan_for(&d, 1).expect("plannable");
        assert!(Arc::ptr_eq(&a, &b));
        let after = cache_stats();
        assert!(after.hits > before.hits);
        // flood with distinct types; the cache must stay bounded
        for i in 0..(PLAN_CACHE_CAP + 40) {
            let t = Datatype::vector(2 + i % 7, 1, 2, &Datatype::f64())
                .unwrap()
                .commit();
            let _ = plan_for(&t, 1);
        }
        assert!(cache_stats().size <= PLAN_CACHE_CAP);
    }

    #[test]
    fn uncommitted_types_bypass_cache() {
        let d = Datatype::vector(4, 1, 2, &Datatype::f64()).unwrap();
        assert!(plan_for(&d, 1).is_none());
    }

    #[test]
    fn stats_delta_and_compile_time() {
        let _g = stats_lock().lock().unwrap();
        let base = cache_stats();
        let d = Datatype::vector(6, 3, 5, &Datatype::f64()).unwrap().commit();
        let _ = plan_for(&d, 2).expect("plannable");
        let _ = plan_for(&d, 2).expect("plannable");
        let delta = cache_stats().delta_since(base);
        assert!(delta.misses >= 1);
        assert!(delta.hits >= 1);
        // the miss compiled, so compile time moved (monotonic clock may
        // round to zero on coarse timers; accept either but require the
        // counter not to wrap)
        assert!(cache_stats().compile_nanos >= base.compile_nanos);
        // a reset between snapshots saturates instead of wrapping
        let high = cache_stats();
        reset_cache_stats();
        let after = cache_stats().delta_since(high);
        assert_eq!(after.hits, 0);
        assert_eq!(after.misses, 0);
        assert_eq!(after.compile_nanos, 0);
    }
}
