//! `MPI_Pack` / `MPI_Unpack` / `MPI_Pack_size` equivalents on [`Comm`].
//!
//! These wrap the datatype crate's pack engine with the cost accounting
//! the paper's packing schemes exercise: each call pays a fixed library
//! overhead plus a gather exactly as fast as a user copy loop (§4.3) —
//! which is why packing-by-element is disastrous and packing-a-vector
//! matches manual copying.

use nonctg_datatype::{self as dt, Datatype, PackPlan};
use nonctg_simnet::Access;

use crate::comm::{CacheState, Comm};
use crate::error::Result;
use crate::route::{self, FaultSite, Staging, Step};

/// `outbuf` from `position` on: `MPI_Pack`'s position check.
fn tail(outbuf: &mut [u8], position: usize) -> Result<&mut [u8]> {
    let buffer_len = outbuf.len();
    let err = dt::DatatypeError::InvalidPosition { position, buffer_len };
    outbuf.get_mut(position..).ok_or(err.into())
}

impl Comm {
    /// Upper bound (here: exact) packed size of `count` instances
    /// (`MPI_Pack_size`).
    pub fn pack_size(&self, dtype: &Datatype, count: usize) -> Result<usize> {
        Ok(dt::pack_size(dtype, count)?)
    }

    /// Warm the compiled pack-plan cache for `(dtype, count)` without
    /// moving data or advancing virtual time.
    ///
    /// Call before a timed loop so the first timed pack/send does not pay
    /// plan compilation — a wall-clock-only effect; the virtual-time cost
    /// model charges identically either way.
    pub fn pack_prepare(&self, dtype: &Datatype, count: usize) {
        let _ = dt::plan_for(dtype, count);
    }

    /// Pack `count` instances of `dtype` (read from `src` at byte
    /// `origin`) into `outbuf`, advancing `position` (`MPI_Pack`).
    ///
    /// Charges one library-call overhead plus the gather cost — calling
    /// this once per element reproduces the paper's packing(e) scheme.
    ///
    /// An explicit pack takes the same staging decision as a send
    /// ([`route::staging`]): an injected plan-compile failure walks the
    /// segments, an injected parallel-pack worker failure pins the serial
    /// plan — both counted in [`crate::FaultStats`] and traced as
    /// demotions.
    pub fn pack(
        &mut self,
        src: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        outbuf: &mut [u8],
        position: &mut usize,
    ) -> Result<()> {
        dtype.require_committed()?;
        let bytes = dt::pack_size(dtype, count)? as u64;
        let access = Access::classify(dtype);
        let mut staging = Staging::Plan;
        // Fault schedules are keyed by op, so an op id is drawn only when
        // a fault plan could use it.
        if !matches!(access, Access::Contiguous) {
            if let Some(plan) = self.platform().fault.clone() {
                let rank = self.world_rank();
                let op = self.fabric().supervision.next_op(rank);
                let site = FaultSite { plan: &plan, rank, op };
                let (engine, rung) = route::staging(false, route::parallel_pack(bytes), Some(site));
                staging = engine;
                if let Some(rung) = rung {
                    self.take_step(Step::Demote(rung), None, bytes as usize, None);
                }
            }
        }
        *position += staging.pack(src, origin, dtype, count, tail(outbuf, *position)?)?;
        let warm = self.is_warm();
        let t0 = self.wtime();
        let t = self.platform().pack_call_time(bytes, &access, warm);
        self.charge(t);
        self.cache = CacheState::Warm;
        self.trace(crate::trace::EventKind::Pack, t0, None, bytes as usize, None);
        Ok(())
    }

    /// Element-wise packing: exactly equivalent (in data *and* virtual
    /// time) to calling [`Comm::pack`] once per element with a dense
    /// `elem` type (a primitive or a contiguous run), reading element `i`
    /// from byte
    /// `first_origin + i*stride_bytes` — but moves the data in one
    /// batched plan execution so the wall-clock cost stays sane at 10^8
    /// elements. This is the paper's packing(e) scheme.
    #[allow(clippy::too_many_arguments)]
    pub fn pack_elementwise(
        &mut self,
        src: &[u8],
        first_origin: usize,
        stride_bytes: usize,
        elem: &Datatype,
        n: usize,
        outbuf: &mut [u8],
        position: &mut usize,
    ) -> Result<()> {
        elem.require_committed()?;
        let sz = elem.size() as usize;
        // Real data movement, identical to n individual packs: one element
        // tiled by the stride is an O(1) type, and its plan is compiled
        // uncached because the type is new on every call.
        let tile = Datatype::resized(elem, 0, stride_bytes as u64)?;
        let out = tail(outbuf, *position)?;
        *position += match PackPlan::compile(&tile, n) {
            Some(plan) => plan.pack_into(src, first_origin, out)?,
            None => dt::pack_into_uncompiled(src, first_origin, &tile, n, out)?,
        };
        // Virtual time: n library calls, each gathering one element. A
        // single dense element classifies as contiguous, exactly as n
        // separate `pack` calls would.
        let warm = self.is_warm();
        let t0 = self.wtime();
        let per_call = self.platform().pack_call_time(sz as u64, &Access::Contiguous, warm);
        self.charge(per_call * n as f64);
        self.cache = CacheState::Warm;
        self.trace(crate::trace::EventKind::Pack, t0, None, sz * n, None);
        Ok(())
    }

    /// Unpack from `inbuf` at `position` into `count` instances of `dtype`
    /// laid out in `dst` at byte `origin` (`MPI_Unpack`).
    pub fn unpack(
        &mut self,
        inbuf: &[u8],
        position: &mut usize,
        dtype: &Datatype,
        count: usize,
        dst: &mut [u8],
        origin: usize,
    ) -> Result<()> {
        dtype.require_committed()?;
        let bytes = dt::pack_size(dtype, count)? as u64;
        dt::unpack_with_position(inbuf, position, dtype, count, dst, origin)?;
        let access = Access::classify(dtype);
        let warm = self.is_warm();
        let t0 = self.wtime();
        let t = self.platform().pack_call_time(bytes, &access, warm);
        self.charge(t);
        self.cache = CacheState::Warm;
        self.trace(crate::trace::EventKind::Unpack, t0, None, bytes as usize, None);
        Ok(())
    }
}
