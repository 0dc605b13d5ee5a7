//! Two-sided point-to-point communication: `send`, `bsend`, `recv`.
//!
//! Control flow mirrors a real MPI implementation:
//!
//! * messages at or below the eager threshold are deposited without a
//!   handshake (sender-determined availability);
//! * larger messages rendezvous — the sender blocks on a real back-channel
//!   until the receiver matches and reports the transfer completion time;
//! * non-contiguous datatypes are staged through an internal buffer whose
//!   cost degrades beyond a few tens of MB (the paper's §4.1 observation);
//! * `bsend` stages through the user-attached buffer, completes locally,
//!   and the transfer proceeds asynchronously — at a measurable extra cost
//!   (§4.2).
//!
//! "Staged through an internal buffer" describes the virtual-time model.
//! Payload bytes genuinely move, and receivers can verify every byte, but
//! on the host every blocking `send` or `ssend` on the rendezvous path
//! lends its user buffer instead of staging it ([`Payload::Lent`]),
//! whichever engine the route billed: the receiver moves the bytes once,
//! straight into its receive buffer, while the sender stays blocked. The
//! charges are the billed engine's either way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::Receiver;
use nonctg_datatype::{self as dt, Datatype, Scalar};
use nonctg_simnet::Access;

use crate::comm::{CacheState, Comm};
use crate::error::{CoreError, Result};
use crate::fabric::{
    reply_channel, Claimed, Envelope, Lease, OpRecord, Payload, PayloadPool, PooledBuf, Protocol,
};
use crate::nonblocking::{SendRequest, SendState};
use crate::route::{self, BufferSource, FaultSite, Path, Regions, RouteInput, SendMode, Step};

/// Bytes of bookkeeping the attached buffer pays per buffered message
/// (`MPI_BSEND_OVERHEAD`).
pub const BSEND_OVERHEAD_BYTES: u64 = 64;

/// Maximum attempts of one send under injected transient faults: up to
/// `MAX_SEND_ATTEMPTS - 1` consecutive failures are absorbed by backoff
/// before the send surfaces [`CoreError::SendFailed`].
pub const MAX_SEND_ATTEMPTS: u32 = 5;

/// First retry backoff in virtual seconds; doubles per failed attempt.
const SEND_BACKOFF_BASE_S: f64 = 2e-6;

/// Completion information of a receive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecvStatus {
    /// Rank the message came from.
    pub source: usize,
    /// Its tag.
    pub tag: i32,
    /// Payload size in bytes.
    pub bytes: usize,
}

impl RecvStatus {
    /// Number of whole instances of `dtype` received (`MPI_Get_count`);
    /// `None` if the payload is not a whole multiple (MPI_UNDEFINED).
    pub fn count(&self, dtype: &Datatype) -> Option<usize> {
        let sz = dtype.size() as usize;
        if sz == 0 {
            return Some(0);
        }
        self.bytes.is_multiple_of(sz).then_some(self.bytes / sz)
    }

    /// Number of primitive elements received, counting elements of a
    /// trailing partial instance (`MPI_Get_elements`). `None` only when
    /// the payload does not align with the type's primitive boundaries.
    pub fn element_count(&self, dtype: &Datatype) -> Option<usize> {
        let sz = dtype.size() as usize;
        if sz == 0 {
            return Some(0);
        }
        let whole = self.bytes / sz;
        let mut elements = whole * dtype.signature().total_elements() as usize;
        let mut rem = self.bytes % sz;
        if rem > 0 {
            for e in dtype.type_map_preview(usize::MAX) {
                if rem == 0 {
                    break;
                }
                let psz = e.primitive.size();
                if rem < psz {
                    return None; // mid-primitive cut
                }
                rem -= psz;
                elements += 1;
            }
        }
        Some(elements)
    }
}

/// The user buffer attached with [`Comm::buffer_attach`].
#[derive(Debug)]
pub(crate) struct BsendBuffer {
    pub capacity: u64,
    pub in_use: Arc<AtomicU64>,
}

/// Releases a buffered-send reservation when dropped. Held by the receive
/// path from the moment the envelope leaves the mailbox, so *every* exit —
/// including the truncation and signature-mismatch error returns — gives
/// the sender its bsend buffer space back.
struct BsendReleaseGuard(Option<(Arc<AtomicU64>, u64)>);

impl Drop for BsendReleaseGuard {
    fn drop(&mut self) {
        if let Some((in_use, amount)) = self.0.take() {
            in_use.fetch_sub(amount, Ordering::AcqRel);
        }
    }
}

impl Comm {
    // ------------------------------------------------------------------
    // sends
    // ------------------------------------------------------------------

    /// Standard send of `count` instances of `dtype` read from `buf`
    /// starting at byte `origin` (`MPI_Send`).
    pub fn send(
        &mut self,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        dst: usize,
        tag: i32,
    ) -> Result<()> {
        let t0 = self.clock.now();
        let bytes = dt::pack_size(dtype, count)?;
        let req = self.send_impl(buf, origin, dtype, count, dst, tag, SendMode::Standard, true)?;
        req.wait(self)?;
        self.trace(crate::trace::EventKind::Send, t0, Some(dst), bytes, Some(tag));
        Ok(())
    }

    /// Synchronous send (`MPI_Ssend`): local completion implies the
    /// matching receive has started — the handshake happens at every size.
    pub fn ssend(
        &mut self,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        dst: usize,
        tag: i32,
    ) -> Result<()> {
        let t0 = self.clock.now();
        let bytes = dt::pack_size(dtype, count)?;
        let req = self.send_impl(buf, origin, dtype, count, dst, tag, SendMode::Synchronous, true)?;
        req.wait(self)?;
        self.trace(crate::trace::EventKind::Send, t0, Some(dst), bytes, Some(tag));
        Ok(())
    }

    /// Synchronous send of a contiguous scalar slice.
    pub fn ssend_slice<T: Scalar>(&mut self, data: &[T], dst: usize, tag: i32) -> Result<()> {
        let t = Datatype::of::<T>();
        self.ssend(dt::as_bytes(data), 0, &t, data.len(), dst, tag)
    }

    /// Buffered send through the attached buffer (`MPI_Bsend`).
    pub fn bsend(
        &mut self,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        dst: usize,
        tag: i32,
    ) -> Result<()> {
        let t0 = self.clock.now();
        let bytes = dt::pack_size(dtype, count)?;
        let req = self.send_impl(buf, origin, dtype, count, dst, tag, SendMode::Buffered, false)?;
        req.wait(self)?;
        self.trace(crate::trace::EventKind::Bsend, t0, Some(dst), bytes, Some(tag));
        Ok(())
    }

    /// Send a contiguous byte buffer (`MPI_Send` of `MPI_BYTE`s).
    pub fn send_bytes(&mut self, data: &[u8], dst: usize, tag: i32) -> Result<()> {
        let t = Datatype::byte();
        self.send(data, 0, &t, data.len(), dst, tag)
    }

    /// Send a contiguous buffer previously filled by [`Comm::pack`]
    /// (`MPI_Send` of `MPI_PACKED` — protocol quirks of packed sends
    /// apply, see the Cray model).
    pub fn send_packed(&mut self, data: &[u8], dst: usize, tag: i32) -> Result<()> {
        let t = Datatype::packed();
        self.send(data, 0, &t, data.len(), dst, tag)
    }

    /// Send a contiguous scalar slice.
    pub fn send_slice<T: Scalar>(&mut self, data: &[T], dst: usize, tag: i32) -> Result<()> {
        let t = Datatype::of::<T>();
        self.send(dt::as_bytes(data), 0, &t, data.len(), dst, tag)
    }

    /// Execute one send: gather the route's inputs (the plan cache is
    /// consulted only where the route may use the answer), decide the
    /// [`route`], then apply its charges, counters and trace events and
    /// move the bytes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_impl(
        &mut self,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        dst: usize,
        tag: i32,
        mode: SendMode,
        blocking: bool,
    ) -> Result<SendRequest> {
        self.check_rank(dst)?;
        dtype.require_committed()?;
        let p = self.platform().clone();
        let mut input = RouteInput::new(&p, dtype, count, mode, blocking, origin, buf.len())?;
        let bytes = input.bytes;
        let warm = self.is_warm();

        let me = self.world_rank();
        let sup = Arc::clone(&self.fabric().supervision);
        sup.record_op(
            me,
            OpRecord { kind: "send", peer: Some(self.global_rank(dst)), bytes: bytes as usize },
        );
        let op = sup.next_op(me);
        let fault = p.fault.as_ref().map(|plan| FaultSite { plan, rank: me, op });
        if let Some(f) = fault {
            if f.plan.should_crash(me, op) {
                panic!("fault plan: injected crash of rank {me} at op {op}");
            }
        }
        input.lookup_chunks(dtype, count, fault);
        input.lookup_regions(dtype, count, fault);
        let route = route::route(&input, fault)?;

        // Fault charges are exact (no jitter draws), so the virtual clock
        // is identical whichever path runs.
        let mut backoff = SEND_BACKOFF_BASE_S;
        for _ in 0..route.retries {
            self.charge_exact(backoff);
            backoff *= 2.0;
        }
        if route.path == Path::Failed {
            sup.with_faults(me, |s| s.failed_sends += 1);
            return Err(CoreError::SendFailed { dst, attempts: MAX_SEND_ATTEMPTS });
        }
        if route.retries > 0 {
            sup.with_faults(me, |s| s.transient_retries += route.retries as u64);
        }
        if route.delay > 0.0 {
            self.charge_exact(route.delay);
            sup.with_faults(me, |s| s.delays += 1);
        }
        if route.corrupt.is_some() {
            sup.with_faults(me, |s| s.corruptions += 1);
        }
        if route.chunk_retries > 0 {
            sup.with_faults(me, |s| s.chunk_retries += route.chunk_retries);
        }
        // Sustained link degradation: a burst window multiplies the base
        // latency; the surcharge above 1x is an exact charge.
        if route.latency_factor > 1.0 {
            self.charge_exact(p.net.latency * (route.latency_factor - 1.0));
            sup.with_faults(me, |s| s.link_degradations += 1);
        }
        for &step in &route.steps {
            self.take_step(step, Some(dst), bytes as usize, Some(tag));
        }
        if let Some(m) = &mut self.metrics {
            m.transfers.record(route.staged);
        }
        let sig = dtype.signature().scaled(count as u64)?;
        let eager = route.path == Path::Eager;
        let contiguous = input.contiguous;

        // Real data movement. A lent send stages nothing: the receiver
        // moves the bytes straight from `buf` (see `lend`). Otherwise the
        // payload is staged contiguously in a buffer from (and back to)
        // the fabric's payload pool, so steady-state sends allocate
        // nothing; under pool exhaustion the ladder drops to a plain owned
        // allocation (never pooled).
        let staged = if route.lends() {
            None
        } else {
            let mut packed = self.staging_buf(route.buffer, bytes as usize);
            route.staging.pack(buf, origin, dtype, count, &mut packed)?;
            if let Some(idx) = route.corrupt {
                packed[idx] ^= 0xFF;
                // Corrupted payload bytes must never linger in a recycled
                // staging buffer: quarantine the allocation on drop.
                packed.poison();
            }
            Some(Payload::Whole(packed))
        };
        let mut bsend_release = None;
        // The rendezvous back-channel, when the sender waits for one.
        let mut pending = None;
        let protocol = match (mode, route.iov) {
            (SendMode::Standard | SendMode::Synchronous, _) if contiguous => {
                // Reference path: NIC streams the buffer, reads overlap the
                // wire (paper §2.1, proportionality ~1).
                let inject = p.contiguous_injection(bytes) * self.jitter.factor();
                self.charge_exact(p.send_overhead(eager));
                self.cache = CacheState::Warm;
                if eager {
                    self.clock.advance(inject);
                    Protocol::Eager { avail: self.clock.now() + p.net.latency }
                } else {
                    let (tx, rx) = reply_channel();
                    pending = Some(rx);
                    Protocol::Rendezvous {
                        sender_ready: self.clock.now(),
                        // The pipelined injection *is* the transfer.
                        wire: inject,
                        reply: tx,
                    }
                }
            }
            (SendMode::Standard | SendMode::Synchronous, Some(shape)) => {
                // Zero-copy iovec rendezvous (never eager): no staging
                // gather is charged. The sender pays a per-region
                // descriptor cost and the NIC DMA-gathers the user regions
                // on the wire. Per-region charges are exact (no jitter
                // draws), so the iovec clock is a pure function of the
                // region shape.
                self.charge_exact(p.send_overhead(false));
                self.charge_exact(p.iov_overhead_shaped(shape.n, shape.subline));
                self.cache = CacheState::Warm;
                let wire = p.iov_wire_time(bytes, shape.n) * self.jitter.factor();
                let (tx, rx) = reply_channel();
                pending = Some(rx);
                Protocol::Rendezvous { sender_ready: self.clock.now(), wire, reply: tx }
            }
            (SendMode::Standard | SendMode::Synchronous, None) => {
                // Derived-type path: MPI gathers into its internal buffer
                // (no overlap with the wire), then sends contiguously.
                let t_stage = self.clock.now();
                self.charge(p.staging_time(bytes, &input.access, warm));
                self.trace(crate::trace::EventKind::Stage, t_stage, None, bytes as usize, None);
                self.charge_exact(p.send_overhead(eager));
                self.cache = CacheState::Warm;
                let wire = p.wire_time(bytes, 1.0) * self.jitter.factor();
                if eager {
                    Protocol::Eager { avail: self.clock.now() + p.net.latency + wire }
                } else {
                    let (tx, rx) = reply_channel();
                    pending = Some(rx);
                    Protocol::Rendezvous { sender_ready: self.clock.now(), wire, reply: tx }
                }
            }
            (SendMode::Buffered, _) => {
                // Reserve attached-buffer space first (MPI_ERR_BUFFER).
                let needed = bytes + BSEND_OVERHEAD_BYTES;
                let release = self.reserve_bsend(needed)?;
                bsend_release = Some(release);
                // Stage through the attached buffer: same gather arithmetic
                // as the internal path (the user buffer does not avoid the
                // large-message bookkeeping, §4.2)...
                let t_stage = self.clock.now();
                let stage = p.staging_time(bytes, &input.access, warm);
                self.charge(stage);
                // ...plus Bsend's own accounting and extra internal copy.
                self.charge(p.bsend_extra(bytes));
                self.trace(crate::trace::EventKind::Stage, t_stage, None, bytes as usize, None);
                self.charge_exact(p.send_overhead(true));
                self.cache = CacheState::Warm;
                let wire = p.wire_time(bytes, 1.0) * self.jitter.factor();
                if eager {
                    Protocol::Eager { avail: self.clock.now() + p.net.latency + wire }
                } else {
                    // Local completion now; transfer rendezvouses on its own.
                    Protocol::AsyncRendezvous { sender_ready: self.clock.now(), wire }
                }
            }
        };

        let iov = route.iov.is_some();
        let Some(payload) = staged else {
            let rx = pending.expect("only a rendezvous lends");
            return self.lend(buf, origin, dtype, count, bytes as usize, dst, tag, sig, protocol, iov, rx);
        };
        self.post(dst, tag, payload, sig, protocol, iov, bsend_release);
        Ok(SendRequest::new(match pending {
            Some(rx) => SendState::Pending(rx),
            None => SendState::Done(self.clock.now()),
        }))
    }

    /// Lend `buf` to the receiver instead of staging it: post a lease on
    /// `count` x `dtype` at `origin`, block until the rendezvous
    /// completes, and settle the lease before returning, so no borrow of
    /// `buf` outlives this call. The receiver replies only after its copy.
    #[allow(clippy::too_many_arguments)]
    fn lend(
        &mut self,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        bytes: usize,
        dst: usize,
        tag: i32,
        sig: nonctg_datatype::Signature,
        protocol: Protocol,
        iov: bool,
        reply: Receiver<f64>,
    ) -> Result<SendRequest> {
        let (lease, ticket) = Lease::new(buf, origin, dtype, count, bytes);
        self.post(dst, tag, Payload::Lent(lease), sig, protocol, iov, None);
        let res = crate::nonblocking::await_reply(self, &reply);
        let done = ticket.settle(res, &reply)?;
        Ok(SendRequest::new(SendState::Done(done)))
    }

    /// Count and trace one route step at the current virtual time.
    pub(crate) fn take_step(
        &mut self,
        step: Step,
        peer: Option<usize>,
        bytes: usize,
        tag: Option<i32>,
    ) {
        let kind = match step {
            Step::Demote(rung) => {
                let me = self.world_rank();
                self.fabric().supervision.with_faults(me, |s| rung.count(s));
                crate::trace::EventKind::Demote
            }
            Step::Select(choice) => {
                crate::selector::record(choice);
                crate::trace::EventKind::Select
            }
        };
        let t = self.clock.now();
        self.trace(kind, t, peer, bytes, tag);
    }

    /// A staging buffer of `n` bytes from `source`.
    fn staging_buf(&self, source: BufferSource, n: usize) -> PooledBuf {
        match source {
            BufferSource::Pooled => self.fabric().pool.take(n),
            BufferSource::Owned => PooledBuf::detached(vec![0u8; n]),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn post(
        &self,
        dst: usize,
        tag: i32,
        payload: Payload,
        sig: nonctg_datatype::Signature,
        protocol: Protocol,
        iov: bool,
        bsend_release: Option<(Arc<AtomicU64>, u64)>,
    ) {
        let global_dst = self.global_rank(dst);
        self.fabric().mailboxes[global_dst].push(Envelope {
            context: self.context(),
            src: self.rank(),
            tag,
            payload,
            sig,
            protocol,
            iov,
            bsend_release,
        });
    }

    fn reserve_bsend(&mut self, needed: u64) -> Result<(Arc<AtomicU64>, u64)> {
        let b = self
            .bsend
            .as_ref()
            .ok_or(CoreError::BufferAttachState("bsend without an attached buffer"))?;
        let in_use = b.in_use.load(Ordering::Acquire);
        let available = b.capacity.saturating_sub(in_use);
        if needed > available {
            return Err(CoreError::BsendBufferOverflow {
                needed: needed as usize,
                available: available as usize,
            });
        }
        b.in_use.fetch_add(needed, Ordering::AcqRel);
        Ok((Arc::clone(&b.in_use), needed))
    }

    // ------------------------------------------------------------------
    // buffer attach / detach
    // ------------------------------------------------------------------

    /// Attach `capacity` bytes of buffer space for buffered sends
    /// (`MPI_Buffer_attach`).
    pub fn buffer_attach(&mut self, capacity: usize) -> Result<()> {
        if self.bsend.is_some() {
            return Err(CoreError::BufferAttachState("a buffer is already attached"));
        }
        self.bsend = Some(BsendBuffer {
            capacity: capacity as u64,
            in_use: Arc::new(AtomicU64::new(0)),
        });
        Ok(())
    }

    /// Detach the buffered-send buffer (`MPI_Buffer_detach`). Returns its
    /// capacity.
    pub fn buffer_detach(&mut self) -> Result<usize> {
        match self.bsend.take() {
            Some(b) => Ok(b.capacity as usize),
            None => Err(CoreError::BufferAttachState("no buffer attached")),
        }
    }

    /// Space needed in the attached buffer for one buffered send.
    pub fn bsend_size(dtype: &Datatype, count: usize) -> Result<usize> {
        Ok(dt::pack_size(dtype, count)? + BSEND_OVERHEAD_BYTES as usize)
    }

    // ------------------------------------------------------------------
    // receives
    // ------------------------------------------------------------------

    /// Receive `count` instances of `dtype` into `buf` at byte `origin`
    /// (`MPI_Recv`). `src`/`tag` of `None` are the wildcards.
    pub fn recv(
        &mut self,
        buf: &mut [u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Result<RecvStatus> {
        let t_post = self.clock.now();
        self.recv_with_post_time(buf, origin, dtype, count, src, tag, t_post)
    }

    /// Receive whose matching receive was *posted* at virtual time
    /// `t_post` (used by `irecv`/`wait` to model communication overlap:
    /// the transfer may complete between posting and waiting).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recv_with_post_time(
        &mut self,
        buf: &mut [u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        src: Option<usize>,
        tag: Option<i32>,
        t_post: f64,
    ) -> Result<RecvStatus> {
        dtype.require_committed()?;
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let capacity = dt::pack_size(dtype, count)?;
        let p = self.platform().clone();

        let me = self.global_rank(self.rank());
        let sup = Arc::clone(&self.fabric().supervision);
        sup.record_op(
            me,
            OpRecord { kind: "recv", peer: src.map(|s| self.global_rank(s)), bytes: capacity },
        );
        let op = sup.next_op(me);
        if let Some(plan) = &p.fault {
            if plan.should_crash(me, op) {
                panic!("fault plan: injected crash of rank {me} at op {op}");
            }
            if plan.should_crash_recv(me, op) {
                // Receiver-side crash: surfaces as a typed error rather
                // than a panic. Poisoning the fabric first means a sender
                // blocked on a rendezvous with this rank observes
                // `PeerFailed` instead of waiting out the watchdog.
                sup.with_faults(me, |s| s.recv_crashes += 1);
                sup.poison(me);
                return Err(self.fabric().enrich(CoreError::RankPanicked {
                    rank: me,
                    message: format!("fault plan: injected receiver crash at op {op}"),
                }));
            }
        }

        sup.set_blocked(me, Some("a matching message"));
        let res = self.fabric().mailboxes[me].match_recv(self.context(), src, tag);
        sup.set_blocked(me, None);
        let mut env = res.map_err(|e| self.fabric().enrich(e))?;
        let _bsend_release = BsendReleaseGuard(env.bsend_release.take());

        if env.payload.len() > capacity {
            return Err(CoreError::Truncate { incoming: env.payload.len(), capacity });
        }
        // Signature check: MPI_PACKED/MPI_BYTE match anything of the right
        // size; otherwise the primitive multisets must agree.
        let recv_sig = dtype.signature().scaled(count as u64)?;
        let relaxed = env.sig.is_bytes_only() || recv_sig.is_bytes_only();
        if relaxed {
            if env.sig.total_bytes() > recv_sig.total_bytes() {
                return Err(CoreError::Truncate {
                    incoming: env.payload.len(),
                    capacity,
                });
            }
        } else {
            // Allow a shorter matching prefix: count how many whole send
            // elements arrived; exact multiset match required at equal size.
            if env.payload.len() == capacity && !env.sig.matches(1, &recv_sig, 1) {
                return Err(CoreError::SignatureMismatch);
            }
            if env.payload.len() < capacity {
                // Partial receive: only the byte check applies (MPI permits
                // receiving fewer elements than posted).
                let ok = env.sig.total_bytes() <= recv_sig.total_bytes();
                if !ok {
                    return Err(CoreError::SignatureMismatch);
                }
            }
        }

        // Timing. The sender unblocks when the transfer completes: at
        // once for a staged payload, after the copy for a lent one.
        let mut lent_reply = None;
        match env.protocol {
            Protocol::Eager { avail } => {
                self.clock.sync_to(avail);
            }
            Protocol::Rendezvous { sender_ready, wire, reply } => {
                let start = t_post.max(sender_ready) + p.proto.rndv_extra;
                let done = start + p.net.latency + wire;
                if matches!(env.payload, Payload::Lent(_)) {
                    lent_reply = Some((reply, done));
                } else {
                    let _ = reply.send(done);
                }
                self.clock.sync_to(done);
            }
            Protocol::AsyncRendezvous { sender_ready, wire } => {
                let start = t_post.max(sender_ready) + p.proto.rndv_extra;
                self.clock.sync_to(start + p.net.latency + wire);
            }
        }
        self.charge_exact(p.proto.eager_overhead);

        // Real delivery: unpack the payload into the user layout. Derived
        // receive types pay the scatter; contiguous receives are the NIC's
        // direct deposit and cost nothing extra.
        let total = env.payload.len();
        let env_src = env.src;
        let env_tag = env.tag;
        let incoming_count = if dtype.size() == 0 {
            0
        } else {
            total / dtype.size() as usize
        };
        let consumed = match env.payload {
            Payload::Whole(data) => dt::unpack_from(&data, dtype, incoming_count, buf, origin)?,
            Payload::Lent(lease) => {
                // The guard marks the lease done and replies on every
                // exit, so an unpack error still releases the sender.
                let lent = lease.claim(lent_reply.take()).ok_or(CoreError::Cancelled {
                    what: "lent send (its sender gave up before the match)",
                })?;
                let pool = &self.fabric().pool;
                deliver_lent(&lent, total, pool, dtype, incoming_count, buf, origin)?
            }
        };
        crate::invariants::check_recv_conservation(total, consumed, dtype.size() as usize);
        if !dtype.is_contiguous_run(incoming_count as u64) {
            let t_scatter = self.clock.now();
            // An iovec-billed transfer scatters straight into the
            // receiver's own regions (its own plan over its own type: the
            // sender's shape only describes the sender's layout). A
            // receive layout without a bounded region list pays the
            // unpack engine's scatter.
            let shape = if env.iov {
                Regions::of(dtype, incoming_count, p.mem.cacheline).shape()
            } else {
                None
            };
            match shape {
                Some(shape) => {
                    // Direct placement: exact per-region charges, no
                    // jitter — the iovec clock is a pure function of the
                    // region list.
                    self.charge_exact(p.iov_scatter_time_shaped(
                        total as u64,
                        shape.n,
                        shape.subline,
                        self.is_warm(),
                    ));
                }
                None => {
                    let access = Access::classify(dtype);
                    self.charge(p.scatter_time(total as u64, &access, self.is_warm()));
                }
            }
            self.trace(
                crate::trace::EventKind::Unstage,
                t_scatter,
                Some(env_src),
                total,
                Some(env_tag),
            );
        }
        self.cache = CacheState::Warm;

        self.trace(
            crate::trace::EventKind::Recv,
            t_post,
            Some(env_src),
            total,
            Some(env_tag),
        );
        Ok(RecvStatus { source: env_src, tag: env_tag, bytes: total })
    }

    /// Receive into a contiguous byte buffer.
    pub fn recv_bytes(
        &mut self,
        buf: &mut [u8],
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Result<RecvStatus> {
        let t = Datatype::byte();
        let n = buf.len();
        self.recv(buf, 0, &t, n, src, tag)
    }

    /// Receive into a contiguous scalar slice.
    pub fn recv_slice<T: Scalar>(
        &mut self,
        buf: &mut [T],
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Result<RecvStatus> {
        let t = Datatype::of::<T>();
        let n = buf.len();
        self.recv(dt::as_bytes_mut(buf), 0, &t, n, src, tag)
    }

    /// Non-blocking probe for a matching message.
    pub fn probe(&self, src: Option<usize>, tag: Option<i32>) -> bool {
        let me = self.global_rank(self.rank());
        self.fabric().mailboxes[me].probe(self.context(), src, tag)
    }
}

/// Move a lent payload of `total` packed bytes into the receive buffer,
/// in one copy wherever a layout allows it: the receive plan unpacks
/// straight from a contiguous send slice, or the send plan packs straight
/// into a contiguous receive slice. Only two non-contiguous layouts stage
/// through `pool`, which is the work a staged send does. Returns the
/// bytes consumed, as [`dt::unpack_from`] does.
fn deliver_lent(
    lent: &Claimed,
    total: usize,
    pool: &Arc<PayloadPool>,
    dtype: &Datatype,
    count: usize,
    buf: &mut [u8],
    origin: usize,
) -> Result<usize> {
    let (src, src_origin, src_dtype, src_count) =
        (lent.src(), lent.origin(), lent.dtype(), lent.count());
    if let Some(run) = contiguous_run(src_origin, src_dtype, src_count, total, src.len()) {
        return Ok(dt::unpack_from(&src[run], dtype, count, buf, origin)?);
    }
    if let Some(run) = contiguous_run(origin, dtype, count, total, buf.len()) {
        return Ok(dt::pack_into(src, src_origin, src_dtype, src_count, &mut buf[run])?);
    }
    let mut staged = pool.take(total);
    dt::pack_into(src, src_origin, src_dtype, src_count, &mut staged)?;
    Ok(dt::unpack_from(&staged, dtype, count, buf, origin)?)
}

/// The byte range of `count` x `dtype` at `origin` in a buffer of
/// `buf_len` bytes, when it is one in-bounds run of exactly `len` bytes:
/// the slice a plan can copy to or from directly.
fn contiguous_run(
    origin: usize,
    dtype: &Datatype,
    count: usize,
    len: usize,
    buf_len: usize,
) -> Option<std::ops::Range<usize>> {
    if !dtype.is_contiguous_run(count as u64) {
        return None;
    }
    let span = dt::user_span(dtype, count);
    let Some((lo, hi)) = span else {
        return (len == 0).then_some(0..0);
    };
    if hi - lo != len as i128 || dt::check_span(origin, span, buf_len).is_err() {
        return None;
    }
    let from = (origin as i128 + lo) as usize;
    Some(from..from + len)
}
