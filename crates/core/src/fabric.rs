//! The shared fabric: mailboxes, message envelopes, protocol metadata, and
//! the clock-combining barrier.
//!
//! Payload bytes always move for real (senders pack, or lend their buffer
//! to the receiver; receivers unpack and can verify byte-for-byte); *time*
//! is carried alongside as virtual-clock stamps computed from the platform
//! cost model. Rendezvous sends block the sender on a real back-channel
//! until the receiver matches, which keeps virtual time causal without a
//! global event queue.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use nonctg_datatype::{Datatype, Signature};
use nonctg_simnet::Platform;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{CoreError, Result};
use crate::invariants::{AliasRegistry, ClockLedger};
use crate::rma::WindowState;

/// Longest slice a fabric wait sleeps before re-checking the poison flag.
/// Bounds how long a blocked peer can take to observe a rank failure, so
/// it stays well under a second; condvar notifications still end waits
/// immediately on the happy path. Configurable via `NONCTG_POLL_SLICE_MS`
/// (milliseconds, clamped to >= 1), resolved once per process.
pub(crate) fn poll_slice() -> Duration {
    static V: OnceLock<Duration> = OnceLock::new();
    *V.get_or_init(|| {
        let ms = std::env::var("NONCTG_POLL_SLICE_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(20)
            .max(1);
        Duration::from_millis(ms)
    })
}

/// Bounded spin budget a fabric wait burns before its first park. Matches
/// arrive within microseconds on the hot path, so a short spin avoids
/// most condvar sleeps; the budget is small enough that a genuinely idle
/// wait parks almost immediately.
pub(crate) const SPIN_ROUNDS: u32 = 64;

/// One spin round between lock re-acquisitions. It ends by yielding the
/// CPU: when ranks outnumber idle cores, a spinning waiter would
/// otherwise hold the core its peer (or the peer's pack workers) needs
/// to produce what it waits for.
#[inline]
pub(crate) fn spin_round() {
    for _ in 0..32 {
        std::hint::spin_loop();
    }
    std::thread::yield_now();
}

/// Bounded pool of reusable payload buffers, shared by every rank of one
/// fabric. Message staging (staged sends, bsend) draws from it,
/// and buffers flow back automatically when the receiver drops the
/// envelope — including on error paths.
pub(crate) struct PayloadPool {
    bufs: Mutex<Vec<Vec<u8>>>,
    /// Fault-poisoned allocations, held alive (bounded by
    /// [`PayloadPool::QUARANTINE_CAP`]) so their addresses can never be
    /// recycled into a later transfer — and so the oracle recycling check
    /// in [`PayloadPool::take`] is precise, not racing the allocator.
    quarantine: Mutex<Vec<Vec<u8>>>,
    /// Oracle-mode ledger of lent-out buffer addresses (aliasing check).
    aliases: AliasRegistry,
}

impl PayloadPool {
    /// Buffers retained for reuse; beyond this, returned allocations are
    /// simply freed (bounds worst-case memory at a few in-flight payloads).
    const MAX_RETAINED: usize = 8;

    /// Poisoned allocations held in quarantine; beyond this the oldest is
    /// freed (its address may then lawfully re-enter circulation via the
    /// allocator, which is fine — only pool recycling is forbidden).
    const QUARANTINE_CAP: usize = 16;

    pub(crate) fn new() -> Arc<PayloadPool> {
        Arc::new(PayloadPool {
            bufs: Mutex::new(Vec::new()),
            quarantine: Mutex::new(Vec::new()),
            aliases: AliasRegistry::default(),
        })
    }

    /// Whether `ptr` is the address of a quarantined (poisoned) buffer.
    fn is_quarantined(&self, ptr: usize) -> bool {
        self.quarantine.lock().iter().any(|q| q.as_ptr() as usize == ptr)
    }

    /// A buffer of exactly `len` bytes (contents unspecified beyond being
    /// initialized), reusing a pooled allocation when one is available.
    ///
    /// Retained buffers keep their whole initialized length, whatever
    /// length they were last lent at, and `take` picks the best fit: the
    /// smallest one already initialized to `len` bytes, else the largest.
    /// Only bytes never initialized before are zeroed, so a zero-byte
    /// message between two large ones costs the large one no memset.
    pub fn take(self: &Arc<Self>, len: usize) -> PooledBuf {
        let mut buf = {
            let mut bufs = self.bufs.lock();
            let fit = bufs
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| {
                    if b.len() >= len {
                        (false, b.len())
                    } else {
                        (true, usize::MAX - b.len())
                    }
                })
                .map(|(i, _)| i);
            fit.map(|i| bufs.swap_remove(i)).unwrap_or_default()
        };
        if buf.len() < len {
            buf.resize(len, 0);
        }
        // Empty buffers share the dangling sentinel pointer and can never
        // alias real payload bytes, so only allocations enter the ledger.
        if buf.capacity() > 0 {
            let ptr = buf.as_ptr() as usize;
            if crate::invariants::oracle_checks_enabled() && self.is_quarantined(ptr) {
                crate::invariants::violation(&format!(
                    "payload pool recycled fault-poisoned buffer {ptr:#x}"
                ));
            }
            self.aliases.lend(ptr);
        }
        PooledBuf { buf, len, pool: Some(Arc::clone(self)), poisoned: false }
    }

    fn put(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let ptr = buf.as_ptr() as usize;
        if crate::invariants::oracle_checks_enabled() && self.is_quarantined(ptr) {
            crate::invariants::violation(&format!(
                "fault-poisoned buffer {ptr:#x} returned to the payload pool"
            ));
        }
        let mut bufs = self.bufs.lock();
        if bufs.len() < Self::MAX_RETAINED {
            bufs.push(buf);
        }
    }

    /// Impound a fault-poisoned allocation so [`PayloadPool::take`] can
    /// never hand its bytes to a later transfer.
    fn impound(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut q = self.quarantine.lock();
        q.push(buf);
        if q.len() > Self::QUARANTINE_CAP {
            q.remove(0);
        }
    }
}

/// A payload buffer that returns its allocation to its [`PayloadPool`]
/// on drop — unless poisoned, in which case it is quarantined instead.
/// Derefs to `[u8]`.
pub(crate) struct PooledBuf {
    /// The allocation, at its whole initialized length.
    buf: Vec<u8>,
    /// Bytes visible through `Deref`: a prefix of `buf`.
    len: usize,
    pool: Option<Arc<PayloadPool>>,
    poisoned: bool,
}

impl PooledBuf {
    /// Wrap a plain vector without pool backing (the owned-buffer
    /// fallback when the pool is exhausted, and test scaffolding).
    pub fn detached(buf: Vec<u8>) -> PooledBuf {
        PooledBuf { len: buf.len(), buf, pool: None, poisoned: false }
    }

    /// Mark the buffer fault-poisoned: on drop its allocation goes to the
    /// pool's quarantine instead of back into circulation, so a corrupted
    /// payload's bytes can never be recycled into a later transfer.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[..self.len]
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            if self.buf.capacity() > 0 {
                pool.aliases.give_back(self.buf.as_ptr() as usize);
            }
            let buf = std::mem::take(&mut self.buf);
            if self.poisoned {
                pool.impound(buf);
            } else {
                pool.put(buf);
            }
        }
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledBuf({} B)", self.len)
    }
}

/// Packed payload of a message: staged whole by the sender, or lent
/// straight from the sender's buffer.
#[derive(Debug)]
pub(crate) enum Payload {
    /// The whole packed message, staged by the sender in a pool buffer.
    Whole(PooledBuf),
    /// The user buffer of a blocked rendezvous sender (blocking `send`
    /// or `ssend`): nothing was staged. The receiver claims the lease and
    /// moves the bytes once, straight into its receive buffer; only when
    /// both layouts are non-contiguous does it stage through the pool.
    /// The virtual-time charges are the billed engine's.
    Lent(Lease),
}

impl Payload {
    /// Total packed bytes of the message (known up front either way).
    pub fn len(&self) -> usize {
        match self {
            Payload::Whole(b) => b.len(),
            Payload::Lent(lease) => lease.bytes,
        }
    }
}

/// [`Lease`] states: posted by the sender, then either claimed and done
/// by the receiver, or revoked by the sender before any claim. The
/// receiver's `Release` store of done pairs with the sender's `Acquire`
/// loads, so every read of the buffer happens before the sender returns.
const LEASE_POSTED: u8 = 0;
const LEASE_CLAIMED: u8 = 1;
const LEASE_DONE: u8 = 2;
const LEASE_REVOKED: u8 = 3;

/// A blocked sender's user buffer lent to the receiver: `count`
/// instances of `dtype` at byte `origin`, `bytes` packed. The buffer is
/// held as a raw pointer, because the borrow lives on the sender's stack.
///
/// Lifetime safety follows the worker pool's pattern
/// (`nonctg_datatype`'s `kernels::pool`): the caller does not return
/// until the borrowed work is finished. The lease has one atomic state.
/// The receiver reads the buffer only after it moved that state from
/// posted to claimed ([`Lease::claim`]), and its [`Claimed`] guard moves
/// it to done on every exit, panics included. The sender settles its
/// [`LeaseTicket`] before it returns: a lease still posted is revoked (no
/// claim can succeed after that), and a claimed one is waited on until
/// done.
pub(crate) struct Lease {
    ptr: *const u8,
    len: usize,
    origin: usize,
    dtype: Datatype,
    count: usize,
    bytes: usize,
    state: Arc<AtomicU8>,
}

// SAFETY: `ptr` is dereferenced only by `Claimed::src`, after a
// successful claim, and the sender keeps its shared borrow of the buffer
// alive until the claim is done (see the type's lifetime notes); reading
// bytes that nobody can write during a shared borrow is sound from any
// thread. The other fields are `Send` on their own: plain integers, a
// `Datatype` (an `Arc` of an immutable tree) and an `Arc<AtomicU8>`.
unsafe impl Send for Lease {}

impl Lease {
    /// Lend `count` x `dtype` of `buf` at `origin`, `bytes` packed. The
    /// caller must keep `buf` borrowed until the returned ticket is
    /// settled or dropped.
    pub fn new(
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        bytes: usize,
    ) -> (Lease, LeaseTicket) {
        let state = Arc::new(AtomicU8::new(LEASE_POSTED));
        let lease = Lease {
            ptr: buf.as_ptr(),
            len: buf.len(),
            origin,
            dtype: dtype.clone(),
            count,
            bytes,
            state: Arc::clone(&state),
        };
        (lease, LeaseTicket { state })
    }

    /// Claim the lease, or `None` if its sender revoked it. The guard
    /// sends `reply` (the rendezvous channel and completion time) once
    /// the claim is done, so the sender unblocks only after the copy.
    pub fn claim(self, reply: Option<(Sender<f64>, f64)>) -> Option<Claimed> {
        self.state
            .compare_exchange(LEASE_POSTED, LEASE_CLAIMED, Ordering::AcqRel, Ordering::Acquire)
            .ok()?;
        Some(Claimed { lease: self, reply })
    }
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Lease({} B)", self.bytes)
    }
}

/// The receiver's guard on a claimed [`Lease`]. Dropping it (after the
/// copy, on an error return or during a panic) marks the lease done and
/// then sends the rendezvous reply it holds.
pub(crate) struct Claimed {
    lease: Lease,
    reply: Option<(Sender<f64>, f64)>,
}

impl Claimed {
    /// The sender's whole user buffer.
    pub fn src(&self) -> &[u8] {
        // SAFETY: the claim succeeded, so the sender is blocked in its
        // send until this guard is dropped, holding a shared borrow of
        // exactly these `len` bytes; the returned slice borrows the guard
        // and so cannot outlive it.
        unsafe { std::slice::from_raw_parts(self.lease.ptr, self.lease.len) }
    }

    /// Byte offset of instance 0 in [`Claimed::src`].
    pub fn origin(&self) -> usize {
        self.lease.origin
    }

    /// The send datatype.
    pub fn dtype(&self) -> &Datatype {
        &self.lease.dtype
    }

    /// The send count.
    pub fn count(&self) -> usize {
        self.lease.count
    }
}

impl Drop for Claimed {
    fn drop(&mut self) {
        self.lease.state.store(LEASE_DONE, Ordering::Release);
        if let Some((tx, done)) = self.reply.take() {
            let _ = tx.send(done);
        }
    }
}

/// The sender's side of a [`Lease`]: settled (or dropped) before the
/// sender's borrow of its buffer ends.
pub(crate) struct LeaseTicket {
    state: Arc<AtomicU8>,
}

impl LeaseTicket {
    /// Settle the lease once the rendezvous wait returned `res`. A
    /// completion is final: the receiver sends it only after its copy. A
    /// failed wait revokes the lease; if the receiver claimed it first,
    /// the sender waits for the copy and takes the completion it sends.
    pub fn settle(self, res: Result<f64>, reply: &Receiver<f64>) -> Result<f64> {
        match res {
            Ok(done) => Ok(done),
            Err(e) if self.release() => Err(e),
            Err(e) => reply.recv_timeout(poll_slice()).map_err(|_| e),
        }
    }

    /// Revoke a lease nobody claimed (`true`), or wait until a claimed
    /// one is done (`false`).
    fn release(&self) -> bool {
        match self.state.compare_exchange(
            LEASE_POSTED,
            LEASE_REVOKED,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => true,
            Err(LEASE_CLAIMED) => {
                while self.state.load(Ordering::Acquire) != LEASE_DONE {
                    std::thread::sleep(Duration::from_micros(50));
                }
                false
            }
            Err(state) => state == LEASE_REVOKED,
        }
    }
}

impl Drop for LeaseTicket {
    fn drop(&mut self) {
        self.release();
    }
}

/// The last tracked operation a rank started, kept for watchdog reports.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpRecord {
    /// Operation kind ("send", "recv", ...).
    pub kind: &'static str,
    /// Peer rank, if the operation has one.
    pub peer: Option<usize>,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// Per-rank counters of injected faults the runtime absorbed or surfaced.
///
/// Read through [`crate::Comm::fault_stats`]; all zeros unless the
/// platform carries a [`nonctg_simnet::FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient send failures absorbed by retry-with-backoff.
    pub transient_retries: u64,
    /// Injected delivery delays charged to the virtual clock.
    pub delays: u64,
    /// Payloads corrupted in flight.
    pub corruptions: u64,
    /// Sends abandoned after the bounded retry budget.
    pub failed_sends: u64,
    /// Sends whose notional chunk schedule forecast at least
    /// `CHUNK_DEMOTE_THRESHOLD` chunk faults: the ladder's demotion from
    /// the chunk stream, kept as a forecast (see `route`).
    pub pipeline_demotions: u64,
    /// Forecast chunk faults below that threshold: each counts as one
    /// re-packed chunk.
    pub chunk_retries: u64,
    /// Sends that fell back from pooled (zero-copy-style) staging to an
    /// owned buffer because the payload pool was exhausted.
    pub pool_exhaustions: u64,
    /// Sends that fell back to the uncompiled pack path after a pack-plan
    /// compile/allocation failure.
    pub plan_fallbacks: u64,
    /// Packs that fell back from the parallel kernel to the serial one
    /// after a worker failure.
    pub serial_fallbacks: u64,
    /// Sends demoted from the zero-copy iovec datapath to the pack-plan
    /// path after an injected fault (pool exhaustion or worker failure
    /// while the region list was being gathered).
    pub iovec_demotions: u64,
    /// Sends charged a sustained link-degradation latency surcharge.
    pub link_degradations: u64,
    /// Injected receiver-side crashes surfaced as typed errors.
    pub recv_crashes: u64,
    /// Request waits that gave up at a caller-supplied timeout.
    pub timeouts: u64,
    /// Requests cancelled before completion.
    pub cancels: u64,
}

impl FaultStats {
    /// Add another rank's counters into this one.
    pub fn absorb(&mut self, other: FaultStats) {
        self.transient_retries += other.transient_retries;
        self.delays += other.delays;
        self.corruptions += other.corruptions;
        self.failed_sends += other.failed_sends;
        self.pipeline_demotions += other.pipeline_demotions;
        self.chunk_retries += other.chunk_retries;
        self.pool_exhaustions += other.pool_exhaustions;
        self.plan_fallbacks += other.plan_fallbacks;
        self.serial_fallbacks += other.serial_fallbacks;
        self.iovec_demotions += other.iovec_demotions;
        self.link_degradations += other.link_degradations;
        self.recv_crashes += other.recv_crashes;
        self.timeouts += other.timeouts;
        self.cancels += other.cancels;
    }

    /// Total graceful demotions: every time the runtime swapped a faster
    /// datapath for a slower-but-correct one instead of failing.
    pub fn demotions(&self) -> u64 {
        self.pipeline_demotions + self.pool_exhaustions + self.plan_fallbacks
            + self.serial_fallbacks
            + self.iovec_demotions
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Shared health state of one universe: the poison flag set when a rank
/// fails, the configured deadlock timeout, and per-rank bookkeeping the
/// watchdog dumps into [`CoreError::Deadlock`] reports.
pub(crate) struct Supervision {
    /// World rank + 1 of the first failed rank; 0 = all healthy.
    failed: AtomicUsize,
    /// Per-wait timeout before a blocked rank declares a deadlock.
    timeout: Duration,
    /// What each rank is currently blocked on (`None` = running).
    blocked: Vec<Mutex<Option<&'static str>>>,
    /// Last tracked operation each rank started.
    last_op: Vec<Mutex<Option<OpRecord>>>,
    /// Per-rank tracked-operation counters, keying fault-plan decisions.
    ops: Vec<AtomicU64>,
    /// Per-rank injected-fault counters.
    faults: Vec<Mutex<FaultStats>>,
}

impl Supervision {
    pub(crate) fn new(nranks: usize, timeout: Duration) -> Arc<Supervision> {
        Arc::new(Supervision {
            failed: AtomicUsize::new(0),
            timeout,
            blocked: (0..nranks).map(|_| Mutex::new(None)).collect(),
            last_op: (0..nranks).map(|_| Mutex::new(None)).collect(),
            ops: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            faults: (0..nranks).map(|_| Mutex::new(FaultStats::default())).collect(),
        })
    }

    /// Next operation index of `rank` (each rank's ops are numbered in
    /// program order, which is deterministic: one thread per rank).
    pub fn next_op(&self, rank: usize) -> u64 {
        self.ops[rank].fetch_add(1, Ordering::Relaxed)
    }

    /// Mutate `rank`'s fault counters.
    pub fn with_faults(&self, rank: usize, f: impl FnOnce(&mut FaultStats)) {
        if let Some(slot) = self.faults.get(rank) {
            f(&mut slot.lock());
        }
    }

    /// Snapshot `rank`'s fault counters.
    pub fn fault_stats(&self, rank: usize) -> FaultStats {
        self.faults.get(rank).map(|s| *s.lock()).unwrap_or_default()
    }

    /// The per-wait deadlock timeout in force.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// World rank of the first failed rank, if any.
    pub fn failed_rank(&self) -> Option<usize> {
        let v = self.failed.load(Ordering::Acquire);
        (v > 0).then(|| v - 1)
    }

    /// Mark `rank` failed. Only the first failure sticks; later ones keep
    /// the original culprit so every peer reports the same rank.
    pub fn poison(&self, rank: usize) {
        let _ = self.failed.compare_exchange(0, rank + 1, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Record what `rank` is blocked on (or `None` when it resumes).
    pub fn set_blocked(&self, rank: usize, what: Option<&'static str>) {
        if let Some(slot) = self.blocked.get(rank) {
            *slot.lock() = what;
        }
    }

    /// Record the operation `rank` just started.
    pub fn record_op(&self, rank: usize, op: OpRecord) {
        if let Some(slot) = self.last_op.get(rank) {
            *slot.lock() = Some(op);
        }
    }

    fn blocked_on(&self, rank: usize) -> Option<&'static str> {
        self.blocked.get(rank).and_then(|s| *s.lock())
    }

    fn last_op_of(&self, rank: usize) -> Option<OpRecord> {
        self.last_op.get(rank).and_then(|s| *s.lock())
    }
}

/// Timing metadata of a message, interpreted by the receiver.
#[derive(Debug)]
pub(crate) enum Protocol {
    /// Eager: the sender fully determined availability.
    Eager {
        /// Virtual time the payload is available at the receiver.
        avail: f64,
    },
    /// Rendezvous: transfer starts once both sides are ready; the sender
    /// blocks until the receiver reports the completion time back.
    Rendezvous {
        /// Virtual time the sender had the data staged and the RTS posted.
        sender_ready: f64,
        /// Pure wire time of the payload, precomputed by the sender.
        wire: f64,
        /// Back-channel for the sender's completion time.
        reply: Sender<f64>,
    },
    /// Asynchronous rendezvous (buffered sends): same timing rule as
    /// rendezvous but the sender has already returned.
    AsyncRendezvous {
        /// Virtual time the buffered data was ready to transfer.
        sender_ready: f64,
        /// Pure wire time of the payload.
        wire: f64,
    },
}

/// A message in flight or queued at the receiver.
#[derive(Debug)]
pub(crate) struct Envelope {
    /// Communicator context the message belongs to.
    pub context: u64,
    /// Sender's rank *within that context*.
    pub src: usize,
    pub tag: i32,
    /// Packed (contiguous) payload bytes, staged or lent.
    pub payload: Payload,
    /// Total signature (already scaled by the send count).
    pub sig: Signature,
    pub protocol: Protocol,
    /// Billed as a zero-copy iovec rendezvous: the receiver charges the
    /// scatter into its own regions instead of the unpack engine's.
    pub iov: bool,
    /// Released back to an attached bsend buffer when matched.
    pub bsend_release: Option<(Arc<AtomicU64>, u64)>,
}

#[derive(Default)]
struct MailboxInner {
    queue: Vec<Envelope>,
}

/// Per-rank incoming message queue.
pub(crate) struct Mailbox {
    inner: Mutex<MailboxInner>,
    cond: Condvar,
    sup: Arc<Supervision>,
}

impl Mailbox {
    fn new(sup: Arc<Supervision>) -> Self {
        Mailbox { inner: Mutex::new(MailboxInner::default()), cond: Condvar::new(), sup }
    }

    /// Deposit an envelope and wake any waiting receiver.
    pub fn push(&self, env: Envelope) {
        let mut inner = self.inner.lock();
        inner.queue.push(env);
        self.cond.notify_all();
    }

    /// Blocking match: remove and return the first envelope in `context`
    /// matching `src`/`tag` (None = wildcard), preserving per-source order.
    ///
    /// Returns [`CoreError::PeerFailed`] as soon as the fabric is
    /// poisoned (a queued match still wins over poison, since the data is
    /// already here), or [`CoreError::Deadlock`] after the supervision
    /// timeout.
    pub fn match_recv(
        &self,
        context: u64,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Result<Envelope> {
        let deadline = Instant::now() + self.sup.timeout();
        let mut spins = SPIN_ROUNDS;
        let mut inner = self.inner.lock();
        loop {
            let pos = inner.queue.iter().position(|e| {
                e.context == context
                    && src.is_none_or(|s| s == e.src)
                    && tag.is_none_or(|t| t == e.tag)
            });
            if let Some(i) = pos {
                return Ok(inner.queue.remove(i));
            }
            if let Some(rank) = self.sup.failed_rank() {
                return Err(CoreError::PeerFailed { rank });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CoreError::deadlock("a matching message"));
            }
            // Spin-then-park: burn the bounded spin budget (lock released)
            // before the first condvar sleep.
            if spins > 0 {
                spins -= 1;
                MutexGuard::unlocked(&mut inner, spin_round);
                continue;
            }
            let slice = (deadline - now).min(poll_slice());
            let _ = self.cond.wait_for(&mut inner, slice);
        }
    }

    /// Non-blocking probe: does a matching envelope exist in `context`?
    pub fn probe(&self, context: u64, src: Option<usize>, tag: Option<i32>) -> bool {
        let inner = self.inner.lock();
        inner.queue.iter().any(|e| {
            e.context == context
                && src.is_none_or(|s| s == e.src)
                && tag.is_none_or(|t| t == e.tag)
        })
    }

    /// Snapshot of queued envelopes as `(context, src, tag, len)`, for
    /// watchdog reports.
    pub fn snapshot(&self) -> Vec<(u64, usize, i32, usize)> {
        let inner = self.inner.lock();
        inner
            .queue
            .iter()
            .map(|e| (e.context, e.src, e.tag, e.payload.len()))
            .collect()
    }
}

struct BarrierState {
    generation: u64,
    arrived: usize,
    tmax: f64,
    result: f64,
}

/// A barrier that also max-combines the participants' virtual clocks.
pub(crate) struct SimBarrier {
    state: Mutex<BarrierState>,
    cond: Condvar,
    nranks: usize,
    sup: Arc<Supervision>,
}

impl SimBarrier {
    pub(crate) fn new(nranks: usize, sup: Arc<Supervision>) -> Self {
        SimBarrier {
            state: Mutex::new(BarrierState { generation: 0, arrived: 0, tmax: 0.0, result: 0.0 }),
            cond: Condvar::new(),
            nranks,
            sup,
        }
    }

    /// Enter with the local virtual time; returns the maximum across all
    /// participants once everyone has arrived.
    ///
    /// A poisoned fabric fails the wait with [`CoreError::PeerFailed`]
    /// (the failed rank can never arrive); the supervision timeout fails
    /// it with [`CoreError::Deadlock`].
    pub fn wait(&self, t_local: f64) -> Result<f64> {
        let deadline = Instant::now() + self.sup.timeout();
        let mut st = self.state.lock();
        let my_gen = st.generation;
        st.tmax = st.tmax.max(t_local);
        st.arrived += 1;
        if st.arrived == self.nranks {
            st.result = st.tmax;
            st.tmax = 0.0;
            st.arrived = 0;
            st.generation += 1;
            self.cond.notify_all();
            return Ok(st.result);
        }
        let mut spins = SPIN_ROUNDS;
        while st.generation == my_gen {
            if let Some(rank) = self.sup.failed_rank() {
                return Err(CoreError::PeerFailed { rank });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CoreError::deadlock("barrier participants"));
            }
            // Spin-then-park, as in `Mailbox::match_recv`.
            if spins > 0 {
                spins -= 1;
                MutexGuard::unlocked(&mut st, spin_round);
                continue;
            }
            let slice = (deadline - now).min(poll_slice());
            let _ = self.cond.wait_for(&mut st, slice);
        }
        Ok(st.result)
    }
}

/// The world context id.
pub(crate) const WORLD_CONTEXT: u64 = 0;

/// A pending `split` exchange: each participant's `(color, key)`.
#[derive(Default)]
pub(crate) struct SplitSlot {
    pub entries: Vec<Option<(i64, i64)>>,
    pub filled: usize,
}

/// All state shared between the ranks of one [`crate::Universe`] run.
pub(crate) struct Fabric {
    pub nranks: usize,
    pub platform: Platform,
    pub mailboxes: Vec<Mailbox>,
    /// Per-context barriers; context 0 is the world.
    pub barriers: Mutex<HashMap<u64, Arc<SimBarrier>>>,
    /// Registered one-sided windows, keyed by `(context, sequence)`.
    pub windows: Mutex<HashMap<(u64, usize), Arc<WindowState>>>,
    /// In-progress split exchanges, keyed by `(parent context, sequence)`.
    pub splits: Mutex<HashMap<(u64, u64), SplitSlot>>,
    /// Health state: poison flag, deadlock timeout, watchdog bookkeeping.
    pub supervision: Arc<Supervision>,
    /// Reusable payload staging buffers shared by all ranks.
    pub pool: Arc<PayloadPool>,
    /// Oracle-mode per-rank virtual-clock monotonicity ledger.
    pub clock_ledger: ClockLedger,
}

impl Fabric {
    pub fn new(platform: Platform, nranks: usize) -> Arc<Fabric> {
        let supervision = Supervision::new(nranks, platform.effective_deadlock_timeout());
        let mut barriers = HashMap::new();
        barriers.insert(
            WORLD_CONTEXT,
            Arc::new(SimBarrier::new(nranks, Arc::clone(&supervision))),
        );
        Arc::new(Fabric {
            nranks,
            mailboxes: (0..nranks).map(|_| Mailbox::new(Arc::clone(&supervision))).collect(),
            barriers: Mutex::new(barriers),
            windows: Mutex::new(HashMap::new()),
            splits: Mutex::new(HashMap::new()),
            supervision,
            platform,
            pool: PayloadPool::new(),
            clock_ledger: ClockLedger::new(nranks),
        })
    }

    /// The barrier of a context (must exist).
    pub fn barrier_of(&self, context: u64) -> Arc<SimBarrier> {
        Arc::clone(self.barriers.lock().get(&context).expect("context barrier"))
    }

    /// Per-rank diagnostics for watchdog reports: what each rank is
    /// blocked on, the last operation it started, and its queued mailbox
    /// envelopes.
    pub fn diagnostics(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("fabric state at timeout:");
        for rank in 0..self.nranks {
            let _ = write!(out, "\n  rank {rank}: ");
            match self.supervision.blocked_on(rank) {
                Some(what) => {
                    let _ = write!(out, "blocked on {what}");
                }
                None => out.push_str("running"),
            }
            if let Some(op) = self.supervision.last_op_of(rank) {
                let _ = write!(out, "; last op {}", op.kind);
                if let Some(peer) = op.peer {
                    let _ = write!(out, " peer {peer}");
                }
                let _ = write!(out, " ({} B)", op.bytes);
            }
            let queued = self.mailboxes[rank].snapshot();
            if queued.is_empty() {
                out.push_str("; mailbox empty");
            } else {
                let _ = write!(out, "; mailbox [");
                for (i, (ctx, src, tag, len)) in queued.iter().take(8).enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "ctx {ctx} src {src} tag {tag} len {len}");
                }
                if queued.len() > 8 {
                    let _ = write!(out, ", +{} more", queued.len() - 8);
                }
                out.push(']');
            }
        }
        out
    }

    /// Attach diagnostics to a bare [`CoreError::Deadlock`]; other errors
    /// pass through untouched.
    pub fn enrich(&self, e: CoreError) -> CoreError {
        match e {
            CoreError::Deadlock { waiting_for, report } if report.is_empty() => {
                CoreError::Deadlock { waiting_for, report: self.diagnostics() }
            }
            other => other,
        }
    }
}

/// Create the rendezvous back-channel.
pub(crate) fn reply_channel() -> (Sender<f64>, Receiver<f64>) {
    bounded(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup() -> Arc<Supervision> {
        Supervision::new(4, Duration::from_secs(5))
    }

    fn env(src: usize, tag: i32) -> Envelope {
        Envelope {
            context: WORLD_CONTEXT,
            src,
            tag,
            payload: Payload::Whole(PooledBuf::detached(Vec::new())),
            sig: Signature::empty(),
            protocol: Protocol::Eager { avail: 0.0 },
            iov: false,
            bsend_release: None,
        }
    }

    #[test]
    fn payload_pool_reuses_allocations() {
        let pool = PayloadPool::new();
        let mut a = pool.take(1024);
        a[5] = 7;
        let ptr = a.as_ptr();
        let cap_ok = a.len() == 1024;
        assert!(cap_ok);
        drop(a);
        // Next take of equal-or-smaller size reuses the same allocation.
        let b = pool.take(512);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), 512);
        drop(b);
        // Detached buffers never enter the pool.
        drop(PooledBuf::detached(vec![1, 2, 3]));
        let c = pool.take(8);
        assert_eq!(c.as_ptr(), ptr);
    }

    #[test]
    fn empty_take_keeps_a_large_buffer_initialized() {
        const MIB: usize = 1 << 20;
        let pool = PayloadPool::new();
        let mut a = pool.take(MIB);
        a.fill(0x5A);
        let ptr = a.as_ptr();
        drop(a);
        // A zero-byte message borrows the buffer and gives it back...
        drop(pool.take(0));
        // ...without shrinking it: the next large take reuses the same
        // allocation, contents untouched, with no memset.
        let b = pool.take(MIB);
        assert_eq!(b.as_ptr(), ptr);
        assert_eq!(b.len(), MIB);
        assert!(b.iter().all(|&x| x == 0x5A));
    }

    #[test]
    fn take_picks_the_best_fit() {
        let pool = PayloadPool::new();
        let (big, small) = (pool.take(4096), pool.take(64));
        let (big_ptr, small_ptr) = (big.as_ptr(), small.as_ptr());
        drop(big);
        drop(small);
        // The smallest buffer that fits, so a small message never takes
        // the large buffer from a large one.
        let s = pool.take(32);
        assert_eq!(s.as_ptr(), small_ptr);
        let b = pool.take(1024);
        assert_eq!(b.as_ptr(), big_ptr);
    }

    #[test]
    fn lease_claim_and_revoke_exclude_each_other() {
        let buf: Vec<u8> = (0..16).collect();
        let t = Datatype::byte();
        // A revoked lease can no longer be claimed.
        let (lease, ticket) = Lease::new(&buf, 0, &t, 16, 16);
        let (tx, rx) = reply_channel();
        let failed = ticket.settle(Err(CoreError::PeerFailed { rank: 1 }), &rx);
        assert!(matches!(failed, Err(CoreError::PeerFailed { rank: 1 })));
        assert!(lease.claim(Some((tx, 1.0))).is_none());
        // A failed wait on a claimed lease waits for the copy and takes
        // the completion the receiver's guard sends.
        let (lease, ticket) = Lease::new(&buf, 0, &t, 16, 16);
        let (tx, rx) = reply_channel();
        let claimed = lease.claim(Some((tx, 2.0))).expect("posted lease");
        assert_eq!(claimed.src(), &buf[..]);
        let copied = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let copier = {
            let copied = Arc::clone(&copied);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                copied.store(true, Ordering::Release);
                drop(claimed);
            })
        };
        let settled = ticket.settle(Err(CoreError::PeerFailed { rank: 1 }), &rx);
        assert!(copied.load(Ordering::Acquire), "settled before the copy finished");
        assert!(matches!(settled, Ok(t) if t == 2.0), "{settled:?}");
        copier.join().unwrap();
    }

    #[test]
    fn poisoned_buffer_is_never_recycled() {
        let pool = PayloadPool::new();
        let mut a = pool.take(256);
        let poisoned_ptr = a.as_ptr() as usize;
        a.poison();
        drop(a);
        // The quarantined allocation must never come back out of the pool.
        assert!(pool.is_quarantined(poisoned_ptr));
        for _ in 0..32 {
            let b = pool.take(256);
            assert_ne!(b.as_ptr() as usize, poisoned_ptr);
        }
        // Healthy buffers still recycle as before.
        let c = pool.take(64);
        let healthy_ptr = c.as_ptr();
        drop(c);
        assert_eq!(pool.take(64).as_ptr(), healthy_ptr);
    }

    #[test]
    fn quarantine_is_bounded() {
        let pool = PayloadPool::new();
        for _ in 0..(PayloadPool::QUARANTINE_CAP + 10) {
            let mut b = PooledBuf {
                buf: vec![0u8; 32],
                len: 32,
                pool: Some(Arc::clone(&pool)),
                poisoned: false,
            };
            b.poison();
            drop(b);
        }
        assert_eq!(pool.quarantine.lock().len(), PayloadPool::QUARANTINE_CAP);
    }

    #[test]
    fn fault_stats_absorb_and_demotions() {
        let mut a = FaultStats { pipeline_demotions: 2, pool_exhaustions: 1, ..Default::default() };
        let b = FaultStats {
            plan_fallbacks: 3,
            serial_fallbacks: 4,
            iovec_demotions: 6,
            chunk_retries: 5,
            timeouts: 1,
            cancels: 2,
            recv_crashes: 1,
            link_degradations: 7,
            ..Default::default()
        };
        a.absorb(b);
        assert_eq!(a.demotions(), 2 + 1 + 3 + 4 + 6);
        assert_eq!(a.chunk_retries, 5);
        assert_eq!(a.timeouts, 1);
        assert_eq!(a.cancels, 2);
        assert_eq!(a.recv_crashes, 1);
        assert_eq!(a.link_degradations, 7);
        assert!(!a.is_zero());
        assert!(FaultStats::default().is_zero());
    }

    #[test]
    fn mailbox_matches_by_source_and_tag() {
        let mb = Mailbox::new(sup());
        mb.push(env(0, 1));
        mb.push(env(1, 2));
        let got = mb.match_recv(WORLD_CONTEXT, Some(1), Some(2)).unwrap();
        assert_eq!((got.src, got.tag), (1, 2));
        let got = mb.match_recv(WORLD_CONTEXT, None, None).unwrap();
        assert_eq!((got.src, got.tag), (0, 1));
    }

    #[test]
    fn mailbox_preserves_order_per_source() {
        let mb = Mailbox::new(sup());
        mb.push(env(0, 7));
        mb.push(env(0, 7));
        // Same source and tag: FIFO
        let _ = mb.match_recv(WORLD_CONTEXT, Some(0), Some(7)).unwrap();
        assert!(mb.probe(WORLD_CONTEXT, Some(0), Some(7)));
    }

    #[test]
    fn mailbox_wakes_blocked_receiver() {
        let mb = Arc::new(Mailbox::new(sup()));
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.match_recv(WORLD_CONTEXT, Some(3), None).unwrap());
        std::thread::sleep(Duration::from_millis(20));
        mb.push(env(3, 0));
        let got = h.join().unwrap();
        assert_eq!(got.src, 3);
    }

    #[test]
    fn probe_does_not_consume() {
        let mb = Mailbox::new(sup());
        mb.push(env(2, 9));
        assert!(mb.probe(WORLD_CONTEXT, Some(2), Some(9)));
        assert!(mb.probe(WORLD_CONTEXT, Some(2), Some(9)));
        assert!(!mb.probe(WORLD_CONTEXT, Some(2), Some(8)));
    }

    #[test]
    fn barrier_combines_clocks() {
        let b = Arc::new(SimBarrier::new(3, sup()));
        let mut handles = Vec::new();
        for t in [1.0, 5.0, 3.0] {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || b.wait(t).unwrap()));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 5.0);
        }
    }

    #[test]
    fn barrier_reusable_across_generations() {
        let b = Arc::new(SimBarrier::new(2, sup()));
        for round in 0..5 {
            let b1 = Arc::clone(&b);
            let b2 = Arc::clone(&b);
            let base = round as f64 * 10.0;
            let h1 = std::thread::spawn(move || b1.wait(base + 1.0).unwrap());
            let h2 = std::thread::spawn(move || b2.wait(base + 2.0).unwrap());
            assert_eq!(h1.join().unwrap(), base + 2.0);
            assert_eq!(h2.join().unwrap(), base + 2.0);
        }
    }
}
