//! The per-rank communicator handle.
//!
//! A [`Comm`] is owned by exactly one rank thread. It bundles the rank id,
//! the shared fabric, the rank's virtual clock, its deterministic jitter
//! stream, and the cache-warmth state that models the paper's §4.6
//! flush/no-flush ablation.

use std::sync::Arc;

use nonctg_simnet::{Access, Jitter, Platform, VirtualClock};

use crate::error::{CoreError, Result};
use crate::fabric::{Fabric, FaultStats, SimBarrier, SplitSlot, WORLD_CONTEXT};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::trace::{EventKind, TraceConfig, TraceEvent, TraceStats, Tracer};

/// Tracks whether recently-touched user data is still cache-resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheState {
    /// The caches were just flushed (or never touched).
    Cold,
    /// The working set of the previous operation may still be resident.
    Warm,
}

/// One rank's communicator.
///
/// The world communicator is handed to each rank by
/// [`crate::Universe::run`]; sub-communicators come from [`Comm::split`].
/// A `Comm` created by `split` shares the rank's virtual clock state by
/// *moving* the clock through operations on whichever handle is used —
/// handles of the same rank must not be used concurrently (the borrow
/// checker enforces this: `split` borrows, operations take `&mut self`).
pub struct Comm {
    /// Rank within this communicator.
    rank: usize,
    /// Communicator context id (0 = world).
    context: u64,
    /// Local rank -> global rank map; `None` means identity (the world).
    group: Option<Arc<Vec<usize>>>,
    /// This context's barrier.
    barrier: Arc<SimBarrier>,
    /// Per-context split sequence number (collective call counter).
    split_seq: u64,
    fabric: Arc<Fabric>,
    pub(crate) clock: VirtualClock,
    pub(crate) jitter: Jitter,
    pub(crate) cache: CacheState,
    pub(crate) bsend: Option<crate::p2p::BsendBuffer>,
    pub(crate) next_win_id: usize,
    pub(crate) tracer: Tracer,
    /// Aggregate counters/histograms; boxed so the disabled (`None`) case
    /// costs one pointer in the struct and one branch per operation.
    pub(crate) metrics: Option<Box<MetricsRegistry>>,
    /// Rank-local growable staging buffer, reused across collective calls
    /// (gather/gatherv receive staging) instead of allocating per receive.
    pub(crate) scratch: Vec<u8>,
}

impl Comm {
    pub(crate) fn new(fabric: Arc<Fabric>, rank: usize) -> Comm {
        let seed = fabric.platform.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9);
        let sigma = fabric.platform.jitter_sigma;
        let barrier = fabric.barrier_of(WORLD_CONTEXT);
        Comm {
            rank,
            context: WORLD_CONTEXT,
            group: None,
            barrier,
            split_seq: 0,
            fabric,
            clock: VirtualClock::new(),
            jitter: Jitter::new(seed, sigma),
            cache: CacheState::Cold,
            bsend: None,
            next_win_id: 0,
            tracer: Tracer::default(),
            metrics: None,
            scratch: Vec::new(),
        }
    }

    /// Take the rank-local scratch buffer, grown (never shrunk) to at
    /// least `len` bytes. Return it with [`Comm::put_scratch`] so the
    /// allocation is reused by the next caller. Taking instead of
    /// borrowing keeps `&mut self` free for the operation that fills it.
    pub fn take_scratch(&mut self, len: usize) -> Vec<u8> {
        let mut s = std::mem::take(&mut self.scratch);
        if s.len() < len {
            s.resize(len, 0);
        }
        s
    }

    /// Return a buffer taken with [`Comm::take_scratch`].
    pub fn put_scratch(&mut self, s: Vec<u8>) {
        if s.capacity() > self.scratch.capacity() {
            self.scratch = s;
        }
    }

    /// This rank's id, `0..size()`, within this communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    #[inline]
    pub fn size(&self) -> usize {
        match &self.group {
            Some(g) => g.len(),
            None => self.fabric.nranks,
        }
    }

    /// The communicator's context id (0 for the world).
    #[inline]
    pub fn context(&self) -> u64 {
        self.context
    }

    /// Global (world) rank of a local rank in this communicator.
    #[inline]
    pub(crate) fn global_rank(&self, local: usize) -> usize {
        match &self.group {
            Some(g) => g[local],
            None => local,
        }
    }

    /// This rank's world rank.
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.global_rank(self.rank)
    }

    /// The platform model this universe runs on.
    #[inline]
    pub fn platform(&self) -> &Platform {
        &self.fabric.platform
    }

    pub(crate) fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Current virtual time in seconds — the `MPI_Wtime` equivalent the
    /// ping-pong harness reads.
    #[inline]
    pub fn wtime(&self) -> f64 {
        self.clock.now()
    }

    /// Resolution of [`Comm::wtime`] as `MPI_Wtick` reports it.
    ///
    /// The paper's platforms resolve 1 microsecond; our virtual clock is
    /// exact, so this is metadata for harnesses that want to emulate the
    /// quantization rather than a property of `wtime` itself (see
    /// docs/MODEL.md §3).
    pub fn wtick(&self) -> f64 {
        1e-6
    }

    /// Whether the cache is modeled as warm for the next gather.
    #[inline]
    pub fn cache_state(&self) -> CacheState {
        self.cache
    }

    pub(crate) fn is_warm(&self) -> bool {
        self.cache == CacheState::Warm
    }

    /// Advance the local clock by a jittered model duration.
    pub(crate) fn charge(&mut self, seconds: f64) -> f64 {
        let dt = seconds * self.jitter.factor();
        self.clock.advance(dt);
        dt
    }

    /// Advance the local clock by an exact (unjittered) duration.
    pub(crate) fn charge_exact(&mut self, seconds: f64) {
        self.clock.advance(seconds);
    }

    /// Charge the cost of a *user-space* gather/copy loop of `payload`
    /// bytes with the given access pattern — the paper's "manual copying"
    /// scheme calls this around its real copy loop.
    pub fn charge_copy(&mut self, payload: u64, access: &Access) {
        let t0 = self.clock.now();
        let t = self.platform().gather_time(payload, access, self.is_warm());
        self.charge(t);
        self.cache = CacheState::Warm;
        self.trace(EventKind::Copy, t0, None, payload as usize, None);
    }

    /// Charge the cost of a user-space scatter (the receive-side analogue
    /// of [`Self::charge_copy`]).
    pub fn charge_scatter(&mut self, payload: u64, access: &Access) {
        let t0 = self.clock.now();
        let t = self.platform().scatter_time(payload, access, self.is_warm());
        self.charge(t);
        self.cache = CacheState::Warm;
        self.trace(EventKind::Copy, t0, None, payload as usize, None);
    }

    /// Rewrite a `bytes`-sized array to flush the caches, as the paper does
    /// between ping-pongs (§3.2). Advances the clock (outside any timed
    /// region) and marks the cache cold.
    ///
    /// Charged exactly (no jitter): the flush happens on every rank between
    /// iterations, and jittering it independently per rank would let the
    /// virtual clocks drift apart by far more than a small message takes —
    /// polluting the timings with artificial skew instead of message costs.
    pub fn flush_cache(&mut self, bytes: u64) {
        let t0 = self.clock.now();
        let t = self.platform().flush_time(bytes);
        self.charge_exact(t);
        self.cache = CacheState::Cold;
        self.trace(EventKind::Flush, t0, None, bytes as usize, None);
    }

    /// Synchronize all ranks; clocks advance to the barrier's completion
    /// (the max of all participants plus a small software cost).
    pub fn barrier(&mut self) -> Result<()> {
        let t0 = self.clock.now();
        let barrier = Arc::clone(&self.barrier);
        let me = self.world_rank();
        self.fabric.supervision.set_blocked(me, Some("barrier participants"));
        let res = barrier.wait(t0);
        self.fabric.supervision.set_blocked(me, None);
        let t = res.map_err(|e| self.fabric.enrich(e))?;
        self.clock.sync_to(t);
        self.charge_exact(self.platform().proto.eager_overhead);
        self.trace(EventKind::Barrier, t0, None, 0, None);
        Ok(())
    }

    /// Counters of injected faults this rank has absorbed or surfaced
    /// (all zeros when the platform carries no fault plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.fabric.supervision.fault_stats(self.world_rank())
    }

    /// Start recording a [`TraceEvent`] per operation on this rank, with
    /// ring capacity and sampling read from the environment
    /// (`NONCTG_TRACE_CAP`, `NONCTG_TRACE_SAMPLE`).
    pub fn enable_trace(&mut self) {
        self.tracer.enable();
    }

    /// Start tracing with an explicit [`TraceConfig`].
    pub fn enable_trace_with(&mut self, cfg: TraceConfig) {
        self.tracer.enable_with(cfg);
    }

    /// Stop tracing and return the recorded events.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.take()
    }

    /// Recording counters of the tracer (zeros when tracing is off).
    pub fn trace_stats(&self) -> TraceStats {
        self.tracer.stats()
    }

    /// Start collecting aggregate metrics on this rank (no-op if already
    /// enabled). Costs one branch per operation while enabled or not.
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Box::new(MetricsRegistry::new()));
        }
    }

    /// Whether metrics collection is enabled.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Stop collecting and return this rank's [`MetricsSnapshot`]
    /// (including its fault counters and the plan-cache delta since
    /// [`Comm::enable_metrics`]), or `None` if collection was off.
    pub fn take_metrics(&mut self) -> Option<MetricsSnapshot> {
        let faults = self.fault_stats();
        self.metrics.take().map(|r| r.snapshot(faults))
    }

    /// Record an event ending now (no-op when tracing is off).
    #[inline]
    pub(crate) fn trace(
        &mut self,
        kind: EventKind,
        t_start: f64,
        peer: Option<usize>,
        bytes: usize,
        tag: Option<i32>,
    ) {
        if self.tracer.enabled() {
            let t_end = self.clock.now();
            self.tracer.record(TraceEvent { kind, t_start, t_end, peer, bytes, tag });
        }
        if let Some(m) = &mut self.metrics {
            m.record(kind, self.clock.now() - t_start, bytes);
        }
        // Oracle mode: every traced operation is a monotonicity checkpoint
        // of this rank's virtual clock (shared across split handles).
        self.fabric.clock_ledger.tick(self.world_rank(), self.clock.now());
    }

    /// Validate a peer rank.
    pub(crate) fn check_rank(&self, rank: usize) -> Result<()> {
        if rank >= self.size() {
            Err(CoreError::InvalidRank { rank, size: self.size() })
        } else {
            Ok(())
        }
    }

    /// Duplicate this communicator (`MPI_Comm_dup`): same group and rank
    /// order, fresh context — messages on the duplicate never match the
    /// original. Collective.
    pub fn dup(&mut self) -> Result<Comm> {
        Ok(self
            .split(0, self.rank() as i64)?
            .expect("dup: every rank participates"))
    }

    /// Partition this communicator (`MPI_Comm_split`): ranks passing the
    /// same `color` form a new communicator, ordered by `(key, old rank)`.
    /// A negative `color` (MPI_UNDEFINED) yields `None`. Collective.
    ///
    /// The returned handle continues this rank's timeline: its clock
    /// starts at the parent's current virtual time and then advances
    /// independently (the borrow checker prevents interleaving two handles
    /// of the same rank within one expression; use one communicator at a
    /// time per timing region).
    pub fn split(&mut self, color: i64, key: i64) -> Result<Option<Comm>> {
        let seq = self.split_seq;
        self.split_seq += 1;
        let parent_size = self.size();
        let my_entry = if color < 0 { None } else { Some((color, key)) };

        // Publish (color, key) in the shared slot for this collective.
        {
            let mut splits = self.fabric.splits.lock();
            let slot = splits.entry((self.context, seq)).or_insert_with(|| SplitSlot {
                entries: vec![None; parent_size],
                filled: 0,
            });
            slot.entries[self.rank] = my_entry;
            slot.filled += 1;
        }
        self.barrier()?; // all entries published

        // Deterministically derive the groups (every rank computes the
        // same thing from the same table).
        let entries = {
            let splits = self.fabric.splits.lock();
            splits[&(self.context, seq)].entries.clone()
        };
        self.barrier()?; // everyone has read
        // Last reader cleans up.
        {
            let mut splits = self.fabric.splits.lock();
            if let Some(slot) = splits.get_mut(&(self.context, seq)) {
                slot.filled -= 1;
                if slot.filled == 0 {
                    splits.remove(&(self.context, seq));
                }
            }
        }

        let Some((my_color, my_key)) = my_entry else {
            return Ok(None);
        };

        // Colors in first-appearance order -> deterministic context ids.
        let mut colors: Vec<i64> = Vec::new();
        for e in entries.iter().flatten() {
            if !colors.contains(&e.0) {
                colors.push(e.0);
            }
        }
        let color_index = colors.iter().position(|&c| c == my_color).expect("own color");

        // Members of my color, ordered by (key, parent rank).
        let mut members: Vec<(i64, usize)> = entries
            .iter()
            .enumerate()
            .filter_map(|(r, e)| match e {
                Some((c, k)) if *c == my_color => Some((*k, r)),
                _ => None,
            })
            .collect();
        members.sort_unstable();
        let new_rank = members
            .iter()
            .position(|&(k, r)| (k, r) == (my_key, self.rank))
            .expect("own membership");
        let group: Vec<usize> = members
            .iter()
            .map(|&(_, parent_local)| self.global_rank(parent_local))
            .collect();

        // Deterministic context id per (parent, collective seq, color):
        // every member computes the same id with no extra coordination.
        let base = self.allocate_context(seq, color_index, group.len());
        let barrier = self.fabric.barrier_of(base);
        Ok(Some(Comm {
            rank: new_rank,
            context: base,
            group: Some(Arc::new(group)),
            barrier,
            split_seq: 0,
            fabric: Arc::clone(&self.fabric),
            clock: VirtualClock::starting_at(self.clock.now()),
            jitter: Jitter::new(
                self.fabric.platform.seed
                    ^ (self.world_rank() as u64).wrapping_mul(0x9E37_79B9)
                    ^ (base << 8),
                self.fabric.platform.jitter_sigma,
            ),
            cache: self.cache,
            bsend: None,
            next_win_id: 0,
            tracer: Tracer::default(),
            metrics: None,
            scratch: Vec::new(),
        }))
    }

    /// Deterministic context id for `(parent ctx, seq, color_index)`,
    /// registering its barrier on first use.
    fn allocate_context(&self, seq: u64, color_index: usize, nmembers: usize) -> u64 {
        // A collision-free deterministic id: hash of the triple into the
        // upper id space, far away from the sequential world contexts.
        let mut id = 0xcbf2_9ce4_8422_2325u64;
        for v in [self.context, seq, color_index as u64] {
            id ^= v;
            id = id.wrapping_mul(0x1000_0000_01b3);
        }
        id |= 1 << 63; // never collides with WORLD_CONTEXT
        let mut barriers = self.fabric.barriers.lock();
        barriers.entry(id).or_insert_with(|| {
            Arc::new(SimBarrier::new(nmembers, Arc::clone(&self.fabric.supervision)))
        });
        id
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size())
            .field("wtime", &self.wtime())
            .field("platform", &self.platform().id)
            .finish()
    }
}
