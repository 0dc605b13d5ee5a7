//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a pure, seeded description of every fault a run will
//! see: transient send failures, delivery delays, payload corruption, a
//! scheduled rank crash, and persistent per-message failures. Decisions are
//! *stateless* — each is a SplitMix64 hash of `(seed, rank, op index)` (the
//! same generator family as [`crate::Jitter`]) — so the schedule is
//! bit-identical across runs and independent of thread interleaving. The
//! plan rides on [`crate::Platform`], which every layer of the stack
//! already carries, so the runtime, the schemes, and the benchmark
//! binaries all see the same schedule.

/// Mix a set of words into a SplitMix64-style hash.
#[inline]
fn mix(words: &[u64]) -> u64 {
    let mut z = 0x9E37_79B9_7F4A_7C15u64;
    for &w in words {
        z = z.wrapping_add(w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// Uniform in [0, 1) from a hash word.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A scheduled hard crash of one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPoint {
    /// World rank that crashes.
    pub rank: usize,
    /// The crash fires when the rank begins its `after_ops`-th tracked
    /// operation (sends and receives count; 0 = the very first).
    pub after_ops: u64,
}

/// A persistent (non-retryable) send failure on a byte-size band.
///
/// Sends from `rank` whose packed payload size falls in
/// `[min_bytes, max_bytes]` fail on every attempt — the retry policy
/// cannot absorb them. This is how a sweep test kills exactly one
/// (scheme, size) point: pick the band around one message size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistentFault {
    /// World rank whose sends fail.
    pub rank: usize,
    /// Smallest affected payload, bytes (inclusive).
    pub min_bytes: u64,
    /// Largest affected payload, bytes (inclusive).
    pub max_bytes: u64,
}

/// A sustained link-degradation burst: every send whose op index falls in
/// `[first_op, last_op]` pays `factor`× the platform's base latency
/// instead of 1× (the surcharge is exact, so virtual time stays
/// deterministic). Models a congested or flapping link rather than the
/// single-delivery hiccups of `delay_prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// First affected op index (inclusive).
    pub first_op: u64,
    /// Last affected op index (inclusive).
    pub last_op: u64,
    /// Latency multiplier applied during the burst (must be ≥ 1).
    pub factor: f64,
}

/// The faults decided for one notional chunk.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChunkFault {
    /// Corrupt one byte of the chunk in flight.
    pub corrupt: bool,
    /// Drop the chunk entirely (it must be re-packed and re-sent).
    pub drop: bool,
}

/// The notional chunk schedule of the chunk-fault forecast: a blocking
/// non-contiguous rendezvous of at least `threshold_bytes` is cut into
/// instance-aligned chunks of about `chunk_bytes`, and each chunk draws
/// its own [`ChunkFault`]. No payload moves in chunks; the schedule only
/// keys the chunk rungs of the degradation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSchedule {
    /// Smallest packed payload, bytes, the forecast applies to.
    pub threshold_bytes: u64,
    /// Target chunk size, bytes (each cut is aligned down to a pack-plan
    /// block boundary).
    pub chunk_bytes: u64,
}

impl Default for ChunkSchedule {
    /// 4 MiB threshold, 2 MiB chunks.
    fn default() -> Self {
        ChunkSchedule { threshold_bytes: 4 << 20, chunk_bytes: 2 << 20 }
    }
}

impl ChunkFault {
    /// Whether this chunk is faulted at all.
    pub fn is_faulty(&self) -> bool {
        self.corrupt || self.drop
    }
}

/// The faults decided for one send operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SendFault {
    /// Number of consecutive transient failures before the send goes
    /// through; `u32::MAX` means the failure is persistent.
    pub transient_failures: u32,
    /// Extra virtual delivery delay, seconds (0 = none).
    pub delay: f64,
    /// Corrupt one payload byte (exercises the receiver's verify path).
    pub corrupt: bool,
}

impl SendFault {
    /// Whether this decision injects anything at all.
    pub fn is_clean(&self) -> bool {
        self.transient_failures == 0 && self.delay == 0.0 && !self.corrupt
    }

    /// Whether the failure outlasts any bounded retry policy.
    pub fn is_persistent(&self) -> bool {
        self.transient_failures == u32::MAX
    }
}

/// A deterministic, seeded schedule of injected faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the decision hash; two plans with the same seed and knobs
    /// produce bit-identical schedules.
    pub seed: u64,
    /// Probability that a send suffers at least one transient failure.
    /// Consecutive failures are geometric: `p^k` for `k` in a row.
    pub send_fail_prob: f64,
    /// Probability that a delivery is delayed by `delay_seconds`.
    pub delay_prob: f64,
    /// Virtual delay added to an affected delivery, seconds.
    pub delay_seconds: f64,
    /// Probability that a payload byte is corrupted in flight.
    pub corrupt_prob: f64,
    /// Scheduled hard crash of one rank, if any.
    pub crash: Option<CrashPoint>,
    /// Persistent send failure band, if any.
    pub persistent: Option<PersistentFault>,
    /// Probability that a notional chunk is corrupted in flight (v2).
    pub chunk_corrupt_prob: f64,
    /// Probability that a notional chunk is dropped in flight (v2).
    pub chunk_drop_prob: f64,
    /// The chunk cuts those two probabilities apply to.
    pub chunk_schedule: ChunkSchedule,
    /// Probability that the payload pool is exhausted when a send asks
    /// for a pooled buffer, forcing an owned-buffer fallback (v2).
    pub pool_exhaust_prob: f64,
    /// Probability that compiling/allocating a pack plan fails, forcing
    /// the uncompiled (interpreter) path (v2).
    pub plan_fail_prob: f64,
    /// Probability that a parallel-pack worker fails, forcing the serial
    /// pack kernel (v2).
    pub pack_worker_fail_prob: f64,
    /// Sustained link-degradation burst, if any (v2).
    pub degrade: Option<LinkDegradation>,
    /// Scheduled receiver-side crash mid-stream, if any (v2). Unlike
    /// [`FaultPlan::crash`] this fires on the receive path and surfaces
    /// as a typed error on both sides rather than a panic.
    pub recv_crash: Option<CrashPoint>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a builder base).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            send_fail_prob: 0.0,
            delay_prob: 0.0,
            delay_seconds: 0.0,
            corrupt_prob: 0.0,
            crash: None,
            persistent: None,
            chunk_corrupt_prob: 0.0,
            chunk_drop_prob: 0.0,
            chunk_schedule: ChunkSchedule::default(),
            pool_exhaust_prob: 0.0,
            plan_fail_prob: 0.0,
            pack_worker_fail_prob: 0.0,
            degrade: None,
            recv_crash: None,
        }
    }

    /// The standard chaos mix driven by one seed: occasional transient
    /// send failures, delivery delays, and the recoverable v2 faults —
    /// forecast chunk corruption/drops, pool exhaustion, plan-compile
    /// failures, and parallel-pack worker failures (all of which the
    /// runtime absorbs by demoting to a slower-but-correct path).
    /// Payload corruption and crashes stay off by default because they
    /// abort the affected universe; enable them explicitly with
    /// [`FaultPlan::with_corruption`] / [`FaultPlan::with_crash`] /
    /// [`FaultPlan::with_recv_crash`].
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            send_fail_prob: 0.05,
            delay_prob: 0.05,
            delay_seconds: 20e-6,
            corrupt_prob: 0.0,
            crash: None,
            persistent: None,
            chunk_corrupt_prob: 0.02,
            chunk_drop_prob: 0.02,
            chunk_schedule: ChunkSchedule::default(),
            pool_exhaust_prob: 0.05,
            plan_fail_prob: 0.02,
            pack_worker_fail_prob: 0.02,
            degrade: None,
            recv_crash: None,
        }
    }

    /// Builder: set the transient send-failure probability.
    pub fn with_send_failures(mut self, prob: f64) -> FaultPlan {
        self.send_fail_prob = prob;
        self
    }

    /// Builder: set the delivery-delay probability and magnitude.
    pub fn with_delays(mut self, prob: f64, seconds: f64) -> FaultPlan {
        self.delay_prob = prob;
        self.delay_seconds = seconds;
        self
    }

    /// Builder: set the payload-corruption probability.
    pub fn with_corruption(mut self, prob: f64) -> FaultPlan {
        self.corrupt_prob = prob;
        self
    }

    /// Builder: schedule a hard crash.
    pub fn with_crash(mut self, rank: usize, after_ops: u64) -> FaultPlan {
        self.crash = Some(CrashPoint { rank, after_ops });
        self
    }

    /// Builder: make sends from `rank` of sizes in
    /// `[min_bytes, max_bytes]` fail persistently.
    pub fn with_persistent_failure(
        mut self,
        rank: usize,
        min_bytes: u64,
        max_bytes: u64,
    ) -> FaultPlan {
        self.persistent = Some(PersistentFault { rank, min_bytes, max_bytes });
        self
    }

    /// Builder: set the per-chunk corruption and drop probabilities.
    pub fn with_chunk_faults(mut self, corrupt_prob: f64, drop_prob: f64) -> FaultPlan {
        self.chunk_corrupt_prob = corrupt_prob;
        self.chunk_drop_prob = drop_prob;
        self
    }

    /// Builder: forecast chunk faults from `threshold_bytes` up, over
    /// chunks of about `chunk_bytes` (at least one byte).
    pub fn with_chunk_schedule(mut self, threshold_bytes: u64, chunk_bytes: u64) -> FaultPlan {
        self.chunk_schedule = ChunkSchedule { threshold_bytes, chunk_bytes: chunk_bytes.max(1) };
        self
    }

    /// Builder: set the payload-pool exhaustion probability.
    pub fn with_pool_exhaustion(mut self, prob: f64) -> FaultPlan {
        self.pool_exhaust_prob = prob;
        self
    }

    /// Builder: set the pack-plan compile/allocation failure probability.
    pub fn with_plan_failures(mut self, prob: f64) -> FaultPlan {
        self.plan_fail_prob = prob;
        self
    }

    /// Builder: set the parallel-pack worker failure probability.
    pub fn with_pack_worker_failures(mut self, prob: f64) -> FaultPlan {
        self.pack_worker_fail_prob = prob;
        self
    }

    /// Builder: sustain a link-degradation burst of `factor`× latency
    /// over op indices `[first_op, last_op]` (inclusive).
    pub fn with_link_degradation(
        mut self,
        first_op: u64,
        last_op: u64,
        factor: f64,
    ) -> FaultPlan {
        self.degrade = Some(LinkDegradation { first_op, last_op, factor });
        self
    }

    /// Builder: schedule a receiver-side crash mid-stream.
    pub fn with_recv_crash(mut self, rank: usize, after_ops: u64) -> FaultPlan {
        self.recv_crash = Some(CrashPoint { rank, after_ops });
        self
    }

    /// Decide the faults of send number `op` on world rank `rank` with a
    /// `bytes`-sized packed payload. Pure: the same arguments always
    /// return the same decision.
    pub fn send_decision(&self, rank: usize, op: u64, bytes: u64) -> SendFault {
        if let Some(p) = &self.persistent {
            if p.rank == rank && (p.min_bytes..=p.max_bytes).contains(&bytes) {
                return SendFault { transient_failures: u32::MAX, delay: 0.0, corrupt: false };
            }
        }
        let mut f = SendFault::default();
        if self.send_fail_prob > 0.0 {
            // Geometric run of consecutive transient failures, decided in
            // one draw so the count is deterministic per (rank, op).
            let u = unit(mix(&[self.seed, rank as u64, op, 1]));
            let mut k = 0u32;
            let mut threshold = self.send_fail_prob;
            while u < threshold && k < 16 {
                k += 1;
                threshold *= self.send_fail_prob;
            }
            f.transient_failures = k;
        }
        if self.delay_prob > 0.0 && unit(mix(&[self.seed, rank as u64, op, 2])) < self.delay_prob
        {
            f.delay = self.delay_seconds;
        }
        if self.corrupt_prob > 0.0
            && unit(mix(&[self.seed, rank as u64, op, 3])) < self.corrupt_prob
        {
            f.corrupt = true;
        }
        f
    }

    /// Byte index to flip when a `bytes`-sized payload is corrupted.
    pub fn corrupt_index(&self, rank: usize, op: u64, bytes: usize) -> usize {
        if bytes == 0 {
            return 0;
        }
        (mix(&[self.seed, rank as u64, op, 4]) as usize) % bytes
    }

    /// Whether `rank` should crash when starting tracked operation `op`.
    pub fn should_crash(&self, rank: usize, op: u64) -> bool {
        matches!(self.crash, Some(c) if c.rank == rank && op >= c.after_ops)
    }

    /// Decide the faults of notional chunk number `chunk` of send `op` on
    /// world rank `rank`. Pure: keyed on `(seed, rank, op, chunk)`.
    pub fn chunk_decision(&self, rank: usize, op: u64, chunk: u64) -> ChunkFault {
        let mut f = ChunkFault::default();
        if self.chunk_corrupt_prob > 0.0
            && unit(mix(&[self.seed, rank as u64, op, chunk, 5])) < self.chunk_corrupt_prob
        {
            f.corrupt = true;
        }
        if self.chunk_drop_prob > 0.0
            && unit(mix(&[self.seed, rank as u64, op, chunk, 6])) < self.chunk_drop_prob
        {
            f.drop = true;
        }
        f
    }

    /// Whether the payload pool is exhausted when send `op` on `rank`
    /// asks for a pooled staging buffer.
    pub fn pool_exhausted(&self, rank: usize, op: u64) -> bool {
        self.pool_exhaust_prob > 0.0
            && unit(mix(&[self.seed, rank as u64, op, 7])) < self.pool_exhaust_prob
    }

    /// Whether compiling/allocating the pack plan fails for send `op` on
    /// `rank` (forcing the uncompiled monolithic path).
    pub fn plan_compile_fails(&self, rank: usize, op: u64) -> bool {
        self.plan_fail_prob > 0.0
            && unit(mix(&[self.seed, rank as u64, op, 8])) < self.plan_fail_prob
    }

    /// Whether a parallel-pack worker fails for send `op` on `rank`
    /// (forcing the serial pack kernel).
    pub fn pack_worker_fails(&self, rank: usize, op: u64) -> bool {
        self.pack_worker_fail_prob > 0.0
            && unit(mix(&[self.seed, rank as u64, op, 10])) < self.pack_worker_fail_prob
    }

    /// Latency multiplier in force for op index `op` (1.0 when no burst
    /// is active). Always ≥ 1 — sub-unit factors are clamped.
    pub fn latency_factor(&self, op: u64) -> f64 {
        match self.degrade {
            Some(d) if (d.first_op..=d.last_op).contains(&op) => d.factor.max(1.0),
            _ => 1.0,
        }
    }

    /// Whether `rank` should crash when starting *receive* operation
    /// `op` (the receiver-side mid-stream crash).
    pub fn should_crash_recv(&self, rank: usize, op: u64) -> bool {
        matches!(self.recv_crash, Some(c) if c.rank == rank && op >= c.after_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_is_clean() {
        let p = FaultPlan::quiet(7);
        for op in 0..200 {
            assert!(p.send_decision(0, op, 1024).is_clean());
            assert!(!p.should_crash(0, op));
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::chaos(42);
        let b = FaultPlan::chaos(42);
        for rank in 0..4 {
            for op in 0..100 {
                assert_eq!(a.send_decision(rank, op, 4096), b.send_decision(rank, op, 4096));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::chaos(1).with_send_failures(0.5);
        let b = FaultPlan::chaos(2).with_send_failures(0.5);
        let same = (0..64)
            .filter(|&op| a.send_decision(0, op, 64) == b.send_decision(0, op, 64))
            .count();
        assert!(same < 64, "two seeds should not agree everywhere");
    }

    #[test]
    fn failure_rate_tracks_probability() {
        let p = FaultPlan::quiet(9).with_send_failures(0.3);
        let n = 10_000;
        let failures = (0..n)
            .filter(|&op| p.send_decision(1, op, 128).transient_failures > 0)
            .count();
        let rate = failures as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed rate {rate}");
    }

    #[test]
    fn persistent_band_matches_size_and_rank() {
        let p = FaultPlan::quiet(3).with_persistent_failure(0, 1024, 2047);
        assert!(p.send_decision(0, 5, 1024).is_persistent());
        assert!(p.send_decision(0, 5, 2047).is_persistent());
        assert!(!p.send_decision(0, 5, 2048).is_persistent());
        assert!(!p.send_decision(0, 5, 0).is_persistent());
        assert!(!p.send_decision(1, 5, 1500).is_persistent());
    }

    #[test]
    fn crash_fires_at_and_after_threshold() {
        let p = FaultPlan::quiet(0).with_crash(2, 10);
        assert!(!p.should_crash(2, 9));
        assert!(p.should_crash(2, 10));
        assert!(p.should_crash(2, 11));
        assert!(!p.should_crash(1, 10));
    }

    #[test]
    fn corrupt_index_in_bounds() {
        let p = FaultPlan::chaos(5).with_corruption(1.0);
        for op in 0..100 {
            let i = p.corrupt_index(0, op, 777);
            assert!(i < 777);
        }
        assert_eq!(p.corrupt_index(0, 0, 0), 0);
    }

    #[test]
    fn quiet_plan_has_no_v2_faults() {
        let p = FaultPlan::quiet(11);
        for op in 0..200 {
            assert!(!p.chunk_decision(0, op, 0).is_faulty());
            assert!(!p.pool_exhausted(0, op));
            assert!(!p.plan_compile_fails(0, op));
            assert!(!p.pack_worker_fails(0, op));
            assert_eq!(p.latency_factor(op), 1.0);
            assert!(!p.should_crash_recv(0, op));
        }
    }

    #[test]
    fn chunk_decisions_deterministic_and_per_chunk() {
        let a = FaultPlan::quiet(21).with_chunk_faults(0.5, 0.5);
        let b = FaultPlan::quiet(21).with_chunk_faults(0.5, 0.5);
        let mut differing = 0;
        for op in 0..16 {
            for chunk in 0..32 {
                assert_eq!(a.chunk_decision(1, op, chunk), b.chunk_decision(1, op, chunk));
                if a.chunk_decision(1, op, chunk) != a.chunk_decision(1, op, chunk + 1) {
                    differing += 1;
                }
            }
        }
        assert!(differing > 0, "chunk index must enter the hash");
    }

    #[test]
    fn chunk_fault_rates_track_probabilities() {
        let p = FaultPlan::quiet(33).with_chunk_faults(0.25, 0.1);
        let n = 10_000u64;
        let (mut corrupts, mut drops) = (0, 0);
        for chunk in 0..n {
            let f = p.chunk_decision(0, 7, chunk);
            corrupts += f.corrupt as u64;
            drops += f.drop as u64;
        }
        let cr = corrupts as f64 / n as f64;
        let dr = drops as f64 / n as f64;
        assert!((cr - 0.25).abs() < 0.03, "corrupt rate {cr}");
        assert!((dr - 0.1).abs() < 0.03, "drop rate {dr}");
    }

    #[test]
    fn pool_and_plan_and_worker_rates() {
        let p = FaultPlan::quiet(55)
            .with_pool_exhaustion(0.2)
            .with_plan_failures(0.3)
            .with_pack_worker_failures(0.4);
        let n = 10_000;
        let pool = (0..n).filter(|&op| p.pool_exhausted(2, op)).count() as f64 / n as f64;
        let plan = (0..n).filter(|&op| p.plan_compile_fails(2, op)).count() as f64 / n as f64;
        let work = (0..n).filter(|&op| p.pack_worker_fails(2, op)).count() as f64 / n as f64;
        assert!((pool - 0.2).abs() < 0.03, "pool rate {pool}");
        assert!((plan - 0.3).abs() < 0.03, "plan rate {plan}");
        assert!((work - 0.4).abs() < 0.03, "worker rate {work}");
    }

    #[test]
    fn v2_decisions_are_independent_draws() {
        // Salts must differ: with all probs at 0.5 the four decisions
        // should not be perfectly correlated across ops.
        let p = FaultPlan::quiet(77)
            .with_pool_exhaustion(0.5)
            .with_plan_failures(0.5)
            .with_pack_worker_failures(0.5)
            .with_send_failures(0.5);
        let agree = (0..256)
            .filter(|&op| {
                p.pool_exhausted(0, op) == p.plan_compile_fails(0, op)
                    && p.plan_compile_fails(0, op) == p.pack_worker_fails(0, op)
            })
            .count();
        assert!(agree < 256, "decision salts must decorrelate the draws");
    }

    #[test]
    fn link_degradation_window() {
        let p = FaultPlan::quiet(0).with_link_degradation(10, 19, 4.0);
        assert_eq!(p.latency_factor(9), 1.0);
        assert_eq!(p.latency_factor(10), 4.0);
        assert_eq!(p.latency_factor(19), 4.0);
        assert_eq!(p.latency_factor(20), 1.0);
        // Sub-unit factors never speed the link up.
        let q = FaultPlan::quiet(0).with_link_degradation(0, 5, 0.25);
        assert_eq!(q.latency_factor(3), 1.0);
    }

    #[test]
    fn recv_crash_fires_at_and_after_threshold() {
        let p = FaultPlan::quiet(0).with_recv_crash(1, 4);
        assert!(!p.should_crash_recv(1, 3));
        assert!(p.should_crash_recv(1, 4));
        assert!(p.should_crash_recv(1, 5));
        assert!(!p.should_crash_recv(0, 4));
        // Independent of the sender-side crash schedule.
        assert!(!p.should_crash(1, 4));
    }
}
