//! The paper's measurement protocol (§3.2), executed per scheme.
//!
//! * 20 ping-pongs (configurable), every one timed individually on rank 0;
//! * the ping is the non-contiguous send, the pong a zero-byte return
//!   message (one-sided transfers are timed fence-to-fence instead);
//! * all buffers allocated and initialized outside the timing loop;
//! * a 50 MB array rewrite between ping-pongs flushes the caches
//!   (disable with [`PingPongConfig::flush`] for the §4.6 ablation);
//! * receivers verify payload bytes (sampled), so every timing result is
//!   also a correctness check.

use nonctg_core::{
    Comm, CoreError, FaultStats, MetricsSnapshot, Result, TraceEvent, Universe,
};
use nonctg_datatype::{as_bytes, Datatype};
use nonctg_simnet::{Access, Platform};

use crate::scheme::Scheme;
use crate::stats::{self, Stats};
use crate::workload::Workload;

/// Tag of ping messages.
pub const PING_TAG: i32 = 1;
/// Tag of pong messages.
pub const PONG_TAG: i32 = 2;

/// Configuration of one measurement (paper defaults).
#[derive(Debug, Clone)]
pub struct PingPongConfig {
    /// Ping-pongs per measurement (the paper uses 20).
    pub reps: usize,
    /// Rewrite a large array between ping-pongs to flush caches (§3.2).
    pub flush: bool,
    /// Size of the flush array (the paper uses 50 M).
    pub flush_bytes: u64,
    /// Verify received payloads (sampled positions).
    pub verify: bool,
}

impl Default for PingPongConfig {
    fn default() -> Self {
        PingPongConfig { reps: 20, flush: true, flush_bytes: 50_000_000, verify: true }
    }
}

impl PingPongConfig {
    /// Reduce repetitions for very large messages so the harness's
    /// wall-clock stays sane; virtual-time results are unaffected.
    pub fn adaptive(mut self, msg_bytes: usize) -> Self {
        self.reps = if msg_bytes <= (4 << 20) {
            self.reps
        } else if msg_bytes <= (64 << 20) {
            self.reps.min(5)
        } else {
            self.reps.min(3)
        };
        self
    }
}

/// Result of measuring one (scheme, workload) point.
#[derive(Debug, Clone)]
pub struct PingPongResult {
    /// Which scheme ran.
    pub scheme: Scheme,
    /// Message payload in bytes.
    pub msg_bytes: usize,
    /// Individually-timed ping-pong durations (virtual seconds).
    pub times: Vec<f64>,
    /// Injected-fault counters summed across every rank of the
    /// measurement universe (all zeros without a fault plan).
    pub faults: FaultStats,
}

impl PingPongResult {
    /// The paper's summary: outlier-rejected mean per ping-pong.
    pub fn stats(&self) -> Stats {
        stats::summarize(&self.times)
    }

    /// Mean time per ping-pong.
    pub fn time(&self) -> f64 {
        self.stats().mean
    }

    /// Effective bandwidth (payload bytes over mean one-way... the paper
    /// divides message size by ping-pong time).
    pub fn bandwidth(&self) -> f64 {
        stats::bandwidth(self.msg_bytes, self.time())
    }
}

/// Strided access pattern of a workload's source array.
fn access_of(w: &Workload) -> Access {
    Access::Strided {
        blocklen: (w.blocklen * Workload::ELEM) as u64,
        stride: (w.stride * Workload::ELEM) as u64,
    }
}

/// Why a measurement failed: the errors of every rank that did not
/// complete (a panicking rank shows up as
/// [`CoreError::RankPanicked`]; its peers typically as
/// [`CoreError::PeerFailed`]).
#[derive(Debug, Clone)]
pub struct MeasureError {
    /// `(rank, error)` of every failed rank, in rank order.
    pub failures: Vec<(usize, CoreError)>,
}

impl MeasureError {
    /// The most informative failure: the first that is not a secondary
    /// [`CoreError::PeerFailed`], falling back to the first overall.
    pub fn root_cause(&self) -> &(usize, CoreError) {
        self.failures
            .iter()
            .find(|(_, e)| !matches!(e, CoreError::PeerFailed { .. }))
            .unwrap_or(&self.failures[0])
    }
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (rank, e) = self.root_cause();
        write!(f, "measurement failed on rank {rank}: {e}")?;
        if self.failures.len() > 1 {
            write!(f, " ({} ranks failed in total)", self.failures.len())?;
        }
        Ok(())
    }
}

impl std::error::Error for MeasureError {}

/// Measure one scheme on one workload. Spawns a fresh two-rank universe.
///
/// # Panics
/// Panics if the measurement fails (injected faults, deadlock); use
/// [`try_run_scheme`] to handle failures.
pub fn run_scheme(
    platform: &Platform,
    scheme: Scheme,
    workload: &Workload,
    cfg: &PingPongConfig,
) -> PingPongResult {
    run_scheme_pairs(platform, scheme, workload, cfg, 1)
}

/// Fallible [`run_scheme`]: a failing rank (injected fault, deadlock,
/// corruption caught by verification) yields an error instead of a panic.
pub fn try_run_scheme(
    platform: &Platform,
    scheme: Scheme,
    workload: &Workload,
    cfg: &PingPongConfig,
) -> std::result::Result<PingPongResult, MeasureError> {
    try_run_scheme_pairs(platform, scheme, workload, cfg, 1)
}

/// Measure one scheme with `npairs` simultaneously-communicating rank
/// pairs on one node (rank 2i pings rank 2i+1) — the paper's §4.7
/// "all processes on a node communicate" check. Returns the times of
/// pair 0; with no modeled NIC contention, all pairs agree.
///
/// # Panics
/// Panics if the measurement fails; use [`try_run_scheme_pairs`] to
/// handle failures.
pub fn run_scheme_pairs(
    platform: &Platform,
    scheme: Scheme,
    workload: &Workload,
    cfg: &PingPongConfig,
    npairs: usize,
) -> PingPongResult {
    try_run_scheme_pairs(platform, scheme, workload, cfg, npairs)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`run_scheme_pairs`]: runs the universe supervised, so a
/// failing rank poisons the fabric and every rank returns promptly; the
/// collected per-rank errors come back as a [`MeasureError`].
pub fn try_run_scheme_pairs(
    platform: &Platform,
    scheme: Scheme,
    workload: &Workload,
    cfg: &PingPongConfig,
    npairs: usize,
) -> std::result::Result<PingPongResult, MeasureError> {
    try_run_scheme_pairs_observed(platform, scheme, workload, cfg, npairs, Observe::OFF)
        .map(|run| run.result)
}

/// What [`try_run_scheme_observed`] collects alongside the timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observe {
    /// Record a [`TraceEvent`] per operation on every rank.
    pub trace: bool,
    /// Collect aggregate metrics (counters/histograms) on every rank.
    pub metrics: bool,
}

impl Observe {
    /// Collect nothing — behaves exactly like [`try_run_scheme`].
    pub const OFF: Observe = Observe { trace: false, metrics: false };
    /// Collect event traces only.
    pub const TRACE: Observe = Observe { trace: true, metrics: false };
    /// Collect traces and metrics.
    pub const ALL: Observe = Observe { trace: true, metrics: true };
}

/// A measurement plus the observability artifacts it produced.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The timings, as [`try_run_scheme`] would return them.
    pub result: PingPongResult,
    /// Per-rank event streams (empty unless [`Observe::trace`]); index =
    /// rank in the measurement universe.
    pub events: Vec<Vec<TraceEvent>>,
    /// Rank 0's timed windows, one per rep: `(t_start, t_end)` in virtual
    /// seconds, exactly the spans whose lengths are
    /// [`PingPongResult::times`].
    pub windows: Vec<(f64, f64)>,
    /// Merged metrics of every rank (`None` unless [`Observe::metrics`]).
    pub metrics: Option<MetricsSnapshot>,
}

impl ObservedRun {
    /// Earliest event start and latest event end across every rank's
    /// trace, or `None` when no events were recorded. This is the
    /// interval a whole-run critical path must tile.
    pub fn trace_span(&self) -> Option<(f64, f64)> {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for e in self.events.iter().flatten() {
            lo = lo.min(e.t_start);
            hi = hi.max(e.t_end);
        }
        (lo < hi).then_some((lo, hi))
    }

    /// Virtual elapsed time of the traced run: the width of
    /// [`ObservedRun::trace_span`] (0.0 without a trace).
    pub fn trace_elapsed(&self) -> f64 {
        self.trace_span().map(|(lo, hi)| hi - lo).unwrap_or(0.0)
    }
}

/// [`try_run_scheme`] with tracing and/or metrics enabled on every rank.
///
/// Virtual-time results are identical to the unobserved run: recording
/// only captures clock movements, it never causes them.
pub fn try_run_scheme_observed(
    platform: &Platform,
    scheme: Scheme,
    workload: &Workload,
    cfg: &PingPongConfig,
    obs: Observe,
) -> std::result::Result<ObservedRun, MeasureError> {
    try_run_scheme_pairs_observed(platform, scheme, workload, cfg, 1, obs)
}

/// What each rank hands back from the measurement closure.
struct RankOut {
    times: Vec<f64>,
    starts: Vec<f64>,
    events: Vec<TraceEvent>,
    metrics: Option<MetricsSnapshot>,
    faults: FaultStats,
}

fn try_run_scheme_pairs_observed(
    platform: &Platform,
    scheme: Scheme,
    workload: &Workload,
    cfg: &PingPongConfig,
    npairs: usize,
    obs: Observe,
) -> std::result::Result<ObservedRun, MeasureError> {
    assert!(npairs >= 1);
    let platform = platform.clone();
    let w = *workload;
    let cfg = cfg.clone();
    let results = Universe::run_supervised(platform, 2 * npairs, move |comm| {
        if obs.trace {
            comm.enable_trace();
        }
        if obs.metrics {
            comm.enable_metrics();
        }
        let rank = comm.rank();
        let (times, starts) = if rank % 2 == 0 {
            sender(comm, scheme, &w, &cfg, rank + 1)?
        } else {
            receiver(comm, scheme, &w, &cfg, rank - 1)?;
            (Vec::new(), Vec::new())
        };
        Ok(RankOut {
            times,
            starts,
            events: comm.take_trace(),
            metrics: comm.take_metrics(),
            faults: comm.fault_stats(),
        })
    });
    let mut failures = Vec::new();
    let mut pair0 = Vec::new();
    let mut starts0 = Vec::new();
    let mut events = Vec::new();
    let mut faults = FaultStats::default();
    let mut metrics: Option<MetricsSnapshot> = None;
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Ok(out) => {
                if rank == 0 {
                    pair0 = out.times;
                    starts0 = out.starts;
                }
                faults.absorb(out.faults);
                events.push(out.events);
                if let Some(m) = out.metrics {
                    match &mut metrics {
                        Some(acc) => acc.merge(&m),
                        None => metrics = Some(m),
                    }
                }
            }
            Err(e) => failures.push((rank, e)),
        }
    }
    if !failures.is_empty() {
        return Err(MeasureError { failures });
    }
    let windows = starts0.iter().zip(pair0.iter()).map(|(&s, &t)| (s, s + t)).collect();
    Ok(ObservedRun {
        result: PingPongResult { scheme, msg_bytes: workload.msg_bytes(), times: pair0, faults },
        events,
        windows,
        metrics,
    })
}

/// Measure a direct send of an arbitrary committed datatype (one
/// instance) from `src`, received contiguously and verified against
/// `expected`. Used by the §4.7 irregular-spacing experiment.
pub fn run_datatype_send(
    platform: &Platform,
    dtype: &Datatype,
    src: Vec<f64>,
    expected: Vec<f64>,
    cfg: &PingPongConfig,
) -> PingPongResult {
    let platform = platform.clone();
    let cfg = cfg.clone();
    let dtype = dtype.clone();
    let msg_bytes = dtype.size() as usize;
    assert_eq!(msg_bytes, expected.len() * Workload::ELEM, "expected length mismatch");
    let ((times, faults0), (_, faults1)) = Universe::run_pair(platform, move |comm| {
        if comm.rank() == 0 {
            let mut times = Vec::with_capacity(cfg.reps);
            comm.barrier().expect("start barrier");
            for _ in 0..cfg.reps {
                let t0 = comm.wtime();
                comm.send(as_bytes(&src), 0, &dtype, 1, 1, PING_TAG).expect("send");
                let mut pong = [0u8; 0];
                comm.recv_bytes(&mut pong, Some(1), Some(PONG_TAG)).expect("pong");
                times.push(comm.wtime() - t0);
                flush_both(comm, &cfg);
            }
            comm.barrier().expect("end barrier");
            (times, comm.fault_stats())
        } else {
            let mut buf = vec![0.0f64; expected.len()];
            comm.barrier().expect("start barrier");
            for _ in 0..cfg.reps {
                comm.recv_slice(&mut buf, Some(0), Some(PING_TAG)).expect("recv");
                if cfg.verify && !expected.is_empty() {
                    verify_samples(&buf, &expected);
                }
                comm.send_bytes(&[], 0, PONG_TAG).expect("pong");
                flush_both(comm, &cfg);
            }
            comm.barrier().expect("end barrier");
            (Vec::new(), comm.fault_stats())
        }
    });
    let mut faults = faults0;
    faults.absorb(faults1);
    PingPongResult { scheme: Scheme::VectorType, msg_bytes, times, faults }
}

fn flush_both(comm: &mut Comm, cfg: &PingPongConfig) {
    if cfg.flush {
        comm.flush_cache(cfg.flush_bytes);
    }
}

/// Sending rank: prepare buffers, run the timed loop against `peer`.
/// Returns each rep's duration and its start time (the timed windows
/// phase attribution folds events into).
fn sender(
    comm: &mut Comm,
    scheme: Scheme,
    w: &Workload,
    cfg: &PingPongConfig,
    peer: usize,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let n = w.elems();
    let mut times = Vec::with_capacity(cfg.reps);
    let mut starts = Vec::with_capacity(cfg.reps);

    // All allocations outside the timing loop (§3.2), and only those this
    // scheme's sends read: the reference sends the same payload
    // contiguously, every other scheme selects it from the source array.
    let reference = scheme == Scheme::Reference;
    let src = if reference { Vec::new() } else { w.make_source() };
    let contig = if reference { w.expected() } else { Vec::new() };
    let mut sendbuf = vec![0.0f64; if scheme == Scheme::Copying { n } else { 0 }];
    // Packing schemes stage through the rank's scratch pool instead of a
    // fresh allocation, so back-to-back measurements reuse one buffer.
    let packbuf_len = match scheme {
        Scheme::PackingElement | Scheme::PackingVector => w.msg_bytes(),
        _ => 0,
    };
    let mut packbuf = comm.take_scratch(packbuf_len);
    packbuf.truncate(packbuf_len);
    // The derived type this scheme sends, if any.
    let dtype = match scheme {
        Scheme::VectorType | Scheme::Buffered | Scheme::OneSided | Scheme::PackingVector => {
            Some(w.vector_type()?)
        }
        Scheme::Subarray => Some(w.subarray_type()?),
        Scheme::Reference | Scheme::Copying | Scheme::PackingElement => None,
    };
    let derived = || dtype.as_ref().expect("scheme sends a derived type");
    let f64_t = Datatype::f64();
    let access = access_of(w);

    if scheme == Scheme::Buffered {
        let need = Comm::bsend_size(derived(), 1)?;
        comm.buffer_attach(need)?;
    }
    let mut win = if scheme == Scheme::OneSided {
        // Rank 0 exposes nothing; rank 1 exposes the receive region.
        Some(comm.win_create(0)?)
    } else {
        None
    };

    // Compile the sent type's pack plan outside the timing loop, like the
    // allocations above: the first timed iteration must not pay it.
    if let Some(t) = &dtype {
        comm.pack_prepare(t, 1);
    }

    comm.barrier()?;

    for _ in 0..cfg.reps {
        let t0 = comm.wtime();
        starts.push(t0);
        match scheme {
            Scheme::Reference => {
                comm.send_slice(&contig, peer, PING_TAG)?;
            }
            Scheme::Copying => {
                // The real user-space gather loop...
                for i in 0..n {
                    sendbuf[i] = src[w.source_index(i)];
                }
                // ...and its modeled cost.
                comm.charge_copy(w.msg_bytes() as u64, &access);
                comm.send_slice(&sendbuf, peer, PING_TAG)?;
            }
            Scheme::Buffered => {
                comm.bsend(as_bytes(&src), 0, derived(), 1, peer, PING_TAG)?;
            }
            Scheme::VectorType | Scheme::Subarray => {
                comm.send(as_bytes(&src), 0, derived(), 1, peer, PING_TAG)?;
            }
            Scheme::OneSided => {
                let win = win.as_mut().expect("window");
                win.fence(comm)?;
                win.put(comm, as_bytes(&src), 0, derived(), 1, peer, 0)?;
                win.fence(comm)?;
            }
            Scheme::PackingElement => {
                let mut pos = 0usize;
                if n <= (1 << 12) {
                    // Literal per-element MPI_Pack calls.
                    for i in 0..n {
                        comm.pack(
                            as_bytes(&src),
                            w.source_index(i) * Workload::ELEM,
                            &f64_t,
                            1,
                            &mut packbuf,
                            &mut pos,
                        )
                        ?;
                    }
                } else {
                    // Batched equivalent (same data, same virtual time).
                    // Regular workloads have a fixed element stride.
                    debug_assert_eq!(w.blocklen, 1, "elementwise packing assumes blocklen 1");
                    comm.pack_elementwise(
                        as_bytes(&src),
                        0,
                        w.stride * Workload::ELEM,
                        &f64_t,
                        n,
                        &mut packbuf,
                        &mut pos,
                    )
                    ?;
                }
                comm.send_packed(&packbuf, peer, PING_TAG)?;
            }
            Scheme::PackingVector => {
                let mut pos = 0usize;
                comm.pack(as_bytes(&src), 0, derived(), 1, &mut packbuf, &mut pos)?;
                comm.send_packed(&packbuf, peer, PING_TAG)?;
            }
        }
        if scheme != Scheme::OneSided {
            let mut pong = [0u8; 0];
            comm.recv_bytes(&mut pong, Some(peer), Some(PONG_TAG))?;
        }
        times.push(comm.wtime() - t0);
        flush_both(comm, cfg);
    }

    if scheme == Scheme::Buffered {
        // Drain: make sure the last buffered message was matched before
        // detaching (the receiver's pong ordering guarantees it).
        comm.buffer_detach()?;
    }
    comm.put_scratch(packbuf);
    comm.barrier()?;
    Ok((times, starts))
}

/// Receiving rank: receive contiguously, verify, pong to `peer`.
fn receiver(
    comm: &mut Comm,
    scheme: Scheme,
    w: &Workload,
    cfg: &PingPongConfig,
    peer: usize,
) -> Result<()> {
    let n = w.elems();
    let mut recvbuf = vec![0.0f64; n];
    let expected = w.expected();

    let mut win = if scheme == Scheme::OneSided {
        Some(comm.win_create(w.msg_bytes())?)
    } else {
        None
    };

    comm.barrier()?;

    for _ in 0..cfg.reps {
        match scheme {
            Scheme::OneSided => {
                let win = win.as_mut().expect("window");
                win.fence(comm)?;
                win.fence(comm)?;
                if cfg.verify && n > 0 {
                    verify_window(win, &expected);
                }
            }
            _ => {
                let st = comm.recv_slice(&mut recvbuf, Some(peer), Some(PING_TAG))?;
                assert_eq!(st.bytes, w.msg_bytes(), "payload size");
                if cfg.verify && n > 0 {
                    verify_samples(&recvbuf, &expected);
                }
                comm.send_bytes(&[], peer, PONG_TAG)?;
            }
        }
        flush_both(comm, cfg);
    }
    comm.barrier()?;
    Ok(())
}

/// Check a handful of positions plus the extremes (full check for small n).
fn verify_samples(got: &[f64], expected: &[f64]) {
    assert_eq!(got.len(), expected.len());
    let n = got.len();
    if n <= 4096 {
        assert_eq!(got, expected, "payload corrupted");
        return;
    }
    for &i in &[0, 1, n / 3, n / 2, 2 * n / 3, n - 2, n - 1] {
        assert_eq!(got[i], expected[i], "payload corrupted at {i}");
    }
    let step = (n / 64).max(1);
    let mut i = 0;
    while i < n {
        assert_eq!(got[i], expected[i], "payload corrupted at {i}");
        i += step;
    }
}

fn verify_window(win: &nonctg_core::Window, expected: &[f64]) {
    let n = expected.len();
    let check = |i: usize| {
        let raw = win.read_local(i * 8..i * 8 + 8).expect("window read");
        let v = f64::from_le_bytes(raw.try_into().unwrap());
        assert_eq!(v, expected[i], "window payload corrupted at {i}");
    };
    check(0);
    check(n / 2);
    check(n - 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Platform {
        let mut p = Platform::skx_impi();
        p.jitter_sigma = 0.0;
        p
    }

    fn small_cfg() -> PingPongConfig {
        PingPongConfig { reps: 4, flush: true, flush_bytes: 1 << 20, verify: true }
    }

    #[test]
    fn all_schemes_run_and_verify() {
        let w = Workload::every_other(512);
        for scheme in Scheme::ALL {
            let r = run_scheme(&quiet(), scheme, &w, &small_cfg());
            assert_eq!(r.times.len(), 4, "{scheme}");
            assert!(r.times.iter().all(|&t| t > 0.0), "{scheme}");
            assert!(r.time() > 0.0);
            assert!(r.bandwidth() > 0.0);
        }
    }

    #[test]
    fn reference_is_fastest() {
        let w = Workload::every_other(1 << 14);
        let reference = run_scheme(&quiet(), Scheme::Reference, &w, &small_cfg()).time();
        for scheme in Scheme::NON_CONTIGUOUS {
            let t = run_scheme(&quiet(), scheme, &w, &small_cfg()).time();
            assert!(
                t > reference,
                "{scheme} ({t}) should be slower than reference ({reference})"
            );
        }
    }

    #[test]
    fn packing_vector_tracks_copying() {
        // Paper §4.3/§5: packing a vector == manual copying at all sizes.
        for elems in [1 << 10, 1 << 14, 1 << 18] {
            let w = Workload::every_other(elems);
            let copying = run_scheme(&quiet(), Scheme::Copying, &w, &small_cfg()).time();
            let packing = run_scheme(&quiet(), Scheme::PackingVector, &w, &small_cfg()).time();
            let ratio = packing / copying;
            assert!(
                (0.9..1.15).contains(&ratio),
                "packing(v)/copying = {ratio} at {elems} elems"
            );
        }
    }

    #[test]
    fn vector_and_subarray_agree() {
        let w = Workload::every_other(1 << 14);
        let v = run_scheme(&quiet(), Scheme::VectorType, &w, &small_cfg()).time();
        let s = run_scheme(&quiet(), Scheme::Subarray, &w, &small_cfg()).time();
        let ratio = v / s;
        assert!((0.9..1.1).contains(&ratio), "vector/subarray = {ratio}");
    }

    #[test]
    fn packing_by_element_is_much_slower() {
        let w = Workload::every_other(1 << 14);
        let pv = run_scheme(&quiet(), Scheme::PackingVector, &w, &small_cfg()).time();
        let pe = run_scheme(&quiet(), Scheme::PackingElement, &w, &small_cfg()).time();
        assert!(pe > 2.0 * pv, "packing(e) {pe} vs packing(v) {pv}");
    }

    #[test]
    fn elementwise_batching_matches_literal_calls() {
        // The batched fast path must charge the same virtual time as the
        // literal per-call loop (jitter off).
        let small = Workload::every_other(1 << 10); // literal path
        let cfg = PingPongConfig { reps: 2, flush: false, flush_bytes: 0, verify: true };
        let lit = run_scheme(&quiet(), Scheme::PackingElement, &small, &cfg).time();

        // Re-run forcing the batch threshold by using a larger workload and
        // scaling: per-element cost must be identical, so time/elem of the
        // two paths should agree closely.
        let big = Workload::every_other(1 << 14); // batched path
        let bat = run_scheme(&quiet(), Scheme::PackingElement, &big, &cfg).time();
        let per_lit = lit / small.elems() as f64;
        let per_bat = bat / big.elems() as f64;
        let ratio = per_bat / per_lit;
        assert!(
            (0.8..1.2).contains(&ratio),
            "batched per-element {per_bat} vs literal {per_lit}"
        );
    }

    #[test]
    fn bsend_worse_than_plain_derived_send() {
        // Paper §4.2: buffered sends perform worse.
        let w = Workload::every_other(1 << 16);
        let plain = run_scheme(&quiet(), Scheme::VectorType, &w, &small_cfg()).time();
        let buffered = run_scheme(&quiet(), Scheme::Buffered, &w, &small_cfg()).time();
        assert!(buffered > plain, "buffered {buffered} vs plain {plain}");
    }

    #[test]
    fn onesided_slow_for_small_messages() {
        // Paper §4.4(1): fence overhead dominates small transfers.
        let w = Workload::every_other(128);
        let two = run_scheme(&quiet(), Scheme::VectorType, &w, &small_cfg()).time();
        let one = run_scheme(&quiet(), Scheme::OneSided, &w, &small_cfg()).time();
        assert!(one > 1.5 * two, "onesided {one} vs two-sided {two}");
    }

    #[test]
    fn no_flush_speeds_up_intermediate_sizes() {
        // Paper §4.6.
        let w = Workload::every_other(1 << 17); // 1 MiB message, fits in LLC
        let flush_cfg = PingPongConfig { reps: 6, flush: true, flush_bytes: 50_000_000, verify: false };
        let warm_cfg = PingPongConfig { flush: false, ..flush_cfg.clone() };
        let cold = run_scheme(&quiet(), Scheme::Copying, &w, &flush_cfg).time();
        let warm = run_scheme(&quiet(), Scheme::Copying, &w, &warm_cfg).time();
        assert!(warm < cold, "warm {warm} should beat cold {cold}");
    }

    #[test]
    fn adaptive_reps_shrink_for_large_messages() {
        let cfg = PingPongConfig::default();
        assert_eq!(cfg.clone().adaptive(1 << 20).reps, 20);
        assert_eq!(cfg.clone().adaptive(16 << 20).reps, 5);
        assert_eq!(cfg.clone().adaptive(256 << 20).reps, 3);
    }
}
