//! The send route: one pure decision per send.
//!
//! [`route`] turns what is known about a send before any byte moves —
//! mode, size, layout, eager limit, streaming eligibility, compiled
//! plan and region shape, the datapath in force, and the fault plan's
//! decisions for this `(rank, op)` — into a [`SendRoute`]: the protocol
//! path, the staging engine, the buffer source and the ordered rungs of
//! the degradation ladder to count and trace. `Comm::send_impl` executes
//! the route; `Comm::pack` shares its staging decision ([`staging`]);
//! [`send_engine`] reports its engine choice to callers that record it.
//!
//! Every fault decision is a pure function of `(plan, rank, op)`, so a
//! rerun of the same seed takes the same route.

use nonctg_datatype::{self as dt, Datatype, DatatypeError, Primitive};
use nonctg_simnet::{Access, Datapath, FaultPlan, PipelineSpec, Platform, SendFault};

use crate::fabric::FaultStats;
use crate::p2p::{CHUNK_DEMOTE_THRESHOLD, MAX_SEND_ATTEMPTS};
use crate::selector::{self, RegionShape};

/// The MPI send flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendMode {
    Standard,
    /// Completes only once the receive is matched (`MPI_Ssend`): the
    /// rendezvous path regardless of message size.
    Synchronous,
    Buffered,
}

/// The fault plan of a send's platform, with the `(rank, op)` it is
/// consulted at.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultSite<'a> {
    pub plan: &'a FaultPlan,
    pub rank: usize,
    pub op: u64,
}

impl FaultSite<'_> {
    /// The send-level decision (retries, delay, corruption), and whether
    /// every attempt fails.
    fn send(&self, bytes: u64) -> (SendFault, bool) {
        let f = self.plan.send_decision(self.rank, self.op, bytes);
        (f, f.is_persistent() || f.transient_failures >= MAX_SEND_ATTEMPTS)
    }
}

/// A send's region list: not looked up (or no plan), over the iovec
/// cap, or bounded with this shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Regions {
    Absent,
    Capped,
    Bounded(RegionShape),
}

impl Regions {
    fn shape(self) -> Option<RegionShape> {
        match self {
            Regions::Bounded(s) => Some(s),
            Regions::Absent | Regions::Capped => None,
        }
    }
}

/// Everything [`route`] decides from.
#[derive(Debug, Clone)]
pub(crate) struct RouteInput<'a> {
    pub mode: SendMode,
    /// Packed payload bytes.
    pub bytes: u64,
    /// How the datatype walks user memory.
    pub access: Access,
    pub contiguous: bool,
    /// Largest eager payload for this datatype.
    pub eager_limit: u64,
    /// Whether a chunked stream is allowed (blocking sends only).
    pub may_stream: bool,
    pub pipeline: PipelineSpec,
    /// Whether a compiled plan exists for streaming (looked up only when
    /// [`RouteInput::stream_candidate`]).
    pub stream_plan: bool,
    /// Looked up only when [`RouteInput::iov_eligible`].
    pub regions: Regions,
    /// The datapath in force (`Auto` consults the selector).
    pub datapath: Datapath,
    /// The platform whose cost model prices the selector's choice.
    pub platform: &'a Platform,
    /// Whether the pack would fan out to the parallel workers.
    pub parallel: bool,
    /// The user buffer: `origin`, its length, and the [`dt::user_span`]
    /// of the message.
    pub origin: usize,
    pub buf_len: usize,
    pub span: Option<(i128, i128)>,
}

impl<'a> RouteInput<'a> {
    /// What is known about a send of `count` x `dtype` on `p` before any
    /// plan or region lookup, from a user buffer of `buf_len` bytes.
    pub fn new(
        p: &'a Platform,
        dtype: &Datatype,
        count: usize,
        mode: SendMode,
        may_stream: bool,
        origin: usize,
        buf_len: usize,
    ) -> dt::Result<RouteInput<'a>> {
        let bytes = dt::pack_size(dtype, count)? as u64;
        let access = Access::classify(dtype);
        let is_packed = dtype.signature().count(Primitive::Packed) > 0;
        Ok(RouteInput {
            mode,
            bytes,
            access,
            contiguous: matches!(access, Access::Contiguous),
            eager_limit: p.eager_threshold(is_packed),
            may_stream,
            pipeline: p.effective_pipeline(),
            stream_plan: false,
            regions: Regions::Absent,
            datapath: p.effective_datapath(),
            platform: p,
            parallel: parallel_pack(bytes),
            origin,
            buf_len,
            span: dt::user_span(dtype, count),
        })
    }

    /// Look the region list up when the zero-copy path may be considered
    /// ([`RouteInput::iov_eligible`]), record its shape, and return it
    /// for the executor: `None` when ineligible, without a plan, or over
    /// the [`selector::iov_max_regions`] cap.
    pub fn lookup_regions(
        &mut self,
        dtype: &Datatype,
        count: usize,
        fault: Option<FaultSite>,
    ) -> Option<Vec<(i64, u64)>> {
        if !self.iov_eligible(fault) {
            return None;
        }
        let regions = dt::plan_for(dtype, count)?.regions(selector::iov_max_regions());
        self.regions = match &regions {
            Some(r) => Regions::Bounded(RegionShape::of(r, self.platform.mem.cacheline)),
            None => Regions::Capped,
        };
        regions
    }

    /// The engine for the send's non-contiguous bytes: the forced
    /// datapath, or under `Auto` the selector's pick for the looked-up
    /// region shape.
    pub fn engine(&self) -> Datapath {
        match self.datapath {
            Datapath::Auto => {
                selector::select(self.platform, self.bytes, &self.access, self.regions.shape())
            }
            forced => forced,
        }
    }

    fn eager(&self) -> bool {
        self.mode != SendMode::Synchronous && self.bytes <= self.eager_limit
    }

    /// A large derived-type rendezvous from a blocking send may stream
    /// its payload as chunks, so the receiver unpacks chunk k while the
    /// sender packs k+1. An isend may not: blocked pumping chunks, it
    /// would deadlock a head-to-head sendrecv.
    pub fn stream_candidate(&self) -> bool {
        self.may_stream
            && !self.eager()
            && !self.contiguous
            && self.mode != SendMode::Buffered
            && self.bytes >= self.pipeline.threshold_bytes
    }

    /// Whether the zero-copy path may be considered, and so whether the
    /// region list is looked up: a non-contiguous standard or synchronous
    /// rendezvous whose plan did not fail and whose send goes through.
    pub fn iov_eligible(&self, fault: Option<FaultSite>) -> bool {
        !self.contiguous
            && !self.eager()
            && self.mode != SendMode::Buffered
            && fault.is_none_or(|f| !f.send(self.bytes).1)
            && staging(self.contiguous, self.parallel, fault).1 != Some(Rung::PlanFallback)
    }
}

/// How the payload moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Path {
    /// Staged and deposited without a handshake.
    Eager,
    /// Staged whole, then a handshake and one transfer.
    Rendezvous,
    /// Packed and pushed chunk by chunk through a bounded ring.
    Chunked,
    /// The region list ships; the NIC gathers the user regions.
    Iovec,
    /// Every attempt fails: charge the full backoff and give up.
    Failed,
}

/// The engine that packs a staged payload: the cached compiled plan
/// (parallel above the threshold), the plan pinned to one worker, or the
/// plain segment walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Staging {
    Plan,
    SerialPlan,
    Walk,
}

impl Staging {
    /// Pack `count` instances of `dtype` from `src` into `out`; a serial
    /// plan for an unplannable type walks.
    pub fn pack(
        self,
        src: &[u8],
        origin: usize,
        dtype: &dt::Datatype,
        count: usize,
        out: &mut [u8],
    ) -> dt::Result<usize> {
        match self {
            Staging::Plan => dt::pack_into(src, origin, dtype, count, out),
            Staging::SerialPlan => match dt::plan_for(dtype, count) {
                Some(plan) => plan.pack_into_with(src, origin, out, 1),
                None => dt::pack_into_uncompiled(src, origin, dtype, count, out),
            },
            Staging::Walk => dt::pack_into_uncompiled(src, origin, dtype, count, out),
        }
    }
}

/// Where staging buffers come from: the fabric's payload pool, or plain
/// owned allocations when the pool is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BufferSource {
    Pooled,
    Owned,
}

/// One rung of the degradation ladder: a faster datapath swapped for a
/// slower but correct one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    /// The compiled plan failed to build: walk the segments, no stream,
    /// no iovec.
    PlanFallback,
    /// Too many forecast chunk faults: monolithic instead of chunked.
    PipelineDemotion,
    /// The payload pool is exhausted: owned buffers.
    PoolExhaustion,
    /// A parallel-pack worker failed: the serial plan.
    SerialFallback,
    /// Iovec demoted to a staged pack (pool or worker fault, or a region
    /// list over the cap).
    IovecDemotion,
}

impl Rung {
    /// Count this rung in a rank's fault counters.
    pub fn count(self, s: &mut FaultStats) {
        match self {
            Rung::PlanFallback => s.plan_fallbacks += 1,
            Rung::PipelineDemotion => s.pipeline_demotions += 1,
            Rung::PoolExhaustion => s.pool_exhaustions += 1,
            Rung::SerialFallback => s.serial_fallbacks += 1,
            Rung::IovecDemotion => s.iovec_demotions += 1,
        }
    }
}

/// An event the executor counts and traces, in route order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// A ladder rung: counted in the fault stats, traced as `Demote`.
    Demote(Rung),
    /// An auto-mode selector decision: counted, traced as `Select`.
    Select(Datapath),
}

/// The decided route of one send.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SendRoute {
    pub path: Path,
    pub staging: Staging,
    pub buffer: BufferSource,
    /// Backoffs to charge before the send goes through (or fails).
    pub retries: u32,
    /// Injected delivery delay, seconds.
    pub delay: f64,
    /// Payload byte to corrupt in flight.
    pub corrupt: Option<usize>,
    /// Link-degradation latency multiplier (1 = none).
    pub latency_factor: f64,
    pub steps: Vec<Step>,
    /// Lend the user buffer to the receiver instead of staging it
    /// ([`lends`]).
    pub lend: bool,
}

/// Parallel pack: more than one worker and a payload at or above the
/// parallel threshold.
pub(crate) fn parallel_pack(bytes: u64) -> bool {
    dt::pack_threads() > 1 && bytes >= dt::parallel_threshold() as u64
}

/// The staging engine of a pack, and the ladder rung that chose it: an
/// injected plan-compile failure walks the segments; an injected worker
/// failure on a parallel pack pins the serial plan. Shared by every send
/// and by `Comm::pack`.
pub(crate) fn staging(
    contiguous: bool,
    parallel: bool,
    fault: Option<FaultSite>,
) -> (Staging, Option<Rung>) {
    match fault {
        Some(f) if !contiguous && f.plan.plan_compile_fails(f.rank, f.op) => {
            (Staging::Walk, Some(Rung::PlanFallback))
        }
        Some(f) if !contiguous && parallel && f.plan.pack_worker_fails(f.rank, f.op) => {
            (Staging::SerialPlan, Some(Rung::SerialFallback))
        }
        _ => (Staging::Plan, None),
    }
}

/// The engine a standard blocking send of `count` x `dtype` takes for
/// its non-contiguous bytes on `p` without faults: the forced datapath,
/// or the selector's pick under the runtime's own eligibility rules
/// (eager size, region cap). Pure in `(platform, dtype, count)`, so a
/// sweep can record it per point.
pub fn send_engine(p: &Platform, dtype: &Datatype, count: usize) -> dt::Result<Datapath> {
    let mut i = RouteInput::new(p, dtype, count, SendMode::Standard, true, 0, 0)?;
    i.lookup_regions(dtype, count, None);
    Ok(i.engine())
}

/// Decide how one send moves its bytes. Pure in its inputs: the same
/// input and `(plan, rank, op)` always give the same route.
///
/// A user buffer too short for the message is rejected here, before any
/// charge, with the `OutOfBounds` every engine reports.
pub(crate) fn route(i: &RouteInput, fault: Option<FaultSite>) -> Result<SendRoute, DatatypeError> {
    dt::check_span(i.origin, i.span, i.buf_len)?;
    let (mut staging, stage_rung) = staging(i.contiguous, i.parallel, fault);
    let path = if i.eager() { Path::Eager } else { Path::Rendezvous };
    let mut r = SendRoute {
        path,
        staging,
        buffer: BufferSource::Pooled,
        retries: 0,
        delay: 0.0,
        corrupt: None,
        latency_factor: 1.0,
        steps: Vec::new(),
        lend: false,
    };
    let mut stream = i.stream_candidate() && i.stream_plan;
    if let Some(f) = fault {
        let (sf, fails) = f.send(i.bytes);
        if fails {
            r.path = Path::Failed;
            r.retries = MAX_SEND_ATTEMPTS - 1;
            return Ok(r);
        }
        r.retries = sf.transient_failures;
        r.delay = sf.delay;
        r.corrupt = (sf.corrupt && i.bytes > 0)
            .then(|| f.plan.corrupt_index(f.rank, f.op, i.bytes as usize));
        r.latency_factor = f.plan.latency_factor(f.op);
        if stage_rung == Some(Rung::PlanFallback) {
            stream = false;
            r.steps.push(Step::Demote(Rung::PlanFallback));
        }
        // Chunk-fault forecast: with this op's chunk schedule known up
        // front, repeated faults demote the stream to the monolithic
        // rendezvous before any chunk machinery spins up. Below the
        // threshold the stream absorbs each fault by re-packing.
        if stream {
            let n_chunks = i.bytes.div_ceil(i.pipeline.chunk_bytes.max(1));
            let faulty = (0..n_chunks)
                .filter(|&c| f.plan.chunk_decision(f.rank, f.op, c).is_faulty())
                .count();
            if faulty >= CHUNK_DEMOTE_THRESHOLD {
                stream = false;
                r.steps.push(Step::Demote(Rung::PipelineDemotion));
            }
        }
        if f.plan.pool_exhausted(f.rank, f.op) {
            r.buffer = BufferSource::Owned;
            r.steps.push(Step::Demote(Rung::PoolExhaustion));
        }
        if stage_rung == Some(Rung::SerialFallback) {
            r.steps.push(Step::Demote(Rung::SerialFallback));
        }
    }
    if !i.contiguous {
        let choice = i.engine();
        if i.datapath == Datapath::Auto {
            r.steps.push(Step::Select(choice));
        }
        match (choice, i.regions) {
            // With its staging pool gone or its gather workers failing,
            // the zero-copy path demotes to the pack plan.
            (Datapath::Iov, Regions::Bounded(_))
                if r.buffer == BufferSource::Owned || staging == Staging::SerialPlan =>
            {
                r.steps.push(Step::Demote(Rung::IovecDemotion))
            }
            (Datapath::Iov, Regions::Bounded(_)) => {
                r.path = Path::Iovec;
                stream = false;
            }
            // A region list over the cap deterministically demotes a
            // forced iovec send, visibly. Eager and plan-failure
            // fall-throughs stay silent: the former never was eligible,
            // the latter already counts as a plan fallback.
            (Datapath::Iov, Regions::Capped) => r.steps.push(Step::Demote(Rung::IovecDemotion)),
            (Datapath::Elem, _) => {
                staging = Staging::Walk;
                stream = false;
            }
            _ => {}
        }
    }
    r.staging = staging;
    if stream {
        r.path = Path::Chunked;
    }
    r.lend = lends(i, &r);
    Ok(r)
}

/// Whether a decided route lends the user buffer to the receiver instead
/// of staging it. Only a blocking standard or synchronous send
/// (`may_stream`, which also keeps `isend` off the chunk stream) on the
/// monolithic rendezvous lends, and only when its bytes go out clean
/// through the cached plan: no corrupt byte, no owned buffers, no serial
/// plan or segment walk. Faults that only move virtual time (retries,
/// delay, link degradation) still lend.
fn lends(i: &RouteInput, r: &SendRoute) -> bool {
    i.may_stream
        && i.mode != SendMode::Buffered
        && r.path == Path::Rendezvous
        && r.corrupt.is_none()
        && r.buffer == BufferSource::Pooled
        && r.staging == Staging::Plan
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    static SKX: std::sync::LazyLock<Platform> = std::sync::LazyLock::new(Platform::skx_impi);

    /// A 1 MiB non-contiguous standard rendezvous with a bounded list of
    /// 128 long regions, below the streaming threshold.
    fn input(datapath: Datapath) -> RouteInput<'static> {
        RouteInput {
            mode: SendMode::Standard,
            bytes: MIB,
            access: Access::Strided { blocklen: 8192, stride: 16384 },
            contiguous: false,
            eager_limit: 64 << 10,
            may_stream: true,
            pipeline: PipelineSpec {
                threshold_bytes: 4 * MIB,
                chunk_bytes: MIB,
            },
            stream_plan: true,
            regions: Regions::Bounded(RegionShape { n: 128, subline: 0 }),
            datapath,
            platform: &SKX,
            parallel: true,
            origin: 0,
            buf_len: 2 * MIB as usize,
            span: Some((0, 2 * MIB as i128)),
        }
    }

    fn clean(i: &RouteInput) -> SendRoute {
        route(i, None).expect("in-bounds buffer")
    }

    fn faulty(i: &RouteInput, plan: &FaultPlan) -> SendRoute {
        route(
            i,
            Some(FaultSite {
                plan,
                rank: 0,
                op: 7,
            }),
        )
        .expect("in-bounds buffer")
    }

    fn path_staging(r: &SendRoute) -> (Path, Staging, BufferSource) {
        (r.path, r.staging, r.buffer)
    }

    #[test]
    fn each_datapath_routes_without_faults() {
        use BufferSource::Pooled;
        let pack = clean(&input(Datapath::Pack));
        assert_eq!(
            path_staging(&pack),
            (Path::Rendezvous, Staging::Plan, Pooled)
        );
        assert!(pack.steps.is_empty());
        let iov = clean(&input(Datapath::Iov));
        assert_eq!(iov.path, Path::Iovec);
        assert!(iov.steps.is_empty());
        let elem = clean(&input(Datapath::Elem));
        assert_eq!(
            path_staging(&elem),
            (Path::Rendezvous, Staging::Walk, Pooled)
        );
        let auto = clean(&input(Datapath::Auto));
        assert_eq!(auto.steps, vec![Step::Select(Datapath::Iov)]);
        assert_eq!(auto.path, Path::Iovec);
        // Without a bounded list the selector falls back to pack.
        let capped = clean(&RouteInput {
            regions: Regions::Capped,
            ..input(Datapath::Auto)
        });
        assert_eq!(capped.steps, vec![Step::Select(Datapath::Pack)]);
        assert_eq!(capped.path, Path::Rendezvous);
        // Contiguous sends never consult the selector.
        let contiguous = clean(&RouteInput {
            contiguous: true,
            ..input(Datapath::Auto)
        });
        assert_eq!(
            path_staging(&contiguous),
            (Path::Rendezvous, Staging::Plan, Pooled)
        );
        assert!(contiguous.steps.is_empty());
    }

    #[test]
    fn send_engine_is_the_routes_selection() {
        let vector = |n: usize, block: usize| {
            Datatype::vector(n, block, 2 * block as i64, &Datatype::byte()).unwrap().commit()
        };
        // Long regions, 8-byte regions, an eager message, a capped list.
        let cases = [vector(128, 8192), vector(1 << 17, 8), vector(4, 1024), vector(4096, 512)];
        let mut seen = Vec::new();
        for t in &cases {
            let mut i = RouteInput::new(&SKX, t, 1, SendMode::Standard, true, 0, 0).unwrap();
            i.lookup_regions(t, 1, None);
            let r = clean(&RouteInput { buf_len: usize::MAX, ..i });
            let engine = send_engine(&SKX, t, 1).unwrap();
            assert_eq!(r.steps, vec![Step::Select(engine)]);
            seen.push(engine);
        }
        assert_eq!(seen, [Datapath::Iov, Datapath::Pack, Datapath::Pack, Datapath::Pack]);
        // A forced datapath is reported as forced.
        let forced = SKX.clone().with_datapath(Datapath::Iov);
        assert_eq!(send_engine(&forced, &cases[1], 1), Ok(Datapath::Iov));
    }

    #[test]
    fn protocol_follows_mode_size_and_streaming() {
        let small = RouteInput {
            bytes: 4096,
            ..input(Datapath::Pack)
        };
        assert_eq!(clean(&small).path, Path::Eager);
        let ssend = RouteInput {
            mode: SendMode::Synchronous,
            ..small.clone()
        };
        assert_eq!(clean(&ssend).path, Path::Rendezvous);
        let big = RouteInput {
            bytes: 8 * MIB,
            ..input(Datapath::Pack)
        };
        assert!(big.stream_candidate());
        assert_eq!(clean(&big).path, Path::Chunked);
        let isend = RouteInput {
            may_stream: false,
            ..big.clone()
        };
        assert_eq!(clean(&isend).path, Path::Rendezvous);
        let bsend = RouteInput {
            mode: SendMode::Buffered,
            ..big.clone()
        };
        assert_eq!(clean(&bsend).path, Path::Rendezvous);
        assert!(!bsend.iov_eligible(None));
        let no_plan = RouteInput {
            stream_plan: false,
            ..big.clone()
        };
        assert_eq!(clean(&no_plan).path, Path::Rendezvous);
        // Elem and iovec both rule out the stream.
        assert_eq!(
            clean(&RouteInput {
                datapath: Datapath::Elem,
                ..big.clone()
            })
            .path,
            Path::Rendezvous
        );
        assert_eq!(
            clean(&RouteInput {
                datapath: Datapath::Iov,
                ..big
            })
            .path,
            Path::Iovec
        );
    }

    #[test]
    fn capped_forced_iov_demotes_and_is_counted() {
        let capped = RouteInput {
            regions: Regions::Capped,
            ..input(Datapath::Iov)
        };
        let r = clean(&capped);
        assert_eq!(
            path_staging(&r),
            (Path::Rendezvous, Staging::Plan, BufferSource::Pooled)
        );
        assert_eq!(r.steps, vec![Step::Demote(Rung::IovecDemotion)]);
        // No region list at all (eager, or no plan) falls through silently.
        let absent = RouteInput {
            regions: Regions::Absent,
            ..input(Datapath::Iov)
        };
        assert!(clean(&absent).steps.is_empty());
        let mut stats = FaultStats::default();
        Rung::IovecDemotion.count(&mut stats);
        assert_eq!(stats.iovec_demotions, 1);
        assert_eq!(stats.demotions(), 1);
    }

    #[test]
    fn plan_failure_rules_out_stream_and_iovec() {
        let plan = FaultPlan::quiet(1).with_plan_failures(1.0);
        let site = FaultSite {
            plan: &plan,
            rank: 0,
            op: 7,
        };
        let big = RouteInput {
            bytes: 8 * MIB,
            ..input(Datapath::Iov)
        };
        assert!(big.stream_candidate());
        assert!(!big.iov_eligible(Some(site)));
        assert!(big.iov_eligible(None));
        // An ineligible send never looks its regions up.
        let r = faulty(
            &RouteInput {
                regions: Regions::Absent,
                ..big
            },
            &plan,
        );
        assert_eq!(
            path_staging(&r),
            (Path::Rendezvous, Staging::Walk, BufferSource::Pooled)
        );
        assert_eq!(r.steps, vec![Step::Demote(Rung::PlanFallback)]);
        // Contiguous sends have no plan to fail.
        let contiguous = RouteInput {
            contiguous: true,
            ..input(Datapath::Pack)
        };
        assert!(faulty(&contiguous, &plan).steps.is_empty());
    }

    #[test]
    fn chunk_fault_forecast_demotes_to_monolithic() {
        let plan = FaultPlan::quiet(1).with_chunk_faults(1.0, 0.0);
        // 8 faulty chunks: at or over the threshold.
        let eight = RouteInput {
            bytes: 8 * MIB,
            ..input(Datapath::Pack)
        };
        let r = faulty(&eight, &plan);
        assert_eq!(r.path, Path::Rendezvous);
        assert_eq!(r.steps, vec![Step::Demote(Rung::PipelineDemotion)]);
        // 2 faulty chunks: below it, the stream runs and re-packs them.
        let two = RouteInput {
            pipeline: PipelineSpec {
                threshold_bytes: 4 * MIB,
                chunk_bytes: 4 * MIB,
            },
            ..eight
        };
        let r = faulty(&two, &plan);
        assert_eq!(r.path, Path::Chunked);
        assert!(r.steps.is_empty());
    }

    #[test]
    fn pool_or_worker_failure_demotes_iovec_to_pack() {
        let pool = FaultPlan::quiet(1).with_pool_exhaustion(1.0);
        let r = faulty(&input(Datapath::Iov), &pool);
        assert_eq!(
            path_staging(&r),
            (Path::Rendezvous, Staging::Plan, BufferSource::Owned)
        );
        assert_eq!(
            r.steps,
            vec![
                Step::Demote(Rung::PoolExhaustion),
                Step::Demote(Rung::IovecDemotion)
            ]
        );
        let worker = FaultPlan::quiet(1).with_pack_worker_failures(1.0);
        let r = faulty(&input(Datapath::Iov), &worker);
        assert_eq!(
            path_staging(&r),
            (Path::Rendezvous, Staging::SerialPlan, BufferSource::Pooled)
        );
        assert_eq!(
            r.steps,
            vec![
                Step::Demote(Rung::SerialFallback),
                Step::Demote(Rung::IovecDemotion)
            ]
        );
        // A pack that would not fan out has no worker to lose.
        let serial = RouteInput {
            parallel: false,
            ..input(Datapath::Iov)
        };
        let r = faulty(&serial, &worker);
        assert_eq!(r.path, Path::Iovec);
        assert_eq!(
            staging(
                false,
                false,
                Some(FaultSite {
                    plan: &worker,
                    rank: 0,
                    op: 7
                })
            )
            .1,
            None
        );
    }

    #[test]
    fn exhausted_retries_fail_and_short_buffers_are_rejected() {
        let plan = FaultPlan::quiet(1).with_send_failures(1.0);
        let r = faulty(&input(Datapath::Pack), &plan);
        assert_eq!(r.path, Path::Failed);
        assert_eq!(r.retries, MAX_SEND_ATTEMPTS - 1);
        assert!(r.steps.is_empty());
        assert!(!input(Datapath::Iov).iov_eligible(Some(FaultSite {
            plan: &plan,
            rank: 0,
            op: 7
        })));
        for dp in [
            Datapath::Pack,
            Datapath::Iov,
            Datapath::Elem,
            Datapath::Auto,
        ] {
            let short = RouteInput {
                buf_len: MIB as usize,
                ..input(dp)
            };
            assert_eq!(
                route(&short, None),
                Err(DatatypeError::OutOfBounds {
                    needed_from: 0,
                    needed_to: 2 * MIB as i64,
                    buffer_len: MIB as usize
                })
            );
        }
    }

    #[test]
    fn only_clean_blocking_rendezvous_lends() {
        let base = input(Datapath::Pack);
        let lends = |i: &RouteInput| clean(i).lend;
        // Blocking standard and synchronous rendezvous, either layout.
        assert!(lends(&base));
        assert!(lends(&RouteInput { mode: SendMode::Synchronous, ..base.clone() }));
        assert!(lends(&RouteInput { contiguous: true, ..base.clone() }));
        // An isend, a bsend, an eager send, a chunk stream, an iovec
        // send and the segment walk never lend.
        let never = [
            RouteInput { may_stream: false, ..base.clone() },
            RouteInput { mode: SendMode::Buffered, may_stream: false, ..base.clone() },
            RouteInput { mode: SendMode::Buffered, ..base.clone() },
            RouteInput { bytes: 4096, ..base.clone() },
            RouteInput { bytes: 8 * MIB, ..base.clone() },
            input(Datapath::Iov),
            input(Datapath::Elem),
        ];
        for i in &never {
            assert!(!lends(i), "{:?}", path_staging(&clean(i)));
        }
        // A synchronous send lends at any size, eager-sized included.
        assert!(lends(&RouteInput { mode: SendMode::Synchronous, bytes: 4096, ..base.clone() }));

        // Faults: a corrupt byte, owned buffers, the serial plan and the
        // segment walk force staging; faults that only move virtual time
        // do not.
        let staged = [
            FaultPlan::quiet(1).with_corruption(1.0),
            FaultPlan::quiet(1).with_pool_exhaustion(1.0),
            FaultPlan::quiet(1).with_pack_worker_failures(1.0),
            FaultPlan::quiet(1).with_plan_failures(1.0),
        ];
        for plan in &staged {
            let r = faulty(&base, plan);
            assert_eq!(r.path, Path::Rendezvous);
            assert!(!r.lend, "{:?}", path_staging(&r));
        }
        let timed = [
            FaultPlan::quiet(1).with_delays(1.0, 1e-3),
            FaultPlan::quiet(1).with_link_degradation(0, 100, 4.0),
        ];
        for plan in &timed {
            let r = faulty(&base, plan);
            assert!(r.delay > 0.0 || r.latency_factor > 1.0);
            assert!(r.lend);
        }

        // Over a chaos schedule a route lends exactly when the rule holds,
        // and retried sends still lend.
        let mut retried_lends = 0;
        for seed in 0..16 {
            let plan = FaultPlan::chaos(seed)
                .with_send_failures(0.5)
                .with_corruption(0.2)
                .with_pool_exhaustion(0.2)
                .with_plan_failures(0.2)
                .with_pack_worker_failures(0.2);
            for op in 0..32 {
                let r = faulty(&RouteInput { bytes: MIB + op, ..base.clone() }, &plan);
                let rule = r.path == Path::Rendezvous
                    && r.corrupt.is_none()
                    && r.buffer == BufferSource::Pooled
                    && r.staging == Staging::Plan;
                assert_eq!(r.lend, rule, "seed {seed} op {op}: {r:?}");
                retried_lends += usize::from(r.lend && r.retries > 0);
            }
        }
        assert!(retried_lends > 0);
    }

    #[test]
    fn same_plan_rank_and_op_give_the_same_route() {
        let inputs = [
            input(Datapath::Auto),
            input(Datapath::Iov),
            RouteInput {
                bytes: 8 * MIB,
                ..input(Datapath::Pack)
            },
            RouteInput {
                bytes: 4096,
                ..input(Datapath::Elem)
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8 {
            let plan = FaultPlan::chaos(seed)
                .with_plan_failures(0.2)
                .with_pool_exhaustion(0.2)
                .with_pack_worker_failures(0.2)
                .with_chunk_faults(0.3, 0.0);
            let again = plan.clone();
            for i in &inputs {
                for op in 0..32 {
                    let a = route(
                        i,
                        Some(FaultSite {
                            plan: &plan,
                            rank: 1,
                            op,
                        }),
                    );
                    let b = route(
                        i,
                        Some(FaultSite {
                            plan: &again,
                            rank: 1,
                            op,
                        }),
                    );
                    assert_eq!(a, b, "seed {seed} op {op}");
                    seen.insert(format!("{:?}", a.map(|r| (r.path, r.staging, r.buffer))));
                }
            }
        }
        // The schedule really varies the route.
        assert!(seen.len() >= 4, "routes seen: {seen:?}");
    }
}
