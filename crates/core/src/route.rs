//! The send route: one pure decision per send.
//!
//! [`route`] turns what is known about a send before any byte moves —
//! mode, size, layout, eager limit, whether the sender blocks, compiled
//! plan and region shape, the datapath in force, and the fault plan's
//! decisions for this `(rank, op)` — into a [`SendRoute`]: the protocol
//! path, the engine the send is billed as, whether it lends its buffer
//! or stages it (and why), and the ordered rungs of the degradation
//! ladder to count and trace. `Comm::send_impl` executes the route;
//! `Comm::pack` shares its staging decision ([`staging`]);
//! [`send_engine`] reports its engine choice to callers that record it.
//!
//! One mover serves every blocking standard or synchronous rendezvous:
//! the receiver copies straight from the lent user buffer, whichever
//! engine the selector billed. Pack, iov and elem only decide the
//! virtual-time charges. Only the protocol (eager, buffered, nonblocking)
//! and the fault rungs that change the bytes or their buffers force a
//! staged copy.
//!
//! Every fault decision is a pure function of `(plan, rank, op)`, so a
//! rerun of the same seed takes the same route.

use nonctg_datatype::{self as dt, Datatype, DatatypeError, PackPlan, Primitive};
use nonctg_simnet::{Access, Datapath, FaultPlan, Platform, SendFault};

use crate::fabric::FaultStats;
use crate::p2p::MAX_SEND_ATTEMPTS;
use crate::selector::{self, RegionShape};

/// Forecast chunk faults on one send at or above which the ladder counts
/// a pipeline demotion instead of chunk retries.
pub const CHUNK_DEMOTE_THRESHOLD: u64 = 3;

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

/// A region list: not looked up (or no plan), over the iovec cap, or
/// bounded with this shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Regions {
    Absent,
    Capped,
    Bounded(RegionShape),
}

impl Regions {
    /// The region list of `count` x `dtype`, summarized against a
    /// `cacheline`-byte line.
    pub fn of(dtype: &Datatype, count: usize, cacheline: u64) -> Regions {
        match dt::plan_for(dtype, count) {
            None => Regions::Absent,
            Some(plan) => match plan.regions(selector::iov_max_regions()) {
                Some(r) => Regions::Bounded(RegionShape::of(&r, cacheline)),
                None => Regions::Capped,
            },
        }
    }

    pub fn shape(self) -> Option<RegionShape> {
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
    /// Whether the sender blocks until the transfer completes (`send`,
    /// `ssend`), so its buffer may be lent.
    pub blocking: bool,
    /// Cuts of the fault plan's notional chunk schedule (counted only by
    /// [`RouteInput::lookup_chunks`]; 0 otherwise).
    pub chunks: u64,
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
        blocking: bool,
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
            blocking,
            chunks: 0,
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
    /// ([`RouteInput::iov_eligible`]) and record its shape.
    pub fn lookup_regions(&mut self, dtype: &Datatype, count: usize, fault: Option<FaultSite>) {
        if self.iov_eligible(fault) {
            self.regions = Regions::of(dtype, count, self.platform.mem.cacheline);
        }
    }

    /// Count the notional chunk cuts when the fault plan forecasts chunk
    /// faults for this send ([`RouteInput::chunk_forecast`]).
    pub fn lookup_chunks(&mut self, dtype: &Datatype, count: usize, fault: Option<FaultSite>) {
        let Some(f) = fault.filter(|f| self.chunk_forecast(f.plan)) else {
            return;
        };
        if let Some(plan) = dt::plan_for(dtype, count) {
            self.chunks = chunk_cuts(&plan, f.plan.chunk_schedule.chunk_bytes);
        }
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

    /// Whether `plan` forecasts chunk faults for this send: a blocking,
    /// non-contiguous standard or synchronous rendezvous at or above the
    /// plan's notional chunk threshold. The forecast stands in for the
    /// chunk stream such sends once took, so chaos runs keep their
    /// ladder counts.
    pub fn chunk_forecast(&self, plan: &FaultPlan) -> bool {
        self.blocking
            && !self.eager()
            && !self.contiguous
            && self.mode != SendMode::Buffered
            && self.bytes >= plan.chunk_schedule.threshold_bytes
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

/// The instance-aligned cuts of `plan`'s packed message into chunks of
/// about `chunk` bytes: each cut ends at the block boundary at or below
/// the target, and a target below one block doubles until it advances.
fn chunk_cuts(plan: &PackPlan, chunk: u64) -> u64 {
    let total = plan.packed_len() as u64;
    let (mut lo, mut cuts) = (0u64, 0u64);
    while lo < total {
        let mut step = chunk.max(1);
        let mut hi = plan.align_chunk(lo + step);
        while hi <= lo {
            step *= 2;
            hi = plan.align_chunk(lo + step);
        }
        lo = hi;
        cuts += 1;
    }
    cuts
}

/// How the payload moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Path {
    /// Deposited without a handshake.
    Eager,
    /// A handshake, then one transfer.
    Rendezvous,
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

/// Why a send stages its payload instead of lending its buffer: its
/// protocol, or the fault rung that forced it (in route order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageCause {
    /// `bsend`: the payload goes through the attached buffer.
    Buffered,
    /// `isend`: the sender returns before the transfer completes.
    Nonblocking,
    /// An eager message is deposited before any match.
    Eager,
    /// The compiled plan failed to build: the segment walk stages.
    PlanFallback,
    /// The payload pool is exhausted: an owned buffer stages.
    PoolExhaustion,
    /// A parallel-pack worker failed: the serial plan stages.
    SerialFallback,
    /// A payload byte is corrupted in flight, in a staged copy.
    Corruption,
}

impl StageCause {
    /// Every cause, in route order (`ALL[c as usize] == c`).
    pub const ALL: [StageCause; 7] = [
        StageCause::Buffered,
        StageCause::Nonblocking,
        StageCause::Eager,
        StageCause::PlanFallback,
        StageCause::PoolExhaustion,
        StageCause::SerialFallback,
        StageCause::Corruption,
    ];

    /// Snake-case name, as written to `metrics.json`.
    pub fn label(self) -> &'static str {
        match self {
            StageCause::Buffered => "buffered",
            StageCause::Nonblocking => "nonblocking",
            StageCause::Eager => "eager",
            StageCause::PlanFallback => "plan_fallback",
            StageCause::PoolExhaustion => "pool_exhaustion",
            StageCause::SerialFallback => "serial_fallback",
            StageCause::Corruption => "corruption",
        }
    }
}

/// One rung of the degradation ladder: a faster datapath swapped for a
/// slower but correct one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rung {
    /// The compiled plan failed to build: walk the segments, no iovec.
    PlanFallback,
    /// Too many forecast chunk faults on the notional chunk schedule.
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
    /// Billed as a zero-copy iovec rendezvous over regions of this shape:
    /// the sender pays per-region descriptors and the DMA-gather wire
    /// instead of a staging gather, and the receiver its own region
    /// scatter. `None` bills the staged engines.
    pub iov: Option<RegionShape>,
    /// The engine that packs a staged payload.
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
    /// Forecast chunk faults to count as chunk retries.
    pub chunk_retries: u64,
    /// Why the payload is staged; `None` lends the user buffer to the
    /// receiver ([`SendRoute::lends`]).
    pub staged: Option<StageCause>,
}

impl SendRoute {
    /// Whether the send lends its user buffer to the receiver instead of
    /// staging it.
    pub fn lends(&self) -> bool {
        self.path == Path::Rendezvous && self.staged.is_none()
    }
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
        iov: None,
        staging,
        buffer: BufferSource::Pooled,
        retries: 0,
        delay: 0.0,
        corrupt: None,
        latency_factor: 1.0,
        steps: Vec::new(),
        chunk_retries: 0,
        staged: None,
    };
    // Forecast chunk faults below the demotion threshold: counted as
    // chunk retries unless the send is billed as iovec or elem.
    let mut chunk_faults = None;
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
            r.steps.push(Step::Demote(Rung::PlanFallback));
        } else if i.chunks > 0 && i.chunk_forecast(f.plan) {
            // Each cut of the notional chunk schedule draws its own
            // fault; repeated faults demote, fewer are retried.
            let faulty = (0..i.chunks)
                .filter(|&c| f.plan.chunk_decision(f.rank, f.op, c).is_faulty())
                .count() as u64;
            if faulty >= CHUNK_DEMOTE_THRESHOLD {
                r.steps.push(Step::Demote(Rung::PipelineDemotion));
            } else {
                chunk_faults = Some(faulty);
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
            (Datapath::Iov, Regions::Bounded(shape)) => {
                r.iov = Some(shape);
                chunk_faults = None;
            }
            // A region list over the cap deterministically demotes a
            // forced iovec send, visibly. Eager and plan-failure
            // fall-throughs stay silent: the former never was eligible,
            // the latter already counts as a plan fallback.
            (Datapath::Iov, Regions::Capped) => r.steps.push(Step::Demote(Rung::IovecDemotion)),
            (Datapath::Elem, _) => {
                staging = Staging::Walk;
                chunk_faults = None;
            }
            _ => {}
        }
    }
    r.staging = staging;
    r.chunk_retries = chunk_faults.unwrap_or(0);
    r.staged = stage_cause(i, &r, stage_rung);
    Ok(r)
}

/// Why a decided route stages its payload, or `None` when it lends.
/// Every blocking standard or synchronous rendezvous lends, whatever
/// engine it is billed as, unless a fault rung changes the bytes or the
/// buffers they move through: the segment walk after a plan failure,
/// owned buffers, the serial plan, or a corrupt byte. Faults that only
/// move virtual time (retries, delay, link degradation) still lend.
fn stage_cause(i: &RouteInput, r: &SendRoute, rung: Option<Rung>) -> Option<StageCause> {
    if i.mode == SendMode::Buffered {
        Some(StageCause::Buffered)
    } else if !i.blocking {
        Some(StageCause::Nonblocking)
    } else if r.path == Path::Eager {
        Some(StageCause::Eager)
    } else if rung == Some(Rung::PlanFallback) {
        Some(StageCause::PlanFallback)
    } else if r.buffer == BufferSource::Owned {
        Some(StageCause::PoolExhaustion)
    } else if rung == Some(Rung::SerialFallback) {
        Some(StageCause::SerialFallback)
    } else if r.corrupt.is_some() {
        Some(StageCause::Corruption)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    static SKX: std::sync::LazyLock<Platform> = std::sync::LazyLock::new(Platform::skx_impi);

    /// A 1 MiB non-contiguous standard blocking rendezvous with a bounded
    /// list of 128 long regions.
    fn input(datapath: Datapath) -> RouteInput<'static> {
        RouteInput {
            mode: SendMode::Standard,
            bytes: MIB,
            access: Access::Strided { blocklen: 8192, stride: 16384 },
            contiguous: false,
            eager_limit: 64 << 10,
            blocking: true,
            chunks: 0,
            regions: Regions::Bounded(RegionShape { n: 128, subline: 0 }),
            datapath,
            platform: &SKX,
            parallel: true,
            origin: 0,
            buf_len: 2 * MIB as usize,
            span: Some((0, 2 * MIB as i128)),
        }
    }

    /// [`input`] at 8 MiB, over four notional 2 MiB chunks.
    fn large(datapath: Datapath) -> RouteInput<'static> {
        RouteInput {
            bytes: 8 * MIB,
            chunks: 4,
            buf_len: 16 * MIB as usize,
            span: Some((0, 16 * MIB as i128)),
            ..input(datapath)
        }
    }

    fn clean(i: &RouteInput) -> SendRoute {
        route(i, None).expect("in-bounds buffer")
    }

    fn site(plan: &FaultPlan) -> FaultSite<'_> {
        FaultSite { plan, rank: 0, op: 7 }
    }

    fn faulty(i: &RouteInput, plan: &FaultPlan) -> SendRoute {
        route(i, Some(site(plan))).expect("in-bounds buffer")
    }

    fn path_staging(r: &SendRoute) -> (Path, Staging, BufferSource) {
        (r.path, r.staging, r.buffer)
    }

    #[test]
    fn each_datapath_routes_without_faults() {
        use BufferSource::Pooled;
        let shape = RegionShape { n: 128, subline: 0 };
        let pack = clean(&input(Datapath::Pack));
        assert_eq!(path_staging(&pack), (Path::Rendezvous, Staging::Plan, Pooled));
        assert_eq!(pack.iov, None);
        assert!(pack.steps.is_empty());
        let iov = clean(&input(Datapath::Iov));
        assert_eq!((iov.path, iov.iov), (Path::Rendezvous, Some(shape)));
        assert!(iov.steps.is_empty());
        let elem = clean(&input(Datapath::Elem));
        assert_eq!(path_staging(&elem), (Path::Rendezvous, Staging::Walk, Pooled));
        assert_eq!(elem.iov, None);
        let auto = clean(&input(Datapath::Auto));
        assert_eq!(auto.steps, vec![Step::Select(Datapath::Iov)]);
        assert_eq!(auto.iov, Some(shape));
        // Without a bounded list the selector falls back to pack.
        let capped = clean(&RouteInput { regions: Regions::Capped, ..input(Datapath::Auto) });
        assert_eq!(capped.steps, vec![Step::Select(Datapath::Pack)]);
        assert_eq!(capped.iov, None);
        // Contiguous sends never consult the selector.
        let contiguous = clean(&RouteInput { contiguous: true, ..input(Datapath::Auto) });
        assert_eq!(path_staging(&contiguous), (Path::Rendezvous, Staging::Plan, Pooled));
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
    fn protocol_follows_mode_and_size() {
        let small = RouteInput { bytes: 4096, ..input(Datapath::Pack) };
        assert_eq!(clean(&small).path, Path::Eager);
        let ssend = RouteInput { mode: SendMode::Synchronous, ..small.clone() };
        assert_eq!(clean(&ssend).path, Path::Rendezvous);
        // Size alone never changes the protocol past the eager limit.
        for i in [large(Datapath::Pack), large(Datapath::Iov), large(Datapath::Elem)] {
            assert_eq!(clean(&i).path, Path::Rendezvous);
        }
        let bsend = RouteInput { mode: SendMode::Buffered, ..large(Datapath::Pack) };
        assert_eq!(clean(&bsend).path, Path::Rendezvous);
        assert!(!bsend.iov_eligible(None));
    }

    #[test]
    fn capped_forced_iov_demotes_and_is_counted() {
        let capped = RouteInput { regions: Regions::Capped, ..input(Datapath::Iov) };
        let r = clean(&capped);
        assert_eq!(
            path_staging(&r),
            (Path::Rendezvous, Staging::Plan, BufferSource::Pooled)
        );
        assert_eq!(r.iov, None);
        assert_eq!(r.steps, vec![Step::Demote(Rung::IovecDemotion)]);
        // No region list at all (eager, or no plan) falls through silently.
        let absent = RouteInput { regions: Regions::Absent, ..input(Datapath::Iov) };
        assert!(clean(&absent).steps.is_empty());
        let mut stats = FaultStats::default();
        Rung::IovecDemotion.count(&mut stats);
        assert_eq!(stats.iovec_demotions, 1);
        assert_eq!(stats.demotions(), 1);
    }

    #[test]
    fn plan_failure_rules_out_iovec_and_the_chunk_forecast() {
        let plan = FaultPlan::quiet(1).with_plan_failures(1.0).with_chunk_faults(1.0, 0.0);
        let big = large(Datapath::Iov);
        assert!(!big.iov_eligible(Some(site(&plan))));
        assert!(big.iov_eligible(None));
        // An ineligible send never looks its regions up.
        let r = faulty(&RouteInput { regions: Regions::Absent, ..big }, &plan);
        assert_eq!(
            path_staging(&r),
            (Path::Rendezvous, Staging::Walk, BufferSource::Pooled)
        );
        assert_eq!(r.steps, vec![Step::Demote(Rung::PlanFallback)]);
        assert_eq!(r.chunk_retries, 0);
        // Contiguous sends have no plan to fail.
        let contiguous = RouteInput { contiguous: true, ..input(Datapath::Pack) };
        assert!(faulty(&contiguous, &plan).steps.is_empty());
    }

    #[test]
    fn chunk_fault_forecast_demotes_or_counts_retries() {
        let plan = FaultPlan::quiet(1).with_chunk_faults(1.0, 0.0);
        // Four faulty cuts: at or over the threshold.
        let r = faulty(&large(Datapath::Pack), &plan);
        assert_eq!(r.steps, vec![Step::Demote(Rung::PipelineDemotion)]);
        assert_eq!(r.chunk_retries, 0);
        // The demotion is a count: the send still lends.
        assert!(r.lends());
        // Two faulty cuts: below it, each counts as a retried chunk.
        let two = RouteInput { chunks: 2, ..large(Datapath::Pack) };
        let r = faulty(&two, &plan);
        assert!(r.steps.is_empty());
        assert_eq!(r.chunk_retries, 2);
        // Iovec and elem billing, an isend, a bsend and a send under the
        // schedule's threshold forecast no retries.
        let none = [
            RouteInput { chunks: 2, ..large(Datapath::Iov) },
            RouteInput { chunks: 2, ..large(Datapath::Elem) },
            RouteInput { blocking: false, ..two.clone() },
            RouteInput { mode: SendMode::Buffered, blocking: false, ..two.clone() },
            RouteInput { bytes: 4 * MIB - 1, ..two.clone() },
        ];
        for i in &none {
            assert_eq!(faulty(i, &plan).chunk_retries, 0, "{:?}", (i.mode, i.blocking, i.bytes));
        }
        // The schedule's threshold lives on the fault plan.
        let low = plan.clone().with_chunk_schedule(MIB, MIB / 2);
        let r = faulty(&RouteInput { chunks: 2, ..input(Datapath::Pack) }, &low);
        assert_eq!(r.chunk_retries, 2);
    }

    #[test]
    fn chunk_cuts_walk_instance_aligned_boundaries() {
        let plan = |n: usize, block: usize| {
            let t = Datatype::vector(n, block, 2 * block as i64, &Datatype::byte()).unwrap();
            dt::plan_for(&t.commit(), 1).expect("plannable")
        };
        // 1000-byte blocks: a 2048-byte target cuts at 2000 (two cuts,
        // as `div_ceil` would say), a 1500-byte target cuts at every
        // block (four cuts where `div_ceil` says three).
        let p = plan(4, 1000);
        assert_eq!(chunk_cuts(&p, 2048), 2);
        assert_eq!(chunk_cuts(&p, 1500), 4);
        // A target below one block doubles until it advances.
        assert_eq!(chunk_cuts(&p, 300), 4);
        // Block-multiple targets: exactly `total / chunk` cuts.
        let p = plan(8192, 16);
        assert_eq!(chunk_cuts(&p, 16 << 10), 8);
        assert_eq!(chunk_cuts(&p, 24), 8192);
        // An empty message has no cuts.
        assert_eq!(chunk_cuts(&plan(0, 16), 16), 0);
    }

    #[test]
    fn pool_or_worker_failure_demotes_iovec_to_pack() {
        let pool = FaultPlan::quiet(1).with_pool_exhaustion(1.0);
        let r = faulty(&input(Datapath::Iov), &pool);
        assert_eq!(
            path_staging(&r),
            (Path::Rendezvous, Staging::Plan, BufferSource::Owned)
        );
        assert_eq!(r.iov, None);
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
        let serial = RouteInput { parallel: false, ..input(Datapath::Iov) };
        let r = faulty(&serial, &worker);
        assert!(r.iov.is_some() && r.lends());
        assert_eq!(staging(false, false, Some(site(&worker))).1, None);
    }

    #[test]
    fn exhausted_retries_fail_and_short_buffers_are_rejected() {
        let plan = FaultPlan::quiet(1).with_send_failures(1.0);
        let r = faulty(&input(Datapath::Pack), &plan);
        assert_eq!(r.path, Path::Failed);
        assert_eq!(r.retries, MAX_SEND_ATTEMPTS - 1);
        assert!(r.steps.is_empty() && !r.lends());
        assert!(!input(Datapath::Iov).iov_eligible(Some(site(&plan))));
        for dp in [Datapath::Pack, Datapath::Iov, Datapath::Elem, Datapath::Auto] {
            let short = RouteInput { buf_len: MIB as usize, ..input(dp) };
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
    fn every_clean_blocking_rendezvous_lends() {
        // Whatever engine bills it, whatever its size and layout, a clean
        // blocking standard or synchronous rendezvous lends.
        let mut lenders = Vec::new();
        for dp in [Datapath::Pack, Datapath::Iov, Datapath::Elem, Datapath::Auto] {
            lenders.push(input(dp));
            lenders.push(large(dp));
            lenders.push(RouteInput { regions: Regions::Capped, ..input(dp) });
            lenders.push(RouteInput { mode: SendMode::Synchronous, ..input(dp) });
            // A synchronous send lends at any size, eager-sized included.
            lenders.push(RouteInput { mode: SendMode::Synchronous, bytes: 4096, ..input(dp) });
        }
        lenders.push(RouteInput { contiguous: true, ..input(Datapath::Pack) });
        for i in &lenders {
            let r = clean(i);
            assert_eq!((r.path, r.staged), (Path::Rendezvous, None), "{:?}", i.datapath);
            assert!(r.lends());
        }
        // The protocol stages an isend, a bsend and an eager send.
        let base = input(Datapath::Pack);
        let staged = [
            (RouteInput { blocking: false, ..base.clone() }, StageCause::Nonblocking),
            (
                RouteInput { mode: SendMode::Buffered, blocking: false, ..base.clone() },
                StageCause::Buffered,
            ),
            (RouteInput { bytes: 4096, ..base.clone() }, StageCause::Eager),
        ];
        for (i, cause) in &staged {
            let r = clean(i);
            assert_eq!(r.staged, Some(*cause));
            assert!(!r.lends());
        }

        // Faults: a corrupt byte, owned buffers, the serial plan and the
        // segment walk after a plan failure force staging, and name it;
        // faults that only move virtual time do not.
        let forced = [
            (FaultPlan::quiet(1).with_corruption(1.0), StageCause::Corruption),
            (FaultPlan::quiet(1).with_pool_exhaustion(1.0), StageCause::PoolExhaustion),
            (FaultPlan::quiet(1).with_pack_worker_failures(1.0), StageCause::SerialFallback),
            (FaultPlan::quiet(1).with_plan_failures(1.0), StageCause::PlanFallback),
        ];
        for (plan, cause) in &forced {
            let r = faulty(&base, plan);
            assert_eq!((r.path, r.staged), (Path::Rendezvous, Some(*cause)));
        }
        let timed = [
            FaultPlan::quiet(1).with_delays(1.0, 1e-3),
            FaultPlan::quiet(1).with_link_degradation(0, 100, 4.0),
            FaultPlan::quiet(1).with_chunk_faults(1.0, 0.0),
        ];
        for plan in &timed {
            let r = faulty(&large(Datapath::Pack), plan);
            assert!(r.delay > 0.0 || r.latency_factor > 1.0 || !r.steps.is_empty());
            assert!(r.lends());
        }

        // Over a chaos schedule a route lends exactly when no fault rung
        // forces staging, whatever the billed engine, and retried sends
        // still lend.
        let mut retried_lends = 0;
        for seed in 0..16 {
            let plan = FaultPlan::chaos(seed)
                .with_send_failures(0.5)
                .with_corruption(0.2)
                .with_pool_exhaustion(0.2)
                .with_plan_failures(0.2)
                .with_pack_worker_failures(0.2);
            for op in 0..32 {
                let dp = [Datapath::Pack, Datapath::Iov, Datapath::Elem, Datapath::Auto][op % 4];
                let i = RouteInput { bytes: MIB + op as u64, ..input(dp) };
                let r = route(&i, Some(FaultSite { plan: &plan, rank: 0, op: op as u64 })).unwrap();
                let forced = plan.plan_compile_fails(0, op as u64)
                    || plan.pool_exhausted(0, op as u64)
                    || plan.pack_worker_fails(0, op as u64)
                    || r.corrupt.is_some();
                let rule = r.path == Path::Rendezvous && !forced;
                assert_eq!(r.lends(), rule, "seed {seed} op {op}: {r:?}");
                retried_lends += usize::from(r.lends() && r.retries > 0);
            }
        }
        assert!(retried_lends > 0);
    }

    #[test]
    fn same_plan_rank_and_op_give_the_same_route() {
        let inputs = [
            input(Datapath::Auto),
            input(Datapath::Iov),
            large(Datapath::Pack),
            RouteInput { bytes: 4096, ..input(Datapath::Elem) },
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
                    let a = route(i, Some(FaultSite { plan: &plan, rank: 1, op }));
                    let b = route(i, Some(FaultSite { plan: &again, rank: 1, op }));
                    assert_eq!(a, b, "seed {seed} op {op}");
                    seen.insert(format!("{:?}", a.map(|r| (r.path, r.staging, r.staged))));
                }
            }
        }
        // The schedule really varies the route.
        assert!(seen.len() >= 4, "routes seen: {seen:?}");
    }
}
