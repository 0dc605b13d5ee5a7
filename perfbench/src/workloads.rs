//! The three workloads. Each runs one rank pair at a time, in a closed
//! loop, for about the requested wall seconds, and returns an
//! [`Outcome`]. In a traced run, untraced and traced repetitions
//! alternate so the tracing overhead is measured in the same process.

use std::time::Instant;

use nonctg_bench::{paper_panels, sweep_csv};
use nonctg_core::{Comm, FaultStats, Result};
use nonctg_datatype::{as_bytes, Datatype};
use nonctg_report::{render_figure, PanelGeom};
use nonctg_schemes::{
    try_run_scheme, AppKernel, KernelWorkload, PingPongConfig, PingPongResult, PointStatus, Scheme,
    Sweep, SweepConfig, SweepFaults, SweepPoint, Workload, PING_TAG,
};
use nonctg_simnet::{Datapath, Platform};

use crate::exchange::{run_round, Exchange, Leg, Round};
use crate::report::{metric, Counters, Outcome, Traced};
use crate::trace::{self, span, span_faults};
use crate::{median, percentile, pingpong, Digest, Rng};

/// The workloads, by the name `--workload` takes.
pub const NAMES: [&str; 3] = ["paper_sweep", "steady_pingpong", "ddtbench_exchange"];

/// Run workload `name`; `None` for an unknown name.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    let platform = Platform { seed, ..Platform::skx_impi() };
    Some(match name {
        "paper_sweep" => paper_sweep(&platform, seed, seconds, traced),
        "steady_pingpong" => exchanges(&platform, seed, seconds, traced, 5, Steady::new),
        "ddtbench_exchange" => exchanges(&platform, seed, seconds, traced, 8, Ddt::new),
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// paper_sweep
// ---------------------------------------------------------------------

/// The figure-1 sweep: eight schemes, 1 KiB to 16 MiB in x4 steps.
fn sweep_config() -> SweepConfig {
    SweepConfig { min_bytes: 1 << 10, max_bytes: 16 << 20, step: 4, ..SweepConfig::default() }
}

/// The engine a sweep records for a point, as `nonctg_schemes` derives
/// it: the forced engine, else the selector's choice under the
/// runtime's eligibility rules.
fn selected_for(platform: &Platform, w: &Workload) -> Datapath {
    match platform.effective_datapath() {
        Datapath::Auto => {
            let bytes = w.msg_bytes() as u64;
            let eager = bytes <= platform.eager_threshold(false);
            let n = w.elems();
            let regions = (!eager && n <= nonctg_core::iov_max_regions()).then_some(n as u64);
            nonctg_core::selector::choose(platform.id, bytes, regions)
        }
        forced => forced,
    }
}

/// Assemble measured points (canonical order) into a sweep, with each
/// size group's slowdowns taken from its own reference point.
fn assemble(
    platform: &Platform,
    work: &[(Workload, Scheme)],
    results: Vec<Option<PingPongResult>>,
) -> Sweep {
    let mut points = Vec::with_capacity(work.len());
    let mut faults = SweepFaults::default();
    for ((w, scheme), r) in work.iter().zip(results) {
        let f = r.as_ref().map_or(FaultStats::default(), |r| r.faults);
        let pf = SweepFaults::from_stats(f);
        faults.merge(pf);
        points.push(SweepPoint {
            scheme: *scheme,
            msg_bytes: w.msg_bytes(),
            time: r.as_ref().map_or(f64::NAN, |r| r.time()),
            bandwidth: r.as_ref().map_or(0.0, |r| r.bandwidth()),
            slowdown: f64::NAN,
            status: if r.is_some() { PointStatus::Ok } else { PointStatus::Failed },
            selected: selected_for(platform, w),
            faults: pf,
        });
    }
    for group in points.chunk_by_mut(|a, b| a.msg_bytes == b.msg_bytes) {
        let ref_time = group
            .iter()
            .find(|p| p.scheme == Scheme::Reference && p.status == PointStatus::Ok)
            .map_or(f64::NAN, |p| p.time);
        for p in group.iter_mut() {
            p.slowdown = if p.status == PointStatus::Ok { p.time / ref_time } else { f64::NAN };
        }
    }
    Sweep { platform: platform.id, points, faults }
}

/// One whole sweep's measurements.
struct SweepRun {
    /// Wall seconds of each untimed set-up point.
    setup_s: Vec<f64>,
    /// Wall seconds from the start of set-up to the first timed point.
    setup_total_s: f64,
    points: Vec<f64>,
    wall_s: f64,
    payload: u64,
    attempted: u64,
    failed: u64,
    digest: u64,
    csv_bytes: u64,
}

fn one_sweep(platform: &Platform, rng: &mut Rng, traced: bool) -> SweepRun {
    let measure = |scheme, w: &Workload, pp: &PingPongConfig, req| {
        let _p = span("bench.point");
        if traced {
            pingpong::run_point(platform, scheme, w, pp, req)
        } else {
            try_run_scheme(platform, scheme, w, pp)
        }
    };
    let mut run = SweepRun {
        setup_s: Vec::new(),
        setup_total_s: 0.0,
        points: Vec::new(),
        wall_s: 0.0,
        payload: 0,
        attempted: 0,
        failed: 0,
        digest: 0,
        csv_bytes: 0,
    };

    // Set-up: the work list, its seeded order, and one untimed point of
    // every scheme at the smallest size, so lazily built state (pack
    // pool, plan cache, selector tables) exists before timing. Each of
    // those points is one set-up sample: spawn, fill, build, join.
    let t_setup = Instant::now();
    let cfg = sweep_config();
    let work: Vec<(Workload, Scheme)> = cfg
        .sizes()
        .into_iter()
        .flat_map(|b| cfg.schemes.iter().map(move |&s| (Workload::every_other(b / 8), s)))
        .collect();
    let mut order: Vec<usize> = (0..work.len()).collect();
    rng.shuffle(&mut order);
    {
        let _s = span("bench.setup");
        let smallest = Workload::every_other(cfg.min_bytes / 8);
        for (i, &scheme) in cfg.schemes.iter().enumerate() {
            let req = u64::MAX - i as u64;
            trace::set_request(scheme.key(), req);
            let t0 = Instant::now();
            let r = measure(scheme, &smallest, &cfg.base, req);
            run.setup_s.push(t0.elapsed().as_secs_f64());
            run.attempted += 1;
            run.failed += u64::from(r.is_err());
        }
    }
    run.setup_total_s = t_setup.elapsed().as_secs_f64();

    let t_sweep = Instant::now();
    let mut results: Vec<Option<PingPongResult>> = vec![None; work.len()];
    for idx in order {
        let (w, scheme) = work[idx];
        let pp = cfg.base.clone().adaptive(w.msg_bytes());
        trace::set_request(scheme.key(), idx as u64);
        let t0 = Instant::now();
        let r = measure(scheme, &w, &pp, idx as u64);
        run.points.push(t0.elapsed().as_secs_f64());
        run.attempted += 1;
        match r {
            Ok(r) => {
                run.payload += (w.msg_bytes() * pp.reps) as u64;
                results[idx] = Some(r);
            }
            Err(e) => {
                eprintln!("paper_sweep: {} at {} B: {e}", scheme.key(), w.msg_bytes());
                run.failed += 1;
            }
        }
    }
    {
        let mut s = span("report.render");
        let sweep = assemble(platform, &work, results);
        let csv = sweep_csv(&sweep);
        let svg = render_figure("fig1 skx-impi", &paper_panels(&sweep), PanelGeom::default());
        std::hint::black_box(svg);
        s.bytes(csv.len());
        let mut d = Digest::new();
        d.bytes(csv.as_bytes());
        run.digest = d.finish();
        run.csv_bytes = csv.len() as u64;
    }
    run.wall_s = t_sweep.elapsed().as_secs_f64();
    run
}

fn paper_sweep(platform: &Platform, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = traced.then(Traced::default);
    let mut rng = Rng::new(seed);
    let mut elapsed = 0.0;
    let mut n = 0;
    // Whole sweeps only, so every run times the same mix of points; a
    // traced run alternates untraced and traced sweeps.
    while n == 0 || elapsed < seconds || (traced && n % 2 == 1) {
        let trace_this = traced && n % 2 == 1;
        let (c0, t0) = (Counters::now(), trace::now_ns());
        trace::set_enabled(trace_this);
        let run = one_sweep(platform, &mut rng, trace_this);
        trace::set_enabled(false);
        n += 1;
        elapsed += run.setup_total_s + run.wall_s;
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.digests.push(run.digest);
        if let Some(tr) = &mut tr {
            if trace_this {
                tr.add_phase(&c0, t0);
                tr.csv_bytes += run.csv_bytes;
                tr.traced_ops.push(run.wall_s);
            } else {
                tr.untraced_ops.push(run.wall_s);
            }
            continue;
        }
        out.setup_s.extend(run.setup_s);
        out.reps.push(run.wall_s);
        out.ops_per_rep = run.points.len() as f64;
        out.rep_payload = run.payload;
        out.ops.extend(run.points);
    }
    if !out.ops.is_empty() {
        out.info = vec![
            metric("sweep_points_per_s", out.ops_per_rep / median(&out.reps), "1/s"),
            metric("sweep_point_p50_ms", median(&out.ops) * 1e3, "ms"),
            metric("sweep_point_p84_ms", percentile(&out.ops, 84.0) * 1e3, "ms"),
            metric("sweep_points", out.ops.len() as f64, "count"),
            metric("sweeps", out.reps.len() as f64, "count"),
        ];
    }
    out.traced = tr;
    out
}

// ---------------------------------------------------------------------
// steady_pingpong and ddtbench_exchange
// ---------------------------------------------------------------------

/// Run `rounds` rounds of the exchange `make` builds. A traced run
/// rounds the count up to even and traces half of the rounds.
fn exchanges<E: Exchange>(
    platform: &Platform,
    seed: u64,
    seconds: f64,
    traced: bool,
    rounds: usize,
    make: impl Fn() -> E,
) -> Outcome {
    let rounds = if traced { 2 * rounds.div_ceil(2) } else { rounds };
    let budget = seconds / rounds as f64;
    let mut out = Outcome { ops_per_rep: 1.0, ..Outcome::default() };
    let mut tr = traced.then(Traced::default);
    let mut legs: Vec<Leg> = Vec::new();
    let mut rtts: Vec<Vec<f64>> = Vec::new();
    for i in 0..rounds {
        // Traced rounds in an ABBA pattern, so neither side always runs
        // first in a cold process.
        let trace_this = traced && matches!(i % 4, 1 | 2);
        let (c0, t0) = (Counters::now(), trace::now_ns());
        trace::set_enabled(trace_this);
        let r = run_round(platform, &make, seed, budget);
        trace::set_enabled(false);
        let round: Round = match r {
            Ok(round) => round,
            Err(e) => {
                eprintln!("round {i} failed: {e}");
                out.attempted += 1;
                out.failed += 1;
                continue;
            }
        };
        if legs.is_empty() {
            legs = round.legs.clone();
            rtts = vec![Vec::new(); legs.len()];
        }
        out.attempted += round.attempted;
        out.failed += round.failed;
        out.digests.push(round.digest);
        if let Some(tr) = &mut tr {
            if trace_this {
                tr.add_phase(&c0, t0);
                tr.iovec_demotions += round.faults.iovec_demotions;
                tr.traced_ops.extend(&round.cycles);
            } else {
                tr.untraced_ops.extend(&round.cycles);
            }
            continue;
        }
        out.setup_s.push(round.setup_s);
        out.rep_payload = round.cycle_payload;
        out.reps.extend(&round.cycles);
        out.ops.extend(&round.cycles);
        for (acc, r) in rtts.iter_mut().zip(round.rtts) {
            acc.extend(r);
        }
    }
    for (leg, r) in legs.iter().zip(&rtts) {
        if r.is_empty() {
            continue;
        }
        let p50 = median(r);
        out.info.push(metric(format!("{}_gbps", leg.name), leg.payload as f64 / p50 / 1e9, "GB/s"));
        out.info.push(metric(format!("{}_rtt_p50_us", leg.name), p50 * 1e6, "us"));
        out.info.push(metric(format!("{}_rtt_p90_us", leg.name), percentile(r, 90.0) * 1e6, "us"));
        out.info.push(metric(format!("{}_rtt_samples", leg.name), r.len() as f64, "count"));
    }
    out.info.push(metric("cycle_p50_ms", median(&out.ops) * 1e3, "ms"));
    out.info.push(metric("cycle_p90_ms", percentile(&out.ops, 90.0) * 1e3, "ms"));
    out.info.push(metric("cycles", out.ops.len() as f64, "count"));
    out.traced = tr;
    out
}

/// The paper's stride-2 `f64` workload in a long-lived universe: a
/// 4 KiB vector send (eager, cache-resident), a 64 MiB vector send
/// (rendezvous, chunked pipeline, parallel pack) from a 128 MiB source,
/// the same 64 MiB packed explicitly then sent, and 64 MiB sent
/// contiguously as the plain baseline. Every payload is received
/// contiguously, as in the paper.
struct Steady {
    legs: [Leg; 4],
    small: Workload,
    big: Workload,
}

const SMALL: usize = 0;
const LARGE: usize = 1;
const PACKED: usize = 2;
const CONTIG: usize = 3;

impl Steady {
    fn new() -> Steady {
        let small = Workload::every_other(512);
        let big = Workload::every_other(8 << 20);
        let leg = |name, w: Workload, burst| Leg { name, payload: w.msg_bytes(), burst };
        Steady {
            legs: [
                leg("small", small, 32),
                leg("large", big, 1),
                leg("packed", big, 1),
                leg("contig", big, 1),
            ],
            small,
            big,
        }
    }
}

struct SteadySender {
    small_src: Vec<f64>,
    small_t: Datatype,
    src: Vec<f64>,
    contig: Vec<f64>,
    vec_t: Datatype,
    packbuf: Vec<u8>,
}

struct SteadyReceiver {
    small_buf: Vec<f64>,
    small_expected: Vec<f64>,
    buf: Vec<f64>,
    expected: Vec<f64>,
}

impl Exchange for Steady {
    type Sender = SteadySender;
    type Receiver = SteadyReceiver;

    fn legs(&self) -> &[Leg] {
        &self.legs
    }

    fn setup_sender(&self, comm: &mut Comm) -> Result<SteadySender> {
        let (small_src, src, contig) = {
            let mut s = span_faults("schemes.workload.fill");
            let v = (self.small.make_source(), self.big.make_source(), self.big.expected());
            s.bytes((v.0.len() + v.1.len() + v.2.len()) * Workload::ELEM);
            v
        };
        let mut packbuf = comm.take_scratch(self.big.msg_bytes());
        packbuf.truncate(self.big.msg_bytes());
        let (small_t, vec_t) = {
            let _s = span_faults("datatype.build");
            (self.small.vector_type()?, self.big.vector_type()?)
        };
        {
            let _s = span("datatype.plan.prepare");
            comm.pack_prepare(&small_t, 1);
            comm.pack_prepare(&vec_t, 1);
        }
        Ok(SteadySender { small_src, small_t, src, contig, vec_t, packbuf })
    }

    fn setup_receiver(&self, _comm: &mut Comm) -> Result<SteadyReceiver> {
        let mut s = span_faults("schemes.workload.fill");
        let r = SteadyReceiver {
            small_buf: vec![0.0; self.small.elems()],
            small_expected: self.small.expected(),
            buf: vec![0.0; self.big.elems()],
            expected: self.big.expected(),
        };
        s.bytes(2 * (self.small.msg_bytes() + self.big.msg_bytes()));
        Ok(r)
    }

    fn send(&self, st: &mut SteadySender, comm: &mut Comm, leg: usize) -> Result<()> {
        if leg == PACKED {
            let mut s = span("datatype.pack");
            s.bytes(self.big.msg_bytes());
            let mut pos = 0;
            comm.pack(as_bytes(&st.src), 0, &st.vec_t, 1, &mut st.packbuf, &mut pos)?;
        }
        let mut s = span("core.p2p.send");
        s.bytes(self.legs[leg].payload);
        match leg {
            SMALL => comm.send(as_bytes(&st.small_src), 0, &st.small_t, 1, 1, PING_TAG),
            LARGE => comm.send(as_bytes(&st.src), 0, &st.vec_t, 1, 1, PING_TAG),
            PACKED => comm.send_packed(&st.packbuf, 1, PING_TAG),
            CONTIG => comm.send_slice(&st.contig, 1, PING_TAG),
            _ => unreachable!("steady_pingpong has four legs"),
        }
    }

    fn recv(&self, st: &mut SteadyReceiver, comm: &mut Comm, leg: usize) -> Result<usize> {
        let mut s = span("core.p2p.recv");
        s.bytes(self.legs[leg].payload);
        let buf = if leg == SMALL { &mut st.small_buf } else { &mut st.buf };
        Ok(comm.recv_slice(buf, Some(0), Some(PING_TAG))?.bytes)
    }

    fn clear(&self, st: &mut SteadyReceiver, leg: usize) {
        if leg == SMALL { &mut st.small_buf } else { &mut st.buf }.fill(0.0);
    }

    fn check(&self, st: &SteadyReceiver, leg: usize) -> bool {
        if leg == SMALL {
            st.small_buf == st.small_expected
        } else {
            st.buf == st.expected
        }
    }
}

/// The four ddtbench layouts at about 1 MiB each, each sent from its
/// layout and received into the same layout: one side packs (or
/// gathers regions), the other scatters.
struct Ddt {
    legs: Vec<Leg>,
    kernels: Vec<KernelWorkload>,
}

/// Target payload of each ddtbench kernel.
const DDT_BYTES: usize = 1 << 20;

impl Ddt {
    fn new() -> Ddt {
        let _s = span_faults("datatype.build");
        let kernels: Vec<KernelWorkload> =
            AppKernel::ALL.iter().map(|&k| KernelWorkload::sized(k, DDT_BYTES)).collect();
        let legs = kernels
            .iter()
            .map(|w| Leg { name: w.kernel.key(), payload: w.msg_bytes, burst: 1 })
            .collect();
        Ddt { legs, kernels }
    }
}

struct DdtReceiver {
    bufs: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
}

impl Exchange for Ddt {
    type Sender = Vec<Vec<u8>>;
    type Receiver = DdtReceiver;

    fn legs(&self) -> &[Leg] {
        &self.legs
    }

    fn setup_sender(&self, comm: &mut Comm) -> Result<Vec<Vec<u8>>> {
        let mut s = span_faults("schemes.workload.fill");
        let srcs: Vec<Vec<u8>> = self.kernels.iter().map(|w| w.make_source()).collect();
        s.bytes(srcs.iter().map(Vec::len).sum());
        drop(s);
        let _s = span("datatype.plan.prepare");
        for w in &self.kernels {
            comm.pack_prepare(&w.dtype, 1);
        }
        Ok(srcs)
    }

    fn setup_receiver(&self, comm: &mut Comm) -> Result<DdtReceiver> {
        let mut s = span_faults("schemes.workload.fill");
        let bufs: Vec<Vec<u8>> = self.kernels.iter().map(|w| vec![0u8; w.extent]).collect();
        let expected: Vec<Vec<u8>> =
            self.kernels.iter().map(|w| w.expected(&w.make_source())).collect();
        s.bytes(bufs.iter().map(Vec::len).sum::<usize>() * 2);
        drop(s);
        let _s = span("datatype.plan.prepare");
        for w in &self.kernels {
            comm.pack_prepare(&w.dtype, 1);
        }
        Ok(DdtReceiver { bufs, expected })
    }

    fn send(&self, srcs: &mut Vec<Vec<u8>>, comm: &mut Comm, leg: usize) -> Result<()> {
        let w = &self.kernels[leg];
        let mut s = span("core.p2p.send");
        s.bytes(w.msg_bytes);
        comm.send(&srcs[leg], 0, &w.dtype, 1, 1, PING_TAG)
    }

    fn recv(&self, st: &mut DdtReceiver, comm: &mut Comm, leg: usize) -> Result<usize> {
        let w = &self.kernels[leg];
        let mut s = span("core.p2p.recv");
        s.bytes(w.msg_bytes);
        Ok(comm.recv(&mut st.bufs[leg], 0, &w.dtype, 1, Some(0), Some(PING_TAG))?.bytes)
    }

    fn clear(&self, st: &mut DdtReceiver, leg: usize) {
        st.bufs[leg].fill(0);
    }

    fn check(&self, st: &DdtReceiver, leg: usize) -> bool {
        // Pack the typed receive buffer back through the uncompiled
        // oracle and compare with the oracle payload of the source.
        self.kernels[leg].expected(&st.bufs[leg]) == st.expected[leg]
    }
}
