//! Turning a workload's measurements into named metrics, and the one
//! JSON line the benchmark ends with.

use nonctg_core::{selector_counters, SelectorCounters};
use nonctg_datatype::{cache_stats, PlanCacheStats};

use crate::median;
use crate::os::ProcSample;
use crate::trace::{self, SpanRec};

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `GB/s`, `count`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Process-wide counters the runtime keeps, sampled at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    cache: PlanCacheStats,
    sel: SelectorCounters,
    proc: ProcSample,
}

impl Counters {
    /// Sample the plan cache, the selector and `/proc/self/stat`.
    pub fn now() -> Counters {
        Counters { cache: cache_stats(), sel: selector_counters(), proc: ProcSample::now() }
    }
}

/// Everything a traced phase adds up besides its spans.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Wall intervals of the traced end-to-end work.
    pub windows: Vec<(u64, u64)>,
    /// Plan compilations (cache misses).
    pub compiles: u64,
    /// Plan-cache hits.
    pub hits: u64,
    /// Seconds spent compiling plans.
    pub compile_s: f64,
    /// Normalization misses (types canonicalized afresh).
    pub norm_misses: u64,
    /// Selector decisions.
    pub sel: SelectorCounters,
    /// Process CPU and fault counters.
    pub proc: ProcSample,
    /// Iovec sends demoted to pack.
    pub iovec_demotions: u64,
    /// Bytes of sweep CSV rendered.
    pub csv_bytes: u64,
    /// Wall seconds of each traced op.
    pub traced_ops: Vec<f64>,
    /// Wall seconds of each untraced op run alongside, for the overhead.
    pub untraced_ops: Vec<f64>,
}

impl Traced {
    /// Close a traced phase that began with `c0` at `start_ns`.
    pub fn add_phase(&mut self, c0: &Counters, start_ns: u64) {
        let c1 = Counters::now();
        self.windows.push((start_ns, trace::now_ns()));
        self.compiles += c1.cache.misses.saturating_sub(c0.cache.misses);
        self.hits += c1.cache.hits.saturating_sub(c0.cache.hits);
        self.compile_s +=
            c1.cache.compile_nanos.saturating_sub(c0.cache.compile_nanos) as f64 * 1e-9;
        self.norm_misses += c1.cache.norm_misses.saturating_sub(c0.cache.norm_misses);
        let d = c1.sel.delta_since(&c0.sel);
        self.sel.pack += d.pack;
        self.sel.iov += d.iov;
        self.sel.elem += d.elem;
        self.proc.add(&c1.proc.since(&c0.proc));
    }
}

/// A workload run's results.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (points or reps).
    pub attempted: u64,
    /// Operations that failed, mismatched or broke a digest.
    pub failed: u64,
    /// Set-up wall seconds, one sample per set-up.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each timed untraced repetition: a whole sweep
    /// (points and rendering), or one cycle of legs.
    pub reps: Vec<f64>,
    /// Operations in one repetition: sweep points, or 1 for a cycle.
    pub ops_per_rep: f64,
    /// Payload bytes one repetition delivers.
    pub rep_payload: u64,
    /// Wall seconds of each timed untraced operation (point or cycle).
    pub ops: Vec<f64>,
    /// Digest of each repetition's virtual-time outputs.
    pub digests: Vec<u64>,
    /// Workload-specific metrics, printed for reading only.
    pub info: Vec<Metric>,
    /// Traced-phase totals (traced runs only).
    pub traced: Option<Traced>,
}

impl Outcome {
    /// Count every digest that differs from the first as a failure.
    pub fn check_digests(&mut self) -> usize {
        let bad = self.digests.iter().filter(|&&d| Some(&d) != self.digests.first()).count();
        self.failed += bad as u64;
        bad
    }

    /// The end-to-end metrics every workload reports. Rates divide by
    /// the median repetition, so a burst of interference from other
    /// tenants of the host moves them less than a mean would.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let rep = median(&self.reps);
        vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric("ops_per_s", self.ops_per_rep / rep, "1/s"),
            metric("payload_gbps", self.rep_payload as f64 / rep / 1e9, "GB/s"),
        ]
    }
}

/// Legs and kernels with their own p2p breakdown.
pub const LEGS: [&str; 8] = ["small", "large", "packed", "contig", "lammps", "milc", "nas", "wrf"];

/// The per-layer metrics of a traced run. `memcpy_bps` is the in-run
/// memcpy throughput the pack kernels are held against.
pub fn per_layer(t: &Traced, spans: &[SpanRec], memcpy_bps: Option<f64>) -> Vec<Metric> {
    let tot = trace::totals(spans);
    let get = |k: &str| tot.get(k).copied().unwrap_or_default();
    let build = get("datatype.build");
    let pack = get("datatype.pack");
    let fill = get("schemes.workload.fill");
    let send = get("core.p2p.send");
    let pack_bps = if pack.self_s > 0.0 { pack.bytes as f64 / pack.self_s } else { 0.0 };
    let kept = if t.sel.iov > 0 {
        t.sel.iov.saturating_sub(t.iovec_demotions) as f64 / t.sel.iov as f64
    } else {
        0.0
    };
    let overhead = if t.untraced_ops.is_empty() || t.traced_ops.is_empty() {
        0.0
    } else {
        median(&t.traced_ops) / median(&t.untraced_ops) - 1.0
    };
    let mut m = vec![
        metric("datatype.build.calls", build.calls as f64, "count"),
        metric("datatype.build.busy_s", build.self_s, "s"),
        metric("datatype.build.alloc_bytes", build.alloc_bytes as f64, "B"),
        metric("datatype.plan.prepare_s", get("datatype.plan.prepare").self_s, "s"),
        metric("datatype.plan.compiles", t.compiles as f64, "count"),
        metric("datatype.plan.hits", t.hits as f64, "count"),
        metric("datatype.plan.compile_s", t.compile_s, "s"),
        metric("datatype.normalize.misses", t.norm_misses as f64, "count"),
        metric("datatype.pack.bytes", pack.bytes as f64, "B"),
        metric("datatype.pack.busy_s", pack.self_s, "s"),
        metric("datatype.pack.gbps", pack_bps / 1e9, "GB/s"),
        metric("datatype.pack.roofline_pct", memcpy_bps.map_or(0.0, |c| 100.0 * pack_bps / c), "%"),
        metric("schemes.workload.fill_bytes", fill.bytes as f64, "B"),
        metric("schemes.workload.fill_s", fill.self_s, "s"),
        metric("schemes.workload.fill_minor_faults", fill.minor_faults as f64, "count"),
        metric("schemes.copy_s", get("schemes.copy").self_s, "s"),
        metric("schemes.verify_s", get("schemes.verify").self_s, "s"),
        metric("core.universe.spawns", get("core.universe.spawn_join").calls as f64, "count"),
        metric("core.universe.spawn_join_s", get("core.universe.spawn_join").self_s, "s"),
        metric("core.comm.barrier_s", get("core.comm.barrier").self_s, "s"),
        metric("core.p2p.send.calls", send.calls as f64, "count"),
        metric("core.p2p.send.bytes", send.bytes as f64, "B"),
        metric("core.p2p.send.busy_s", send.self_s, "s"),
        metric("core.p2p.recv_s", get("core.p2p.recv").self_s, "s"),
        metric("core.p2p.pong_wait_s", get("core.p2p.pong_wait").self_s, "s"),
        metric("core.rma.put_fence_s", get("core.rma.put_fence").self_s, "s"),
    ];
    for leg in LEGS {
        m.push(metric(
            format!("core.p2p.send.busy_s.{leg}"),
            get(&format!("core.p2p.send.{leg}")).self_s,
            "s",
        ));
        m.push(metric(
            format!("core.p2p.recv_s.{leg}"),
            get(&format!("core.p2p.recv.{leg}")).self_s,
            "s",
        ));
    }
    m.extend([
        metric("core.selector.pack", t.sel.pack as f64, "count"),
        metric("core.selector.iov", t.sel.iov as f64, "count"),
        metric("core.selector.elem", t.sel.elem as f64, "count"),
        metric("core.fault.iovec_demotions", t.iovec_demotions as f64, "count"),
        metric("core.selector.iov_kept_ratio", kept, "ratio"),
        metric("report.render_s", get("report.render").self_s, "s"),
        metric("report.csv_bytes", t.csv_bytes as f64, "B"),
        metric("os.minor_faults", t.proc.minor_faults as f64, "count"),
        metric("os.sys_s", t.proc.sys_s, "s"),
        metric("os.user_s", t.proc.user_s, "s"),
        metric("trace.overhead_share", overhead, "ratio"),
        metric("trace.unattributed_share", trace::unattributed_share(spans, &t.windows), "ratio"),
        metric("trace.spans", spans.len() as f64, "count"),
    ]);
    m
}

/// Minimal JSON string escaping for names and messages.
pub fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A finite number in JSON form with every digit Rust's shortest
/// round-trip formatting gives; non-finite values become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The benchmark's last line: correctness, counts and metrics. A
/// non-finite metric makes the run incorrect.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct && finite,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}
