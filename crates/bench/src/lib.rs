//! # nonctg-bench — harness utilities behind the figure binaries
//!
//! Maps sweeps onto the report crate's plotting structures with the fixed
//! scheme→palette assignment, renders the paper's three-panel figures
//! (time / bandwidth / slowdown), and provides the tiny CLI option parser
//! the binaries share.

#![warn(missing_docs)]

pub mod history;

use std::fs;
use std::path::{Path, PathBuf};

use nonctg_core::TraceEvent;
use nonctg_report::{chrome_trace_json, render_figure, PanelGeom, PlotSpec, Series, Span};
use nonctg_schemes::{
    try_run_scheme_observed, CheckpointError, Observe, PhaseSweep, PingPongConfig, Scheme, Sweep,
    SweepPoint, Workload,
};
use nonctg_simnet::{Datapath, Platform, PlatformId};

pub use cli::Options;

/// Palette slot of a scheme (fixed: color follows the scheme identity).
pub fn palette_slot(scheme: Scheme) -> usize {
    match scheme {
        Scheme::Reference => 0,
        Scheme::Copying => 1,
        Scheme::Buffered => 2,
        Scheme::VectorType => 3,
        Scheme::Subarray => 4,
        Scheme::OneSided => 5,
        Scheme::PackingElement => 6,
        Scheme::PackingVector => 7,
    }
}

/// Convert one sweep metric into plot series (legend order). Points that
/// were not measured (Failed/Skipped under fault injection) carry NaN
/// metrics and are dropped here, so they render as gaps in the curve
/// rather than corrupting the plot; their x positions become ×-marks at
/// the panel's bottom edge. Points measured through at least one
/// graceful demotion get an open-circle overlay marker, and points whose
/// non-contiguous sends took a non-pack engine get a shape marker
/// (square = zero-copy iovec, diamond = elementwise).
pub fn sweep_series(sweep: &Sweep, metric: impl Fn(&SweepPoint) -> f64) -> Vec<Series> {
    let mut out = Vec::new();
    for scheme in Scheme::ALL {
        let series = sweep.series(scheme);
        let finite = |p: &&SweepPoint| metric(p).is_finite();
        let xy = |p: &SweepPoint| (p.msg_bytes as f64, metric(p));
        let pts: Vec<(f64, f64)> = series.iter().filter(finite).map(xy).collect();
        let marked: Vec<(f64, f64)> = series
            .iter()
            .filter(|p| p.faults.demotions > 0)
            .filter(finite)
            .map(xy)
            .collect();
        let iov_marked: Vec<(f64, f64)> = series
            .iter()
            .filter(|p| p.selected == Datapath::Iov)
            .filter(finite)
            .map(xy)
            .collect();
        let elem_marked: Vec<(f64, f64)> = series
            .iter()
            .filter(|p| p.selected == Datapath::Elem)
            .filter(finite)
            .map(xy)
            .collect();
        let failed_x: Vec<f64> = series
            .iter()
            .filter(|p| !matches!(p.status, nonctg_schemes::PointStatus::Ok))
            .map(|p| p.msg_bytes as f64)
            .collect();
        if pts.is_empty() && failed_x.is_empty() {
            continue;
        }
        out.push(
            Series::new(scheme.label(), palette_slot(scheme), pts)
                .with_marked(marked)
                .with_failed(failed_x)
                .with_iov_marked(iov_marked)
                .with_elem_marked(elem_marked),
        );
    }
    out
}

/// The paper's three panels for a sweep: time (log-log), bandwidth in Gb/s
/// (semilog-x), slowdown clamped at 10 (semilog-x).
pub fn paper_panels(sweep: &Sweep) -> Vec<(PlotSpec, Vec<Series>)> {
    vec![
        (
            PlotSpec::loglog("Time (sec)", "message size (bytes)", "seconds"),
            sweep_series(sweep, |p| p.time),
        ),
        (
            // The paper labels this axis Gb/s but plots gigaBYTES/s (its
            // Omni-Path peak reads 12.5); we match the plotted values.
            PlotSpec::semilogx("bwidth (GB/s)", "message size (bytes)", "GB/s", f64::INFINITY),
            sweep_series(sweep, |p| p.bandwidth / 1e9),
        ),
        (
            PlotSpec::semilogx("slowdown", "message size (bytes)", "vs reference", 10.0),
            sweep_series(sweep, |p| p.slowdown),
        ),
    ]
}

/// Long-format CSV of a sweep (the figures' table view).
pub fn sweep_csv(sweep: &Sweep) -> String {
    let rows: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|p| {
            vec![
                sweep.platform.name().to_string(),
                p.scheme.key().to_string(),
                p.msg_bytes.to_string(),
                format!("{:.9e}", p.time),
                format!("{:.6e}", p.bandwidth),
                format!("{:.4}", p.slowdown),
                p.status.key().to_string(),
                p.selected.name().to_string(),
                p.faults.demotions.to_string(),
            ]
        })
        .collect();
    nonctg_report::csv::to_csv(
        &[
            "platform",
            "scheme",
            "msg_bytes",
            "time_s",
            "bandwidth_Bps",
            "slowdown",
            "status",
            "selected",
            "demotions",
        ],
        &rows,
    )
}

/// How loading a `--resume` checkpoint turned out (see
/// [`load_resume_checkpoint`]).
#[derive(Debug)]
pub enum ResumeLoad {
    /// The checkpoint parsed and matches the requested platform; its Ok
    /// points will be reused.
    Resumed(Sweep),
    /// No checkpoint exists yet — a first run. Start fresh, quietly.
    Fresh,
    /// A checkpoint exists but cannot be used (unreadable file, corrupt
    /// contents, or a different platform). Start fresh, but only after
    /// the caller prints this warning: silently discarding a file the
    /// user explicitly passed to `--resume` hides data loss.
    FreshWithWarning(String),
    /// The checkpoint declares a schema version this build cannot read.
    /// The caller must abort (exit 2) instead of guessing.
    Fatal(String),
}

/// Load the `--resume` checkpoint at `path` for a sweep on `platform`.
///
/// Distinguishes the four outcomes the figures driver must handle
/// differently: a missing file is a normal first run; a corrupt or
/// mismatched checkpoint starts fresh **with a loud warning naming the
/// file and the parse error** (regression guard: `CheckpointError::Parse`
/// used to be swallowed silently); a schema-version mismatch is fatal.
pub fn load_resume_checkpoint(path: &Path, platform: PlatformId) -> ResumeLoad {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return ResumeLoad::Fresh,
        Err(e) => {
            return ResumeLoad::FreshWithWarning(format!(
                "warning: cannot read checkpoint {}: {e}; starting a fresh sweep",
                path.display()
            ))
        }
    };
    match Sweep::from_checkpoint_json(&text) {
        Ok(s) if s.platform == platform => ResumeLoad::Resumed(s),
        Ok(s) => ResumeLoad::FreshWithWarning(format!(
            "warning: checkpoint {} is for platform {}, not {}; starting a fresh sweep \
             (it will be overwritten)",
            path.display(),
            s.platform,
            platform
        )),
        // A schema mismatch is a user-facing error, not line noise:
        // silently restarting would discard the sweep the user
        // explicitly asked to resume.
        Err(e @ CheckpointError::VersionMismatch { .. }) => {
            ResumeLoad::Fatal(format!("cannot resume from {}: {e}", path.display()))
        }
        Err(CheckpointError::Parse(msg)) => ResumeLoad::FreshWithWarning(format!(
            "warning: corrupt checkpoint {}: {msg}; starting a fresh sweep \
             (it will be overwritten)",
            path.display()
        )),
    }
}

/// Default relative tolerance of the guideline checks: two point means
/// closer than this are measurement-indistinguishable under the paper's
/// ±1σ outlier rejection (`stats::summarize` / `kept_mask` dismiss
/// samples one standard deviation out, so surviving means can differ by
/// a noise band of this order without signifying a real ordering).
pub const GUIDELINE_TOL: f64 = 0.10;

/// One violated performance guideline at one sweep point.
#[derive(Debug, Clone)]
pub struct GuidelineViolation {
    /// Stable key of the violated guideline.
    pub guideline: &'static str,
    /// Message size at which it was violated.
    pub msg_bytes: usize,
    /// Measured left-hand/right-hand time ratio (≤ `1 + tol` passes).
    pub ratio: f64,
    /// Human-readable description of the comparison.
    pub detail: String,
}

/// Check a measured sweep against Hunold-style self-consistency
/// guidelines, with relative tolerance `tol` (see [`GUIDELINE_TOL`]):
///
/// * `derived-vs-pack` — sending through a derived datatype
///   (vector type) should not be slower than explicitly packing and
///   sending the same layout (packing(v)). Real MPIs violate this in
///   known protocol regimes (a packed send that stays eager while the
///   derived send goes rendezvous; staging degradation past the
///   internal buffer) — the checker reports those as findings.
/// * `subarray-vs-vector` — subarray and vector describe the same
///   layout, so their times must agree within tolerance (both ways).
/// * `bsend-vs-send` — a buffered send (`Bsend`) of the derived type
///   adds an attach-buffer staging copy on top of the plain derived
///   send, so `send ≤ Bsend`: the plain send being slower than its
///   buffered variant is a violation.
/// * `packing-e-vs-v` — packing the whole vector with one `Pack` call
///   cannot be slower than issuing one `Pack` call per element over the
///   same layout, so `packing(v) ≤ packing(e)`.
/// * `reference-floor` — no non-contiguous scheme beats the contiguous
///   reference send of the same payload.
///
/// Only points with [`PointStatus::Ok`](nonctg_schemes::PointStatus) and
/// finite times participate; a size missing either side of a comparison
/// is skipped, never reported.
pub fn guideline_violations(sweep: &Sweep, tol: f64) -> Vec<GuidelineViolation> {
    let mut out = Vec::new();
    let ok_time = |scheme, bytes| {
        sweep
            .get(scheme, bytes)
            .filter(|p| p.status == nonctg_schemes::PointStatus::Ok && p.time.is_finite())
            .map(|p| p.time)
    };
    let mut check = |name, bytes, lhs_label: &str, lhs: f64, rhs_label: &str, rhs: f64| {
        let ratio = lhs / rhs;
        if ratio > 1.0 + tol {
            out.push(GuidelineViolation {
                guideline: name,
                msg_bytes: bytes,
                ratio,
                detail: format!(
                    "{lhs_label} {lhs:.3e}s vs {rhs_label} {rhs:.3e}s at {bytes} bytes"
                ),
            });
        }
    };
    for bytes in sweep.sizes() {
        let vec_t = ok_time(Scheme::VectorType, bytes);
        if let (Some(v), Some(p)) = (vec_t, ok_time(Scheme::PackingVector, bytes)) {
            check("derived-vs-pack", bytes, "vector type", v, "packing(v)", p);
        }
        if let (Some(v), Some(s)) = (vec_t, ok_time(Scheme::Subarray, bytes)) {
            check("subarray-vs-vector", bytes, "subarray", s, "vector type", v);
            check("subarray-vs-vector", bytes, "vector type", v, "subarray", s);
        }
        if let (Some(v), Some(b)) = (vec_t, ok_time(Scheme::Buffered, bytes)) {
            check("bsend-vs-send", bytes, "vector type (send)", v, "buffered (bsend)", b);
        }
        let pv_t = ok_time(Scheme::PackingVector, bytes);
        if let (Some(pv), Some(pe)) = (pv_t, ok_time(Scheme::PackingElement, bytes)) {
            check("packing-e-vs-v", bytes, "packing(v)", pv, "packing(e)", pe);
        }
        if let Some(r) = ok_time(Scheme::Reference, bytes) {
            for scheme in Scheme::NON_CONTIGUOUS {
                if let Some(t) = ok_time(scheme, bytes) {
                    // A non-contiguous scheme "beats" reference when its
                    // time falls below r beyond tolerance.
                    check("reference-floor", bytes, "reference", r, scheme.label(), t);
                }
            }
        }
    }
    out
}

/// CSV table of guideline outcomes for a sweep: one row per violated
/// guideline instance (empty table = clean), columns
/// `platform,guideline,msg_bytes,ratio,detail`.
pub fn guidelines_csv(sweep: &Sweep, tol: f64) -> String {
    let rows: Vec<Vec<String>> = guideline_violations(sweep, tol)
        .into_iter()
        .map(|v| {
            vec![
                sweep.platform.name().to_string(),
                v.guideline.to_string(),
                v.msg_bytes.to_string(),
                format!("{:.4}", v.ratio),
                v.detail,
            ]
        })
        .collect();
    nonctg_report::csv::to_csv(&["platform", "guideline", "msg_bytes", "ratio", "detail"], &rows)
}

/// Render and write `<out>/<stem>.svg` and `<out>/<stem>.csv`; returns the
/// SVG path.
pub fn write_figure(out_dir: &Path, stem: &str, title: &str, sweep: &Sweep) -> PathBuf {
    fs::create_dir_all(out_dir).expect("create output dir");
    let svg = render_figure(title, &paper_panels(sweep), PanelGeom::default());
    let svg_path = out_dir.join(format!("{stem}.svg"));
    fs::write(&svg_path, svg).expect("write svg");
    fs::write(out_dir.join(format!("{stem}.csv")), sweep_csv(sweep)).expect("write csv");
    svg_path
}

/// Wall-clock memcpy throughput (bytes/sec) for a contiguous copy of
/// `bytes`, measured over roughly `target_secs` of repetitions after an
/// untimed warm-up. This is the roofline every pack kernel is attributed
/// against: a pack at 100% moves its packed payload as fast as a plain
/// copy of the same size.
pub fn memcpy_reference(bytes: usize, target_secs: f64) -> f64 {
    use std::hint::black_box;
    use std::time::Instant;
    let bytes = bytes.max(1);
    let src = vec![0x5Au8; bytes];
    let mut dst = vec![0u8; bytes];
    dst.copy_from_slice(&src); // warm pages
    let mut iters = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(&mut dst[..]).copy_from_slice(black_box(&src[..]));
        }
        let secs = t0.elapsed().as_secs_f64();
        if secs >= target_secs || iters >= 1 << 22 {
            return (bytes * iters) as f64 / secs.max(1e-12);
        }
        iters = (iters * 2).max((iters as f64 * 1.1 * target_secs / secs.max(1e-9)) as usize);
    }
}

/// Convert per-rank traced events (outer index = rank) into report
/// spans: one track per rank, named by the operation's label.
pub fn events_to_spans(events: &[Vec<TraceEvent>]) -> Vec<Span> {
    let mut spans = Vec::new();
    for (rank, evs) in events.iter().enumerate() {
        for e in evs {
            spans.push(Span {
                track: rank,
                name: e.kind.label().to_string(),
                t_start: e.t_start,
                t_end: e.t_end,
                bytes: e.bytes,
                peer: e.peer,
                tag: e.tag.map(i64::from),
            });
        }
    }
    spans
}

/// Number of elements in the instrumented observability ping-pong
/// (2^20 doubles, an 8 MiB payload — the paper's large-message regime).
pub const OBS_ELEMS: usize = 1 << 20;

/// Run an instrumented two-rank vector-type ping-pong ([`OBS_ELEMS`]
/// elements) and write the requested artifacts: a Chrome-tracing /
/// Perfetto JSON to `trace_out` and the merged per-rank metrics JSON to
/// `metrics_out`. Does nothing when both are `None`; with `ascii` set,
/// also prints the per-rank timeline to stdout.
pub fn write_observability(
    platform: &Platform,
    trace_out: Option<&Path>,
    metrics_out: Option<&Path>,
    ascii: bool,
) {
    if trace_out.is_none() && metrics_out.is_none() {
        return;
    }
    let obs = Observe { trace: trace_out.is_some(), metrics: metrics_out.is_some() };
    let w = Workload::every_other(OBS_ELEMS);
    let cfg = PingPongConfig { reps: 3, ..PingPongConfig::default() };
    let run = try_run_scheme_observed(platform, Scheme::VectorType, &w, &cfg, obs)
        .expect("instrumented ping-pong failed");
    if let Some(path) = trace_out {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create trace output dir");
        }
        let spans = events_to_spans(&run.events);
        let names: Vec<String> = (0..run.events.len()).map(|r| format!("rank {r}")).collect();
        let process = format!("nonctg {} vector ping-pong", platform.id);
        fs::write(path, chrome_trace_json(&spans, &process, &names)).expect("write trace json");
        eprintln!("  wrote {} ({} spans)", path.display(), spans.len());
        if ascii {
            println!("{}", nonctg_report::ascii_spans(&spans, 100));
        }
    }
    if let Some(path) = metrics_out {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create metrics output dir");
        }
        let m = run.metrics.expect("metrics requested but not collected");
        fs::write(path, m.to_json()).expect("write metrics json");
        eprintln!("  wrote {}", path.display());
    }
}

/// Write `phases_<stem>.csv` and `phases_<stem>.json`; returns the CSV
/// path.
pub fn write_phases(out_dir: &Path, stem: &str, phases: &PhaseSweep) -> PathBuf {
    fs::create_dir_all(out_dir).expect("create output dir");
    let csv_path = out_dir.join(format!("phases_{stem}.csv"));
    fs::write(&csv_path, phases.to_csv()).expect("write phases csv");
    fs::write(out_dir.join(format!("phases_{stem}.json")), phases.to_json())
        .expect("write phases json");
    csv_path
}

/// ASCII rendering of a sweep's three panels for the terminal.
pub fn ascii_figure(sweep: &Sweep) -> String {
    let mut out = String::new();
    for (spec, series) in paper_panels(sweep) {
        out.push_str(&nonctg_report::asciiplot::render(&spec, &series, 72, 18));
        out.push('\n');
    }
    out
}

mod cli {
    use nonctg_schemes::{PingPongConfig, SweepConfig};
    use nonctg_simnet::{FaultPlan, Platform, PlatformId};

    /// Shared CLI options of the figure binaries.
    #[derive(Debug, Clone)]
    pub struct Options {
        /// Platforms to run (default: all four).
        pub platforms: Vec<PlatformId>,
        /// Smallest message in bytes.
        pub min_bytes: usize,
        /// Largest message in bytes.
        pub max_bytes: usize,
        /// Geometric size step.
        pub step: usize,
        /// Ping-pongs per point.
        pub reps: usize,
        /// Output directory.
        pub out_dir: std::path::PathBuf,
        /// Skip payload verification (faster).
        pub no_verify: bool,
        /// Print ASCII plots.
        pub ascii: bool,
        /// Concurrently-measured sweep points (1 = sequential).
        pub jobs: usize,
        /// Statically-partitioned sweep shards (1 = sequential). Each
        /// shard measures every N-th point of the canonical work list on
        /// its own rank pair; output is bit-equal to the serial run.
        pub shards: usize,
        /// Inject a chaos fault plan with this seed (None = fault-free).
        pub fault_seed: Option<u64>,
        /// `--chaos <seed>` was given: same fault plan as `--fault-seed`
        /// (the extended v2 chaos mix), plus a per-sweep health report
        /// printed by the drivers.
        pub chaos: bool,
        /// Override the watchdog deadlock timeout, seconds.
        pub deadlock_timeout: Option<f64>,
        /// Checkpoint file: completed points are saved here after every
        /// size group, and reloaded on the next run so only missing or
        /// failed points re-execute.
        pub resume: Option<std::path::PathBuf>,
        /// Extra measurement attempts per point before marking it Failed
        /// (only used by the resilient runner).
        pub retries: usize,
        /// Write a Chrome-tracing / Perfetto JSON of an instrumented
        /// two-rank ping-pong to this file (None = tracing off).
        pub trace_out: Option<std::path::PathBuf>,
        /// Write the instrumented run's merged metrics JSON to this file
        /// (None = metrics off).
        pub metrics_out: Option<std::path::PathBuf>,
        /// Also run the phase-attribution sweep and write
        /// `phases_<stem>.csv` / `.json` next to each figure.
        pub phases: bool,
    }

    impl Default for Options {
        fn default() -> Self {
            Options {
                platforms: PlatformId::ALL.to_vec(),
                min_bytes: 1 << 10,
                max_bytes: 1 << 28,
                step: 2,
                reps: 20,
                out_dir: "bench_out".into(),
                no_verify: false,
                ascii: true,
                jobs: 1,
                shards: 1,
                fault_seed: None,
                chaos: false,
                deadlock_timeout: None,
                resume: None,
                retries: 1,
                trace_out: None,
                metrics_out: None,
                phases: false,
            }
        }
    }

    impl Options {
        /// Parse `args` (without the program name). Understands
        /// `--platform`, `--min-bytes`, `--max-bytes`, `--step`, `--reps`,
        /// `--out`, `--quick`, `--full`, `--no-verify`, `--no-ascii`.
        pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
            let mut o = Options::default();
            let mut it = args.into_iter();
            while let Some(a) = it.next() {
                let mut val = |name: &str| {
                    it.next().ok_or_else(|| format!("{name} needs a value"))
                };
                match a.as_str() {
                    "--platform" | "-p" => {
                        let v = val("--platform")?;
                        if v == "all" {
                            o.platforms = PlatformId::ALL.to_vec();
                        } else {
                            o.platforms = vec![v.parse()?];
                        }
                    }
                    "--min-bytes" => o.min_bytes = parse_size(&val("--min-bytes")?)?,
                    "--max-bytes" => o.max_bytes = parse_size(&val("--max-bytes")?)?,
                    "--step" => {
                        o.step = val("--step")?.parse().map_err(|e| format!("--step: {e}"))?
                    }
                    "--reps" => {
                        o.reps = val("--reps")?.parse().map_err(|e| format!("--reps: {e}"))?
                    }
                    "--out" => o.out_dir = val("--out")?.into(),
                    "--jobs" | "-j" => {
                        o.jobs = val("--jobs")?
                            .parse()
                            .map_err(|e| format!("--jobs: {e}"))?
                    }
                    "--shards" => {
                        o.shards = val("--shards")?
                            .parse()
                            .map_err(|e| format!("--shards: {e}"))?
                    }
                    "--quick" => {
                        o.max_bytes = 1 << 22;
                        o.step = 4;
                        o.reps = 5;
                    }
                    "--full" => {
                        o.max_bytes = 1 << 30;
                    }
                    "--fault-seed" => {
                        o.fault_seed = Some(
                            val("--fault-seed")?
                                .parse()
                                .map_err(|e| format!("--fault-seed: {e}"))?,
                        )
                    }
                    "--chaos" => {
                        o.fault_seed = Some(
                            val("--chaos")?.parse().map_err(|e| format!("--chaos: {e}"))?,
                        );
                        o.chaos = true;
                    }
                    "--deadlock-timeout" => {
                        let t: f64 = val("--deadlock-timeout")?
                            .parse()
                            .map_err(|e| format!("--deadlock-timeout: {e}"))?;
                        if t.is_nan() || t <= 0.0 {
                            return Err("--deadlock-timeout must be positive".into());
                        }
                        o.deadlock_timeout = Some(t);
                    }
                    "--resume" => o.resume = Some(val("--resume")?.into()),
                    "--retries" => {
                        o.retries = val("--retries")?
                            .parse()
                            .map_err(|e| format!("--retries: {e}"))?
                    }
                    "--trace-out" => o.trace_out = Some(val("--trace-out")?.into()),
                    "--metrics-out" => o.metrics_out = Some(val("--metrics-out")?.into()),
                    "--phases" => o.phases = true,
                    "--no-verify" => o.no_verify = true,
                    "--no-ascii" => o.ascii = false,
                    "--help" | "-h" => return Err(Self::usage().into()),
                    other => return Err(format!("unknown option '{other}'\n{}", Self::usage())),
                }
            }
            if o.min_bytes > o.max_bytes {
                return Err("--min-bytes exceeds --max-bytes".into());
            }
            Ok(o)
        }

        /// Usage text.
        pub fn usage() -> &'static str {
            "options: --platform <skx-impi|skx-mvapich2|ls5-craympich|knl-impi|all> \
             --min-bytes N --max-bytes N --step K --reps N --out DIR --jobs J \
             --shards N --quick --full --no-verify --no-ascii --fault-seed N \
             --chaos SEED --deadlock-timeout SECS --resume FILE --retries N \
             --trace-out FILE --metrics-out FILE --phases"
        }

        /// The sweep configuration these options describe.
        pub fn sweep_config(&self) -> SweepConfig {
            SweepConfig {
                schemes: nonctg_schemes::Scheme::ALL.to_vec(),
                min_bytes: self.min_bytes,
                max_bytes: self.max_bytes,
                step: self.step,
                base: PingPongConfig {
                    reps: self.reps,
                    verify: !self.no_verify,
                    ..PingPongConfig::default()
                },
            }
        }

        /// Resolve the platform presets, applying `--fault-seed` and
        /// `--deadlock-timeout`.
        pub fn platforms(&self) -> Vec<Platform> {
            self.platforms
                .iter()
                .map(|&id| {
                    let mut p = Platform::get(id);
                    if let Some(seed) = self.fault_seed {
                        p = p.with_fault_plan(FaultPlan::chaos(seed));
                    }
                    if let Some(t) = self.deadlock_timeout {
                        p = p.with_deadlock_timeout(t);
                    }
                    p
                })
                .collect()
        }

        /// Whether this invocation needs the fault-tolerant sweep runner
        /// (fault injection active or a checkpoint/resume file given).
        pub fn resilient(&self) -> bool {
            self.fault_seed.is_some() || self.resume.is_some()
        }
    }

    /// Parse sizes like `1048576`, `64k`, `32m`, `1g`.
    pub fn parse_size(s: &str) -> Result<usize, String> {
        let (num, mult) = match s.chars().last() {
            Some('k') | Some('K') => (&s[..s.len() - 1], 1usize << 10),
            Some('m') | Some('M') => (&s[..s.len() - 1], 1 << 20),
            Some('g') | Some('G') => (&s[..s.len() - 1], 1 << 30),
            _ => (s, 1),
        };
        num.parse::<usize>()
            .map(|n| n * mult)
            .map_err(|e| format!("bad size '{s}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonctg_simnet::PlatformId;

    #[test]
    fn palette_slots_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in Scheme::ALL {
            assert!(seen.insert(palette_slot(s)));
        }
    }

    #[test]
    fn options_defaults_and_flags() {
        let o = Options::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.platforms.len(), 4);
        let o = Options::parse(
            ["--platform", "cray", "--quick", "--out", "/tmp/x"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(o.platforms, vec![PlatformId::Ls5CrayMpich]);
        assert_eq!(o.max_bytes, 1 << 22);
        assert_eq!(o.out_dir, std::path::PathBuf::from("/tmp/x"));
    }

    #[test]
    fn size_suffixes() {
        assert_eq!(cli::parse_size("64k").unwrap(), 64 << 10);
        assert_eq!(cli::parse_size("32M").unwrap(), 32 << 20);
        assert_eq!(cli::parse_size("1g").unwrap(), 1 << 30);
        assert_eq!(cli::parse_size("123").unwrap(), 123);
        assert!(cli::parse_size("abc").is_err());
    }

    #[test]
    fn bad_option_rejected() {
        assert!(Options::parse(["--bogus".to_string()]).is_err());
        assert!(Options::parse(
            ["--min-bytes".to_string(), "8m".into(), "--max-bytes".into(), "1k".into()]
        )
        .is_err());
    }

    #[test]
    fn resilience_flags_parse_and_apply() {
        let o = Options::parse(
            [
                "--fault-seed", "42", "--deadlock-timeout", "2.5", "--resume", "/tmp/ck.json",
                "--retries", "3",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(o.fault_seed, Some(42));
        assert_eq!(o.deadlock_timeout, Some(2.5));
        assert_eq!(o.resume.as_deref(), Some(std::path::Path::new("/tmp/ck.json")));
        assert_eq!(o.retries, 3);
        assert!(o.resilient());
        for p in o.platforms() {
            assert_eq!(p.fault.as_ref().map(|f| f.seed), Some(42));
            assert_eq!(p.deadlock_timeout_s, 2.5);
        }
        assert!(!Options::parse(Vec::<String>::new()).unwrap().resilient());
        assert!(Options::parse(["--deadlock-timeout".to_string(), "0".into()]).is_err());
    }

    #[test]
    fn failed_points_render_as_gaps() {
        use nonctg_schemes::{PointStatus, Sweep, SweepPoint};
        let ok = |scheme, msg_bytes: usize, time: f64| SweepPoint {
            scheme,
            msg_bytes,
            time,
            bandwidth: msg_bytes as f64 / time,
            slowdown: 1.0,
            status: PointStatus::Ok,
            selected: Default::default(),
            faults: Default::default(),
        };
        let failed = SweepPoint {
            scheme: Scheme::Reference,
            msg_bytes: 2048,
            time: f64::NAN,
            bandwidth: 0.0,
            slowdown: f64::NAN,
            status: PointStatus::Failed,
            selected: Default::default(),
            faults: Default::default(),
        };
        let sweep = Sweep {
            platform: PlatformId::SkxImpi,
            points: vec![ok(Scheme::Reference, 1024, 1e-5), failed, ok(Scheme::Reference, 4096, 2e-5)],
            faults: Default::default(),
        };
        let series = sweep_series(&sweep, |p| p.time);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].points.len(), 2, "failed point must be a gap");
        // The CSV still records the failed point, with its status.
        let csv = sweep_csv(&sweep);
        assert!(csv.contains("failed"), "{csv}");
    }

    #[test]
    fn chaos_flag_sets_seed_and_health_reporting() {
        let o = Options::parse(["--chaos", "7"].iter().map(|s| s.to_string())).unwrap();
        assert!(o.chaos);
        assert_eq!(o.fault_seed, Some(7));
        assert!(o.resilient());
        for p in o.platforms() {
            assert_eq!(p.fault.as_ref().map(|f| f.seed), Some(7));
        }
        assert!(!Options::parse(Vec::<String>::new()).unwrap().chaos);
        assert!(Options::parse(["--chaos".to_string()]).is_err());
    }

    #[test]
    fn demoted_and_failed_points_render_distinctly() {
        use nonctg_schemes::{PointStatus, Sweep, SweepFaults, SweepPoint};
        let mk = |msg_bytes: usize, time: f64, status, demotions| SweepPoint {
            scheme: Scheme::VectorType,
            msg_bytes,
            time,
            bandwidth: if time.is_finite() { msg_bytes as f64 / time } else { 0.0 },
            slowdown: 1.0,
            status,
            selected: Default::default(),
            faults: SweepFaults { demotions, ..Default::default() },
        };
        let sweep = Sweep {
            platform: PlatformId::SkxImpi,
            points: vec![
                mk(1024, 1e-5, PointStatus::Ok, 0),
                mk(2048, 2.5e-5, PointStatus::Ok, 3), // degraded but measured
                mk(4096, f64::NAN, PointStatus::Failed, 1),
            ],
            faults: Default::default(),
        };
        let series = sweep_series(&sweep, |p| p.time);
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].points.len(), 2);
        assert_eq!(series[0].marked, vec![(2048.0, 2.5e-5)]);
        assert_eq!(series[0].failed_x, vec![4096.0]);
        let svg = render_figure("chaos", &paper_panels(&sweep), PanelGeom::default());
        assert!(svg.contains("<circle"), "demoted marker missing: {svg}");
        assert!(svg.contains("failed-mark"), "failed marker missing");
        // The CSV table view records the demotion count per point.
        let csv = sweep_csv(&sweep);
        assert!(csv.lines().next().unwrap().contains("demotions"), "{csv}");
        assert!(csv.contains(",3"), "{csv}");
    }

    #[test]
    fn sweep_csv_has_header_and_rows() {
        use nonctg_schemes::{run_sweep, PingPongConfig, SweepConfig};
        let mut p = nonctg_simnet::Platform::skx_impi();
        p.jitter_sigma = 0.0;
        let cfg = SweepConfig {
            schemes: vec![Scheme::Reference, Scheme::VectorType],
            min_bytes: 1024,
            max_bytes: 4096,
            step: 4,
            base: PingPongConfig { reps: 2, flush: false, flush_bytes: 0, verify: true },
        };
        let sweep = run_sweep(&p, &cfg);
        let csv = sweep_csv(&sweep);
        let rows = nonctg_report::csv::parse_csv(&csv);
        assert_eq!(rows.len(), 1 + 4);
        assert_eq!(rows[0][1], "scheme");
    }

    #[test]
    fn figure_writes_svg_and_csv() {
        use nonctg_schemes::{run_sweep, PingPongConfig, SweepConfig};
        let mut p = nonctg_simnet::Platform::skx_impi();
        p.jitter_sigma = 0.0;
        let cfg = SweepConfig {
            schemes: Scheme::ALL.to_vec(),
            min_bytes: 1024,
            max_bytes: 2048,
            step: 2,
            base: PingPongConfig { reps: 2, flush: false, flush_bytes: 0, verify: true },
        };
        let sweep = run_sweep(&p, &cfg);
        let dir = std::env::temp_dir().join("nonctg_fig_test");
        let svg = write_figure(&dir, "figtest", "Packing on skx-i3", &sweep);
        assert!(svg.exists());
        assert!(dir.join("figtest.csv").exists());
        let content = std::fs::read_to_string(svg).unwrap();
        assert!(content.contains("slowdown"));
        assert_eq!(content.matches("<path").count(), 24, "8 schemes x 3 panels");
    }
}
