//! Critical-path analysis of an instrumented run, recorded under
//! `analysis_out/`.
//!
//! Runs the standard observability workload — a two-rank vector-type
//! ping-pong over [`OBS_ELEMS`] elements — with tracing and metrics on,
//! forced through the staged (pack) datapath, then:
//!
//! 1. computes the virtual-time **critical path** through the traced
//!    event DAG and *asserts* its edge sum is bit-equal to the run's
//!    traced elapsed time (the edges tile the run exactly — any gap or
//!    overlap is a bug in the tracer or the analyzer);
//! 2. writes `analysis.json`, `gantt.svg` (with per-rank bubble shares),
//!    and `gantt.txt`, and prints the ASCII gantt.
//!
//! Exits non-zero if any invariant fails.
//!
//! Usage: `analyze [OUT_DIR]` (default `analysis_out`).

use std::fs;
use std::path::PathBuf;

use nonctg_bench::{events_to_spans, OBS_ELEMS};
use nonctg_report::analysis::{critical_path, gantt_ascii, gantt_svg};
use nonctg_schemes::{try_run_scheme_observed, Observe, PingPongConfig, Scheme, Workload};
use nonctg_simnet::{Datapath, Platform};

fn main() {
    let out_dir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| "analysis_out".into()));

    let platform = Platform::skx_impi().with_datapath(Datapath::Pack);
    let w = Workload::every_other(OBS_ELEMS);
    let cfg = PingPongConfig { reps: 3, ..PingPongConfig::default() };
    let run = try_run_scheme_observed(&platform, Scheme::VectorType, &w, &cfg, Observe::ALL)
        .expect("instrumented ping-pong failed");

    let spans = events_to_spans(&run.events);
    let names: Vec<String> = (0..run.events.len()).map(|r| format!("rank {r}")).collect();
    println!(
        "{} vector ping-pong: {} events over {} ranks, {:.3e} s virtual",
        platform.id.name(),
        spans.len(),
        run.events.len(),
        run.trace_elapsed()
    );

    let mut failures = 0usize;
    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("  ok   {what}");
        } else {
            eprintln!("  FAIL {what}");
            failures += 1;
        }
    };

    // -- critical path ------------------------------------------------
    let path = critical_path(&spans).expect("trace has no positive-width spans");
    let elapsed = run.trace_elapsed();
    check(
        path.edge_sum().to_bits() == elapsed.to_bits(),
        "critical-path edge sum bit-equal to traced elapsed time",
    );
    println!(
        "  critical path: {} edges, {:.3e} s ({:.1}% idle)",
        path.edges.len(),
        path.elapsed(),
        100.0 * path.idle_total() / path.elapsed()
    );
    for (track, busy) in path.by_track() {
        println!("    rank {track}: {busy:.3e} s on path");
    }
    for (phase, secs) in path.by_phase() {
        println!("    {phase:>8}: {secs:.3e} s");
    }

    // -- artifacts ----------------------------------------------------
    fs::create_dir_all(&out_dir).expect("create analysis output dir");
    let json = format!("{{\n\"critical_path\": {}\n}}\n", path.to_json().trim_end());
    fs::write(out_dir.join("analysis.json"), json).expect("write analysis.json");
    fs::write(out_dir.join("gantt.svg"), gantt_svg(&spans, &path, &names)).expect("write gantt.svg");
    let art = gantt_ascii(&spans, &path, 100);
    fs::write(out_dir.join("gantt.txt"), &art).expect("write gantt.txt");
    print!("{art}");
    println!("wrote {}/analysis.json, gantt.svg, gantt.txt", out_dir.display());

    if failures > 0 {
        eprintln!("{failures} invariant(s) failed");
        std::process::exit(1);
    }
}
