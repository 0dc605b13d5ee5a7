//! Bench-regression sentinel over the append-only `BENCH_history/`.
//!
//! Loads every history entry for a bench (written by `pack_baseline` /
//! `datapath_baseline` through the history helper), extracts its
//! lower-is-better metrics, and compares the newest entry against the
//! trailing median of the older ones. A metric regresses when it
//! exceeds `median + max(tol * median, 3 * MAD)` — the MAD term absorbs
//! a metric's own historical noise, the fractional term gives quiet
//! metrics headroom. Fewer than three entries (so fewer than two
//! baselines) is a quiet pass: a cold history cannot regress.
//!
//! Exits 1 when any metric regressed, 0 otherwise.
//!
//! Usage: `regress [--bench NAME] [--tolerance FRAC] [--history DIR]`
//! (defaults: bench `pack`, tolerance `0.20`, dir
//! `$NONCTG_BENCH_HISTORY` or `BENCH_history`).

use std::path::PathBuf;
use std::process::ExitCode;

use nonctg_bench::history::{detect_regressions, history_dir, load_history, metrics_of};

fn main() -> ExitCode {
    let mut bench = "pack".to_string();
    let mut tolerance = 0.20f64;
    let mut dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} expects a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--bench" => bench = take("--bench"),
            "--tolerance" => {
                tolerance = take("--tolerance").parse().unwrap_or_else(|_| {
                    eprintln!("--tolerance expects a fraction like 0.2");
                    std::process::exit(2);
                })
            }
            "--history" => dir = Some(PathBuf::from(take("--history"))),
            "--help" | "-h" => {
                println!("usage: regress [--bench NAME] [--tolerance FRAC] [--history DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let dir = dir.unwrap_or_else(history_dir);

    let entries = load_history(&dir, &bench);
    if entries.len() < 3 {
        println!(
            "{}: {} history entr{} for '{bench}' — need 3+ to judge, passing",
            dir.display(),
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" }
        );
        return ExitCode::SUCCESS;
    }
    let newest = entries.last().unwrap();
    let dirty = match (newest.dirty, &newest.diff_hash) {
        (Some(true), Some(hash)) => format!(", dirty tree {hash}"),
        _ => String::new(),
    };
    println!(
        "{}: {} entries for '{bench}', newest {} (sha {}{dirty})",
        dir.display(),
        entries.len(),
        newest.path.file_name().unwrap_or_default().to_string_lossy(),
        newest.git_sha
    );

    let runs: Vec<Vec<(String, f64)>> = entries.iter().map(|e| metrics_of(&e.payload)).collect();
    let n_metrics = runs.last().map(Vec::len).unwrap_or(0);
    if n_metrics == 0 {
        println!("newest entry exposes no metrics — nothing to judge, passing");
        return ExitCode::SUCCESS;
    }
    let regressions = detect_regressions(&runs, tolerance);

    for r in &regressions {
        eprintln!(
            "REGRESSION {:<28} newest {:.4e} vs median {:.4e} (allowed {:.4e}, {:+.1}%)",
            r.metric,
            r.newest,
            r.median,
            r.allowed,
            100.0 * (r.newest / r.median - 1.0)
        );
    }
    if regressions.is_empty() {
        println!("{n_metrics} metric(s) within tolerance {tolerance} of trailing median: ok");
        ExitCode::SUCCESS
    } else {
        eprintln!("{} of {n_metrics} metric(s) regressed", regressions.len());
        ExitCode::FAILURE
    }
}
