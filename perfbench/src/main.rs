//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_sweep|steady_pingpong|ddtbench_exchange> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints the run's provenance, the
//! workload's own metrics and its virtual-time digest, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The same record, plus the spans of a traced run, is
//! written under `perfbench/out/`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use nonctg_perfbench::report::{self, json_num, json_str, Metric, Outcome};
use nonctg_perfbench::{os, trace, workloads, Digest};

#[global_allocator]
static GLOBAL: os::CountingAlloc = os::CountingAlloc;

/// Spans kept in the written record of a traced run.
const SPAN_DUMP_CAP: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {:?}", workloads::NAMES));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package has a parent").to_path_buf()
}

fn git(root: &Path, args: &[&str]) -> Option<Vec<u8>> {
    // The ceiling keeps git from looking for a repository above `root`.
    let out = Command::new("git")
        .env("GIT_CEILING_DIRECTORIES", root.parent()?)
        .arg("-C")
        .arg(root)
        .args(args)
        .output()
        .ok()?;
    out.status.success().then_some(out.stdout)
}

/// Hash every file under `dir` (names and contents, in sorted order),
/// skipping build outputs.
fn hash_tree(dir: &Path, d: &mut Digest) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = rd.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if matches!(name, "target" | "out" | ".git") || name.starts_with('.') {
            continue;
        }
        if p.is_dir() {
            hash_tree(&p, d);
        } else if let Ok(bytes) = std::fs::read(&p) {
            d.bytes(name.as_bytes());
            d.bytes(&bytes);
        }
    }
}

/// Which code and host produced this run, as one JSON object.
fn provenance(args: &Args) -> String {
    let root = repo_root();
    let sha = git(&root, &["rev-parse", "HEAD"])
        .map(|o| String::from_utf8_lossy(&o).trim().to_string())
        .unwrap_or_else(|| "none".into());
    let (dirty, diff_hash) = match git(&root, &["diff", "HEAD"]) {
        Some(diff) => {
            let mut d = Digest::new();
            d.bytes(&diff);
            (Some(!diff.is_empty()), format!("{:016x}", d.finish()))
        }
        None => (None, "none".into()),
    };
    let mut src = Digest::new();
    for part in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"] {
        hash_tree(&root.join(part), &mut src);
        if let Ok(b) = std::fs::read(root.join(part)) {
            src.bytes(&b);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_sha\": {}, \"dirty\": {}, \"diff_hash\": {}, \"source_hash\": \"{:016x}\", \
         \"nproc\": {}, \"sysfs_llc_bytes\": {}, \"simd_tier\": {}, \"pack_threads\": {}, \
         \"llc_threshold_bytes\": {}, \"iov_max_regions\": {}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        json_str(&sha),
        dirty.map_or("null".to_string(), |b| b.to_string()),
        json_str(&diff_hash),
        src.finish(),
        nproc,
        os::sysfs_llc_bytes().map_or("null".to_string(), |b| b.to_string()),
        json_str(nonctg_datatype::simd_tier().name()),
        nonctg_datatype::pack_threads(),
        nonctg_datatype::llc_threshold(),
        nonctg_core::iov_max_regions(),
    )
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| format!("{}: [{}, {}]", json_str(&m.name), json_num(m.value), json_str(m.unit)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn write_record(args: &Args, prov: &str, out: &Outcome, ms: &[Metric], spans: &[trace::SpanRec]) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path =
        dir.join(format!("{}-seed{}-trace{}.json", args.workload, args.seed, args.trace as u8));
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"provenance\": {prov},\n\"digests\": {:?},\n\"info\": {},\n\"metrics\": {},\n\"spans\": [",
        out.digests.iter().map(|d| format!("{d:016x}")).collect::<Vec<_>>(),
        metrics_json(&out.info),
        metrics_json(ms),
    );
    for (i, sp) in spans.iter().take(SPAN_DUMP_CAP).enumerate() {
        let _ = write!(
            s,
            "{}\n{{\"id\": {}, \"parent\": {}, \"name\": {}, \"req\": {}, \"leg\": {}, \
             \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}, \"bytes\": {}, \
             \"alloc_bytes\": {}, \"minor_faults\": {}}}",
            if i == 0 { "" } else { "," },
            sp.id,
            sp.parent,
            json_str(sp.name),
            sp.req,
            json_str(sp.leg),
            sp.thread,
            sp.start_ns,
            sp.end_ns,
            sp.bytes,
            sp.alloc_bytes,
            sp.minor_faults
        );
    }
    s.push_str("]}\n");
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, s)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let knobs: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("NONCTG_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "refusing to run with {knobs:?} set: the benchmark measures the library's defaults"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let prov = provenance(&args);
    println!("provenance {prov}");

    let Some(mut out) = workloads::run(&args.workload, args.seed, args.seconds, args.trace) else {
        unreachable!("workload name validated by parse_args");
    };
    let bad_digests = out.check_digests();
    println!(
        "digest {:016x} ({} repetitions, {bad_digests} differing)",
        out.digests.first().copied().unwrap_or(0),
        out.digests.len()
    );
    for m in &out.info {
        println!("  {:<28} {:>16} {}", m.name, json_num(m.value), m.unit);
    }

    let (metrics, spans) = match out.traced.take() {
        Some(t) => {
            let spans = trace::take();
            let max_pack =
                spans.iter().filter(|s| s.name == "datatype.pack").map(|s| s.bytes as usize).max();
            let memcpy = max_pack.map(|b| nonctg_bench::memcpy_reference(b, 0.25));
            (report::per_layer(&t, &spans, memcpy), spans)
        }
        None => (out.end_to_end(), Vec::new()),
    };
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!("  {:<28} {:>16} ratio", "failed_share", json_num(failed_share));
    for m in &metrics {
        println!("  {:<28} {:>16} {}", m.name, json_num(m.value), m.unit);
    }
    write_record(&args, &prov, &out, &metrics, &spans);
    let correct = out.failed == 0 && out.attempted > 0;
    println!("{}", report::result_line(correct, out.attempted, out.failed, &metrics));
    ExitCode::SUCCESS
}
