//! Differential correctness oracle driver.
//!
//! Sweeps adversarially-constructed derived datatypes through
//! `nonctg_datatype::check_type` (every production engine against the
//! naive typemap interpreter) and drives the fabric's eager and lent
//! datapaths with runtime invariant checks enabled. Deterministic: a fixed default
//! seed, overridable with `--seed`, reproduces any failure exactly, and
//! the minimized repro (`OracleReport`) is printed and written to the
//! artifact file so CI uploads carry it.
//!
//! ```text
//! cargo run -p nonctg-bench --bin oracle -- [--cases N] [--seed S] [--out DIR]
//! ```
//!
//! Exit status is nonzero iff any phase found a disagreement.
//!
//! Phases:
//! 1. **corpus** — named deterministic edge cases (zero-length blocks,
//!    negative strides, LB/UB padding, struct epsilon, sparse subarray
//!    children, deep mixed nests) at counts 0..4.
//! 2. **random** — `--cases` seeded random type trees over every
//!    constructor of the algebra.
//! 3. **eviction** — `PLAN_CACHE_CAP + 16` distinct types to force LRU
//!    eviction, then the earliest types again through the recompile path.
//! 4. **straddle** — packed sizes walking across the eager limit, where a
//!    blocking send stops staging and starts lending its buffer, both
//!    through `check_type` and through a live two-rank exchange with
//!    `NONCTG_ORACLE` invariants force-enabled.

use std::fmt::Write as _;
use std::process::ExitCode;

use nonctg_core::datatype::plan::PLAN_CACHE_CAP;
use nonctg_core::datatype::{
    as_bytes, as_bytes_mut, check_type, pack, unpack_from, ArrayOrder, Datatype,
};
use nonctg_core::simnet::Platform;
use nonctg_core::{set_oracle_checks, Universe};

const DEFAULT_CASES: usize = 256;
const DEFAULT_SEED: u64 = 0x0C0FFEE0;

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

fn leaf(rng: &mut XorShift) -> Datatype {
    match rng.below(6) {
        0 => Datatype::f64(),
        1 => Datatype::f32(),
        2 => Datatype::i32(),
        3 => Datatype::i64(),
        4 => Datatype::byte(),
        _ => Datatype::complex128(),
    }
}

/// A random type tree mirroring the proptest generator: every
/// constructor, hostile parameters (zero counts and blocklengths,
/// negative strides and displacements, LB/UB padding), bounded depth.
fn random_type(rng: &mut XorShift, depth: usize) -> Datatype {
    if depth == 0 || rng.below(4) == 0 {
        return leaf(rng);
    }
    let child = random_type(rng, depth - 1);
    match rng.below(9) {
        0 => Datatype::contiguous(rng.below(4) as usize, &child).unwrap(),
        1 => Datatype::vector(
            rng.below(4) as usize,
            rng.below(4) as usize,
            rng.range(-4, 6),
            &child,
        )
        .unwrap(),
        2 => Datatype::hvector(
            rng.below(4) as usize,
            rng.below(3) as usize,
            rng.range(-40, 64),
            &child,
        )
        .unwrap(),
        3 => {
            let blocks: Vec<(usize, i64)> = (0..rng.below(4))
                .map(|_| (rng.below(4) as usize, rng.range(-6, 8)))
                .collect();
            Datatype::indexed(&blocks, &child).unwrap()
        }
        4 => {
            let blocks: Vec<(usize, i64)> = (0..rng.below(4))
                .map(|_| (rng.below(4) as usize, rng.range(-48, 64)))
                .collect();
            Datatype::hindexed(&blocks, &child).unwrap()
        }
        5 => {
            let disps: Vec<i64> = (0..rng.below(4)).map(|_| rng.range(-6, 8)).collect();
            Datatype::indexed_block(rng.below(3) as usize, &disps, &child).unwrap()
        }
        6 => {
            let fields: Vec<(usize, i64, Datatype)> = (0..1 + rng.below(3))
                .map(|_| {
                    (
                        rng.below(3) as usize,
                        rng.range(-32, 48),
                        random_type(rng, depth - 1),
                    )
                })
                .collect();
            Datatype::structure(&fields).unwrap()
        }
        7 => {
            let ndims = 1 + rng.below(2) as usize;
            let mut sizes = Vec::new();
            let mut subsizes = Vec::new();
            let mut starts = Vec::new();
            for _ in 0..ndims {
                let size = 1 + rng.below(4) as usize;
                let sub = rng.below(size as u64 + 1) as usize;
                let start = rng.below((size - sub) as u64 + 1) as usize;
                sizes.push(size);
                subsizes.push(sub);
                starts.push(start);
            }
            let order = if rng.below(2) == 0 { ArrayOrder::C } else { ArrayOrder::Fortran };
            Datatype::subarray(&sizes, &subsizes, &starts, order, &child).unwrap()
        }
        _ => {
            let lb = child.lb() - rng.range(0, 24);
            let extent = (child.ub() - lb) as u64 + rng.below(24);
            Datatype::resized(&child, lb, extent).unwrap()
        }
    }
}

/// Named deterministic edge cases: each is a past or plausible bug class.
fn corpus() -> Vec<(&'static str, Datatype)> {
    let f64t = Datatype::f64();
    let sparse = Datatype::vector(2, 1, 2, &f64t).unwrap();
    vec![
        ("zero-length indexed blocks", {
            Datatype::indexed(&[(0, 5), (3, -2), (0, 0), (2, 4)], &f64t).unwrap()
        }),
        ("zero-blocklen vector", Datatype::vector(4, 0, 3, &Datatype::i32()).unwrap()),
        ("empty contiguous", Datatype::contiguous(0, &f64t).unwrap()),
        ("negative-stride vector", Datatype::vector(4, 2, -3, &f64t).unwrap()),
        ("negative-stride hvector", Datatype::hvector(3, 1, -40, &Datatype::i64()).unwrap()),
        ("negative indexed displacements", {
            Datatype::indexed_block(2, &[-4, 0, 5], &Datatype::i32()).unwrap()
        }),
        ("LB/UB padded vector", {
            Datatype::resized(&Datatype::vector(3, 1, 2, &f64t).unwrap(), -16, 80).unwrap()
        }),
        ("shrunk extent overlap", {
            Datatype::resized(&Datatype::contiguous(3, &f64t).unwrap(), 0, 8).unwrap()
        }),
        ("struct epsilon padding", {
            Datatype::structure(&[
                (1, 0, Datatype::i32()),
                (1, 5, Datatype::byte()),
                (2, 8, f64t.clone()),
            ])
            .unwrap()
        }),
        ("out-of-order struct fields", {
            Datatype::structure(&[
                (1, 16, f64t.clone()),
                (1, 0, Datatype::i32()),
                (1, 8, Datatype::of::<u16>()),
            ])
            .unwrap()
        }),
        ("sparse-child subarray", {
            Datatype::subarray(&[4], &[2], &[1], ArrayOrder::C, &sparse).unwrap()
        }),
        ("fortran-order subarray", {
            Datatype::subarray(&[3, 4], &[2, 2], &[1, 1], ArrayOrder::Fortran, &f64t).unwrap()
        }),
        ("vector of mixed struct", {
            let inner = Datatype::structure(&[
                (1, 0, Datatype::i32()),
                (1, 8, f64t.clone()),
            ])
            .unwrap();
            Datatype::vector(3, 1, 2, &inner).unwrap()
        }),
        ("hindexed of padded vector", {
            let padded =
                Datatype::resized(&Datatype::vector(2, 1, 3, &Datatype::f32()).unwrap(), -8, 48)
                    .unwrap();
            Datatype::hindexed(&[(2, 0), (1, -24), (2, 96)], &padded).unwrap()
        }),
    ]
}

/// Runs `check_type` and folds any report into `failures`.
fn run_case(name: &str, t: &Datatype, count: usize, seed: u64, failures: &mut Vec<String>) {
    if let Err(r) = check_type(t, count, seed) {
        let mut line = String::new();
        let _ = write!(line, "[{name}] {r}");
        eprintln!("FAIL {line}");
        failures.push(line);
    }
}

/// Live two-rank exchange: rank 0 sends `count` instances of a strided
/// type with a blocking standard send (staged while eager, lent beyond
/// the eager limit), rank 1 receives and returns its buffer; the result
/// must equal a local pack/unpack round trip. Invariant checks are
/// already force-enabled process-wide.
fn straddle_exchange(p: &Platform, count: usize, failures: &mut Vec<String>) {
    let t = Datatype::vector(64, 16, 17, &Datatype::f64()).unwrap().commit();
    let elems = (t.extent() as usize / 8) * count + 16;
    let src: Vec<f64> = (0..elems).map(|i| i as f64 * 0.25 + 1.0).collect();

    let mut expected = vec![0.0f64; elems];
    let packed = pack(as_bytes(&src), 0, &t, count).expect("local pack");
    unpack_from(&packed, &t, count, as_bytes_mut(&mut expected), 0).expect("local unpack");

    let t2 = t.clone();
    let src2 = src.clone();
    let (_, received) = Universe::run_pair(p.clone(), move |comm| {
        if comm.rank() == 0 {
            comm.send(as_bytes(&src2), 0, &t2, count, 1, 3).unwrap();
            Vec::new()
        } else {
            let mut buf = vec![0.0f64; elems];
            comm.recv(as_bytes_mut(&mut buf), 0, &t2, count, Some(0), Some(3)).unwrap();
            buf
        }
    });
    let bytes = t.size() * count as u64;
    if received != expected {
        let line = format!(
            "[straddle] exchange of {bytes} packed bytes (count {count}) \
             delivered wrong data"
        );
        eprintln!("FAIL {line}");
        failures.push(line);
    } else {
        println!("  straddle count {count}: {bytes} B delivered intact");
    }
}

fn main() -> ExitCode {
    let mut cases = DEFAULT_CASES;
    let mut seed = DEFAULT_SEED;
    let mut out_dir = String::from("results/oracle");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--cases" => cases = val("--cases").parse().expect("--cases: integer"),
            "--seed" => seed = val("--seed").parse().expect("--seed: integer"),
            "--out" => out_dir = val("--out"),
            other => {
                eprintln!("unknown argument {other} (expected --cases/--seed/--out)");
                return ExitCode::from(2);
            }
        }
    }

    set_oracle_checks(true);
    let mut failures: Vec<String> = Vec::new();

    println!("== phase 1: deterministic corpus ==");
    for (name, t) in corpus() {
        for count in 0..4 {
            run_case(name, &t, count, seed ^ count as u64, &mut failures);
        }
    }

    println!("== phase 2: random sweep ({cases} cases, seed {seed:#x}) ==");
    let mut rng = XorShift::new(seed);
    for i in 0..cases {
        let t = random_type(&mut rng, 3);
        let count = rng.below(4) as usize;
        let case_seed = rng.next();
        run_case(&format!("random #{i}"), &t, count, case_seed, &mut failures);
    }

    println!("== phase 3: plan-cache eviction ({} types) ==", PLAN_CACHE_CAP + 16);
    let evict: Vec<Datatype> = (0..PLAN_CACHE_CAP + 16)
        .map(|i| Datatype::vector(2 + i % 7, 1 + i % 3, 4, &Datatype::f64()).unwrap())
        .collect();
    for (i, t) in evict.iter().enumerate() {
        run_case(&format!("evict #{i}"), t, 1 + i % 2, seed ^ (i as u64) << 8, &mut failures);
    }
    for (i, t) in evict.iter().take(8).enumerate() {
        run_case(&format!("evict-recompile #{i}"), t, 2, seed ^ 0xE000 ^ i as u64, &mut failures);
    }

    let mut p = Platform::skx_impi();
    p.jitter_sigma = 0.0;
    let p = p.with_deadlock_timeout(10.0);
    let eager_limit = p.eager_threshold(false);
    println!("== phase 4: eager/lend straddle (eager limit {eager_limit} B) ==");
    // Packed bytes per instance: 64 * 16 * 8 = 8192; counts walk the
    // packed size across the 64 KiB limit (under / at / over).
    let straddle_type = Datatype::vector(64, 16, 17, &Datatype::f64()).unwrap();
    for count in [7usize, 8, 9] {
        run_case(&format!("straddle count {count}"), &straddle_type, count, seed, &mut failures);
        straddle_exchange(&p, count, &mut failures);
    }

    let mut summary = String::new();
    let _ = writeln!(summary, "oracle sweep: seed {seed:#x}, {cases} random cases");
    let _ = writeln!(summary, "failures: {}", failures.len());
    for f in &failures {
        let _ = writeln!(summary, "  {f}");
    }
    std::fs::create_dir_all(&out_dir).expect("out dir");
    let path = format!("{out_dir}/summary.txt");
    std::fs::write(&path, &summary).expect("write summary");
    println!("\n{summary}wrote {path}");

    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
