//! Baseline numbers for the send datapath, recorded as
//! `BENCH_datapath.json`.
//!
//! Two experiments. The first compares wall-clock with virtual-time
//! output proven identical elsewhere
//! (`sharded_sweep_matches_sequential_bit_for_bit`); the second checks
//! the adaptive engine selector against measured virtual time:
//!
//! 1. A reduced scheme sweep, serial vs. four statically-partitioned
//!    shards on concurrent rank pairs.
//! 2. Per-platform pack-vs-iovec virtual-time crossover: a 900-region
//!    rendezvous send at increasing region lengths, forced through each
//!    engine, locating the region size where zero-copy iovec overtakes
//!    the staged pack. The engine auto mode selects must be the measured
//!    winner at every probed point (the run aborts if it isn't), however
//!    close the two engines are.
//!
//! The speedup in 1 depends on host parallelism: with a single hardware
//! thread the shards cannot pay and the recorded ratio hovers near (or
//! below) 1. The JSON records `host_threads` so a reader can tell.
//! Experiment 2 is virtual-time only and host-independent.
//!
//! Usage: `datapath_baseline [OUT.json]` (default `BENCH_datapath.json`).

use std::time::Instant;

use nonctg_core::Universe;
use nonctg_datatype::Datatype;
use nonctg_schemes::{run_sweep, run_sweep_sharded, PingPongConfig, Scheme, SweepConfig};
use nonctg_simnet::{Datapath, Platform};

const SWEEP_SHARDS: usize = 4;
/// Region count of the crossover probe: under the iovec cap, and large
/// enough that every probed length is a rendezvous message everywhere.
const XOVER_REGIONS: usize = 900;
/// Region lengths (bytes) the crossover probe visits, straddling every
/// platform's crossover.
const XOVER_LENS: [usize; 9] = [96, 128, 160, 176, 192, 256, 512, 1024, 4096];

/// The probe's byte vector: `count` regions of `region` bytes at a
/// stride of twice the region.
fn probe_type(count: usize, region: usize) -> Datatype {
    Datatype::vector(count, region, 2 * region as i64, &Datatype::byte()).unwrap().commit()
}

/// Virtual seconds (max over ranks) of one strided byte-vector send
/// 0 → 1 with the given forced engine, jitter-free.
fn strided_virtual(platform: &Platform, engine: Datapath, count: usize, region: usize) -> f64 {
    let mut p = platform.clone().with_datapath(engine);
    p.jitter_sigma = 0.0;
    let src_len = (count - 1) * 2 * region + region;
    let t = probe_type(count, region);
    let (a, b) = Universe::run_pair(p, move |comm| {
        if comm.rank() == 0 {
            let src: Vec<u8> = vec![0x5A; src_len];
            comm.send(&src, 0, &t, 1, 1, 0).unwrap();
        } else {
            let mut dst = vec![0u8; src_len];
            comm.recv(&mut dst, 0, &t, 1, Some(0), Some(0)).unwrap();
        }
        comm.wtime()
    });
    a.max(b)
}

/// One probed point of the crossover sweep.
struct XoverPoint {
    region: usize,
    pack_s: f64,
    iov_s: f64,
    selected: Datapath,
}

/// Experiment 2 for one platform: probe the pack/iovec crossover, check
/// auto mode selects the measured winner at every point, and return the
/// probed points plus the measured crossover region length (first length
/// where iovec wins; 0 if it never does).
fn crossover_probe(platform: &Platform) -> (Vec<XoverPoint>, usize) {
    let mut points = Vec::new();
    let mut measured = 0usize;
    for &region in &XOVER_LENS {
        let pack_s = strided_virtual(platform, Datapath::Pack, XOVER_REGIONS, region);
        let iov_s = strided_virtual(platform, Datapath::Iov, XOVER_REGIONS, region);
        let selected = nonctg_core::send_engine(platform, &probe_type(XOVER_REGIONS, region), 1)
            .expect("probe size");
        if measured == 0 && iov_s < pack_s {
            measured = region;
        }
        let winner = if iov_s < pack_s { Datapath::Iov } else { Datapath::Pack };
        assert_eq!(
            selected,
            winner,
            "{}: selector picked {} but {} wins at region={region} \
             (pack {pack_s:.3e}s, iov {iov_s:.3e}s)",
            platform.id.name(),
            selected.name(),
            winner.name(),
        );
        points.push(XoverPoint { region, pack_s, iov_s, selected });
    }
    (points, measured)
}

fn sweep_config() -> SweepConfig {
    SweepConfig {
        schemes: vec![Scheme::Reference, Scheme::Copying, Scheme::VectorType, Scheme::PackingVector],
        min_bytes: 1 << 10,
        max_bytes: 1 << 20,
        step: 4,
        base: PingPongConfig { reps: 5, flush: false, flush_bytes: 0, verify: false },
    }
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_datapath.json".into());
    let platform = Platform::skx_impi();

    // -- experiment 1: serial vs sharded sweep ------------------------
    let cfg = sweep_config();
    let t0 = Instant::now();
    let serial = run_sweep(&platform, &cfg);
    let serial_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let sharded = run_sweep_sharded(&platform, &cfg, SWEEP_SHARDS);
    let sharded_s = t0.elapsed().as_secs_f64();
    let sweep_speedup = serial_s / sharded_s;
    println!(
        "sweep ({} points): serial {serial_s:.3}s  {SWEEP_SHARDS} shards {sharded_s:.3}s  speedup {sweep_speedup:.2}x",
        serial.points.len()
    );

    // The sharded run must be bit-identical to the serial one; this bin
    // doubles as a cheap end-to-end check of that invariant.
    assert_eq!(serial.points.len(), sharded.points.len(), "sharded sweep dropped points");
    for (a, b) in serial.points.iter().zip(&sharded.points) {
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.msg_bytes, b.msg_bytes);
        assert_eq!(a.time.to_bits(), b.time.to_bits(), "virtual time diverged");
    }
    println!("sharded sweep bit-identical to serial: ok");

    // On a 1-thread host the sharded path degenerates to the caller
    // running every slice inline, so its overhead over serial must be
    // noise-level. (Multi-core speedup is asserted in CI, where cores
    // exist; 0.95 leaves room for timer jitter on shared runners.)
    let host_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if host_threads == 1 {
        assert!(
            sweep_speedup >= 0.95,
            "sharded sweep {sweep_speedup:.3}x on a 1-thread host: shard overhead regressed"
        );
    }

    // -- experiment 2: pack vs iovec crossover, every platform --------
    let mut xover_json = String::new();
    for p in Platform::all() {
        let (points, measured) = crossover_probe(&p);
        println!("{}: iovec overtakes pack at region >= {measured} bytes", p.id.name());
        let rows: Vec<String> = points
            .iter()
            .map(|x| {
                format!(
                    "      {{\"region_bytes\": {}, \"pack_s\": {:.6e}, \"iov_s\": {:.6e}, \
                     \"selected\": \"{}\"}}",
                    x.region,
                    x.pack_s,
                    x.iov_s,
                    x.selected.name()
                )
            })
            .collect();
        if !xover_json.is_empty() {
            xover_json.push_str(",\n");
        }
        xover_json.push_str(&format!(
            "    {{\"platform\": \"{}\", \"regions\": {XOVER_REGIONS}, \
             \"measured_crossover_bytes\": {}, \
             \"selector_agrees\": true, \"points\": [\n{}\n    ]}}",
            p.id.name(),
            measured,
            rows.join(",\n")
        ));
    }
    println!("selector picks the measured winner at every probed point: ok");

    let json = format!(
        "{{\n  \"bench\": \"datapath_baseline\",\n  \"host_threads\": {host_threads},\n  \
         \"sweep\": {{\"points\": {}, \"shards\": {SWEEP_SHARDS}, \"serial_s\": {serial_s:.6e}, \
         \"sharded_s\": {sharded_s:.6e}, \"speedup\": {sweep_speedup:.3}, \"bit_identical\": true}},\n  \
         \"iov_crossover\": [\n{xover_json}\n  ]\n}}\n",
        serial.points.len()
    );
    let hist = nonctg_bench::history::write_bench_json(
        "datapath",
        std::path::Path::new(&out_path),
        &json,
    )
    .expect("write baseline json");
    println!("wrote {out_path} (history entry {})", hist.display());
}
