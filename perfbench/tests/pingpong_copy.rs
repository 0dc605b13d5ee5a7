//! The traced `paper_sweep` measures points through the benchmark's own
//! copy of the §3.2 ping-pong (`pingpong::run_point`). That copy must be
//! the program the untraced run measures: for every scheme, at sizes on
//! both sides of the eager limit and of the pipeline threshold, its
//! virtual times and fault counters are bit-identical to
//! `try_run_scheme`'s, with spans recorded or not.

use nonctg_perfbench::{pingpong::run_point, trace};
use nonctg_schemes::{try_run_scheme, PingPongConfig, Scheme, Workload};
use nonctg_simnet::Platform;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|t| t.to_bits()).collect()
}

#[test]
fn pingpong_copy_matches_try_run_scheme_bit_for_bit() {
    let platform = Platform::skx_impi();
    let eager = platform.eager_threshold(false) as usize;
    let pipeline = platform.effective_pipeline().threshold_bytes as usize;
    let sizes = [1 << 10, eager, eager + 8, pipeline - 8, pipeline];
    let cfg = PingPongConfig { reps: 3, ..PingPongConfig::default() };
    for (i, bytes) in sizes.into_iter().enumerate() {
        let w = Workload::every_other(bytes / Workload::ELEM);
        for scheme in Scheme::ALL {
            let lib = try_run_scheme(&platform, scheme, &w, &cfg).expect("library run");
            trace::set_enabled(i % 2 == 0);
            let copy = run_point(&platform, scheme, &w, &cfg, 0).expect("copied ping-pong run");
            trace::set_enabled(false);
            assert_eq!(bits(&lib.times), bits(&copy.times), "{scheme} at {bytes} B: times");
            assert_eq!(lib.faults, copy.faults, "{scheme} at {bytes} B: fault counters");
            assert_eq!(lib.msg_bytes, copy.msg_bytes);
        }
    }
    assert!(!trace::take().is_empty(), "traced copied ping-pong runs recorded spans");
}
