//! The chaos matrix: every send scheme under the full v2 fault mix.
//! Two properties hold for every cell, or the build is wrong:
//!
//! * **Determinism** — the same chaos seed yields bit-equal virtual
//!   times and fault counters, or the same typed error. Never a hang.
//! * **Graceful degradation** — a transfer whose chunk-fault forecast
//!   demotes it is never slower in virtual time than an equivalent fresh
//!   fault-free send (the demoted transfer *is* that send, charged
//!   identically).

use std::time::{Duration, Instant};

use nonctg_core::set_oracle_checks;
use nonctg_schemes::{try_run_scheme, PingPongConfig, Scheme, Workload};
use nonctg_simnet::{FaultPlan, Platform};

fn chaos_platform(seed: u64) -> Platform {
    let mut p = Platform::skx_impi();
    p.jitter_sigma = 0.0;
    // Low chunk-schedule threshold so the chunk-fault forecast covers
    // the 128 KiB workload and the chunk faults in the chaos mix land.
    p.with_deadlock_timeout(10.0)
        .with_fault_plan(FaultPlan::chaos(seed).with_chunk_schedule(64 << 10, 16 << 10))
}

fn small_cfg() -> PingPongConfig {
    PingPongConfig { reps: 3, flush: false, flush_bytes: 0, verify: true }
}

/// All schemes x chaos seeds, each cell run twice: bit-equal times and
/// fault counters, or the identical typed error — and demotions are
/// observed somewhere across the matrix.
#[test]
fn chaos_matrix_is_deterministic_and_degrades_gracefully() {
    set_oracle_checks(true);
    let w = Workload::every_other(16 << 10); // 128 KiB packed payload
    let cfg = small_cfg();
    let mut ladder_hits = 0u64;
    let mut failures = 0usize;
    let start = Instant::now();
    for seed in [11u64, 23, 47] {
        for scheme in Scheme::ALL {
            let run = || try_run_scheme(&chaos_platform(seed), scheme, &w, &cfg);
            let (a, b) = (run(), run());
            match (a, b) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(
                        ra.times, rb.times,
                        "virtual times diverged: {scheme:?} seed {seed}"
                    );
                    assert_eq!(
                        ra.faults, rb.faults,
                        "fault counters diverged: {scheme:?} seed {seed}"
                    );
                    ladder_hits += ra.faults.demotions() + ra.faults.chunk_retries;
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(
                        ea.failures, eb.failures,
                        "typed errors diverged: {scheme:?} seed {seed}"
                    );
                    failures += 1;
                }
                (a, b) => panic!(
                    "outcome diverged for {scheme:?} seed {seed}: {:?} vs {:?}",
                    a.map(|r| r.times),
                    b.map(|r| r.times)
                ),
            }
        }
    }
    // 24 cells x 2 runs of a short ping-pong: seconds, not minutes. A
    // hang anywhere would blow far past this.
    assert!(start.elapsed() < Duration::from_secs(60), "chaos matrix too slow (hang?)");
    assert!(
        ladder_hits >= 1,
        "no ladder activity (demotion or chunk retry) anywhere in the matrix \
         ({failures} cells failed typed)"
    );
}

/// Satellite guideline: a transfer the ladder demotes must never be
/// slower in virtual time than the same transfer on a fresh fault-free
/// platform — the demoted transfer is exactly that send, and fault
/// charges are exact.
#[test]
fn demoted_transfer_never_slower_than_fresh_monolithic() {
    let w = Workload::every_other(16 << 10);
    let cfg = small_cfg();

    let mut demoted_p = Platform::skx_impi();
    demoted_p.jitter_sigma = 0.0;
    // Every chunk ordinal faults: the forecast demotes the transfer (no
    // retries, no extra virtual charges).
    let demoted_p = demoted_p.with_deadlock_timeout(10.0).with_fault_plan(
        FaultPlan::quiet(31).with_chunk_faults(1.0, 1.0).with_chunk_schedule(64 << 10, 16 << 10),
    );

    let mut fresh_p = Platform::skx_impi();
    fresh_p.jitter_sigma = 0.0;
    let fresh_p = fresh_p.with_deadlock_timeout(10.0);

    let demoted = try_run_scheme(&demoted_p, Scheme::VectorType, &w, &cfg).unwrap();
    let fresh = try_run_scheme(&fresh_p, Scheme::VectorType, &w, &cfg).unwrap();

    assert!(demoted.faults.pipeline_demotions >= 1, "ladder never demoted: {:?}", demoted.faults);
    assert_eq!(demoted.times.len(), fresh.times.len());
    for (i, (d, f)) in demoted.times.iter().zip(&fresh.times).enumerate() {
        assert!(
            d <= f,
            "demoted rep {i} slower than fresh fault-free send: {d} > {f}"
        );
    }
}
