//! Tests of the v2 fault model's graceful-degradation ladder: every
//! injected fault either degrades to a slower-but-correct datapath
//! (counted in [`FaultStats`]) or surfaces as a typed error — never a
//! hang, never silent corruption.

use std::time::{Duration, Instant};

use nonctg_core::datatype::Datatype;
use nonctg_core::{set_oracle_checks, CoreError, FaultStats, Universe};
use nonctg_simnet::{Datapath, FaultPlan, Platform};

/// A quiet platform with a short deadlock timeout so any regression
/// towards "stall until the watchdog" fails fast and visibly.
fn short_timeout(seconds: f64) -> Platform {
    let mut p = Platform::skx_impi();
    p.jitter_sigma = 0.0;
    p.with_deadlock_timeout(seconds)
}

/// Send `payload` from rank 0 to rank 1 under `plan` on `platform`;
/// return (sender stats, receiver stats, received bytes).
fn send_once(
    platform: Platform,
    plan: FaultPlan,
    payload: Vec<u8>,
) -> (FaultStats, FaultStats, Vec<u8>) {
    let n = payload.len();
    let p = platform.with_fault_plan(plan);
    let mut results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            comm.send_bytes(&payload, 1, 0)?;
            Ok((comm.fault_stats(), Vec::new()))
        } else {
            let mut buf = vec![0u8; n];
            comm.recv_bytes(&mut buf, Some(0), Some(0))?;
            Ok((comm.fault_stats(), buf))
        }
    });
    let (rstats, buf) = results.pop().unwrap().unwrap();
    let (sstats, _) = results.pop().unwrap().unwrap();
    (sstats, rstats, buf)
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 131 + 7) as u8).collect()
}

/// Send one strided-vector message (packed size `count * 16` bytes) from
/// rank 0 to rank 1; return (sender stats, source, received buffer).
/// Only non-contiguous types get a chunk-fault forecast, so the chunk
/// rungs must ride a derived type.
fn send_vector_once(
    platform: Platform,
    plan: FaultPlan,
    count: usize,
) -> (FaultStats, Vec<u8>, Vec<u8>) {
    let (blocklen, stride) = (16usize, 32i64);
    let src_len = (count - 1) * stride as usize + blocklen;
    let src = pattern(src_len);
    let vtype = Datatype::vector(count, blocklen, stride, &Datatype::byte()).unwrap().commit();
    let p = platform.with_fault_plan(plan);
    let src_for_run = src.clone();
    let mut results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            comm.send(&src_for_run, 0, &vtype, 1, 1, 0)?;
            Ok((comm.fault_stats(), Vec::new()))
        } else {
            let mut buf = vec![0u8; src_len];
            comm.recv(&mut buf, 0, &vtype, 1, Some(0), Some(0))?;
            Ok((comm.fault_stats(), buf))
        }
    });
    let (_, got) = results.pop().unwrap().unwrap();
    let (sstats, _) = results.pop().unwrap().unwrap();
    (sstats, src, got)
}

/// Assert every strided block of `got` matches `src`.
fn assert_blocks_equal(src: &[u8], got: &[u8], count: usize) {
    let (blocklen, stride) = (16usize, 32usize);
    for b in 0..count {
        let at = b * stride;
        assert_eq!(&got[at..at + blocklen], &src[at..at + blocklen], "block {b} corrupted");
    }
}

/// Rung 1: payload-pool exhaustion falls back to owned (detached)
/// staging buffers — the send still succeeds bit-exactly and the
/// fallback is counted.
#[test]
fn pool_exhaustion_falls_back_to_owned_buffers() {
    set_oracle_checks(true);
    let payload = pattern(1 << 20);
    let plan = FaultPlan::quiet(5).with_pool_exhaustion(1.0);
    let (sstats, _, got) = send_once(short_timeout(5.0), plan, payload.clone());
    assert_eq!(got, payload, "payload corrupted by pool fallback");
    assert!(sstats.pool_exhaustions >= 1, "fallback not counted: {sstats:?}");
    assert!(sstats.demotions() >= 1, "demotions() must roll up pool faults");
}

/// Rung 2: a pack-plan compile failure on a derived type falls back to
/// the uncompiled interpreter — payload bit-exact, fallback counted.
#[test]
fn plan_compile_failure_falls_back_to_uncompiled_pack() {
    let (count, blocklen, stride) = (4096usize, 16usize, 32i64);
    let src_len = (count - 1) * stride as usize + blocklen;
    let src = pattern(src_len);
    let vtype = Datatype::vector(count, blocklen, stride, &Datatype::byte()).unwrap().commit();
    let plan = FaultPlan::quiet(6).with_plan_failures(1.0);
    let p = short_timeout(5.0).with_fault_plan(plan);
    let src_for_run = src.clone();
    let vt = vtype.clone();
    let results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            comm.send(&src_for_run, 0, &vt, 1, 1, 0)?;
            Ok((comm.fault_stats(), Vec::new()))
        } else {
            let mut buf = vec![0u8; src_len];
            comm.recv(&mut buf, 0, &vt, 1, Some(0), Some(0))?;
            Ok((comm.fault_stats(), buf))
        }
    });
    let (sstats, _) = results[0].as_ref().unwrap();
    let (_, got) = results[1].as_ref().unwrap();
    assert!(sstats.plan_fallbacks >= 1, "plan fallback not counted: {sstats:?}");
    for b in 0..count {
        let at = b * stride as usize;
        assert_eq!(
            &got[at..at + blocklen],
            &src[at..at + blocklen],
            "block {b} corrupted by uncompiled fallback"
        );
    }
}

/// Faulty chunks the plan forecasts for the first send of rank 0 over
/// `chunks` cuts.
fn forecast_faults(plan: &FaultPlan, chunks: u64) -> u64 {
    (0..chunks).filter(|&c| plan.chunk_decision(0, 0, c).is_faulty()).count() as u64
}

/// Rung 3: chunk faults forecast below the demotion threshold count as
/// chunk retries, one per faulty cut of the notional schedule; the
/// transfer itself still lends and the receiver sees bit-exact data.
#[test]
fn chunk_faults_retry_and_quarantine() {
    set_oracle_checks(true);
    // A 128 KiB packed vector over 16 KiB chunks = 8 chunk ordinals; a
    // low corruption probability keeps the faulty forecast below the
    // demote threshold, so each faulty chunk counts as one retry.
    let count = (128 << 10) / 16;
    let plan =
        FaultPlan::quiet(9).with_chunk_faults(0.25, 0.0).with_chunk_schedule(64 << 10, 16 << 10);
    let expected = forecast_faults(&plan, 8);
    assert!((1..nonctg_core::CHUNK_DEMOTE_THRESHOLD).contains(&expected), "seed: {expected}");
    let (sstats, src, got) = send_vector_once(short_timeout(5.0), plan, count);
    assert_blocks_equal(&src, &got, count);
    assert_eq!(sstats.chunk_retries, expected, "{sstats:?}");
    assert_eq!(sstats.pipeline_demotions, 0, "forecast should not demote: {sstats:?}");
}

/// Rung 4: a storm of chunk faults counts one pipeline demotion and no
/// retries — still bit-exact.
#[test]
fn chunk_fault_storm_demotes_to_monolithic() {
    set_oracle_checks(true);
    let count = (128 << 10) / 16;
    let plan =
        FaultPlan::quiet(4).with_chunk_faults(0.9, 0.9).with_chunk_schedule(64 << 10, 16 << 10);
    assert!(forecast_faults(&plan, 8) >= nonctg_core::CHUNK_DEMOTE_THRESHOLD);
    let (sstats, src, got) = send_vector_once(short_timeout(5.0), plan, count);
    assert_blocks_equal(&src, &got, count);
    assert_eq!(sstats.pipeline_demotions, 1, "storm did not demote: {sstats:?}");
    assert_eq!(sstats.chunk_retries, 0, "a demoted send retries no chunks");
}

/// The forecast walks instance-aligned cuts, not `bytes / chunk`: with
/// 1000-byte blocks and a 1500-byte chunk target every block is its own
/// cut (66 cuts of a 66000-byte message, not 44), and the retries
/// counted are the faults drawn over exactly those cuts.
#[test]
fn chunk_forecast_walks_instance_aligned_cuts() {
    let (count, block) = (66usize, 1000usize);
    let chunk_faults = |seed| {
        FaultPlan::quiet(seed).with_chunk_faults(0.03, 0.0).with_chunk_schedule(64 << 10, 1500)
    };
    // A seed whose faults over the 66 aligned cuts stay below the
    // demotion threshold and differ from those over 44 even cuts.
    let seed = (0..1000u64)
        .find(|&s| {
            let aligned = forecast_faults(&chunk_faults(s), count as u64);
            (1..nonctg_core::CHUNK_DEMOTE_THRESHOLD).contains(&aligned)
                && aligned != forecast_faults(&chunk_faults(s), 44)
        })
        .expect("some seed separates the two walks");
    let plan = chunk_faults(seed);
    let expected = forecast_faults(&plan, count as u64);
    // Billed as a pack: the selector would bill these long regions as
    // iovec, which forecasts no retries.
    let p = short_timeout(5.0).with_datapath(Datapath::Pack).with_fault_plan(plan);
    let results = Universe::run_supervised(p, 2, move |comm| {
        let vtype = Datatype::vector(count, block, 2 * block as i64, &Datatype::byte())
            .unwrap()
            .commit();
        let mut buf = pattern((2 * count - 1) * block);
        if comm.rank() == 0 {
            comm.send(&buf, 0, &vtype, 1, 1, 0)?;
        } else {
            comm.recv(&mut buf, 0, &vtype, 1, Some(0), Some(0))?;
        }
        Ok(comm.fault_stats())
    });
    let sstats = results[0].as_ref().unwrap();
    assert_eq!((sstats.chunk_retries, sstats.pipeline_demotions), (expected, 0), "{sstats:?}");
}

/// The chunk rungs apply only where a chunk stream once ran: blocking
/// sends at or above the schedule's threshold. An `isend` and a smaller
/// send count nothing, however many chunk faults the plan would draw.
#[test]
fn chunk_forecast_skips_isend_and_small_sends() {
    let plan = FaultPlan::quiet(4).with_chunk_faults(1.0, 0.0).with_chunk_schedule(64 << 10, 16 << 10);
    let p = short_timeout(5.0).with_fault_plan(plan);
    let (blocklen, stride) = (16usize, 32i64);
    let results = Universe::run_supervised(p, 2, move |comm| {
        for (count, blocking) in [((128 << 10) / 16, false), ((32 << 10) / 16, true)] {
            let vtype =
                Datatype::vector(count, blocklen, stride, &Datatype::byte()).unwrap().commit();
            let len = (count - 1) * stride as usize + blocklen;
            let mut buf = pattern(len);
            if comm.rank() == 0 && blocking {
                comm.ssend(&buf, 0, &vtype, 1, 1, 0)?;
            } else if comm.rank() == 0 {
                comm.isend(&buf, 0, &vtype, 1, 1, 0)?.wait(comm)?;
            } else {
                comm.recv(&mut buf, 0, &vtype, 1, Some(0), Some(0))?;
            }
        }
        Ok(comm.fault_stats())
    });
    let sstats = results[0].as_ref().unwrap();
    assert_eq!((sstats.chunk_retries, sstats.pipeline_demotions), (0, 0), "{sstats:?}");
}

/// Rung 5: a parallel-pack worker failure pins the pack to the serial
/// kernel. Only observable when the pack would have gone parallel.
#[test]
fn pack_worker_failure_pins_serial_kernel() {
    let (count, blocklen, stride) = (1 << 20, 16usize, 32i64);
    let src_len = (count - 1) * stride as usize + blocklen;
    let src = pattern(src_len);
    let vtype = Datatype::vector(count, blocklen, stride, &Datatype::byte()).unwrap().commit();
    let plan = FaultPlan::quiet(8).with_pack_worker_failures(1.0);
    // The fault stages the 16 MiB payload (no lending) through the
    // serial pack.
    let p = short_timeout(5.0).with_fault_plan(plan);
    let src_for_run = src.clone();
    let vt = vtype.clone();
    let results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            comm.send(&src_for_run, 0, &vt, 1, 1, 0)?;
            Ok((comm.fault_stats(), 0u8))
        } else {
            let mut buf = vec![0u8; src_len];
            comm.recv(&mut buf, 0, &vt, 1, Some(0), Some(0))?;
            Ok((comm.fault_stats(), buf[7]))
        }
    });
    let (sstats, _) = results[0].as_ref().unwrap();
    let would_parallelize = nonctg_core::datatype::pack_threads() > 1
        && count * blocklen >= nonctg_core::datatype::parallel_threshold();
    if would_parallelize {
        assert!(sstats.serial_fallbacks >= 1, "serial fallback not counted: {sstats:?}");
    }
    assert_eq!(results[1].as_ref().unwrap().1, src[7], "payload corrupted");
}

/// An explicit `MPI_Pack` call rides the same ladder as the internal
/// staging pack: a plan-compile failure falls back to the uncompiled
/// interpreter with identical output, counted as a demotion.
#[test]
fn explicit_pack_rides_the_ladder() {
    let (count, blocklen, stride) = (512usize, 16usize, 32i64);
    let src_len = (count - 1) * stride as usize + blocklen;
    let src = pattern(src_len);
    let vtype = Datatype::vector(count, blocklen, stride, &Datatype::byte()).unwrap().commit();
    let packed_len = count * blocklen;
    let expected = {
        let mut buf = vec![0u8; packed_len];
        nonctg_core::datatype::pack_into(&src, 0, &vtype, 1, &mut buf).unwrap();
        buf
    };
    let plan = FaultPlan::quiet(14).with_plan_failures(1.0);
    let p = short_timeout(5.0).with_fault_plan(plan);
    let src_for_run = src.clone();
    let results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            let mut out = vec![0u8; packed_len];
            let mut pos = 0usize;
            comm.pack(&src_for_run, 0, &vtype, 1, &mut out, &mut pos)?;
            assert_eq!(pos, packed_len);
            Ok((comm.fault_stats(), out))
        } else {
            Ok((comm.fault_stats(), Vec::new()))
        }
    });
    let (stats, out) = results[0].as_ref().unwrap();
    assert_eq!(out, &expected, "uncompiled pack fallback produced different bytes");
    assert!(stats.plan_fallbacks >= 1, "explicit pack did not demote: {stats:?}");
}

/// `wait_timeout` bounds a rendezvous wait that can never complete with
/// a typed error and a counter — no hang, no watchdog wait.
#[test]
fn wait_timeout_bounds_unmatched_rendezvous() {
    let start = Instant::now();
    let results = Universe::run_supervised(short_timeout(5.0), 2, |comm| {
        if comm.rank() == 0 {
            let big = vec![3u8; 4 << 20];
            let req = comm.isend_slice(&big, 1, 0)?;
            // Rank 1 never posts the matching receive: bounded wait.
            let err = req.wait_timeout(comm, 0.05).unwrap_err();
            assert!(
                matches!(err, CoreError::WaitTimeout { waiting_for: "send completion", .. }),
                "unexpected error: {err:?}"
            );
            // The comm stays usable: release the peer.
            comm.send_bytes(&[1u8; 8], 1, 1)?;
            Ok(comm.fault_stats().timeouts)
        } else {
            let mut buf = [0u8; 8];
            comm.recv_bytes(&mut buf, Some(0), Some(1))?;
            Ok(0)
        }
    });
    assert!(start.elapsed() < Duration::from_secs(2), "wait_timeout hung");
    assert_eq!(results[0].as_ref().unwrap(), &1, "timeout not counted");
    assert!(results[1].is_ok(), "peer outcome: {:?}", results[1]);
}

/// `cancel` tears down an unmatched rendezvous send: typed error,
/// counted, and the comm stays usable afterwards.
#[test]
fn cancel_releases_unmatched_send() {
    let start = Instant::now();
    let results = Universe::run_supervised(short_timeout(5.0), 2, |comm| {
        if comm.rank() == 0 {
            let big = vec![5u8; 4 << 20];
            let req = comm.isend_slice(&big, 1, 0)?;
            let err = req.cancel(comm).unwrap_err();
            assert!(
                matches!(err, CoreError::Cancelled { what: "send request" }),
                "unexpected error: {err:?}"
            );
            comm.send_bytes(&[2u8; 8], 1, 1)?;
            Ok(comm.fault_stats().cancels)
        } else {
            let mut buf = [0u8; 8];
            comm.recv_bytes(&mut buf, Some(0), Some(1))?;
            Ok(0)
        }
    });
    assert!(start.elapsed() < Duration::from_secs(2), "cancel hung");
    assert_eq!(results[0].as_ref().unwrap(), &1, "cancel not counted");
    assert!(results[1].is_ok(), "peer outcome: {:?}", results[1]);
}

/// An injected receiver-side crash mid-stream surfaces as a typed
/// `RankPanicked` on the victim; senders observe `PeerFailed` (or have
/// already completed eagerly) — never a hang.
#[test]
fn recv_crash_is_typed_and_never_hangs() {
    let plan = FaultPlan::quiet(12).with_recv_crash(1, 2);
    let p = short_timeout(5.0).with_fault_plan(plan);
    let start = Instant::now();
    let results = Universe::run_supervised(p, 2, |comm| {
        if comm.rank() == 0 {
            for step in 0..4 {
                comm.send_bytes(&vec![step as u8; 1 << 20], 1, step)?;
            }
        } else {
            for step in 0..4 {
                let mut buf = vec![0u8; 1 << 20];
                comm.recv_bytes(&mut buf, Some(0), Some(step))?;
            }
        }
        Ok(comm.fault_stats().recv_crashes)
    });
    assert!(start.elapsed() < Duration::from_secs(1), "recv crash hung the pair");
    match &results[1] {
        Err(CoreError::RankPanicked { rank: 1, message }) => {
            assert!(message.contains("injected receiver crash"), "message: {message}");
        }
        other => panic!("victim outcome: {other:?}"),
    }
    assert!(
        matches!(results[0], Ok(_) | Err(CoreError::PeerFailed { rank: 1 })),
        "sender outcome: {:?}",
        results[0]
    );
}

/// A link-degradation burst inflates virtual latency for the window's
/// ops (deterministically, via exact charges) and is counted.
#[test]
fn link_degradation_charges_and_counts() {
    let run = |plan: Option<FaultPlan>| {
        let mut p = short_timeout(5.0);
        if let Some(plan) = plan {
            p = p.with_fault_plan(plan);
        }
        Universe::run_supervised(p, 2, |comm| {
            for step in 0..16 {
                if comm.rank() == 0 {
                    comm.send_bytes(&[7u8; 256], 1, step)?;
                    let mut buf = [0u8; 256];
                    comm.recv_bytes(&mut buf, Some(1), Some(step))?;
                } else {
                    let mut buf = [0u8; 256];
                    comm.recv_bytes(&mut buf, Some(0), Some(step))?;
                    comm.send_bytes(&[9u8; 256], 0, step)?;
                }
            }
            Ok((comm.fault_stats(), comm.wtime()))
        })
        .into_iter()
        .map(|r| r.unwrap())
        .collect::<Vec<_>>()
    };
    let clean = run(None);
    let degraded = run(Some(FaultPlan::quiet(2).with_link_degradation(0, 7, 8.0)));
    let hits: u64 = degraded.iter().map(|(s, _)| s.link_degradations).sum();
    assert!(hits >= 1, "no op landed in the degradation window");
    assert!(
        degraded[0].1 > clean[0].1,
        "degradation did not inflate virtual time: {} vs {}",
        degraded[0].1,
        clean[0].1
    );
}

/// The whole ladder is deterministic: identical chaos seeds produce
/// identical fault counters and identical virtual clocks.
#[test]
fn ladder_is_deterministic_under_chaos() {
    let run = || {
        let platform = short_timeout(5.0)
            .with_fault_plan(FaultPlan::chaos(77).with_chunk_schedule(64 << 10, 16 << 10));
        Universe::run_supervised(platform, 2, |comm| {
            for step in 0..12 {
                let payload = pattern(96 << 10);
                if comm.rank() == 0 {
                    comm.send_bytes(&payload, 1, step)?;
                } else {
                    let mut buf = vec![0u8; payload.len()];
                    comm.recv_bytes(&mut buf, Some(0), Some(step))?;
                    assert_eq!(buf, payload, "silent corruption at step {step}");
                }
            }
            Ok((comm.fault_stats(), comm.wtime()))
        })
        .into_iter()
        .map(|r| r.unwrap())
        .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "chaos ladder not reproducible");
}
