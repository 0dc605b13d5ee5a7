//! Property tests of the zero-copy iovec datapath: whatever engine moves
//! the bytes — staged pack, direct region scatter, or a fault-demoted
//! mixture — the receiver's buffer must be bit-identical, including under
//! chaos fault plans.

use nonctg_core::datatype::Datatype;
use nonctg_core::{FaultStats, Universe};
use nonctg_simnet::{Datapath, FaultPlan, Platform, PlatformId};
use proptest::prelude::*;

fn quiet_on(id: PlatformId) -> Platform {
    let mut p = Platform::get(id);
    p.jitter_sigma = 0.0;
    p
}

fn quiet() -> Platform {
    quiet_on(PlatformId::SkxImpi)
}

/// Build a strided byte vector type and a patterned source buffer big
/// enough for `count` regions of `blocklen` bytes at `stride`.
fn vector_case(count: usize, blocklen: usize, stride: usize) -> (Datatype, Vec<u8>) {
    let src_len = (count - 1) * stride + blocklen;
    let src: Vec<u8> = (0..src_len).map(|i| (i.wrapping_mul(131) + 7) as u8).collect();
    let t = Datatype::vector(count, blocklen, stride as i64, &Datatype::byte())
        .unwrap()
        .commit();
    (t, src)
}

/// Pingpong one strided message 0 -> 1 -> 0 on `platform`; return
/// (rank-0 round-trip receive buffer, rank-1 receive buffer, rank-0
/// fault stats). The receive buffers start from distinct sentinels so
/// untouched gap bytes are distinguishable per rank.
fn pingpong(
    platform: Platform,
    dtype: Datatype,
    src: Vec<u8>,
) -> (Vec<u8>, Vec<u8>, FaultStats) {
    let n = src.len();
    let mut results = Universe::run_supervised(platform, 2, move |comm| {
        if comm.rank() == 0 {
            comm.send(&src, 0, &dtype, 1, 1, 0)?;
            let mut back = vec![0xAAu8; n];
            comm.recv(&mut back, 0, &dtype, 1, Some(1), Some(1))?;
            Ok((back, comm.fault_stats()))
        } else {
            let mut buf = vec![0xBBu8; n];
            comm.recv(&mut buf, 0, &dtype, 1, Some(0), Some(0))?;
            comm.send(&buf, 0, &dtype, 1, 0, 1)?;
            Ok((buf, comm.fault_stats()))
        }
    });
    let (r1, _) = results.pop().unwrap().unwrap();
    let (r0, stats0) = results.pop().unwrap().unwrap();
    (r0, r1, stats0)
}

/// Strided blocks of `got` must match `src`; gap bytes must keep `fill`.
fn assert_layout(src: &[u8], got: &[u8], count: usize, blocklen: usize, stride: usize, fill: u8) {
    for r in 0..count {
        let lo = r * stride;
        assert_eq!(&got[lo..lo + blocklen], &src[lo..lo + blocklen], "region {r}");
        let gap_hi = if r + 1 < count { lo + stride } else { got.len() };
        for (i, &b) in got[lo + blocklen..gap_hi].iter().enumerate() {
            assert_eq!(b, fill, "gap byte {i} after region {r} was touched");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forced-iovec and forced-pack pingpongs deliver bit-identical
    /// buffers on both ranks, across region shapes that straddle the
    /// eager limit, the selector crossover, and the region cap.
    #[test]
    fn forced_iov_matches_forced_pack(
        count in 1usize..600,
        blocklen in 1usize..2048,
        gap in 0usize..512,
    ) {
        let stride = blocklen + gap;
        let (t, src) = vector_case(count, blocklen, stride);
        let (p0, p1, _) =
            pingpong(quiet().with_datapath(Datapath::Pack), t.clone(), src.clone());
        let (i0, i1, _) =
            pingpong(quiet().with_datapath(Datapath::Iov), t, src.clone());
        prop_assert_eq!(&p1, &i1, "rank-1 buffers diverge");
        prop_assert_eq!(&p0, &i0, "round-trip buffers diverge");
        assert_layout(&src, &i1, count, blocklen, stride, 0xBB);
        assert_layout(&src, &i0, count, blocklen, stride, 0xAA);
    }

    /// Under a chaos fault plan the iovec path still delivers every
    /// payload byte (demoting to pack where the ladder says so), and the
    /// pack reference sees the same bytes.
    #[test]
    fn chaos_seeds_preserve_iovec_payloads(seed in 0u64..24) {
        let (count, blocklen, stride) = (256usize, 512usize, 768usize);
        let (t, src) = vector_case(count, blocklen, stride);
        let chaos = FaultPlan::chaos(seed);
        let iov = quiet().with_datapath(Datapath::Iov).with_fault_plan(chaos.clone());
        let pack = quiet().with_datapath(Datapath::Pack).with_fault_plan(chaos);
        let (i0, i1, _) = pingpong(iov, t.clone(), src.clone());
        let (p0, p1, _) = pingpong(pack, t, src.clone());
        assert_layout(&src, &i1, count, blocklen, stride, 0xBB);
        assert_layout(&src, &i0, count, blocklen, stride, 0xAA);
        prop_assert_eq!(&i1, &p1);
        prop_assert_eq!(&i0, &p0);
    }
}

/// With the pool exhausted the fault ladder demotes iovec sends to the
/// staged pack path, counts the demotion, and still delivers intact.
#[test]
fn pool_exhaustion_demotes_iovec_to_pack() {
    let (count, blocklen, stride) = (256usize, 512usize, 768usize);
    let (t, src) = vector_case(count, blocklen, stride);
    let p = quiet()
        .with_datapath(Datapath::Iov)
        .with_fault_plan(FaultPlan::quiet(3).with_pool_exhaustion(1.0));
    let (r0, r1, stats0) = pingpong(p, t, src.clone());
    assert!(stats0.iovec_demotions >= 1, "no demotion recorded: {stats0:?}");
    assert_layout(&src, &r1, count, blocklen, stride, 0xBB);
    assert_layout(&src, &r0, count, blocklen, stride, 0xAA);
}

/// Serializes the tests that read the process-wide selector counters:
/// run concurrently, one test's auto-mode sends land in the other's delta.
static SELECTOR_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// In auto mode a long-region rendezvous workload actually routes
/// through the selector to iovec, and matches the forced-pack result.
#[test]
fn auto_mode_selects_iovec_for_long_regions() {
    let _serial = SELECTOR_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (count, blocklen, stride) = (256usize, 512usize, 768usize);
    let (t, src) = vector_case(count, blocklen, stride);
    let base = nonctg_core::selector_counters();
    let (a0, a1, _) = pingpong(quiet(), t.clone(), src.clone());
    let delta = nonctg_core::selector_counters().delta_since(&base);
    assert!(delta.iov >= 2, "selector never chose iovec: {delta:?}");
    let (p0, p1, _) = pingpong(quiet().with_datapath(Datapath::Pack), t, src);
    assert_eq!(a1, p1);
    assert_eq!(a0, p0);
}

/// The paper's every-other-f64 workloads (8-byte regions) must keep
/// selecting pack: the zero-copy path never silently changes the
/// figures the repo reproduces.
#[test]
fn auto_mode_keeps_pack_for_paper_workloads() {
    let _serial = SELECTOR_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let (count, blocklen, stride) = (32 * 1024usize, 8usize, 16usize);
    let (t, src) = vector_case(count, blocklen, stride);
    let base = nonctg_core::selector_counters();
    let (_, r1, _) = pingpong(quiet(), t, src.clone());
    let delta = nonctg_core::selector_counters().delta_since(&base);
    assert_eq!(delta.iov, 0, "8-byte regions must not take iovec: {delta:?}");
    assert_layout(&src, &r1, count, blocklen, stride, 0xBB);
}

/// Virtual seconds (max over ranks) of one cold one-way send 0 -> 1 of
/// `dtype` from `src`, received into the same layout.
fn one_way_time(p: Platform, dtype: &Datatype, src: &[u8]) -> f64 {
    let dtype = dtype.clone();
    let payload = src.to_vec();
    let n = payload.len();
    let times = Universe::run(p, 2, move |comm| {
        if comm.rank() == 0 {
            comm.send(&payload, 0, &dtype, 1, 1, 0).unwrap();
        } else {
            let mut buf = vec![0u8; n];
            comm.recv(&mut buf, 0, &dtype, 1, Some(0), Some(0)).unwrap();
        }
        comm.wtime()
    });
    times.into_iter().fold(0.0f64, f64::max)
}

/// For long regions the zero-copy path must be faster in virtual time
/// than the staged pack path — the perf claim the selector encodes.
#[test]
fn iovec_is_faster_for_long_regions() {
    let (count, blocklen, stride) = (256usize, 4096usize, 4608usize);
    let (t, src) = vector_case(count, blocklen, stride);
    let pack = one_way_time(quiet().with_datapath(Datapath::Pack), &t, &src);
    let iov = one_way_time(quiet().with_datapath(Datapath::Iov), &t, &src);
    assert!(iov < pack, "iovec not faster: iov={iov:e} pack={pack:e}");
}

/// Auto mode is the argmin of the cost model: on every platform, at
/// region lengths straddling every crossover and two region counts, a
/// cold one-way send under auto takes exactly the virtual time of the
/// cheaper forced engine.
#[test]
fn auto_mode_time_is_the_cheaper_forced_engine() {
    let _serial = SELECTOR_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    for id in PlatformId::ALL {
        for count in [128usize, 900] {
            for blocklen in [64usize, 96, 128, 160, 176, 192, 256, 512, 4096] {
                let (t, src) = vector_case(count, blocklen, 2 * blocklen);
                let time = |dp| one_way_time(quiet_on(id).with_datapath(dp), &t, &src);
                let (auto, pack, iov) =
                    (time(Datapath::Auto), time(Datapath::Pack), time(Datapath::Iov));
                assert_eq!(
                    auto.to_bits(),
                    pack.min(iov).to_bits(),
                    "{id:?} {count} x {blocklen} B: auto {auto:e}, pack {pack:e}, iov {iov:e}"
                );
            }
        }
    }
}

/// A user buffer shorter than the message is the same typed
/// `OutOfBounds` whether the bytes would be staged by the pack plan or
/// gathered and scattered by regions — on the send side and the receive
/// side — and never a rank panic.
#[test]
fn short_buffers_give_equal_typed_errors() {
    let t = Datatype::vector(64, 512, 1024, &Datatype::f64()).unwrap().commit();
    let extent = t.extent() as usize;
    let expected = nonctg_core::datatype::DatatypeError::OutOfBounds {
        needed_from: 0,
        needed_to: extent as i64,
        buffer_len: extent / 2,
    };
    for dp in [Datapath::Pack, Datapath::Iov] {
        let t = t.clone();
        let mut results = Universe::run_supervised(quiet().with_datapath(dp), 2, move |comm| {
            if comm.rank() == 0 {
                let short_send = comm.send(&vec![1u8; extent / 2], 0, &t, 1, 1, 0);
                comm.send(&vec![1u8; extent], 0, &t, 1, 1, 1)?;
                Ok(short_send.unwrap_err())
            } else {
                let mut short = vec![0u8; extent / 2];
                Ok(comm.recv(&mut short, 0, &t, 1, Some(0), Some(1)).unwrap_err())
            }
        });
        let recv_err = results.pop().unwrap().expect("rank 1 must not panic");
        let send_err = results.pop().unwrap().expect("rank 0 must not panic");
        assert_eq!(send_err, nonctg_core::CoreError::Datatype(expected.clone()), "{dp:?} send");
        assert_eq!(recv_err, nonctg_core::CoreError::Datatype(expected.clone()), "{dp:?} recv");
    }
}
