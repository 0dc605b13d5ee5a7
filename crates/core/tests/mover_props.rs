//! Differential property tests of the one mover: a blocking `send` lends
//! its buffer and the receiver copies straight from it, while an
//! `isend` and `wait` of the same message stages a packed copy first.
//! For any strided message, receive-side datatype, billed engine (pack,
//! iovec, element walk or the selector's pick) and fault seed, the two
//! must deliver byte-identical payloads with bit-equal virtual clocks on
//! both ranks: the engine decides the charges, never who moves the bytes.
//!
//! Jitter stays ON: bit-equal times prove both paths consume the same
//! jitter draws in the same order. CI additionally runs this suite under
//! `NONCTG_PACK_THREADS=4` so the threaded pack and unpack kernels get
//! the same differential check.

use nonctg_core::{StageCause, Universe};
use nonctg_datatype::{as_bytes, as_bytes_mut, Datatype};
use nonctg_simnet::{Datapath, FaultPlan, Platform};
use proptest::prelude::*;

/// How rank 1 receives the strided payload.
#[derive(Debug, Clone, Copy)]
enum RecvMode {
    /// Contiguous `recv_slice`: the send plan packs straight from the
    /// lent buffer into the receive buffer.
    Contiguous,
    /// The sender's vector type: both layouts strided, so the receiver
    /// stages the lent bytes through the pool.
    SameVector,
    /// A coarser vector type with twice the blocklength.
    CoarseVector,
    /// A coarser vector type whose instance size does not divide the sent
    /// byte count: the posted receive consumes only the whole instances
    /// and the trailing partial instance is dropped.
    PartialTrailing,
}

#[derive(Debug, Clone)]
struct Case {
    /// Number of vector blocks on the sender.
    blocks: usize,
    /// Sender blocklength in f64 elements.
    blocklen: usize,
    /// Extra stride beyond the blocklength (>= 1 keeps the type non-contiguous).
    gap: usize,
    recv_mode: RecvMode,
    /// The engine the send is billed as.
    datapath: Datapath,
    /// Fault seed; `None` runs fault-free.
    fault_seed: Option<u64>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        // Every message is above the 64 KiB eager limit, so the blocking
        // send rendezvouses. Many short blocks overflow the iovec region
        // cap (a forced iovec send demotes); a few long ones stay under
        // it (an iovec-billed send).
        prop_oneof![(4200usize..6000, 1usize..5), (200usize..500, 24usize..64)],
        1usize..4,
        prop_oneof![
            Just(RecvMode::Contiguous),
            Just(RecvMode::SameVector),
            Just(RecvMode::CoarseVector),
            Just(RecvMode::PartialTrailing),
        ],
        prop_oneof![
            Just(Datapath::Pack),
            Just(Datapath::Iov),
            Just(Datapath::Elem),
            Just(Datapath::Auto),
        ],
        prop_oneof![Just(None), (0u64..1_000).prop_map(Some)],
    )
        .prop_map(|((half, blocklen), gap, recv_mode, datapath, fault_seed)| Case {
            // PartialTrailing sends one extra block so the sent byte count
            // is not a multiple of the receive instance size.
            blocks: match recv_mode {
                RecvMode::PartialTrailing => 2 * half + 1,
                _ => 2 * half,
            },
            blocklen,
            gap,
            recv_mode,
            datapath,
            fault_seed,
        })
}

fn platform_for(case: &Case) -> Platform {
    // Jitter stays at the platform default: identical draw sequences are
    // part of what the differential test proves.
    let mut p = Platform::skx_impi().with_datapath(case.datapath);
    if let Some(seed) = case.fault_seed {
        // Delays and corruption stress the retry/backoff charges and the
        // corrupt-byte placement; pool, plan and worker faults force
        // staging on the blocking send too. A low transient-failure rate
        // exercises the retry loop without ever escalating to a
        // persistent failure (which would wedge the receiver).
        p = p.with_fault_plan(
            FaultPlan::quiet(seed)
                .with_send_failures(0.05)
                .with_delays(0.15, 2e-6)
                .with_corruption(0.15)
                .with_pool_exhaustion(0.15)
                .with_plan_failures(0.15)
                .with_pack_worker_failures(0.15),
        );
    }
    p.with_deadlock_timeout(5.0)
}

/// What one exchange produced: the receiver's buffer bytes, both ranks'
/// wtime bits, and whether the sender lent its buffer.
type Outcome = (Vec<u8>, u64, u64, bool);

/// Runs one send/recv exchange, lent (blocking `send`) or staged
/// (`isend` + `wait`).
fn run_case(case: &Case, lent: bool) -> Outcome {
    let case = case.clone();
    let results = Universe::run(platform_for(&case), 2, move |comm| {
        let stride = (case.blocklen + case.gap) as i64;
        let n_elems = case.blocks * case.blocklen;
        if comm.rank() == 0 {
            let extent = (case.blocks - 1) * stride as usize + case.blocklen;
            let src: Vec<f64> = (0..extent).map(|e| e as f64 + 0.25).collect();
            let t = Datatype::vector(case.blocks, case.blocklen, stride, &Datatype::f64())
                .unwrap()
                .commit();
            comm.enable_metrics();
            if lent {
                comm.send(as_bytes(&src), 0, &t, 1, 1, 7).unwrap();
            } else {
                let req = comm.isend(as_bytes(&src), 0, &t, 1, 1, 7).unwrap();
                req.wait(comm).unwrap();
            }
            let transfers = comm.take_metrics().expect("metrics on").transfers;
            if !lent {
                assert_eq!(transfers.staged_by(StageCause::Nonblocking), 1);
            }
            (Vec::new(), comm.wtime().to_bits(), transfers.lent == 1)
        } else {
            // `n` instances of `rcount` blocks of `rb` f64s every `rstride`.
            let recv_vector = |comm: &mut nonctg_core::Comm, rb: usize, rcount: usize, rstride, n| {
                let ext = (rcount - 1) * rstride as usize + rb;
                let mut buf = vec![0.0f64; n * ext];
                let t = Datatype::vector(rcount, rb, rstride, &Datatype::f64())
                    .unwrap()
                    .commit();
                comm.recv(as_bytes_mut(&mut buf), 0, &t, n, Some(0), Some(7)).unwrap();
                as_bytes(&buf).to_vec()
            };
            let buf_bytes = match case.recv_mode {
                RecvMode::Contiguous => {
                    let mut buf = vec![0.0f64; n_elems];
                    comm.recv_slice(&mut buf, Some(0), Some(7)).unwrap();
                    as_bytes(&buf).to_vec()
                }
                RecvMode::SameVector => recv_vector(comm, case.blocklen, case.blocks, stride, 1),
                RecvMode::CoarseVector => {
                    let rb = 2 * case.blocklen;
                    recv_vector(comm, rb, case.blocks / 2, rb as i64 + 1, 1)
                }
                // One instance covers blocks-1 sender blocks; posting
                // count=2 leaves capacity for the incoming bytes while
                // only one whole instance fits them.
                RecvMode::PartialTrailing => {
                    let rb = 2 * case.blocklen;
                    recv_vector(comm, rb, (case.blocks - 1) / 2, rb as i64 + 1, 2)
                }
            };
            (buf_bytes, comm.wtime().to_bits(), false)
        }
    });
    let mut it = results.into_iter();
    let (_, t0, lends) = it.next().unwrap();
    let (buf, t1, _) = it.next().unwrap();
    (buf, t0, t1, lends)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lent vs. staged: identical received bytes (including any injected
    /// corruption, which must land on the same byte) and bit-equal
    /// virtual clocks on both ranks, whichever engine the send is billed
    /// as. Without faults the blocking send always lends.
    #[test]
    fn lent_matches_staged(case in arb_case()) {
        let (buf_l, s_l, r_l, lends) = run_case(&case, true);
        let (buf_s, s_s, r_s, staged_lends) = run_case(&case, false);
        prop_assert_eq!(buf_l, buf_s, "payload bytes diverged: {:?}", case);
        prop_assert_eq!(s_l, s_s, "sender wtime diverged: {:?}", case);
        prop_assert_eq!(r_l, r_s, "receiver wtime diverged: {:?}", case);
        prop_assert!(!staged_lends, "an isend lent its buffer: {:?}", case);
        if case.fault_seed.is_none() {
            prop_assert!(lends, "a clean blocking rendezvous staged: {:?}", case);
        }
    }
}

/// An iovec-billed and a forced-elem blocking send both lend, and each
/// matches its staged twin bit for bit, with the receiver's trailing
/// partial instance dropped.
#[test]
fn iovec_and_elem_billed_sends_lend() {
    for datapath in [Datapath::Iov, Datapath::Elem] {
        let case = Case {
            blocks: 601,
            blocklen: 32,
            gap: 1,
            recv_mode: RecvMode::PartialTrailing,
            datapath,
            fault_seed: None,
        };
        let lent = run_case(&case, true);
        let staged = run_case(&case, false);
        assert!(lent.3, "{datapath:?}: the blocking send staged");
        assert_eq!(lent.0, staged.0, "{datapath:?}: payload bytes diverged");
        assert_eq!((lent.1, lent.2), (staged.1, staged.2), "{datapath:?}: clocks diverged");
    }
}

/// A standard `send` of 8 MiB, above the notional 4 MiB chunk
/// threshold, lends under the default configuration, and its virtual
/// time is bit-equal to the staged send's.
#[test]
fn large_default_send_lends_and_matches_staged() {
    let elems = 1 << 20;
    let run = |lent: bool| {
        Universe::run(Platform::skx_impi(), 2, move |comm| {
            if comm.rank() == 0 {
                let src: Vec<f64> = (0..2 * elems).map(|e| e as f64).collect();
                let t = Datatype::vector(elems, 1, 2, &Datatype::f64())
                    .unwrap()
                    .commit();
                comm.enable_metrics();
                if lent {
                    comm.send(as_bytes(&src), 0, &t, 1, 1, 3).unwrap();
                } else {
                    comm.isend(as_bytes(&src), 0, &t, 1, 1, 3).unwrap().wait(comm).unwrap();
                }
                let lends = comm.take_metrics().unwrap().transfers.lent;
                (lends, comm.wtime().to_bits())
            } else {
                let mut buf = vec![0.0f64; elems];
                comm.recv_slice(&mut buf, Some(0), Some(3)).unwrap();
                let sum = buf.iter().sum::<f64>();
                (sum.to_bits(), comm.wtime().to_bits())
            }
        })
    };
    let (lent, staged) = (run(true), run(false));
    assert_eq!(lent[0], (1, staged[0].1));
    assert_eq!(staged[0].0, 0);
    assert_eq!(lent[1], staged[1]);
}
