//! Property and failure tests of the lent rendezvous: a blocking `send`
//! or `ssend` lends its user buffer to the receiver, which moves the
//! bytes once, straight into its receive buffer.
//!
//! Whatever the two layouts — contiguous, vector, indexed or struct, on
//! either side — a lent send must deliver exactly what a staged
//! `isend` + `wait` delivers. The failure tests pin the lease protocol:
//! a sender that gave up is never read after it returned, a receiver
//! that fails mid-copy still releases its sender, and a dead receiver
//! never hangs one. CI also runs this suite with `NONCTG_ORACLE=1` and
//! `NONCTG_PACK_THREADS=4`.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use nonctg_core::datatype::{self as dt, Datatype, DatatypeError};
use nonctg_core::{CoreError, RecvStatus, Universe};
use nonctg_simnet::{Datapath, Platform};
use proptest::prelude::*;

/// A quiet platform on which every non-contiguous rendezvous is billed
/// as a pack; each blocking send above the eager limit lends.
fn lending() -> Platform {
    let mut p = Platform::skx_impi().with_datapath(Datapath::Pack);
    p.jitter_sigma = 0.0;
    p
}

/// How one instance lays out its `k` f64 elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Dense: instances tile, so the whole message is one run.
    Contig,
    /// One element every other slot.
    Vector,
    /// Growing gaps between single elements.
    Indexed,
    /// One f64 field every 24 bytes.
    Struct,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::Contig),
        Just(Shape::Vector),
        Just(Shape::Indexed),
        Just(Shape::Struct)
    ]
}

/// The committed instance type of `k` elements.
fn instance(shape: Shape, k: usize) -> Datatype {
    let f = Datatype::f64();
    let t = match shape {
        Shape::Contig => Datatype::contiguous(k, &f),
        Shape::Vector => Datatype::vector(k, 1, 2, &f),
        Shape::Indexed => {
            let blocks: Vec<(usize, i64)> = (0..k).map(|i| (1, (i * (i + 3) / 2) as i64)).collect();
            Datatype::indexed(&blocks, &f)
        }
        Shape::Struct => {
            let fields: Vec<(usize, i64, Datatype)> =
                (0..k).map(|i| (1, 24 * i as i64, f.clone())).collect();
            Datatype::structure(&fields)
        }
    };
    t.unwrap().commit()
}

/// Bytes a buffer needs for `count` x `t` at origin 0.
fn buf_len(t: &Datatype, count: usize) -> usize {
    dt::user_span(t, count).map_or(0, |(_, hi)| hi as usize)
}

#[derive(Debug, Clone)]
struct Case {
    send: (Shape, usize, usize),
    recv: (Shape, usize),
    /// Receive instances posted beyond what the message fills.
    spare: usize,
    /// `ssend`, else `send` (rendezvous only above the eager limit).
    sync: bool,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (
            arb_shape(),
            1usize..6,
            // Instances sent: none, a few, and past the eager limit.
            prop_oneof![Just(0usize), 1usize..64, 4_000usize..12_000],
        ),
        (arb_shape(), 1usize..6),
        0usize..3,
        proptest::bool::ANY,
    )
        .prop_map(|(send, recv, spare, sync)| Case {
            send,
            recv,
            spare,
            sync,
        })
}

/// Send `c` from rank 0 to rank 1, lent (blocking send) or staged
/// (`isend` + `wait`); rank 1's receive buffer and status.
fn deliver(c: &Case, lent: bool) -> (Vec<u8>, RecvStatus) {
    let (ss, sk, sc) = c.send;
    let (rs, rk) = c.recv;
    let send_t = instance(ss, sk);
    let recv_t = instance(rs, rk);
    // Enough receive instances for every sent element, plus spares.
    let rcount = (sk * sc).div_ceil(rk) + c.spare;
    let src: Vec<u8> = (0..buf_len(&send_t, sc))
        .map(|i| (i * 151 + 13) as u8)
        .collect();
    let rlen = buf_len(&recv_t, rcount);
    let (_, got) = Universe::run_pair(lending(), |comm| {
        if comm.rank() == 0 {
            if !lent {
                let req = comm.isend(&src, 0, &send_t, sc, 1, 5).unwrap();
                req.wait(comm).unwrap();
            } else if c.sync {
                comm.ssend(&src, 0, &send_t, sc, 1, 5).unwrap();
            } else {
                comm.send(&src, 0, &send_t, sc, 1, 5).unwrap();
            }
            None
        } else {
            let mut buf = vec![0xBBu8; rlen];
            let st = comm
                .recv(&mut buf, 0, &recv_t, rcount, Some(0), Some(5))
                .unwrap();
            Some((buf, st))
        }
    });
    got.expect("rank 1 result")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A lent send and a staged one deliver the same bytes and status,
    /// for every pairing of layouts, partial receives (a trailing
    /// partial instance dropped, spare instances posted) and empty
    /// messages.
    #[test]
    fn lent_equals_staged(c in arb_case()) {
        let lent = deliver(&c, true);
        let staged = deliver(&c, false);
        prop_assert_eq!(lent.1, staged.1);
        prop_assert!(lent.0 == staged.0, "receive buffers differ for {:?}", c);
    }
}

/// Messages above the parallel-pack threshold, on each copy the lent
/// path can take: unpack from a contiguous send, pack into a contiguous
/// receive, and both layouts strided (staged through the pool).
#[test]
fn large_lent_copies_equal_staged() {
    // Four elements per instance keep the strided shapes non-contiguous.
    let n = (dt::parallel_threshold() / 32).max(1 << 15) + 3;
    for (send, recv) in [
        (Shape::Contig, Shape::Contig),
        (Shape::Contig, Shape::Vector),
        (Shape::Vector, Shape::Contig),
        (Shape::Vector, Shape::Struct),
    ] {
        let c = Case {
            send: (send, 4, n),
            recv: (recv, 4),
            spare: 0,
            sync: false,
        };
        assert!(
            deliver(&c, true) == deliver(&c, false),
            "{send:?} -> {recv:?}"
        );
    }
}

/// A sender whose wait times out before the receiver matches revokes
/// its lease and then reuses its buffer; the late receiver gets a typed
/// error and never reads the buffer. A barrier holds the receiver back
/// until the sender has returned and overwritten its buffer.
#[test]
fn revoked_lease_is_never_read() {
    let p = lending().with_deadlock_timeout(0.3);
    let n = 1 << 17;
    let t = Datatype::f64();
    let sender_done = Barrier::new(2);
    let results = Universe::run_supervised(p, 2, |comm| {
        if comm.rank() == 0 {
            let mut buf = vec![0x11u8; n * 8];
            let res = comm.send(&buf, 0, &t, n, 1, 0);
            // The send has returned: its buffer is ours again.
            buf.fill(0xEE);
            sender_done.wait();
            assert!(
                matches!(res, Err(CoreError::Deadlock { .. })),
                "sender outcome: {res:?}"
            );
            Ok(None)
        } else {
            sender_done.wait();
            let mut buf = vec![0xBBu8; n * 8];
            let res = comm.recv(&mut buf, 0, &t, n, Some(0), Some(0));
            assert!(
                matches!(res, Err(CoreError::Cancelled { .. })),
                "receiver outcome: {res:?}"
            );
            Ok(Some(buf))
        }
    });
    let buf = results[1]
        .as_ref()
        .expect("rank 1")
        .as_ref()
        .expect("buffer");
    assert!(
        buf.iter().all(|&b| b == 0xBB),
        "the receiver read a revoked lease"
    );
}

/// A receiver that claims the lease and then fails (its buffer is too
/// short) still releases the sender, whose send succeeds as a staged
/// send does: on each of the three copy paths.
#[test]
fn failed_copy_still_releases_the_sender() {
    let n = 1 << 15;
    for (send, recv) in [
        (Shape::Contig, Shape::Vector),
        (Shape::Vector, Shape::Contig),
        (Shape::Vector, Shape::Indexed),
    ] {
        let send_t = instance(send, 3);
        let recv_t = instance(recv, 3);
        let src = vec![7u8; buf_len(&send_t, n)];
        let short = buf_len(&recv_t, n) - 8;
        let results = Universe::run_supervised(lending(), 2, |comm| {
            if comm.rank() == 0 {
                comm.send(&src, 0, &send_t, n, 1, 0)
            } else {
                let mut buf = vec![0u8; short];
                match comm.recv(&mut buf, 0, &recv_t, n, Some(0), Some(0)) {
                    Err(CoreError::Datatype(DatatypeError::OutOfBounds { .. })) => Ok(()),
                    other => panic!("{send:?} -> {recv:?}: receiver outcome {other:?}"),
                }
            }
        });
        assert!(
            results.iter().all(|r| r.is_ok()),
            "{send:?} -> {recv:?}: {results:?}"
        );
    }
}

/// A receiver that dies before it matches never hangs a lending sender:
/// the sender revokes and reports `PeerFailed` promptly. The receiver
/// dies only once the lease is in its mailbox.
#[test]
fn dead_receiver_fails_the_sender_promptly() {
    let p = lending().with_deadlock_timeout(10.0);
    let n = 1 << 17;
    let t = Datatype::f64();
    let start = Instant::now();
    let results = Universe::run_supervised(p, 2, move |comm| {
        if comm.rank() == 0 {
            let buf = vec![3u8; n * 8];
            comm.send(&buf, 0, &t, n, 1, 0)
        } else {
            while !comm.probe(Some(0), Some(0)) {
                std::thread::yield_now();
            }
            panic!("receiver dies before it receives");
        }
    });
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "took {:?}",
        start.elapsed()
    );
    assert!(
        matches!(results[0], Err(CoreError::PeerFailed { rank: 1 })),
        "sender outcome: {:?}",
        results[0]
    );
    assert!(matches!(
        results[1],
        Err(CoreError::RankPanicked { rank: 1, .. })
    ));
}
