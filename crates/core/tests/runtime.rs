//! Integration tests of the MPI-like runtime: correctness of data
//! movement, protocol semantics, and virtual-time invariants.

use nonctg_core::{CoreError, Universe};
use nonctg_datatype::{as_bytes, as_bytes_mut, ArrayOrder, Datatype, DatatypeError};
use nonctg_simnet::Platform;

/// A platform with jitter disabled, for exact-time assertions.
fn quiet() -> Platform {
    let mut p = Platform::skx_impi();
    p.jitter_sigma = 0.0;
    p
}

fn f64_seq(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64).collect()
}

#[test]
fn pingpong_roundtrip_bytes() {
    let (a, _b) = Universe::run_pair(quiet(), |comm| {
        if comm.rank() == 0 {
            let data: Vec<u8> = (0..255u8).collect();
            comm.send_bytes(&data, 1, 7).unwrap();
            let mut pong = [0u8; 0];
            comm.recv_bytes(&mut pong, Some(1), Some(8)).unwrap();
            comm.wtime()
        } else {
            let mut buf = vec![0u8; 255];
            let st = comm.recv_bytes(&mut buf, Some(0), Some(7)).unwrap();
            assert_eq!(st.bytes, 255);
            assert_eq!(buf, (0..255u8).collect::<Vec<_>>());
            comm.send_bytes(&[], 0, 8).unwrap();
            comm.wtime()
        }
    });
    assert!(a > 0.0);
}

#[test]
fn derived_vector_send_recv_contiguous() {
    // Paper's core pattern: rank 0 sends every other f64 with a vector
    // type; rank 1 receives into a contiguous buffer and verifies.
    let n = 1000usize;
    Universe::run_pair(quiet(), move |comm| {
        let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
        if comm.rank() == 0 {
            let src = f64_seq(2 * n);
            comm.send(as_bytes(&src), 0, &vec_t, 1, 1, 0).unwrap();
        } else {
            let mut buf = vec![0.0f64; n];
            let st = comm.recv_slice(&mut buf, Some(0), Some(0)).unwrap();
            assert_eq!(st.bytes, n * 8);
            for (i, &v) in buf.iter().enumerate() {
                assert_eq!(v, (2 * i) as f64, "element {i}");
            }
        }
    });
}

#[test]
fn subarray_send_matches_vector_send() {
    let n = 64usize;
    Universe::run_pair(quiet(), move |comm| {
        // N x 2 array, select column 0 == every other element.
        let sub_t = Datatype::subarray(&[n, 2], &[n, 1], &[0, 0], ArrayOrder::C, &Datatype::f64())
            .unwrap()
            .commit();
        if comm.rank() == 0 {
            let src = f64_seq(2 * n);
            comm.send(as_bytes(&src), 0, &sub_t, 1, 1, 3).unwrap();
        } else {
            let mut buf = vec![0.0f64; n];
            comm.recv_slice(&mut buf, Some(0), Some(3)).unwrap();
            for (i, &v) in buf.iter().enumerate() {
                assert_eq!(v, (2 * i) as f64);
            }
        }
    });
}

#[test]
fn derived_recv_scatters_into_layout() {
    let n = 32usize;
    Universe::run_pair(quiet(), move |comm| {
        let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
        if comm.rank() == 0 {
            let src = f64_seq(n);
            comm.send_slice(&src, 1, 0).unwrap();
        } else {
            let mut buf = vec![0.0f64; 2 * n];
            comm.recv(as_bytes_mut(&mut buf), 0, &vec_t, 1, Some(0), Some(0)).unwrap();
            for i in 0..n {
                assert_eq!(buf[2 * i], i as f64);
                assert_eq!(buf[2 * i + 1], 0.0);
            }
        }
    });
}

#[test]
fn large_messages_use_rendezvous_and_still_arrive() {
    // Past the eager limit (64 KiB on skx-impi).
    let n = 1 << 17; // 1 MiB of f64
    Universe::run_pair(quiet(), move |comm| {
        if comm.rank() == 0 {
            let src = f64_seq(n);
            comm.send_slice(&src, 1, 1).unwrap();
        } else {
            let mut buf = vec![0.0f64; n];
            comm.recv_slice(&mut buf, Some(0), Some(1)).unwrap();
            assert_eq!(buf[n - 1], (n - 1) as f64);
            assert_eq!(buf[12345], 12345.0);
        }
    });
}

#[test]
fn tag_matching_selects_correct_message() {
    Universe::run_pair(quiet(), |comm| {
        if comm.rank() == 0 {
            comm.send_slice(&[1.0f64], 1, 10).unwrap();
            comm.send_slice(&[2.0f64], 1, 20).unwrap();
        } else {
            let mut b = [0.0f64; 1];
            comm.recv_slice(&mut b, Some(0), Some(20)).unwrap();
            assert_eq!(b[0], 2.0);
            comm.recv_slice(&mut b, Some(0), Some(10)).unwrap();
            assert_eq!(b[0], 1.0);
        }
    });
}

#[test]
fn wildcard_source_and_tag() {
    Universe::run(quiet(), 3, |comm| {
        if comm.rank() == 2 {
            let mut seen = [false; 2];
            for _ in 0..2 {
                let mut b = [0.0f64; 1];
                let st = comm.recv_slice(&mut b, None, None).unwrap();
                assert_eq!(b[0], st.source as f64);
                seen[st.source] = true;
            }
            assert!(seen[0] && seen[1]);
        } else {
            let r = comm.rank() as f64;
            comm.send_slice(&[r], 2, comm.rank() as i32).unwrap();
        }
    });
}

#[test]
fn messages_nonovertaking_per_source_and_tag() {
    Universe::run_pair(quiet(), |comm| {
        if comm.rank() == 0 {
            for i in 0..10 {
                comm.send_slice(&[i as f64], 1, 5).unwrap();
            }
        } else {
            for i in 0..10 {
                let mut b = [0.0f64; 1];
                comm.recv_slice(&mut b, Some(0), Some(5)).unwrap();
                assert_eq!(b[0], i as f64, "FIFO violated");
            }
        }
    });
}

#[test]
fn truncate_detected() {
    let (_, err) = Universe::run_pair(quiet(), |comm| {
        if comm.rank() == 0 {
            comm.send_slice(&f64_seq(16), 1, 0).unwrap();
            None
        } else {
            let mut b = vec![0.0f64; 8];
            Some(comm.recv_slice(&mut b, Some(0), Some(0)).unwrap_err())
        }
    });
    assert!(matches!(err, Some(CoreError::Truncate { .. })));
}

#[test]
fn signature_mismatch_detected() {
    let (_, err) = Universe::run_pair(quiet(), |comm| {
        if comm.rank() == 0 {
            comm.send_slice(&[1.0f64, 2.0], 1, 0).unwrap();
            None
        } else {
            let mut b = vec![0i32; 4]; // same byte count, wrong primitives
            Some(comm.recv_slice(&mut b, Some(0), Some(0)).unwrap_err())
        }
    });
    assert!(matches!(err, Some(CoreError::SignatureMismatch)));
}

#[test]
fn packed_send_matches_typed_recv() {
    // MPI_PACKED output may be received as the original type.
    let n = 64;
    Universe::run_pair(quiet(), move |comm| {
        let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
        if comm.rank() == 0 {
            let src = f64_seq(2 * n);
            let size = comm.pack_size(&vec_t, 1).unwrap();
            let mut packed = vec![0u8; size];
            let mut pos = 0;
            comm.pack(as_bytes(&src), 0, &vec_t, 1, &mut packed, &mut pos).unwrap();
            assert_eq!(pos, size);
            comm.send_packed(&packed, 1, 0).unwrap();
        } else {
            let mut buf = vec![0.0f64; n];
            comm.recv_slice(&mut buf, Some(0), Some(0)).unwrap();
            assert_eq!(buf[5], 10.0);
        }
    });
}

/// `pack_elementwise` is exactly n separate `Comm::pack` calls: the same
/// bytes, the same `position` and the same virtual time (up to the order
/// of a float sum), on both sides of n = 4096, at a stride other than
/// two elements, and for a dense non-primitive element.
#[test]
fn pack_elementwise_equals_separate_packs() {
    let f64_t = Datatype::f64().commit();
    let pair = Datatype::contiguous(2, &Datatype::f64()).unwrap().commit();
    let cases = [(f64_t.clone(), 16, 100), (f64_t.clone(), 16, 5000), (f64_t, 24, 4095), (pair, 48, 4097)];
    for (elem, stride, n) in cases {
        let sz = elem.size() as usize;
        let src: Vec<u8> = (0..n * stride).map(|i| (i * 7 + 3) as u8).collect();
        let (batched, separate) = Universe::run_pair(quiet(), move |comm| {
            let mut out = vec![0u8; 8 + n * sz];
            let mut pos = 8;
            // Start warm, as every pack after the first is.
            comm.pack(&src, 0, &elem, 1, &mut vec![0u8; sz], &mut 0).unwrap();
            let t0 = comm.wtime();
            if comm.rank() == 0 {
                comm.pack_elementwise(&src, 0, stride, &elem, n, &mut out, &mut pos).unwrap();
            } else {
                for i in 0..n {
                    comm.pack(&src, i * stride, &elem, 1, &mut out, &mut pos).unwrap();
                }
            }
            (out, pos, comm.wtime() - t0)
        });
        assert_eq!(batched.0, separate.0, "bytes, n={n} stride={stride}");
        assert_eq!(batched.1, separate.1, "position, n={n} stride={stride}");
        let (a, b) = (batched.2, separate.2);
        assert!((a - b).abs() <= 1e-9 * b, "virtual time {a} vs {b}, n={n} stride={stride}");
    }
}

#[test]
fn unpack_restores_layout() {
    let n = 16;
    Universe::run_pair(quiet(), move |comm| {
        let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
        if comm.rank() == 0 {
            let src = f64_seq(2 * n);
            comm.send(as_bytes(&src), 0, &vec_t, 1, 1, 0).unwrap();
        } else {
            let mut raw = vec![0u8; n * 8];
            comm.recv_bytes(&mut raw, Some(0), Some(0)).unwrap();
            let mut out = vec![0.0f64; 2 * n];
            let mut pos = 0;
            comm.unpack(&raw, &mut pos, &vec_t, 1, as_bytes_mut(&mut out), 0).unwrap();
            assert_eq!(pos, n * 8);
            assert_eq!(out[6], 6.0);
            assert_eq!(out[7], 0.0);
        }
    });
}

#[test]
fn bsend_requires_attached_buffer() {
    let (err, _) = Universe::run_pair(quiet(), |comm| {
        if comm.rank() == 0 {
            let t = Datatype::f64();
            Some(comm.bsend(as_bytes(&[1.0f64]), 0, &t, 1, 1, 0).unwrap_err())
        } else {
            None
        }
    });
    assert!(matches!(err, Some(CoreError::BufferAttachState(_))));
}

#[test]
fn bsend_roundtrip_and_buffer_accounting() {
    let n = 128usize;
    Universe::run_pair(quiet(), move |comm| {
        let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
        if comm.rank() == 0 {
            let need = nonctg_core::Comm::bsend_size(&vec_t, 1).unwrap();
            comm.buffer_attach(need).unwrap();
            let src = f64_seq(2 * n);
            comm.bsend(as_bytes(&src), 0, &vec_t, 1, 1, 0).unwrap();
            // Immediately bsending again must fail: buffer still reserved
            // (rank 1 only receives after our tag-8 go-ahead, so the
            // reservation cannot have been released yet).
            let err = comm.bsend(as_bytes(&src), 0, &vec_t, 1, 1, 1).unwrap_err();
            assert!(matches!(err, CoreError::BsendBufferOverflow { .. }));
            comm.send_bytes(&[], 1, 8).unwrap();
            // Wait for the pong: by then the first message was matched and
            // its reservation released.
            let mut z = [0u8; 0];
            comm.recv_bytes(&mut z, Some(1), Some(9)).unwrap();
            comm.bsend(as_bytes(&src), 0, &vec_t, 1, 1, 1).unwrap();
            assert_eq!(comm.buffer_detach().unwrap(), need);
        } else {
            let mut z = [0u8; 0];
            comm.recv_bytes(&mut z, Some(0), Some(8)).unwrap();
            let mut buf = vec![0.0f64; n];
            comm.recv_slice(&mut buf, Some(0), Some(0)).unwrap();
            assert_eq!(buf[3], 6.0);
            comm.send_bytes(&[], 0, 9).unwrap();
            comm.recv_slice(&mut buf, Some(0), Some(1)).unwrap();
            assert_eq!(buf[4], 8.0);
        }
    });
}

#[test]
fn double_attach_rejected() {
    Universe::run(quiet(), 1, |comm| {
        comm.buffer_attach(1024).unwrap();
        assert!(matches!(
            comm.buffer_attach(1024),
            Err(CoreError::BufferAttachState(_))
        ));
        comm.buffer_detach().unwrap();
        assert!(comm.buffer_detach().is_err());
    });
}

#[test]
fn uncommitted_type_rejected_by_send() {
    Universe::run(quiet(), 1, |comm| {
        let t = Datatype::vector(4, 1, 2, &Datatype::f64()).unwrap(); // not committed
        let buf = f64_seq(8);
        let err = comm.send(as_bytes(&buf), 0, &t, 1, 0, 0).unwrap_err();
        assert!(matches!(err, CoreError::Datatype(_)));
    });
}

#[test]
fn invalid_rank_rejected() {
    Universe::run(quiet(), 2, |comm| {
        if comm.rank() == 0 {
            let err = comm.send_bytes(&[1], 5, 0).unwrap_err();
            assert!(matches!(err, CoreError::InvalidRank { rank: 5, size: 2 }));
        }
    });
}

// ---------------------------------------------------------------------
// virtual-time semantics
// ---------------------------------------------------------------------

#[test]
fn clocks_start_at_zero_and_advance() {
    let times = Universe::run(quiet(), 2, |comm| {
        let t0 = comm.wtime();
        comm.barrier().unwrap();
        (t0, comm.wtime())
    });
    for (t0, t1) in times {
        assert_eq!(t0, 0.0);
        assert!(t1 > 0.0);
    }
}

#[test]
fn recv_completes_no_earlier_than_send_availability() {
    let (t_send, t_recv) = Universe::run_pair(quiet(), |comm| {
        if comm.rank() == 0 {
            comm.send_slice(&f64_seq(512), 1, 0).unwrap();
            comm.wtime()
        } else {
            let mut b = vec![0.0f64; 512];
            comm.recv_slice(&mut b, Some(0), Some(0)).unwrap();
            comm.wtime()
        }
    });
    assert!(
        t_recv > t_send,
        "receive ({t_recv}) must finish after the send side was busy ({t_send})"
    );
}

#[test]
fn deterministic_virtual_times() {
    let run = || {
        Universe::run_pair(Platform::skx_impi(), |comm| {
            if comm.rank() == 0 {
                for _ in 0..5 {
                    comm.send_slice(&f64_seq(4096), 1, 0).unwrap();
                    let mut z = [0u8; 0];
                    comm.recv_bytes(&mut z, Some(1), Some(1)).unwrap();
                }
            } else {
                let mut b = vec![0.0f64; 4096];
                for _ in 0..5 {
                    comm.recv_slice(&mut b, Some(0), Some(0)).unwrap();
                    comm.send_bytes(&[], 0, 1).unwrap();
                }
            }
            comm.wtime()
        })
    };
    let (a0, a1) = run();
    let (b0, b1) = run();
    assert_eq!(a0, b0, "virtual time must be reproducible");
    assert_eq!(a1, b1);
}

#[test]
fn rendezvous_costs_more_per_byte_than_eager_at_the_limit() {
    // One-way time per byte just under vs just over the eager limit: the
    // paper's §4.5 blip.
    let p = quiet();
    let eager_limit = p.proto.eager_limit as usize;
    let time_for = |bytes: usize| {
        let p = quiet();
        let (_, t) = Universe::run_pair(p, move |comm| {
            if comm.rank() == 0 {
                comm.send_bytes(&vec![0u8; bytes], 1, 0).unwrap();
                0.0
            } else {
                let t0 = comm.wtime();
                let mut b = vec![0u8; bytes];
                comm.recv_bytes(&mut b, Some(0), Some(0)).unwrap();
                comm.wtime() - t0
            }
        });
        t
    };
    let under = time_for(eager_limit);
    let over = time_for(eager_limit + 1);
    let per_under = under / eager_limit as f64;
    let per_over = over / (eager_limit + 1) as f64;
    assert!(
        per_over > per_under * 1.05,
        "eager-limit blip missing: {per_under} vs {per_over}"
    );
}

#[test]
fn derived_send_slower_than_contiguous_send() {
    let n = 1 << 16; // 512 KiB payload
    let times = Universe::run_pair(quiet(), move |comm| {
        let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
        if comm.rank() == 0 {
            let contig = f64_seq(n);
            let strided = f64_seq(2 * n);
            let t0 = comm.wtime();
            comm.send_slice(&contig, 1, 0).unwrap();
            let t1 = comm.wtime();
            comm.send(as_bytes(&strided), 0, &vec_t, 1, 1, 1).unwrap();
            let t2 = comm.wtime();
            (t1 - t0, t2 - t1)
        } else {
            let mut b = vec![0.0f64; n];
            comm.recv_slice(&mut b, Some(0), Some(0)).unwrap();
            comm.recv_slice(&mut b, Some(0), Some(1)).unwrap();
            (0.0, 0.0)
        }
    });
    let (t_contig, t_derived) = times.0;
    assert!(
        t_derived > 1.5 * t_contig,
        "derived-type send ({t_derived}) should be well above contiguous ({t_contig})"
    );
}

#[test]
fn flush_cache_makes_next_gather_cold() {
    let n = 1u64 << 18; // 256 KiB — fits in cache
    Universe::run(quiet(), 1, move |comm| {
        let access = nonctg_simnet::Access::Strided { blocklen: 8, stride: 16 };
        // Warm it first.
        comm.charge_copy(n, &access);
        let t0 = comm.wtime();
        comm.charge_copy(n, &access);
        let warm_cost = comm.wtime() - t0;

        comm.flush_cache(50 << 20);
        let t1 = comm.wtime();
        comm.charge_copy(n, &access);
        let cold_cost = comm.wtime() - t1;
        assert!(
            cold_cost > warm_cost * 1.3,
            "flush must slow the next gather: warm {warm_cost} vs cold {cold_cost}"
        );
    });
}

// ---------------------------------------------------------------------
// one-sided
// ---------------------------------------------------------------------

#[test]
fn put_transfers_data_through_window() {
    let n = 256usize;
    Universe::run_pair(quiet(), move |comm| {
        let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
        let mut win = comm.win_create(n * 8).unwrap();
        win.fence(comm).unwrap();
        if comm.rank() == 0 {
            let src = f64_seq(2 * n);
            win.put(comm, as_bytes(&src), 0, &vec_t, 1, 1, 0).unwrap();
        }
        win.fence(comm).unwrap();
        if comm.rank() == 1 {
            let data = win.read_local(0..n * 8).unwrap();
            let v = f64::from_le_bytes(data[8..16].try_into().unwrap());
            assert_eq!(v, 2.0);
            let last = f64::from_le_bytes(data[n * 8 - 8..].try_into().unwrap());
            assert_eq!(last, (2 * (n - 1)) as f64);
        }
    });
}

#[test]
fn get_reads_remote_window() {
    let n = 64usize;
    Universe::run_pair(quiet(), move |comm| {
        let mut win = comm.win_create(n * 8).unwrap();
        if comm.rank() == 1 {
            let data = f64_seq(n);
            win.write_local(0, as_bytes(&data)).unwrap();
        }
        win.fence(comm).unwrap();
        let mut out = vec![0.0f64; n];
        if comm.rank() == 0 {
            let t = Datatype::f64();
            win.get(comm, as_bytes_mut(&mut out), 0, &t, n, 1, 0).unwrap();
        }
        win.fence(comm).unwrap();
        if comm.rank() == 0 {
            assert_eq!(out[17], 17.0);
        }
    });
}

#[test]
fn put_outside_epoch_rejected() {
    Universe::run_pair(quiet(), |comm| {
        let win = comm.win_create(64).unwrap();
        if comm.rank() == 0 {
            let t = Datatype::f64();
            let err = win.put(comm, as_bytes(&[1.0f64]), 0, &t, 1, 1, 0).unwrap_err();
            assert!(matches!(err, CoreError::Rma(_)));
        }
    });
}

#[test]
fn put_out_of_range_rejected() {
    Universe::run_pair(quiet(), |comm| {
        let mut win = comm.win_create(16).unwrap();
        win.fence(comm).unwrap();
        if comm.rank() == 0 {
            let t = Datatype::f64();
            let err = win
                .put(comm, as_bytes(&[1.0f64, 2.0]), 0, &t, 2, 1, 8)
                .unwrap_err();
            assert!(matches!(err, CoreError::RmaOutOfRange { .. }));
            // A short origin buffer is reported first, before the range;
            // a get checks the window range before its origin buffer.
            let err = win.put(comm, as_bytes(&[1.0f64]), 0, &t, 2, 1, 8).unwrap_err();
            assert!(matches!(err, CoreError::Datatype(DatatypeError::OutOfBounds { .. })));
            let mut short = [0u8; 8];
            let err = win.get(comm, &mut short, 0, &t, 2, 1, 8).unwrap_err();
            assert!(matches!(err, CoreError::RmaOutOfRange { .. }));
        }
        win.fence(comm).unwrap();
    });
}

#[test]
fn fence_charges_time_and_synchronizes() {
    let times = Universe::run_pair(quiet(), |comm| {
        let mut win = comm.win_create(64).unwrap();
        if comm.rank() == 0 {
            // Desynchronize the clocks.
            comm.flush_cache(10 << 20);
        }
        win.fence(comm).unwrap();
        comm.wtime()
    });
    // After a fence both clocks agree (same max + same fence cost).
    assert!((times.0 - times.1).abs() < 1e-12, "{} vs {}", times.0, times.1);
    assert!(times.0 > 0.0);
}

#[test]
fn small_onesided_dominated_by_fence() {
    // Paper §4.4(1): for small messages the fence overhead dominates.
    let p = quiet();
    let (t_onesided, _) = Universe::run_pair(p, |comm| {
        let mut win = comm.win_create(1024).unwrap();
        let t0 = comm.wtime();
        win.fence(comm).unwrap();
        if comm.rank() == 0 {
            let t = Datatype::f64();
            win.put(comm, as_bytes(&[1.0f64]), 0, &t, 1, 1, 0).unwrap();
        }
        win.fence(comm).unwrap();
        comm.wtime() - t0
    });
    let (t_twosided, _) = Universe::run_pair(quiet(), |comm| {
        if comm.rank() == 0 {
            let t0 = comm.wtime();
            comm.send_slice(&[1.0f64], 1, 0).unwrap();
            let mut z = [0u8; 0];
            comm.recv_bytes(&mut z, Some(1), Some(1)).unwrap();
            comm.wtime() - t0
        } else {
            let mut b = [0.0f64; 1];
            comm.recv_slice(&mut b, Some(0), Some(0)).unwrap();
            comm.send_bytes(&[], 0, 1).unwrap();
            0.0
        }
    });
    assert!(
        t_onesided > 2.0 * t_twosided,
        "small one-sided ({t_onesided}) should be dominated by fences vs two-sided ({t_twosided})"
    );
}

#[test]
fn multiple_windows_independent() {
    Universe::run_pair(quiet(), |comm| {
        let mut w1 = comm.win_create(8).unwrap();
        let mut w2 = comm.win_create(8).unwrap();
        w1.fence(comm).unwrap();
        w2.fence(comm).unwrap();
        if comm.rank() == 0 {
            let t = Datatype::f64();
            w1.put(comm, as_bytes(&[1.0f64]), 0, &t, 1, 1, 0).unwrap();
            w2.put(comm, as_bytes(&[2.0f64]), 0, &t, 1, 1, 0).unwrap();
        }
        w1.fence(comm).unwrap();
        w2.fence(comm).unwrap();
        if comm.rank() == 1 {
            let a = f64::from_le_bytes(w1.read_local(0..8).unwrap().try_into().unwrap());
            let b = f64::from_le_bytes(w2.read_local(0..8).unwrap().try_into().unwrap());
            assert_eq!((a, b), (1.0, 2.0));
        }
    });
}

#[test]
fn many_ranks_all_to_one() {
    let n = 8;
    Universe::run(quiet(), n, move |comm| {
        if comm.rank() == 0 {
            let mut sum = 0.0;
            for _ in 1..n {
                let mut b = [0.0f64; 1];
                comm.recv_slice(&mut b, None, Some(4)).unwrap();
                sum += b[0];
            }
            assert_eq!(sum, (1..n).map(|r| r as f64).sum::<f64>());
        } else {
            comm.send_slice(&[comm.rank() as f64], 0, 4).unwrap();
        }
    });
}

#[test]
fn barrier_aligns_all_ranks() {
    let times = Universe::run(quiet(), 4, |comm| {
        // Stagger the clocks by rank.
        for _ in 0..comm.rank() {
            comm.flush_cache(1 << 20);
        }
        comm.barrier().unwrap();
        comm.wtime()
    });
    for w in times.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-12);
    }
}

#[test]
fn ssend_synchronizes_with_receiver() {
    // A small ssend must not complete before the receiver matches: the
    // sender's completion time reflects the receiver's late arrival.
    let (t_eager, t_sync) = Universe::run_pair(quiet(), |comm| {
        if comm.rank() == 0 {
            comm.send_slice(&[1.0f64], 1, 0).unwrap(); // eager: returns fast
            let t_eager = comm.wtime();
            comm.ssend_slice(&[2.0f64], 1, 1).unwrap(); // waits for the recv
            (t_eager, comm.wtime())
        } else {
            // Idle a long while before receiving, then drain both.
            comm.flush_cache(200 << 20);
            let mut b = [0.0f64; 1];
            comm.recv_slice(&mut b, Some(0), Some(0)).unwrap();
            comm.recv_slice(&mut b, Some(0), Some(1)).unwrap();
            assert_eq!(b[0], 2.0);
            (0.0, 0.0)
        }
    })
    .0;
    assert!(
        t_sync > t_eager + 0.01,
        "ssend should have blocked until the late receiver matched: {t_eager} vs {t_sync}"
    );
}

#[test]
fn ssend_moves_derived_data() {
    let n = 256;
    Universe::run_pair(quiet(), move |comm| {
        let vec_t = Datatype::vector(n, 1, 2, &Datatype::f64()).unwrap().commit();
        if comm.rank() == 0 {
            let src = f64_seq(2 * n);
            comm.ssend(as_bytes(&src), 0, &vec_t, 1, 1, 0).unwrap();
        } else {
            let mut buf = vec![0.0f64; n];
            comm.recv_slice(&mut buf, Some(0), Some(0)).unwrap();
            assert_eq!(buf[10], 20.0);
        }
    });
}

#[test]
fn trace_captures_pingpong_structure() {
    let traces = Universe::run(quiet(), 2, |comm| {
        comm.enable_trace();
        if comm.rank() == 0 {
            comm.send_slice(&f64_seq(64), 1, 0).unwrap();
            let mut z = [0u8; 0];
            comm.recv_bytes(&mut z, Some(1), Some(1)).unwrap();
        } else {
            let mut b = vec![0.0f64; 64];
            comm.recv_slice(&mut b, Some(0), Some(0)).unwrap();
            comm.send_bytes(&[], 0, 1).unwrap();
        }
        comm.take_trace()
    });
    use nonctg_core::EventKind;
    let s0 = nonctg_core::trace::summarize(&traces[0]);
    assert_eq!(s0.count_of(EventKind::Send), 1);
    assert_eq!(s0.count_of(EventKind::Recv), 1);
    let send = traces[0].iter().find(|e| e.kind == EventKind::Send).unwrap();
    assert_eq!(send.peer, Some(1));
    assert_eq!(send.bytes, 512);
    assert!(send.t_end >= send.t_start);
    // Events are in issue order and timestamps never regress.
    for w in traces[0].windows(2) {
        assert!(w[1].t_start >= w[0].t_start);
    }
}
