//! The paper's §3.2 ping-pong for one sweep point, built from the same
//! public calls as `nonctg_schemes::try_run_scheme` but with a span
//! around each call into a layer.
//!
//! `try_run_scheme` runs its sender and receiver inside the library, so
//! its layers cannot be timed from outside. The traced `paper_sweep`
//! drives every point through this copy instead. It must stay faithful:
//! its virtual times are bit-identical to `try_run_scheme`'s (pinned by
//! `tests/pingpong_copy.rs`), so the traced breakdown describes the
//! program the untraced run measures.

use nonctg_core::{Comm, FaultStats, Result, Universe};
use nonctg_datatype::{as_bytes, Datatype};
use nonctg_schemes::{
    MeasureError, PingPongConfig, PingPongResult, Scheme, Workload, PING_TAG, PONG_TAG,
};
use nonctg_simnet::{Access, Platform};

use crate::trace::{self, span, span_faults, span_under};

/// Measure one scheme on one workload in a fresh two-rank universe, as
/// `try_run_scheme` does; `req` tags the spans of this point.
pub fn run_point(
    platform: &Platform,
    scheme: Scheme,
    workload: &Workload,
    cfg: &PingPongConfig,
    req: u64,
) -> std::result::Result<PingPongResult, MeasureError> {
    let w = *workload;
    let spawn = span("core.universe.spawn_join");
    let parent = spawn.id();
    let results = Universe::run_supervised(platform.clone(), 2, move |comm| {
        let rank = comm.rank();
        trace::set_thread(rank as u32 + 1);
        trace::set_request(scheme.key(), req);
        let _body = span_under("bench.rank", parent);
        let times = if rank == 0 {
            sender(comm, scheme, &w, cfg, 1)?
        } else {
            receiver(comm, scheme, &w, cfg, 0)?;
            Vec::new()
        };
        Ok((times, comm.fault_stats()))
    });
    drop(spawn);
    let mut failures = Vec::new();
    let mut times = Vec::new();
    let mut faults = FaultStats::default();
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Ok((t, f)) => {
                if rank == 0 {
                    times = t;
                }
                faults.absorb(f);
            }
            Err(e) => failures.push((rank, e)),
        }
    }
    if !failures.is_empty() {
        return Err(MeasureError { failures });
    }
    Ok(PingPongResult { scheme, msg_bytes: w.msg_bytes(), times, faults })
}

fn flush_both(comm: &mut Comm, cfg: &PingPongConfig) {
    if cfg.flush {
        comm.flush_cache(cfg.flush_bytes);
    }
}

fn access_of(w: &Workload) -> Access {
    Access::Strided {
        blocklen: (w.blocklen * Workload::ELEM) as u64,
        stride: (w.stride * Workload::ELEM) as u64,
    }
}

fn sender(
    comm: &mut Comm,
    scheme: Scheme,
    w: &Workload,
    cfg: &PingPongConfig,
    peer: usize,
) -> Result<Vec<f64>> {
    let n = w.elems();
    let mut times = Vec::with_capacity(cfg.reps);

    let (src, contig, mut sendbuf) = {
        let mut s = span_faults("schemes.workload.fill");
        let src = w.make_source();
        let contig = w.expected();
        let sendbuf = vec![0.0f64; if scheme == Scheme::Copying { n } else { 0 }];
        s.bytes((src.len() + contig.len() + sendbuf.len()) * Workload::ELEM);
        (src, contig, sendbuf)
    };
    let packbuf_len = match scheme {
        Scheme::PackingElement | Scheme::PackingVector => w.msg_bytes(),
        _ => 0,
    };
    let mut packbuf = comm.take_scratch(packbuf_len);
    packbuf.truncate(packbuf_len);
    let vec_t = {
        let _s = span_faults("datatype.build");
        w.vector_type()?
    };
    let sub_t = {
        let _s = span_faults("datatype.build");
        w.subarray_type()?
    };
    let f64_t = Datatype::f64();
    let access = access_of(w);

    if scheme == Scheme::Buffered {
        let need = Comm::bsend_size(&vec_t, 1)?;
        comm.buffer_attach(need)?;
    }
    let mut win = if scheme == Scheme::OneSided { Some(comm.win_create(0)?) } else { None };

    {
        let _s = span("datatype.plan.prepare");
        comm.pack_prepare(&vec_t, 1);
        comm.pack_prepare(&sub_t, 1);
    }
    {
        let _s = span("core.comm.barrier");
        comm.barrier()?;
    }

    for _ in 0..cfg.reps {
        let t0 = comm.wtime();
        match scheme {
            Scheme::Reference => {
                let mut s = span("core.p2p.send");
                s.bytes(w.msg_bytes());
                comm.send_slice(&contig, peer, PING_TAG)?;
            }
            Scheme::Copying => {
                {
                    let mut s = span("schemes.copy");
                    s.bytes(w.msg_bytes());
                    for i in 0..n {
                        sendbuf[i] = src[w.source_index(i)];
                    }
                    comm.charge_copy(w.msg_bytes() as u64, &access);
                }
                let mut s = span("core.p2p.send");
                s.bytes(w.msg_bytes());
                comm.send_slice(&sendbuf, peer, PING_TAG)?;
            }
            Scheme::Buffered => {
                let mut s = span("core.p2p.send");
                s.bytes(w.msg_bytes());
                comm.bsend(as_bytes(&src), 0, &vec_t, 1, peer, PING_TAG)?;
            }
            Scheme::VectorType => {
                let mut s = span("core.p2p.send");
                s.bytes(w.msg_bytes());
                comm.send(as_bytes(&src), 0, &vec_t, 1, peer, PING_TAG)?;
            }
            Scheme::Subarray => {
                let mut s = span("core.p2p.send");
                s.bytes(w.msg_bytes());
                comm.send(as_bytes(&src), 0, &sub_t, 1, peer, PING_TAG)?;
            }
            Scheme::OneSided => {
                let mut s = span("core.rma.put_fence");
                s.bytes(w.msg_bytes());
                let win = win.as_mut().expect("window created for one-sided");
                win.fence(comm)?;
                win.put(comm, as_bytes(&src), 0, &vec_t, 1, peer, 0)?;
                win.fence(comm)?;
            }
            Scheme::PackingElement => {
                let mut pos = 0usize;
                {
                    let mut s = span("datatype.pack");
                    s.bytes(w.msg_bytes());
                    if n <= (1 << 12) {
                        for i in 0..n {
                            comm.pack(
                                as_bytes(&src),
                                w.source_index(i) * Workload::ELEM,
                                &f64_t,
                                1,
                                &mut packbuf,
                                &mut pos,
                            )?;
                        }
                    } else {
                        comm.pack_elementwise(
                            as_bytes(&src),
                            0,
                            w.stride * Workload::ELEM,
                            &f64_t,
                            n,
                            &mut packbuf,
                            &mut pos,
                        )?;
                    }
                }
                let mut s = span("core.p2p.send");
                s.bytes(w.msg_bytes());
                comm.send_packed(&packbuf, peer, PING_TAG)?;
            }
            Scheme::PackingVector => {
                let mut pos = 0usize;
                {
                    let mut s = span("datatype.pack");
                    s.bytes(w.msg_bytes());
                    comm.pack(as_bytes(&src), 0, &vec_t, 1, &mut packbuf, &mut pos)?;
                }
                let mut s = span("core.p2p.send");
                s.bytes(w.msg_bytes());
                comm.send_packed(&packbuf, peer, PING_TAG)?;
            }
        }
        if scheme != Scheme::OneSided {
            let _s = span("core.p2p.pong_wait");
            let mut pong = [0u8; 0];
            comm.recv_bytes(&mut pong, Some(peer), Some(PONG_TAG))?;
        }
        times.push(comm.wtime() - t0);
        flush_both(comm, cfg);
    }

    if scheme == Scheme::Buffered {
        comm.buffer_detach()?;
    }
    comm.put_scratch(packbuf);
    let _s = span("core.comm.barrier");
    comm.barrier()?;
    Ok(times)
}

fn receiver(
    comm: &mut Comm,
    scheme: Scheme,
    w: &Workload,
    cfg: &PingPongConfig,
    peer: usize,
) -> Result<()> {
    let n = w.elems();
    let (mut recvbuf, expected) = {
        let mut s = span_faults("schemes.workload.fill");
        let recvbuf = vec![0.0f64; n];
        let expected = w.expected();
        s.bytes((recvbuf.len() + expected.len()) * Workload::ELEM);
        (recvbuf, expected)
    };

    let mut win =
        if scheme == Scheme::OneSided { Some(comm.win_create(w.msg_bytes())?) } else { None };

    {
        let _s = span("core.comm.barrier");
        comm.barrier()?;
    }

    for _ in 0..cfg.reps {
        match scheme {
            Scheme::OneSided => {
                let win = win.as_mut().expect("window created for one-sided");
                {
                    let _s = span("core.rma.put_fence");
                    win.fence(comm)?;
                    win.fence(comm)?;
                }
                if cfg.verify && n > 0 {
                    let _s = span("schemes.verify");
                    verify_window(win, &expected)?;
                }
            }
            _ => {
                let st = {
                    let mut s = span("core.p2p.recv");
                    s.bytes(w.msg_bytes());
                    comm.recv_slice(&mut recvbuf, Some(peer), Some(PING_TAG))?
                };
                assert_eq!(st.bytes, w.msg_bytes(), "payload size");
                if cfg.verify && n > 0 {
                    let _s = span("schemes.verify");
                    verify_samples(&recvbuf, &expected);
                }
                let _s = span("core.p2p.send");
                comm.send_bytes(&[], peer, PONG_TAG)?;
            }
        }
        flush_both(comm, cfg);
    }
    let _s = span("core.comm.barrier");
    comm.barrier()?;
    Ok(())
}

/// The library receiver's sampled check: every element for small
/// payloads, else the extremes plus 64 evenly spaced positions.
fn verify_samples(got: &[f64], expected: &[f64]) {
    assert_eq!(got.len(), expected.len());
    let n = got.len();
    if n <= 4096 {
        assert_eq!(got, expected, "payload corrupted");
        return;
    }
    for &i in &[0, 1, n / 3, n / 2, 2 * n / 3, n - 2, n - 1] {
        assert_eq!(got[i], expected[i], "payload corrupted at {i}");
    }
    let step = (n / 64).max(1);
    let mut i = 0;
    while i < n {
        assert_eq!(got[i], expected[i], "payload corrupted at {i}");
        i += step;
    }
}

fn verify_window(win: &nonctg_core::Window, expected: &[f64]) -> Result<()> {
    let n = expected.len();
    for i in [0, n / 2, n - 1] {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&win.read_local(i * 8..i * 8 + 8)?);
        let v = f64::from_le_bytes(raw);
        assert_eq!(v, expected[i], "window payload corrupted at {i}");
    }
    Ok(())
}
