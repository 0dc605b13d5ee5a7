//! Nonblocking point-to-point: `isend`, `irecv`, `sendrecv`, and request
//! completion.
//!
//! Overlap is modeled faithfully in virtual time: an `isend` charges only
//! the local staging work and returns; an `irecv` records its *posting*
//! time; the transfer's completion time is computed from those stamps, so
//! computation performed between posting and `wait` genuinely hides
//! communication (the clock only syncs forward at `wait`).

use std::time::Instant;

use crossbeam::channel::{Receiver, RecvTimeoutError};
use nonctg_datatype::{self as dt, Datatype, Scalar};

use crate::comm::Comm;
use crate::error::{CoreError, Result};
use crate::fabric::{poll_slice, spin_round, SPIN_ROUNDS};
use crate::p2p::RecvStatus;

/// Handle on an in-flight nonblocking send.
#[must_use = "a send request must be waited on"]
pub struct SendRequest {
    state: SendState,
}

pub(crate) enum SendState {
    /// Locally complete at the given virtual time (eager/buffered path).
    Done(f64),
    /// Rendezvous in flight; the receiver reports the completion time.
    Pending(Receiver<f64>),
}

impl SendRequest {
    pub(crate) fn new(state: SendState) -> SendRequest {
        SendRequest { state }
    }

    /// Block until the send is complete (`MPI_Wait`); the clock advances
    /// to the completion time if it has not already passed it.
    ///
    /// Fails with [`CoreError::PeerFailed`] if the fabric is poisoned
    /// while the rendezvous is pending, or [`CoreError::Deadlock`] after
    /// the supervision timeout.
    pub fn wait(self, comm: &mut Comm) -> Result<()> {
        match self.state {
            SendState::Done(t) => {
                comm.clock.sync_to(t);
                Ok(())
            }
            SendState::Pending(rx) => {
                let done = await_reply(comm, &rx)?;
                comm.clock.sync_to(done);
                Ok(())
            }
        }
    }

    /// Like [`Self::wait`], but additionally bounded by `timeout_s`
    /// seconds of wall-clock time. Returns [`CoreError::WaitTimeout`]
    /// (and counts it in [`crate::FaultStats::timeouts`]) if neither
    /// completion, poison, nor the supervision watchdog fires first —
    /// so every blocking wait in a chaos run is bounded even when the
    /// fabric-wide timeout is long.
    pub fn wait_timeout(self, comm: &mut Comm, timeout_s: f64) -> Result<()> {
        match self.state {
            SendState::Done(t) => {
                comm.clock.sync_to(t);
                Ok(())
            }
            SendState::Pending(rx) => {
                let sup = std::sync::Arc::clone(&comm.fabric().supervision);
                let me = comm.world_rank();
                let caller = std::time::Duration::from_secs_f64(timeout_s.max(0.0));
                let caller_is_shorter = caller <= sup.timeout();
                let deadline = Instant::now() + caller.min(sup.timeout());
                sup.set_blocked(me, Some("rendezvous completion (bounded)"));
                let mut spins = SPIN_ROUNDS;
                let res = loop {
                    let now = Instant::now();
                    if let Some(rank) = sup.failed_rank() {
                        if let Ok(done) = rx.try_recv() {
                            break Ok(done);
                        }
                        break Err(CoreError::PeerFailed { rank });
                    }
                    if now >= deadline {
                        break if caller_is_shorter {
                            sup.with_faults(me, |f| f.timeouts += 1);
                            Err(CoreError::WaitTimeout {
                                waiting_for: "send completion",
                                timeout_ms: (timeout_s.max(0.0) * 1e3) as u64,
                            })
                        } else {
                            Err(CoreError::deadlock("rendezvous completion"))
                        };
                    }
                    if spins > 0 {
                        spins -= 1;
                        if let Ok(done) = rx.try_recv() {
                            break Ok(done);
                        }
                        spin_round();
                        continue;
                    }
                    let slice = (deadline - now).min(poll_slice());
                    match rx.recv_timeout(slice) {
                        Ok(done) => break Ok(done),
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => {
                            break match sup.failed_rank() {
                                Some(rank) => Err(CoreError::PeerFailed { rank }),
                                None => Err(CoreError::deadlock("rendezvous completion")),
                            };
                        }
                    }
                };
                sup.set_blocked(me, None);
                let done = res.map_err(|e| comm.fabric().enrich(e))?;
                comm.clock.sync_to(done);
                Ok(())
            }
        }
    }

    /// Cancel the request (`MPI_Cancel` + free). A locally-complete send
    /// cannot be cancelled — its completion time is simply applied. A
    /// pending rendezvous is abandoned: the receiver's reply into the
    /// dropped back-channel is simply lost (never a hang), and the
    /// cancellation is counted in
    /// [`crate::FaultStats::cancels`]. Returns [`CoreError::Cancelled`]
    /// when the request was actually torn down.
    pub fn cancel(self, comm: &mut Comm) -> Result<()> {
        match self.state {
            SendState::Done(t) => {
                comm.clock.sync_to(t);
                Ok(())
            }
            SendState::Pending(rx) => {
                let me = comm.world_rank();
                // A completion that already arrived wins over the cancel,
                // exactly as MPI_Cancel may fail to cancel a matched send.
                if let Ok(done) = rx.try_recv() {
                    comm.clock.sync_to(done);
                    return Ok(());
                }
                drop(rx);
                comm.fabric().supervision.with_faults(me, |f| f.cancels += 1);
                Err(CoreError::Cancelled { what: "send request" })
            }
        }
    }

    /// Nonblocking completion check (`MPI_Test`). On `true` the request is
    /// finished and the clock has advanced; the request is consumed either
    /// way, so call [`Self::wait`] instead when you must have completion.
    pub fn test(self, comm: &mut Comm) -> std::result::Result<(), SendRequest> {
        match self.state {
            SendState::Done(t) => {
                comm.clock.sync_to(t);
                Ok(())
            }
            SendState::Pending(rx) => match rx.try_recv() {
                Ok(done) => {
                    comm.clock.sync_to(done);
                    Ok(())
                }
                Err(_) => Err(SendRequest { state: SendState::Pending(rx) }),
            },
        }
    }
}

/// Block until the rendezvous reply on `rx` arrives and return the
/// completion time it carries. Fails as [`SendRequest::wait`] does.
pub(crate) fn await_reply(comm: &Comm, rx: &Receiver<f64>) -> Result<f64> {
    let sup = std::sync::Arc::clone(&comm.fabric().supervision);
    let me = comm.world_rank();
    let deadline = Instant::now() + sup.timeout();
    sup.set_blocked(me, Some("rendezvous completion"));
    let mut spins = SPIN_ROUNDS;
    let res = loop {
        let now = Instant::now();
        if let Some(rank) = sup.failed_rank() {
            // A queued completion still wins over poison.
            if let Ok(done) = rx.try_recv() {
                break Ok(done);
            }
            break Err(CoreError::PeerFailed { rank });
        }
        if now >= deadline {
            break Err(CoreError::deadlock("rendezvous completion"));
        }
        // Spin briefly before parking: rendezvous replies usually land
        // within microseconds of the wait.
        if spins > 0 {
            spins -= 1;
            if let Ok(done) = rx.try_recv() {
                break Ok(done);
            }
            spin_round();
            continue;
        }
        let slice = (deadline - now).min(poll_slice());
        match rx.recv_timeout(slice) {
            Ok(done) => break Ok(done),
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                // The receiver dropped the envelope without replying —
                // its rank failed mid-receive.
                break match sup.failed_rank() {
                    Some(rank) => Err(CoreError::PeerFailed { rank }),
                    None => Err(CoreError::deadlock("rendezvous completion")),
                };
            }
        }
    };
    sup.set_blocked(me, None);
    res.map_err(|e| comm.fabric().enrich(e))
}

/// Handle on a posted nonblocking receive. Holds the destination buffer
/// borrow until completion, which is what makes the API data-race free.
#[must_use = "a receive request must be waited on"]
pub struct RecvRequest<'buf> {
    buf: &'buf mut [u8],
    origin: usize,
    dtype: Datatype,
    count: usize,
    src: Option<usize>,
    tag: Option<i32>,
    t_post: f64,
}

impl RecvRequest<'_> {
    /// Block until the message arrives and is delivered (`MPI_Wait`).
    pub fn wait(self, comm: &mut Comm) -> Result<RecvStatus> {
        comm.recv_with_post_time(
            self.buf,
            self.origin,
            &self.dtype,
            self.count,
            self.src,
            self.tag,
            self.t_post,
        )
    }

    /// Complete only if a matching message has already arrived
    /// (`MPI_Test`).
    pub fn test(self, comm: &mut Comm) -> std::result::Result<RecvStatus, Self> {
        if comm.probe(self.src, self.tag) {
            // A matching envelope is queued: wait cannot block for long.
            match comm.recv_with_post_time(
                self.buf,
                self.origin,
                &self.dtype,
                self.count,
                self.src,
                self.tag,
                self.t_post,
            ) {
                Ok(st) => Ok(st),
                Err(_) => panic!("probed message vanished"),
            }
        } else {
            Err(self)
        }
    }
}

impl Comm {
    /// Nonblocking standard send (`MPI_Isend`). The gather/staging work is
    /// charged immediately (it runs on this core); the wire proceeds in
    /// the background and [`SendRequest::wait`] syncs to its completion.
    pub fn isend(
        &mut self,
        buf: &[u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        dst: usize,
        tag: i32,
    ) -> Result<SendRequest> {
        let t0 = self.wtime();
        let bytes = dt::pack_size(dtype, count)?;
        let req =
            // Not blocking: an isend returns before the transfer completes,
            // so it stages rather than lends (sendrecv posts the receive
            // only after the isend returns).
            self.send_impl(buf, origin, dtype, count, dst, tag, crate::route::SendMode::Standard, false)?;
        self.trace(crate::trace::EventKind::Isend, t0, Some(dst), bytes, Some(tag));
        Ok(req)
    }

    /// Nonblocking send of a contiguous scalar slice.
    pub fn isend_slice<T: Scalar>(
        &mut self,
        data: &[T],
        dst: usize,
        tag: i32,
    ) -> Result<SendRequest> {
        let t = Datatype::of::<T>();
        self.isend(dt::as_bytes(data), 0, &t, data.len(), dst, tag)
    }

    /// Post a nonblocking receive (`MPI_Irecv`).
    pub fn irecv<'buf>(
        &mut self,
        buf: &'buf mut [u8],
        origin: usize,
        dtype: &Datatype,
        count: usize,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Result<RecvRequest<'buf>> {
        dtype.require_committed()?;
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        Ok(RecvRequest {
            buf,
            origin,
            dtype: dtype.clone(),
            count,
            src,
            tag,
            t_post: self.wtime(),
        })
    }

    /// Post a nonblocking receive into a scalar slice.
    pub fn irecv_slice<'buf, T: Scalar>(
        &mut self,
        buf: &'buf mut [T],
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Result<RecvRequest<'buf>> {
        let t = Datatype::of::<T>();
        let n = buf.len();
        self.irecv(dt::as_bytes_mut(buf), 0, &t, n, src, tag)
    }

    /// Combined send+receive that cannot deadlock (`MPI_Sendrecv`): the
    /// send is initiated nonblockingly, the receive progresses, then the
    /// send completes.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &mut self,
        sendbuf: &[u8],
        send_origin: usize,
        send_type: &Datatype,
        send_count: usize,
        dst: usize,
        send_tag: i32,
        recvbuf: &mut [u8],
        recv_origin: usize,
        recv_type: &Datatype,
        recv_count: usize,
        src: Option<usize>,
        recv_tag: Option<i32>,
    ) -> Result<RecvStatus> {
        let req = self.isend(sendbuf, send_origin, send_type, send_count, dst, send_tag)?;
        let status = self.recv(recvbuf, recv_origin, recv_type, recv_count, src, recv_tag)?;
        req.wait(self)?;
        Ok(status)
    }

    /// Exchange equal-shaped scalar slices with a partner (`MPI_Sendrecv`
    /// convenience).
    pub fn sendrecv_slices<T: Scalar>(
        &mut self,
        send: &[T],
        recv: &mut [T],
        partner: usize,
        tag: i32,
    ) -> Result<RecvStatus> {
        let t = Datatype::of::<T>();
        let (ns, nr) = (send.len(), recv.len());
        self.sendrecv(
            dt::as_bytes(send),
            0,
            &t,
            ns,
            partner,
            tag,
            dt::as_bytes_mut(recv),
            0,
            &t,
            nr,
            Some(partner),
            Some(tag),
        )
    }

    /// Wait on a set of send requests (`MPI_Waitall` for sends).
    pub fn waitall(&mut self, requests: Vec<SendRequest>) -> Result<()> {
        for r in requests {
            r.wait(self)?;
        }
        Ok(())
    }
}
