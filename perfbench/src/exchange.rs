//! One long-lived two-rank universe that sends a fixed set of legs back
//! and forth: the closed loop behind `steady_pingpong` and
//! `ddtbench_exchange`.
//!
//! Rank 0 times each rep from its send to the arrival of the zero-byte
//! pong, and nothing else. Before each cycle it tells rank 1, outside
//! the timed region, whether another cycle follows; both ranks derive
//! the cycle's leg order from the same seeded generator. After the
//! timed loop every leg is sent once more into a cleared buffer and
//! checked in full, so verification never lands in a timed rep.

use std::time::Instant;

use nonctg_core::{Comm, CoreError, FaultStats, Result, Universe};
use nonctg_schemes::PONG_TAG;
use nonctg_simnet::Platform;

use crate::trace::{self, span, span_under};
use crate::{Digest, Rng};

/// Tag of the one-byte go/stop message that precedes each cycle.
const CTRL_TAG: i32 = 3;

/// Cycles whose virtual times enter the digest, and the fewest cycles a
/// round runs (so every round of a seed digests the same reps).
pub const DIGEST_CYCLES: usize = 2;

/// One kind of message the exchange sends.
#[derive(Debug, Clone, Copy)]
pub struct Leg {
    /// Short name, used in span tags and metric names.
    pub name: &'static str,
    /// Payload bytes per rep.
    pub payload: usize,
    /// Back-to-back reps per visit in a cycle.
    pub burst: usize,
}

/// What an exchange sends and how each side handles one rep. Built once
/// per round; every method runs on a rank thread.
pub trait Exchange: Sync {
    /// Rank 0's buffers, types and plans.
    type Sender;
    /// Rank 1's buffers and references.
    type Receiver;
    /// The legs, in a fixed order the schedule permutes.
    fn legs(&self) -> &[Leg];
    /// Allocate, fill, build and prepare everything rank 0 needs.
    fn setup_sender(&self, comm: &mut Comm) -> Result<Self::Sender>;
    /// Allocate and fill everything rank 1 needs.
    fn setup_receiver(&self, comm: &mut Comm) -> Result<Self::Receiver>;
    /// Send one rep of `leg` to rank 1 (the timed part, before the pong).
    fn send(&self, s: &mut Self::Sender, comm: &mut Comm, leg: usize) -> Result<()>;
    /// Receive one rep of `leg` from rank 0; returns the payload bytes.
    fn recv(&self, r: &mut Self::Receiver, comm: &mut Comm, leg: usize) -> Result<usize>;
    /// Clear `leg`'s receive buffer before the verification rep.
    fn clear(&self, r: &mut Self::Receiver, leg: usize);
    /// Check the last payload received on `leg` in full.
    fn check(&self, r: &Self::Receiver, leg: usize) -> bool;
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// The legs, in the order `rtts` lists them.
    pub legs: Vec<Leg>,
    /// Wall seconds from the start of the round (building the exchange,
    /// spawning the universe) to rank 0's first timed rep.
    pub setup_s: f64,
    /// Wall seconds of each timed cycle (sum of its reps' round trips).
    pub cycles: Vec<f64>,
    /// Wall round-trip seconds of every timed rep, per leg.
    pub rtts: Vec<Vec<f64>>,
    /// Payload bytes of one cycle.
    pub cycle_payload: u64,
    /// Hash of the warm-up and first [`DIGEST_CYCLES`] cycles' virtual
    /// round-trip times. Later reps are left out: their jitter depends on
    /// how many cycles the wall-clock budget allowed.
    pub digest: u64,
    /// Timed and verification reps attempted.
    pub attempted: u64,
    /// Reps that delivered the wrong size or failed verification.
    pub failed: u64,
    /// Fault counters summed over both ranks.
    pub faults: FaultStats,
}

fn order(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut v);
    v
}

/// Rank 0's side of a round.
fn run_sender<E: Exchange>(
    ex: &E,
    comm: &mut Comm,
    seed: u64,
    budget_s: f64,
    started: Instant,
) -> Result<Round> {
    let legs = ex.legs();
    let mut st = ex.setup_sender(comm)?;
    {
        let _s = span("core.comm.barrier");
        comm.barrier()?;
    }
    let mut digest = Digest::new();
    let mut rep = 0u64;
    let mut ping = |st: &mut E::Sender, comm: &mut Comm, leg: usize| -> Result<(f64, f64)> {
        trace::set_request(legs[leg].name, rep);
        rep += 1;
        let v0 = comm.wtime();
        let t0 = Instant::now();
        ex.send(st, comm, leg)?;
        {
            let _s = span("core.p2p.pong_wait");
            comm.recv_bytes(&mut [], Some(1), Some(PONG_TAG))?;
        }
        Ok((t0.elapsed().as_secs_f64(), comm.wtime() - v0))
    };
    // Warm-up: one visit of every leg, untimed.
    for (leg, l) in legs.iter().enumerate() {
        for _ in 0..l.burst {
            digest.f64(ping(&mut st, comm, leg)?.1);
        }
    }
    let mut out = Round {
        setup_s: started.elapsed().as_secs_f64(),
        legs: legs.to_vec(),
        rtts: vec![Vec::new(); legs.len()],
        cycle_payload: legs.iter().map(|l| (l.payload * l.burst) as u64).sum(),
        ..Round::default()
    };
    let mut rng = Rng::new(seed);
    let mut timed = 0.0;
    loop {
        let go = out.cycles.len() < DIGEST_CYCLES || timed < budget_s;
        {
            let _s = span("core.p2p.ctrl");
            comm.send_bytes(&[go as u8], 1, CTRL_TAG)?;
        }
        if !go {
            break;
        }
        let mut cycle = 0.0;
        for leg in order(&mut rng, legs.len()) {
            for _ in 0..legs[leg].burst {
                let (wall, virt) = ping(&mut st, comm, leg)?;
                out.rtts[leg].push(wall);
                cycle += wall;
                if out.cycles.len() < DIGEST_CYCLES {
                    digest.f64(virt);
                }
                out.attempted += 1;
            }
        }
        out.cycles.push(cycle);
        timed += cycle;
    }
    // Verification reps: rank 1 clears, receives and checks each leg.
    for (leg, l) in legs.iter().enumerate() {
        trace::set_request(l.name, rep);
        ex.send(&mut st, comm, leg)?;
        let mut verdict = [0u8; 1];
        {
            let _s = span("core.p2p.pong_wait");
            comm.recv_bytes(&mut verdict, Some(1), Some(PONG_TAG))?;
        }
        out.attempted += 1;
        out.failed += u64::from(verdict[0] != 1);
    }
    {
        let _s = span("core.comm.barrier");
        comm.barrier()?;
    }
    out.digest = digest.finish();
    Ok(out)
}

/// Rank 1's side of a round; returns the reps that failed.
fn run_receiver<E: Exchange>(ex: &E, comm: &mut Comm, seed: u64) -> Result<u64> {
    let legs = ex.legs();
    let mut st = ex.setup_receiver(comm)?;
    {
        let _s = span("core.comm.barrier");
        comm.barrier()?;
    }
    let mut failed = 0u64;
    let mut rep = 0u64;
    let mut pong = |st: &mut E::Receiver, comm: &mut Comm, leg: usize| -> Result<()> {
        trace::set_request(legs[leg].name, rep);
        rep += 1;
        let got = ex.recv(st, comm, leg)?;
        failed += u64::from(got != legs[leg].payload);
        let _s = span("core.p2p.send");
        comm.send_bytes(&[], 0, PONG_TAG)
    };
    for (leg, l) in legs.iter().enumerate() {
        for _ in 0..l.burst {
            pong(&mut st, comm, leg)?;
        }
    }
    let mut rng = Rng::new(seed);
    loop {
        let mut go = [0u8; 1];
        {
            let _s = span("core.p2p.ctrl");
            comm.recv_bytes(&mut go, Some(0), Some(CTRL_TAG))?;
        }
        if go[0] == 0 {
            break;
        }
        for leg in order(&mut rng, legs.len()) {
            for _ in 0..legs[leg].burst {
                pong(&mut st, comm, leg)?;
            }
        }
    }
    for (leg, l) in legs.iter().enumerate() {
        trace::set_request(l.name, rep);
        ex.clear(&mut st, leg);
        let got = ex.recv(&mut st, comm, leg)?;
        let ok = got == l.payload && {
            let _s = span("schemes.verify");
            ex.check(&st, leg)
        };
        failed += u64::from(!ok);
        comm.send_bytes(&[ok as u8], 0, PONG_TAG)?;
    }
    {
        let _s = span("core.comm.barrier");
        comm.barrier()?;
    }
    Ok(failed)
}

/// Build the exchange with `make`, spawn a universe, run one round with
/// about `budget_s` wall seconds of timed cycles, and join it.
pub fn run_round<E: Exchange>(
    platform: &Platform,
    make: impl FnOnce() -> E,
    seed: u64,
    budget_s: f64,
) -> std::result::Result<Round, CoreError> {
    let started = Instant::now();
    let ex = &make();
    let spawn = span("core.universe.spawn_join");
    let parent = spawn.id();
    let mut results = Universe::run_supervised(platform.clone(), 2, |comm| {
        let rank = comm.rank();
        trace::set_thread(rank as u32 + 1);
        trace::set_request("", 0);
        let _body = span_under("bench.rank", parent);
        let round = if rank == 0 {
            run_sender(ex, comm, seed, budget_s, started)?
        } else {
            Round { failed: run_receiver(ex, comm, seed)?, ..Round::default() }
        };
        Ok((round, comm.fault_stats()))
    });
    drop(spawn);
    let r1 = results.pop().expect("rank 1 result");
    let r0 = results.pop().expect("rank 0 result");
    // Rank 0's error first: rank 1's is usually the echo `PeerFailed`.
    let ((mut round, f0), (r1, f1)) = (r0?, r1?);
    round.failed += r1.failed;
    round.faults = f0;
    round.faults.absorb(f1);
    Ok(round)
}
