//! Per-scheme phase attribution: where does each scheme's ping-pong
//! time go — packing, transfer, synchronization, or unpacking?
//!
//! The attribution folds the traced event stream of a measured run (see
//! `nonctg_core::trace`) into four phase buckets per repetition, then
//! averages repetitions over exactly the outlier-rejection mask the
//! reported mean uses ([`crate::stats::kept_mask`]), so for every
//! (scheme, size) point the phase sums reproduce the reported time
//! rather than drifting whenever a rep is dismissed.
//!
//! Events nest (a `stage` runs inside its `send`); attribution is
//! *innermost wins*: each elementary slice of the timed window is
//! charged to the most recently started event covering it. Window time
//! covered by no event at all is synchronization by definition — the
//! sender was waiting on its peer.

use std::fmt::Write as _;

use nonctg_core::{EventKind, TraceEvent};
use nonctg_simnet::{Platform, PlatformId};

use crate::pingpong::{try_run_scheme_observed, MeasureError, Observe, PingPongConfig};
use crate::scheme::Scheme;
use crate::stats;
use crate::sweep::SweepConfig;
use crate::workload::Workload;

/// The four cost phases of a non-contiguous send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Marshalling scattered data into wire form (`pack`, `copy`,
    /// `stage`).
    Pack,
    /// Moving bytes between ranks (`send`, `recv`, `put`, ...).
    Transfer,
    /// Waiting on the peer or the fabric (`barrier`, `fence`, `flush`,
    /// and any window time not covered by a traced event).
    Sync,
    /// Scattering received wire bytes back out (`unpack`, `unstage`).
    Unpack,
}

impl Phase {
    /// Every phase, in report-column order.
    pub const ALL: [Phase; 4] = [Phase::Pack, Phase::Transfer, Phase::Sync, Phase::Unpack];

    /// Stable lowercase key used in CSV/JSON columns.
    pub fn key(self) -> &'static str {
        match self {
            Phase::Pack => "pack",
            Phase::Transfer => "transfer",
            Phase::Sync => "sync",
            Phase::Unpack => "unpack",
        }
    }

    /// The phase a traced operation belongs to.
    pub fn of(kind: EventKind) -> Phase {
        match kind {
            EventKind::Pack | EventKind::Copy | EventKind::Stage => Phase::Pack,
            EventKind::Unpack | EventKind::Unstage => Phase::Unpack,
            EventKind::Barrier | EventKind::Fence | EventKind::Flush => Phase::Sync,
            EventKind::Send
            | EventKind::Bsend
            | EventKind::Isend
            | EventKind::Recv
            | EventKind::Put
            | EventKind::Get => Phase::Transfer,
            // Zero-width markers: demotion and selector decisions cost
            // no virtual time, so their phases never accumulate any.
            EventKind::Demote | EventKind::Select => Phase::Sync,
        }
    }
}

/// Seconds spent in each phase over one timed window (or averaged over
/// several).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Gather/marshalling time, seconds.
    pub pack: f64,
    /// Wire-movement time, seconds.
    pub transfer: f64,
    /// Synchronization/wait time, seconds.
    pub sync: f64,
    /// Scatter/demarshalling time, seconds.
    pub unpack: f64,
}

impl PhaseTimes {
    /// Seconds attributed to `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::Pack => self.pack,
            Phase::Transfer => self.transfer,
            Phase::Sync => self.sync,
            Phase::Unpack => self.unpack,
        }
    }

    /// Add `seconds` to `phase`.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        match phase {
            Phase::Pack => self.pack += seconds,
            Phase::Transfer => self.transfer += seconds,
            Phase::Sync => self.sync += seconds,
            Phase::Unpack => self.unpack += seconds,
        }
    }

    /// Sum of all four phases — equals the window length it was
    /// attributed over.
    pub fn total(&self) -> f64 {
        self.pack + self.transfer + self.sync + self.unpack
    }

    /// Scale every phase by `f` (used for averaging).
    fn scaled(&self, f: f64) -> PhaseTimes {
        PhaseTimes {
            pack: self.pack * f,
            transfer: self.transfer * f,
            sync: self.sync * f,
            unpack: self.unpack * f,
        }
    }

    fn accumulate(&mut self, other: &PhaseTimes) {
        self.pack += other.pack;
        self.transfer += other.transfer;
        self.sync += other.sync;
        self.unpack += other.unpack;
    }
}

/// Fold one rank's event stream into per-window phase breakdowns.
///
/// Each window `(t0, t1)` — one ping-pong repetition as timed by the
/// sender — is partitioned at every event boundary inside it; each
/// elementary slice is charged to the innermost covering event (latest
/// start wins, then earliest end, then earliest record order), or to
/// [`Phase::Sync`] when nothing covers it. Every returned breakdown
/// therefore sums to exactly its window's length.
pub fn attribute(events: &[TraceEvent], windows: &[(f64, f64)]) -> Vec<PhaseTimes> {
    windows
        .iter()
        .map(|&(w0, w1)| {
            let mut out = PhaseTimes::default();
            if w1 <= w0 || w0.is_nan() || w1.is_nan() {
                return out;
            }
            // Events overlapping this window, clamped to it.
            let clamped: Vec<(f64, f64, EventKind, f64)> = events
                .iter()
                .filter(|e| e.t_end > w0 && e.t_start < w1)
                .map(|e| (e.t_start.max(w0), e.t_end.min(w1), e.kind, e.t_start))
                .collect();
            let mut cuts: Vec<f64> = Vec::with_capacity(2 * clamped.len() + 2);
            cuts.push(w0);
            cuts.push(w1);
            for &(a, b, _, _) in &clamped {
                cuts.push(a);
                cuts.push(b);
            }
            cuts.sort_by(f64::total_cmp);
            cuts.dedup();
            for pair in cuts.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                // Innermost covering event: max true start, then min end,
                // then first recorded (inner events are recorded first —
                // they finish before their enclosing operation).
                let phase = clamped
                    .iter()
                    .enumerate()
                    .filter(|(_, &(ca, cb, _, _))| ca <= a && cb >= b)
                    .max_by(|(i, &(_, ea, _, sa)), (j, &(_, eb, _, sb))| {
                        sa.total_cmp(&sb)
                            .then(eb.total_cmp(&ea))
                            .then(j.cmp(i))
                    })
                    .map(|(_, &(_, _, kind, _))| Phase::of(kind))
                    .unwrap_or(Phase::Sync);
                out.add(phase, b - a);
            }
            out
        })
        .collect()
}

/// One (scheme, size) point of a phase sweep.
#[derive(Debug, Clone, Copy)]
pub struct PhasePoint {
    /// The scheme measured.
    pub scheme: Scheme,
    /// Message payload in bytes.
    pub msg_bytes: usize,
    /// Reported mean ping-pong time (outlier-rejected), seconds.
    pub time: f64,
    /// Phase breakdown averaged over the kept repetitions; sums to
    /// [`PhasePoint::time`] up to float rounding.
    pub phases: PhaseTimes,
    /// Repetitions measured.
    pub reps: usize,
}

/// A phase breakdown for every (scheme, size) point of a sweep.
#[derive(Debug, Clone)]
pub struct PhaseSweep {
    /// The platform this ran on.
    pub platform: PlatformId,
    /// Points in (size-major, legend-order) sequence.
    pub points: Vec<PhasePoint>,
}

impl PhaseSweep {
    /// Render as CSV with one row per (scheme, size) point.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("platform,scheme,msg_bytes,time_s,pack_s,transfer_s,sync_s,unpack_s,reps\n");
        for p in &self.points {
            let _ = writeln!(
                out,
                "{},{},{},{:.9e},{:.9e},{:.9e},{:.9e},{:.9e},{}",
                self.platform.name(),
                p.scheme.key(),
                p.msg_bytes,
                p.time,
                p.phases.pack,
                p.phases.transfer,
                p.phases.sync,
                p.phases.unpack,
                p.reps,
            );
        }
        out
    }

    /// Render as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"platform\": \"");
        out.push_str(self.platform.name());
        out.push_str("\",\n  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"scheme\": \"{}\", \"msg_bytes\": {}, \"time_s\": {:e}, \
                 \"pack_s\": {:e}, \"transfer_s\": {:e}, \"sync_s\": {:e}, \
                 \"unpack_s\": {:e}, \"reps\": {}}}{}",
                p.scheme.key(),
                p.msg_bytes,
                p.time,
                p.phases.pack,
                p.phases.transfer,
                p.phases.sync,
                p.phases.unpack,
                p.reps,
                if i + 1 < self.points.len() { "," } else { "" },
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Measure one scheme with tracing on and attribute its phases.
///
/// The breakdown averages the sender's per-repetition attributions over
/// exactly the repetitions the §3.2 outlier rejection keeps, so
/// `phases.total()` equals the reported `time` up to float rounding.
pub fn run_scheme_phases(
    platform: &Platform,
    scheme: Scheme,
    workload: &Workload,
    cfg: &PingPongConfig,
) -> std::result::Result<PhasePoint, MeasureError> {
    let run = try_run_scheme_observed(platform, scheme, workload, cfg, Observe::TRACE)?;
    let per_rep = attribute(&run.events[0], &run.windows);
    let mask = stats::kept_mask(&run.result.times);
    let kept = mask.iter().filter(|&&k| k).count().max(1);
    let mut avg = PhaseTimes::default();
    for (p, _) in per_rep.iter().zip(&mask).filter(|(_, &k)| k) {
        avg.accumulate(p);
    }
    let avg = avg.scaled(1.0 / kept as f64);
    Ok(PhasePoint {
        scheme,
        msg_bytes: run.result.msg_bytes,
        time: run.result.time(),
        phases: avg,
        reps: run.result.times.len(),
    })
}

/// Run a phase-attributed sweep, invoking `progress` per finished point.
///
/// Panics if a measurement fails (like [`crate::run_sweep`]); use fault-free
/// platforms for phase attribution.
pub fn run_phase_sweep_with(
    platform: &Platform,
    cfg: &SweepConfig,
    mut progress: impl FnMut(&PhasePoint),
) -> PhaseSweep {
    let mut points = Vec::new();
    for bytes in cfg.sizes() {
        let elems = bytes / Workload::ELEM;
        let w = Workload::every_other(elems);
        let pp = cfg.base.clone().adaptive(bytes);
        for &scheme in &cfg.schemes {
            let p = run_scheme_phases(platform, scheme, &w, &pp)
                .unwrap_or_else(|e| panic!("phase measurement failed: {e}"));
            progress(&p);
            points.push(p);
        }
    }
    PhaseSweep { platform: platform.id, points }
}

/// [`run_phase_sweep_with`] without a progress callback.
pub fn run_phase_sweep(platform: &Platform, cfg: &SweepConfig) -> PhaseSweep {
    run_phase_sweep_with(platform, cfg, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, a: f64, b: f64) -> TraceEvent {
        TraceEvent {
            kind,
            t_start: a,
            t_end: b,
            peer: Some(1),
            bytes: 8,
            tag: None,
        }
    }

    #[test]
    fn phase_mapping_is_total() {
        for kind in EventKind::ALL {
            let _ = Phase::of(kind); // every kind maps somewhere
        }
        assert_eq!(Phase::of(EventKind::Stage), Phase::Pack);
        assert_eq!(Phase::of(EventKind::Unstage), Phase::Unpack);
        assert_eq!(Phase::of(EventKind::Fence), Phase::Sync);
        assert_eq!(Phase::of(EventKind::Isend), Phase::Transfer);
    }

    #[test]
    fn nested_stage_charges_pack_not_transfer() {
        // A send spanning the whole window with a staging gather nested
        // inside it: the gather's slice is pack, the rest transfer.
        let events = vec![ev(EventKind::Send, 0.0, 10.0), ev(EventKind::Stage, 2.0, 5.0)];
        let out = attribute(&events, &[(0.0, 10.0)]);
        assert_eq!(out.len(), 1);
        assert!((out[0].pack - 3.0).abs() < 1e-12, "{:?}", out[0]);
        assert!((out[0].transfer - 7.0).abs() < 1e-12, "{:?}", out[0]);
        assert_eq!(out[0].sync, 0.0);
        assert!((out[0].total() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn uncovered_window_time_is_sync() {
        let events = vec![ev(EventKind::Send, 2.0, 8.0)];
        let out = attribute(&events, &[(0.0, 10.0)]);
        assert!((out[0].transfer - 6.0).abs() < 1e-12);
        assert!((out[0].sync - 4.0).abs() < 1e-12);
        assert!((out[0].total() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn events_outside_window_are_clamped_or_ignored() {
        let events = vec![
            ev(EventKind::Pack, -5.0, 1.0),   // clamped to [0, 1]
            ev(EventKind::Copy, 20.0, 30.0),  // outside entirely
            ev(EventKind::Send, 1.0, 12.0),   // clamped to [1, 10]
        ];
        let out = attribute(&events, &[(0.0, 10.0)]);
        assert!((out[0].pack - 1.0).abs() < 1e-12, "{:?}", out[0]);
        assert!((out[0].transfer - 9.0).abs() < 1e-12);
        assert!((out[0].total() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_or_degenerate_windows_yield_zeroes() {
        let events = vec![ev(EventKind::Send, 0.0, 1.0)];
        let out = attribute(&events, &[(5.0, 5.0), (7.0, 6.0)]);
        assert_eq!(out, vec![PhaseTimes::default(); 2]);
        assert!(attribute(&[], &[]).is_empty());
    }

    #[test]
    fn breakdown_sums_to_window_lengths() {
        // Three-deep nesting with partial overlap across boundaries.
        let events = vec![
            ev(EventKind::Barrier, 0.0, 1.0),
            ev(EventKind::Send, 1.0, 7.0),
            ev(EventKind::Stage, 1.5, 3.0),
            ev(EventKind::Recv, 7.0, 9.5),
            ev(EventKind::Unstage, 9.0, 9.5),
        ];
        let windows = [(0.0, 10.0), (0.5, 4.0)];
        for (w, p) in windows.iter().zip(attribute(&events, &windows)) {
            assert!((p.total() - (w.1 - w.0)).abs() < 1e-12, "{p:?} vs {w:?}");
        }
    }

    #[test]
    fn csv_and_json_render() {
        let sweep = PhaseSweep {
            platform: PlatformId::SkxImpi,
            points: vec![PhasePoint {
                scheme: Scheme::VectorType,
                msg_bytes: 1024,
                time: 1e-5,
                phases: PhaseTimes { pack: 2e-6, transfer: 6e-6, sync: 1e-6, unpack: 1e-6 },
                reps: 20,
            }],
        };
        let csv = sweep.to_csv();
        assert!(csv.starts_with("platform,scheme,msg_bytes,time_s,pack_s"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("skx-impi,vector,1024,"));
        let json = sweep.to_json();
        assert!(json.contains("\"scheme\": \"vector\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
