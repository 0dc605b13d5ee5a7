//! Per-rank event tracing.
//!
//! When enabled on a [`crate::Comm`], every communication and memory operation
//! records a [`TraceEvent`] with its virtual start/end times — enough to
//! reconstruct a timeline of a run, attribute time to protocol phases,
//! and debug cost-model questions ("where did those 40 µs go?").
//!
//! Tracing is off by default and costs one branch per operation when off.
//! Recording is bounded: events land in a ring buffer whose capacity (and
//! an optional keep-1-in-N sampling stride) come from a [`TraceConfig`],
//! so a multi-gigabyte sweep cannot exhaust memory by leaving tracing on.

use std::fmt;

/// What kind of operation an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Blocking standard send (full duration including rendezvous wait).
    Send,
    /// Buffered send (local completion).
    Bsend,
    /// Nonblocking send initiation (local staging only).
    Isend,
    /// Receive (from posting to delivery).
    Recv,
    /// One-sided put (origin-side work).
    Put,
    /// One-sided get (origin-side work).
    Get,
    /// Window fence.
    Fence,
    /// Barrier.
    Barrier,
    /// `pack` / `pack_elementwise` call.
    Pack,
    /// `unpack` call.
    Unpack,
    /// User-space copy charged via `charge_copy`/`charge_scatter`.
    Copy,
    /// Cache flush between measurements.
    Flush,
    /// Internal-buffer staging gather inside a derived-type or buffered
    /// send (the no-overlap memory phase of the paper's §4.1); nests
    /// inside the enclosing `Send`/`Bsend`/`Put` event.
    Stage,
    /// Receive-side scatter of a non-contiguous delivery into the user
    /// datatype; nests inside the enclosing `Recv` event.
    Unstage,
    /// A graceful degradation: the runtime swapped a faster datapath for
    /// a slower-but-correct one (pooled→owned staging,
    /// compiled→interpreted pack, parallel→serial pack, iovec→pack), or
    /// forecast too many chunk faults. Zero-width in virtual time — the
    /// enclosing `Send` carries the cost — so it never perturbs phase
    /// attribution.
    Demote,
    /// The adaptive datapath selector chose an engine (pack / iovec /
    /// element) for one non-contiguous send. Zero-width in virtual time;
    /// `bytes` carries the message size the decision was made for.
    Select,
}

impl EventKind {
    /// Every kind, in discriminant order (`ALL[k as usize] == k`).
    pub const ALL: [EventKind; 16] = [
        EventKind::Send,
        EventKind::Bsend,
        EventKind::Isend,
        EventKind::Recv,
        EventKind::Put,
        EventKind::Get,
        EventKind::Fence,
        EventKind::Barrier,
        EventKind::Pack,
        EventKind::Unpack,
        EventKind::Copy,
        EventKind::Flush,
        EventKind::Stage,
        EventKind::Unstage,
        EventKind::Demote,
        EventKind::Select,
    ];

    /// Number of kinds — the length of per-kind accumulator arrays.
    pub const COUNT: usize = Self::ALL.len();

    /// Short fixed-width label for timeline rendering.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Send => "send",
            EventKind::Bsend => "bsend",
            EventKind::Isend => "isend",
            EventKind::Recv => "recv",
            EventKind::Put => "put",
            EventKind::Get => "get",
            EventKind::Fence => "fence",
            EventKind::Barrier => "barrier",
            EventKind::Pack => "pack",
            EventKind::Unpack => "unpack",
            EventKind::Copy => "copy",
            EventKind::Flush => "flush",
            EventKind::Stage => "stage",
            EventKind::Unstage => "unstage",
            EventKind::Demote => "demote",
            EventKind::Select => "select",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One traced operation on one rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Operation kind.
    pub kind: EventKind,
    /// Virtual time the operation began.
    pub t_start: f64,
    /// Virtual time the operation completed on this rank.
    pub t_end: f64,
    /// Peer rank, when the operation has one.
    pub peer: Option<usize>,
    /// Payload bytes moved (0 for pure synchronization).
    pub bytes: usize,
    /// Message tag, when applicable.
    pub tag: Option<i32>,
}

impl TraceEvent {
    /// Duration in virtual seconds.
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// Bounds on what a [`Tracer`] retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events retained per rank; once full, the oldest event is
    /// overwritten (ring buffer). Clamped to at least 1.
    pub capacity: usize,
    /// Keep one event in `sample` (1 = keep everything). Sampling is by
    /// record order, deterministic, and applied before the ring.
    pub sample: u64,
}

impl TraceConfig {
    /// Default ring capacity (events), ~48 MB of `TraceEvent`s.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Read `NONCTG_TRACE_CAP` and `NONCTG_TRACE_SAMPLE` from the
    /// environment, falling back to the defaults on absence or parse
    /// failure.
    pub fn from_env() -> TraceConfig {
        fn env_u64(name: &str, default: u64) -> u64 {
            std::env::var(name)
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&v| v > 0)
                .unwrap_or(default)
        }
        TraceConfig {
            capacity: env_u64("NONCTG_TRACE_CAP", Self::DEFAULT_CAPACITY as u64) as usize,
            sample: env_u64("NONCTG_TRACE_SAMPLE", 1),
        }
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { capacity: Self::DEFAULT_CAPACITY, sample: 1 }
    }
}

/// Recording counters of a [`Tracer`] (all zero when tracing is off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events offered to the tracer while enabled.
    pub seen: u64,
    /// Events discarded by the sampling stride.
    pub sampled_out: u64,
    /// Events overwritten after the ring filled.
    pub dropped: u64,
}

/// The (optional) per-rank event recorder.
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    buf: Option<TraceBuf>,
}

#[derive(Debug)]
struct TraceBuf {
    events: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    cfg: TraceConfig,
    stats: TraceStats,
}

impl Tracer {
    #[inline]
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    pub fn enable(&mut self) {
        self.enable_with(TraceConfig::from_env());
    }

    pub fn enable_with(&mut self, mut cfg: TraceConfig) {
        if self.buf.is_none() {
            cfg.capacity = cfg.capacity.max(1);
            cfg.sample = cfg.sample.max(1);
            self.buf = Some(TraceBuf {
                events: Vec::new(),
                head: 0,
                cfg,
                stats: TraceStats::default(),
            });
        }
    }

    /// Recording counters; zeros when tracing was never enabled.
    pub fn stats(&self) -> TraceStats {
        self.buf.as_ref().map(|b| b.stats).unwrap_or_default()
    }

    /// Disable and return the retained events in chronological order.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        match self.buf.take() {
            Some(mut b) => {
                b.events.rotate_left(b.head);
                b.events
            }
            None => Vec::new(),
        }
    }

    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        let Some(b) = &mut self.buf else { return };
        b.stats.seen += 1;
        if b.cfg.sample > 1 && (b.stats.seen - 1) % b.cfg.sample != 0 {
            b.stats.sampled_out += 1;
            return;
        }
        if b.events.len() < b.cfg.capacity {
            b.events.push(ev);
        } else {
            b.events[b.head] = ev;
            b.head = (b.head + 1) % b.cfg.capacity;
            b.stats.dropped += 1;
        }
    }
}

/// Summarize a trace: total and per-kind busy time.
pub fn summarize(events: &[TraceEvent]) -> TraceSummary {
    let mut s = TraceSummary::default();
    for e in events {
        s.total += e.duration();
        s.count += 1;
        s.bytes += e.bytes;
        let idx = e.kind as usize;
        if idx < s.per_kind.len() {
            s.per_kind[idx].0 += e.duration();
            s.per_kind[idx].1 += 1;
        }
    }
    s
}

/// Aggregate of a rank's trace.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Sum of event durations (operations may not tile the timeline).
    pub total: f64,
    /// Number of events.
    pub count: usize,
    /// Total payload bytes across events.
    pub bytes: usize,
    /// `(busy seconds, count)` per [`EventKind`] discriminant.
    pub per_kind: [(f64, usize); EventKind::COUNT],
}

impl TraceSummary {
    /// Busy time of one kind.
    pub fn time_of(&self, kind: EventKind) -> f64 {
        self.per_kind[kind as usize].0
    }

    /// Event count of one kind.
    pub fn count_of(&self, kind: EventKind) -> usize {
        self.per_kind[kind as usize].1
    }
}

/// Render traces (one per rank) as an ASCII timeline: `width` columns
/// spanning `[0, t_max]`, one row per rank, the densest kind per column.
pub fn ascii_timeline(traces: &[Vec<TraceEvent>], width: usize) -> String {
    let width = width.max(10);
    let t_max = traces
        .iter()
        .flatten()
        .map(|e| e.t_end)
        .fold(0.0f64, f64::max);
    if t_max <= 0.0 {
        return "empty trace\n".into();
    }
    let glyph = |k: EventKind| match k {
        EventKind::Send | EventKind::Isend => 'S',
        EventKind::Bsend => 'B',
        EventKind::Recv => 'R',
        EventKind::Put => 'P',
        EventKind::Get => 'G',
        EventKind::Fence => 'F',
        EventKind::Barrier => '|',
        EventKind::Pack | EventKind::Copy => 'c',
        EventKind::Unpack => 'u',
        EventKind::Flush => '.',
        EventKind::Stage => 'g',
        EventKind::Unstage => 'y',
        EventKind::Demote => 'd',
        EventKind::Select => 'x',
    };
    let mut out = String::new();
    for (rank, events) in traces.iter().enumerate() {
        let mut row = vec![' '; width];
        for e in events {
            let a = ((e.t_start / t_max) * (width - 1) as f64).floor() as usize;
            let b = ((e.t_end / t_max) * (width - 1) as f64).ceil() as usize;
            for cell in row.iter_mut().take(b.min(width - 1) + 1).skip(a) {
                *cell = glyph(e.kind);
            }
        }
        out.push_str(&format!("rank {rank:>2} |"));
        out.extend(row.iter());
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "         0{:>width$}\n",
        format!("{:.1} us", t_max * 1e6),
        width = width - 1
    ));
    out.push_str("         S=send B=bsend R=recv P=put G=get F=fence |=barrier c=copy/pack u=unpack g=stage y=unstage d=demote x=select .=flush\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, a: f64, b: f64) -> TraceEvent {
        TraceEvent {
            kind,
            t_start: a,
            t_end: b,
            peer: None,
            bytes: 100,
            tag: None,
        }
    }

    #[test]
    fn tracer_off_by_default() {
        let mut t = Tracer::default();
        assert!(!t.enabled());
        t.record(ev(EventKind::Send, 0.0, 1.0));
        assert!(t.take().is_empty());
    }

    #[test]
    fn tracer_records_when_enabled() {
        let mut t = Tracer::default();
        t.enable();
        t.record(ev(EventKind::Send, 0.0, 1.0));
        t.record(ev(EventKind::Recv, 1.0, 3.0));
        let evs = t.take();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].duration(), 2.0);
        // take() disables
        assert!(!t.enabled());
    }

    #[test]
    fn summary_accumulates_per_kind() {
        let evs = vec![
            ev(EventKind::Send, 0.0, 1.0),
            ev(EventKind::Send, 2.0, 2.5),
            ev(EventKind::Recv, 1.0, 2.0),
        ];
        let s = summarize(&evs);
        assert_eq!(s.count, 3);
        assert_eq!(s.bytes, 300);
        assert!((s.time_of(EventKind::Send) - 1.5).abs() < 1e-12);
        assert_eq!(s.count_of(EventKind::Send), 2);
        assert_eq!(s.count_of(EventKind::Fence), 0);
    }

    #[test]
    fn timeline_renders_rows() {
        let traces = vec![
            vec![ev(EventKind::Send, 0.0, 0.5)],
            vec![ev(EventKind::Recv, 0.3, 1.0)],
        ];
        let s = ascii_timeline(&traces, 40);
        assert!(s.contains("rank  0"));
        assert!(s.contains("rank  1"));
        assert!(s.contains('S'));
        assert!(s.contains('R'));
    }

    #[test]
    fn empty_timeline_graceful() {
        assert_eq!(ascii_timeline(&[], 40), "empty trace\n");
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut t = Tracer::default();
        t.enable_with(TraceConfig { capacity: 3, sample: 1 });
        for i in 0..7 {
            t.record(ev(EventKind::Send, i as f64, i as f64 + 0.5));
        }
        let st = t.stats();
        assert_eq!(st.seen, 7);
        assert_eq!(st.dropped, 4);
        let evs = t.take();
        let starts: Vec<f64> = evs.iter().map(|e| e.t_start).collect();
        assert_eq!(starts, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let mut t = Tracer::default();
        t.enable_with(TraceConfig { capacity: 100, sample: 3 });
        for i in 0..9 {
            t.record(ev(EventKind::Pack, i as f64, i as f64 + 0.1));
        }
        let st = t.stats();
        assert_eq!(st.sampled_out, 6);
        let evs = t.take();
        let starts: Vec<f64> = evs.iter().map(|e| e.t_start).collect();
        assert_eq!(starts, vec![0.0, 3.0, 6.0]);
    }

    #[test]
    fn all_covers_every_discriminant() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
        let s = summarize(&[ev(EventKind::Unstage, 0.0, 1.0)]);
        assert_eq!(s.count_of(EventKind::Unstage), 1);
    }
}
