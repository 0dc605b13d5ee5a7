//! Wall-clock spans around the calls into each layer, plus the counters
//! attributed to them: bytes moved, bytes allocated on the span's thread
//! and (for coarse spans) minor page faults of that thread.
//!
//! Spans are kept in memory while a traced phase runs and taken out at
//! its end. With tracing off, opening a span costs one relaxed load.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::os;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u32> = const { Cell::new(0) };
    static LEG: Cell<&'static str> = const { Cell::new("") };
    static REQ: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Process-unique id (never 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// `<module>.<call>` of the layer entered, or `bench.*` for the
    /// benchmark's own structure (rounds, points, rank bodies).
    pub name: &'static str,
    /// Request id: the sweep point or the timed rep this span served.
    pub req: u64,
    /// Leg or kernel the request belongs to ("" outside legs).
    pub leg: &'static str,
    /// 0 for the main thread, `rank + 1` for a rank thread.
    pub thread: u32,
    /// Start and end, nanoseconds since the process epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Payload bytes the call moved or filled.
    pub bytes: u64,
    /// Bytes allocated on this thread while the span was open.
    pub alloc_bytes: u64,
    /// Minor page faults of this thread while open (coarse spans only).
    pub minor_faults: u64,
}

impl SpanRec {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Whether this span marks the benchmark's own structure rather than
    /// a call into one of the measured layers.
    pub fn is_structural(&self) -> bool {
        self.name.starts_with("bench.")
    }
}

/// An open span; closes when dropped. Inert when tracing is off.
pub struct Span(Option<Open>);

struct Open {
    rec: SpanRec,
    alloc0: u64,
    faults0: Option<u64>,
}

/// Turn span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Name the calling thread for span attribution: 0 = main, `rank + 1`
/// for rank threads.
pub fn set_thread(idx: u32) {
    THREAD.with(|t| t.set(idx));
}

/// Tag spans opened on this thread with a leg name and request id
/// until the next call.
pub fn set_request(leg: &'static str, req: u64) {
    LEG.with(|l| l.set(leg));
    REQ.with(|r| r.set(req));
}

fn open(name: &'static str, parent: Option<u64>, faults: bool) -> Span {
    if !enabled() {
        return Span(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = parent.unwrap_or_else(|| STACK.with(|s| s.borrow().last().copied().unwrap_or(0)));
    STACK.with(|s| s.borrow_mut().push(id));
    let faults0 = if faults { os::thread_minor_faults() } else { None };
    let rec = SpanRec {
        id,
        parent,
        name,
        req: REQ.with(Cell::get),
        leg: LEG.with(Cell::get),
        thread: THREAD.with(Cell::get),
        start_ns: now_ns(),
        end_ns: 0,
        bytes: 0,
        alloc_bytes: 0,
        minor_faults: 0,
    };
    Span(Some(Open { rec, alloc0: os::thread_allocated(), faults0 }))
}

/// Open a span whose parent is the innermost open span of this thread.
pub fn span(name: &'static str) -> Span {
    open(name, None, false)
}

/// Like [`span`], and also sample this thread's minor page faults at
/// both ends (a few microseconds each: use for coarse calls only).
pub fn span_faults(name: &'static str) -> Span {
    open(name, None, true)
}

/// Open a span on this thread caused by `parent` on another thread.
pub fn span_under(name: &'static str, parent: u64) -> Span {
    open(name, Some(parent), false)
}

impl Span {
    /// The span's id (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.0.as_ref().map_or(0, |o| o.rec.id)
    }

    /// Record the payload bytes the call moved.
    pub fn bytes(&mut self, n: usize) {
        if let Some(o) = &mut self.0 {
            o.rec.bytes += n as u64;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(mut o) = self.0.take() else { return };
        o.rec.end_ns = now_ns();
        o.rec.alloc_bytes = os::thread_allocated().saturating_sub(o.alloc0);
        if let Some(f0) = o.faults0 {
            o.rec.minor_faults = os::thread_minor_faults().map_or(0, |f1| f1.saturating_sub(f0));
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == o.rec.id) {
                s.remove(pos);
            }
        });
        // A poisoned lock only means another thread panicked mid-push;
        // the vector itself is always in a valid state.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(o.rec);
    }
}

/// Take every span recorded so far, sorted by start.
pub fn take() -> Vec<SpanRec> {
    let mut v = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    v.sort_by_key(|s| (s.start_ns, s.id));
    v
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Sum of self time (duration minus the part covered by children).
    pub self_s: f64,
    /// Sum of bytes moved.
    pub bytes: u64,
    /// Sum of bytes allocated.
    pub alloc_bytes: u64,
    /// Sum of sampled minor faults.
    pub minor_faults: u64,
}

/// Length of the union of `[lo, hi)` intervals, clipped to `window`.
pub fn covered_ns(mut iv: Vec<(u64, u64)>, window: (u64, u64)) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (lo, hi) in iv {
        let (lo, hi) = (lo.max(window.0), hi.min(window.1));
        if lo >= hi {
            continue;
        }
        match cur {
            Some((cl, ch)) if lo <= ch => cur = Some((cl, ch.max(hi))),
            Some((cl, ch)) => {
                total += ch - cl;
                cur = Some((lo, hi));
            }
            None => cur = Some((lo, hi)),
        }
    }
    total + cur.map_or(0, |(l, h)| h - l)
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children on other threads included).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).cloned().unwrap_or_default();
            s.dur_ns() - covered_ns(kids, (s.start_ns, s.end_ns))
        })
        .collect()
}

/// Totals per span name, and per `(name, leg)` for spans with a leg.
pub fn totals(spans: &[SpanRec]) -> std::collections::BTreeMap<String, LayerTotals> {
    let selfs = self_times(spans);
    let mut out = std::collections::BTreeMap::<String, LayerTotals>::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let keys = if s.leg.is_empty() {
            vec![s.name.to_string()]
        } else {
            vec![s.name.to_string(), format!("{}.{}", s.name, s.leg)]
        };
        for k in keys {
            let t = out.entry(k).or_default();
            t.calls += 1;
            t.self_s += self_ns as f64 * 1e-9;
            t.bytes += s.bytes;
            t.alloc_bytes += s.alloc_bytes;
            t.minor_faults += s.minor_faults;
        }
    }
    out
}

/// Share of the `windows` (traced end-to-end intervals) that no layer
/// accounts for. Along the main thread and rank 0 (thread 1), the
/// thread that does the timed work, self times partition each window;
/// the remainder after the layer spans' self times is the benchmark's
/// own glue plus anything the spans miss. Rank 1's spans overlap rank
/// 0's and are left out.
pub fn unattributed_share(spans: &[SpanRec], windows: &[(u64, u64)]) -> f64 {
    let wall: u64 = windows.iter().map(|w| w.1 - w.0).sum();
    if wall == 0 {
        return 0.0;
    }
    let layers: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.thread <= 1 && !s.is_structural())
        .map(|(_, t)| t)
        .sum();
    wall.saturating_sub(layers) as f64 / wall as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30)], (0, 100)), 25);
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30)], (8, 25)), 12);
        assert_eq!(covered_ns(vec![], (0, 10)), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let rec = |id, parent, s, e| SpanRec {
            id,
            parent,
            name: "x",
            req: 0,
            leg: "",
            thread: 0,
            start_ns: s,
            end_ns: e,
            bytes: 0,
            alloc_bytes: 0,
            minor_faults: 0,
        };
        let spans = vec![rec(1, 0, 0, 100), rec(2, 1, 10, 30), rec(3, 1, 20, 50)];
        assert_eq!(self_times(&spans), vec![60, 20, 30]);
    }
}
