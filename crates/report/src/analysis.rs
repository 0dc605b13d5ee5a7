//! Trace analysis: virtual-time critical path and gantt rendering with
//! per-track bubble shares.
//!
//! Consumes the same [`Span`]s the trace exporter uses, so the whole
//! analysis is runtime-agnostic and unit-testable on synthetic traces.
//!
//! ## Critical path
//!
//! The event DAG of a traced run is implicit in span timing: at any
//! instant the run's progress is constrained by whichever operation is
//! executing then (ties broken toward the innermost span, i.e. the one
//! that started latest). [`critical_path`] walks backward from the last
//! event end, at each step selecting the covering span with the latest
//! start, emitting one [`CriticalEdge`] per step and an `idle` edge
//! across any interval no span covers. By construction consecutive edges
//! share *bit-identical* boundary timestamps, so the edge widths
//! telescope: [`CriticalPath::edge_sum`] verifies the tiling and then
//! returns `t_end - t_begin` exactly, making "edge sum equals elapsed"
//! an honest bitwise identity rather than a float-tolerance claim.

use crate::traceviz::Span;
use std::fmt::Write as _;

/// Phase bucket for a span name, mirroring the bench harness's phase
/// attribution: `pack`, `unpack`, `transfer`, `sync`, or `other`.
pub fn phase_of_name(name: &str) -> &'static str {
    match name {
        "pack" | "stage" => "pack",
        "unpack" | "unstage" => "unpack",
        "send" | "bsend" | "isend" | "recv" | "put" | "get" => "transfer",
        "fence" | "barrier" | "flush" => "sync",
        _ => "other",
    }
}

/// One step of the critical path: either a clipped slice of a traced
/// span, or an `idle` edge across an uncovered gap.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalEdge {
    /// Track (rank) the edge is attributed to. Idle edges are charged
    /// to the track of the operation that ends the wait.
    pub track: usize,
    /// Operation name (`"idle"` for gap edges).
    pub name: String,
    /// Phase bucket of [`CriticalEdge::name`] (see [`phase_of_name`]).
    pub phase: &'static str,
    /// Edge start (bit-identical to the previous edge's end).
    pub t_start: f64,
    /// Edge end (bit-identical to the next edge's start).
    pub t_end: f64,
    /// Payload bytes of the underlying span (0 for idle edges).
    pub bytes: usize,
    /// True for gap edges no span covers.
    pub idle: bool,
}

impl CriticalEdge {
    /// Edge width in seconds.
    pub fn width(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// The critical path of a traced run: edges tiling `[t_begin, t_end]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Edges in time order; consecutive boundaries are bit-identical.
    pub edges: Vec<CriticalEdge>,
    /// First event start in the trace.
    pub t_begin: f64,
    /// Last event end in the trace.
    pub t_end: f64,
}

impl CriticalPath {
    /// Virtual elapsed time the path spans.
    pub fn elapsed(&self) -> f64 {
        self.t_end - self.t_begin
    }

    /// Total width of all edges. Verifies that consecutive edge
    /// boundaries are **bit-identical** and tile `[t_begin, t_end]`;
    /// when they do, the float sum telescopes exactly, so this returns
    /// `t_end - t_begin` and is bit-equal to [`CriticalPath::elapsed`].
    /// If the tiling is ever broken (a bug), the naive float sum is
    /// returned instead so the discrepancy is observable.
    pub fn edge_sum(&self) -> f64 {
        let mut t = self.t_begin;
        for e in &self.edges {
            if e.t_start.to_bits() != t.to_bits() {
                return self.edges.iter().map(CriticalEdge::width).sum();
            }
            t = e.t_end;
        }
        if t.to_bits() != self.t_end.to_bits() {
            return self.edges.iter().map(CriticalEdge::width).sum();
        }
        self.t_end - self.t_begin
    }

    /// Busy (non-idle) seconds attributed to each track, sorted by
    /// track index.
    pub fn by_track(&self) -> Vec<(usize, f64)> {
        let mut acc: Vec<(usize, f64)> = Vec::new();
        for e in self.edges.iter().filter(|e| !e.idle) {
            match acc.iter_mut().find(|(t, _)| *t == e.track) {
                Some((_, s)) => *s += e.width(),
                None => acc.push((e.track, e.width())),
            }
        }
        acc.sort_by_key(|&(t, _)| t);
        acc
    }

    /// Seconds attributed to each phase bucket (idle edges bucket as
    /// `"idle"`), in first-seen order.
    pub fn by_phase(&self) -> Vec<(&'static str, f64)> {
        let mut acc: Vec<(&'static str, f64)> = Vec::new();
        for e in &self.edges {
            let key = if e.idle { "idle" } else { e.phase };
            match acc.iter_mut().find(|(p, _)| *p == key) {
                Some((_, s)) => *s += e.width(),
                None => acc.push((key, e.width())),
            }
        }
        acc
    }

    /// Total idle (uncovered-gap) seconds on the path.
    pub fn idle_total(&self) -> f64 {
        // + 0.0 normalizes the empty sum, which folds from -0.0.
        self.edges.iter().filter(|e| e.idle).map(CriticalEdge::width).sum::<f64>() + 0.0
    }

    /// Serialize as a standalone JSON document (hand-rolled; this
    /// crate is dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema_version\": 1,\n");
        let _ = writeln!(out, "  \"t_begin\": {},", jnum(self.t_begin));
        let _ = writeln!(out, "  \"t_end\": {},", jnum(self.t_end));
        let _ = writeln!(out, "  \"elapsed_s\": {},", jnum(self.elapsed()));
        let _ = writeln!(out, "  \"edge_sum_s\": {},", jnum(self.edge_sum()));
        let _ = writeln!(out, "  \"idle_s\": {},", jnum(self.idle_total()));
        out.push_str("  \"by_track\": [");
        for (i, (track, s)) in self.by_track().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"track\": {track}, \"busy_s\": {}}}", jnum(*s));
        }
        out.push_str("],\n  \"by_phase\": [");
        for (i, (phase, s)) in self.by_phase().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"phase\": \"{phase}\", \"seconds\": {}}}", jnum(*s));
        }
        out.push_str("],\n  \"edges\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"track\": {}, \"name\": \"{}\", \"phase\": \"{}\", \"t_start\": {}, \"t_end\": {}, \"bytes\": {}, \"idle\": {}",
                e.track,
                e.name,
                e.phase,
                jnum(e.t_start),
                jnum(e.t_end),
                e.bytes,
                e.idle
            );
            out.push('}');
            out.push_str(if i + 1 < self.edges.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Format an `f64` as a JSON number (shortest round-trip decimal);
/// non-finite values become `null`.
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Compute the virtual-time critical path of a trace (see the module
/// docs for the backward-sweep construction). Returns `None` when no
/// positive-width span exists — zero-width markers alone carry no
/// duration to attribute.
pub fn critical_path(spans: &[Span]) -> Option<CriticalPath> {
    if !spans.iter().any(|s| s.t_end > s.t_start) {
        return None;
    }
    // Bounds cover *all* events, zero-width markers included, so the
    // path width is bit-comparable with the run's traced elapsed time.
    let t_begin = spans.iter().map(|s| s.t_start).fold(f64::INFINITY, f64::min);
    let t_end = spans.iter().map(|s| s.t_end).fold(f64::NEG_INFINITY, f64::max);

    let mut edges: Vec<CriticalEdge> = Vec::new();
    let mut t = t_end;
    while t > t_begin {
        // Covering span at time t (t_start < t <= t_end), innermost
        // (latest start) wins; zero-width markers never cover anything.
        let best = spans
            .iter()
            .filter(|s| s.t_end > s.t_start && s.t_start < t && s.t_end >= t)
            .max_by(|a, b| a.t_start.total_cmp(&b.t_start));
        match best {
            Some(s) => {
                edges.push(CriticalEdge {
                    track: s.track,
                    name: s.name.clone(),
                    phase: phase_of_name(&s.name),
                    t_start: s.t_start,
                    t_end: t,
                    bytes: s.bytes,
                    idle: false,
                });
                t = s.t_start;
            }
            None => {
                // Uncovered gap: idle back to the latest span end
                // strictly below t (or the trace start). Charge the
                // wait to whichever track resumes work at t.
                let prev = spans
                    .iter()
                    .filter(|s| s.t_end > s.t_start && s.t_end < t)
                    .map(|s| s.t_end)
                    .fold(f64::NEG_INFINITY, f64::max);
                let lo = if prev > t_begin { prev } else { t_begin };
                let track = edges.last().map(|e| e.track).unwrap_or(0);
                edges.push(CriticalEdge {
                    track,
                    name: "idle".into(),
                    phase: "idle",
                    t_start: lo,
                    t_end: t,
                    bytes: 0,
                    idle: true,
                });
                t = lo;
            }
        }
    }
    edges.reverse();
    Some(CriticalPath { edges, t_begin, t_end })
}

/// Merged busy time per track (union of positive-width spans).
fn busy_union_by_track(spans: &[Span], ntracks: usize) -> Vec<f64> {
    let mut busy = vec![0.0; ntracks];
    for (track, slot) in busy.iter_mut().enumerate() {
        let mut ivals: Vec<(f64, f64)> = spans
            .iter()
            .filter(|s| s.track == track && s.t_end > s.t_start)
            .map(|s| (s.t_start, s.t_end))
            .collect();
        ivals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut end = f64::NEG_INFINITY;
        for (a, b) in ivals {
            if a > end {
                *slot += b - a;
                end = b;
            } else if b > end {
                *slot += b - end;
                end = b;
            }
        }
    }
    busy
}

fn fill_color(phase: &str) -> &'static str {
    match phase {
        "pack" => "#e6a23c",
        "unpack" => "#8e7cc3",
        "transfer" => "#4a90d9",
        "sync" => "#9aa0a6",
        _ => "#7ab87a",
    }
}

/// Render a gantt chart as SVG: one row per track with phase-colored
/// span rects, the critical path overlaid as a red baseline (solid on
/// busy edges, dotted across idle gaps), and a per-track bubble%
/// column (share of the traced window the track spent doing nothing).
pub fn gantt_svg(spans: &[Span], path: &CriticalPath, track_names: &[String]) -> String {
    let ntracks = spans.iter().map(|s| s.track).max().map_or(0, |t| t + 1);
    let (t0, t1) = (path.t_begin, path.t_end);
    let range = t1 - t0;
    if ntracks == 0 || range <= 0.0 || range.is_nan() {
        return "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"200\" height=\"40\">\
                <text x=\"10\" y=\"25\" font-size=\"12\">empty trace</text></svg>\n"
            .into();
    }
    let (left, plot_w, col_w, row_h, pad) = (110.0, 760.0, 90.0, 26.0, 8.0);
    let width = left + plot_w + col_w + pad;
    let height = pad * 2.0 + row_h * (ntracks as f64 + 1.0) + 18.0;
    let x = |t: f64| left + (t - t0) / range * plot_w;

    let busy = busy_union_by_track(spans, ntracks);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         font-family=\"monospace\" font-size=\"11\">"
    );
    let _ = writeln!(out, "<rect width=\"{width:.0}\" height=\"{height:.0}\" fill=\"white\"/>");
    for (track, &track_busy) in busy.iter().enumerate() {
        let y = pad + row_h * track as f64;
        let fallback = format!("track {track}");
        let name = track_names.get(track).map(String::as_str).unwrap_or(&fallback);
        let _ = writeln!(
            out,
            "<text x=\"6\" y=\"{:.1}\">{}</text>",
            y + row_h * 0.65,
            name
        );
        let _ = writeln!(
            out,
            "<rect x=\"{left}\" y=\"{y:.1}\" width=\"{plot_w}\" height=\"{:.1}\" \
             fill=\"#f4f4f4\"/>",
            row_h - 4.0
        );
        for s in spans.iter().filter(|s| s.track == track && s.t_end > s.t_start) {
            let (xa, xb) = (x(s.t_start), x(s.t_end));
            let _ = writeln!(
                out,
                "<rect x=\"{xa:.2}\" y=\"{:.1}\" width=\"{:.2}\" height=\"{:.1}\" \
                 fill=\"{}\" fill-opacity=\"0.85\"><title>{} [{:.3e}s, {:.3e}s) {} B</title></rect>",
                y + 1.0,
                (xb - xa).max(0.75),
                row_h - 6.0,
                fill_color(phase_of_name(&s.name)),
                s.name,
                s.t_start,
                s.t_end,
                s.bytes
            );
        }
        let bubble_pct = 100.0 * (1.0 - track_busy / range);
        let _ = writeln!(
            out,
            "<text x=\"{:.1}\" y=\"{:.1}\">{:5.1}% bubble</text>",
            left + plot_w + 6.0,
            y + row_h * 0.65,
            bubble_pct
        );
    }
    // Critical-path baseline, per edge on its owning track's row.
    for e in &path.edges {
        let y = pad + row_h * e.track as f64 + row_h - 3.5;
        let dash = if e.idle { " stroke-dasharray=\"2,3\"" } else { "" };
        let _ = writeln!(
            out,
            "<line x1=\"{:.2}\" y1=\"{y:.1}\" x2=\"{:.2}\" y2=\"{y:.1}\" \
             stroke=\"#d0342c\" stroke-width=\"2.5\"{dash}/>",
            x(e.t_start),
            x(e.t_end)
        );
    }
    let axis_y = pad + row_h * ntracks as f64 + 12.0;
    let _ = writeln!(out, "<text x=\"{left}\" y=\"{axis_y:.1}\">{:.3e} s</text>", t0);
    let _ = writeln!(
        out,
        "<text x=\"{:.1}\" y=\"{axis_y:.1}\" text-anchor=\"end\">{:.3e} s</text>",
        left + plot_w,
        t1
    );
    let _ = writeln!(
        out,
        "<text x=\"{left}\" y=\"{:.1}\" fill=\"#d0342c\">critical path (dotted = idle)</text>",
        axis_y + 14.0
    );
    out.push_str("</svg>\n");
    out
}

/// Render a gantt chart as ASCII: one row per track (first letter of
/// the innermost covering span per cell), a `crit` row marking busy
/// (`=`) and idle (`.`) critical-path edges, and a bubble% column.
pub fn gantt_ascii(spans: &[Span], path: &CriticalPath, width: usize) -> String {
    let width = width.max(20);
    let ntracks = spans.iter().map(|s| s.track).max().map_or(0, |t| t + 1);
    let (t0, t1) = (path.t_begin, path.t_end);
    let range = t1 - t0;
    if ntracks == 0 || range <= 0.0 || range.is_nan() {
        return "empty trace\n".into();
    }
    let cell_of = |t: f64| (((t - t0) / range) * (width - 1) as f64).floor() as usize;

    let mut rows = vec![vec![(f64::NEG_INFINITY, ' '); width]; ntracks];
    let mut ordered: Vec<&Span> = spans.iter().filter(|s| s.t_end > s.t_start).collect();
    ordered.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
    for s in ordered {
        let glyph = s.name.chars().next().unwrap_or('?');
        let (a, b) = (cell_of(s.t_start), cell_of(s.t_end).min(width - 1));
        for cell in rows[s.track].iter_mut().take(b + 1).skip(a) {
            if s.t_start >= cell.0 {
                *cell = (s.t_start, glyph);
            }
        }
    }

    let busy = busy_union_by_track(spans, ntracks);
    let mut out = String::new();
    for (track, row) in rows.iter().enumerate() {
        let _ = write!(out, "rank {track:>2} |");
        out.extend(row.iter().map(|&(_, g)| g));
        let _ = writeln!(out, "| {:5.1}% bubble", 100.0 * (1.0 - busy[track] / range));
    }
    let mut crit = vec![' '; width];
    for e in &path.edges {
        let (a, b) = (cell_of(e.t_start), cell_of(e.t_end).min(width - 1));
        let glyph = if e.idle { '.' } else { '=' };
        for c in crit.iter_mut().take(b + 1).skip(a) {
            *c = glyph;
        }
    }
    out.push_str("crit    |");
    out.extend(crit);
    let _ = writeln!(out, "|");
    let _ = writeln!(
        out,
        "        {:.3e} s .. {:.3e} s  ('=' on critical path, '.' idle)",
        t0, t1
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: usize, name: &str, a: f64, b: f64) -> Span {
        Span {
            track,
            name: name.into(),
            t_start: a,
            t_end: b,
            bytes: 100,
            peer: None,
            tag: None,
        }
    }

    #[test]
    fn critical_path_tiles_with_gap() {
        let spans = vec![
            span(0, "pack", 0.0, 1.0),
            span(0, "send", 1.0, 3.0),
            span(1, "unpack", 4.0, 6.0),
        ];
        let p = critical_path(&spans).unwrap();
        assert_eq!(p.edges.len(), 4);
        assert_eq!(p.edges[0].name, "pack");
        assert_eq!(p.edges[1].name, "send");
        assert!(p.edges[2].idle);
        // The idle wait before unpack is charged to the resuming track.
        assert_eq!(p.edges[2].track, 1);
        assert_eq!(p.edges[3].name, "unpack");
        assert_eq!(p.edge_sum().to_bits(), p.elapsed().to_bits());
        assert_eq!(p.idle_total(), 1.0);
        assert_eq!(p.by_track(), vec![(0, 3.0), (1, 2.0)]);
    }

    #[test]
    fn critical_path_clips_overlap_to_latest_start() {
        // recv spans the whole run; the inner send owns [8, 12].
        let spans = vec![span(0, "recv", 0.0, 10.0), span(1, "send", 8.0, 12.0)];
        let p = critical_path(&spans).unwrap();
        assert_eq!(p.edges.len(), 2);
        assert_eq!(p.edges[0].name, "recv");
        assert_eq!(p.edges[0].t_end, 8.0);
        assert_eq!(p.edges[1].name, "send");
        assert_eq!(p.edge_sum().to_bits(), p.elapsed().to_bits());
    }

    #[test]
    fn edge_sum_is_bit_exact_on_awkward_floats() {
        // Boundaries that would NOT telescope under naive float
        // summation of widths.
        let a = 0.1;
        let b = 0.2;
        let c = 0.30000000000000004; // 0.1 + 0.2 in f64
        let spans = vec![span(0, "pack", 0.0, a), span(0, "send", a, b), span(1, "recv", b, c)];
        let p = critical_path(&spans).unwrap();
        assert_eq!(p.edge_sum().to_bits(), (c - 0.0).to_bits());
        assert_eq!(p.edge_sum().to_bits(), p.elapsed().to_bits());
    }

    #[test]
    fn no_positive_width_means_no_path() {
        assert!(critical_path(&[]).is_none());
        assert!(critical_path(&[span(0, "select", 1.0, 1.0)]).is_none());
    }

    #[test]
    fn json_and_gantt_render() {
        let spans = vec![
            span(0, "pack", 0.0, 1.0),
            span(0, "send", 1.0, 3.0),
            span(1, "recv", 3.0, 5.0),
            span(1, "select", 3.0, 3.0),
        ];
        let p = critical_path(&spans).unwrap();
        let j = p.to_json();
        assert!(j.contains("\"schema_version\": 1"));
        assert!(j.contains("\"edges\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());

        let names = vec!["rank 0".into(), "rank 1".into()];
        let svg = gantt_svg(&spans, &p, &names);
        assert!(svg.contains("<svg"));
        assert!(svg.contains("bubble"));
        assert!(svg.contains("rank 1"));

        let art = gantt_ascii(&spans, &p, 60);
        assert!(art.contains("crit"));
        assert!(art.contains("% bubble"));
        assert!(art.contains('='));
    }

    #[test]
    fn gantt_empty_graceful() {
        let p = CriticalPath { edges: vec![], t_begin: 0.0, t_end: 0.0 };
        assert!(gantt_svg(&[], &p, &[]).contains("empty trace"));
        assert_eq!(gantt_ascii(&[], &p, 40), "empty trace\n");
    }
}
