//! Trace rendering: Chrome-tracing (Perfetto) JSON export and an ASCII
//! per-track timeline.
//!
//! The renderer is deliberately runtime-agnostic: it consumes [`Span`]s —
//! named, timed intervals on numbered tracks — so this crate stays free of
//! dependencies. The bench harness converts the core runtime's
//! `TraceEvent`s (one track per rank) into spans.
//!
//! The JSON export targets the Trace Event Format's complete-event (`X`)
//! flavor, which both `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)
//! load directly: one `pid`, one `tid` per track, microsecond timestamps,
//! and `thread_name` metadata records naming each track.

use std::fmt::Write as _;

/// One named, timed interval on one track.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Track (rendered as a thread/row); ranks map 1:1 onto tracks.
    pub track: usize,
    /// Short operation name (`send`, `pack`, ...).
    pub name: String,
    /// Start time in seconds.
    pub t_start: f64,
    /// End time in seconds.
    pub t_end: f64,
    /// Payload bytes (0 for pure synchronization).
    pub bytes: usize,
    /// Peer track, when the operation has one.
    pub peer: Option<usize>,
    /// Message tag, when applicable.
    pub tag: Option<i64>,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.t_end - self.t_start
    }
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render spans as a Chrome-tracing / Perfetto JSON document.
///
/// `track_names` labels tracks by index (missing entries fall back to
/// `"track N"`); pass rank names like `"rank 0"` for MPI-style traces.
pub fn chrome_trace_json(spans: &[Span], process_name: &str, track_names: &[String]) -> String {
    let mut tracks: Vec<usize> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    let _ = write!(
        out,
        "  {{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", \"args\": {{\"name\": \"{}\"}}}}",
        json_escape(process_name)
    );
    for &t in &tracks {
        let fallback = format!("track {t}");
        let name = track_names.get(t).map(String::as_str).unwrap_or(&fallback);
        let _ = write!(
            out,
            ",\n  {{\"ph\": \"M\", \"pid\": 0, \"tid\": {}, \"name\": \"thread_name\", \"args\": {{\"name\": \"{}\"}}}}",
            t,
            json_escape(name)
        );
    }
    for s in spans {
        let ts_us = s.t_start * 1e6;
        let dur_us = s.duration().max(0.0) * 1e6;
        let _ = write!(
            out,
            ",\n  {{\"ph\": \"X\", \"pid\": 0, \"tid\": {}, \"name\": \"{}\", \"cat\": \"op\", \"ts\": {:.6}, \"dur\": {:.6}, \"args\": {{\"bytes\": {}",
            s.track,
            json_escape(&s.name),
            ts_us,
            dur_us,
            s.bytes
        );
        if let Some(p) = s.peer {
            let _ = write!(out, ", \"peer\": {p}");
        }
        if let Some(t) = s.tag {
            let _ = write!(out, ", \"tag\": {t}");
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Render spans as an ASCII timeline: `width` columns spanning
/// `[t_min, t_max]`, one row per track. Each cell shows the first letter
/// of the *innermost* span covering it (latest start wins), uppercased
/// for communication-ish names to keep rows readable.
pub fn ascii_spans(spans: &[Span], width: usize) -> String {
    let width = width.max(10);
    if spans.is_empty() {
        return "empty trace\n".into();
    }
    let t_min = spans.iter().map(|s| s.t_start).fold(f64::INFINITY, f64::min);
    let t_max = spans.iter().map(|s| s.t_end).fold(f64::NEG_INFINITY, f64::max);
    let range = t_max - t_min;
    if range <= 0.0 || range.is_nan() {
        return "empty trace\n".into();
    }
    let ntracks = spans.iter().map(|s| s.track).max().unwrap_or(0) + 1;

    // Cell -> (start of covering span, glyph); later starts overwrite.
    let mut rows = vec![vec![(f64::NEG_INFINITY, ' '); width]; ntracks];
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
    for s in ordered {
        let glyph = s.name.chars().next().unwrap_or('?');
        let a = (((s.t_start - t_min) / range) * (width - 1) as f64).floor() as usize;
        let b = (((s.t_end - t_min) / range) * (width - 1) as f64).ceil() as usize;
        for cell in rows[s.track]
            .iter_mut()
            .take(b.min(width - 1) + 1)
            .skip(a)
        {
            if s.t_start >= cell.0 {
                *cell = (s.t_start, glyph);
            }
        }
    }

    let mut out = String::new();
    for (track, row) in rows.iter().enumerate() {
        let _ = write!(out, "track {track:>2} |");
        out.extend(row.iter().map(|&(_, g)| g));
        out.push_str("|\n");
    }
    let lo = format!("{:.1} us", t_min * 1e6);
    let hi = format!("{:.1} us", t_max * 1e6);
    let _ = writeln!(out, "         {lo:<w$}{hi}", w = width.saturating_sub(7));
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
            bytes: 64,
            peer: Some(1 - track.min(1)),
            tag: Some(7),
        }
    }

    #[test]
    fn chrome_json_has_tracks_and_events() {
        let spans = vec![span(0, "send", 0.0, 1e-6), span(1, "recv", 0.0, 2e-6)];
        let names = vec!["rank 0".to_string(), "rank 1".to_string()];
        let j = chrome_trace_json(&spans, "nonctg", &names);
        assert!(j.contains("\"process_name\""));
        assert!(j.contains("\"rank 1\""));
        assert!(j.contains("\"ph\": \"X\""));
        assert!(j.contains("\"tid\": 1"));
        assert!(j.contains("\"name\": \"send\""));
        assert!(j.contains("\"tag\": 7"));
        // crude structural sanity: balanced braces/brackets
        let open = j.matches('{').count();
        let close = j.matches('}').count();
        assert_eq!(open, close);
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn chrome_json_escapes_names() {
        let spans = vec![span(0, "we\"ird\\op", 0.0, 1e-6)];
        let j = chrome_trace_json(&spans, "p\"q", &[]);
        assert!(j.contains("we\\\"ird\\\\op"));
        assert!(j.contains("p\\\"q"));
        assert!(j.contains("track 0"));
    }

    #[test]
    fn ascii_innermost_span_wins() {
        // A long send with a nested stage: the stage's cells must show 's'
        // from "stage"... both start with 's'; use distinct names.
        let spans = vec![span(0, "xfer", 0.0, 10.0), span(0, "gather", 2.0, 4.0)];
        let art = ascii_spans(&spans, 50);
        assert!(art.contains('x'));
        assert!(art.contains('g'));
    }

    #[test]
    fn ascii_empty_graceful() {
        assert_eq!(ascii_spans(&[], 40), "empty trace\n");
        let zero = vec![span(0, "a", 1.0, 1.0)];
        assert_eq!(ascii_spans(&zero, 40), "empty trace\n");
    }
}
