//! Trace-export round trip: a synthetic [`ObservedRun`] is converted to
//! spans, exported as Chrome-tracing JSON, then parsed back with the
//! bench crate's own JSON parser. The assertions pin what downstream
//! viewers rely on: one `X` record per trace event, `thread_name`
//! metadata for every rank, non-negative durations with timestamps
//! monotone per track, and zero-width markers with their `peer`/`tag`
//! arguments surviving verbatim.

use nonctg_bench::events_to_spans;
use nonctg_bench::history::{parse_json, Value};
use nonctg_core::{EventKind, FaultStats, TraceEvent};
use nonctg_report::chrome_trace_json;
use nonctg_schemes::{ObservedRun, PingPongResult, Scheme};

fn ev(kind: EventKind, t_start: f64, t_end: f64, bytes: usize) -> TraceEvent {
    TraceEvent {
        kind,
        t_start,
        t_end,
        peer: Some(1),
        bytes,
        tag: Some(17),
    }
}

/// Two ranks of a one-rep staged ping: pack + send on rank 0 with two
/// zero-width route markers, recv + unpack on rank 1 with two more.
fn synthetic_run() -> ObservedRun {
    let mut rx_select = ev(EventKind::Select, 1.0, 1.0, 512);
    rx_select.peer = Some(0);
    let mut rx_demote = ev(EventKind::Demote, 1.0, 1.0, 512);
    rx_demote.peer = Some(0);
    rx_demote.tag = None;

    let rank0 = vec![
        ev(EventKind::Pack, 0.0, 1.0, 1024),
        ev(EventKind::Send, 1.0, 3.0, 1024),
        ev(EventKind::Select, 1.0, 1.0, 512),
        ev(EventKind::Demote, 1.0, 1.0, 512),
    ];
    let rank1 = vec![
        ev(EventKind::Recv, 0.5, 3.0, 1024),
        rx_select,
        rx_demote,
        ev(EventKind::Unpack, 3.0, 3.5, 1024),
    ];
    ObservedRun {
        result: PingPongResult {
            scheme: Scheme::PackingVector,
            msg_bytes: 1024,
            times: vec![3.5],
            faults: FaultStats::default(),
        },
        events: vec![rank0, rank1],
        windows: vec![(0.0, 3.5)],
        metrics: None,
    }
}

/// The `X` (complete-event) records of a parsed trace document.
fn complete_events(doc: &Value) -> Vec<&Value> {
    doc.get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .collect()
}

#[test]
fn export_round_trips_counts_tracks_and_timestamps() {
    let run = synthetic_run();
    let spans = events_to_spans(&run.events);
    let names = vec!["rank 0".to_string(), "rank 1".to_string()];
    let json = chrome_trace_json(&spans, "roundtrip", &names);

    let doc = parse_json(&json).expect("export parses as JSON");
    let events = complete_events(&doc);
    let total: usize = run.events.iter().map(Vec::len).sum();
    assert_eq!(events.len(), total, "one X record per trace event");

    // thread_name metadata names every rank that has events.
    let metas: Vec<(f64, &str)> = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
        .map(|e| {
            (
                e.get("tid").and_then(Value::as_f64).unwrap(),
                e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str).unwrap(),
            )
        })
        .collect();
    assert_eq!(metas, vec![(0.0, "rank 0"), (1.0, "rank 1")]);

    // Per track: timestamps non-decreasing in emission order, durations
    // non-negative, and every record carries a bytes argument.
    for track in [0.0, 1.0] {
        let mut last = f64::NEG_INFINITY;
        let mut seen = 0usize;
        for e in &events {
            if e.get("tid").and_then(Value::as_f64) != Some(track) {
                continue;
            }
            seen += 1;
            let ts = e.get("ts").and_then(Value::as_f64).unwrap();
            let dur = e.get("dur").and_then(Value::as_f64).unwrap();
            assert!(ts >= last, "track {track}: ts went backwards ({ts} < {last})");
            assert!(dur >= 0.0, "track {track}: negative duration");
            assert!(e.get("args").and_then(|a| a.get("bytes")).is_some());
            last = ts;
        }
        assert_eq!(seen, 4, "track {track} event count");
    }
}

#[test]
fn zero_width_markers_keep_their_arguments() {
    let run = synthetic_run();
    let spans = events_to_spans(&run.events);
    let json = chrome_trace_json(&spans, "roundtrip", &[]);
    let doc = parse_json(&json).expect("export parses as JSON");

    let markers: Vec<(f64, &str, f64, f64, Option<f64>)> = complete_events(&doc)
        .iter()
        .filter(|e| e.get("dur").and_then(Value::as_f64) == Some(0.0))
        .map(|e| {
            let args = e.get("args").unwrap();
            (
                e.get("tid").and_then(Value::as_f64).unwrap(),
                e.get("name").and_then(Value::as_str).unwrap(),
                args.get("bytes").and_then(Value::as_f64).unwrap(),
                args.get("peer").and_then(Value::as_f64).unwrap(),
                args.get("tag").and_then(Value::as_f64),
            )
        })
        .collect();
    assert_eq!(
        markers,
        vec![
            (0.0, "select", 512.0, 1.0, Some(17.0)),
            (0.0, "demote", 512.0, 1.0, Some(17.0)),
            (1.0, "select", 512.0, 0.0, Some(17.0)),
            // An event without a tag carries no `tag` argument.
            (1.0, "demote", 512.0, 0.0, None),
        ]
    );
}
