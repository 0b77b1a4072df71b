//! Chrome trace-event JSON export.
//!
//! [`export_chrome_trace`] renders a merged [`TraceLog`] into the [Chrome
//! trace-event format] (the JSON-array-of-events dialect) that Perfetto and
//! `chrome://tracing` load directly.  The export is fully deterministic —
//! only round-stamped protocol events, one millisecond of trace time per
//! simulation round, spans sorted by op id — so the bytes are identical
//! across thread counts for the same seed.
//!
//! Layout: pid 1 is the protocol timeline with **one track (tid) per anchor
//! shard lane**; each completed op is a single complete (`"ph":"X"`) slice
//! with its stage breakdown in `args`, and churn/update-phase events are
//! instants on the shard track that recorded them.
//!
//! The JSON is hand-rolled (nothing can be vendored: there is no registry);
//! [`validate_json`] is the minimal syntax checker the CI trace smoke runs
//! over the exported file.
//!
//! [Chrome trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::analysis::{TraceAnalysis, STAGES};
use crate::{TraceEvent, TraceLog};
use std::fmt::Write as _;

/// Microseconds of trace time per simulation round (1 round = 1 ms keeps
/// Perfetto's zoom levels comfortable for thousand-round runs).
const US_PER_ROUND: u64 = 1000;

fn push_meta(out: &mut String, pid: u32, tid: Option<u32>, name: &str, value: &str) {
    out.push_str("{\"ph\":\"M\",\"pid\":");
    let _ = write!(out, "{pid}");
    if let Some(tid) = tid {
        let _ = write!(out, ",\"tid\":{tid}");
    }
    let _ = write!(
        out,
        ",\"name\":\"{name}\",\"args\":{{\"name\":\"{value}\"}}}}"
    );
}

/// Renders the deterministic protocol timeline (see the module docs).
///
/// One `"cat":"op"` complete event is emitted per completed span, so
/// `count of "cat":"op"` == completed requests (checked by
/// `tests/trace_determinism.rs` and by `experiments trace`).
pub fn export_chrome_trace(log: &TraceLog) -> String {
    let analysis = TraceAnalysis::from_log(log);
    let mut events: Vec<String> = Vec::new();

    // Track naming: one protocol track per shard lane that recorded events.
    let mut out = String::new();
    push_meta(&mut out, 1, None, "process_name", "skueue protocol");
    events.push(std::mem::take(&mut out));
    for (shard, _) in log.shard_event_counts() {
        push_meta(
            &mut out,
            1,
            Some(shard),
            "thread_name",
            &format!("shard lane {shard}"),
        );
        events.push(std::mem::take(&mut out));
    }

    // One complete slice per completed op, stage breakdown in args.
    for s in analysis.spans() {
        let (issued, completed) = match (s.issued, s.completed) {
            (Some(i), Some(c)) => (i, c),
            _ => continue,
        };
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"cat\":\"op\",\"name\":\"{} {}\",\"ts\":{},\"dur\":{},\"args\":{{\"wave\":{},\"major\":{},\"hops\":{}",
            s.shard,
            s.op,
            if s.insert { "insert" } else { "remove" },
            issued * US_PER_ROUND,
            (completed - issued) * US_PER_ROUND,
            s.wave,
            s.major,
            s.hops.unwrap_or(0),
        );
        // The five stages, not the total, under JSON-style names.
        for (name, stage) in &STAGES[..STAGES.len() - 1] {
            if let Some(r) = stage(s) {
                let _ = write!(out, ",\"{}\":{r}", name.replace('-', "_"));
            }
        }
        out.push_str("}}");
        events.push(std::mem::take(&mut out));
    }

    // Wave/phase/churn instants on the recording shard's track.
    for r in log.records() {
        let (name, detail): (&str, String) = match r.event {
            TraceEvent::WaveAssigned { wave, .. } => ("wave assigned", format!("{wave}")),
            TraceEvent::PhaseEnter { phase, .. } => ("update phase enter", format!("{phase}")),
            TraceEvent::PhaseOver { phase, .. } => ("update phase over", format!("{phase}")),
            TraceEvent::ProcessJoined { process, .. } => ("process joined", format!("p{process}")),
            TraceEvent::ProcessLeft { process, .. } => ("process left", format!("p{process}")),
            TraceEvent::Absorbed { process, .. } => ("absorbed", format!("p{process}")),
            _ => continue,
        };
        let _ = write!(
            out,
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"cat\":\"lifecycle\",\"name\":\"{} {}\",\"ts\":{},\"s\":\"t\"}}",
            r.shard,
            name,
            detail,
            r.event.round() * US_PER_ROUND,
        );
        events.push(std::mem::take(&mut out));
    }

    render_document(&events)
}

fn render_document(events: &[String]) -> String {
    let mut doc = String::with_capacity(events.iter().map(|e| e.len() + 2).sum::<usize>() + 64);
    doc.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            doc.push_str(",\n");
        }
        doc.push_str(e);
    }
    doc.push_str("\n]}");
    doc
}

/// Minimal recursive-descent JSON syntax check (objects, arrays, strings,
/// numbers, `true`/`false`/`null`; no extension syntax).  The workspace has
/// no JSON parser dependency, and the CI trace smoke needs to assert the
/// exporter's output is loadable.
pub fn validate_json(input: &str) -> bool {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    if !parse_value(bytes, &mut pos) {
        return false;
    }
    skip_ws(bytes, &mut pos);
    pos == bytes.len()
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> bool {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        _ => false,
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
    if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        true
    } else {
        false
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> bool {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos == int_start {
        return false;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == frac_start {
            return false;
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == exp_start {
            return false;
        }
    }
    *pos > start
}

fn parse_string(b: &[u8], pos: &mut usize) -> bool {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return true;
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() - *pos < 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return false;
                        }
                        *pos += 5;
                    }
                    _ => return false,
                }
            }
            0x00..=0x1f => return false,
            _ => *pos += 1,
        }
    }
    false
}

fn parse_object(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return true;
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') || !parse_string(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return false;
        }
        *pos += 1;
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> bool {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return true;
    }
    loop {
        if !parse_value(b, pos) {
            return false;
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return true;
            }
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceEvent, TraceId, TraceRecord};

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        let op = TraceId::new(2, 5);
        let rec = |shard: u32, event: TraceEvent| TraceRecord {
            node: shard as u64,
            shard,
            event,
        };
        log.push(rec(
            0,
            TraceEvent::Issued {
                op,
                insert: true,
                round: 1,
            },
        ));
        log.push(rec(0, TraceEvent::WaveJoin { op, round: 2 }));
        log.push(rec(0, TraceEvent::WaveAssigned { wave: 1, round: 4 }));
        log.push(rec(
            0,
            TraceEvent::Assigned {
                op,
                wave: 1,
                major: 0,
                round: 6,
            },
        ));
        log.push(rec(
            1,
            TraceEvent::DhtApplied {
                op,
                hops: 3,
                round: 9,
            },
        ));
        log.push(rec(1, TraceEvent::Completed { op, round: 9 }));
        log.push(rec(
            0,
            TraceEvent::ProcessJoined {
                process: 7,
                round: 3,
            },
        ));
        log
    }

    #[test]
    fn export_is_valid_json_with_one_op_slice_per_completed_span() {
        let json = export_chrome_trace(&sample_log());
        assert!(validate_json(&json), "exporter must emit valid JSON");
        assert_eq!(json.matches("\"cat\":\"op\"").count(), 1);
        assert!(json.contains("\"name\":\"p2#5 insert\""));
        assert!(json.contains("shard lane 0"));
        assert!(json.contains("shard lane 1"));
        assert!(json.contains("process joined p7"));
        // 1 round = 1000 µs; issued in round 1, 8 rounds long.
        assert!(json.contains("\"ts\":1000,\"dur\":8000"));
    }

    #[test]
    fn export_is_deterministic() {
        let log = sample_log();
        assert_eq!(export_chrome_trace(&log), export_chrome_trace(&log));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(validate_json(
            "{\"a\": [1, 2.5, -3e2, \"x\\n\", true, null]}"
        ));
        assert!(validate_json("[]"));
        assert!(validate_json("  {\"u\": \"\\u00e9\"} "));
        assert!(!validate_json("{\"a\": }"));
        assert!(!validate_json("[1, 2"));
        assert!(!validate_json("{\"a\": 1} trailing"));
        assert!(!validate_json("{'a': 1}"));
        assert!(!validate_json("01x"));
        assert!(!validate_json(""));
    }
}
