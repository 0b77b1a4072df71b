//! The benchmark-side span recorder of the traced pass.
//!
//! One span per call from the benchmark into a layer's public function,
//! recorded in memory and written out when the repeat ends.  The recorder is
//! off during the end-to-end pass: `enter` then returns without reading the
//! clock, so the untraced numbers carry no recording cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `-1` at the top level.
    pub parent: i64,
}

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Spans issued once per operation are kept in full for the self-time sums
/// but only this many per name reach the span file, which would otherwise
/// grow to hundreds of megabytes on the 100 000-op workloads.
const PER_NAME_FILE_CAP: usize = 2000;

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(-1, |&i| i as i64);
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
        });
    }

    #[inline]
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Per span name: `(total seconds, self seconds)`.  A span's self time is
    /// its duration minus the part its child spans cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent >= 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += dur as f64 / 1e9;
            e.1 += dur.saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// The spans of this repeat as JSON objects, one per line, for the
    /// parent to splice into `trace-<workload>.json`.
    pub fn to_json_lines(&self, repeat: u32) -> String {
        let mut written: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut out = String::new();
        for (idx, s) in self.spans.iter().enumerate() {
            let n = written.entry(s.name).or_default();
            *n += 1;
            if *n > PER_NAME_FILE_CAP {
                continue;
            }
            let _ = writeln!(
                out,
                "{{\"repeat\": {repeat}, \"id\": {idx}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                s.name, s.start_ns, s.end_ns, s.parent
            );
        }
        for (name, n) in written {
            if n > PER_NAME_FILE_CAP {
                let _ = writeln!(
                    out,
                    "{{\"repeat\": {repeat}, \"name\": \"{name}\", \"omitted\": {}}}",
                    n - PER_NAME_FILE_CAP
                );
            }
        }
        out
    }
}
