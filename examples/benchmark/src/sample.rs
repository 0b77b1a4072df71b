//! What one repeat (one child process) reports to its parent: metric values
//! by name, the failure count, and the history fingerprint.  Carried as
//! plain `key value` lines on the child's standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub metrics: BTreeMap<String, f64>,
    pub fingerprint: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed or an output check did not hold.
    pub notes: Vec<String>,
}

impl Sample {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a failed output check that is not tied to single operations:
    /// every attempted operation then counts as failed (at least one, so
    /// that a set-up-only repeat, which attempts none, still shows).
    pub fn reject(&mut self, why: String) {
        self.failed = self.attempted.max(1);
        self.notes.push(why);
    }

    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "metric {name} {value:?}");
        }
        if let Some(fp) = self.fingerprint {
            let _ = writeln!(out, "fingerprint {fp:016x}");
        }
        let _ = writeln!(out, "attempted {}", self.attempted);
        let _ = writeln!(out, "failed {}", self.failed);
        for note in &self.notes {
            let _ = writeln!(out, "note {}", note.replace('\n', " "));
        }
        out
    }

    pub fn from_lines(text: &str) -> Result<Sample, String> {
        let mut sample = Sample::default();
        let mut saw_attempted = false;
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("unreadable child line `{line}`");
            match key {
                "metric" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    sample.set(name, value.parse().map_err(|_| bad())?);
                }
                "fingerprint" => {
                    sample.fingerprint = Some(u64::from_str_radix(rest, 16).map_err(|_| bad())?);
                }
                "attempted" => {
                    sample.attempted = rest.parse().map_err(|_| bad())?;
                    saw_attempted = true;
                }
                "failed" => sample.failed = rest.parse().map_err(|_| bad())?,
                "note" => sample.notes.push(rest.to_string()),
                _ => {} // anything else a layer printed on the way
            }
        }
        if saw_attempted {
            Ok(sample)
        } else {
            Err("child printed no result".to_string())
        }
    }
}
