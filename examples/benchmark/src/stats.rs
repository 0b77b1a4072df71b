//! Order statistics, the seeded generator the inputs come from, the history
//! fingerprint, and the `/proc` readers behind the CPU, memory and
//! context-switch metrics.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) and `statistics.median` give them — the driver
/// computes the spread of the benchmark's numbers with those functions, so
/// the program's own report and `--selfcheck` use the same definition.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        // Python: j = i * (n + 1) // 4, clamped to [1, n - 1]; delta = i*(n+1) - j*4.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), median_sorted(&v), cut(3))
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile of an unsorted sample, `q` in `(0, 1]`.
pub fn percentile(sample: &mut [u64], q: f64) -> u64 {
    if sample.is_empty() {
        return 0;
    }
    sample.sort_unstable();
    let rank = (q * sample.len() as f64).ceil() as usize;
    sample[rank.clamp(1, sample.len()) - 1]
}

/// SplitMix64: the benchmark's own generator, so the inputs depend on the
/// seed and on nothing inside the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a stream of words; the history fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// CPU time the scheduler has charged, in nanoseconds: `(whole process,
/// calling thread)`.  Summed over `/proc/self/task/*/schedstat`, which has
/// nanosecond resolution where `/proc/self/stat`'s utime+stime has 10 ms;
/// exact as long as no thread exits between two readings, which holds
/// inside every timed region here.
pub fn cpu_ns() -> (u64, u64) {
    let first_field = |path: std::path::PathBuf| -> u64 {
        fs::read_to_string(path)
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    };
    let process = task_dirs()
        .into_iter()
        .map(|d| first_field(d.join("schedstat")))
        .sum();
    let thread = first_field("/proc/thread-self/schedstat".into());
    (process, thread)
}

fn task_dirs() -> Vec<std::path::PathBuf> {
    fs::read_dir("/proc/self/task")
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default()
}

/// Number of live threads of this process.
pub fn thread_count() -> usize {
    task_dirs().len()
}

/// Voluntary + involuntary context switches summed over every live thread.
pub fn ctx_switches() -> u64 {
    task_dirs()
        .into_iter()
        .filter_map(|d| fs::read_to_string(d.join("status")).ok())
        .map(|s| {
            s.lines()
                .filter(|l| l.contains("ctxt_switches"))
                .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                .sum::<u64>()
        })
        .sum()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Size of the buffer [`fresh_memory_s`] fills.  Above glibc's largest mmap
/// threshold, so every call gets pages the process has never touched.
const FRESH_BYTES: usize = 32 << 20;
/// The rate `setup_s` is stated at: a host that faults in and fills fresh
/// memory at 2 GiB/s.
const NOMINAL_FRESH_S: f64 = FRESH_BYTES as f64 / (2u64 << 30) as f64;

/// Seconds to allocate 32 MiB, write every word of it and free it again:
/// page faults plus write bandwidth, what a cluster build on a fresh heap
/// mostly pays for.  On the benchmark's host this cost drifts by ±40 % over
/// minutes and set-up time follows it (README.md, "The host").
pub fn fresh_memory_s() -> f64 {
    let t = Instant::now();
    let words = FRESH_BYTES / 8;
    let v: Vec<u64> = (0..words as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9))
        .collect();
    black_box(&v);
    drop(v);
    t.elapsed().as_secs_f64()
}

/// `raw_s` of set-up, measured between two [`fresh_memory_s`] readings, at
/// the nominal fresh-memory rate.
pub fn at_nominal_rate(raw_s: f64, fresh_before_s: f64, fresh_after_s: f64) -> f64 {
    raw_s * NOMINAL_FRESH_S / ((fresh_before_s + fresh_after_s) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
