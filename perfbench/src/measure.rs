//! Timing, statistics, digests and the run report.

use crate::json;
use std::sync::OnceLock;
use std::time::Instant;

/// Which section of `BENCHMARK.json` a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// An `end_to_end` metric, emitted by untraced runs.
    EndToEnd,
    /// A `per_layer` metric, emitted by traced runs.
    PerLayer,
    /// Printed for the workloads it applies to, but not in the result
    /// line (see README: every result-line metric exists on every
    /// workload).
    Extra,
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub section: Section,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Deterministic counts, digests and provenance: printed, never
    /// pinned as failures.
    pub info: Vec<(String, String)>,
    /// Units of work attempted (cells or queries).
    pub attempted: u64,
    /// Units that panicked or broke an output check.
    pub failed: u64,
    /// One line per broken check.
    pub problems: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Section::EndToEnd);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Section::PerLayer);
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, Section::Extra);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, section: Section) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            section,
        });
    }

    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    /// Records a broken output check (does not itself count a unit as
    /// failed; callers decide which unit it charges).
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and the
    /// metrics of `section`.
    pub fn result_line(&self, section: Section) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for m in self.metrics.iter().filter(|m| m.section == section) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            json::push_str(&mut out, &m.name);
            out.push_str(&format!(": {{\"value\": {}, \"unit\": ", num(m.value)));
            json::push_str(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with all its digits (non-finite values become 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        String::from("0.0")
    }
}

/// Monotonic nanoseconds since the first call; the clock injected into
/// the engine profiler.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds `f` took, plus its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linear-interpolated percentile `p` (0–100) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
}

/// FNV-1a 64 over bytes: the outcome digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads for the parallel runners: the host's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Repeats timed rounds of `round` until the next one would overrun
/// `budget_s` (always at least one). Returns each round's wall time and
/// result.
pub fn rounds<R>(budget_s: f64, mut round: impl FnMut() -> R) -> Vec<(f64, R)> {
    let started = Instant::now();
    let mut out: Vec<(f64, R)> = Vec::new();
    loop {
        out.push(timed(&mut round));
        let longest = out.iter().map(|(s, _)| *s).fold(0.0, f64::max);
        if started.elapsed().as_secs_f64() + longest > budget_s {
            return out;
        }
    }
}
