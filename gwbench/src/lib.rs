//! End-to-end and per-layer benchmark of the update-validation gateway.
//!
//! Two workloads drive the public [`xuc_service::Gateway`] API from one
//! closed-loop client thread: `mem_doc` (one ≈8k-node in-memory
//! document) and `durable_fleet` (64 small documents on a journaled
//! gateway). [`e2e`] measures what a user sees with tracing off;
//! [`trace`] replays the same seeded stream on a mirror of each document
//! through the layers' public functions and attributes the time and work
//! of every op to a layer. See `README.md` in this directory for the
//! metric catalogue.

pub mod e2e;
pub mod gen;
pub mod trace;

use std::time::Duration;

/// One reported metric. `samples` is the count a percentile or median
/// was taken over (`None` for totals and counts).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit, samples: None }
    }

    pub fn sampled(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric { name: name.into(), value, unit, samples: Some(n) }
    }
}

/// Op accounting plus every failed check, in the order they happened.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable failures (ops and whole-run checks).
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one op; `problem` is `Some` when its outcome was wrong.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.note(p);
        }
    }

    /// Records a failed whole-run check (recovery, final state).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.note(what());
        }
    }

    fn note(&mut self, what: String) {
        // Keep the report bounded; the count is in `failed`.
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Lines for the human-readable report printed before the result.
    pub report: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric as `{"value", "unit"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `f64` holds.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Nearest-rank position (1-based) of the `pct`-th percentile of `n`
/// samples.
fn rank(n: usize, pct: usize) -> usize {
    (n * pct).div_ceil(100).clamp(1, n.max(1))
}

/// The `pct`-th percentile (nearest rank) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// Whether the `pct`-th percentile of `n` samples has at least ten
/// samples beyond it — the rule for reporting a percentile at all.
pub fn percentile_supported(n: usize, pct: usize) -> bool {
    n > 0 && n - rank(n, pct) >= 10
}

/// Median of `values` (any order; empty gives 0).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
