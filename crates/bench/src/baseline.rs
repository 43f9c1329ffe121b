//! The perf-regression ledger: a shared JSONL result schema and the
//! baseline comparison behind `fmwalk bench-diff`.
//!
//! Every harness binary that passes `--json` emits one
//! [`crate::json_line`] record per measured cell.  A committed
//! `BENCH_BASELINE.json` (JSON Lines, one record per line) captures the
//! numbers of a known-good build; `fmwalk bench-diff fresh.jsonl`
//! replays the comparison with noise-tolerant thresholds and stable
//! exit codes (0 pass, 1 regression, 2 baseline missing), so the bench
//! trajectory is enforced, not just recorded.
//!
//! ## Schema
//!
//! A record is a flat JSON object.  Two fields are mandatory:
//!
//! * `fig` — which figure/table harness produced the row;
//! * `label` — the workload (usually the paper-graph tag).
//!
//! The remaining fields split by *name* into metrics and identity:
//! metric fields (see [`metric_direction`]) are compared against the
//! baseline; every other scalar field (`algo`, `threads`,
//! `ring_depth`, ...) is part of the cell's identity key.  Nested
//! objects (e.g. an engine `stats` dump) and informational counters
//! (`prefetches`, `probes`) are carried but join neither side.  Records whose
//! identity key has no baseline counterpart
//! are reported as uncompared, not failed — smoke runs may cover a
//! subset of the committed grid.

use std::collections::BTreeMap;

use fm_telemetry::json::{self, Value};

/// Which way a metric must move to count as a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger fresh value = worse (times, miss rates).
    LowerIsBetter,
    /// Smaller fresh value = worse (speedups, throughput, IPC).
    HigherIsBetter,
}

/// Classifies a field name as a compared metric, or `None` for an
/// identity/informational field.
pub fn metric_direction(field: &str) -> Option<Direction> {
    match field {
        "wall_s" | "per_step_ns" | "ns_per_step" | "llc_miss_rate" | "llc_misses_per_step"
        | "dtlb_misses_per_step" | "sim_llc_miss_rate" | "sim_fills_per_step" | "divergence" => {
            Some(Direction::LowerIsBetter)
        }
        "speedup" | "speedup_vs_depth1" | "steps_per_s" | "ipc" => Some(Direction::HigherIsBetter),
        _ => None,
    }
}

/// Fields carried for the reader but excluded from both the identity
/// key and the metric comparison: run-dependent counters whose exact
/// value neither names a cell nor has a better/worse direction.
fn is_informational(field: &str) -> bool {
    matches!(field, "prefetches" | "probes")
}

/// One parsed benchmark record.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// The cell's identity: `fig`, `label`, and every non-metric scalar
    /// field, rendered `k=v` and joined in name order.
    pub key: String,
    /// Metric fields, in name order.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a JSON-lines benchmark file.  Blank lines are skipped; any
/// unparsable line is an error (a truncated results file should not
/// silently pass).
pub fn parse_jsonl(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let pairs = match &v {
            Value::Obj(pairs) => pairs,
            _ => return Err(format!("line {}: record is not a JSON object", i + 1)),
        };
        let mut identity: BTreeMap<&str, String> = BTreeMap::new();
        let mut metrics = BTreeMap::new();
        for (k, field) in pairs {
            match metric_direction(k) {
                Some(_) => {
                    if let Some(n) = field.as_num() {
                        metrics.insert(k.clone(), n);
                    }
                }
                None if is_informational(k) => {}
                None => {
                    let rendered = match field {
                        Value::Str(s) => s.clone(),
                        Value::Num(n) => json::num(*n),
                        Value::Bool(b) => b.to_string(),
                        // Nested objects/arrays (engine stats dumps) are
                        // informational, never identity.
                        _ => continue,
                    };
                    identity.insert(k, rendered);
                }
            }
        }
        if !identity.contains_key("fig") || !identity.contains_key("label") {
            return Err(format!("line {}: record lacks fig/label", i + 1));
        }
        let key = identity
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        out.push(BenchRecord { key, metrics });
    }
    Ok(out)
}

/// One compared metric of one cell.
#[derive(Debug, Clone)]
pub struct DiffLine {
    /// The cell identity key.
    pub key: String,
    /// Metric field name.
    pub metric: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// `fresh / baseline` (NaN when the baseline is 0).
    pub ratio: f64,
    /// Whether this metric regressed beyond the tolerance.
    pub regressed: bool,
}

/// The full comparison.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Every compared (cell, metric) pair, in input order.
    pub lines: Vec<DiffLine>,
    /// Fresh cells with no baseline counterpart (new coverage).
    pub unmatched_fresh: usize,
    /// Baseline cells the fresh run did not cover.
    pub unmatched_baseline: usize,
    /// The fractional tolerance used.
    pub tolerance: f64,
}

impl DiffReport {
    /// All regressed lines.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffLine> {
        self.lines.iter().filter(|l| l.regressed)
    }

    /// Whether the fresh run passes.
    pub fn pass(&self) -> bool {
        self.regressions().next().is_none()
    }
}

/// Default fractional tolerance: wall-clock micro-benchmarks on shared
/// CI hosts jitter by tens of percent, so the gate only fires on
/// changes no scheduler hiccup produces.
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// Values this small are below timer/counter resolution; comparing
/// them amplifies noise, so they are carried but never failed.
const NOISE_FLOOR: f64 = 1e-9;

/// Compares a fresh run against the committed baseline.
pub fn diff(baseline: &[BenchRecord], fresh: &[BenchRecord], tolerance: f64) -> DiffReport {
    let by_key: BTreeMap<&str, &BenchRecord> =
        baseline.iter().map(|r| (r.key.as_str(), r)).collect();
    let mut matched_keys: BTreeMap<&str, ()> = BTreeMap::new();
    let mut lines = Vec::new();
    let mut unmatched_fresh = 0usize;
    for f in fresh {
        let Some(b) = by_key.get(f.key.as_str()) else {
            unmatched_fresh += 1;
            continue;
        };
        matched_keys.insert(f.key.as_str(), ());
        for (metric, &fv) in &f.metrics {
            let Some(&bv) = b.metrics.get(metric) else {
                continue;
            };
            let dir = metric_direction(metric).unwrap_or(Direction::LowerIsBetter);
            let ratio = if bv.abs() > 0.0 { fv / bv } else { f64::NAN };
            let beyond_noise = bv.abs() > NOISE_FLOOR && fv.abs() > NOISE_FLOOR;
            let regressed = beyond_noise
                && match dir {
                    Direction::LowerIsBetter => fv > bv * (1.0 + tolerance),
                    Direction::HigherIsBetter => fv < bv * (1.0 - tolerance),
                };
            lines.push(DiffLine {
                key: f.key.clone(),
                metric: metric.clone(),
                baseline: bv,
                fresh: fv,
                ratio,
                regressed,
            });
        }
    }
    DiffReport {
        lines,
        unmatched_fresh,
        unmatched_baseline: baseline
            .iter()
            .filter(|b| !matched_keys.contains_key(b.key.as_str()))
            .count(),
        tolerance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(line: &str) -> Vec<BenchRecord> {
        parse_jsonl(line).expect("parse")
    }

    #[test]
    fn identity_key_ignores_metrics_and_nested_objects() {
        let r = rec(
            r#"{"fig": "prefetch", "label": "YH", "algo": "deepwalk", "threads": 1,
                "ring_depth": 8, "wall_s": 1.5, "per_step_ns": 53.0,
                "prefetches": 86000000, "stats": {"nested": 1}}"#
                .replace('\n', " ")
                .as_str(),
        );
        assert_eq!(r.len(), 1);
        assert_eq!(
            r[0].key,
            "algo=deepwalk fig=prefetch label=YH ring_depth=1 threads=1"
                .replace("ring_depth=1", "ring_depth=8")
        );
        assert_eq!(r[0].metrics.len(), 2);
        assert_eq!(r[0].metrics["per_step_ns"], 53.0);
    }

    #[test]
    fn parse_rejects_garbage_and_missing_identity() {
        assert!(parse_jsonl("{not json}").is_err());
        assert!(parse_jsonl(r#"{"fig": "x"}"#).is_err());
        assert!(parse_jsonl("").unwrap().is_empty());
    }

    #[test]
    fn diff_directions_and_tolerance() {
        let base = rec(
            r#"{"fig": "f", "label": "l", "wall_s": 1.0, "speedup": 2.0}"#,
        );
        // Within tolerance both ways: pass.
        let ok = rec(r#"{"fig": "f", "label": "l", "wall_s": 1.3, "speedup": 1.6}"#);
        assert!(diff(&base, &ok, 0.5).pass());
        // Slower beyond tolerance: lower-is-better regresses.
        let slow = rec(r#"{"fig": "f", "label": "l", "wall_s": 1.6}"#);
        let report = diff(&base, &slow, 0.5);
        assert!(!report.pass());
        assert_eq!(report.regressions().count(), 1);
        // Speedup collapse: higher-is-better regresses.
        let collapsed = rec(r#"{"fig": "f", "label": "l", "speedup": 0.5}"#);
        assert!(!diff(&base, &collapsed, 0.5).pass());
        // Faster is never a regression.
        let fast = rec(r#"{"fig": "f", "label": "l", "wall_s": 0.1, "speedup": 9.0}"#);
        assert!(diff(&base, &fast, 0.5).pass());
    }

    #[test]
    fn diff_counts_unmatched_cells() {
        let base = rec(
            "{\"fig\": \"f\", \"label\": \"a\", \"wall_s\": 1.0}\n\
             {\"fig\": \"f\", \"label\": \"b\", \"wall_s\": 1.0}",
        );
        let fresh = rec(
            "{\"fig\": \"f\", \"label\": \"a\", \"wall_s\": 1.0}\n\
             {\"fig\": \"f\", \"label\": \"c\", \"wall_s\": 1.0}",
        );
        let report = diff(&base, &fresh, 0.5);
        assert!(report.pass());
        assert_eq!(report.unmatched_fresh, 1);
        assert_eq!(report.unmatched_baseline, 1);
        assert_eq!(report.lines.len(), 1);
    }
}
