//! `fmbench aa`: does the benchmark agree with itself?
//!
//! Two interleaved sets of runs of the same binary, on the same seeds.
//! Whatever separates the two sets' medians is noise, and a bound in
//! `BENCHMARK.json` that such a gap can reach would reject innocent
//! changes -- so a bound may only be moved on this evidence: to three
//! times the largest gap seen here or more.

use std::process::Command;

use fm_telemetry::json::{self, Value};

use crate::estimator;
use crate::inputs;
use crate::workloads::{Workload, WORKLOADS};

/// A declared end-to-end metric: name and bound, from `BENCHMARK.json`.
fn declared_bounds() -> Result<Vec<(String, f64)>, String> {
    let path = inputs::bench_dir().join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text)?;
    v.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_num)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// One child run: the metrics of its result line, by name.
fn child_run(w: &Workload, seed: u64, forward: &[String]) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["run", w.name, "--seed", &seed.to_string()])
        .args(forward)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let v = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    if !matches!(v.get("correct"), Some(Value::Bool(true))) {
        return Err(format!("{} seed {seed} was not correct: {last}", w.name));
    }
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_num)
                .ok_or("metric without a value")?;
            Ok((name.clone(), value))
        })
        .collect()
}

fn column(runs: &[Vec<(String, f64)>], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
        .collect()
}

/// Runs the A/A comparison and prints one table row per metric;
/// `Ok(false)` when a gap exceeds its bound.
pub fn run(which: &str, runs: usize, forward: &[String]) -> Result<bool, String> {
    let bounds = declared_bounds()?;
    let selected: Vec<&Workload> = match which {
        "all" => WORKLOADS.iter().collect(),
        name => {
            vec![crate::workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?]
        }
    };
    let mut rows = Vec::new();
    let mut within = true;
    for w in selected {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..runs {
            let seed = i as u64 + 1;
            // Alternate which set goes first, so that neither always
            // runs on the other's warm page cache.
            let mut order = [&mut a, &mut b];
            if i % 2 == 1 {
                order.reverse();
            }
            for set in order {
                set.push(child_run(w, seed, forward)?);
                eprintln!("aa: {} seed {seed} done", w.name);
            }
        }
        for (name, bound) in &bounds {
            let (va, vb) = (column(&a, name), column(&b, name));
            let (ma, mb) = (
                estimator::median(&va).ok_or("no runs")?,
                estimator::median(&vb).ok_or("no runs")?,
            );
            let gap = (mb - ma).abs() / ma;
            let all: Vec<f64> = va.iter().chain(&vb).copied().collect();
            let range = (all.iter().copied().fold(f64::MIN, f64::max)
                - all.iter().copied().fold(f64::MAX, f64::min))
                / estimator::median(&all).ok_or("no runs")?;
            within &= gap <= *bound;
            rows.push(format!(
                "| {} | {name} | {ma:.4} | {mb:.4} | {:.2} % | {:.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                w.name,
                100.0 * gap,
                100.0 * estimator::iqr_over_median(&va).unwrap_or(0.0),
                100.0 * estimator::iqr_over_median(&vb).unwrap_or(0.0),
                100.0 * range,
                100.0 * bound,
                if gap <= *bound { "ok" } else { "OVER" },
            ));
        }
    }
    println!("| workload | metric | median A | median B | gap | IQR/median A | IQR/median B | (max-min)/median | bound | |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for row in rows {
        println!("{row}");
    }
    println!(
        "aa: {runs} runs per set; {}",
        if within {
            "every gap is within its bound"
        } else {
            "a gap is OVER its bound"
        }
    );
    Ok(within)
}
