//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! FlashMob paper (see `DESIGN.md` for the index).  They share:
//!
//! * [`HarnessOpts`] — a tiny argument parser (`--full`, `--scale`,
//!   `--steps N`, `--walkers-mult N`) so every experiment can run at a
//!   quick default or the paper's full workload;
//! * [`analog`] — cached generation of the five graph analogs;
//! * [`micro::measure_point`] — the real sample kernel timed on a
//!   synthetic VP (Figure 6);
//! * small table-formatting helpers.

pub mod micro;

use std::time::Instant;

use fm_graph::presets::{AnalogScale, PaperGraph};
use fm_graph::Csr;

/// Common command-line options for harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Graph analog scale.
    pub scale: AnalogScale,
    /// Walk length (paper default: 80 for DeepWalk, 40 for node2vec).
    pub steps: usize,
    /// Walkers as a multiple of |V| (paper runs 10 x |V| in total).
    pub walkers_mult: usize,
    /// Worker threads.
    pub threads: usize,
}

impl HarnessOpts {
    /// Parses `std::env::args`, defaulting to a quick configuration;
    /// `--full` selects the paper's workload (80 steps, larger analogs).
    pub fn from_args() -> Self {
        let mut opts = Self {
            scale: AnalogScale::Test,
            steps: 16,
            walkers_mult: 1,
            threads: 1,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => {
                    opts.scale = AnalogScale::Bench;
                    opts.steps = 80;
                }
                "--scale" => {
                    opts.scale = match args.next().as_deref() {
                        Some("test") => AnalogScale::Test,
                        Some("bench") => AnalogScale::Bench,
                        Some("large") => AnalogScale::Large,
                        other => panic!("--scale expects test|bench|large, got {other:?}"),
                    }
                }
                "--steps" => {
                    opts.steps = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--steps expects a number");
                }
                "--walkers-mult" => {
                    opts.walkers_mult = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--walkers-mult expects a number");
                }
                "--threads" => {
                    opts.threads = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--threads expects a number");
                }
                other => panic!("unknown argument {other:?} (try --full)"),
            }
        }
        opts
    }
}

const ANALOG_CACHE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/fm-analog-cache");

/// Generates (and memoizes on disk) the analog for one paper graph.
///
/// Generation is deterministic, but the larger analogs take seconds to
/// wire, so they are cached under the workspace's
/// `target/fm-analog-cache/`, whatever directory the caller runs from.
pub fn analog(which: PaperGraph, scale: AnalogScale) -> Csr {
    let dir = std::path::Path::new(ANALOG_CACHE_DIR);
    let name = format!("{}-{:?}.bin", which.tag().to_lowercase(), scale);
    let path = dir.join(name);
    if let Ok(g) = fm_graph::io::load_binary(&path) {
        return g;
    }
    let g = which.analog(scale);
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = fm_graph::io::save_binary(&g, &path);
    }
    g
}

/// Planner parameters appropriate for the analog scale: the hierarchy is
/// scaled down with the graphs so cache-residency crossovers appear at
/// the same relative working-set sizes as on the paper's server.
pub fn scaled_planner(scale: AnalogScale) -> flashmob::PlannerParams {
    let divisor = match scale {
        AnalogScale::Test => 64,
        AnalogScale::Bench => 8,
        AnalogScale::Large => 2,
    };
    flashmob::PlannerParams {
        hierarchy: fm_memsim::HierarchyConfig::scaled(divisor),
        target_groups: 64,
        max_partitions: 2048,
        min_vp_vertices: 32,
    }
}

/// Times a closure, returning (result, elapsed seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Prints a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

/// Formats a byte count with binary units.
pub fn fmt_bytes(b: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1}{}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_bytes(512), "512.0B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }

    #[test]
    fn analog_cache_round_trips() {
        // Anchored to the workspace, not to the cwd (`cargo test` runs
        // this from `crates/bench`): the first call must write the file
        // there, the second load it back.
        let cached = std::path::Path::new(ANALOG_CACHE_DIR).join("yt-Test.bin");
        let _ = std::fs::remove_file(&cached);
        let a = analog(PaperGraph::Youtube, AnalogScale::Test);
        assert!(cached.is_file(), "{} missing", cached.display());
        let b = analog(PaperGraph::Youtube, AnalogScale::Test);
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn scaled_planner_shrinks_caches() {
        let p = scaled_planner(AnalogScale::Test);
        assert!(p.hierarchy.l2.size_bytes < 1 << 20);
    }
}
