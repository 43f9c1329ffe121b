//! The run protocol shared by every workload: closed loop, one client,
//! one thread, in process.
//!
//! * Phase 0: set up once, walk one episode, read `VmHWM`, then check
//!   the output (digest, shape, hops).
//! * Phase 1: `SETUP_REPS` repetitions of `[input file -> engine ready]`,
//!   each followed by the cold first episode on the fresh engine.
//! * Phase 2: at least `MIN_WARM_EPISODES` warm episodes on the last
//!   engine.  Every episode is the same walk, so work per episode is
//!   exact and every digest must equal Phase 0's.
//!
//! Every timed sample is followed at once by a calibration sample: the
//! kernel of `calib` that does the workload's kind of work.  A sample's
//! host-relative time is `raw × C_ref / calib`, and a timing's value is
//! the median of its host-relative samples (see `estimator`).

use std::fs::File;
use std::hint::black_box;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

use flashmob::oocore::{self, DiskGraph, OocStats};
use flashmob::{FlashMob, RunStats, WalkConfig, WalkError, WalkOutput};
use fm_graph::io::{self, ParseOptions};
use fm_graph::relabel::Relabeling;
use fm_graph::{Csr, GraphError};

use crate::check::{self, Tally};
use crate::estimator::{self, Sample, Summary};
use crate::metrics::{Metric, E2E_S, END_TO_END, PEAK_RSS_MB, SETUP_S, WALK_NS_PER_STEP};
use crate::workloads::{Algo, Calib, Format, Scale, Workload};
use crate::{calib, host, inputs};

pub const SETUP_REPS: usize = 5;
pub const MIN_WARM_EPISODES: usize = 10;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub scale: Scale,
    pub seed: u64,
    /// Phases 1 and 2 together last at least this long; more seconds
    /// mean more warm episodes, never a different episode.
    pub seconds: f64,
    pub cache_dir: PathBuf,
    /// Expected Phase 0 digest, when one is pinned for `seed`.
    pub golden: Option<u64>,
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

pub fn load_input(w: &Workload, path: &Path) -> Result<Csr, GraphError> {
    match w.format {
        Format::Fmg1 => io::load_binary(path),
        Format::Text => io::read_edge_list_file(path, ParseOptions::default()),
    }
}

pub fn walk_config(w: &Workload, vertices: usize, seed: u64) -> WalkConfig {
    let base = match w.algo {
        Algo::DeepWalk => WalkConfig::deepwalk(),
        Algo::Node2Vec { p, q } => WalkConfig::node2vec(p, q),
    };
    base.walkers(w.walkers(vertices)).steps(w.steps).seed(seed)
}

/// Removes the FMDISK1 file an out-of-core set-up wrote.
#[derive(Debug)]
pub struct TempFile(pub PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// An out-of-core engine: the graph on disk plus what walks it.
#[derive(Debug)]
pub struct OocEngine {
    /// The handle that walks: reopened from the file, as a second
    /// process would.
    pub disk: DiskGraph,
    /// The handle that wrote the file; only it knows the map from
    /// sorted ids back to input ids.
    pub created: DiskGraph,
    pub config: WalkConfig,
    pub budget_bytes: usize,
    _file: TempFile,
}

/// An engine ready to walk.
#[derive(Debug)]
pub enum Engine {
    Mem(Box<FlashMob>),
    Ooc(Box<OocEngine>),
}

impl Engine {
    /// Maps output positions back to input ids (see `check::hops`).
    pub fn relabel_override(&self) -> Option<&Relabeling> {
        match self {
            Engine::Mem(_) => None,
            Engine::Ooc(e) => Some(e.created.relabeling()),
        }
    }
}

/// The budget of the out-of-core engine: a quarter of the FMDISK1 file.
pub fn ooc_budget(file_bytes: u64) -> usize {
    (file_bytes / 4) as usize
}

/// Writes `graph` as FMDISK1 at `file` and reopens it.
pub fn ooc_setup(graph: &Csr, config: WalkConfig, file: PathBuf) -> Result<OocEngine, WalkError> {
    let guard = TempFile(file);
    let created = DiskGraph::create(graph, &guard.0)?;
    let disk = DiskGraph::open(&guard.0)?;
    let file_bytes = std::fs::metadata(&guard.0)
        .map_err(|e| GraphError::io_at(&guard.0, None, e))?
        .len();
    Ok(OocEngine {
        disk,
        created,
        config,
        budget_bytes: ooc_budget(file_bytes),
        _file: guard,
    })
}

/// The timed set-up: unsorted graph file on disk -> engine ready to
/// walk.  The loaded input is handed back so that the caller can stop
/// the clock before dropping it.
pub fn setup(
    w: &Workload,
    input: &Path,
    seed: u64,
    scratch: &Path,
) -> Result<(Engine, Csr), WalkError> {
    let graph = load_input(w, input)?;
    let config = walk_config(w, graph.vertex_count(), seed);
    let engine = if w.out_of_core {
        Engine::Ooc(Box::new(ooc_setup(&graph, config, scratch.to_path_buf())?))
    } else {
        Engine::Mem(Box::new(FlashMob::new(&graph, config)?))
    };
    Ok((engine, graph))
}

/// Statistics the engine returned with an episode.
#[derive(Debug, Clone)]
pub enum EngineStats {
    Mem(RunStats),
    Ooc(OocStats),
}

impl EngineStats {
    pub fn steps_taken(&self) -> u64 {
        match self {
            EngineStats::Mem(s) => s.steps_taken,
            EngineStats::Ooc(s) => s.steps_taken,
        }
    }
}

/// One episode's output.
#[derive(Debug)]
pub struct Episode {
    pub output: WalkOutput,
    /// `WalkOutput::paths()`, for the workload that materialises it.
    pub paths: Option<Vec<Vec<u32>>>,
    pub stats: EngineStats,
}

/// The timed episode: walker init, every step, path recording, and the
/// output returned (materialised as per-walker paths where the workload
/// says so).
pub fn episode(engine: &Engine, materialise_paths: bool) -> Result<Episode, WalkError> {
    let (output, stats) = match engine {
        Engine::Mem(e) => {
            let (out, stats) = e.run_with_stats()?;
            (out, EngineStats::Mem(stats))
        }
        Engine::Ooc(e) => {
            let (out, stats) = oocore::run_ooc(&e.disk, &e.config, e.budget_bytes)?;
            (out, EngineStats::Ooc(stats))
        }
    };
    let paths = materialise_paths.then(|| output.paths());
    Ok(Episode {
        output,
        paths,
        stats,
    })
}

/// What a workload's calibration kernel reads, held in memory.
#[derive(Debug)]
pub enum Calibrator {
    Walk { graph: Csr, steps: u64 },
    ParseBuild { text: Vec<u8> },
}

impl Calibrator {
    /// `graph` is the workload's input as loaded from `input`.
    pub fn new(w: &Workload, scale: Scale, input: &Path, graph: Csr) -> std::io::Result<Self> {
        let size = w.calib_size(scale);
        Ok(match w.calib {
            Calib::Walk => Calibrator::Walk { graph, steps: size },
            Calib::ParseBuild => {
                let mut text = Vec::new();
                File::open(input)?.take(size).read_to_end(&mut text)?;
                // Whole lines only.
                let lines = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                text.truncate(lines);
                Calibrator::ParseBuild { text }
            }
        })
    }

    /// Times one calibration sample.
    pub fn sample(&self) -> f64 {
        let (sum, secs) = timed(|| match self {
            Calibrator::Walk { graph, steps } => calib::walk(graph, *steps),
            Calibrator::ParseBuild { text } => calib::parse_build(text),
        });
        black_box(sum);
        secs
    }
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunReport {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

/// The four end-to-end metrics at zero: what a run that could not
/// measure reports next to `"correct": false`.
fn unmeasured() -> Vec<Metric> {
    END_TO_END.iter().map(|d| d.with(0.0)).collect()
}

fn print_summary(what: &str, s: &Summary, samples: &[Sample]) {
    println!(
        "  {what}: {:.4} s (median of {}; fastest {:.4}, max {:.4}; host factor {:.3})",
        s.value, s.count, s.fastest, s.max, s.host_factor,
    );
    let pairs: Vec<String> = samples
        .iter()
        .map(|s| format!("{:.4}/{:.4}", s.raw, s.calib))
        .collect();
    println!("    raw/calibration seconds: {}", pairs.join(" "));
}

/// Runs the protocol on `w` and prints what it measures.
pub fn run(w: &Workload, opts: &RunOpts) -> RunReport {
    let mut tally = Tally::default();
    let metrics = measure(w, opts, &mut tally).unwrap_or_else(unmeasured);
    RunReport { tally, metrics }
}

/// `None` as soon as an operation the rest depends on has failed (the
/// failure is already in `tally`).
fn measure(w: &Workload, opts: &RunOpts, tally: &mut Tally) -> Option<Vec<Metric>> {
    let pinned = w.fingerprint(opts.scale);
    let input = tally.require(
        "input cache",
        inputs::ensure(w, opts.scale, &opts.cache_dir),
    )?;
    tally.require(
        "input file fingerprint",
        inputs::verify_file(&input, pinned),
    )?;
    let scratch = opts
        .cache_dir
        .join(format!("{}-{}.fmdisk", w.name, std::process::id()));
    let calib_ref = w.calib_ref_s(opts.scale);

    // Phase 0: one set-up, one episode, peak memory, then the checks.
    let (engine, graph) = tally.require("phase 0 set-up", setup(w, &input, opts.seed, &scratch))?;
    let shape = (graph.vertex_count() as u64, graph.edge_count() as u64);
    let walkers = w.walkers(graph.vertex_count());
    drop(graph);
    tally.require(
        "input graph fingerprint",
        if shape == (pinned.vertices, pinned.edges) {
            Ok(())
        } else {
            Err(format!(
                "loaded |V|, |E| = {shape:?}, pinned ({}, {})",
                pinned.vertices, pinned.edges
            ))
        },
    )?;
    let first = tally.require("phase 0 episode", episode(&engine, w.materialise_paths))?;
    // Before the calibration graph exists: this is the memory a user of
    // the engine pays, not the benchmark's.
    let peak_rss_mb = tally.require(
        "read VmHWM",
        host::peak_rss_mb().ok_or("/proc/self/status has no VmHWM"),
    )?;
    let steps_taken = first.stats.steps_taken();
    let expected = check::digest(&first.output);
    println!(
        "phase 0: {walkers} walkers × {} steps, digest {expected:#018x}",
        w.steps
    );
    let shaped = tally.record(
        "output shape",
        check::shape(&first.output, steps_taken, walkers, w.steps),
    );
    if let Some(paths) = &first.paths {
        tally.record("paths shape", check::paths_shape(paths, walkers, w.steps));
    }
    if let Some(golden) = opts.golden {
        tally.record(
            "golden digest",
            check::same_digest(expected, golden, "pinned"),
        );
    }
    // The workload's own input, in memory: the hop check reads it now, the
    // calibration kernel from here on.
    let graph = tally.require("input graph", load_input(w, &input))?;
    if shaped {
        tally.record(
            "hops are input edges",
            check::hops(&graph, &first.output, engine.relabel_override()),
        );
    }
    drop(first);
    drop(engine);
    let calibrator = tally.require(
        "calibration input",
        Calibrator::new(w, opts.scale, &input, graph),
    )?;

    // A timed episode's outcome: it ran, and it is Phase 0's walk again.
    let check_episode = |tally: &mut Tally, what: &str, ep: Result<Episode, WalkError>| {
        let ep = tally.require(what, ep)?;
        let same = ep.stats.steps_taken() == steps_taken;
        tally.record(
            what,
            check::same_digest(check::digest(&ep.output), expected, "phase 0 had").and_then(|()| {
                same.then_some(())
                    .ok_or_else(|| "step count differs from phase 0".to_string())
            }),
        );
        Some(())
    };

    // Phase 1: set-up repetitions, each with its cold episode.
    let measure_start = Instant::now();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut colds = Vec::with_capacity(SETUP_REPS);
    let mut last_engine = None;
    for _ in 0..SETUP_REPS {
        drop(last_engine.take());
        let (ready, raw) = timed(|| setup(w, &input, opts.seed, &scratch));
        // One calibration between the two samples is adjacent to both.
        let calib = calibrator.sample();
        let (engine, loaded) = tally.require("set-up", ready)?;
        drop(loaded);
        setups.push(Sample { raw, calib });
        let (ep, raw) = timed(|| episode(&engine, w.materialise_paths));
        check_episode(tally, "cold episode", ep)?;
        colds.push(Sample { raw, calib });
        last_engine = Some(engine);
    }

    // Phase 2: warm episodes on the last engine.
    let engine = last_engine.expect("SETUP_REPS > 0");
    let mut warms = Vec::new();
    while warms.len() < MIN_WARM_EPISODES || measure_start.elapsed().as_secs_f64() < opts.seconds {
        let (ep, raw) = timed(|| episode(&engine, w.materialise_paths));
        let calib = calibrator.sample();
        check_episode(tally, "warm episode", ep)?;
        warms.push(Sample { raw, calib });
    }
    drop(engine);

    let setup = estimator::summarise(&setups, calib_ref)?;
    let cold = estimator::summarise(&colds, calib_ref)?;
    let warm = estimator::summarise(&warms, calib_ref)?;
    let calibs: Vec<f64> = setups.iter().chain(&warms).map(|s| s.calib).collect();
    println!(
        "calibration: {} samples, reference {calib_ref:.4} s, median {:.4} s, IQR/median {:.3}",
        calibs.len(),
        estimator::median(&calibs).unwrap_or(0.0),
        estimator::iqr_over_median(&calibs).unwrap_or(0.0),
    );
    println!("timings at reference-host speed (raw × C_ref / calibration, sample by sample):");
    print_summary("set-up", &setup, &setups);
    print_summary("cold episode", &cold, &colds);
    print_summary("warm episode", &warm, &warms);
    let per_step = 1e9 / steps_taken as f64;
    println!(
        "  warm step: {:.4} ns ({steps_taken} steps per episode)",
        warm.value * per_step
    );
    let e2e = setup.value + cold.value + (w.corpus_episodes - 1) as f64 * warm.value;
    println!(
        "  corpus of {} episodes: set-up is {:.1} % of e2e_s",
        w.corpus_episodes,
        100.0 * setup.value / e2e
    );
    Some(vec![
        SETUP_S.with(setup.value),
        WALK_NS_PER_STEP.with(warm.value * per_step),
        E2E_S.with(e2e),
        PEAK_RSS_MB.with(peak_rss_mb),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::result_json;
    use crate::workloads::{self, DEFAULT_SEED, WORKLOADS};

    /// A private cache directory holding `w`'s test-scale input.
    fn private_cache(test: &str, w: &Workload) -> RunOpts {
        let cache_dir =
            inputs::default_cache_dir().join(format!("test-{test}-{}", std::process::id()));
        inputs::generate(w, Scale::Test, &cache_dir).unwrap();
        RunOpts {
            scale: Scale::Test,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            cache_dir,
            golden: Some(w.golden(Scale::Test)),
        }
    }

    #[test]
    fn every_workload_is_correct_at_test_scale() {
        for w in &WORKLOADS {
            let opts = private_cache("correct", w);
            let report = run(w, &opts);
            assert!(report.tally.correct(), "{} failed a check", w.name);
            // One operation per set-up, episode and check.
            assert!(report.tally.attempted >= (2 * SETUP_REPS + MIN_WARM_EPISODES) as u64);
            let names: Vec<_> = report.metrics.iter().map(|m| m.def).collect();
            assert_eq!(names, END_TO_END);
            assert!(
                report.metrics.iter().all(|m| m.value > 0.0),
                "{}: a metric is 0",
                w.name
            );
            std::fs::remove_dir_all(&opts.cache_dir).unwrap();
        }
    }

    #[test]
    fn a_corrupted_cache_file_fails_the_run() {
        let w = workloads::find("dw_yh").unwrap();
        let opts = private_cache("corrupt", w);
        let path = opts.cache_dir.join(w.input_name(Scale::Test));
        let mut bytes = std::fs::read(&path).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let report = run(w, &opts);
        assert!(report.tally.failed > 0);
        let line = result_json(report.tally.attempted, report.tally.failed, &report.metrics);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        // The damaged file is still there: nothing was regenerated.
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&opts.cache_dir).unwrap();
    }

    #[test]
    fn a_flipped_golden_digest_fails_the_run() {
        let w = workloads::find("ooc_n2v_yh").unwrap();
        let mut opts = private_cache("golden", w);
        opts.golden = Some(w.golden(Scale::Test) ^ 1);
        let report = run(w, &opts);
        assert_eq!(report.tally.failed, 1);
        let line = result_json(report.tally.attempted, report.tally.failed, &report.metrics);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        std::fs::remove_dir_all(&opts.cache_dir).unwrap();
    }
}
