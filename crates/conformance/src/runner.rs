//! The differential conformance runner.
//!
//! Sweeps the full engine/algorithm/thread lattice on one canonical
//! small graph and checks every cell twice:
//!
//! 1. **Statistically**, against the exact oracle.  Two chi-square
//!    tests per cell, both over quantities that are i.i.d. across
//!    walkers (one sample per walker, so Pearson's test is valid,
//!    unlike whole-path visit counts whose within-walker correlation
//!    would wreck the statistic):
//!    * final-step occupancy vs. the oracle's `k`-step distribution;
//!    * the last hop `(position_{k-1}, position_k)` vs. the oracle's
//!      exact last-hop edge distribution.
//!
//!    Seeds are fixed, so every p-value is a deterministic number:
//!    a cell either passes forever or fails forever — zero flake
//!    budget.  The acceptance threshold is Bonferroni-corrected: the
//!    global `ALPHA` is split evenly over every test the lattice runs.
//! 2. **Bit-exactly**, against committed golden digests
//!    ([`crate::golden`]): the FNV-1a digest of the full path matrix
//!    (plus, for FlashMob cells, the per-partition RNG stream ids of
//!    every iteration) must match the committed value, so a refactor
//!    that silently re-seeds or re-orders sampling fails loudly even
//!    if the perturbed walk is still statistically fine.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fm_graph::{synth, Csr, VertexId};
use fm_rng::gof::chi_square_test;
use fm_telemetry::{Stage, Telemetry, NO_PARTITION};
use flashmob::{
    numa::{run_numa_paths, NumaMode},
    oocore::{run_ooc, DiskGraph},
    FlashMob, PlanStrategy, PlannerParams, WalkAlgorithm, WalkConfig, WalkerInit,
};
use fm_baseline::{Baseline, BaselineConfig};

use crate::digest::PathDigest;
use crate::golden;
use crate::oracle::{init_distribution, EdgeIndex, FirstOrderOracle, Node2VecOracle};

/// node2vec return parameter used throughout the lattice.
pub const NODE2VEC_P: f64 = 0.25;
/// node2vec in-out parameter used throughout the lattice.
pub const NODE2VEC_Q: f64 = 4.0;
/// The lattice seed.  Changing it invalidates every golden digest.
pub const LATTICE_SEED: u64 = 20_210_423; // FlashMob's SOSP submission spring
/// Walkers per cell: enough for tight chi-square power on the
/// canonical graph while keeping the full lattice under a minute.
pub const LATTICE_WALKERS: usize = 12_000;
/// Steps per cell.
pub const LATTICE_STEPS: usize = 8;
/// Simulated sockets for the NUMA modes.
pub const LATTICE_SOCKETS: usize = 2;
/// Global significance level, Bonferroni-split over all tests run.
pub const ALPHA: f64 = 1e-3;
/// Block budget of the out-of-core cells, in bytes: small enough that
/// the 96-vertex graph splits into several blocks.
pub const OOC_BUDGET: usize = 2 * 1024;

/// The canonical unweighted conformance graph: a fixed power-law graph
/// small enough for exact oracles yet irregular enough to exercise
/// degree-group planning, PS and DS partitions, and multi-partition
/// shuffles.
pub fn conformance_graph() -> Csr {
    synth::power_law(96, 2.0, 2, 24, 42)
}

/// The weighted twin of [`conformance_graph`]: same topology, with a
/// deterministic weight in `{1, ..., 7}` derived from the endpoints so
/// the weighted oracle has real skew to verify against.
pub fn weighted_conformance_graph() -> Csr {
    let g = conformance_graph();
    let weights: Vec<f32> = g
        .edges()
        .map(|(u, v)| ((u as u64 * 31 + v as u64 * 17) % 7 + 1) as f32)
        .collect();
    Csr::from_parts(g.offsets().to_vec(), g.targets().to_vec(), Some(weights))
        .expect("same topology stays valid")
}

/// Planner parameters scaled to the 96-vertex conformance graph.
pub(crate) fn conformance_planner() -> PlannerParams {
    PlannerParams {
        target_groups: 8,
        max_partitions: 16,
        min_vp_vertices: 8,
        ..PlannerParams::default()
    }
}

/// Engine / policy dimension of the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// FlashMob with the MCKP/DP auto-plan.
    FlashMobAuto,
    /// FlashMob forced to uniform pre-sampling partitions.
    FlashMobPs,
    /// FlashMob forced to uniform direct-sampling partitions.
    FlashMobDs,
    /// FlashMob-P cross-socket mode.
    NumaP,
    /// FlashMob-R cross-socket mode (per-socket instances).
    NumaR,
    /// The out-of-core streaming engine.
    OutOfCore,
    /// KnightKing walker-at-a-time baseline.
    KnightKing,
    /// GraphVite alias-table baseline.
    GraphVite,
}

impl EngineKind {
    /// All engines, in lattice order.
    pub const ALL: [EngineKind; 8] = [
        EngineKind::FlashMobAuto,
        EngineKind::FlashMobPs,
        EngineKind::FlashMobDs,
        EngineKind::NumaP,
        EngineKind::NumaR,
        EngineKind::OutOfCore,
        EngineKind::KnightKing,
        EngineKind::GraphVite,
    ];

    /// Display label (also the golden-table key).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::FlashMobAuto => "flashmob-auto",
            EngineKind::FlashMobPs => "flashmob-ps",
            EngineKind::FlashMobDs => "flashmob-ds",
            EngineKind::NumaP => "numa-p",
            EngineKind::NumaR => "numa-r",
            EngineKind::OutOfCore => "oocore",
            EngineKind::KnightKing => "knightking",
            EngineKind::GraphVite => "graphvite",
        }
    }

    /// Why this engine cannot run a cell, if it cannot.
    pub fn skip_reason(self, algo: AlgoKind, threads: usize) -> Option<&'static str> {
        match self {
            EngineKind::OutOfCore if algo == AlgoKind::Weighted => {
                Some("out-of-core walking does not support weighted graphs")
            }
            EngineKind::OutOfCore if threads > 1 => {
                Some("out-of-core walking is single-threaded")
            }
            _ => None,
        }
    }
}

/// Algorithm dimension of the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// First-order uniform.
    DeepWalk,
    /// First-order weight-proportional (on the weighted twin graph).
    Weighted,
    /// Second-order node2vec with [`NODE2VEC_P`] / [`NODE2VEC_Q`].
    Node2Vec,
}

impl AlgoKind {
    /// All algorithms, in lattice order.
    pub const ALL: [AlgoKind; 3] = [AlgoKind::DeepWalk, AlgoKind::Weighted, AlgoKind::Node2Vec];

    /// Display label (also the golden-table key).
    pub fn label(self) -> &'static str {
        match self {
            AlgoKind::DeepWalk => "deepwalk",
            AlgoKind::Weighted => "weighted",
            AlgoKind::Node2Vec => "node2vec",
        }
    }

    /// The engine-side algorithm specification.
    pub fn walk_algorithm(self) -> WalkAlgorithm {
        match self {
            AlgoKind::DeepWalk => WalkAlgorithm::DeepWalk,
            AlgoKind::Weighted => WalkAlgorithm::Weighted,
            AlgoKind::Node2Vec => WalkAlgorithm::Node2Vec {
                p: NODE2VEC_P,
                q: NODE2VEC_Q,
            },
        }
    }
}

/// Which slice of the lattice to run.
#[derive(Debug, Clone)]
pub struct LatticeConfig {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Whether digests must match the committed golden table.
    pub check_golden: bool,
    /// Walker-ring depth forced on every FlashMob and out-of-core cell
    /// (`None`: the cost model's choice).  No digest may depend on it.
    pub ring_depth: Option<usize>,
}

impl LatticeConfig {
    /// The CI tier: every engine and algorithm at {1, 8} threads.
    pub fn quick() -> Self {
        Self {
            threads: vec![1, 8],
            check_golden: true,
            ring_depth: None,
        }
    }

    /// The pre-release tier: every engine and algorithm at
    /// {1, 2, 3, 8} threads (non-power-of-two counts catch remainder
    /// bugs in the walker-range splitter).
    pub fn full() -> Self {
        Self {
            threads: vec![1, 2, 3, 8],
            check_golden: true,
            ring_depth: None,
        }
    }
}

/// Outcome of one lattice cell.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Both chi-square tests passed and the digest matched (or no
    /// golden entry exists for this cell).
    Pass {
        /// p-value of the final-step occupancy test.
        occupancy_p: f64,
        /// p-value of the last-hop transition test.
        transition_p: f64,
        /// Path digest of the cell.
        digest: u64,
        /// Whether a golden entry was found and verified.
        golden_checked: bool,
    },
    /// The cell is not runnable on this engine.
    Skipped {
        /// Why.
        reason: &'static str,
    },
    /// The cell ran but failed a check (or failed to run).
    Fail {
        /// What went wrong.
        reason: String,
    },
}

/// One cell of the lattice with its outcome.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Engine dimension.
    pub engine: EngineKind,
    /// Algorithm dimension.
    pub algo: AlgoKind,
    /// Thread count.
    pub threads: usize,
    /// What happened.
    pub outcome: Outcome,
    /// Hints the in-memory engine's partition stream issued while the
    /// cell ran (`RunStats::per_partition_stream_hints`, summed; 0 for
    /// the other engines).  A lattice in which no cell reports any has
    /// never run the hint stage and proves nothing about it.
    pub stream_hints: u64,
    /// Draws the cell's PS refills reserved instead of producing
    /// (`RunStats::per_partition_ps_reserved`, summed; 0 for the other
    /// engines).  The lattice is dense — 12 000 walkers on 96 vertices —
    /// so the engine's rule produces everywhere in it and this reads 0:
    /// the reserved form is proven invisible where it can be forced
    /// (`engine::tests::reserved_generations_are_invisible`), and a run
    /// that does reserve says so in `walk --stats`.
    pub reserved_draws: u64,
}

/// The full lattice report.
#[derive(Debug, Clone)]
pub struct LatticeReport {
    /// Every cell, in sweep order.
    pub cells: Vec<Cell>,
    /// The Bonferroni-corrected per-test alpha that was applied.
    pub per_test_alpha: f64,
}

impl LatticeReport {
    /// All failing cells.
    pub fn failures(&self) -> Vec<&Cell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, Outcome::Fail { .. }))
            .collect()
    }

    /// Counts of (passed, skipped, failed).
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for c in &self.cells {
            match c.outcome {
                Outcome::Pass { .. } => t.0 += 1,
                Outcome::Skipped { .. } => t.1 += 1,
                Outcome::Fail { .. } => t.2 += 1,
            }
        }
        t
    }
}

/// Raw result of executing one cell.
struct CellData {
    /// Recorded paths, one per walker, original vertex IDs.
    paths: Vec<Vec<VertexId>>,
    /// Extra values folded into the digest (FlashMob cells fold the
    /// per-partition RNG stream ids of every iteration).
    extra: Vec<u64>,
    /// See [`Cell::stream_hints`].
    stream_hints: u64,
    /// See [`Cell::reserved_draws`].
    reserved_draws: u64,
}

/// Unique temp path for out-of-core cells (tests in one process run
/// concurrently, so a pid alone would collide).
pub(crate) fn ooc_temp_path() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "fm-conform-{}-{}.fmdisk",
        std::process::id(),
        n
    ))
}

pub(crate) fn flashmob_config(
    algo: AlgoKind,
    threads: usize,
    ring_depth: Option<usize>,
) -> WalkConfig {
    let mut config = WalkConfig::deepwalk()
        .walkers(LATTICE_WALKERS)
        .steps(LATTICE_STEPS)
        .seed(LATTICE_SEED)
        .init(WalkerInit::UniformEdge)
        .record_paths(true)
        .threads(threads)
        .planner(conformance_planner());
    config.algorithm = algo.walk_algorithm();
    match ring_depth {
        Some(depth) => config.ring_depth(depth),
        None => config,
    }
}

fn run_cell_data(
    graph: &Csr,
    engine: EngineKind,
    algo: AlgoKind,
    threads: usize,
    ring_depth: Option<usize>,
) -> Result<CellData, String> {
    let err = |e: flashmob::WalkError| e.to_string();
    match engine {
        EngineKind::FlashMobAuto | EngineKind::FlashMobPs | EngineKind::FlashMobDs => {
            let strategy = match engine {
                EngineKind::FlashMobAuto => PlanStrategy::DynamicProgramming,
                EngineKind::FlashMobPs => PlanStrategy::UniformPs,
                _ => PlanStrategy::UniformDs,
            };
            let config = flashmob_config(algo, threads, ring_depth).strategy(strategy);
            let fm = FlashMob::new(graph, config).map_err(err)?;
            let mut extra = Vec::new();
            for iter in 0..LATTICE_STEPS {
                extra.extend(fm.partition_stream_ids(iter));
            }
            let (output, stats) = fm.run_with_stats().map_err(err)?;
            Ok(CellData {
                paths: output.paths(),
                extra,
                stream_hints: stats.prefetch_totals().1,
                reserved_draws: stats.pre_sample_totals().1,
            })
        }
        EngineKind::NumaP | EngineKind::NumaR => {
            let mode = if engine == EngineKind::NumaP {
                NumaMode::Partitioned
            } else {
                NumaMode::Replicated
            };
            let base = flashmob_config(algo, threads, ring_depth);
            let outputs = run_numa_paths(graph, base, mode, LATTICE_SOCKETS).map_err(err)?;
            let mut paths = Vec::with_capacity(LATTICE_WALKERS);
            for o in &outputs {
                paths.extend(o.paths());
            }
            Ok(CellData {
                paths,
                extra: Vec::new(),
                stream_hints: 0,
                reserved_draws: 0,
            })
        }
        EngineKind::OutOfCore => {
            let config = flashmob_config(algo, threads, ring_depth);
            let path = ooc_temp_path();
            let disk = DiskGraph::create(graph, &path).map_err(|e| e.to_string())?;
            // A tight budget forces multiple blocks, so pair scheduling,
            // parking and (in the crash matrix) the BBLK frame all run.
            let result = run_ooc(&disk, &config, OOC_BUDGET);
            std::fs::remove_file(&path).ok();
            let (output, _) = result.map_err(err)?;
            Ok(CellData {
                paths: output.paths(),
                extra: Vec::new(),
                stream_hints: 0,
                reserved_draws: 0,
            })
        }
        EngineKind::KnightKing | EngineKind::GraphVite => {
            let base = if engine == EngineKind::KnightKing {
                BaselineConfig::knightking_deepwalk()
            } else {
                BaselineConfig::graphvite_deepwalk()
            };
            let config = base
                .algorithm(algo.walk_algorithm())
                .walkers(LATTICE_WALKERS)
                .steps(LATTICE_STEPS)
                .seed(LATTICE_SEED)
                .init(WalkerInit::UniformEdge)
                .record_paths(true)
                .threads(threads);
            let engine = Baseline::new(graph, config).map_err(err)?;
            let output = engine.run().map_err(err)?;
            Ok(CellData {
                paths: output.paths(),
                extra: Vec::new(),
                stream_hints: 0,
                reserved_draws: 0,
            })
        }
    }
}

/// Exact oracle distributions for one algorithm on its lattice graph:
/// `(occupancy at k, last-hop edge distribution at k, edge bins)`.
type OracleDistributions = (Vec<f64>, Vec<f64>, EdgeIndex);

fn oracle_distributions(graph: &Csr, algo: AlgoKind) -> OracleDistributions {
    let pi0 = init_distribution(graph, &WalkerInit::UniformEdge, LATTICE_WALKERS);
    match algo {
        AlgoKind::DeepWalk | AlgoKind::Weighted => {
            let oracle = if algo == AlgoKind::Weighted {
                FirstOrderOracle::weighted(graph)
            } else {
                FirstOrderOracle::deepwalk(graph)
            };
            (
                oracle.occupancy(&pi0, LATTICE_STEPS),
                oracle.edge_distribution(&pi0, LATTICE_STEPS),
                oracle.edge_index().clone(),
            )
        }
        AlgoKind::Node2Vec => {
            let oracle = Node2VecOracle::new(graph, NODE2VEC_P, NODE2VEC_Q);
            (
                oracle.occupancy(&pi0, LATTICE_STEPS),
                oracle.state_distribution(&pi0, LATTICE_STEPS),
                oracle.edge_index().clone(),
            )
        }
    }
}

fn check_cell(
    data: &CellData,
    occupancy_expected: &[f64],
    edge_expected: &[f64],
    edges: &EdgeIndex,
    alpha: f64,
) -> Result<(f64, f64, u64), String> {
    if data.paths.len() != LATTICE_WALKERS {
        return Err(format!(
            "expected {LATTICE_WALKERS} paths, got {}",
            data.paths.len()
        ));
    }
    let n = occupancy_expected.len();
    let mut occupancy = vec![0u64; n];
    let mut transitions = vec![0u64; edges.len()];
    for path in &data.paths {
        if path.len() != LATTICE_STEPS + 1 {
            return Err(format!(
                "path length {} != steps + 1 = {}",
                path.len(),
                LATTICE_STEPS + 1
            ));
        }
        let last = path[LATTICE_STEPS] as usize;
        if last >= n {
            return Err(format!("vertex {last} out of range"));
        }
        occupancy[last] += 1;
        let (u, v) = (path[LATTICE_STEPS - 1], path[LATTICE_STEPS]);
        match edges.index_of(u, v) {
            Some(i) => transitions[i] += 1,
            None => return Err(format!("walker hopped along non-edge {u} -> {v}")),
        }
    }

    let occ_counts: Vec<f64> = occupancy_expected
        .iter()
        .map(|p| p * LATTICE_WALKERS as f64)
        .collect();
    let occ = chi_square_test(&occupancy, &occ_counts);
    if !occ.fits(alpha) {
        return Err(format!(
            "occupancy chi-square rejected: p = {:.3e} < alpha = {:.3e}",
            occ.p_value, alpha
        ));
    }
    let edge_counts: Vec<f64> = edge_expected
        .iter()
        .map(|p| p * LATTICE_WALKERS as f64)
        .collect();
    let tr = chi_square_test(&transitions, &edge_counts);
    if !tr.fits(alpha) {
        return Err(format!(
            "transition chi-square rejected: p = {:.3e} < alpha = {:.3e}",
            tr.p_value, alpha
        ));
    }

    let mut digest = PathDigest::new();
    digest.fold_u64(data.paths.len() as u64);
    for p in &data.paths {
        digest.fold_path(p);
    }
    for &x in &data.extra {
        digest.fold_u64(x);
    }
    Ok((occ.p_value, tr.p_value, digest.finish()))
}

/// Runs the configured lattice slice and reports every cell.
pub fn run_lattice(config: &LatticeConfig) -> LatticeReport {
    run_lattice_traced(config, &mut Telemetry::off())
}

/// [`run_lattice`] with telemetry: one [`Stage::Cell`] span per
/// *executed* (non-skipped) cell, `step` carrying the cell's index in
/// sweep order, plus a progress tick after every cell so a heartbeat
/// sink can report lattice progress.  Cell execution itself is
/// untouched — digests stay bit-identical to untraced sweeps.
pub fn run_lattice_traced(config: &LatticeConfig, tel: &mut Telemetry) -> LatticeReport {
    let unweighted = conformance_graph();
    let weighted = weighted_conformance_graph();

    // Count runnable cells first so the Bonferroni split is known
    // before any test executes (two chi-square tests per cell).
    let mut runnable = 0usize;
    for engine in EngineKind::ALL {
        for algo in AlgoKind::ALL {
            for &threads in &config.threads {
                if engine.skip_reason(algo, threads).is_none() {
                    runnable += 1;
                }
            }
        }
    }
    let per_test_alpha = ALPHA / (2.0 * runnable.max(1) as f64);

    // Oracle distributions depend only on the algorithm, not the
    // engine or thread count — compute each once.
    let oracles: Vec<(AlgoKind, OracleDistributions)> = AlgoKind::ALL
        .iter()
        .map(|&algo| {
            let graph = if algo == AlgoKind::Weighted {
                &weighted
            } else {
                &unweighted
            };
            (algo, oracle_distributions(graph, algo))
        })
        .collect();

    let total_cells = EngineKind::ALL.len() * AlgoKind::ALL.len() * config.threads.len();
    let mut cells = Vec::new();
    for engine in EngineKind::ALL {
        for algo in AlgoKind::ALL {
            let graph = if algo == AlgoKind::Weighted {
                &weighted
            } else {
                &unweighted
            };
            let (_, (occ, edge, edges)) = oracles
                .iter()
                .find(|(a, _)| *a == algo)
                .expect("oracle precomputed for every algorithm");
            for &threads in &config.threads {
                let cell_index = cells.len();
                let (mut stream_hints, mut reserved_draws) = (0, 0);
                let outcome = if let Some(reason) = engine.skip_reason(algo, threads) {
                    Outcome::Skipped { reason }
                } else {
                    let span_start = tel.is_on().then(|| tel.now_ns());
                    let data = run_cell_data(graph, engine, algo, threads, config.ring_depth);
                    if let Ok(d) = &data {
                        (stream_hints, reserved_draws) = (d.stream_hints, d.reserved_draws);
                    }
                    let outcome = match data
                        .and_then(|data| check_cell(&data, occ, edge, edges, per_test_alpha))
                    {
                        Ok((occupancy_p, transition_p, digest)) => {
                            let expected = golden::lookup(engine.label(), algo.label(), threads);
                            match expected {
                                Some(want) if config.check_golden && want != digest => {
                                    Outcome::Fail {
                                        reason: format!(
                                            "golden digest mismatch: committed {want:#018x}, \
                                             got {digest:#018x} (see DESIGN.md \
                                             \"Correctness methodology\" for regeneration)"
                                        ),
                                    }
                                }
                                _ => Outcome::Pass {
                                    occupancy_p,
                                    transition_p,
                                    digest,
                                    golden_checked: config.check_golden && expected.is_some(),
                                },
                            }
                        }
                        Err(reason) => Outcome::Fail { reason },
                    };
                    if let Some(s) = span_start {
                        tel.span_since(Stage::Cell, s, cell_index as u32, NO_PARTITION);
                    }
                    outcome
                };
                tel.tick(cell_index + 1, total_cells, 0);
                cells.push(Cell {
                    engine,
                    algo,
                    threads,
                    outcome,
                    stream_hints,
                    reserved_draws,
                });
            }
        }
    }
    LatticeReport {
        cells,
        per_test_alpha,
    }
}

/// Digest of one cell without statistical checks — the generator
/// behind `fmwalk conform --emit-golden`.
pub fn cell_digest(engine: EngineKind, algo: AlgoKind, threads: usize) -> Option<u64> {
    if engine.skip_reason(algo, threads).is_some() {
        return None;
    }
    let unweighted = conformance_graph();
    let weighted = weighted_conformance_graph();
    let graph = if algo == AlgoKind::Weighted {
        &weighted
    } else {
        &unweighted
    };
    let data = run_cell_data(graph, engine, algo, threads, None).ok()?;
    let mut d = PathDigest::new();
    d.fold_u64(data.paths.len() as u64);
    for p in &data.paths {
        d.fold_path(p);
    }
    for &x in &data.extra {
        d.fold_u64(x);
    }
    Some(d.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_graph_is_fixed_and_sinkless() {
        let g = conformance_graph();
        assert_eq!(g.vertex_count(), 96);
        assert!(g.has_no_sinks());
        let w = weighted_conformance_graph();
        assert!(w.is_weighted());
        assert_eq!(w.offsets(), g.offsets());
        assert_eq!(w.targets(), g.targets());
    }

    #[test]
    fn skip_matrix_matches_support() {
        assert!(EngineKind::OutOfCore
            .skip_reason(AlgoKind::Weighted, 1)
            .is_some());
        assert!(EngineKind::OutOfCore
            .skip_reason(AlgoKind::DeepWalk, 8)
            .is_some());
        assert!(EngineKind::OutOfCore
            .skip_reason(AlgoKind::DeepWalk, 1)
            .is_none());
        assert!(EngineKind::OutOfCore
            .skip_reason(AlgoKind::Node2Vec, 1)
            .is_none());
        assert!(EngineKind::FlashMobAuto
            .skip_reason(AlgoKind::Node2Vec, 8)
            .is_none());
    }

    #[test]
    fn single_cell_passes_against_oracle() {
        // One representative cell end to end (the full quick lattice
        // runs in the integration suite and in CI via `conform`).
        let graph = conformance_graph();
        let (occ, edge, edges) = oracle_distributions(&graph, AlgoKind::DeepWalk);
        let cell = |ring_depth| {
            run_cell_data(
                &graph,
                EngineKind::FlashMobAuto,
                AlgoKind::DeepWalk,
                1,
                ring_depth,
            )
            .expect("cell runs")
        };
        let data = cell(None);
        let (p_occ, p_tr, digest) =
            check_cell(&data, &occ, &edge, &edges, 1e-6).expect("cell conforms");
        assert!(p_occ > 1e-6 && p_tr > 1e-6);
        assert_ne!(digest, 0);
        // A forced ring depth reaches the cell's config and moves nothing.
        let forced = |ring_depth| flashmob_config(AlgoKind::DeepWalk, 1, ring_depth).ring_depth;
        assert_eq!((forced(None), forced(Some(16))), (None, Some(16)));
        assert_eq!(cell(Some(16)).paths, data.paths);
    }

    #[test]
    fn traced_lattice_records_one_cell_span_per_executed_cell() {
        let config = LatticeConfig {
            threads: vec![1],
            check_golden: false,
            ring_depth: None,
        };
        let mut tel = Telemetry::new();
        let report = run_lattice_traced(&config, &mut tel);
        assert!(report.failures().is_empty(), "lattice must pass");
        let (passed, skipped, _) = report.tally();
        let cell_spans: Vec<u32> = tel
            .events()
            .iter()
            .filter(|e| e.stage == Stage::Cell)
            .map(|e| e.step)
            .collect();
        assert_eq!(
            cell_spans.len(),
            passed,
            "one Cell span per executed cell, none for the {skipped} skipped"
        );
        // Step attribution is the cell index in sweep order: all
        // distinct, all in range, and matching the non-skipped cells.
        for (i, cell) in report.cells.iter().enumerate() {
            let has_span = cell_spans.contains(&(i as u32));
            let skipped = matches!(cell.outcome, Outcome::Skipped { .. });
            assert_eq!(has_span, !skipped, "span presence for cell {i}");
        }
    }

    #[test]
    fn cell_digest_is_reproducible() {
        let a = cell_digest(EngineKind::KnightKing, AlgoKind::DeepWalk, 1).unwrap();
        let b = cell_digest(EngineKind::KnightKing, AlgoKind::DeepWalk, 1).unwrap();
        assert_eq!(a, b);
        assert!(cell_digest(EngineKind::OutOfCore, AlgoKind::Weighted, 1).is_none());
    }
}
