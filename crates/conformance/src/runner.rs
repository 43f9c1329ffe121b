//! The differential conformance runner.
//!
//! Sweeps one lattice — engine × walk × threads — and checks every cell
//! twice:
//!
//! 1. **Statistically**, against the walk's exact oracle.  Every
//!    chi-square runs over a quantity that is i.i.d. across walkers (one
//!    sample per walker, so Pearson's test is valid, unlike whole-path
//!    visit counts whose within-walker correlation would wreck the
//!    statistic):
//!    * deepwalk, weighted and node2vec: final-step occupancy vs. the
//!      oracle's `k`-step distribution, and the last hop
//!      `(position_{k-1}, position_k)` vs. the oracle's exact last-hop
//!      edge distribution;
//!    * the walk programs (PPR, early exit, metapath): the tests and
//!      structural checks of [`crate::program`].
//!
//!    Seeds are fixed, so every p-value is a deterministic number:
//!    a cell either passes forever or fails forever — zero flake
//!    budget.  The acceptance threshold is Bonferroni-corrected: the
//!    global `ALPHA` is split evenly over every test the lattice runs.
//! 2. **Bit-exactly**, against committed golden digests
//!    ([`crate::golden`]): the FNV-1a digest of the full path matrix
//!    (plus, for direct FlashMob cells, the per-partition RNG stream ids
//!    of every iteration) must match the committed value, so a refactor
//!    that silently re-seeds or re-orders sampling fails loudly even
//!    if the perturbed walk is still statistically fine.
//!
//! Cells are the full product.  A cell is skipped only where the engine
//! itself refuses the walk ([`EngineKind::skip_reason`]).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use fm_graph::{synth, Csr, VertexId};
use fm_rng::gof::chi_square_test;
use fm_telemetry::{Stage, Telemetry, NO_PARTITION};
use flashmob::{
    numa::{run_numa_with, NumaMode},
    oocore::{run_ooc_with, DiskGraph},
    FlashMob, MetapathPattern, PlanStrategy, PlannerParams, RunOptions, RunStats, WalkAlgorithm,
    WalkConfig, WalkerInit,
};
use fm_baseline::{Baseline, BaselineConfig, BaselineKind};

use crate::digest::digest_paths;
use crate::golden;
use crate::oracle::{
    init_distribution, EarlyExitOracle, EdgeIndex, FirstOrderOracle, MetapathOracle,
    Node2VecOracle, PprOracle,
};
use crate::program::{check_early_exit, check_metapath, check_ppr};

/// node2vec return parameter used throughout the lattice.
pub const NODE2VEC_P: f64 = 0.25;
/// node2vec in-out parameter used throughout the lattice.
pub const NODE2VEC_Q: f64 = 4.0;
/// PPR restart probability used throughout the lattice.
pub const PPR_ALPHA: f64 = 0.15;
/// Metapath phase pattern used throughout the lattice.
pub const METAPATH_PATTERN: [u8; 2] = [0, 1];
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

/// The labeled twin of [`conformance_graph`]: same topology, with each
/// adjacency slot labeled `slot % 2`.  The canonical graph's minimum
/// out-degree is 2, so every vertex carries both labels and no lattice
/// walker dies — death handling is exercised by the edge-case suite on
/// purpose-built graphs instead.
pub fn labeled_conformance_graph() -> Csr {
    let g = conformance_graph();
    let mut labels = Vec::with_capacity(g.edge_count());
    for u in 0..g.vertex_count() {
        let d = g.degree(u as VertexId);
        labels.extend((0..d).map(|slot| (slot % 2) as u8));
    }
    g.with_edge_labels(labels)
        .unwrap_or_else(|e| unreachable!("labels are parallel to the target array: {e}"))
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

    /// The plan policy of this engine's cells: the auto plan unless the
    /// engine forces one.
    fn strategy(self) -> PlanStrategy {
        match self {
            EngineKind::FlashMobPs => PlanStrategy::UniformPs,
            EngineKind::FlashMobDs => PlanStrategy::UniformDs,
            _ => PlanStrategy::DynamicProgramming,
        }
    }

    /// Why this engine refuses a cell, if it does.  Each reason is the
    /// engine's own: the baselines implement the paper's three
    /// algorithms, and out of core walks DeepWalk, node2vec and PPR on
    /// one thread.
    pub fn skip_reason(self, algo: AlgoKind, threads: usize) -> Option<&'static str> {
        let walk = algo.algorithm();
        match self {
            EngineKind::KnightKing | EngineKind::GraphVite
                if walk.is_stateful() || walk.uses_edge_labels() =>
            {
                Some("the walker-at-a-time baselines do not implement walk programs")
            }
            EngineKind::OutOfCore
                if !matches!(
                    walk,
                    WalkAlgorithm::DeepWalk
                        | WalkAlgorithm::Node2Vec { .. }
                        | WalkAlgorithm::Ppr { .. }
                ) =>
            {
                Some("out-of-core walking supports DeepWalk, node2vec, and PPR only")
            }
            EngineKind::OutOfCore if threads > 1 => Some("out-of-core walking is single-threaded"),
            _ => None,
        }
    }
}

/// Walk dimension of the lattice: the paper's three algorithms and the
/// walk programs, one entry per [`WalkAlgorithm`] variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoKind {
    /// First-order uniform.
    DeepWalk,
    /// First-order weight-proportional (on the weighted twin graph).
    Weighted,
    /// Second-order node2vec with [`NODE2VEC_P`] / [`NODE2VEC_Q`].
    Node2Vec,
    /// Personalized PageRank with restart probability [`PPR_ALPHA`].
    Ppr,
    /// Early-exit walk (die one iteration after returning home).
    EarlyExit,
    /// Metapath walk under [`METAPATH_PATTERN`] on the labeled twin.
    Metapath,
}

impl AlgoKind {
    /// All walks, in lattice order: every [`WalkAlgorithm::ALL`] entry,
    /// as [`AlgoKind::of`] maps it.
    pub const ALL: [AlgoKind; WalkAlgorithm::ALL.len()] = {
        let mut all = [AlgoKind::DeepWalk; WalkAlgorithm::ALL.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = AlgoKind::of(WalkAlgorithm::ALL[i]);
            i += 1;
        }
        all
    };

    /// The lattice walk of an engine walk.  The match is exhaustive on
    /// purpose: a walk added to the engine without a lattice walk (and
    /// with it an oracle) does not build.
    pub const fn of(walk: WalkAlgorithm) -> AlgoKind {
        match walk {
            WalkAlgorithm::DeepWalk => AlgoKind::DeepWalk,
            WalkAlgorithm::Weighted => AlgoKind::Weighted,
            WalkAlgorithm::Node2Vec { .. } => AlgoKind::Node2Vec,
            WalkAlgorithm::Ppr { .. } => AlgoKind::Ppr,
            WalkAlgorithm::EarlyExit => AlgoKind::EarlyExit,
            WalkAlgorithm::Metapath { .. } => AlgoKind::Metapath,
        }
    }

    /// Display label: the walk's [`WalkAlgorithm::name`], which is also
    /// its golden-table key.
    pub fn label(self) -> &'static str {
        self.algorithm().name()
    }

    /// The engine-side algorithm specification, at the lattice's
    /// parameters.
    pub fn algorithm(self) -> WalkAlgorithm {
        match self {
            AlgoKind::DeepWalk => WalkAlgorithm::DeepWalk,
            AlgoKind::Weighted => WalkAlgorithm::Weighted,
            AlgoKind::Node2Vec => WalkAlgorithm::Node2Vec {
                p: NODE2VEC_P,
                q: NODE2VEC_Q,
            },
            AlgoKind::Ppr => WalkAlgorithm::Ppr { alpha: PPR_ALPHA },
            AlgoKind::EarlyExit => WalkAlgorithm::EarlyExit,
            AlgoKind::Metapath => WalkAlgorithm::Metapath {
                pattern: MetapathPattern::new(&METAPATH_PATTERN)
                    .unwrap_or_else(|| unreachable!("the canonical pattern is valid")),
            },
        }
    }

    /// The graph this walk's cells run on — the one seam where a walk
    /// picks its input: the weighted twin for `weighted`, the labeled
    /// twin for `metapath`, the canonical graph otherwise.
    pub fn graph(self) -> Csr {
        match self {
            AlgoKind::Weighted => weighted_conformance_graph(),
            AlgoKind::Metapath => labeled_conformance_graph(),
            _ => conformance_graph(),
        }
    }

    /// Chi-square tests one cell of this walk runs (its share of the
    /// Bonferroni split).
    pub(crate) fn stat_tests(self) -> usize {
        match self {
            AlgoKind::EarlyExit | AlgoKind::Metapath => 1,
            _ => 2,
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
    /// The CI tier: every engine and walk at {1, 8} threads.
    pub fn quick() -> Self {
        Self {
            threads: vec![1, 8],
            check_golden: true,
            ring_depth: None,
        }
    }

    /// The pre-release tier: every engine and walk at {1, 2, 3, 8}
    /// threads (non-power-of-two counts catch remainder bugs in the
    /// walker-range splitter).
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
    /// Every chi-square and structural check passed and the digest
    /// matched (or no golden entry exists for this cell).
    Pass {
        /// p-values of the cell's chi-square tests, in check order.
        p_values: Vec<f64>,
        /// Path digest of the cell.
        digest: u64,
        /// Whether a golden entry was found and verified.
        golden_checked: bool,
    },
    /// The engine refuses this cell.
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
    /// Walk dimension.
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
pub(crate) struct CellData {
    /// Recorded paths, one per walker, original vertex IDs.
    pub(crate) paths: Vec<Vec<VertexId>>,
    /// The per-partition RNG stream ids of every iteration (direct
    /// FlashMob cells; empty for the other engines), folded into the
    /// digest after the paths.
    stream_ids: Vec<u64>,
    /// See [`Cell::stream_hints`].
    stream_hints: u64,
    /// See [`Cell::reserved_draws`].
    reserved_draws: u64,
}

impl CellData {
    /// A cell's paths with the counters its engine's `stats` report.
    fn from_run(paths: Vec<Vec<VertexId>>, stats: &RunStats) -> Self {
        Self {
            paths,
            stream_ids: Vec::new(),
            stream_hints: stats.prefetch_totals().1,
            reserved_draws: stats.pre_sample_totals().1,
        }
    }

    /// The cell's golden-table digest.
    pub(crate) fn digest(&self) -> u64 {
        digest_paths(&self.paths, &self.stream_ids)
    }
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

/// The walk configuration of one lattice cell (the crash matrix runs
/// the same).  A baseline cell runs without `ring_depth`: the baselines
/// have no walker ring and refuse one.
pub(crate) fn cell_config(
    engine: EngineKind,
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
        .planner(conformance_planner())
        .strategy(engine.strategy());
    config.algorithm = algo.algorithm();
    match ring_depth {
        Some(_) if matches!(engine, EngineKind::KnightKing | EngineKind::GraphVite) => config,
        Some(depth) => config.ring_depth(depth),
        None => config,
    }
}

/// The stream ids every iteration of `fm` draws from, in order.
pub(crate) fn stream_ids(fm: &FlashMob) -> Vec<u64> {
    (0..LATTICE_STEPS)
        .flat_map(|iter| fm.partition_stream_ids(iter))
        .collect()
}

pub(crate) fn run_cell_data(
    graph: &Csr,
    engine: EngineKind,
    algo: AlgoKind,
    threads: usize,
    ring_depth: Option<usize>,
) -> Result<CellData, String> {
    let err = |e: flashmob::WalkError| e.to_string();
    let config = cell_config(engine, algo, threads, ring_depth);
    // Every arm runs its family's one entry, untraced, without options.
    let (opts, mut tel) = (RunOptions::default(), Telemetry::off());
    match engine {
        EngineKind::FlashMobAuto | EngineKind::FlashMobPs | EngineKind::FlashMobDs => {
            let fm = FlashMob::new(graph, config).map_err(err)?;
            let stream_ids = stream_ids(&fm);
            let (output, stats) = fm.run_with(&opts, &mut tel).map_err(err)?;
            Ok(CellData {
                stream_ids,
                ..CellData::from_run(output.paths(), &stats)
            })
        }
        EngineKind::NumaP | EngineKind::NumaR => {
            let mode = if engine == EngineKind::NumaP {
                NumaMode::Partitioned
            } else {
                NumaMode::Replicated
            };
            let (outputs, stats) =
                run_numa_with(graph, config, mode, LATTICE_SOCKETS, &opts, &mut tel)
                    .map_err(err)?;
            Ok(CellData::from_run(
                outputs.iter().flat_map(|o| o.paths()).collect(),
                &stats,
            ))
        }
        EngineKind::OutOfCore => {
            let path = ooc_temp_path();
            let disk = DiskGraph::create(graph, &path).map_err(|e| e.to_string())?;
            // A tight budget forces multiple blocks, so pair scheduling,
            // parking and (in the crash matrix) the BBLK frame all run.
            let result = run_ooc_with(&disk, &config, OOC_BUDGET, &opts, &mut tel);
            std::fs::remove_file(&path).ok();
            let paths = result.map_err(err)?.0.paths();
            Ok(CellData::from_run(paths, &RunStats::default()))
        }
        EngineKind::KnightKing | EngineKind::GraphVite => {
            let kind = if engine == EngineKind::KnightKing {
                BaselineKind::KnightKing
            } else {
                BaselineKind::GraphVite
            };
            let engine =
                Baseline::new(graph, BaselineConfig { kind, walk: config }).map_err(err)?;
            let (output, stats) = engine.run_with(&opts, &mut tel).map_err(err)?;
            Ok(CellData::from_run(output.paths(), &stats))
        }
    }
}

/// One Pearson test of per-vertex (or per-edge) walker counts against
/// the oracle's probabilities; the p-value when it fits at `alpha`.
pub(crate) fn chi_square(
    what: &str,
    observed: &[u64],
    expected: &[f64],
    alpha: f64,
) -> Result<f64, String> {
    let counts: Vec<f64> = expected
        .iter()
        .map(|p| p * LATTICE_WALKERS as f64)
        .collect();
    let r = chi_square_test(observed, &counts);
    if r.fits(alpha) {
        Ok(r.p_value)
    } else {
        Err(format!(
            "{what} chi-square rejected: p = {:.3e} < alpha = {alpha:.3e}",
            r.p_value
        ))
    }
}

/// A walk's exact expectations on its lattice graph.  They depend on
/// neither the engine nor the thread count, so every cell of the walk
/// shares them.
pub(crate) enum Oracle {
    /// deepwalk, weighted and node2vec: occupancy at step `k` and the
    /// last-hop distribution over `edges`.
    Chain {
        occupancy: Vec<f64>,
        last_hop: Vec<f64>,
        edges: EdgeIndex,
    },
    /// PPR: occupancy at steps `k` and `k - 1`.
    Ppr {
        oracle: PprOracle,
        at_k: Vec<f64>,
        at_km1: Vec<f64>,
    },
    /// Early exit: the final path vertex's distribution.
    EarlyExit { edges: EdgeIndex, finals: Vec<f64> },
    /// Metapath: the final path vertex's distribution.
    Metapath {
        oracle: MetapathOracle,
        finals: Vec<f64>,
    },
}

impl Oracle {
    /// The oracle of `algo` on `graph` (its [`AlgoKind::graph`]).
    pub(crate) fn new(algo: AlgoKind, graph: &Csr) -> Self {
        let pi0 = init_distribution(graph, &WalkerInit::UniformEdge, LATTICE_WALKERS);
        let k = LATTICE_STEPS;
        match algo {
            AlgoKind::DeepWalk | AlgoKind::Weighted => {
                let oracle = if algo == AlgoKind::Weighted {
                    FirstOrderOracle::weighted(graph)
                } else {
                    FirstOrderOracle::deepwalk(graph)
                };
                Oracle::Chain {
                    occupancy: oracle.occupancy(&pi0, k),
                    last_hop: oracle.edge_distribution(&pi0, k),
                    edges: oracle.edge_index().clone(),
                }
            }
            AlgoKind::Node2Vec => {
                let oracle = Node2VecOracle::new(graph, NODE2VEC_P, NODE2VEC_Q);
                Oracle::Chain {
                    occupancy: oracle.occupancy(&pi0, k),
                    last_hop: oracle.state_distribution(&pi0, k),
                    edges: oracle.edge_index().clone(),
                }
            }
            AlgoKind::Ppr => {
                let oracle = PprOracle::new(graph, PPR_ALPHA);
                Oracle::Ppr {
                    at_k: oracle.occupancy(&pi0, k),
                    at_km1: oracle.occupancy(&pi0, k - 1),
                    oracle,
                }
            }
            AlgoKind::EarlyExit => Oracle::EarlyExit {
                edges: EdgeIndex::new(graph),
                finals: EarlyExitOracle::new(graph).final_distribution(&pi0, k),
            },
            AlgoKind::Metapath => {
                let oracle = MetapathOracle::new(graph, &METAPATH_PATTERN);
                Oracle::Metapath {
                    finals: oracle.final_distribution(&pi0, k),
                    oracle,
                }
            }
        }
    }

    /// The structural and chi-square checks of one cell's paths: the
    /// p-value of every test, in check order.
    pub(crate) fn check(&self, paths: &[Vec<VertexId>], alpha: f64) -> Result<Vec<f64>, String> {
        if paths.len() != LATTICE_WALKERS {
            return Err(format!(
                "expected {LATTICE_WALKERS} paths, got {}",
                paths.len()
            ));
        }
        match self {
            Oracle::Chain {
                occupancy,
                last_hop,
                edges,
            } => check_chain(paths, occupancy, last_hop, edges, alpha),
            Oracle::Ppr {
                oracle,
                at_k,
                at_km1,
            } => check_ppr(paths, oracle, at_k, at_km1, alpha),
            Oracle::EarlyExit { edges, finals } => check_early_exit(paths, edges, finals, alpha),
            Oracle::Metapath { oracle, finals } => check_metapath(paths, oracle, finals, alpha),
        }
    }
}

/// Full-length paths whose last hop is an edge; final-step occupancy
/// and last-hop chi-squares.
fn check_chain(
    paths: &[Vec<VertexId>],
    occupancy_expected: &[f64],
    last_hop_expected: &[f64],
    edges: &EdgeIndex,
    alpha: f64,
) -> Result<Vec<f64>, String> {
    let n = occupancy_expected.len();
    let mut occupancy = vec![0u64; n];
    let mut transitions = vec![0u64; edges.len()];
    for path in paths {
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
    Ok(vec![
        chi_square("occupancy", &occupancy, occupancy_expected, alpha)?,
        chi_square("transition", &transitions, last_hop_expected, alpha)?,
    ])
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
    // The Bonferroni split over every chi-square the runnable cells
    // run, known before any test executes.
    let mut tests = 0usize;
    for engine in EngineKind::ALL {
        for algo in AlgoKind::ALL {
            for &threads in &config.threads {
                if engine.skip_reason(algo, threads).is_none() {
                    tests += algo.stat_tests();
                }
            }
        }
    }
    let per_test_alpha = ALPHA / tests.max(1) as f64;

    let walks: Vec<(Csr, Oracle)> = AlgoKind::ALL
        .iter()
        .map(|&algo| {
            let graph = algo.graph();
            let oracle = Oracle::new(algo, &graph);
            (graph, oracle)
        })
        .collect();

    let total_cells = EngineKind::ALL.len() * AlgoKind::ALL.len() * config.threads.len();
    let mut cells = Vec::with_capacity(total_cells);
    for engine in EngineKind::ALL {
        for (algo, (graph, oracle)) in AlgoKind::ALL.into_iter().zip(&walks) {
            for &threads in &config.threads {
                let cell_index = cells.len();
                let (mut stream_hints, mut reserved_draws) = (0, 0);
                let outcome = if let Some(reason) = engine.skip_reason(algo, threads) {
                    Outcome::Skipped { reason }
                } else {
                    let span_start = tel.is_on().then(|| tel.now_ns());
                    let checked = run_cell_data(graph, engine, algo, threads, config.ring_depth)
                        .and_then(|data| {
                            (stream_hints, reserved_draws) =
                                (data.stream_hints, data.reserved_draws);
                            Ok((oracle.check(&data.paths, per_test_alpha)?, data.digest()))
                        });
                    let outcome = match checked {
                        Ok((p_values, digest)) => {
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
                                    p_values,
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
    let data = run_cell_data(&algo.graph(), engine, algo, threads, None).ok()?;
    Some(data.digest())
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
        // Every cell the lattice skips at one thread, the engine itself
        // refuses; the thread skip is the only other reason.
        for engine in EngineKind::ALL {
            for algo in AlgoKind::ALL {
                if let Some(reason) = engine.skip_reason(algo, 1) {
                    let run = run_cell_data(&algo.graph(), engine, algo, 1, None);
                    assert!(
                        run.is_err(),
                        "{} ran {} although the lattice skips it: {reason}",
                        engine.label(),
                        algo.label()
                    );
                }
            }
        }
        assert!(EngineKind::OutOfCore
            .skip_reason(AlgoKind::DeepWalk, 8)
            .is_some());
        for algo in [AlgoKind::DeepWalk, AlgoKind::Node2Vec, AlgoKind::Ppr] {
            assert!(EngineKind::OutOfCore.skip_reason(algo, 1).is_none());
        }
        assert!(EngineKind::NumaR
            .skip_reason(AlgoKind::Metapath, 8)
            .is_none());
        assert!(EngineKind::FlashMobAuto
            .skip_reason(AlgoKind::Node2Vec, 8)
            .is_none());
    }

    #[test]
    fn single_cell_passes_against_oracle() {
        // One representative cell end to end (the full quick lattice
        // runs in the traced test below and in CI via `conform`).
        let graph = conformance_graph();
        let oracle = Oracle::new(AlgoKind::DeepWalk, &graph);
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
        let ps = oracle.check(&data.paths, 1e-6).expect("cell conforms");
        assert_eq!(ps.len(), AlgoKind::DeepWalk.stat_tests());
        assert!(ps.iter().all(|&p| p > 1e-6));
        assert_ne!(data.digest(), 0);
        // A forced ring depth reaches the cell's config and moves nothing.
        let forced = |ring_depth| {
            cell_config(EngineKind::FlashMobAuto, AlgoKind::DeepWalk, 1, ring_depth).ring_depth
        };
        assert_eq!((forced(None), forced(Some(16))), (None, Some(16)));
        assert_eq!(cell(Some(16)).paths, data.paths);
    }

    #[test]
    fn traced_lattice_records_one_cell_span_per_executed_cell() {
        // The quick tier with its committed digests checked: a digest
        // that moves at any thread count fails here, not only in CI.
        let mut tel = Telemetry::new();
        let report = run_lattice_traced(&LatticeConfig::quick(), &mut tel);
        let failures: Vec<String> = report
            .failures()
            .iter()
            .map(|c| {
                let (e, a) = (c.engine.label(), c.algo.label());
                format!("{e} {a} t={}: {:?}", c.threads, c.outcome)
            })
            .collect();
        assert!(
            failures.is_empty(),
            "lattice must pass:\n{}",
            failures.join("\n")
        );
        assert_eq!(report.tally(), (75, 21, 0));
        assert!(report.cells.iter().all(|c| !matches!(
            c.outcome,
            Outcome::Pass {
                golden_checked: false,
                ..
            }
        )));
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
