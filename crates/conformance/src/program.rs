//! The programmable-walk conformance lattice.
//!
//! The legacy lattice ([`crate::runner`]) proves every engine samples
//! the paper's three chains.  This module is the conformance side of
//! the [`WalkProgram`](flashmob::WalkProgram) contract: **every
//! registered program must have an analytic oracle and lattice cells
//! of its own**, so a new walk scenario cannot merge on the strength
//! of "it ran without crashing".
//!
//! Three programs × the three direct FlashMob plan policies × thread
//! counts (programs are first-order, so digests are thread-invariant
//! like DeepWalk's):
//!
//! * **PPR** restarts to the walker's origin with probability
//!   [`PPR_ALPHA`].  Restart hops are not graph edges, so instead of
//!   the legacy last-hop transition test the cell runs *two*
//!   occupancy chi-squares (steps `k` and `k - 1`) against
//!   [`PprOracle`], plus a structural check that every hop is a graph
//!   edge or a restart landing on the walker's own origin.
//! * **Early exit** kills a walker one iteration after it returns to
//!   its origin.  The observable is the final path vertex, tested
//!   against [`EarlyExitOracle`]'s absorbing chain; structurally, a
//!   short path must end at its own origin and may visit it nowhere
//!   else in between.
//! * **Metapath** walks the labeled twin graph under the cyclic
//!   pattern [`METAPATH_PATTERN`].  Final-vertex occupancy is tested
//!   against [`MetapathOracle`]; structurally every hop must carry the
//!   phase's label, and a short path must end at a vertex with no
//!   allowed edge in its death phase.
//!
//! Digests fold exactly what the legacy lattice folds (walker count,
//! full path matrix, per-partition RNG stream ids) and are committed
//! in [`crate::golden`]'s program table.

use fm_graph::{Csr, VertexId};
use fm_rng::gof::chi_square_test;
use flashmob::{FlashMob, MetapathPattern, PlanStrategy, WalkAlgorithm, WalkerInit};

use crate::digest::PathDigest;
use crate::golden;
use crate::oracle::{init_distribution, EarlyExitOracle, MetapathOracle, PprOracle};
use crate::runner::{
    conformance_graph, flashmob_config, AlgoKind, EngineKind, ALPHA, LATTICE_STEPS,
    LATTICE_WALKERS,
};

/// PPR restart probability used throughout the program lattice.
pub const PPR_ALPHA: f64 = 0.15;

/// Metapath phase pattern used throughout the program lattice.
pub const METAPATH_PATTERN: [u8; 2] = [0, 1];

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

/// Program dimension of the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramKind {
    /// Personalized PageRank with restart probability [`PPR_ALPHA`].
    Ppr,
    /// Early-exit walk (die one iteration after returning home).
    EarlyExit,
    /// Metapath walk under [`METAPATH_PATTERN`] on the labeled twin.
    Metapath,
}

impl ProgramKind {
    /// All programs, in lattice order.
    pub const ALL: [ProgramKind; 3] = [
        ProgramKind::Ppr,
        ProgramKind::EarlyExit,
        ProgramKind::Metapath,
    ];

    /// Display label (also the golden-table key and the CLI
    /// `--program` spelling).
    pub fn label(self) -> &'static str {
        match self {
            ProgramKind::Ppr => "ppr",
            ProgramKind::EarlyExit => "early-exit",
            ProgramKind::Metapath => "metapath",
        }
    }

    /// The engine-side algorithm specification.
    pub fn walk_algorithm(self) -> WalkAlgorithm {
        match self {
            ProgramKind::Ppr => WalkAlgorithm::Ppr { alpha: PPR_ALPHA },
            ProgramKind::EarlyExit => WalkAlgorithm::EarlyExit,
            ProgramKind::Metapath => WalkAlgorithm::Metapath {
                pattern: MetapathPattern::new(&METAPATH_PATTERN)
                    .unwrap_or_else(|| unreachable!("the canonical pattern is valid")),
            },
        }
    }

    /// Number of chi-square tests one cell of this program runs (the
    /// Bonferroni denominator contribution).
    fn stat_tests(self) -> usize {
        match self {
            // No last-hop test exists for PPR (restarts land on
            // non-edges), so it checks occupancy at two horizons.
            ProgramKind::Ppr => 2,
            ProgramKind::EarlyExit | ProgramKind::Metapath => 1,
        }
    }
}

/// Whether `name` (a `flashmob::program::REGISTRY` spelling) is backed
/// by an analytic oracle and lattice coverage in this crate — the
/// audit `ci.sh`'s program tier enforces for every registered program.
pub fn oracle_backed(name: &str) -> bool {
    AlgoKind::ALL.iter().any(|a| a.label() == name)
        || ProgramKind::ALL.iter().any(|p| p.label() == name)
}

/// Which slice of the program lattice to run.
#[derive(Debug, Clone)]
pub struct ProgramLatticeConfig {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Whether digests must match the committed program golden table.
    pub check_golden: bool,
    /// See [`crate::runner::LatticeConfig::ring_depth`].
    pub ring_depth: Option<usize>,
}

impl ProgramLatticeConfig {
    /// The CI tier: every program and plan policy at {1, 8} threads.
    pub fn quick() -> Self {
        Self {
            threads: vec![1, 8],
            check_golden: true,
            ring_depth: None,
        }
    }

    /// The pre-release tier: {1, 2, 8} threads.
    pub fn full() -> Self {
        Self {
            threads: vec![1, 2, 8],
            check_golden: true,
            ring_depth: None,
        }
    }
}

/// Outcome of one program-lattice cell.
#[derive(Debug, Clone)]
pub enum ProgramOutcome {
    /// Every chi-square and structural check passed and the digest
    /// matched (or no golden entry exists yet).
    Pass {
        /// p-values of the cell's chi-square tests, in check order.
        p_values: Vec<f64>,
        /// Path digest of the cell.
        digest: u64,
        /// Whether a golden entry was found and verified.
        golden_checked: bool,
    },
    /// The cell ran but failed a check (or failed to run).
    Fail {
        /// What went wrong.
        reason: String,
    },
}

/// One cell of the program lattice with its outcome.
#[derive(Debug, Clone)]
pub struct ProgramCell {
    /// Plan-policy dimension (direct FlashMob engines only; the
    /// baselines reject programs by design).
    pub engine: EngineKind,
    /// Program dimension.
    pub program: ProgramKind,
    /// Thread count.
    pub threads: usize,
    /// What happened.
    pub outcome: ProgramOutcome,
}

/// The full program-lattice report.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Every cell, in sweep order.
    pub cells: Vec<ProgramCell>,
    /// The Bonferroni-corrected per-test alpha that was applied.
    pub per_test_alpha: f64,
}

impl ProgramReport {
    /// All failing cells.
    pub fn failures(&self) -> Vec<&ProgramCell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, ProgramOutcome::Fail { .. }))
            .collect()
    }

    /// Counts of (passed, failed).
    pub fn tally(&self) -> (usize, usize) {
        let mut t = (0, 0);
        for c in &self.cells {
            match c.outcome {
                ProgramOutcome::Pass { .. } => t.0 += 1,
                ProgramOutcome::Fail { .. } => t.1 += 1,
            }
        }
        t
    }
}

/// The plan policies the program lattice sweeps.  NUMA, out-of-core
/// and the walker-at-a-time baselines are out of scope by design: the
/// baselines reject programs at construction, and the program hot
/// paths live in the direct FlashMob engines.
pub const PROGRAM_ENGINES: [EngineKind; 3] = [
    EngineKind::FlashMobAuto,
    EngineKind::FlashMobPs,
    EngineKind::FlashMobDs,
];

struct ProgramCellData {
    paths: Vec<Vec<VertexId>>,
    extra: Vec<u64>,
}

/// The graph a program's cells run on.
pub(crate) fn program_graph(program: ProgramKind) -> Csr {
    match program {
        ProgramKind::Metapath => labeled_conformance_graph(),
        _ => conformance_graph(),
    }
}

pub(crate) fn program_config(
    program: ProgramKind,
    threads: usize,
    ring_depth: Option<usize>,
) -> flashmob::WalkConfig {
    let mut config = flashmob_config(AlgoKind::DeepWalk, threads, ring_depth);
    config.algorithm = program.walk_algorithm();
    config
}

fn run_program_cell(
    graph: &Csr,
    engine: EngineKind,
    program: ProgramKind,
    threads: usize,
    ring_depth: Option<usize>,
) -> Result<ProgramCellData, String> {
    let strategy = match engine {
        EngineKind::FlashMobAuto => PlanStrategy::DynamicProgramming,
        EngineKind::FlashMobPs => PlanStrategy::UniformPs,
        EngineKind::FlashMobDs => PlanStrategy::UniformDs,
        other => return Err(format!("{} is not a program engine", other.label())),
    };
    let config = program_config(program, threads, ring_depth).strategy(strategy);
    let fm = FlashMob::new(graph, config).map_err(|e| e.to_string())?;
    let mut extra = Vec::new();
    for iter in 0..LATTICE_STEPS {
        extra.extend(fm.partition_stream_ids(iter));
    }
    let output = fm.run().map_err(|e| e.to_string())?;
    Ok(ProgramCellData {
        paths: output.paths(),
        extra,
    })
}

/// Structural + statistical checks for one PPR cell.
fn check_ppr(
    data: &ProgramCellData,
    oracle: &PprOracle,
    occ_k: &[f64],
    occ_km1: &[f64],
    alpha: f64,
) -> Result<Vec<f64>, String> {
    let n = occ_k.len();
    let mut at_k = vec![0u64; n];
    let mut at_km1 = vec![0u64; n];
    for path in &data.paths {
        if path.len() != LATTICE_STEPS + 1 {
            return Err(format!(
                "ppr walkers never terminate early, got path length {}",
                path.len()
            ));
        }
        let origin = path[0];
        for hop in path.windows(2) {
            if !oracle.hop_allowed(hop[0], hop[1], origin) {
                return Err(format!(
                    "hop {} -> {} is neither an edge nor a restart to origin {origin}",
                    hop[0], hop[1]
                ));
            }
        }
        at_k[path[LATTICE_STEPS] as usize] += 1;
        at_km1[path[LATTICE_STEPS - 1] as usize] += 1;
    }
    let mut ps = Vec::with_capacity(2);
    for (label, observed, expected) in [
        ("step-k occupancy", &at_k, occ_k),
        ("step-(k-1) occupancy", &at_km1, occ_km1),
    ] {
        let counts: Vec<f64> = expected.iter().map(|p| p * LATTICE_WALKERS as f64).collect();
        let r = chi_square_test(observed, &counts);
        if !r.fits(alpha) {
            return Err(format!(
                "{label} chi-square rejected: p = {:.3e} < alpha = {alpha:.3e}",
                r.p_value
            ));
        }
        ps.push(r.p_value);
    }
    Ok(ps)
}

/// Structural + statistical checks for one early-exit cell.
fn check_early_exit(
    data: &ProgramCellData,
    oracle: &PprOracle,
    finals: &[f64],
    alpha: f64,
) -> Result<Vec<f64>, String> {
    let n = finals.len();
    let mut observed = vec![0u64; n];
    for path in &data.paths {
        if path.is_empty() || path.len() > LATTICE_STEPS + 1 {
            return Err(format!("path length {} out of range", path.len()));
        }
        let origin = path[0];
        // Every hop is a real edge (the PPR oracle's edge index
        // doubles as the plain edge-existence check: pass a
        // never-matching origin).
        for hop in path.windows(2) {
            if !oracle.hop_allowed(hop[0], hop[1], VertexId::MAX) {
                return Err(format!("walker hopped along non-edge {} -> {}", hop[0], hop[1]));
            }
        }
        // A walker may sit at its origin only at the start and (having
        // just returned, about to die) at the very end of its path.
        for (i, &v) in path.iter().enumerate().skip(1) {
            if v == origin && i + 1 < path.len() {
                return Err(format!(
                    "walker revisited origin {origin} at step {i} yet kept walking"
                ));
            }
        }
        // A short path exists only because the walker died, and it
        // dies only at its origin.  (The emptiness check above makes
        // the last index valid.)
        let last = path[path.len() - 1];
        if path.len() < LATTICE_STEPS + 1 && last != origin {
            return Err(format!(
                "walker terminated early at {last} != origin {origin}"
            ));
        }
        observed[last as usize] += 1;
    }
    let counts: Vec<f64> = finals.iter().map(|p| p * LATTICE_WALKERS as f64).collect();
    let r = chi_square_test(&observed, &counts);
    if !r.fits(alpha) {
        return Err(format!(
            "final-vertex chi-square rejected: p = {:.3e} < alpha = {alpha:.3e}",
            r.p_value
        ));
    }
    Ok(vec![r.p_value])
}

/// Structural + statistical checks for one metapath cell.
fn check_metapath(
    data: &ProgramCellData,
    oracle: &MetapathOracle,
    finals: &[f64],
    alpha: f64,
) -> Result<Vec<f64>, String> {
    let n = finals.len();
    let mut observed = vec![0u64; n];
    for path in &data.paths {
        if path.is_empty() || path.len() > LATTICE_STEPS + 1 {
            return Err(format!("path length {} out of range", path.len()));
        }
        for (t, hop) in path.windows(2).enumerate() {
            if !oracle.hop_allowed(hop[0], hop[1], t) {
                return Err(format!(
                    "hop {} -> {} has no label-{} edge (phase {t})",
                    hop[0],
                    hop[1],
                    oracle.label_at(t)
                ));
            }
        }
        // A short path means the death phase had no allowed edge.
        // (The emptiness check above makes the last index valid.)
        let last = path[path.len() - 1];
        if path.len() < LATTICE_STEPS + 1 {
            let t = path.len() - 1;
            if oracle.has_allowed(last, t) {
                return Err(format!(
                    "walker died at {last} although phase {t} has an allowed edge"
                ));
            }
        }
        observed[last as usize] += 1;
    }
    let counts: Vec<f64> = finals.iter().map(|p| p * LATTICE_WALKERS as f64).collect();
    let r = chi_square_test(&observed, &counts);
    if !r.fits(alpha) {
        return Err(format!(
            "final-vertex chi-square rejected: p = {:.3e} < alpha = {alpha:.3e}",
            r.p_value
        ));
    }
    Ok(vec![r.p_value])
}

fn digest_cell(data: &ProgramCellData) -> u64 {
    let mut d = PathDigest::new();
    d.fold_u64(data.paths.len() as u64);
    for p in &data.paths {
        d.fold_path(p);
    }
    for &x in &data.extra {
        d.fold_u64(x);
    }
    d.finish()
}

/// Per-program oracle state shared by every cell of that program.
enum ProgramOracle {
    Ppr {
        oracle: PprOracle,
        occ_k: Vec<f64>,
        occ_km1: Vec<f64>,
    },
    EarlyExit {
        edges: PprOracle,
        finals: Vec<f64>,
    },
    Metapath {
        oracle: MetapathOracle,
        finals: Vec<f64>,
    },
}

fn build_oracle(program: ProgramKind, graph: &Csr) -> ProgramOracle {
    let pi0 = init_distribution(graph, &WalkerInit::UniformEdge, LATTICE_WALKERS);
    match program {
        ProgramKind::Ppr => {
            let oracle = PprOracle::new(graph, PPR_ALPHA);
            let occ_k = oracle.occupancy(&pi0, LATTICE_STEPS);
            let occ_km1 = oracle.occupancy(&pi0, LATTICE_STEPS - 1);
            ProgramOracle::Ppr {
                oracle,
                occ_k,
                occ_km1,
            }
        }
        ProgramKind::EarlyExit => {
            let finals = EarlyExitOracle::new(graph).final_distribution(&pi0, LATTICE_STEPS);
            ProgramOracle::EarlyExit {
                // Reuse the PPR oracle's edge index for plain
                // edge-existence checks (alpha is irrelevant here).
                edges: PprOracle::new(graph, PPR_ALPHA),
                finals,
            }
        }
        ProgramKind::Metapath => {
            let oracle = MetapathOracle::new(graph, &METAPATH_PATTERN);
            let finals = oracle.final_distribution(&pi0, LATTICE_STEPS);
            ProgramOracle::Metapath { oracle, finals }
        }
    }
}

fn check_program_cell(
    data: &ProgramCellData,
    oracle: &ProgramOracle,
    alpha: f64,
) -> Result<Vec<f64>, String> {
    if data.paths.len() != LATTICE_WALKERS {
        return Err(format!(
            "expected {LATTICE_WALKERS} paths, got {}",
            data.paths.len()
        ));
    }
    match oracle {
        ProgramOracle::Ppr {
            oracle,
            occ_k,
            occ_km1,
        } => check_ppr(data, oracle, occ_k, occ_km1, alpha),
        ProgramOracle::EarlyExit { edges, finals } => {
            check_early_exit(data, edges, finals, alpha)
        }
        ProgramOracle::Metapath { oracle, finals } => {
            check_metapath(data, oracle, finals, alpha)
        }
    }
}

/// Runs the configured program-lattice slice and reports every cell.
pub fn run_program_lattice(config: &ProgramLatticeConfig) -> ProgramReport {
    // Bonferroni split over every chi-square the sweep runs.
    let tests_total: usize = ProgramKind::ALL
        .iter()
        .map(|p| p.stat_tests() * PROGRAM_ENGINES.len() * config.threads.len())
        .sum();
    let per_test_alpha = ALPHA / tests_total.max(1) as f64;
    let ring = config.ring_depth;

    let mut cells = Vec::new();
    for program in ProgramKind::ALL {
        let graph = program_graph(program);
        let oracle = build_oracle(program, &graph);
        for engine in PROGRAM_ENGINES {
            for &threads in &config.threads {
                let outcome = match run_program_cell(&graph, engine, program, threads, ring)
                    .and_then(|data| {
                        check_program_cell(&data, &oracle, per_test_alpha)
                            .map(|ps| (ps, digest_cell(&data)))
                    }) {
                    Ok((p_values, digest)) => {
                        let expected =
                            golden::lookup_program(engine.label(), program.label(), threads);
                        match expected {
                            Some(want) if config.check_golden && want != digest => {
                                ProgramOutcome::Fail {
                                    reason: format!(
                                        "golden digest mismatch: committed {want:#018x}, \
                                         got {digest:#018x} (see DESIGN.md \
                                         \"Correctness methodology\" for regeneration)"
                                    ),
                                }
                            }
                            _ => ProgramOutcome::Pass {
                                p_values,
                                digest,
                                golden_checked: config.check_golden && expected.is_some(),
                            },
                        }
                    }
                    Err(reason) => ProgramOutcome::Fail { reason },
                };
                cells.push(ProgramCell {
                    engine,
                    program,
                    threads,
                    outcome,
                });
            }
        }
    }
    ProgramReport {
        cells,
        per_test_alpha,
    }
}

/// Digest of one program cell without statistical checks — the
/// generator behind `fmwalk conform --emit-golden`'s program rows.
pub fn program_cell_digest(
    engine: EngineKind,
    program: ProgramKind,
    threads: usize,
) -> Option<u64> {
    let graph = program_graph(program);
    let data = run_program_cell(&graph, engine, program, threads, None).ok()?;
    Some(digest_cell(&data))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The audit behind ci.sh's program tier: a program registered in
    /// the engine crate without oracle-backed lattice coverage here
    /// fails the build.
    #[test]
    fn every_registered_program_has_an_oracle() {
        for name in flashmob::program::REGISTRY {
            assert!(
                oracle_backed(name),
                "program '{name}' is registered in flashmob::program::REGISTRY \
                 but has no analytic oracle / lattice coverage in fm-conformance; \
                 add a ProgramKind (and golden digests) before shipping it"
            );
        }
    }

    #[test]
    fn labeled_twin_shares_topology_and_never_starves() {
        let g = labeled_conformance_graph();
        let plain = conformance_graph();
        assert_eq!(g.offsets(), plain.offsets());
        assert_eq!(g.targets(), plain.targets());
        assert!(g.is_labeled());
        // Minimum degree 2 + slot%2 labeling: every vertex offers both
        // labels, so the canonical pattern never kills a walker.
        let oracle = MetapathOracle::new(&g, &METAPATH_PATTERN);
        for u in 0..g.vertex_count() {
            assert!(oracle.has_allowed(u as VertexId, 0), "vertex {u} phase 0");
            assert!(oracle.has_allowed(u as VertexId, 1), "vertex {u} phase 1");
        }
    }

    #[test]
    fn single_ppr_cell_passes_against_oracle() {
        let graph = program_graph(ProgramKind::Ppr);
        let oracle = build_oracle(ProgramKind::Ppr, &graph);
        let data = run_program_cell(&graph, EngineKind::FlashMobAuto, ProgramKind::Ppr, 1, None)
            .expect("cell runs");
        let ps = check_program_cell(&data, &oracle, 1e-6).expect("cell conforms");
        assert_eq!(ps.len(), 2);
        assert!(ps.iter().all(|&p| p > 1e-6));
    }

    #[test]
    fn single_early_exit_cell_passes_against_oracle() {
        let graph = program_graph(ProgramKind::EarlyExit);
        let oracle = build_oracle(ProgramKind::EarlyExit, &graph);
        let data = run_program_cell(
            &graph,
            EngineKind::FlashMobDs,
            ProgramKind::EarlyExit,
            1,
            None,
        )
        .expect("cell runs");
        let ps = check_program_cell(&data, &oracle, 1e-6).expect("cell conforms");
        assert_eq!(ps.len(), 1);
        assert!(ps[0] > 1e-6);
    }

    #[test]
    fn single_metapath_cell_passes_against_oracle() {
        let graph = program_graph(ProgramKind::Metapath);
        let oracle = build_oracle(ProgramKind::Metapath, &graph);
        let data = run_program_cell(
            &graph,
            EngineKind::FlashMobPs,
            ProgramKind::Metapath,
            1,
            None,
        )
        .expect("cell runs");
        let ps = check_program_cell(&data, &oracle, 1e-6).expect("cell conforms");
        assert_eq!(ps.len(), 1);
        assert!(ps[0] > 1e-6);
    }

    #[test]
    fn program_digests_are_thread_invariant() {
        // Programs are first-order: like DeepWalk, the per-partition
        // RNG streams make any thread count bit-identical.
        for program in ProgramKind::ALL {
            let a = program_cell_digest(EngineKind::FlashMobAuto, program, 1).unwrap();
            let b = program_cell_digest(EngineKind::FlashMobAuto, program, 8).unwrap();
            assert_eq!(a, b, "{} digests diverge across threads", program.label());
        }
    }
}

