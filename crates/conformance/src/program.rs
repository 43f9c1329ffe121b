//! The walk programs' checks in the one lattice ([`crate::runner`]).
//!
//! Every walk program of the engine crate (`WalkAlgorithm::Ppr`,
//! `EarlyExit`, `Metapath`) is a walk of the lattice, with an analytic
//! oracle ([`crate::oracle`]) and cells on every engine that accepts
//! it.  A program's hops are not all graph edges, or its paths not all
//! full length, so the deepwalk / node2vec last-hop test does not
//! apply; each program gets checks of its own:
//!
//! * **PPR** restarts to the walker's origin with probability
//!   [`PPR_ALPHA`](crate::runner::PPR_ALPHA).  Restart hops are not
//!   graph edges, so the cell runs *two* occupancy chi-squares (steps
//!   `k` and `k - 1`) against [`PprOracle`], plus a structural check
//!   that every hop is a graph edge or a restart landing on the walker's
//!   own origin.
//! * **Early exit** kills a walker one iteration after it returns to
//!   its origin.  The observable is the final path vertex, tested
//!   against the [`EarlyExitOracle`](crate::oracle::EarlyExitOracle)'s
//!   absorbing chain; structurally, a short path must end at its own
//!   origin and may visit it nowhere else in between.
//! * **Metapath** walks the labeled twin graph under the cyclic pattern
//!   [`METAPATH_PATTERN`](crate::runner::METAPATH_PATTERN).  Final-vertex
//!   occupancy is tested against [`MetapathOracle`]; structurally every
//!   hop must carry the phase's label, and a short path must end at a
//!   vertex with no allowed edge in its death phase.

use fm_graph::VertexId;

use crate::oracle::{EdgeIndex, MetapathOracle, PprOracle};
use crate::runner::{chi_square, LATTICE_STEPS};

/// Structural + statistical checks for one PPR cell.
pub(crate) fn check_ppr(
    paths: &[Vec<VertexId>],
    oracle: &PprOracle,
    occ_k: &[f64],
    occ_km1: &[f64],
    alpha: f64,
) -> Result<Vec<f64>, String> {
    let n = occ_k.len();
    let mut at_k = vec![0u64; n];
    let mut at_km1 = vec![0u64; n];
    for path in paths {
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
    Ok(vec![
        chi_square("step-k occupancy", &at_k, occ_k, alpha)?,
        chi_square("step-(k-1) occupancy", &at_km1, occ_km1, alpha)?,
    ])
}

/// Structural + statistical checks for one early-exit cell.
pub(crate) fn check_early_exit(
    paths: &[Vec<VertexId>],
    edges: &EdgeIndex,
    finals: &[f64],
    alpha: f64,
) -> Result<Vec<f64>, String> {
    let mut observed = vec![0u64; finals.len()];
    for path in paths {
        if path.is_empty() || path.len() > LATTICE_STEPS + 1 {
            return Err(format!("path length {} out of range", path.len()));
        }
        let origin = path[0];
        for hop in path.windows(2) {
            if edges.index_of(hop[0], hop[1]).is_none() {
                let (u, v) = (hop[0], hop[1]);
                return Err(format!("walker hopped along non-edge {u} -> {v}"));
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
    Ok(vec![chi_square("final-vertex", &observed, finals, alpha)?])
}

/// Structural + statistical checks for one metapath cell.
pub(crate) fn check_metapath(
    paths: &[Vec<VertexId>],
    oracle: &MetapathOracle,
    finals: &[f64],
    alpha: f64,
) -> Result<Vec<f64>, String> {
    let mut observed = vec![0u64; finals.len()];
    for path in paths {
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
    Ok(vec![chi_square("final-vertex", &observed, finals, alpha)?])
}

#[cfg(test)]
mod tests {
    use crate::oracle::MetapathOracle;
    use crate::runner::{
        cell_digest, conformance_graph, labeled_conformance_graph, run_cell_data, AlgoKind,
        EngineKind, Oracle, METAPATH_PATTERN,
    };
    use fm_graph::VertexId;

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

    /// Runs one cell and checks it against its oracle at alpha 1e-6.
    fn single_cell_passes(engine: EngineKind, algo: AlgoKind) {
        let graph = algo.graph();
        let oracle = Oracle::new(algo, &graph);
        let data = run_cell_data(&graph, engine, algo, 1, None).expect("cell runs");
        let ps = oracle.check(&data.paths, 1e-6).expect("cell conforms");
        assert_eq!(ps.len(), algo.stat_tests());
        assert!(ps.iter().all(|&p| p > 1e-6));
    }

    #[test]
    fn single_ppr_cell_passes_against_oracle() {
        single_cell_passes(EngineKind::FlashMobAuto, AlgoKind::Ppr);
    }

    #[test]
    fn single_early_exit_cell_passes_against_oracle() {
        single_cell_passes(EngineKind::FlashMobDs, AlgoKind::EarlyExit);
    }

    #[test]
    fn single_metapath_cell_passes_against_oracle() {
        single_cell_passes(EngineKind::FlashMobPs, AlgoKind::Metapath);
    }

    #[test]
    fn program_digests_are_thread_invariant() {
        // Programs are first-order: like DeepWalk, the per-partition
        // RNG streams make any thread count bit-identical.
        for algo in [AlgoKind::Ppr, AlgoKind::EarlyExit, AlgoKind::Metapath] {
            let a = cell_digest(EngineKind::FlashMobAuto, algo, 1).unwrap();
            let b = cell_digest(EngineKind::FlashMobAuto, algo, 8).unwrap();
            assert_eq!(a, b, "{} digests diverge across threads", algo.label());
        }
    }
}
