//! Personalized PageRank by restart walks from a seed vertex.
//!
//! PPR scores vertices by their relevance *to a seed*: walkers start at
//! the seed and teleport back to it with probability `alpha` at every
//! step, so probability mass concentrates in the seed's neighborhood
//! instead of spreading to global hubs.  This exercises the `--program
//! ppr` walk program ([`WalkAlgorithm::Ppr`]) — the per-walker origin
//! is program state carried in the engine's auxiliary lane — and
//! cross-checks the empirical distribution against the conformance
//! crate's exact [`PprOracle`].
//!
//! ```text
//! cargo run --release --example ppr_seed_expansion
//! ```

use flashmob_repro::conformance::oracle::PprOracle;
use flashmob_repro::flashmob::{FlashMob, RunOptions, WalkAlgorithm, WalkConfig, WalkerInit};
use flashmob_repro::graph::{synth, VertexId};
use flashmob_repro::telemetry::Telemetry;

const ALPHA: f64 = 0.15;
const STEPS: usize = 8;

fn main() {
    let graph = synth::power_law(20_000, 1.9, 1, 1_000, 13);
    println!(
        "graph: |V| = {}, |E| = {}",
        graph.vertex_count(),
        graph.edge_count()
    );

    // Seed the walk at a mid-degree vertex: hubs are boring (their PPR
    // neighborhood is half the graph), leaves are trivial.
    let seed = (0..graph.vertex_count() as VertexId)
        .filter(|&v| graph.degree(v) >= 8 && graph.degree(v) <= 32)
        .max_by_key(|&v| graph.degree(v))
        .expect("power-law graph has mid-degree vertices");
    println!("seed vertex {seed} (degree {})", graph.degree(seed));

    // Every walker starts at the seed; `Ppr` teleports it back there
    // with probability ALPHA per step.
    let walkers = 400_000;
    let mut config = WalkConfig::deepwalk()
        .walkers(walkers)
        .steps(STEPS)
        .init(WalkerInit::Fixed(vec![seed]))
        .seed(7)
        .record_paths(true);
    config.algorithm = WalkAlgorithm::Ppr { alpha: ALPHA };
    let engine = FlashMob::new(&graph, config).expect("engine");
    let (output, stats) = engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("walk");
    println!(
        "walked {} steps at {:.1} ns/step",
        stats.steps_taken,
        stats.per_step_ns()
    );

    // The empirical distribution of final walker positions estimates
    // the k-step restart-chain distribution personalized to the seed.
    let mut counts = vec![0u64; graph.vertex_count()];
    for path in output.paths() {
        if let Some(&last) = path.last() {
            counts[last as usize] += 1;
        }
    }
    let estimate: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / walkers as f64)
        .collect();

    // The exact distribution from the conformance oracle, with all
    // origin mass on the seed.
    let mut pi0 = vec![0.0f64; graph.vertex_count()];
    pi0[seed as usize] = 1.0;
    let exact = PprOracle::new(&graph, ALPHA).occupancy(&pi0, STEPS);

    // The seed's own mass stays large (restarts), and the top of the
    // ranking should be the seed's neighborhood, not global hubs.
    let mut by_exact: Vec<usize> = (0..graph.vertex_count()).collect();
    by_exact.sort_by(|&a, &b| exact[b].partial_cmp(&exact[a]).expect("finite"));
    println!(
        "seed mass: estimated {:.4}, exact {:.4}",
        estimate[seed as usize], exact[seed as usize]
    );
    println!("top-10 personalized vertices (exact | estimated):");
    for &v in &by_exact[..10] {
        println!("  v{v:<6} {:.5} | {:.5}", exact[v], estimate[v]);
    }

    // Total-variation distance between estimate and truth.
    let tv: f64 = estimate
        .iter()
        .zip(&exact)
        .map(|(e, x)| (e - x).abs())
        .sum::<f64>()
        / 2.0;
    println!("total-variation distance: {tv:.4}");

    let mut by_est: Vec<usize> = (0..graph.vertex_count()).collect();
    by_est.sort_by(|&a, &b| estimate[b].partial_cmp(&estimate[a]).expect("finite"));
    let top_exact: std::collections::HashSet<_> = by_exact[..20].iter().collect();
    let overlap = by_est[..20]
        .iter()
        .filter(|v| top_exact.contains(v))
        .count();
    println!("top-20 overlap between estimate and oracle: {overlap}/20");

    assert_eq!(by_exact[0], seed as usize, "seed must rank first");
    assert!(tv < 0.05, "TV distance too high: {tv:.4}");
    assert!(overlap >= 16, "top-20 overlap too low: {overlap}");
    println!("OK: restart walks reproduce personalized PageRank.");
}
