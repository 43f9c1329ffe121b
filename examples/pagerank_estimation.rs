//! PageRank estimation by random walks with stochastic termination.
//!
//! PageRank with damping d equals the stationary distribution of walkers
//! that restart with probability 1-d — i.e. geometric-stop walks whose
//! *visit counts* estimate PageRank.  This exercises FlashMob's
//! [`StopRule::Geometric`] path and its dead-walker shuffle bin, and
//! cross-checks the estimate against exact power iteration.
//!
//! ```text
//! cargo run --release --example pagerank_estimation
//! ```

use flashmob_repro::flashmob::{FlashMob, RunOptions, StopRule, WalkConfig, WalkerInit};
use flashmob_repro::graph::{synth, Csr, VertexId};
use flashmob_repro::telemetry::Telemetry;

const DAMPING: f64 = 0.85;

/// Exact PageRank by power iteration (uniform teleport).
fn pagerank_exact(graph: &Csr, iterations: usize) -> Vec<f64> {
    let n = graph.vertex_count();
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        next.fill((1.0 - DAMPING) / n as f64);
        #[allow(clippy::needless_range_loop)] // the index is a vertex ID
        for v in 0..n {
            let share = DAMPING * rank[v] / graph.degree(v as VertexId) as f64;
            for &t in graph.neighbors(v as VertexId) {
                next[t as usize] += share;
            }
        }
        std::mem::swap(&mut rank, &mut next);
    }
    rank
}

fn main() {
    let graph = synth::power_law(20_000, 1.9, 1, 1_000, 13);
    println!(
        "graph: |V| = {}, |E| = {}",
        graph.vertex_count(),
        graph.edge_count()
    );

    // Walkers start from uniformly random vertices (the teleport
    // distribution) and exit with probability 1-d per step.
    let mut config = WalkConfig::deepwalk()
        .walkers(graph.vertex_count() * 40)
        .init(WalkerInit::UniformVertex)
        .seed(3)
        .record_paths(true);
    config.stop = StopRule::Geometric {
        exit_prob: 1.0 - DAMPING,
        max_steps: 120,
    };
    let engine = FlashMob::new(&graph, config).expect("engine");
    let (output, stats) = engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("walk");
    println!(
        "walked {} steps ({:.1} avg per walker, expected ~{:.1}) at {:.1} ns/step",
        stats.steps_taken,
        stats.steps_taken as f64 / stats.walkers as f64,
        DAMPING / (1.0 - DAMPING),
        stats.per_step_ns()
    );

    // Visit counts (every position a walker occupied) estimate PageRank.
    let mut visits = output.visit_counts(graph.vertex_count());
    // visit_counts excludes final positions; add them for the full
    // occupancy estimate.
    for path in output.paths() {
        if let Some(&last) = path.last() {
            visits[last as usize] += 1;
        }
    }
    let total: u64 = visits.iter().sum();
    let estimate: Vec<f64> = visits.iter().map(|&c| c as f64 / total as f64).collect();

    let exact = pagerank_exact(&graph, 50);

    // Compare the top-50 ranking and relative error on the top-1000.
    let mut by_exact: Vec<usize> = (0..graph.vertex_count()).collect();
    by_exact.sort_by(|&a, &b| exact[b].partial_cmp(&exact[a]).expect("finite"));
    let mut by_est: Vec<usize> = (0..graph.vertex_count()).collect();
    by_est.sort_by(|&a, &b| estimate[b].partial_cmp(&estimate[a]).expect("finite"));

    let top_exact: std::collections::HashSet<_> = by_exact[..50].iter().collect();
    let overlap = by_est[..50]
        .iter()
        .filter(|v| top_exact.contains(v))
        .count();
    println!("top-50 overlap between estimate and power iteration: {overlap}/50");

    let mut rel_err = 0.0f64;
    for &v in &by_exact[..1000] {
        rel_err += ((estimate[v] - exact[v]) / exact[v]).abs();
    }
    rel_err /= 1000.0;
    println!(
        "mean relative error on the top-1000 vertices: {:.2}%",
        rel_err * 100.0
    );

    assert!(overlap >= 40, "top-50 overlap too low: {overlap}");
    assert!(rel_err < 0.15, "relative error too high: {rel_err:.3}");
    println!("OK: geometric-stop walks reproduce PageRank.");
}
