//! Quickstart: run DeepWalk on a synthetic power-law graph and inspect
//! the engine's plan and performance counters.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use flashmob_repro::flashmob::{FlashMob, RunOptions, WalkConfig};
use flashmob_repro::graph::{stats, synth};
use flashmob_repro::telemetry::Telemetry;

fn main() {
    // A skewed social-network-like graph: 50k vertices, power-law
    // degrees between 1 and 2000.
    let graph = synth::power_law(50_000, 1.9, 1, 2_000, 42);
    println!(
        "graph: |V| = {}, |E| = {}, avg degree = {:.1}, max degree = {}",
        graph.vertex_count(),
        graph.edge_count(),
        stats::avg_degree(&graph),
        graph.max_degree()
    );

    // The paper's default workload: |V| walkers, 80 steps each.
    let config = WalkConfig::deepwalk()
        .walkers(graph.vertex_count())
        .steps(80)
        .seed(7);
    let engine = FlashMob::new(&graph, config).expect("graph has no sinks");

    // The planner's MCKP decision, before running anything.
    let plan = engine.plan();
    println!(
        "plan: {} partitions in {} groups, {} shuffle level(s), {:.0}% of edges pre-sampled",
        plan.partitions.len(),
        plan.groups.len(),
        plan.shuffle_levels(),
        plan.ps_edge_share() * 100.0
    );

    let (output, run) = engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("walk");
    let (sample_ns, shuffle_ns, other_ns) = run.stage_ns_per_step();
    println!(
        "walked {} walker-steps in {:.2?} = {:.1} ns/step \
         (sample {:.1} + shuffle {:.1} + other {:.1})",
        run.steps_taken,
        run.wall,
        run.per_step_ns(),
        sample_ns,
        shuffle_ns,
        other_ns
    );

    // Paths come back in the caller's original vertex IDs.
    let paths = output.paths();
    println!(
        "walker 0 path (first 10 hops): {:?}",
        &paths[0][..10.min(paths[0].len())]
    );

    // Visit counts confirm the skew the paper exploits: hubs dominate.
    let visits = output.visit_counts(graph.vertex_count());
    let mut order: Vec<usize> = (0..graph.vertex_count()).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(visits[v]));
    let top1pct: u64 = order[..graph.vertex_count() / 100]
        .iter()
        .map(|&v| visits[v])
        .sum();
    let total: u64 = visits.iter().sum();
    println!(
        "top-1% most-visited vertices received {:.1}% of all visits",
        top1pct as f64 / total as f64 * 100.0
    );
}
