//! Figure 9: effectiveness of the DP-based optimization.
//!
//! (a) FlashMob stage-time breakdown (sample / shuffle / other) under
//!     the DP-identified plan — the paper's point is that shuffling,
//!     which *enables* fast sampling, becomes comparable in cost to
//!     sampling itself.
//! (b) Per-step time of the DP plan vs Uniform-PS, Uniform-DS (2048
//!     equal VPs), and the authors' pre-MCKP manual heuristic.

use flashmob::pool::PoolStats;
use flashmob::{FlashMob, PlanStrategy, RunOptions, WalkConfig};
use fm_bench::{analog, scaled_planner, HarnessOpts};
use fm_graph::presets::PaperGraph;
use fm_graph::Csr;
use fm_telemetry::Telemetry;

fn run(g: &Csr, strategy: PlanStrategy, opts: &HarnessOpts) -> (f64, f64, f64, f64, PoolStats) {
    let cfg = WalkConfig::deepwalk()
        .walkers(g.vertex_count() * opts.walkers_mult)
        .steps(opts.steps)
        .record_paths(false)
        .strategy(strategy)
        .threads(opts.threads)
        .planner(scaled_planner(opts.scale));
    let engine = FlashMob::new(g, cfg).expect("flashmob");
    let (_, stats) = engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("run");
    let (sample, shuffle, other) = stats.stage_ns_per_step();
    (stats.per_step_ns(), sample, shuffle, other, stats.pool)
}

fn main() {
    let opts = HarnessOpts::from_args();

    println!(
        "Figure 9a — stage breakdown under the DP plan (ns/step, {} threads)",
        opts.threads
    );
    let header = format!(
        "{:<8}{:>10}{:>10}{:>10}{:>10}{:>9}{:>12}",
        "Graph", "total", "sample", "shuffle", "other", "epochs", "pool-idle"
    );
    println!("{header}");
    fm_bench::rule(&header);
    for which in PaperGraph::ALL {
        let g = analog(which, opts.scale);
        let (total, sample, shuffle, other, pool) =
            run(&g, PlanStrategy::DynamicProgramming, &opts);
        println!(
            "{:<8}{:>10.1}{:>10.1}{:>10.1}{:>10.1}{:>9}{:>12}",
            which.tag(),
            total,
            sample,
            shuffle,
            other,
            pool.epochs,
            format!("{:.1?}", pool.idle),
        );
    }
    println!("(paper: shuffle cost is comparable to sample cost)");
    println!("(pool-idle is cumulative worker wait time across all epochs)");

    println!();
    println!("Figure 9b — DP plan vs alternatives (ns/step)");
    let header = format!(
        "{:<8}{:>10}{:>12}{:>12}{:>12}",
        "Graph", "DP", "UniformPS", "UniformDS", "Manual"
    );
    println!("{header}");
    fm_bench::rule(&header);
    for which in PaperGraph::ALL {
        let g = analog(which, opts.scale);
        let dp = run(&g, PlanStrategy::DynamicProgramming, &opts).0;
        let ups = run(&g, PlanStrategy::UniformPs, &opts).0;
        let uds = run(&g, PlanStrategy::UniformDs, &opts).0;
        let man = run(&g, PlanStrategy::ManualHeuristic, &opts).0;
        println!(
            "{:<8}{:>10.1}{:>12.1}{:>12.1}{:>12.1}",
            which.tag(),
            dp,
            ups,
            uds,
            man
        );
    }
    println!("(expected: DP at or below every alternative on every graph)");
}
