//! Figure 11: scalability in graph size and walker density.
//!
//! (a) Per-step time on YH-degree-distributed synthetic graphs of
//!     growing |V| (the paper scales to 168 GB; we scale relative to
//!     the base analog).
//! (b) Per-step *sample-stage* cost on the TW analog as the walker
//!     count grows from |V| to 16|V| — the paper measures a 32.6%
//!     sampling-cost reduction from |V| to 8|V|, leveling off after.

use flashmob::{FlashMob, WalkConfig};
use fm_bench::{analog, scaled_planner, HarnessOpts};
use fm_graph::presets::PaperGraph;
use fm_graph::synth;

fn main() {
    let opts = HarnessOpts::from_args();
    let params = scaled_planner(opts.scale);

    println!("Figure 11a — growing |V| with YH's degree distribution");
    let header = format!(
        "{:<12}{:>12}{:>12}{:>12}{:>12}",
        "scale", "|V|", "|E|", "ns/step", "sample ns"
    );
    println!("{header}");
    fm_bench::rule(&header);
    let base = analog(PaperGraph::YahooWeb, opts.scale);
    let base_n = base.vertex_count();
    for mult in [1usize, 2, 4] {
        let g = if mult == 1 {
            base.clone()
        } else {
            // Same zipf recipe as the YH analog, scaled in |V|.
            synth::power_law(
                base_n * mult,
                1.85,
                1,
                12_000.min(base_n * mult / 8).max(64),
                77,
            )
        };
        let cfg = WalkConfig::deepwalk()
            .walkers(g.vertex_count())
            .steps(opts.steps.min(24))
            .record_paths(false)
            .planner(params.clone());
        let engine = FlashMob::new(&g, cfg).expect("flashmob");
        let (_, stats) = engine.run_with_stats().expect("run");
        let (sample, _, _) = stats.stage_ns_per_step();
        println!(
            "{:<12}{:>12}{:>12}{:>12.1}{:>12.1}",
            format!("x{mult}"),
            g.vertex_count(),
            g.edge_count(),
            stats.per_step_ns(),
            sample
        );
    }
    println!("(expected: sampling cost rises steadily as VPs grow / more go DS)");

    println!();
    println!("Figure 11b — walker density sweep on TW");
    let header = format!(
        "{:<12}{:>12}{:>14}{:>14}",
        "walkers", "density", "sample ns/st", "vs 1|V|"
    );
    println!("{header}");
    fm_bench::rule(&header);
    let tw = analog(PaperGraph::Twitter, opts.scale);
    let mut base_sample = 0.0f64;
    for mult in [1usize, 2, 4, 8, 16] {
        let walkers = tw.vertex_count() * mult;
        let cfg = WalkConfig::deepwalk()
            .walkers(walkers)
            .steps(opts.steps.min(16))
            .record_paths(false)
            .planner(params.clone());
        let engine = FlashMob::new(&tw, cfg).expect("flashmob");
        let (_, stats) = engine.run_with_stats().expect("run");
        let (sample, _, _) = stats.stage_ns_per_step();
        if mult == 1 {
            base_sample = sample;
        }
        println!(
            "{:<12}{:>12.3}{:>14.1}{:>13.1}%",
            format!("{mult}|V|"),
            walkers as f64 / tw.edge_count() as f64,
            sample,
            (1.0 - sample / base_sample) * 100.0
        );
    }
    println!("(paper: 32.6% sampling-cost reduction at 8|V|, leveling off after)");
}
