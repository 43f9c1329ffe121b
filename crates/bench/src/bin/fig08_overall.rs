//! Figure 8: overall walk speed on the five graphs.
//!
//! (a) DeepWalk: GraphVite vs KnightKing vs FlashMob.
//! (b) node2vec: KnightKing vs FlashMob (the paper omits GraphVite here
//!     because it lags too far behind to plot).
//!
//! The paper measures: KnightKing 2.2-3.8x over GraphVite; FlashMob
//! 5.4-13.7x over KnightKing on DeepWalk and 3.9-19.9x on node2vec,
//! with the smallest gain on UK (locality the baseline also enjoys).

use flashmob::{FlashMob, RunOptions, WalkAlgorithm, WalkConfig};
use fm_baseline::{Baseline, BaselineConfig, BaselineKind};
use fm_bench::{analog, scaled_planner, HarnessOpts};
use fm_graph::presets::PaperGraph;
use fm_graph::Csr;
use fm_telemetry::Telemetry;

fn baseline_stats(
    g: &Csr,
    kind: BaselineKind,
    algo: WalkAlgorithm,
    walkers: usize,
    steps: usize,
) -> flashmob::RunStats {
    let mut walk = WalkConfig::deepwalk()
        .walkers(walkers)
        .steps(steps)
        .record_paths(false);
    walk.algorithm = algo;
    Baseline::new(g, BaselineConfig { kind, walk })
        .expect("baseline")
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("run")
        .1
}

fn flashmob_stats(
    g: &Csr,
    algo: WalkAlgorithm,
    walkers: usize,
    steps: usize,
    opts: &HarnessOpts,
) -> flashmob::RunStats {
    let mut cfg = WalkConfig::deepwalk()
        .walkers(walkers)
        .steps(steps)
        .record_paths(false)
        .threads(opts.threads)
        .planner(scaled_planner(opts.scale));
    cfg.algorithm = algo;
    FlashMob::new(g, cfg)
        .expect("flashmob")
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("run")
        .1
}

fn main() {
    let opts = HarnessOpts::from_args();

    println!("Figure 8a — DeepWalk per-step time (ns)");
    let header = format!(
        "{:<8}{:>12}{:>12}{:>12}{:>10}{:>10}",
        "Graph", "GraphVite", "KnightKing", "FlashMob", "KK/GV", "KK/FM"
    );
    println!("{header}");
    fm_bench::rule(&header);
    for which in PaperGraph::ALL {
        let g = analog(which, opts.scale);
        let walkers = g.vertex_count() * opts.walkers_mult;
        let gvs = baseline_stats(
            &g,
            BaselineKind::GraphVite,
            WalkAlgorithm::DeepWalk,
            walkers,
            opts.steps,
        );
        let kks = baseline_stats(
            &g,
            BaselineKind::KnightKing,
            WalkAlgorithm::DeepWalk,
            walkers,
            opts.steps,
        );
        let fms = flashmob_stats(&g, WalkAlgorithm::DeepWalk, walkers, opts.steps, &opts);
        let (gv, kk, fm) = (gvs.per_step_ns(), kks.per_step_ns(), fms.per_step_ns());
        println!(
            "{:<8}{:>12.1}{:>12.1}{:>12.1}{:>9.1}x{:>9.1}x",
            which.tag(),
            gv,
            kk,
            fm,
            gv / kk,
            kk / fm
        );
    }
    println!("(paper: GV/KK = 2.2-3.8x, KK/FM = 5.4-13.7x, FlashMob 21.5-36.7 ns/step)");

    println!();
    println!("Figure 8b — node2vec per-step time (ns), p=2, q=0.5");
    let header = format!(
        "{:<8}{:>12}{:>12}{:>10}",
        "Graph", "KnightKing", "FlashMob", "KK/FM"
    );
    println!("{header}");
    fm_bench::rule(&header);
    let n2v = WalkAlgorithm::Node2Vec { p: 2.0, q: 0.5 };
    let n2v_steps = (opts.steps / 2).max(4);
    for which in PaperGraph::ALL {
        let g = analog(which, opts.scale);
        let walkers = g.vertex_count() * opts.walkers_mult;
        let kks = baseline_stats(&g, BaselineKind::KnightKing, n2v, walkers, n2v_steps);
        let fms = flashmob_stats(&g, n2v, walkers, n2v_steps, &opts);
        let (kk, fm) = (kks.per_step_ns(), fms.per_step_ns());
        println!(
            "{:<8}{:>12.1}{:>12.1}{:>9.1}x",
            which.tag(),
            kk,
            fm,
            kk / fm
        );
    }
    println!("(paper: KK/FM = 3.9-19.9x; smaller than DeepWalk because the");
    println!(" connectivity check escapes the current VP)");
}
