//! Figure 1: the performance highlight.
//!
//! (a) Per-step DeepWalk time: the KnightKing-style baseline on toy
//! graphs sized to the L1/L2/L3 capacities and on the YT/YH analogs,
//! versus FlashMob on YT/YH.  The paper's claim: FlashMob's per-step
//! time on the 58 GB YH graph matches KnightKing on a 600 KB toy graph
//! that fits in L2.
//!
//! (b) Per-step cache hit/miss breakdown (simulated hierarchy) for both
//! systems on YT and YH.

use flashmob::{FlashMob, RunOptions, WalkConfig};
use fm_baseline::{Baseline, BaselineConfig, BaselineKind};
use fm_bench::{analog, fmt_bytes, scaled_planner, HarnessOpts};
use fm_graph::presets::{toy_for_cache_bytes, PaperGraph};
use fm_graph::Csr;
use fm_memsim::{HierarchyConfig, MemorySystem};
use fm_telemetry::Telemetry;

fn baseline_per_step(g: &Csr, opts: &HarnessOpts) -> f64 {
    let walk = WalkConfig::deepwalk()
        .walkers(g.vertex_count())
        .steps(opts.steps)
        .seed(1)
        .record_paths(false);
    let kind = BaselineKind::KnightKing;
    let engine = Baseline::new(g, BaselineConfig { kind, walk }).expect("baseline");
    engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("run")
        .1
        .per_step_ns()
}

fn flashmob_per_step(g: &Csr, opts: &HarnessOpts) -> f64 {
    let cfg = WalkConfig::deepwalk()
        .walkers(g.vertex_count())
        .steps(opts.steps)
        .seed(1)
        .record_paths(false)
        .planner(scaled_planner(opts.scale));
    let engine = FlashMob::new(g, cfg).expect("flashmob");
    engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("run")
        .1
        .per_step_ns()
}

fn main() {
    let opts = HarnessOpts::from_args();
    let hierarchy = scaled_planner(opts.scale).hierarchy;

    println!("Figure 1a — per-step DeepWalk time (ns)");
    let header = format!(
        "{:<26}{:>14}{:>12}",
        "System / graph", "footprint", "ns/step"
    );
    println!("{header}");
    fm_bench::rule(&header);

    let toys = [
        (
            "KnightKing / toy-L1",
            toy_for_cache_bytes(hierarchy.l1.size_bytes / 2),
        ),
        (
            "KnightKing / toy-L2",
            toy_for_cache_bytes(hierarchy.l2.size_bytes / 2),
        ),
        (
            "KnightKing / toy-L3",
            toy_for_cache_bytes(hierarchy.l3.size_bytes / 2),
        ),
    ];
    let mut kk_l2_ns = 0.0;
    for (label, g) in &toys {
        let ns = baseline_per_step(g, &opts);
        if label.ends_with("L2") {
            kk_l2_ns = ns;
        }
        println!(
            "{:<26}{:>14}{:>12.1}",
            label,
            fmt_bytes(g.footprint_bytes()),
            ns
        );
    }
    let yt = analog(PaperGraph::Youtube, opts.scale);
    let yh = analog(PaperGraph::YahooWeb, opts.scale);
    for (label, g) in [("KnightKing / YT", &yt), ("KnightKing / YH", &yh)] {
        println!(
            "{:<26}{:>14}{:>12.1}",
            label,
            fmt_bytes(g.footprint_bytes()),
            baseline_per_step(g, &opts)
        );
    }
    let mut fm_yh_ns = 0.0;
    for (label, g) in [("FlashMob / YT", &yt), ("FlashMob / YH", &yh)] {
        let ns = flashmob_per_step(g, &opts);
        if label.ends_with("YH") {
            fm_yh_ns = ns;
        }
        println!(
            "{:<26}{:>14}{:>12.1}",
            label,
            fmt_bytes(g.footprint_bytes()),
            ns
        );
    }
    println!();
    println!(
        "Headline check: FlashMob on YH = {:.1} ns/step vs KnightKing on the\n\
         L2-resident toy = {:.1} ns/step (paper: comparable).",
        fm_yh_ns, kk_l2_ns
    );

    println!();
    println!("Figure 1b — per-step cache hits/misses (simulated hierarchy)");
    let header = format!(
        "{:<22}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "System / graph", "L1 hit", "L1 miss", "L2 hit", "L2 miss", "L3 hit", "L3 miss"
    );
    println!("{header}");
    fm_bench::rule(&header);
    let probe_walkers = |g: &Csr| (g.edge_count() / 2).clamp(1000, 500_000);
    for (label, g, is_fm) in [
        ("KnightKing / YT", &yt, false),
        ("KnightKing / YH", &yh, false),
        ("FlashMob   / YT", &yt, true),
        ("FlashMob   / YH", &yh, true),
    ] {
        let mut probe = MemorySystem::new(HierarchyConfig {
            ..hierarchy.clone()
        });
        if is_fm {
            let cfg = WalkConfig::deepwalk()
                .walkers(probe_walkers(g))
                .steps(opts.steps.min(16))
                .record_paths(false)
                .planner(scaled_planner(opts.scale));
            let engine = FlashMob::new(g, cfg).expect("flashmob");
            engine.run_probed(&mut probe).expect("probed run");
        } else {
            let walk = WalkConfig::deepwalk()
                .walkers(probe_walkers(g))
                .steps(opts.steps.min(16))
                .record_paths(false);
            let kind = BaselineKind::KnightKing;
            let engine = Baseline::new(g, BaselineConfig { kind, walk }).expect("baseline");
            engine.run_probed(&mut probe).expect("probed run");
        }
        let s = probe.stats();
        println!(
            "{:<22}{:>9.2}{:>9.2}{:>9.2}{:>9.2}{:>9.2}{:>9.2}",
            label,
            s.per_step(s.l1.hits),
            s.per_step(s.l1.misses),
            s.per_step(s.l2.hits),
            s.per_step(s.l2.misses),
            s.per_step(s.l3.hits),
            s.per_step(s.l3.misses),
        );
    }
    println!();
    println!("Expected shape: FlashMob's L2 catches most L1 misses; the baseline's");
    println!("misses fall straight through every level to DRAM.");
}
