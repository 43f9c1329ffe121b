//! Table 5: memory-hierarchy profiling case studies (FS and UK).
//!
//! Runs KnightKing-style and FlashMob on the FS and UK analogs through
//! the simulated hierarchy, reporting per-step hit/miss counts per
//! level, estimated level-bound time, and DRAM traffic per step.
//! The paper's key observations: FlashMob's L2 catches most L1 misses,
//! its DRAM-bound time drops ~25x, and on FS its DRAM traffic per step
//! is about a quarter of KnightKing's despite the extra shuffle scans;
//! UK is the outlier where the baseline also enjoys locality.

use flashmob::{FlashMob, WalkConfig};
use fm_baseline::{Baseline, BaselineConfig, BaselineKind};
use fm_bench::{analog, scaled_planner, HarnessOpts};
use fm_graph::presets::PaperGraph;
use fm_graph::Csr;
use fm_memsim::{MemoryStats, MemorySystem};

struct Row {
    label: String,
    stats: MemoryStats,
    line_bytes: usize,
}

fn probe_fm(g: &Csr, opts: &HarnessOpts) -> MemoryStats {
    // Density (walkers per edge) drives FlashMob's reuse; clamp the
    // probe workload by |E| so the simulated run keeps a realistic
    // density instead of starving the pre-sample buffers.
    let walkers = (g.edge_count() / 2).clamp(1000, 500_000);
    let cfg = WalkConfig::deepwalk()
        .walkers(walkers)
        .steps(opts.steps.min(16))
        .record_paths(false)
        .planner(scaled_planner(opts.scale));
    let engine = FlashMob::new(g, cfg).expect("flashmob");
    let mut probe = MemorySystem::new(scaled_planner(opts.scale).hierarchy);
    engine.run_probed(&mut probe).expect("probed run");
    probe.stats().clone()
}

fn probe_kk(g: &Csr, opts: &HarnessOpts) -> MemoryStats {
    let walkers = (g.edge_count() / 2).clamp(1000, 500_000);
    let walk = WalkConfig::deepwalk()
        .walkers(walkers)
        .steps(opts.steps.min(16))
        .record_paths(false);
    let kind = BaselineKind::KnightKing;
    let engine = Baseline::new(g, BaselineConfig { kind, walk }).expect("baseline");
    let mut probe = MemorySystem::new(scaled_planner(opts.scale).hierarchy);
    engine.run_probed(&mut probe).expect("probed run");
    probe.stats().clone()
}

fn main() {
    let opts = HarnessOpts::from_args();
    let line_bytes = scaled_planner(opts.scale).hierarchy.line_bytes;
    let mut rows = Vec::new();
    for which in [PaperGraph::Friendster, PaperGraph::UkUnion] {
        let g = analog(which, opts.scale);
        rows.push(Row {
            label: format!("KnK-{}", which.tag()),
            stats: probe_kk(&g, &opts),
            line_bytes,
        });
        rows.push(Row {
            label: format!("FMob-{}", which.tag()),
            stats: probe_fm(&g, &opts),
            line_bytes,
        });
    }

    println!("Table 5 — memory-hierarchy profiling (simulated, per walker-step)");
    let header = {
        let mut h = format!("{:<26}", "Metric");
        for r in &rows {
            h += &format!("{:>14}", r.label);
        }
        h
    };
    println!("{header}");
    fm_bench::rule(&header);

    let print_row = |name: &str, f: &dyn Fn(&Row) -> String| {
        print!("{name:<26}");
        for r in &rows {
            print!("{:>14}", f(r));
        }
        println!();
    };

    print_row("L1 hit | miss /step", &|r| {
        format!(
            "{:.1} | {:.1}",
            r.stats.per_step(r.stats.l1.hits),
            r.stats.per_step(r.stats.l1.misses)
        )
    });
    print_row("L2 hit | miss /step", &|r| {
        format!(
            "{:.2} | {:.2}",
            r.stats.per_step(r.stats.l2.hits),
            r.stats.per_step(r.stats.l2.misses)
        )
    });
    print_row("L3 hit | miss /step", &|r| {
        format!(
            "{:.2} | {:.2}",
            r.stats.per_step(r.stats.l3.hits),
            r.stats.per_step(r.stats.l3.misses)
        )
    });
    print_row("L1-bound ns/step", &|r| {
        format!("{:.2}", r.stats.bound_ns.l1 / r.stats.steps.max(1) as f64)
    });
    print_row("L2-bound ns/step", &|r| {
        format!("{:.2}", r.stats.bound_ns.l2 / r.stats.steps.max(1) as f64)
    });
    print_row("L3-bound ns/step", &|r| {
        format!("{:.2}", r.stats.bound_ns.l3 / r.stats.steps.max(1) as f64)
    });
    print_row("DRAM-bound ns/step", &|r| {
        format!("{:.2}", r.stats.bound_ns.dram / r.stats.steps.max(1) as f64)
    });
    print_row("Total data-bound ns/step", &|r| {
        format!(
            "{:.2}",
            r.stats.total_bound_ns() / r.stats.steps.max(1) as f64
        )
    });
    print_row("DRAM traffic B/step", &|r| {
        format!("{:.1}", r.stats.dram_bytes_per_step(r.line_bytes))
    });

    println!();
    let ratio = |a: usize, b: usize, f: &dyn Fn(&Row) -> f64| f(&rows[a]) / f(&rows[b]).max(1e-9);
    let dram_bound = |r: &Row| r.stats.bound_ns.dram / r.stats.steps.max(1) as f64;
    println!(
        "FS: KnK/FMob DRAM-bound ratio = {:.1}x (paper: 25.4x); \
         UK ratio = {:.1}x (paper: 6.3x, the locality outlier)",
        ratio(0, 1, &dram_bound),
        ratio(2, 3, &dram_bound)
    );
}
