//! Figure 10: the DP-identified partitioning, visualized.
//!
//! For each graph: (a) the VP size-class and sampling-policy layout
//! along the degree-sorted vertex array, and (b) the share of
//! walker-steps landing on each (size-class, policy) combination.
//! The paper's qualitative shape: hubs get small (mostly L2-class) PS
//! partitions; the low-degree tail gets large DS partitions; the L3
//! class is mostly skipped.

use flashmob::cost::AnalyticCostModel;
use flashmob::partition::{Partition, SamplePolicy};
use flashmob::{FlashMob, RunOptions, WalkConfig};
use fm_bench::{analog, scaled_planner, HarnessOpts};
use fm_graph::presets::PaperGraph;
use fm_memsim::Level;
use fm_telemetry::Telemetry;

fn size_class(model: &AnalyticCostModel, p: &Partition) -> Level {
    let bytes = match p.policy {
        SamplePolicy::Direct => p.ds_working_set_bytes(),
        SamplePolicy::PreSample => p.ps_working_set_bytes(model.config().line_bytes),
    };
    model.fit(bytes)
}

fn main() {
    let opts = HarnessOpts::from_args();
    let params = scaled_planner(opts.scale);
    let model = AnalyticCostModel::new(params.hierarchy.clone());
    println!("Figure 10 — DP-identified VP sizes and policies");

    for which in PaperGraph::ALL {
        let g = analog(which, opts.scale);
        let cfg = WalkConfig::deepwalk()
            .walkers(g.vertex_count() * opts.walkers_mult)
            .steps(opts.steps.min(16))
            .record_paths(false)
            .planner(params.clone());
        let engine = FlashMob::new(&g, cfg).expect("flashmob");
        let plan = engine.plan();
        let (_, stats) = engine
            .run_with(&RunOptions::default(), &mut Telemetry::off())
            .expect("run");

        println!();
        println!(
            "{}: {} partitions, {} groups, {} shuffle level(s), PS edge share {:.0}%",
            which.tag(),
            plan.partitions.len(),
            plan.groups.len(),
            plan.shuffle_levels(),
            plan.ps_edge_share() * 100.0
        );

        // (a) vertex-share and (b) walker-step-share per (class, policy).
        let mut vertex_share = std::collections::BTreeMap::<(String, &str), f64>::new();
        let mut step_share = std::collections::BTreeMap::<(String, &str), f64>::new();
        let total_v = g.vertex_count() as f64;
        let total_steps: u64 = stats.per_partition_steps.iter().sum();
        for (pi, p) in plan.partitions.iter().enumerate() {
            let class = format!("{:?}", size_class(&model, p));
            let key = (class, p.policy.tag());
            *vertex_share.entry(key.clone()).or_default() += p.vertex_count() as f64 / total_v;
            *step_share.entry(key).or_default() +=
                stats.per_partition_steps[pi] as f64 / total_steps.max(1) as f64;
        }
        let header = format!(
            "{:<18}{:>16}{:>20}",
            "class/policy", "% of vertices", "% of walker-steps"
        );
        println!("{header}");
        fm_bench::rule(&header);
        for (key, vs) in &vertex_share {
            let ss = step_share.get(key).copied().unwrap_or(0.0);
            println!(
                "{:<18}{:>15.1}%{:>19.1}%",
                format!("{}-{}", key.0, key.1),
                vs * 100.0,
                ss * 100.0
            );
        }
    }
    println!();
    println!("Expected shape: PS on the high-degree head (small cache-class VPs),");
    println!("DS on the long tail; walker-steps skew heavily toward the PS head.");
}
