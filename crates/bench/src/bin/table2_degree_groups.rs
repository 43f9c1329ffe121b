//! Table 2: DeepWalk traffic statistics by degree-percentile group.
//!
//! Runs DeepWalk (|V| walkers, edge-uniform initial placement) on each
//! graph analog and reports, per degree bucket (<1%, 1~5%, 5~25%,
//! 25~100%): average degree, share of edges, and share of walker visits.
//! The paper's headline: the top-5% vertices receive 45.6-69.7% of all
//! visits, and visit share tracks edge share closely.

use flashmob::{FlashMob, RunOptions, WalkConfig};
use fm_bench::{analog, scaled_planner, HarnessOpts};
use fm_graph::presets::PaperGraph;
use fm_graph::stats::{degree_group_stats, TABLE2_BUCKETS};
use fm_telemetry::Telemetry;

fn main() {
    let opts = HarnessOpts::from_args();
    println!("Table 2 — DeepWalk statistics by degree groups");
    let header = format!(
        "{:<6}{:<4}{:>10}{:>10}{:>10}{:>10}",
        "Graph", "", "<1%", "1%~5%", "5%~25%", "25%~100%"
    );
    println!("{header}");
    fm_bench::rule(&header);

    for which in PaperGraph::ALL {
        let g = analog(which, opts.scale);
        let config = WalkConfig::deepwalk()
            .walkers(g.vertex_count())
            .steps(opts.steps)
            .seed(42)
            .record_paths(false)
            .record_visits(true)
            .planner(scaled_planner(opts.scale));
        let engine = FlashMob::new(&g, config).expect("analog graphs have no sinks");
        let (_, stats) = engine
            .run_with(&RunOptions::default(), &mut Telemetry::off())
            .expect("walk");
        let visits = stats
            .visits_original(engine.relabeling())
            .expect("visits recorded");
        let buckets = degree_group_stats(&g, Some(&visits), &TABLE2_BUCKETS);

        print!("{:<6}{:<4}", which.tag(), "D");
        for b in &buckets {
            print!("{:>10.1}", b.avg_degree);
        }
        println!();
        print!("{:<6}{:<4}", "", "E%");
        for b in &buckets {
            print!("{:>9.1}%", b.edge_share * 100.0);
        }
        println!();
        print!("{:<6}{:<4}", "", "W%");
        for b in &buckets {
            print!("{:>9.1}%", b.visit_share.unwrap_or(0.0) * 100.0);
        }
        println!();

        let top5 = buckets[0].visit_share.unwrap_or(0.0) + buckets[1].visit_share.unwrap_or(0.0);
        println!(
            "{:<10}top-5% visit share: {:.1}%  (paper range: 45.6%-69.7%)",
            "",
            top5 * 100.0
        );
    }
}
