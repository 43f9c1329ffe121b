//! GraphSage-style neighborhood sampling on top of walk machinery.
//!
//! The paper's introduction notes that approximate graph-mining systems
//! (ASAP, GraphSage) spend their time in neighborhood sampling that
//! "would also benefit from FlashMob's cache-friendly design".  This
//! example builds a two-level sampled neighborhood (fan-outs 10 and 5)
//! for a batch of seed vertices, using reservoir sampling over
//! adjacency lists, then compares the frequency of sampled vertices
//! against short random-walk visit counts — both concentrate on hubs.
//!
//! ```text
//! cargo run --release --example neighborhood_sampling
//! ```

use flashmob_repro::flashmob::{FlashMob, RunOptions, WalkConfig, WalkerInit};
use flashmob_repro::graph::{synth, VertexId};
use flashmob_repro::rng::{reservoir, Rng64, Xorshift64Star};
use flashmob_repro::telemetry::Telemetry;

const FANOUT: [usize; 2] = [10, 5];

fn main() {
    let graph = synth::power_law(30_000, 1.9, 2, 1_500, 17);
    println!(
        "graph: |V| = {}, |E| = {}",
        graph.vertex_count(),
        graph.edge_count()
    );

    // Two-hop sampled neighborhoods for a batch of 512 seeds.
    let mut rng = Xorshift64Star::new(5);
    let seeds: Vec<VertexId> = (0..512)
        .map(|_| rng.gen_index(graph.vertex_count()) as VertexId)
        .collect();

    let mut sampled = vec![0u64; graph.vertex_count()];
    let mut frontier = seeds.clone();
    let mut total = 0usize;
    for &fanout in &FANOUT {
        let mut next = Vec::with_capacity(frontier.len() * fanout);
        for &v in &frontier {
            for t in reservoir::sample_k(graph.neighbors(v).iter().copied(), fanout, &mut rng) {
                sampled[t as usize] += 1;
                next.push(t);
                total += 1;
            }
        }
        frontier = next;
    }
    println!(
        "sampled {} neighbors over {} levels (fan-outs {:?})",
        total,
        FANOUT.len(),
        FANOUT
    );

    // Short walks from the same seeds, for comparison.
    let config = WalkConfig::deepwalk()
        .walkers(seeds.len() * 8)
        .steps(2)
        .init(WalkerInit::Fixed(seeds))
        .seed(23)
        .record_visits(true);
    let engine = FlashMob::new(&graph, config).expect("engine");
    let (_, stats) = engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("walk");
    let visits = stats.visits_original(engine.relabeling()).expect("visits");

    // Both distributions should concentrate on the same hubs.
    let top_share = |counts: &[u64]| {
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(counts[v]));
        let top: u64 = order[..counts.len() / 100].iter().map(|&v| counts[v]).sum();
        top as f64 / counts.iter().sum::<u64>().max(1) as f64
    };
    let s_share = top_share(&sampled);
    let w_share = top_share(&visits);
    println!(
        "top-1% vertex share: neighborhood sampling {:.1}%, random walks {:.1}%",
        s_share * 100.0,
        w_share * 100.0
    );
    assert!(
        s_share > 0.1 && w_share > 0.1,
        "both workloads should concentrate on hubs"
    );
    println!("OK: neighborhood sampling shows the same hub-concentration the");
    println!("paper's frequency-aware grouping exploits.");
}
