//! Link prediction with node2vec walks.
//!
//! Classic evaluation from the node2vec paper: hide a fraction of
//! edges, run biased walks on the remaining graph, score candidate
//! pairs by walk co-occurrence, and measure AUC against random
//! non-edges.  Exercises the second-order (p, q) machinery end to end.
//!
//! ```text
//! cargo run --release --example node2vec_link_prediction
//! ```

use std::collections::{HashMap, HashSet};

use flashmob_repro::flashmob::{FlashMob, RunOptions, WalkConfig, WalkerInit};
use flashmob_repro::graph::{synth, Csr, GraphBuilder, VertexId};
use flashmob_repro::rng::{Rng64, Xorshift64Star};
use flashmob_repro::telemetry::Telemetry;

const WINDOW: usize = 4;

fn main() {
    // Base graph: power-law, min degree 3 so edge removal cannot strand
    // vertices.
    let full = synth::power_law(5_000, 1.9, 3, 300, 21);
    println!(
        "full graph: |V| = {}, |E| = {}",
        full.vertex_count(),
        full.edge_count()
    );

    // Hold out ~5% of (undirected) edges whose endpoints keep degree > 1.
    let mut rng = Xorshift64Star::new(4);
    let mut held_out: HashSet<(VertexId, VertexId)> = HashSet::new();
    let mut degree: Vec<usize> = (0..full.vertex_count())
        .map(|v| full.degree(v as VertexId))
        .collect();
    for (s, t) in full.edges() {
        if s < t && rng.gen_bool(0.05) && degree[s as usize] > 2 && degree[t as usize] > 2 {
            held_out.insert((s, t));
            degree[s as usize] -= 1;
            degree[t as usize] -= 1;
        }
    }
    let mut b = GraphBuilder::new();
    for (s, t) in full.edges() {
        let key = (s.min(t), s.max(t));
        if !held_out.contains(&key) {
            b.add_edge(s, t);
        }
    }
    let train: Csr = b.build().expect("training graph");
    println!(
        "held out {} edges; training graph |E| = {}",
        held_out.len(),
        train.edge_count()
    );
    assert!(
        train.has_no_sinks(),
        "degree guard keeps the graph walkable"
    );

    // node2vec walks (p=1, q=0.5: exploration-leaning, good for link
    // prediction per the original paper).
    let config = WalkConfig::node2vec(1.0, 0.5)
        .walkers(train.vertex_count() * 8)
        .steps(30)
        .init(WalkerInit::EveryVertex)
        .seed(9);
    let engine = FlashMob::new(&train, config).expect("engine");
    let (output, stats) = engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("walk");
    println!(
        "walked {} steps at {:.1} ns/step",
        stats.steps_taken,
        stats.per_step_ns()
    );

    // Co-occurrence scores within a sliding window.
    let mut score: HashMap<(VertexId, VertexId), u32> = HashMap::new();
    for path in output.paths() {
        for (i, &a) in path.iter().enumerate() {
            for &b in &path[i + 1..(i + 1 + WINDOW).min(path.len())] {
                if a != b {
                    *score.entry((a.min(b), a.max(b))).or_default() += 1;
                }
            }
        }
    }

    // AUC: how often does a held-out edge outscore a random non-edge?
    let positives: Vec<_> = held_out.iter().copied().collect();
    let mut wins = 0.0f64;
    let mut trials = 0.0f64;
    for &(s, t) in &positives {
        let pos = *score.get(&(s, t)).unwrap_or(&0) as f64;
        for _ in 0..5 {
            let a = rng.gen_index(full.vertex_count()) as VertexId;
            let c = rng.gen_index(full.vertex_count()) as VertexId;
            let key = (a.min(c), a.max(c));
            if a == c || full.neighbors(a).contains(&c) {
                continue;
            }
            let neg = *score.get(&key).unwrap_or(&0) as f64;
            trials += 1.0;
            if pos > neg {
                wins += 1.0;
            } else if pos == neg {
                wins += 0.5;
            }
        }
    }
    let auc = wins / trials;
    println!("link-prediction AUC = {auc:.3} over {trials} comparisons");
    assert!(
        auc > 0.7,
        "node2vec co-occurrence should beat chance (AUC {auc:.3})"
    );
    println!("OK: held-out edges rank well above random non-edges.");
}
