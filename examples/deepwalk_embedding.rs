//! DeepWalk end to end: random walks feeding skip-gram-with-negative-
//! sampling (SGNS) node-embedding training.
//!
//! This is the pipeline the paper's introduction motivates — FlashMob
//! producing walk corpora for embedding training (there on GPUs; here a
//! compact CPU SGNS so the example is self-contained).  The sanity
//! check at the end verifies the learned geometry: vertices from the
//! same planted community end up closer in embedding space than
//! vertices from different communities.
//!
//! ```text
//! cargo run --release --example deepwalk_embedding
//! ```

use flashmob_repro::flashmob::{FlashMob, RunOptions, WalkConfig};
use flashmob_repro::graph::{Csr, GraphBuilder, VertexId};
use flashmob_repro::rng::{Rng64, Xorshift64Star};
use flashmob_repro::telemetry::Telemetry;

const COMMUNITIES: usize = 8;
const PER_COMMUNITY: usize = 250;
const DIM: usize = 32;
const WINDOW: usize = 4;
const NEGATIVES: usize = 4;
const LEARNING_RATE: f32 = 0.025;

/// A planted-partition graph: dense within communities, sparse across.
fn community_graph(seed: u64) -> Csr {
    let n = COMMUNITIES * PER_COMMUNITY;
    let mut rng = Xorshift64Star::new(seed);
    let mut b = GraphBuilder::new();
    for v in 0..n {
        let c = v / PER_COMMUNITY;
        // ~8 intra-community edges per vertex.
        for _ in 0..8 {
            let u = c * PER_COMMUNITY + rng.gen_index(PER_COMMUNITY);
            if u != v {
                b.add_edge(v as VertexId, u as VertexId);
            }
        }
        // ~1 cross-community edge.
        if rng.gen_bool(0.5) {
            let u = rng.gen_index(n);
            if u != v {
                b.add_edge(v as VertexId, u as VertexId);
            }
        }
    }
    b.symmetric(true).dedup(true).build().expect("valid graph")
}

struct Sgns {
    emb: Vec<f32>,
    ctx: Vec<f32>,
}

impl Sgns {
    fn new(n: usize, seed: u64) -> Self {
        let mut rng = Xorshift64Star::new(seed);
        let mut init = |len: usize| -> Vec<f32> {
            (0..len)
                .map(|_| (rng.next_f64() as f32 - 0.5) / DIM as f32)
                .collect()
        };
        Self {
            emb: init(n * DIM),
            ctx: init(n * DIM),
        }
    }

    fn train_pair(&mut self, center: usize, context: usize, label: f32, lr: f32) {
        let (e, c) = (center * DIM, context * DIM);
        let mut dot = 0.0f32;
        for k in 0..DIM {
            dot += self.emb[e + k] * self.ctx[c + k];
        }
        let pred = 1.0 / (1.0 + (-dot).exp());
        let g = (label - pred) * lr;
        for k in 0..DIM {
            let eu = self.emb[e + k];
            self.emb[e + k] += g * self.ctx[c + k];
            self.ctx[c + k] += g * eu;
        }
    }

    fn cosine(&self, a: usize, b: usize) -> f32 {
        let (ea, eb) = (a * DIM, b * DIM);
        let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
        for k in 0..DIM {
            dot += self.emb[ea + k] * self.emb[eb + k];
            na += self.emb[ea + k] * self.emb[ea + k];
            nb += self.emb[eb + k] * self.emb[eb + k];
        }
        dot / (na.sqrt() * nb.sqrt() + 1e-12)
    }
}

fn main() {
    let graph = community_graph(7);
    println!(
        "planted-community graph: |V| = {}, |E| = {}",
        graph.vertex_count(),
        graph.edge_count()
    );

    // DeepWalk corpus: 5 walks of length 40 from every vertex.
    let config = WalkConfig::deepwalk()
        .walkers(graph.vertex_count() * 5)
        .steps(40)
        .init(flashmob_repro::flashmob::WalkerInit::EveryVertex)
        .seed(11);
    let engine = FlashMob::new(&graph, config).expect("engine");
    let (output, stats) = engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("walk");
    println!(
        "corpus: {} walker-steps at {:.1} ns/step",
        stats.steps_taken,
        stats.per_step_ns()
    );

    // SGNS over sliding windows of each path.
    let mut model = Sgns::new(graph.vertex_count(), 3);
    let mut rng = Xorshift64Star::new(99);
    let paths = output.paths();
    for epoch in 0..2 {
        let lr = LEARNING_RATE / (epoch + 1) as f32;
        for path in &paths {
            for (i, &center) in path.iter().enumerate() {
                let lo = i.saturating_sub(WINDOW);
                let hi = (i + WINDOW + 1).min(path.len());
                for &context in &path[lo..hi] {
                    if context == center {
                        continue;
                    }
                    model.train_pair(center as usize, context as usize, 1.0, lr);
                    for _ in 0..NEGATIVES {
                        let neg = rng.gen_index(graph.vertex_count());
                        model.train_pair(center as usize, neg, 0.0, lr);
                    }
                }
            }
        }
        println!("epoch {epoch} done");
    }

    // Geometry check: same-community pairs vs cross-community pairs.
    let mut same = 0.0f64;
    let mut cross = 0.0f64;
    let trials = 2000;
    for _ in 0..trials {
        let c = rng.gen_index(COMMUNITIES);
        let a = c * PER_COMMUNITY + rng.gen_index(PER_COMMUNITY);
        let b = c * PER_COMMUNITY + rng.gen_index(PER_COMMUNITY);
        same += model.cosine(a, b) as f64;
        let c2 = (c + 1 + rng.gen_index(COMMUNITIES - 1)) % COMMUNITIES;
        let d = c2 * PER_COMMUNITY + rng.gen_index(PER_COMMUNITY);
        cross += model.cosine(a, d) as f64;
    }
    same /= trials as f64;
    cross /= trials as f64;
    println!("mean cosine similarity: same-community {same:.3}, cross-community {cross:.3}");
    assert!(
        same > cross + 0.1,
        "embedding should separate communities ({same:.3} vs {cross:.3})"
    );
    println!("OK: walks + SGNS separate the planted communities.");
}
