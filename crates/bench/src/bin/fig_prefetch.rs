//! Prefetch figure: latency hiding from the interleaved walker ring.
//!
//! Sweeps ring depth G in {1, 2, 4, 8, 16} over the three classical
//! algorithms and the three walk programs (PPR, early-exit, metapath)
//! at 1 and 8 threads on the largest in-repo analog (Yahoo), reporting
//! wall-clock per-step time and the speedup over the unpipelined
//! (depth-1) sample loop.  The walk output is bit-identical at every
//! depth — the ring only reorders memory traffic — so any delta is pure
//! latency hiding.  node2vec runs its one sample stage at both thread
//! counts, ringing its proposal and resolve rounds.
//!
//! The paper does not plot this figure; the sweep quantifies the repo's
//! own §10 (DESIGN.md) ring.

use flashmob::{FlashMob, MetapathPattern, RunOptions, WalkAlgorithm, WalkConfig};
use fm_bench::{analog, scaled_planner, timed, HarnessOpts};
use fm_graph::presets::PaperGraph;
use fm_graph::Csr;
use fm_rng::Rng64;
use fm_telemetry::Telemetry;

const DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// Copies a graph, attaching deterministic pseudo-random edge weights
/// (the analogs are unweighted; Weighted needs per-edge weights).
fn weighted_copy(g: &Csr) -> Csr {
    let mut rng = fm_rng::Xorshift64Star::new(0x77e1);
    let weights: Vec<f32> = (0..g.edge_count())
        .map(|_| 0.25 + (rng.next_u64() % 8) as f32 * 0.25)
        .collect();
    Csr::from_parts(g.offsets().to_vec(), g.targets().to_vec(), Some(weights)).unwrap()
}

/// Copies a graph, attaching `slot % 2` edge-type labels (the analogs
/// carry no type information; Metapath needs a labeled graph).
fn labeled_copy(g: &Csr) -> Csr {
    let mut labels = Vec::with_capacity(g.edge_count());
    for u in 0..g.vertex_count() {
        let d = g.degree(u as fm_graph::VertexId);
        for slot in 0..d {
            labels.push((slot % 2) as u8);
        }
    }
    Csr::from_parts(g.offsets().to_vec(), g.targets().to_vec(), None)
        .and_then(|c| c.with_edge_labels(labels))
        .unwrap_or_else(|e| unreachable!("labeled copy of a valid CSR: {e}"))
}

fn run_once(
    g: &Csr,
    algo: WalkAlgorithm,
    depth: usize,
    threads: usize,
    opts: &HarnessOpts,
) -> (flashmob::RunStats, f64) {
    let walkers = g.vertex_count() * opts.walkers_mult;
    let steps = if algo.is_second_order() {
        (opts.steps / 2).max(4)
    } else {
        opts.steps
    };
    let mut cfg = WalkConfig::deepwalk()
        .walkers(walkers)
        .steps(steps)
        .record_paths(false)
        .threads(threads)
        .ring_depth(depth)
        .planner(scaled_planner(opts.scale));
    cfg.algorithm = algo;
    let (out, secs) = timed(|| {
        FlashMob::new(g, cfg)
            .expect("flashmob")
            .run_with(&RunOptions::default(), &mut Telemetry::off())
            .expect("run")
            .1
    });
    (out, secs)
}

fn main() {
    let opts = HarnessOpts::from_args();
    let which = PaperGraph::YahooWeb;
    let g = analog(which, opts.scale);
    let wg = weighted_copy(&g);
    let lg = labeled_copy(&g);

    let algos: [(&str, WalkAlgorithm); 6] = [
        ("deepwalk", WalkAlgorithm::DeepWalk),
        ("weighted", WalkAlgorithm::Weighted),
        ("node2vec", WalkAlgorithm::Node2Vec { p: 2.0, q: 0.5 }),
        ("ppr", WalkAlgorithm::Ppr { alpha: 0.15 }),
        ("early-exit", WalkAlgorithm::EarlyExit),
        (
            "metapath",
            WalkAlgorithm::Metapath {
                pattern: MetapathPattern::new(&[0, 1])
                    .unwrap_or_else(|| unreachable!("two labels form a valid pattern")),
            },
        ),
    ];

    println!(
        "Prefetch sweep — ring depth vs per-step time (ns), {} analog",
        which.tag()
    );
    for threads in [1usize, 8] {
        println!();
        println!("threads = {threads}");
        let header = format!(
            "{:<10}{:>4}{:>12}{:>12}{:>10}{:>14}",
            "Algo", "G", "wall (s)", "ns/step", "vs G=1", "prefetches"
        );
        println!("{header}");
        fm_bench::rule(&header);
        for (name, algo) in algos {
            let mut base_ns = 0.0f64;
            let graph = match algo {
                WalkAlgorithm::Weighted => &wg,
                WalkAlgorithm::Metapath { .. } => &lg,
                _ => &g,
            };
            for depth in DEPTHS {
                let (stats, secs) = run_once(graph, algo, depth, threads, &opts);
                // Wall-clock per step: RunStats::per_step_ns uses the
                // engine's own timer; recompute from the outer timer so
                // the two columns agree.
                let ns = secs * 1e9 / stats.steps_taken.max(1) as f64;
                if depth == 1 {
                    base_ns = ns;
                }
                let prefetches: u64 = stats.per_partition_prefetches.iter().sum();
                println!(
                    "{:<10}{:>4}{:>12.3}{:>12.1}{:>9.2}x{:>14}",
                    name,
                    depth,
                    secs,
                    ns,
                    base_ns / ns,
                    prefetches
                );
            }
        }
    }
    println!();
    println!("(ring output is bit-identical at every depth; see ci.sh ring tier)");
}
