//! Walker initialization and the compact walker-state arrays.
//!
//! FlashMob stores walker state as bare vertex IDs in 1-D arrays
//! (Section 4.3, "Compact walker state storage"): `W_i[j]` is the
//! location of walker `j` after step `i`, and walker identity is carried
//! implicitly by array order — halving message footprint versus explicit
//! `<walker, vertex>` pairs.

use fm_graph::{Csr, VertexId};
use fm_rng::{Rng64, Xorshift64Star};

/// How walkers are initially placed on the graph.
#[derive(Debug, Clone)]
pub enum WalkerInit {
    /// Place each walker on a uniformly random vertex.
    UniformVertex,
    /// Place each walker at the source of a uniformly random edge
    /// (degree-proportional placement; the paper's Table 2 workload).
    UniformEdge,
    /// One walker per vertex, in vertex order, repeated cyclically when
    /// there are more walkers than vertices (DeepWalk's "10 walks
    /// starting from each node").
    EveryVertex,
    /// Explicit start vertices (walker `j` starts at `starts[j % len]`).
    Fixed(Vec<VertexId>),
}

/// Materializes the initial walker array `W_0`.
///
/// # Panics
///
/// Panics if the graph is empty, `count` is zero, or a `Fixed` list is
/// empty or out of range.
pub fn initialize(graph: &Csr, init: &WalkerInit, count: usize, seed: u64) -> Vec<VertexId> {
    initialize_from_offsets(graph.offsets(), init, count, seed)
}

/// [`initialize`] over a bare CSR offsets index (`|V| + 1` entries):
/// placement needs degrees only, so the out-of-core engine calls this
/// with the index it keeps in memory.
pub(crate) fn initialize_from_offsets(
    offsets: &[usize],
    init: &WalkerInit,
    count: usize,
    seed: u64,
) -> Vec<VertexId> {
    let n = offsets.len().saturating_sub(1);
    assert!(n > 0, "cannot place walkers on an empty graph");
    assert!(count > 0, "need at least one walker");
    let mut rng = Xorshift64Star::new(seed);
    match init {
        WalkerInit::UniformVertex => (0..count).map(|_| rng.gen_index(n) as VertexId).collect(),
        WalkerInit::UniformEdge => {
            let e = offsets[n];
            assert!(e > 0, "uniform-edge init needs edges");
            (0..count)
                .map(|_| {
                    let edge = rng.gen_index(e);
                    // Source of the sampled edge: last offset <= edge.
                    (offsets.partition_point(|&o| o <= edge) - 1) as VertexId
                })
                .collect()
        }
        WalkerInit::EveryVertex => (0..count).map(|j| (j % n) as VertexId).collect(),
        WalkerInit::Fixed(starts) => {
            assert!(!starts.is_empty(), "fixed init needs start vertices");
            assert!(
                starts.iter().all(|&v| (v as usize) < n),
                "fixed start vertex out of range"
            );
            (0..count).map(|j| starts[j % starts.len()]).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::synth;

    #[test]
    fn uniform_vertex_covers_range() {
        let g = synth::cycle(10);
        let w = initialize(&g, &WalkerInit::UniformVertex, 10_000, 3);
        assert_eq!(w.len(), 10_000);
        assert!(w.iter().all(|&v| (v as usize) < 10));
        // All vertices should be hit at this sample size.
        let mut seen = [false; 10];
        for &v in &w {
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_edge_is_degree_proportional() {
        // Star: hub has degree n-1, leaves degree 1 -> hub gets ~half.
        let g = synth::star(11);
        let w = initialize(&g, &WalkerInit::UniformEdge, 100_000, 5);
        let hub = w.iter().filter(|&&v| v == 0).count() as f64 / w.len() as f64;
        assert!((hub - 0.5).abs() < 0.01, "hub share {hub}");
    }

    #[test]
    fn every_vertex_cycles() {
        let g = synth::cycle(4);
        let w = initialize(&g, &WalkerInit::EveryVertex, 10, 0);
        assert_eq!(w, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn fixed_starts_cycle() {
        let g = synth::cycle(5);
        let w = initialize(&g, &WalkerInit::Fixed(vec![2, 4]), 5, 0);
        assert_eq!(w, vec![2, 4, 2, 4, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fixed_out_of_range_panics() {
        let g = synth::cycle(3);
        let _ = initialize(&g, &WalkerInit::Fixed(vec![9]), 1, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = synth::cycle(50);
        let a = initialize(&g, &WalkerInit::UniformVertex, 100, 7);
        let b = initialize(&g, &WalkerInit::UniformVertex, 100, 7);
        assert_eq!(a, b);
    }
}
