//! Whole-graph edge samplers used by the baseline engines.

use fm_graph::{Csr, VertexId};
use fm_memsim::{AccessKind, Probe};
use fm_rng::{AliasTable, Rng64};

/// Simulated address bases for the baseline arrays.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineAddrs {
    /// CSR offsets.
    pub offsets: u64,
    /// CSR targets.
    pub targets: u64,
    /// Alias-table probability array (GraphVite).
    pub alias_prob: u64,
    /// Alias-table alias array (GraphVite).
    pub alias_idx: u64,
    /// Cumulative weights (weighted KnightKing walks).
    pub cum_weights: u64,
}

/// How a baseline engine draws one edge.
#[derive(Debug)]
pub enum SamplerKind {
    /// Uniform pick over the adjacency list (KnightKing, unweighted).
    Uniform,
    /// Inverse-transform over per-adjacency cumulative weights
    /// (KnightKing, weighted).
    CumulativeWeights(Vec<f32>),
    /// Per-vertex alias tables flattened over all edges (GraphVite).
    ///
    /// `prob[e]` / `alias[e]` are parallel to the CSR targets array;
    /// `alias[e]` stores an index *within the same adjacency list*.
    Alias {
        /// Scaled acceptance probability per slot.
        prob: Vec<f64>,
        /// In-adjacency alias slot.
        alias: Vec<u32>,
    },
}

impl SamplerKind {
    /// Builds the flattened per-vertex alias tables for a graph.
    ///
    /// Unweighted graphs get uniform tables (every slot accepts), which
    /// is exactly what GraphVite constructs; the traffic cost of reading
    /// the table is what matters.
    pub fn alias_for(graph: &Csr) -> Self {
        let e = graph.edge_count();
        let mut prob = vec![1.0f64; e];
        let mut alias = vec![0u32; e];
        if graph.is_weighted() {
            for v in 0..graph.vertex_count() {
                let off = graph.adjacency_start(v as VertexId);
                let ws = graph.edge_weights(v as VertexId).expect("weighted");
                let weights: Vec<f64> = ws.iter().map(|&w| w as f64).collect();
                // An empty row, or one with no positive weight, keeps its
                // uniform slots.
                let Ok(table) = AliasTable::new(&weights) else {
                    continue;
                };
                let (p, a) = table.into_rows();
                prob[off..off + p.len()].copy_from_slice(&p);
                alias[off..off + a.len()].copy_from_slice(&a);
            }
        }
        SamplerKind::Alias { prob, alias }
    }

    /// Builds cumulative-weight storage for a weighted graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is unweighted.
    pub fn cumulative_for(graph: &Csr) -> Self {
        assert!(graph.is_weighted(), "cumulative sampler needs weights");
        let mut cum = Vec::with_capacity(graph.edge_count());
        let mut acc = 0.0f32;
        for v in 0..graph.vertex_count() {
            for &w in graph.edge_weights(v as VertexId).expect("weighted") {
                acc += w;
                cum.push(acc);
            }
        }
        SamplerKind::CumulativeWeights(cum)
    }

    /// Draws the slot index `k` (within `v`'s adjacency list).
    ///
    /// The offset lookup is charged as a pointer-chasing access — the
    /// address depends on the previous step's sampled vertex, forming
    /// the dependent-load chain that dominates baseline latency.
    pub fn pick<R: Rng64, P: Probe>(
        &self,
        graph: &Csr,
        v: VertexId,
        rng: &mut R,
        probe: &mut P,
        addr: &BaselineAddrs,
    ) -> usize {
        probe.touch(addr.offsets + 8 * v as u64, 8, AccessKind::PointerChase);
        let off = graph.adjacency_start(v);
        let d = graph.degree(v);
        debug_assert!(d > 0);
        match self {
            SamplerKind::Uniform => rng.gen_index(d),
            SamplerKind::CumulativeWeights(cum) => {
                let lo = if off == 0 { 0.0 } else { cum[off - 1] };
                let hi = cum[off + d - 1];
                let x = lo + rng.next_f64() as f32 * (hi - lo);
                let k = cum[off..off + d].partition_point(|&c| c <= x).min(d - 1);
                probe.touch(
                    addr.cum_weights + 4 * (off + k) as u64,
                    4,
                    AccessKind::Random,
                );
                k
            }
            SamplerKind::Alias { prob, alias } => {
                let slot = rng.gen_index(d);
                probe.touch(
                    addr.alias_prob + 8 * (off + slot) as u64,
                    8,
                    AccessKind::Random,
                );
                probe.touch(
                    addr.alias_idx + 4 * (off + slot) as u64,
                    4,
                    AccessKind::Random,
                );
                if rng.next_f64() < prob[off + slot] {
                    slot
                } else {
                    alias[off + slot] as usize
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::synth;
    use fm_memsim::NullProbe;
    use fm_rng::Xorshift64Star;

    #[test]
    fn uniform_pick_is_uniform() {
        let g = synth::star(9); // hub degree 8
        let s = SamplerKind::Uniform;
        let mut rng = Xorshift64Star::new(1);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[s.pick(&g, 0, &mut rng, &mut NullProbe, &BaselineAddrs::default())] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 80_000.0 - 0.125).abs() < 0.01);
        }
    }

    #[test]
    fn alias_unweighted_is_uniform() {
        let g = synth::star(5);
        let s = SamplerKind::alias_for(&g);
        let mut rng = Xorshift64Star::new(2);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[s.pick(&g, 0, &mut rng, &mut NullProbe, &BaselineAddrs::default())] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 40_000.0 - 0.25).abs() < 0.02);
        }
    }

    #[test]
    fn alias_weighted_matches_weights() {
        let g = Csr::from_parts(
            vec![0, 3, 4, 5, 6],
            vec![1, 2, 3, 0, 0, 0],
            Some(vec![1.0, 2.0, 1.0, 1.0, 1.0, 1.0]),
        )
        .unwrap();
        let s = SamplerKind::alias_for(&g);
        let mut rng = Xorshift64Star::new(3);
        let mut counts = [0usize; 3];
        for _ in 0..80_000 {
            counts[s.pick(&g, 0, &mut rng, &mut NullProbe, &BaselineAddrs::default())] += 1;
        }
        let total = 80_000.0;
        assert!((counts[0] as f64 / total - 0.25).abs() < 0.01);
        assert!((counts[1] as f64 / total - 0.50).abs() < 0.01);
        assert!((counts[2] as f64 / total - 0.25).abs() < 0.01);
    }

    #[test]
    fn cumulative_weighted_matches_weights() {
        let g = Csr::from_parts(
            vec![0, 2, 3, 4],
            vec![1, 2, 0, 0],
            Some(vec![3.0, 1.0, 1.0, 1.0]),
        )
        .unwrap();
        let s = SamplerKind::cumulative_for(&g);
        let mut rng = Xorshift64Star::new(4);
        let mut first = 0usize;
        for _ in 0..40_000 {
            if s.pick(&g, 0, &mut rng, &mut NullProbe, &BaselineAddrs::default()) == 0 {
                first += 1;
            }
        }
        assert!((first as f64 / 40_000.0 - 0.75).abs() < 0.01);
    }

    #[test]
    fn alias_touches_more_memory_than_uniform() {
        use fm_memsim::{HierarchyConfig, MemorySystem};
        let g = synth::power_law(500, 2.0, 1, 50, 5);
        let addrs = BaselineAddrs {
            offsets: 0x10_0000,
            targets: 0x20_0000,
            alias_prob: 0x30_0000,
            alias_idx: 0x40_0000,
            cum_weights: 0x50_0000,
        };
        let run = |s: &SamplerKind| {
            let mut probe = MemorySystem::new(HierarchyConfig::skylake_server());
            let mut rng = Xorshift64Star::new(6);
            for v in 0..500u32 {
                let _ = s.pick(&g, v, &mut rng, &mut probe, &addrs);
            }
            probe.stats().accesses
        };
        let uniform = run(&SamplerKind::Uniform);
        let alias = run(&SamplerKind::alias_for(&g));
        assert_eq!(alias, uniform + 2 * 500, "alias adds two touches per pick");
    }
}
