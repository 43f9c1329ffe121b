//! A Bloom filter over directed edges, used as a *negative* membership
//! filter for second-order walks.
//!
//! node2vec's bias weight needs `has_edge(t, cand)` per rejection
//! attempt that did not fast-accept.  On a sorted graph that is a
//! halving search of `log2 d(t)` dependent reads into a hub list that
//! left the cache long ago (`Csr::has_edge`: 125-135 ns on the TW
//! analog, `fmbench traced n2v_tw`).  Most candidates are *not* adjacent
//! to `t`, and a Bloom filter has no false negatives — so "not in the
//! filter" proves non-adjacency exactly, in two or three probes (22-34
//! ns there, rejecting 99.5 % of the non-edges), and only the positive
//! probes fall through to the search.  False positives therefore cost
//! time, never correctness.

use crate::csr::Csr;
use crate::VertexId;

/// A fixed-size Bloom filter keyed by directed edges `(u, v)`.
#[derive(Debug, Clone)]
pub struct EdgeBloom {
    bits: Vec<u64>,
    /// Bit-index mask (`bits.len() * 64` is a power of two).
    mask: u64,
    hashes: u32,
}

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl EdgeBloom {
    /// Builds a filter over every directed edge of `graph`.
    ///
    /// `bits_per_edge` controls the false-positive rate (~9% at 5 bits
    /// with 2 hashes, ~3% at 8 bits with 3); the total size rounds up to
    /// a power of two.  An empty graph yields a minimal always-negative
    /// filter.
    pub fn from_graph(graph: &Csr, bits_per_edge: usize) -> Self {
        let edges = graph.edge_count().max(1);
        let bit_count = (edges * bits_per_edge.max(1)).next_power_of_two().max(64);
        let hashes = if bits_per_edge >= 7 { 3 } else { 2 };
        let mut filter = Self {
            bits: vec![0u64; bit_count / 64],
            mask: bit_count as u64 - 1,
            hashes,
        };
        for (u, v) in graph.edges() {
            filter.insert(u, v);
        }
        filter
    }

    #[inline]
    fn key(u: VertexId, v: VertexId) -> u64 {
        ((u as u64) << 32) | v as u64
    }

    #[inline]
    fn insert(&mut self, u: VertexId, v: VertexId) {
        let h1 = splitmix(Self::key(u, v));
        let h2 = splitmix(h1) | 1; // odd stride for double hashing
        for i in 0..self.hashes as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) & self.mask;
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
    }

    /// Returns `false` only when the edge is *definitely absent*; `true`
    /// means "present or false positive" and must be verified precisely.
    #[inline]
    pub fn may_contain(&self, u: VertexId, v: VertexId) -> bool {
        let h1 = splitmix(Self::key(u, v));
        let h2 = splitmix(h1) | 1;
        for i in 0..self.hashes as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) & self.mask;
            if self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    /// Calls `f` with each filter word [`EdgeBloom::may_contain`]`(u, v)`
    /// will read, in probe order.  Lets callers prefetch the exact cache
    /// lines of an upcoming query without exposing the bit layout.
    #[inline]
    pub fn probe_words(&self, u: VertexId, v: VertexId, mut f: impl FnMut(&u64)) {
        let h1 = splitmix(Self::key(u, v));
        let h2 = splitmix(h1) | 1;
        for i in 0..self.hashes as u64 {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) & self.mask;
            f(&self.bits[(bit / 64) as usize]);
        }
    }

    /// Filter size in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Number of probe positions per query.
    pub fn hash_count(&self) -> u32 {
        self.hashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn no_false_negatives() {
        let g = synth::power_law(2_000, 2.0, 1, 100, 3);
        let bloom = EdgeBloom::from_graph(&g, 8);
        for (u, v) in g.edges() {
            assert!(bloom.may_contain(u, v), "edge {u}->{v} reported absent");
        }
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        use fm_rng::{Rng64, Xorshift64Star};
        let g = synth::power_law(2_000, 2.0, 1, 100, 3);
        let bloom = EdgeBloom::from_graph(&g, 8);
        let mut rng = Xorshift64Star::new(5);
        let mut fp = 0usize;
        let trials = 100_000;
        let mut tested = 0usize;
        for _ in 0..trials {
            let u = rng.gen_index(2_000) as VertexId;
            let v = rng.gen_index(2_000) as VertexId;
            if g.neighbors(u).contains(&v) {
                continue;
            }
            tested += 1;
            if bloom.may_contain(u, v) {
                fp += 1;
            }
        }
        let rate = fp as f64 / tested as f64;
        assert!(rate < 0.10, "false-positive rate {rate:.4}");
    }

    #[test]
    fn direction_matters() {
        let g = crate::csr::Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let bloom = EdgeBloom::from_graph(&g, 16);
        assert!(bloom.may_contain(0, 1));
        // (1, 0) is absent; a 16-bit/edge filter on 3 edges should not
        // collide (deterministic hashes, fixed expectation).
        assert!(!bloom.may_contain(1, 0));
    }

    #[test]
    fn empty_graph_filter_is_all_negative() {
        let g = crate::csr::Csr::from_edges(4, &[]).unwrap();
        let bloom = EdgeBloom::from_graph(&g, 8);
        assert!(!bloom.may_contain(0, 1));
        assert!(bloom.footprint_bytes() >= 8);
    }
}
