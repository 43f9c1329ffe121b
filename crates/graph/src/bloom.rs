//! A Bloom filter over directed edges, used as a *negative* membership
//! filter for second-order walks.
//!
//! node2vec's bias weight needs `has_edge(t, cand)` per rejection
//! attempt that did not fast-accept.  On a sorted graph that is a
//! halving search of `log2 d(t)` dependent reads into a hub list that
//! left the cache long ago (`Csr::has_edge`: 125-135 ns on the TW
//! analog, `fmbench traced n2v_tw`).  Most candidates are *not* adjacent
//! to `t`, and a Bloom filter has no false negatives — so "not in the
//! filter" proves non-adjacency exactly, in one cache line (38-43 ns
//! there, on the host that gives the three scattered words of the
//! classical layout 48 ns, rejecting 99.76 % of the non-edges), and only
//! the positive probes fall through to the search.  False positives
//! therefore cost time, never correctness.
//!
//! The filter is *blocked*: one hash of `(u, v)` picks a 64-byte block
//! from its high bits and four bit positions inside that
//! block from its low 9-bit groups, so an insert writes one line and a
//! query reads one.  Building it is still one random line per edge, far
//! past the cache; [`EdgeBloom::from_graph`] hides that latency by
//! letting each insert lag `LAG` edges behind its own prefetch.

use crate::csr::Csr;
use crate::prefetch::prefetch_read;
use crate::VertexId;

/// Bits set (and tested) per edge, all inside the edge's one block.
/// Four rather than three: at 8 bits per edge the TW analog's filter
/// rejects 99.76 % of non-edges against 99.50 %, and the fourth bit is
/// in a line the query holds already.
const BITS_PER_KEY: u32 = 4;

/// How many edges an insert trails its own prefetch by during the build
/// (EXPERIMENTS.md, "fmbench ledger — PR 20", has the sweep).  A power
/// of two, so the ring index is a mask.
const LAG: usize = 64;

/// One cache line of filter bits.  The alignment is what makes "one
/// block" mean "one line": a `Vec<u64>` is only 8-byte aligned.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Block([u64; 8]);

/// A fixed-size Bloom filter keyed by directed edges `(u, v)`.
#[derive(Debug, Clone)]
pub struct EdgeBloom {
    /// A power-of-two number of blocks, at least one.
    blocks: Vec<Block>,
}

#[inline]
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn hash(u: VertexId, v: VertexId) -> u64 {
    splitmix(((u as u64) << 32) | v as u64)
}

/// `(word, bit mask)` of the `i`-th position hash `h` names in its block.
#[inline]
fn position(h: u64, i: u32) -> (usize, u64) {
    let bit = (h >> (9 * i)) & 511;
    ((bit / 64) as usize, 1u64 << (bit % 64))
}

impl EdgeBloom {
    /// Builds a filter over every directed edge of `graph`.
    ///
    /// `bits_per_edge` sizes the filter: the total rounds up to a power
    /// of two (and to one 512-bit block at least), so the bits an edge
    /// really gets lie between `bits_per_edge` and twice that.  Measured
    /// on non-edges drawn from hub-weighted sources of the TW analog: at
    /// 8 (13.4 bits an edge after rounding) 0.25 % pass, at 4 (6.7 bits)
    /// 2.3 %.  An empty graph yields a one-block, always-negative filter.
    ///
    /// The one heap allocation is the filter itself
    /// ([`EdgeBloom::footprint_bytes`]): the build's only other state is
    /// a ring of `LAG` hashes on the stack.
    pub fn from_graph(graph: &Csr, bits_per_edge: usize) -> Self {
        let edges = graph.edge_count().max(1);
        let bit_count = (edges * bits_per_edge.max(1)).next_power_of_two().max(512);
        let mut filter = Self {
            blocks: vec![Block([0; 8]); bit_count / 512],
        };
        // Hash edge `i`, hint its block, and only then set the bits of
        // edge `i - LAG`, whose line the hint issued `LAG` edges ago has
        // had time to bring in: ~LAG misses in flight instead of one.
        let mut ring = [0u64; LAG];
        let mut seen = 0usize;
        for u in 0..graph.vertex_count() as VertexId {
            for &v in graph.neighbors(u) {
                let h = hash(u, v);
                prefetch_read(&filter.blocks[filter.block_of(h)]);
                let slot = &mut ring[seen % LAG];
                if seen >= LAG {
                    filter.insert(*slot);
                }
                *slot = h;
                seen += 1;
            }
        }
        for &h in &ring[..seen.min(LAG)] {
            filter.insert(h);
        }
        filter
    }

    /// The block hash `h` falls in: its high bits, scaled to the (power
    /// of two) block count.
    #[inline]
    fn block_of(&self, h: u64) -> usize {
        (((h >> 32) * self.blocks.len() as u64) >> 32) as usize
    }

    #[inline]
    fn insert(&mut self, h: u64) {
        let block = self.block_of(h);
        let words = &mut self.blocks[block].0;
        for i in 0..BITS_PER_KEY {
            let (word, mask) = position(h, i);
            words[word] |= mask;
        }
    }

    /// Returns `false` only when the edge is *definitely absent*; `true`
    /// means "present or false positive" and must be verified precisely.
    #[inline]
    pub fn may_contain(&self, u: VertexId, v: VertexId) -> bool {
        let h = hash(u, v);
        let words = &self.blocks[self.block_of(h)].0;
        // No early exit: the line is here once its first word is, and a
        // branch per bit would mispredict on most negatives.
        (0..BITS_PER_KEY).fold(true, |hit, i| {
            let (word, mask) = position(h, i);
            hit & (words[word] & mask != 0)
        })
    }

    /// Calls `f` with the first word of the one 64-byte block
    /// [`EdgeBloom::may_contain`]`(u, v)` will read.  Lets callers
    /// prefetch the exact cache line of an upcoming query without
    /// exposing the bit layout.
    #[inline]
    pub fn probe_words(&self, u: VertexId, v: VertexId, mut f: impl FnMut(&u64)) {
        f(&self.blocks[self.block_of(hash(u, v))].0[0]);
    }

    /// Filter size in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<Block>()
    }

    /// Bits set and tested per edge.  All of them sit in one block, so
    /// this is *not* the number of cache lines a query reads (that is
    /// one).
    pub fn hash_count(&self) -> u32 {
        BITS_PER_KEY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn assert_no_false_negatives(g: &Csr, what: &str) {
        let bloom = EdgeBloom::from_graph(g, 8);
        for (u, v) in g.edges() {
            assert!(
                bloom.may_contain(u, v),
                "{what}: edge {u}->{v} reported absent"
            );
        }
    }

    #[test]
    fn no_false_negatives() {
        assert_no_false_negatives(&synth::power_law(2_000, 2.0, 1, 100, 3), "power law");
        // A hub past 2^16 (ids past 16 bits, one source in every key).
        assert_no_false_negatives(&synth::star(70_000), "star");
        let edges = |n, e: &[(VertexId, VertexId)]| Csr::from_edges(n, e).unwrap();
        assert_no_false_negatives(&edges(3, &[(0, 0), (1, 1), (2, 2), (0, 2)]), "self-loops");
        assert_no_false_negatives(&edges(2, &[(0, 1), (0, 1), (0, 1), (1, 0)]), "parallel");
        assert_no_false_negatives(&edges(0, &[]), "no vertices");
        assert_no_false_negatives(&edges(1, &[]), "one vertex");
        assert_no_false_negatives(&edges(1, &[(0, 0)]), "one vertex, one loop");
        assert_no_false_negatives(&edges(2, &[(1, 0)]), "one edge");
    }

    /// The lagged build sets exactly the bits a plain edge-by-edge build
    /// sets, at every edge count around the ring's fill and drain.
    #[test]
    fn lagged_build_equals_insert_in_order() {
        for edges in [0, 1, LAG - 1, LAG, LAG + 1, 10 * LAG] {
            let n = 97usize;
            let list: Vec<(VertexId, VertexId)> = (0..edges)
                .map(|i| ((i * 31 % n) as VertexId, (i * 57 % n) as VertexId))
                .collect();
            let g = Csr::from_edges(n, &list).unwrap();
            let built = EdgeBloom::from_graph(&g, 8);
            let mut plain = EdgeBloom {
                blocks: vec![Block([0; 8]); built.blocks.len()],
            };
            for (u, v) in g.edges() {
                plain.insert(hash(u, v));
            }
            let words = |f: &EdgeBloom| f.blocks.iter().flat_map(|b| b.0).collect::<Vec<u64>>();
            assert_eq!(words(&built), words(&plain), "{edges} edges");
        }
    }

    /// Sources drawn edge by edge, so hubs — whose keys share their
    /// high word — weigh as they do in a walk.  This graph gets 10.6
    /// bits an edge after rounding and passes 1.0 % of non-edges; a
    /// filter that is mis-sized or uses half of each block passes 4 % or
    /// more.
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
            let e = rng.gen_index(g.edge_count());
            let u = (g.offsets().partition_point(|&o| o <= e) - 1) as VertexId;
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
        assert!(rate < 0.02, "false-positive rate {rate:.4}");
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
