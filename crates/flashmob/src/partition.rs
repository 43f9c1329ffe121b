//! Vertex partitions and the walker-location → partition lookup.
//!
//! A partition is a contiguous range of the degree-sorted vertex IDs.
//! Where every vertex of a DS partition has one degree, its rows are
//! found by the row rule ([`Partition::slab`]) instead of the CSR
//! offsets: they are still the CSR's own rows.

use fm_graph::{Csr, FixedDegreeSlab, VertexId};

use crate::DEAD;

/// The per-partition edge-sampling policy (paper Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SamplePolicy {
    /// Pre-sampling: per-vertex pre-sampled edge buffers of size `d(v)`,
    /// refilled in batch and consumed sequentially by co-located walkers.
    PreSample,
    /// Direct sampling: throw the dice on the spot against the (often
    /// short) adjacency list.
    Direct,
}

impl SamplePolicy {
    /// Short label used by reports ("PS" / "DS").
    pub fn tag(self) -> &'static str {
        match self {
            SamplePolicy::PreSample => "PS",
            SamplePolicy::Direct => "DS",
        }
    }
}

/// One contiguous vertex partition of the degree-sorted graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// First vertex (inclusive, sorted ID space).
    pub start: VertexId,
    /// Last vertex (exclusive).
    pub end: VertexId,
    /// Assigned sampling policy.
    pub policy: SamplePolicy,
    /// Degree group this partition was cut from.
    pub group: usize,
    /// Total out-edges owned by the partition's vertices.
    pub edges: usize,
    /// `Some(d)` when every vertex in the partition has out-degree `d`
    /// (a DS partition then finds its rows by the row rule,
    /// [`Partition::slab`]).
    pub uniform_degree: Option<usize>,
}

impl Partition {
    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Average out-degree.
    #[inline]
    pub fn avg_degree(&self) -> f64 {
        if self.vertex_count() == 0 {
            0.0
        } else {
            self.edges as f64 / self.vertex_count() as f64
        }
    }

    /// Bytes of graph data a DS task must keep hot: the partition's
    /// edges (4 B each) plus, for irregular partitions, CSR offsets.
    pub fn ds_working_set_bytes(&self) -> usize {
        let edges = self.edges * std::mem::size_of::<VertexId>();
        let offsets = if self.uniform_degree.is_some() {
            0
        } else {
            (self.vertex_count() + 1) * std::mem::size_of::<usize>()
        };
        edges + offsets
    }

    /// Bytes a PS task must keep hot: one active cache line per vertex
    /// of pre-sampled edges plus the per-vertex buffer cursor.
    pub fn ps_working_set_bytes(&self, line_bytes: usize) -> usize {
        self.vertex_count() * (line_bytes + std::mem::size_of::<u32>())
    }

    /// Examines the graph and fills in `edges` / `uniform_degree`.
    pub fn annotate(graph: &Csr, start: VertexId, end: VertexId) -> (usize, Option<usize>) {
        debug_assert!(start < end);
        let d0 = graph.degree(start);
        let mut edges = 0usize;
        let mut uniform = true;
        for v in start..end {
            let d = graph.degree(v);
            edges += d;
            uniform &= d == d0;
        }
        (edges, uniform.then_some(d0))
    }

    /// The row rule of a uniform DS partition: its rows are found by
    /// arithmetic on the CSR, not through the offset pairs.  `None` for
    /// a PS or irregular partition.
    pub fn slab(&self, graph: &Csr) -> Option<FixedDegreeSlab> {
        let d = self
            .uniform_degree
            .filter(|_| self.policy == SamplePolicy::Direct)?;
        FixedDegreeSlab::new(graph, self.start, self.vertex_count(), d)
    }
}

/// Maps a vertex ID to its partition index.
///
/// Two lookup paths exist.  DP plans obey the paper's "power-of-2 for
/// easy indexing" rule — equal power-of-two groups, each cut into equal
/// power-of-two VPs — which admits a branch-free O(1) lookup of two
/// shifts and two tiny table reads ([`PartitionMap::with_pow2_structure`]).
/// Arbitrary partitionings (the uniform/manual strategies) fall back to
/// a binary search over the starts table, which is at most the shuffle
/// budget (2048 entries ≈ 8 KiB) and therefore L1-resident.
#[derive(Debug, Clone)]
pub struct PartitionMap {
    /// `starts[i]` = first vertex of partition `i`; ends with `|V|`.
    starts: Vec<VertexId>,
    /// O(1) lookup tables for power-of-two-structured plans.
    fast: Option<FastLookup>,
}

#[derive(Debug, Clone)]
struct FastLookup {
    /// `log2` of the (power-of-two) group vertex count.
    group_shift: u32,
    /// Per-group `log2` of the VP vertex count.
    vp_shift: Vec<u32>,
    /// Per-group index of its first partition.
    vp_base: Vec<u32>,
}

impl PartitionMap {
    /// Builds the map from an ordered partition list.
    ///
    /// # Panics
    ///
    /// Panics if the partitions do not tile `[0, vertex_count)`
    /// contiguously and in order.
    pub fn new(partitions: &[Partition], vertex_count: usize) -> Self {
        assert!(!partitions.is_empty(), "need at least one partition");
        assert_eq!(partitions[0].start, 0, "partitions must start at 0");
        for w in partitions.windows(2) {
            assert_eq!(w[0].end, w[1].start, "partitions must be contiguous");
        }
        assert_eq!(
            partitions.last().expect("non-empty").end as usize,
            vertex_count,
            "partitions must cover all vertices"
        );
        let mut starts: Vec<VertexId> = partitions.iter().map(|p| p.start).collect();
        starts.push(vertex_count as VertexId);
        Self { starts, fast: None }
    }

    /// Builds the map with the O(1) power-of-two lookup.
    ///
    /// `group_size` is the (power-of-two) vertex count of every group
    /// except a possibly ragged last one; `vp_sizes[g]` is group `g`'s
    /// VP size.  The structure is verified against the partition list
    /// at every partition boundary; a mismatch panics (it would be a
    /// planner bug).
    ///
    /// # Panics
    ///
    /// Panics if the partitions do not tile `[0, vertex_count)` or the
    /// claimed structure disagrees with them.
    pub fn with_pow2_structure(
        partitions: &[Partition],
        vertex_count: usize,
        group_size: usize,
        vp_sizes: &[usize],
    ) -> Self {
        assert!(group_size.is_power_of_two(), "group size must be 2^k");
        let mut map = Self::new(partitions, vertex_count);
        let group_shift = group_size.trailing_zeros();
        let mut vp_shift = Vec::with_capacity(vp_sizes.len());
        let mut vp_base = Vec::with_capacity(vp_sizes.len());
        let mut base = 0u32;
        for (g, &vp) in vp_sizes.iter().enumerate() {
            let gstart = g * group_size;
            let glen = group_size.min(vertex_count - gstart);
            // A non-power-of-two VP size only arises for a single-VP
            // ragged last group, where any shift >= log2(len) works.
            let shift = if vp.is_power_of_two() {
                vp.trailing_zeros()
            } else {
                assert!(vp >= glen, "non-pow2 VP must cover its group");
                group_shift
            };
            vp_shift.push(shift);
            vp_base.push(base);
            base += (glen >> shift) as u32 + u32::from(glen & ((1 << shift) - 1) != 0);
        }
        assert_eq!(base as usize, partitions.len(), "structure mismatch");
        map.fast = Some(FastLookup {
            group_shift,
            vp_shift,
            vp_base,
        });
        // Verify the fast path against the authoritative starts table at
        // every partition boundary.
        for (i, p) in partitions.iter().enumerate() {
            assert_eq!(map.partition_of(p.start), i, "fast lookup start mismatch");
            assert_eq!(map.partition_of(p.end - 1), i, "fast lookup end mismatch");
        }
        map
    }

    /// Number of partitions.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Returns `true` when the map holds no partitions (never
    /// constructible).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shuffle bins: one per partition plus the dead bin.
    #[inline]
    pub fn bins(&self) -> usize {
        self.len() + 1
    }

    /// Partition index of vertex `v`; terminated walkers ([`DEAD`]) map
    /// to the extra trailing dead bin.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> usize {
        if v == DEAD {
            return self.len();
        }
        debug_assert!(self.starts.last().is_some_and(|&end| v <= end));
        if let Some(fast) = &self.fast {
            let g = ((v as usize) >> fast.group_shift).min(fast.vp_shift.len() - 1);
            let local = v as usize - (g << fast.group_shift);
            return fast.vp_base[g] as usize + (local >> fast.vp_shift[g]);
        }
        // partition_point returns the first start > v; minus one is v's
        // partition.
        self.starts.partition_point(|&s| s <= v) - 1
    }

    /// The vertex range `[start, end)` of partition `i`.
    #[inline]
    pub fn range(&self, i: usize) -> (VertexId, VertexId) {
        (self.starts[i], self.starts[i + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::synth;

    fn parts(bounds: &[(u32, u32)]) -> Vec<Partition> {
        bounds
            .iter()
            .map(|&(s, e)| Partition {
                start: s,
                end: e,
                policy: SamplePolicy::Direct,
                group: 0,
                edges: 0,
                uniform_degree: None,
            })
            .collect()
    }

    #[test]
    fn partition_of_finds_ranges() {
        let m = PartitionMap::new(&parts(&[(0, 4), (4, 6), (6, 10)]), 10);
        assert_eq!(m.partition_of(0), 0);
        assert_eq!(m.partition_of(3), 0);
        assert_eq!(m.partition_of(4), 1);
        assert_eq!(m.partition_of(5), 1);
        assert_eq!(m.partition_of(6), 2);
        assert_eq!(m.partition_of(9), 2);
    }

    #[test]
    fn dead_walkers_map_to_trailing_bin() {
        let m = PartitionMap::new(&parts(&[(0, 10)]), 10);
        assert_eq!(m.partition_of(DEAD), 1);
        assert_eq!(m.bins(), 2);
    }

    #[test]
    fn range_round_trips() {
        let m = PartitionMap::new(&parts(&[(0, 4), (4, 10)]), 10);
        assert_eq!(m.range(0), (0, 4));
        assert_eq!(m.range(1), (4, 10));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn gap_rejected() {
        let _ = PartitionMap::new(&parts(&[(0, 4), (5, 10)]), 10);
    }

    #[test]
    #[should_panic(expected = "cover all")]
    fn short_coverage_rejected() {
        let _ = PartitionMap::new(&parts(&[(0, 4)]), 10);
    }

    #[test]
    fn pow2_fast_lookup_matches_binary_search() {
        // 2 groups of 8 vertices; group 0 cut into VPs of 2, group 1
        // into VPs of 4; total 6 partitions over 16 vertices.
        let bounds = [(0u32, 2u32), (2, 4), (4, 6), (6, 8), (8, 12), (12, 16)];
        let parts = parts(&bounds);
        let slow = PartitionMap::new(&parts, 16);
        let fast = PartitionMap::with_pow2_structure(&parts, 16, 8, &[2, 4]);
        for v in 0..16u32 {
            assert_eq!(fast.partition_of(v), slow.partition_of(v), "vertex {v}");
        }
        assert_eq!(fast.partition_of(DEAD), 6);
    }

    #[test]
    fn pow2_fast_lookup_handles_ragged_last_group() {
        // Group size 8 over 13 vertices: last group has 5 vertices, cut
        // at VP size 4 -> partitions (8,12),(12,13).
        let bounds = [(0u32, 4u32), (4, 8), (8, 12), (12, 13)];
        let parts = parts(&bounds);
        let slow = PartitionMap::new(&parts, 13);
        let fast = PartitionMap::with_pow2_structure(&parts, 13, 8, &[4, 4]);
        for v in 0..13u32 {
            assert_eq!(fast.partition_of(v), slow.partition_of(v), "vertex {v}");
        }
    }

    #[test]
    #[should_panic(expected = "structure mismatch")]
    fn pow2_structure_mismatch_rejected() {
        let parts = parts(&[(0, 8), (8, 16)]);
        // Claims VPs of 2 (8 partitions) but only 2 exist.
        let _ = PartitionMap::with_pow2_structure(&parts, 16, 8, &[2, 2]);
    }

    #[test]
    fn annotate_detects_uniform_degree() {
        let g = synth::regular_ring(16, 4);
        let (edges, uniform) = Partition::annotate(&g, 0, 16);
        assert_eq!(edges, 64);
        assert_eq!(uniform, Some(4));

        let star = synth::star(8);
        let (edges, uniform) = Partition::annotate(&star, 0, 8);
        assert_eq!(edges, 14);
        assert_eq!(uniform, None);
        // The leaf range alone is uniform degree-1.
        let (_, uniform_leaves) = Partition::annotate(&star, 1, 8);
        assert_eq!(uniform_leaves, Some(1));
    }

    #[test]
    fn working_set_sizes() {
        let g = synth::regular_ring(16, 4);
        let (edges, uniform) = Partition::annotate(&g, 0, 16);
        let p = Partition {
            start: 0,
            end: 16,
            policy: SamplePolicy::Direct,
            group: 0,
            edges,
            uniform_degree: uniform,
        };
        // Uniform: just the 64 targets.
        assert_eq!(p.ds_working_set_bytes(), 64 * 4);
        // PS: one line + cursor per vertex.
        assert_eq!(p.ps_working_set_bytes(64), 16 * 68);
        // Irregular variant pays for offsets.
        let q = Partition {
            uniform_degree: None,
            ..p.clone()
        };
        assert!(q.ds_working_set_bytes() > p.ds_working_set_bytes());
    }

    #[test]
    fn slab_built_only_for_uniform() {
        let g = synth::regular_ring(8, 2);
        let (edges, uniform) = Partition::annotate(&g, 0, 8);
        let p = Partition {
            start: 0,
            end: 8,
            policy: SamplePolicy::Direct,
            group: 0,
            edges,
            uniform_degree: uniform,
        };
        let slab = p.slab(&g).unwrap();
        for v in 0..8 {
            let row = &g.targets()[slab.row_start(v)..][..slab.degree()];
            assert_eq!(row, g.neighbors(v), "vertex {v}");
        }
        let q = Partition {
            uniform_degree: None,
            ..p.clone()
        };
        assert!(q.slab(&g).is_none());
        let ps = Partition {
            policy: SamplePolicy::PreSample,
            ..p
        };
        assert!(ps.slab(&g).is_none(), "PS partitions read their buffers");
    }
}
