//! Compressed Sparse Row graph storage.

use crate::{GraphError, VertexId};

/// A directed graph in CSR form.
///
/// `offsets` has `|V| + 1` entries; the out-neighbors of vertex `v` are
/// `targets[offsets[v] .. offsets[v + 1]]`.  Optional per-edge weights are
/// stored in a parallel array.
///
/// # Examples
///
/// ```
/// use fm_graph::Csr;
///
/// // A triangle: 0 -> 1, 1 -> 2, 2 -> 0.
/// let g = Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
/// assert_eq!(g.degree(0), 1);
/// assert_eq!(g.neighbors(1), &[2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Option<Vec<f32>>,
    /// Optional per-edge type labels, parallel to `targets`.  Metapath
    /// walks constrain each step to one label; everything else ignores
    /// this sidecar.
    labels: Option<Vec<u8>>,
    /// Whether every adjacency list ascends.  A function of `offsets`
    /// and `targets` alone: the constructors compute it while they
    /// validate, and the only mutator, [`Csr::sort_adjacency_lists`],
    /// sets it.
    sorted: bool,
}

/// Whether every adjacency list ascends.  Stops at the first descent, so
/// within the constructors' validation only a graph that arrives sorted
/// pays for a full pass (and is spared its sort later).
fn rows_ascend(offsets: &[usize], targets: &[VertexId]) -> bool {
    offsets.windows(2).all(|w| targets[w[0]..w[1]].is_sorted())
}

/// The halving search behind [`sorted_contains`], over indices: `le(i)`
/// says whether entry `i` is at most the key.  Returns the index of the
/// last such entry (0 when there is none), after one `le` call and one
/// conditional move per level.
#[inline]
fn halving_search(len: usize, mut le: impl FnMut(usize) -> bool) -> usize {
    let (mut base, mut size) = (0usize, len);
    while size > 1 {
        let half = size / 2;
        if le(base + half) {
            base += half;
        }
        size -= half;
    }
    base
}

/// Whether ascending `adj` contains `v`, in O(log d).
#[inline]
pub fn sorted_contains(adj: &[VertexId], v: VertexId) -> bool {
    adj.get(halving_search(adj.len(), |i| adj[i] <= v)) == Some(&v)
}

/// Calls `f` with every index the first `levels` reads of
/// [`sorted_contains`] can touch in a list of `len` entries, so a caller
/// can prefetch them ahead of the search.
pub fn sorted_probe_points(len: usize, levels: u32, f: &mut impl FnMut(usize)) {
    fn walk(base: usize, size: usize, levels: u32, f: &mut impl FnMut(usize)) {
        if levels == 0 {
            return;
        }
        match size {
            0 => {}
            1 => f(base), // the closing equality read
            _ => {
                let half = size / 2;
                f(base + half);
                walk(base, size - half, levels - 1, f);
                walk(base + half, size - half, levels - 1, f);
            }
        }
    }
    walk(0, len, levels, f);
}

/// Digit width of [`radix_sort_row`]: a digit's 2048 counters (16 KB)
/// stay in L1 beside the row being scattered, and two passes cover 4 M
/// vertices.
const RADIX_BITS: u32 = 11;

/// Rows at least this long are radix-sorted; shorter ones cost less
/// under `sort_unstable` than under two passes over 2048 counters
/// (EXPERIMENTS.md, "fmbench ledger — PR 20", has the sweep).
const RADIX_MIN_ROW: usize = 256;

/// A [`radix_sort_row`] with its digit count chosen: `(row, scratch)`.
type RowSort = fn(&mut [VertexId], &mut [VertexId]);

/// Sorts `row` ascending by least-significant-digit radix sort, `PASSES`
/// digits of [`RADIX_BITS`] bits (every id must fit in them), through a
/// `scratch` of the same length.  A hub's list is far past the size
/// where a comparison sort's `log d` passes and mispredicted branches
/// lose to a fixed few streaming passes.
fn radix_sort_row<const PASSES: usize>(row: &mut [VertexId], scratch: &mut [VertexId]) {
    debug_assert_eq!(row.len(), scratch.len());
    const BUCKETS: usize = 1 << RADIX_BITS;
    let digit = |t: VertexId, pass: usize| (t >> (pass as u32 * RADIX_BITS)) as usize % BUCKETS;
    // Every digit's histogram comes from one read of the row: a later
    // pass sees the same ids in another order.
    let mut starts = [[0usize; BUCKETS]; PASSES];
    for &t in row.iter() {
        for (pass, counts) in starts.iter_mut().enumerate() {
            counts[digit(t, pass)] += 1;
        }
    }
    let (mut src, mut dst) = (row, scratch);
    for (pass, starts) in starts.iter_mut().enumerate() {
        let mut acc = 0usize;
        for slot in starts.iter_mut() {
            acc += std::mem::replace(slot, acc);
        }
        for &t in src.iter() {
            let slot = &mut starts[digit(t, pass)];
            dst[*slot] = t;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    // After an odd number of passes the sorted row sits in the scratch.
    if PASSES % 2 == 1 {
        dst.copy_from_slice(src);
    }
}

impl Csr {
    /// Builds a CSR graph from raw parts.
    ///
    /// Validates the structural invariants: monotone offsets covering all
    /// of `targets`, every target in range, and weight-array length (when
    /// present) equal to the edge count; and records whether every
    /// adjacency list ascends.
    pub fn from_parts(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Result<Self, GraphError> {
        if offsets.is_empty() {
            return Err(GraphError::Format("offsets must have |V|+1 entries".into()));
        }
        if offsets[0] != 0 || *offsets.last().expect("non-empty") != targets.len() {
            return Err(GraphError::Format(
                "offsets must start at 0 and end at |E|".into(),
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Format("offsets must be monotone".into()));
        }
        let vcount = (offsets.len() - 1) as u64;
        if vcount > VertexId::MAX as u64 {
            return Err(GraphError::TooManyVertices(vcount));
        }
        if let Some(&bad) = targets.iter().find(|&&t| (t as u64) >= vcount) {
            return Err(GraphError::VertexOutOfRange {
                vid: bad as u64,
                vertex_count: vcount,
            });
        }
        let sorted = rows_ascend(&offsets, &targets);
        if let Some(w) = &weights {
            if w.len() != targets.len() {
                return Err(GraphError::Format("weights length must equal |E|".into()));
            }
        }
        Ok(Self {
            offsets,
            targets,
            weights,
            labels: None,
            sorted,
        })
    }

    /// Builds an unweighted CSR graph from an edge list.
    ///
    /// Edge order within each adjacency list follows the input order.
    pub fn from_edges(
        vertex_count: usize,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Self, GraphError> {
        if vertex_count as u64 > VertexId::MAX as u64 {
            return Err(GraphError::TooManyVertices(vertex_count as u64));
        }
        // One array serves as degree count, fill cursor and result: the
        // count of `s` goes two slots up, the prefix sum then leaves the
        // start of `s` in slot `s + 1`, and filling advances that slot to
        // the start of `s + 1` — which is what slot `s + 1` must hold.
        let mut offsets = vec![0usize; vertex_count + 2];
        for &(s, t) in edges {
            for v in [s, t] {
                if v as usize >= vertex_count {
                    return Err(GraphError::VertexOutOfRange {
                        vid: v as u64,
                        vertex_count: vertex_count as u64,
                    });
                }
            }
            offsets[s as usize + 2] += 1;
        }
        let mut acc = 0usize;
        for slot in &mut offsets[2..] {
            acc += *slot;
            *slot = acc;
        }
        let mut targets = vec![0 as VertexId; edges.len()];
        for &(s, t) in edges {
            let cursor = &mut offsets[s as usize + 1];
            targets[*cursor] = t;
            *cursor += 1;
        }
        offsets.truncate(vertex_count + 1);
        Ok(Self {
            sorted: rows_ascend(&offsets, &targets),
            offsets,
            targets,
            weights: None,
            labels: None,
        })
    }

    /// Attaches per-edge type labels, parallel to [`Csr::targets`].
    ///
    /// Returns an error when the label array length differs from the
    /// edge count.
    pub fn with_edge_labels(mut self, labels: Vec<u8>) -> Result<Self, GraphError> {
        if labels.len() != self.targets.len() {
            return Err(GraphError::Format("labels length must equal |E|".into()));
        }
        self.labels = Some(labels);
        Ok(self)
    }

    /// The flat per-edge label array, parallel to [`Csr::targets`], if
    /// the graph is labeled.
    #[inline]
    pub fn edge_labels(&self) -> Option<&[u8]> {
        self.labels.as_deref()
    }

    /// Edge labels of `v`, parallel to [`Csr::neighbors`], if labeled.
    #[inline]
    pub fn edge_labels_of(&self, v: VertexId) -> Option<&[u8]> {
        let l = self.labels.as_ref()?;
        let v = v as usize;
        Some(&l[self.offsets[v]..self.offsets[v + 1]])
    }

    /// Returns `true` when per-edge type labels are present.
    #[inline]
    pub fn is_labeled(&self) -> bool {
        self.labels.is_some()
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Out-neighbors of `v`, in storage order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Edge weights of `v`, parallel to [`Csr::neighbors`], if weighted.
    #[inline]
    pub fn edge_weights(&self, v: VertexId) -> Option<&[f32]> {
        let w = self.weights.as_ref()?;
        let v = v as usize;
        Some(&w[self.offsets[v]..self.offsets[v + 1]])
    }

    /// Returns `true` when per-edge weights are present.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// The raw offsets array (`|V| + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw targets array (`|E|` entries).
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Offset of vertex `v`'s adjacency list within [`Csr::targets`].
    #[inline]
    pub fn adjacency_start(&self, v: VertexId) -> usize {
        self.offsets[v as usize]
    }

    /// Whether every adjacency list ascends, which makes
    /// [`Csr::has_edge`] a binary search.
    #[inline]
    pub fn has_sorted_adjacency(&self) -> bool {
        self.sorted
    }

    /// Checks whether the directed edge `u -> v` exists: O(log d) by
    /// [`sorted_contains`] when the graph's adjacency lists are sorted
    /// ([`Csr::has_sorted_adjacency`]), a linear scan of `u`'s list
    /// otherwise.
    ///
    /// node2vec's second-order bias needs exactly this connectivity test.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let adj = self.neighbors(u);
        if self.sorted {
            sorted_contains(adj, v)
        } else {
            adj.contains(&v)
        }
    }

    /// Sorts every adjacency list ascending (invalidates weight pairing,
    /// so only allowed on unweighted graphs) and marks the graph sorted,
    /// which is what makes `has_edge` O(log d) for the node2vec engines.
    /// A graph already marked sorted is left as it is.
    ///
    /// # Panics
    ///
    /// Panics if the graph is weighted.
    pub fn sort_adjacency_lists(&mut self) {
        assert!(
            self.weights.is_none(),
            "sorting adjacency lists would desynchronize edge weights"
        );
        if self.sorted {
            return;
        }
        self.sorted = true;
        match self.labels.as_mut() {
            None => {
                // Ids below |V| need only so many radix digits.
                let id_bits = usize::BITS - self.offsets.len().saturating_sub(2).leading_zeros();
                let radix_sort: RowSort = match id_bits.div_ceil(RADIX_BITS) {
                    0 | 1 => radix_sort_row::<1>,
                    2 => radix_sort_row::<2>,
                    _ => radix_sort_row::<3>,
                };
                // One scratch row, as long as the longest list: nothing
                // here grows with |E|.
                let longest = self.max_degree();
                let mut scratch =
                    vec![0 as VertexId; if longest >= RADIX_MIN_ROW { longest } else { 0 }];
                for w in self.offsets.windows(2) {
                    let row = &mut self.targets[w[0]..w[1]];
                    if row.len() >= RADIX_MIN_ROW {
                        radix_sort(row, &mut scratch[..w[1] - w[0]]);
                    } else {
                        row.sort_unstable();
                    }
                }
            }
            Some(labels) => {
                // Labels must follow their edges: sort (target, label)
                // pairs by target, stably, so equal targets keep their
                // label order deterministic.
                let mut row: Vec<(VertexId, u8)> = Vec::new();
                for w in self.offsets.windows(2) {
                    let (s, e) = (w[0], w[1]);
                    row.clear();
                    row.extend(
                        self.targets[s..e]
                            .iter()
                            .copied()
                            .zip(labels[s..e].iter().copied()),
                    );
                    row.sort_by_key(|&(t, _)| t);
                    for (k, &(t, l)) in row.iter().enumerate() {
                        self.targets[s + k] = t;
                        labels[s + k] = l;
                    }
                }
            }
        }
    }

    /// Iterates over all directed edges as `(source, target)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.vertex_count()).flat_map(move |v| {
            self.neighbors(v as VertexId)
                .iter()
                .map(move |&t| (v as VertexId, t))
        })
    }

    /// Maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.vertex_count())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// In-memory size of the CSR arrays in bytes (the paper's "CSR Size"
    /// column in Table 4).
    pub fn footprint_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len() * std::mem::size_of::<f32>())
            + self.labels.as_ref().map_or(0, |l| l.len())
    }

    /// Checks that no vertex has degree zero.
    ///
    /// Random walkers on a zero-degree vertex have nowhere to go; the
    /// paper removes such vertices from its datasets (Table 4 note), and
    /// the engines require this invariant.
    pub fn has_no_sinks(&self) -> bool {
        (0..self.vertex_count()).all(|v| self.degree(v as VertexId) > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Csr {
        Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap()
    }

    #[test]
    fn from_edges_basic() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[0]);
        assert!(g.has_no_sinks());
    }

    #[test]
    fn from_edges_preserves_input_order() {
        let g = Csr::from_edges(4, &[(0, 3), (0, 1), (0, 2)]).unwrap();
        assert_eq!(g.neighbors(0), &[3, 1, 2]);
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        let err = Csr::from_edges(2, &[(0, 5)]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { vid: 5, .. }));
    }

    #[test]
    fn from_parts_validates_offsets() {
        assert!(Csr::from_parts(vec![0, 2, 1], vec![0, 0], None).is_err());
        assert!(Csr::from_parts(vec![1, 2], vec![0], None).is_err());
        assert!(Csr::from_parts(vec![0, 1], vec![0, 0], None).is_err());
        assert!(Csr::from_parts(vec![], vec![], None).is_err());
    }

    #[test]
    fn from_parts_validates_weights() {
        assert!(Csr::from_parts(vec![0, 1], vec![0], Some(vec![1.0, 2.0])).is_err());
        assert!(Csr::from_parts(vec![0, 1], vec![0], Some(vec![1.0])).is_ok());
    }

    #[test]
    fn empty_vertex_set() {
        let g = Csr::from_edges(0, &[]).unwrap();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.has_no_sinks());
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertex_detected_as_sink() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0)]).unwrap();
        assert!(!g.has_no_sinks());
    }

    #[test]
    fn has_edge_linear_and_sorted_paths() {
        // Small list: linear scan.
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));

        // Large sorted list: binary search path.
        let edges: Vec<(VertexId, VertexId)> = (1..64).map(|t| (0, t)).collect();
        let mut g = Csr::from_edges(64, &edges).unwrap();
        g.sort_adjacency_lists();
        assert!(g.has_edge(0, 33));
        assert!(!g.has_edge(0, 0));
    }

    /// The prefetch hints are the search's own reads: whatever the key,
    /// the first `levels` indices `halving_search` (plus its caller's
    /// closing read) touches are among `sorted_probe_points`.
    #[test]
    fn probe_points_cover_the_first_reads_of_the_search() {
        for len in [0usize, 1, 2, 3, 5, 16, 17, 64, 65, 1000, 24_001] {
            let adj: Vec<VertexId> = (0..len as VertexId).map(|k| 2 * k + 1).collect();
            for levels in [1u32, 2, 3] {
                let mut hinted = Vec::new();
                sorted_probe_points(len, levels, &mut |k| hinted.push(k));
                assert!(hinted.len() < 1 << levels, "len {len}");
                assert!(hinted.iter().all(|&k| k < len), "len {len}");
                for v in (0..2 * len as VertexId + 2).step_by(1 + len / 50) {
                    let mut reads = Vec::new();
                    let last = halving_search(len, |i| {
                        reads.push(i);
                        adj[i] <= v
                    });
                    if len > 0 {
                        reads.push(last);
                    }
                    for r in reads.iter().take(levels as usize) {
                        assert!(hinted.contains(r), "len {len} levels {levels} key {v}: {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let input = vec![(0, 1), (0, 2), (1, 2), (2, 0)];
        let g = Csr::from_edges(3, &input).unwrap();
        let out: Vec<_> = g.edges().collect();
        assert_eq!(out, input);
    }

    #[test]
    fn weighted_accessors() {
        let g = Csr::from_parts(vec![0, 2, 2], vec![1, 1], Some(vec![0.5, 1.5])).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weights(0), Some(&[0.5f32, 1.5][..]));
        assert_eq!(g.edge_weights(1), Some(&[][..]));
    }

    #[test]
    fn footprint_counts_all_arrays() {
        let g = triangle();
        let expect = 4 * std::mem::size_of::<usize>() + 3 * std::mem::size_of::<VertexId>();
        assert_eq!(g.footprint_bytes(), expect);
    }

    #[test]
    fn labels_attach_and_slice() {
        let g = triangle().with_edge_labels(vec![7, 8, 9]).unwrap();
        assert!(g.is_labeled());
        assert_eq!(g.edge_labels(), Some(&[7u8, 8, 9][..]));
        assert_eq!(g.edge_labels_of(1), Some(&[8u8][..]));
        assert!(triangle().with_edge_labels(vec![1, 2]).is_err());
    }

    #[test]
    fn sorting_carries_labels_with_their_edges() {
        let g = Csr::from_edges(4, &[(0, 3), (0, 1), (0, 2), (1, 0), (2, 0), (3, 0)]).unwrap();
        let mut g = g.with_edge_labels(vec![30, 10, 20, 0, 0, 0]).unwrap();
        g.sort_adjacency_lists();
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.edge_labels_of(0), Some(&[10u8, 20, 30][..]));
    }

    /// Rows on both sides of the radix threshold, in graphs on both sides
    /// of each digit-count boundary, come out as `sort_unstable` leaves
    /// them — duplicates, id 0 and the top id included.
    #[test]
    fn radix_rows_equal_comparison_sorted_rows() {
        let lengths = [
            0,
            1,
            RADIX_MIN_ROW - 1,
            RADIX_MIN_ROW,
            RADIX_MIN_ROW + 1,
            24_576,
        ];
        let boundaries = [1usize << RADIX_BITS, 1 << (2 * RADIX_BITS)];
        let vertex_counts = boundaries.iter().flat_map(|&b| [b, b + 1]).chain([300]);
        for n in vertex_counts {
            let mut state = n as u64;
            let mut edges = Vec::new();
            for (u, &len) in lengths.iter().enumerate() {
                for k in 0..len {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let t = match k % 7 {
                        0 => n - 1,
                        1 => 0,
                        _ => (state >> 33) as usize % n,
                    };
                    edges.push((u as VertexId, t as VertexId));
                }
            }
            let mut g = Csr::from_edges(n, &edges).unwrap();
            assert!(!g.has_sorted_adjacency());
            let mut want = g.targets.clone();
            for w in g.offsets.windows(2) {
                want[w[0]..w[1]].sort_unstable();
            }
            g.sort_adjacency_lists();
            assert!(g.has_sorted_adjacency());
            assert!(g.targets == want, "{n} vertices");
        }
    }

    /// One, two and three digits, the last with ids up to `u32::MAX`
    /// (a graph that large does not fit a test).
    #[test]
    fn radix_sort_takes_every_pass_count() {
        let sorts: [RowSort; 3] = [
            radix_sort_row::<1>,
            radix_sort_row::<2>,
            radix_sort_row::<3>,
        ];
        for (passes, sort) in (1u32..).zip(sorts) {
            let top = ((1u64 << (passes * RADIX_BITS).min(32)) - 1) as VertexId;
            let mut row: Vec<VertexId> = (0..1000u32)
                .map(|k| k.wrapping_mul(2_654_435_761) & top)
                .chain([top, 0, top])
                .collect();
            let mut want = row.clone();
            want.sort_unstable();
            let mut scratch = vec![0; row.len()];
            sort(&mut row, &mut scratch);
            assert_eq!(row, want, "{passes} passes");
        }
    }

    #[test]
    fn a_graph_marked_sorted_is_left_alone() {
        let mut g = Csr::from_edges(3, &[(0, 2), (0, 1), (1, 0)]).unwrap();
        g.sorted = true;
        g.sort_adjacency_lists();
        assert_eq!(g.neighbors(0), &[2, 1]);
    }

    #[test]
    fn labeled_footprint_includes_sidecar() {
        let g = triangle().with_edge_labels(vec![0, 1, 0]).unwrap();
        let expect = 4 * std::mem::size_of::<usize>() + 3 * std::mem::size_of::<VertexId>() + 3;
        assert_eq!(g.footprint_bytes(), expect);
    }
}
