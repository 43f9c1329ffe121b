//! Degree-descending vertex relabeling.
//!
//! FlashMob's first pre-processing step (Section 4.1): sort all vertices
//! in descending order of degree so that contiguous ID ranges correspond
//! to similar-degree vertices.  We use the O(|V| + D_max) counting sort
//! the paper cites (Seward 1954), not a comparison sort, so this step
//! stays a sub-percent fraction of walk time even on billion-edge graphs
//! (Section 5.2 reports 7.7 s on YahooWeb).

use crate::csr::Csr;
use crate::mem::advise_huge;
use crate::prefetch::prefetch_read;
use crate::VertexId;

/// A bijection between original and degree-sorted vertex IDs.  The
/// identity holds no arrays, only its length.
#[derive(Debug, Clone)]
pub struct Relabeling {
    /// `new_to_old[new_id] = old_id`; empty for the identity.
    new_to_old: Vec<VertexId>,
    /// `old_to_new[old_id] = new_id`; empty for the identity.
    old_to_new: Vec<VertexId>,
    /// Number of vertices covered.
    len: usize,
}

impl Relabeling {
    /// Computes the degree-descending ordering of `graph` by counting sort.
    ///
    /// The sort is *stable*: vertices of equal degree keep their original
    /// relative order, which makes the relabeling deterministic.
    pub fn by_descending_degree(graph: &Csr) -> Self {
        let n = graph.vertex_count();
        let max_d = graph.max_degree();
        // Bucket counts indexed by degree, turned in place into each
        // bucket's start: the bucket for degree d starts after all
        // buckets of larger degree.
        let mut start = vec![0usize; max_d + 1];
        for v in 0..n {
            start[graph.degree(v as VertexId)] += 1;
        }
        let mut acc = 0usize;
        for slot in start.iter_mut().rev() {
            (*slot, acc) = (acc, acc + *slot);
        }
        let mut new_to_old = vec![0 as VertexId; n];
        let mut old_to_new = vec![0 as VertexId; n];
        #[allow(clippy::needless_range_loop)] // the index is a vertex ID
        for v in 0..n {
            let d = graph.degree(v as VertexId);
            let slot = start[d];
            start[d] += 1;
            new_to_old[slot] = v as VertexId;
            old_to_new[v] = slot as VertexId;
        }
        Self {
            new_to_old,
            old_to_new,
            len: n,
        }
    }

    /// The identity relabeling over `n` vertices.
    pub fn identity(n: usize) -> Self {
        Self {
            new_to_old: Vec::new(),
            old_to_new: Vec::new(),
            len: n,
        }
    }

    /// Whether every ID maps to itself.  A loop over many IDs asks this
    /// once and maps through `|v| v` when it holds.
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// Maps a sorted-space ID back to the original ID.
    #[inline]
    pub fn to_old(&self, new_id: VertexId) -> VertexId {
        match self.new_to_old.get(new_id as usize) {
            Some(&old) => old,
            None => self.unmapped(new_id),
        }
    }

    /// Maps an original ID to its sorted-space ID.
    #[inline]
    pub fn to_new(&self, old_id: VertexId) -> VertexId {
        match self.old_to_new.get(old_id as usize) {
            Some(&new) => new,
            None => self.unmapped(old_id),
        }
    }

    /// An ID no map holds: itself on the identity.  Out of range, the
    /// index panics, as it does on a map.
    fn unmapped(&self, id: VertexId) -> VertexId {
        match self.is_identity() && (id as usize) < self.len {
            true => id,
            false => self.new_to_old[id as usize],
        }
    }

    /// Number of vertices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for a zero-vertex relabeling.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows of `graph` in sorted-ID order, as their original IDs,
    /// behind the prefetches a gather in this order needs.  Rows are
    /// fetched in degree order, which is no order at all in the input:
    /// each is a cold offset pair, then (where `heads`) a cold row head.
    /// A row's offset pair is hinted `FAR` rows ahead and, once resident,
    /// read `NEAR` rows ahead to hint the row's first line.
    pub fn rows<'a>(&'a self, graph: &'a Csr, heads: bool) -> impl Iterator<Item = VertexId> + 'a {
        const FAR: usize = 32;
        const NEAR: usize = 16;
        let n = graph.vertex_count();
        assert_eq!(n, self.len(), "relabeling size must match graph");
        let (offsets, targets) = (graph.offsets(), graph.targets());
        // The identity's rows are in ID order, with nothing to hint.
        let in_order = if self.is_identity() { 0..n } else { 0..0 };
        let in_order = in_order.map(|v| v as VertexId);
        let row = |new_id: usize| self.new_to_old.get(new_id).map(|&old| old as usize);
        let rows = self.new_to_old.iter().enumerate();
        in_order.chain(rows.map(move |(new_id, &old)| {
            if let Some(far) = row(new_id + FAR) {
                prefetch_read(&offsets[far]);
            }
            if let Some(near) = row(new_id + NEAR).filter(|_| heads) {
                // Past the end for a trailing zero-degree vertex: a hint
                // may point anywhere.
                prefetch_read(targets.as_ptr().wrapping_add(offsets[near]));
            }
            old
        }))
    }

    /// The offsets index of `graph` in the sorted ID space, advised onto
    /// huge pages before its first write (DESIGN §23).
    pub fn sorted_offsets(&self, graph: &Csr) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(graph.vertex_count() + 1);
        advise_huge(&offsets);
        offsets.push(0usize);
        let mut end = 0;
        for old in self.rows(graph, false) {
            end += graph.degree(old);
            offsets.push(end);
        }
        offsets
    }

    /// Rebuilds `graph` in the sorted ID space.
    ///
    /// Both endpoints are remapped; adjacency lists keep their original
    /// edge order (remapped), and weights follow their edges.
    pub fn apply(&self, graph: &Csr) -> Csr {
        match self.is_identity() {
            true => self.apply_by(graph, |t| t),
            false => self.apply_by(graph, |t| self.to_new(t)),
        }
    }

    /// [`apply`](Self::apply) with `to_new` for [`Self::to_new`].
    fn apply_by(&self, graph: &Csr, to_new: impl Fn(VertexId) -> VertexId) -> Csr {
        // The four arrays are the walk's: each is advised onto huge
        // pages before its first write (DESIGN §23).
        let offsets = self.sorted_offsets(graph);
        fn edge_array<T>(edges: usize) -> Vec<T> {
            let v = Vec::with_capacity(edges);
            advise_huge(&v);
            v
        }
        let edges = graph.edge_count();
        let mut targets = edge_array(edges);
        let mut weights = graph.is_weighted().then(|| edge_array(edges));
        let mut labels = graph.is_labeled().then(|| edge_array(edges));
        for old in self.rows(graph, true) {
            targets.extend(graph.neighbors(old).iter().map(|&t| to_new(t)));
            if let (Some(ws), Some(src)) = (weights.as_mut(), graph.edge_weights(old)) {
                ws.extend_from_slice(src);
            }
            if let (Some(ls), Some(src)) = (labels.as_mut(), graph.edge_labels_of(old)) {
                ls.extend_from_slice(src);
            }
        }
        let sorted = Csr::from_parts(offsets, targets, weights)
            .expect("relabeled graph is structurally valid");
        match labels {
            Some(ls) => sorted
                .with_edge_labels(ls)
                .unwrap_or_else(|e| unreachable!("relabeled labels stay parallel to targets: {e}")),
            None => sorted,
        }
    }
}

/// Relabels `graph` by descending degree, returning the new graph and the
/// mapping needed to translate walk output back to original IDs.
pub fn sort_by_degree(graph: &Csr) -> (Csr, Relabeling) {
    let relabeling = Relabeling::by_descending_degree(graph);
    let sorted = relabeling.apply(graph);
    (sorted, relabeling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;

    fn star_plus_chain() -> Csr {
        // Vertex 3 is a hub of degree 4; 0,1 degree 1; 2 degree 2; 4 degree 2.
        Csr::from_edges(
            5,
            &[
                (3, 0),
                (3, 1),
                (3, 2),
                (3, 4),
                (2, 3),
                (2, 4),
                (4, 3),
                (4, 2),
                (0, 3),
                (1, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn ordering_is_descending_and_stable() {
        let g = star_plus_chain();
        let r = Relabeling::by_descending_degree(&g);
        // Degrees: v0=1? v0 has (0,3): degree 1. v1=1, v2=2, v3=4(+1? (3,*) x4)=4, v4=2.
        // Descending stable order: 3, 2, 4, 0, 1.
        assert_eq!(r.to_old(0), 3);
        assert_eq!(r.to_old(1), 2);
        assert_eq!(r.to_old(2), 4);
        assert_eq!(r.to_old(3), 0);
        assert_eq!(r.to_old(4), 1);
    }

    #[test]
    fn mapping_is_a_bijection() {
        let g = star_plus_chain();
        let r = Relabeling::by_descending_degree(&g);
        for v in 0..g.vertex_count() as VertexId {
            assert_eq!(r.to_new(r.to_old(v)), v);
            assert_eq!(r.to_old(r.to_new(v)), v);
        }
    }

    #[test]
    fn apply_preserves_structure() {
        let g = star_plus_chain();
        let (sorted, r) = sort_by_degree(&g);
        assert_eq!(sorted.vertex_count(), g.vertex_count());
        assert_eq!(sorted.edge_count(), g.edge_count());
        // Every original edge exists in the new ID space.
        for (s, t) in g.edges() {
            assert!(sorted.neighbors(r.to_new(s)).contains(&r.to_new(t)));
        }
        // Degrees are now non-increasing.
        let degs: Vec<_> = (0..sorted.vertex_count())
            .map(|v| sorted.degree(v as VertexId))
            .collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn apply_carries_weights() {
        let g = Csr::from_parts(vec![0, 1, 3], vec![1, 0, 0], Some(vec![9.0, 1.0, 2.0])).unwrap();
        let (sorted, r) = sort_by_degree(&g);
        // Old vertex 1 (degree 2) becomes new vertex 0 with its weights.
        assert_eq!(r.to_new(1), 0);
        assert_eq!(sorted.edge_weights(0), Some(&[1.0f32, 2.0][..]));
        assert_eq!(sorted.edge_weights(1), Some(&[9.0f32][..]));
    }

    #[test]
    fn apply_carries_labels() {
        let g = Csr::from_parts(vec![0, 1, 3], vec![1, 0, 0], None)
            .unwrap()
            .with_edge_labels(vec![9, 1, 2])
            .unwrap();
        let (sorted, r) = sort_by_degree(&g);
        // Old vertex 1 (degree 2) becomes new vertex 0 with its labels.
        assert_eq!(r.to_new(1), 0);
        assert_eq!(sorted.edge_labels_of(0), Some(&[1u8, 2][..]));
        assert_eq!(sorted.edge_labels_of(1), Some(&[9u8][..]));
    }

    #[test]
    fn identity_relabeling_is_noop() {
        let g = star_plus_chain();
        let r = Relabeling::identity(g.vertex_count());
        assert!(r.is_identity() && !r.is_empty());
        assert_eq!(r.len(), 5);
        for v in 0..5 {
            assert_eq!((r.to_old(v), r.to_new(v)), (v, v));
        }
        assert!(r.rows(&g, true).eq(0..5));
        assert_eq!(r.sorted_offsets(&g), g.offsets());
        let g2 = r.apply(&g);
        assert_eq!(g, g2);
        assert!(!Relabeling::by_descending_degree(&g).is_identity());
    }

    #[test]
    #[should_panic]
    fn identity_relabeling_refuses_ids_out_of_range() {
        Relabeling::identity(5).to_old(5);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]).unwrap();
        let (sorted, r) = sort_by_degree(&g);
        assert_eq!(sorted.vertex_count(), 0);
        assert!(r.is_empty());
    }
}
