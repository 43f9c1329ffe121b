//! Walker initialization and the compact walker-state arrays.
//!
//! FlashMob stores walker state as bare vertex IDs in 1-D arrays
//! (Section 4.3, "Compact walker state storage"): `W_i[j]` is the
//! location of walker `j` after step `i`, and walker identity is carried
//! implicitly by array order — halving message footprint versus explicit
//! `<walker, vertex>` pairs.

use fm_graph::mem::advise_huge;
use fm_graph::prefetch::prefetch_read;
use fm_graph::{Csr, VertexId};
use fm_recover::Fingerprint;
use fm_rng::{Rng64, Xorshift64Star};

/// How walkers are initially placed on the graph.
#[derive(Debug, Clone, PartialEq)]
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

/// Folds the walker-initialization mode into a fingerprint: the one
/// encoding every engine's configuration tag uses, so a snapshot taken
/// under one placement never resumes under another.
pub(crate) fn fold_init(fp: &mut Fingerprint, init: &WalkerInit) {
    match init {
        WalkerInit::UniformVertex => {
            fp.fold_u64(1);
        }
        WalkerInit::UniformEdge => {
            fp.fold_u64(2);
        }
        WalkerInit::EveryVertex => {
            fp.fold_u64(3);
        }
        WalkerInit::Fixed(starts) => {
            fp.fold_u64(4).fold_u64(starts.len() as u64);
            for &s in starts {
                fp.fold_u64(s as u64);
            }
        }
    }
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
            EdgeIndex::build(offsets, count).place(offsets, count, || rng.gen_index(e))
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

/// Direct-mapped edge → source-vertex index over a CSR offsets array.
///
/// Bucket `b` covers the edges `[b << shift, (b + 1) << shift)` and
/// `first[b]` is the source of the bucket's first edge, so the source of
/// any edge in the bucket lies in `first[b] ..= first[b + 1]`: one table
/// read, then a search over the few offsets that range spans.  Lookups
/// of successive walkers are independent of each other, so their cache
/// misses overlap — [`EdgeIndex::place`] makes them, running each
/// walker's two dependent reads behind their own prefetches; a binary
/// search over the whole array is one chain of dependent misses per
/// walker.
///
/// The table is built by one sequential pass over `offsets` and lives
/// for a single placement.  `shift` is the smallest that gives at most
/// one bucket per walker: the table stays within 4 bytes per walker and
/// its `O(|V|)` build is amortised over the walkers it serves.
struct EdgeIndex {
    shift: u32,
    /// `buckets + 1` entries; the last is the sentinel `|V| - 1`.
    first: Vec<VertexId>,
}

impl EdgeIndex {
    /// Offsets per cache line: the build pass tests one per line and
    /// skips the lines in which no bucket starts, which is most of them
    /// when walkers are few.
    const LINE: usize = 64 / std::mem::size_of::<usize>();

    fn build(offsets: &[usize], walkers: usize) -> Self {
        let n = offsets.len() - 1;
        let last_edge = offsets[n] - 1;
        let mut shift = 0;
        while (last_edge >> shift) >= walkers {
            shift += 1;
        }
        let buckets = (last_edge >> shift) + 1;
        let mut first = Vec::with_capacity(buckets + 1);
        // First edge of the next bucket to fill.
        let mut next = 0usize;
        for (c, line) in offsets[1..].chunks(Self::LINE).enumerate() {
            // Offsets ascend: if the line's last vertex ends at or
            // before `next`, no bucket starts inside the line.
            if line[line.len() - 1] <= next {
                continue;
            }
            for (i, &end) in line.iter().enumerate() {
                // Every bucket whose first edge is one of this vertex's:
                // none for a zero-degree vertex, many for a hub.
                while next < end {
                    first.push((c * Self::LINE + i) as VertexId);
                    next += 1 << shift;
                }
            }
        }
        debug_assert_eq!(first.len(), buckets);
        first.push((n - 1) as VertexId);
        Self { shift, first }
    }

    /// The vertex range `lo ..= hi` the source of `edge` lies in.
    #[inline]
    fn bucket(&self, edge: usize) -> (VertexId, VertexId) {
        let b = edge >> self.shift;
        (self.first[b], self.first[b + 1])
    }

    /// The source of `edge` — the last `v` with `offsets[v] <= edge` —
    /// within its [`EdgeIndex::bucket`].
    #[inline]
    fn search(offsets: &[usize], edge: usize, lo: VertexId, hi: VertexId) -> VertexId {
        let (lo, hi) = (lo as usize, hi as usize);
        (lo + offsets[lo + 1..=hi].partition_point(|&o| o <= edge)) as VertexId
    }

    /// Walkers between two stages of [`EdgeIndex::place`].  Swept over
    /// {0, 4, 8, 16, 32, 64} on the YH and YT analogs at |V|/2 walkers
    /// (EXPERIMENTS.md, PR 21 ledger): −15 % and −29 % of a placement,
    /// flat from 8 to 64.  At |V|/16 walkers and fewer the table fits in
    /// L2, placement is mostly index build, and the ring costs ~5 % of it.
    const LAG: usize = 16;

    /// The sources of `count` edges, `draw`n in walker order.  Walker
    /// `j`'s table entry is hinted when its edge is drawn, read `LAG`
    /// draws later — which hints the first offset of its bucket — and
    /// searched `LAG` after that: both of a walker's cold reads (a
    /// table of 4 bytes a walker, an offsets array of 8 a vertex) are in
    /// flight for `LAG` walkers' work before they are needed.  The ring
    /// lives on the stack; order of draws and of output is the
    /// un-lagged loop's.
    fn place(
        &self,
        offsets: &[usize],
        count: usize,
        mut draw: impl FnMut() -> usize,
    ) -> Vec<VertexId> {
        const SLOTS: usize = 2 * EdgeIndex::LAG;
        let mut ring = [(0usize, 0 as VertexId, 0 as VertexId); SLOTS];
        // `W_0`: the walker array every later step reads and rewrites.
        let mut out = Vec::with_capacity(count);
        advise_huge(&out);
        for j in 0..count + SLOTS {
            // Walker `j - SLOTS` leaves the slot walker `j` is about to take.
            if j >= SLOTS {
                let (edge, lo, hi) = ring[j % SLOTS];
                out.push(Self::search(offsets, edge, lo, hi));
            }
            if (Self::LAG..count + Self::LAG).contains(&j) {
                let slot = &mut ring[(j - Self::LAG) % SLOTS];
                (slot.1, slot.2) = self.bucket(slot.0);
                prefetch_read(&offsets[slot.1 as usize + 1]);
            }
            if j < count {
                let edge = draw();
                ring[j % SLOTS].0 = edge;
                prefetch_read(&self.first[edge >> self.shift]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::relabel::sort_by_degree;
    use fm_graph::synth;
    use std::time::{Duration, Instant};

    /// Placement as it was before the edge index: one `partition_point`
    /// over the whole offsets array per `UniformEdge` walker.  The
    /// reference every test below holds `initialize_from_offsets` to.
    fn model(offsets: &[usize], init: &WalkerInit, count: usize, seed: u64) -> Vec<VertexId> {
        let n = offsets.len() - 1;
        let mut rng = Xorshift64Star::new(seed);
        match init {
            WalkerInit::UniformVertex => (0..count).map(|_| rng.gen_index(n) as VertexId).collect(),
            WalkerInit::UniformEdge => (0..count)
                .map(|_| {
                    let edge = rng.gen_index(offsets[n]);
                    (offsets.partition_point(|&o| o <= edge) - 1) as VertexId
                })
                .collect(),
            WalkerInit::EveryVertex => (0..count).map(|j| (j % n) as VertexId).collect(),
            WalkerInit::Fixed(starts) => (0..count).map(|j| starts[j % starts.len()]).collect(),
        }
    }

    fn offsets_of(degrees: &[usize]) -> Vec<usize> {
        let mut offsets = vec![0];
        for &d in degrees {
            offsets.push(offsets[offsets.len() - 1] + d);
        }
        offsets
    }

    fn all_inits(n: usize) -> [WalkerInit; 4] {
        [
            WalkerInit::UniformVertex,
            WalkerInit::UniformEdge,
            WalkerInit::EveryVertex,
            WalkerInit::Fixed(vec![(n - 1) as VertexId, 0, (n / 2) as VertexId]),
        ]
    }

    /// Every degree sequence of one to five vertices over {0, 1, 3, 40}
    /// that has an edge: zero-degree vertices at the front, in the middle
    /// and at the back, the one-vertex and the one-edge graph, and hubs
    /// of 40 beside leaves.  Walker counts from 1 (one bucket spans every
    /// vertex) through 64 (a hub spans many buckets) to 1000 (far more
    /// walkers than edges: one bucket per edge).
    #[test]
    fn placement_equals_the_search_model_on_every_small_csr() {
        const DEGREES: [usize; 4] = [0, 1, 3, 40];
        let mut checked = 0;
        for n in 1..=5usize {
            for code in 0..DEGREES.len().pow(n as u32) {
                let degrees: Vec<usize> = (0..n)
                    .map(|k| DEGREES[code / DEGREES.len().pow(k as u32) % DEGREES.len()])
                    .collect();
                if degrees.iter().all(|&d| d == 0) {
                    continue;
                }
                let offsets = offsets_of(&degrees);
                for count in [1, 2, 5, 64, 1000] {
                    for init in &all_inits(n) {
                        let seed = (code + count) as u64;
                        assert_eq!(
                            initialize_from_offsets(&offsets, init, count, seed),
                            model(&offsets, init, count, seed),
                            "degrees {degrees:?}, {count} walkers, {init:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, (4 + 16 + 64 + 256 + 1024 - 5) * 5 * 4);
    }

    /// Edge `e` of the graph belongs to the vertex the index says, for
    /// every edge and every bucket width from one edge to all of them.
    #[test]
    fn edge_index_resolves_every_edge_at_every_width() {
        // A hub, runs of zero-degree vertices, a long tail of leaves.
        let mut degrees = vec![0, 0, 300, 0, 7, 1, 0, 0, 0, 2];
        degrees.extend([1; 90]);
        degrees.extend([0, 5, 0]);
        let offsets = offsets_of(&degrees);
        let edges = offsets[offsets.len() - 1];
        for walkers in [1, 2, 3, 7, 50, 399, 400, 401, 10_000] {
            let index = EdgeIndex::build(&offsets, walkers);
            assert!(index.first.len() - 1 <= walkers.min(edges), "{walkers} walkers");
            for edge in 0..edges {
                let (lo, hi) = index.bucket(edge);
                let v = EdgeIndex::search(&offsets, edge, lo, hi) as usize;
                assert!(
                    offsets[v] <= edge && edge < offsets[v + 1],
                    "edge {edge} -> vertex {v} at {walkers} walkers"
                );
            }
        }
    }

    /// Seeded power-law graphs, degree-sorted (what the engines place on)
    /// and identity-labelled (what `fm-baseline` places on), through
    /// `initialize` and, as the out-of-core engine calls it, through
    /// `initialize_from_offsets` on a copy of the offsets alone.
    #[test]
    fn placement_equals_the_search_model_on_power_law_graphs() {
        let mut rng = Xorshift64Star::new(16);
        for seed in 1..=12u64 {
            let n = 200 + rng.gen_index(3000);
            let max_degree = 2 + rng.gen_index(n / 2);
            let identity = synth::power_law(n, 1.8 + 0.1 * (seed % 5) as f64, 1, max_degree, seed);
            let (sorted, _) = sort_by_degree(&identity);
            for graph in [&identity, &sorted] {
                let offsets = graph.offsets().to_vec();
                for count in [1, n / 32 + 1, n / 2, n, 4 * graph.edge_count()] {
                    for init in &all_inits(n) {
                        let want = model(&offsets, init, count, seed);
                        assert_eq!(
                            initialize(graph, init, count, seed),
                            want,
                            "seed {seed}, {count} walkers, {init:?}"
                        );
                        assert_eq!(initialize_from_offsets(&offsets, init, count, seed), want);
                    }
                }
            }
        }
    }

    /// The lagged placement against the un-lagged loop where its ring
    /// fills and drains: fewer walkers than one lag, exactly one, one
    /// more than the ring holds, and many — on a bare offsets copy, which
    /// is how `oocore` calls it.
    #[test]
    fn lagged_placement_equals_the_unlagged_loop_around_its_drain() {
        let graph = synth::power_law(5_000, 2.0, 1, 400, 21);
        let (sorted, _) = sort_by_degree(&graph);
        let offsets = sorted.offsets().to_vec();
        let lag = EdgeIndex::LAG;
        for count in [1, lag - 1, lag, lag + 1, 2 * lag, 2 * lag + 1, 100_000] {
            for seed in [1u64, 2, 3] {
                let init = WalkerInit::UniformEdge;
                assert_eq!(
                    initialize_from_offsets(&offsets, &init, count, seed),
                    model(&offsets, &init, count, seed),
                    "{count} walkers, seed {seed}"
                );
            }
        }
    }

    /// Placement must stay a table read plus a short search per walker.
    /// 2^20 vertices of mixed degree in no particular order (the layout
    /// `fm-baseline` walks, the harder one for the index), |V|/2 walkers:
    /// the whole placement, index build included, is held under 60 % of
    /// what the search model takes on this host in this build.  Measured:
    /// 10-12 % in release (13-16 ms against 124-145) and 22-30 % in debug
    /// (95-131 ms against 430-435).
    #[test]
    fn placement_costs_a_fraction_of_a_search_per_walker() {
        const N: usize = 1 << 20;
        let degrees: Vec<usize> = (0..N)
            .map(|v| 1 + (v.wrapping_mul(2_654_435_761) >> 7) % 31)
            .collect();
        let offsets = offsets_of(&degrees);
        let count = N / 2;
        let fastest = |f: &dyn Fn() -> Vec<VertexId>| -> (Duration, Vec<VertexId>) {
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let w = std::hint::black_box(f());
                    (t.elapsed(), w)
                })
                .min_by_key(|(d, _)| *d)
                .unwrap()
        };
        let init = WalkerInit::UniformEdge;
        let (searched, want) = fastest(&|| model(&offsets, &init, count, 9));
        let (indexed, got) = fastest(&|| initialize_from_offsets(&offsets, &init, count, 9));
        assert_eq!(got, want);
        assert!(
            indexed * 10 < searched * 6,
            "{count} walkers placed in {indexed:?}; a search each takes {searched:?}"
        );
    }

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
