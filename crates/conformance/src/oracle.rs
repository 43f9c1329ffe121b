//! Exact Markov-chain oracles for the supported walk algorithms.
//!
//! Every engine in the repository — FlashMob under any plan policy or
//! thread count, both walker-at-a-time baselines, the NUMA modes, the
//! out-of-core path — claims to sample the *same* chain.  On a small
//! graph that chain is not something to estimate: the one-step
//! transition matrix is a closed-form function of the adjacency
//! structure, and the exact distribution after `k` steps is a `k`-fold
//! vector-matrix product.  These oracles compute both.
//!
//! * First-order chains (DeepWalk uniform, weighted) live on the vertex
//!   set: `P[u][x] = m(u, x) / deg(u)` respectively
//!   `P[u][x] = W(u, x) / W(u)` where `m` counts parallel edges and `W`
//!   sums their weights.
//! * node2vec is a *second-order* chain, which becomes first-order on
//!   the state space of distinct directed edges `(prev, cur)`:
//!   `P[(t, u) -> (u, x)] ∝ m(u, x) · α(t, x)` with
//!   `α = 1/p` if `x = t`, `1` if the edge `t -> x` exists, `1/q`
//!   otherwise — exactly the weights the rejection samplers realize.
//!   The first step has no predecessor and is first-order uniform,
//!   matching every engine's iteration-0 behavior.
//!
//! The walk programs get oracles of their own — the price of entry
//! for a `WalkAlgorithm` variant, whose lattice walk needs one:
//!
//! * PPR ([`PprOracle`]) conditions on the walker's origin `o`:
//!   `pi' = (1 - alpha)·(pi · U); pi'[o] += alpha`, summed over the
//!   origin distribution.  The restart edge is *not* a graph edge, so
//!   there is no last-hop transition test; conformance checks
//!   occupancy at two consecutive steps instead.
//! * Early exit ([`EarlyExitOracle`]) is an absorbing chain per
//!   origin: mass that returns to `o` after the iteration-0 grace
//!   step freezes there (the walker records the arrival and dies on
//!   the next iteration, so its final path vertex is `o`).
//! * Metapath ([`MetapathOracle`]) is a time-inhomogeneous chain:
//!   iteration `t` moves uniformly over the edges whose label matches
//!   `pattern[t mod len]`, and mass at a vertex with no allowed edge
//!   is *stuck* — the walker dies there, freezing its final vertex.
//!   Rows may lose all outgoing mass mid-walk, so the oracle iterates
//!   alive/stuck vectors directly instead of building a
//!   [`StochasticMatrix`] (which rightly rejects empty rows).

use std::collections::BTreeMap;

use fm_graph::{Csr, VertexId};
use flashmob::WalkerInit;

use crate::matrix::StochasticMatrix;

/// The exact initial vertex distribution a [`WalkerInit`] induces.
///
/// `UniformEdge` is degree-proportional by construction (the engines
/// pick a uniform edge slot and take its source); the deterministic
/// inits depend on the walker count through the cyclic assignment.
///
/// # Panics
///
/// Panics on an empty graph, zero walkers, or a `Fixed` list that is
/// empty or out of range.
pub fn init_distribution(graph: &Csr, init: &WalkerInit, walkers: usize) -> Vec<f64> {
    let n = graph.vertex_count();
    assert!(n > 0, "oracle needs a non-empty graph");
    assert!(walkers > 0, "oracle needs at least one walker");
    let mut pi = vec![0.0f64; n];
    match init {
        WalkerInit::UniformVertex => {
            pi.fill(1.0 / n as f64);
        }
        WalkerInit::UniformEdge => {
            let e = graph.edge_count() as f64;
            for (v, slot) in pi.iter_mut().enumerate() {
                *slot = graph.degree(v as VertexId) as f64 / e;
            }
        }
        WalkerInit::EveryVertex => {
            for j in 0..walkers {
                pi[j % n] += 1.0 / walkers as f64;
            }
        }
        WalkerInit::Fixed(starts) => {
            assert!(!starts.is_empty(), "fixed init needs start vertices");
            for j in 0..walkers {
                let v = starts[j % starts.len()] as usize;
                assert!(v < n, "fixed start vertex out of range");
                pi[v] += 1.0 / walkers as f64;
            }
        }
    }
    pi
}

/// Index of the distinct directed edges of a graph, in sorted order.
///
/// Used both as the node2vec state space and as the bin layout for
/// last-hop transition tests.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    edges: Vec<(VertexId, VertexId)>,
}

impl EdgeIndex {
    /// Collects the distinct edges of `graph`.
    pub fn new(graph: &Csr) -> Self {
        let mut edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
        edges.sort_unstable();
        edges.dedup();
        Self { edges }
    }

    /// Number of distinct edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph had no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Index of edge `(u, v)`, if present.
    pub fn index_of(&self, u: VertexId, v: VertexId) -> Option<usize> {
        self.edges.binary_search(&(u, v)).ok()
    }

    /// The edge at `i`.
    pub fn edge(&self, i: usize) -> (VertexId, VertexId) {
        self.edges[i]
    }
}

/// Multiplicity-aggregated adjacency of one vertex: distinct targets
/// with summed edge weights (weight 1 per parallel edge when the graph
/// is unweighted).
fn aggregated_row(graph: &Csr, u: VertexId, weighted: bool) -> BTreeMap<VertexId, f64> {
    let mut row: BTreeMap<VertexId, f64> = BTreeMap::new();
    let neighbors = graph.neighbors(u);
    if weighted {
        let weights = graph
            .edge_weights(u)
            .expect("weighted oracle needs edge weights");
        for (&x, &w) in neighbors.iter().zip(weights) {
            *row.entry(x).or_insert(0.0) += w as f64;
        }
    } else {
        for &x in neighbors {
            *row.entry(x).or_insert(0.0) += 1.0;
        }
    }
    row
}

/// Exact oracle for first-order chains (DeepWalk, weighted DeepWalk).
#[derive(Debug, Clone)]
pub struct FirstOrderOracle {
    matrix: StochasticMatrix,
    edges: EdgeIndex,
}

impl FirstOrderOracle {
    /// Uniform-edge chain: `P[u][x] = m(u, x) / deg(u)`.
    pub fn deepwalk(graph: &Csr) -> Self {
        Self::build(graph, false)
    }

    /// Weight-proportional chain: `P[u][x] = W(u, x) / W(u)`.
    ///
    /// # Panics
    ///
    /// Panics if the graph carries no edge weights.
    pub fn weighted(graph: &Csr) -> Self {
        assert!(graph.is_weighted(), "weighted oracle needs a weighted graph");
        Self::build(graph, true)
    }

    fn build(graph: &Csr, weighted: bool) -> Self {
        let n = graph.vertex_count();
        let rows = (0..n)
            .map(|u| {
                aggregated_row(graph, u as VertexId, weighted)
                    .into_iter()
                    .collect()
            })
            .collect();
        Self {
            matrix: StochasticMatrix::from_rows(rows),
            edges: EdgeIndex::new(graph),
        }
    }

    /// The underlying transition matrix.
    pub fn matrix(&self) -> &StochasticMatrix {
        &self.matrix
    }

    /// Exact vertex distribution after `k` steps from `pi0`.
    pub fn occupancy(&self, pi0: &[f64], k: usize) -> Vec<f64> {
        self.matrix.power_apply(pi0, k)
    }

    /// Exact distribution of the last hop `(position at k-1, position
    /// at k)` over [`EdgeIndex`] bins, for `k >= 1`.
    pub fn edge_distribution(&self, pi0: &[f64], k: usize) -> Vec<f64> {
        assert!(k >= 1, "a hop needs at least one step");
        let before = self.matrix.power_apply(pi0, k - 1);
        let mut dist = vec![0.0f64; self.edges.len()];
        for (j, slot) in dist.iter_mut().enumerate() {
            let (u, v) = self.edges.edge(j);
            *slot = before[u as usize] * self.matrix.prob(u as usize, v as usize);
        }
        dist
    }

    /// The edge bins [`FirstOrderOracle::edge_distribution`] uses.
    pub fn edge_index(&self) -> &EdgeIndex {
        &self.edges
    }
}

/// Exact oracle for the node2vec second-order chain.
#[derive(Debug, Clone)]
pub struct Node2VecOracle {
    /// State space: distinct directed edges `(prev, cur)`.
    edges: EdgeIndex,
    /// Chain over edge states.
    matrix: StochasticMatrix,
    /// First (predecessor-free) step: the first-order uniform chain.
    first: FirstOrderOracle,
    vertex_count: usize,
}

impl Node2VecOracle {
    /// Builds the oracle for return parameter `p` and in-out parameter
    /// `q` on an unweighted graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is weighted (the engines reject that
    /// combination) or has no edges.
    pub fn new(graph: &Csr, p: f64, q: f64) -> Self {
        assert!(
            !graph.is_weighted(),
            "node2vec runs on unweighted graphs only"
        );
        let edges = EdgeIndex::new(graph);
        assert!(!edges.is_empty(), "node2vec oracle needs edges");
        let rows = (0..edges.len())
            .map(|s| {
                let (t, u) = edges.edge(s);
                aggregated_row(graph, u, false)
                    .into_iter()
                    .map(|(x, m)| {
                        let alpha = if x == t {
                            1.0 / p
                        } else if graph.has_edge(t, x) {
                            1.0
                        } else {
                            1.0 / q
                        };
                        let next = edges
                            .index_of(u, x)
                            .expect("target edge must be in the index");
                        (next as u32, m * alpha)
                    })
                    .collect()
            })
            .collect();
        Self {
            matrix: StochasticMatrix::from_rows(rows),
            first: FirstOrderOracle::deepwalk(graph),
            edges,
            vertex_count: graph.vertex_count(),
        }
    }

    /// Exact edge-state distribution after `k >= 1` steps from the
    /// vertex distribution `pi0`.
    pub fn state_distribution(&self, pi0: &[f64], k: usize) -> Vec<f64> {
        assert!(k >= 1, "edge states exist only after the first step");
        // Step 1 is first-order: the state after it is distributed as
        // the first hop of the uniform chain.
        let s1 = self.first.edge_distribution(pi0, 1);
        self.matrix.power_apply(&s1, k - 1)
    }

    /// Exact vertex distribution after `k` steps from `pi0`.
    pub fn occupancy(&self, pi0: &[f64], k: usize) -> Vec<f64> {
        if k == 0 {
            return pi0.to_vec();
        }
        let states = self.state_distribution(pi0, k);
        let mut pi = vec![0.0f64; self.vertex_count];
        for (s, &mass) in states.iter().enumerate() {
            let (_, cur) = self.edges.edge(s);
            pi[cur as usize] += mass;
        }
        pi
    }

    /// The edge-state bins (also the last-hop transition bins).
    pub fn edge_index(&self) -> &EdgeIndex {
        &self.edges
    }

    /// The second-order transition matrix over edge states.
    pub fn matrix(&self) -> &StochasticMatrix {
        &self.matrix
    }
}

/// Exact oracle for personalized-PageRank restart walks.
///
/// The PPR chain is origin-conditioned: a walker that started at `o`
/// teleports back to `o` with probability `alpha` at every step and
/// otherwise moves like the uniform first-order chain.  Occupancy is
/// computed per origin and mixed by the origin distribution.
#[derive(Debug, Clone)]
pub struct PprOracle {
    base: StochasticMatrix,
    edges: EdgeIndex,
    alpha: f64,
}

impl PprOracle {
    /// Builds the oracle for restart probability `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` is outside `(0, 1]` (the engine rejects
    /// such configs at construction).
    pub fn new(graph: &Csr, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "ppr restart probability must be in (0, 1]"
        );
        Self {
            base: FirstOrderOracle::deepwalk(graph).matrix().clone(),
            edges: EdgeIndex::new(graph),
            alpha,
        }
    }

    /// Exact vertex distribution after `k` steps, where `pi0` is the
    /// distribution of walker *origins* (= initial positions).
    pub fn occupancy(&self, pi0: &[f64], k: usize) -> Vec<f64> {
        assert_eq!(pi0.len(), self.base.len(), "distribution length mismatch");
        if k == 0 {
            return pi0.to_vec();
        }
        let n = pi0.len();
        let mut total = vec![0.0f64; n];
        for (o, &mass) in pi0.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            let mut pi = vec![0.0f64; n];
            pi[o] = 1.0;
            for _ in 0..k {
                pi = self.base.apply(&pi);
                for p in pi.iter_mut() {
                    *p *= 1.0 - self.alpha;
                }
                pi[o] += self.alpha;
            }
            for (slot, &p) in total.iter_mut().zip(&pi) {
                *slot += mass * p;
            }
        }
        total
    }

    /// Whether a recorded hop is realizable: a graph edge, or a
    /// restart landing on the walker's origin.
    pub fn hop_allowed(&self, u: VertexId, v: VertexId, origin: VertexId) -> bool {
        v == origin || self.edges.index_of(u, v).is_some()
    }
}

/// Exact oracle for the early-exit walk: a walker that returns to its
/// origin (after the iteration-0 grace step) records the arrival and
/// dies on the next iteration, so the observable per walker is its
/// *final path vertex*.
#[derive(Debug, Clone)]
pub struct EarlyExitOracle {
    base: StochasticMatrix,
}

impl EarlyExitOracle {
    /// Builds the oracle on the uniform first-order chain of `graph`.
    pub fn new(graph: &Csr) -> Self {
        Self {
            base: FirstOrderOracle::deepwalk(graph).matrix().clone(),
        }
    }

    /// Exact distribution of the final path vertex after a `k`-step
    /// budget, where `pi0` is the origin distribution.
    ///
    /// Per origin `o`: step 1 is unconditional (the grace step); from
    /// then on, mass sitting at `o` is absorbed — the walker dies with
    /// final vertex `o` — while the rest keeps moving until the budget
    /// runs out.
    pub fn final_distribution(&self, pi0: &[f64], k: usize) -> Vec<f64> {
        assert_eq!(pi0.len(), self.base.len(), "distribution length mismatch");
        if k == 0 {
            return pi0.to_vec();
        }
        let n = pi0.len();
        let mut total = vec![0.0f64; n];
        for (o, &mass) in pi0.iter().enumerate() {
            if mass == 0.0 {
                continue;
            }
            let mut delta = vec![0.0f64; n];
            delta[o] = 1.0;
            // Position after the grace step.
            let mut alive = self.base.apply(&delta);
            let mut absorbed = 0.0f64;
            for _ in 1..k {
                absorbed += alive[o];
                alive[o] = 0.0;
                alive = self.base.apply(&alive);
            }
            // Survivors end wherever step k left them; walkers that
            // reached o earlier (or at step k) end at o.
            for (slot, &p) in total.iter_mut().zip(&alive) {
                *slot += mass * p;
            }
            total[o] += mass * absorbed;
        }
        total
    }
}

/// Exact oracle for metapath walks over typed edges.
///
/// Iteration `t` moves uniformly over the out-edges whose label equals
/// `pattern[t mod len]`; a vertex with no allowed edge kills the
/// walker there (its final path vertex).  The chain is
/// time-inhomogeneous and sub-stochastic per phase, so the oracle
/// iterates alive/stuck mass vectors directly.
#[derive(Debug, Clone)]
pub struct MetapathOracle {
    pattern: Vec<u8>,
    /// `rows[&l][u]` = aggregated `(target, multiplicity)` over the
    /// label-`l` out-edges of `u`.
    rows: BTreeMap<u8, Vec<Vec<(VertexId, f64)>>>,
    vertex_count: usize,
}

impl MetapathOracle {
    /// Builds the oracle for a cyclic `pattern` on a labeled graph.
    ///
    /// # Panics
    ///
    /// Panics when the pattern is empty or the graph carries no edge
    /// labels (the engine rejects both at construction).
    pub fn new(graph: &Csr, pattern: &[u8]) -> Self {
        assert!(!pattern.is_empty(), "metapath pattern must be non-empty");
        assert!(graph.is_labeled(), "metapath oracle needs edge labels");
        let n = graph.vertex_count();
        let mut rows: BTreeMap<u8, Vec<Vec<(VertexId, f64)>>> = BTreeMap::new();
        for &label in pattern {
            if rows.contains_key(&label) {
                continue;
            }
            let per_vertex = (0..n)
                .map(|u| {
                    let u = u as VertexId;
                    let Some(labels) = graph.edge_labels_of(u) else {
                        unreachable!("labeled graph has per-vertex labels")
                    };
                    let mut row: BTreeMap<VertexId, f64> = BTreeMap::new();
                    for (&x, &l) in graph.neighbors(u).iter().zip(labels) {
                        if l == label {
                            *row.entry(x).or_insert(0.0) += 1.0;
                        }
                    }
                    row.into_iter().collect()
                })
                .collect();
            rows.insert(label, per_vertex);
        }
        Self {
            pattern: pattern.to_vec(),
            rows,
            vertex_count: n,
        }
    }

    /// The phase label iteration `t` samples over.
    pub fn label_at(&self, t: usize) -> u8 {
        self.pattern[t % self.pattern.len()]
    }

    /// Whether vertex `u` has any edge allowed at iteration `t`.
    pub fn has_allowed(&self, u: VertexId, t: usize) -> bool {
        !self.rows[&self.label_at(t)][u as usize].is_empty()
    }

    /// Whether the hop `u -> v` is realizable at iteration `t`.
    pub fn hop_allowed(&self, u: VertexId, v: VertexId, t: usize) -> bool {
        self.rows[&self.label_at(t)][u as usize]
            .iter()
            .any(|&(x, _)| x == v)
    }

    /// Exact distribution of the final path vertex after a `k`-step
    /// budget from `pi0`: surviving mass ends wherever phase `k - 1`
    /// left it, stuck mass stays where its phase had no allowed edge.
    pub fn final_distribution(&self, pi0: &[f64], k: usize) -> Vec<f64> {
        assert_eq!(pi0.len(), self.vertex_count, "distribution length mismatch");
        let mut alive = pi0.to_vec();
        let mut stuck = vec![0.0f64; self.vertex_count];
        for t in 0..k {
            let rows = &self.rows[&self.label_at(t)];
            let mut next = vec![0.0f64; self.vertex_count];
            for (u, &mass) in alive.iter().enumerate() {
                if mass == 0.0 {
                    continue;
                }
                let row = &rows[u];
                if row.is_empty() {
                    stuck[u] += mass;
                    continue;
                }
                let total: f64 = row.iter().map(|&(_, m)| m).sum();
                for &(x, m) in row {
                    next[x as usize] += mass * m / total;
                }
            }
            alive = next;
        }
        for (slot, &s) in alive.iter_mut().zip(&stuck) {
            *slot += s;
        }
        alive
    }

    /// The fraction of `pi0` still walking after `k` iterations.
    pub fn survival(&self, pi0: &[f64], k: usize) -> f64 {
        let mut alive = pi0.to_vec();
        for t in 0..k {
            let rows = &self.rows[&self.label_at(t)];
            let mut next = vec![0.0f64; self.vertex_count];
            for (u, &mass) in alive.iter().enumerate() {
                if mass == 0.0 {
                    continue;
                }
                let row = &rows[u];
                if row.is_empty() {
                    continue;
                }
                let total: f64 = row.iter().map(|&(_, m)| m).sum();
                for &(x, m) in row {
                    next[x as usize] += mass * m / total;
                }
            }
            alive = next;
        }
        alive.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::synth;

    #[test]
    fn cycle_oracle_is_a_rotation() {
        // Directed 4-cycle: occupancy rotates deterministically.
        let g = synth::cycle(4);
        let oracle = FirstOrderOracle::deepwalk(&g);
        let pi0 = vec![1.0, 0.0, 0.0, 0.0];
        // cycle() is undirected (each vertex has prev + next), so just
        // check stochasticity and symmetry instead of a pure rotation.
        let pi = oracle.occupancy(&pi0, 2);
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // After 2 steps from vertex 0 on an undirected cycle: half the
        // mass returns (LR/RL), a quarter lands two ahead/behind.
        assert!((pi[0] - 0.5).abs() < 1e-12, "pi = {pi:?}");
        assert!((pi[2] - 0.5).abs() < 1e-12, "pi = {pi:?}");
    }

    #[test]
    fn star_occupancy_alternates() {
        // Star with hub 0: from the hub every walker reaches a leaf,
        // from a leaf every walker returns to the hub.
        let g = synth::star(5);
        let oracle = FirstOrderOracle::deepwalk(&g);
        let hub = init_distribution(&g, &WalkerInit::Fixed(vec![0]), 10);
        let after1 = oracle.occupancy(&hub, 1);
        assert_eq!(after1[0], 0.0);
        let after2 = oracle.occupancy(&hub, 2);
        assert!((after2[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_edge_init_is_stationary_for_deepwalk() {
        // Degree-proportional placement is the stationary distribution
        // of the uniform chain on an undirected graph: occupancy must
        // be invariant at every step.
        let g = synth::power_law(40, 2.0, 1, 10, 3);
        let oracle = FirstOrderOracle::deepwalk(&g);
        let pi0 = init_distribution(&g, &WalkerInit::UniformEdge, 1000);
        let pik = oracle.occupancy(&pi0, 5);
        for (a, b) in pi0.iter().zip(&pik) {
            assert!((a - b).abs() < 1e-12, "stationarity violated");
        }
    }

    #[test]
    fn weighted_oracle_follows_weights() {
        // 0 -> {1 (w=1), 2 (w=4)}; 1, 2 -> 0.
        let g = Csr::from_parts(
            vec![0, 2, 3, 4],
            vec![1, 2, 0, 0],
            Some(vec![1.0, 4.0, 1.0, 1.0]),
        )
        .unwrap();
        let oracle = FirstOrderOracle::weighted(&g);
        assert!((oracle.matrix().prob(0, 1) - 0.2).abs() < 1e-12);
        assert!((oracle.matrix().prob(0, 2) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn parallel_edges_multiply_probability() {
        // 0 -> 1 twice, 0 -> 2 once.
        let g = Csr::from_edges(3, &[(0, 1), (0, 1), (0, 2), (1, 0), (2, 0)]).unwrap();
        let oracle = FirstOrderOracle::deepwalk(&g);
        assert!((oracle.matrix().prob(0, 1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((oracle.matrix().prob(0, 2) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn node2vec_low_p_returns() {
        // Path 0 - 1 - 2. From state (0, 1) with p tiny, the walker
        // almost always returns to 0; with p huge it almost never does.
        let g = Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        let sticky = Node2VecOracle::new(&g, 0.01, 1.0);
        let s = sticky.edge_index().index_of(0, 1).unwrap();
        let back = sticky.edge_index().index_of(1, 0).unwrap();
        assert!(sticky.matrix().prob(s, back) > 0.98);

        let averse = Node2VecOracle::new(&g, 100.0, 1.0);
        assert!(averse.matrix().prob(s, back) < 0.02);
    }

    #[test]
    fn node2vec_step1_matches_first_order() {
        let g = synth::power_law(30, 2.0, 1, 8, 9);
        let n2v = Node2VecOracle::new(&g, 0.25, 4.0);
        let first = FirstOrderOracle::deepwalk(&g);
        let pi0 = init_distribution(&g, &WalkerInit::UniformEdge, 100);
        let a = n2v.occupancy(&pi0, 1);
        let b = first.occupancy(&pi0, 1);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn node2vec_self_loop_is_distance_zero() {
        // 0 has a self-loop; from state (0, 0) the candidate 0 equals
        // the predecessor, so it gets weight 1/p, while 1 is adjacent
        // to 0 (weight 1).
        let g = Csr::from_edges(2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let oracle = Node2VecOracle::new(&g, 4.0, 0.5);
        let s = oracle.edge_index().index_of(0, 0).unwrap();
        let stay = oracle.edge_index().index_of(0, 0).unwrap();
        let leave = oracle.edge_index().index_of(0, 1).unwrap();
        // Weights: stay = 1/p = 0.25, leave = 1 (0 -> 1 exists).
        assert!((oracle.matrix().prob(s, stay) - 0.2).abs() < 1e-12);
        assert!((oracle.matrix().prob(s, leave) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn occupancy_sums_to_one() {
        let g = synth::power_law(25, 2.0, 1, 6, 11);
        let oracle = Node2VecOracle::new(&g, 0.5, 2.0);
        let pi0 = init_distribution(&g, &WalkerInit::UniformEdge, 50);
        for k in 0..6 {
            let pi = oracle.occupancy(&pi0, k);
            let total: f64 = pi.iter().sum();
            assert!((total - 1.0).abs() < 1e-10, "k = {k}: total = {total}");
        }
    }

    #[test]
    fn ppr_alpha_one_pins_walkers_to_origin() {
        // alpha = 1 teleports every step: occupancy equals the origin
        // distribution at every horizon.
        let g = synth::power_law(30, 2.0, 1, 8, 5);
        let oracle = PprOracle::new(&g, 1.0);
        let pi0 = init_distribution(&g, &WalkerInit::UniformEdge, 100);
        for k in [1, 3, 8] {
            let pi = oracle.occupancy(&pi0, k);
            for (a, b) in pi.iter().zip(&pi0) {
                assert!((a - b).abs() < 1e-12, "k = {k}");
            }
        }
    }

    #[test]
    fn ppr_tiny_alpha_approaches_deepwalk() {
        let g = synth::power_law(30, 2.0, 1, 8, 5);
        let pi0 = init_distribution(&g, &WalkerInit::UniformEdge, 100);
        let ppr = PprOracle::new(&g, 1e-9).occupancy(&pi0, 4);
        let dw = FirstOrderOracle::deepwalk(&g).occupancy(&pi0, 4);
        for (a, b) in ppr.iter().zip(&dw) {
            assert!((a - b).abs() < 1e-6);
        }
        let total: f64 = ppr.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn ppr_hop_allows_restarts_and_edges_only() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        let oracle = PprOracle::new(&g, 0.2);
        assert!(oracle.hop_allowed(0, 1, 2), "graph edge");
        assert!(oracle.hop_allowed(0, 2, 2), "restart to origin");
        assert!(!oracle.hop_allowed(0, 2, 1), "neither edge nor origin");
    }

    #[test]
    fn early_exit_star_returns_home() {
        // Origin = hub of a star: step 1 reaches a leaf, step 2 returns
        // to the hub, where the walker is absorbed.  Every final path
        // vertex is the hub for any budget >= 2.
        let g = synth::star(5);
        let oracle = EarlyExitOracle::new(&g);
        let hub = init_distribution(&g, &WalkerInit::Fixed(vec![0]), 10);
        for k in [2, 3, 8] {
            let pi = oracle.final_distribution(&hub, k);
            assert!((pi[0] - 1.0).abs() < 1e-12, "k = {k}: pi = {pi:?}");
        }
        // Budget 1: the grace step runs, nobody has returned yet.
        let pi = oracle.final_distribution(&hub, 1);
        assert_eq!(pi[0], 0.0);
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn early_exit_mass_is_conserved() {
        let g = synth::power_law(40, 2.0, 2, 10, 3);
        let oracle = EarlyExitOracle::new(&g);
        let pi0 = init_distribution(&g, &WalkerInit::UniformEdge, 1000);
        for k in 0..8 {
            let pi = oracle.final_distribution(&pi0, k);
            let total: f64 = pi.iter().sum();
            assert!((total - 1.0).abs() < 1e-10, "k = {k}");
        }
    }

    fn two_phase_path() -> Csr {
        // 0 -(a)-> 1 -(b)-> 2, plus back-edges labeled so a walker on
        // pattern [a, b] starting at 0 must go 0 -> 1 -> 2 and is then
        // stuck at 2 (vertex 2's only edge is labeled b, but phase 2
        // wants a again).
        let g = Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]).unwrap();
        g.with_edge_labels(vec![0, 1, 1, 1]).unwrap()
    }

    #[test]
    fn metapath_deterministic_path_then_stuck() {
        let g = two_phase_path();
        let oracle = MetapathOracle::new(&g, &[0, 1]);
        let pi0 = init_distribution(&g, &WalkerInit::Fixed(vec![0]), 10);
        // Phase 0 (label 0): 0 -> 1.  Phase 1 (label 1): 1 -> 0 or 2.
        let pi = oracle.final_distribution(&pi0, 2);
        assert!((pi[0] - 0.5).abs() < 1e-12, "pi = {pi:?}");
        assert!((pi[2] - 0.5).abs() < 1e-12, "pi = {pi:?}");
        // Phase 2 (label 0 again): 2 has no label-0 edge -> stuck; 0
        // proceeds to 1.
        let pi = oracle.final_distribution(&pi0, 3);
        assert!((pi[2] - 0.5).abs() < 1e-12, "stuck mass stays: {pi:?}");
        assert!((pi[1] - 0.5).abs() < 1e-12, "pi = {pi:?}");
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn metapath_structural_predicates() {
        let g = two_phase_path();
        let oracle = MetapathOracle::new(&g, &[0, 1]);
        assert!(oracle.hop_allowed(0, 1, 0), "label-0 edge in phase 0");
        assert!(!oracle.hop_allowed(1, 2, 0), "label-1 edge refused in phase 0");
        assert!(oracle.hop_allowed(1, 2, 1));
        assert!(!oracle.has_allowed(2, 0), "vertex 2 has no label-0 edge");
        assert!(oracle.has_allowed(2, 1));
        assert_eq!(oracle.label_at(5), 1);
    }

    #[test]
    fn metapath_survival_tracks_stuck_mass() {
        let g = two_phase_path();
        let oracle = MetapathOracle::new(&g, &[0, 1]);
        let pi0 = init_distribution(&g, &WalkerInit::Fixed(vec![0]), 10);
        assert!((oracle.survival(&pi0, 2) - 1.0).abs() < 1e-12);
        // Half the mass (at vertex 2) dies in phase 2.
        assert!((oracle.survival(&pi0, 3) - 0.5).abs() < 1e-12);
    }
}
