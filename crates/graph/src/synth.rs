//! Synthetic graph generators.
//!
//! The paper evaluates on five real-world graphs (Table 4) that range up
//! to 58 GB and cannot be redistributed; the reproduction substitutes
//! degree-distribution-matched synthetic analogs (see `presets`).  The
//! scalability study (Figure 11a) explicitly generates synthetic graphs
//! "using the degree distribution of YH", which is exactly what
//! [`configuration_model`] + [`zipf_degree_sequence`] implement.

use crate::csr::Csr;
use crate::VertexId;
use fm_rng::{Rng64, Xorshift64Star};

/// Draws a power-law degree sequence: `P(d) ∝ d^-alpha` over
/// `[min_degree, max_degree]`.
///
/// The sequence is drawn by inverse-CDF lookup over the discrete zipf
/// distribution, so repeated calls with one seed are reproducible.
///
/// # Panics
///
/// Panics if `min_degree == 0` or `min_degree > max_degree`.
pub fn zipf_degree_sequence(
    n: usize,
    alpha: f64,
    min_degree: usize,
    max_degree: usize,
    seed: u64,
) -> Vec<usize> {
    assert!(min_degree >= 1, "walk graphs need min degree 1");
    assert!(min_degree <= max_degree);
    let mut cdf = Vec::with_capacity(max_degree - min_degree + 1);
    let mut acc = 0.0f64;
    for d in min_degree..=max_degree {
        acc += (d as f64).powf(-alpha);
        cdf.push(acc);
    }
    let total = acc;
    let mut rng = Xorshift64Star::new(seed);
    (0..n)
        .map(|_| {
            let x = rng.next_f64() * total;
            let idx = cdf.partition_point(|&c| c <= x).min(cdf.len() - 1);
            min_degree + idx
        })
        .collect()
}

/// Wires an undirected configuration-model graph from a degree sequence.
///
/// Half-edges are shuffled and paired; self-loops are rewired by a fix-up
/// pass and any vertex left without an edge is attached to a random peer,
/// so the result always satisfies the engines' no-sink invariant.  The
/// realized degree of each vertex may deviate from the requested degree
/// by a small constant due to those repairs.
pub fn configuration_model(degrees: &[usize], seed: u64) -> Csr {
    let n = degrees.len();
    let mut half_edges: Vec<VertexId> = Vec::with_capacity(degrees.iter().sum());
    for (v, &d) in degrees.iter().enumerate() {
        for _ in 0..d {
            half_edges.push(v as VertexId);
        }
    }
    // An odd half-edge count cannot be fully paired; drop one.
    if half_edges.len() % 2 == 1 {
        half_edges.pop();
    }
    let mut rng = Xorshift64Star::new(seed);
    // Fisher-Yates shuffle.
    for i in (1..half_edges.len()).rev() {
        let j = rng.gen_index(i + 1);
        half_edges.swap(i, j);
    }
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(half_edges.len() / 2 * 2);
    for pair in half_edges.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        if a == b {
            // Rewire self-loop endpoint to a random other vertex (keeps
            // degree mass roughly in place without a quadratic repair).
            if n > 1 {
                let mut c = rng.gen_index(n) as VertexId;
                if c == a {
                    c = (c + 1) % n as VertexId;
                }
                edges.push((a, c));
                edges.push((c, a));
            }
        } else {
            edges.push((a, b));
            edges.push((b, a));
        }
    }
    // Repair sinks: every vertex must keep at least one out-edge.
    let mut has_out = vec![false; n];
    for &(s, _) in &edges {
        has_out[s as usize] = true;
    }
    #[allow(clippy::needless_range_loop)] // the index is a vertex ID
    for v in 0..n {
        if !has_out[v] && n > 1 {
            let mut t = rng.gen_index(n) as VertexId;
            if t as usize == v {
                t = (t + 1) % n as VertexId;
            }
            edges.push((v as VertexId, t));
            edges.push((t, v as VertexId));
        }
    }
    Csr::from_edges(n, &edges).expect("configuration model produces in-range edges")
}

/// Generates a power-law graph in one call.
pub fn power_law(n: usize, alpha: f64, min_degree: usize, max_degree: usize, seed: u64) -> Csr {
    let degrees = zipf_degree_sequence(n, alpha, min_degree, max_degree, seed);
    configuration_model(&degrees, seed.wrapping_add(1))
}

/// Generates an R-MAT graph with `n = 2^scale` vertices and
/// `edge_factor * n` undirected edges.
///
/// `(a, b, c)` are the standard recursive quadrant probabilities (the
/// fourth is `1 - a - b - c`); Graph500 uses `(0.57, 0.19, 0.19)`.
/// Self-loops are dropped and sinks repaired as in
/// [`configuration_model`].
///
/// # Panics
///
/// Panics if the probabilities are out of range.
pub fn rmat(scale: u32, edge_factor: usize, a: f64, b: f64, c: f64, seed: u64) -> Csr {
    assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0);
    let n = 1usize << scale;
    let m = n * edge_factor;
    let mut rng = Xorshift64Star::new(seed);
    let mut edges = Vec::with_capacity(m * 2);
    for _ in 0..m {
        let (mut s, mut t) = (0usize, 0usize);
        for _ in 0..scale {
            let x = rng.next_f64();
            let (sb, tb) = if x < a {
                (0, 0)
            } else if x < a + b {
                (0, 1)
            } else if x < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            s = (s << 1) | sb;
            t = (t << 1) | tb;
        }
        if s != t {
            edges.push((s as VertexId, t as VertexId));
            edges.push((t as VertexId, s as VertexId));
        }
    }
    let mut has_out = vec![false; n];
    for &(s, _) in &edges {
        has_out[s as usize] = true;
    }
    #[allow(clippy::needless_range_loop)] // the index is a vertex ID
    for v in 0..n {
        if !has_out[v] {
            let t = (v + 1) % n;
            edges.push((v as VertexId, t as VertexId));
            edges.push((t as VertexId, v as VertexId));
        }
    }
    Csr::from_edges(n, &edges).expect("rmat produces in-range edges")
}

/// Grows a Barabási–Albert preferential-attachment graph.
///
/// Starts from a small clique and attaches each new vertex to `m`
/// existing vertices chosen proportionally to their current degree —
/// producing the organic power-law skew of real social networks, as an
/// alternative to the configuration model (which matches a target
/// degree *sequence* but has no growth correlation structure).
///
/// # Panics
///
/// Panics unless `1 <= m < n`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Csr {
    assert!(m >= 1 && m < n, "need 1 <= m < n");
    let mut rng = Xorshift64Star::new(seed);
    // Repeated-endpoints trick: sampling a uniform element of `ends`
    // is degree-proportional sampling.
    let mut ends: Vec<VertexId> = Vec::with_capacity(2 * n * m);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(2 * n * m);
    // Seed clique over the first m+1 vertices.
    for a in 0..=m {
        for b in 0..a {
            edges.push((a as VertexId, b as VertexId));
            edges.push((b as VertexId, a as VertexId));
            ends.push(a as VertexId);
            ends.push(b as VertexId);
        }
    }
    for v in (m + 1)..n {
        let mut chosen: Vec<VertexId> = Vec::with_capacity(m);
        let mut guard = 0;
        while chosen.len() < m {
            let t = ends[rng.gen_index(ends.len())];
            if t != v as VertexId && !chosen.contains(&t) {
                chosen.push(t);
            }
            guard += 1;
            if guard > 64 * m {
                // Extremely unlikely; fall back to any distinct vertex.
                let t = rng.gen_index(v) as VertexId;
                if !chosen.contains(&t) {
                    chosen.push(t);
                }
            }
        }
        for t in chosen {
            edges.push((v as VertexId, t));
            edges.push((t, v as VertexId));
            ends.push(v as VertexId);
            ends.push(t);
        }
    }
    Csr::from_edges(n, &edges).expect("BA edges are in range")
}

/// Rewires a ring lattice into a Watts–Strogatz small-world graph.
///
/// Each forward edge of a `degree`-regular ring is rewired to a uniform
/// random endpoint with probability `beta`; `beta = 0` is the pure
/// lattice (maximum locality), `beta = 1` approaches a random graph.
/// Useful for sweeping the locality axis the UK-vs-FS comparison
/// (Section 5.2) turns on.
///
/// # Panics
///
/// Panics unless `degree` is even, positive, `< n`, and `beta` is in
/// `[0, 1]`.
pub fn watts_strogatz(n: usize, degree: usize, beta: f64, seed: u64) -> Csr {
    assert!(degree > 0 && degree.is_multiple_of(2) && degree < n);
    assert!((0.0..=1.0).contains(&beta));
    let mut rng = Xorshift64Star::new(seed);
    let half = degree / 2;
    let mut edges = Vec::with_capacity(n * degree);
    for v in 0..n {
        for k in 1..=half {
            let mut t = ((v + k) % n) as VertexId;
            if rng.gen_bool(beta) {
                // Rewire; avoid self-loops.
                loop {
                    let cand = rng.gen_index(n) as VertexId;
                    if cand != v as VertexId {
                        t = cand;
                        break;
                    }
                }
            }
            edges.push((v as VertexId, t));
            edges.push((t, v as VertexId));
        }
    }
    Csr::from_edges(n, &edges).expect("WS edges are in range")
}

/// Wires a power-law graph whose edges prefer ID-nearby endpoints.
///
/// Each vertex draws its degree from the same zipf distribution as
/// [`power_law`], but targets are sampled from a window of `window`
/// vertices centered on the source instead of uniformly.  The result has
/// much higher locality and a much larger diameter — the structural
/// signature of web graphs like UK-Union, whose estimated diameter (147)
/// dwarfs Friendster's (32) and which the paper identifies as the reason
/// KnightKing's gap narrows there (Section 5.2).
///
/// # Panics
///
/// Panics if `window < 2` or the zipf parameters are invalid.
pub fn local_power_law(
    n: usize,
    alpha: f64,
    min_degree: usize,
    max_degree: usize,
    window: usize,
    seed: u64,
) -> Csr {
    assert!(window >= 2);
    let degrees = zipf_degree_sequence(n, alpha, min_degree, max_degree, seed);
    let mut rng = Xorshift64Star::new(seed.wrapping_add(0xB10C));
    let mut edges: Vec<(VertexId, VertexId)> =
        Vec::with_capacity(degrees.iter().sum::<usize>() * 2);
    let half = (window / 2) as i64;
    for (v, &d) in degrees.iter().enumerate() {
        for _ in 0..d.div_ceil(2) {
            // Offset in [-half, half] \ {0}.
            let mut off = rng.gen_range(2 * half as u64 + 1) as i64 - half;
            if off == 0 {
                off = 1;
            }
            let t = (v as i64 + off).rem_euclid(n as i64) as VertexId;
            edges.push((v as VertexId, t));
            edges.push((t, v as VertexId));
        }
    }
    Csr::from_edges(n, &edges).expect("windowed edges are in range")
}

/// A ring lattice where each vertex links to its `degree` nearest
/// neighbors (`degree/2` on each side) — every vertex has identical
/// degree, making footprint exactly predictable.
///
/// This is how the cache-sized "toy graphs" of Figure 1 are built: pick
/// `n` so `n * degree * 4` bytes equals the target cache capacity.
///
/// # Panics
///
/// Panics unless `degree` is even, positive, and `< n`.
pub fn regular_ring(n: usize, degree: usize) -> Csr {
    assert!(degree > 0 && degree.is_multiple_of(2) && degree < n);
    let half = degree / 2;
    let mut edges = Vec::with_capacity(n * degree);
    for v in 0..n {
        for k in 1..=half {
            let fwd = ((v + k) % n) as VertexId;
            let back = ((v + n - k) % n) as VertexId;
            edges.push((v as VertexId, fwd));
            edges.push((v as VertexId, back));
        }
    }
    Csr::from_edges(n, &edges).expect("ring edges are in range")
}

/// A star: vertex 0 connects to all others (both directions).
pub fn star(n: usize) -> Csr {
    assert!(n >= 2);
    let mut edges = Vec::with_capacity(2 * (n - 1));
    for v in 1..n {
        edges.push((0, v as VertexId));
        edges.push((v as VertexId, 0));
    }
    Csr::from_edges(n, &edges).expect("star edges are in range")
}

/// A bidirectional cycle 0 - 1 - ... - (n-1) - 0.
pub fn cycle(n: usize) -> Csr {
    assert!(n >= 3);
    let mut edges = Vec::with_capacity(2 * n);
    for v in 0..n {
        let next = ((v + 1) % n) as VertexId;
        edges.push((v as VertexId, next));
        edges.push((next, v as VertexId));
    }
    Csr::from_edges(n, &edges).expect("cycle edges are in range")
}

/// A complete directed graph (no self-loops).
pub fn complete(n: usize) -> Csr {
    assert!(n >= 2);
    let mut edges = Vec::with_capacity(n * (n - 1));
    for s in 0..n {
        for t in 0..n {
            if s != t {
                edges.push((s as VertexId, t as VertexId));
            }
        }
    }
    Csr::from_edges(n, &edges).expect("complete edges are in range")
}

/// Sizes a [`regular_ring`] so its CSR targets array occupies
/// approximately `bytes` bytes at the given degree.
pub fn ring_sized_to_bytes(bytes: usize, degree: usize) -> Csr {
    let per_vertex = degree * std::mem::size_of::<VertexId>();
    let n = (bytes / per_vertex).max(degree + 1);
    // Ring construction requires degree < n; already ensured by max().
    regular_ring(n, degree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sequence_respects_bounds() {
        let degs = zipf_degree_sequence(10_000, 2.0, 2, 100, 7);
        assert!(degs.iter().all(|&d| (2..=100).contains(&d)));
    }

    #[test]
    fn zipf_sequence_is_skewed() {
        let degs = zipf_degree_sequence(50_000, 2.2, 1, 1000, 7);
        let low = degs.iter().filter(|&&d| d <= 2).count();
        let high = degs.iter().filter(|&&d| d >= 100).count();
        assert!(low > degs.len() / 2, "most vertices should be low-degree");
        assert!(high > 0, "tail should reach high degrees");
        assert!(high < low / 10);
    }

    #[test]
    fn configuration_model_has_no_sinks_or_self_loops() {
        let degs = zipf_degree_sequence(2000, 2.0, 1, 200, 3);
        let g = configuration_model(&degs, 4);
        assert!(g.has_no_sinks());
        for (s, t) in g.edges() {
            assert_ne!(s, t, "self loop survived");
        }
    }

    #[test]
    fn configuration_model_degrees_track_request() {
        let degs = vec![10usize; 500];
        let g = configuration_model(&degs, 11);
        let mean: f64 = (0..500).map(|v| g.degree(v)).sum::<usize>() as f64 / 500.0;
        assert!((mean - 10.0).abs() < 1.0, "mean degree {mean}");
    }

    #[test]
    fn configuration_model_is_symmetric() {
        let degs = zipf_degree_sequence(300, 2.0, 1, 30, 9);
        let g = configuration_model(&degs, 10);
        for (s, t) in g.edges() {
            assert!(g.neighbors(t).contains(&s), "missing reverse of {s}->{t}");
        }
    }

    #[test]
    fn rmat_basics() {
        let g = rmat(8, 8, 0.57, 0.19, 0.19, 5);
        assert_eq!(g.vertex_count(), 256);
        assert!(g.has_no_sinks());
        assert!(g.edge_count() > 256 * 8); // roughly 2 * edge_factor * n
                                           // R-MAT with skewed quadrants concentrates degree on low IDs.
        let d_low: usize = (0..32).map(|v| g.degree(v)).sum();
        let d_high: usize = (224..256).map(|v| g.degree(v)).sum();
        assert!(d_low > d_high * 2, "{d_low} vs {d_high}");
    }

    #[test]
    fn barabasi_albert_grows_a_skewed_connected_graph() {
        let g = barabasi_albert(2000, 3, 7);
        assert!(g.has_no_sinks());
        // Connected by construction.
        assert_eq!(crate::stats::weak_components(&g), 1);
        // Early vertices accumulate much higher degree than late ones.
        let early: usize = (0..20).map(|v| g.degree(v)).sum();
        let late: usize = (1980..2000).map(|v| g.degree(v)).sum();
        assert!(early > late * 3, "early {early} vs late {late}");
        // Minimum degree is m (every vertex attached to >= 3).
        assert!((0..2000).all(|v| g.degree(v) >= 3));
    }

    #[test]
    fn watts_strogatz_beta_controls_locality() {
        let lattice = watts_strogatz(2000, 6, 0.0, 3);
        let random = watts_strogatz(2000, 6, 1.0, 3);
        // Beta = 0 keeps the pure lattice: same adjacency sets as the
        // regular ring (edge order differs).
        let ring = regular_ring(2000, 6);
        for v in (0..2000).step_by(97) {
            let mut a = lattice.neighbors(v).to_vec();
            let mut b = ring.neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "vertex {v}");
        }
        let d_lat = crate::stats::estimate_diameter(&lattice, 2, 5);
        let d_rnd = crate::stats::estimate_diameter(&random, 2, 5);
        assert!(d_lat > d_rnd * 5, "lattice {d_lat} vs random {d_rnd}");
        assert!(random.has_no_sinks());
    }

    #[test]
    fn watts_strogatz_small_rewiring_shrinks_diameter() {
        // The signature small-world effect: a few shortcuts collapse the
        // diameter while the graph stays mostly local.
        let lattice = watts_strogatz(1000, 4, 0.0, 9);
        let small_world = watts_strogatz(1000, 4, 0.05, 9);
        let d0 = crate::stats::estimate_diameter(&lattice, 2, 5);
        let d1 = crate::stats::estimate_diameter(&small_world, 2, 5);
        assert!(d1 * 3 < d0, "beta=0.05: {d1} vs lattice {d0}");
    }

    #[test]
    fn local_power_law_has_small_window_locality() {
        let g = local_power_law(10_000, 2.0, 2, 50, 64, 4);
        assert!(g.has_no_sinks());
        // Nearly all edges should span less than the window.
        let near = g
            .edges()
            .filter(|&(s, t)| {
                let d = (s as i64 - t as i64).unsigned_abs() as usize;
                d.min(10_000 - d) <= 32
            })
            .count();
        assert!(near as f64 / g.edge_count() as f64 > 0.99);
    }

    #[test]
    fn local_power_law_has_larger_diameter_than_global() {
        let local = local_power_law(4000, 2.0, 2, 40, 32, 5);
        let global = power_law(4000, 2.0, 2, 40, 5);
        let d_local = crate::stats::estimate_diameter(&local, 3, 9);
        let d_global = crate::stats::estimate_diameter(&global, 3, 9);
        assert!(
            d_local > d_global * 2,
            "local diameter {d_local} vs global {d_global}"
        );
    }

    #[test]
    fn regular_ring_is_regular() {
        let g = regular_ring(100, 6);
        for v in 0..100 {
            assert_eq!(g.degree(v), 6);
        }
        assert!(g.neighbors(0).contains(&1));
        assert!(g.neighbors(0).contains(&99));
    }

    #[test]
    fn ring_sized_to_bytes_hits_target() {
        let g = ring_sized_to_bytes(64 * 1024, 16);
        let bytes = g.edge_count() * std::mem::size_of::<VertexId>();
        assert!((bytes as f64 / (64.0 * 1024.0) - 1.0).abs() < 0.05);
    }

    #[test]
    fn star_cycle_complete_shapes() {
        let s = star(5);
        assert_eq!(s.degree(0), 4);
        assert_eq!(s.degree(3), 1);

        let c = cycle(4);
        for v in 0..4 {
            assert_eq!(c.degree(v), 2);
        }

        let k = complete(4);
        for v in 0..4 {
            assert_eq!(k.degree(v), 3);
        }
    }
}
