//! Degree-percentile statistics (the machinery behind the paper's Table 2).
//!
//! Table 2 groups each graph's vertices into four buckets by degree
//! percentile — top <1%, 1%~5%, 5%~25%, 25%~100% — and reports each
//! bucket's average degree, share of total edges, and share of walker
//! visits.  These statistics justify FlashMob's frequency-aware grouping:
//! the top 5% of vertices attract 45-70% of all visits.

use crate::csr::Csr;
use crate::VertexId;

/// The paper's four degree-percentile bucket boundaries (fractions of
/// |V|, cumulative, over the degree-descending vertex order).
pub const TABLE2_BUCKETS: [f64; 4] = [0.01, 0.05, 0.25, 1.0];

/// Statistics for one degree-percentile bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketStats {
    /// Upper cumulative fraction of vertices this bucket ends at.
    pub upper_fraction: f64,
    /// Number of vertices in the bucket.
    pub vertex_count: usize,
    /// Average out-degree within the bucket (the paper's `D̄`).
    pub avg_degree: f64,
    /// Fraction of all edges owned by the bucket (the paper's `|E|` row).
    pub edge_share: f64,
    /// Fraction of all walker visits landing in the bucket (the paper's
    /// `|W|` row); `None` when no visit counts were supplied.
    pub visit_share: Option<f64>,
}

/// Computes per-bucket statistics for a graph.
///
/// `visits[v]` — if provided — is the number of walker-steps that departed
/// from vertex `v`.  `boundaries` is a cumulative fraction list like
/// [`TABLE2_BUCKETS`]; it must be strictly increasing and end at 1.0.
///
/// The graph does *not* need to be pre-sorted by degree: the function
/// ranks vertices internally (stable, degree-descending), matching how
/// the paper assigns percentiles.
///
/// # Panics
///
/// Panics if `boundaries` is malformed or `visits` has the wrong length.
pub fn degree_group_stats(
    graph: &Csr,
    visits: Option<&[u64]>,
    boundaries: &[f64],
) -> Vec<BucketStats> {
    assert!(!boundaries.is_empty(), "need at least one bucket");
    assert!(
        boundaries.windows(2).all(|w| w[0] < w[1]),
        "boundaries must be strictly increasing"
    );
    assert!(
        (boundaries.last().copied().unwrap_or(0.0) - 1.0).abs() < 1e-12,
        "last boundary must be 1.0"
    );
    if let Some(v) = visits {
        assert_eq!(v.len(), graph.vertex_count(), "visits length must be |V|");
    }

    let n = graph.vertex_count();
    if n == 0 {
        return boundaries
            .iter()
            .map(|&b| BucketStats {
                upper_fraction: b,
                vertex_count: 0,
                avg_degree: 0.0,
                edge_share: 0.0,
                visit_share: visits.map(|_| 0.0),
            })
            .collect();
    }

    // Rank vertices by descending degree (stable).
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));

    let total_edges = graph.edge_count().max(1) as f64;
    let total_visits = visits.map(|v| v.iter().sum::<u64>().max(1) as f64);

    let mut out = Vec::with_capacity(boundaries.len());
    let mut start = 0usize;
    for &b in boundaries {
        // Bucket covers ranked vertices [start, end); ensure the final
        // bucket absorbs rounding leftovers.
        let end = if (b - 1.0).abs() < 1e-12 {
            n
        } else {
            ((n as f64 * b).round() as usize).clamp(start, n)
        };
        let members = &order[start..end];
        let edge_sum: usize = members.iter().map(|&v| graph.degree(v)).sum();
        let visit_sum: Option<u64> = visits.map(|vs| members.iter().map(|&v| vs[v as usize]).sum());
        out.push(BucketStats {
            upper_fraction: b,
            vertex_count: members.len(),
            avg_degree: if members.is_empty() {
                0.0
            } else {
                edge_sum as f64 / members.len() as f64
            },
            edge_share: edge_sum as f64 / total_edges,
            visit_share: visit_sum
                .map(|s| s as f64 / total_visits.expect("set together with visits")),
        });
        start = end;
    }
    out
}

/// Average out-degree of the whole graph.
pub fn avg_degree(graph: &Csr) -> f64 {
    if graph.vertex_count() == 0 {
        return 0.0;
    }
    graph.edge_count() as f64 / graph.vertex_count() as f64
}

/// The number of weakly connected components, edges taken as
/// undirected: a union-find over the edge list.
pub fn weak_components(graph: &Csr) -> usize {
    fn root(parent: &mut [VertexId], mut v: VertexId) -> VertexId {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    let mut parent: Vec<VertexId> = (0..graph.vertex_count() as VertexId).collect();
    let mut components = graph.vertex_count();
    for (u, v) in graph.edges() {
        let (a, b) = (root(&mut parent, u), root(&mut parent, v));
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
            components -= 1;
        }
    }
    components
}

/// Estimates the graph's effective diameter by BFS from `samples` seed
/// vertices, returning the maximum distance observed.
///
/// The paper uses estimated diameter to explain UK's stronger locality
/// (Section 5.2: UK diameter ≈ 147 vs FS ≈ 32).
pub fn estimate_diameter(graph: &Csr, samples: usize, seed: u64) -> usize {
    use fm_rng::{Rng64, Xorshift64Star};
    let n = graph.vertex_count();
    if n == 0 {
        return 0;
    }
    let mut rng = Xorshift64Star::new(seed);
    let mut best = 0usize;
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for _ in 0..samples {
        let src = rng.gen_index(n) as VertexId;
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        queue.clear();
        dist[src as usize] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u as usize];
            best = best.max(du as usize);
            for &w in graph.neighbors(u) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = du + 1;
                    queue.push_back(w);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn components_found_correctly() {
        // Two triangles plus an isolated vertex.
        let g = Csr::from_edges(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        assert_eq!(weak_components(&g), 3);
        assert_eq!(weak_components(&Csr::from_edges(0, &[]).unwrap()), 0);
    }

    #[test]
    fn directed_chains_are_weakly_connected() {
        let g = Csr::from_edges(3, &[(0, 1), (2, 1)]).unwrap();
        assert_eq!(weak_components(&g), 1);
    }

    #[test]
    fn buckets_partition_all_vertices() {
        let g = synth::power_law(1000, 2.0, 1, 100, 1);
        let stats = degree_group_stats(&g, None, &TABLE2_BUCKETS);
        assert_eq!(stats.len(), 4);
        let total: usize = stats.iter().map(|b| b.vertex_count).sum();
        assert_eq!(total, 1000);
        let edge_total: f64 = stats.iter().map(|b| b.edge_share).sum();
        assert!((edge_total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn avg_degree_decreases_across_buckets() {
        let g = synth::power_law(5000, 2.1, 1, 500, 2);
        let stats = degree_group_stats(&g, None, &TABLE2_BUCKETS);
        for w in stats.windows(2) {
            assert!(
                w[0].avg_degree >= w[1].avg_degree,
                "{} < {}",
                w[0].avg_degree,
                w[1].avg_degree
            );
        }
    }

    #[test]
    fn skewed_graph_concentrates_edges_on_top_bucket() {
        let g = synth::power_law(10_000, 2.0, 1, 1000, 3);
        let stats = degree_group_stats(&g, None, &TABLE2_BUCKETS);
        // Top 5% of vertices should own a large minority of edges.
        assert!(stats[0].edge_share + stats[1].edge_share > 0.3);
        // Bottom 75% should own well under half.
        assert!(stats[3].edge_share < 0.5);
    }

    #[test]
    fn visit_share_follows_supplied_counts() {
        let g = synth::star(10); // vertex 0 is the hub
        let mut visits = vec![1u64; 10];
        visits[0] = 91; // hub gets 91 of 100 visits
        let stats = degree_group_stats(&g, Some(&visits), &[0.1, 1.0]);
        // Hub is the top-degree vertex -> first bucket.
        assert_eq!(stats[0].vertex_count, 1);
        assert!((stats[0].visit_share.unwrap() - 0.91).abs() < 1e-9);
        assert!((stats[1].visit_share.unwrap() - 0.09).abs() < 1e-9);
    }

    #[test]
    fn uniform_graph_spreads_edges_by_count() {
        let g = synth::regular_ring(1000, 4);
        let stats = degree_group_stats(&g, None, &TABLE2_BUCKETS);
        assert!((stats[3].edge_share - 0.75).abs() < 0.01);
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = crate::csr::Csr::from_edges(0, &[]).unwrap();
        let stats = degree_group_stats(&g, None, &TABLE2_BUCKETS);
        assert!(stats.iter().all(|b| b.vertex_count == 0));
    }

    #[test]
    fn diameter_of_cycle() {
        let g = synth::cycle(20);
        assert_eq!(estimate_diameter(&g, 4, 1), 10);
    }
}
