//! Automatic vertex partitioning and policy assignment (paper §4.4).
//!
//! The planner reduces "how to cut the degree-sorted vertex array into
//! VPs, and which sampling policy each VP uses" to the Multiple-Choice
//! Knapsack Problem:
//!
//! * the sorted vertices are grouped into `G` equal, power-of-two-sized
//!   *groups* (the MCKP classes);
//! * each candidate *item* of a class is a power-of-two VP size for that
//!   group — optionally paired with an internal extra level of shuffle —
//!   whose **profit** is the negated estimated sampling cost (PS or DS,
//!   whichever is cheaper per VP) and whose **weight** is the number of
//!   first-level shuffle bins it creates (the VP count, or 1 when the
//!   group shuffles internally);
//! * the capacity is the number of bins one L2-resident shuffle level can
//!   drive (2048 on the paper's platform).
//!
//! The instance is solved exactly by `fm-mckp`'s pseudo-polynomial DP.

use fm_graph::{Csr, VertexId};
use fm_mckp::{solve, Item};
use fm_memsim::hierarchy::HierarchyConfig;

use crate::cost::AnalyticCostModel;
use crate::partition::{Partition, PartitionMap, SamplePolicy};
use crate::WalkError;

/// Planner inputs that describe the machine rather than the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerParams {
    /// Cache hierarchy the plan optimizes for.
    pub hierarchy: HierarchyConfig,
    /// Target number of degree groups `G` (the paper uses 64-128).
    pub target_groups: usize,
    /// Shuffle-bin capacity `P` of one shuffle level (2048 on the
    /// paper's platform: the number of concurrent sequential write
    /// streams an L2-resident counting shuffle can sustain).
    pub max_partitions: u32,
    /// Smallest candidate VP size in vertices.
    pub min_vp_vertices: usize,
}

impl Default for PlannerParams {
    fn default() -> Self {
        Self {
            hierarchy: HierarchyConfig::skylake_server(),
            target_groups: 96,
            max_partitions: 2048,
            min_vp_vertices: 64,
        }
    }
}

/// Partitioning strategies (Figure 9b compares these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStrategy {
    /// The paper's MCKP/DP optimization.
    DynamicProgramming,
    /// Cut into `max_partitions` equal VPs, all pre-sampling.
    UniformPs,
    /// Cut into `max_partitions` equal VPs, all direct sampling.
    UniformDs,
    /// The authors' pre-MCKP heuristic: L2-sized VPs; PS for high-degree
    /// or low-density partitions, DS otherwise.
    ManualHeuristic,
}

/// One degree group's final decision.
#[derive(Debug, Clone)]
pub struct GroupPlan {
    /// First vertex of the group.
    pub start: VertexId,
    /// Last vertex (exclusive).
    pub end: VertexId,
    /// Chosen VP size in vertices.
    pub vp_size: usize,
    /// Whether this group shuffles through an internal extra level.
    pub internal_shuffle: bool,
}

/// The complete partitioning decision for one graph + machine + walker
/// count.
#[derive(Debug, Clone)]
pub struct Plan {
    /// All vertex partitions, in vertex order.
    pub partitions: Vec<Partition>,
    /// Vertex → partition lookup.
    pub map: PartitionMap,
    /// Per-group decisions (empty for the uniform strategies).
    pub groups: Vec<GroupPlan>,
    /// Walker density (walkers per edge) the plan was made for.
    pub density: f64,
    /// Predicted per-walker-step sampling cost in nanoseconds.
    pub predicted_sample_ns: f64,
    /// Number of first-level shuffle bins (≤ `max_partitions` + dead bin).
    pub outer_bins: usize,
}

impl Plan {
    /// Number of shuffle levels (1, or 2 if any group shuffles
    /// internally).
    pub fn shuffle_levels(&self) -> usize {
        if self.groups.iter().any(|g| g.internal_shuffle) {
            2
        } else {
            1
        }
    }

    /// Per-partition latency-hiding ring depths (see
    /// [`crate::sample::ring`]): the model's
    /// [`ring_depth`](AnalyticCostModel::ring_depth) knob applied to
    /// each partition's sample working set, so only LLC-exceeding
    /// partitions run the ring.  A depth of 1 says the working set
    /// *fits*, not that it is *resident* when the task starts; the
    /// engine streams fitting partitions in one task ahead instead
    /// (`sample::hint_partition`), gated on the shuffle's occupancy.
    ///
    /// The working sets are the partition's own
    /// ([`Partition::ds_working_set_bytes`],
    /// [`Partition::ps_working_set_bytes`]), which mirror the cost
    /// model's `sample_cost_ns`: DS touches the partition's edges plus
    /// (where the row rule does not compute the rows) its offset pairs;
    /// PS consumption touches one active buffer line and a cursor per
    /// vertex (a generation held reserved, `sample::PsBuffers`, reads
    /// its row instead: the sparse case, which neither formula sizes).
    pub fn ring_depths(&self, model: &AnalyticCostModel) -> Vec<usize> {
        let line = model.config().line_bytes;
        self.partitions
            .iter()
            .map(|p| {
                model.ring_depth(match p.policy {
                    SamplePolicy::Direct => p.ds_working_set_bytes(),
                    SamplePolicy::PreSample => p.ps_working_set_bytes(line),
                })
            })
            .collect()
    }

    /// Fraction of all edges owned by PS partitions.
    pub fn ps_edge_share(&self) -> f64 {
        let total: usize = self.partitions.iter().map(|p| p.edges).sum();
        if total == 0 {
            return 0.0;
        }
        let ps: usize = self
            .partitions
            .iter()
            .filter(|p| p.policy == SamplePolicy::PreSample)
            .map(|p| p.edges)
            .sum();
        ps as f64 / total as f64
    }

    /// Checks the structural invariants; used by tests and debug builds.
    pub fn validate(&self, vertex_count: usize, max_partitions: u32) -> Result<(), String> {
        if self.partitions.is_empty() {
            return Err("no partitions".into());
        }
        if self.partitions[0].start != 0 {
            return Err("first partition must start at vertex 0".into());
        }
        for w in self.partitions.windows(2) {
            if w[0].end != w[1].start {
                return Err(format!("gap between partitions at {}", w[0].end));
            }
        }
        if self.partitions.last().expect("non-empty").end as usize != vertex_count {
            return Err("partitions do not cover the graph".into());
        }
        // First-level bin budget: internally-shuffled groups count once.
        let mut outer = 0usize;
        for g in &self.groups {
            if g.internal_shuffle {
                outer += 1;
            } else {
                outer += self
                    .partitions
                    .iter()
                    .filter(|p| p.start >= g.start && p.start < g.end)
                    .count();
            }
        }
        if self.groups.is_empty() {
            outer = self.partitions.len();
        }
        if outer as u32 > max_partitions {
            return Err(format!("{outer} outer bins exceed budget {max_partitions}"));
        }
        Ok(())
    }
}

/// Plans vertex partitioning for a degree-sorted graph.
#[derive(Debug)]
pub struct Planner;

impl Planner {
    /// Produces a plan for `graph` (which must already be degree-sorted
    /// descending) walked by `walkers` walkers, priced by `model`
    /// ([`Planner::analytic_model`] of the same `params`).
    pub fn plan(
        graph: &Csr,
        walkers: usize,
        params: &PlannerParams,
        strategy: PlanStrategy,
        model: &AnalyticCostModel,
    ) -> Result<Plan, WalkError> {
        let n = graph.vertex_count();
        if n == 0 {
            return Err(WalkError::EmptyGraph);
        }
        debug_assert!(
            (0..n.saturating_sub(1))
                .all(|v| graph.degree(v as VertexId) >= graph.degree(v as VertexId + 1)),
            "planner requires a degree-sorted graph"
        );
        let density = walkers.max(1) as f64 / graph.edge_count().max(1) as f64;
        match strategy {
            PlanStrategy::DynamicProgramming => Self::plan_dp(graph, density, params, model),
            PlanStrategy::UniformPs => {
                Self::plan_uniform(graph, density, params, model, Some(SamplePolicy::PreSample))
            }
            PlanStrategy::UniformDs => {
                Self::plan_uniform(graph, density, params, model, Some(SamplePolicy::Direct))
            }
            PlanStrategy::ManualHeuristic => Self::plan_manual(graph, density, params, model),
        }
    }

    /// The cost model for `params`' hierarchy.
    pub fn analytic_model(params: &PlannerParams) -> AnalyticCostModel {
        AnalyticCostModel::new(params.hierarchy.clone())
    }

    fn plan_dp(
        graph: &Csr,
        density: f64,
        params: &PlannerParams,
        model: &AnalyticCostModel,
    ) -> Result<Plan, WalkError> {
        let n = graph.vertex_count();
        // Equal power-of-two group size; the last group may be ragged.
        // Every group consumes at least one shuffle bin (its internal-
        // shuffle item has weight 1), so the group count must not exceed
        // the bin budget or the MCKP becomes infeasible.
        let mut group_size = (n / params.target_groups.max(1)).next_power_of_two().max(1);
        while n.div_ceil(group_size) > params.max_partitions as usize {
            group_size *= 2;
        }
        let group_count = n.div_ceil(group_size);

        // Per-group aggregates.
        struct GroupInfo {
            start: usize,
            end: usize,
            edges: usize,
            uniform: bool,
        }
        let mut infos = Vec::with_capacity(group_count);
        for g in 0..group_count {
            let start = g * group_size;
            let end = ((g + 1) * group_size).min(n);
            let (edges, uniform) = Partition::annotate(graph, start as VertexId, end as VertexId);
            infos.push(GroupInfo {
                start,
                end,
                edges,
                uniform: uniform.is_some(),
            });
        }

        // Candidate items: (vp_size, internal_shuffle) per group.
        struct Candidate {
            vp_size: usize,
            internal: bool,
        }
        let shuffle_ns = model.shuffle_cost_ns();
        let mut classes: Vec<Vec<Item>> = Vec::with_capacity(group_count);
        let mut candidates: Vec<Vec<Candidate>> = Vec::with_capacity(group_count);
        for info in &infos {
            let len = info.end - info.start;
            let avg_degree = info.edges as f64 / len as f64;
            let walkers_here = density * info.edges as f64;
            let mut items = Vec::new();
            let mut cands = Vec::new();
            let mut vp = params.min_vp_vertices.next_power_of_two();
            loop {
                let vp_size = vp.min(len);
                let k = len.div_ceil(vp_size);
                let per_step = model
                    .sample_cost_ns(vp_size, avg_degree, density, SamplePolicy::PreSample, false)
                    .min(model.sample_cost_ns(
                        vp_size,
                        avg_degree,
                        density,
                        SamplePolicy::Direct,
                        info.uniform,
                    ));
                let cost = walkers_here * per_step;
                // Item A: VPs join the first-level shuffle directly.
                items.push(Item {
                    profit: -cost,
                    weight: k as u32,
                });
                cands.push(Candidate {
                    vp_size,
                    internal: false,
                });
                // Item B: group shuffles internally (one outer bin), at
                // the price of one extra shuffle pass for its walkers.
                if k > 1 {
                    items.push(Item {
                        profit: -(cost + walkers_here * shuffle_ns),
                        weight: 1,
                    });
                    cands.push(Candidate {
                        vp_size,
                        internal: true,
                    });
                }
                if vp >= len {
                    break;
                }
                vp *= 2;
            }
            classes.push(items);
            candidates.push(cands);
        }

        let solution = solve(&classes, params.max_partitions)
            .map_err(|e| WalkError::Planning(e.to_string()))?;

        // Materialize partitions with per-VP policy decisions based on
        // each VP's actual degree statistics.
        let mut partitions = Vec::new();
        let mut groups = Vec::with_capacity(group_count);
        let mut predicted = 0.0f64;
        for (g, info) in infos.iter().enumerate() {
            let choice = &candidates[g][solution.choices[g]];
            groups.push(GroupPlan {
                start: info.start as VertexId,
                end: info.end as VertexId,
                vp_size: choice.vp_size,
                internal_shuffle: choice.internal,
            });
            let mut start = info.start;
            while start < info.end {
                let end = (start + choice.vp_size).min(info.end);
                let (edges, uniform) =
                    Partition::annotate(graph, start as VertexId, end as VertexId);
                let vp_vertices = end - start;
                let avg_degree = edges as f64 / vp_vertices as f64;
                let ps = model.sample_cost_ns(
                    vp_vertices,
                    avg_degree,
                    density,
                    SamplePolicy::PreSample,
                    false,
                );
                let ds = model.sample_cost_ns(
                    vp_vertices,
                    avg_degree,
                    density,
                    SamplePolicy::Direct,
                    uniform.is_some(),
                );
                let policy = if ps < ds {
                    SamplePolicy::PreSample
                } else {
                    SamplePolicy::Direct
                };
                predicted += density * edges as f64 * ps.min(ds);
                partitions.push(Partition {
                    start: start as VertexId,
                    end: end as VertexId,
                    policy,
                    group: g,
                    edges,
                    uniform_degree: uniform,
                });
                start = end;
            }
        }
        let total_walkers = density * graph.edge_count() as f64;
        let predicted_sample_ns = predicted / total_walkers.max(1.0);
        let outer_bins = groups
            .iter()
            .map(|g| {
                if g.internal_shuffle {
                    1
                } else {
                    (g.end - g.start) as usize / g.vp_size.max(1)
                        + usize::from(
                            !((g.end - g.start) as usize).is_multiple_of(g.vp_size.max(1)),
                        )
                }
            })
            .sum();
        // DP plans are power-of-two structured, enabling the O(1)
        // shift-based partition lookup in the shuffle's hot scans.
        let vp_sizes: Vec<usize> = groups.iter().map(|g| g.vp_size).collect();
        let map = PartitionMap::with_pow2_structure(&partitions, n, group_size, &vp_sizes);
        Ok(Plan {
            partitions,
            map,
            groups,
            density,
            predicted_sample_ns,
            outer_bins,
        })
    }

    fn plan_uniform(
        graph: &Csr,
        density: f64,
        params: &PlannerParams,
        model: &AnalyticCostModel,
        forced: Option<SamplePolicy>,
    ) -> Result<Plan, WalkError> {
        let n = graph.vertex_count();
        let count = (params.max_partitions as usize).min(n).max(1);
        let vp_size = n.div_ceil(count);
        let mut partitions = Vec::with_capacity(count);
        let mut predicted = 0.0;
        let mut start = 0usize;
        while start < n {
            let end = (start + vp_size).min(n);
            let (edges, uniform) = Partition::annotate(graph, start as VertexId, end as VertexId);
            let avg_degree = edges as f64 / (end - start) as f64;
            let policy = forced.expect("uniform plans force a policy");
            let per_step = model.sample_cost_ns(
                end - start,
                avg_degree,
                density,
                policy,
                uniform.is_some() && policy == SamplePolicy::Direct,
            );
            predicted += density * edges as f64 * per_step;
            partitions.push(Partition {
                start: start as VertexId,
                end: end as VertexId,
                policy,
                group: 0,
                edges,
                uniform_degree: uniform,
            });
            start = end;
        }
        let total_walkers = density * graph.edge_count() as f64;
        let outer_bins = partitions.len();
        let map = PartitionMap::new(&partitions, n);
        Ok(Plan {
            partitions,
            map,
            groups: Vec::new(),
            density,
            predicted_sample_ns: predicted / total_walkers.max(1.0),
            outer_bins,
        })
    }

    fn plan_manual(
        graph: &Csr,
        density: f64,
        params: &PlannerParams,
        model: &AnalyticCostModel,
    ) -> Result<Plan, WalkError> {
        // The authors' pre-MCKP heuristic: L2-sized VPs throughout; PS
        // for high-degree or low-density partitions, DS for the rest.
        let n = graph.vertex_count();
        let l2 = params.hierarchy.l2.size_bytes;
        let mut partitions = Vec::new();
        let mut predicted = 0.0;
        let mut start = 0usize;
        while start < n {
            // Grow the VP until its DS working set would exceed L2.
            let mut end = start + 1;
            let mut edges = graph.degree(start as VertexId);
            while end < n
                && (edges + graph.degree(end as VertexId)) * 4 + (end - start + 2) * 8 <= l2
            {
                edges += graph.degree(end as VertexId);
                end += 1;
                if (end - start) >= n.div_ceil(params.max_partitions as usize).max(1)
                    && partitions.len() + 2 >= params.max_partitions as usize
                {
                    // Budget nearly exhausted: absorb the rest.
                    while end < n {
                        edges += graph.degree(end as VertexId);
                        end += 1;
                    }
                }
            }
            let (edges, uniform) = Partition::annotate(graph, start as VertexId, end as VertexId);
            let avg_degree = edges as f64 / (end - start) as f64;
            let policy = if avg_degree >= 32.0 || density < 0.5 {
                SamplePolicy::PreSample
            } else {
                SamplePolicy::Direct
            };
            let per_step = model.sample_cost_ns(
                end - start,
                avg_degree,
                density,
                policy,
                uniform.is_some() && policy == SamplePolicy::Direct,
            );
            predicted += density * edges as f64 * per_step;
            partitions.push(Partition {
                start: start as VertexId,
                end: end as VertexId,
                policy,
                group: 0,
                edges,
                uniform_degree: uniform,
            });
            start = end;
        }
        let total_walkers = density * graph.edge_count() as f64;
        let outer_bins = partitions.len();
        let map = PartitionMap::new(&partitions, n);
        Ok(Plan {
            partitions,
            map,
            groups: Vec::new(),
            density,
            predicted_sample_ns: predicted / total_walkers.max(1.0),
            outer_bins,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::relabel::sort_by_degree;
    use fm_graph::synth;

    fn sorted_power_law(n: usize, alpha: f64, max_d: usize) -> Csr {
        let g = synth::power_law(n, alpha, 1, max_d, 42);
        sort_by_degree(&g).0
    }

    fn params() -> PlannerParams {
        PlannerParams {
            target_groups: 16,
            max_partitions: 256,
            min_vp_vertices: 16,
            ..PlannerParams::default()
        }
    }

    fn model(p: &PlannerParams) -> AnalyticCostModel {
        Planner::analytic_model(p)
    }

    #[test]
    fn ring_depths_follow_working_set_fit() {
        let g = sorted_power_law(20_000, 2.0, 500);
        let p = params();
        let m = model(&p);
        let plan = Planner::plan(&g, 20_000, &p, PlanStrategy::DynamicProgramming, &m).unwrap();
        let depths = plan.ring_depths(&m);
        assert_eq!(depths.len(), plan.partitions.len());
        for (part, &d) in plan.partitions.iter().zip(&depths) {
            let s = part.vertex_count();
            let ws = match part.policy {
                SamplePolicy::Direct => {
                    let offsets = if part.uniform_degree.is_some() { 0 } else { (s + 1) * 8 };
                    part.edges * 4 + offsets
                }
                SamplePolicy::PreSample => s * (m.config().line_bytes + 4),
            };
            assert_eq!(d, m.ring_depth(ws), "partition {part:?}");
            assert!(d == 1 || d == crate::sample::ring::DEFAULT_RING_DEPTH);
        }
    }

    #[test]
    fn dp_plan_is_valid() {
        let g = sorted_power_law(20_000, 2.0, 500);
        let p = params();
        let m = model(&p);
        let plan = Planner::plan(&g, 20_000, &p, PlanStrategy::DynamicProgramming, &m).unwrap();
        plan.validate(g.vertex_count(), p.max_partitions).unwrap();
        assert!(plan.predicted_sample_ns > 0.0);
    }

    #[test]
    fn dp_vp_sizes_are_powers_of_two_within_groups() {
        let g = sorted_power_law(8192, 2.0, 300);
        let p = params();
        let m = model(&p);
        let plan = Planner::plan(&g, 8192, &p, PlanStrategy::DynamicProgramming, &m).unwrap();
        for gp in &plan.groups {
            assert!(gp.vp_size.is_power_of_two(), "vp_size {}", gp.vp_size);
        }
    }

    #[test]
    fn dp_respects_bin_budget() {
        let g = sorted_power_law(50_000, 1.8, 2000);
        let mut p = params();
        p.max_partitions = 64; // tight budget forces larger VPs or internal shuffle
        let m = model(&p);
        let plan = Planner::plan(&g, 50_000, &p, PlanStrategy::DynamicProgramming, &m).unwrap();
        plan.validate(g.vertex_count(), p.max_partitions).unwrap();
        assert!(plan.outer_bins <= 64);
    }

    #[test]
    fn dp_assigns_ps_to_high_degree_ds_to_low_degree() {
        // Strongly skewed graph: hubs should pre-sample, the degree-1
        // tail should sample directly (Figure 10's qualitative shape).
        let g = sorted_power_law(30_000, 1.9, 3000);
        let p = params();
        let m = model(&p);
        let plan = Planner::plan(&g, 30_000, &p, PlanStrategy::DynamicProgramming, &m).unwrap();
        let first = &plan.partitions[0];
        let last = plan.partitions.last().unwrap();
        assert_eq!(last.policy, SamplePolicy::Direct, "tail should use DS");
        // The hub partition is PS whenever its degree is meaningful.
        if first.avg_degree() >= 64.0 {
            assert_eq!(first.policy, SamplePolicy::PreSample, "hubs should use PS");
        }
    }

    #[test]
    fn dp_beats_uniform_strategies_in_predicted_cost() {
        let g = sorted_power_law(30_000, 1.9, 3000);
        let p = params();
        let m = model(&p);
        let dp = Planner::plan(&g, 30_000, &p, PlanStrategy::DynamicProgramming, &m).unwrap();
        let ups = Planner::plan(&g, 30_000, &p, PlanStrategy::UniformPs, &m).unwrap();
        let uds = Planner::plan(&g, 30_000, &p, PlanStrategy::UniformDs, &m).unwrap();
        assert!(
            dp.predicted_sample_ns <= ups.predicted_sample_ns + 1e-9,
            "DP {} vs uniform PS {}",
            dp.predicted_sample_ns,
            ups.predicted_sample_ns
        );
        assert!(
            dp.predicted_sample_ns <= uds.predicted_sample_ns + 1e-9,
            "DP {} vs uniform DS {}",
            dp.predicted_sample_ns,
            uds.predicted_sample_ns
        );
    }

    #[test]
    fn uniform_plans_have_requested_bin_count() {
        let g = sorted_power_law(10_000, 2.0, 100);
        let p = params();
        let m = model(&p);
        let plan = Planner::plan(&g, 10_000, &p, PlanStrategy::UniformPs, &m).unwrap();
        assert!(plan.partitions.len() <= p.max_partitions as usize);
        assert!(plan
            .partitions
            .iter()
            .all(|x| x.policy == SamplePolicy::PreSample));
        plan.validate(g.vertex_count(), p.max_partitions).unwrap();
    }

    #[test]
    fn manual_plan_is_valid_and_mixed() {
        let g = sorted_power_law(20_000, 1.9, 1000);
        let p = params();
        let m = model(&p);
        let plan = Planner::plan(&g, 2_000, &p, PlanStrategy::ManualHeuristic, &m).unwrap();
        plan.validate(g.vertex_count(), p.max_partitions).unwrap();
    }

    #[test]
    fn tiny_graph_yields_single_partitionish_plan() {
        let g = sorted_power_law(50, 2.0, 10);
        let p = params();
        let m = model(&p);
        let plan = Planner::plan(&g, 50, &p, PlanStrategy::DynamicProgramming, &m).unwrap();
        plan.validate(g.vertex_count(), p.max_partitions).unwrap();
    }

    #[test]
    fn empty_graph_rejected() {
        let g = Csr::from_edges(0, &[]).unwrap();
        let p = params();
        let m = model(&p);
        assert!(matches!(
            Planner::plan(&g, 10, &p, PlanStrategy::DynamicProgramming, &m),
            Err(WalkError::EmptyGraph)
        ));
    }

    #[test]
    fn density_reflects_walker_count() {
        let g = sorted_power_law(5_000, 2.0, 100);
        let p = params();
        let m = model(&p);
        let plan = Planner::plan(
            &g,
            g.edge_count() * 2,
            &p,
            PlanStrategy::DynamicProgramming,
            &m,
        )
        .unwrap();
        assert!((plan.density - 2.0).abs() < 1e-9);
    }
}
