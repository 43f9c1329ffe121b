//! The real-kernel timer behind Figure 6.
//!
//! The paper profiles the sample kernel offline, per machine, to price
//! its planner's items (Section 4.4).  Here the planner prices them with
//! `flashmob::cost::AnalyticCostModel` alone; the measurement survives
//! as Figure 6's reproducer and as the cross-check that the model orders
//! the policies as the kernel does (`tests/planner_pipeline.rs`).

use std::time::Instant;

use flashmob::algorithm::{StopRule, WalkAlgorithm};
use flashmob::partition::{Partition, SamplePolicy};
use flashmob::sample::{sample_partition, AddrMap, AlgoCtx, PsBuffers, TaskIo};
use fm_graph::{Csr, VertexId};
use fm_memsim::NullProbe;
use fm_rng::{Rng64, Xorshift64Star};

/// Builds a synthetic uniform-degree VP: `s` vertices of degree `d`
/// whose targets point randomly within the VP (the cost is meant to
/// depend on size, degree and density only, not on the graph).
fn synthetic_vp(s: usize, d: usize, seed: u64) -> Csr {
    let mut rng = Xorshift64Star::new(seed);
    let targets: Vec<VertexId> = (0..s * d).map(|_| rng.gen_index(s) as VertexId).collect();
    let offsets = (0..=s).map(|v| v * d).collect();
    Csr::from_parts(offsets, targets, None).expect("synthetic VP is valid")
}

/// Times the real DeepWalk sample kernel on a synthetic VP of
/// `vp_size` vertices of degree `degree` under `policy` (DS on the
/// offset-free slab when `uniform_layout`), and returns nanoseconds per
/// walker-step.
///
/// `density * edges` walkers (at least one) are placed uniformly on the
/// VP; after one warm-up round (which fills the caches and PS buffers)
/// the kernel runs until `min_steps` walker-steps have been timed.
pub fn measure_point(
    vp_size: usize,
    degree: usize,
    density: f64,
    policy: SamplePolicy,
    uniform_layout: bool,
    min_steps: usize,
) -> f64 {
    let graph = synthetic_vp(vp_size, degree, 0xC0FFEE ^ vp_size as u64 ^ degree as u64);
    let (edges, uniform) = Partition::annotate(&graph, 0, vp_size as VertexId);
    let part = Partition {
        start: 0,
        end: vp_size as VertexId,
        policy,
        group: 0,
        edges,
        uniform_degree: uniform,
    };
    let slab = (policy == SamplePolicy::Direct && uniform_layout)
        .then(|| part.slab(&graph))
        .flatten();
    let mut ps = (policy == SamplePolicy::PreSample).then(|| PsBuffers::new(&graph, &part));

    let walkers = ((density * edges as f64) as usize).max(1);
    let mut rng = Xorshift64Star::new(7);
    let scur: Vec<VertexId> = (0..walkers)
        .map(|_| rng.gen_index(vp_size) as VertexId)
        .collect();
    let mut snext = vec![0 as VertexId; walkers];
    let ctx = AlgoCtx::new(WalkAlgorithm::DeepWalk, StopRule::FixedSteps(1), None);
    let addr = AddrMap::default();
    let mut task_rng = Xorshift64Star::new(99);
    let mut round = || {
        let io = TaskIo {
            scur: &scur,
            sprev: None,
            snext: &mut snext,
            slice_base: 0,
            visits: None,
        };
        let steps = sample_partition(
            &graph,
            &part,
            slab.as_ref(),
            ps.as_mut(),
            &ctx,
            io,
            &mut task_rng,
            &mut NullProbe,
            &addr,
            1,
        )
        .steps;
        std::hint::black_box(&snext);
        steps
    };

    round();
    let rounds = min_steps.div_ceil(walkers).max(1);
    let start = Instant::now();
    let steps: u64 = (0..rounds).map(|_| round()).sum();
    start.elapsed().as_nanos() as f64 / steps.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_point_returns_sane_values() {
        let ns = measure_point(512, 8, 1.0, SamplePolicy::Direct, false, 10_000);
        assert!(ns > 0.0 && ns < 100_000.0);
    }

    #[test]
    fn ps_point_runs_and_refills() {
        let ns = measure_point(256, 16, 0.5, SamplePolicy::PreSample, false, 10_000);
        assert!(ns > 0.0);
    }

    #[test]
    fn slab_layout_not_slower_than_csr_for_tiny_degrees() {
        // At degree 2 the offsets array is half the working set; the
        // slab should never lose badly.  The bound is deliberately loose:
        // the suite runs on shared, possibly single-core CI machines
        // where wall-clock micro-measurements jitter by 2x.
        let best = |uniform: bool| {
            (0..3)
                .map(|_| measure_point(4096, 2, 2.0, SamplePolicy::Direct, uniform, 50_000))
                .fold(f64::INFINITY, f64::min)
        };
        let csr = best(false);
        let slab = best(true);
        assert!(slab < csr * 2.0, "slab {slab} vs csr {csr}");
    }
}
