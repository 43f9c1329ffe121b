//! End-to-end planner pipeline: graph analogs → (analytic | measured)
//! cost model → MCKP plan → validated execution.

use flashmob_repro::flashmob::cost::CostModel;
use flashmob_repro::flashmob::{
    FlashMob, PlanStrategy, Planner, PlannerParams, RunOptions, WalkConfig,
};
use flashmob_repro::graph::presets::{AnalogScale, PaperGraph};
use flashmob_repro::graph::relabel::sort_by_degree;
use flashmob_repro::profiler::{run_profile, ProfileGrid, ProfileTable};
use flashmob_repro::telemetry::Telemetry;

fn params() -> PlannerParams {
    PlannerParams {
        target_groups: 32,
        max_partitions: 512,
        // Small enough that the DP's power-of-two candidate set reaches
        // the same granularity the uniform strategies get at test scale.
        min_vp_vertices: 8,
        ..PlannerParams::default()
    }
}

#[test]
fn dp_plans_are_valid_on_every_analog() {
    for which in PaperGraph::ALL {
        let g = which.analog(AnalogScale::Test);
        let (sorted, _) = sort_by_degree(&g);
        let p = params();
        let model = Planner::analytic_model(&p);
        let plan = Planner::plan(
            &sorted,
            sorted.vertex_count(),
            &p,
            PlanStrategy::DynamicProgramming,
            &model,
        )
        .expect("plan");
        plan.validate(sorted.vertex_count(), p.max_partitions)
            .unwrap_or_else(|e| panic!("{}: {e}", which.tag()));
        assert!(plan.predicted_sample_ns > 0.0);
    }
}

#[test]
fn dp_predicted_cost_never_worse_than_alternatives() {
    for which in PaperGraph::ALL {
        let g = which.analog(AnalogScale::Test);
        let (sorted, _) = sort_by_degree(&g);
        let p = params();
        let model = Planner::analytic_model(&p);
        let walkers = sorted.vertex_count();
        let dp = Planner::plan(
            &sorted,
            walkers,
            &p,
            PlanStrategy::DynamicProgramming,
            &model,
        )
        .expect("dp");
        for alt in [
            PlanStrategy::UniformPs,
            PlanStrategy::UniformDs,
            PlanStrategy::ManualHeuristic,
        ] {
            let other = Planner::plan(&sorted, walkers, &p, alt, &model).expect("alt");
            assert!(
                dp.predicted_sample_ns <= other.predicted_sample_ns * 1.001,
                "{}: DP {} vs {alt:?} {}",
                which.tag(),
                dp.predicted_sample_ns,
                other.predicted_sample_ns
            );
        }
    }
}

#[test]
fn skewed_analogs_get_mixed_policies() {
    // On a strongly skewed graph the DP plan should pre-sample the head
    // and direct-sample the tail (the Figure 10 shape).
    let g = PaperGraph::Twitter.analog(AnalogScale::Test);
    let engine = FlashMob::new(
        &g,
        WalkConfig::deepwalk()
            .walkers(g.vertex_count())
            .steps(1)
            .planner(params()),
    )
    .expect("engine");
    let plan = engine.plan();
    let ps = plan.ps_edge_share();
    assert!(ps > 0.0, "some edges should be pre-sampled");
    use flashmob_repro::flashmob::partition::SamplePolicy;
    assert_eq!(
        plan.partitions.last().expect("non-empty").policy,
        SamplePolicy::Direct,
        "the degree-1 tail must be DS"
    );
}

#[test]
fn measured_profile_agrees_with_analytic_on_policy_ordering() {
    // Both models must agree on the qualitative calls the paper makes:
    // PS beats DS for high-degree VPs, DS wins for degree-2 VPs.
    let grid = ProfileGrid {
        vp_sizes: vec![512, 4096],
        degrees: vec![2, 256],
        densities: vec![1.0],
        min_steps: 40_000,
    };
    let table = ProfileTable::from_points(&run_profile(&grid), 2.0).expect("table");
    let p = params();
    let analytic = Planner::analytic_model(&p);
    use flashmob_repro::flashmob::partition::SamplePolicy;
    for model in [&table as &dyn CostModel, &analytic as &dyn CostModel] {
        let ps_hub = model.sample_cost_ns(512, 256.0, 1.0, SamplePolicy::PreSample, false);
        let ds_hub = model.sample_cost_ns(512, 256.0, 1.0, SamplePolicy::Direct, false);
        // Measured numbers from unoptimized builds are instruction-bound
        // rather than memory-bound and penalize PS's extra bookkeeping,
        // so the hub comparison is only meaningful in release builds.
        if !cfg!(debug_assertions) {
            assert!(
                ps_hub < ds_hub * 1.5,
                "PS must be competitive on hubs: {ps_hub} vs {ds_hub}"
            );
        }
        let ps_tail = model.sample_cost_ns(4096, 2.0, 1.0, SamplePolicy::PreSample, false);
        let ds_tail = model.sample_cost_ns(4096, 2.0, 1.0, SamplePolicy::Direct, true);
        assert!(
            ds_tail < ps_tail,
            "DS must win on the tail: {ds_tail} vs {ps_tail}"
        );
    }
}

#[test]
fn measured_profile_plans_and_runs() {
    let grid = ProfileGrid::tiny();
    let table = ProfileTable::from_points(&run_profile(&grid), 2.0).expect("table");
    let g = PaperGraph::Youtube.analog(AnalogScale::Test);
    let cfg = WalkConfig::deepwalk()
        .walkers(g.vertex_count())
        .steps(4)
        .planner(params());
    let engine = FlashMob::with_cost_model(&g, cfg, &table).expect("engine");
    let plan = engine.plan();
    plan.validate(
        engine.sorted_graph().vertex_count(),
        params().max_partitions,
    )
    .expect("valid plan");
    let (out, stats) = engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("run");
    assert_eq!(out.paths().len(), g.vertex_count());
    assert_eq!(stats.steps_taken, g.vertex_count() as u64 * 4);
}

#[test]
fn two_level_shuffle_plans_run_end_to_end() {
    // A graph far larger than the (scaled) caches under a tight bin
    // budget: the DP must shuffle some groups internally (2 levels), and
    // the resulting run must still be a correct walk — the very walk a
    // single-level shuffle would produce, at any thread count (the
    // lattice never plans two levels, so the digest is pinned here).
    const PATHS_DIGEST: u64 = 0xb97d_6974_3a63_b3d5;
    let g = flashmob_repro::graph::synth::power_law(30_000, 1.9, 2, 1500, 5);
    for threads in [1usize, 3] {
        let cfg = WalkConfig::deepwalk()
            .walkers(20_000)
            .steps(4)
            .seed(8)
            .threads(threads)
            .planner(PlannerParams {
                hierarchy: flashmob_repro::memsim::HierarchyConfig::scaled(64),
                target_groups: 24,
                max_partitions: 32,
                min_vp_vertices: 16,
            });
        let engine = FlashMob::new(&g, cfg).expect("engine");
        let plan = engine.plan();
        assert_eq!(
            plan.shuffle_levels(),
            2,
            "budget must force internal shuffle"
        );
        assert!(plan.outer_bins <= 32);
        assert!(
            plan.partitions.len() > 32,
            "fine partitions exceed the budget"
        );
        plan.validate(engine.sorted_graph().vertex_count(), 32)
            .expect("valid");

        let (out, stats) = engine
            .run_with(&RunOptions::default(), &mut Telemetry::off())
            .expect("run");
        assert_eq!(stats.steps_taken, 20_000 * 4);
        let paths = out.paths();
        for path in paths.iter().take(500) {
            for hop in path.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
        assert_eq!(
            flashmob_repro::conformance::digest_paths(&paths, &[]),
            PATHS_DIGEST,
            "{threads} threads"
        );
    }
}

#[test]
fn tight_bin_budget_triggers_multi_level_shuffle_or_bigger_vps() {
    // Force an extreme budget; the plan must still validate, either by
    // choosing huge VPs or by shuffling some groups internally.
    let g = PaperGraph::YahooWeb.analog(AnalogScale::Test);
    let (sorted, _) = sort_by_degree(&g);
    let p = PlannerParams {
        max_partitions: 16,
        target_groups: 32,
        min_vp_vertices: 16,
        ..PlannerParams::default()
    };
    let model = Planner::analytic_model(&p);
    let plan = Planner::plan(
        &sorted,
        sorted.vertex_count(),
        &p,
        PlanStrategy::DynamicProgramming,
        &model,
    )
    .expect("plan");
    plan.validate(sorted.vertex_count(), p.max_partitions)
        .expect("valid");
    assert!(plan.outer_bins <= 16);
}
