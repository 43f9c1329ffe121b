//! Cross-engine statistical equivalence against the exact chain oracle.
//!
//! FlashMob reorganizes *when and where* sampling happens but must not
//! change *what* is sampled: every engine implements the same Markov
//! chain.  Each test here compares empirical final-step statistics
//! against the **analytic** distribution computed by the conformance
//! oracle (`fm-conformance`): the k-step occupancy of the exact
//! transition matrix, not another engine's empirical output and not a
//! hand-tuned L1 budget.  See DESIGN.md, "Correctness methodology".
//!
//! # Significance and flake policy
//!
//! * Every run is fixed-seed, so every statistic in this file is
//!   **deterministic**: a test that passes once passes always, and a
//!   failure is a genuine regression, never sampling noise.
//! * The chi-square thresholds document how surprising a regression
//!   must be to fail.  The family-wise budget is `ALPHA = 1e-3`,
//!   Bonferroni-corrected across the `CHI_SQUARE_CHECKS` chi-square
//!   assertions in this file, so even if every seed were redrawn the
//!   probability of any false rejection stays below 0.1%.  The
//!   committed seeds all pass with p-values far from the corrected
//!   threshold (run with `--nocapture` after changes to inspect).

use flashmob_repro::baseline::{Baseline, BaselineConfig, BaselineKind};
use flashmob_repro::conformance::{init_distribution, FirstOrderOracle, Node2VecOracle};
use flashmob_repro::flashmob::{
    FlashMob, PlanStrategy, RunOptions, StopRule, WalkAlgorithm, WalkConfig, WalkerInit,
};
use flashmob_repro::graph::{synth, Csr};
use flashmob_repro::rng::gof::chi_square_test;
use flashmob_repro::telemetry::Telemetry;

/// Family-wise false-rejection budget for this file.
const ALPHA: f64 = 1e-3;
/// Number of chi-square assertions across all tests below (Bonferroni).
const CHI_SQUARE_CHECKS: usize = 12;
/// Per-assertion significance level.
const PER_TEST_ALPHA: f64 = ALPHA / CHI_SQUARE_CHECKS as f64;

/// Runs FlashMob with paths recorded and returns final-step occupancy
/// counts (original vertex IDs).
fn flashmob_final_occupancy(g: &Csr, cfg: WalkConfig) -> Vec<u64> {
    let engine = FlashMob::new(g, cfg.record_paths(true)).expect("engine");
    let out = engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("run")
        .0;
    let mut counts = vec![0u64; g.vertex_count()];
    for path in out.paths() {
        counts[*path.last().expect("non-empty") as usize] += 1;
    }
    counts
}

/// Same for KnightKing, the walker-at-a-time baseline.
fn baseline_final_occupancy(g: &Csr, walk: WalkConfig) -> Vec<u64> {
    let walk = walk.record_paths(true);
    let kind = BaselineKind::KnightKing;
    let engine = Baseline::new(g, BaselineConfig { kind, walk }).expect("engine");
    let out = engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("run")
        .0;
    let mut counts = vec![0u64; g.vertex_count()];
    for path in out.paths() {
        counts[*path.last().expect("non-empty") as usize] += 1;
    }
    counts
}

/// Expected final-step counts under the exact first-order oracle.
fn deepwalk_expected(g: &Csr, init: &WalkerInit, walkers: usize, steps: usize) -> Vec<f64> {
    let pi0 = init_distribution(g, init, walkers);
    FirstOrderOracle::deepwalk(g)
        .occupancy(&pi0, steps)
        .iter()
        .map(|p| p * walkers as f64)
        .collect()
}

#[test]
fn deepwalk_occupancy_matches_oracle_on_skewed_graph() {
    // 2 chi-square assertions: FlashMob and KnightKing, both against
    // the analytic 10-step occupancy (not against each other, so a
    // shared bias cannot cancel out).
    let g = synth::power_law(300, 1.9, 2, 60, 3);
    let (walkers, steps) = (40_000, 10);
    let init = WalkerInit::UniformEdge;
    let expected = deepwalk_expected(&g, &init, walkers, steps);

    let fm = flashmob_final_occupancy(
        &g,
        WalkConfig::deepwalk()
            .walkers(walkers)
            .steps(steps)
            .seed(42)
            .init(init.clone()),
    );
    let r = chi_square_test(&fm, &expected);
    assert!(
        r.fits(PER_TEST_ALPHA),
        "FlashMob occupancy rejected vs oracle (chi2 = {:.1}, p = {:.3e})",
        r.statistic,
        r.p_value
    );

    let bl = baseline_final_occupancy(
        &g,
        WalkConfig::deepwalk()
            .walkers(walkers)
            .steps(steps)
            .seed(42)
            .init(init),
    );
    let r = chi_square_test(&bl, &expected);
    assert!(
        r.fits(PER_TEST_ALPHA),
        "KnightKing occupancy rejected vs oracle (chi2 = {:.1}, p = {:.3e})",
        r.statistic,
        r.p_value
    );
}

#[test]
fn all_plan_strategies_sample_the_same_chain() {
    // 4 chi-square assertions: every planner policy against the oracle.
    // The policies produce different partition layouts and therefore
    // different RNG stream assignments, so their outputs differ
    // bit-for-bit — but all must sample the identical chain.
    let g = synth::power_law(400, 1.9, 2, 80, 5);
    let (walkers, steps) = (30_000, 12);
    let init = WalkerInit::UniformEdge;
    let expected = deepwalk_expected(&g, &init, walkers, steps);
    for strategy in [
        PlanStrategy::DynamicProgramming,
        PlanStrategy::UniformPs,
        PlanStrategy::UniformDs,
        PlanStrategy::ManualHeuristic,
    ] {
        let counts = flashmob_final_occupancy(
            &g,
            WalkConfig::deepwalk()
                .walkers(walkers)
                .steps(steps)
                .seed(9)
                .init(init.clone())
                .strategy(strategy),
        );
        let r = chi_square_test(&counts, &expected);
        assert!(
            r.fits(PER_TEST_ALPHA),
            "{strategy:?} rejected vs oracle (chi2 = {:.1}, p = {:.3e})",
            r.statistic,
            r.p_value
        );
    }
}

#[test]
fn node2vec_occupancy_matches_second_order_oracle() {
    // 2 chi-square assertions.  The oracle lifts the chain to
    // distinct-edge states (prev, cur) with exact connectivity, so this
    // checks the full second-order bias — p, q, and the has_edge term —
    // not just first-order reachability.
    let g = synth::power_law(300, 2.0, 3, 40, 11);
    let (p, q) = (0.25, 4.0);
    let (walkers, steps) = (30_000, 8);
    let init = WalkerInit::UniformEdge;
    let pi0 = init_distribution(&g, &init, walkers);
    let expected: Vec<f64> = Node2VecOracle::new(&g, p, q)
        .occupancy(&pi0, steps)
        .iter()
        .map(|pr| pr * walkers as f64)
        .collect();

    let fm = flashmob_final_occupancy(
        &g,
        WalkConfig::node2vec(p, q)
            .walkers(walkers)
            .steps(steps)
            .seed(2)
            .init(init.clone()),
    );
    let r = chi_square_test(&fm, &expected);
    assert!(
        r.fits(PER_TEST_ALPHA),
        "FlashMob node2vec rejected vs oracle (chi2 = {:.1}, p = {:.3e})",
        r.statistic,
        r.p_value
    );

    let bl = baseline_final_occupancy(
        &g,
        WalkConfig::node2vec(p, q)
            .walkers(walkers)
            .steps(steps)
            .seed(2)
            .init(init),
    );
    let r = chi_square_test(&bl, &expected);
    assert!(
        r.fits(PER_TEST_ALPHA),
        "KnightKing node2vec rejected vs oracle (chi2 = {:.1}, p = {:.3e})",
        r.statistic,
        r.p_value
    );
}

#[test]
fn geometric_stop_survival_matches_between_engines() {
    // Mean-walk-length check (not a chi-square; fixed seeds keep it
    // deterministic).  Expected length 1/0.25 = 4, far from the
    // max_steps = 40 truncation.
    let g = synth::cycle(64);
    let run_fm = || {
        let mut cfg = WalkConfig::deepwalk().walkers(20_000).seed(5);
        cfg.stop = StopRule::Geometric {
            exit_prob: 0.25,
            max_steps: 40,
        };
        let engine = FlashMob::new(&g, cfg).expect("engine");
        let (_, stats) = engine
            .run_with(&RunOptions::default(), &mut Telemetry::off())
            .expect("run");
        stats.steps_taken as f64 / 20_000.0
    };
    let run_bl = || {
        let mut cfg = BaselineConfig::knightking_deepwalk()
            .walkers(20_000)
            .seed(5);
        cfg.walk.stop = StopRule::Geometric {
            exit_prob: 0.25,
            max_steps: 40,
        };
        let engine = Baseline::new(&g, cfg).expect("engine");
        let (_, stats) = engine
            .run_with(&RunOptions::default(), &mut Telemetry::off())
            .expect("run");
        stats.steps_taken as f64 / 20_000.0
    };
    let (fm_len, bl_len) = (run_fm(), run_bl());
    assert!((fm_len - 4.0).abs() < 0.2, "FlashMob mean length {fm_len}");
    assert!((bl_len - 4.0).abs() < 0.2, "baseline mean length {bl_len}");
}

#[test]
fn hub_transitions_pass_chi_square_for_every_policy() {
    // 2 chi-square assertions.  A hub with 64 neighbors; walkers pinned
    // on the hub must leave uniformly under both PS and DS.
    let g = synth::star(65);
    for strategy in [PlanStrategy::UniformPs, PlanStrategy::UniformDs] {
        let engine = FlashMob::new(
            &g,
            WalkConfig::deepwalk()
                .walkers(64_000)
                .steps(1)
                .seed(17)
                .init(WalkerInit::Fixed(vec![0]))
                .strategy(strategy),
        )
        .expect("engine");
        let out = engine
            .run_with(&RunOptions::default(), &mut Telemetry::off())
            .expect("run")
            .0;
        let mut counts = vec![0u64; 64];
        for path in out.paths() {
            counts[path[1] as usize - 1] += 1;
        }
        let expected = vec![1000.0f64; 64];
        let r = chi_square_test(&counts, &expected);
        assert!(
            r.fits(PER_TEST_ALPHA),
            "{strategy:?}: hub transitions not uniform (chi2 = {:.1}, p = {:.3e})",
            r.statistic,
            r.p_value
        );
    }
}

#[test]
fn stationary_distribution_passes_chi_square() {
    // 1 chi-square assertion.  Starting from the edge-uniform
    // distribution, the uniform walk is *exactly* stationary at every
    // step (pi = d(v)/2|E| is an eigenvector), so no mixing-time
    // approximation is involved.
    let g = synth::power_law(400, 2.0, 2, 50, 13);
    let (walkers, steps) = (100_000, 25);
    let init = WalkerInit::UniformEdge;
    let expected = deepwalk_expected(&g, &init, walkers, steps);
    let counts = flashmob_final_occupancy(
        &g,
        WalkConfig::deepwalk()
            .walkers(walkers)
            .steps(steps)
            .seed(4)
            .init(init),
    );
    let r = chi_square_test(&counts, &expected);
    assert!(
        r.fits(PER_TEST_ALPHA),
        "stationary distribution rejected (chi2 = {:.1} at {} dof, p = {:.3e})",
        r.statistic,
        r.dof,
        r.p_value
    );
}

#[test]
fn weighted_walk_distribution_matches_weights_end_to_end() {
    // 1 chi-square assertion.  Hub with two outgoing weights 1:4; the
    // oracle's one-step occupancy from the hub is exactly [0.2, 0.8].
    let g = Csr::from_parts(
        vec![0, 2, 3, 4],
        vec![1, 2, 0, 0],
        Some(vec![1.0, 4.0, 1.0, 1.0]),
    )
    .expect("weighted graph");
    let walkers = 40_000;
    let init = WalkerInit::Fixed(vec![0]);
    let pi0 = init_distribution(&g, &init, walkers);
    let occ = FirstOrderOracle::weighted(&g).occupancy(&pi0, 1);
    assert!((occ[1] - 0.2).abs() < 1e-12 && (occ[2] - 0.8).abs() < 1e-12);

    let mut cfg = WalkConfig::deepwalk()
        .walkers(walkers)
        .steps(1)
        .seed(3)
        .init(init);
    cfg.algorithm = WalkAlgorithm::Weighted;
    let counts = flashmob_final_occupancy(&g, cfg);
    let observed = [counts[1], counts[2]];
    let expected = [occ[1] * walkers as f64, occ[2] * walkers as f64];
    let r = chi_square_test(&observed, &expected);
    assert!(
        r.fits(PER_TEST_ALPHA),
        "weighted split rejected (p = {:.3e}, counts {observed:?})",
        r.p_value
    );
}
