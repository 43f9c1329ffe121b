//! Degenerate and boundary inputs that real datasets produce.

use flashmob_repro::baseline::{Baseline, BaselineConfig, BaselineKind};
use flashmob_repro::conformance::digest_paths;
use flashmob_repro::flashmob::{
    FlashMob, PlanStrategy, PlannerParams, RunOptions, RunStats, StopRule, WalkConfig, WalkError,
    WalkOutput, WalkerInit,
};
use flashmob_repro::graph::{synth, Csr, VertexId};
use flashmob_repro::telemetry::Telemetry;

/// FlashMob's walk under default options, untraced.
fn run_default(engine: &FlashMob) -> Result<(WalkOutput, RunStats), WalkError> {
    engine.run_with(&RunOptions::default(), &mut Telemetry::off())
}

/// A baseline's walk under default options, untraced.
fn run_baseline(engine: &Baseline) -> Result<(WalkOutput, RunStats), WalkError> {
    engine.run_with(&RunOptions::default(), &mut Telemetry::off())
}

fn knightking(walk: WalkConfig) -> BaselineConfig {
    BaselineConfig {
        kind: BaselineKind::KnightKing,
        walk,
    }
}

fn tiny_planner() -> PlannerParams {
    PlannerParams {
        target_groups: 4,
        max_partitions: 16,
        min_vp_vertices: 2,
        ..PlannerParams::default()
    }
}

#[test]
fn self_loop_only_vertex_walks_in_place() {
    let g = Csr::from_edges(1, &[(0, 0)]).unwrap();
    let engine = FlashMob::new(
        &g,
        WalkConfig::deepwalk()
            .walkers(5)
            .steps(3)
            .planner(tiny_planner()),
    )
    .unwrap();
    let out = run_default(&engine).unwrap().0;
    for path in out.paths() {
        assert_eq!(path, vec![0, 0, 0, 0]);
    }
}

#[test]
fn two_vertex_pendulum() {
    let g = Csr::from_edges(2, &[(0, 1), (1, 0)]).unwrap();
    let engine = FlashMob::new(
        &g,
        WalkConfig::deepwalk()
            .walkers(4)
            .steps(5)
            .init(WalkerInit::Fixed(vec![0]))
            .planner(tiny_planner()),
    )
    .unwrap();
    for path in run_default(&engine).unwrap().0.paths() {
        assert_eq!(path, vec![0, 1, 0, 1, 0, 1]);
    }
}

#[test]
fn zero_steps_returns_initial_placement() {
    let g = synth::cycle(8);
    let engine = FlashMob::new(
        &g,
        WalkConfig::deepwalk()
            .walkers(6)
            .steps(0)
            .init(WalkerInit::EveryVertex)
            .planner(tiny_planner()),
    )
    .unwrap();
    let (out, stats) = run_default(&engine).unwrap();
    assert_eq!(stats.steps_taken, 0);
    assert_eq!(
        out.paths(),
        vec![vec![0], vec![1], vec![2], vec![3], vec![4], vec![5]]
    );
}

#[test]
fn parallel_edges_bias_transitions_by_multiplicity() {
    // 0 has three parallel edges to 1 and one to 2.
    let g = Csr::from_edges(3, &[(0, 1), (0, 1), (0, 1), (0, 2), (1, 0), (2, 0)]).unwrap();
    let engine = FlashMob::new(
        &g,
        WalkConfig::deepwalk()
            .walkers(40_000)
            .steps(1)
            .seed(3)
            .init(WalkerInit::Fixed(vec![0]))
            .planner(tiny_planner()),
    )
    .unwrap();
    let out = run_default(&engine).unwrap().0;
    let to1 = out.paths().iter().filter(|p| p[1] == 1).count() as f64 / 40_000.0;
    assert!((to1 - 0.75).abs() < 0.01, "multiplicity bias {to1}");
}

#[test]
fn density_far_above_one_is_fine() {
    // 200x more walkers than edges: PS buffers cycle many times per
    // iteration.
    let g = synth::star(9);
    let engine = FlashMob::new(
        &g,
        WalkConfig::deepwalk()
            .walkers(3200)
            .steps(8)
            .planner(tiny_planner())
            .strategy(PlanStrategy::UniformPs),
    )
    .unwrap();
    let (out, stats) = run_default(&engine).unwrap();
    assert_eq!(stats.steps_taken, 3200 * 8);
    for path in out.paths().iter().take(50) {
        for hop in path.windows(2) {
            assert!(g.neighbors(hop[0]).contains(&hop[1]));
        }
    }
}

#[test]
fn complete_graph_mixes_instantly() {
    let g = synth::complete(32);
    let engine = FlashMob::new(
        &g,
        WalkConfig::deepwalk()
            .walkers(32_000)
            .steps(2)
            .seed(5)
            .planner(tiny_planner()),
    )
    .unwrap();
    let out = run_default(&engine).unwrap().0;
    let mut counts = vec![0u64; 32];
    for path in out.paths() {
        counts[*path.last().unwrap() as usize] += 1;
    }
    let expected = vec![1000.0f64; 32];
    let r = flashmob_repro::rng::gof::chi_square_test(&counts, &expected);
    assert!(r.fits(0.001), "complete-graph occupancy p = {}", r.p_value);
}

#[test]
fn single_walker_runs_everywhere() {
    let g = synth::power_law(500, 2.0, 1, 50, 7);
    for strategy in [PlanStrategy::DynamicProgramming, PlanStrategy::UniformDs] {
        let engine = FlashMob::new(
            &g,
            WalkConfig::deepwalk()
                .walkers(1)
                .steps(50)
                .planner(tiny_planner())
                .strategy(strategy),
        )
        .unwrap();
        let out = run_default(&engine).unwrap().0;
        assert_eq!(out.paths()[0].len(), 51);
    }
}

#[test]
fn baseline_and_flashmob_agree_on_degenerate_graphs() {
    for g in [
        Csr::from_edges(1, &[(0, 0)]).unwrap(),
        Csr::from_edges(2, &[(0, 1), (1, 0)]).unwrap(),
        synth::cycle(3),
    ] {
        let fm = FlashMob::new(
            &g,
            WalkConfig::deepwalk()
                .walkers(10)
                .steps(4)
                .init(WalkerInit::EveryVertex)
                .planner(tiny_planner()),
        )
        .unwrap();
        let bl = Baseline::new(
            &g,
            knightking(
                WalkConfig::deepwalk()
                    .walkers(10)
                    .steps(4)
                    .init(WalkerInit::EveryVertex),
            ),
        )
        .unwrap();
        // Same path lengths and same per-step edge validity.
        let fp = run_default(&fm).unwrap().0.paths();
        let bp = run_baseline(&bl).unwrap().0.paths();
        assert_eq!(fp.len(), bp.len());
        for (a, b) in fp.iter().zip(&bp) {
            assert_eq!(a.len(), b.len());
            assert_eq!(a[0], b[0], "same initial placement");
        }
    }
}

#[test]
fn max_degree_hub_with_degree_one_tail() {
    // The star is the extreme skew case: one vertex owns half the
    // edges; the DP planner must handle a group containing a single
    // vertex whose degree exceeds every cache budget.
    let g = synth::star(50_000);
    let engine = FlashMob::new(
        &g,
        WalkConfig::deepwalk()
            .walkers(10_000)
            .steps(4)
            .planner(PlannerParams {
                hierarchy: flashmob_repro::memsim::HierarchyConfig::scaled(64),
                target_groups: 16,
                max_partitions: 128,
                min_vp_vertices: 16,
            }),
    )
    .unwrap();
    engine
        .plan()
        .validate(50_000, 128)
        .expect("plan must stay valid");
    let (_, stats) = run_default(&engine).unwrap();
    assert_eq!(stats.steps_taken, 40_000);
}

#[test]
fn node2vec_on_self_loops_hits_the_return_branch() {
    // A self-loop makes the "candidate == predecessor" (distance-0,
    // weight 1/p) branch reachable from the looped vertex itself; the
    // exact oracle pins the resulting chain and the engines must match
    // it.  Graph: 0 has a self-loop and an edge to 1; 1 connects back.
    use flashmob_repro::conformance::{init_distribution, Node2VecOracle};
    use flashmob_repro::rng::gof::chi_square_test;

    let g = Csr::from_edges(2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
    let (p, q) = (0.3, 3.0);
    let (walkers, steps) = (20_000usize, 6usize);
    let oracle = Node2VecOracle::new(&g, p, q);
    let init = WalkerInit::Fixed(vec![0]);
    let pi0 = init_distribution(&g, &init, walkers);
    let expected: Vec<f64> = oracle
        .occupancy(&pi0, steps)
        .iter()
        .map(|x| x * walkers as f64)
        .collect();

    let fm = FlashMob::new(
        &g,
        WalkConfig::node2vec(p, q)
            .walkers(walkers)
            .steps(steps)
            .seed(11)
            .init(init.clone())
            .planner(tiny_planner()),
    )
    .unwrap();
    let bl = Baseline::new(
        &g,
        knightking(
            WalkConfig::node2vec(p, q)
                .walkers(walkers)
                .steps(steps)
                .seed(11)
                .init(init),
        ),
    )
    .unwrap();
    for paths in [
        run_default(&fm).unwrap().0.paths(),
        run_baseline(&bl).unwrap().0.paths(),
    ] {
        let mut counts = vec![0u64; 2];
        for path in &paths {
            for hop in path.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
            counts[*path.last().unwrap() as usize] += 1;
        }
        let r = chi_square_test(&counts, &expected);
        assert!(r.fits(1e-4), "self-loop node2vec p = {}", r.p_value);
    }
}

#[test]
fn node2vec_on_star_exercises_both_connectivity_extremes() {
    // On a star the connectivity check is degenerate in both
    // directions: stepping hub -> leaf, the return edge (leaf == prev)
    // always exists, and any other leaf is never adjacent to the
    // previous leaf (distance 2, weight 1/q); stepping leaf -> hub the
    // only candidate is the hub's predecessor.  From state
    // (prev = leaf_a, cur = hub): P(leaf_a) ∝ 1/p, P(other leaf) ∝ 1/q.
    use flashmob_repro::conformance::Node2VecOracle;
    use flashmob_repro::rng::gof::chi_square_test;

    let leaves = 9usize;
    let g = synth::star(leaves + 1); // hub 0, leaves 1..=9
    let (p, q) = (0.2, 5.0);
    let oracle = Node2VecOracle::new(&g, p, q);
    let s = oracle.edge_index().index_of(1, 0).unwrap();
    let back = oracle.edge_index().index_of(0, 1).unwrap();
    // 1/p = 5 vs (leaves-1)/q = 1.6 of total 6.6.
    let want_return = (1.0 / p) / (1.0 / p + (leaves - 1) as f64 / q);
    assert!((oracle.matrix().prob(s, back) - want_return).abs() < 1e-12);

    // Walkers start on leaf 1; step 1 goes to the hub; step 2 decides.
    let (walkers, steps) = (30_000usize, 2usize);
    let engine = FlashMob::new(
        &g,
        WalkConfig::node2vec(p, q)
            .walkers(walkers)
            .steps(steps)
            .seed(7)
            .init(WalkerInit::Fixed(vec![1]))
            .planner(tiny_planner()),
    )
    .unwrap();
    let mut returned = 0u64;
    let mut elsewhere = 0u64;
    for path in run_default(&engine).unwrap().0.paths() {
        assert_eq!(path[1], 0, "step 1 must reach the hub");
        if path[2] == 1 {
            returned += 1;
        } else {
            elsewhere += 1;
        }
    }
    let r = chi_square_test(
        &[returned, elsewhere],
        &[
            want_return * walkers as f64,
            (1.0 - want_return) * walkers as f64,
        ],
    );
    assert!(r.fits(1e-4), "star return share p = {}", r.p_value);
}

#[test]
fn zero_walkers_and_zero_steps_return_cleanly_on_every_engine() {
    use flashmob_repro::flashmob::numa::{run_numa_with, NumaMode};
    use flashmob_repro::flashmob::oocore::{run_ooc_with, DiskGraph};

    let g = synth::power_law(64, 2.0, 2, 12, 21);
    let fm_cfg = WalkConfig::deepwalk().planner(tiny_planner());
    let opts = RunOptions::default();
    let numa =
        |config: WalkConfig, mode| run_numa_with(&g, config, mode, 2, &opts, &mut Telemetry::off());
    let ooc = |disk: &DiskGraph, config: &WalkConfig| {
        run_ooc_with(disk, config, 1 << 16, &opts, &mut Telemetry::off())
    };

    // walkers = 0: a defined error, never a panic, on every entry point.
    for strategy in [
        PlanStrategy::DynamicProgramming,
        PlanStrategy::UniformPs,
        PlanStrategy::UniformDs,
    ] {
        let err = FlashMob::new(&g, fm_cfg.clone().walkers(0).strategy(strategy)).err();
        assert!(matches!(err, Some(WalkError::NoWalkers)), "{strategy:?}");
    }
    for kind in [BaselineKind::KnightKing, BaselineKind::GraphVite] {
        let walk = WalkConfig::deepwalk().walkers(0);
        let err = Baseline::new(&g, BaselineConfig { kind, walk }).err();
        assert!(matches!(err, Some(WalkError::NoWalkers)));
    }
    for mode in [NumaMode::Partitioned, NumaMode::Replicated] {
        let err = numa(fm_cfg.clone().walkers(0), mode).err();
        assert!(matches!(err, Some(WalkError::NoWalkers)), "{mode:?}");
    }
    let disk_path = std::env::temp_dir().join("fm_edge_zero_walkers.fmdisk");
    let disk = DiskGraph::create(&g, &disk_path).unwrap();
    let err = ooc(&disk, &fm_cfg.clone().walkers(0)).err();
    assert!(matches!(err, Some(WalkError::NoWalkers)));

    // steps = 0: every engine returns the initial placement unscathed.
    let zero_steps = fm_cfg.clone().walkers(12).steps(0);
    for strategy in [
        PlanStrategy::DynamicProgramming,
        PlanStrategy::UniformPs,
        PlanStrategy::UniformDs,
    ] {
        let engine = FlashMob::new(&g, zero_steps.clone().strategy(strategy)).unwrap();
        let out = run_default(&engine).unwrap().0;
        assert!(out.paths().iter().all(|p| p.len() == 1), "{strategy:?}");
    }
    for kind in [BaselineKind::KnightKing, BaselineKind::GraphVite] {
        let walk = WalkConfig::deepwalk().walkers(12).steps(0);
        let engine = Baseline::new(&g, BaselineConfig { kind, walk }).unwrap();
        let out = run_baseline(&engine).unwrap().0;
        assert!(out.paths().iter().all(|p| p.len() == 1));
    }
    for mode in [NumaMode::Partitioned, NumaMode::Replicated] {
        let (outputs, _) = numa(zero_steps.clone(), mode).unwrap();
        let total: usize = outputs.iter().map(|o| o.paths().len()).sum();
        assert_eq!(total, 12, "{mode:?}");
        for o in &outputs {
            assert!(o.paths().iter().all(|p| p.len() == 1));
        }
    }
    let (out, stats) = ooc(&disk, &zero_steps).unwrap();
    assert_eq!(stats.steps_taken, 0);
    assert!(out.paths().iter().all(|p| p.len() == 1));
    std::fs::remove_file(disk_path).ok();
}

#[test]
fn walker_ids_preserved_across_episodes_and_outputs() {
    let g = synth::cycle(16);
    let engine = FlashMob::new(
        &g,
        WalkConfig::deepwalk()
            .walkers(8)
            .steps(2)
            .init(WalkerInit::Fixed((0..8).collect::<Vec<VertexId>>()))
            .planner(tiny_planner()),
    )
    .unwrap();
    let out = run_default(&engine).unwrap().0;
    for (j, path) in out.paths().iter().enumerate() {
        assert_eq!(path[0] as usize, j, "walker {j} starts where assigned");
    }
}

// ---- Walk-program edge cases --------------------------------------------

/// A labeled cycle with every edge labeled `label`.
fn labeled_cycle(n: usize, label: u8) -> Csr {
    let g = synth::cycle(n);
    let m = g.edge_count();
    g.with_edge_labels(vec![label; m]).expect("labels")
}

#[test]
fn zero_step_program_walks_return_initial_placement() {
    use flashmob_repro::flashmob::{MetapathPattern, WalkAlgorithm};
    let g = labeled_cycle(8, 0);
    for algo in [
        WalkAlgorithm::Ppr { alpha: 0.5 },
        WalkAlgorithm::EarlyExit,
        WalkAlgorithm::Metapath {
            pattern: MetapathPattern::new(&[0]).expect("pattern"),
        },
    ] {
        let mut cfg = WalkConfig::deepwalk()
            .walkers(6)
            .steps(0)
            .planner(tiny_planner());
        cfg.algorithm = algo;
        let out = run_default(&FlashMob::new(&g, cfg).unwrap()).unwrap().0;
        assert_eq!(out.paths().len(), 6, "{algo:?}");
        assert!(
            out.paths().iter().all(|p| p.len() == 1),
            "{algo:?}: zero steps must return only the placement"
        );
    }
}

#[test]
fn ppr_alpha_one_pins_walkers_at_origin() {
    // alpha = 1 teleports on every iteration: the walk never leaves its
    // origin, on every plan policy.
    use flashmob_repro::flashmob::WalkAlgorithm;
    let g = synth::power_law(128, 2.0, 2, 16, 3);
    for strategy in [PlanStrategy::UniformPs, PlanStrategy::UniformDs] {
        let mut cfg = WalkConfig::deepwalk()
            .walkers(256)
            .steps(5)
            .seed(7)
            .strategy(strategy)
            .planner(tiny_planner());
        cfg.algorithm = WalkAlgorithm::Ppr { alpha: 1.0 };
        let out = run_default(&FlashMob::new(&g, cfg).unwrap()).unwrap().0;
        for path in out.paths() {
            assert_eq!(path.len(), 6, "{strategy:?}");
            assert!(
                path.iter().all(|&v| v == path[0]),
                "{strategy:?}: alpha=1 walk left its origin: {path:?}"
            );
        }
    }
}

#[test]
fn metapath_missing_phase_label_kills_all_walkers() {
    use flashmob_repro::flashmob::{MetapathPattern, WalkAlgorithm};
    // Every edge is labeled 0.  Pattern [0, 1]: the first hop succeeds,
    // the second phase finds no admissible edge anywhere, so every path
    // is exactly start + one hop.
    let g = labeled_cycle(8, 0);
    let mut cfg = WalkConfig::deepwalk()
        .walkers(12)
        .steps(5)
        .planner(tiny_planner());
    cfg.algorithm = WalkAlgorithm::Metapath {
        pattern: MetapathPattern::new(&[0, 1]).expect("pattern"),
    };
    let out = run_default(&FlashMob::new(&g, cfg).unwrap()).unwrap().0;
    assert!(
        out.paths().iter().all(|p| p.len() == 2),
        "phase-1 starvation must stop every walker after one hop"
    );
    // Pattern [1]: the very first phase is missing; no walker moves.
    let mut cfg = WalkConfig::deepwalk()
        .walkers(12)
        .steps(5)
        .planner(tiny_planner());
    cfg.algorithm = WalkAlgorithm::Metapath {
        pattern: MetapathPattern::new(&[1]).expect("pattern"),
    };
    let out = run_default(&FlashMob::new(&g, cfg).unwrap()).unwrap().0;
    assert!(
        out.paths().iter().all(|p| p.len() == 1),
        "phase-0 starvation must stop every walker at its start"
    );
}

#[test]
fn metapath_without_labels_is_rejected() {
    use flashmob_repro::flashmob::{MetapathPattern, WalkAlgorithm, WalkError};
    let g = synth::cycle(8);
    let mut cfg = WalkConfig::deepwalk()
        .walkers(4)
        .steps(2)
        .planner(tiny_planner());
    cfg.algorithm = WalkAlgorithm::Metapath {
        pattern: MetapathPattern::new(&[0]).expect("pattern"),
    };
    match FlashMob::new(&g, cfg) {
        Err(WalkError::MissingLabels) => {}
        other => panic!("unlabeled metapath must fail with MissingLabels, got {other:?}"),
    }
}

#[test]
fn program_state_survives_checkpoint_halt_resume() {
    // Per-walker program state (the origin lane) must ride the snapshot
    // wire format: halting mid-run and resuming reproduces the
    // uninterrupted walk bit for bit, for both stateful programs.
    use flashmob_repro::flashmob::{CheckpointSpec, WalkAlgorithm};
    let g = synth::power_law(256, 2.0, 2, 24, 7);
    for algo in [WalkAlgorithm::Ppr { alpha: 0.3 }, WalkAlgorithm::EarlyExit] {
        let make = || {
            let mut cfg = WalkConfig::deepwalk()
                .walkers(512)
                .steps(6)
                .seed(9)
                .planner(tiny_planner());
            cfg.algorithm = algo;
            FlashMob::new(&g, cfg).unwrap()
        };
        let full = run_default(&make()).unwrap().0;

        let dir = std::env::temp_dir().join(format!(
            "fm_edge_prog_ckpt_{}",
            match algo {
                WalkAlgorithm::Ppr { .. } => "ppr",
                _ => "early_exit",
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
        let halt = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 2).halt_after(1));
        match make().run_with(&halt, &mut Telemetry::off()) {
            Err(WalkError::Halted { .. }) => {}
            other => panic!("halt_after must stop the run, got {other:?}"),
        }
        let resume = RunOptions::default().resume_from(&dir);
        let (resumed, _) = make().run_with(&resume, &mut Telemetry::off()).unwrap();
        assert_eq!(
            full.paths(),
            resumed.paths(),
            "{algo:?}: resumed walk must be bit-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The baselines where the conformance lattice does not reach them: a
/// geometric stop with full paths, final positions only
/// (`record_paths(false)`), and visit counts, at one thread and three.
/// Each case's path digest, step count and visit vector are pinned, so
/// a config field the engine reads from the wrong place fails here.
#[test]
fn baseline_walks_match_their_pinned_digests_and_visits() {
    use BaselineKind::{GraphVite, KnightKing};
    #[rustfmt::skip]
    let pins: [(BaselineKind, usize, bool, u64, u64, [u64; 16]); 8] = [
        (KnightKing, 1, true, 0xbdea0b812762708a, 142, [1, 10, 5, 9, 5, 8, 12, 1, 4, 6, 16, 5, 9, 21, 26, 4]),
        (KnightKing, 1, false, 0x6cb811995c41c06b, 240, [3, 18, 7, 18, 18, 17, 25, 3, 6, 13, 24, 6, 18, 34, 26, 4]),
        (KnightKing, 3, true, 0x3dbdd0d0085408cf, 139, [3, 8, 5, 7, 9, 12, 16, 3, 4, 6, 14, 3, 12, 17, 16, 4]),
        (KnightKing, 3, false, 0xc5d295cb5b8714e3, 240, [3, 18, 7, 18, 18, 9, 25, 3, 6, 14, 28, 6, 18, 25, 34, 8]),
        (GraphVite, 1, true, 0x8405bb525280eb69, 122, [3, 12, 4, 9, 7, 5, 18, 3, 3, 6, 11, 3, 11, 14, 10, 3]),
        (GraphVite, 1, false, 0x7679e29c1786f56f, 240, [3, 18, 8, 18, 18, 15, 22, 3, 6, 11, 26, 6, 18, 32, 30, 6]),
        (GraphVite, 3, true, 0x3a3160eec2a4cf24, 105, [2, 6, 5, 4, 8, 4, 16, 2, 3, 9, 7, 4, 9, 13, 10, 3]),
        (GraphVite, 3, false, 0xc6db62f3ef0e6442, 240, [3, 18, 7, 18, 18, 18, 20, 3, 6, 11, 17, 6, 18, 36, 30, 11]),
    ];
    let g = synth::power_law(16, 2.0, 1, 6, 5);
    for (kind, threads, geometric, digest, steps, visits) in pins {
        let mut walk = WalkConfig::deepwalk()
            .walkers(40)
            .steps(6)
            .seed(23)
            .threads(threads)
            .record_paths(geometric)
            .record_visits(true);
        if geometric {
            walk.stop = StopRule::Geometric {
                exit_prob: 0.25,
                max_steps: 6,
            };
        }
        let engine = Baseline::new(&g, BaselineConfig { kind, walk }).unwrap();
        let (out, stats) = run_baseline(&engine).unwrap();
        let case = format!("{kind:?} at {threads} threads, geometric stop {geometric}");
        assert_eq!(digest_paths(&out.paths(), &[]), digest, "{case}");
        assert_eq!(stats.steps_taken, steps, "{case}");
        assert_eq!(stats.visits_sorted.as_deref(), Some(&visits[..]), "{case}");
        let original = stats.visits_original(out.relabeling());
        assert_eq!(original.as_deref(), Some(&visits[..]), "{case}");
    }
}
