//! Randomized property tests over the core invariants.
//!
//! These were originally written with `proptest`; the workspace must
//! build without registry access, so the same invariants are now driven
//! by the in-tree `fm_rng` generator over a fixed number of seeded
//! cases.  Failures print the case seed so a shrunk repro can be added
//! as a dedicated unit test.

use flashmob_repro::flashmob::partition::{Partition, PartitionMap, SamplePolicy};
use flashmob_repro::flashmob::shuffle::{ShuffleAddrs, ShuffleScratch, Shuffler};
use flashmob_repro::flashmob::{FlashMob, RunOptions, WalkConfig};
use flashmob_repro::graph::relabel::sort_by_degree;
use flashmob_repro::graph::{io, synth, Csr, GraphBuilder, VertexId};
use flashmob_repro::mckp::{solve, solve_brute_force, Item};
use flashmob_repro::memsim::NullProbe;
use flashmob_repro::rng::{AliasTable, Rng64, Xorshift64Star};
use flashmob_repro::telemetry::Telemetry;

/// Uniform integer in [lo, hi) from the test-case RNG.
fn gen_range(rng: &mut Xorshift64Star, lo: u64, hi: u64) -> u64 {
    assert!(lo < hi);
    lo + rng.next_u64() % (hi - lo)
}

fn gen_vec(rng: &mut Xorshift64Star, len_range: (u64, u64), val_range: (u64, u64)) -> Vec<u32> {
    let len = gen_range(rng, len_range.0, len_range.1) as usize;
    (0..len)
        .map(|_| gen_range(rng, val_range.0, val_range.1) as u32)
        .collect()
}

/// Random cut points over [0, n) -> contiguous partitions.
fn partitions_from_cuts(mut cuts: Vec<u32>, n: u32) -> Vec<Partition> {
    cuts.retain(|&c| c > 0 && c < n);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.push(n);
    let mut parts = Vec::new();
    let mut start = 0u32;
    for end in cuts {
        parts.push(Partition {
            start,
            end,
            policy: SamplePolicy::Direct,
            group: 0,
            edges: 0,
            uniform_degree: None,
        });
        start = end;
    }
    parts
}

#[test]
fn shuffle_is_a_stable_permutation() {
    for case in 0..64u64 {
        let mut rng = Xorshift64Star::new(0x5151_0000 + case);
        let walkers = gen_vec(&mut rng, (1, 300), (0, 64));
        let cuts = gen_vec(&mut rng, (0, 6), (1, 64));
        let parts = partitions_from_cuts(cuts, 64);
        let map = PartitionMap::new(&parts, 64);
        let shuffler = Shuffler::single_level(&map);
        let mut scratch = ShuffleScratch::default();
        let mut sw = vec![0; walkers.len()];
        let mut p = NullProbe;
        shuffler.count(&walkers, &mut scratch, ShuffleAddrs::default(), &mut p);
        shuffler.scatter(
            &walkers,
            None,
            &mut sw,
            None,
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );

        // Permutation: same multiset.
        let mut a = walkers.clone();
        let mut b = sw.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "case {case}");

        // Grouped: partition indices are non-decreasing across sw.
        let bins: Vec<usize> = sw.iter().map(|&v| map.partition_of(v)).collect();
        assert!(bins.windows(2).all(|w| w[0] <= w[1]), "case {case}");

        // Stable: within every bin, original scan order is preserved.
        let mut expected: Vec<Vec<u32>> = vec![Vec::new(); map.bins()];
        for &v in &walkers {
            expected[map.partition_of(v)].push(v);
        }
        let flat: Vec<u32> = expected.into_iter().flatten().collect();
        assert_eq!(flat, sw, "case {case}");
    }
}

#[test]
fn gather_inverts_scatter_for_any_input() {
    for case in 0..64u64 {
        let mut rng = Xorshift64Star::new(0x6a77_0000 + case);
        let walkers = gen_vec(&mut rng, (1, 300), (0, 128));
        let cuts = gen_vec(&mut rng, (0, 8), (1, 128));
        let parts = partitions_from_cuts(cuts, 128);
        let map = PartitionMap::new(&parts, 128);
        let shuffler = Shuffler::single_level(&map);
        let mut scratch = ShuffleScratch::default();
        let mut sw = vec![0; walkers.len()];
        let mut back = vec![0; walkers.len()];
        let mut p = NullProbe;
        shuffler.count(&walkers, &mut scratch, ShuffleAddrs::default(), &mut p);
        shuffler.scatter(
            &walkers,
            None,
            &mut sw,
            None,
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );
        shuffler.gather(
            &walkers,
            &sw,
            &mut back,
            None,
            None,
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );
        assert_eq!(back, walkers, "case {case}");
    }
}

#[test]
fn mckp_dp_matches_brute_force() {
    for case in 0..64u64 {
        let mut rng = Xorshift64Star::new(0x3c4b_0000 + case);
        let nclasses = gen_range(&mut rng, 1, 4) as usize;
        let mut classes = Vec::new();
        for _ in 0..nclasses {
            let nitems = gen_range(&mut rng, 1, 4) as usize;
            let items: Vec<Item> = (0..nitems)
                .map(|_| Item {
                    profit: gen_range(&mut rng, 0, 40) as f64 - 20.0,
                    weight: gen_range(&mut rng, 0, 6) as u32,
                })
                .collect();
            classes.push(items);
        }
        let capacity = gen_range(&mut rng, 0, 12) as u32;
        let fast = solve(&classes, capacity);
        let slow = solve_brute_force(&classes, capacity);
        match (fast, slow) {
            (Ok(f), Ok(s)) => {
                assert!((f.profit - s.profit).abs() < 1e-9, "case {case}");
                assert!(f.weight <= capacity, "case {case}");
            }
            (Err(_), Err(_)) => {}
            (f, s) => panic!("case {case} disagreement: {f:?} vs {s:?}"),
        }
    }
}

#[test]
fn alias_table_marginals_match_weights() {
    for case in 0..8u64 {
        let mut rng = Xorshift64Star::new(0xa11a_0000 + case);
        let raw = gen_vec(&mut rng, (2, 12), (0, 50));
        let weights: Vec<f64> = raw.iter().map(|&w| w as f64).collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            continue;
        }
        let table = AliasTable::new(&weights).unwrap();
        let mut draw_rng = Xorshift64Star::new(42);
        let draws = 60_000;
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut draw_rng)] += 1;
        }
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expected = w / total;
            let got = counts[i] as f64 / draws as f64;
            assert!(
                (expected - got).abs() < 0.02,
                "case {case} outcome {i}: expected {expected:.3} got {got:.3}"
            );
        }
    }
}

#[test]
fn graph_binary_roundtrip() {
    for case in 0..64u64 {
        let mut rng = Xorshift64Star::new(0xb19a_0000 + case);
        let nedges = gen_range(&mut rng, 1, 150) as usize;
        let edges: Vec<(u32, u32)> = (0..nedges)
            .map(|_| {
                (
                    gen_range(&mut rng, 0, 40) as u32,
                    gen_range(&mut rng, 0, 40) as u32,
                )
            })
            .collect();
        let mut b = GraphBuilder::new();
        b.add_edges(edges);
        let g = b.build().unwrap();
        let bytes = io::encode_binary(&g);
        let g2 = io::decode_binary(&bytes).unwrap();
        assert_eq!(g, g2, "case {case}");
    }
}

#[test]
fn relabel_preserves_multigraph_structure() {
    for case in 0..64u64 {
        let mut rng = Xorshift64Star::new(0x4e1a_0000 + case);
        let nedges = gen_range(&mut rng, 1, 100) as usize;
        let edges: Vec<(u32, u32)> = (0..nedges)
            .map(|_| {
                (
                    gen_range(&mut rng, 0, 30) as u32,
                    gen_range(&mut rng, 0, 30) as u32,
                )
            })
            .collect();
        let g = Csr::from_edges(30, &edges).unwrap();
        let (sorted, relabel) = sort_by_degree(&g);
        assert_eq!(sorted.edge_count(), g.edge_count(), "case {case}");
        // Degree sequence sorted descending.
        let degs: Vec<usize> = (0..30).map(|v| sorted.degree(v as VertexId)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]), "case {case}");
        // Edge multiset preserved under the bijection.
        let mut orig: Vec<(u32, u32)> = g.edges().collect();
        let mut back: Vec<(u32, u32)> = sorted
            .edges()
            .map(|(s, t)| (relabel.to_old(s), relabel.to_old(t)))
            .collect();
        orig.sort_unstable();
        back.sort_unstable();
        assert_eq!(orig, back, "case {case}");
    }
}

// Engine runs are slower; fewer cases.

#[test]
fn every_walk_stays_on_edges() {
    for case in 0..12u64 {
        let mut rng = Xorshift64Star::new(0xedbe_0000 + case);
        let n = gen_range(&mut rng, 50, 300) as usize;
        let seed = gen_range(&mut rng, 0, 1000);
        let walkers = gen_range(&mut rng, 10, 100) as usize;
        let steps = gen_range(&mut rng, 1, 10) as usize;
        let g = synth::power_law(n, 2.0, 1, 20, seed);
        let engine = FlashMob::new(
            &g,
            WalkConfig::deepwalk().walkers(walkers).steps(steps).seed(seed),
        )
        .unwrap();
        let out = engine
            .run_with(&RunOptions::default(), &mut Telemetry::off())
            .unwrap()
            .0;
        for path in out.paths() {
            assert_eq!(path.len(), steps + 1, "case {case}");
            for hop in path.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]), "case {case}");
            }
        }
    }
}

#[test]
fn thread_count_never_changes_results() {
    for case in 0..12u64 {
        let mut rng = Xorshift64Star::new(0x711d_0000 + case);
        let seed = gen_range(&mut rng, 0, 500);
        let threads = gen_range(&mut rng, 2, 5) as usize;
        let g = synth::power_law(200, 2.0, 1, 30, seed);
        for config in [WalkConfig::deepwalk(), WalkConfig::node2vec(2.0, 0.5)] {
            let run = |t: usize| {
                let config = config.clone().walkers(150).steps(5).seed(seed).threads(t);
                FlashMob::new(&g, config)
                    .unwrap()
                    .run_with(&RunOptions::default(), &mut Telemetry::off())
                    .unwrap()
                    .0
                    .paths()
            };
            let algo = config.algorithm.name();
            assert_eq!(run(1), run(threads), "case {case} {algo} threads {threads}");
        }
    }
}

#[test]
fn shuffle_restores_walker_order_under_random_configs() {
    // The two-pass counting shuffle must reassemble every walker's path
    // in walker order no matter how the work is split: for any random
    // graph, plan strategy, walker count, step count, thread count, and
    // algorithm (first-order uniform or weighted, and node2vec on the
    // unweighted graph), T-threaded `record_paths` output is
    // bit-identical to the sequential run.
    use flashmob_repro::flashmob::PlanStrategy;

    for case in 0..10u64 {
        let mut rng = Xorshift64Star::new(0x0c0d_e000 + case);
        let n = gen_range(&mut rng, 40, 400) as usize;
        let seed = gen_range(&mut rng, 0, 10_000);
        let walkers = gen_range(&mut rng, 1, 700) as usize;
        let steps = gen_range(&mut rng, 0, 12) as usize;
        let threads = gen_range(&mut rng, 2, 9) as usize;
        let strategy = match gen_range(&mut rng, 0, 4) {
            0 => PlanStrategy::DynamicProgramming,
            1 => PlanStrategy::UniformPs,
            2 => PlanStrategy::UniformDs,
            _ => PlanStrategy::ManualHeuristic,
        };
        let weighted = gen_range(&mut rng, 0, 2) == 1;

        let base = synth::power_law(n, 2.0, 1, 24, seed);
        let node2vec = WalkConfig::node2vec(0.5, 2.0);
        let (g, config) = if weighted {
            let weights: Vec<f32> = (0..base.edge_count())
                .map(|_| gen_range(&mut rng, 1, 8) as f32)
                .collect();
            let g = Csr::from_parts(
                base.offsets().to_vec(),
                base.targets().to_vec(),
                Some(weights),
            )
            .unwrap();
            let mut c = WalkConfig::deepwalk();
            c.algorithm = flashmob_repro::flashmob::WalkAlgorithm::Weighted;
            (g, c)
        } else {
            (base.clone(), WalkConfig::deepwalk())
        };
        for (g, config) in [(&g, config), (&base, node2vec)] {
            let config = config
                .walkers(walkers)
                .steps(steps)
                .seed(seed)
                .strategy(strategy);
            let run = |t: usize| {
                FlashMob::new(g, config.clone().threads(t))
                    .unwrap()
                    .run_with(&RunOptions::default(), &mut Telemetry::off())
                    .unwrap()
                    .0
                    .paths()
            };
            assert_eq!(
                run(1),
                run(threads),
                "case {case}: n {n} walkers {walkers} steps {steps} threads {threads} \
                 strategy {strategy:?} weighted {weighted} {}",
                config.algorithm.name()
            );
        }
    }
}

#[test]
fn program_state_round_trips_through_wire_codec() {
    // Stateful walk programs carry each walker's origin in the
    // snapshot's auxiliary (`prev`) lane; a checkpoint taken mid-run
    // must restore it bit for bit under arbitrary sizes, values, and
    // mixed PS/DS buffer states.
    use flashmob_repro::recover::{PsPartState, RunHeader, WalkSnapshot, WalkState};
    use std::borrow::Cow;
    let mut rng = Xorshift64Star::new(0x9a7e_57a7);
    for case in 0..200 {
        let walkers = gen_range(&mut rng, 0, 300) as usize;
        let parts = gen_range(&mut rng, 1, 8) as usize;
        let (seed, iter_next, steps_total) = (
            rng.next_u64(),
            gen_range(&mut rng, 0, 100),
            gen_range(&mut rng, 0, 100),
        );
        let (steps_taken, config_tag, graph_tag) =
            (rng.next_u64() >> 8, rng.next_u64(), rng.next_u64());
        let header = RunHeader {
            seed,
            walkers: walkers as u64,
            steps_total,
            config_tag,
            graph_tag,
        };
        let per_partition_steps = (0..parts).map(|_| rng.next_u64() >> 16).collect();
        let w = (0..walkers).map(|_| rng.next_u64() as u32).collect();
        // The program-state lane: arbitrary origins, including the
        // DEAD sentinel (u32::MAX).
        let prev = (0..walkers).map(|_| rng.next_u64() as u32).collect();
        let mut ps = Vec::new();
        for part in 0..parts {
            if rng.next_u64() & 1 == 0 {
                ps.push(PsPartState {
                    part,
                    buf: gen_vec(&mut rng, (0, 64), (0, u32::MAX as u64)).into(),
                    cursor: gen_vec(&mut rng, (0, 16), (0, 64)).into(),
                });
            }
        }
        let rows = (0..gen_range(&mut rng, 0, 8))
            .map(|_| gen_vec(&mut rng, (0, 12), (0, u32::MAX as u64)))
            .collect();
        let snap = WalkSnapshot {
            header,
            state: Cow::Owned(WalkState {
                iter_next,
                steps_taken,
                per_partition_steps,
                w,
                prev,
                visits: Vec::new(),
                rows,
            }),
            ps,
            biblock: None,
        };
        let bytes = snap.encode();
        let back = WalkSnapshot::decode(&bytes, std::path::Path::new("prop.fmck"))
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        assert_eq!(snap, back, "case {case}: snapshot must round-trip");
    }
}
