//! `Csr::has_edge` against the plain scan, the sortedness flag against
//! the lists themselves, and a wall-clock guard on the probe's complexity.

use std::time::{Duration, Instant};

use fm_graph::csr::sorted_contains;
use fm_graph::relabel::sort_by_degree;
use fm_graph::{io, Csr, VertexId};
use fm_rng::{Rng64, Xorshift64Star};

/// Whether every adjacency list of `g` ascends, by looking.
fn ascends(g: &Csr) -> bool {
    (0..g.vertex_count() as VertexId).all(|v| g.neighbors(v).windows(2).all(|w| w[0] <= w[1]))
}

/// A seeded graph on `n` vertices whose vertex `k` has `lens[k]` uniform
/// targets in input order: multi-edges and self-loops come for free.
fn random_graph(n: usize, lens: &[usize], seed: u64) -> Csr {
    let mut rng = Xorshift64Star::new(seed);
    let mut edges = Vec::new();
    for (u, &len) in lens.iter().enumerate() {
        for _ in 0..len {
            edges.push((u as VertexId, rng.gen_index(n) as VertexId));
        }
    }
    // Interleave the sources so `from_edges` sees no pre-grouped input.
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.gen_index(i + 1));
    }
    Csr::from_edges(n, &edges).unwrap()
}

/// The list lengths around the old 16-entry threshold, the empty and the
/// single-entry list, and hubs far longer than the id space is wide.
const LENS: [usize; 9] = [0, 1, 2, 15, 16, 17, 63, 4096, 5000];

#[test]
fn has_edge_equals_the_scan_sorted_or_not() {
    let n = 600;
    for seed in 1..=6 {
        let unsorted = random_graph(n, &LENS, seed);
        assert!(!unsorted.has_sorted_adjacency(), "seed {seed}");
        let mut sorted = unsorted.clone();
        sorted.sort_adjacency_lists();
        assert!(sorted.has_sorted_adjacency() && ascends(&sorted));
        for g in [&unsorted, &sorted] {
            for u in 0..LENS.len() as VertexId {
                let adj = g.neighbors(u);
                for v in 0..n as VertexId {
                    let expect = adj.contains(&v);
                    assert_eq!(g.has_edge(u, v), expect, "seed {seed} {u}->{v}");
                    if g.has_sorted_adjacency() {
                        assert_eq!(sorted_contains(adj, v), expect, "seed {seed} {u}->{v}");
                    }
                }
            }
        }
    }
}

#[test]
fn sorted_contains_handles_the_extremes() {
    assert!(!sorted_contains(&[], 0));
    assert!(sorted_contains(&[7], 7) && !sorted_contains(&[7], 6) && !sorted_contains(&[7], 8));
    let max = VertexId::MAX;
    assert!(sorted_contains(&[0, 0, max, max], 0) && sorted_contains(&[0, 0, max, max], max));
    assert!(!sorted_contains(&[0, 0, max, max], 1));
}

/// Every way a `Csr` comes into being, with the flag it must carry.
#[test]
fn sorted_flag_truth_table() {
    let unsorted_edges = [(0, 3), (0, 1), (0, 2), (1, 0), (2, 0), (3, 0)];
    // Sorted per source although the sources arrive interleaved.
    let sorted_edges = [(3, 0), (0, 1), (1, 0), (0, 2), (2, 0), (0, 3)];
    let unsorted = Csr::from_edges(4, &unsorted_edges).unwrap();
    let sorted = Csr::from_edges(4, &sorted_edges).unwrap();
    assert!(!unsorted.has_sorted_adjacency());
    assert!(sorted.has_sorted_adjacency());
    // Empty and single-entry lists are sorted; equal neighbours are too.
    assert!(Csr::from_edges(3, &[]).unwrap().has_sorted_adjacency());
    assert!(Csr::from_edges(2, &[(0, 1), (0, 1), (1, 1)])
        .unwrap()
        .has_sorted_adjacency());

    let parts = |g: &Csr, w: Option<Vec<f32>>| {
        Csr::from_parts(g.offsets().to_vec(), g.targets().to_vec(), w).unwrap()
    };
    assert!(!parts(&unsorted, None).has_sorted_adjacency());
    assert!(parts(&sorted, None).has_sorted_adjacency());
    assert!(!parts(&unsorted, Some(vec![1.0; 6])).has_sorted_adjacency());
    assert!(parts(&sorted, Some(vec![1.0; 6])).has_sorted_adjacency());
    // A descent across a list boundary is not a descent within a list.
    assert!(Csr::from_parts(vec![0, 2, 4], vec![0, 1, 0, 1], None)
        .unwrap()
        .has_sorted_adjacency());

    // The only mutator: sorting flags the graph, and the flag is content,
    // so the result equals the graph built sorted.
    let mut resorted = unsorted.clone();
    resorted.sort_adjacency_lists();
    assert!(resorted.has_sorted_adjacency());
    assert_eq!(resorted, sorted);
    assert_ne!(unsorted, sorted);

    // Labels ride along without touching the targets.
    let labeled = unsorted.clone().with_edge_labels(vec![0; 6]).unwrap();
    assert!(!labeled.has_sorted_adjacency());
    let mut labeled_sorted = labeled.clone();
    labeled_sorted.sort_adjacency_lists();
    assert!(labeled_sorted.has_sorted_adjacency() && ascends(&labeled_sorted));
    assert!(sorted
        .clone()
        .with_edge_labels(vec![0; 6])
        .unwrap()
        .has_sorted_adjacency());

    // The binary format stores no flag; the loader's validation finds it.
    let dir = std::env::temp_dir().join(format!("fm-graph-flag-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, g) in [("unsorted", &unsorted), ("sorted", &sorted)] {
        let path = dir.join(name);
        io::save_binary(g, &path).unwrap();
        let back = io::load_binary(&path).unwrap();
        assert_eq!(&back, g);
        assert_eq!(back.has_sorted_adjacency(), g.has_sorted_adjacency());
        assert_eq!(io::decode_binary(&io::encode_binary(g)).unwrap(), *g);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    // So does the text parser's.
    let text = io::parse_edge_list("0 2\n0 1\n1 0\n2 0\n".as_bytes(), Default::default()).unwrap();
    assert!(!text.has_sorted_adjacency());
}

/// Whatever a relabel emits, the flag says what the lists are: an
/// unsorted graph is never flagged, a sorted one always is.
#[test]
fn derived_graphs_carry_the_flag_their_lists_deserve() {
    for seed in 1..=4 {
        let raw = random_graph(200, &[3, 40, 0, 17, 5, 1, 90, 2, 2, 8], seed);
        let mut sorted = raw.clone();
        sorted.sort_adjacency_lists();
        for g in [&raw, &sorted] {
            let (relabeled, relabeling) = sort_by_degree(g);
            let derived = [
                ("relabel", relabeled),
                ("relabel.apply", relabeling.apply(g)),
            ];
            for (name, d) in &derived {
                assert_eq!(d.has_sorted_adjacency(), ascends(d), "seed {seed}: {name}");
                for (u, v) in d.edges().take(500) {
                    assert!(d.has_edge(u, v), "seed {seed}: {name} lost {u}->{v}");
                }
            }
        }
    }
}

/// The probe on a hub must stay O(log d).  One vertex of degree 2^20 and
/// 10^5 mixed hit/miss probes are held against a bound a fiftieth of what
/// re-scanning the list on every call (what `has_edge` did until the flag)
/// costs on this host in this build.  Measured: a scan per call 56 s in
/// release and 1200 s in debug, the halving search 24 ms and 37 ms.  The
/// two are 2400x apart in release, so no bound is 100x from both; a
/// fiftieth leaves 48x above the search and 50x below the scan there
/// (650x and 50x in debug).
#[test]
fn has_edge_on_a_hub_is_logarithmic() {
    const DEGREE: usize = 1 << 20;
    const PROBES: u32 = 100_000;
    let n = 2 * DEGREE;
    let mut offsets = vec![DEGREE; n + 1];
    offsets[0] = 0;
    let targets: Vec<VertexId> = (0..DEGREE as VertexId).map(|k| 2 * k).collect();
    let g = Csr::from_parts(offsets, targets, None).unwrap();
    assert!(g.has_sorted_adjacency());

    let mut rng = Xorshift64Star::new(20);
    let probes: Vec<VertexId> = (0..PROBES).map(|_| rng.gen_index(n) as VertexId).collect();
    let hits = probes.iter().filter(|&&v| v % 2 == 0).count();
    assert!(
        hits > 40_000 && hits < 60_000,
        "the probes mix hits and misses"
    );

    let fastest = |f: &mut dyn FnMut() -> bool| -> Duration {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                assert!(std::hint::black_box(f()));
                t.elapsed()
            })
            .min()
            .unwrap()
    };
    let adj = g.neighbors(0);
    let one_scan = fastest(&mut || std::hint::black_box(adj).windows(2).all(|w| w[0] <= w[1]));
    let bound = one_scan * (PROBES / 50);
    let all_probes = fastest(&mut || {
        probes
            .iter()
            .filter(|&&v| g.has_edge(0, std::hint::black_box(v)))
            .count()
            == hits
    });
    assert!(
        all_probes < bound,
        "{PROBES} probes took {all_probes:?}; a scan per call would take {:?}, the bound is {bound:?}",
        one_scan * PROBES
    );
}
