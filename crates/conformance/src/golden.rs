//! Committed golden-trace digests.
//!
//! Each entry fixes the bit-exact FNV-1a digest of one lattice cell's
//! full path matrix (plus, for direct FlashMob cells, the
//! per-partition RNG stream ids of every iteration) under the
//! canonical seed.  The statistical oracle cannot see a refactor that
//! swaps one valid pseudo-random walk for another; these digests can.
//!
//! **Regeneration** (only when a run-output change is *intentional* —
//! a new RNG stream layout, a changed sampler order, a different
//! canonical lattice): run `fmwalk conform --emit-golden`, which prints
//! one row for every runnable cell of the full lattice, programs
//! included; review that the diff is expected, and paste the emitted
//! rows over the one table below.  See DESIGN.md, "Correctness
//! methodology".

/// One committed digest: `(engine label, walk label, threads, digest)`.
pub type GoldenEntry = (&'static str, &'static str, usize, u64);

/// The committed table, covering the full lattice: every engine × walk
/// × {1, 2, 3, 8} threads cell that runs.  Rows are per thread count
/// even where the digest is thread-invariant: that invariance is part
/// of what they pin.
pub static GOLDEN: &[GoldenEntry] = &[
    ("flashmob-auto", "deepwalk", 1, 0xb7d4856302979415),
    ("flashmob-auto", "deepwalk", 2, 0xb7d4856302979415),
    ("flashmob-auto", "deepwalk", 3, 0xb7d4856302979415),
    ("flashmob-auto", "deepwalk", 8, 0xb7d4856302979415),
    ("flashmob-auto", "weighted", 1, 0xdd524386c60777cf),
    ("flashmob-auto", "weighted", 2, 0xdd524386c60777cf),
    ("flashmob-auto", "weighted", 3, 0xdd524386c60777cf),
    ("flashmob-auto", "weighted", 8, 0xdd524386c60777cf),
    ("flashmob-auto", "node2vec", 1, 0xf9ae09a72b31b3d9),
    ("flashmob-auto", "node2vec", 2, 0x10138fcf9ecdaae0),
    ("flashmob-auto", "node2vec", 3, 0x10138fcf9ecdaae0),
    ("flashmob-auto", "node2vec", 8, 0x10138fcf9ecdaae0),
    ("flashmob-auto", "ppr", 1, 0x79566922ef505d27),
    ("flashmob-auto", "ppr", 2, 0x79566922ef505d27),
    ("flashmob-auto", "ppr", 3, 0x79566922ef505d27),
    ("flashmob-auto", "ppr", 8, 0x79566922ef505d27),
    ("flashmob-auto", "early-exit", 1, 0xb1e5ce663ca56ac1),
    ("flashmob-auto", "early-exit", 2, 0xb1e5ce663ca56ac1),
    ("flashmob-auto", "early-exit", 3, 0xb1e5ce663ca56ac1),
    ("flashmob-auto", "early-exit", 8, 0xb1e5ce663ca56ac1),
    ("flashmob-auto", "metapath", 1, 0xfe92b9975dbfd3e7),
    ("flashmob-auto", "metapath", 2, 0xfe92b9975dbfd3e7),
    ("flashmob-auto", "metapath", 3, 0xfe92b9975dbfd3e7),
    ("flashmob-auto", "metapath", 8, 0xfe92b9975dbfd3e7),
    ("flashmob-ps", "deepwalk", 1, 0x287203edc97b40ee),
    ("flashmob-ps", "deepwalk", 2, 0x287203edc97b40ee),
    ("flashmob-ps", "deepwalk", 3, 0x287203edc97b40ee),
    ("flashmob-ps", "deepwalk", 8, 0x287203edc97b40ee),
    ("flashmob-ps", "weighted", 1, 0x41c9cc73c654565d),
    ("flashmob-ps", "weighted", 2, 0x41c9cc73c654565d),
    ("flashmob-ps", "weighted", 3, 0x41c9cc73c654565d),
    ("flashmob-ps", "weighted", 8, 0x41c9cc73c654565d),
    ("flashmob-ps", "node2vec", 1, 0x542e86d40cec03cb),
    ("flashmob-ps", "node2vec", 2, 0xcb18c75f2ae811dc),
    ("flashmob-ps", "node2vec", 3, 0xcb18c75f2ae811dc),
    ("flashmob-ps", "node2vec", 8, 0xcb18c75f2ae811dc),
    ("flashmob-ps", "ppr", 1, 0x02bd82a97f376de4),
    ("flashmob-ps", "ppr", 2, 0x02bd82a97f376de4),
    ("flashmob-ps", "ppr", 3, 0x02bd82a97f376de4),
    ("flashmob-ps", "ppr", 8, 0x02bd82a97f376de4),
    ("flashmob-ps", "early-exit", 1, 0xf0896a676b53a50e),
    ("flashmob-ps", "early-exit", 2, 0xf0896a676b53a50e),
    ("flashmob-ps", "early-exit", 3, 0xf0896a676b53a50e),
    ("flashmob-ps", "early-exit", 8, 0xf0896a676b53a50e),
    ("flashmob-ps", "metapath", 1, 0xe9d8b151880ba4bc),
    ("flashmob-ps", "metapath", 2, 0xe9d8b151880ba4bc),
    ("flashmob-ps", "metapath", 3, 0xe9d8b151880ba4bc),
    ("flashmob-ps", "metapath", 8, 0xe9d8b151880ba4bc),
    ("flashmob-ds", "deepwalk", 1, 0x6130505c1aff6682),
    ("flashmob-ds", "deepwalk", 2, 0x6130505c1aff6682),
    ("flashmob-ds", "deepwalk", 3, 0x6130505c1aff6682),
    ("flashmob-ds", "deepwalk", 8, 0x6130505c1aff6682),
    ("flashmob-ds", "weighted", 1, 0x8f98ab5dc96bee38),
    ("flashmob-ds", "weighted", 2, 0x8f98ab5dc96bee38),
    ("flashmob-ds", "weighted", 3, 0x8f98ab5dc96bee38),
    ("flashmob-ds", "weighted", 8, 0x8f98ab5dc96bee38),
    ("flashmob-ds", "node2vec", 1, 0x97cb1ff43e88137c),
    ("flashmob-ds", "node2vec", 2, 0x5db5e460a6a813e0),
    ("flashmob-ds", "node2vec", 3, 0x5db5e460a6a813e0),
    ("flashmob-ds", "node2vec", 8, 0x5db5e460a6a813e0),
    ("flashmob-ds", "ppr", 1, 0x51ce964cd13c662f),
    ("flashmob-ds", "ppr", 2, 0x51ce964cd13c662f),
    ("flashmob-ds", "ppr", 3, 0x51ce964cd13c662f),
    ("flashmob-ds", "ppr", 8, 0x51ce964cd13c662f),
    ("flashmob-ds", "early-exit", 1, 0x6a6a29dfe9b9bd2b),
    ("flashmob-ds", "early-exit", 2, 0x6a6a29dfe9b9bd2b),
    ("flashmob-ds", "early-exit", 3, 0x6a6a29dfe9b9bd2b),
    ("flashmob-ds", "early-exit", 8, 0x6a6a29dfe9b9bd2b),
    ("flashmob-ds", "metapath", 1, 0xe9d8b151880ba4bc),
    ("flashmob-ds", "metapath", 2, 0xe9d8b151880ba4bc),
    ("flashmob-ds", "metapath", 3, 0xe9d8b151880ba4bc),
    ("flashmob-ds", "metapath", 8, 0xe9d8b151880ba4bc),
    ("numa-p", "deepwalk", 1, 0x3295eea4334989a9),
    ("numa-p", "deepwalk", 2, 0x3295eea4334989a9),
    ("numa-p", "deepwalk", 3, 0x3295eea4334989a9),
    ("numa-p", "deepwalk", 8, 0x3295eea4334989a9),
    ("numa-p", "weighted", 1, 0xd9e51c7b92ecbf73),
    ("numa-p", "weighted", 2, 0xd9e51c7b92ecbf73),
    ("numa-p", "weighted", 3, 0xd9e51c7b92ecbf73),
    ("numa-p", "weighted", 8, 0xd9e51c7b92ecbf73),
    ("numa-p", "node2vec", 1, 0x78366b309ce5b3fd),
    ("numa-p", "node2vec", 2, 0x9b872657f3b1e890),
    ("numa-p", "node2vec", 3, 0x9b872657f3b1e890),
    ("numa-p", "node2vec", 8, 0x9b872657f3b1e890),
    ("numa-p", "ppr", 1, 0x0c1397343286899b),
    ("numa-p", "ppr", 2, 0x0c1397343286899b),
    ("numa-p", "ppr", 3, 0x0c1397343286899b),
    ("numa-p", "ppr", 8, 0x0c1397343286899b),
    ("numa-p", "early-exit", 1, 0x3f0ee64ab5350395),
    ("numa-p", "early-exit", 2, 0x3f0ee64ab5350395),
    ("numa-p", "early-exit", 3, 0x3f0ee64ab5350395),
    ("numa-p", "early-exit", 8, 0x3f0ee64ab5350395),
    ("numa-p", "metapath", 1, 0xf58753afca37975b),
    ("numa-p", "metapath", 2, 0xf58753afca37975b),
    ("numa-p", "metapath", 3, 0xf58753afca37975b),
    ("numa-p", "metapath", 8, 0xf58753afca37975b),
    ("numa-r", "deepwalk", 1, 0x59db66432794e001),
    ("numa-r", "deepwalk", 2, 0x59db66432794e001),
    ("numa-r", "deepwalk", 3, 0x59db66432794e001),
    ("numa-r", "deepwalk", 8, 0x59db66432794e001),
    ("numa-r", "weighted", 1, 0x70f2264b610834f5),
    ("numa-r", "weighted", 2, 0x70f2264b610834f5),
    ("numa-r", "weighted", 3, 0x70f2264b610834f5),
    ("numa-r", "weighted", 8, 0x70f2264b610834f5),
    ("numa-r", "node2vec", 1, 0x9bfa1ef90a9201e8),
    ("numa-r", "node2vec", 2, 0x909e7cbf9aac89fb),
    ("numa-r", "node2vec", 3, 0x909e7cbf9aac89fb),
    ("numa-r", "node2vec", 8, 0x909e7cbf9aac89fb),
    ("numa-r", "ppr", 1, 0x54d6be0a23530881),
    ("numa-r", "ppr", 2, 0x54d6be0a23530881),
    ("numa-r", "ppr", 3, 0x54d6be0a23530881),
    ("numa-r", "ppr", 8, 0x54d6be0a23530881),
    ("numa-r", "early-exit", 1, 0x30067a1b4b9aaa0d),
    ("numa-r", "early-exit", 2, 0x30067a1b4b9aaa0d),
    ("numa-r", "early-exit", 3, 0x30067a1b4b9aaa0d),
    ("numa-r", "early-exit", 8, 0x30067a1b4b9aaa0d),
    ("numa-r", "metapath", 1, 0x078872e735045702),
    ("numa-r", "metapath", 2, 0x078872e735045702),
    ("numa-r", "metapath", 3, 0x078872e735045702),
    ("numa-r", "metapath", 8, 0x078872e735045702),
    // Re-pinned in PR 25 (DeepWalk onto the bi-block diagonal, 2 KiB
    // budget): oracle chi-square p_occ 0.070, p_tr 0.167.
    ("oocore", "deepwalk", 1, 0x530aa6f10b9d93c5),
    ("oocore", "node2vec", 1, 0xad8e5d47e99a7859),
    ("oocore", "ppr", 1, 0x265e1ab83c8724ac),
    ("knightking", "deepwalk", 1, 0xd89e64dff9bbddc8),
    ("knightking", "deepwalk", 2, 0xf3503a3c72dc3473),
    ("knightking", "deepwalk", 3, 0x3dbfebd29ca27dc6),
    ("knightking", "deepwalk", 8, 0x9d97a044c3eb2560),
    ("knightking", "weighted", 1, 0xccd1c701b8b0a5c3),
    ("knightking", "weighted", 2, 0x877d49eecee47530),
    ("knightking", "weighted", 3, 0xddfd029902f8d36e),
    ("knightking", "weighted", 8, 0x6d7ba0350db08858),
    ("knightking", "node2vec", 1, 0xa3cbc2e8f907e0cc),
    ("knightking", "node2vec", 2, 0x0b5ab54db40b928c),
    ("knightking", "node2vec", 3, 0x2cdd610580e6e728),
    ("knightking", "node2vec", 8, 0x32310a6cebaa4ae2),
    ("graphvite", "deepwalk", 1, 0x3cdf9eb9b7d2fe21),
    ("graphvite", "deepwalk", 2, 0xff649eef7f379372),
    ("graphvite", "deepwalk", 3, 0xa374bbb80d2399a9),
    ("graphvite", "deepwalk", 8, 0xcb1861a4cfed88ea),
    ("graphvite", "weighted", 1, 0x02420e5c82179f1c),
    ("graphvite", "weighted", 2, 0x16c0fa285412f3cf),
    ("graphvite", "weighted", 3, 0xab8bc60363880eab),
    ("graphvite", "weighted", 8, 0x8a0f6f6acd50e0c5),
    ("graphvite", "node2vec", 1, 0x3441b8ec969dcba0),
    ("graphvite", "node2vec", 2, 0x41cd4467d87836c8),
    ("graphvite", "node2vec", 3, 0x1d35816a49a1b2ff),
    ("graphvite", "node2vec", 8, 0xc4f439945effb8cf),
];

/// Looks up the committed digest for a cell.
pub fn lookup(engine: &str, algo: &str, threads: usize) -> Option<u64> {
    GOLDEN
        .iter()
        .find(|&&(e, a, t, _)| e == engine && a == algo && t == threads)
        .map(|&(_, _, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{AlgoKind, EngineKind, LatticeConfig};
    use std::collections::BTreeSet;

    #[test]
    fn table_has_no_duplicate_keys() {
        let mut seen = BTreeSet::new();
        for &(e, a, t, _) in GOLDEN {
            assert!(
                seen.insert((e, a, t)),
                "duplicate golden key ({e}, {a}, {t})"
            );
        }
    }

    #[test]
    fn lookup_misses_cleanly() {
        assert_eq!(lookup("no-such-engine", "deepwalk", 1), None);
        assert_eq!(lookup("knightking", "ppr", 1), None);
    }

    #[test]
    fn table_covers_every_runnable_cell() {
        // Every cell of the full lattice that an engine runs has a row,
        // and no row names a cell the lattice skips or never sweeps.
        let threads = LatticeConfig::full().threads;
        let mut runnable = 0;
        for engine in EngineKind::ALL {
            for algo in AlgoKind::ALL {
                for &t in &threads {
                    let row = lookup(engine.label(), algo.label(), t);
                    let runs = engine.skip_reason(algo, t).is_none();
                    assert_eq!(
                        row.is_some(),
                        runs,
                        "golden row for ({}, {}, {t}): {row:?}, runnable: {runs}",
                        engine.label(),
                        algo.label()
                    );
                    runnable += runs as usize;
                }
            }
        }
        assert_eq!(GOLDEN.len(), runnable);
    }
}
