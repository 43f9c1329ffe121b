//! Bit-exact digests of walk output.
//!
//! Statistical tests prove an engine samples the right *distribution*;
//! golden digests prove a refactor did not silently change *which*
//! pseudo-random walk a fixed seed produces.  FNV-1a over the recorded
//! paths (walker by walker, with the path length folded in so empty
//! suffixes cannot alias) gives a stable 64-bit fingerprint that is
//! cheap enough to run over every lattice cell.

use fm_recover::Fingerprint;

/// Digest of a full path matrix (one entry per walker, in walker order)
/// followed by `stream_ids`: the per-partition RNG stream ids of every
/// iteration for a direct FlashMob run, empty for every other engine.
///
/// Every value is folded as a little-endian `u64`: the walker count,
/// then each path's length and vertices, then the stream ids.
pub fn digest_paths(paths: &[Vec<u32>], stream_ids: &[u64]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.fold_u64(paths.len() as u64);
    for path in paths {
        fp.fold_u64(path.len() as u64);
        for &v in path {
            fp.fold_u64(u64::from(v));
        }
    }
    for &id in stream_ids {
        fp.fold_u64(id);
    }
    fp.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic() {
        let paths = vec![vec![1, 2, 3], vec![4, 5]];
        assert_eq!(digest_paths(&paths, &[]), digest_paths(&paths, &[]));
    }

    #[test]
    fn digest_sees_every_vertex() {
        let a = vec![vec![1, 2, 3]];
        let b = vec![vec![1, 2, 4]];
        assert_ne!(digest_paths(&a, &[]), digest_paths(&b, &[]));
    }

    #[test]
    fn digest_sees_walker_boundaries() {
        // Same vertex stream, different split across walkers.
        let a = vec![vec![1, 2], vec![3]];
        let b = vec![vec![1], vec![2, 3]];
        assert_ne!(digest_paths(&a, &[]), digest_paths(&b, &[]));
    }

    #[test]
    fn empty_inputs_are_distinct() {
        let none: Vec<Vec<u32>> = vec![];
        let one_empty = vec![vec![]];
        assert_ne!(digest_paths(&none, &[]), digest_paths(&one_empty, &[]));
    }

    #[test]
    fn extra_u64_changes_digest() {
        let paths = vec![vec![7, 8]];
        assert_ne!(digest_paths(&paths, &[]), digest_paths(&paths, &[42]));
    }
}
