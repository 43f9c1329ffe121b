//! Pattern- and level-dependent load latency model.

use crate::{AccessKind, Level};

/// Load latency (nanoseconds) for every (pattern, level) pair.
///
/// The default values are the paper's Table 1 measurements on a Xeon
/// Gold 6126.  The pattern dimension implicitly models hardware
/// prefetching and memory-level parallelism: a *sequential* access that
/// misses to DRAM costs 0.76 ns because the prefetcher has already
/// streamed the line, while a *pointer-chasing* DRAM access costs
/// 116.9 ns because nothing can overlap it.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// `ns[kind][level]` in [`AccessKind::ALL`] x [`Level::ALL`] order.
    ns: [[f64; 5]; 3],
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::table1()
    }
}

impl LatencyModel {
    /// The paper's Table 1 (Xeon Gold 6126, dual socket).
    pub fn table1() -> Self {
        Self {
            ns: [
                // Sequential read: L1, L2, L3, LocalMem, RemoteMem.
                [0.42, 0.41, 0.44, 0.76, 1.51],
                // Random read.
                [0.77, 0.95, 2.60, 18.35, 24.35],
                // Pointer-chasing.
                [1.69, 5.26, 19.26, 116.90, 194.26],
            ],
        }
    }

    /// Builds a model from explicit values (testing / other machines).
    pub fn from_rows(sequential: [f64; 5], random: [f64; 5], chase: [f64; 5]) -> Self {
        Self {
            ns: [sequential, random, chase],
        }
    }

    /// Latency in nanoseconds for one load.
    #[inline]
    pub fn ns(&self, kind: AccessKind, level: Level) -> f64 {
        let k = match kind {
            AccessKind::Sequential => 0,
            AccessKind::Random => 1,
            AccessKind::PointerChase => 2,
        };
        let l = match level {
            Level::L1 => 0,
            Level::L2 => 1,
            Level::L3 => 2,
            Level::LocalMem => 3,
            Level::RemoteMem => 4,
        };
        self.ns[k][l]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let m = LatencyModel::table1();
        assert_eq!(m.ns(AccessKind::Sequential, Level::L1), 0.42);
        assert_eq!(m.ns(AccessKind::Random, Level::LocalMem), 18.35);
        assert_eq!(m.ns(AccessKind::PointerChase, Level::RemoteMem), 194.26);
    }

    #[test]
    fn latency_grows_down_the_hierarchy_for_random() {
        let m = LatencyModel::table1();
        let mut prev = 0.0;
        for level in Level::ALL {
            let ns = m.ns(AccessKind::Random, level);
            assert!(ns >= prev);
            prev = ns;
        }
    }

    #[test]
    fn pointer_chase_in_l3_slower_than_random_dram_gap_is_preserved() {
        // The paper's observation: pointer chasing within L3 (19.26 ns)
        // exceeds simple random DRAM reads (18.35 ns).
        let m = LatencyModel::table1();
        assert!(
            m.ns(AccessKind::PointerChase, Level::L3) > m.ns(AccessKind::Random, Level::LocalMem)
        );
    }

    #[test]
    fn custom_rows_round_trip() {
        let m = LatencyModel::from_rows([1.0; 5], [2.0; 5], [3.0; 5]);
        assert_eq!(m.ns(AccessKind::Random, Level::L3), 2.0);
    }
}
