//! Walker-at-a-time baseline engines.
//!
//! The paper compares FlashMob against two 2019-generation systems, both
//! of which process walkers *individually*, following each one wherever
//! it leads — the design whose random whole-graph DRAM accesses FlashMob
//! eliminates:
//!
//! * **KnightKing** (`kind = `[`BaselineKind::KnightKing`]): a general
//!   random-walk engine.  On a single node it moves each walker as far
//!   as possible before taking the next; first-order uniform steps cost
//!   one dependent offset read plus one edge read, and dynamic
//!   (second-order) probabilities use rejection sampling.  Its stock RNG
//!   is the Mersenne Twister — the paper notes swapping in xorshift*
//!   only gains 4-9% because the engine is memory-bound, an ablation
//!   the `ablate_cache_arch` harness measures on the two generators.
//! * **GraphVite** (`kind = `[`BaselineKind::GraphVite`]): the random
//!   walk component of the CPU-GPU node-embedding system.  It finishes
//!   one walker's entire path before starting another and samples edges
//!   through per-vertex **alias tables**, whose extra probability/alias
//!   arrays roughly triple the random traffic per step — which is why
//!   the paper measures KnightKing 2.2-3.8x faster.
//!
//! Both engines take FlashMob's [`WalkConfig`] (inside
//! [`BaselineConfig`]) and return its [`flashmob::WalkOutput`] and
//! [`flashmob::RunStats`], so every experiment can swap engines without
//! touching the workload or the way it reads the result.

mod engine;
mod sampler;

pub use engine::Baseline;
pub use sampler::SamplerKind;

use flashmob::{WalkAlgorithm, WalkConfig};

/// Which baseline system to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// KnightKing-style: direct uniform/rejection sampling, MT19937.
    KnightKing,
    /// GraphVite-style: per-vertex alias tables, MT19937.
    GraphVite,
}

impl BaselineKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::KnightKing => "KnightKing",
            BaselineKind::GraphVite => "GraphVite",
        }
    }
}

/// A baseline run: the system to emulate and the walk to run on it.
///
/// The walk is FlashMob's own [`WalkConfig`], so one value describes a
/// workload to every engine.  The baselines read its algorithm, stop
/// rule, walkers, init, seed, `record_paths`, `record_visits` and
/// `threads`.  The plan knobs are FlashMob's: [`Baseline::new`] refuses
/// a set `ring_depth`, or a `strategy` other than the default DP, with
/// [`flashmob::WalkError::Config`]; `planner` only tunes the DP plan
/// and goes unread.
///
/// Both emulated systems give each thread its own MT19937 generator, so
/// parallel runs are deterministic per `(seed, threads)` pair but do
/// *not* reproduce the single-threaded walk path-for-path (unlike
/// FlashMob's per-partition streams).  Instrumented (`run_probed`) runs
/// always execute sequentially.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Emulated system.
    pub kind: BaselineKind,
    /// The walk.
    pub walk: WalkConfig,
}

impl BaselineConfig {
    /// KnightKing running DeepWalk with the paper's defaults.
    pub fn knightking_deepwalk() -> Self {
        Self {
            kind: BaselineKind::KnightKing,
            walk: WalkConfig::deepwalk(),
        }
    }

    /// Sets the walker count.
    pub fn walkers(mut self, walkers: usize) -> Self {
        self.walk = self.walk.walkers(walkers);
        self
    }

    /// Sets a fixed step count.
    pub fn steps(mut self, steps: usize) -> Self {
        self.walk = self.walk.steps(steps);
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.walk = self.walk.seed(seed);
        self
    }

    /// Sets the algorithm.
    pub fn algorithm(mut self, algorithm: WalkAlgorithm) -> Self {
        self.walk.algorithm = algorithm;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_workload() {
        let c = BaselineConfig::knightking_deepwalk();
        assert_eq!(c.walk.max_steps(), 80);
        assert_eq!(c.kind.label(), "KnightKing");
    }

    #[test]
    fn builders_compose() {
        let c = BaselineConfig::knightking_deepwalk()
            .walkers(10)
            .steps(3)
            .seed(4)
            .algorithm(WalkAlgorithm::Weighted);
        assert_eq!(c.walk.walkers, 10);
        assert_eq!(c.walk.max_steps(), 3);
        assert_eq!(c.walk.seed, 4);
        assert_eq!(c.walk.algorithm, WalkAlgorithm::Weighted);
        assert_eq!(c.kind, BaselineKind::KnightKing);
    }
}
