//! FlashMob: cache-efficient graph random walks.
//!
//! This crate reimplements the system described in *"Random Walks on Huge
//! Graphs at Cache Efficiency"* (SOSP 2021).  Instead of following each
//! walker wherever it leads — the walker-at-a-time design of prior
//! engines, which turns every step into a random DRAM access — FlashMob:
//!
//! 1. sorts vertices by descending degree and cuts the sorted array into
//!    contiguous *vertex partitions* (VPs) sized to CPU cache levels
//!    ([`partition`], [`plan`]);
//! 2. walks in two alternating, streaming stages: a *sample* stage that
//!    advances every walker resident on one VP by a single step
//!    ([`sample`]), and a *shuffle* stage that regroups walkers by their
//!    new VP with a two-pass counting scatter ([`shuffle`]);
//! 3. assigns each VP one of two sampling policies — *pre-sampling* (PS),
//!    which batches co-located walkers through per-vertex pre-sampled
//!    edge buffers, or *direct sampling* (DS), which samples on the spot
//!    and uses offset-free fixed-degree storage for uniform-degree
//!    partitions;
//! 4. chooses VP sizes and policies automatically by reducing the
//!    decision to a Multiple-Choice Knapsack Problem solved exactly by
//!    dynamic programming ([`plan`], backed by the `fm-mckp` crate),
//!    using a machine-dependent but graph-independent cost model
//!    ([`cost`]);
//! 5. supports two cross-socket modes ([`numa`]): FlashMob-P (partition
//!    the graph and walker arrays across sockets; remote accesses are
//!    streaming-only) and FlashMob-R (replicate the graph per socket).
//!
//! The enter point is [`FlashMob`]:
//!
//! ```
//! use flashmob::{FlashMob, RunOptions, WalkConfig};
//! use fm_graph::synth;
//! use fm_telemetry::Telemetry;
//!
//! let graph = synth::power_law(1000, 2.0, 1, 50, 7);
//! let config = WalkConfig::deepwalk().walkers(1000).steps(10).seed(42);
//! let engine = FlashMob::new(&graph, config).unwrap();
//! let (output, stats) = engine.run_with(&RunOptions::default(), &mut Telemetry::off()).unwrap();
//! assert_eq!(output.paths().len(), 1000);
//! assert_eq!(stats.steps_taken, 1000 * 10);
//!
//! // With options the same call checkpoints and resumes
//! // (`oocore::run_ooc_with` and `numa::run_numa_with` likewise).
//! use flashmob::CheckpointSpec;
//! # let dir = std::env::temp_dir().join(format!("fm-doc-{}", std::process::id()));
//! let opts = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 4));
//! engine.run_with(&opts, &mut Telemetry::off()).unwrap();
//! let opts = RunOptions::default().resume_from(&dir);
//! let (resumed, _) = engine.run_with(&opts, &mut Telemetry::off()).unwrap();
//! assert_eq!(resumed.paths(), output.paths());
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod algorithm;
mod checkpoint;
pub mod cost;
pub mod engine;
pub mod numa;
pub mod oocore;
pub mod output;
pub mod partition;
pub mod plan;
pub mod pool;
pub mod sample;
pub mod shuffle;
pub mod walker;

pub use algorithm::{MetapathPattern, StopRule, WalkAlgorithm, MAX_METAPATH_LEN};
pub use engine::{partition_stream_id, FlashMob, RunOptions, RunStats, StageTimes};
pub use output::WalkOutput;
pub use partition::{Partition, PartitionMap, SamplePolicy};
pub use pool::{DisjointSlice, PoolStats, WorkerPool};
pub use plan::{Plan, PlanStrategy, Planner, PlannerParams};
pub use walker::WalkerInit;

// Checkpoint/resume and fault-injection types, re-exported so engine
// callers need not depend on `fm-recover` directly.
pub use fm_recover::{load_latest, CheckpointSpec, FaultPolicy, RecoverError};

use fm_graph::VertexId;

/// Sentinel vertex ID marking a terminated walker (stochastic stop
/// rules); never a valid vertex because graphs are capped below
/// `u32::MAX` vertices.
pub const DEAD: VertexId = VertexId::MAX;

/// Configuration of one random-walk execution.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkConfig {
    /// The transition-probability specification.
    pub algorithm: WalkAlgorithm,
    /// Termination rule.
    pub stop: StopRule,
    /// Number of walkers (the paper's default workload is `10·|V|`
    /// total, split into episodes of `|V|`).
    pub walkers: usize,
    /// How walkers are initially placed.
    pub init: WalkerInit,
    /// RNG seed; every run with the same seed is bit-identical.
    pub seed: u64,
    /// Whether to retain the full path matrix (W arrays) for output.
    pub record_paths: bool,
    /// Whether to accumulate per-vertex visit counts during sampling
    /// (Table 2's `|W|` statistics) without needing recorded paths.
    pub record_visits: bool,
    /// Number of worker threads for the parallel stages.
    pub threads: usize,
    /// Planner parameters (cache geometry, group count, shuffle budget).
    pub planner: PlannerParams,
    /// Partitioning strategy (DP-optimized by default; the uniform and
    /// manual-heuristic alternatives exist for the Figure 9b ablation).
    pub strategy: PlanStrategy,
    /// Latency-hiding ring depth for the sample stage (see
    /// [`sample::ring`]).  `None` (the default) lets the planner pick a
    /// per-partition depth: ring on for LLC-exceeding working sets, off
    /// for cache-resident ones.  `Some(d)` forces depth `d` everywhere
    /// (1 disables the ring).  The walk output is bit-identical at
    /// every depth; this knob only trades prefetch instructions against
    /// stall time.
    pub ring_depth: Option<usize>,
}

impl WalkConfig {
    /// DeepWalk defaults: first-order uniform walk, 80 steps.
    pub fn deepwalk() -> Self {
        Self {
            algorithm: WalkAlgorithm::DeepWalk,
            stop: StopRule::FixedSteps(80),
            walkers: 0,
            init: WalkerInit::UniformEdge,
            seed: 1,
            record_paths: true,
            record_visits: false,
            threads: 1,
            planner: PlannerParams::default(),
            strategy: PlanStrategy::DynamicProgramming,
            ring_depth: None,
        }
    }

    /// node2vec defaults: second-order walk, 40 steps (paper Section 2.1).
    pub fn node2vec(p: f64, q: f64) -> Self {
        Self {
            algorithm: WalkAlgorithm::Node2Vec { p, q },
            stop: StopRule::FixedSteps(40),
            ..Self::deepwalk()
        }
    }

    /// Sets the number of walkers.
    pub fn walkers(mut self, walkers: usize) -> Self {
        self.walkers = walkers;
        self
    }

    /// Sets the number of fixed steps (replaces the stop rule).
    pub fn steps(mut self, steps: usize) -> Self {
        self.stop = StopRule::FixedSteps(steps);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the walker initialization.
    pub fn init(mut self, init: WalkerInit) -> Self {
        self.init = init;
        self
    }

    /// Enables or disables path recording.
    pub fn record_paths(mut self, yes: bool) -> Self {
        self.record_paths = yes;
        self
    }

    /// Enables or disables per-vertex visit counting.
    pub fn record_visits(mut self, yes: bool) -> Self {
        self.record_visits = yes;
        self
    }

    /// Sets the worker thread count.
    ///
    /// Every in-memory walk, node2vec included, is bit-identical at every
    /// thread count: each partition's RNG stream is drawn by that
    /// partition's walkers in one order however the partitions are split
    /// among workers, so a checkpoint written at one count resumes at any
    /// other.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the planner parameters.
    pub fn planner(mut self, params: PlannerParams) -> Self {
        self.planner = params;
        self
    }

    /// Overrides the partitioning strategy.
    pub fn strategy(mut self, strategy: PlanStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Forces the sample-stage ring depth everywhere (clamped to
    /// `1..=`[`sample::ring::MAX_RING_DEPTH`]; 1 disables latency
    /// hiding).  Output is bit-identical at every depth.
    pub fn ring_depth(mut self, depth: usize) -> Self {
        self.ring_depth = Some(depth.clamp(1, sample::ring::MAX_RING_DEPTH));
        self
    }

    /// Maximum number of steps any walker can take under the stop rule.
    pub fn max_steps(&self) -> usize {
        match self.stop {
            StopRule::FixedSteps(n) => n,
            StopRule::Geometric { max_steps, .. } => max_steps,
        }
    }
}

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum WalkError {
    /// The graph was empty.
    EmptyGraph,
    /// The graph has a zero-out-degree vertex; walkers would get stuck.
    SinkVertex(VertexId),
    /// The configuration asked for zero walkers.
    NoWalkers,
    /// The weighted algorithm was requested on an unweighted graph.
    MissingWeights,
    /// A metapath walk was requested on a graph without edge labels.
    MissingLabels,
    /// The planner failed to find a feasible partitioning.
    Planning(String),
    /// An underlying graph-storage failure (disk graphs, binary IO).
    Graph(fm_graph::GraphError),
    /// A checkpoint/resume failure from the recovery layer.
    Recover(fm_recover::RecoverError),
    /// The run halted deliberately after writing checkpoint
    /// `generation` — the crash-matrix kill switch, never a real error.
    Halted {
        /// The generation whose checkpoint was the last one written.
        generation: u64,
    },
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkError::EmptyGraph => write!(f, "graph has no vertices"),
            WalkError::SinkVertex(v) => {
                write!(f, "vertex {v} has no out-edges; remove sinks first")
            }
            WalkError::NoWalkers => write!(f, "configure at least one walker"),
            WalkError::MissingWeights => {
                write!(f, "weighted walk requested on an unweighted graph")
            }
            WalkError::MissingLabels => {
                write!(f, "metapath walk requested on a graph without edge labels")
            }
            WalkError::Planning(m) => write!(f, "partition planning failed: {m}"),
            WalkError::Graph(e) => write!(f, "graph storage error: {e}"),
            WalkError::Recover(e) => write!(f, "checkpoint error: {e}"),
            WalkError::Halted { generation } => {
                write!(f, "halted after checkpoint generation {generation}")
            }
        }
    }
}

impl std::error::Error for WalkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalkError::Graph(e) => Some(e),
            WalkError::Recover(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fm_graph::GraphError> for WalkError {
    fn from(e: fm_graph::GraphError) -> Self {
        WalkError::Graph(e)
    }
}

impl From<fm_recover::RecoverError> for WalkError {
    fn from(e: fm_recover::RecoverError) -> Self {
        WalkError::Recover(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deepwalk_defaults_match_paper() {
        let c = WalkConfig::deepwalk();
        assert_eq!(c.max_steps(), 80);
        assert!(matches!(c.algorithm, WalkAlgorithm::DeepWalk));
    }

    #[test]
    fn node2vec_defaults_match_paper() {
        let c = WalkConfig::node2vec(0.5, 2.0);
        assert_eq!(c.max_steps(), 40);
        assert!(matches!(
            c.algorithm,
            WalkAlgorithm::Node2Vec { p, q } if p == 0.5 && q == 2.0
        ));
    }

    #[test]
    fn builder_methods_compose() {
        let c = WalkConfig::deepwalk()
            .walkers(100)
            .steps(5)
            .seed(9)
            .threads(0);
        assert_eq!(c.walkers, 100);
        assert_eq!(c.max_steps(), 5);
        assert_eq!(c.seed, 9);
        assert_eq!(c.threads, 1, "thread count clamps to 1");
    }
}
