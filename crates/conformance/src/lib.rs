//! Cross-engine conformance: exact Markov-chain oracles, a
//! differential lattice runner, and golden-trace digests.
//!
//! FlashMob's entire design bet (PAPER.md §3) is that reorganizing
//! *when and where* sampling happens — PS/DS policies, the two-pass
//! counting shuffle, NUMA partitioning or replication, out-of-core
//! streaming — must not change *what* is sampled: every engine
//! realizes the same Markov chain.  This crate is the gate that makes
//! that claim testable after every refactor:
//!
//! * [`oracle`] — closed-form one-step transition matrices for
//!   DeepWalk (uniform and weighted) and node2vec (exact p/q biases
//!   with exact connectivity), the walk programs' chains (PPR's
//!   restarts, early exit's absorption, metapath's phases), plus exact
//!   k-step occupancy by repeated matrix application ([`matrix`]).
//! * [`runner`] — sweeps one lattice: {FlashMob auto/PS/DS, NUMA-P/R,
//!   out-of-core, KnightKing, GraphVite} × {deepwalk, weighted,
//!   node2vec, ppr, early-exit, metapath} × thread counts, and
//!   chi-square-tests every cell an engine accepts against its walk's
//!   oracle, with fixed seeds and a Bonferroni-corrected alpha (zero
//!   flake budget).  Every `WalkAlgorithm` is a walk of the lattice:
//!   [`AlgoKind::of`] matches on all of them, so a walk added to the
//!   engine without a lattice walk does not build.
//! * [`program`] — the walk programs' own structural and chi-square
//!   checks within that lattice (a restart or an early death is not a
//!   last hop along an edge).
//! * [`digest`] / [`golden`] — bit-exact FNV-1a digests of each cell's
//!   path matrix, committed in one table so that a refactor which
//!   silently perturbs RNG stream assignment fails loudly even when the
//!   perturbed walk is statistically indistinguishable.
//! * [`crash`] — the same cells killed at every checkpoint and resumed,
//!   against the same golden rows.
//!
//! Driven by `fmwalk conform` (quick tier in `ci.sh`, full lattice
//! behind `--full`).

pub mod crash;
pub mod digest;
pub mod golden;
pub mod matrix;
pub mod oracle;
pub mod program;
pub mod runner;

pub use crash::{run_crash_matrix, CrashCase, CrashReport};
pub use digest::digest_paths;
pub use matrix::StochasticMatrix;
pub use oracle::{
    init_distribution, EarlyExitOracle, EdgeIndex, FirstOrderOracle, MetapathOracle,
    Node2VecOracle, PprOracle,
};
pub use runner::{
    cell_digest, conformance_graph, labeled_conformance_graph, run_lattice,
    weighted_conformance_graph, AlgoKind, Cell, EngineKind, LatticeConfig, LatticeReport,
    Outcome, METAPATH_PATTERN, PPR_ALPHA,
};
