//! FlashMob-RS: a reproduction of *"Random Walks on Huge Graphs at Cache
//! Efficiency"* (SOSP 2021).
//!
//! This facade crate re-exports the whole workspace so examples, tests,
//! and downstream users can depend on a single crate:
//!
//! * [`flashmob`] — the cache-efficient walk engine (the paper's
//!   contribution): degree-sorted vertex partitions, the two-stage
//!   sample/shuffle pipeline, PS/DS sampling policies, MCKP-based
//!   auto-planning, and NUMA modes.
//! * [`graph`] — CSR graph storage (with the row rule of uniform-degree
//!   runs), generators, degree statistics, IO.
//! * [`rng`] — xorshift*/MT19937 and discrete samplers.
//! * [`memsim`] — the software cache-hierarchy simulator standing in
//!   for perf/VTune counters (Table 5's model).
//! * [`mckp`] — the exact Multiple-Choice Knapsack DP solver.
//! * [`telemetry`] — dependency-free spans, per-partition counters,
//!   page-fault and RSS counts from `/proc`, and exporters (Chrome
//!   Trace Event Format, JSONL, human summary).
//! * [`recover`] — crash-safe checkpoint snapshots, atomic manifest
//!   publication, deterministic fault injection, and bounded retries.
//! * [`baseline`] — KnightKing- and GraphVite-style comparison engines.
//! * [`conformance`] — exact Markov-chain oracles and the cross-engine
//!   differential conformance lattice (`fmwalk conform`).
//!
//! # Quickstart
//!
//! ```
//! use flashmob_repro::flashmob::{FlashMob, RunOptions, WalkConfig};
//! use flashmob_repro::graph::synth;
//! use flashmob_repro::telemetry::Telemetry;
//!
//! let graph = synth::power_law(10_000, 2.0, 1, 200, 42);
//! let config = WalkConfig::deepwalk().walkers(10_000).steps(20);
//! let engine = FlashMob::new(&graph, config).unwrap();
//! let (output, _) = engine.run_with(&RunOptions::default(), &mut Telemetry::off()).unwrap();
//! assert_eq!(output.paths().len(), 10_000);
//! ```

pub use flashmob;
pub use fm_baseline as baseline;
pub use fm_conformance as conformance;
pub use fm_graph as graph;
pub use fm_mckp as mckp;
pub use fm_memsim as memsim;
pub use fm_recover as recover;
pub use fm_rng as rng;
pub use fm_telemetry as telemetry;
