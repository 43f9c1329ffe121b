//! fm-audit: in-tree static analysis + dynamic disjointness checking.
//!
//! The engine's cache-efficient sample/shuffle pipeline rests on 72
//! `unsafe` sites whose soundness is asserted by `SAFETY:` comments
//! claiming pairwise-disjoint `DisjointSlice` ranges.  This crate makes
//! those claims machine-checked with no external dependency (its one
//! dependency is fm-telemetry's JSON module).  One run is one pass:
//! every file is lexed once ([`lex`]), item-parsed once ([`parse`]), and
//! linted; then the flow lints run over the parsed workspace.
//!
//! * [`lints`] + [`scan`] — the project lint catalogue over the lexed
//!   lines (no `syn`): SAFETY comments on every unsafe site,
//!   thread/file-IO discipline, cast-free snapshot codecs, and an unwrap
//!   ratchet ([`ratchet`]) whose committed baseline may only decrease.
//!   The parser says which lines are test code.  Exemptions live in a
//!   reason-carrying allowlist ([`allow`]); stale entries are findings.
//! * [`parse`] + [`callgraph`] + [`taint`] — the flow-aware analyzer: the
//!   item parser feeds a workspace call graph with conservative trait
//!   fan-out and explicit open edges, and four reachability/taint lints
//!   run on top of it —
//!   determinism-taint (clock/entropy/env/hash-order sources must not
//!   reach the deterministic crates), panic-reachability (no panicking
//!   call sites reachable from the sample loops), rng-purity (RNG
//!   construction flows from seed + structured indices), and
//!   fingerprint-completeness (every config field the run path reads
//!   is folded into the checkpoint fingerprint).
//! * [`disjoint`] — a runtime checker for the pool's `DisjointSlice`
//!   claims, compiled into fm-pool behind the `audit-disjoint` feature:
//!   a per-epoch interval log drained at epoch boundaries that panics
//!   with both claimants on any cross-worker overlap.
//!
//! Entry points: `fmwalk audit` (CLI), `ci.sh` audit tier, or
//! [`scan::run`] directly.

pub mod allow;
pub mod callgraph;
pub mod disjoint;
pub mod lex;
pub mod lints;
pub mod parse;
pub mod ratchet;
pub mod report;
pub mod scan;
pub mod taint;

pub use disjoint::ClaimLog;
pub use lints::{Finding, Lint};
pub use scan::{run, AuditReport, RunOptions};
