//! fm-audit: in-tree static analysis + dynamic disjointness checking.
//!
//! The engine's cache-efficient sample/shuffle pipeline rests on ~35
//! `unsafe` sites whose soundness is asserted by `SAFETY:` comments
//! claiming pairwise-disjoint `DisjointSlice` ranges.  This crate makes
//! those claims machine-checked, in the same zero-dependency style as
//! fm-telemetry and fm-recover:
//!
//! * [`lints`] + [`scan`] — a hand-rolled source scanner (line/token
//!   level, no `syn`) enforcing the project lint catalogue: SAFETY
//!   comments on every unsafe site, thread/file-IO discipline,
//!   cast-free snapshot codecs, and an unwrap ratchet ([`ratchet`])
//!   whose committed baseline may only decrease.  Exemptions live in a
//!   reason-carrying allowlist ([`allow`]); stale entries are findings.
//! * [`parse`] + [`callgraph`] + [`taint`] — the flow-aware analyzer
//!   (`fmwalk audit --graph`): an in-tree item parser feeding a
//!   workspace call graph with conservative trait fan-out and explicit
//!   open edges, and four reachability/taint lints on top of it —
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
