//! Offline machine profiling (paper Section 4.4, "Offline profiling for
//! profit calculation").
//!
//! FlashMob's planner needs the per-step sampling cost of a VP as a
//! function of `(VP size, average degree, walker density, policy)`.  The
//! paper's key insight is that under the streaming model this cost is
//! **machine-dependent but graph-independent**: a synthetic VP with the
//! same parameters behaves identically to a real one, so the profile is
//! collected once per machine and reused across graphs.
//!
//! This crate implements exactly that:
//!
//! * [`micro::measure_point`] times the *real* FlashMob sample kernel on
//!   a synthetic uniform-degree VP;
//! * [`micro::run_profile`] sweeps a parameter grid (the data behind the
//!   paper's Figure 6);
//! * [`table::ProfileTable`] interpolates the grid and implements
//!   `flashmob::cost::CostModel`, so the planner can run on measured
//!   numbers instead of the analytic model;
//! * profiles round-trip through a simple text format so the one-time
//!   cost (258 s on the paper's machine) is paid once.

pub mod micro;
pub mod table;

pub use micro::{measure_point, measure_shuffle_ns, run_profile, ProfileGrid, ProfilePoint};
pub use table::ProfileTable;
