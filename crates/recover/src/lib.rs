//! Crash-safe checkpoint/resume for long random walks, plus a
//! deterministic fault-injection IO layer.
//!
//! The paper's target workloads walk huge graphs for billions of steps —
//! exactly the runs where a crash at hour N throws everything away.  The
//! step-centric layout makes durability cheap: all walker state lives in
//! compact arrays (ThunderRW makes the same observation), so an epoch
//! boundary snapshot is one copy of them plus one sequential write.
//!
//! The subsystem has three parts:
//!
//! * [`snapshot::WalkState`] and [`snapshot::BiBlockState`] — the
//!   resumable arrays of a walk, declared once: both engines own them
//!   and walk on them.  [`snapshot::WalkSnapshot`] borrows them whole,
//!   with the PS partitions' pre-sample buffers, and encodes them in one
//!   pass into a reused buffer, in a CRC32-guarded framed binary format;
//!   a resume moves the decoded ones in.  Any single flipped byte is
//!   detected and reported as [`RecoverError::Corrupt`].
//! * [`manifest::CheckpointSink`] / [`manifest::load_latest`] — atomic
//!   write-to-temp → fsync → rename publication of those bytes, with a
//!   generation-stamped manifest that detects torn, partial, or
//!   mixed-generation snapshots.
//! * [`fault::FaultState`] and [`retry::with_retries`] — one seeded,
//!   reproducible fault stream (a transient error rolled per block load
//!   or checkpoint write, and torn checkpoint writes) and the
//!   bounded-retry/exponential-backoff loop that engines thread around
//!   both.
//!
//! RNG streams never need snapshotting: every engine derives per-
//! `(iteration, partition)` streams from a pure function of the seed, so
//! a resume at iteration `k` replays the exact chain of an uninterrupted
//! run — the conformance crash matrix proves bit-identity against the
//! golden digests.

pub mod crc;
pub mod error;
pub mod fault;
pub mod manifest;
pub mod retry;
pub mod snapshot;
mod wire;

pub use crc::crc32;
pub use error::RecoverError;
pub use fault::{FaultCounts, FaultPolicy, FaultState};
pub use manifest::{fnv64, load_latest, CheckpointSink, Manifest, MANIFEST_NAME};
pub use retry::{transient_io, with_retries, RetryPolicy};
pub use snapshot::{
    BiBlockState, CheckpointSpec, Fingerprint, PsPartState, RunHeader, WalkSnapshot, WalkState,
};
pub use wire::{le_bytes, LeWord};
