//! Hardware-counter attribution over the span stream.
//!
//! When a run opts in (`fmwalk walk --hw-counters`), the recorder opens
//! one per-thread [`fm_perfmon::CounterGroup`] on the coordinator and
//! reads it at every coordinator span boundary: the delta since the
//! previous read is attributed to the span's [`Stage`] (and, when the
//! span names one, its partition).  Because the coordinator's spans
//! tile the run back-to-back — sample, shuffle, output, checkpoint, in
//! order — this turns the existing span stream into a per-stage
//! cycles/instructions/LLC/dTLB breakdown with **no engine changes and
//! no extra reads when the session is absent** (the hot path costs one
//! `Option` check).
//!
//! Scope and honesty notes, mirrored in DESIGN.md §12:
//!
//! * Counters are per-thread.  In single-threaded runs (the default,
//!   and everything `cachecheck` measures) the coordinator
//!   *is* the whole walk.  In pooled runs, worker-thread work shows up
//!   only in the coordinator's dispatch wait, so per-stage deltas
//!   remain meaningful (the coordinator blocks inside the stage) while
//!   per-partition deltas are only recorded on the sequential path.
//! * Deltas include any coordinator work since the previous span
//!   boundary, so per-stage totals tile the timeline exactly — nothing
//!   is dropped, and unspanned gaps land in the next span's stage.

use crate::Stage;

pub use fm_perfmon::{HwCounters, HwEvent, PerfError};

/// An open counter session: the group plus running attribution tables.
pub(crate) struct HwSession {
    group: fm_perfmon::CounterGroup,
    last: fm_perfmon::Snapshot,
    /// Per-stage accumulated deltas, indexed by [`Stage::index`].
    pub(crate) stages: Vec<HwCounters>,
    /// Per-partition accumulated deltas (sequential sample path only).
    pub(crate) partitions: Vec<HwCounters>,
    /// Everything attributed so far.
    pub(crate) total: HwCounters,
}

impl std::fmt::Debug for HwSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HwSession")
            .field("events", &self.group.available_events())
            .field("total", &self.total)
            .finish()
    }
}

impl HwSession {
    /// Opens and enables the standard group for the calling thread.
    pub(crate) fn open() -> Result<Self, PerfError> {
        let group = fm_perfmon::CounterGroup::standard()?;
        group.enable()?;
        let last = group.snapshot()?;
        Ok(Self {
            group,
            last,
            stages: vec![HwCounters::default(); Stage::ALL.len()],
            partitions: Vec::new(),
            total: HwCounters::default(),
        })
    }

    /// Reads the group and attributes the delta since the last read to
    /// `stage` (and to `partition` when it is not the sentinel).  Read
    /// failures are counted nowhere but never panic — a mid-run CPU
    /// hotplug should degrade, not kill the walk.
    pub(crate) fn attribute(&mut self, stage: Stage, partition: u32) {
        let Ok(delta) = self.group.delta_since(&mut self.last) else {
            return;
        };
        self.stages[stage.index()].add(&delta);
        self.total.add(&delta);
        if partition != crate::NO_PARTITION {
            let pi = partition as usize;
            if self.partitions.len() <= pi {
                self.partitions.resize(pi + 1, HwCounters::default());
            }
            self.partitions[pi].add(&delta);
        }
    }

    /// The events that actually opened on this host.
    pub(crate) fn events(&self) -> Vec<HwEvent> {
        self.group.available_events()
    }
}
