//! In-tree telemetry for the walk engines: per-stage spans, per-partition
//! counters, log2 latency histograms, and exporters.
//!
//! The paper's whole argument is observational — the sample/shuffle time
//! split, per-VP working-set residency, and shuffle traffic are what
//! justify frequency-aware grouping and the MCKP planner.  This crate
//! gives every engine that lens without external dependencies:
//!
//! * **Spans** ([`SpanEvent`]) attribute wall-clock intervals to a
//!   pipeline [`Stage`] (plan / shuffle / sample / IO / …) with thread,
//!   step, and partition attribution.  The coordinator records into its
//!   own lane; pool workers record into *lock-free per-worker buffers*
//!   ([`WorkerLog`]) that the coordinator drains at epoch boundaries —
//!   while a stage job runs, each lane has exactly one writer, so no
//!   atomics or locks are needed (the same disjoint-ownership argument
//!   as the engine's `DisjointSlice`).
//! * **Counters** ([`PartitionCounters`]) accumulate per-VP totals:
//!   steps, walker arrivals, PS/DS policy attribution, approximate edge
//!   bytes, peak occupancy.
//! * **Histograms** ([`Hist64`]) are 64-bucket log2 distributions used
//!   for stage latencies and shuffle bucket occupancy.
//! * **Faults** ([`faults`]) attribute the process's minor/major page
//!   faults between coordinator span boundaries to the span's stage,
//!   with the peak resident set seen there.
//! * **Exporters** ([`export`]) render the Chrome Trace Event Format
//!   (loadable in `chrome://tracing` / Perfetto), a JSONL metrics
//!   stream, and a human summary; [`tef`] validates emitted traces.
//!
//! Recording is always compiled in; [`Telemetry::off`] is the one off
//! switch, and every record path is a no-op behind it.

pub mod export;
pub mod faults;
pub mod hist;
pub mod json;
pub mod tef;

pub use faults::{ProcStat, StageFaults};
pub use hist::Hist64;

use std::path::Path;
use std::time::{Duration, Instant};

/// Pipeline stage a span is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Partition planning (relabel + MCKP).
    Plan,
    /// Shuffle passes (count + scatter + gather).
    Shuffle,
    /// Edge-sample stage.
    Sample,
    /// Disk or file IO (out-of-core streaming).
    Io,
    /// Output materialization (path rows, visit dumps).
    Output,
    /// One conformance-lattice cell.
    Cell,
    /// Snapshot encode + atomic checkpoint publication.
    Checkpoint,
    /// Snapshot load + state reconstruction at resume.
    Recovery,
    /// Anything else.
    Other,
}

impl Stage {
    /// Every stage, in export order.
    pub const ALL: [Stage; 9] = [
        Stage::Plan,
        Stage::Shuffle,
        Stage::Sample,
        Stage::Io,
        Stage::Output,
        Stage::Cell,
        Stage::Checkpoint,
        Stage::Recovery,
        Stage::Other,
    ];

    /// Stable display/export label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Plan => "plan",
            Stage::Shuffle => "shuffle",
            Stage::Sample => "sample",
            Stage::Io => "io",
            Stage::Output => "output",
            Stage::Cell => "cell",
            Stage::Checkpoint => "checkpoint",
            Stage::Recovery => "recovery",
            Stage::Other => "other",
        }
    }

    /// Index into per-stage tables.
    pub fn index(self) -> usize {
        match self {
            Stage::Plan => 0,
            Stage::Shuffle => 1,
            Stage::Sample => 2,
            Stage::Io => 3,
            Stage::Output => 4,
            Stage::Cell => 5,
            Stage::Checkpoint => 6,
            Stage::Recovery => 7,
            Stage::Other => 8,
        }
    }
}

/// Sentinel for spans/counters with no partition attribution.
pub const NO_PARTITION: u32 = u32::MAX;

/// Sentinel for spans with no step attribution.
pub const NO_STEP: u32 = u32::MAX;

/// One recorded wall-clock interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Pipeline stage.
    pub stage: Stage,
    /// Nanoseconds since the owning [`Telemetry`]'s origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Recording lane: 0 is the coordinator, `t + 1` is pool worker `t`.
    pub thread: u32,
    /// Walk step (iteration) the span belongs to, or [`NO_STEP`].
    pub step: u32,
    /// Vertex partition the span belongs to, or [`NO_PARTITION`].
    pub partition: u32,
}

/// Per-vertex-partition counter totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionCounters {
    /// Walker-steps sampled in this partition.
    pub steps: u64,
    /// Walker arrivals (shuffle deliveries) into this partition.
    pub walkers_in: u64,
    /// Steps sampled under the pre-sampling policy.
    pub ps_steps: u64,
    /// Steps sampled under the direct-sampling policy.
    pub ds_steps: u64,
    /// Approximate adjacency bytes touched (4 B per sampled edge read,
    /// plus 8 B per direct offset lookup — a documented lower bound, not
    /// a measured figure).
    pub edge_bytes: u64,
    /// Peak single-step occupancy (walkers resident at once).
    pub max_occupancy: u64,
    /// Peak sample-ring occupancy (in-flight walkers in the
    /// latency-hiding ring; 1 when the ring is off, 0 when the
    /// partition never ran).
    pub ring_occupancy: u64,
    /// Software-prefetch hints issued on this partition's behalf by the
    /// sample stage: the walker ring's, and the partition stream's one
    /// task ahead of it.
    pub prefetch_issued: u64,
}

impl PartitionCounters {
    fn absorb(&mut self, other: &PartitionCounters) {
        self.steps += other.steps;
        self.walkers_in += other.walkers_in;
        self.ps_steps += other.ps_steps;
        self.ds_steps += other.ds_steps;
        self.edge_bytes += other.edge_bytes;
        self.max_occupancy = self.max_occupancy.max(other.max_occupancy);
        self.ring_occupancy = self.ring_occupancy.max(other.ring_occupancy);
        self.prefetch_issued += other.prefetch_issued;
    }
}

/// Fixed-capacity, single-writer span buffer for one pool worker.
///
/// Workers push during a stage job; the coordinator drains after the
/// pool's dispatch returns (the epoch boundary), when every worker is
/// quiescent — so the buffer needs no synchronization at all.  Overflow
/// increments a drop counter instead of reallocating on the hot path.
#[derive(Debug)]
pub struct WorkerLog {
    events: Vec<SpanEvent>,
    capacity: usize,
    dropped: u64,
}

impl WorkerLog {
    /// Creates an empty lane holding at most `capacity` events between
    /// drains.
    pub fn new(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
        }
    }

    /// Records one span, or counts it as dropped when the lane is full.
    #[inline]
    pub fn record(&mut self, ev: SpanEvent) {
        if self.events.len() < self.capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Number of undrained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the lane holds no undrained events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Progress snapshot handed to the heartbeat sink.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Steps completed so far.
    pub step: usize,
    /// Total steps configured (upper bound; stochastic stops may end
    /// earlier).
    pub total_steps: usize,
    /// Live walker-steps executed so far.
    pub steps_taken: u64,
    /// Wall-clock time since the run started.
    pub elapsed: Duration,
}

/// Periodic progress reporting for long runs.
struct Heartbeat {
    every: Duration,
    last: Instant,
    sink: Box<dyn FnMut(&Progress)>,
}

impl std::fmt::Debug for Heartbeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heartbeat").field("every", &self.every).finish()
    }
}

/// Per-stage span totals (count + cumulative nanoseconds) and latency
/// histogram.
#[derive(Debug, Clone, Default)]
pub struct StageTotals {
    /// Number of spans recorded for this stage.
    pub spans: u64,
    /// Cumulative span duration in nanoseconds.
    pub total_ns: u64,
    /// Log2 histogram of span durations (nanoseconds).
    pub latency: Hist64,
    /// Page faults attributed at this stage's span boundaries; `None`
    /// until a boundary could read them.
    pub faults: Option<StageFaults>,
}

/// The telemetry recorder: one per run (or per merged report).
///
/// The coordinator owns it mutably; pool workers receive disjoint
/// [`WorkerLog`] lanes for the duration of one dispatch.  All recording
/// methods are no-ops when the recorder is disabled ([`Telemetry::off`]).
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    origin: Instant,
    /// Export process id: the TEF `pid` lane.  NUMA runs tag each
    /// socket's events with its own pid so merged traces keep
    /// per-socket attribution.
    pid: u32,
    events: Vec<SpanEvent>,
    event_capacity: usize,
    workers: Vec<WorkerLog>,
    worker_capacity: usize,
    partitions: Vec<PartitionCounters>,
    stages: Vec<StageTotals>,
    occupancy: Hist64,
    dropped: u64,
    /// Transient IO retries performed by the recovery layer (DiskGraph
    /// reads and checkpoint writes).
    io_retries: u64,
    heartbeat: Option<Heartbeat>,
    /// Where span boundaries read the fault counters; `None` when off
    /// or unreadable.
    proc_stat: Option<ProcStat>,
    /// The reading at the previous span boundary (or at creation).
    last_faults: Option<faults::FaultSample>,
}

/// Default cap on coordinator-lane events per run.
const DEFAULT_EVENT_CAPACITY: usize = 1 << 20;

/// Default cap on events per worker lane between drains.
const DEFAULT_WORKER_CAPACITY: usize = 1 << 14;

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// An enabled recorder with default buffer sizing, reading fault
    /// counters from `/proc/self`.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A disabled recorder: every record call is a no-op, and `/proc`
    /// is never opened (enabling it later does not count faults).
    /// Engines use this internally for untraced entry points.
    pub fn off() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            pid: 0,
            events: Vec::new(),
            event_capacity: DEFAULT_EVENT_CAPACITY,
            workers: Vec::new(),
            worker_capacity: DEFAULT_WORKER_CAPACITY,
            partitions: Vec::new(),
            stages: Stage::ALL.iter().map(|_| StageTotals::default()).collect(),
            occupancy: Hist64::default(),
            dropped: 0,
            io_retries: 0,
            heartbeat: None,
            proc_stat: None,
            last_faults: None,
        }
        .with_proc_dir(Path::new("/proc/self"))
    }

    /// Reads fault counters from the `/proc/<pid>` directory `dir`
    /// instead of `/proc/self` (a disabled recorder opens nothing).
    pub fn with_proc_dir(mut self, dir: &Path) -> Self {
        self.proc_stat = self.enabled.then(|| ProcStat::open(dir)).flatten();
        self.last_faults = self.proc_stat.as_mut().and_then(ProcStat::read);
        self
    }

    /// Tags exported events with `pid` (the TEF process lane; NUMA runs
    /// use one pid per socket).
    pub fn with_pid(mut self, pid: u32) -> Self {
        self.pid = pid;
        self
    }

    /// The export process id.
    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Runtime toggle.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is active.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since this recorder's origin (for span start stamps).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The origin instant (worker lanes stamp spans against it).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records one coordinator-lane span.
    #[inline]
    pub fn span(&mut self, ev: SpanEvent) {
        if !self.is_on() {
            return;
        }
        if let Some(now) = self.proc_stat.as_mut().and_then(ProcStat::read) {
            if let Some(last) = self.last_faults {
                let f = self.stages[ev.stage.index()].faults.get_or_insert_with(Default::default);
                f.attribute(&last, &now);
            }
            self.last_faults = Some(now);
        }
        self.note_stage(ev.stage, ev.dur_ns);
        if self.events.len() < self.event_capacity {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Convenience: records a coordinator span from a start instant
    /// captured with [`Telemetry::now_ns`].
    #[inline]
    pub fn span_since(&mut self, stage: Stage, start_ns: u64, step: u32, partition: u32) {
        if !self.is_on() {
            return;
        }
        let now = self.now_ns();
        self.span(SpanEvent {
            stage,
            start_ns,
            dur_ns: now.saturating_sub(start_ns),
            thread: 0,
            step,
            partition,
        });
    }

    fn note_stage(&mut self, stage: Stage, dur_ns: u64) {
        let t = &mut self.stages[stage.index()];
        t.spans += 1;
        t.total_ns += dur_ns;
        t.latency.record(dur_ns);
    }

    /// Ensures at least `n` worker lanes exist and returns them for a
    /// dispatch.  The caller hands lane `t` to worker `t` (disjointly)
    /// and calls [`Telemetry::drain_workers`] after the dispatch
    /// returns.
    pub fn worker_lanes(&mut self, n: usize) -> &mut [WorkerLog] {
        while self.workers.len() < n {
            self.workers.push(WorkerLog::new(self.worker_capacity));
        }
        &mut self.workers[..n]
    }

    /// Drains every worker lane into the main event buffer (the epoch
    /// -boundary protocol: called only while all workers are quiescent).
    pub fn drain_workers(&mut self) {
        if !self.is_on() {
            return;
        }
        for i in 0..self.workers.len() {
            let lane = std::mem::replace(
                &mut self.workers[i].events,
                Vec::with_capacity(self.worker_capacity.min(1024)),
            );
            for ev in lane {
                self.note_stage(ev.stage, ev.dur_ns);
                if self.events.len() < self.event_capacity {
                    self.events.push(ev);
                } else {
                    self.dropped += 1;
                }
            }
            self.dropped += self.workers[i].dropped;
            self.workers[i].dropped = 0;
        }
    }

    /// Sizes the per-partition counter table (idempotent; grows only).
    pub fn ensure_partitions(&mut self, n: usize) {
        if self.partitions.len() < n {
            self.partitions.resize(n, PartitionCounters::default());
        }
    }

    /// Accumulates one step's worth of counters for partition `pi`:
    /// `occupancy` walkers arrived and were each sampled once under the
    /// given policy.
    #[inline]
    pub fn record_partition_step(&mut self, pi: usize, occupancy: u64, is_ps: bool) {
        if !self.is_on() || occupancy == 0 {
            return;
        }
        self.ensure_partitions(pi + 1);
        let c = &mut self.partitions[pi];
        c.steps += occupancy;
        c.walkers_in += occupancy;
        if is_ps {
            c.ps_steps += occupancy;
            // PS reads one pre-sampled 4 B slot per step.
            c.edge_bytes += 4 * occupancy;
        } else {
            c.ds_steps += occupancy;
            // DS reads an 8 B offset plus a 4 B target per step.
            c.edge_bytes += 12 * occupancy;
        }
        c.max_occupancy = c.max_occupancy.max(occupancy);
        self.occupancy.record(occupancy);
    }

    /// Records one step's latency-hiding ring statistics for partition
    /// `pi`: the ring occupancy achieved (in-flight walkers, capped by
    /// the partition's live walker count) and the software-prefetch
    /// hints issued for it, by the ring or ahead of it.  A no-op when
    /// the partition never ran (`occupancy == 0 && issued == 0`), so
    /// idle partitions report zeros rather than phantom depth-1 rings.
    #[inline]
    pub fn record_partition_ring(&mut self, pi: usize, occupancy: u64, issued: u64) {
        if !self.is_on() || (occupancy == 0 && issued == 0) {
            return;
        }
        self.ensure_partitions(pi + 1);
        let c = &mut self.partitions[pi];
        c.ring_occupancy = c.ring_occupancy.max(occupancy);
        c.prefetch_issued += issued;
    }

    /// Adds `bytes` of streamed adjacency data to partition `pi`'s
    /// byte counter (out-of-core reads).
    #[inline]
    pub fn record_partition_bytes(&mut self, pi: usize, bytes: u64) {
        if !self.is_on() {
            return;
        }
        self.ensure_partitions(pi + 1);
        self.partitions[pi].edge_bytes += bytes;
    }

    /// Installs a periodic progress heartbeat firing at most every
    /// `every` (checked from [`Telemetry::tick`]).
    pub fn set_heartbeat(&mut self, every: Duration, sink: impl FnMut(&Progress) + 'static) {
        self.heartbeat = Some(Heartbeat {
            every,
            last: Instant::now(),
            sink: Box::new(sink),
        });
    }

    /// Step-boundary hook: fires the heartbeat when its interval has
    /// elapsed.  Costs one `Instant::now` per call when a heartbeat is
    /// installed, nothing otherwise.
    #[inline]
    pub fn tick(&mut self, step: usize, total_steps: usize, steps_taken: u64) {
        if !self.is_on() {
            return;
        }
        let origin = self.origin;
        if let Some(hb) = self.heartbeat.as_mut() {
            let now = Instant::now();
            if now.duration_since(hb.last) >= hb.every {
                hb.last = now;
                (hb.sink)(&Progress {
                    step,
                    total_steps,
                    steps_taken,
                    elapsed: now.duration_since(origin),
                });
            }
        }
    }

    /// Every recorded (and drained) span.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// The per-partition counter table.
    pub fn partition_counters(&self) -> &[PartitionCounters] {
        &self.partitions
    }

    /// Totals for one stage.
    pub fn stage(&self, stage: Stage) -> &StageTotals {
        &self.stages[stage.index()]
    }

    /// The shuffle bucket-occupancy histogram (walkers per partition
    /// per step).
    pub fn occupancy_hist(&self) -> &Hist64 {
        &self.occupancy
    }

    /// Events dropped due to buffer caps.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Adds `n` transient IO retries (recovery layer: faulted DiskGraph
    /// reads, checkpoint writes).
    #[inline]
    pub fn record_io_retries(&mut self, n: u64) {
        if !self.is_on() {
            return;
        }
        self.io_retries += n;
    }

    /// Transient IO retries recorded so far.
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// The run's fault totals: every stage's deltas summed, the largest
    /// resident set of any; `None` when no boundary read the counters.
    pub fn fault_total(&self) -> Option<StageFaults> {
        self.stages.iter().filter_map(|t| t.faults).reduce(|mut a, b| {
            a.absorb(&b);
            a
        })
    }

    /// Sum of per-partition step counters (must equal the engine's
    /// `steps_taken` for a traced run).
    pub fn partition_steps_total(&self) -> u64 {
        self.partitions.iter().map(|c| c.steps).sum()
    }

    /// Merges another recorder's events and counters into this one
    /// without double-counting: events keep their own pid tag (see
    /// [`export::write_chrome_trace`]), partition counters are summed
    /// index-wise, and histograms are bucket-summed.  Used by the NUMA
    /// paths, where per-socket recorders merge into one report.
    pub fn absorb(&mut self, other: Telemetry) {
        if !self.is_on() {
            return;
        }
        let mut other = other;
        other.drain_workers();
        for mut ev in other.events {
            // Preserve the other recorder's pid by encoding it in the
            // thread lane when pids differ: thread lanes are per-pid in
            // the TEF export, so shift foreign lanes past ours.
            if other.pid != self.pid {
                ev.thread |= (other.pid + 1) << 16;
            }
            self.note_stage(ev.stage, ev.dur_ns);
            if self.events.len() < self.event_capacity {
                self.events.push(ev);
            } else {
                self.dropped += 1;
            }
        }
        for (mine, theirs) in self.stages.iter_mut().zip(&other.stages) {
            if let Some(f) = theirs.faults {
                mine.faults.get_or_insert_with(Default::default).absorb(&f);
            }
        }
        // The other recorder's boundaries are later than ours, so the
        // faults up to its last one are counted; start from there.
        if other.last_faults.is_some() {
            self.last_faults = other.last_faults;
        }
        self.ensure_partitions(other.partitions.len());
        for (mine, theirs) in self.partitions.iter_mut().zip(&other.partitions) {
            mine.absorb(theirs);
        }
        self.occupancy.absorb(&other.occupancy);
        self.dropped += other.dropped;
        self.io_retries += other.io_retries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(stage: Stage, dur: u64) -> SpanEvent {
        SpanEvent {
            stage,
            start_ns: 0,
            dur_ns: dur,
            thread: 0,
            step: 0,
            partition: NO_PARTITION,
        }
    }

    #[test]
    fn spans_accumulate_per_stage() {
        let mut t = Telemetry::new();
        t.span(ev(Stage::Sample, 100));
        t.span(ev(Stage::Sample, 300));
        t.span(ev(Stage::Shuffle, 50));
        assert_eq!(t.stage(Stage::Sample).spans, 2);
        assert_eq!(t.stage(Stage::Sample).total_ns, 400);
        assert_eq!(t.stage(Stage::Shuffle).spans, 1);
        assert_eq!(t.events().len(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Telemetry::off();
        t.span(ev(Stage::Sample, 100));
        t.record_partition_step(3, 10, true);
        assert!(t.events().is_empty());
        assert_eq!(t.partition_steps_total(), 0);
        t.set_enabled(true);
        t.span(ev(Stage::Sample, 100));
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn partition_counters_attribute_policy() {
        let mut t = Telemetry::new();
        t.record_partition_step(0, 10, true);
        t.record_partition_step(1, 4, false);
        t.record_partition_step(0, 6, true);
        let c = t.partition_counters();
        assert_eq!(c[0].steps, 16);
        assert_eq!(c[0].ps_steps, 16);
        assert_eq!(c[0].ds_steps, 0);
        assert_eq!(c[0].max_occupancy, 10);
        assert_eq!(c[1].ds_steps, 4);
        assert_eq!(c[1].edge_bytes, 48);
        assert_eq!(t.partition_steps_total(), 20);
    }

    #[test]
    fn worker_lanes_drain_at_epoch_boundary() {
        let mut t = Telemetry::new();
        {
            let lanes = t.worker_lanes(2);
            lanes[0].record(ev(Stage::Sample, 5));
            lanes[1].record(ev(Stage::Sample, 7));
            lanes[1].record(ev(Stage::Shuffle, 9));
        }
        t.drain_workers();
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.stage(Stage::Sample).spans, 2);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn worker_lane_overflow_counts_drops() {
        let mut log = WorkerLog::new(2);
        for _ in 0..5 {
            log.record(ev(Stage::Sample, 1));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped, 3);
    }

    #[test]
    fn heartbeat_fires_on_interval() {
        let mut t = Telemetry::new();
        let fired = std::rc::Rc::new(std::cell::Cell::new(0u32));
        let f = fired.clone();
        t.set_heartbeat(Duration::ZERO, move |p| {
            assert!(p.total_steps >= p.step);
            f.set(f.get() + 1);
        });
        t.tick(1, 10, 100);
        t.tick(2, 10, 200);
        assert_eq!(fired.get(), 2);
    }

    #[test]
    fn absorb_merges_without_double_counting() {
        let mut a = Telemetry::new().with_pid(0);
        let mut b = Telemetry::new().with_pid(1);
        a.record_partition_step(0, 10, true);
        b.record_partition_step(0, 5, false);
        b.span(ev(Stage::Sample, 42));
        a.absorb(b);
        if !a.is_on() {
            return;
        }
        assert_eq!(a.partition_counters()[0].steps, 15);
        assert_eq!(a.partition_steps_total(), 15);
        // The foreign event keeps socket attribution via its lane tag.
        assert_eq!(a.events().len(), 1);
        assert!(a.events()[0].thread >= 1 << 16);
    }
}
