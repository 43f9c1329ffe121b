//! The FlashMob execution engine: plan, then iterate shuffle → sample.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use fm_graph::mem::advise_huge;
use fm_graph::relabel::{sort_by_degree, Relabeling};
use fm_graph::{Csr, VertexId};
use fm_memsim::{AddressSpace, NullProbe, Probe};
use fm_recover::{
    CheckpointSpec, FaultPolicy, Fingerprint, PsPartState, RecoverError, WalkSnapshot,
};
use fm_rng::{split_stream, Rng64, Xorshift64Star};
use fm_telemetry::{SpanEvent, Stage, Telemetry, NO_PARTITION, NO_STEP};

use crate::algorithm::Verdict;
use crate::checkpoint::{self, Checkpointer, RunHeader};
use crate::output::WalkOutput;
use crate::partition::SamplePolicy;
use crate::plan::{Plan, Planner};
use crate::pool::{DisjointSlice, PoolStats, WorkerPool};
use crate::sample::ring::Pf;
use crate::sample::{
    apply_exit, hint_ds_row, hint_partition, node2vec_adjacent, propose, sample_partition,
    worth_hinting, AddrMap, AlgoCtx, PsBuffers, TaskIo, HINT_LINES_PER_WALKER, RESERVE_FACTOR,
};
use crate::shuffle::{ShuffleAddrs, ShuffleScratch, Shuffler};
use crate::walker::{fold_init, initialize, WalkerInit};
use crate::{WalkConfig, WalkError, DEAD};

/// Wall-clock time attributed to each pipeline stage (Figure 9a).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// Edge-sample stage.
    pub sample: Duration,
    /// Shuffle stage (count + scatter + gather passes).
    pub shuffle: Duration,
    /// The rest of the episode's wall clock: the prologue
    /// ([`RunStats::init`]), path-row recording, checkpoint hand-off and
    /// the loop's own bookkeeping.  Computed as `wall - sample - shuffle`,
    /// so the three fields tile [`RunStats::wall`] exactly.
    pub other: Duration,
}

/// Execution statistics of one run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Number of walkers.
    pub walkers: usize,
    /// Live walker-steps executed.
    pub steps_taken: u64,
    /// Total wall-clock time.
    pub wall: Duration,
    /// Per-stage breakdown.
    pub stages: StageTimes,
    /// The episode prologue: walker placement plus walker-array and PS
    /// buffer set-up, before the first step.  A part of
    /// [`StageTimes::other`], not an addition to it.
    pub init: Duration,
    /// Walker-steps executed per partition.
    pub per_partition_steps: Vec<u64>,
    /// Software-prefetch hints issued on each partition's behalf by the
    /// sample stage: the walker ring's ([`crate::sample::ring`]) plus
    /// the partition stream's ([`Self::per_partition_stream_hints`]).
    /// All zeros means nothing was hinted.  Not checkpointed: a resumed
    /// run counts only its own hints.
    pub per_partition_prefetches: Vec<u64>,
    /// The share of [`Self::per_partition_prefetches`] issued one task
    /// ahead, streaming the partition in before its walkers
    /// (`sample::hint_partition`; zero where the occupancy guard
    /// skipped it).  The remainder is the ring's: the two are equal
    /// exactly when the ring is off.
    pub per_partition_stream_hints: Vec<u64>,
    /// Pre-samples each PS partition's refills drew into its buffers
    /// (zero for a DS partition).  Like the two lanes above, exact for
    /// a seed and not checkpointed.
    pub per_partition_ps_produced: Vec<u64>,
    /// Pre-samples each PS partition's refills skipped unmade
    /// (`sample::PsBuffers`, reserved generations): with
    /// [`Self::per_partition_ps_produced`], the length of the RNG stream
    /// its refills stood for, whichever form they took.
    pub per_partition_ps_reserved: Vec<u64>,
    /// Samples each PS partition handed to walkers.
    pub per_partition_ps_consumed: Vec<u64>,
    /// Per-vertex visit counts in the *sorted* ID space, when
    /// `record_visits` was set.
    pub visits_sorted: Option<Vec<u64>>,
    /// Worker-pool overhead: threads spawned (exactly the configured
    /// thread count, once per run — never O(steps)), epochs dispatched,
    /// and cumulative worker idle time.  All zero for sequential runs.
    pub pool: PoolStats,
}

impl RunStats {
    /// Adds `other` — another run of the same engine, or of another
    /// instance of it — into this total.  Scalars, stage times and pool
    /// counters add; the per-partition lanes and visit counts add index
    /// by index (growing to the longer), which means something only when
    /// both runs used one plan.
    pub fn absorb(&mut self, other: &RunStats) {
        fn add(into: &mut Vec<u64>, from: &[u64]) {
            if into.len() < from.len() {
                into.resize(from.len(), 0);
            }
            for (a, b) in into.iter_mut().zip(from) {
                *a += b;
            }
        }
        self.walkers += other.walkers;
        self.steps_taken += other.steps_taken;
        self.wall += other.wall;
        self.stages.sample += other.stages.sample;
        self.stages.shuffle += other.stages.shuffle;
        self.stages.other += other.stages.other;
        self.init += other.init;
        self.pool.absorb(&other.pool);
        add(&mut self.per_partition_steps, &other.per_partition_steps);
        add(
            &mut self.per_partition_prefetches,
            &other.per_partition_prefetches,
        );
        add(
            &mut self.per_partition_stream_hints,
            &other.per_partition_stream_hints,
        );
        add(
            &mut self.per_partition_ps_produced,
            &other.per_partition_ps_produced,
        );
        add(
            &mut self.per_partition_ps_reserved,
            &other.per_partition_ps_reserved,
        );
        add(
            &mut self.per_partition_ps_consumed,
            &other.per_partition_ps_consumed,
        );
        if let Some(visits) = &other.visits_sorted {
            add(self.visits_sorted.get_or_insert_with(Vec::new), visits);
        }
    }

    /// Average wall-clock nanoseconds per walker-step — the paper's
    /// headline metric.
    pub fn per_step_ns(&self) -> f64 {
        if self.steps_taken == 0 {
            return 0.0;
        }
        self.wall.as_nanos() as f64 / self.steps_taken as f64
    }

    /// Per-stage nanoseconds per walker-step.
    pub fn stage_ns_per_step(&self) -> (f64, f64, f64) {
        if self.steps_taken == 0 {
            return (0.0, 0.0, 0.0);
        }
        let s = self.steps_taken as f64;
        (
            self.stages.sample.as_nanos() as f64 / s,
            self.stages.shuffle.as_nanos() as f64 / s,
            self.stages.other.as_nanos() as f64 / s,
        )
    }

    /// Prologue nanoseconds per walker placed.
    pub fn init_ns_per_walker(&self) -> f64 {
        if self.walkers == 0 {
            return 0.0;
        }
        self.init.as_nanos() as f64 / self.walkers as f64
    }

    /// Fraction of worker capacity spent idle: cumulative worker idle
    /// time over `threads × wall`.  0.0 for sequential runs or
    /// zero-length walls — never NaN.
    pub fn pool_idle_ratio(&self) -> f64 {
        let denom = self.pool.spawned as f64 * self.wall.as_secs_f64();
        if denom <= 0.0 {
            return 0.0;
        }
        (self.pool.idle.as_secs_f64() / denom).min(1.0)
    }

    /// Software prefetches issued by the sample stage, as `(by the
    /// walker ring, by the partition stream)`.
    pub fn prefetch_totals(&self) -> (u64, u64) {
        let all = self.per_partition_prefetches.iter().sum::<u64>();
        let stream = self.per_partition_stream_hints.iter().sum::<u64>();
        (all - stream, stream)
    }

    /// Pre-samples over all partitions, as `(produced, reserved,
    /// consumed)`.
    pub fn pre_sample_totals(&self) -> (u64, u64, u64) {
        (
            self.per_partition_ps_produced.iter().sum(),
            self.per_partition_ps_reserved.iter().sum(),
            self.per_partition_ps_consumed.iter().sum(),
        )
    }

    /// Percentage of wall-clock time attributed to each stage:
    /// `(sample, shuffle, other)`.  All zeros when the wall is zero —
    /// never NaN.
    pub fn stage_shares(&self) -> (f64, f64, f64) {
        let wall = self.wall.as_nanos() as f64;
        if wall <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            100.0 * self.stages.sample.as_nanos() as f64 / wall,
            100.0 * self.stages.shuffle.as_nanos() as f64 / wall,
            100.0 * self.stages.other.as_nanos() as f64 / wall,
        )
    }

    /// Human-readable multi-line summary (the `--stats` block).  Every
    /// ratio is guarded for `steps_taken == 0` and zero walls, so the
    /// output never contains NaN or infinity.
    pub fn human_summary(&self) -> String {
        let (sample, shuffle, other) = self.stage_ns_per_step();
        let (p_sample, p_shuffle, p_other) = self.stage_shares();
        let mut out = format!(
            "walkers: {}, steps taken: {}, wall: {:.3?}\n",
            self.walkers, self.steps_taken, self.wall
        );
        out.push_str(&format!("per-step: {:.1} ns\n", self.per_step_ns()));
        out.push_str(&format!(
            "stages (ns/step): sample {sample:.1}, shuffle {shuffle:.1}, other {other:.1}\n"
        ));
        out.push_str(&format!(
            "stage share: sample {p_sample:.1}%, shuffle {p_shuffle:.1}%, other {p_other:.1}%\n"
        ));
        out.push_str(&format!(
            "init: {:.1} ns/walker ({:.3?}, part of other)\n",
            self.init_ns_per_walker(),
            self.init
        ));
        let (ring, stream) = self.prefetch_totals();
        if ring + stream > 0 {
            out.push_str(&format!(
                "prefetch: {} software prefetches issued ({:.2} per step): \
                 {ring} by the walker ring, {stream} streaming partitions in\n",
                ring + stream,
                (ring + stream) as f64 / self.steps_taken.max(1) as f64
            ));
        }
        let (produced, reserved, consumed) = self.pre_sample_totals();
        if produced + reserved > 0 {
            out.push_str(&format!(
                "pre-samples: {produced} produced, {reserved} reserved, {consumed} consumed \
                 ({:.1} per consume)\n",
                (produced + reserved) as f64 / consumed.max(1) as f64
            ));
        }
        if reserved > 0 {
            // The kernel is picked once per process, from the CPU.
            out.push_str(&format!("checked skip: {}\n", fm_rng::skip_kernel()));
        }
        if self.pool.spawned > 0 {
            out.push_str(&format!(
                "pool: {} threads spawned, {} epochs dispatched, {:.1?} cumulative worker idle (idle ratio {:.1}%)\n",
                self.pool.spawned,
                self.pool.epochs,
                self.pool.idle,
                100.0 * self.pool_idle_ratio(),
            ));
        }
        out
    }

    /// Visit counts translated to the caller's original vertex IDs.
    pub fn visits_original(&self, relabel: &Relabeling) -> Option<Vec<u64>> {
        let sorted = self.visits_sorted.as_ref()?;
        let mut out = vec![0u64; sorted.len()];
        for (new_id, &c) in sorted.iter().enumerate() {
            out[relabel.to_old(new_id as VertexId) as usize] = c;
        }
        Some(out)
    }
}

/// Robustness options of a run: checkpointing and resume, and fault
/// injection on every IO the run makes — the checkpoint writes of both
/// engines, and a disk graph's block reads
/// ([`crate::oocore::run_ooc_with`]).
///
/// An in-memory run that writes no checkpoints makes no IO: it refuses
/// `fault` with [`WalkError::Config`].
#[derive(Debug, Default)]
pub struct RunOptions {
    /// Write crash-consistent checkpoints per this spec.
    pub checkpoint: Option<CheckpointSpec>,
    /// Resume from the latest checkpoint in this directory instead of
    /// starting fresh.
    pub resume_from: Option<PathBuf>,
    /// Inject seeded faults into the run's IO (tests, crash drills).
    pub fault: Option<FaultPolicy>,
}

impl RunOptions {
    /// Enables checkpointing per `spec`.
    pub fn checkpoint(mut self, spec: CheckpointSpec) -> Self {
        self.checkpoint = Some(spec);
        self
    }

    /// Resumes from the latest checkpoint in `dir`.
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(dir.into());
        self
    }

    /// Injects seeded faults into the run's IO.
    pub fn fault(mut self, policy: FaultPolicy) -> Self {
        self.fault = Some(policy);
        self
    }
}

/// The prepared FlashMob engine for one graph + configuration.
///
/// Construction performs the paper's pre-processing: degree-descending
/// relabeling (counting sort) and MCKP-based partition planning.  The
/// engine can then be run any number of times; each
/// [`FlashMob::run_with`] is deterministic under the configured seed.
#[derive(Debug)]
pub struct FlashMob {
    graph: Csr,
    relabel: Arc<Relabeling>,
    plan: Plan,
    config: WalkConfig,
    /// Per-edge cumulative weights (weighted walks only), parallel to the
    /// sorted graph's targets array.
    cum_weights: Option<Vec<f32>>,
    /// Bloom negative edge filter (second-order walks only).
    edge_bloom: Option<fm_graph::bloom::EdgeBloom>,
    /// Simulated base addresses for probe attribution.
    addr: EngineAddrs,
    /// Per-partition latency-hiding ring depth for the sample stage
    /// (see [`crate::sample::ring`]).  Resolved once at build time:
    /// [`WalkConfig::ring_depth`] > the planner's per-partition auto
    /// choice (ring on only for LLC-exceeding working sets).  Purely a
    /// performance knob: the walk output is bit-identical at every
    /// depth, so it is *not* part of `config_tag` and checkpoints
    /// resume across depths.
    ring_depths: Vec<usize>,
    /// Ring depth of the node2vec stage ([`FlashMob::
    /// sample_stage_node2vec`]): its proposal rounds and its resolve
    /// rounds reach across the whole graph, so the working set is the
    /// probe chain's — bloom filter plus CSR — not a partition's.
    /// [`WalkConfig::ring_depth`] overrides it as it does `ring_depths`.
    probe_ring_depth: usize,
    /// The partition stream's occupancy guard
    /// ([`HINT_LINES_PER_WALKER`]; see [`worth_hinting`]).  A field only
    /// so the tests can force it to *always* (`usize::MAX`) and *never*
    /// (0); like the ring depth it cannot change a walk.
    hint_lines_per_walker: usize,
    /// When a PS task reserves its refills instead of producing them
    /// ([`RESERVE_FACTOR`]; see `sample::reserves`).  A field for the
    /// same reason: the tests force *always* (0) and *never*
    /// (`usize::MAX`), and no walk, digest or snapshot may notice.
    reserve_factor: usize,
    /// Wall-clock time spent in pre-processing (relabel + planning),
    /// attributed to the Plan stage of traced runs.
    plan_wall: Duration,
    /// The PS buffers of the last finished run, parked here so the next
    /// run resets their cursors instead of allocating and zeroing
    /// `O(|E|)` bytes.  Empty until the first run returns, and while a
    /// run holds them: a concurrent run allocates its own set.
    ps_pool: Mutex<Option<PsSet>>,
}

#[derive(Debug, Clone, Copy, Default)]
struct EngineAddrs {
    /// What every sample task touches; its `scur` is the shuffled array.
    map: AddrMap,
    w: u64,
    /// The shuffle's bin lane (the gather writes `W_{i+1}` over it).
    lane: u64,
}

/// One run's PS buffers: `Some` for every pre-sampling partition.
type PsSet = Vec<Option<PsBuffers>>;

/// What the node2vec stage's ring stages share within one worker's
/// partition range: the probe, the range's PS buffers (read by the
/// hints, consumed by `execute`) and the range's hint counters.
struct ProposalLanes<'a, P> {
    probe: &'a mut P,
    /// `ps[pi - first]` is partition `pi`'s buffers.
    ps: &'a mut [Option<PsBuffers>],
    first: usize,
    /// `hints[pi - first]` is partition `pi`'s counter.
    hints: &'a mut [u64],
}

/// One node2vec sample worker's lanes, kept in [`Scratch`] across steps
/// so that a step allocates nothing once they have grown.  Aligned so
/// that no two workers' lanes share a cache line (or the pair of lines
/// the adjacent-line prefetcher fetches): a worker writes its `Vec`
/// headers on every push.
#[derive(Default)]
#[repr(align(128))]
struct Node2vecLane {
    /// One stream per partition of the worker's range, continued across
    /// the rounds of a step.
    rngs: Vec<Xorshift64Star>,
    /// Unresolved connectivity queries: (prev, slot, candidate, scaled
    /// draw), the sort key carried in the entry.
    pending: Vec<(VertexId, u32, VertexId, f64)>,
    /// The slots whose candidate the last resolve round rejected.
    redraw: Vec<u32>,
}

/// The lanes a step works in.  Each is rewritten before it is read —
/// within the step for the walker lanes, from the first count pass for
/// the shuffle scratch — so no snapshot carries them and a resumed run
/// starts them from zeroes.  `w`'s gather target is the shuffle's bin
/// lane: the gather overwrites each walker's bin with its next vertex,
/// and the lane and `w` swap at the end of a step.  `prefetches` and
/// `stream_hints` are the exception that accumulates: they count this
/// process's hints, and a resumed run reports only its own
/// ([`RunStats::per_partition_prefetches`] and its stream share).
struct Scratch {
    /// `w` grouped by partition, and the vertices sampled for it.
    sw: Vec<VertexId>,
    snext: Vec<VertexId>,
    /// `prev` in `sw`'s order (empty when there is no auxiliary lane).
    sprev: Vec<VertexId>,
    /// Gather target for `prev` (second-order only; an origin never
    /// moves, so stateful programs need none).
    prev_next: Vec<VertexId>,
    shuffle: ShuffleScratch,
    /// Partition ranges of the parallel sample stage: recomputed each
    /// step as the walker distribution shifts, but in place.
    sample_ranges: Vec<(usize, usize)>,
    /// The node2vec stage's worker lanes, one a thread (second-order
    /// walks only).
    node2vec: Vec<Node2vecLane>,
    prefetches: Vec<u64>,
    stream_hints: Vec<u64>,
}

impl Scratch {
    fn new(engine: &FlashMob) -> Self {
        let walkers = engine.config.walkers;
        let lane = |used: bool| {
            let len = if used { walkers } else { 0 };
            let mut v = Vec::with_capacity(len);
            advise_huge(&v);
            v.resize(len, 0 as VertexId);
            v
        };
        Self {
            sw: lane(true),
            snext: lane(true),
            sprev: lane(engine.carries_aux()),
            prev_next: lane(engine.config.algorithm.is_second_order()),
            shuffle: ShuffleScratch::default(),
            sample_ranges: Vec::with_capacity(engine.config.threads),
            node2vec: (0..engine.config.threads.max(1))
                .filter(|_| engine.config.algorithm.is_second_order())
                .map(|_| Node2vecLane::default())
                .collect(),
            prefetches: vec![0; engine.plan.partitions.len()],
            stream_hints: vec![0; engine.plan.partitions.len()],
        }
    }
}

/// A run between two iterations: what a [`WalkSnapshot`] carries, field
/// for field, plus the [`Scratch`] lanes it does not.
///
/// [`EpochState::snapshot`] and [`EpochState::restore`] are the only
/// places that name the snapshot's fields, so the two directions cannot
/// drift apart.  Everything else a run needs (plan, shuffler, PS layout)
/// is a function of graph + config and is rebuilt identically.  The
/// state owns its lanes for the whole run; a step allocates nothing.
struct EpochState {
    /// The next iteration to run: `iter` of them are complete, and `w`
    /// is exactly its input.
    iter: usize,
    /// Live walker-steps so far, a resumed run's predecessors included.
    steps_taken: u64,
    /// Walker `j`'s vertex in the sorted ID space, or [`DEAD`].
    w: Vec<VertexId>,
    /// The auxiliary lane (see [`FlashMob::carries_aux`]): walker `j`'s
    /// previous vertex for second-order walks, its immutable origin for
    /// stateful programs; empty otherwise.
    prev: Vec<VertexId>,
    visits: Option<Vec<u64>>,
    per_partition_steps: Vec<u64>,
    /// PS buffers persist across iterations, and across runs (they are
    /// taken from, and parked back into, the engine's `ps_pool`).
    ps: PsSet,
    /// `W_0 ..= W_iter` when paths are recorded, else empty.
    rows: Vec<Vec<VertexId>>,
    scratch: Scratch,
}

/// A copy of `w` for the path rows, advised onto huge pages before it
/// is written: at paths-recorded scale the rows are the run's largest
/// allocation, written once and streamed out (DESIGN §23).
fn path_row(w: &[VertexId]) -> Vec<VertexId> {
    let mut row = Vec::with_capacity(w.len());
    advise_huge(&row);
    row.extend_from_slice(w);
    row
}

impl EpochState {
    /// The state before iteration 0: walkers placed, nothing sampled.
    fn fresh(engine: &FlashMob) -> Self {
        let config = &engine.config;
        // Walker initialization (in the sorted ID space; fixed starts are
        // translated from original IDs).
        let init = match &config.init {
            WalkerInit::Fixed(starts) => {
                WalkerInit::Fixed(starts.iter().map(|&v| engine.relabel.to_new(v)).collect())
            }
            other => other.clone(),
        };
        let w = initialize(&engine.graph, &init, config.walkers, config.seed);
        Self {
            iter: 0,
            steps_taken: 0,
            // A stateful program's origin is the initial position,
            // exactly `w` at iteration 0; a second-order walk has no
            // history yet and does not read the lane in iteration 0.
            prev: if engine.carries_aux() {
                w.clone()
            } else {
                Vec::new()
            },
            visits: config
                .record_visits
                .then(|| vec![0u64; engine.graph.vertex_count()]),
            per_partition_steps: vec![0; engine.plan.partitions.len()],
            ps: engine.take_ps_set(),
            rows: if config.record_paths {
                vec![path_row(&w)]
            } else {
                Vec::new()
            },
            w,
            scratch: Scratch::new(engine),
        }
    }

    /// The state `snap` was taken from, after checking that it has this
    /// engine's shape; [`checkpoint::resume`] has checked its header.
    fn restore(engine: &FlashMob, snap: WalkSnapshot) -> Result<Self, WalkError> {
        let mismatch = |detail: String| WalkError::Recover(RecoverError::Mismatch { detail });
        let config = &engine.config;
        let (walkers, steps) = (config.walkers, config.max_steps());
        let parts = engine.plan.partitions.len();
        let WalkSnapshot {
            iter_next,
            steps_taken,
            per_partition_steps,
            w,
            prev,
            visits,
            ps,
            rows,
            ..
        } = snap;
        if w.len() != walkers || iter_next as usize > steps {
            return Err(mismatch(format!(
                "snapshot has {} walker lanes at iteration {iter_next} of {steps}",
                w.len()
            )));
        }
        if engine.carries_aux() && prev.len() != walkers {
            return Err(mismatch(
                "snapshot is missing per-walker auxiliary state (prev/origin)".into(),
            ));
        }
        if config.record_visits && visits.len() != engine.graph.vertex_count() {
            return Err(mismatch(
                "snapshot visit counters do not match the graph".into(),
            ));
        }
        if per_partition_steps.len() != parts || ps.len() != parts {
            return Err(mismatch(format!(
                "snapshot has {} partitions, plan has {parts}",
                ps.len()
            )));
        }
        if config.record_paths
            && (rows.len() != iter_next as usize + 1 || rows.iter().any(|r| r.len() != walkers))
        {
            return Err(mismatch("snapshot path rows are inconsistent".into()));
        }
        let mut buffers = engine.take_ps_set();
        for (pb, state) in buffers.iter_mut().zip(ps) {
            match (pb.as_mut(), state) {
                (Some(b), Some(s)) => {
                    if !b.import(s.buf, s.cursor) {
                        return Err(mismatch(
                            "pre-sample buffer shapes do not match the plan".into(),
                        ));
                    }
                }
                (None, None) => {}
                _ => {
                    return Err(mismatch(
                        "pre-sample partition layout does not match the plan".into(),
                    ));
                }
            }
        }
        // `prev` and `rows` come as they are: the configuration tag vouches
        // that the writer left them empty where this run does not use them.
        Ok(Self {
            iter: iter_next as usize,
            steps_taken,
            w,
            prev,
            visits: config.record_visits.then_some(visits),
            per_partition_steps,
            ps: buffers,
            rows,
            scratch: Scratch::new(engine),
        })
    }

    /// The snapshot of this epoch boundary: the walker state here is
    /// exactly the input of iteration `self.iter`, a clean cut between
    /// two iterations.
    fn snapshot(&self, engine: &FlashMob, header: &RunHeader) -> WalkSnapshot {
        WalkSnapshot {
            seed: header.seed,
            iter_next: self.iter as u64,
            steps_total: header.steps_total,
            walkers: header.walkers,
            steps_taken: self.steps_taken,
            config_tag: header.config_tag,
            graph_tag: header.graph_tag,
            per_partition_steps: self.per_partition_steps.clone(),
            w: self.w.clone(),
            prev: self.prev.clone(),
            visits: self.visits.clone().unwrap_or_default(),
            ps: self
                .ps
                .iter()
                .map(|o| {
                    o.as_ref().map(|b| {
                        let (buf, cursor) = b.export::<Xorshift64Star>(&engine.graph);
                        PsPartState { buf, cursor }
                    })
                })
                .collect(),
            rows: self.rows.clone(),
            biblock: None,
        }
    }

    /// Takes one step of the walk: runs iteration `self.iter` — shuffle,
    /// sample, shuffle back, record the row — up to the next epoch
    /// boundary.  Returns `false`, having done nothing, once the walk is
    /// over.
    fn advance<P: Probe>(
        &mut self,
        engine: &FlashMob,
        shuffler: &Shuffler<'_>,
        pool: Option<&WorkerPool>,
        probe: &mut P,
        tel: &mut Telemetry,
        stage: &mut StageTimes,
    ) -> bool {
        let config = &engine.config;
        let (iter, steps) = (self.iter, config.max_steps());
        // The walk also ends when every walker has terminated.  Checked
        // here, at the head of the would-be iteration (equivalent to the
        // tail of the previous one), so a resumed run that restored an
        // all-dead state stops exactly where the uninterrupted run would.
        if iter >= steps
            || ((matches!(config.stop, crate::StopRule::Geometric { .. })
                || config.algorithm.can_terminate_early())
                && self.w.iter().all(|&v| v == DEAD))
        {
            return false;
        }
        let second_order = config.algorithm.is_second_order();
        let carries_aux = engine.carries_aux();
        let parts = &engine.plan.partitions;
        // The pool runs the sample stage's partitions.  The shuffle passes
        // run a chunk per pool worker too, unless the shuffle is two-level
        // or there are under four walkers a thread: then they run as one
        // chunk on this thread, with `probe`.
        let shuffle_pool =
            pool.filter(|_| shuffler.levels() == 1 && config.walkers >= 4 * config.threads);
        let traced = tel.is_on();

        // Shuffle: count + scatter.
        let span0 = traced.then(|| tel.now_ns());
        let t0 = Instant::now();
        {
            let s = &mut self.scratch;
            let prev = carries_aux.then_some(self.prev.as_slice());
            let sprev = carries_aux.then_some(s.sprev.as_mut_slice());
            let addrs = ShuffleAddrs {
                src: engine.addr.w,
                dst: engine.addr.map.scur,
                lane: engine.addr.lane,
            };
            shuffler.count_on(shuffle_pool, &self.w, &mut s.shuffle, addrs, probe);
            shuffler.scatter_on(
                shuffle_pool,
                &self.w,
                prev,
                &mut s.sw,
                sprev,
                &mut s.shuffle,
                addrs,
                probe,
            );
        }
        stage.shuffle += t0.elapsed();
        if let Some(s) = span0 {
            tel.span_since(Stage::Shuffle, s, iter as u32, NO_PARTITION);
        }

        // Sample: one task per partition.  The first iteration of a
        // second-order walk has no history yet and runs first-order.
        let span1 = traced.then(|| tel.now_ns());
        let t1 = Instant::now();
        let effective_algo = if second_order && iter == 0 {
            crate::WalkAlgorithm::DeepWalk
        } else {
            config.algorithm
        };
        let ctx = AlgoCtx::new(effective_algo, config.stop, engine.cum_weights.as_deref())
            .with_edge_filter(engine.edge_bloom.as_ref())
            .at_iter(iter)
            .with_edge_labels(engine.graph.edge_labels())
            .with_reserve_factor(engine.reserve_factor);
        let dead_start = self.scratch.shuffle.offsets[parts.len()] as usize;
        self.scratch.snext[dead_start..].fill(DEAD);
        let pf_before = traced.then(|| self.scratch.prefetches.clone());

        // The pool runs only from the uninstrumented entry points
        // (NullProbe), so counter attribution stays exact.
        let batched = effective_algo.is_second_order();
        self.steps_taken += if batched {
            // The paper's batched connectivity checks: rejection
            // probes are deferred and resolved grouped by the
            // previous vertex, keeping each hub's adjacency list
            // cache-hot across many queries.
            engine.sample_stage_node2vec(self, &ctx, pool, probe, tel)
        } else if let Some(pool) = pool {
            engine.sample_stage_parallel(self, &ctx, pool, tel)
        } else {
            // Every partition's task, in order, on the calling thread.
            let lanes = TaskLanes::of(engine, self);
            engine.sample_range(&lanes, 0..parts.len(), &ctx, probe, |_| {})
        };
        stage.sample += t1.elapsed();
        if traced {
            if let Some(s) = span1 {
                tel.span_since(Stage::Sample, s, iter as u32, NO_PARTITION);
            }
            // Per-partition counters from the shuffle occupancy:
            // live walkers land grouped by VP (dead walkers go to
            // the dead bin past `partitions.len()`), and every live
            // walker takes exactly one step per iteration, so bin
            // width equals steps taken in that partition.
            let offsets = &self.scratch.shuffle.offsets;
            for (pi, part) in parts.iter().enumerate() {
                let occ = (offsets[pi + 1] - offsets[pi]) as u64;
                tel.record_partition_step(pi, occ, part.policy == SamplePolicy::PreSample);
                // Ring attribution: the depth actually achieved this
                // iteration (capped by the partition's live walkers)
                // and the hints issued on its behalf, by the ring and
                // by the partition stream one task ahead of it.  The
                // batched stage runs one ring at the probe chain's depth.
                let issued = self.scratch.prefetches[pi] - pf_before.as_ref().map_or(0, |b| b[pi]);
                let depth = if batched {
                    engine.probe_ring_depth
                } else {
                    engine.ring_depths[pi]
                };
                let ring_occ = if occ == 0 {
                    0
                } else {
                    depth.min(occ as usize) as u64
                };
                tel.record_partition_ring(pi, ring_occ, issued);
            }
        }

        // Shuffle: gather back into walker order, in place over the bin
        // lane the count wrote, which then becomes `w`.  The gather
        // rebuilds its cursors in place from the count matrix the count
        // left in the scratch — no per-step clone.
        let span2 = traced.then(|| tel.now_ns());
        let t2 = Instant::now();
        {
            let s = &mut self.scratch;
            let sw = second_order.then_some(s.sw.as_slice());
            let prev_next = second_order.then_some(s.prev_next.as_mut_slice());
            let addrs = ShuffleAddrs {
                src: engine.addr.w,
                dst: engine.addr.map.snext,
                lane: engine.addr.lane,
            };
            shuffler.gather_on(
                shuffle_pool,
                None,
                &s.snext,
                sw,
                prev_next,
                &mut s.shuffle,
                addrs,
                probe,
            );
            s.shuffle.swap_lane(&mut self.w);
            if second_order {
                std::mem::swap(&mut self.prev, &mut s.prev_next);
            }
        }
        stage.shuffle += t2.elapsed();
        if let Some(s) = span2 {
            tel.span_since(Stage::Shuffle, s, iter as u32, NO_PARTITION);
        }

        let span3 = (traced && config.record_paths).then(|| tel.now_ns());
        let t3 = Instant::now();
        if config.record_paths {
            self.rows.push(path_row(&self.w));
        }
        stage.other += t3.elapsed();
        if let Some(s) = span3 {
            tel.span_since(Stage::Output, s, iter as u32, NO_PARTITION);
        }
        self.iter += 1;
        tel.tick(self.iter, steps, self.steps_taken);
        true
    }
}

impl FlashMob {
    /// Prepares the engine: relabels the graph, plans its partitions
    /// with the analytic cost model and resolves the ring depths from the
    /// same model.
    pub fn new(graph: &Csr, config: WalkConfig) -> Result<Self, WalkError> {
        config.algorithm.check_params()?;
        if graph.vertex_count() == 0 {
            return Err(WalkError::EmptyGraph);
        }
        if config.walkers == 0 {
            return Err(WalkError::NoWalkers);
        }
        let walkers = config.walkers;
        if u32::try_from(walkers).is_err() {
            return Err(WalkError::Config(format!(
                "the shuffle counts walkers in 32 bits; {walkers} walkers do not fit"
            )));
        }
        for v in 0..graph.vertex_count() {
            if graph.degree(v as VertexId) == 0 {
                return Err(WalkError::SinkVertex(v as VertexId));
            }
        }
        let second_order = config.algorithm.is_second_order();
        if matches!(config.algorithm, crate::WalkAlgorithm::Weighted) && !graph.is_weighted() {
            return Err(WalkError::MissingWeights);
        }
        if second_order && graph.is_weighted() {
            return Err(WalkError::Config(
                "node2vec on weighted graphs is not supported".into(),
            ));
        }
        if config.algorithm.uses_edge_labels() && !graph.is_labeled() {
            return Err(WalkError::MissingLabels);
        }

        let plan_start = Instant::now();
        // Pre-processing 1: degree-descending relabel (counting sort).
        let (mut sorted, relabel) = sort_by_degree(graph);
        if second_order {
            // Marks the graph sorted, which is what turns `has_edge`
            // into its O(log d) search.
            sorted.sort_adjacency_lists();
        }
        let cum_weights = sorted.is_weighted().then(|| {
            let mut cum = Vec::with_capacity(sorted.edge_count());
            let mut acc = 0.0f32;
            for v in 0..sorted.vertex_count() {
                for &w in sorted.edge_weights(v as VertexId).expect("weighted") {
                    acc += w;
                    cum.push(acc);
                }
            }
            cum
        });

        // A Bloom negative filter short-circuits most node2vec
        // connectivity checks exactly (no false negatives).
        let edge_bloom = second_order.then(|| fm_graph::bloom::EdgeBloom::from_graph(&sorted, 8));

        // Pre-processing 2: MCKP partition planning.
        let model = Planner::analytic_model(&config.planner);
        let plan = Planner::plan(
            &sorted,
            config.walkers,
            &config.planner,
            config.strategy,
            &model,
        )?;
        let plan_wall = plan_start.elapsed();

        // Simulated address layout for instrumented runs.
        let mut space = AddressSpace::new();
        let n = sorted.vertex_count();
        let e = sorted.edge_count();
        let bloom_bytes = edge_bloom.as_ref().map_or(64, |b| b.footprint_bytes());
        let map = AddrMap {
            offsets: space.alloc(((n + 1) * 8) as u64),
            targets: space.alloc((e * 4) as u64),
            cum_weights: space.alloc((e * 4) as u64),
            ps_buf: space.alloc((e * 4) as u64),
            ps_cursor: space.alloc((n * 4) as u64),
            edge_bloom: space.alloc(bloom_bytes as u64),
            edge_labels: space.alloc(e.max(64) as u64),
            scur: space.alloc((walkers * 4) as u64),
            snext: space.alloc((walkers * 4) as u64),
            sprev: space.alloc((walkers * 4) as u64),
        };
        let addr = EngineAddrs {
            map,
            w: space.alloc((walkers * 4) as u64),
            lane: space.alloc((walkers * 4) as u64),
        };

        // Resolve sample-stage ring depths from the model that costed
        // the plan: its working-set fits, not its prices.
        let ring_depths = match config.ring_depth {
            Some(d) => vec![d; plan.partitions.len()],
            None => plan.ring_depths(&model),
        };
        let probe_ring_depth = config.ring_depth.unwrap_or_else(|| {
            let csr =
                std::mem::size_of_val(sorted.offsets()) + std::mem::size_of_val(sorted.targets());
            model.ring_depth(bloom_bytes + csr)
        });

        Ok(Self {
            graph: sorted,
            relabel: Arc::new(relabel),
            plan,
            config,
            cum_weights,
            edge_bloom,
            addr,
            ring_depths,
            probe_ring_depth,
            hint_lines_per_walker: HINT_LINES_PER_WALKER,
            reserve_factor: RESERVE_FACTOR,
            plan_wall,
            ps_pool: Mutex::new(None),
        })
    }

    /// The partitioning plan in force.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The degree-sorted internal graph.
    pub fn sorted_graph(&self) -> &Csr {
        &self.graph
    }

    /// The vertex relabeling between caller and internal ID spaces.
    pub fn relabeling(&self) -> &Relabeling {
        &self.relabel
    }

    /// The active configuration.
    pub fn config(&self) -> &WalkConfig {
        &self.config
    }

    /// The per-partition RNG stream ids iteration `iter` will consume
    /// under the configured seed.
    ///
    /// Exposed for the conformance harness, which folds these into the
    /// golden run digests: a refactor that changes how streams are
    /// assigned to partitions changes the digest even when it happens to
    /// leave one particular walk's paths intact.
    pub fn partition_stream_ids(&self, iter: usize) -> Vec<u64> {
        (0..self.plan.partitions.len())
            .map(|pi| partition_stream_id(self.config.seed, iter, pi))
            .collect()
    }

    /// [`FlashMob::run_with`] under default options, untraced.  Kept
    /// for `benchmark/`, which calls it by name; nothing else may.
    pub fn run_with_stats(&self) -> Result<(WalkOutput, RunStats), WalkError> {
        self.run_with(&RunOptions::default(), &mut Telemetry::off())
    }

    /// [`FlashMob::run_with`] under default options.  Kept for
    /// `benchmark/`, which calls it by name; nothing else may.
    pub fn run_traced(&self, tel: &mut Telemetry) -> Result<(WalkOutput, RunStats), WalkError> {
        self.run_with(&RunOptions::default(), tel)
    }

    /// Runs the walk under `opts`, recording telemetry into `tel`: the
    /// engine's one run entry.  [`FlashMob::run_probed`] is the
    /// instrumented mode beside it.
    ///
    /// With [`RunOptions::checkpoint`] a crash-consistent checkpoint is
    /// published atomically into `spec.dir` every `spec.every`
    /// iterations, and a last one holds the finished walk (the protocol
    /// both engines share, DESIGN §8).  With [`RunOptions::resume_from`]
    /// the run continues from the latest checkpoint there, bit-identical
    /// to the uninterrupted run; a snapshot of another graph, seed or
    /// configuration is refused with
    /// [`fm_recover::RecoverError::Mismatch`].  The thread count may
    /// differ (see [`WalkConfig::threads`]).  With both,
    /// the generation numbers continue the interrupted run's.
    /// [`RunOptions::fault`] injects faults into the checkpoint writes;
    /// a run that writes none makes no IO and refuses it with
    /// [`WalkError::Config`].
    ///
    /// An enabled `tel` receives a Plan span for the pre-processing done
    /// at construction, a prologue span, Shuffle/Sample/Output spans for
    /// every step (plus per-partition worker-lane sample spans on
    /// parallel runs), Checkpoint and Recovery spans with their transient
    /// IO retries counted, and per-partition counters whose step totals
    /// match the steps this process executed exactly.  Recording never
    /// touches the sampled chain: RNG streams are derived from the
    /// configured seed alone, so traced output is bit-identical to
    /// untraced output.
    pub fn run_with(
        &self,
        opts: &RunOptions,
        tel: &mut Telemetry,
    ) -> Result<(WalkOutput, RunStats), WalkError> {
        if opts.fault.is_some() && opts.checkpoint.as_ref().is_none_or(|ck| ck.every == 0) {
            return Err(WalkError::Config(
                "fault injection applies to checkpoint writes; this run writes none".into(),
            ));
        }
        self.run_epochs(&mut NullProbe, true, opts, tel)
    }

    /// Fingerprint of everything that determines the sampled chain.
    ///
    /// Snapshots carry this tag and a resume verifies it: resuming under
    /// a different algorithm, stop rule, seed, or plan would silently
    /// produce garbage.  Thread count is left out because it does not
    /// pick the chain: every walk is bit-identical at every count, so a
    /// checkpoint written at 8 threads resumes at 1 and vice versa.
    fn config_tag(&self) -> u64 {
        let c = &self.config;
        let mut fp = Fingerprint::new();
        match c.algorithm {
            crate::WalkAlgorithm::DeepWalk => {
                fp.fold_u64(1);
            }
            crate::WalkAlgorithm::Weighted => {
                fp.fold_u64(2);
            }
            crate::WalkAlgorithm::Node2Vec { p, q } => {
                fp.fold_u64(3).fold_u64(p.to_bits()).fold_u64(q.to_bits());
            }
            crate::WalkAlgorithm::Ppr { alpha } => {
                fp.fold_u64(4).fold_u64(alpha.to_bits());
            }
            crate::WalkAlgorithm::EarlyExit => {
                fp.fold_u64(5);
            }
            crate::WalkAlgorithm::Metapath { pattern } => {
                fp.fold_u64(6).fold_u64(pattern.len() as u64);
                for &l in pattern.labels() {
                    fp.fold_u64(l as u64);
                }
            }
        }
        match c.stop {
            crate::StopRule::FixedSteps(n) => {
                fp.fold_u64(1).fold_u64(n as u64);
            }
            crate::StopRule::Geometric {
                exit_prob,
                max_steps,
            } => {
                fp.fold_u64(2)
                    .fold_u64(exit_prob.to_bits())
                    .fold_u64(max_steps as u64);
            }
        }
        fold_init(&mut fp, &c.init);
        fp.fold_u64(c.walkers as u64)
            .fold_u64(c.seed)
            .fold_u64(c.record_paths as u64)
            .fold_u64(c.record_visits as u64)
            .fold_u64(match c.strategy {
                crate::PlanStrategy::DynamicProgramming => 1,
                crate::PlanStrategy::UniformPs => 2,
                crate::PlanStrategy::UniformDs => 3,
                crate::PlanStrategy::ManualHeuristic => 4,
            })
            .fold_u64(c.planner.target_groups as u64)
            .fold_u64(c.planner.max_partitions as u64)
            .fold_u64(c.planner.min_vp_vertices as u64);
        fp.value()
    }

    /// Whether walkers carry an auxiliary per-walker lane through the
    /// shuffle.  Stateful first-order programs (PPR restart, early exit)
    /// carry their origin through the same lane the second-order
    /// predecessor uses; unlike the predecessor, the origin never
    /// changes, so the gather stage leaves it alone.
    fn carries_aux(&self) -> bool {
        self.config.algorithm.is_second_order() || self.config.algorithm.is_stateful()
    }

    /// Runs the walk while feeding every memory access into `probe`.
    ///
    /// Instrumented runs execute the partitions sequentially regardless
    /// of the configured thread count, so counter attribution is exact.
    pub fn run_probed<P: Probe>(&self, probe: &mut P) -> Result<(WalkOutput, RunStats), WalkError> {
        self.run_epochs(probe, false, &RunOptions::default(), &mut Telemetry::off())
    }

    /// The one run path: prologue, the iteration loop, epilogue.
    ///
    /// `allow_parallel` is off for instrumented runs only: they keep
    /// every stage on the calling thread.
    fn run_epochs<P: Probe>(
        &self,
        probe: &mut P,
        allow_parallel: bool,
        opts: &RunOptions,
        tel: &mut Telemetry,
    ) -> Result<(WalkOutput, RunStats), WalkError> {
        if tel.is_on() {
            tel.ensure_partitions(self.plan.partitions.len());
            let start_ns = tel.now_ns();
            tel.span(SpanEvent {
                stage: Stage::Plan,
                start_ns,
                dur_ns: self.plan_wall.as_nanos() as u64,
                thread: 0,
                step: NO_STEP,
                partition: NO_PARTITION,
            });
        }
        // The writer, when checkpointing is on; the header pins a
        // snapshot to this run, engine and graph.
        let mut checkpoint = Checkpointer::new(opts);
        let (walkers, steps) = (self.config.walkers, self.config.max_steps());
        let header = RunHeader::new(opts, self.config.seed, walkers, steps, || {
            let g = &self.graph;
            let graph_tag = checkpoint::graph_tag(g.vertex_count(), g.edge_count(), g.offsets());
            (self.config_tag(), graph_tag)
        });
        let resumed = checkpoint::resume(opts, &header, tel)?;

        let wall_start = Instant::now();
        let prologue_span = tel.is_on().then(|| tel.now_ns());
        let mut state = match resumed {
            Some(snap) => EpochState::restore(self, snap)?,
            None => EpochState::fresh(self),
        };
        let init = wall_start.elapsed();
        if let Some(s) = prologue_span {
            tel.span_since(Stage::Other, s, NO_STEP, NO_PARTITION);
        }

        // The pool is created once here and reused by every stage of
        // every step — thread spawns per run equal the configured thread
        // count.
        let pool = (allow_parallel && self.config.threads > 1)
            .then(|| WorkerPool::new(self.config.threads));
        let shuffler = self.build_shuffler();

        let mut stage = StageTimes::default();
        while state.advance(self, &shuffler, pool.as_ref(), probe, tel, &mut stage) {
            // Checkpoint at the epoch boundary: the walk loop only pays
            // for the state clone and for joining the previous
            // generation's write.
            if let Some(ck) = checkpoint.take() {
                let step = state.iter as u32 - 1;
                checkpoint = Some(ck.tick(state.iter as u64, step, tel, || {
                    state.snapshot(self, &header)
                })?);
            }
        }
        if let Some(ck) = checkpoint {
            let step = state.iter.saturating_sub(1) as u32;
            let retries = ck.finish(state.iter as u64, step, tel, || {
                state.snapshot(self, &header)
            })?;
            tel.record_io_retries(retries);
        }
        let EpochState {
            steps_taken,
            w,
            visits,
            per_partition_steps,
            ps,
            rows,
            scratch,
            ..
        } = state;
        let ps_counts: Vec<_> = ps
            .iter()
            .map(|b| b.as_ref().map(PsBuffers::counts).unwrap_or_default())
            .collect();
        *self.lock_ps_pool() = Some(ps);

        let wall = wall_start.elapsed();
        stage.other += wall.saturating_sub(stage.sample + stage.shuffle + stage.other);
        let rows = if self.config.record_paths {
            rows
        } else {
            vec![w]
        };
        let output = WalkOutput::new(rows, self.config.walkers, Arc::clone(&self.relabel));
        let stats = RunStats {
            walkers: self.config.walkers,
            steps_taken,
            wall,
            stages: stage,
            init,
            per_partition_steps,
            per_partition_prefetches: scratch.prefetches,
            per_partition_stream_hints: scratch.stream_hints,
            per_partition_ps_produced: ps_counts.iter().map(|c| c.produced).collect(),
            per_partition_ps_reserved: ps_counts.iter().map(|c| c.reserved).collect(),
            per_partition_ps_consumed: ps_counts.iter().map(|c| c.consumed).collect(),
            visits_sorted: visits,
            pool: pool.as_ref().map(WorkerPool::stats).unwrap_or_default(),
        };
        Ok((output, stats))
    }

    /// The parked PS buffers.  The lock is only ever held to move the
    /// set out or in, so a poisoned lock still guards a valid value.
    fn lock_ps_pool(&self) -> MutexGuard<'_, Option<PsSet>> {
        self.ps_pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The PS buffers for one run.  A run that inherits the parked set
    /// only zeroes the cursors, which forces a refill before any
    /// buffered sample is read.
    fn take_ps_set(&self) -> PsSet {
        match self.lock_ps_pool().take() {
            Some(mut parked) => {
                parked.iter_mut().flatten().for_each(PsBuffers::reset);
                parked
            }
            None => self
                .plan
                .partitions
                .iter()
                .map(|p| {
                    (p.policy == SamplePolicy::PreSample).then(|| PsBuffers::new(&self.graph, p))
                })
                .collect(),
        }
    }

    fn build_shuffler(&self) -> Shuffler<'_> {
        if self.plan.shuffle_levels() == 1 {
            return Shuffler::single_level(&self.plan.map);
        }
        // Assign each fine bin an outer bin: VPs of internally-shuffled
        // groups share one outer bin; every other VP gets its own; the
        // dead bin is its own outer bin.
        let mut outer_of_fine = Vec::with_capacity(self.plan.map.bins());
        let mut outer = 0u32;
        let mut current_internal_group: Option<usize> = None;
        for part in &self.plan.partitions {
            let internal = self
                .plan
                .groups
                .get(part.group)
                .is_some_and(|g| g.internal_shuffle);
            if internal {
                if current_internal_group == Some(part.group) {
                    // Same outer bin as the previous partition.
                    let last = *outer_of_fine.last().expect("non-empty");
                    outer_of_fine.push(last);
                    continue;
                }
                current_internal_group = Some(part.group);
            } else {
                current_internal_group = None;
            }
            outer_of_fine.push(outer);
            outer += 1;
        }
        // Dead bin.
        outer_of_fine.push(outer);
        Shuffler::two_level(&self.plan.map, outer_of_fine)
    }

    /// The first-order sample tasks of partitions `range`, in order:
    /// the one task body of a step on the calling thread (every
    /// partition, the real probe) and of each pool worker (its own
    /// range, no probe).
    /// Returns the live walker-steps taken; `done(pi)` runs after each
    /// task.
    ///
    /// While partition `pi` samples, the working set of the next
    /// occupied partition of the range is already on its way in
    /// ([`hint_partition`], issued just before `pi`'s task) — never the
    /// first partition of another range, whose PS cursors that range's
    /// thread is writing.  Which partitions are hinted is decided by
    /// [`worth_hinting`] from the shuffle offsets, so it is the same at
    /// every thread count; hints touch no RNG, walker or PS state, so
    /// the walk is the same whether or not any are issued.
    fn sample_range<P: Probe>(
        &self,
        lanes: &TaskLanes<'_>,
        range: std::ops::Range<usize>,
        ctx: &AlgoCtx<'_>,
        probe: &mut P,
        mut done: impl FnMut(usize),
    ) -> u64 {
        let offsets = lanes.offsets;
        let walkers = |pi: usize| (offsets[pi + 1] - offsets[pi]) as usize;
        let occupied_from = |from: usize| {
            (from..range.end)
                .find(|&pi| walkers(pi) > 0)
                .unwrap_or(range.end)
        };
        let mut taken = 0u64;
        let mut pi = occupied_from(range.start);
        while pi < range.end {
            let next = occupied_from(pi + 1);
            if next < range.end
                && worth_hinting(
                    &self.plan.partitions[next],
                    walkers(next),
                    self.hint_lines_per_walker,
                )
            {
                // SAFETY: `next` lies in this range, so its PS buffers
                // and counters are this thread's alone.
                let (ps, hints, all) = unsafe {
                    (
                        &lanes.ps.slice_mut(next, 1)[0],
                        &mut lanes.stream_hints.slice_mut(next, 1)[0],
                        &mut lanes.prefetches.slice_mut(next, 1)[0],
                    )
                };
                let part = &self.plan.partitions[next];
                let issued = hint_partition::<Xorshift64Star, _>(
                    &self.graph,
                    part,
                    part.slab(&self.graph).as_ref(),
                    ps.as_ref(),
                    probe,
                    &self.addr.map,
                );
                *hints += issued;
                *all += issued;
            }

            let part = &self.plan.partitions[pi];
            let (a, b) = (offsets[pi] as usize, offsets[pi + 1] as usize);
            // Each partition belongs to one range and each range to one
            // thread; partitions are contiguous, non-overlapping vertex
            // ranges, so visit slots `[start, end)` are this task's too.
            // SAFETY: walker range `[a, b)`, PS buffer `pi` and counter
            // slots `pi` belong to partition `pi`'s task alone.
            let (snext, ps, steps, prefetches, visits) = unsafe {
                (
                    lanes.snext.slice_mut(a, b - a),
                    &mut lanes.ps.slice_mut(pi, 1)[0],
                    &mut lanes.steps.slice_mut(pi, 1)[0],
                    &mut lanes.prefetches.slice_mut(pi, 1)[0],
                    lanes.visits.as_ref().map(|v| {
                        v.slice_mut(part.start as usize, (part.end - part.start) as usize)
                    }),
                )
            };
            let io = TaskIo {
                scur: &lanes.sw[a..b],
                sprev: lanes.sprev.map(|s| &s[a..b]),
                snext,
                slice_base: a,
                visits,
            };
            let mut rng = Xorshift64Star::new(partition_stream_id(lanes.seed, lanes.iter, pi));
            let stats = sample_partition(
                &self.graph,
                part,
                part.slab(&self.graph).as_ref(),
                ps.as_mut(),
                ctx,
                io,
                &mut rng,
                probe,
                &self.addr.map,
                self.ring_depths[pi],
            );
            *steps += stats.steps;
            *prefetches += stats.prefetches;
            taken += stats.steps;
            done(pi);
            pi = next;
        }
        taken
    }

    /// The second-order sample stage, with batched connectivity checks
    /// (the paper's "FlashMob again batches such lookups"):
    /// [`FlashMob::node2vec_range`] over every partition on the calling
    /// thread, or over each of [`FlashMob::on_pool`]'s ranges, which
    /// walks the same chain.
    fn sample_stage_node2vec<P: Probe>(
        &self,
        state: &mut EpochState,
        ctx: &AlgoCtx<'_>,
        pool: Option<&WorkerPool>,
        probe: &mut P,
        tel: &mut Telemetry,
    ) -> u64 {
        let mut workers = std::mem::take(&mut state.scratch.node2vec);
        let taken = match pool {
            Some(pool) => {
                let worker_lanes = DisjointSlice::new(&mut workers);
                self.on_pool(state, pool, tel, |t, lanes, range, done| {
                    // SAFETY: lane `t` belongs to worker `t` alone.
                    let lane = unsafe { &mut worker_lanes.slice_mut(t, 1)[0] };
                    let taken = self.node2vec_range(lanes, range, ctx, &mut NullProbe, lane);
                    done(NO_PARTITION as usize);
                    taken
                })
            }
            None => {
                let lanes = TaskLanes::of(self, state);
                let all = 0..self.plan.partitions.len();
                self.node2vec_range(&lanes, all, ctx, probe, &mut workers[0])
            }
        };
        state.scratch.node2vec = workers;
        taken
    }

    /// The second-order sample tasks of partitions `range`: one worker's
    /// share of [`FlashMob::sample_stage_node2vec`], in `lane`.
    ///
    /// Rejection sampling for node2vec needs `has_edge(prev, candidate)`
    /// — a random access to `prev`'s adjacency list that escapes the
    /// current VP.  Instead of probing immediately per attempt, this
    /// stage defers every unresolved query, sorts the backlog by
    /// `prev`, and resolves it in that order so one hub's offsets and
    /// adjacency list serve many queries while hot.  Walkers whose
    /// candidate is rejected re-enter the proposal loop in the next
    /// round (their slots stay grouped by source VP because the
    /// shuffled array is partition-ordered).
    ///
    /// Partition `pi`'s stream is drawn by its own walkers alone, in an
    /// order that does not depend on the range around it: round 0 and
    /// the redraws run in slot order, and the one draw a resolve round
    /// makes, the geometric stop's exit coin, follows the backlog's
    /// `(prev, slot)` order.
    ///
    /// Every round runs through the walker ring at `probe_ring_depth`:
    /// the proposals ([`FlashMob::drive_proposals`]) and the resolves,
    /// whose hints read only the frozen slot arrays, the graph and the
    /// PS buffers, so the draws are those of the loop without hints.
    fn node2vec_range<P: Probe>(
        &self,
        lanes: &TaskLanes<'_>,
        range: std::ops::Range<usize>,
        ctx: &AlgoCtx<'_>,
        probe: &mut P,
        lane: &mut Node2vecLane,
    ) -> u64 {
        let (offsets, sw) = (lanes.offsets, lanes.sw);
        let sprev = lanes.sprev.unwrap_or_default();
        let rule = ctx.rule;
        let parts = &self.plan.partitions;
        let first = range.start;
        // The range's walkers, the slots `[a, b)` of the shuffled array,
        // and the vertices `[vbase, ..)` its partitions tile.
        let (a, b) = (offsets[first] as usize, offsets[range.end] as usize);
        let vbase = parts[first].start as usize;
        // SAFETY: the ranges are disjoint, one to a worker, and
        // partitions tile the slots and the vertices in order, so the
        // walkers, PS buffers, counters and visit slots of this range's
        // partitions belong to this worker alone.
        let (snext, ps, steps, hints, mut visits) = unsafe {
            (
                lanes.snext.slice_mut(a, b - a),
                lanes.ps.slice_mut(first, range.len()),
                lanes.steps.slice_mut(first, range.len()),
                lanes.prefetches.slice_mut(first, range.len()),
                lanes.visits.as_ref().map(|v| {
                    let vend = parts[range.end - 1].end as usize;
                    v.slice_mut(vbase, vend - vbase)
                }),
            )
        };
        let Node2vecLane {
            rngs,
            pending,
            redraw,
        } = lane;
        rngs.clear();
        rngs.extend(
            range
                .clone()
                .map(|pi| Xorshift64Star::new(partition_stream_id(lanes.seed, lanes.iter, pi))),
        );
        pending.clear();
        // Every slot of the range holds a live walker, and each takes one
        // step, so a partition's steps are its bin width.
        for pi in range.clone() {
            steps[pi - first] += u64::from(offsets[pi + 1] - offsets[pi]);
        }

        // Proposal loop for one walker; pushes to `pending` when the
        // draw needs a connectivity check.
        #[allow(clippy::too_many_arguments)]
        fn try_resolve<P: Probe>(
            engine: &FlashMob,
            ctx: &AlgoCtx<'_>,
            pi: usize,
            slot: usize,
            v: VertexId,
            t: VertexId,
            rng: &mut Xorshift64Star,
            ps: &mut Option<PsBuffers>,
            probe: &mut P,
            addr: &AddrMap,
            pending: &mut Vec<(VertexId, u32, VertexId, f64)>,
        ) -> Option<VertexId> {
            let part = &engine.plan.partitions[pi];
            let slab = part.slab(&engine.graph);
            let mut attempts = 0;
            loop {
                attempts += 1;
                let cand = propose(
                    &engine.graph,
                    part,
                    slab.as_ref(),
                    ps.as_mut(),
                    ctx,
                    v,
                    rng,
                    probe,
                    addr,
                );
                let x = rng.next_f64() * ctx.rule.bound;
                // Stratified rejection: below the minimum weight every
                // candidate accepts, no check needed.  The 64th attempt
                // accepts unchecked, as a termination backstop.
                if x < ctx.rule.bound_min || attempts >= 64 {
                    return Some(cand);
                }
                if cand == t {
                    // Return weight is known on the spot.
                    if ctx.rule.verdict(x, true) == Verdict::Accept {
                        return Some(cand);
                    }
                    continue;
                }
                // Deferred even when the rule alone decides the draw
                // (the resolve stage then skips the probe): settling it
                // here would move this walker's exit coin and redraws
                // ahead of its partition-mates' in the shared stream.
                pending.push((t, slot as u32, cand, x));
                return None;
            }
        }

        // Round 0: every live walker of the range proposes once, in slot
        // order, which is partition order (dead walkers sit past the
        // last bin).  The ring runs over the whole range, so its hints
        // cross from one partition's task into the next.
        let depth = self.probe_ring_depth;
        let mut pl = ProposalLanes {
            probe,
            ps,
            first,
            hints,
        };
        let addr = &self.addr.map;
        let mut task = usize::MAX;
        self.drive_proposals(
            depth,
            sw,
            b - a,
            |j| a + j,
            &mut pl,
            |pl, slot| {
                let v = sw[slot];
                let pi = self.plan.map.partition_of(v);
                if pi != task {
                    task = pi;
                    // The redraw rounds below are the same task, later.
                    if let Some(ps) = &mut pl.ps[pi - first] {
                        ps.begin_task(&parts[pi], (offsets[pi + 1] - offsets[pi]) as usize, ctx);
                    }
                }
                let probe: &mut P = pl.probe;
                probe.touch(
                    addr.scur + 4 * slot as u64,
                    4,
                    fm_memsim::AccessKind::Sequential,
                );
                let t = sprev[slot];
                probe.touch(
                    addr.sprev + 4 * slot as u64,
                    4,
                    fm_memsim::AccessKind::Sequential,
                );
                if let Some(vis) = visits.as_deref_mut() {
                    vis[v as usize - vbase] += 1;
                }
                probe.step();
                let rng = &mut rngs[pi - first];
                if let Some(next) = try_resolve(
                    self,
                    ctx,
                    pi,
                    slot,
                    v,
                    t,
                    rng,
                    &mut pl.ps[pi - first],
                    probe,
                    addr,
                    pending,
                ) {
                    snext[slot - a] = apply_exit(next, ctx, rng);
                    probe.touch_write(
                        addr.snext + 4 * slot as u64,
                        4,
                        fm_memsim::AccessKind::Sequential,
                    );
                }
            },
        );

        // Resolution rounds: check the backlog grouped by prev, then
        // redraw the rejected walkers grouped by source partition.  63
        // rounds give every walker up to 64 proposals in total (one in
        // round 0 plus one per redraw), matching `try_resolve`'s
        // 64-attempt cap.  Fewer rounds bias the output measurably: with
        // per-proposal acceptance rate r, a fraction (1-r)^rounds of
        // walkers falls through to the backstop, which accepts a uniform
        // (weight-blind) candidate.  The backlog empties geometrically,
        // so the loop almost always breaks long before the cap.
        let offsets_arr = self.graph.offsets();
        let targets_arr = self.graph.targets();
        // A resolve hint counts to the previous vertex's partition, or to
        // the walker's own when that lies outside this worker's range
        // (never at one thread, whose range is the whole plan).
        let hinted = |t: VertexId, slot: u32| {
            let pt = self.plan.map.partition_of(t);
            if range.contains(&pt) {
                pt - first
            } else {
                self.plan.map.partition_of(sw[slot as usize]) - first
            }
        };
        for _round in 0..63 {
            if pending.is_empty() {
                break;
            }
            // Batch the connectivity checks: sorting by the previous
            // vertex groups queries against the same hub back to back,
            // so each adjacency list is fetched once and stays cache-hot
            // across its whole query group.  The slot breaks ties, which
            // fixes the order of the exit coins drawn below.
            pending.sort_unstable_by_key(|&(t, slot, _, _)| (t, slot));
            redraw.clear();
            // Resolve the backlog through the walker ring: while query
            // `j` runs its exact check, the bloom lines and offset pair
            // of query `j+depth` and the adjacency endpoints of query
            // `j+lead` are already in flight.  Execution order — and
            // therefore RNG order — is untouched; hints are computed
            // from the immutable (prev, cand) backlog only.
            let mut pf = crate::sample::ring::Pf::new(depth > 1);
            crate::sample::ring::drive(
                depth,
                pending.len(),
                &mut pf,
                &mut pl,
                |pf, pl, j| {
                    let (t, slot, cand, x) = pending[j];
                    if rule.verdict(x, false) != Verdict::Probe {
                        // Decided without the graph: nothing to hint.
                        return;
                    }
                    let before = pf.issued();
                    pf.element(pl.probe, offsets_arr, t as usize, addr.offsets);
                    if let Some(bloom) = ctx.edge_filter {
                        crate::sample::prefetch_bloom(pf, pl.probe, bloom, t, cand, addr);
                    }
                    pl.hints[hinted(t, slot)] += pf.issued() - before;
                },
                |pf, pl, j| {
                    let (t, slot, _, x) = pending[j];
                    if pf.active() && rule.verdict(x, false) == Verdict::Probe {
                        let before = pf.issued();
                        let off = self.graph.adjacency_start(t);
                        let d = self.graph.degree(t);
                        // The first two levels of the exact search.
                        fm_graph::csr::sorted_probe_points(d, 2, &mut |k| {
                            pf.element(pl.probe, targets_arr, off + k, addr.targets)
                        });
                        pl.hints[hinted(t, slot)] += pf.issued() - before;
                    }
                },
                |pl, j, ()| {
                    let (t, slot, cand, x) = pending[j];
                    let slot = slot as usize;
                    let probe = &mut *pl.probe;
                    let edge =
                        || node2vec_adjacent(&self.graph, ctx.edge_filter, t, cand, probe, addr);
                    if rule.keeps(x, cand == t, edge) {
                        let pi = self.plan.map.partition_of(sw[slot]);
                        snext[slot - a] = apply_exit(cand, ctx, &mut rngs[pi - first]);
                    } else {
                        redraw.push(slot as u32);
                    }
                },
            );
            pending.clear();
            // Redraw in slot order == source-partition order (the
            // shuffled array is grouped by VP), through the same ring
            // as round 0.
            redraw.sort_unstable();
            let redraw = &*redraw;
            self.drive_proposals(
                depth,
                sw,
                redraw.len(),
                |j| redraw[j] as usize,
                &mut pl,
                |pl, slot| {
                    let v = sw[slot];
                    let pi = self.plan.map.partition_of(v);
                    let rng = &mut rngs[pi - first];
                    if let Some(next) = try_resolve(
                        self,
                        ctx,
                        pi,
                        slot,
                        v,
                        sprev[slot],
                        rng,
                        &mut pl.ps[pi - first],
                        &mut *pl.probe,
                        addr,
                        pending,
                    ) {
                        snext[slot - a] = apply_exit(next, ctx, rng);
                    }
                },
            );
        }
        // Backstop (mirrors `try_resolve`'s 64-attempt cap): accept the
        // last candidates of anything still unresolved.
        for &(_, slot, cand, _) in pending.iter() {
            let pi = self.plan.map.partition_of(sw[slot as usize]);
            snext[slot as usize - a] = apply_exit(cand, ctx, &mut rngs[pi - first]);
        }
        (b - a) as u64
    }

    /// Runs one proposal for each walker at `slot_of(0..n)` of the
    /// shuffled array `sw`, through the walker ring at `depth`: three
    /// hint stages, each one dependent load deeper, in front of
    /// `execute(lanes, slot)`, which runs in list order and is the only
    /// stage that draws or writes.  A PS partition's walker gets the
    /// hints `sample_ps` gives it — its cursor; then the running state,
    /// next slot or refill head, with its offset pair; then the row
    /// entry a reserved generation picks next, or the row a refill reads
    /// — and a DS walker its offset pair, then its edge range, or its
    /// row at once where the row rule computes it.  Each hint is counted
    /// to the walker's partition.
    fn drive_proposals<P: Probe>(
        &self,
        depth: usize,
        sw: &[VertexId],
        n: usize,
        slot_of: impl Fn(usize) -> usize,
        lanes: &mut ProposalLanes<'_, P>,
        mut execute: impl FnMut(&mut ProposalLanes<'_, P>, usize),
    ) {
        let hint = |stage: usize, pf: &mut Pf, lanes: &mut ProposalLanes<'_, P>, j: usize| {
            if !pf.active() {
                return;
            }
            let v = sw[slot_of(j)];
            let pi = self.plan.map.partition_of(v);
            let (graph, addr) = (&self.graph, &self.addr.map);
            let probe = &mut *lanes.probe;
            let before = pf.issued();
            let slab = || self.plan.partitions[pi].slab(graph);
            match (&lanes.ps[pi - lanes.first], stage) {
                (Some(ps), 0) => ps.hint_cursor(pf, probe, v, addr),
                (Some(ps), 1) => ps.hint_head(pf, probe, graph, v, addr),
                (Some(ps), _) => {
                    ps.hint_sample::<Xorshift64Star, _>(pf, probe, graph, v, None, addr);
                }
                (None, 0) => hint_ds_row(pf, probe, graph, slab().as_ref(), v, addr),
                (None, 1) if slab().is_none() => {
                    let (off, d) = (graph.adjacency_start(v), graph.degree(v));
                    pf.span(probe, graph.targets(), off, d, addr.targets);
                }
                (None, _) => {}
            }
            lanes.hints[pi - lanes.first] += pf.issued() - before;
        };
        let mut pf = Pf::new(depth > 1);
        crate::sample::ring::drive_scouted(
            depth,
            n,
            &mut pf,
            lanes,
            |pf, lanes, j| hint(0, pf, lanes, j),
            |pf, lanes, j| hint(1, pf, lanes, j),
            |pf, lanes, j| hint(2, pf, lanes, j),
            |lanes, j, ()| execute(lanes, slot_of(j)),
        );
    }

    /// Parallel first-order sample stage: [`FlashMob::sample_range`]
    /// over each of [`FlashMob::on_pool`]'s partition ranges.
    fn sample_stage_parallel(
        &self,
        state: &mut EpochState,
        ctx: &AlgoCtx<'_>,
        pool: &WorkerPool,
        tel: &mut Telemetry,
    ) -> u64 {
        self.on_pool(state, pool, tel, |_, lanes, range, done| {
            self.sample_range(lanes, range, ctx, &mut NullProbe, done)
        })
    }

    /// Runs a sample stage on the persistent pool: partitions are split
    /// into contiguous ranges balanced by walker count, and worker `t`
    /// runs `work(t, lanes, range, done)` over the `t`-th.  Each worker
    /// owns disjoint slices of `snext`, the PS buffers, the
    /// per-partition counters, and (because partitions are contiguous,
    /// non-overlapping vertex ranges) the visit-count array — the
    /// paper's lock-free disjoint-array design, with no per-step
    /// allocation.  Returns the live walker-steps the workers took.
    ///
    /// On a traced run `done(pi)` ends a span of worker `t`'s lane
    /// attributed to partition `pi` (or to none, [`NO_PARTITION`]); the
    /// span runs from the end of the one before it.
    fn on_pool(
        &self,
        state: &mut EpochState,
        pool: &WorkerPool,
        tel: &mut Telemetry,
        work: impl Fn(usize, &TaskLanes<'_>, std::ops::Range<usize>, &mut dyn FnMut(usize)) -> u64
            + Sync,
    ) -> u64 {
        let parts = self.plan.partitions.len();
        let threads = pool.threads().min(parts).max(1);
        // Contiguous partition ranges balanced by walker count (at most
        // `threads` of them; the Vec is reused across steps).
        let mut ranges = std::mem::take(&mut state.scratch.sample_ranges);
        let offsets = &state.scratch.shuffle.offsets;
        let target = (offsets[parts] as usize).div_ceil(threads).max(1);
        ranges.clear();
        let mut start = 0usize;
        while start < parts {
            let budget = offsets[start] as usize + target;
            let mut end = start + 1;
            while end < parts && (offsets[end] as usize) < budget {
                end += 1;
            }
            ranges.push((start, end));
            start = end;
        }

        let taken = std::sync::atomic::AtomicU64::new(0);
        let lanes = TaskLanes::of(self, state);
        // Per-worker span lanes: worker `t` writes lane `t` exclusively
        // during the dispatch; the coordinator drains them once the pool
        // has gone quiescent (same disjoint-ownership argument as the
        // `DisjointSlice` wrappers of `TaskLanes`).
        let traced = tel.is_on();
        let origin = tel.origin();
        let spans = DisjointSlice::new(tel.worker_lanes(if traced { pool.threads() } else { 0 }));
        pool.run_labeled("sample", &|t| {
            let Some(&(start, end)) = ranges.get(t) else {
                return;
            };
            // A task's span runs from the end of the task before it, so
            // the hints it issues for its successor are inside it.
            let mut mark = traced.then(|| origin.elapsed().as_nanos() as u64);
            let local = work(t, &lanes, start..end, &mut |pi| {
                if let Some(start_ns) = mark {
                    let now = origin.elapsed().as_nanos() as u64;
                    // SAFETY: lane `t` belongs to this worker alone for
                    // the duration of the dispatch.
                    let lane = unsafe { spans.slice_mut(t, 1) };
                    lane[0].record(SpanEvent {
                        stage: Stage::Sample,
                        start_ns,
                        dur_ns: now.saturating_sub(start_ns),
                        thread: t as u32 + 1,
                        step: lanes.iter as u32,
                        partition: pi as u32,
                    });
                    mark = Some(now);
                }
            });
            taken.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
        });
        tel.drain_workers();
        state.scratch.sample_ranges = ranges;
        taken.into_inner()
    }
}

/// What the sample tasks of one iteration share: the
/// shuffled walker lanes, read by all, and the lanes each task owns a
/// disjoint share of — its walkers' `snext` range, its partition's PS
/// buffers, counters and visit slots.
struct TaskLanes<'a> {
    seed: u64,
    iter: usize,
    /// Bin start offsets of the shuffle: partition `pi`'s walkers are
    /// `sw[offsets[pi]..offsets[pi + 1]]`.
    offsets: &'a [u32],
    sw: &'a [VertexId],
    sprev: Option<&'a [VertexId]>,
    snext: DisjointSlice<VertexId>,
    ps: DisjointSlice<Option<PsBuffers>>,
    steps: DisjointSlice<u64>,
    prefetches: DisjointSlice<u64>,
    stream_hints: DisjointSlice<u64>,
    visits: Option<DisjointSlice<u64>>,
}

impl<'a> TaskLanes<'a> {
    /// The lanes of `state`'s current iteration.  Holding `state`
    /// mutably for `'a` is what keeps the owned lanes exclusive to the
    /// tasks that split them.
    fn of(engine: &FlashMob, state: &'a mut EpochState) -> Self {
        let s = &mut state.scratch;
        Self {
            seed: engine.config.seed,
            iter: state.iter,
            offsets: &s.shuffle.offsets,
            sw: &s.sw,
            sprev: engine.carries_aux().then_some(s.sprev.as_slice()),
            snext: DisjointSlice::new(&mut s.snext),
            ps: DisjointSlice::new(&mut state.ps),
            steps: DisjointSlice::new(&mut state.per_partition_steps),
            prefetches: DisjointSlice::new(&mut s.prefetches),
            stream_hints: DisjointSlice::new(&mut s.stream_hints),
            visits: state.visits.as_deref_mut().map(DisjointSlice::new),
        }
    }
}

/// The RNG stream id consumed by partition `pi` during iteration `iter`
/// of a run seeded with `seed`.
///
/// Every sample stage (sequential, parallel, node2vec, out-of-core)
/// derives its per-partition generator from this single function, which
/// is why in-memory output is bit-identical across thread counts.  The conformance harness folds these ids into its
/// golden digests so that any refactor that silently re-assigns streams
/// fails loudly rather than shifting the sampled chain unnoticed.
pub fn partition_stream_id(seed: u64, iter: usize, pi: usize) -> u64 {
    split_stream(seed, (iter * 1_000_003 + pi) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlanStrategy, PlannerParams, StopRule, WalkAlgorithm, WalkConfig};
    use fm_graph::synth;
    use fm_recover::CheckpointSink;

    fn small_params() -> PlannerParams {
        PlannerParams {
            target_groups: 8,
            max_partitions: 64,
            min_vp_vertices: 8,
            ..PlannerParams::default()
        }
    }

    /// The walk under default options, untraced.
    fn run_default(engine: &FlashMob) -> Result<(WalkOutput, RunStats), WalkError> {
        engine.run_with(&RunOptions::default(), &mut Telemetry::off())
    }

    fn config(walkers: usize, steps: usize) -> WalkConfig {
        WalkConfig::deepwalk()
            .walkers(walkers)
            .steps(steps)
            .seed(7)
            .planner(small_params())
    }

    #[test]
    fn walkers_move_along_edges_every_step() {
        let g = synth::power_law(500, 2.0, 1, 40, 3);
        let engine = FlashMob::new(&g, config(500, 8)).unwrap();
        let out = run_default(&engine).unwrap().0;
        for path in out.paths() {
            assert_eq!(path.len(), 9);
            for hop in path.windows(2) {
                assert!(
                    g.neighbors(hop[0]).contains(&hop[1]),
                    "invalid hop {} -> {}",
                    hop[0],
                    hop[1]
                );
            }
        }
    }

    /// The plan's edge counts tile the CSR's edge array in partition
    /// order: the edges before a partition end at its first vertex's
    /// offset, where its rows start.
    #[test]
    fn partitions_tile_the_edge_array_in_order() {
        let g = synth::power_law(3000, 2.0, 1, 200, 5);
        let engine = FlashMob::new(&g, config(500, 2)).unwrap();
        let mut before = 0usize;
        for part in &engine.plan().partitions {
            assert_eq!(engine.sorted_graph().adjacency_start(part.start), before);
            before += part.edges;
        }
        assert_eq!(before, g.edge_count());
    }

    #[test]
    fn partition_stream_ids_are_distinct_and_stable() {
        let g = synth::power_law(300, 2.0, 1, 30, 5);
        let engine = FlashMob::new(&g, config(200, 6)).unwrap();
        let mut all = Vec::new();
        for iter in 0..6 {
            let ids = engine.partition_stream_ids(iter);
            assert_eq!(ids.len(), engine.plan().partitions.len());
            for (pi, &id) in ids.iter().enumerate() {
                assert_eq!(id, partition_stream_id(7, iter, pi));
                all.push(id);
            }
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "stream ids must not collide");
    }

    #[test]
    fn deterministic_across_runs() {
        let g = synth::power_law(300, 2.0, 1, 30, 5);
        let engine = FlashMob::new(&g, config(200, 6)).unwrap();
        let a = run_default(&engine).unwrap().0;
        let b = run_default(&engine).unwrap().0;
        assert_eq!(a.paths(), b.paths());
    }

    /// Copies a graph, attaching deterministic pseudo-random weights.
    fn weighted_copy(g: &Csr) -> Csr {
        let mut rng = fm_rng::Xorshift64Star::new(0x77e1);
        let weights: Vec<f32> = (0..g.edge_count())
            .map(|_| 0.25 + (rng.next_u64() % 8) as f32 * 0.25)
            .collect();
        Csr::from_parts(g.offsets().to_vec(), g.targets().to_vec(), Some(weights)).unwrap()
    }

    #[test]
    fn parallel_matches_sequential() {
        // Determinism matrix: {1, 2, 3, 8} threads × three algorithms ×
        // parallel shuffle on/off.  The parallel shuffle is gated on
        // `walkers >= 4 * threads`, so 16 walkers disables it at high
        // thread counts while 300 enables it everywhere.  Every walk,
        // node2vec included, must be bit-identical across ALL thread
        // counts, and so must the work counted: steps per partition,
        // visits and the pre-samples produced, reserved and consumed.
        let g = synth::power_law(400, 2.0, 2, 40, 9);
        let work = |s: &RunStats| {
            (
                s.steps_taken,
                s.per_partition_steps.clone(),
                s.visits_sorted.clone(),
                s.per_partition_ps_produced.clone(),
                s.per_partition_ps_reserved.clone(),
                s.per_partition_ps_consumed.clone(),
            )
        };
        for walkers in [16usize, 300] {
            for (algo, graph, cfg) in matrix_cells(&g, walkers) {
                let run = |threads: usize| {
                    let cfg = cfg.clone().threads(threads).record_visits(true);
                    run_default(&FlashMob::new(&graph, cfg).unwrap()).unwrap()
                };
                let (seq, seq_stats) = run(1);
                for threads in [2usize, 3, 8] {
                    let (out, stats) = run(threads);
                    let what = format!("{algo} walkers={walkers}: 1 vs {threads} threads");
                    assert_eq!(seq.paths(), out.paths(), "{what}");
                    assert_eq!(work(&seq_stats), work(&stats), "{what}");
                }
            }
        }
    }

    #[test]
    fn ring_depth_is_bit_exact_across_stages() {
        // The latency-hiding ring must not move a single RNG draw: every
        // depth yields the same walk as the legacy depth-1 loop, for
        // every sample-stage variant — sequential DS/PS, the parallel
        // pool, and the batched node2vec stage's proposal and resolve
        // rounds.  The sparse node2vec case (40 walkers) reserves its
        // refills, so the hint that peeks a reserved row is on the path.
        let g = synth::power_law(400, 2.0, 2, 40, 9);
        let wg = weighted_copy(&g);
        for algo in ["deepwalk", "node2vec", "sparse node2vec", "weighted"] {
            for threads in [1usize, 2] {
                let run = |depth: usize| {
                    let node2vec = WalkConfig::node2vec(0.5, 2.0)
                        .steps(5)
                        .seed(7)
                        .planner(small_params());
                    let mut cfg = match algo {
                        "node2vec" => node2vec.walkers(300),
                        "sparse node2vec" => node2vec.walkers(40),
                        _ => config(300, 5),
                    };
                    if algo == "weighted" {
                        cfg.algorithm = WalkAlgorithm::Weighted;
                    }
                    let graph = if algo == "weighted" { &wg } else { &g };
                    let engine = FlashMob::new(graph, cfg.threads(threads).ring_depth(depth));
                    run_default(&engine.unwrap()).unwrap()
                };
                let (baseline, stats) = run(1);
                if algo == "sparse node2vec" {
                    let (_, reserved, _) = stats.pre_sample_totals();
                    assert!(reserved > 0, "threads={threads}: no refill was reserved");
                }
                for depth in [2usize, 4, 8, 16] {
                    let (out, hinted) = run(depth);
                    assert_eq!(
                        baseline.paths(),
                        out.paths(),
                        "{algo} threads={threads}: depth 1 vs {depth}"
                    );
                    assert_eq!(
                        stats.pre_sample_totals(),
                        hinted.pre_sample_totals(),
                        "{algo} threads={threads}: depth 1 vs {depth}"
                    );
                    assert!(hinted.prefetch_totals().0 > 0, "{algo} at depth {depth}");
                }
            }
        }
    }

    #[test]
    fn ring_override_resolution_order() {
        // Config forcing beats the planner auto choice; small test
        // partitions fit the LLC, so auto is all ones.
        let g = synth::power_law(300, 2.0, 1, 30, 5);
        let auto = FlashMob::new(&g, config(200, 6)).unwrap();
        assert!(auto.ring_depths.iter().all(|&d| d == 1), "{:?}", auto.ring_depths);
        let forced = FlashMob::new(&g, config(200, 6).ring_depth(4)).unwrap();
        assert!(forced.ring_depths.iter().all(|&d| d == 4));
        // Out-of-range requests clamp instead of panicking.
        let clamped = FlashMob::new(&g, config(200, 6).ring_depth(999)).unwrap();
        assert!(clamped
            .ring_depths
            .iter()
            .all(|&d| d == crate::sample::ring::MAX_RING_DEPTH));
    }

    #[test]
    fn forced_ring_reports_prefetches() {
        let g = synth::power_law(300, 2.0, 1, 30, 5);
        let run = |depth: usize| {
            let engine = FlashMob::new(&g, config(200, 6).ring_depth(depth)).unwrap();
            let (_, stats) = run_default(&engine).unwrap();
            stats
        };
        // "The ring is off" and "nothing was hinted" are two facts: at
        // depth 1 the ring issues nothing, while the partition stream
        // hints the same partitions at either depth.
        let off = run(1);
        let (ring, stream) = off.prefetch_totals();
        assert_eq!(ring, 0, "depth 1 is the ring off");
        assert!(stream > 0, "dense partitions are streamed in at any depth");
        assert_eq!(off.per_partition_prefetches, off.per_partition_stream_hints);
        let on = run(8);
        assert!(
            on.prefetch_totals().0 > 0,
            "ring depth 8 must issue prefetch hints"
        );
        assert_eq!(
            on.per_partition_stream_hints,
            off.per_partition_stream_hints
        );
        assert_eq!(off.per_partition_steps, on.per_partition_steps);
        let summary = on.human_summary();
        assert!(summary.contains("by the walker ring"), "{summary}");
        assert!(summary.contains("streaming partitions in"), "{summary}");

        // Nothing hinted at all: ring off and the guard at *never*.
        let mut engine = FlashMob::new(&g, config(200, 6).ring_depth(1)).unwrap();
        engine.hint_lines_per_walker = 0;
        let (_, none) = run_default(&engine).unwrap();
        assert_eq!(none.per_partition_prefetches.iter().sum::<u64>(), 0);
        assert!(!none.human_summary().contains("prefetch"));
        assert_eq!(none.per_partition_steps, off.per_partition_steps);
    }

    /// What a run leaves behind that a hint could conceivably have
    /// moved: the rows, the step counters, and — through a halted
    /// checkpointing run's snapshot file — the PS buffers, their
    /// cursors and the walker lanes mid-walk, byte for byte.
    #[derive(Debug, PartialEq)]
    struct Trace {
        rows: Vec<Vec<VertexId>>,
        steps_taken: u64,
        per_partition_steps: Vec<u64>,
        visits: Option<Vec<u64>>,
        snapshot: Vec<u8>,
        resumed_rows: Vec<Vec<VertexId>>,
    }

    /// Runs `cfg` on `graph` with one of the engine's bit-invisible
    /// choices forced by `force`: a whole run, a run halted after its
    /// first checkpoint, and a resume from that checkpoint.
    fn trace(
        graph: &Csr,
        cfg: &WalkConfig,
        force: impl Fn(&mut FlashMob),
        tag: &str,
    ) -> (Trace, RunStats) {
        let mut engine = FlashMob::new(graph, cfg.clone()).unwrap();
        force(&mut engine);
        let (out, stats) = run_default(&engine).unwrap();
        let dir = std::env::temp_dir().join(format!("fm_hint_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let halt = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 2).halt_after(1));
        assert!(matches!(
            engine.run_with(&halt, &mut Telemetry::off()),
            Err(WalkError::Halted { generation: 1 })
        ));
        let snapshot = std::fs::read(dir.join(CheckpointSink::snapshot_name(1))).unwrap();
        let resume = RunOptions::default().resume_from(&dir);
        let (resumed, resumed_stats) = engine.run_with(&resume, &mut Telemetry::off()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(resumed_stats.steps_taken, stats.steps_taken, "{tag}");
        let trace = Trace {
            rows: out.raw_steps().to_vec(),
            steps_taken: stats.steps_taken,
            per_partition_steps: stats.per_partition_steps.clone(),
            visits: stats.visits_sorted.clone(),
            snapshot,
            resumed_rows: resumed.raw_steps().to_vec(),
        };
        (trace, stats)
    }

    /// `g` with edge `e` labelled `e % 2` (every vertex of a graph of
    /// minimum degree 2 keeps both labels within reach often enough).
    fn labeled_copy(g: &Csr) -> Csr {
        let labels = (0..g.edge_count()).map(|e| (e % 2) as u8).collect();
        g.clone().with_edge_labels(labels).unwrap()
    }

    /// The tentpole's invariant, end to end: the hint stage is invisible.
    /// Guard *never*, the shipped guard and *always* leave the same
    /// rows, counters and snapshot bytes, for every first-order program
    /// on every plan shape at every thread count — through a mid-walk
    /// checkpoint, and with the walker ring forced to 16 on top.
    #[test]
    fn hint_stage_is_invisible_in_every_first_order_run() {
        let g = synth::power_law(400, 2.0, 2, 40, 9);
        let base = config(300, 6).record_visits(true);
        let with = |algorithm: WalkAlgorithm| {
            let mut cfg = base.clone();
            cfg.algorithm = algorithm;
            cfg
        };
        let mut geometric = base.clone();
        geometric.stop = StopRule::Geometric {
            exit_prob: 0.3,
            max_steps: 6,
        };
        let pattern = crate::algorithm::MetapathPattern::new(&[0, 1]).unwrap();
        let cells = [
            ("deepwalk", g.clone(), base.clone()),
            ("weighted", weighted_copy(&g), with(WalkAlgorithm::Weighted)),
            ("ppr", g.clone(), with(WalkAlgorithm::Ppr { alpha: 0.2 })),
            ("early-exit", g.clone(), with(WalkAlgorithm::EarlyExit)),
            (
                "metapath",
                labeled_copy(&g),
                with(WalkAlgorithm::Metapath { pattern }),
            ),
            // A populated dead bin from the first iteration on.
            ("geometric", g.clone(), geometric),
        ];
        for (algo, graph, cfg) in &cells {
            for strategy in [
                PlanStrategy::DynamicProgramming,
                PlanStrategy::UniformPs,
                PlanStrategy::UniformDs,
            ] {
                let cfg = cfg.clone().strategy(strategy);
                let tag = format!("{algo}_{strategy:?}");
                let guarded =
                    |guard: usize| move |e: &mut FlashMob| e.hint_lines_per_walker = guard;
                let (want, never) = trace(graph, &cfg, guarded(0), &tag);
                assert_eq!(
                    never.per_partition_prefetches.iter().sum::<u64>(),
                    0,
                    "{tag}"
                );
                for threads in [1usize, 2, 3, 8] {
                    for ring in [None, Some(16)] {
                        let mut cfg = cfg.clone().threads(threads);
                        cfg.ring_depth = ring;
                        let what = format!("{tag}_{threads}_{ring:?}");
                        for guard in [0, HINT_LINES_PER_WALKER, usize::MAX] {
                            let (got, stats) = trace(graph, &cfg, guarded(guard), &what);
                            assert_eq!(got, want, "{what} guard {guard}");
                            let hinted = stats.prefetch_totals().1 > 0;
                            assert_eq!(hinted, guard > 0, "{what} guard {guard}");
                        }
                    }
                }
            }
        }
    }

    /// The reserved form of a PS generation is invisible, end to end.
    /// With every refill produced (the rule at *never*), under the
    /// shipped rule and with every refill that can be reserved
    /// (*always*), a run leaves the same rows, counters and snapshot
    /// bytes and resumes to the same rows — for each program that
    /// consumes pre-samples, on the planner's plan and with PS forced
    /// everywhere, at every thread count, ring off and at 16.  The
    /// snapshot is cut after iteration 2 of 6, with generations part
    /// read in whichever form they took, on buffers a previous run left
    /// behind.  What the forms do differ in is counted, and the count is
    /// exact: the same stream length and the same consumes.
    #[test]
    fn reserved_generations_are_invisible() {
        let g = synth::power_law(400, 2.0, 2, 40, 9);
        let base = config(300, 6).record_visits(true);
        let with = |algorithm: WalkAlgorithm| {
            let mut cfg = base.clone();
            cfg.algorithm = algorithm;
            cfg
        };
        let mut geometric = base.clone();
        geometric.stop = StopRule::Geometric {
            exit_prob: 0.3,
            max_steps: 6,
        };
        let cells = [
            ("deepwalk", base.clone()),
            ("node2vec", with(WalkAlgorithm::Node2Vec { p: 2.0, q: 0.5 })),
            ("ppr", with(WalkAlgorithm::Ppr { alpha: 0.2 })),
            ("early-exit", with(WalkAlgorithm::EarlyExit)),
            ("geometric", geometric),
        ];
        let factor = |k: usize| move |e: &mut FlashMob| e.reserve_factor = k;
        const NEVER: usize = usize::MAX;
        const ALWAYS: usize = 0;
        for (algo, cfg) in &cells {
            for strategy in [PlanStrategy::DynamicProgramming, PlanStrategy::UniformPs] {
                let cfg = cfg.clone().strategy(strategy);
                for threads in [1usize, 2, 3, 8] {
                    for ring in [Some(1), Some(16)] {
                        let mut cfg = cfg.clone().threads(threads);
                        cfg.ring_depth = ring;
                        let what = format!("{algo}_{strategy:?}_{threads}_{ring:?}");
                        let (want, never) = trace(&g, &cfg, factor(NEVER), &what);
                        let (produced, reserved, consumed) = never.pre_sample_totals();
                        assert_eq!(reserved, 0, "{what}");
                        assert!(consumed > 0 && produced > consumed, "{what}");
                        for k in [RESERVE_FACTOR, ALWAYS] {
                            let (got, stats) = trace(&g, &cfg, factor(k), &what);
                            assert_eq!(got, want, "{what} factor {k}");
                            let (p, r, c) = stats.pre_sample_totals();
                            assert_eq!((p + r, c), (produced, consumed), "{what} factor {k}");
                            // Four-edge rows and longer are most of a
                            // power-law graph's edges.
                            assert!(k != ALWAYS || r > p, "{what}: {r} reserved, {p} produced");
                            let again = trace(&g, &cfg, factor(k), &what).1;
                            assert_eq!(
                                again.per_partition_ps_reserved,
                                stats.per_partition_ps_reserved
                            );
                            assert_eq!(
                                again.per_partition_ps_produced,
                                stats.per_partition_ps_produced
                            );
                            assert_eq!(
                                again.per_partition_ps_consumed,
                                stats.per_partition_ps_consumed
                            );
                        }
                    }
                }
            }
        }
    }

    /// The shipped rule reserves where walkers are few for the edges
    /// and produces where they are many, and says so in `--stats`.
    #[test]
    fn sparse_tasks_reserve_and_dense_tasks_produce() {
        let g = synth::power_law(4_000, 2.0, 4, 200, 13);
        let run = |walkers: usize| {
            let cfg = config(walkers, 4).strategy(PlanStrategy::UniformPs);
            run_default(&FlashMob::new(&g, cfg).unwrap()).unwrap().1
        };
        let sparse = run(40);
        let (produced, reserved, consumed) = sparse.pre_sample_totals();
        assert_eq!(produced, 0, "minimum degree 4: every row can be reserved");
        assert!(reserved > 0 && consumed == 160);
        let summary = sparse.human_summary();
        assert!(
            summary.contains(&format!(
                "pre-samples: 0 produced, {reserved} reserved, 160 consumed"
            )),
            "{summary}"
        );
        let kernel = format!("checked skip: {}\n", fm_rng::skip_kernel());
        assert!(summary.contains(&kernel), "{summary}");
        let dense = run(40_000);
        let (produced, reserved, _) = dense.pre_sample_totals();
        assert!(produced > 0 && reserved == 0, "{produced} {reserved}");
        assert!(!dense.human_summary().contains("checked skip"));
        // A DS plan pre-samples nothing and prints no such line.
        let ds = FlashMob::new(&g, config(40, 4).strategy(PlanStrategy::UniformDs)).unwrap();
        let ds = run_default(&ds).unwrap().1;
        assert_eq!(ds.pre_sample_totals(), (0, 0, 0));
        assert!(!ds.human_summary().contains("pre-samples"));
    }

    /// Which partitions the stage hints, on one step from known starts:
    /// with the guard at *always*, every occupied partition but the
    /// first of its range — so the last partition hints nothing after
    /// it, an empty neighbour and a run of empty partitions are skipped
    /// over, a run of empty partitions to the end hints nothing, and a
    /// one-partition plan never hints.
    #[test]
    fn hints_go_to_the_next_occupied_partition_of_the_range() {
        let g = synth::power_law(2_000, 2.0, 2, 60, 4);
        let params = PlannerParams {
            max_partitions: 32,
            ..small_params()
        };
        let probe = FlashMob::new(
            &g,
            config(8, 1)
                .planner(params.clone())
                .strategy(PlanStrategy::UniformDs),
        )
        .unwrap();
        let parts = probe.plan().partitions.clone();
        assert!(parts.len() >= 8);
        let last = parts.len() - 1;
        // One original-id start vertex inside sorted partition `pi`.
        let start_in = |pi: usize| probe.relabeling().to_old(parts[pi].start);
        let occupied_sets: [&[usize]; 5] = [&[0], &[0, 1, 2], &[1, 3, last], &[2, 6], &[last]];
        for strategy in [PlanStrategy::UniformDs, PlanStrategy::UniformPs] {
            for occupied in occupied_sets {
                let starts = occupied.iter().map(|&pi| start_in(pi)).collect();
                let cfg = config(8, 1)
                    .planner(params.clone())
                    .strategy(strategy)
                    .init(WalkerInit::Fixed(starts));
                let run = |guard: usize| {
                    let mut engine = FlashMob::new(&g, cfg.clone()).unwrap();
                    assert_eq!(engine.plan().partitions.len(), parts.len());
                    engine.hint_lines_per_walker = guard;
                    run_default(&engine).unwrap()
                };
                let (out, stats) = run(usize::MAX);
                let hinted: Vec<usize> = (0..parts.len())
                    .filter(|&pi| stats.per_partition_stream_hints[pi] > 0)
                    .collect();
                assert_eq!(hinted, occupied[1..], "{strategy:?} {occupied:?}");
                assert_eq!(out.paths(), run(0).0.paths(), "{strategy:?} {occupied:?}");
            }
        }
        // A one-partition plan has no next partition.
        let one = PlannerParams {
            max_partitions: 1,
            ..small_params()
        };
        let mut engine = FlashMob::new(
            &g,
            config(500, 3)
                .planner(one)
                .strategy(PlanStrategy::UniformDs),
        )
        .unwrap();
        assert_eq!(engine.plan().partitions.len(), 1);
        engine.hint_lines_per_walker = usize::MAX;
        let (_, stats) = run_default(&engine).unwrap();
        assert_eq!(stats.per_partition_prefetches, vec![0]);
    }

    #[test]
    fn parallel_record_visits_matches_sequential() {
        // Visit slots are partition-disjoint, so the parallel sample
        // stage may write them lock-free; counts must equal the
        // sequential run's exactly.
        let g = synth::power_law(300, 2.0, 1, 30, 5);
        let run = |threads: usize| {
            let cfg = config(200, 6).record_visits(true).threads(threads);
            let engine = FlashMob::new(&g, cfg).unwrap();
            let (_, stats) = run_default(&engine).unwrap();
            stats.visits_sorted.unwrap()
        };
        let seq = run(1);
        for threads in [2usize, 3, 8] {
            assert_eq!(seq, run(threads), "visit counts at {threads} threads");
        }
    }

    #[test]
    fn pool_stats_reflect_one_spawn_per_thread() {
        let g = synth::power_law(300, 2.0, 1, 30, 5);
        let engine = FlashMob::new(&g, config(200, 8).threads(4)).unwrap();
        let (_, stats) = run_default(&engine).unwrap();
        assert_eq!(stats.pool.spawned, 4, "one spawn per thread, not per step");
        assert!(
            stats.pool.epochs >= 8,
            "at least one dispatch per step, got {}",
            stats.pool.epochs
        );
        let seq = FlashMob::new(&g, config(200, 8)).unwrap();
        let (_, s) = run_default(&seq).unwrap();
        assert_eq!(s.pool, PoolStats::default(), "sequential runs skip the pool");
    }

    #[test]
    fn stats_account_for_all_steps() {
        let g = synth::power_law(200, 2.0, 1, 20, 1);
        let engine = FlashMob::new(&g, config(150, 4)).unwrap();
        let (_, stats) = run_default(&engine).unwrap();
        assert_eq!(stats.steps_taken, 150 * 4);
        assert_eq!(
            stats.per_partition_steps.iter().sum::<u64>(),
            stats.steps_taken
        );
        assert!(stats.per_step_ns() > 0.0);
    }

    #[test]
    fn visits_match_path_derived_counts() {
        let g = synth::power_law(200, 2.0, 1, 20, 4);
        let cfg = config(100, 6).record_visits(true);
        let engine = FlashMob::new(&g, cfg).unwrap();
        let (out, stats) = run_default(&engine).unwrap();
        let from_paths = out.visit_counts(g.vertex_count());
        let from_stats = stats.visits_original(engine.relabeling()).unwrap();
        assert_eq!(from_paths, from_stats);
    }

    #[test]
    fn node2vec_runs_and_respects_edges() {
        let g = synth::power_law(300, 2.0, 2, 30, 8);
        let cfg = WalkConfig::node2vec(0.5, 2.0)
            .walkers(100)
            .steps(6)
            .seed(3)
            .planner(small_params());
        let engine = FlashMob::new(&g, cfg).unwrap();
        let out = run_default(&engine).unwrap().0;
        for path in out.paths() {
            for hop in path.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
    }

    #[test]
    fn node2vec_bias_shapes_distribution() {
        // t = 0, current = 1 with neighbours {0, 2, 3}; 2 is adjacent to
        // 0, 3 is not.  Every walker starts at 0, so the walkers whose
        // first step lands on 1 take their second from 1 with prev 0.
        let g = Csr::from_edges(
            4,
            &[
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 2),
                (1, 3),
                (2, 0),
                (2, 1),
                (3, 1),
            ],
        )
        .unwrap();
        let cfg = WalkConfig::node2vec(4.0, 4.0)
            .walkers(120_000)
            .steps(2)
            .seed(5)
            .planner(small_params())
            .init(crate::WalkerInit::Fixed(vec![0]));
        let out = run_default(&FlashMob::new(&g, cfg).unwrap()).unwrap().0;
        let mut counts = [0usize; 4];
        for path in out.paths().iter().filter(|p| p[1] == 1) {
            counts[path[2] as usize] += 1;
        }
        let n: usize = counts.iter().sum();
        assert!(n > 50_000, "{n} walkers reached 1");
        // Unnormalized: back to 0 = 1/p = .25; to 2 (adjacent to 0) = 1;
        // to 3 (not adjacent) = 1/q = .25.  Total 1.5.
        let f = |t: usize| counts[t] as f64 / n as f64;
        assert!((f(0) - 0.25 / 1.5).abs() < 0.02, "return {}", f(0));
        assert!((f(2) - 1.0 / 1.5).abs() < 0.02, "triangle {}", f(2));
        assert!((f(3) - 0.25 / 1.5).abs() < 0.02, "explore {}", f(3));
    }

    /// Regression for the `bound_min` contract: with p = q = 1 every
    /// node2vec weight equals the bound, so every draw fast-accepts —
    /// and the documented behaviour is that such draws skip the
    /// connectivity check *entirely*, touching neither the bloom filter
    /// nor `t`'s adjacency.
    #[test]
    fn bound_min_fast_accept_skips_connectivity_probes_entirely() {
        struct RegionCounter {
            base: u64,
            end: u64,
            hits: u64,
        }
        impl Probe for RegionCounter {
            fn touch(&mut self, addr: u64, _bytes: u32, _kind: fm_memsim::AccessKind) {
                if addr >= self.base && addr < self.end {
                    self.hits += 1;
                }
            }
        }
        let g = synth::power_law(300, 2.0, 2, 40, 23);
        let run = |p: f64, q: f64| {
            let cfg = WalkConfig::node2vec(p, q)
                .walkers(2000)
                .steps(3)
                .seed(3)
                .planner(small_params());
            let engine = FlashMob::new(&g, cfg).unwrap();
            let bloom = engine.edge_bloom.as_ref().unwrap().footprint_bytes() as u64;
            let base = engine.addr.map.edge_bloom;
            let mut counter = RegionCounter {
                base,
                end: base + bloom,
                hits: 0,
            };
            engine.run_probed(&mut counter).unwrap();
            counter.hits
        };
        assert_eq!(run(1.0, 1.0), 0, "p=q=1: every draw is below bound_min");
        assert!(
            run(4.0, 4.0) > 0,
            "p=q=4: draws must reach the bloom filter"
        );
    }

    #[test]
    fn geometric_stop_terminates_early() {
        let g = synth::cycle(64);
        let mut cfg = config(500, 100);
        cfg.stop = StopRule::Geometric {
            exit_prob: 0.5,
            max_steps: 100,
        };
        let engine = FlashMob::new(&g, cfg).unwrap();
        let (out, stats) = run_default(&engine).unwrap();
        // Expected ~2 steps per walker; far fewer than the bound.
        assert!(stats.steps_taken < 500 * 10);
        let lens: Vec<usize> = out.paths().iter().map(|p| p.len()).collect();
        assert!(lens.iter().any(|&l| l < 5), "some walker should die early");
    }

    #[test]
    fn a_finished_walk_is_checkpointed_and_resumes_in_zero_iterations() {
        // The cadence lands on neither end: 7 steps at every 3, and a
        // geometric walk whose walkers all die long before its bound.
        let g = synth::power_law(400, 2.0, 2, 40, 9);
        let fixed = config(300, 7).record_visits(true);
        let mut geometric = config(300, 64);
        geometric.stop = StopRule::Geometric {
            exit_prob: 0.5,
            max_steps: 64,
        };
        for (what, cfg, every) in [("fixed", fixed, 3), ("geometric", geometric, 64)] {
            let engine = FlashMob::new(&g, cfg).unwrap();
            let (want, want_stats) = run_default(&engine).unwrap();
            let dir = std::env::temp_dir()
                .join(format!("fm_engine_completion_{}_{what}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let checkpointed = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, every));
            engine.run_with(&checkpointed, &mut Telemetry::off()).unwrap();
            // The last generation on disk holds the finished walk.
            let (generation, snap) = fm_recover::load_latest(&dir).unwrap();
            let end = snap.iter_next;
            assert!(!end.is_multiple_of(every as u64), "{what}: the cadence hit the end");
            assert_eq!(generation, end.div_ceil(every as u64), "{what}");
            assert_eq!(snap.steps_taken, want_stats.steps_taken, "{what}");
            if what == "geometric" {
                assert!(snap.w.iter().all(|&v| v == DEAD), "{what}");
            }
            // Resuming from it executes no iteration and returns the walk.
            let mut tel = Telemetry::new();
            let resume = RunOptions::default().resume_from(&dir);
            let (got, stats) = engine.run_with(&resume, &mut tel).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(tel.partition_steps_total(), 0, "{what}");
            assert_eq!(got.paths(), want.paths(), "{what}");
            let counts = |s: &RunStats| {
                (s.steps_taken, s.per_partition_steps.clone(), s.visits_sorted.clone())
            };
            assert_eq!(counts(&stats), counts(&want_stats), "{what}");
        }
    }

    #[test]
    fn weighted_walk_requires_weights() {
        let g = synth::cycle(16);
        let mut cfg = config(10, 2);
        cfg.algorithm = WalkAlgorithm::Weighted;
        assert!(matches!(
            FlashMob::new(&g, cfg),
            Err(WalkError::MissingWeights)
        ));
    }

    #[test]
    fn sink_vertices_rejected() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0)]).unwrap();
        assert!(matches!(
            FlashMob::new(&g, config(10, 2)),
            Err(WalkError::SinkVertex(_))
        ));
    }

    #[test]
    fn zero_walkers_rejected() {
        let g = synth::cycle(8);
        assert!(matches!(
            FlashMob::new(&g, config(0, 2)),
            Err(WalkError::NoWalkers)
        ));
    }

    #[test]
    fn all_strategies_produce_valid_runs() {
        let g = synth::power_law(400, 1.9, 1, 60, 6);
        for strategy in [
            PlanStrategy::DynamicProgramming,
            PlanStrategy::UniformPs,
            PlanStrategy::UniformDs,
            PlanStrategy::ManualHeuristic,
        ] {
            let cfg = config(200, 4).strategy(strategy);
            let engine = FlashMob::new(&g, cfg).unwrap();
            let out = run_default(&engine).unwrap().0;
            for path in out.paths() {
                for hop in path.windows(2) {
                    assert!(g.neighbors(hop[0]).contains(&hop[1]), "{strategy:?}");
                }
            }
        }
    }

    #[test]
    fn fixed_starts_are_honored_in_original_ids() {
        let g = synth::star(16);
        let cfg = config(4, 3).init(crate::WalkerInit::Fixed(vec![5, 9]));
        let engine = FlashMob::new(&g, cfg).unwrap();
        let out = run_default(&engine).unwrap().0;
        let paths = out.paths();
        assert_eq!(paths[0][0], 5);
        assert_eq!(paths[1][0], 9);
        assert_eq!(paths[2][0], 5);
    }

    /// The three algorithms of the determinism matrix on one graph, each
    /// as a config builder (weighted walks get the weighted copy).
    fn matrix_cells(g: &Csr, walkers: usize) -> Vec<(&'static str, Csr, WalkConfig)> {
        let node2vec = WalkConfig::node2vec(0.5, 2.0)
            .walkers(walkers)
            .steps(5)
            .seed(7)
            .planner(small_params());
        let mut weighted = config(walkers, 5);
        weighted.algorithm = WalkAlgorithm::Weighted;
        vec![
            ("deepwalk", g.clone(), config(walkers, 5)),
            ("weighted", weighted_copy(g), weighted),
            ("node2vec", g.clone(), node2vec),
        ]
    }

    #[test]
    fn reruns_on_one_engine_equal_a_fresh_engines_first_run() {
        // A run that inherits the previous run's PS buffers resets their
        // cursors and nothing else.  The buffers handed over here were
        // last filled under *another* seed, by an engine of the same plan,
        // so a single stale sample read would show.
        let g = synth::power_law(400, 2.0, 2, 40, 9);
        for (algo, graph, cfg) in matrix_cells(&g, 300) {
            for strategy in [PlanStrategy::DynamicProgramming, PlanStrategy::UniformPs] {
                for threads in [1usize, 2, 3, 8] {
                    let cfg = cfg.clone().strategy(strategy).threads(threads);
                    let fresh = |seed: u64| {
                        let engine = FlashMob::new(&graph, cfg.clone().seed(seed)).unwrap();
                        run_default(&engine).unwrap().0.paths()
                    };
                    let what = format!("{algo} {strategy:?} {threads} threads");
                    let engine = FlashMob::new(&graph, cfg.clone()).unwrap();
                    let pre_samples = |p: &crate::Partition| p.policy == SamplePolicy::PreSample;
                    assert!(engine.plan().partitions.iter().any(pre_samples), "{what}");
                    let want = fresh(cfg.seed);
                    assert_eq!(
                        run_default(&engine).unwrap().0.paths(),
                        want,
                        "{what}: first run"
                    );
                    let other_seed = cfg.seed + 1;
                    let other = FlashMob::new(&graph, cfg.clone().seed(other_seed)).unwrap();
                    *other.lock_ps_pool() = engine.lock_ps_pool().take();
                    let other_paths = run_default(&other).unwrap().0.paths();
                    assert_eq!(other_paths, fresh(other_seed), "{what}: other seed");
                    *engine.lock_ps_pool() = other.lock_ps_pool().take();
                    assert_eq!(
                        run_default(&engine).unwrap().0.paths(),
                        want,
                        "{what}: second run"
                    );
                    assert_eq!(
                        run_default(&engine).unwrap().0.paths(),
                        want,
                        "{what}: third run"
                    );
                }
            }
        }
    }

    #[test]
    fn resume_is_bit_exact_around_inherited_ps_buffers() {
        let g = synth::power_law(400, 2.0, 2, 40, 9);
        for (algo, graph, cfg) in matrix_cells(&g, 300) {
            let cfg = cfg.strategy(PlanStrategy::UniformPs);
            let want = run_default(&FlashMob::new(&graph, cfg.clone()).unwrap())
                .unwrap()
                .0;
            let dir = std::env::temp_dir()
                .join(format!("fm_engine_ps_pool_{}_{algo}", std::process::id()));
            let engine = FlashMob::new(&graph, cfg).unwrap();
            run_default(&engine).unwrap();
            // The checkpointing run inherits buffers, so its snapshot
            // carries the previous run's samples in the slots it has not
            // refilled yet; the halt drops the set.
            let halt = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 2).halt_after(1));
            assert!(matches!(
                engine.run_with(&halt, &mut Telemetry::off()),
                Err(WalkError::Halted { generation: 1 })
            ));
            // Park a set again, so the resume imports into inherited
            // buffers.
            run_default(&engine).unwrap();
            let resume = RunOptions::default().resume_from(&dir);
            let (resumed, _) = engine.run_with(&resume, &mut Telemetry::off()).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(resumed.paths(), want.paths(), "{algo}");
            assert_eq!(
                run_default(&engine).unwrap().0.paths(),
                want.paths(),
                "{algo}: after"
            );
        }
    }

    #[test]
    fn config_tag_and_snapshot_bytes_are_pinned() {
        // Recorded on the commit before `run_with` replaced the
        // checkpoint/resume entry points: the tag a snapshot is checked
        // against, and the bytes of a generation-1 snapshot file, must
        // not move, or checkpoints written before stop resuming after.
        let g = synth::power_law(400, 2.0, 2, 40, 9);
        let cfg = WalkConfig::node2vec(0.5, 2.0)
            .walkers(120)
            .steps(6)
            .seed(7)
            .planner(small_params())
            .strategy(PlanStrategy::UniformPs)
            .record_visits(true)
            .init(WalkerInit::Fixed(vec![3, 1, 4, 1, 5]));
        let engine = FlashMob::new(&g, cfg).unwrap();
        assert_eq!(engine.config_tag(), 0x6ab7_3c64_5a59_945e);
        let dir = std::env::temp_dir().join(format!("fm_engine_pin_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let halt = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 2).halt_after(1));
        assert!(matches!(
            engine.run_with(&halt, &mut Telemetry::off()),
            Err(WalkError::Halted { generation: 1 })
        ));
        let bytes = std::fs::read(dir.join(CheckpointSink::snapshot_name(1))).unwrap();
        assert_eq!(bytes.len(), 18734);
        assert_eq!(fm_recover::fnv64(&bytes), 0x73a5_22e7_dde1_a622);
        let resume = RunOptions::default().resume_from(&dir);
        let (resumed, stats) = engine.run_with(&resume, &mut Telemetry::off()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let mut paths = Fingerprint::new();
        for v in resumed.paths().into_iter().flatten() {
            paths.fold_u64(v as u64);
        }
        assert_eq!(paths.value(), 0x3beb_aec7_c1eb_9bca);
        assert_eq!(stats.steps_taken, 720);
    }

    #[test]
    fn every_cell_resumes_bit_exactly_across_thread_counts() {
        // Every walk, node2vec included, draws one chain at every thread
        // count, so a checkpoint written at any of {1, 2, 8} threads
        // resumes at any other into the uninterrupted one-thread walk.
        let g = synth::power_law(400, 2.0, 2, 40, 9);
        for (algo, graph, cfg) in matrix_cells(&g, 300) {
            let engine =
                |threads: usize| FlashMob::new(&graph, cfg.clone().threads(threads)).unwrap();
            let want = run_default(&engine(1)).unwrap().0.paths();
            for written in [1usize, 2, 8] {
                let dir = std::env::temp_dir().join(format!(
                    "fm_engine_cross_{}_{algo}_{written}",
                    std::process::id()
                ));
                std::fs::remove_dir_all(&dir).ok();
                let halt =
                    RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 2).halt_after(1));
                assert!(matches!(
                    engine(written).run_with(&halt, &mut Telemetry::off()),
                    Err(WalkError::Halted { generation: 1 })
                ));
                let resume = RunOptions::default().resume_from(&dir);
                for threads in [1usize, 2, 8] {
                    let what = format!("{algo} written at {written}, resumed at {threads} threads");
                    let (out, _) = engine(threads)
                        .run_with(&resume, &mut Telemetry::off())
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(out.paths(), want, "{what}");
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    /// Blocks its run at the first memory access until the other run has
    /// reached its own: both are then past the prologue, one holding the
    /// engine's buffers and one a fresh set.
    struct MeetAtFirstTouch<'b> {
        barrier: &'b std::sync::Barrier,
        met: bool,
    }

    impl Probe for MeetAtFirstTouch<'_> {
        fn touch(&mut self, _: u64, _: u32, _: fm_memsim::AccessKind) {
            if !self.met {
                self.barrier.wait();
                self.met = true;
            }
        }
    }

    #[test]
    fn concurrent_runs_on_one_engine_both_match() {
        let g = synth::power_law(400, 2.0, 2, 40, 9);
        for (algo, graph, cfg) in matrix_cells(&g, 300) {
            let engine = FlashMob::new(&graph, cfg.strategy(PlanStrategy::UniformPs)).unwrap();
            let want = run_default(&engine).unwrap().0.paths();
            let barrier = std::sync::Barrier::new(2);
            let overlapped = || {
                let mut probe = MeetAtFirstTouch {
                    barrier: &barrier,
                    met: false,
                };
                let (out, _) = engine.run_probed(&mut probe).unwrap();
                assert!(probe.met);
                out.paths()
            };
            let (a, b) = std::thread::scope(|s| {
                let other = s.spawn(overlapped);
                (overlapped(), other.join().unwrap())
            });
            assert_eq!(a, want, "{algo}");
            assert_eq!(b, want, "{algo}");
            assert_eq!(
                run_default(&engine).unwrap().0.paths(),
                want,
                "{algo}: after"
            );
        }
    }

    #[test]
    fn rejects_walker_counts_beyond_its_shuffle_counters() {
        if usize::BITS <= 32 {
            return;
        }
        // Refused at construction, before a lane is allocated.
        assert!(matches!(
            FlashMob::new(&synth::cycle(16), config(u32::MAX as usize + 1, 2)),
            Err(WalkError::Config(_))
        ));
    }

    #[test]
    fn stats_summaries_are_nan_free_at_zero_steps() {
        // A default RunStats has steps_taken == 0 and a zero wall; every
        // derived ratio and rendered summary must stay finite.
        let stats = RunStats::default();
        assert_eq!(stats.per_step_ns(), 0.0);
        assert_eq!(stats.stage_ns_per_step(), (0.0, 0.0, 0.0));
        assert_eq!(stats.stage_shares(), (0.0, 0.0, 0.0));
        assert_eq!(stats.pool_idle_ratio(), 0.0);
        assert_eq!(stats.init_ns_per_walker(), 0.0);
        let human = stats.human_summary();
        assert!(!human.contains("NaN") && !human.contains("inf"), "{human}");
    }

    #[test]
    fn in_memory_runs_refuse_fault_injection() {
        let g = synth::cycle(8);
        let engine = FlashMob::new(&g, config(4, 2)).unwrap();
        let opts = RunOptions::default().fault(FaultPolicy::transient(1, 0.5));
        assert!(matches!(
            engine.run_with(&opts, &mut Telemetry::off()),
            Err(WalkError::Config(_))
        ));
    }

    #[test]
    fn run_stats_tile_the_wall_and_summarise() {
        let g = synth::power_law(300, 2.0, 1, 30, 5);
        let engine = FlashMob::new(&g, config(200, 4).threads(2)).unwrap();
        let (_, stats) = run_default(&engine).unwrap();
        assert_eq!(stats.steps_taken, 200 * 4);
        assert_eq!(
            stats.per_partition_steps.len(),
            engine.plan().partitions.len()
        );
        assert_eq!(stats.pool.spawned, 2);
        // The prologue is a part of `other`, which still closes the
        // tiling of the wall clock.
        assert!(stats.init > Duration::ZERO && stats.init <= stats.stages.other);
        assert_eq!(
            stats.stages.sample + stats.stages.shuffle + stats.stages.other,
            stats.wall
        );
        let human = stats.human_summary();
        assert!(human.contains("init: "), "{human}");
        assert!(human.contains("stages (ns/step)"), "{human}");
        assert!(human.contains("stage share"), "{human}");
        assert!(human.contains("idle ratio"), "{human}");
    }

    #[test]
    fn traced_run_is_bit_identical_and_counts_exactly() {
        let g = synth::power_law(400, 2.0, 1, 40, 3);
        let node2vec = WalkConfig::node2vec(0.5, 2.0)
            .walkers(300)
            .steps(5)
            .seed(7)
            .planner(small_params());
        for (cfg, threads) in [(config(300, 5), 1usize), (config(300, 5), 4), (node2vec, 4)] {
            let second_order = cfg.algorithm.is_second_order();
            let engine = FlashMob::new(&g, cfg.threads(threads)).unwrap();
            let plain = run_default(&engine).unwrap().0;
            let mut tel = fm_telemetry::Telemetry::new();
            let (traced, stats) = engine.run_with(&RunOptions::default(), &mut tel).unwrap();
            assert_eq!(plain.paths(), traced.paths(), "tracing must not perturb RNG");
            assert_eq!(
                tel.partition_steps_total(),
                stats.steps_taken,
                "partition counters must sum to steps_taken ({threads} threads)"
            );
            // Every step has coordinator-lane sample and shuffle spans
            // (shuffle twice: count+scatter and gather).
            assert!(tel.stage(Stage::Sample).spans >= 5, "{threads} threads");
            assert!(tel.stage(Stage::Shuffle).spans >= 10);
            assert_eq!(tel.stage(Stage::Plan).spans, 1);
            // The prologue is one span, inside the episode.
            assert_eq!(tel.stage(Stage::Other).spans, 1);
            let prologue = tel.stage(Stage::Other).total_ns;
            assert!(prologue > 0 && prologue <= stats.wall.as_nanos() as u64);
            if threads > 1 {
                // Worker-lane spans carry partition + worker attribution:
                // one a task, or one a worker's range on node2vec's
                // second-order steps.
                let worker_spans: Vec<_> = tel
                    .events()
                    .iter()
                    .filter(|e| e.thread > 0 && e.stage == Stage::Sample)
                    .collect();
                assert!(!worker_spans.is_empty(), "parallel runs record worker spans");
                for e in worker_spans {
                    let per_range = second_order && e.step > 0;
                    assert_eq!(e.partition == NO_PARTITION, per_range, "{e:?}");
                }
            }
        }
    }

    #[test]
    fn traced_run_attributes_ps_and_ds_policies() {
        let g = synth::power_law(600, 1.9, 1, 60, 4);
        let engine = FlashMob::new(&g, config(400, 4)).unwrap();
        let mut tel = fm_telemetry::Telemetry::new();
        let (_, stats) = engine.run_with(&RunOptions::default(), &mut tel).unwrap();
        let (ps, ds): (u64, u64) = tel
            .partition_counters()
            .iter()
            .fold((0, 0), |(p, d), c| (p + c.ps_steps, d + c.ds_steps));
        assert_eq!(ps + ds, stats.steps_taken, "every step has a policy");
        // Per-partition policy split must match the plan.
        for (pi, part) in engine.plan().partitions.iter().enumerate() {
            let c = tel.partition_counters()[pi];
            match part.policy {
                SamplePolicy::PreSample => assert_eq!(c.ds_steps, 0, "partition {pi}"),
                SamplePolicy::Direct => assert_eq!(c.ps_steps, 0, "partition {pi}"),
            }
        }
    }

    #[test]
    fn probed_run_collects_memory_stats() {
        use fm_memsim::{HierarchyConfig, MemorySystem};
        let g = synth::power_law(500, 2.0, 1, 50, 2);
        let engine = FlashMob::new(&g, config(400, 4)).unwrap();
        let mut probe = MemorySystem::new(HierarchyConfig::skylake_server());
        let (_, stats) = engine.run_probed(&mut probe).unwrap();
        assert_eq!(probe.stats().steps, stats.steps_taken);
        assert!(probe.stats().accesses > stats.steps_taken);
        // A tiny graph should be cache-resident after warmup: most
        // accesses hit L1/L2.
        let s = probe.stats();
        let hits = s.l1.hits + s.l2.hits + s.l3.hits;
        assert!(hits * 10 > s.accesses * 9, "cache hit rate too low");
    }
}
