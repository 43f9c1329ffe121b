//! The edge-sample stage: advancing every walker on one VP by one step.
//!
//! For each vertex partition the engine runs one *sample task* over the
//! contiguous chunk of the shuffled walker array belonging to that VP
//! (paper Section 4.2).  Walker state is scanned once, sequentially;
//! what varies is how the outgoing edge is found:
//!
//! * **Direct sampling (DS)** throws the dice on the spot, on the CSR.
//!   A uniform-degree partition finds a row by the row rule of its
//!   [`FixedDegreeSlab`] (one random read: the edge); an irregular one
//!   reads the row's offset pair first (offset read + edge read).
//! * **Pre-sampling (PS)** decouples sample *production* from
//!   *consumption*: each vertex owns a pre-sampled edge buffer of size
//!   `d(v)`, refilled in one batch (random reads confined to a single
//!   adjacency list + one sequential write stream) and consumed
//!   sequentially by the many walkers that batch onto hot vertices.
//!
//! Both paths drive the optional [`Probe`] with the access patterns of
//! the paper's Table 3, so instrumented runs reproduce the cache-miss
//! accounting of Figure 1b / Table 5.
//!
//! Both paths also run through the [`ring`] pipeline: a ring of `G`
//! in-flight walkers whose upcoming loads (CSR offset pair, edge range,
//! cum-weight slice, bloom probe words) are software-prefetched while
//! earlier walkers execute.  The pipeline's `execute` stage is the only
//! RNG consumer and runs in strict walker order, so every depth —
//! including depth 1, the legacy one-walker-at-a-time loop — produces
//! bit-identical walks (see the module docs of [`ring`]).
//!
//! In front of each first-order task the engine runs one hint-only
//! stage, [`hint_partition`]: while partition *i* samples, the working
//! set of the next occupied partition is streamed in, because a
//! partition that fits in cache is not in cache when its task starts.
//! [`worth_hinting`] gates it on walkers per cache line.

pub mod ring;

use fm_graph::bloom::EdgeBloom;
use fm_graph::{Csr, FixedDegreeSlab, VertexId};
use fm_memsim::{AccessKind, Probe};
use fm_rng::Rng64;

use crate::algorithm::{Node2VecRule, StopRule, WalkAlgorithm};
use crate::partition::{Partition, SamplePolicy};
use crate::DEAD;

/// Simulated base addresses of the engine's arrays (probe attribution).
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrMap {
    /// CSR offsets array.
    pub offsets: u64,
    /// CSR targets array.
    pub targets: u64,
    /// Per-edge cumulative weights (weighted walks).
    pub cum_weights: u64,
    /// Concatenated pre-sampled edge buffers.
    pub ps_buf: u64,
    /// Per-vertex PS buffer cursors.
    pub ps_cursor: u64,
    /// Shuffled current-position array (`SW_i`).
    pub scur: u64,
    /// Shuffled next-position array.
    pub snext: u64,
    /// Shuffled auxiliary lane: the previous position (node2vec) or a
    /// stateful program's origin.
    pub sprev: u64,
    /// Bloom edge-filter bit array.
    pub edge_bloom: u64,
    /// Per-edge type labels (metapath walks).
    pub edge_labels: u64,
}

/// Pre-sampled edge buffers for one PS partition (paper Figure 5).
///
/// The buffer of vertex `v` has capacity `d(v)` and mirrors the CSR
/// adjacency layout, so the whole structure is one flat array plus a
/// cursor per vertex.
///
/// A generation — the `d(v)` samples one refill stands for — is held in
/// one of two forms.  *Produced*: all `d` samples sit in the buffer and
/// the cursor counts the unread ones.  *Reserved*: the generator was
/// advanced past the `d` draws without making them
/// ([`Rng64::reserve_range`]); the buffer's first four slots hold the
/// state the generation starts from and the state its next sample comes
/// from, [`RESERVED`] is set in the cursor, and a sample is drawn when a
/// walker asks for it.  Both forms hand out the same samples and leave
/// the task's generator in the same state, so which one a refill takes
/// ([`reserves`]) shows in no walk, digest or snapshot.
#[derive(Debug, Clone)]
pub struct PsBuffers {
    start: VertexId,
    /// Flat buffer storage; vertex `start + i` owns
    /// `buf[local_offsets[i] .. local_offsets[i + 1]]`.
    buf: Vec<VertexId>,
    local_offsets: Vec<u32>,
    /// Remaining unconsumed samples per vertex (0 = needs refill), with
    /// [`RESERVED`] on top; read through [`PsBuffers::row`].
    cursor: Vec<u32>,
    /// Whether some row is too long for the cursor's top bit to be a flag
    /// ([`split_cursor`]); where none is, [`PsBuffers::reset`] is one
    /// mask over the cursors.
    wide: bool,
    /// Whether the task now running takes its refills reserved: set by
    /// whoever knows the task's walker count ([`PsBuffers::begin_task`]).
    reserving: bool,
    /// Pre-samples drawn into buffers, pre-samples skipped by a
    /// reservation, and samples handed to walkers, since the last
    /// [`PsBuffers::reset`].
    counts: PsCounts,
}

/// What one partition's buffers did, in samples.  `produced + reserved`
/// is the length of the RNG stream refills stood for, whichever form
/// they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PsCounts {
    /// Samples drawn and written by produced refills.
    pub(crate) produced: u64,
    /// Draws skipped, unmade, by reserved refills.
    pub(crate) reserved: u64,
    /// Samples handed to walkers.
    pub(crate) consumed: u64,
}

/// Cursor flag: the generation is reserved, not produced.  The low 31
/// bits stay the unread count, so a row of `d ≥ 2³¹` — whose count needs
/// the bit — is always produced ([`split_cursor`]).
const RESERVED: u32 = 1 << 31;

/// Slots of a reserved generation's buffer that hold generator state,
/// two `u32` each: at [`FIRST_STATE`] the state its first sample is
/// drawn from (what [`PsBuffers::export`] replays), at [`NEXT_STATE`]
/// the state its next one is.  Rows shorter than this are produced.
const STATE_SLOTS: usize = 4;
const FIRST_STATE: usize = 0;
const NEXT_STATE: usize = 2;

/// Whether a row of degree `d` can hold a reserved generation.
#[inline]
fn reservable(d: usize) -> bool {
    (STATE_SLOTS..RESERVED as usize).contains(&d)
}

/// Splits the cursor word of a row of degree `d` into (reserved, unread).
#[inline]
fn split_cursor(word: u32, d: usize) -> (bool, usize) {
    if reservable(d) {
        (word & RESERVED != 0, (word & !RESERVED) as usize)
    } else {
        (false, word as usize)
    }
}

/// Buffer start offsets of a partition whose rows have these degrees.
///
/// # Panics
///
/// When the partition holds 2³² pre-sampled edges or more: the offsets
/// are `u32`, and a wrapped one would hand a vertex another's slots.
/// (`PsBuffers::new` cannot return an error without changing a
/// signature the benchmark calls, so this panics, naming the partition.)
fn local_offsets(degrees: impl Iterator<Item = usize>, part: &Partition) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(part.vertex_count() + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for d in degrees {
        acc = u32::try_from(d)
            .ok()
            .and_then(|d| acc.checked_add(d))
            .unwrap_or_else(|| {
                panic!(
                    "partition [{}, {}) holds more than 2^32 pre-sampled edges",
                    part.start, part.end
                )
            });
        offsets.push(acc);
    }
    offsets
}

/// One vertex of a [`PsBuffers`], as [`PsBuffers::row`] reads it.
struct Row {
    bstart: usize,
    d: usize,
    reserved: bool,
    unread: usize,
}

#[inline]
fn read_state(slots: &[VertexId]) -> u64 {
    slots[0] as u64 | (slots[1] as u64) << 32
}

#[inline]
fn write_state(slots: &mut [VertexId], state: u64) {
    slots[0] = state as u32;
    slots[1] = (state >> 32) as u32;
}

impl PsBuffers {
    /// Allocates empty buffers for a partition.
    pub fn new(graph: &Csr, part: &Partition) -> Self {
        let count = part.vertex_count();
        let local_offsets = local_offsets((part.start..part.end).map(|v| graph.degree(v)), part);
        Self {
            start: part.start,
            buf: vec![0; local_offsets[count] as usize],
            wide: local_offsets.windows(2).any(|w| w[1] - w[0] >= RESERVED),
            local_offsets,
            cursor: vec![0; count],
            reserving: false,
            counts: PsCounts::default(),
        }
    }

    /// Where local vertex `i` stands: its buffer's first slot, its
    /// degree, and its generation's form and unread count.
    #[inline]
    fn row(&self, i: usize) -> Row {
        let bstart = self.local_offsets[i] as usize;
        let d = self.local_offsets[i + 1] as usize - bstart;
        let (reserved, unread) = split_cursor(self.cursor[i], d);
        Row {
            bstart,
            d,
            reserved,
            unread,
        }
    }

    /// The row index a reserved generation's next sample will pick,
    /// leaving the saved state where it is.
    #[inline]
    fn peek_reserved<R: Rng64>(&self, row: &Row) -> usize {
        let mut state = read_state(&self.buf[row.bstart + NEXT_STATE..]);
        R::index_from(&mut state, row.d as u64) as usize
    }

    /// The first of the three ring hints in front of a [`consume`] from
    /// `v`: its cursor, the one address known before anything is read.
    #[inline]
    pub(crate) fn hint_cursor<P: Probe>(
        &self,
        pf: &mut ring::Pf,
        probe: &mut P,
        v: VertexId,
        addr: &AddrMap,
    ) {
        let i = (v - self.start) as usize;
        pf.element(probe, &self.cursor, i, addr.ps_cursor);
        // The row's bounds, which every later stage reads with the
        // cursor (hardware only: the model gives them no address).
        if let Some(bound) = self.local_offsets.get(i) {
            pf.hw(bound);
        }
    }

    /// The second hint, the cursor now in: the buffer line the consume
    /// reads — a reserved generation's running state, a produced one's
    /// next slot, or the head an imminent refill writes — and `v`'s
    /// offset pair wherever the consume will read the row.
    #[inline]
    pub(crate) fn hint_head<P: Probe>(
        &self,
        pf: &mut ring::Pf,
        probe: &mut P,
        graph: &Csr,
        v: VertexId,
        addr: &AddrMap,
    ) {
        if !pf.active() {
            return;
        }
        let row = self.row((v - self.start) as usize);
        let pos = match (row.unread, row.reserved) {
            (0, _) => row.bstart,
            (_, true) => row.bstart + NEXT_STATE,
            (unread, false) => row.bstart + row.d - unread,
        };
        pf.element(probe, &self.buf, pos, addr.ps_buf);
        if row.unread == 0 || row.reserved {
            pf.element(probe, graph.offsets(), v as usize, addr.offsets);
        }
    }

    /// The third hint, state and offsets now in: the row a refill draws
    /// from (`cum_weights` too, when they pick), or the one entry a
    /// reserved generation's next draw picks — computed, not stored.  A
    /// produced generation's sample was the second hint's line.
    #[inline]
    pub(crate) fn hint_sample<R: Rng64, P: Probe>(
        &self,
        pf: &mut ring::Pf,
        probe: &mut P,
        graph: &Csr,
        v: VertexId,
        cum_weights: Option<&[f32]>,
        addr: &AddrMap,
    ) {
        if !pf.active() {
            return;
        }
        let row = self.row((v - self.start) as usize);
        if row.unread == 0 {
            let off = graph.adjacency_start(v);
            pf.span(probe, graph.targets(), off, row.d, addr.targets);
            if let Some(cw) = cum_weights {
                pf.span(probe, cw, off, row.d, addr.cum_weights);
            }
        } else if row.reserved {
            let pos = graph.adjacency_start(v) + self.peek_reserved::<R>(&row);
            pf.element(probe, graph.targets(), pos, addr.targets);
        }
    }

    /// Chooses the form this task's refills take ([`reserves`]).
    pub(crate) fn begin_task(&mut self, part: &Partition, walkers: usize, ctx: &AlgoCtx<'_>) {
        self.reserving = reserves(part, walkers, ctx);
    }

    /// Marks every vertex's buffer empty so the next consume refills it:
    /// what a run that inherits the previous run's buffers does in place
    /// of allocating.  Contents stay as they are — a reserved generation
    /// keeps its flag, which is what says how to read them — and an
    /// unread count of zero means they are overwritten before they are
    /// read.
    pub fn reset(&mut self) {
        if self.wide {
            for (word, row) in self.cursor.iter_mut().zip(self.local_offsets.windows(2)) {
                let (reserved, _) = split_cursor(*word, (row[1] - row[0]) as usize);
                *word = if reserved { RESERVED } else { 0 };
            }
        } else {
            // A row too short to reserve never has the bit set: its
            // count is at most its degree.
            self.cursor.iter_mut().for_each(|word| *word &= RESERVED);
        }
        self.counts = PsCounts::default();
    }

    /// Heap footprint in bytes (planner/report helper).
    pub fn footprint_bytes(&self) -> usize {
        self.buf.len() * 4 + self.local_offsets.len() * 4 + self.cursor.len() * 4
    }

    /// Samples produced, reserved and consumed since the last reset.
    pub(crate) fn counts(&self) -> PsCounts {
        self.counts
    }

    /// Snapshots the resumable state: buffer contents and per-vertex
    /// cursors.  Buffers refill lazily and carry unconsumed samples
    /// across iterations, so checkpoints must capture both (`start` and
    /// `local_offsets` are reconstructed from the graph and plan).
    ///
    /// The snapshot is in produced form whatever form the generations
    /// are held in: a reserved one is replayed from its first state, its
    /// read slots included, into exactly the bytes production would have
    /// left (`R` is the generator the tasks draw from).  One format for
    /// the WLKR frame, for [`PsBuffers::import`] and for every reader.
    pub fn export<R: Rng64>(&self, graph: &Csr) -> (Vec<VertexId>, Vec<u32>) {
        let (mut buf, mut cursor) = (self.buf.clone(), self.cursor.clone());
        for (i, word) in cursor.iter_mut().enumerate() {
            let Row {
                bstart,
                d,
                reserved,
                unread,
            } = self.row(i);
            if !reserved {
                continue;
            }
            let adj = graph.neighbors(self.start + i as VertexId);
            let mut state = read_state(&self.buf[bstart + FIRST_STATE..]);
            for slot in &mut buf[bstart..bstart + d] {
                *slot = adj[R::index_from(&mut state, d as u64) as usize];
            }
            *word = unread as u32;
        }
        (buf, cursor)
    }

    /// Restores state captured by [`PsBuffers::export`].  Returns
    /// `false` (leaving `self` untouched) when the shapes do not match
    /// the freshly allocated buffers — the snapshot belongs to a
    /// different graph or plan.
    pub fn import(&mut self, buf: Vec<VertexId>, cursor: Vec<u32>) -> bool {
        if buf.len() != self.buf.len() || cursor.len() != self.cursor.len() {
            return false;
        }
        self.buf = buf;
        self.cursor = cursor;
        true
    }
}

/// A PS task takes its refills reserved when the samples its partition
/// can expect to hand out before the walk ends, times this, still fall
/// short of the samples one generation of every vertex holds.
///
/// A produced sample costs its draw plus a row read and a buffer write
/// (3.5 ns hot, twice that cold); a reserved one costs a checked step
/// (≈ 1 ns) and, if it is ever read, a second step and a scattered row
/// read (≈ 90 ns cold).  So reserving wins wherever most of a generation
/// is never read, and loses where it is read through; on the TW analog
/// the two meet near 15 draws stood for per sample read.  Swept over
/// {never, 2, 4, 8, 16, 32, always} on `n2v_tw`, `dw_yh` and `txt_dw_yt`
/// — one plateau from 2 to 32 on all three, which are far from the
/// crossing — and placed on it by a walker-density series
/// (EXPERIMENTS.md, PR 24 ledger).
pub(crate) const RESERVE_FACTOR: usize = 16;

/// Whether a task of `walkers` on `part` reserves: `walkers × steps left
/// × factor < PS edges`.  A function of the plan, the shuffle's bin
/// width and the iteration alone, so the same tasks reserve at every
/// thread count; the walk does not depend on it either way.
pub(crate) fn reserves(part: &Partition, walkers: usize, ctx: &AlgoCtx<'_>) -> bool {
    let steps_left = ctx.max_steps.saturating_sub(ctx.iter).max(1);
    walkers
        .saturating_mul(steps_left)
        .saturating_mul(ctx.reserve_factor)
        < part.edges
}

/// Algorithm context shared by every task of a run.
#[derive(Debug, Clone, Copy)]
pub struct AlgoCtx<'g> {
    /// The walk algorithm.
    pub algo: WalkAlgorithm,
    /// node2vec's rejection rule (the trivial `p = q = 1` rule
    /// otherwise).  A draw it decides costs zero bloom or adjacency
    /// probes — not a cheapened check; only a `Verdict::Probe` pays
    /// for the (expensive, cross-VP) connectivity check, unless the
    /// 64-attempt cap fires first (the cap accepts unchecked, as a
    /// termination backstop).  The engine's node2vec stage is the one
    /// rejection path, and [`node2vec_adjacent`] its probe.
    pub rule: Node2VecRule,
    /// Per-edge cumulative weights parallel to the CSR targets array
    /// (weighted walks only).
    pub cum_weights: Option<&'g [f32]>,
    /// Bloom negative filter over edges, consulted only by attempts that
    /// did *not* fast-accept below `bound_min`: it proves most
    /// non-adjacencies in `hash_count` probes before the exact
    /// connectivity search runs (second-order walks only).
    pub edge_filter: Option<&'g EdgeBloom>,
    /// Per-step exit probability (0 for fixed-step walks).
    pub exit_prob: f64,
    /// The walk iteration this sample stage advances (0-based).
    /// Metapath walks select their phase label from it; early-exit
    /// walks use it to grant the start vertex its iteration-0 grace.
    pub iter: usize,
    /// Per-edge type labels parallel to the CSR targets array (metapath
    /// walks only).
    pub edge_labels: Option<&'g [u8]>,
    /// The stop rule's step cap: with `iter`, how much of the walk is
    /// left for a PS task to hand samples to ([`reserves`]).
    pub(crate) max_steps: usize,
    /// [`RESERVE_FACTOR`], but for the tests that force it.
    pub(crate) reserve_factor: usize,
}

impl<'g> AlgoCtx<'g> {
    /// Builds the context for a run.
    pub fn new(algo: WalkAlgorithm, stop: StopRule, cum_weights: Option<&'g [f32]>) -> Self {
        let (exit_prob, max_steps) = match stop {
            StopRule::FixedSteps(n) => (0.0, n),
            StopRule::Geometric {
                exit_prob,
                max_steps,
            } => (exit_prob, max_steps),
        };
        Self {
            algo,
            rule: algo.node2vec_rule(),
            cum_weights,
            edge_filter: None,
            exit_prob,
            iter: 0,
            edge_labels: None,
            max_steps,
            reserve_factor: RESERVE_FACTOR,
        }
    }

    /// Attaches a Bloom negative edge filter (second-order walks).
    pub fn with_edge_filter(mut self, filter: Option<&'g EdgeBloom>) -> Self {
        self.edge_filter = filter;
        self
    }

    /// Sets the walk iteration this stage advances.
    pub fn at_iter(mut self, iter: usize) -> Self {
        self.iter = iter;
        self
    }

    /// Replaces [`RESERVE_FACTOR`]: 0 reserves every refill that can be,
    /// `usize::MAX` none.  Like the ring depth it cannot change a walk.
    pub(crate) fn with_reserve_factor(mut self, factor: usize) -> Self {
        self.reserve_factor = factor;
        self
    }

    /// Attaches the per-edge type labels (metapath walks).
    pub fn with_edge_labels(mut self, labels: Option<&'g [u8]>) -> Self {
        self.edge_labels = labels;
        self
    }
}

/// Everything one sample task reads and writes.
pub struct TaskIo<'a> {
    /// Current positions of this VP's walkers (slice of `SW_i`).
    pub scur: &'a [VertexId],
    /// Each walker's origin (stateful programs only: PPR, early exit).
    pub sprev: Option<&'a [VertexId]>,
    /// Output: next positions.
    pub snext: &'a mut [VertexId],
    /// Global index of `scur[0]` within the full shuffled array (for
    /// probe address computation).
    pub slice_base: usize,
    /// Optional per-vertex visit counters for `[part.start, part.end)`.
    pub visits: Option<&'a mut [u64]>,
}

/// Outcome counters of one sample task.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskStats {
    /// Live walker-steps taken.
    pub steps: u64,
    /// Software-prefetch hints issued by the walker ring (0 at depth 1).
    pub prefetches: u64,
}

/// Runs one sample task: advances every walker of `part` by one step,
/// pipelined through a ring of `ring_depth` in-flight walkers
/// (`ring_depth <= 1` disables lookahead and prefetch).
///
/// The walk produced is bit-identical at every depth; see [`ring`].
#[allow(clippy::too_many_arguments)]
pub fn sample_partition<R: Rng64, P: Probe>(
    graph: &Csr,
    part: &Partition,
    slab: Option<&FixedDegreeSlab>,
    ps: Option<&mut PsBuffers>,
    ctx: &AlgoCtx<'_>,
    io: TaskIo<'_>,
    rng: &mut R,
    probe: &mut P,
    addr: &AddrMap,
    ring_depth: usize,
) -> TaskStats {
    debug_assert_eq!(io.scur.len(), io.snext.len());
    debug_assert!(
        !ctx.algo.is_second_order(),
        "second-order walks run the engine's node2vec stage"
    );
    match (part.policy, ps) {
        (SamplePolicy::PreSample, Some(buffers)) => {
            buffers.begin_task(part, io.scur.len(), ctx);
            sample_ps(graph, part, buffers, ctx, io, rng, probe, addr, ring_depth)
        }
        (SamplePolicy::Direct, _) | (SamplePolicy::PreSample, None) => {
            sample_ds(graph, part, slab, ctx, io, rng, probe, addr, ring_depth)
        }
    }
}

/// A partition is streamed in ahead of its task when it holds at most
/// this many cache lines per walker about to visit it.
///
/// Below that, most lines are touched this iteration and nearly every
/// walker read would be a line's first — a miss the stream turns into a
/// hit; above it, most of the hinted lines would not be read before
/// they are evicted again.  Swept over {½, 1, 2, 4, 8, always} on the
/// YH analog at |V|/2 and |V|/16 walkers (EXPERIMENTS.md, PR 21 ledger):
/// 2 sits on the plateau of both.
pub(crate) const HINT_LINES_PER_WALKER: usize = 2;

/// Whether hinting `part`'s working set can pay for `walkers` visits:
/// a function of the plan and the shuffle's bin width alone, so the
/// same partitions are hinted on every thread count.  The line count is
/// the edge array's for DS and one active buffer line per vertex for PS
/// (the two working sets [`crate::plan::Plan::ring_depths`] sizes).
pub(crate) fn worth_hinting(part: &Partition, walkers: usize, lines_per_walker: usize) -> bool {
    let lines = match part.policy {
        SamplePolicy::Direct => part.edges.div_ceil(16),
        SamplePolicy::PreSample => part.vertex_count(),
    };
    walkers.saturating_mul(lines_per_walker) >= lines
}

/// The hint-only stage in front of a first-order sample task: streams
/// in what `part`'s next [`sample_partition`] call will read, and
/// returns the number of hints issued.
///
/// A cache-sized partition is not cache-*resident* when its task
/// starts — every other partition, the PS buffers and a shuffle have
/// been through the cache since its last visit — so the first touch of
/// each line misses, and at a walker or fewer per line those first
/// touches are most of the task's reads.  The engine calls this one
/// task ahead (while the previous occupied partition samples), which
/// turns the scattered misses into one sequential stream:
///
/// * DS: the partition's CSR target range, line by line, and in front
///   of it the offset pairs, unless the row rule computes them;
/// * PS: per vertex, the one buffer line the next [`consume`] will read
///   (`buf[bstart + d - remaining]`), or — where a zero cursor says a
///   refill comes first — the adjacency head and the buffer head; for
///   a reserved generation, whose samples are adjacency not buffer, the
///   buffer head (its state) and the row entry its next draw will pick.
///
/// Hints consume no RNG and write no walker, cursor or buffer state,
/// and use the simulated addresses the demand touches will use.
pub(crate) fn hint_partition<R: Rng64, P: Probe>(
    graph: &Csr,
    part: &Partition,
    slab: Option<&FixedDegreeSlab>,
    ps: Option<&PsBuffers>,
    probe: &mut P,
    addr: &AddrMap,
) -> u64 {
    let mut pf = ring::Pf::new(true);
    let (start, end) = (part.start as usize, part.end as usize);
    match (part.policy, ps) {
        (SamplePolicy::PreSample, Some(buffers)) => {
            let targets = graph.targets();
            for i in 0..buffers.cursor.len() {
                let row = buffers.row(i);
                let off = || graph.adjacency_start((start + i) as VertexId);
                if row.unread == 0 {
                    pf.element(probe, targets, off(), addr.targets);
                    pf.element(probe, &buffers.buf, row.bstart, addr.ps_buf);
                } else if row.reserved {
                    let k = buffers.peek_reserved::<R>(&row);
                    pf.element(probe, &buffers.buf, row.bstart, addr.ps_buf);
                    pf.element(probe, targets, off() + k, addr.targets);
                } else {
                    let pos = row.bstart + row.d - row.unread;
                    pf.element(probe, &buffers.buf, pos, addr.ps_buf);
                }
            }
        }
        _ => {
            let offsets = &graph.offsets()[start..=end];
            let (first_edge, edge_end) = (offsets[0], offsets[end - start]);
            if slab.is_none() {
                pf.stream(probe, offsets, addr.offsets + 8 * start as u64);
            }
            pf.stream(
                probe,
                &graph.targets()[first_edge..edge_end],
                addr.targets + 4 * first_edge as u64,
            );
        }
    }
    pf.issued()
}

/// Where `v`'s row starts in the CSR targets and how long it is: by the
/// row rule of a uniform partition's `slab`, else from its offset pair.
#[inline(always)]
fn ds_row(graph: &Csr, slab: Option<&FixedDegreeSlab>, v: VertexId) -> (usize, usize) {
    match slab {
        Some(s) => (s.row_start(v), s.degree()),
        None => (graph.adjacency_start(v), graph.degree(v)),
    }
}

/// The first ring hint in front of a direct draw from `v`: its row,
/// where the row rule computes it, or else its CSR offset pair.
#[inline]
pub(crate) fn hint_ds_row<P: Probe>(
    pf: &mut ring::Pf,
    probe: &mut P,
    graph: &Csr,
    slab: Option<&FixedDegreeSlab>,
    v: VertexId,
    addr: &AddrMap,
) {
    match slab {
        Some(s) => pf.span(
            probe,
            graph.targets(),
            s.row_start(v),
            s.degree(),
            addr.targets,
        ),
        None => pf.element(probe, graph.offsets(), v as usize, addr.offsets),
    }
}

/// Slot payload carried from the ring's fetch stage to its execute
/// stage on the DS path: the row's offset and degree, read from the
/// offset pair once while the line is fresh, or computed by the row
/// rule (immutable data, so caching it cannot change the walk).
#[derive(Debug, Clone, Copy, Default)]
struct DsSlot {
    off: usize,
    d: usize,
}

/// Direct sampling over the CSR, pipelined through the walker ring.
#[allow(clippy::too_many_arguments)]
fn sample_ds<R: Rng64, P: Probe>(
    graph: &Csr,
    part: &Partition,
    slab: Option<&FixedDegreeSlab>,
    ctx: &AlgoCtx<'_>,
    io: TaskIo<'_>,
    rng: &mut R,
    probe: &mut P,
    addr: &AddrMap,
    ring_depth: usize,
) -> TaskStats {
    let TaskIo {
        scur,
        sprev,
        snext,
        slice_base,
        mut visits,
    } = io;
    let mut steps = 0u64;
    let mut pf = ring::Pf::new(ring_depth > 1);
    let targets = graph.targets();
    ring::drive(
        ring_depth,
        scur.len(),
        &mut pf,
        probe,
        // Inspect: hint the walker's offset pair, or its row where the
        // row rule computes it.
        |pf: &mut ring::Pf, probe: &mut P, j| {
            let v = scur[j];
            if v == DEAD {
                return;
            }
            hint_ds_row(pf, probe, graph, slab, v, addr);
        },
        // Fetch: find the row — reading the (now-resident) offset pair
        // — and hint the loads that depend on that pair: the edge range
        // and the cum-weight slice the binary search will walk.  A row
        // the rule computes was hinted at inspect.
        |pf: &mut ring::Pf, probe: &mut P, j| {
            let v = scur[j];
            if v == DEAD {
                return DsSlot::default();
            }
            let (off, d) = ds_row(graph, slab, v);
            if slab.is_none() {
                pf.span(probe, targets, off, d, addr.targets);
                if let (Some(cw), WalkAlgorithm::Weighted) = (ctx.cum_weights, ctx.algo) {
                    // weighted_pick reads cum[off - 1] and
                    // cum[off + d - 1] before the binary search.
                    if off > 0 {
                        pf.element(probe, cw, off - 1, addr.cum_weights);
                    }
                    pf.element(probe, cw, off + d - 1, addr.cum_weights);
                    pf.span(probe, cw, off, d, addr.cum_weights);
                }
            }
            DsSlot { off, d }
        },
        // Execute: the legacy per-walker body — sole RNG consumer, sole
        // state mutator, strict walker order.
        |probe: &mut P, j, slot| {
            let v = scur[j];
            let g = (slice_base + j) as u64;
            probe.touch(addr.scur + 4 * g, 4, AccessKind::Sequential);
            if v == DEAD {
                snext[j] = DEAD;
                probe.touch_write(addr.snext + 4 * g, 4, AccessKind::Sequential);
                return;
            }
            let prev = sprev.map(|sp| {
                probe.touch(addr.sprev + 4 * g, 4, AccessKind::Sequential);
                sp[j]
            });
            // One random offset read, unless the row rule computed the
            // row; then the edge read.
            if slab.is_none() {
                probe.touch(addr.offsets + 8 * v as u64, 8, AccessKind::Random);
            }
            let DsSlot { off, d } = slot;
            let next = draw(graph, v, d, off, ctx, prev, rng, probe, addr, |k, p| {
                p.touch(addr.targets + 4 * (off + k) as u64, 4, AccessKind::Random);
                targets[off + k]
            });
            let next = apply_exit(next, ctx, rng);
            snext[j] = next;
            probe.touch_write(addr.snext + 4 * g, 4, AccessKind::Sequential);
            if let Some(vis) = visits.as_deref_mut() {
                vis[(v - part.start) as usize] += 1;
            }
            steps += 1;
            probe.step();
        },
    );
    TaskStats {
        steps,
        prefetches: pf.issued(),
    }
}

/// Pre-sampling: consume per-vertex buffers, refilling in batch,
/// pipelined through the walker ring.
///
/// PS state (cursors, buffer contents) mutates as walkers execute, so
/// the hint stages carry no payload: they only *hint* the likely next
/// reads, one dependent load per stage ([`PsBuffers::hint_cursor`],
/// [`PsBuffers::hint_head`], [`PsBuffers::hint_sample`]) — the cursor
/// line; then the running state, the next slot or the refill head;
/// then the row entry a reserved generation picks or the adjacency a
/// refill reads.  A hint gone stale because an intervening walker
/// consumed from the same vertex wastes one prefetch and nothing else.
#[allow(clippy::too_many_arguments)]
fn sample_ps<R: Rng64, P: Probe>(
    graph: &Csr,
    part: &Partition,
    buffers: &mut PsBuffers,
    ctx: &AlgoCtx<'_>,
    io: TaskIo<'_>,
    rng: &mut R,
    probe: &mut P,
    addr: &AddrMap,
    ring_depth: usize,
) -> TaskStats {
    let TaskIo {
        scur,
        sprev,
        snext,
        slice_base,
        mut visits,
    } = io;
    let mut steps = 0u64;
    let mut pf = ring::Pf::new(ring_depth > 1);
    let mut st = (probe, buffers);
    ring::drive_scouted(
        ring_depth,
        scur.len(),
        &mut pf,
        &mut st,
        // Scout: hint the walker's PS cursor.
        |pf: &mut ring::Pf, st: &mut (&mut P, &mut PsBuffers), j| {
            let v = scur[j];
            if v == DEAD {
                return;
            }
            let (probe, buffers) = st;
            buffers.hint_cursor(pf, probe, v, addr);
        },
        // Inspect: read the (now-resident) cursor and hint the buffer
        // line the consume starts from.
        |pf: &mut ring::Pf, st: &mut (&mut P, &mut PsBuffers), j| {
            let v = scur[j];
            if v != DEAD {
                let (probe, buffers) = st;
                buffers.hint_head(pf, probe, graph, v, addr);
            }
        },
        // Fetch: hint the row the consume reads.
        |pf: &mut ring::Pf, st: &mut (&mut P, &mut PsBuffers), j| {
            // At depth 1 this is the only hint stage that runs.
            if !pf.active() {
                return;
            }
            let v = scur[j];
            if v != DEAD {
                let (probe, buffers) = st;
                buffers.hint_sample::<R, _>(pf, probe, graph, v, ctx.cum_weights, addr);
            }
        },
        // Execute: the legacy per-walker body — sole RNG consumer, sole
        // state mutator, strict walker order.
        |st: &mut (&mut P, &mut PsBuffers), j, ()| {
            let (probe, buffers) = st;
            let probe: &mut P = probe;
            let buffers: &mut PsBuffers = buffers;
            let v = scur[j];
            let g = (slice_base + j) as u64;
            probe.touch(addr.scur + 4 * g, 4, AccessKind::Sequential);
            if v == DEAD {
                snext[j] = DEAD;
                probe.touch_write(addr.snext + 4 * g, 4, AccessKind::Sequential);
                return;
            }
            let prev = sprev.map(|sp| {
                probe.touch(addr.sprev + 4 * g, 4, AccessKind::Sequential);
                sp[j]
            });
            let next = match ctx.algo {
                WalkAlgorithm::Ppr { alpha } => {
                    // Teleport before touching the buffer: a restart
                    // consumes no pre-sampled edge, keeping cursor state
                    // identical to what the DS path would leave behind.
                    let Some(origin) = prev else {
                        unreachable!("ppr walk carries its origin")
                    };
                    if rng.next_f64() < alpha {
                        origin
                    } else {
                        consume(graph, buffers, v, ctx, rng, probe, addr)
                    }
                }
                WalkAlgorithm::EarlyExit => {
                    let Some(origin) = prev else {
                        unreachable!("early-exit walk carries its origin")
                    };
                    if v == origin && ctx.iter > 0 {
                        DEAD
                    } else {
                        consume(graph, buffers, v, ctx, rng, probe, addr)
                    }
                }
                WalkAlgorithm::Metapath { pattern } => {
                    // Exact label scan on CSR; pre-sampled uniform
                    // proposals cannot express the label constraint
                    // without a biased rejection backstop (see
                    // `metapath_pick`), so the buffers stay untouched.
                    let (off, d) = (graph.adjacency_start(v), graph.degree(v));
                    metapath_pick(graph, d, off, pattern, ctx, rng, probe, addr)
                }
                WalkAlgorithm::DeepWalk | WalkAlgorithm::Weighted => {
                    consume(graph, buffers, v, ctx, rng, probe, addr)
                }
                WalkAlgorithm::Node2Vec { .. } => {
                    unreachable!("second-order walks run the engine's node2vec stage")
                }
            };
            let next = apply_exit(next, ctx, rng);
            snext[j] = next;
            probe.touch_write(addr.snext + 4 * g, 4, AccessKind::Sequential);
            if let Some(vis) = visits.as_deref_mut() {
                vis[(v - part.start) as usize] += 1;
            }
            steps += 1;
            probe.step();
        },
    );
    TaskStats {
        steps,
        prefetches: pf.issued(),
    }
}

/// Hints the one 64-byte block a [`node2vec_adjacent`] bloom query for
/// `(t, cand)` will read: the real block for the hardware, the same
/// mixed simulated address the query's touch will use for the model.
pub(crate) fn prefetch_bloom<P: Probe>(
    pf: &mut ring::Pf,
    probe: &mut P,
    bloom: &EdgeBloom,
    t: VertexId,
    cand: VertexId,
    addr: &AddrMap,
) {
    if !pf.active() {
        return;
    }
    bloom.probe_words(t, cand, |w| pf.hw(w as *const u64));
    pf.model(probe, bloom_block_addr(bloom, t, cand, addr), 64);
}

/// Takes one pre-sampled edge from `v`'s buffer, refilling it when empty.
///
/// A refill stands for `d` draws of `gen_index(d)` from the task's
/// generator, and everything after it depends on those draws only
/// through the state they leave behind.  So a sparse task
/// ([`PsBuffers::begin_task`]) skips them instead — checked, so that
/// the skip is exact or declined — and keeps the state they start from;
/// each consume then draws its own sample from that state: the value
/// slot `d − remaining` would have held, in the order it would have been
/// read.  Weighted refills (one `next_f64` and a search per sample) stay
/// produced: the pair on [`Rng64`] speaks `gen_range`, and no workload
/// pre-samples a weighted graph sparsely.
pub(crate) fn consume<R: Rng64, P: Probe>(
    graph: &Csr,
    buffers: &mut PsBuffers,
    v: VertexId,
    ctx: &AlgoCtx<'_>,
    rng: &mut R,
    probe: &mut P,
    addr: &AddrMap,
) -> VertexId {
    let i = (v - buffers.start) as usize;
    probe.touch(addr.ps_cursor + 4 * i as u64, 4, AccessKind::Random);
    let Row {
        bstart,
        d,
        mut reserved,
        unread: mut remaining,
    } = buffers.row(i);
    debug_assert!(d > 0, "PS vertex must have out-edges");
    if remaining == 0 {
        reserved = buffers.reserving && reserve(buffers, bstart, d, ctx, rng, probe, addr);
        if !reserved {
            produce(graph, buffers, v, bstart, d, ctx, rng, probe, addr);
        }
        remaining = d;
        let flag = if reserved { RESERVED } else { 0 };
        buffers.cursor[i] = flag | d as u32;
        probe.touch_write(addr.ps_cursor + 4 * i as u64, 4, AccessKind::Random);
    }
    buffers.counts.consumed += 1;
    // One fewer unread, whatever the form: the count is at least 1, so
    // the borrow never reaches the flag.  (Written as the parent's plain
    // decrement on purpose — walkers queue on a hub's cursor, and this
    // load, decrement and store is the chain they queue on.)
    buffers.cursor[i] -= 1;
    if reserved {
        // The next sample's state lives beside the first one, in the
        // head of the buffer; the sample itself is read from the row.
        let next = bstart + NEXT_STATE;
        probe.touch(addr.ps_buf + 4 * next as u64, 8, AccessKind::Random);
        let mut state = read_state(&buffers.buf[next..]);
        let k = R::index_from(&mut state, d as u64) as usize;
        write_state(&mut buffers.buf[next..], state);
        probe.touch(addr.offsets + 8 * v as u64, 8, AccessKind::Random);
        let off = graph.adjacency_start(v);
        probe.touch(addr.targets + 4 * (off + k) as u64, 4, AccessKind::Random);
        return graph.targets()[off + k];
    }
    let pos = bstart + (d - remaining);
    probe.touch(addr.ps_buf + 4 * pos as u64, 4, AccessKind::Random);
    buffers.buf[pos]
}

/// Production: refills the whole buffer in one batch.  Random reads
/// stay within `v`'s adjacency list; writes stream.
///
/// Out of line, as [`reserve`] is, and apart from it: the loop's speed
/// is the generator's dependent chain, which stays in a register only
/// while nothing else in the function takes the generator by reference
/// — beside a `reserve_range` call it went through memory every draw.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn produce<R: Rng64, P: Probe>(
    graph: &Csr,
    buffers: &mut PsBuffers,
    v: VertexId,
    bstart: usize,
    d: usize,
    ctx: &AlgoCtx<'_>,
    rng: &mut R,
    probe: &mut P,
    addr: &AddrMap,
) {
    let off = graph.adjacency_start(v);
    probe.touch(addr.offsets + 8 * v as u64, 8, AccessKind::Random);
    for slot in 0..d {
        let k = match ctx.cum_weights {
            Some(cw) => weighted_pick(cw, off, d, rng, probe, addr),
            None => rng.gen_index(d),
        };
        probe.touch(addr.targets + 4 * (off + k) as u64, 4, AccessKind::Random);
        buffers.buf[bstart + slot] = graph.targets()[off + k];
        probe.touch_write(
            addr.ps_buf + 4 * (bstart + slot) as u64,
            4,
            AccessKind::Sequential,
        );
    }
    buffers.counts.produced += d as u64;
}

/// Takes the refill of the row at `bstart` reserved, if it can be:
/// the generator skips the row's `d` draws and both saved states start
/// at the one they begin from.
#[inline(never)]
fn reserve<R: Rng64, P: Probe>(
    buffers: &mut PsBuffers,
    bstart: usize,
    d: usize,
    ctx: &AlgoCtx<'_>,
    rng: &mut R,
    probe: &mut P,
    addr: &AddrMap,
) -> bool {
    if !reservable(d) || ctx.cum_weights.is_some() {
        return false;
    }
    let Some(first) = rng.reserve_range(d as u64, d) else {
        return false;
    };
    write_state(&mut buffers.buf[bstart + FIRST_STATE..], first);
    write_state(&mut buffers.buf[bstart + NEXT_STATE..], first);
    probe.touch_write(addr.ps_buf + 4 * bstart as u64, 16, AccessKind::Random);
    buffers.counts.reserved += d as u64;
    true
}

/// Draws one outgoing edge of `v`, whose row is `targets[off..][..d]`,
/// under the algorithm, using `fetch` to read the `k`-th neighbor.
#[allow(clippy::too_many_arguments)]
fn draw<R: Rng64, P: Probe>(
    graph: &Csr,
    v: VertexId,
    d: usize,
    off: usize,
    ctx: &AlgoCtx<'_>,
    prev: Option<VertexId>,
    rng: &mut R,
    probe: &mut P,
    addr: &AddrMap,
    mut fetch: impl FnMut(usize, &mut P) -> VertexId,
) -> VertexId {
    debug_assert!(d > 0, "sink vertices are rejected at engine build");
    match ctx.algo {
        WalkAlgorithm::Weighted => {
            let cw = ctx.cum_weights.expect("weighted walk carries weights");
            let k = weighted_pick(cw, off, d, rng, probe, addr);
            fetch(k, probe)
        }
        WalkAlgorithm::Ppr { alpha } => {
            // Restart coin first: a teleport reads no edge at all.
            let Some(origin) = prev else {
                unreachable!("ppr walk carries its origin")
            };
            if rng.next_f64() < alpha {
                origin
            } else {
                fetch(rng.gen_index(d), probe)
            }
        }
        WalkAlgorithm::EarlyExit => {
            // A walker standing on its origin after iteration 0 has
            // recorded the return on the previous step; it dies now,
            // consuming no RNG.  (At iteration 0 every walker stands on
            // its origin — that is the start, not a return.)
            let Some(origin) = prev else {
                unreachable!("early-exit walk carries its origin")
            };
            if v == origin && ctx.iter > 0 {
                DEAD
            } else {
                fetch(rng.gen_index(d), probe)
            }
        }
        WalkAlgorithm::Metapath { pattern } => {
            metapath_pick(graph, d, off, pattern, ctx, rng, probe, addr)
        }
        WalkAlgorithm::DeepWalk => fetch(rng.gen_index(d), probe),
        WalkAlgorithm::Node2Vec { .. } => {
            unreachable!("second-order walks run the engine's node2vec stage")
        }
    }
}

/// Uniform pick among the edges of the row `targets[off..][..d]`
/// carrying this iteration's phase label, by exact scan of the label
/// row.
///
/// The scan reads CSR directly (labels and targets are parallel
/// arrays), bypassing PS storage: a rejection filter over
/// pre-drawn uniform proposals would inherit the 64-attempt
/// fall-through backstop, whose weight-blind acceptances bias the
/// conditional distribution — exactly the class of bug the conformance
/// lattice caught in the node2vec sampler.  Returns [`DEAD`] (without
/// consuming RNG) when no edge carries the label.
#[allow(clippy::too_many_arguments)]
fn metapath_pick<R: Rng64, P: Probe>(
    graph: &Csr,
    d: usize,
    off: usize,
    pattern: crate::algorithm::MetapathPattern,
    ctx: &AlgoCtx<'_>,
    rng: &mut R,
    probe: &mut P,
    addr: &AddrMap,
) -> VertexId {
    let Some(labels) = ctx.edge_labels else {
        unreachable!("metapath walk carries edge labels")
    };
    let want = pattern.label_at(ctx.iter);
    let row = &labels[off..off + d];
    probe.touch(addr.edge_labels + off as u64, d as u32, AccessKind::Random);
    let allowed = row.iter().filter(|&&l| l == want).count();
    if allowed == 0 {
        return DEAD;
    }
    let r = rng.gen_index(allowed);
    let mut seen = 0usize;
    for (k, &l) in row.iter().enumerate() {
        if l != want {
            continue;
        }
        if seen == r {
            probe.touch(addr.targets + 4 * (off + k) as u64, 4, AccessKind::Random);
            return graph.targets()[off + k];
        }
        seen += 1;
    }
    unreachable!("the allowed count covers the label row")
}

/// Inverse-transform pick within one adjacency's cumulative weights.
fn weighted_pick<R: Rng64, P: Probe>(
    cum: &[f32],
    off: usize,
    d: usize,
    rng: &mut R,
    probe: &mut P,
    addr: &AddrMap,
) -> usize {
    let lo = if off == 0 { 0.0 } else { cum[off - 1] };
    let hi = cum[off + d - 1];
    let x = lo + rng.next_f64() as f32 * (hi - lo);
    // Binary search over the adjacency's cumulative range.
    let slice = &cum[off..off + d];
    let k = slice.partition_point(|&c| c <= x).min(d - 1);
    // One random touch stands in for the O(log d) in-list search (the
    // list is cache-resident for any partition the planner produced).
    probe.touch(
        addr.cum_weights + 4 * (off + k) as u64,
        4,
        AccessKind::Random,
    );
    k
}

/// node2vec's connectivity probe: whether `cand` (not `t` itself) is a
/// neighbour of the vertex `t` the walker came from.
pub(crate) fn node2vec_adjacent<P: Probe>(
    graph: &Csr,
    filter: Option<&EdgeBloom>,
    t: VertexId,
    cand: VertexId,
    probe: &mut P,
    addr: &AddrMap,
) -> bool {
    // Bloom pre-filter: no false negatives, so a miss proves
    // non-adjacency exactly, in one scattered line of the filter region.
    if let Some(bloom) = filter {
        let block = bloom_block_addr(bloom, t, cand, addr);
        probe.touch(block, 64, AccessKind::Random);
        if !bloom.may_contain(t, cand) {
            return false;
        }
    }
    // Connectivity check against t's adjacency list (sorted by the
    // engine): the lookup leaves the current VP — the locality cost the
    // paper cites for node2vec's smaller speedups.
    probe.touch(addr.offsets + 8 * t as u64, 8, AccessKind::Random);
    probe.touch(
        addr.targets + 4 * graph.adjacency_start(t) as u64,
        4,
        AccessKind::Random,
    );
    graph.has_edge(t, cand)
}

/// Draws one uniform edge proposal from `v` through the partition's
/// configured layout: its PS buffer, or the CSR row that the row rule
/// or the offset pair finds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn propose<R: Rng64, P: Probe>(
    graph: &Csr,
    part: &Partition,
    slab: Option<&FixedDegreeSlab>,
    ps: Option<&mut PsBuffers>,
    ctx: &AlgoCtx<'_>,
    v: VertexId,
    rng: &mut R,
    probe: &mut P,
    addr: &AddrMap,
) -> VertexId {
    if let (SamplePolicy::PreSample, Some(buffers)) = (part.policy, ps) {
        return consume(graph, buffers, v, ctx, rng, probe, addr);
    }
    if slab.is_none() {
        probe.touch(addr.offsets + 8 * v as u64, 8, AccessKind::Random);
    }
    let (off, d) = ds_row(graph, slab, v);
    let k = rng.gen_index(d);
    probe.touch(addr.targets + 4 * (off + k) as u64, 4, AccessKind::Random);
    graph.targets()[off + k]
}

/// Simulated address of the filter block a query for `(t, cand)` reads:
/// a line of the filter region picked by a mix of the key (the model
/// needs the scatter, not the filter's own hash).
#[inline]
fn bloom_block_addr(bloom: &EdgeBloom, t: VertexId, cand: VertexId, addr: &AddrMap) -> u64 {
    let mix = (((t as u64) << 32) | cand as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    addr.edge_bloom + ((mix % bloom.footprint_bytes() as u64) & !63)
}

#[inline]
pub(crate) fn apply_exit<R: Rng64>(next: VertexId, ctx: &AlgoCtx<'_>, rng: &mut R) -> VertexId {
    if ctx.exit_prob > 0.0 && rng.gen_bool(ctx.exit_prob) {
        DEAD
    } else {
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::synth;
    use fm_memsim::NullProbe;
    use fm_rng::Xorshift64Star;

    fn make_part(graph: &Csr, policy: SamplePolicy) -> Partition {
        let (edges, uniform) = Partition::annotate(graph, 0, graph.vertex_count() as VertexId);
        Partition {
            start: 0,
            end: graph.vertex_count() as VertexId,
            policy,
            group: 0,
            edges,
            uniform_degree: uniform,
        }
    }

    fn first_order_ctx() -> AlgoCtx<'static> {
        AlgoCtx::new(WalkAlgorithm::DeepWalk, StopRule::FixedSteps(1), None)
    }

    fn run_task(
        graph: &Csr,
        part: &Partition,
        slab: Option<&FixedDegreeSlab>,
        ps: Option<&mut PsBuffers>,
        ctx: &AlgoCtx<'_>,
        scur: &[VertexId],
        seed: u64,
    ) -> Vec<VertexId> {
        let mut snext = vec![0; scur.len()];
        let mut rng = Xorshift64Star::new(seed);
        let io = TaskIo {
            scur,
            sprev: None,
            snext: &mut snext,
            slice_base: 0,
            visits: None,
        };
        sample_partition(
            graph,
            part,
            slab,
            ps,
            ctx,
            io,
            &mut rng,
            &mut NullProbe,
            &AddrMap::default(),
            1,
        );
        snext
    }

    #[test]
    fn ds_csr_moves_to_a_neighbor() {
        let g = synth::power_law(100, 2.0, 1, 20, 3);
        let part = make_part(&g, SamplePolicy::Direct);
        let scur: Vec<VertexId> = (0..100).collect();
        let snext = run_task(&g, &part, None, None, &first_order_ctx(), &scur, 1);
        for (j, &v) in scur.iter().enumerate() {
            assert!(g.neighbors(v).contains(&snext[j]), "walker {j}");
        }
    }

    #[test]
    fn ds_slab_matches_neighbor_set() {
        let g = synth::regular_ring(64, 4);
        let part = make_part(&g, SamplePolicy::Direct);
        let slab = part.slab(&g).unwrap();
        let scur: Vec<VertexId> = (0..64).chain(0..64).collect();
        let snext = run_task(&g, &part, Some(&slab), None, &first_order_ctx(), &scur, 2);
        for (j, &v) in scur.iter().enumerate() {
            assert!(g.neighbors(v).contains(&snext[j]));
        }
    }

    #[test]
    fn ds_is_uniform_over_edges() {
        let g = synth::star(5); // hub 0 with neighbors 1..=4
        let part = make_part(&g, SamplePolicy::Direct);
        let scur = vec![0 as VertexId; 40_000];
        let snext = run_task(&g, &part, None, None, &first_order_ctx(), &scur, 7);
        let mut counts = [0usize; 5];
        for &t in &snext {
            counts[t as usize] += 1;
        }
        #[allow(clippy::needless_range_loop)] // the index is a vertex ID
        for t in 1..5 {
            let f = counts[t] as f64 / 40_000.0;
            assert!((f - 0.25).abs() < 0.02, "target {t}: {f}");
        }
    }

    #[test]
    fn ps_is_uniform_over_edges_across_refills() {
        let g = synth::star(5);
        let part = make_part(&g, SamplePolicy::PreSample);
        let mut ps = PsBuffers::new(&g, &part);
        let ctx = first_order_ctx();
        let mut counts = [0usize; 5];
        let mut rng = Xorshift64Star::new(9);
        // Many small tasks force repeated refills.
        for _ in 0..1000 {
            let scur = vec![0 as VertexId; 37];
            let mut snext = vec![0; 37];
            let io = TaskIo {
                scur: &scur,
                sprev: None,
                snext: &mut snext,
                slice_base: 0,
                visits: None,
            };
            sample_partition(
                &g,
                &part,
                None,
                Some(&mut ps),
                &ctx,
                io,
                &mut rng,
                &mut NullProbe,
                &AddrMap::default(),
                1,
            );
            for &t in &snext {
                counts[t as usize] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        #[allow(clippy::needless_range_loop)] // the index is a vertex ID
        for t in 1..5 {
            let f = counts[t] as f64 / total as f64;
            assert!((f - 0.25).abs() < 0.02, "target {t}: {f}");
        }
    }

    #[test]
    fn ps_buffer_sized_to_degree() {
        let g = synth::star(5);
        let part = make_part(&g, SamplePolicy::PreSample);
        let ps = PsBuffers::new(&g, &part);
        // Hub buffer = 4 slots, leaves 1 slot each.
        assert_eq!(ps.local_offsets, vec![0, 4, 5, 6, 7, 8]);
        assert_eq!(ps.buf.len(), 8);
    }

    /// The PS buffer discipline written out plainly, as the model
    /// `consume` is held to: one generator draw per slot in slot order
    /// on a refill, samples handed out front to back.
    fn consume_model<R: Rng64>(
        graph: &Csr,
        cum: Option<&[f32]>,
        buf: &mut [VertexId],
        cursor: &mut [u32],
        v: VertexId,
        rng: &mut R,
    ) -> VertexId {
        // One partition spans the graph, so buffers sit at CSR offsets.
        let (i, off, d) = (v as usize, graph.adjacency_start(v), graph.degree(v));
        if cursor[i] == 0 {
            for slot in 0..d {
                let k = match cum {
                    Some(cw) => weighted_pick(cw, off, d, rng, &mut NullProbe, &AddrMap::default()),
                    None => rng.gen_index(d),
                };
                buf[off + slot] = graph.targets()[off + k];
            }
            cursor[i] = d as u32;
        }
        let pos = off + (d - cursor[i] as usize);
        cursor[i] -= 1;
        buf[pos]
    }

    /// Pins the refill byte for byte, so a rewrite of its loop cannot
    /// move a golden digest unnoticed: after the same consumes from the
    /// same seed, buffer contents, cursors, the values handed out and
    /// the generator's state all equal the model's, weighted or not.
    #[test]
    fn ps_refill_is_byte_identical_to_its_model() {
        let counts = refill_against_model(false);
        assert!(counts.iter().all(|c| c.reserved == 0 && c.produced > 0));
    }

    /// The same model, the same bytes, with every refill that can be
    /// taken reserved: the plain graph's generations of four edges and
    /// more are never produced, the weighted graph's always are, and
    /// the stream each stands for is as long as it was.
    #[test]
    fn reserved_refill_is_byte_identical_to_the_same_model() {
        let produced = refill_against_model(false);
        let reserved = refill_against_model(true);
        for (p, r) in produced.iter().zip(&reserved) {
            assert_eq!(p.produced, r.produced + r.reserved);
            assert_eq!(p.consumed, r.consumed);
        }
        // Seeds 1, 7, 42 of the plain graph, then of the weighted one.
        assert!(
            reserved[..3].iter().all(|c| c.reserved > 4_000),
            "{reserved:?}"
        );
        assert!(reserved[3..].iter().all(|c| c.reserved == 0));
    }

    /// Runs [`consume`] against [`consume_model`] on a plain and a
    /// weighted graph, with the buffers told to reserve or not, and
    /// returns what each of the six runs counted.
    fn refill_against_model(reserving: bool) -> Vec<PsCounts> {
        let mut counts = Vec::new();
        let plain = synth::power_law(300, 2.0, 1, 120, 29);
        let weights: Vec<f32> = (0..plain.edge_count())
            .map(|e| 0.25 + (e % 7) as f32)
            .collect();
        let weighted = Csr::from_parts(
            plain.offsets().to_vec(),
            plain.targets().to_vec(),
            Some(weights.clone()),
        )
        .unwrap();
        let cum: Vec<f32> = weights
            .iter()
            .scan(0.0f32, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        for (graph, cum, algo) in [
            (&plain, None, WalkAlgorithm::DeepWalk),
            (&weighted, Some(&cum[..]), WalkAlgorithm::Weighted),
        ] {
            let part = make_part(graph, SamplePolicy::PreSample);
            let ctx = AlgoCtx::new(algo, StopRule::FixedSteps(1), cum);
            for seed in [1u64, 7, 42] {
                let mut ps = PsBuffers::new(graph, &part);
                ps.reserving = reserving;
                let (mut buf, mut cursor) = ps.export::<Xorshift64Star>(graph);
                let mut rng = Xorshift64Star::new(seed);
                let mut rng_model = Xorshift64Star::new(seed);
                // Visits skewed to low ids (the hubs), so buffers run dry
                // and refill several times while others stay half full.
                let mut pick = Xorshift64Star::new(seed ^ 0xF00D);
                for n in 0..20_000 {
                    let v = (pick.gen_index(300) * pick.gen_index(300) / 300) as VertexId;
                    let got = consume(
                        graph,
                        &mut ps,
                        v,
                        &ctx,
                        &mut rng,
                        &mut NullProbe,
                        &AddrMap::default(),
                    );
                    let want = consume_model(graph, cum, &mut buf, &mut cursor, v, &mut rng_model);
                    assert_eq!(got, want, "{algo:?} seed {seed} consume {n} at {v}");
                }
                assert_eq!(
                    ps.export::<Xorshift64Star>(graph),
                    (buf, cursor),
                    "{algo:?} seed {seed}"
                );
                assert_eq!(rng.state(), rng_model.state(), "{algo:?} seed {seed}");
                counts.push(ps.counts());
            }
        }
        counts
    }

    /// A reserved consume reads its vertex's cursor, the running state
    /// in the head of its buffer, its offset pair and one row entry —
    /// never a sample slot — and the refill before it writes the two
    /// states and nothing else.
    #[test]
    fn reserved_consume_reads_the_row_not_the_buffer() {
        #[derive(Default)]
        struct Log(Vec<(u64, u32, bool)>);
        impl Probe for Log {
            fn touch(&mut self, addr: u64, bytes: u32, _: AccessKind) {
                self.0.push((addr, bytes, false));
            }
            fn touch_write(&mut self, addr: u64, bytes: u32, _: AccessKind) {
                self.0.push((addr, bytes, true));
            }
        }
        let g = synth::power_law(200, 2.0, 1, 40, 3);
        let part = make_part(&g, SamplePolicy::PreSample);
        let addr = AddrMap {
            offsets: 0x10_0000,
            targets: 0x20_0000,
            ps_buf: 0x80_0000,
            ps_cursor: 0x90_0000,
            ..AddrMap::default()
        };
        let v: VertexId = 0;
        let (off, d) = (g.adjacency_start(v) as u64, g.degree(v));
        assert!(reservable(d));
        let mut ps = PsBuffers::new(&g, &part);
        ps.reserving = true;
        let mut rng = Xorshift64Star::new(11);
        let mut twin = rng.clone();
        let mut log = Log::default();
        let ctx = first_order_ctx();
        let first = consume(&g, &mut ps, v, &ctx, &mut rng, &mut log, &addr);
        let k = twin.gen_index(d) as u64;
        assert_eq!(first, g.neighbors(v)[k as usize]);
        let consume_touches = [
            (addr.ps_buf + 4 * (off + 2), 8, false),
            (addr.offsets + 8 * v as u64, 8, false),
            (addr.targets + 4 * (off + k), 4, false),
        ];
        let mut want = vec![
            (addr.ps_cursor + 4 * v as u64, 4, false),
            (addr.ps_buf + 4 * off, 16, true),
            (addr.ps_cursor + 4 * v as u64, 4, true),
        ];
        want.extend(consume_touches);
        assert_eq!(log.0, want);
        assert_eq!(ps.counts().reserved, d as u64);

        // The second consume refills nothing and reads the same shape.
        log.0.clear();
        consume(&g, &mut ps, v, &ctx, &mut rng, &mut log, &addr);
        let k = twin.gen_index(d) as u64;
        assert_eq!(log.0[0], (addr.ps_cursor + 4 * v as u64, 4, false));
        assert_eq!(log.0[1], consume_touches[0]);
        assert_eq!(log.0[3], (addr.targets + 4 * (off + k), 4, false));
        assert_eq!(log.0.len(), 4);
        // The generator is where `d` draws leave it, not two.
        for _ in 2..d {
            twin.gen_index(d);
        }
        assert_eq!(rng.state(), twin.state());
    }

    /// The cursor's top bit is the reserved flag only on rows whose
    /// count never needs it, and rows too short for the states are
    /// produced too.
    #[test]
    fn the_flag_bit_belongs_to_the_count_on_rows_past_two_to_the_31() {
        let top = 1usize << 31;
        assert!(!reservable(STATE_SLOTS - 1));
        assert!(reservable(STATE_SLOTS));
        assert!(reservable(top - 1));
        assert!(!reservable(top));
        assert_eq!(split_cursor(RESERVED | 5, top - 1), (true, 5));
        assert_eq!(split_cursor(5, top - 1), (false, 5));
        assert_eq!(split_cursor(RESERVED | 5, top), (false, top + 5));
        assert_eq!(
            split_cursor(u32::MAX, u32::MAX as usize),
            (false, u32::MAX as usize)
        );
        assert_eq!(split_cursor(RESERVED, 3), (false, top));

        // `reset` keeps the flag and only the flag: by one mask where no
        // row is wide, row by row where one is (buffers never touched,
        // so none is allocated here).
        let buffers = |degrees: [usize; 2], cursor: [u32; 2]| {
            let offsets = vec![0, degrees[0] as u32, (degrees[0] + degrees[1]) as u32];
            PsBuffers {
                start: 0,
                buf: Vec::new(),
                wide: degrees.iter().any(|&d| d >= top),
                local_offsets: offsets,
                cursor: cursor.to_vec(),
                reserving: false,
                counts: PsCounts::default(),
            }
        };
        let mut narrow = buffers([10, 3], [RESERVED | 5, 2]);
        narrow.reset();
        assert_eq!(narrow.cursor, [RESERVED, 0]);
        let mut wide = buffers([10, top], [RESERVED | 5, RESERVED | 7]);
        assert!(wide.wide);
        wide.reset();
        assert_eq!(wide.cursor, [RESERVED, 0], "a wide row's top bit is count");
    }

    /// The offsets are `u32`: a partition may hold 2³² − 1 pre-sampled
    /// edges and not one more, however they are spread over its rows.
    #[test]
    fn buffer_offsets_are_a_checked_sum() {
        let g = synth::star(5);
        let part = make_part(&g, SamplePolicy::PreSample);
        let top = 1usize << 31;
        assert_eq!(
            local_offsets([top, top - 1].into_iter(), &part),
            vec![0, 1 << 31, u32::MAX]
        );
        for rows in [vec![top, top], vec![top, top - 1, 1], vec![1, 1usize << 32]] {
            let panic = std::panic::catch_unwind(|| local_offsets(rows.into_iter(), &part))
                .expect_err("the sum does not fit");
            let msg = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(msg.contains("partition [0, 5)"), "{msg}");
        }
    }

    #[test]
    fn weighted_walk_follows_edge_weights() {
        // Vertex 0 -> {1 (w=1), 2 (w=3)}.
        let g = Csr::from_parts(
            vec![0, 2, 3, 4],
            vec![1, 2, 0, 0],
            Some(vec![1.0, 3.0, 1.0, 1.0]),
        )
        .unwrap();
        // Cumulative weights parallel to targets.
        let cum: Vec<f32> = vec![1.0, 4.0, 5.0, 6.0];
        let ctx = AlgoCtx::new(WalkAlgorithm::Weighted, StopRule::FixedSteps(1), Some(&cum));
        let part = make_part(&g, SamplePolicy::Direct);
        let scur = vec![0 as VertexId; 40_000];
        let snext = run_task(&g, &part, None, None, &ctx, &scur, 11);
        let to2 = snext.iter().filter(|&&t| t == 2).count() as f64 / 40_000.0;
        assert!((to2 - 0.75).abs() < 0.02, "weighted share {to2}");
    }

    #[test]
    fn geometric_stop_kills_walkers_at_rate() {
        let g = synth::cycle(16);
        let ctx = AlgoCtx::new(
            WalkAlgorithm::DeepWalk,
            StopRule::Geometric {
                exit_prob: 0.3,
                max_steps: 10,
            },
            None,
        );
        let part = make_part(&g, SamplePolicy::Direct);
        let scur = vec![0 as VertexId; 50_000];
        let snext = run_task(&g, &part, None, None, &ctx, &scur, 3);
        let dead = snext.iter().filter(|&&t| t == DEAD).count() as f64 / 50_000.0;
        assert!((dead - 0.3).abs() < 0.02, "death rate {dead}");
    }

    #[test]
    fn dead_walkers_stay_dead_and_cost_no_steps() {
        let g = synth::cycle(8);
        let part = make_part(&g, SamplePolicy::Direct);
        let scur = vec![DEAD, 0, DEAD];
        let mut snext = vec![0; 3];
        let mut rng = Xorshift64Star::new(1);
        let io = TaskIo {
            scur: &scur,
            sprev: None,
            snext: &mut snext,
            slice_base: 0,
            visits: None,
        };
        let steps = sample_partition(
            &g,
            &part,
            None,
            None,
            &first_order_ctx(),
            io,
            &mut rng,
            &mut NullProbe,
            &AddrMap::default(),
            1,
        )
        .steps;
        assert_eq!(steps, 1);
        assert_eq!(snext[0], DEAD);
        assert_eq!(snext[2], DEAD);
        assert_ne!(snext[1], DEAD);
    }

    #[test]
    fn visits_count_departures() {
        let g = synth::cycle(8);
        let part = make_part(&g, SamplePolicy::Direct);
        let scur = vec![3, 3, 5];
        let mut snext = vec![0; 3];
        let mut visits = vec![0u64; 8];
        let mut rng = Xorshift64Star::new(1);
        let io = TaskIo {
            scur: &scur,
            sprev: None,
            snext: &mut snext,
            slice_base: 0,
            visits: Some(&mut visits),
        };
        sample_partition(
            &g,
            &part,
            None,
            None,
            &first_order_ctx(),
            io,
            &mut rng,
            &mut NullProbe,
            &AddrMap::default(),
            1,
        );
        assert_eq!(visits[3], 2);
        assert_eq!(visits[5], 1);
    }

    #[test]
    fn probe_records_fewer_random_touches_for_slab() {
        use fm_memsim::{HierarchyConfig, MemorySystem};
        let g = synth::regular_ring(256, 4);
        let part = make_part(&g, SamplePolicy::Direct);
        let slab = part.slab(&g).unwrap();
        let scur: Vec<VertexId> = (0..256).collect();
        let addrs = AddrMap {
            offsets: 0x100_000,
            targets: 0x200_000,
            scur: 0x300_000,
            snext: 0x400_000,
            ..AddrMap::default()
        };
        let count_accesses = |use_slab: bool| {
            let mut probe = MemorySystem::new(HierarchyConfig::skylake_server());
            let mut snext = vec![0; scur.len()];
            let mut rng = Xorshift64Star::new(2);
            let io = TaskIo {
                scur: &scur,
                sprev: None,
                snext: &mut snext,
                slice_base: 0,
                visits: None,
            };
            sample_partition(
                &g,
                &part,
                use_slab.then_some(&slab),
                None,
                &first_order_ctx(),
                io,
                &mut rng,
                &mut probe,
                &addrs,
                1,
            );
            probe.stats().accesses
        };
        // CSR pays one extra offsets touch per walker.
        assert_eq!(count_accesses(false) - count_accesses(true), 256);
    }

    /// The tentpole invariant at task level: every ring depth produces
    /// the same walk as the legacy depth-1 loop, bit for bit, across
    /// DS and PS.  (node2vec's rounds are the engine's:
    /// `engine::tests::ring_depth_is_bit_exact_across_stages`.)
    #[test]
    fn ring_depths_produce_identical_walks() {
        let g = synth::power_law(400, 2.0, 2, 64, 17);
        let n = 1024usize;
        let scur: Vec<VertexId> = (0..n).map(|i| (i * 7 % 400) as VertexId).collect();
        for policy in [SamplePolicy::Direct, SamplePolicy::PreSample] {
            let ctx = AlgoCtx::new(
                WalkAlgorithm::DeepWalk,
                StopRule::Geometric {
                    exit_prob: 0.1,
                    max_steps: 8,
                },
                None,
            );
            let part = make_part(&g, policy);
            let run = |depth: usize| {
                let mut ps = (policy == SamplePolicy::PreSample).then(|| PsBuffers::new(&g, &part));
                let mut snext = vec![0; n];
                let mut rng = Xorshift64Star::new(42);
                let io = TaskIo {
                    scur: &scur,
                    sprev: None,
                    snext: &mut snext,
                    slice_base: 0,
                    visits: None,
                };
                let stats = sample_partition(
                    &g,
                    &part,
                    None,
                    ps.as_mut(),
                    &ctx,
                    io,
                    &mut rng,
                    &mut NullProbe,
                    &AddrMap::default(),
                    depth,
                );
                (snext, stats)
            };
            let (base, base_stats) = run(1);
            assert_eq!(base_stats.prefetches, 0, "depth 1 must not prefetch");
            for depth in [2usize, 4, 8, 16] {
                let (out, stats) = run(depth);
                assert_eq!(out, base, "policy {policy:?} depth {depth}");
                assert!(
                    stats.prefetches > 0,
                    "ring depth {depth} should issue prefetch hints"
                );
            }
        }
    }

    /// Records what a hint stage asks for, as (address, bytes).
    #[derive(Default)]
    struct HintLog(Vec<(u64, u32)>);

    impl Probe for HintLog {
        fn touch(&mut self, _: u64, _: u32, _: AccessKind) {
            panic!("a hint stage makes no demand access");
        }
        fn prefetch(&mut self, addr: u64, bytes: u32) {
            self.0.push((addr, bytes));
        }
    }

    /// PS hints per vertex, at the two ends of a buffer's life: every
    /// cursor zero (a fresh run: refill first, so adjacency head and
    /// buffer head) and every cursor full (nothing consumed yet: the
    /// buffer head alone), and one in between.  The stage reads the
    /// buffers and leaves them as they were.
    #[test]
    fn ps_hints_follow_the_cursor() {
        let g = synth::power_law(200, 2.0, 1, 40, 3);
        let part = make_part(&g, SamplePolicy::PreSample);
        let addr = AddrMap {
            targets: 0x10_0000,
            ps_buf: 0x80_0000,
            ..AddrMap::default()
        };
        let mut ps = PsBuffers::new(&g, &part);
        let degrees: Vec<u32> = (0..200).map(|v| g.degree(v) as u32).collect();
        let heads = |base: u64| -> Vec<(u64, u32)> {
            (0..200)
                .map(|v| (base + 4 * g.adjacency_start(v) as u64, 4))
                .collect()
        };
        let hint = |ps: &PsBuffers| {
            let mut log = HintLog::default();
            let issued =
                hint_partition::<Xorshift64Star, _>(&g, &part, None, Some(ps), &mut log, &addr);
            assert_eq!(issued as usize, log.0.len());
            log.0
        };

        // Every cursor zero.
        let mut got = hint(&ps);
        let mut want = heads(addr.targets);
        want.extend(heads(addr.ps_buf));
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want);

        // Every cursor full: buffer layout mirrors CSR, so heads again.
        ps.cursor.copy_from_slice(&degrees);
        assert_eq!(hint(&ps), heads(addr.ps_buf));

        // Mid-buffer: `remaining` left of `d` puts the next read at
        // `bstart + d - remaining`.
        for (c, &d) in ps.cursor.iter_mut().zip(&degrees) {
            *c = d.div_ceil(2);
        }
        let before = ps.export::<Xorshift64Star>(&g);
        let mid: Vec<(u64, u32)> = (0..200)
            .map(|v| {
                let d = g.degree(v) as u64;
                let pos = g.adjacency_start(v) as u64 + d - d.div_ceil(2);
                (addr.ps_buf + 4 * pos, 4)
            })
            .collect();
        assert_eq!(hint(&ps), mid);
        assert_eq!(
            ps.export::<Xorshift64Star>(&g),
            before,
            "a hint stage writes no PS state"
        );

        // A reserved generation part-read: its samples are row entries,
        // so the hints are the buffer head (the states) and the entry
        // the next draw picks — which the consume after it then reads.
        ps.reset();
        ps.reserving = true;
        let mut rng = Xorshift64Star::new(5);
        let ctx = first_order_ctx();
        let v: VertexId = 0;
        assert!(reservable(g.degree(v)));
        for _ in 0..3 {
            consume(&g, &mut ps, v, &ctx, &mut rng, &mut NullProbe, &addr);
        }
        let before = ps.export::<Xorshift64Star>(&g);
        let hints = hint(&ps);
        assert_eq!(ps.export::<Xorshift64Star>(&g), before);
        let next = consume(&g, &mut ps, v, &ctx, &mut rng, &mut NullProbe, &addr);
        let head = g.adjacency_start(v) as u64;
        let k = g.neighbors(v).iter().position(|&t| t == next).unwrap() as u64;
        assert_eq!(hints[0], (addr.ps_buf + 4 * head, 4));
        assert!(
            g.neighbors(v)[k as usize] == next && hints[1].0 >= addr.targets + 4 * head,
            "{hints:?}"
        );
        assert_eq!(
            g.targets()[((hints[1].0 - addr.targets) / 4) as usize],
            next,
            "the hinted entry is the one the next consume returns"
        );
        // Every other vertex is empty still: adjacency and buffer heads.
        assert_eq!(hints.len(), 2 + 2 * 199);
    }

    /// DS hints: the partition's target range, and in front of it its
    /// offset pairs unless the row rule computes the rows — each as one
    /// stream at the addresses the demand touches will use.
    #[test]
    fn ds_hints_cover_the_slab_or_the_csr_range() {
        let g = synth::regular_ring(64, 4);
        let part = make_part(&g, SamplePolicy::Direct);
        let slab = part.slab(&g).unwrap();
        let addr = AddrMap {
            offsets: 0x10_0000,
            targets: 0x20_0000,
            ..AddrMap::default()
        };
        let mut log = HintLog::default();
        let issued =
            hint_partition::<Xorshift64Star, _>(&g, &part, Some(&slab), None, &mut log, &addr);
        assert_eq!(log.0, vec![(0x20_0000, 64 * 4 * 4)]);
        assert_eq!(issued, 16 + 1, "a hint a line and one for the tail");

        // A partition in the middle of the graph: its rows start at its
        // first edge, with the row rule or without it.
        let (edges, uniform) = Partition::annotate(&g, 16, 48);
        let mid = Partition {
            start: 16,
            end: 48,
            policy: SamplePolicy::Direct,
            group: 0,
            edges,
            uniform_degree: uniform,
        };
        let mut log = HintLog::default();
        hint_partition::<Xorshift64Star, _>(&g, &mid, None, None, &mut log, &addr);
        assert_eq!(
            log.0,
            vec![(0x10_0000 + 8 * 16, 8 * 33), (0x20_0000 + 4 * 64, 4 * 128)]
        );
        let mut log = HintLog::default();
        let rule = mid.slab(&g);
        hint_partition::<Xorshift64Star, _>(&g, &mid, rule.as_ref(), None, &mut log, &addr);
        assert_eq!(log.0, vec![(0x20_0000 + 4 * 64, 4 * 128)]);
    }

    /// The memory-model half of the claim: a dense uniform DS task whose
    /// hint stage ran first finds its lines in cache.  Cold, two
    /// walkers a line, the rows well past L1: without the stream every
    /// line's first touch misses all the way down; with it the hints
    /// are the rows' line count and the task's demand misses in L2
    /// all but disappear.  Same walk either way.
    #[test]
    fn hinted_slab_task_hits_where_the_cold_one_misses() {
        use fm_memsim::{HierarchyConfig, MemorySystem};
        let g = synth::regular_ring(16_384, 8);
        let part = make_part(&g, SamplePolicy::Direct);
        let slab = part.slab(&g).unwrap();
        let lines = (part.edges * 4 / 64) as u64;
        let walkers = 2 * lines as usize;
        assert!(worth_hinting(&part, walkers, HINT_LINES_PER_WALKER));
        let scur: Vec<VertexId> = (0..walkers)
            .map(|j| (j * 7919 % 16_384) as VertexId)
            .collect();
        let addr = AddrMap {
            targets: 0x500_0000,
            scur: 0x300_0000,
            snext: 0x400_0000,
            ..AddrMap::default()
        };
        let run = |hinted: bool| {
            let mut probe = MemorySystem::new(HierarchyConfig::skylake_server());
            if hinted {
                hint_partition::<Xorshift64Star, _>(
                    &g,
                    &part,
                    Some(&slab),
                    None,
                    &mut probe,
                    &addr,
                );
            }
            let mut snext = vec![0; walkers];
            let io = TaskIo {
                scur: &scur,
                sprev: None,
                snext: &mut snext,
                slice_base: 0,
                visits: None,
            };
            sample_partition(
                &g,
                &part,
                Some(&slab),
                None,
                &first_order_ctx(),
                io,
                &mut Xorshift64Star::new(5),
                &mut probe,
                &addr,
                1,
            );
            (snext, probe.stats().clone())
        };
        let (cold_next, cold) = run(false);
        let (warm_next, warm) = run(true);
        assert_eq!(cold_next, warm_next);
        assert_eq!(cold.accesses, warm.accesses, "demand stream must match");
        assert_eq!(cold.prefetch_lines, 0);
        assert_eq!(warm.prefetch_lines, lines);
        assert!(
            warm.l2.misses * 4 < cold.l2.misses,
            "demand L2 misses: {} hinted, {} cold",
            warm.l2.misses,
            cold.l2.misses
        );
    }

    /// The guard is walkers against lines: edges / 16 for DS, one
    /// buffer line a vertex for PS.
    #[test]
    fn guard_compares_walkers_with_lines() {
        let g = synth::regular_ring(1_024, 8);
        let ds = make_part(&g, SamplePolicy::Direct); // 512 lines
        let ps = make_part(&g, SamplePolicy::PreSample); // 1024 lines
        for (part, lines) in [(&ds, 512), (&ps, 1_024)] {
            assert!(worth_hinting(part, lines / 2, 2));
            assert!(!worth_hinting(part, lines / 2 - 1, 2));
            assert!(worth_hinting(part, 1, usize::MAX), "always");
            assert!(!worth_hinting(part, usize::MAX, 0), "never");
        }
    }
}
