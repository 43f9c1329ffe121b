//! Out-of-core walking of disk-resident graphs (the paper's future work).
//!
//! Section 4.5 closes with: "[FlashMob's streaming results show] strong
//! promise for its future extension to walk disk-resident graphs at
//! cache speed", and Section 5.4 budgets it — streaming a larger graph
//! through DRAM every iteration would need ~5 GB/s, "below the
//! capability of today's commodity NVMe SSDs".
//!
//! This module implements that extension: the degree-sorted CSR lives in
//! a file; only the offsets index and the walker arrays stay in memory.
//! Every walk runs one loop, GraSorw's triangular bi-block schedule
//! ([`run_ooc_with`]): the sorted vertex array is cut into blocks of half
//! the budget, walkers wait in the bucket of the block pair their next
//! step reads, and a sweep loads the pairs whose buckets hold walkers and
//! steps each walker until its lookups leave the pair.  A node2vec step
//! reads two lists, `adj(prev)` and `adj(cur)`, so its walkers use the
//! off-diagonal pairs; DeepWalk and PPR read one list and live on the
//! diagonal, where a pair is one block.  Because walkers concentrate on
//! the high-degree head (Table 2), cold pairs are skipped and the
//! volume loaded is typically far below the file size.  A block is
//! loaded by mapping its range of the file, not by copying it
//! ([`FileMap`], DESIGN §14).

use std::borrow::Cow;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fm_graph::mem::FileMap;
use fm_graph::relabel::Relabeling;
use fm_graph::{Csr, GraphError, VertexId};
use fm_memsim::NullProbe;
use fm_recover::{
    le_bytes, transient_io, with_retries, BiBlockState, FaultState, Fingerprint, RecoverError,
    RetryPolicy, RunHeader, WalkSnapshot, WalkState,
};
use fm_rng::{Rng64, Xorshift64Star};
use fm_telemetry::{Stage, Telemetry};

use crate::algorithm::Node2VecRule;
use crate::checkpoint::{self, Checkpointer};
use crate::engine::{partition_stream_id, RunOptions};
use crate::output::WalkOutput;
use crate::plan::{PlanStrategy, Planner};
use crate::sample::ring;
use crate::walker::{fold_init, initialize_from_offsets, WalkerInit};
use crate::{StopRule, WalkAlgorithm, WalkConfig, WalkError, DEAD};

const MAGIC: &[u8; 8] = b"FMDISK1\0";

/// The words [`DiskGraph::write_fmdisk`] stages before a write: 4 MiB, a multiple
/// of the 2 MiB folio the page cache can hold the file in (DESIGN §14).
const STAGE_WORDS: usize = 1 << 20;

/// The index words `DiskGraph::open` reads at a time, 64 KiB: reads need no
/// alignment, and glibc can keep a freed 4 MiB buffer resident in its heap.
const READ_WORDS: usize = 8 << 10;

/// A degree-sorted CSR graph whose targets array resides on disk.
///
/// The offsets index (`|V| + 1` words) stays in memory; a block's
/// adjacency words are mapped from the file when a run needs them.
#[derive(Debug)]
pub struct DiskGraph {
    path: PathBuf,
    offsets: Vec<usize>,
    relabel: Arc<Relabeling>,
}

impl DiskGraph {
    /// Sorts `graph` by descending degree and writes its targets to
    /// `path`, returning the handle.  The sorted rows are streamed from
    /// `graph`, never built: this holds the index, relabeling and a stage.
    pub fn create<P: AsRef<Path>>(graph: &Csr, path: P) -> Result<Self, GraphError> {
        let path = path.as_ref();
        let at = |e: std::io::Error| GraphError::io_at(path, None, e);
        let relabel = Relabeling::by_descending_degree(graph);
        let disk = Self {
            path: path.to_path_buf(),
            offsets: relabel.sorted_offsets(graph),
            relabel: Arc::new(relabel),
        };
        let mut file = File::create(path).map_err(at)?;
        disk.write_fmdisk(&mut file, graph).map_err(at)?;
        Ok(disk)
    }

    /// Opens an existing on-disk graph, loading only the offsets index.
    ///
    /// The header is validated against the actual file length before any
    /// allocation: a corrupt vertex count can claim an index far larger
    /// than the file (or than the address space), and must fail with a
    /// clean `Format` error instead of a panic or a wild allocation.  The
    /// index is read [`READ_WORDS`] at a time and checked as it is decoded.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, GraphError> {
        let path = path.as_ref();
        let mut f = File::open(path).map_err(|e| GraphError::io_at(path, None, e))?;
        let file_len = f
            .metadata()
            .map_err(|e| GraphError::io_at(path, None, e))?
            .len();
        let mut header = [[0u8; 8]; 3];
        f.read_exact(header.as_flattened_mut()).map_err(|e| {
            // A sub-header file is corruption (a torn create, not an
            // environment fault): classify as Format so the CLI exits
            // with the corrupt-input code rather than the IO one.
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                GraphError::Format("disk graph is shorter than its 24-byte header".into())
            } else {
                GraphError::io_at(path, Some(0), e)
            }
        })?;
        let [magic, vcount64, ecount64] = header.map(u64::from_le_bytes);
        if magic != u64::from_le_bytes(*MAGIC) {
            return Err(GraphError::Format("bad disk-graph magic".into()));
        }
        let expect_len = vcount64
            .checked_add(1)
            .and_then(|v| v.checked_mul(8))
            .and_then(|idx| ecount64.checked_mul(4).and_then(|t| idx.checked_add(t)))
            .and_then(|payload| payload.checked_add(24))
            .filter(|&n| n <= usize::MAX as u64)
            .ok_or_else(|| {
                GraphError::Format(format!(
                    "disk-graph header counts overflow: {vcount64} vertices, {ecount64} edges"
                ))
            })?;
        if file_len != expect_len {
            return Err(GraphError::Format(format!(
                "disk graph is {file_len} bytes, header implies {expect_len}"
            )));
        }
        let vcount = vcount64 as usize;
        let mut offsets = Vec::with_capacity(vcount + 1);
        let (mut buf, mut prev, mut monotone) = (vec![[0u8; 8]; READ_WORDS], 0, true);
        for at in (0..=vcount).step_by(READ_WORDS) {
            let chunk = &mut buf[..READ_WORDS.min(vcount + 1 - at)];
            let at_off = |e| GraphError::io_at(path, Some(24 + 8 * at as u64), e);
            f.read_exact(chunk.as_flattened_mut()).map_err(at_off)?;
            for o in chunk.iter().map(|&w| u64::from_le_bytes(w)) {
                (monotone, prev) = (monotone && o >= prev, o);
                offsets.push(o as usize);
            }
        }
        if !monotone || offsets[0] != 0 || prev != ecount64 {
            return Err(GraphError::Format(
                "disk-graph offsets index is not a monotone CSR".into(),
            ));
        }
        Ok(Self {
            path: path.to_path_buf(),
            offsets,
            relabel: Arc::new(Relabeling::identity(vcount)),
        })
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.offsets.last().map_or(0, |&o| o)
    }

    /// Out-degree of sorted-space vertex `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The sorted-space → original-ID mapping (identity for graphs
    /// opened from disk, which are already in sorted space).
    pub fn relabeling(&self) -> &Relabeling {
        &self.relabel
    }

    /// Byte offset of the targets array within the file.
    fn targets_base(&self) -> u64 {
        24 + (self.offsets.len() as u64) * 8
    }

    /// Maps the adjacency words of the vertex range `[start, end)` from
    /// `file`, FMDISK1 at this graph's path, after one roll of `fault`
    /// (none without a fault policy).  IO errors carry the path and the
    /// byte offset; a file cut short under the open index is
    /// `UnexpectedEof`.
    fn map_block(
        &self,
        file: &File,
        fault: &mut Option<FaultState>,
        start: VertexId,
        end: VertexId,
    ) -> Result<FileMap, GraphError> {
        let lo = self.offsets[start as usize];
        let hi = self.offsets[end as usize];
        let off = self.targets_base() + (lo as u64) * 4;
        let at = |e| GraphError::io_at(&self.path, Some(off), e);
        if let Some(fault) = fault {
            fault.operation().map_err(at)?;
        }
        // SAFETY: FMDISK1 is not modified while a run maps it (DESIGN
        // §14): `create` writes it whole before any map, and nothing
        // here writes or truncates it.
        unsafe { FileMap::new(file, off, hi - lo) }.map_err(at)
    }

    /// Writes FMDISK1 for `graph` in this handle's sorted order, as 32-bit
    /// words through a stage of [`STAGE_WORDS`] written only when full: every
    /// write but the last is one stage at a multiple of its length, so the
    /// page cache holds the file in the large folios a mapping populates fast.
    fn write_fmdisk<W: Write>(&self, w: &mut W, graph: &Csr) -> io::Result<()> {
        let halves = |o: u64| [o as VertexId, (o >> 32) as VertexId];
        let relabel = &*self.relabel;
        let mut stage = Vec::with_capacity(STAGE_WORDS);
        let (n, m) = (graph.vertex_count() as u64, graph.edge_count() as u64);
        let head = [u64::from_le_bytes(*MAGIC), n, m];
        stage.extend(head.into_iter().flat_map(halves));
        // The header's six words keep each index entry's two within a stage.
        for &o in &self.offsets {
            stage.extend(halves(o as u64));
            if stage.len() == STAGE_WORDS {
                flush(w, &mut stage)?;
            }
        }
        // A row is staged a slice at a time, split at the stage's end.
        for old in relabel.rows(graph, true) {
            let mut row = graph.neighbors(old);
            while !row.is_empty() {
                let (now, rest) = row.split_at(row.len().min(STAGE_WORDS - stage.len()));
                stage.extend(now.iter().map(|&t| relabel.to_new(t)));
                row = rest;
                if stage.len() == STAGE_WORDS {
                    flush(w, &mut stage)?;
                }
            }
        }
        flush(w, &mut stage)
    }
}

/// Writes `stage` as FMDISK1 stores it, in one write, and empties it.
fn flush<W: Write>(w: &mut W, stage: &mut Vec<VertexId>) -> io::Result<()> {
    w.write_all(&le_bytes(stage))?;
    stage.clear();
    Ok(())
}

/// Statistics of one out-of-core run.
#[derive(Debug, Clone, Default)]
pub struct OocStats {
    /// Live walker-steps executed.
    pub steps_taken: u64,
    /// Total wall-clock time.
    pub wall: Duration,
    /// Bytes of adjacency data made resident: the sum of the block
    /// loads' mapped word ranges.  (Named for the copying loads it once
    /// counted; `benchmark/` reads it under this name.)
    pub bytes_read: u64,
    /// Time spent making blocks resident: unmapping the block a buffer
    /// held, mapping the new one and populating its pages, fault-layer
    /// retries included.
    pub read_time: Duration,
    /// Transient IO errors absorbed by the retry layer (block loads and
    /// checkpoint writes).
    pub io_retries: u64,
    /// Block loads performed: a scheduled pair loads only the blocks
    /// its two buffers do not already hold, so between zero and two
    /// (one at most on the diagonal).
    pub blocks_streamed: u64,
    /// Pair slots whose boundary bucket held walkers and were therefore
    /// scheduled.
    pub pairs_scheduled: u64,
    /// Pair slots skipped, and their blocks left unloaded, because their
    /// boundary bucket was empty.
    pub pairs_skipped: u64,
    /// Walkers parked into boundary buckets, cumulative over the run.
    pub walkers_parked: u64,
    /// Peak simultaneous boundary-buffer occupancy (the scheduler's
    /// memory high-water mark in walkers).
    pub peak_parked: u64,
    /// node2vec only: connectivity scans performed — rejection draws
    /// the rule could not decide without the graph.
    pub probes: u64,
    /// node2vec only: adjacency words those scans read.  FMDISK1 lists
    /// are unsorted, so a scan reads the predecessor's list front to
    /// back: up to and including the candidate where it is there, the
    /// whole list where it is not.
    pub scan_words: u64,
    /// Software-prefetch hints the walker ring issued (0 at depth 1),
    /// as `RunStats::per_partition_prefetches` counts them in memory.
    pub prefetches: u64,
    /// The most adjacency words the two block buffers held at once:
    /// the words asked for, not rounded up to the pages that map them.
    /// Their bytes are within the budget, blocks being cut to half of
    /// it, unless a single list is longer than that half (such a list
    /// is a block of its own).
    pub peak_block_words: u64,
}

impl OocStats {
    /// Average nanoseconds per walker-step.
    pub fn per_step_ns(&self) -> f64 {
        if self.steps_taken == 0 {
            return 0.0;
        }
        self.wall.as_nanos() as f64 / self.steps_taken as f64
    }

    /// Average adjacency bytes streamed per walker-step.
    pub fn bytes_per_step(&self) -> f64 {
        if self.steps_taken == 0 {
            return 0.0;
        }
        self.bytes_read as f64 / self.steps_taken as f64
    }
}

/// [`run_ooc_with`] under default options, untraced.  Kept for
/// `benchmark/`, which calls it by name; nothing else may.
pub fn run_ooc(
    disk: &DiskGraph,
    config: &WalkConfig,
    partition_budget_bytes: usize,
) -> Result<(WalkOutput, OocStats), WalkError> {
    run_ooc_with(
        disk,
        config,
        partition_budget_bytes,
        &RunOptions::default(),
        &mut Telemetry::off(),
    )
}

/// Places walkers per `config.init` using only in-memory metadata (the
/// offsets index).
fn init_positions(disk: &DiskGraph, config: &WalkConfig) -> Vec<VertexId> {
    let relabeled;
    let init = match &config.init {
        WalkerInit::Fixed(starts) => {
            relabeled = WalkerInit::Fixed(starts.iter().map(|&v| disk.relabel.to_new(v)).collect());
            &relabeled
        }
        other => other,
    };
    initialize_from_offsets(&disk.offsets, init, config.walkers, config.seed)
}

/// Fingerprint of everything that determines an out-of-core chain.  The
/// budget is folded because it fixes the block cut and with it every
/// pair slot's RNG stream; the algorithm and its parameters because
/// they change the sampled chain.  The domain separator keeps snapshots
/// of the in-memory engine, and of the partition-streaming loop
/// DeepWalk once ran here, from resuming an out-of-core run.
fn biblock_config_tag(config: &WalkConfig, partition_budget_bytes: usize) -> u64 {
    let mut fp = Fingerprint::new();
    fp.fold_u64(0x00B1_B10C) // domain separator: bi-block scheduler
        .fold_u64(config.walkers as u64)
        .fold_u64(config.seed);
    // `run_ooc_with` admits a fixed step count only.
    if let StopRule::FixedSteps(steps) = config.stop {
        fp.fold_u64(steps as u64);
    }
    fp.fold_u64(config.record_paths as u64)
        .fold_u64(partition_budget_bytes as u64);
    match config.algorithm {
        WalkAlgorithm::Node2Vec { p, q } => {
            fp.fold_u64(1).fold_u64(p.to_bits()).fold_u64(q.to_bits())
        }
        WalkAlgorithm::Ppr { alpha } => fp.fold_u64(2).fold_u64(alpha.to_bits()),
        // DeepWalk, the one other algorithm `run_ooc_with` admits.
        _ => fp.fold_u64(3),
    };
    fold_init(&mut fp, &config.init);
    // `run_ooc_with` admits the DP strategy only: it folds nothing, any
    // other strategy its ordinal.
    if config.strategy != PlanStrategy::DynamicProgramming {
        fp.fold_u64(config.strategy as u64);
    }
    fp.value()
}

/// Walks a disk-resident graph — DeepWalk, node2vec or PPR, for a fixed
/// number of steps — through the bi-block pair schedule; any other
/// algorithm or stop rule is a [`WalkError::Config`], as is a
/// [`WalkConfig::strategy`] other than the default DP (the blocks, not a
/// partition plan, schedule the walk).
///
/// `partition_budget_bytes` bounds the adjacency bytes held at once: a
/// pair of half-budget blocks (the paper's analysis suggests the L3
/// capacity).  DeepWalk and PPR read one list a step, so they only ever
/// fill one of the two.  The stepping loop runs through the walker
/// ring, so [`WalkConfig::ring_depth`] reaches this engine as it does
/// the in-memory one; unset, the cost model picks the depth from the
/// resident pair's size.  The walk is the same at every depth.
///
/// This is the out-of-core engine's one run entry, with the full
/// robustness surface — crash-consistent checkpoints, resume, seeded
/// fault injection on the block loads, and bounded retries with
/// exponential backoff for transient IO errors — and telemetry: a
/// Sample span per scheduled pair slot, an Io span per block load,
/// per-block counters (steps plus the adjacency bytes each load made
/// resident), and a heartbeat tick per sweep.
///
/// The schedule is GraSorw's triangular bi-block sweep, as the module
/// docs and DESIGN §14 set it out; a hub whose list alone exceeds the
/// half-budget is a block of its own, so a small budget never overruns.
///
/// Determinism and crash safety: the RNG stream of a pair slot is
/// `partition_stream_id(seed, epoch, slot)`, restarted at each slot,
/// so resume at any slot boundary has no RNG carry-over; buckets are
/// drained and refilled in deterministic walker order; checkpoints
/// fire on a pair-slot cadence (`walk.iter_next % every`), which counts
/// empty slots too and is therefore data-independent within an epoch.
pub fn run_ooc_with(
    disk: &DiskGraph,
    config: &WalkConfig,
    partition_budget_bytes: usize,
    opts: &RunOptions,
    tel: &mut Telemetry,
) -> Result<(WalkOutput, OocStats), WalkError> {
    config.algorithm.check_params()?;
    if config.walkers == 0 {
        return Err(WalkError::NoWalkers);
    }
    let n = disk.vertex_count();
    if n == 0 {
        return Err(WalkError::EmptyGraph);
    }
    for v in 0..n {
        if disk.degree(v as VertexId) == 0 {
            return Err(WalkError::SinkVertex(v as VertexId));
        }
    }
    let kind = match config.algorithm {
        WalkAlgorithm::DeepWalk => Kind::DeepWalk,
        WalkAlgorithm::Node2Vec { .. } => Kind::Node2Vec(config.algorithm.node2vec_rule()),
        WalkAlgorithm::Ppr { alpha } => Kind::Ppr { alpha },
        _ => {
            return Err(WalkError::Config(
                "out-of-core walking supports DeepWalk, node2vec, and PPR only".into(),
            ))
        }
    };
    // No stepping loop here flips an exit coin, so the rule is refused
    // rather than run as `max_steps` fixed steps.
    let StopRule::FixedSteps(steps) = config.stop else {
        return Err(WalkError::Config(
            "out-of-core walking supports a fixed step count only, not a geometric stop".into(),
        ));
    };
    // The blocks are the schedule: there is no partition plan to shape.
    if config.strategy != PlanStrategy::DynamicProgramming {
        return Err(WalkError::Config(format!(
            "disk graphs take no partition plan; strategy {:?} is for in-memory graphs",
            config.strategy
        )));
    }
    let walkers = config.walkers;
    if u32::try_from(walkers).is_err() {
        return Err(WalkError::Config(format!(
            "bi-block boundary buckets hold 32-bit walker ids; {walkers} walkers do not fit"
        )));
    }
    let offsets = &disk.offsets[..];
    let blocks = Blocks::cut(offsets, partition_budget_bytes / 2);
    let (nblocks, n_pairs) = (blocks.len(), blocks.pairs());

    let wall_start = Instant::now();
    let cur = init_positions(disk, config);
    let mut lanes = Lanes {
        walk: WalkState {
            prev: if matches!(kind, Kind::Ppr { .. }) {
                cur.clone()
            } else {
                vec![DEAD; walkers]
            },
            w: cur,
            ..WalkState::default()
        },
        bb: BiBlockState {
            blocks: nblocks as u64,
            done: vec![0; walkers],
            buckets: vec![Vec::new(); n_pairs],
            ..BiBlockState::default()
        },
        remaining: if steps == 0 { 0 } else { walkers },
        parked_now: 0,
    };
    let mut stats = OocStats::default();
    let mut epoch = 0usize;
    let mut start_slot = 0usize;

    let file = File::open(&disk.path).map_err(|e| GraphError::io_at(&disk.path, None, e))?;
    let mut fault = opts.fault.map(FaultState::new);
    if tel.is_on() {
        tel.ensure_partitions(nblocks);
    }
    let mut checkpoint = Checkpointer::new(opts);
    let header = checkpoint::run_header(opts, config.seed, walkers, steps, || {
        (
            biblock_config_tag(config, partition_budget_bytes),
            checkpoint::graph_tag(n, disk.edge_count(), offsets),
        )
    });

    if let Some(snap) = checkpoint::resume(opts, &header, tel)? {
        let mismatch =
            |detail: &str| WalkError::Recover(RecoverError::Mismatch { detail: detail.into() });
        let mut bb = snap
            .biblock
            .ok_or_else(|| mismatch("snapshot carries no bi-block scheduler state"))?
            .into_owned();
        let walk = snap.state.into_owned();
        if walk.w.len() != walkers
            || walk.prev.len() != walkers
            || bb.done.len() != walkers
            || bb.blocks as usize != nblocks
            || bb.buckets.len() != n_pairs
            || bb.cursor as usize >= n_pairs
            || bb.done.iter().any(|&d| d as usize > steps)
        {
            return Err(mismatch("snapshot shape does not fit this run"));
        }
        // The codec has checked each path against `done`; they must be
        // there exactly when this run records paths.
        if bb.rows.is_empty() == config.record_paths {
            return Err(mismatch("snapshot path rows are inconsistent"));
        }
        // Every unfinished walker must be parked in exactly one bucket.
        let mut seen = vec![false; walkers];
        let mut parked = 0u64;
        for bucket in &bb.buckets {
            for &k in bucket {
                let k = k as usize;
                if k >= walkers || seen[k] || bb.done[k] as usize >= steps {
                    return Err(mismatch("snapshot boundary buckets are inconsistent"));
                }
                seen[k] = true;
                parked += 1;
            }
        }
        let unfinished = bb.done.iter().filter(|&&d| (d as usize) < steps).count();
        if parked != unfinished as u64 {
            return Err(mismatch("snapshot boundary buckets are inconsistent"));
        }
        if config.record_paths {
            // The rows past the longest path, written before they are read.
            bb.rows.resize(steps + 1, vec![0; walkers]);
        }
        (epoch, start_slot) = (bb.epoch as usize, bb.cursor as usize);
        lanes = Lanes {
            walk,
            bb,
            remaining: unfinished,
            parked_now: parked,
        };
    } else {
        if config.record_paths {
            lanes.bb.rows = vec![vec![0 as VertexId; walkers]; steps + 1];
            lanes.bb.rows[0].copy_from_slice(&lanes.walk.w);
        }
        if steps > 0 {
            // Fresh start: park every walker in its home bucket (no
            // second block to wait for yet: DeepWalk and PPR never have
            // one, node2vec has no predecessor).
            for (k, &c) in lanes.walk.w.iter().enumerate() {
                let b = blocks.of(c);
                lanes.bb.buckets[blocks.slot_of(b, b)].push(k as u32);
            }
            lanes.parked_now = walkers as u64;
            stats.walkers_parked = walkers as u64;
            stats.peak_parked = walkers as u64;
        }
    }
    // Two block buffers, the whole of the engine's block memory.
    let largest = (0..nblocks)
        .map(|b| blocks.range(b))
        .map(|r| offsets[r.end] - offsets[r.start])
        .max()
        .unwrap_or(0);
    let mut bufs = [BlockBuf::default(), BlockBuf::default()];
    let stepper = Stepper {
        offsets,
        blocks: &blocks,
        kind,
        steps,
        // One ring depth for the run: the stepping loop's working set is
        // the resident pair plus the offsets index, whichever pair is
        // loaded.
        depth: config.ring_depth.unwrap_or_else(|| {
            Planner::analytic_model(&config.planner)
                .ring_depth(2 * largest * 4 + std::mem::size_of_val(offsets))
        }),
    };
    'sweep: while lanes.remaining > 0 {
        // Every unfinished walker's own pair is visited once per sweep
        // and steps it at least once, so epochs are bounded by steps.
        let mut slot = 0usize;
        for i in 0..nblocks {
            for j in i..nblocks {
                let s = slot;
                slot += 1;
                if s < start_slot {
                    continue;
                }
                let bucket = std::mem::take(&mut lanes.bb.buckets[s]);
                if bucket.is_empty() {
                    stats.pairs_skipped += 1;
                } else {
                    lanes.parked_now -= bucket.len() as u64;
                    stats.pairs_scheduled += 1;
                    // `bufs[0]` serves block `i`, `bufs[1]` block `j`: swap
                    // rather than reload when they hold the needed blocks
                    // the other way round, then load what is missing (a
                    // diagonal pair needs one block only).
                    if bufs[1].block() == Some(i) || (j != i && bufs[0].block() == Some(j)) {
                        bufs.swap(0, 1);
                    }
                    let needed = if j == i { 1 } else { 2 };
                    for (buf, b) in bufs.iter_mut().zip([i, j]).take(needed) {
                        ensure_resident(
                            disk, &file, &mut fault, &blocks, buf, epoch, b, &mut stats, tel,
                        )?;
                    }
                    let held = bufs.iter().map(|b| b.words().len() as u64).sum();
                    stats.peak_block_words = stats.peak_block_words.max(held);
                    let sample_span = tel.is_on().then(|| tel.now_ns());
                    let steps_before = lanes.walk.steps_taken;
                    let rng = Xorshift64Star::new(partition_stream_id(config.seed, epoch, s));
                    let hints = stepper.drain((i, j), &bufs, &bucket, rng, &mut lanes, &mut stats);
                    stats.prefetches += hints;
                    if let Some(sp) = sample_span {
                        tel.span_since(Stage::Sample, sp, epoch as u32, i as u32);
                        tel.record_partition_step(i, lanes.walk.steps_taken - steps_before, false);
                        let in_flight = stepper.depth.min(bucket.len()) as u64;
                        tel.record_partition_ring(i, in_flight, hints);
                    }
                }

                // Pair-slot cadence checkpointing: the progress counts
                // empty slots too, so kill generations are deterministic
                // and data-independent within an epoch.
                lanes.walk.iter_next += 1;
                if let Some(ck) = checkpoint.take() {
                    let resume_at = if s + 1 == n_pairs {
                        (epoch as u64 + 1, 0)
                    } else {
                        (epoch as u64, s as u64 + 1)
                    };
                    let progress = lanes.walk.iter_next;
                    checkpoint = Some(ck.tick(progress, epoch as u32, tel, || {
                        lanes.snapshot(header, resume_at)
                    })?);
                }
                if lanes.remaining == 0 {
                    break 'sweep;
                }
            }
        }
        start_slot = 0;
        epoch += 1;
        tel.tick(epoch, steps, lanes.walk.steps_taken);
    }

    if let Some(ck) = checkpoint {
        let progress = lanes.walk.iter_next;
        stats.io_retries += ck.finish(progress, epoch as u32, tel, || {
            lanes.snapshot(header, (epoch as u64, 0))
        })?;
    }
    stats.steps_taken = lanes.walk.steps_taken;

    tel.record_io_retries(stats.io_retries);
    stats.wall = wall_start.elapsed();
    // No out-of-core walker dies early, so every recorded row is full;
    // without paths the one row is where the walkers ended.
    let rows = if config.record_paths {
        lanes.bb.rows
    } else {
        vec![lanes.walk.w]
    };
    Ok((
        WalkOutput::new(rows, walkers, Arc::clone(&disk.relabel)),
        stats,
    ))
}

/// Flat triangular index of the block pair `(i, j)` with `i <= j`
/// among `blocks` blocks: row-major over the upper triangle.
fn pair_index(i: usize, j: usize, blocks: usize) -> usize {
    debug_assert!(i <= j && j < blocks);
    i * (2 * blocks - i + 1) / 2 + (j - i)
}

/// Whether `cand` is in the unsorted list `adj`, and how many of its
/// words a front-to-back scan reads to say so ([`OocStats::scan_words`]).
/// By chunks, so that the compare stays as vectorised as `contains`'s;
/// only the chunk that holds the match is searched word by word.
fn scan_list(adj: &[VertexId], cand: VertexId) -> (bool, usize) {
    const CHUNK: usize = 64;
    for (c, chunk) in adj.chunks(CHUNK).enumerate() {
        if chunk.contains(&cand) {
            let at = chunk.iter().take_while(|&&w| w != cand).count();
            return (true, c * CHUNK + at + 1);
        }
    }
    (false, adj.len())
}

/// One block buffer: the mapping of the block it holds, if any.
/// Residency is run-local state, in no snapshot (a resume starts cold).
#[derive(Default)]
struct BlockBuf {
    held: Option<(usize, FileMap)>,
}

impl BlockBuf {
    fn block(&self) -> Option<usize> {
        self.held.as_ref().map(|&(b, _)| b)
    }

    /// The words of the block held; none before the first load.
    fn words(&self) -> &[VertexId] {
        self.held.as_ref().map_or(&[], |(_, m)| m.words())
    }
}

/// Makes block `blk` of `blocks` resident in `buf`: a no-op
/// when `buf` already holds it, otherwise the block it held is unmapped
/// and `blk` mapped after a roll of `fault`, under retries, attributing
/// the bytes and an Io span to the block's telemetry partition.
#[allow(clippy::too_many_arguments)]
fn ensure_resident(
    disk: &DiskGraph,
    file: &File,
    fault: &mut Option<FaultState>,
    blocks: &Blocks,
    buf: &mut BlockBuf,
    epoch: usize,
    blk: usize,
    stats: &mut OocStats,
    tel: &mut Telemetry,
) -> Result<(), WalkError> {
    if buf.block() == Some(blk) {
        return Ok(());
    }
    let io_span = tel.is_on().then(|| tel.now_ns());
    let t0 = Instant::now();
    let range = blocks.range(blk);
    // Unmap first, so that no more than two blocks are ever mapped.
    buf.held = None;
    // Transient errors (injected or real) are retried with exponential
    // backoff; permanent ones escalate typed.
    let map = with_retries(
        &RetryPolicy::default(),
        &mut stats.io_retries,
        |e: &GraphError| e.io_source().is_some_and(transient_io),
        || disk.map_block(file, fault, range.start as VertexId, range.end as VertexId),
    )?;
    let bytes = map.words().len() as u64 * 4;
    buf.held = Some((blk, map));
    stats.read_time += t0.elapsed();
    stats.bytes_read += bytes;
    stats.blocks_streamed += 1;
    if let Some(s) = io_span {
        tel.span_since(Stage::Io, s, epoch as u32, blk as u32);
        tel.record_partition_bytes(blk, bytes);
    }
    Ok(())
}

/// The block cut of a bi-block run: the sorted vertex array in runs of
/// at most `block_bytes` of adjacency each (a vertex whose list alone
/// exceeds that is a block of its own).
struct Blocks {
    /// First vertex of each block.
    start: Vec<usize>,
    vertices: usize,
}

impl Blocks {
    fn cut(offsets: &[usize], block_bytes: usize) -> Self {
        let vertices = offsets.len() - 1;
        let mut start = Vec::new();
        let mut first = 0usize;
        while first < vertices {
            let lo = offsets[first];
            let budget_edges = (block_bytes / 4).max(offsets[first + 1] - lo).max(1);
            let mut end = first + 1;
            while end < vertices && offsets[end + 1] - lo <= budget_edges {
                end += 1;
            }
            start.push(first);
            first = end;
        }
        Self { start, vertices }
    }

    fn len(&self) -> usize {
        self.start.len()
    }

    /// Pair slots in one sweep of the upper triangle.
    fn pairs(&self) -> usize {
        self.len() * (self.len() + 1) / 2
    }

    /// The block holding vertex `v`.
    fn of(&self, v: VertexId) -> usize {
        self.start.partition_point(|&s| s <= v as usize) - 1
    }

    /// The vertices of block `b`.
    fn range(&self, b: usize) -> std::ops::Range<usize> {
        self.start[b]..self.start.get(b + 1).copied().unwrap_or(self.vertices)
    }

    /// The slot a walker on `cur` that came from `prev` waits in; one
    /// that reads a single list (PPR, or node2vec's first step) waits
    /// on the diagonal, `prev = cur`.
    fn slot_of(&self, prev: usize, cur: usize) -> usize {
        pair_index(prev.min(cur), prev.max(cur), self.len())
    }
}

/// The walker state of a bi-block run: the two states a BBLK snapshot
/// borrows whole, and two counts derived from them.
///
/// In `walk`, `w` holds each walker's vertex and `prev` its node2vec
/// predecessor (DEAD before the first, first-order step) or its PPR
/// origin; `iter_next` counts the pair slots done, empty ones included.
/// `bb.rows` holds `steps + 1` iteration-major path rows when paths are
/// recorded, written in place as walkers step (`rows[done[k]][k]`).
struct Lanes {
    walk: WalkState,
    bb: BiBlockState,
    /// Walkers with steps left.
    remaining: usize,
    /// Walkers parked right now.
    parked_now: u64,
}

impl Lanes {
    /// What a checkpoint taken now holds, resuming at `(epoch, cursor)`
    /// of the sweep: both states, borrowed whole.
    fn snapshot(&mut self, header: RunHeader, (epoch, cursor): (u64, u64)) -> WalkSnapshot<'_> {
        (self.bb.epoch, self.bb.cursor) = (epoch, cursor);
        WalkSnapshot {
            header,
            state: Cow::Borrowed(&self.walk),
            ps: Vec::new(),
            biblock: Some(Cow::Borrowed(&self.bb)),
        }
    }
}

/// What a walker of each out-of-core algorithm reads and draws.
#[derive(Clone, Copy)]
enum Kind {
    /// First-order uniform: reads `adj(cur)` alone and draws with no
    /// coin; its `prev` lane stays `DEAD`, so it lives on the diagonal.
    DeepWalk,
    /// Second-order, under this rejection rule: the `prev` lane holds
    /// the predecessor, whose list the rule probes, so a walker waits in
    /// the slot of `(block(prev), block(cur))`.
    Node2Vec(Node2VecRule),
    /// Restart coin first, with this probability: the `prev` lane holds
    /// the origin, never looked up, so it lives on the diagonal too.
    Ppr { alpha: f64 },
}

/// What stays the same for every slot of a bi-block run, and the loop
/// that steps one slot's walkers against the resident pair.
struct Stepper<'a> {
    offsets: &'a [usize],
    blocks: &'a Blocks,
    kind: Kind,
    steps: usize,
    /// Walker-ring depth; 1 steps one walker at a time, hints off.
    depth: usize,
}

impl Stepper<'_> {
    /// Steps every walker of `bucket`, the slot of block pair `(i, j)`
    /// whose blocks `bufs` hold in that order, until it finishes or its
    /// lookups leave the pair and it parks; returns the hints issued.
    ///
    /// The bucket goes through [`ring::drive_scouted`]: a walker's first
    /// step in the slot reads its id from the bucket, its lanes, and the
    /// offset pair and adjacency list of each vertex it looks up (two for
    /// node2vec, one otherwise), each address depending on the load
    /// before and none of it on a draw — a walker sits in
    /// exactly one bucket and nothing parks into the slot being drained,
    /// so its lanes are still when the hint stages read them ahead.
    /// `execute` alone draws and mutates, in bucket order, so the walk
    /// is the same at every depth.
    fn drain(
        &self,
        (i, j): (usize, usize),
        bufs: &[BlockBuf; 2],
        bucket: &[u32],
        rng: Xorshift64Star,
        lanes: &mut Lanes,
        stats: &mut OocStats,
    ) -> u64 {
        let &Self {
            offsets,
            blocks,
            kind,
            ..
        } = self;
        // Whether a step looks up the `prev` lane's list too.
        let second_order = matches!(kind, Kind::Node2Vec(_));
        // Block `b`'s words and the edge offset they start at.
        let base = [i, j].map(|b| offsets[blocks.start[b]]);
        let words = [bufs[0].words(), bufs[1].words()];
        let resident = |b: usize| -> (&[VertexId], usize) {
            let side = usize::from(b != i);
            (words[side], base[side])
        };
        let in_i = blocks.range(i);
        // The adjacency list of `v`, a vertex of this pair, as the hint
        // stages address it: an index into a block buffer that
        // `Pf::span` bounds-checks, so a vertex of neither block costs
        // a dropped hint.
        let list_of = |v: VertexId| -> (&[VertexId], usize, usize) {
            let b = if in_i.contains(&(v as usize)) { i } else { j };
            let (words, base) = resident(b);
            let lo = offsets[v as usize];
            (words, lo.wrapping_sub(base), offsets[v as usize + 1] - lo)
        };
        let mut pf = ring::Pf::new(self.depth > 1);
        let mut st = (lanes, stats, rng);
        ring::drive_scouted(
            self.depth,
            bucket.len(),
            &mut pf,
            &mut st,
            // Scout: the bucket itself streams; hint the lanes of the
            // walker it names.
            |pf, (lanes, ..), jj| {
                let k = bucket[jj] as usize;
                pf.element(&mut NullProbe, &lanes.walk.w, k, 0);
                pf.element(&mut NullProbe, &lanes.bb.done, k, 0);
                if second_order {
                    pf.element(&mut NullProbe, &lanes.walk.prev, k, 0);
                }
            },
            // Inspect: the lanes are in; hint the offset pairs.  PPR
            // reads its origin's list never — that block need not even
            // be resident — and DeepWalk has no `prev` to read.
            |pf, (lanes, ..), jj| {
                let k = bucket[jj] as usize;
                pf.element(&mut NullProbe, offsets, lanes.walk.w[k] as usize, 0);
                let t = lanes.walk.prev[k];
                if second_order && t != DEAD {
                    pf.element(&mut NullProbe, offsets, t as usize, 0);
                }
            },
            // Fetch: the offsets are in; hint the head lines of the list
            // the draw indexes and of the list the connectivity scan
            // starts down.
            |pf, (lanes, ..), jj| {
                if !pf.active() {
                    return;
                }
                let k = bucket[jj] as usize;
                let (words, lo, d) = list_of(lanes.walk.w[k]);
                pf.span(&mut NullProbe, words, lo, d, 0);
                let t = lanes.walk.prev[k];
                if second_order && t != DEAD {
                    let (words, lo, d) = list_of(t);
                    pf.span(&mut NullProbe, words, lo, d, 0);
                }
            },
            // Execute: sole RNG consumer, sole state mutator, strict
            // bucket order.
            |(lanes, stats, rng), jj, ()| {
                let kw = bucket[jj];
                let k = kw as usize;
                let (mut v, mut t) = (lanes.walk.w[k], lanes.walk.prev[k]);
                let mut done = lanes.bb.done[k] as usize;
                // A walker's blocks are looked up once as it enters the
                // slot and once per step after.
                let mut bv = blocks.of(v);
                let mut bt = if !second_order || t == DEAD {
                    bv
                } else {
                    blocks.of(t)
                };
                loop {
                    let (vwords, vbase) = resident(bv);
                    let lo = offsets[v as usize] - vbase;
                    let d = offsets[v as usize + 1] - offsets[v as usize];
                    let adj = &vwords[lo..lo + d];
                    let next = match kind {
                        Kind::DeepWalk => adj[rng.gen_index(d)],
                        // Restart coin first: a teleport reads no edge at
                        // all (mirrors the in-memory sampler and the PPR
                        // oracle).
                        Kind::Ppr { alpha } => {
                            if rng.next_f64() < alpha {
                                t
                            } else {
                                adj[rng.gen_index(d)]
                            }
                        }
                        // First transition of a node2vec walker:
                        // first-order uniform, matching the oracle's
                        // edge-chain start.
                        Kind::Node2Vec(_) if t == DEAD => adj[rng.gen_index(d)],
                        Kind::Node2Vec(rule) => {
                            let (twords, tbase) = resident(bt);
                            let tlo = offsets[t as usize] - tbase;
                            let td = offsets[t as usize + 1] - offsets[t as usize];
                            let tadj = &twords[tlo..tlo + td];
                            let mut attempts = 0;
                            // Rejection under the shared rule, mirroring
                            // the in-memory sampler; FMDISK1 lists are
                            // unsorted, so a probe is a scan.  The attempt
                            // cap is the termination backstop.
                            loop {
                                let cand = adj[rng.gen_index(d)];
                                attempts += 1;
                                let x = rng.next_f64() * rule.bound;
                                let scan = || {
                                    let (hit, words) = scan_list(tadj, cand);
                                    stats.probes += 1;
                                    stats.scan_words += words as u64;
                                    hit
                                };
                                if attempts >= 64 || rule.keeps(x, cand == t, scan) {
                                    break cand;
                                }
                            }
                        }
                    };
                    if second_order {
                        (t, bt) = (v, bv);
                    }
                    v = next;
                    done += 1;
                    lanes.walk.steps_taken += 1;
                    if let Some(row) = lanes.bb.rows.get_mut(done) {
                        row[k] = next;
                    }
                    if done >= self.steps {
                        lanes.remaining -= 1;
                        break;
                    }
                    bv = blocks.of(next);
                    if bv != i && bv != j {
                        // Crossed out of the pair (the new `prev` was its
                        // `cur`, so that one is in): park.
                        let from = if second_order { bt } else { bv };
                        lanes.bb.buckets[blocks.slot_of(from, bv)].push(kw);
                        lanes.parked_now += 1;
                        stats.walkers_parked += 1;
                        stats.peak_parked = stats.peak_parked.max(lanes.parked_now);
                        break;
                    }
                }
                lanes.walk.w[k] = v;
                lanes.walk.prev[k] = t;
                lanes.bb.done[k] = done as u32;
            },
        );
        pf.issued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_graph::relabel::sort_by_degree;
    use fm_graph::synth;
    use fm_recover::{load_latest, CheckpointSink, CheckpointSpec, FaultPolicy};

    /// The walk under default options, untraced.
    fn run_default(
        disk: &DiskGraph,
        config: &WalkConfig,
        budget: usize,
    ) -> Result<(WalkOutput, OocStats), WalkError> {
        run_ooc_with(
            disk,
            config,
            budget,
            &RunOptions::default(),
            &mut Telemetry::off(),
        )
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("fm_oocore_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn create_open_round_trip() {
        let g = synth::power_law(500, 2.0, 1, 50, 3);
        let path = temp_path("roundtrip.fmdisk");
        let created = DiskGraph::create(&g, &path).unwrap();
        let opened = DiskGraph::open(&path).unwrap();
        assert_eq!(created.vertex_count(), opened.vertex_count());
        assert_eq!(created.edge_count(), opened.edge_count());
        assert_eq!(created.offsets, opened.offsets);
        std::fs::remove_file(path).ok();
    }

    /// Placement runs behind its own prefetches; through this engine's
    /// call, on the offsets index alone, it must still put walker `j` on
    /// the source of the `j`-th edge drawn — at walker counts around the
    /// lag ring's fill and drain as much as at large ones.
    #[test]
    fn init_positions_place_each_walker_on_its_drawn_edge() {
        use fm_rng::{Rng64, Xorshift64Star};
        let g = synth::power_law(900, 2.0, 1, 120, 11);
        let path = temp_path("placement.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        for walkers in [1, 15, 16, 17, 32, 33, 100_000] {
            let cfg = WalkConfig::deepwalk().walkers(walkers).seed(walkers as u64);
            let mut rng = Xorshift64Star::new(cfg.seed);
            let want: Vec<VertexId> = (0..walkers)
                .map(|_| {
                    let edge = rng.gen_index(disk.edge_count());
                    (disk.offsets.partition_point(|&o| o <= edge) - 1) as VertexId
                })
                .collect();
            assert_eq!(init_positions(&disk, &cfg), want, "{walkers} walkers");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ooc_walk_stays_on_edges() {
        let g = synth::power_law(400, 2.0, 1, 40, 5);
        let path = temp_path("edges.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::deepwalk().walkers(200).steps(6).seed(9);
        let (out, stats) = run_default(&disk, &cfg, 8 << 10).unwrap();
        assert_eq!(stats.steps_taken, 200 * 6);
        for path in out.paths() {
            for hop in path.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ooc_matches_in_memory_distribution() {
        let g = synth::power_law(600, 1.9, 1, 80, 7);
        let path = temp_path("dist.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::deepwalk().walkers(20_000).steps(10).seed(3);
        let (out, _) = run_default(&disk, &cfg, 16 << 10).unwrap();
        let ooc_visits = out.visit_counts(g.vertex_count());

        let engine = crate::FlashMob::new(&g, cfg.clone().record_visits(true)).unwrap();
        let (_, mem_stats) = engine
            .run_with(&RunOptions::default(), &mut Telemetry::off())
            .unwrap();
        let mem_visits = mem_stats.visits_original(engine.relabeling()).unwrap();

        let (ta, tb) = (
            ooc_visits.iter().sum::<u64>() as f64,
            mem_visits.iter().sum::<u64>() as f64,
        );
        let l1: f64 = ooc_visits
            .iter()
            .zip(&mem_visits)
            .map(|(&a, &b)| (a as f64 / ta - b as f64 / tb).abs())
            .sum();
        assert!(l1 < 0.08, "visit distributions diverge: L1 = {l1:.4}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn cold_partitions_are_skipped() {
        // All walkers pinned on the hub: at most 64 of the ~160 leaf
        // blocks host a walker, and the pairs of the rest are never read.
        let g = synth::star(10_000);
        let path = temp_path("skip.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::deepwalk()
            .walkers(64)
            .steps(2)
            .seed(1)
            .init(WalkerInit::Fixed(vec![0]));
        let (_, stats) = run_default(&disk, &cfg, 512).unwrap();
        assert!(
            stats.pairs_skipped > stats.blocks_streamed,
            "read {} skipped {}",
            stats.blocks_streamed,
            stats.pairs_skipped
        );
        // Read volume far below 2 full passes over the file.
        assert!(stats.bytes_read < 2 * disk.edge_count() as u64 * 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ooc_is_deterministic() {
        let g = synth::power_law(300, 2.0, 1, 30, 11);
        let path = temp_path("det.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::deepwalk().walkers(100).steps(5).seed(21);
        let (a, _) = run_default(&disk, &cfg, 8 << 10).unwrap();
        let (b, _) = run_default(&disk, &cfg, 8 << 10).unwrap();
        assert_eq!(a.paths(), b.paths());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn traced_ooc_records_io_spans_and_exact_counters() {
        let g = synth::power_law(400, 2.0, 1, 40, 5);
        let path = temp_path("traced.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::deepwalk().walkers(200).steps(6).seed(9);
        let mut tel = Telemetry::new();
        let (out, stats) =
            run_ooc_with(&disk, &cfg, 8 << 10, &RunOptions::default(), &mut tel).unwrap();
        assert_eq!(tel.partition_steps_total(), stats.steps_taken);
        // One Io span per block load performed, none for skipped pairs.
        assert!(stats.blocks_streamed > 0 && stats.pairs_skipped > 0);
        assert_eq!(tel.stage(Stage::Io).spans, stats.blocks_streamed);
        // Counters include the streamed adjacency bytes.
        let counted: u64 = tel.partition_counters().iter().map(|c| c.edge_bytes).sum();
        assert!(counted >= stats.bytes_read);
        // Tracing must not perturb the chain.
        let (plain, _) = run_default(&disk, &cfg, 8 << 10).unwrap();
        assert_eq!(plain.paths(), out.paths());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn unsupported_algorithms_rejected() {
        let g = synth::cycle(16);
        let path = temp_path("reject.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let mut cfg = WalkConfig::deepwalk().walkers(10).steps(2);
        cfg.algorithm = crate::WalkAlgorithm::Weighted;
        assert!(matches!(
            run_default(&disk, &cfg, 4 << 10),
            Err(WalkError::Config(_))
        ));
        cfg.algorithm = crate::WalkAlgorithm::EarlyExit;
        assert!(matches!(
            run_default(&disk, &cfg, 4 << 10),
            Err(WalkError::Config(_))
        ));
        // No loop here flips an exit coin, so a geometric stop is refused
        // rather than walked as `max_steps` fixed steps.
        for algorithm in [
            crate::WalkAlgorithm::DeepWalk,
            crate::WalkAlgorithm::Node2Vec { p: 0.5, q: 2.0 },
            crate::WalkAlgorithm::Ppr { alpha: 0.2 },
        ] {
            cfg.algorithm = algorithm;
            cfg.stop = StopRule::Geometric {
                exit_prob: 0.5,
                max_steps: 2,
            };
            assert!(
                matches!(run_default(&disk, &cfg, 4 << 10), Err(WalkError::Config(_))),
                "{algorithm:?}"
            );
            cfg.stop = StopRule::FixedSteps(2);
            assert!(run_default(&disk, &cfg, 4 << 10).is_ok(), "{algorithm:?}");
        }
        // The blocks schedule the walk: a partition plan is refused.
        for strategy in [
            crate::PlanStrategy::UniformPs,
            crate::PlanStrategy::UniformDs,
            crate::PlanStrategy::ManualHeuristic,
        ] {
            let cfg = cfg.clone().strategy(strategy);
            assert!(
                matches!(run_default(&disk, &cfg, 4 << 10), Err(WalkError::Config(_))),
                "{strategy:?}"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn biblock_node2vec_stays_on_edges() {
        let g = synth::power_law(400, 2.0, 1, 40, 5);
        let path = temp_path("bb_edges.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::node2vec(0.25, 4.0).walkers(150).steps(6).seed(9);
        let (out, stats) = run_default(&disk, &cfg, 4 << 10).unwrap();
        assert_eq!(stats.steps_taken, 150 * 6);
        assert!(stats.blocks_streamed > 0);
        assert!(stats.pairs_scheduled > 0);
        assert!(stats.peak_parked >= 150);
        let rows = out.paths();
        assert_eq!(rows.len(), 150);
        for p in rows {
            assert_eq!(p.len(), 7);
            for hop in p.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn biblock_is_deterministic_across_budgets_only_within_budget() {
        // Same budget → bit-identical; the chain is a deterministic
        // function of (config, budget), which the config tag captures.
        let g = synth::power_law(300, 2.0, 1, 30, 11);
        let path = temp_path("bb_det.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::node2vec(0.5, 2.0).walkers(80).steps(5).seed(21);
        let (a, _) = run_default(&disk, &cfg, 4 << 10).unwrap();
        let (b, _) = run_default(&disk, &cfg, 4 << 10).unwrap();
        assert_eq!(a.paths(), b.paths());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn biblock_ppr_hops_are_edges_or_origin() {
        let g = synth::power_law(300, 2.0, 2, 30, 17);
        let path = temp_path("bb_ppr.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let mut cfg = WalkConfig::deepwalk().walkers(120).steps(8).seed(4);
        cfg.algorithm = crate::WalkAlgorithm::Ppr { alpha: 0.2 };
        let (out, stats) = run_default(&disk, &cfg, 4 << 10).unwrap();
        assert_eq!(stats.steps_taken, 120 * 8);
        let mut teleports = 0u64;
        for p in out.paths() {
            let origin = p[0];
            for hop in p.windows(2) {
                let edge = g.neighbors(hop[0]).contains(&hop[1]);
                assert!(edge || hop[1] == origin, "hop neither edge nor restart");
                if !edge {
                    teleports += 1;
                }
            }
        }
        assert!(teleports > 0, "alpha=0.2 over 960 steps must teleport");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn biblock_tiny_budget_falls_back_to_singleton_blocks() {
        // A budget below any vertex's adjacency degrades to one-vertex
        // blocks instead of overrunning or erroring.
        let g = synth::power_law(120, 2.0, 1, 30, 3);
        let path = temp_path("bb_tiny.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::node2vec(0.25, 4.0).walkers(40).steps(4).seed(2);
        let (tiny, stats) = run_default(&disk, &cfg, 2).unwrap();
        assert_eq!(stats.steps_taken, 40 * 4);
        for p in tiny.paths() {
            for hop in p.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn open_rejects_corruption_with_typed_errors() {
        let g = synth::power_law(200, 2.0, 1, 20, 9);
        let path = temp_path("corrupt.fmdisk");
        DiskGraph::create(&g, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bytes = pristine.clone();
        bytes[..8].copy_from_slice(b"NOTADISK");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DiskGraph::open(&path),
            Err(GraphError::Format(_))
        ));

        // Short targets array (torn write / truncation).
        std::fs::write(&path, &pristine[..pristine.len() - 5]).unwrap();
        assert!(matches!(
            DiskGraph::open(&path),
            Err(GraphError::Format(_))
        ));

        // Sub-header file.
        std::fs::write(&path, &pristine[..10]).unwrap();
        assert!(matches!(
            DiskGraph::open(&path),
            Err(GraphError::Format(_))
        ));

        // Vertex count claiming more than the address space: must fail
        // cleanly, not attempt a wild allocation.
        let mut bytes = pristine.clone();
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DiskGraph::open(&path),
            Err(GraphError::Format(_))
        ));

        // Non-monotone offsets index.
        let mut bytes = pristine.clone();
        bytes[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DiskGraph::open(&path),
            Err(GraphError::Format(_))
        ));

        // The pristine bytes still open.
        std::fs::write(&path, &pristine).unwrap();
        assert!(DiskGraph::open(&path).is_ok());
        std::fs::remove_file(path).ok();
    }

    /// FMDISK1 as `create` wrote it one word at a time from the sorted
    /// CSR, before it streamed the rows: the reference encoding.
    fn per_word_encoding(sorted: &Csr) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(sorted.vertex_count() as u64).to_le_bytes());
        bytes.extend_from_slice(&(sorted.edge_count() as u64).to_le_bytes());
        for &o in sorted.offsets() {
            bytes.extend_from_slice(&(o as u64).to_le_bytes());
        }
        for &t in sorted.targets() {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
        bytes
    }

    /// Records the writes a writer is handed, as (file offset, length).
    #[derive(Default)]
    struct Writes {
        bytes: Vec<u8>,
        calls: Vec<(usize, usize)>,
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls.push((self.bytes.len(), buf.len()));
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn fmdisk_is_the_per_word_encoding_in_few_writes() {
        // A power-law graph plus a tail of zero-degree vertices: its index
        // ends inside the first stage and its targets span three.
        const STAGE: usize = STAGE_WORDS * 4;
        let body = synth::power_law(200_000, 2.0, 8, 2_000, 5);
        let tail = 1_000;
        let mut offsets = body.offsets().to_vec();
        offsets.extend(std::iter::repeat_n(body.edge_count(), tail));
        let g = Csr::from_parts(offsets, body.targets().to_vec(), None).unwrap();
        drop(body);
        let path = temp_path("bytes.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let (sorted, _) = sort_by_degree(&g);
        assert!((0..tail).all(|i| sorted.degree((g.vertex_count() - 1 - i) as VertexId) == 0));
        let head = 24 + 8 * (sorted.vertex_count() + 1);
        assert!(head < STAGE && (head + 4 * sorted.edge_count()) > 3 * STAGE);
        let want = per_word_encoding(&sorted);
        assert_eq!(std::fs::read(&path).unwrap(), want);
        assert_eq!(disk.targets_base() as usize, head);
        assert_eq!(disk.offsets, sorted.offsets());

        let mut w = Writes::default();
        disk.write_fmdisk(&mut w, &g).unwrap();
        assert_eq!(w.bytes, want);
        // Every write but the last is one full stage at a multiple of
        // its length; the last is the rest.
        let (&(last_at, last), full) = w.calls.split_last().unwrap();
        assert_eq!(full.len(), want.len().div_ceil(STAGE) - 1);
        for &(at, len) in full {
            assert_eq!((at % STAGE, len), (0, STAGE), "write at {at}");
        }
        assert_eq!((last_at % STAGE, last_at + last), (0, want.len()));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mapped_load_contract() {
        use fm_graph::mem::MAP_ALIGN;
        let g = synth::power_law(20_000, 2.0, 2, 200, 19);
        let path = temp_path("map_contract.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let (sorted, _) = sort_by_degree(&g);
        let n = disk.vertex_count() as VertexId;
        let mid = n / 2;
        let want = |a: VertexId, b: VertexId| {
            &sorted.targets()[disk.offsets[a as usize]..disk.offsets[b as usize]]
        };
        let byte_at = |v: VertexId| disk.targets_base() + 4 * disk.offsets[v as usize] as u64;
        // A range whose first word sits inside a page, past the first
        // 64 KiB, so that the mapping starts below it.
        let in_page = (1..n)
            .find(|&v| byte_at(v) > MAP_ALIGN && byte_at(v) % 4096 != 0)
            .unwrap();
        assert!(
            byte_at(n) > 2 * MAP_ALIGN,
            "the targets span several map alignments"
        );
        let ranges = [
            (0, n),
            (0, mid),
            (mid, n),
            (n - 1, n),
            (in_page, n),
            (in_page, in_page + 3),
            (mid, mid),
        ];

        // Every range maps to exactly the sorted CSR's words.
        let file = File::open(&path).unwrap();
        for &(a, b) in &ranges {
            let map = disk.map_block(&file, &mut None, a, b).unwrap();
            assert_eq!(map.words(), want(a, b), "range [{a}, {b})");
        }

        // Transient faults are retried, to the same words.
        let policy = FaultPolicy::transient(5, 0.3);
        let mut fault = Some(FaultState::new(policy));
        let mut retries = 0u64;
        for _ in 0..4 {
            for &(a, b) in &ranges {
                let map = with_retries(
                    &RetryPolicy::immediate(64),
                    &mut retries,
                    |e: &GraphError| e.io_source().is_some_and(transient_io),
                    || disk.map_block(&file, &mut fault, a, b),
                )
                .unwrap();
                assert_eq!(map.words(), want(a, b), "range [{a}, {b}) under faults");
            }
        }
        assert_eq!(fault.map(|f| f.counts.transient), Some(retries));
        assert!(retries > 0);

        // A file truncated under the open index is a typed, permanent
        // error on the first attempt, never a SIGBUS, a panic or a retry
        // loop: cut inside the last page, and cut by whole pages, with
        // a mapping populated before the cut still alive (and unread).
        let held = disk.map_block(&file, &mut None, mid, n).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let shrink = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        for cut in [len - 6, byte_at(mid) + 4] {
            shrink.set_len(cut).unwrap();
            let mut attempts = 0;
            let mut retries = 0;
            let err = with_retries(
                &RetryPolicy::immediate(8),
                &mut retries,
                |e: &GraphError| e.io_source().is_some_and(transient_io),
                || {
                    attempts += 1;
                    disk.map_block(&file, &mut None, mid, n)
                },
            )
            .err()
            .unwrap();
            assert!(
                matches!(&err, GraphError::IoAt { source, .. }
                    if source.kind() == std::io::ErrorKind::UnexpectedEof),
                "{err:?}"
            );
            assert!(!err.io_source().is_some_and(transient_io));
            assert_eq!((attempts, retries), (1, 0), "cut at {cut}");
        }
        drop(held);
        std::fs::remove_file(path).ok();
    }

    /// A complete graph whose `blocks * per_block` equal-degree vertices
    /// the bi-block cut splits into exactly `blocks` blocks under the
    /// returned budget.
    fn complete_in_blocks(blocks: usize, per_block: usize, name: &str) -> (DiskGraph, usize) {
        let n = blocks * per_block;
        let disk = DiskGraph::create(&synth::complete(n), temp_path(name)).unwrap();
        (disk, 2 * per_block * (n - 1) * 4)
    }

    #[test]
    fn biblock_loads_only_what_is_not_resident() {
        let spans = |tel: &Telemetry, stage: Stage, epoch: u32| {
            let of_epoch = |e: &&fm_telemetry::SpanEvent| e.stage == stage && e.step == epoch;
            tel.events().iter().filter(of_epoch).count()
        };
        for (blocks, per_block) in [(4usize, 16usize), (6, 8)] {
            let (disk, budget) = complete_in_blocks(blocks, per_block, "bb_loads.fmdisk");
            let cfg = WalkConfig::node2vec(0.5, 2.0).walkers(3000).steps(24).seed(17);
            let mut tel = Telemetry::new();
            let (_, stats) = run_ooc_with(&disk, &cfg, budget, &RunOptions::default(), &mut tel).unwrap();
            assert_eq!(tel.dropped(), 0);
            assert_eq!(tel.stage(Stage::Io).spans, stats.blocks_streamed);

            // Sweep 0 schedules every pair, one Sample span each (fresh
            // walkers wait on the diagonal and spill forward): row `i`
            // loads its own block once and one ancillary block per
            // off-diagonal pair — except block B-1, still held from
            // `(B-3, B-1)` at `(B-2, B-1)` and from there, swapped, at
            // `(B-1, B-1)`.  Later sweeps schedule the off-diagonal pairs
            // only (a walker whose `prev` and `cur` share a block never
            // parks) and save the same one load.  The parent loaded B * B
            // and B * (B - 1).
            let off_diagonal = blocks * (blocks - 1) / 2;
            for (epoch, pairs, loads) in [
                (0, blocks + off_diagonal, blocks + off_diagonal - 2),
                (1, off_diagonal, blocks - 1 + off_diagonal - 1),
            ] {
                assert_eq!(spans(&tel, Stage::Sample, epoch), pairs, "sweep {epoch}");
                assert_eq!(spans(&tel, Stage::Io, epoch), loads, "{blocks} blocks, sweep {epoch}");
            }

            // On any run: one load per scheduled pair for its ancillary
            // block plus one per row per sweep for its current block.
            let sweeps = tel.events().iter().map(|e| e.step + 1).max().unwrap_or(0);
            assert!(
                stats.blocks_streamed <= stats.pairs_scheduled + blocks as u64 * sweeps as u64,
                "{} loads, {} pairs, {sweeps} sweeps",
                stats.blocks_streamed,
                stats.pairs_scheduled
            );

            // Exact counts repeat run to run.
            let (_, again) = run_default(&disk, &cfg, budget).unwrap();
            assert_eq!(
                (again.blocks_streamed, again.bytes_read, again.pairs_scheduled),
                (stats.blocks_streamed, stats.bytes_read, stats.pairs_scheduled)
            );
            std::fs::remove_file(&disk.path).ok();
        }
    }

    #[test]
    fn full_budget_first_order_reads_its_partition_once() {
        let g = synth::power_law(400, 2.0, 1, 40, 5);
        let path = temp_path("once.fmdisk");
        let disk = DiskGraph::create(&g, &path).unwrap();
        let cfg = WalkConfig::deepwalk().walkers(200).steps(6).seed(9);
        let whole = disk.edge_count() * 4;
        // Blocks are cut at half the budget: twice the file is one block.
        let (out, stats) = run_default(&disk, &cfg, 2 * whole).unwrap();
        assert_eq!(stats.blocks_streamed, 1, "one block, six steps");
        assert_eq!((stats.pairs_scheduled, stats.pairs_skipped), (1, 0));
        assert_eq!(stats.bytes_read, whole as u64);
        assert_eq!(stats.steps_taken, 200 * 6);
        for path in out.paths() {
            for hop in path.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn biblock_resume_mid_row_is_bit_exact() {
        // Four blocks: a sweep is slots 0..10 in rows of 4, 3, 2 and 1.
        // The straight run reaches a mid-row slot with the row's block
        // (and often the ancillary one) already held; a resume arrives
        // there with both buffers empty.  Same paths either way.
        let (disk, budget) = complete_in_blocks(4, 12, "bb_midrow.fmdisk");
        let ckdir = temp_path("bb_midrow_dir");
        for algorithm in [
            crate::WalkAlgorithm::Node2Vec { p: 0.25, q: 4.0 },
            crate::WalkAlgorithm::Ppr { alpha: 0.2 },
            crate::WalkAlgorithm::DeepWalk,
        ] {
            let mut base = WalkConfig::deepwalk().walkers(300).steps(12).seed(13);
            base.algorithm = algorithm;
            let (reference, _) = run_default(&disk, &base, budget).unwrap();
            // Every ring depth halts and resumes on the same paths.
            for (depth, slots_done) in [
                (1, 2u64),
                (1, 6),
                (1, 8),
                (1, 12),
                (2, 6),
                (3, 8),
                (8, 6),
                (16, 2),
            ] {
                let cfg = base.clone().ring_depth(depth);
                std::fs::remove_dir_all(&ckdir).ok();
                let halt = RunOptions::default().checkpoint(CheckpointSpec {
                    halt_after: Some(slots_done),
                    ..CheckpointSpec::new(&ckdir, 1)
                });
                let mut tel = Telemetry::off();
                let err = run_ooc_with(&disk, &cfg, budget, &halt, &mut tel).unwrap_err();
                assert!(
                    matches!(err, WalkError::Halted { generation } if generation == slots_done)
                );
                let (_, snap) = load_latest(&ckdir).unwrap();
                assert_eq!(snap.biblock.map(|b| b.cursor), Some(slots_done % 10));

                let resume = RunOptions::default().resume_from(&ckdir);
                let (resumed, _) = run_ooc_with(&disk, &cfg, budget, &resume, &mut tel).unwrap();
                assert_eq!(
                    reference.paths(),
                    resumed.paths(),
                    "{algorithm:?} resumed at slot {slots_done}, depth {depth}"
                );
            }
        }
        std::fs::remove_dir_all(&ckdir).ok();
        std::fs::remove_file(&disk.path).ok();
    }

    #[test]
    fn biblock_checkpoint_resume_is_bit_exact() {
        let g = synth::power_law(250, 2.0, 1, 25, 7);
        let gpath = temp_path("bb_ck.fmdisk");
        let disk = DiskGraph::create(&g, &gpath).unwrap();
        let cfg = WalkConfig::node2vec(0.25, 4.0).walkers(60).steps(5).seed(13);
        let budget = 2 << 10;

        let (reference, _) = run_default(&disk, &cfg, budget).unwrap();

        let ckdir = temp_path("bb_ck_dir");
        std::fs::remove_dir_all(&ckdir).ok();
        let halt = RunOptions {
            checkpoint: Some(CheckpointSpec {
                halt_after: Some(2),
                ..CheckpointSpec::new(&ckdir, 3)
            }),
            ..RunOptions::default()
        };
        let mut tel = Telemetry::off();
        let err = run_ooc_with(&disk, &cfg, budget, &halt, &mut tel).unwrap_err();
        assert!(matches!(err, WalkError::Halted { generation: 2 }));

        let resume = RunOptions {
            resume_from: Some(ckdir.clone()),
            ..RunOptions::default()
        };
        let (resumed, _) = run_ooc_with(&disk, &cfg, budget, &resume, &mut tel).unwrap();
        assert_eq!(reference.paths(), resumed.paths());

        // Wrong budget → different config tag → typed mismatch.
        let err = run_ooc_with(&disk, &cfg, budget * 2, &resume, &mut tel).unwrap_err();
        assert!(matches!(
            err,
            WalkError::Recover(RecoverError::Mismatch { .. })
        ));
        std::fs::remove_dir_all(&ckdir).ok();
        std::fs::remove_file(gpath).ok();
    }
    /// A bi-block scheduler state, as a BBLK frame holds it.
    #[derive(Debug, Clone, PartialEq)]
    struct ModelState {
        cur: Vec<VertexId>,
        prevv: Vec<VertexId>,
        done: Vec<u32>,
        buckets: Vec<Vec<u32>>,
        paths: Vec<Vec<VertexId>>,
        epoch: u64,
        cursor: u64,
        steps_taken: u64,
    }

    /// What [`model_biblock`] saw: the state after the pair slots asked
    /// for (keyed by slots done) and after the last one, the number of
    /// slots, and the run's exact counts.
    struct ModelRun {
        after_slot: std::collections::BTreeMap<u64, ModelState>,
        slots: u64,
        pairs_scheduled: u64,
        pairs_skipped: u64,
        walkers_parked: u64,
        peak_parked: u64,
        /// Connectivity scans of the loop this PR replaced: one per draw
        /// at or above the smallest weight.
        scans: u64,
        /// The scans among them whose answer changed the decision.
        deciding_scans: u64,
        /// The list words those deciding scans read, front to back up to
        /// the candidate or to the end.
        deciding_scan_words: u64,
    }

    /// The bi-block walk as it ran before the ring, kept as the model:
    /// one walker at a time, a `Vec` of path per walker, the candidate's
    /// weight looked up and then compared.  Reads the in-memory sorted
    /// CSR, which is what the block buffers hold.  DeepWalk walks it as
    /// PPR does without the coin: one list a step, on the diagonal.
    fn model_biblock(
        sorted: &Csr,
        config: &WalkConfig,
        budget: usize,
        keep: impl Fn(u64) -> bool,
    ) -> ModelRun {
        let offsets = sorted.offsets();
        let n = sorted.vertex_count();
        let (steps, walkers) = (config.max_steps(), config.walkers);
        let is_ppr = matches!(config.algorithm, crate::WalkAlgorithm::Ppr { .. });
        let second_order = config.algorithm.is_second_order();
        let (p_ret, q_inout, bound, bound_min, alpha) = match config.algorithm {
            crate::WalkAlgorithm::Node2Vec { p, q } => (
                p,
                q,
                config.algorithm.node2vec_rule().bound,
                (1.0 / p).min(1.0).min(1.0 / q),
                0.0,
            ),
            crate::WalkAlgorithm::Ppr { alpha } => (0.0, 0.0, 1.0, 1.0, alpha),
            crate::WalkAlgorithm::DeepWalk => (0.0, 0.0, 1.0, 1.0, 0.0),
            _ => unreachable!(),
        };
        let blocks = Blocks::cut(offsets, budget / 2);
        let (nblocks, n_pairs) = (blocks.len(), blocks.pairs());
        let block_of = |v: VertexId| blocks.of(v);
        let pair_of = |cur: VertexId, prev: VertexId| {
            let bc = block_of(cur);
            if !second_order || prev == DEAD {
                return pair_index(bc, bc, nblocks);
            }
            let bp = block_of(prev);
            pair_index(bp.min(bc), bp.max(bc), nblocks)
        };
        assert!(n > 0 && steps > 0);

        let mut cur = initialize_from_offsets(offsets, &config.init, walkers, config.seed);
        let mut prevv = if is_ppr {
            cur.clone()
        } else {
            vec![DEAD; walkers]
        };
        let mut done = vec![0u32; walkers];
        let mut paths: Vec<Vec<VertexId>> = if config.record_paths {
            cur.iter().map(|&v| vec![v]).collect()
        } else {
            Vec::new()
        };
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_pairs];
        for (k, (&c, &p)) in cur.iter().zip(&prevv).enumerate() {
            buckets[pair_of(c, p)].push(k as u32);
        }
        let mut run = ModelRun {
            after_slot: Default::default(),
            slots: 0,
            pairs_scheduled: 0,
            pairs_skipped: 0,
            walkers_parked: walkers as u64,
            peak_parked: walkers as u64,
            scans: 0,
            deciding_scans: 0,
            deciding_scan_words: 0,
        };
        let (mut remaining, mut parked_now, mut steps_taken) = (walkers, walkers as u64, 0u64);
        let mut epoch = 0usize;
        while remaining > 0 {
            let mut s = 0usize;
            for i in 0..nblocks {
                for j in i..nblocks {
                    let bucket = std::mem::take(&mut buckets[s]);
                    if bucket.is_empty() {
                        run.pairs_skipped += 1;
                    } else {
                        run.pairs_scheduled += 1;
                        parked_now -= bucket.len() as u64;
                    }
                    let mut rng = Xorshift64Star::new(partition_stream_id(config.seed, epoch, s));
                    for &kw in &bucket {
                        let k = kw as usize;
                        loop {
                            let v = cur[k];
                            assert!(block_of(v) == i || block_of(v) == j);
                            let adj = sorted.neighbors(v);
                            let d = adj.len();
                            let next = if is_ppr {
                                if rng.next_f64() < alpha {
                                    prevv[k]
                                } else {
                                    adj[rng.gen_index(d)]
                                }
                            } else if !second_order || prevv[k] == DEAD {
                                // DeepWalk, or node2vec's first step.
                                adj[rng.gen_index(d)]
                            } else {
                                let t = prevv[k];
                                assert!(block_of(t) == i || block_of(t) == j);
                                let tadj = sorted.neighbors(t);
                                let mut attempts = 0;
                                loop {
                                    let cand = adj[rng.gen_index(d)];
                                    attempts += 1;
                                    let x = rng.next_f64() * bound;
                                    if x < bound_min || attempts >= 64 {
                                        break cand;
                                    }
                                    let weight = if cand == t {
                                        1.0 / p_ret
                                    } else {
                                        run.scans += 1;
                                        if (x < 1.0) != (x < 1.0 / q_inout) {
                                            run.deciding_scans += 1;
                                            run.deciding_scan_words += tadj
                                                .iter()
                                                .position(|&w| w == cand)
                                                .map_or(tadj.len(), |at| at + 1)
                                                as u64;
                                        }
                                        if tadj.contains(&cand) {
                                            1.0
                                        } else {
                                            1.0 / q_inout
                                        }
                                    };
                                    if x < weight {
                                        break cand;
                                    }
                                }
                            };
                            if second_order {
                                prevv[k] = v;
                            }
                            cur[k] = next;
                            done[k] += 1;
                            steps_taken += 1;
                            if config.record_paths {
                                paths[k].push(next);
                            }
                            if done[k] as usize >= steps {
                                remaining -= 1;
                                break;
                            }
                            let bc = block_of(cur[k]);
                            let resident = (bc == i || bc == j)
                                && (!second_order || {
                                    let bp = block_of(prevv[k]);
                                    bp == i || bp == j
                                });
                            if !resident {
                                buckets[pair_of(cur[k], prevv[k])].push(kw);
                                parked_now += 1;
                                run.walkers_parked += 1;
                                run.peak_parked = run.peak_parked.max(parked_now);
                                break;
                            }
                        }
                    }
                    s += 1;
                    let (epoch, cursor) = if s == n_pairs {
                        (epoch as u64 + 1, 0)
                    } else {
                        (epoch as u64, s as u64)
                    };
                    run.slots += 1;
                    if remaining == 0 || keep(run.slots) {
                        let state = ModelState {
                            cur: cur.clone(),
                            prevv: prevv.clone(),
                            done: done.clone(),
                            buckets: buckets.clone(),
                            paths: paths.clone(),
                            epoch,
                            cursor,
                            steps_taken,
                        };
                        run.after_slot.insert(run.slots, state);
                    }
                    if remaining == 0 {
                        return run;
                    }
                }
            }
            epoch += 1;
        }
        run
    }

    /// The engine's checkpoint after `slots` pair slots, as a model state.
    fn engine_state_after(
        disk: &DiskGraph,
        cfg: &WalkConfig,
        budget: usize,
        slots: u64,
        ckdir: &Path,
    ) -> ModelState {
        std::fs::remove_dir_all(ckdir).ok();
        let halt = RunOptions::default().checkpoint(CheckpointSpec {
            halt_after: Some(1),
            ..CheckpointSpec::new(ckdir, slots as usize)
        });
        let err = run_ooc_with(disk, cfg, budget, &halt, &mut Telemetry::off()).unwrap_err();
        assert!(
            matches!(err, WalkError::Halted { generation: 1 }),
            "{err:?}"
        );
        let (_, snap) = load_latest(ckdir).unwrap();
        let (walk, bb) = (snap.state.into_owned(), snap.biblock.unwrap().into_owned());
        assert_eq!(walk.iter_next, slots);
        // Walker `k`'s path is column `k` of the rows, down to `done[k]`.
        let path = |(k, &d): (usize, &u32)| bb.rows[..=d as usize].iter().map(|r| r[k]).collect();
        let paths = if bb.rows.is_empty() {
            Vec::new()
        } else {
            bb.done.iter().enumerate().map(path).collect()
        };
        ModelState {
            cur: walk.w,
            prevv: walk.prev,
            done: bb.done,
            buckets: bb.buckets,
            paths,
            epoch: bb.epoch,
            cursor: bb.cursor,
            steps_taken: walk.steps_taken,
        }
    }

    #[test]
    fn biblock_ring_matches_the_walker_at_a_time_model() {
        let g = synth::power_law(150, 2.0, 2, 30, 23);
        let disk = DiskGraph::create(&g, temp_path("bb_model.fmdisk")).unwrap();
        let (sorted, _) = sort_by_degree(&g);
        let ckdir = temp_path("bb_model_dir");
        let file_bytes = disk.edge_count() * 4;
        // A quarter of the file (several blocks), a budget below any
        // list (every vertex a singleton block, hubs included), and room
        // for the whole graph in one block.
        for budget in [file_bytes / 4, 2, file_bytes * 2] {
            for algorithm in [
                crate::WalkAlgorithm::Node2Vec { p: 2.0, q: 0.5 },
                crate::WalkAlgorithm::Ppr { alpha: 0.2 },
                crate::WalkAlgorithm::DeepWalk,
            ] {
                for record_paths in [true, false] {
                    let mut base = WalkConfig::deepwalk().walkers(90).steps(6).seed(29);
                    base.algorithm = algorithm;
                    base.record_paths = record_paths;
                    // Checkpoints to compare: early, in the middle of
                    // the run, and at its last slot.
                    let slots = model_biblock(&sorted, &base, budget, |_| false).slots;
                    let cursors = [1, 2, slots / 2, slots - 1, slots];
                    let model = model_biblock(&sorted, &base, budget, |at| cursors.contains(&at));
                    let last = &model.after_slot[&slots];
                    let what = format!("{algorithm:?}, budget {budget}, paths {record_paths}");
                    let mut loads = None;
                    for depth in [1usize, 2, 3, 8, 16] {
                        let cfg = base.clone().ring_depth(depth);
                        let (out, stats) = run_default(&disk, &cfg, budget).unwrap();
                        // The same walk ...
                        let rows = out.raw_steps();
                        if record_paths {
                            assert_eq!(rows.len(), cfg.max_steps() + 1);
                            for (k, path) in last.paths.iter().enumerate() {
                                let got: Vec<_> = rows.iter().map(|row| row[k]).collect();
                                assert_eq!(&got, path, "{what}, depth {depth}, walker {k}");
                            }
                        } else {
                            assert_eq!(
                                rows,
                                std::slice::from_ref(&last.cur),
                                "{what}, depth {depth}"
                            );
                        }
                        // ... on the same exact counts ...
                        assert_eq!(
                            (
                                stats.steps_taken,
                                stats.pairs_scheduled,
                                stats.pairs_skipped,
                                stats.walkers_parked,
                                stats.peak_parked,
                                stats.probes,
                            ),
                            (
                                last.steps_taken,
                                model.pairs_scheduled,
                                model.pairs_skipped,
                                model.walkers_parked,
                                model.peak_parked,
                                model.deciding_scans,
                            ),
                            "{what}, depth {depth}"
                        );
                        assert_eq!(stats.prefetches == 0, depth == 1, "{what}, depth {depth}");
                        let io = (stats.blocks_streamed, stats.bytes_read);
                        assert_eq!(*loads.get_or_insert(io), io, "{what}, depth {depth}");
                        // ... through the same checkpoints (all of them
                        // at the planner's depth, the ends at the others).
                        for (&at, want) in &model.after_slot {
                            if depth != 8 && at > 2 && at < slots {
                                continue;
                            }
                            assert_eq!(
                                &engine_state_after(&disk, &cfg, budget, at, &ckdir),
                                want,
                                "{what}, depth {depth}, after slot {at}"
                            );
                        }
                    }
                    if algorithm.is_second_order() {
                        // Fewer scans than the loop that scanned on every
                        // draw above the smallest weight.
                        assert!(model.deciding_scans < model.scans, "{what}");
                    }
                }
            }
        }
        std::fs::remove_dir_all(&ckdir).ok();
        std::fs::remove_file(&disk.path).ok();
    }

    #[test]
    fn biblock_rows_gather_to_the_model_paths_at_every_slot() {
        // Row-major recording against the per-walker vectors it
        // replaced, at every slot cursor of a run: the BBLK frame's
        // walker-major paths are the model's, and a run resumed from
        // each of them (paths scattered back into rows) ends the same.
        let (disk, budget) = complete_in_blocks(3, 6, "bb_gather.fmdisk");
        let (sorted, _) = sort_by_degree(&synth::complete(18));
        let ckdir = temp_path("bb_gather_dir");
        let cfg = WalkConfig::node2vec(0.25, 4.0)
            .walkers(40)
            .steps(5)
            .seed(13)
            .ring_depth(8);
        let model = model_biblock(&sorted, &cfg, budget, |_| true);
        assert_eq!(model.after_slot.len() as u64, model.slots);
        let (reference, _) = run_default(&disk, &cfg, budget).unwrap();
        for (&at, want) in &model.after_slot {
            let got = engine_state_after(&disk, &cfg, budget, at, &ckdir);
            assert_eq!(&got, want, "after slot {at}");
            let resume = RunOptions::default().resume_from(&ckdir);
            let (resumed, _) =
                run_ooc_with(&disk, &cfg, budget, &resume, &mut Telemetry::off()).unwrap();
            assert_eq!(
                resumed.paths(),
                reference.paths(),
                "resumed after slot {at}"
            );
        }
        std::fs::remove_dir_all(&ckdir).ok();
        std::fs::remove_file(&disk.path).ok();
    }

    #[test]
    fn faulted_biblock_loads_keep_their_roll_sequence() {
        // One transient roll per load attempt, drawn in load order: the
        // retries and paths below were recorded when a load took its roll
        // from a byte-stream fault wrapper, and a drift in the roll
        // sequence moves the retry count.  Faults never move the paths.
        let g = synth::power_law(2000, 2.0, 2, 64, 11);
        let disk = DiskGraph::create(&g, temp_path("bb_fault_pin.fmdisk")).unwrap();
        let budget = disk.edge_count();
        let cfg = WalkConfig::node2vec(2.0, 0.5).walkers(1000).steps(12).seed(5);
        let faulted = RunOptions::default().fault(FaultPolicy::transient(7, 0.3));
        let (out, stats) =
            run_ooc_with(&disk, &cfg, budget, &faulted, &mut Telemetry::off()).unwrap();
        let (clean, clean_stats) = run_default(&disk, &cfg, budget).unwrap();
        assert_eq!(out.paths(), clean.paths());
        assert_eq!(clean_stats.io_retries, 0);
        let mut fp = Fingerprint::new();
        for v in out.paths().into_iter().flatten() {
            fp.fold_u64(u64::from(v));
        }
        assert_eq!(
            (stats.io_retries, stats.blocks_streamed, fp.value()),
            (107, 291, 0x5cba_6721_05e8_ab7f)
        );
        std::fs::remove_file(&disk.path).ok();
    }

    #[test]
    fn biblock_snapshot_frame_is_pinned() {
        // The generation-1 snapshot of a fixed tiny run, byte for byte
        // what the commit before the ring wrote (node2vec and PPR FNVs
        // recorded there; DeepWalk's on the commit that moved it onto
        // this loop): a snapshot written by the old loop resumes on this
        // one.
        for (name, algorithm, fnv, len) in [
            (
                "n2v",
                crate::WalkAlgorithm::Node2Vec { p: 0.25, q: 4.0 },
                0x9fc2_18ba_cc14_b800u64,
                1536,
            ),
            (
                "ppr",
                crate::WalkAlgorithm::Ppr { alpha: 0.2 },
                0x7fae_c026_6c0b_a27c,
                1492,
            ),
            (
                "dw",
                crate::WalkAlgorithm::DeepWalk,
                0xb858_8c49_6468_586e,
                1500,
            ),
        ] {
            let (disk, budget) = complete_in_blocks(3, 6, &format!("bb_pin_{name}.fmdisk"));
            let ckdir = temp_path(&format!("bb_pin_{name}_dir"));
            std::fs::remove_dir_all(&ckdir).ok();
            let mut cfg = WalkConfig::deepwalk().walkers(40).steps(5).seed(13);
            cfg.algorithm = algorithm;
            let halt = RunOptions::default().checkpoint(CheckpointSpec {
                halt_after: Some(1),
                ..CheckpointSpec::new(&ckdir, 2)
            });
            let err = run_ooc_with(&disk, &cfg, budget, &halt, &mut Telemetry::off()).unwrap_err();
            assert!(matches!(err, WalkError::Halted { generation: 1 }));
            let bytes = std::fs::read(ckdir.join(CheckpointSink::snapshot_name(1))).unwrap();
            assert_eq!(
                (fm_recover::fnv64(&bytes), bytes.len()),
                (fnv, len),
                "{name}"
            );
            std::fs::remove_dir_all(&ckdir).ok();
            std::fs::remove_file(&disk.path).ok();
        }
    }

    #[test]
    fn biblock_probes_only_when_the_answer_decides() {
        let g = synth::power_law(300, 2.0, 2, 40, 31);
        let disk = DiskGraph::create(&g, temp_path("bb_probes.fmdisk")).unwrap();
        let (sorted, _) = sort_by_degree(&g);
        let budget = disk.edge_count();
        for (p, q) in [(2.0, 0.5), (0.25, 4.0), (0.5, 1.0), (1.0, 1.0)] {
            let cfg = WalkConfig::node2vec(p, q).walkers(200).steps(8).seed(7);
            let model = model_biblock(&sorted, &cfg, budget, |_| false);
            let (_, stats) = run_default(&disk, &cfg, budget).unwrap();
            assert_eq!(stats.probes, model.deciding_scans, "p {p} q {q}");
            assert_eq!(stats.scan_words, model.deciding_scan_words, "p {p} q {q}");
            // q = 1: adjacent or not, the weight is 1.
            assert_eq!(stats.probes == 0, q == 1.0, "p {p} q {q}");
            assert_eq!(stats.scan_words == 0, q == 1.0, "p {p} q {q}");
            assert!(stats.probes <= model.scans);
            // A scan reads at least the one word it matches or rejects.
            assert!(stats.scan_words >= stats.probes, "p {p} q {q}");
        }
        // PPR has no second-order bias to probe for.
        let mut cfg = WalkConfig::deepwalk().walkers(200).steps(8).seed(7);
        cfg.algorithm = crate::WalkAlgorithm::Ppr { alpha: 0.2 };
        let (_, ppr) = run_default(&disk, &cfg, budget).unwrap();
        assert_eq!((ppr.probes, ppr.scan_words), (0, 0));
        std::fs::remove_file(&disk.path).ok();
    }

    #[test]
    fn traced_biblock_attributes_ring_hints_to_blocks() {
        let (disk, budget) = complete_in_blocks(4, 16, "bb_ringtel.fmdisk");
        let cfg = WalkConfig::node2vec(0.5, 2.0).walkers(500).steps(6).seed(3);
        for depth in [1usize, 8] {
            let mut tel = Telemetry::new();
            let (_, stats) =
                run_ooc_with(
                    &disk,
                    &cfg.clone().ring_depth(depth),
                    budget,
                    &RunOptions::default(),
                    &mut tel,
                ).unwrap();
            let hinted: u64 = tel
                .partition_counters()
                .iter()
                .map(|c| c.prefetch_issued)
                .sum();
            assert_eq!(hinted, stats.prefetches);
            assert_eq!(stats.prefetches > 0, depth > 1);
        }
        // Left to the cost model, a pair this small is cache-resident
        // and the ring stays off.
        assert_eq!(run_default(&disk, &cfg, budget).unwrap().1.prefetches, 0);
        std::fs::remove_file(&disk.path).ok();
    }

    #[test]
    fn biblock_rejects_walker_counts_beyond_its_bucket_ids() {
        if usize::BITS <= 32 {
            return;
        }
        let disk = DiskGraph::create(&synth::cycle(16), temp_path("bb_wide.fmdisk")).unwrap();
        let cfg = WalkConfig::node2vec(1.0, 1.0)
            .walkers(u32::MAX as usize + 1)
            .steps(2);
        // Refused at entry, before a lane is allocated.
        assert!(matches!(
            run_default(&disk, &cfg, 4 << 10),
            Err(WalkError::Config(_))
        ));
        std::fs::remove_file(&disk.path).ok();
    }
    /// The tag the partition-streaming loop DeepWalk ran on before this
    /// one folded for [`pinned_tag_config`] at an 8 KiB budget.
    const OLD_FIRST_ORDER_TAG: u64 = 0x97a1_1302_f73f_91d9;

    fn pinned_tag_config() -> WalkConfig {
        WalkConfig::deepwalk()
            .walkers(120)
            .steps(6)
            .seed(7)
            .init(WalkerInit::Fixed(vec![3, 1, 4, 1, 5]))
    }

    #[test]
    fn config_tags_are_pinned() {
        // node2vec's was recorded before `fold_init` moved next to
        // `WalkerInit`, DeepWalk's when it joined this loop: the tags of
        // snapshots already on disk must not move.
        let cfg = pinned_tag_config();
        assert_eq!(biblock_config_tag(&cfg, 8 << 10), 0xdaa9_9d4b_4f38_1c5f);
        assert_ne!(biblock_config_tag(&cfg, 8 << 10), OLD_FIRST_ORDER_TAG);
        let mut n2v = cfg;
        n2v.algorithm = crate::WalkAlgorithm::Node2Vec { p: 0.5, q: 2.0 };
        assert_eq!(biblock_config_tag(&n2v, 4 << 10), 0x42fd_9401_df02_e5bc);
    }

    #[test]
    fn old_first_order_checkpoints_are_refused() {
        // What the partition-streaming loop wrote: its own tag, walker
        // positions at an iteration boundary, no BBLK frame.  This loop
        // walks a different sequence, so it must refuse the snapshot —
        // typed, as the CLI's exit 4 — rather than resume from it.
        let disk = DiskGraph::create(&synth::cycle(16), temp_path("old_dw.fmdisk")).unwrap();
        let ckdir = temp_path("old_dw_dir");
        std::fs::remove_dir_all(&ckdir).ok();
        let cfg = pinned_tag_config();
        let w = init_positions(&disk, &cfg);
        let old = WalkSnapshot {
            header: RunHeader {
                seed: cfg.seed,
                walkers: 120,
                steps_total: 6,
                config_tag: OLD_FIRST_ORDER_TAG,
                graph_tag: checkpoint::graph_tag(
                    disk.vertex_count(),
                    disk.edge_count(),
                    &disk.offsets,
                ),
            },
            state: Cow::Owned(WalkState {
                iter_next: 2,
                steps_taken: 240,
                per_partition_steps: vec![0],
                rows: vec![w.clone(); 3],
                w,
                ..WalkState::default()
            }),
            ..WalkSnapshot::default()
        };
        let mut sink = CheckpointSink::new(&ckdir, None);
        sink.save(1, &old.encode()).unwrap();
        // The budget the old loop's tag was taken at.
        let resume = RunOptions::default().resume_from(&ckdir);
        let err = run_ooc_with(&disk, &cfg, 8 << 10, &resume, &mut Telemetry::off()).unwrap_err();
        assert!(
            matches!(err, WalkError::Recover(RecoverError::Mismatch { .. })),
            "{err:?}"
        );
        std::fs::remove_dir_all(&ckdir).ok();
        std::fs::remove_file(&disk.path).ok();
    }
}
