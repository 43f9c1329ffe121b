//! The latency-hiding walker ring (software pipelining for sample tasks).
//!
//! Within a partition whose working set exceeds the LLC, direct
//! sampling and the node2vec connectivity probe still stall on DRAM:
//! each walker performs one or two *independent* random loads, and the
//! core sits idle for the full memory latency because the next walker's
//! addresses are not computed yet.  ThunderRW's step-interleaving
//! observation applies directly — the addresses of walker `j + k` are
//! known *now* (they depend only on the shuffled walker arrays, never on
//! RNG draws), so we can issue software prefetches for them while walker
//! `j` executes, overlapping `G` memory accesses instead of serializing
//! them.
//!
//! [`drive`] runs a three-stage pipeline over one task's walkers
//! ([`drive_scouted`] puts a fourth, hint-only stage in front where the
//! addresses sit one load deeper: out-of-core stepping, and a PS
//! consume, whose cursor names the buffer line that names the row):
//!
//! ```text
//!   walker index:   j ......... j+G/2 ........ j+G
//!                   │            │              │
//!                   ▼            ▼              ▼
//!                execute       fetch         inspect
//!              (RNG draws)  (read offsets,  (prefetch CSR
//!               demand      prefetch edge    offset pair /
//!               loads)      range, bloom     PS cursor)
//!                           lines, cum-
//!                           weight slice)
//! ```
//!
//! `inspect` touches nothing the program needs yet — it only *hints* the
//! lines holding walker `j+G`'s offset pair (or PS cursor).  By the time
//! `fetch` runs for that walker, `G/2` iterations later, the offsets are
//! cached; `fetch` reads them and hints the dependent lines (edge range,
//! cumulative-weight slice, bloom probe words).  Another `G/2`
//! iterations later `execute` finds everything resident.
//!
//! # The RNG-order invariant
//!
//! Bit-exactness with the one-walker-at-a-time loop is mandatory (the
//! conformance lattice pins golden digests).  The pipeline guarantees it
//! structurally: **only the `execute` stage may consume RNG draws or
//! mutate walker state, and `execute(j)` runs in strict walker order
//! `j = 0, 1, 2, …`** — identical to the legacy loop.  `inspect` and
//! `fetch` compute addresses exclusively from immutable task inputs
//! (`scur`, `sprev`, CSR offsets), so reordering them ahead of `execute`
//! cannot change a single draw.  Any depth therefore produces the same
//! walk; depth only changes how far ahead the hints run.
//!
//! # What the ring is not for
//!
//! The planner turns the ring off (depth 1) for partitions whose working
//! set fits in cache (`cost::AnalyticCostModel::ring_depth`).  That is
//! not because such a partition's reads hit: *fits* is not *resident*.
//! A task's partition was last touched a whole sweep ago, and every
//! other partition, the PS buffers and a shuffle have been through the
//! cache since, so the first touch of each line in each iteration comes
//! from L3 or DRAM — and at the densities the paper runs at (|V|/2
//! walkers over the YH analog's 27.7 M edges is 0.87 walkers per
//! 64-byte line of the edge array per iteration) two thirds of all
//! walker reads *are* a line's first touch.  The ring is the weaker
//! tool against those misses: it runs at most [`MAX_RING_DEPTH`]
//! walkers ahead inside a task that is cold from its first walker to
//! its last, where the partition stream ([`super::hint_partition`],
//! [`Pf::stream`]) brings the whole working set in sequentially, one
//! task ahead.  Forced to 16 the ring recovers about half of what the
//! stream does, and the two together are slower than the stream alone
//! (EXPERIMENTS.md, PR 21 ledger).  So depth 1 stays the plan for
//! cache-sized partitions, and the ring keeps the case it was built
//! for: working sets no task-ahead stream could hold.  The node2vec
//! stage is one: its proposal and resolve rounds each run over every
//! live walker of a worker's partition range, and its probes reach the
//! whole graph, so its depth is priced on the probe chain's working set
//! — bloom filter plus CSR — not on a partition's.

use fm_memsim::Probe;

/// Hard ceiling on the ring depth (slots are stack-allocated).
pub const MAX_RING_DEPTH: usize = 16;

/// Depth the planner assigns to partitions that exceed the LLC.
///
/// Eight in-flight walkers cover the common case of ~80-100 ns DRAM
/// latency over ~10-15 ns of per-walker execute work; the `fig_prefetch`
/// sweep measures the full {1, 2, 4, 8, 16} range.
pub const DEFAULT_RING_DEPTH: usize = 8;

/// Cache-line granularity assumed when spanning a range of elements.
const LINE_BYTES: usize = 64;

/// At most this many lines are hinted for one edge range; beyond that
/// the prefetches would evict each other before `execute` arrives.
const MAX_SPAN_LINES: usize = 4;

/// The prefetch hint itself lives in `fm-graph` (the filter build uses
/// it too, and `flashmob` depends on `fm-graph`, not the reverse).
pub use fm_graph::prefetch::prefetch_read;

/// Prefetch issuer for one sample task.
///
/// Bundles the hardware hint ([`prefetch_read`]), the memory-model hint
/// ([`Probe::prefetch`] at the same simulated address the later demand
/// touch will use), and the issue counter surfaced through telemetry.
/// Inactive (`depth <= 1`) issuers compile every helper to a branch on
/// one bool, so the depth-1 path stays the legacy machine code.
#[derive(Debug)]
pub struct Pf {
    active: bool,
    issued: u64,
}

impl Pf {
    /// Creates an issuer; `active = false` turns every hint into a no-op.
    pub fn new(active: bool) -> Self {
        Self { active, issued: 0 }
    }

    /// Whether hints are being issued (ring depth > 1).
    #[inline(always)]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Hints issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Hints an arbitrary datum: hardware prefetch of `*ptr`, simulated
    /// prefetch of `bytes` bytes at `addr`.
    #[inline(always)]
    pub fn raw<T, P: Probe>(&mut self, probe: &mut P, ptr: *const T, addr: u64, bytes: u32) {
        if !self.active {
            return;
        }
        prefetch_read(ptr);
        probe.prefetch(addr, bytes);
        self.issued += 1;
    }

    /// Hardware-side hint only, for data whose simulated address is
    /// attributed separately (e.g. bloom probe words).  Not counted.
    #[inline(always)]
    pub fn hw<T>(&self, ptr: *const T) {
        if self.active {
            prefetch_read(ptr);
        }
    }

    /// Model-side hint only, paired with [`Pf::hw`]; counted as one
    /// issued hint.
    #[inline(always)]
    pub fn model<P: Probe>(&mut self, probe: &mut P, addr: u64, bytes: u32) {
        if !self.active {
            return;
        }
        probe.prefetch(addr, bytes);
        self.issued += 1;
    }

    /// Hints the single element `data[i]` (ignored when out of bounds —
    /// ring lookahead runs past slice ends by design).
    #[inline(always)]
    pub fn element<T, P: Probe>(&mut self, probe: &mut P, data: &[T], i: usize, base: u64) {
        if !self.active {
            return;
        }
        if let Some(r) = data.get(i) {
            let sz = core::mem::size_of::<T>();
            prefetch_read(r as *const T);
            probe.prefetch(base + (sz * i) as u64, sz as u32);
            self.issued += 1;
        }
    }

    /// Hints every line of `data`, uncapped: the partition stream
    /// ([`super::hint_partition`]) brings a whole slab or edge range in
    /// this way, one task before its walkers arrive.  One hardware hint
    /// per 64 bytes of the slice and one for its last element (a slice
    /// that starts mid-line overlaps one line more than it fills), so
    /// the count is a function of the length alone; the model is told
    /// the same bytes at `base`.
    #[inline]
    pub fn stream<T, P: Probe>(&mut self, probe: &mut P, data: &[T], base: u64) {
        let Some(last) = data.last() else {
            return;
        };
        if !self.active {
            return;
        }
        let per_line = (LINE_BYTES / core::mem::size_of::<T>().max(1)).max(1);
        for first in data.iter().step_by(per_line) {
            prefetch_read(first as *const T);
        }
        prefetch_read(last as *const T);
        self.issued += data.len().div_ceil(per_line) as u64 + 1;
        // The model's length is a `u32`; no cache-sized partition is
        // anywhere near it.
        let bytes = core::mem::size_of_val(data);
        probe.prefetch(base, bytes.min(u32::MAX as usize) as u32);
    }

    /// Hints the lines covering `data[i .. i + len]`, capped at
    /// [`MAX_SPAN_LINES`]; used for edge ranges and cum-weight slices.
    #[inline]
    pub fn span<T, P: Probe>(
        &mut self,
        probe: &mut P,
        data: &[T],
        i: usize,
        len: usize,
        base: u64,
    ) {
        if !self.active || len == 0 || i >= data.len() {
            return;
        }
        let sz = core::mem::size_of::<T>().max(1);
        let end = (i + len).min(data.len());
        let bytes = ((end - i) * sz).min(LINE_BYTES * MAX_SPAN_LINES);
        let last = i + (bytes - 1) / sz;
        let step = (LINE_BYTES / sz).max(1);
        // One hint per line-stride; `hints = ceil(bytes / LINE_BYTES)`,
        // so the cap above bounds the count by MAX_SPAN_LINES.
        let mut k = i;
        while k <= last {
            prefetch_read(&data[k] as *const T);
            self.issued += 1;
            k += step;
        }
        probe.prefetch(base + (sz * i) as u64, bytes as u32);
    }
}

/// Runs one sample task's walkers through the inspect → fetch → execute
/// pipeline.
///
/// * `inspect(pf, ctx, j)` — hint-only stage, runs `depth` walkers ahead.
/// * `fetch(pf, ctx, j) -> T` — reads now-resident metadata (e.g. the
///   CSR offset pair), hints dependent lines, and returns the slot
///   payload `execute` will use.  Runs `depth / 2` walkers ahead.
/// * `execute(ctx, j, slot)` — the only stage allowed to consume RNG
///   draws or mutate walker state; runs in strict walker order.
///
/// `ctx` carries the state shared across stages (the probe, PS buffers);
/// state touched by a single stage is captured by that closure directly.
/// With `depth <= 1` the pipeline degenerates to the legacy
/// one-walker-at-a-time loop (`fetch` immediately followed by `execute`,
/// hints disabled via the inactive [`Pf`]).
pub fn drive<T: Copy + Default, C: ?Sized>(
    depth: usize,
    n: usize,
    pf: &mut Pf,
    ctx: &mut C,
    inspect: impl FnMut(&mut Pf, &mut C, usize),
    fetch: impl FnMut(&mut Pf, &mut C, usize) -> T,
    execute: impl FnMut(&mut C, usize, T),
) {
    drive_scouted(depth, n, pf, ctx, |_, _, _| {}, inspect, fetch, execute)
}

/// [`drive`] with one more hint-only stage in front, for tasks whose
/// addresses sit three dependent loads deep (out of core: walker id →
/// walker lanes → offset pairs → adjacency lines).  `scout(pf, ctx, j)`
/// runs `depth + depth / 2` walkers ahead of `execute`, so each stage
/// leads the next by `depth / 2`; like `inspect` it may only hint, and
/// at `depth <= 1` it never runs.
#[allow(clippy::too_many_arguments)]
pub fn drive_scouted<T: Copy + Default, C: ?Sized>(
    depth: usize,
    n: usize,
    pf: &mut Pf,
    ctx: &mut C,
    mut scout: impl FnMut(&mut Pf, &mut C, usize),
    mut inspect: impl FnMut(&mut Pf, &mut C, usize),
    mut fetch: impl FnMut(&mut Pf, &mut C, usize) -> T,
    mut execute: impl FnMut(&mut C, usize, T),
) {
    if depth <= 1 || n == 0 {
        for j in 0..n {
            let slot = fetch(pf, ctx, j);
            execute(ctx, j, slot);
        }
        return;
    }
    let depth = depth.min(MAX_RING_DEPTH);
    let lead = (depth / 2).max(1);
    let far = depth + lead;
    // Slot `j % depth` is written by fetch(j) and read by execute(j);
    // the `lead < depth` spacing guarantees no overwrite in between.
    let mut slots = [T::default(); MAX_RING_DEPTH];
    for k in 0..far.min(n) {
        scout(pf, ctx, k);
    }
    for k in 0..depth.min(n) {
        inspect(pf, ctx, k);
    }
    for k in 0..lead.min(n) {
        slots[k % depth] = fetch(pf, ctx, k);
    }
    for j in 0..n {
        if j + far < n {
            scout(pf, ctx, j + far);
        }
        if j + depth < n {
            inspect(pf, ctx, j + depth);
        }
        if j + lead < n {
            slots[(j + lead) % depth] = fetch(pf, ctx, j + lead);
        }
        execute(ctx, j, slots[j % depth]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_memsim::{AccessKind, HierarchyConfig, MemorySystem, NullProbe};

    #[test]
    fn prefetch_read_is_callable_on_any_pointer() {
        let x = 42u64;
        prefetch_read(&x as *const u64);
        prefetch_read(core::ptr::null::<u64>());
        prefetch_read(usize::MAX as *const u8);
    }

    #[test]
    fn inactive_pf_issues_nothing() {
        let mut pf = Pf::new(false);
        let data = [1u32; 64];
        pf.element(&mut NullProbe, &data, 3, 0x1000);
        pf.span(&mut NullProbe, &data, 0, 64, 0x1000);
        pf.raw(&mut NullProbe, data.as_ptr(), 0x1000, 4);
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn element_hint_counts_and_warms_probe() {
        let mut pf = Pf::new(true);
        let mut mem = MemorySystem::new(HierarchyConfig::skylake_server());
        let data = [7u32; 16];
        pf.element(&mut mem, &data, 4, 0x1000);
        assert_eq!(pf.issued(), 1);
        assert_eq!(mem.stats().prefetch_lines, 1);
        // The demand load then hits L1.
        mem.touch(0x1000 + 16, 4, AccessKind::Random);
        assert_eq!(mem.stats().l1.hits, 1);
    }

    #[test]
    fn element_out_of_bounds_is_ignored() {
        let mut pf = Pf::new(true);
        let data = [1u32; 4];
        pf.element(&mut NullProbe, &data, 99, 0x1000);
        assert_eq!(pf.issued(), 0);
    }

    #[test]
    fn span_caps_line_count() {
        let mut pf = Pf::new(true);
        let mut mem = MemorySystem::new(HierarchyConfig::skylake_server());
        // 1024 u32 = 4 KiB = 64 lines; only MAX_SPAN_LINES are hinted.
        let data = vec![1u32; 1024];
        pf.span(&mut mem, &data, 0, 1024, 0x1000);
        assert_eq!(pf.issued() as usize, MAX_SPAN_LINES);
        assert_eq!(mem.stats().prefetch_lines as usize, MAX_SPAN_LINES);
    }

    #[test]
    fn span_clamps_to_slice_end() {
        let mut pf = Pf::new(true);
        let data = [1u32; 8];
        pf.span(&mut NullProbe, &data, 6, 100, 0x1000);
        assert_eq!(pf.issued(), 1); // 2 elements, one line
    }

    /// The invariant the conformance lattice enforces end-to-end:
    /// execute order (and thus RNG-draw order) is walker order at every
    /// depth, while scout/inspect/fetch run ahead by 3/2 depth, depth
    /// and depth/2.
    #[test]
    fn drive_executes_in_walker_order_at_every_depth() {
        for depth in [1usize, 2, 3, 4, 8, 16] {
            for n in [0usize, 1, 2, 5, 16, 57] {
                let mut pf = Pf::new(depth > 1);
                let mut log: Vec<(char, usize)> = Vec::new();
                let mut executed = Vec::new();
                drive_scouted(
                    depth,
                    n,
                    &mut pf,
                    &mut log,
                    |_, log, j| log.push(('s', j)),
                    |_, log, j| log.push(('i', j)),
                    |_, log, j| {
                        log.push(('f', j));
                        j
                    },
                    |log, j, slot| {
                        assert_eq!(slot, j, "slot payload must come from fetch({j})");
                        log.push(('e', j));
                        executed.push(j);
                    },
                );
                assert_eq!(executed, (0..n).collect::<Vec<_>>(), "depth {depth} n {n}");
                // Each stage visits every walker exactly once (the hint
                // stages not at all when the ring is off).
                let hinting = if depth > 1 { "sife" } else { "fe" };
                for stage in ['s', 'i', 'f', 'e'] {
                    let mut seen: Vec<usize> =
                        log.iter().filter(|e| e.0 == stage).map(|e| e.1).collect();
                    seen.sort_unstable();
                    let want = if hinting.contains(stage) { n } else { 0 };
                    assert_eq!(seen, (0..want).collect::<Vec<_>>(), "stage {stage}");
                }
                // scout(j) < inspect(j) < fetch(j) < execute(j).
                for j in 0..n {
                    let pos = |s: char| log.iter().position(|&e| e == (s, j)).unwrap();
                    for pair in hinting.as_bytes().windows(2) {
                        let (a, b) = (pair[0] as char, pair[1] as char);
                        assert!(pos(a) < pos(b), "{a}({j}) after {b}({j}) at depth {depth}");
                    }
                }
            }
        }
    }

    #[test]
    fn drive_is_drive_scouted_without_a_scout() {
        for depth in [1usize, 3, 8] {
            let trace = |scouted: bool| {
                let mut log: Vec<(char, usize)> = Vec::new();
                let mut pf = Pf::new(depth > 1);
                let inspect = |_: &mut Pf, log: &mut Vec<(char, usize)>, j| log.push(('i', j));
                let fetch = |_: &mut Pf, log: &mut Vec<(char, usize)>, j| log.push(('f', j));
                let execute = |log: &mut Vec<(char, usize)>, j, ()| log.push(('e', j));
                if scouted {
                    drive_scouted(
                        depth,
                        21,
                        &mut pf,
                        &mut log,
                        |_, _, _| {},
                        inspect,
                        fetch,
                        execute,
                    );
                } else {
                    drive(depth, 21, &mut pf, &mut log, inspect, fetch, execute);
                }
                log
            };
            assert_eq!(trace(false), trace(true), "depth {depth}");
        }
    }
}
