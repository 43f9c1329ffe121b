//! The shuffle stage: regrouping walkers by vertex partition.
//!
//! After a sample stage disperses walkers, the shuffle rearranges the
//! walker array so that walkers now within the same VP are stored
//! contiguously (paper Section 4.3).  The shuffle is a *stable two-pass
//! counting sort*: one pass counts walkers per destination bin, a prefix
//! sum turns counts into bin offsets, and a second pass scatters.
//!
//! Stability is what makes the paper's implicit-walker-identity trick
//! work: walkers within each bin keep their `W_i` order, so the `k`-th
//! walker of bin `b` in `W_i` owns slot `offsets[b] + k` of `SW_i`, and
//! no walker ID is stored.  The count pass records each walker's bin in
//! a *lane* (one `u32` a walker), so the scatter and the gather read it
//! there instead of recomputing it: a walker's bin is computed once a
//! step.  The gather then overwrites the lane in place with each
//! walker's next vertex, and the lane becomes `W_{i+1}`
//! ([`ShuffleScratch::swap_lane`]).
//!
//! Scatter and gather each follow one write or read stream per bin —
//! thousands of them, more than a hardware prefetcher tracks — so both
//! hint the next line of a bin's stream as the stream enters a line
//! (DESIGN.md §22).
//!
//! The number of concurrent scatter streams is bounded by what fits in
//! L2; when a plan creates more VPs than that budget, the shuffle runs
//! in **two levels** — first into coarse outer bins (one per
//! internally-shuffled group), then within each such bin into its VPs.
//! Because both passes are stable, the two-level result is *identical*
//! to a hypothetical single-level shuffle (verified by tests), only the
//! memory traffic differs.

use std::ops::Range;

use fm_graph::prefetch::prefetch_read;
use fm_graph::VertexId;
use fm_memsim::{AccessKind, NullProbe, Probe};

use crate::partition::PartitionMap;
use crate::pool::{DisjointSlice, WorkerPool};

/// Entries of a walker array per 64-byte line: a bin's stream hints the
/// line this many entries ahead.
const LINE_ENTRIES: usize = 64 / std::mem::size_of::<VertexId>();

/// Reusable shuffle working memory.
#[derive(Debug, Default, Clone)]
pub struct ShuffleScratch {
    /// Bin start offsets: the exclusive prefix sums of the walkers per
    /// fine bin (partitions + dead bin), `bins + 1` entries.
    pub offsets: Vec<u32>,
    /// Walker `j`'s fine bin, written by the count pass and read by the
    /// scatter and the gather; an in-place gather overwrites it with the
    /// walker's next vertex.
    lane: Vec<VertexId>,
    /// Per-(chunk, bin) walker counts, flattened chunk-major
    /// (`chunk * bins + bin`): filled by the count pass and kept valid
    /// through the scatter and gather that follow it (all three passes
    /// walk the same lane).
    chunk_counts: Vec<u32>,
    /// Per-(chunk, bin) cursors derived from `chunk_counts`, rebuilt in
    /// place before each scatter and gather so the steady-state step
    /// performs no heap allocation.
    chunk_cursors: Vec<u32>,
    /// The chunks of the count that wrote the lane and `chunk_counts`,
    /// 0 once anything else rewrote the lane: a scatter's disjoint
    /// writes rely on the bins it reads being the ones counted.
    chunks: usize,
    /// Intermediate walker buffer for the two-level path.
    tmp: Vec<VertexId>,
    /// Intermediate aux buffer for the two-level path.
    tmp_aux: Vec<VertexId>,
    /// Outer-bin cursors for the two-level path.
    outer_cursors: Vec<u32>,
}

impl ShuffleScratch {
    /// Swaps the lane with `w`.  After an in-place gather the lane holds
    /// every walker's next vertex, so this makes it the walker array,
    /// and `w`'s old buffer becomes the lane the next count pass
    /// overwrites: the shuffle adds no walker-sized array of its own.
    pub fn swap_lane(&mut self, w: &mut Vec<VertexId>) {
        std::mem::swap(&mut self.lane, w);
        self.chunks = 0;
    }

    /// Sizes the lane and a zeroed `chunks` x `bins` count matrix for a
    /// count of `n` walkers.
    fn start_count(&mut self, bins: usize, chunks: usize, n: usize) {
        self.chunk_counts.clear();
        self.chunk_counts.resize(chunks * bins, 0);
        self.lane.resize(n, 0);
        self.chunks = chunks;
    }

    /// Sums the count matrix's columns into the bin offsets.
    fn finish_count(&mut self) {
        let bins = self.chunk_counts.len() / self.chunks;
        self.offsets.clear();
        self.offsets.push(0);
        for b in 0..bins {
            let total: u32 = self.chunk_counts[b..].iter().step_by(bins).sum();
            self.offsets.push(self.offsets[b] + total);
        }
    }

    /// Rebuilds the per-(chunk, bin) cursors from the count's matrix:
    /// a bin-major prefix over chunks, offset by the bin start, so chunk
    /// `c`'s walkers of bin `b` own one range of the bin's slots.
    ///
    /// # Panics
    ///
    /// Panics unless a count at `chunks` chunks wrote the lane last: the
    /// ranges are disjoint only for the bins it counted, chunk by chunk.
    /// Returns the bins a row holds.
    fn reset_cursors(&mut self, chunks: usize) -> usize {
        assert_eq!(self.chunks, chunks, "count the lane at this chunking first");
        let bins = self.offsets.len() - 1;
        self.chunk_cursors.clear();
        self.chunk_cursors.resize(chunks * bins, 0);
        for b in 0..bins {
            let mut start = self.offsets[b];
            for c in 0..chunks {
                self.chunk_cursors[c * bins + b] = start;
                start += self.chunk_counts[c * bins + b];
            }
        }
        bins
    }
}

/// Simulated-address bases for probe attribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShuffleAddrs {
    /// Base address of the source walker array.
    pub src: u64,
    /// Base address of the destination walker array.
    pub dst: u64,
    /// Base address of the bin lane.
    pub lane: u64,
}

/// Chunk `t`'s walkers: the `t`-th of `chunks` contiguous runs of `n`.
fn chunk_range(t: usize, chunks: usize, n: usize) -> Range<usize> {
    let chunk = n.div_ceil(chunks);
    (t * chunk).min(n)..((t + 1) * chunk).min(n)
}

/// A configured shuffler over one partition map.
///
/// Every pass splits the walkers into contiguous chunks and runs one
/// per-chunk body over each: on the pool, a chunk per worker with
/// [`NullProbe`]; without one, a single chunk on the calling thread with
/// the caller's probe.  The count pass produces a per-(chunk, bin)
/// count matrix; prefix-summing it *bin-major* yields disjoint
/// per-(chunk, bin) output ranges, so the chunks of a scatter write to
/// non-overlapping positions of the shared destination — the classic
/// parallel stable counting sort, and exactly the paper's "threads work
/// on disjoint array areas, eliminating the need for locks".  The
/// result does not depend on the chunking (verified by tests).
#[derive(Debug)]
pub struct Shuffler<'p> {
    map: &'p PartitionMap,
    /// For two-level shuffles: the outer bin of each fine bin (monotone
    /// non-decreasing; the dead bin maps to its own outer bin).
    outer_of_fine: Option<Vec<u32>>,
}

impl<'p> Shuffler<'p> {
    /// A single-level shuffler.
    pub fn single_level(map: &'p PartitionMap) -> Self {
        Self {
            map,
            outer_of_fine: None,
        }
    }

    /// A two-level shuffler; `outer_of_fine[i]` assigns fine bin `i`
    /// (partition, plus the trailing dead bin) to an outer bin.
    ///
    /// # Panics
    ///
    /// Panics unless the assignment covers every fine bin and is
    /// monotone non-decreasing starting at 0 (outer bins must be
    /// contiguous runs of fine bins).
    pub fn two_level(map: &'p PartitionMap, outer_of_fine: Vec<u32>) -> Self {
        assert_eq!(
            outer_of_fine.len(),
            map.bins(),
            "assignment must cover all bins"
        );
        assert_eq!(outer_of_fine[0], 0, "outer bins start at 0");
        assert!(
            outer_of_fine
                .windows(2)
                .all(|w| w[1] == w[0] || w[1] == w[0] + 1),
            "outer bins must be contiguous runs"
        );
        Self {
            map,
            outer_of_fine: Some(outer_of_fine),
        }
    }

    /// Number of shuffle levels (1 or 2).
    pub fn levels(&self) -> usize {
        if self.outer_of_fine.is_some() {
            2
        } else {
            1
        }
    }

    /// Counting pass: fills `scratch.offsets` from the walker positions
    /// in `w`, and the lane with each walker's bin — one chunk, on the
    /// calling thread.
    pub fn count<P: Probe>(
        &self,
        w: &[VertexId],
        scratch: &mut ShuffleScratch,
        addrs: ShuffleAddrs,
        probe: &mut P,
    ) {
        scratch.start_count(self.map.bins(), 1, w.len());
        self.count_pass(
            w,
            &mut scratch.lane,
            &mut scratch.chunk_counts,
            addrs,
            probe,
        );
        scratch.finish_count();
    }

    /// [`Shuffler::count`] in one chunk per worker of `pool` (without
    /// one, `count` itself), leaving the per-(chunk, bin) counts the
    /// scatter and the gather at the same chunking read.
    pub(crate) fn count_on<P: Probe>(
        &self,
        pool: Option<&WorkerPool>,
        w: &[VertexId],
        scratch: &mut ShuffleScratch,
        addrs: ShuffleAddrs,
        probe: &mut P,
    ) {
        let Some(pool) = pool else {
            return self.count(w, scratch, addrs, probe);
        };
        let (bins, chunks) = (self.map.bins(), pool.threads());
        scratch.start_count(bins, chunks, w.len());
        {
            let rows = DisjointSlice::new(&mut scratch.chunk_counts);
            let lane = DisjointSlice::new(&mut scratch.lane);
            pool.run_labeled("shuffle-count", &|t| {
                let r = chunk_range(t, chunks, w.len());
                // SAFETY: row `t` of the matrix and lane range `r` belong
                // to worker `t` alone.
                let (counts, out) = unsafe {
                    (
                        rows.slice_mut(t * bins, bins),
                        lane.slice_mut(r.start, r.len()),
                    )
                };
                let addrs = ShuffleAddrs::default();
                self.count_pass(&w[r], out, counts, addrs, &mut NullProbe);
            });
        }
        scratch.finish_count();
    }

    /// The count loop over one chunk of walkers and its piece of the lane.
    fn count_pass<P: Probe>(
        &self,
        w: &[VertexId],
        lane: &mut [VertexId],
        counts: &mut [u32],
        addrs: ShuffleAddrs,
        probe: &mut P,
    ) {
        for (j, (&v, bin)) in w.iter().zip(lane).enumerate() {
            probe.touch(addrs.src + 4 * j as u64, 4, AccessKind::Sequential);
            let b = self.map.partition_of(v);
            counts[b] += 1;
            *bin = b as VertexId;
            probe.touch_write(addrs.lane + 4 * j as u64, 4, AccessKind::Sequential);
        }
    }

    /// Scatter pass: writes `sw` (and `saux`, when provided) grouped by
    /// fine bin, in stable `w` order.  [`Shuffler::count`] must have run
    /// on the same `w` first.
    ///
    /// # Panics
    ///
    /// Panics if array lengths disagree, or unless a one-chunk count
    /// wrote the lane last.
    #[allow(clippy::too_many_arguments)]
    pub fn scatter<P: Probe>(
        &self,
        w: &[VertexId],
        aux: Option<&[VertexId]>,
        sw: &mut [VertexId],
        saux: Option<&mut [VertexId]>,
        scratch: &mut ShuffleScratch,
        addrs: ShuffleAddrs,
        probe: &mut P,
    ) {
        self.scatter_on(None, w, aux, sw, saux, scratch, addrs, probe);
    }

    /// [`Shuffler::scatter`] at the chunking of the count that wrote the
    /// lane, which must be `pool`'s: each chunk writes only within its
    /// per-(chunk, bin) ranges, which partition `sw`.  A two-level
    /// scatter runs at one chunk.
    ///
    /// # Panics
    ///
    /// Panics as [`Shuffler::scatter`] does, and if a two-level scatter
    /// is given a pool.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scatter_on<P: Probe>(
        &self,
        pool: Option<&WorkerPool>,
        w: &[VertexId],
        aux: Option<&[VertexId]>,
        sw: &mut [VertexId],
        saux: Option<&mut [VertexId]>,
        scratch: &mut ShuffleScratch,
        addrs: ShuffleAddrs,
        probe: &mut P,
    ) {
        assert_eq!(w.len(), sw.len());
        assert_eq!(scratch.lane.len(), w.len(), "count `w` first");
        let chunks = pool.map_or(1, WorkerPool::threads);
        let bins = scratch.reset_cursors(chunks);
        let aux = pair(aux, saux, w.len()).map(|(a, sa)| (a, DisjointSlice::new(sa)));
        let sw = DisjointSlice::new(sw);
        let ShuffleScratch {
            offsets,
            lane,
            chunk_cursors,
            tmp,
            tmp_aux,
            outer_cursors,
            ..
        } = scratch;
        let Some(outer_of_fine) = &self.outer_of_fine else {
            let cursors = DisjointSlice::new(chunk_cursors);
            let chunk = |t: usize| {
                let r = chunk_range(t, chunks, w.len());
                // SAFETY: cursor row `t` belongs to chunk `t` alone, and
                // each chunk is taken once.
                let cur = unsafe { cursors.slice_mut(t * bins, bins) };
                let aux = aux.as_ref().map(|(a, sa)| (&a[r.clone()], sa));
                (&w[r.clone()], aux, &lane[r], cur)
            };
            match pool {
                Some(pool) => pool.run_labeled("shuffle-scatter", &|t| {
                    let (w, aux, lane, cur) = chunk(t);
                    let bin_of = |j: usize, _: VertexId| lane[j] as usize;
                    let addrs = ShuffleAddrs::default();
                    scatter_pass(w, aux, &sw, cur, bin_of, true, addrs, &mut NullProbe);
                }),
                None => {
                    let (w, aux, lane, cur) = chunk(0);
                    let bin_of = |j: usize, _: VertexId| lane[j] as usize;
                    scatter_pass(w, aux, &sw, cur, bin_of, true, addrs, probe);
                }
            }
            return;
        };
        assert!(pool.is_none(), "a two-level scatter runs at one chunk");
        // Outer bins are runs of fine bins: each starts where its first
        // fine bin does.
        outer_cursors.clear();
        for (&o, &start) in outer_of_fine.iter().zip(offsets.iter()) {
            if o as usize == outer_cursors.len() {
                outer_cursors.push(start);
            }
        }
        // Level 1: scatter into the intermediate buffer by outer bin.
        tmp.resize(w.len(), 0);
        tmp_aux.resize(if aux.is_some() { w.len() } else { 0 }, 0);
        let (tmp_out, tmp_aux_out) = (DisjointSlice::new(tmp), DisjointSlice::new(tmp_aux));
        let aux1 = aux.as_ref().map(|(a, _)| (*a, &tmp_aux_out));
        let bin_of = |j: usize, _: VertexId| outer_of_fine[lane[j] as usize] as usize;
        scatter_pass(w, aux1, &tmp_out, outer_cursors, bin_of, true, addrs, probe);
        // Level 2: within each outer bin, scatter by fine bin.
        let aux2 = aux.as_ref().map(|(_, sa)| (tmp_aux.as_slice(), sa));
        let bin_of = |_: usize, v: VertexId| self.map.partition_of(v);
        scatter_pass(tmp, aux2, &sw, chunk_cursors, bin_of, false, addrs, probe);
    }

    /// Gather pass: the inverse permutation, into `w_new`.  Walker `j`'s
    /// bin in the lane [`Shuffler::count`] wrote for `w_old` names the
    /// stream it was scattered into, and that bin's cursor is its slot in
    /// the shuffled array: `w_new[j] = snext[slot]` (and likewise for the
    /// aux arrays).  This is how `W_{i+1}` is produced while preserving
    /// walker order (paper Figure 5).  The lane is left as it was.
    #[allow(clippy::too_many_arguments)]
    pub fn gather<P: Probe>(
        &self,
        w_old: &[VertexId],
        snext: &[VertexId],
        w_new: &mut [VertexId],
        aux_src: Option<&[VertexId]>,
        aux_new: Option<&mut [VertexId]>,
        scratch: &mut ShuffleScratch,
        addrs: ShuffleAddrs,
        probe: &mut P,
    ) {
        assert_eq!(w_old.len(), w_new.len());
        assert_eq!(scratch.lane.len(), w_old.len(), "count `w_old` first");
        let out = Some(w_new);
        self.gather_on(None, out, snext, aux_src, aux_new, scratch, addrs, probe);
    }

    /// [`Shuffler::gather`] at the chunking of the count that wrote the
    /// lane, which must be `pool`'s: into `out`, or, with none, in place
    /// — each walker's bin in the lane is overwritten by its next vertex,
    /// and [`ShuffleScratch::swap_lane`] then hands the lane over as
    /// `W_{i+1}`.
    ///
    /// Inlined, with [`gather_pass`], into each caller, so that a literal
    /// `out` folds the choice out of the per-walker loop: left in, it
    /// cost the engine's in-place gather about 5 % a walker.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn gather_on<P: Probe>(
        &self,
        pool: Option<&WorkerPool>,
        out: Option<&mut [VertexId]>,
        snext: &[VertexId],
        aux_src: Option<&[VertexId]>,
        aux_new: Option<&mut [VertexId]>,
        scratch: &mut ShuffleScratch,
        addrs: ShuffleAddrs,
        probe: &mut P,
    ) {
        let n = scratch.lane.len();
        assert_eq!(snext.len(), n);
        assert!(
            out.as_ref().is_none_or(|o| o.len() == n),
            "gather into `n` walkers"
        );
        let chunks = pool.map_or(1, WorkerPool::threads);
        let bins = scratch.reset_cursors(chunks);
        // In place, the lane ends up holding vertices, not bins.
        if out.is_none() {
            scratch.chunks = 0;
        }
        let aux = pair(aux_src, aux_new, n).map(|(a, anew)| (a, DisjointSlice::new(anew)));
        let out = out.map(DisjointSlice::new);
        let lane = DisjointSlice::new(&mut scratch.lane);
        let cursors = DisjointSlice::new(&mut scratch.chunk_cursors);
        let chunk = |t: usize| {
            let r = chunk_range(t, chunks, n);
            let (lo, len) = (r.start, r.len());
            // SAFETY: cursor row `t` and walker range `r` of the lane,
            // `out` and the aux lane belong to chunk `t` alone, and each
            // chunk is taken once.
            unsafe {
                (
                    lane.slice_mut(lo, len),
                    out.as_ref().map(|o| o.slice_mut(lo, len)),
                    aux.as_ref().map(|(a, anew)| (*a, anew.slice_mut(lo, len))),
                    cursors.slice_mut(t * bins, bins),
                )
            }
        };
        match pool {
            Some(pool) => pool.run_labeled("shuffle-gather", &|t| {
                let (lane, out, aux, cur) = chunk(t);
                let addrs = ShuffleAddrs::default();
                gather_pass(lane, out, snext, aux, cur, addrs, &mut NullProbe);
            }),
            None => {
                let (lane, out, aux, cur) = chunk(0);
                gather_pass(lane, out, snext, aux, cur, addrs, probe);
            }
        }
    }
}

/// Pairs an auxiliary source with its destination.
///
/// # Panics
///
/// Panics if only one is given, or either is not `n` long.
fn pair<'a>(
    src: Option<&'a [VertexId]>,
    dst: Option<&'a mut [VertexId]>,
    n: usize,
) -> Option<(&'a [VertexId], &'a mut [VertexId])> {
    match (src, dst) {
        (Some(s), Some(d)) => {
            assert_eq!(
                (s.len(), d.len()),
                (n, n),
                "aux lanes must match the walkers"
            );
            Some((s, d))
        }
        (None, None) => None,
        _ => panic!("aux source and destination must be provided together"),
    }
}

/// Hints the next line of one bin's stream: when `pos` opens a line of
/// a `len`-entry array, the line [`LINE_ENTRIES`] entries on — to the
/// hardware through `hint`, and, at `base`, to the model — the ring's
/// [`Pf`](crate::sample::ring::Pf) pairing.  Whether a hint goes out
/// depends on `pos` alone, and a pass visits every position once, so its
/// hints are a function of its bin widths.
#[inline(always)]
fn hint_next_line<P: Probe>(
    probe: &mut P,
    len: usize,
    pos: usize,
    base: u64,
    hint: impl FnOnce(usize),
) {
    let next = pos + LINE_ENTRIES;
    if pos.is_multiple_of(LINE_ENTRIES) && next < len {
        hint(next);
        probe.prefetch(base + 4 * next as u64, 4);
    }
}

/// One stable counting-scatter pass over one chunk: walker `j` (with its
/// aux entry) goes to the next slot of bin `bin_of(j, src[j])`.
/// `reads_lane` says the bin comes from the lane, which the probe is
/// then told about.
///
/// # Panics
///
/// Panics if a bin outgrows `dst`.  Chunks running at once must have
/// disjoint cursor ranges: what the count's per-(chunk, bin) prefix
/// gives when the bins are the lane it wrote.
#[allow(clippy::too_many_arguments)]
fn scatter_pass<P: Probe>(
    src: &[VertexId],
    aux: Option<(&[VertexId], &DisjointSlice<VertexId>)>,
    dst: &DisjointSlice<VertexId>,
    cursors: &mut [u32],
    bin_of: impl Fn(usize, VertexId) -> usize,
    reads_lane: bool,
    addrs: ShuffleAddrs,
    probe: &mut P,
) {
    for (j, &v) in src.iter().enumerate() {
        probe.touch(addrs.src + 4 * j as u64, 4, AccessKind::Sequential);
        if reads_lane {
            probe.touch(addrs.lane + 4 * j as u64, 4, AccessKind::Sequential);
        }
        let bin = bin_of(j, v);
        let pos = cursors[bin] as usize;
        cursors[bin] += 1;
        assert!(pos < dst.len(), "bin {bin} outgrew its count");
        hint_next_line(probe, dst.len(), pos, addrs.dst, |i| dst.prefetch(i));
        // SAFETY: `pos` is in bounds (above), and lies in this chunk's
        // own per-(chunk, bin) range of the count's bin-major prefix, so
        // no other chunk writes it.
        unsafe { dst.write(pos, v) };
        if let Some((a, da)) = aux {
            hint_next_line(&mut NullProbe, da.len(), pos, 0, |i| da.prefetch(i));
            // SAFETY: the same position of a lane of the same length.
            unsafe { da.write(pos, a[j]) };
        }
        probe.touch_write(addrs.dst + 4 * pos as u64, 4, AccessKind::Sequential);
    }
}

/// One gather pass over one chunk: walker `j` takes the next slot of the
/// bin in `lane[j]`, and its next vertex `snext[slot]` goes to `out[j]`
/// — or, with no `out`, over its bin in the lane.
#[inline(always)]
fn gather_pass<P: Probe>(
    lane: &mut [VertexId],
    mut out: Option<&mut [VertexId]>,
    snext: &[VertexId],
    mut aux: Option<(&[VertexId], &mut [VertexId])>,
    cursors: &mut [u32],
    addrs: ShuffleAddrs,
    probe: &mut P,
) {
    for j in 0..lane.len() {
        probe.touch(addrs.lane + 4 * j as u64, 4, AccessKind::Sequential);
        let bin = lane[j] as usize;
        let slot = cursors[bin] as usize;
        cursors[bin] += 1;
        hint_next_line(probe, snext.len(), slot, addrs.dst, |i| {
            prefetch_read(&snext[i])
        });
        probe.touch(addrs.dst + 4 * slot as u64, 4, AccessKind::Sequential);
        let next = snext[slot];
        if let Some((asrc, anew)) = aux.as_mut() {
            hint_next_line(&mut NullProbe, asrc.len(), slot, 0, |i| {
                prefetch_read(&asrc[i])
            });
            anew[j] = asrc[slot];
        }
        match out.as_deref_mut() {
            Some(out) => {
                out[j] = next;
                probe.touch_write(addrs.src + 4 * j as u64, 4, AccessKind::Sequential);
            }
            None => {
                lane[j] = next;
                probe.touch_write(addrs.lane + 4 * j as u64, 4, AccessKind::Sequential);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{Partition, SamplePolicy};
    use crate::DEAD;
    use fm_rng::{Rng64, Xorshift64Star};

    fn map(bounds: &[(u32, u32)], n: usize) -> PartitionMap {
        let parts: Vec<Partition> = bounds
            .iter()
            .map(|&(s, e)| Partition {
                start: s,
                end: e,
                policy: SamplePolicy::Direct,
                group: 0,
                edges: 0,
                uniform_degree: None,
            })
            .collect();
        PartitionMap::new(&parts, n)
    }

    fn run_single(w: &[VertexId], m: &PartitionMap) -> (Vec<VertexId>, ShuffleScratch) {
        let s = Shuffler::single_level(m);
        let mut scratch = ShuffleScratch::default();
        let mut sw = vec![0; w.len()];
        let mut p = NullProbe;
        s.count(w, &mut scratch, ShuffleAddrs::default(), &mut p);
        s.scatter(
            w,
            None,
            &mut sw,
            None,
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );
        (sw, scratch)
    }

    #[test]
    fn panicked_epoch_leaves_no_partial_walker_state() {
        // A crash inside one pool epoch (a shuffle-stage panic) must not
        // leak partially-applied walker state into a subsequent run: the
        // next dispatch rewrites scratch and output arrays wholesale, so
        // it must reproduce the sequential shuffle exactly.
        let n = 4_000usize;
        let m = map(&[(0, 100), (100, 1000), (1000, 4000)], n);
        let w: Vec<VertexId> = (0..n)
            .map(|i| (i.wrapping_mul(2654435761) % n) as VertexId)
            .collect();
        let (seq_sw, seq_scratch) = run_single(&w, &m);

        let pool = WorkerPool::new(4);
        let s = Shuffler::single_level(&m);
        let mut scratch = ShuffleScratch::default();
        // Garbage that a correct dispatch must fully overwrite.
        let mut sw = vec![VertexId::MAX; n];
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_labeled("shuffle-scatter", &|t| {
                if t == 1 {
                    panic!("injected shuffle crash");
                }
            });
        }));
        assert!(crashed.is_err(), "the injected panic must propagate");

        let (pool, addrs) = (Some(&pool), ShuffleAddrs::default());
        s.count_on(pool, &w, &mut scratch, addrs, &mut NullProbe);
        s.scatter_on(
            pool,
            &w,
            None,
            &mut sw,
            None,
            &mut scratch,
            addrs,
            &mut NullProbe,
        );
        assert_eq!(sw, seq_sw, "post-crash shuffle must match sequential");
        assert_eq!(scratch.offsets, seq_scratch.offsets);
    }

    #[test]
    fn scatter_groups_by_partition_stably() {
        let m = map(&[(0, 4), (4, 8)], 8);
        let w = vec![5, 1, 7, 0, 4, 2];
        let (sw, scratch) = run_single(&w, &m);
        // Partition 0 walkers in w order: 1, 0, 2; partition 1: 5, 7, 4.
        assert_eq!(sw, vec![1, 0, 2, 5, 7, 4]);
        assert_eq!(scratch.offsets, vec![0, 3, 6, 6]);
    }

    #[test]
    fn dead_walkers_go_to_trailing_bin() {
        let m = map(&[(0, 8)], 8);
        let w = vec![3, DEAD, 5];
        let (sw, scratch) = run_single(&w, &m);
        assert_eq!(sw, vec![3, 5, DEAD]);
        assert_eq!(scratch.offsets, vec![0, 2, 3]);
    }

    #[test]
    fn gather_inverts_scatter() {
        let m = map(&[(0, 3), (3, 6), (6, 10)], 10);
        let w = vec![9, 0, 5, 3, 7, 1, 2, 8];
        let s = Shuffler::single_level(&m);
        let mut scratch = ShuffleScratch::default();
        let mut sw = vec![0; w.len()];
        let mut p = NullProbe;
        s.count(&w, &mut scratch, ShuffleAddrs::default(), &mut p);
        s.scatter(
            &w,
            None,
            &mut sw,
            None,
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );
        // "Sample" = identity: gather must reproduce w exactly.
        let mut back = vec![0; w.len()];
        s.gather(
            &w,
            &sw,
            &mut back,
            None,
            None,
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );
        assert_eq!(back, w);
    }

    #[test]
    fn gather_routes_sampled_updates_to_walker_order() {
        let m = map(&[(0, 4), (4, 8)], 8);
        let w = vec![5, 1, 7, 0];
        let s = Shuffler::single_level(&m);
        let mut scratch = ShuffleScratch::default();
        let mut sw = vec![0; 4];
        let mut p = NullProbe;
        s.count(&w, &mut scratch, ShuffleAddrs::default(), &mut p);
        s.scatter(
            &w,
            None,
            &mut sw,
            None,
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );
        assert_eq!(sw, vec![1, 0, 5, 7]);
        // Each walker moves to position + 10 during "sampling".
        let snext: Vec<VertexId> = sw.iter().map(|&v| v + 10).collect();
        let mut w_new = vec![0; 4];
        s.gather(
            &w,
            &snext,
            &mut w_new,
            None,
            None,
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );
        assert_eq!(w_new, vec![15, 11, 17, 10]);
    }

    #[test]
    fn aux_arrays_travel_with_walkers() {
        let m = map(&[(0, 4), (4, 8)], 8);
        let w = vec![5, 1, 7, 0];
        let prev = vec![100, 101, 102, 103];
        let s = Shuffler::single_level(&m);
        let mut scratch = ShuffleScratch::default();
        let (mut sw, mut sprev) = (vec![0; 4], vec![0; 4]);
        let mut p = NullProbe;
        s.count(&w, &mut scratch, ShuffleAddrs::default(), &mut p);
        s.scatter(
            &w,
            Some(&prev),
            &mut sw,
            Some(&mut sprev),
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );
        assert_eq!(sw, vec![1, 0, 5, 7]);
        assert_eq!(sprev, vec![101, 103, 100, 102]);
        // Gather both the sampled positions and the old positions (the
        // node2vec data flow: new prev = old position).
        let snext: Vec<VertexId> = vec![11, 10, 15, 17];
        let (mut w_new, mut prev_new) = (vec![0; 4], vec![0; 4]);
        s.gather(
            &w,
            &snext,
            &mut w_new,
            Some(&sw),
            Some(&mut prev_new),
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );
        assert_eq!(w_new, vec![15, 11, 17, 10]);
        assert_eq!(prev_new, vec![5, 1, 7, 0]);
    }

    #[test]
    fn two_level_equals_single_level() {
        // 4 partitions in 2 outer bins (2 internally-shuffled groups).
        let m = map(&[(0, 2), (2, 4), (4, 6), (6, 8)], 8);
        let outer = vec![0, 0, 1, 1, 2]; // dead bin is its own outer bin
        let w: Vec<VertexId> = vec![7, 0, 3, 5, 1, 6, 2, 4, DEAD, 0, 7];
        let single = Shuffler::single_level(&m);
        let double = Shuffler::two_level(&m, outer);
        assert_eq!(double.levels(), 2);
        let mut p = NullProbe;

        let mut s1 = ShuffleScratch::default();
        let mut sw1 = vec![0; w.len()];
        single.count(&w, &mut s1, ShuffleAddrs::default(), &mut p);
        single.scatter(
            &w,
            None,
            &mut sw1,
            None,
            &mut s1,
            ShuffleAddrs::default(),
            &mut p,
        );

        let mut s2 = ShuffleScratch::default();
        let mut sw2 = vec![0; w.len()];
        double.count(&w, &mut s2, ShuffleAddrs::default(), &mut p);
        double.scatter(
            &w,
            None,
            &mut sw2,
            None,
            &mut s2,
            ShuffleAddrs::default(),
            &mut p,
        );

        assert_eq!(sw1, sw2, "two-level shuffle must be byte-identical");
    }

    #[test]
    fn two_level_with_aux_equals_single_level() {
        let m = map(&[(0, 2), (2, 4), (4, 8)], 8);
        let outer = vec![0, 0, 1, 2];
        let w: Vec<VertexId> = vec![7, 0, 3, 5, 1, 6];
        let prev: Vec<VertexId> = (100..106).collect();
        let mut p = NullProbe;

        let mut run = |s: &Shuffler| {
            let mut scratch = ShuffleScratch::default();
            let (mut sw, mut sprev) = (vec![0; 6], vec![0; 6]);
            s.count(&w, &mut scratch, ShuffleAddrs::default(), &mut NullProbe);
            s.scatter(
                &w,
                Some(&prev),
                &mut sw,
                Some(&mut sprev),
                &mut scratch,
                ShuffleAddrs::default(),
                &mut p,
            );
            (sw, sprev)
        };
        let single = Shuffler::single_level(&m);
        let double = Shuffler::two_level(&m, outer);
        assert_eq!(run(&single), run(&double));
    }

    #[test]
    #[should_panic(expected = "contiguous runs")]
    fn non_contiguous_outer_assignment_rejected() {
        let m = map(&[(0, 4), (4, 8)], 8);
        let _ = Shuffler::two_level(&m, vec![0, 2, 1]);
    }

    #[test]
    fn parallel_shuffle_is_bit_identical_to_sequential() {
        let m = map(&[(0, 3), (3, 10), (10, 32)], 32);
        let s = Shuffler::single_level(&m);
        let mut rng = Xorshift64Star::new(9);
        let w: Vec<VertexId> = (0..5000)
            .map(|_| {
                if rng.gen_bool(0.02) {
                    DEAD
                } else {
                    rng.gen_index(32) as VertexId
                }
            })
            .collect();
        let prev: Vec<VertexId> = (0..5000).map(|_| rng.gen_index(32) as VertexId).collect();

        // Sequential reference.
        let mut scratch = ShuffleScratch::default();
        let (mut sw1, mut sp1) = (vec![0; w.len()], vec![0; w.len()]);
        let mut p = NullProbe;
        s.count(&w, &mut scratch, ShuffleAddrs::default(), &mut p);
        s.scatter(
            &w,
            Some(&prev),
            &mut sw1,
            Some(&mut sp1),
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );
        let snext: Vec<VertexId> = sw1
            .iter()
            .map(|&v| if v == DEAD { DEAD } else { v ^ 1 })
            .collect();
        let (mut wn1, mut pn1) = (vec![0; w.len()], vec![0; w.len()]);
        s.gather(
            &w,
            &snext,
            &mut wn1,
            Some(&sw1),
            Some(&mut pn1),
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );

        for threads in [1usize, 2, 3, 7] {
            let pool = WorkerPool::new(threads);
            let (pool, addrs) = (Some(&pool), ShuffleAddrs::default());
            let mut scratch2 = ShuffleScratch::default();
            s.count_on(pool, &w, &mut scratch2, addrs, &mut p);
            assert_eq!(scratch.offsets, scratch2.offsets, "{threads} threads");
            let (mut sw2, mut sp2) = (vec![0; w.len()], vec![0; w.len()]);
            let (aux, saux) = (Some(prev.as_slice()), Some(sp2.as_mut_slice()));
            s.scatter_on(pool, &w, aux, &mut sw2, saux, &mut scratch2, addrs, &mut p);
            assert_eq!(sw1, sw2, "{threads} threads scatter");
            assert_eq!(sp1, sp2, "{threads} threads scatter aux");
            // Gather reuses the count matrix in place — no re-count, no
            // clone — and overwrites the lane with the next positions.
            let mut pn2 = vec![0; w.len()];
            let (asrc, anew) = (Some(sw2.as_slice()), Some(pn2.as_mut_slice()));
            s.gather_on(pool, None, &snext, asrc, anew, &mut scratch2, addrs, &mut p);
            assert_eq!(wn1, scratch2.lane, "{threads} threads gather");
            assert_eq!(pn1, pn2, "{threads} threads gather aux");
        }
    }

    #[test]
    fn parallel_shuffle_without_aux() {
        let m = map(&[(0, 16), (16, 64)], 64);
        let s = Shuffler::single_level(&m);
        let w: Vec<VertexId> = (0..777).map(|i| (i * 37 % 64) as VertexId).collect();
        let mut scratch = ShuffleScratch::default();
        let mut p = NullProbe;
        let mut sw1 = vec![0; w.len()];
        s.count(&w, &mut scratch, ShuffleAddrs::default(), &mut p);
        s.scatter(
            &w,
            None,
            &mut sw1,
            None,
            &mut scratch,
            ShuffleAddrs::default(),
            &mut p,
        );

        let pool = WorkerPool::new(4);
        let (pool, addrs) = (Some(&pool), ShuffleAddrs::default());
        let mut scratch2 = ShuffleScratch::default();
        s.count_on(pool, &w, &mut scratch2, addrs, &mut p);
        let mut sw2 = vec![0; w.len()];
        s.scatter_on(pool, &w, None, &mut sw2, None, &mut scratch2, addrs, &mut p);
        assert_eq!(sw1, sw2);
    }

    #[test]
    fn probe_sees_streaming_traffic() {
        use fm_memsim::{HierarchyConfig, MemorySystem};
        let m = map(&[(0, 64)], 64);
        let s = Shuffler::single_level(&m);
        let w: Vec<VertexId> = (0..1000).map(|i| (i % 64) as VertexId).collect();
        let mut scratch = ShuffleScratch::default();
        let mut sw = vec![0; w.len()];
        let mut probe = MemorySystem::new(HierarchyConfig::skylake_server());
        let addrs = ShuffleAddrs {
            src: 0x10_0000,
            dst: 0x20_0000,
            lane: 0x30_0000,
        };
        s.count(&w, &mut scratch, addrs, &mut probe);
        // Count: read `w`, write the lane.
        assert_eq!(probe.stats().accesses, 2 * w.len() as u64);
        s.scatter(&w, None, &mut sw, None, &mut scratch, addrs, &mut probe);
        // Scatter: read `w` and the lane, write `sw`.
        assert_eq!(probe.stats().accesses, 5 * w.len() as u64);
        let snext = sw.clone();
        s.gather_on(
            None,
            None,
            &snext,
            None,
            None,
            &mut scratch,
            addrs,
            &mut probe,
        );
        // Gather: read the lane and `snext`, overwrite the lane.
        assert_eq!(probe.stats().accesses, 8 * w.len() as u64);
        assert_eq!(scratch.lane, w);
    }

    #[test]
    fn hinted_passes_report_prefetch_lines() {
        use fm_memsim::{HierarchyConfig, MemorySystem};
        let m = map(&[(0, 5), (5, 6), (6, 40), (40, 64)], 64);
        let s = Shuffler::single_level(&m);
        let w = walkers(3, 1000, 64);
        // The same walkers in another order: the same bin widths.
        let mut reordered = w.clone();
        reordered.reverse();
        let addrs = ShuffleAddrs {
            src: 0x10_0000,
            dst: 0x20_0000,
            lane: 0x30_0000,
        };
        let run = |w: &[VertexId]| {
            let mut scratch = ShuffleScratch::default();
            let mut sw = vec![0; w.len()];
            let mut probe = MemorySystem::new(HierarchyConfig::skylake_server());
            s.count(w, &mut scratch, addrs, &mut probe);
            assert_eq!(probe.stats().prefetch_lines, 0, "the count hints nothing");
            s.scatter(w, None, &mut sw, None, &mut scratch, addrs, &mut probe);
            s.gather_on(None, None, &sw, None, None, &mut scratch, addrs, &mut probe);
            probe.stats().prefetch_lines
        };
        let lines = run(&w);
        assert!(lines > 0, "scatter and gather must hint");
        assert_eq!(run(&w), lines, "the hints repeat run to run");
        assert_eq!(run(&reordered), lines, "the hints follow the bin widths");
        // Each pass visits every slot once and hints at each line-opening
        // slot with a line after it: 62 of them below 1000 entries.
        assert_eq!(lines, 2 * 62);
    }

    /// The passes as they were before the lane: each computes a walker's
    /// bin with `partition_of`.  The lane passes must match them byte for
    /// byte.
    mod model {
        use super::*;

        /// Bin offsets.
        pub fn count(m: &PartitionMap, w: &[VertexId]) -> Vec<u32> {
            let mut counts = vec![0u32; m.bins()];
            for &v in w {
                counts[m.partition_of(v)] += 1;
            }
            let mut offsets = vec![0u32];
            for &c in &counts {
                offsets.push(offsets.last().unwrap() + c);
            }
            offsets
        }

        /// `w` and `aux` grouped by bin.
        pub fn scatter(
            m: &PartitionMap,
            w: &[VertexId],
            aux: &[VertexId],
        ) -> (Vec<VertexId>, Vec<VertexId>) {
            let mut cursors = count(m, w);
            let (mut sw, mut saux) = (vec![0; w.len()], vec![0; aux.len()]);
            for (j, &v) in w.iter().enumerate() {
                let bin = m.partition_of(v);
                let pos = cursors[bin] as usize;
                cursors[bin] += 1;
                sw[pos] = v;
                if !aux.is_empty() {
                    saux[pos] = aux[j];
                }
            }
            (sw, saux)
        }

        /// `snext` and `asrc` back in walker order.
        pub fn gather(
            m: &PartitionMap,
            w_old: &[VertexId],
            snext: &[VertexId],
            asrc: &[VertexId],
        ) -> (Vec<VertexId>, Vec<VertexId>) {
            let mut cursors = count(m, w_old);
            let (mut w_new, mut anew) = (vec![0; w_old.len()], vec![0; asrc.len()]);
            for (j, &v) in w_old.iter().enumerate() {
                let bin = m.partition_of(v);
                let slot = cursors[bin] as usize;
                cursors[bin] += 1;
                w_new[j] = snext[slot];
                if !asrc.is_empty() {
                    anew[j] = asrc[slot];
                }
            }
            (w_new, anew)
        }

        /// Everything the model makes of `w` and its aux lane `prev`
        /// (empty when there is none), with [`sampled`] as the sample
        /// stage and the new `prev` gathered from `sw`.
        pub struct Expected {
            pub offsets: Vec<u32>,
            pub sw: Vec<VertexId>,
            pub sprev: Vec<VertexId>,
            pub snext: Vec<VertexId>,
            pub next: Vec<VertexId>,
            pub prev_next: Vec<VertexId>,
        }

        pub fn expected(m: &PartitionMap, w: &[VertexId], prev: &[VertexId]) -> Expected {
            let offsets = count(m, w);
            let (sw, sprev) = scatter(m, w, prev);
            let snext = sampled(&sw);
            let (next, prev_next) = gather(m, w, &snext, &sw[..prev.len()]);
            Expected {
                offsets,
                sw,
                sprev,
                snext,
                next,
                prev_next,
            }
        }
    }

    /// `n` seeded walkers on the lower half of `vertices` (so the upper
    /// half's partitions stay empty), about one in sixteen DEAD.
    fn walkers(seed: u64, n: usize, vertices: usize) -> Vec<VertexId> {
        let mut rng = Xorshift64Star::new(seed);
        (0..n)
            .map(|_| {
                if rng.gen_bool(1.0 / 16.0) {
                    DEAD
                } else {
                    rng.gen_index(vertices / 2) as VertexId
                }
            })
            .collect()
    }

    /// The lattice of the model tests: a map with a one-vertex partition
    /// and empty upper partitions, and a two-level grouping of it.
    fn lane_map() -> (PartitionMap, Vec<u32>) {
        let m = map(
            &[(0, 3), (3, 10), (10, 11), (11, 32), (32, 40), (40, 64)],
            64,
        );
        (m, vec![0, 0, 1, 1, 2, 2, 3])
    }

    /// The sampled vertex of a walker at `v` (DEAD stays DEAD).
    fn sampled(sw: &[VertexId]) -> Vec<VertexId> {
        sw.iter()
            .map(|&v| if v == DEAD { DEAD } else { (v * 7 + 1) % 64 })
            .collect()
    }

    /// An aux lane for `w` (the `prev` of a second-order walk), or none.
    fn aux_lane(w: &[VertexId], with_aux: bool) -> Vec<VertexId> {
        let lane = w.iter().map(|&v| v ^ 0x55);
        lane.take(if with_aux { w.len() } else { 0 }).collect()
    }

    #[test]
    fn lane_passes_match_the_partition_of_model() {
        let (m, outer) = lane_map();
        for shuffler in [Shuffler::single_level(&m), Shuffler::two_level(&m, outer)] {
            for (seed, n) in [(1, 0), (2, 1), (3, 17), (4, 5000)] {
                let w = walkers(seed, n, 64);
                for with_aux in [false, true] {
                    let what = format!("{} levels, seed {seed}, aux {with_aux}", shuffler.levels());
                    let prev = aux_lane(&w, with_aux);
                    let want = model::expected(&m, &w, &prev);
                    let snext = &want.snext;

                    let (mut scratch, mut p) = (ShuffleScratch::default(), NullProbe);
                    let addrs = ShuffleAddrs::default();
                    shuffler.count(&w, &mut scratch, addrs, &mut p);
                    assert_eq!(scratch.offsets, want.offsets, "{what}");
                    let (mut sw, mut sprev) = (vec![0; n], vec![0; prev.len()]);
                    let aux = with_aux.then_some(prev.as_slice());
                    let saux = with_aux.then_some(sprev.as_mut_slice());
                    shuffler.scatter(&w, aux, &mut sw, saux, &mut scratch, addrs, &mut p);
                    assert_eq!((&sw, &sprev), (&want.sw, &want.sprev), "{what}: scatter");

                    let (mut next, mut prev_next) = (vec![0; n], vec![0; prev.len()]);
                    let asrc = with_aux.then_some(sw.as_slice());
                    let anew = with_aux.then_some(prev_next.as_mut_slice());
                    shuffler.gather(
                        &w,
                        snext,
                        &mut next,
                        asrc,
                        anew,
                        &mut scratch,
                        addrs,
                        &mut p,
                    );
                    assert_eq!(next, want.next, "{what}: gather");
                    assert_eq!(prev_next, want.prev_next, "{what}: gather aux");

                    // In place, the lane becomes what `gather` wrote.
                    let mut in_place = vec![0; prev.len()];
                    let anew = with_aux.then_some(in_place.as_mut_slice());
                    shuffler.gather_on(None, None, snext, asrc, anew, &mut scratch, addrs, &mut p);
                    assert_eq!(scratch.lane, next, "{what}: in-place gather");
                    assert_eq!(in_place, prev_next, "{what}: in-place aux");
                    let mut w_next = Vec::new();
                    scratch.swap_lane(&mut w_next);
                    assert_eq!(w_next, next, "{what}: the lane hands over");
                }
            }
        }
    }

    #[test]
    fn parallel_lane_passes_match_the_partition_of_model() {
        let (m, _) = lane_map();
        let s = Shuffler::single_level(&m);
        let pools: Vec<WorkerPool> = [1, 2, 3, 7].into_iter().map(WorkerPool::new).collect();
        // One chunk on this thread, then a chunk per worker.
        for pool in std::iter::once(None).chain(pools.iter().map(Some)) {
            // Fewer walkers than chunks included: idle chunks are empty.
            for (seed, n) in [(5, 0), (6, 2), (7, 5), (8, 4999)] {
                let w = walkers(seed, n, 64);
                for with_aux in [false, true] {
                    let what = format!(
                        "{} chunks, seed {seed}, aux {with_aux}",
                        pool.map_or(1, WorkerPool::threads)
                    );
                    let prev = aux_lane(&w, with_aux);
                    let want = model::expected(&m, &w, &prev);
                    let (mut scratch, mut p) = (ShuffleScratch::default(), NullProbe);
                    let addrs = ShuffleAddrs::default();

                    s.count_on(pool, &w, &mut scratch, addrs, &mut p);
                    assert_eq!(scratch.offsets, want.offsets, "{what}");
                    let (mut sw, mut sprev) = (vec![0; n], vec![0; prev.len()]);
                    let aux = with_aux.then_some(prev.as_slice());
                    let saux = with_aux.then_some(sprev.as_mut_slice());
                    s.scatter_on(pool, &w, aux, &mut sw, saux, &mut scratch, addrs, &mut p);
                    assert_eq!((&sw, &sprev), (&want.sw, &want.sprev), "{what}: scatter");

                    // The benchmark's gather, into a walker array: the
                    // lane keeps its bins for the in-place one after it.
                    let asrc = with_aux.then_some(sw.as_slice());
                    for into_lane in [false, true] {
                        let (mut next, mut prev_next) = (vec![0; n], vec![0; prev.len()]);
                        let out = (!into_lane).then_some(next.as_mut_slice());
                        let anew = with_aux.then_some(prev_next.as_mut_slice());
                        s.gather_on(
                            pool,
                            out,
                            &want.snext,
                            asrc,
                            anew,
                            &mut scratch,
                            addrs,
                            &mut p,
                        );
                        if into_lane {
                            scratch.swap_lane(&mut next);
                        }
                        assert_eq!(next, want.next, "{what}: gather, in place {into_lane}");
                        assert_eq!(prev_next, want.prev_next, "{what}: gather aux");
                    }
                }
            }
        }
    }

    #[test]
    fn two_level_scatter_runs_at_one_chunk() {
        let (m, outer) = lane_map();
        let s = Shuffler::two_level(&m, outer);
        let (w, addrs) = (walkers(10, 300, 64), ShuffleAddrs::default());
        let prev = aux_lane(&w, true);
        let want = model::expected(&m, &w, &prev);
        let pool = WorkerPool::new(2);
        for pool in [None, Some(&pool)] {
            let mut scratch = ShuffleScratch::default();
            s.count_on(pool, &w, &mut scratch, addrs, &mut NullProbe);
            let (mut sw, mut sprev) = (vec![0; w.len()], vec![0; w.len()]);
            let scatter = || {
                let (aux, saux) = (Some(prev.as_slice()), Some(sprev.as_mut_slice()));
                s.scatter_on(
                    pool,
                    &w,
                    aux,
                    &mut sw,
                    saux,
                    &mut scratch,
                    addrs,
                    &mut NullProbe,
                )
            };
            let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(scatter)).is_ok();
            assert_eq!(ran, pool.is_none(), "two levels take one chunk only");
            if ran {
                assert_eq!((&sw, &sprev), (&want.sw, &want.sprev));
            }
        }
    }

    /// Whether a scatter at `pool`'s chunking refuses `scratch`'s lane.
    fn refuses(
        s: &Shuffler,
        w: &[VertexId],
        scratch: &mut ShuffleScratch,
        pool: Option<&WorkerPool>,
    ) -> bool {
        let mut sw = vec![0; w.len()];
        let addrs = ShuffleAddrs::default();
        let scatter = || s.scatter_on(pool, w, None, &mut sw, None, scratch, addrs, &mut NullProbe);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(scatter)).is_err()
    }

    #[test]
    fn parallel_scatter_refuses_a_lane_par_count_did_not_write() {
        // Its writes are disjoint only for the bins a count at the same
        // chunking counted, chunk by chunk.
        let (m, _) = lane_map();
        let s = Shuffler::single_level(&m);
        let (w, addrs) = (walkers(9, 100, 64), ShuffleAddrs::default());
        let (pool2, pool3) = (WorkerPool::new(2), WorkerPool::new(3));
        let (pool2, pool3) = (Some(&pool2), Some(&pool3));
        let mut scratch = ShuffleScratch::default();
        s.count_on(pool2, &w, &mut scratch, addrs, &mut NullProbe);
        assert!(refuses(&s, &w, &mut scratch, pool3), "another pool");
        assert!(!refuses(&s, &w, &mut scratch, pool2), "the counted lane");
        s.gather_on(
            pool2,
            None,
            &w,
            None,
            None,
            &mut scratch,
            addrs,
            &mut NullProbe,
        );
        assert!(
            refuses(&s, &w, &mut scratch, pool2),
            "after an in-place gather"
        );
        s.count(&w, &mut scratch, addrs, &mut NullProbe);
        assert!(
            refuses(&s, &w, &mut scratch, pool2),
            "after a one-chunk count"
        );
    }

    #[test]
    fn one_chunk_scatter_refuses_a_lane_its_count_did_not_write() {
        let (m, _) = lane_map();
        let s = Shuffler::single_level(&m);
        let (w, addrs) = (walkers(11, 100, 64), ShuffleAddrs::default());
        let pool = WorkerPool::new(2);
        let mut scratch = ShuffleScratch::default();
        assert!(refuses(&s, &w, &mut scratch, None), "no count at all");
        s.count(&w, &mut scratch, addrs, &mut NullProbe);
        assert!(!refuses(&s, &w, &mut scratch, None), "the counted lane");
        scratch.swap_lane(&mut w.clone());
        assert!(refuses(&s, &w, &mut scratch, None), "after `swap_lane`");
        s.count_on(Some(&pool), &w, &mut scratch, addrs, &mut NullProbe);
        assert!(refuses(&s, &w, &mut scratch, None), "after a chunked count");
    }
}
