//! Walk results: the step matrix, per-walker paths, and edge streaming.
//!
//! At the end of an `n`-step walk the engine holds `n + 1` `W_i` arrays,
//! together storing the entire walk history (paper Section 4.3, "Random
//! walk paths output").  Transposing yields per-walker paths, a block of
//! walkers at a time: every row's slice of the block is translated back
//! to original IDs into one reused scratch, whose independent table
//! reads overlap their misses, and each walker then copies out its own
//! column.  Streaming the consecutive pairs `<W_i[j], W_{i+1}[j]>` feeds
//! an embedding trainer without materializing the transpose.

use std::sync::Arc;

use fm_graph::{relabel::Relabeling, VertexId};

use crate::DEAD;

/// Bound on [`WalkOutput::paths`]'s scratch, in IDs: 256 KiB.
const PATHS_SCRATCH_IDS: usize = (256 << 10) / std::mem::size_of::<VertexId>();

/// Walkers per [`WalkOutput::paths`] block over `rows` step rows.
fn paths_block(rows: usize) -> usize {
    (PATHS_SCRATCH_IDS / rows).max(1)
}

/// The recorded output of one walk execution.
///
/// All stored IDs are in the engine's internal degree-sorted space; the
/// accessors translate back to the caller's original vertex IDs through
/// the relabeling.
#[derive(Debug, Clone)]
pub struct WalkOutput {
    /// `steps[i][j]` = location of walker `j` after step `i` (row 0 is
    /// the initial placement); [`DEAD`] marks terminated walkers.
    steps: Vec<Vec<VertexId>>,
    walkers: usize,
    /// Shared with the engine that produced the output: an episode
    /// hands out a reference count, not a copy of two `|V|`-word maps.
    relabel: Arc<Relabeling>,
}

impl WalkOutput {
    /// Assembles an output from recorded step rows.
    ///
    /// Mainly for engines (FlashMob itself and the baseline crate);
    /// `steps[i]` must hold every walker's location after step `i`, in
    /// the ID space that `relabel` maps back to original IDs.  Engines
    /// pass a clone of the `Arc` they hold; a bare [`Relabeling`] is
    /// accepted too.
    pub fn new(
        steps: Vec<Vec<VertexId>>,
        walkers: usize,
        relabel: impl Into<Arc<Relabeling>>,
    ) -> Self {
        debug_assert!(steps.iter().all(|row| row.len() == walkers));
        Self {
            steps,
            walkers,
            relabel: relabel.into(),
        }
    }

    /// Number of walkers.
    pub fn walker_count(&self) -> usize {
        self.walkers
    }

    /// Number of steps taken (excluding the initial placement row).
    pub fn step_count(&self) -> usize {
        self.steps.len().saturating_sub(1)
    }

    /// Per-walker paths in original vertex IDs, truncated at termination.
    ///
    /// Two loops per block of walkers.  The first reads the block's
    /// entries of every step row in order and writes each entry,
    /// translated through the relabeling, into its walker's column of
    /// one reused scratch; the table reads do not depend on each other,
    /// so their cache misses overlap.  The second hands each walker its
    /// column, copied whole unless the block holds a [`DEAD`] entry, in
    /// which case the dead entries are filtered out.  The block is sized
    /// from the row count so the scratch stays within 256 KiB (one
    /// column, if a single path is longer).
    pub fn paths(&self) -> Vec<Vec<VertexId>> {
        let rows = self.steps.len();
        if rows == 0 {
            return vec![Vec::new(); self.walkers];
        }
        let block = paths_block(rows);
        let mut scratch = vec![0; block.min(self.walkers) * rows];
        let mut paths = Vec::with_capacity(self.walkers);
        for start in (0..self.walkers).step_by(block) {
            let end = (start + block).min(self.walkers);
            let columns = &mut scratch[..(end - start) * rows];
            let mut dead = false;
            for (i, row) in self.steps.iter().enumerate() {
                let slots = columns[i..].iter_mut().step_by(rows);
                for (slot, &v) in slots.zip(&row[start..end]) {
                    *slot = if v == DEAD {
                        dead = true;
                        DEAD
                    } else {
                        self.relabel.to_old(v)
                    };
                }
            }
            paths.extend(columns.chunks_exact(rows).map(|column| match dead {
                false => column.to_vec(),
                true => {
                    let mut path = Vec::with_capacity(rows);
                    path.extend(column.iter().copied().filter(|&v| v != DEAD));
                    path
                }
            }));
        }
        paths
    }

    /// The location of walker `j` after step `i` (step 0 = start), in
    /// original IDs; `None` once the walker has terminated.
    pub fn position(&self, walker: usize, step: usize) -> Option<VertexId> {
        let v = *self.steps.get(step)?.get(walker)?;
        (v != DEAD).then(|| self.relabel.to_old(v))
    }

    /// Counts visits per original vertex over the whole history
    /// (including the initial placement), i.e. how many walker-steps
    /// departed from each vertex.
    pub fn visit_counts(&self, vertex_count: usize) -> Vec<u64> {
        let mut counts = vec![0u64; vertex_count];
        // Count every position a walker sampled FROM: all rows except
        // the last (walkers do not sample from their final position).
        for row in &self.steps[..self.steps.len().saturating_sub(1)] {
            for &v in row {
                if v != DEAD {
                    counts[self.relabel.to_old(v) as usize] += 1;
                }
            }
        }
        counts
    }

    /// Raw step rows in the internal sorted ID space (benchmarks and
    /// tests that want zero-copy access).
    pub fn raw_steps(&self) -> &[Vec<VertexId>] {
        &self.steps
    }

    /// The vertex relabeling used by this run.
    pub fn relabeling(&self) -> &Relabeling {
        &self.relabel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_output(rows: Vec<Vec<VertexId>>) -> WalkOutput {
        let walkers = rows[0].len();
        let max = rows
            .iter()
            .flatten()
            .filter(|&&v| v != DEAD)
            .max()
            .copied()
            .unwrap_or(0);
        WalkOutput::new(rows, walkers, Relabeling::identity(max as usize + 1))
    }

    #[test]
    fn paths_transpose_rows() {
        let out = identity_output(vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert_eq!(out.paths(), vec![vec![0, 2, 4], vec![1, 3, 5]]);
        assert_eq!(out.step_count(), 2);
    }

    #[test]
    fn dead_walkers_truncate_paths() {
        let out = identity_output(vec![vec![0, 1], vec![2, DEAD], vec![4, DEAD]]);
        assert_eq!(out.paths(), vec![vec![0, 2, 4], vec![1]]);
        assert_eq!(out.position(1, 1), None);
        assert_eq!(out.position(1, 0), Some(1));
    }

    /// `paths()` as it once was: every row streamed across all the path
    /// vectors.  The block transpose must return the same paths.
    fn row_major_paths(out: &WalkOutput) -> Vec<Vec<VertexId>> {
        let mut paths = vec![Vec::new(); out.walkers];
        for row in &out.steps {
            for (j, &v) in row.iter().enumerate() {
                if v != DEAD {
                    paths[j].push(out.relabel.to_old(v));
                }
            }
        }
        paths
    }

    /// `rows` step rows of `death.len()` walkers on 64 vertices: walker
    /// `j` is at a random vertex before row `death[j]` and dead from it on.
    fn steps_dying_at(
        rng: &mut impl fm_rng::Rng64,
        death: &[usize],
        rows: usize,
    ) -> Vec<Vec<VertexId>> {
        (0..rows)
            .map(|i| {
                death
                    .iter()
                    .map(|&d| match i < d {
                        true => rng.gen_index(64) as VertexId,
                        false => DEAD,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn paths_equal_the_row_major_model() {
        use fm_rng::{Rng64, Xorshift64Star};
        let g = fm_graph::synth::power_law(64, 2.0, 1, 20, 3);
        let relabel = Arc::new(Relabeling::by_descending_degree(&g));
        let mut rng = Xorshift64Star::new(8);
        let check = |rng: &mut Xorshift64Star, death: &[usize], rows: usize, what: &str| {
            let steps = steps_dying_at(rng, death, rows);
            let out = WalkOutput::new(steps, death.len(), Arc::clone(&relabel));
            assert_eq!(
                out.paths(),
                row_major_paths(&out),
                "{what}: {} x {rows}",
                death.len()
            );
        };
        let mut cases: Vec<(usize, usize)> = vec![(1, 1), (1, 9), (7, 1), (33, 6), (200, 13)];
        // Walker counts at the block edges, for one row, a few, and the
        // 81 of an 80-step walk.
        for rows in [1, 6, 81] {
            let block = paths_block(rows);
            cases.extend([block - 1, block, block + 1, 2 * block + 3].map(|w| (w, rows)));
        }
        for (walkers, rows) in cases {
            // Walkers die at a random row and stay dead, a few are dead
            // from the start, and some never die.
            let death: Vec<usize> = (0..walkers).map(|_| rng.gen_index(2 * rows)).collect();
            check(&mut rng, &death, rows, "random deaths");
        }
        for rows in [1, 6, 81] {
            let block = paths_block(rows);
            let walkers = 2 * block + 3;
            // One walker dies, in the short last block; the full blocks
            // before it are DEAD-free.
            let mut death = vec![rows; walkers];
            death[walkers - 2] = rows / 2;
            check(&mut rng, &death, rows, "dead in the last block");
            // A dead walker in the middle block only: DEAD-free blocks
            // on both sides of it.
            let mut death = vec![rows; walkers];
            death[block + block / 2] = rows - 1;
            check(&mut rng, &death, rows, "dead in the middle block");
        }
    }

    #[test]
    fn paths_of_empty_outputs() {
        let relabel = Arc::new(Relabeling::identity(4));
        let no_rows = WalkOutput::new(vec![], 3, Arc::clone(&relabel));
        assert_eq!(no_rows.paths(), vec![Vec::<VertexId>::new(); 3]);
        let no_walkers = WalkOutput::new(vec![vec![]; 5], 0, Arc::clone(&relabel));
        assert!(no_walkers.paths().is_empty());
        let neither = WalkOutput::new(vec![], 0, relabel);
        assert!(neither.paths().is_empty());
    }

    #[test]
    fn visit_counts_exclude_final_positions() {
        let out = identity_output(vec![vec![0, 0], vec![1, 2]]);
        let counts = out.visit_counts(3);
        // Both walkers sampled from vertex 0; nothing sampled from 1/2.
        assert_eq!(counts, vec![2, 0, 0]);
    }

    #[test]
    fn relabeling_translates_ids() {
        // Internal 0 <-> original 1 swap.
        let g = fm_graph::Csr::from_edges(2, &[(0, 1), (1, 0), (1, 0)]).unwrap();
        let relabel = fm_graph::relabel::Relabeling::by_descending_degree(&g);
        assert_eq!(relabel.to_old(0), 1);
        let out = WalkOutput::new(vec![vec![0], vec![1]], 1, relabel);
        assert_eq!(out.paths(), vec![vec![1, 0]]);
    }
}
