//! Walk results: the step matrix, per-walker paths, and edge streaming.
//!
//! At the end of an `n`-step walk the engine holds `n + 1` `W_i` arrays,
//! together storing the entire walk history (paper Section 4.3, "Random
//! walk paths output").  Transposing yields per-walker paths; streaming
//! the consecutive pairs `<W_i[j], W_{i+1}[j]>` feeds an embedding
//! trainer without materializing the transpose.

use std::sync::Arc;

use fm_graph::{relabel::Relabeling, VertexId};

use crate::DEAD;

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
    /// Walker-major: each path is filled by reading the walker's column
    /// down the step rows, so one destination vector is hot at a time
    /// and the reads are `steps + 1` sequential streams.
    pub fn paths(&self) -> Vec<Vec<VertexId>> {
        (0..self.walkers)
            .map(|j| {
                let mut path = Vec::with_capacity(self.steps.len());
                path.extend(
                    self.steps
                        .iter()
                        .map(|row| row[j])
                        .filter(|&v| v != DEAD)
                        .map(|v| self.relabel.to_old(v)),
                );
                path
            })
            .collect()
    }

    /// The location of walker `j` after step `i` (step 0 = start), in
    /// original IDs; `None` once the walker has terminated.
    pub fn position(&self, walker: usize, step: usize) -> Option<VertexId> {
        let v = *self.steps.get(step)?.get(walker)?;
        (v != DEAD).then(|| self.relabel.to_old(v))
    }

    /// Streams every sampled edge `(from, to)` in original IDs to `f` —
    /// the pairs a GPU embedding trainer would consume.
    pub fn for_each_edge<F: FnMut(VertexId, VertexId)>(&self, mut f: F) {
        for w in self.steps.windows(2) {
            for (&a, &b) in w[0].iter().zip(&w[1]) {
                if a != DEAD && b != DEAD {
                    f(self.relabel.to_old(a), self.relabel.to_old(b));
                }
            }
        }
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

    /// `paths()` as it was: every row streamed across all the path
    /// vectors.  The walker-major gather must return the same paths.
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

    #[test]
    fn paths_equal_the_row_major_model() {
        use fm_rng::{Rng64, Xorshift64Star};
        let g = fm_graph::synth::power_law(64, 2.0, 1, 20, 3);
        let relabel = Arc::new(Relabeling::by_descending_degree(&g));
        let mut rng = Xorshift64Star::new(8);
        for (walkers, rows) in [(1, 1), (1, 9), (7, 1), (33, 6), (200, 13)] {
            // Walkers die at a random row and stay dead, a few are dead
            // from the start, and some never die.
            let death: Vec<usize> = (0..walkers).map(|_| rng.gen_index(2 * rows)).collect();
            let steps: Vec<Vec<VertexId>> = (0..rows)
                .map(|i| {
                    (0..walkers)
                        .map(|j| match i < death[j] {
                            true => rng.gen_index(64) as VertexId,
                            false => DEAD,
                        })
                        .collect()
                })
                .collect();
            let out = WalkOutput::new(steps, walkers, Arc::clone(&relabel));
            assert_eq!(out.paths(), row_major_paths(&out), "{walkers} x {rows}");
        }
    }

    #[test]
    fn edge_stream_skips_dead_transitions() {
        let out = identity_output(vec![vec![0, 1], vec![2, DEAD]]);
        let mut edges = Vec::new();
        out.for_each_edge(|a, b| edges.push((a, b)));
        assert_eq!(edges, vec![(0, 2)]);
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
