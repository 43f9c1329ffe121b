//! Output checks.  All of them run outside timed intervals.

use flashmob::WalkOutput;
use fm_graph::relabel::Relabeling;
use fm_graph::Csr;

/// FNV-1a over every recorded position, row by row (engine-internal
/// ids: any change to the walk or to the relabeling changes it).
pub fn digest(output: &WalkOutput) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for row in output.raw_steps() {
        hash = (hash ^ row.len() as u64).wrapping_mul(0x0000_0100_0000_01b3);
        for &v in row {
            hash = (hash ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Counts pass/fail of the checks of one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one attempted operation; a failed one is printed.
    pub fn record(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                println!("FAILED {what}: {e}");
                false
            }
        }
    }

    /// Records an operation the rest of the run depends on and hands
    /// back what it produced; `None` (with the failure recorded) ends
    /// the run.
    pub fn require<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        match result {
            Ok(value) => {
                self.record(what, Ok(()));
                Some(value)
            }
            Err(e) => {
                self.record(what, Err(e.to_string()));
                None
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// `Ok` when a digest is the expected one.
pub fn same_digest(got: u64, expected: u64, of: &str) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("digest {got:#018x}, {of} {expected:#018x}"))
    }
}

/// The fixed-length walks of this benchmark never terminate early: the
/// output holds `steps + 1` rows of `walkers` positions and the engine
/// counted exactly `walkers × steps` live steps.
pub fn shape(
    output: &WalkOutput,
    steps_taken: u64,
    walkers: usize,
    steps: usize,
) -> Result<(), String> {
    if output.walker_count() != walkers || output.step_count() != steps {
        return Err(format!(
            "output is {} walkers × {} steps, expected {walkers} × {steps}",
            output.walker_count(),
            output.step_count()
        ));
    }
    if let Some(row) = output.raw_steps().iter().find(|r| r.len() != walkers) {
        return Err(format!(
            "a step row holds {} positions, expected {walkers}",
            row.len()
        ));
    }
    if steps_taken != (walkers * steps) as u64 {
        return Err(format!(
            "engine counted {steps_taken} steps, expected {}",
            walkers * steps
        ));
    }
    Ok(())
}

/// Every hop of every hundredth walker must be an edge of the input
/// graph, in the input's own vertex ids.  `relabel` overrides the
/// output's relabeling (an FMDISK1 file reopened from disk knows only
/// sorted ids; the relabeling comes from the handle that wrote it).
pub fn hops(input: &Csr, output: &WalkOutput, relabel: Option<&Relabeling>) -> Result<(), String> {
    let relabel = relabel.unwrap_or_else(|| output.relabeling());
    let rows = output.raw_steps();
    for walker in (0..output.walker_count()).step_by(100) {
        for (step, pair) in rows.windows(2).enumerate() {
            let (from, to) = (pair[0][walker], pair[1][walker]);
            if from.max(to) as usize >= relabel.len() {
                return Err(format!(
                    "walker {walker} step {step}: position out of range"
                ));
            }
            let (from, to) = (relabel.to_old(from), relabel.to_old(to));
            if !input.neighbors(from).contains(&to) {
                return Err(format!(
                    "walker {walker} step {step}: {from} -> {to} is not an edge of the input"
                ));
            }
        }
    }
    Ok(())
}

/// `WalkOutput::paths()` as materialised by the text workload: one path
/// per walker, `steps + 1` vertices each.
pub fn paths_shape(paths: &[Vec<u32>], walkers: usize, steps: usize) -> Result<(), String> {
    if paths.len() != walkers {
        return Err(format!("{} paths, expected {walkers}", paths.len()));
    }
    match paths.iter().position(|p| p.len() != steps + 1) {
        Some(i) => Err(format!(
            "path {i} has {} vertices, expected {}",
            paths[i].len(),
            steps + 1
        )),
        None => Ok(()),
    }
}
