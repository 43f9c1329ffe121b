//! The crash-recovery conformance matrix.
//!
//! The lattice in [`crate::runner`] proves that every engine produces
//! the committed golden digest when nothing goes wrong.  This module
//! proves the stronger robustness claim: **killing a run at any epoch
//! boundary and resuming it from the latest on-disk checkpoint
//! reproduces the same digest, bit for bit.**
//!
//! Every covered cell is a lattice cell, run with the lattice's graph,
//! config and golden row: FlashMob auto/PS/DS, and every walk out of
//! core accepts, the walk programs included (their per-walker origins
//! and early-terminated walkers must survive resume too).  For each,
//! the matrix:
//!
//! 1. runs uninterrupted once to get the reference digest and checks
//!    it against the committed golden row;
//! 2. re-runs with checkpoints every [`CRASH_EVERY`] iterations and a
//!    programmed halt after generation `k`, for every reachable
//!    generation `k` — including the final one, where the walk is
//!    already complete and resume must execute **zero** iterations;
//! 3. resumes each halted run from its checkpoint directory and
//!    demands digest equality with the uninterrupted reference (and,
//!    for FlashMob cells, equality of the exact `RunStats` counts);
//! 4. for FlashMob cells, relays one run through two kills
//!    ([`RELAY`]): the run resumed after the first kill keeps
//!    checkpointing, so its generations must continue the interrupted
//!    run's numbering and leave the generations already on disk alone.
//!
//! Digests fold the full path matrix plus (for FlashMob cells) the
//! per-partition RNG stream ids of every iteration, exactly as the
//! golden lattice does, so a resume that silently re-seeds or replays
//! a partition fails loudly even if the paths happen to look sane.

use std::path::{Path, PathBuf};

use flashmob::{
    load_latest,
    oocore::{run_ooc_with, DiskGraph},
    CheckpointSpec, FaultPolicy, FlashMob, RunOptions, WalkError,
};
use fm_telemetry::Telemetry;

use crate::digest::digest_paths;
use crate::golden;
use crate::runner::{
    cell_config, ooc_temp_path, stream_ids, AlgoKind, EngineKind, LATTICE_STEPS, OOC_BUDGET,
};

/// Fault rate injected into every out-of-core kill/resume run: the
/// reference digest comes from a fault-free run, so digest equality is
/// simultaneously the bit-exact-resume proof and the fault-transparency
/// proof demanded by the retry layer's contract.
pub const CRASH_FAULT_RATE: f64 = 0.15;

/// Seed of the injected fault stream (arbitrary, fixed).
const CRASH_FAULT_SEED: u64 = 7;

/// Checkpoint cadence for the crash matrix.  With [`LATTICE_STEPS`]`
/// = 8` this yields in-memory checkpoints after iterations 2, 4, 6 and
/// 8 — generations 1 through 4, the last of which fires when the walk
/// is already complete (the resume-executes-nothing edge case).  Out of
/// core it counts pair slots.
pub const CRASH_EVERY: usize = 2;

/// The two-kill schedule every FlashMob cell runs after its single
/// kills: halt at generation 1, resume *while checkpointing* and halt
/// again at generation 3, resume to completion.
pub const RELAY: [u64; 2] = [1, 3];

/// Outcome of one (cell, kill-generation) pair.
#[derive(Debug, Clone)]
pub struct CrashCase {
    /// Engine label (golden-table key).
    pub engine: &'static str,
    /// Algorithm / program label (golden-table key).  DeepWalk covers
    /// the stateless path; the program cases exercise per-walker state
    /// (PPR/early-exit origins) and edge labels (metapath) across the
    /// checkpoint boundary.
    pub algo: &'static str,
    /// Thread count of the interrupted run (resume always uses the
    /// same count here; thread invariance is covered by the lattice).
    pub threads: usize,
    /// Checkpoint generations after which the run was killed, in order:
    /// one for a plain kill-and-resume, [`RELAY`] for a relayed run,
    /// none for the out-of-core fault-transparency case.
    pub kills: Vec<u64>,
    /// Whether the resumed digest matched the uninterrupted one.
    pub ok: bool,
    /// Failure detail, empty when `ok`.
    pub detail: String,
}

/// The full crash-matrix report.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Every (cell, kill point) pair, in sweep order.
    pub cases: Vec<CrashCase>,
}

impl CrashCase {
    fn new(engine: &'static str, algo: &'static str, threads: usize, kills: &[u64]) -> Self {
        Self {
            engine,
            algo,
            threads,
            kills: kills.to_vec(),
            ok: true,
            detail: String::new(),
        }
    }
}

impl CrashReport {
    /// All failing cases.
    pub fn failures(&self) -> Vec<&CrashCase> {
        self.cases.iter().filter(|c| !c.ok).collect()
    }

    /// Whether every case passed.
    pub fn all_ok(&self) -> bool {
        self.cases.iter().all(|c| c.ok)
    }
}

/// Unique checkpoint directory per (cell, kill schedule) so concurrent
/// test processes never share state.
fn crash_dir(label: &str, threads: usize, kills: &[u64]) -> PathBuf {
    std::env::temp_dir().join(format!(
        "fm-crash-{}-{label}-t{threads}-g{kills:?}",
        std::process::id()
    ))
}

/// Every snapshot file in `dir` with its bytes, in name order.
fn snapshot_files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "fmck"))
        .map(|path| {
            let bytes = std::fs::read(&path).unwrap_or_default();
            (path, bytes)
        })
        .collect();
    files.sort();
    files
}

fn fail(case: &mut CrashCase, detail: String) {
    case.ok = false;
    case.detail = detail;
}

/// Runs kill-and-resume at every generation, then the [`RELAY`], for
/// one direct FlashMob lattice cell and appends one case per kill
/// schedule to `out`.
fn crash_flashmob(engine: EngineKind, walk: AlgoKind, threads: usize, out: &mut Vec<CrashCase>) {
    let algo = walk.label();
    let setup_fail = |out: &mut Vec<CrashCase>, detail: String| {
        let mut case = CrashCase::new(engine.label(), algo, threads, &[]);
        fail(&mut case, detail);
        out.push(case);
    };
    let fm = match FlashMob::new(&walk.graph(), cell_config(engine, walk, threads, None)) {
        Ok(fm) => fm,
        Err(e) => return setup_fail(out, format!("engine construction failed: {e}")),
    };
    let stream_ids = stream_ids(&fm);

    // Uninterrupted reference, checked against the golden table.
    let (reference, want) = match fm.run_with_stats() {
        Ok((output, stats)) => (digest_paths(&output.paths(), &stream_ids), stats),
        Err(e) => return setup_fail(out, format!("uninterrupted run failed: {e}")),
    };
    if let Some(golden) = golden::lookup(engine.label(), algo, threads) {
        if reference != golden {
            return setup_fail(
                out,
                format!("uninterrupted digest {reference:#018x} != golden {golden:#018x}"),
            );
        }
    }

    let generations = (LATTICE_STEPS / CRASH_EVERY) as u64;
    let mut schedules: Vec<Vec<u64>> = (1..=generations).map(|k| vec![k]).collect();
    schedules.push(RELAY.to_vec());
    for kills in schedules {
        let mut case = CrashCase::new(engine.label(), algo, threads, &kills);
        let dir = crash_dir(&format!("{}-{algo}", engine.label()), threads, &kills);
        std::fs::remove_dir_all(&dir).ok();
        // The snapshot files the kills so far left behind: a later leg
        // continues the numbering, so it must leave them as they are.
        let mut written = Vec::new();
        for (leg, &k) in kills.iter().enumerate() {
            let spec = CheckpointSpec::new(&dir, CRASH_EVERY).halt_after(k);
            let mut opts = RunOptions::default().checkpoint(spec);
            if leg > 0 {
                opts = opts.resume_from(&dir);
            }
            match fm.run_with(&opts, &mut Telemetry::off()) {
                Err(WalkError::Halted { generation }) if generation == k => {}
                Err(e) => fail(&mut case, format!("expected halt at generation {k}, got {e}")),
                Ok(_) => fail(
                    &mut case,
                    format!("run completed instead of halting at generation {k}"),
                ),
            }
            if !case.ok {
                break;
            }
            // Generations count absolute iterations, resumed or not.
            match load_latest(&dir) {
                Ok((g, snap)) if g == k && snap.iter_next == k * CRASH_EVERY as u64 => {}
                Ok((g, snap)) => fail(
                    &mut case,
                    format!("kill {k} left generation {g} at iteration {}", snap.iter_next),
                ),
                Err(e) => fail(&mut case, format!("kill {k} left no snapshot: {e}")),
            }
            let now = snapshot_files(&dir);
            if !written.iter().all(|file| now.contains(file)) {
                fail(&mut case, format!("the leg killed at {k} rewrote an earlier generation"));
            }
            written = now;
        }
        if case.ok {
            let resume = RunOptions::default().resume_from(&dir);
            match fm.run_with(&resume, &mut Telemetry::off()) {
                Ok((output, stats)) => {
                    let got = digest_paths(&output.paths(), &stream_ids);
                    if got != reference {
                        fail(
                            &mut case,
                            format!(
                                "resumed digest {got:#018x} != uninterrupted {reference:#018x}"
                            ),
                        );
                    } else if (stats.steps_taken, &stats.per_partition_steps, &stats.visits_sorted)
                        != (want.steps_taken, &want.per_partition_steps, &want.visits_sorted)
                    {
                        fail(&mut case, "resumed step counts differ from uninterrupted".into());
                    }
                }
                Err(e) => fail(&mut case, format!("resume failed: {e}")),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        out.push(case);
    }
}

/// Runs kill-and-resume at every generation for one out-of-core cell,
/// with transient faults injected at [`CRASH_FAULT_RATE`] into every
/// disk-graph read of the interrupted *and* resumed runs.
///
/// The reference digest comes from a fault-free uninterrupted run
/// (pinned to the cell's golden row), so digest
/// equality simultaneously proves bit-exact resume and fault
/// transparency.  The first case is a dedicated no-kill transparency
/// case that also demands the retry layer actually absorbed something.
///
/// Kill generations are discovered by running checkpointed but
/// uninterrupted once and reading back the final on-disk generation:
/// the bi-block scheduler checkpoints on a pair-slot cadence, so the
/// count is not a simple function of [`LATTICE_STEPS`].  The final
/// generation is always written at completion, so `k = G` is the
/// resume-after-complete case in every cell.
fn crash_oocore_cell(walk: AlgoKind, out: &mut Vec<CrashCase>) {
    let (label, algo) = (EngineKind::OutOfCore.label(), walk.label());
    let config = &cell_config(EngineKind::OutOfCore, walk, 1, None);
    let budget = OOC_BUDGET;
    let fault = FaultPolicy::transient(CRASH_FAULT_SEED, CRASH_FAULT_RATE);
    let graph = walk.graph();
    let setup_fail = |out: &mut Vec<CrashCase>, detail: String| {
        let mut case = CrashCase::new(label, algo, 1, &[]);
        fail(&mut case, detail);
        out.push(case);
    };
    let path = ooc_temp_path();
    let disk = match DiskGraph::create(&graph, &path) {
        Ok(d) => d,
        Err(e) => {
            setup_fail(out, format!("disk graph creation failed: {e}"));
            return;
        }
    };

    let reference = match run_ooc_with(
        &disk,
        config,
        budget,
        &RunOptions::default(),
        &mut Telemetry::off(),
    ) {
        Ok((output, _)) => digest_paths(&output.paths(), &[]),
        Err(e) => {
            std::fs::remove_file(&path).ok();
            setup_fail(out, format!("uninterrupted run failed: {e}"));
            return;
        }
    };
    if let Some(want) = golden::lookup(label, algo, 1) {
        if reference != want {
            std::fs::remove_file(&path).ok();
            setup_fail(
                out,
                format!("uninterrupted digest {reference:#018x} != golden {want:#018x}"),
            );
            return;
        }
    }

    // No kill: the pure fault-transparency case.
    {
        let mut case = CrashCase::new(label, algo, 1, &[]);
        match run_ooc_with(
            &disk,
            config,
            budget,
            &RunOptions::default().fault(fault),
            &mut Telemetry::off(),
        ) {
            Ok((output, stats)) => {
                let got = digest_paths(&output.paths(), &[]);
                if got != reference {
                    fail(
                        &mut case,
                        format!("faulty digest {got:#018x} != clean {reference:#018x}"),
                    );
                } else if stats.io_retries == 0 {
                    fail(
                        &mut case,
                        "fault injection absorbed zero retries — rate misconfigured".into(),
                    );
                }
            }
            Err(e) => fail(&mut case, format!("faulty run failed: {e}")),
        }
        out.push(case);
    }

    // Discover the generation count from an uninterrupted checkpointed
    // run rather than deriving it from the schedule shape.
    let discover_dir = crash_dir(&format!("{label}-{algo}-discover"), 1, &[]);
    std::fs::remove_dir_all(&discover_dir).ok();
    let discovered = run_ooc_with(
        &disk,
        config,
        budget,
        &RunOptions::default().checkpoint(CheckpointSpec::new(&discover_dir, CRASH_EVERY)),
        &mut Telemetry::off(),
    )
    .map_err(|e| format!("checkpointed run failed: {e}"))
    .and_then(|_| {
        load_latest(&discover_dir)
            .map(|(generation, _)| generation)
            .map_err(|e| format!("generation discovery failed: {e}"))
    });
    std::fs::remove_dir_all(&discover_dir).ok();
    let generations = match discovered {
        Ok(g) => g,
        Err(detail) => {
            std::fs::remove_file(&path).ok();
            setup_fail(out, detail);
            return;
        }
    };

    for k in 1..=generations {
        let mut case = CrashCase::new(label, algo, 1, &[k]);
        let dir = crash_dir(&format!("{label}-{algo}"), 1, &[k]);
        std::fs::remove_dir_all(&dir).ok();
        let spec = CheckpointSpec::new(&dir, CRASH_EVERY).halt_after(k);
        let kill = run_ooc_with(
            &disk,
            config,
            budget,
            &RunOptions::default().checkpoint(spec).fault(fault),
            &mut Telemetry::off(),
        );
        match kill {
            Err(WalkError::Halted { generation }) if generation == k => {}
            Err(e) => fail(&mut case, format!("expected halt at generation {k}, got {e}")),
            Ok(_) => fail(
                &mut case,
                format!("run completed instead of halting at generation {k}"),
            ),
        }
        if case.ok {
            let resumed = run_ooc_with(
                &disk,
                config,
                budget,
                &RunOptions::default().resume_from(&dir).fault(fault),
                &mut Telemetry::off(),
            );
            match resumed {
                Ok((output, _)) => {
                    let got = digest_paths(&output.paths(), &[]);
                    if got != reference {
                        fail(
                            &mut case,
                            format!(
                                "resumed digest {got:#018x} != uninterrupted {reference:#018x}"
                            ),
                        );
                    }
                }
                Err(e) => fail(&mut case, format!("resume failed: {e}")),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        out.push(case);
    }
    std::fs::remove_file(&path).ok();
}

/// Runs the crash matrix.
///
/// `full` sweeps every walk but weighted on FlashMob auto/PS/DS at 1, 3
/// and 8 threads; the quick tier keeps the auto plan at 1 thread and
/// the walks with per-walker state (node2vec's predecessor, PPR's and
/// early exit's origin), which must round-trip the checkpoint boundary
/// in every CI run (every kill schedule in both tiers).  Both tiers
/// then run every walk out of core accepts — on the bi-block pair-slot
/// cadence, with parked-walker buffers and the schedule cursor crossing
/// the snapshot boundary.
pub fn run_crash_matrix(full: bool) -> CrashReport {
    use AlgoKind::{DeepWalk, EarlyExit, Metapath, Node2Vec, Ppr};
    let mut cases = Vec::new();
    let engines = [
        EngineKind::FlashMobAuto,
        EngineKind::FlashMobPs,
        EngineKind::FlashMobDs,
    ];
    let threads: &[usize] = if full { &[1, 3, 8] } else { &[1] };
    let engines: &[EngineKind] = if full { &engines } else { &engines[..1] };
    let walks: &[AlgoKind] = if full {
        &[DeepWalk, Node2Vec, Ppr, EarlyExit, Metapath]
    } else {
        &[DeepWalk, Node2Vec, Ppr, EarlyExit]
    };
    for &walk in walks {
        for &engine in engines {
            for &t in threads {
                crash_flashmob(engine, walk, t, &mut cases);
            }
        }
    }
    for walk in AlgoKind::ALL {
        if EngineKind::OutOfCore.skip_reason(walk, 1).is_none() {
            crash_oocore_cell(walk, &mut cases);
        }
    }
    CrashReport { cases }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_crash_matrix_is_bit_exact() {
        let report = run_crash_matrix(false);
        let failures: Vec<String> = report
            .failures()
            .iter()
            .map(|c| {
                format!(
                    "{} {} t={} kills={:?}: {}",
                    c.engine, c.algo, c.threads, c.kills, c.detail
                )
            })
            .collect();
        assert!(report.all_ok(), "crash matrix failures:\n{}", failures.join("\n"));
        // deepwalk, node2vec, ppr and early-exit on auto@1 have 4 kill
        // points and the relay each.
        let fm = report.cases.iter().filter(|c| c.engine != "oocore").count();
        assert_eq!(fm, 20);
        let relays = report.cases.iter().filter(|c| c.kills == RELAY).count();
        assert_eq!(relays, 4);
        // Each oocore cell contributes a no-kill fault-transparency
        // case plus one kill point per discovered generation; the
        // pair-slot cadence is schedule-shaped, so only a floor is
        // asserted — including the resume-after-complete final
        // generation.
        let ooc = |algo: &str| {
            report
                .cases
                .iter()
                .filter(|c| c.engine == "oocore" && c.algo == algo)
                .count()
        };
        assert!(ooc("deepwalk") >= 3, "deepwalk cells: {}", ooc("deepwalk"));
        assert!(ooc("node2vec") >= 3, "node2vec cells: {}", ooc("node2vec"));
        assert!(ooc("ppr") >= 3, "ppr cells: {}", ooc("ppr"));
    }
}
