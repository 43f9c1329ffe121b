//! The crash-recovery conformance matrix.
//!
//! The lattice in [`crate::runner`] proves that every engine produces
//! the committed golden digest when nothing goes wrong.  This module
//! proves the stronger claim: **killing a run at any checkpoint
//! generation and resuming it from the latest on-disk checkpoint
//! reproduces the same digest, bit for bit, under injected IO faults.**
//!
//! The cells are lattice cells, with the lattice's graph, config and
//! golden row: FlashMob auto/PS/DS, and every walk out of core accepts,
//! the walk programs included (their per-walker origins and early
//! deaths must survive resume too).  Both engines checkpoint through one
//! protocol, so one harness, [`crash_cell`], drives every cell through
//! its run closure (the steps are listed in DESIGN §8, "Proof").
//! In-memory digests fold the path matrix plus the per-partition RNG
//! stream ids of every iteration, as the golden lattice does, so a
//! resume that silently re-seeds or replays a partition fails loudly.

use std::path::{Path, PathBuf};

use flashmob::{
    load_latest,
    oocore::{run_ooc_with, DiskGraph},
    CheckpointSpec, FaultPolicy, FlashMob, RunOptions, WalkError,
};
use fm_telemetry::Telemetry;

use crate::digest::digest_paths;
use crate::golden;
use crate::runner::{cell_config, ooc_temp_path, stream_ids, AlgoKind, EngineKind, OOC_BUDGET};

/// Fault rate injected into every IO of every checkpointed run of the
/// matrix: block reads out of core, checkpoint writes in both engines.
/// The reference digest comes from a fault-free run, so digest equality
/// is the bit-exact-resume and the fault-transparency proof at once.
pub const CRASH_FAULT_RATE: f64 = 0.15;

/// Seed of the injected fault stream (arbitrary, fixed).
const CRASH_FAULT_SEED: u64 = 7;

/// Checkpoint cadence for the crash matrix: iterations in memory, where
/// a walk that runs all [`crate::runner::LATTICE_STEPS`]` = 8` writes
/// generations 1 to 4, the last holding the finished walk; pair slots
/// out of core.
pub const CRASH_EVERY: usize = 2;

/// The two-kill schedule every cell with at least three generations
/// runs after its single kills: halt at generation 1, resume *while
/// checkpointing* and halt again at generation 3, resume to completion.
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
    /// none for the no-kill fault-transparency case.
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

    /// A case that failed before any kill.
    fn failed(engine: &'static str, algo: &'static str, threads: usize, detail: String) -> Self {
        let mut case = Self::new(engine, algo, threads, &[]);
        fail(&mut case, detail);
        case
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

/// What a cell's run yields for comparison: the digest of its paths,
/// and its step counts — `steps_taken`, then the per-partition steps and
/// visit counters where the engine records them (empty otherwise).
type Ran = (u64, (u64, Vec<u64>, Option<Vec<u64>>));

/// Runs the no-kill fault case, a kill at every generation and the
/// [`RELAY`] for one lattice cell whose run under given options is
/// `run_leg`, appending one case per kill schedule to `out`.
fn crash_cell(
    engine: &'static str,
    algo: &'static str,
    threads: usize,
    run_leg: impl Fn(&RunOptions, &mut Telemetry) -> Result<Ran, WalkError>,
    out: &mut Vec<CrashCase>,
) {
    let fault = FaultPolicy::transient(CRASH_FAULT_SEED, CRASH_FAULT_RATE);
    let checkpointed = |dir: &Path, halt_after: Option<u64>| RunOptions {
        checkpoint: Some(CheckpointSpec {
            halt_after,
            ..CheckpointSpec::new(dir, CRASH_EVERY)
        }),
        resume_from: None,
        fault: Some(fault),
    };
    let failed = |detail| CrashCase::failed(engine, algo, threads, detail);

    // Uninterrupted reference, checked against the golden table.
    let (reference, want) = match run_leg(&RunOptions::default(), &mut Telemetry::off()) {
        Ok(ran) => ran,
        Err(e) => return out.push(failed(format!("uninterrupted run failed: {e}"))),
    };
    if let Some(golden) = golden::lookup(engine, algo, threads) {
        if reference != golden {
            let detail = format!("uninterrupted digest {reference:#018x} != golden {golden:#018x}");
            return out.push(failed(detail));
        }
    }
    // Compares a run that finished the walk with the reference.
    let compare = |case: &mut CrashCase, what: &str, ran: Result<Ran, WalkError>| match ran {
        Ok((got, _)) if got != reference => fail(
            case,
            format!("{what} digest {got:#018x} != uninterrupted {reference:#018x}"),
        ),
        Ok((_, counts)) if counts != want => fail(
            case,
            format!("{what} step counts differ from uninterrupted"),
        ),
        Ok(_) => {}
        Err(e) => fail(case, format!("{what} run failed: {e}")),
    };

    // No kill: fault transparency, and the generation count.
    let mut case = CrashCase::new(engine, algo, threads, &[]);
    let dir = crash_dir(&format!("{engine}-{algo}"), threads, &[]);
    std::fs::remove_dir_all(&dir).ok();
    let mut tel = Telemetry::new();
    compare(
        &mut case,
        "faulty",
        run_leg(&checkpointed(&dir, None), &mut tel),
    );
    if case.ok && tel.io_retries() == 0 {
        fail(&mut case, "fault injection absorbed zero retries".into());
    }
    let generations = load_latest(&dir).map(|(generation, _)| generation);
    std::fs::remove_dir_all(&dir).ok();
    out.push(case);
    let generations = match generations {
        Ok(g) => g,
        Err(e) => return out.push(failed(format!("generation discovery failed: {e}"))),
    };

    let mut schedules: Vec<Vec<u64>> = (1..=generations).map(|k| vec![k]).collect();
    if generations >= 3 {
        schedules.push(RELAY.to_vec());
    }
    for kills in schedules {
        let mut case = CrashCase::new(engine, algo, threads, &kills);
        let dir = crash_dir(&format!("{engine}-{algo}"), threads, &kills);
        std::fs::remove_dir_all(&dir).ok();
        // One leg per kill, then one to the end, each resuming the last
        // and checkpointing on: each must leave the generation it ends
        // at, and leave the snapshot files of the legs before it as they
        // were.  A cadence generation g holds progress g * every; only
        // the last may be a completion generation, anywhere in
        // ((g - 1) * every, g * every].
        let mut written = Vec::new();
        let legs = kills.iter().copied().map(Some).chain([None]);
        for (leg, kill) in legs.enumerate() {
            let mut opts = checkpointed(&dir, kill);
            if leg > 0 {
                opts = opts.resume_from(&dir);
            }
            let mut tel = Telemetry::new();
            match (kill, run_leg(&opts, &mut tel)) {
                (Some(k), Err(WalkError::Halted { generation })) if generation == k => {}
                (Some(k), Err(e)) => fail(&mut case, format!("expected halt at {k}, got {e}")),
                (Some(k), Ok(_)) => fail(&mut case, format!("completed instead of halting at {k}")),
                (None, ran) => compare(&mut case, "resumed", ran),
            }
            // The last generation holds the finished walk: resuming it
            // executes nothing.
            let executed = tel.partition_steps_total();
            if kill.is_none() && kills == [generations] && executed != 0 {
                fail(
                    &mut case,
                    format!("the resume after completion took {executed} steps"),
                );
            }
            if !case.ok {
                break;
            }
            let (last, every) = (kill.unwrap_or(generations), CRASH_EVERY as u64);
            let lands = |g, progress: u64| {
                progress == g * every || (g == generations && progress.div_ceil(every) == g)
            };
            match load_latest(&dir) {
                Ok((g, snap)) if g == last && lands(g, snap.state.iter_next) => {}
                Ok((g, snap)) => fail(
                    &mut case,
                    format!(
                        "leg {leg} left generation {g} at progress {}",
                        snap.state.iter_next
                    ),
                ),
                Err(e) => fail(&mut case, format!("leg {leg} left no snapshot: {e}")),
            }
            let now = snapshot_files(&dir);
            if !written.iter().all(|file| now.contains(file)) {
                fail(
                    &mut case,
                    format!("leg {leg} rewrote an earlier generation"),
                );
            }
            written = now;
        }
        std::fs::remove_dir_all(&dir).ok();
        out.push(case);
    }
}

/// The crash cases of one in-memory FlashMob lattice cell.
fn crash_flashmob(engine: EngineKind, walk: AlgoKind, threads: usize, out: &mut Vec<CrashCase>) {
    let (label, algo) = (engine.label(), walk.label());
    let fm = match FlashMob::new(&walk.graph(), cell_config(engine, walk, threads, None)) {
        Ok(fm) => fm,
        Err(e) => {
            let detail = format!("engine construction failed: {e}");
            return out.push(CrashCase::failed(label, algo, threads, detail));
        }
    };
    let ids = stream_ids(&fm);
    let run_leg = |opts: &RunOptions, tel: &mut Telemetry| {
        let (output, stats) = fm.run_with(opts, tel)?;
        let counts = (
            stats.steps_taken,
            stats.per_partition_steps,
            stats.visits_sorted,
        );
        Ok((digest_paths(&output.paths(), &ids), counts))
    };
    crash_cell(label, algo, threads, run_leg, out);
}

/// The crash cases of one out-of-core lattice cell, on a disk graph of
/// its own.
fn crash_oocore(walk: AlgoKind, out: &mut Vec<CrashCase>) {
    let (label, algo) = (EngineKind::OutOfCore.label(), walk.label());
    let config = cell_config(EngineKind::OutOfCore, walk, 1, None);
    let path = ooc_temp_path();
    match DiskGraph::create(&walk.graph(), &path) {
        Ok(disk) => {
            let run_leg = |opts: &RunOptions, tel: &mut Telemetry| {
                let (output, stats) = run_ooc_with(&disk, &config, OOC_BUDGET, opts, tel)?;
                let counts = (stats.steps_taken, Vec::new(), None);
                Ok((digest_paths(&output.paths(), &[]), counts))
            };
            crash_cell(label, algo, 1, run_leg, out);
        }
        Err(e) => {
            let detail = format!("disk graph creation failed: {e}");
            out.push(CrashCase::failed(label, algo, 1, detail));
        }
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
            crash_oocore(walk, &mut cases);
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
        assert!(
            report.all_ok(),
            "crash matrix failures:\n{}",
            failures.join("\n")
        );
        // deepwalk, node2vec, ppr and early-exit on auto@1 each have the
        // no-kill fault case, 4 kill points and the relay.
        let fm = report.cases.iter().filter(|c| c.engine != "oocore").count();
        assert_eq!(fm, 4 * (1 + 4 + 1));
        // Each oocore cell has the no-kill case, one kill point per
        // discovered generation and, with 3 or more, the relay; the
        // pair-slot cadence is schedule-shaped, so only a floor is
        // asserted on the kill points.
        for algo in ["deepwalk", "node2vec", "ppr"] {
            let cell: Vec<_> = report
                .cases
                .iter()
                .filter(|c| c.engine == "oocore" && c.algo == algo)
                .collect();
            assert!(
                cell.iter().any(|c| c.kills.is_empty()),
                "{algo}: no fault case"
            );
            assert!(cell.iter().any(|c| c.kills == RELAY), "{algo}: no relay");
            assert!(cell.len() >= 5, "{algo} cases: {}", cell.len());
        }
        let relays = report.cases.iter().filter(|c| c.kills == RELAY).count();
        assert_eq!(relays, 4 + 3);
    }
}
