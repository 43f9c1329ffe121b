//! Crash-safety and fault-injection guarantees, as executable tests:
//!
//! 1. **Exact recovery**: killing a run at *every* checkpoint
//!    generation and resuming it reproduces the golden path digest of
//!    the uninterrupted run, bit for bit, for FlashMob auto/PS/DS at
//!    1, 3 and 8 threads, for the out-of-core engine, and for every
//!    walk program — whose per-walker origin state, early
//!    deaths, and edge labels must survive the checkpoint boundary
//!    (the full crash matrix from
//!    [`flashmob_repro::conformance::crash`], every kill and resume leg
//!    under transient faults in 15% of its checkpoint writes and block
//!    reads); so does a run relayed through two kills, in both engines,
//!    and a NUMA run killed between its sockets.
//! 2. **Overhead**: checkpointing every 8 iterations must cost < 5%
//!    wall time over a checkpoint-free run (best-of-N, interleaved so
//!    both configurations see the same thermal/cache conditions).
//! 3. **Fault transparency**: with seeded transient faults injected
//!    into ≥ 15% of out-of-core partition reads, the run completes
//!    with output *identical* to the fault-free run, the absorbed
//!    retries are counted, and the count surfaces in the JSONL
//!    metrics export.

use std::time::Instant;

use flashmob_repro::conformance::crash::{run_crash_matrix, RELAY};
use flashmob_repro::flashmob::numa::{run_numa_paths_with, NumaMode};
use flashmob_repro::flashmob::oocore::{run_ooc, run_ooc_with, DiskGraph};
use flashmob_repro::flashmob::{
    CheckpointSpec, FaultPolicy, FlashMob, PlanStrategy, RunOptions, WalkConfig, WalkError,
};
use flashmob_repro::graph::synth;
use flashmob_repro::telemetry::{export, Telemetry};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fm_recover_suite_{}_{name}", std::process::id()))
}

#[test]
fn full_crash_matrix_resumes_bit_exactly() {
    let report = run_crash_matrix(true);
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
    // {deepwalk, node2vec} and the three programs (ppr, early-exit,
    // metapath), each x auto/ps/ds x {1, 3, 8} threads x (the no-kill
    // fault case + 4 kill generations + the two-kill relay).
    let fm = report.cases.iter().filter(|c| c.engine != "oocore").count();
    assert_eq!(fm, 5 * 3 * 3 * (1 + 4 + 1));
    // The oocore cells (deepwalk, node2vec, ppr) each add the no-kill
    // fault case, one kill per discovered generation and the relay; the
    // pair-slot cadence is schedule-shaped so only a floor is asserted.
    let ooc = |algo: &str| {
        report
            .cases
            .iter()
            .filter(|c| c.engine == "oocore" && c.algo == algo)
            .count()
    };
    assert!(ooc("deepwalk") >= 5);
    assert!(ooc("node2vec") >= 5);
    assert!(ooc("ppr") >= 5);
    let relays = report.cases.iter().filter(|c| c.kills == RELAY).count();
    assert_eq!(relays, 5 * 3 * 3 + 3);
}

#[test]
fn checkpoint_overhead_stays_under_five_percent() {
    // DS-only strategy: the snapshot is the compact walker array plus a
    // few scalars (no PS pre-sample buffers), so this measures the
    // irreducible checkpoint cost — clone, encode, CRC, fingerprint,
    // write, fsync.  PS-state checkpoints are written by a background
    // thread and overlap compute on multi-core machines; CI runs on a
    // single core where that write still competes for the CPU, so the
    // guard pins the strategy whose overhead is core-count independent.
    let g = synth::power_law(200_000, 2.0, 2, 200, 7);
    let config = WalkConfig::deepwalk()
        .walkers(100_000)
        .steps(16)
        .seed(23)
        .threads(1)
        .record_paths(false)
        .strategy(PlanStrategy::UniformDs);
    let engine = FlashMob::new(&g, config).expect("engine");
    engine.run().expect("warm-up");

    let dir = temp_path("overhead_ckpt");
    std::fs::remove_dir_all(&dir).ok();
    let checkpointed = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 8));

    // Best-of-N interleaved pairs; retry to shrug off scheduler noise.
    let mut ratio = f64::INFINITY;
    for _attempt in 0..3 {
        let (mut best_plain, mut best_ckpt) = (f64::INFINITY, f64::INFINITY);
        for _rep in 0..3 {
            let t0 = Instant::now();
            engine.run().expect("plain");
            best_plain = best_plain.min(t0.elapsed().as_secs_f64());

            let t0 = Instant::now();
            engine
                .run_with(&checkpointed, &mut Telemetry::off())
                .expect("checkpointed");
            best_ckpt = best_ckpt.min(t0.elapsed().as_secs_f64());
        }
        ratio = ratio.min(best_ckpt / best_plain);
        if ratio <= 1.05 {
            break;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        ratio <= 1.05,
        "checkpointed best wall is {:.1}% of checkpoint-free (must be <= 105%)",
        ratio * 100.0
    );
}

#[test]
fn numa_run_killed_between_sockets_resumes_bit_exactly() {
    let g = synth::power_law(600, 2.0, 2, 40, 17);
    let (walkers, steps, every) = (300usize, 8usize, 2usize);
    let config = WalkConfig::deepwalk().walkers(walkers).steps(steps).seed(31);
    let halted = |r: Result<_, WalkError>| matches!(r, Err(WalkError::Halted { generation: 2 }));
    for mode in [NumaMode::Partitioned, NumaMode::Replicated] {
        let run = |opts: &RunOptions, tel: &mut Telemetry| {
            run_numa_paths_with(&g, config.clone(), mode, 3, opts, tel).map(|(outputs, _)| outputs)
        };
        let want = run(&RunOptions::default(), &mut Telemetry::off()).expect("uninterrupted");
        let dir = temp_path(&format!("numa_{mode:?}"));
        std::fs::remove_dir_all(&dir).ok();
        let kill = || RunOptions::default().checkpoint(CheckpointSpec::new(&dir, every).halt_after(2));

        // The first kill lands in the first instance to reach generation
        // 2: the spanning engine, or socket 0.
        assert!(halted(run(&kill(), &mut Telemetry::off())), "{mode:?}");
        let (mut tel, mut executed) = (Telemetry::new(), walkers * (steps - 2 * every));
        if mode == NumaMode::Replicated {
            // Resumed under the same options, socket 0 is past its kill
            // and runs out (checkpointing to the end), and the kill lands
            // in socket 1, mid-run; socket 2 has not started.
            assert!(halted(run(&kill().resume_from(&dir), &mut Telemetry::off())));
            assert!(dir.join("socket-1").is_dir() && !dir.join("socket-2").exists());
            // So the last leg resumes socket 0 from its final checkpoint
            // in zero iterations and socket 1 mid-run, and starts socket
            // 2 fresh: 100 walkers each, 0 + 4 + 8 iterations.
            executed = 100 * (steps - 2 * every) + 100 * steps;
        }
        let resume = RunOptions::default().resume_from(&dir);
        let got = run(&resume, &mut tel).expect("resumed");
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(got.len(), want.len(), "{mode:?}");
        for (s, (got, want)) in got.iter().zip(&want).enumerate() {
            assert_eq!(got.paths(), want.paths(), "{mode:?} instance {s}");
        }
        assert_eq!(tel.partition_steps_total(), executed as u64, "{mode:?}");
    }
}

#[test]
fn ooc_transient_faults_are_absorbed_without_changing_output() {
    let g = synth::power_law(2_000, 2.0, 2, 100, 13);
    let path = temp_path("faulty.fmdisk");
    let disk = DiskGraph::create(&g, &path).expect("disk graph");
    let config = WalkConfig::deepwalk()
        .walkers(4_000)
        .steps(8)
        .seed(99)
        .record_paths(true);

    let (clean, clean_stats) = run_ooc(&disk, &config, 32 * 1024).expect("fault-free run");

    // 15% of block reads fail transiently; retries must absorb every
    // one of them.
    let mut tel = Telemetry::new();
    let opts = RunOptions::default().fault(FaultPolicy::transient(7, 0.15));
    let (faulty, faulty_stats) =
        run_ooc_with(&disk, &config, 32 * 1024, &opts, &mut tel).expect("faulty run completes");
    std::fs::remove_file(&path).ok();

    assert_eq!(clean.paths(), faulty.paths(), "faults changed the walk");
    assert_eq!(clean_stats.steps_taken, faulty_stats.steps_taken);
    assert_eq!(clean_stats.io_retries, 0);
    assert!(
        faulty_stats.io_retries > 0,
        "a 15% fault rate over {} block reads must trigger retries",
        faulty_stats.blocks_streamed
    );

    // The absorbed retries surface in the JSONL metrics export.
    let mut jsonl = Vec::new();
    export::write_metrics_jsonl(&mut jsonl, &tel).expect("jsonl export");
    let jsonl = String::from_utf8(jsonl).expect("utf8");
    assert!(
        jsonl.contains("\"io_retries\""),
        "metrics export misses io_retries: {jsonl}"
    );
    let run_line = jsonl
        .lines()
        .find(|l| l.contains("\"io_retries\""))
        .expect("run line");
    assert!(
        !run_line.contains("\"io_retries\": 0"),
        "exported retry count should be non-zero: {run_line}"
    );
}
