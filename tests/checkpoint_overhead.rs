//! The checkpoint-overhead gate: checkpointing every 8 iterations must
//! cost < 5% wall time over a checkpoint-free run (best-of-N,
//! interleaved so both configurations see the same thermal/cache
//! conditions).
//!
//! It is a wall-clock test, so it has a binary of its own: cargo runs
//! test binaries one at a time but a binary's tests in parallel, and
//! beside the crash matrix only the checkpointed side of each pair
//! (which has a second thread, the writer) would compete for the CPU.

use std::time::Instant;

use flashmob_repro::flashmob::{CheckpointSpec, FlashMob, PlanStrategy, RunOptions, WalkConfig};
use flashmob_repro::graph::synth;
use flashmob_repro::telemetry::Telemetry;

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "fm_checkpoint_overhead_{}_{name}",
        std::process::id()
    ))
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
    engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("warm-up");

    let dir = temp_path("overhead_ckpt");
    std::fs::remove_dir_all(&dir).ok();
    let checkpointed = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 8));

    // Best-of-N interleaved pairs; retry to shrug off scheduler noise.
    let mut ratio = f64::INFINITY;
    for _attempt in 0..3 {
        let (mut best_plain, mut best_ckpt) = (f64::INFINITY, f64::INFINITY);
        for _rep in 0..3 {
            let t0 = Instant::now();
            engine
                .run_with(&RunOptions::default(), &mut Telemetry::off())
                .expect("plain");
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
