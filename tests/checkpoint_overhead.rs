//! The checkpoint-overhead gate: checkpointing every 8 iterations must
//! cost < 5% wall time over a checkpoint-free run, in the median of 11
//! per-pair ratios (checkpointed wall / plain wall), the pairs run back
//! to back on one engine with their order alternating.
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
    // irreducible checkpoint cost — one encoding copy with its CRC,
    // fingerprint, write, fsync.  PS-state checkpoints are written by a
    // background thread and overlap compute on multi-core machines; CI
    // runs on a single core where that write still competes for the
    // CPU, so the guard pins the strategy whose overhead is core-count
    // independent.
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

    // The median of per-pair ratios, each pair's order alternating so
    // neither side always runs on the other's warm caches.
    let time = |opts: &RunOptions| {
        let t0 = Instant::now();
        engine.run_with(opts, &mut Telemetry::off()).expect("run");
        t0.elapsed().as_secs_f64()
    };
    let plain = RunOptions::default();
    let mut ratios: Vec<f64> = (0..11)
        .map(|pair| {
            if pair % 2 == 0 {
                let p = time(&plain);
                time(&checkpointed) / p
            } else {
                let c = time(&checkpointed);
                c / time(&plain)
            }
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    assert!(
        median <= 1.05,
        "checkpointed wall is {:.1}% of checkpoint-free in the median of {ratios:.3?} \
         (must be <= 105%)",
        median * 100.0
    );
}
