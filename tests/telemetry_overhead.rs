//! The telemetry-overhead gate: an enabled recorder must cost < 5%
//! wall time over a disabled one on a fixed workload (best-of-N,
//! interleaved so the two configurations see the same thermal/cache
//! conditions).
//!
//! It is a wall-clock test, so it has a binary of its own: cargo runs
//! test binaries one at a time but a binary's tests in parallel, and
//! beside the rest of the telemetry suite its timed runs would compete
//! with other tests' walks for the CPU.

use std::time::Instant;

use flashmob_repro::flashmob::{FlashMob, RunOptions, WalkConfig};
use flashmob_repro::graph::synth;
use flashmob_repro::telemetry::Telemetry;

fn walk_config(walkers: usize, steps: usize, threads: usize) -> WalkConfig {
    WalkConfig::deepwalk()
        .walkers(walkers)
        .steps(steps)
        .seed(23)
        .threads(threads)
        .record_paths(false)
}

#[test]
fn telemetry_overhead_stays_under_five_percent() {
    let g = synth::power_law(10_000, 2.0, 1, 300, 7);
    let engine = FlashMob::new(&g, walk_config(20_000, 16, 1)).expect("engine");
    engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("warm-up");

    // Best-of-N interleaved pairs; retry to shrug off scheduler noise.
    let mut ratio = f64::INFINITY;
    for _attempt in 0..3 {
        let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
        for _rep in 0..5 {
            let t0 = Instant::now();
            engine
                .run_with(&RunOptions::default(), &mut Telemetry::off())
                .expect("untraced");
            best_off = best_off.min(t0.elapsed().as_secs_f64());

            let mut tel = Telemetry::new();
            let t0 = Instant::now();
            engine
                .run_with(&RunOptions::default(), &mut tel)
                .expect("traced");
            best_on = best_on.min(t0.elapsed().as_secs_f64());
        }
        ratio = ratio.min(best_on / best_off);
        if ratio <= 1.05 {
            break;
        }
    }
    assert!(
        ratio <= 1.05,
        "the on recorder's best wall is {:.1}% of the off recorder's (must be <= 105%)",
        ratio * 100.0
    );
}
