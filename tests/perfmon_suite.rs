//! Hardware-counter observability guarantees, as executable tests:
//!
//! 1. **Graceful degradation**: attempting to attach counters on a host
//!    that cannot provide them (containers, `perf_event_paranoid`,
//!    non-Linux) must leave the walk bit-identical to one that never
//!    asked — the degradation contract is "run without counters", never
//!    "fail" and never "perturb".
//! 2. **Plausibility**: when the host *does* provide counters, the
//!    attributed totals must be physically sensible — instructions
//!    retired is positive, grows with the amount of work, and the
//!    per-stage attribution sums to the total.
//! 3. **Stable reason**: the degradation notice is a single stable
//!    sentence, because the CLI prints it verbatim and ci.sh greps it.
//!
//! The suite passes on every host: counter-backed assertions gate on
//! `perfmon::available()` and the degradation assertions gate on its
//! negation, so exactly one side is exercised wherever it runs.

use flashmob_repro::flashmob::{FlashMob, WalkConfig};
use flashmob_repro::graph::synth;
use flashmob_repro::perfmon::{self, CounterGroup, HwEvent, PerfError};
use flashmob_repro::telemetry::Telemetry;

fn walk_config(steps: usize) -> WalkConfig {
    WalkConfig::deepwalk()
        .walkers(4_000)
        .steps(steps)
        .seed(11)
        .threads(1)
        .record_paths(true)
}

/// Runs one walk, optionally requesting hardware counters, and returns
/// the full path matrix.
fn paths_with_hw(steps: usize, hw: bool) -> (Vec<Vec<u32>>, bool) {
    let g = synth::power_law(6_000, 2.0, 1, 150, 3);
    let engine = FlashMob::new(&g, walk_config(steps)).expect("engine");
    let mut tel = Telemetry::new();
    let mut attached = false;
    if hw {
        // Err is the documented degradation path, not a failure.
        attached = tel.enable_hw_counters().is_ok();
    }
    let (out, _stats) = engine.run_traced(&mut tel).expect("walk");
    (out.paths().to_vec(), attached)
}

#[test]
fn requesting_counters_never_changes_the_walk() {
    let (plain, _) = paths_with_hw(12, false);
    let (with_hw, _) = paths_with_hw(12, true);
    assert_eq!(plain, with_hw, "hw-counter request must not perturb paths");
}

#[test]
fn degradation_is_reported_with_a_stable_reason() {
    if perfmon::available() {
        return; // exercised by the plausibility tests instead
    }
    let reason = perfmon::unavailable_reason().expect("reason on degraded host");
    assert!(
        reason.contains("hardware counters unavailable"),
        "stable prefix expected, got: {reason}"
    );
    match CounterGroup::standard() {
        Err(PerfError::Unsupported { .. }) => {}
        Err(e) => panic!("degraded host must yield Unsupported, got {e:?}"),
        Ok(_) => panic!("degraded host must yield Unsupported, got a group"),
    }
    // A telemetry recorder folds the same reason into a String error
    // and stays fully functional afterwards.
    let mut tel = Telemetry::new();
    let err = tel.enable_hw_counters().expect_err("no counters here");
    assert!(err.contains("hardware counters unavailable"));
    assert!(!tel.hw_enabled());
    assert!(tel.hw_total().is_none());
    assert!(tel.hw_events().is_empty());
}

#[test]
fn counters_are_plausible_when_available() {
    if !perfmon::available() {
        return; // degradation tests cover this host
    }
    let g = synth::power_law(6_000, 2.0, 1, 150, 3);
    let engine = FlashMob::new(&g, walk_config(12)).expect("engine");
    let mut tel = Telemetry::new();
    tel.enable_hw_counters().expect("counters available");
    assert!(tel.hw_enabled());
    engine.run_traced(&mut tel).expect("walk");

    let total = tel.hw_total().expect("total counters");
    assert!(
        total.get(HwEvent::Instructions) > 0,
        "a real walk retires instructions"
    );
    // Per-stage attribution must sum to the total for every event.
    let stages = tel.hw_stage_totals().expect("stage counters");
    for ev in tel.hw_events() {
        let sum: u64 = stages.iter().map(|s| s.get(ev)).sum();
        assert_eq!(sum, total.get(ev), "stage sum mismatch for {}", ev.label());
    }
}

#[test]
fn counters_grow_with_work_when_available() {
    if !perfmon::available() {
        return;
    }
    let g = synth::power_law(6_000, 2.0, 1, 150, 3);
    let instructions = |steps: usize| -> u64 {
        let engine = FlashMob::new(&g, walk_config(steps)).expect("engine");
        let mut tel = Telemetry::new();
        tel.enable_hw_counters().expect("counters available");
        engine.run_traced(&mut tel).expect("walk");
        tel.hw_total().expect("total").get(HwEvent::Instructions)
    };
    let short = instructions(4);
    let long = instructions(32);
    assert!(
        long > short,
        "8x the steps must retire more instructions ({long} vs {short})"
    );
}

#[test]
fn counter_group_snapshot_cycle_when_available() {
    if !perfmon::available() {
        return;
    }
    let group = CounterGroup::standard().expect("open");
    group.enable().expect("enable");
    let mut prev = group.snapshot().expect("snapshot");
    // Burn a little CPU so the deltas are non-trivial.
    let mut acc = 0u64;
    for i in 0..200_000u64 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    assert_ne!(acc, 1); // keep the loop observable
    let delta = group.delta_since(&mut prev).expect("delta");
    assert!(delta.get(HwEvent::Instructions) > 0);
    group.disable().expect("disable");
}
