//! Verifies the steady-state step loop allocates nothing.
//!
//! A counting global allocator measures two parallel runs that differ
//! only in step count (4 vs 64 steps).  Setup allocations — walker
//! arrays, scratch, PS buffers, worker stacks — are identical for both,
//! so if the per-step loop is allocation-free the totals match exactly;
//! any per-step Vec/Box (the old cursor-matrix clone, scoped-spawn
//! bookkeeping, …) would show up as ~60 extra allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flashmob::{FlashMob, RunOptions, WalkConfig};
use fm_telemetry::Telemetry;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the only addition
// is a relaxed atomic counter bump, which cannot violate GlobalAlloc's
// contract (no reentrant allocation, layout forwarded unchanged).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout, same contract as our caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr was produced by our alloc, i.e. by System.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: ptr was produced by our alloc, i.e. by System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of one measured run at the given step count.
fn measured_allocs(steps: usize) -> u64 {
    let g = fm_graph::synth::power_law(400, 2.0, 1, 40, 9);
    let cfg = WalkConfig::deepwalk()
        .walkers(512)
        .steps(steps)
        .seed(3)
        .threads(4)
        .record_paths(false);
    let engine = FlashMob::new(&g, cfg).unwrap();
    // Warm-up run so lazily initialized state doesn't skew the count.
    let run = || engine.run_with(&RunOptions::default(), &mut Telemetry::off());
    run().unwrap();
    let before = ALLOCS.load(Ordering::SeqCst);
    run().unwrap();
    ALLOCS.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_step_loop_is_allocation_free() {
    let short = measured_allocs(4);
    let long = measured_allocs(64);
    assert_eq!(
        short, long,
        "allocation count must not grow with step count \
         ({short} allocs at 4 steps vs {long} at 64)"
    );
}
