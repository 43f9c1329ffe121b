//! Verifies a second `run()` on one engine allocates no PS buffer.
//!
//! A counting global allocator counts allocations of at least half the
//! largest PS partition's buffer ("PS-buffer-sized": with 64 walkers and
//! no path rows, nothing else a run allocates — walker lanes, the edge
//! index, shuffle scratch — comes near).  The first run allocates the
//! buffers; every later run inherits them from the engine and resets
//! their cursors.
//!
//! One test only: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use flashmob::{FlashMob, PlanStrategy, PlannerParams, RunOptions, SamplePolicy, WalkConfig};
use fm_telemetry::Telemetry;

struct BufferSizedAlloc;

/// Allocations of at least this many bytes are counted; 0 disables.
static THRESHOLD: AtomicUsize = AtomicUsize::new(0);
static COUNTED: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let t = THRESHOLD.load(Ordering::Relaxed);
    if t > 0 && size >= t {
        COUNTED.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to the System allocator; the only addition
// is a relaxed atomic counter bump, which cannot violate GlobalAlloc's
// contract (no reentrant allocation, layouts forwarded unchanged).
unsafe impl GlobalAlloc for BufferSizedAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout, same contract as our caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout, same contract as our caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr was produced by our alloc, i.e. by System.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size);
        // SAFETY: ptr was produced by our alloc, i.e. by System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: BufferSizedAlloc = BufferSizedAlloc;

/// Buffer-sized allocations of one run.
fn counted_in_run(engine: &FlashMob, threshold: usize) -> usize {
    let before = COUNTED.load(Ordering::SeqCst);
    THRESHOLD.store(threshold, Ordering::SeqCst);
    let result = engine.run_with(&RunOptions::default(), &mut Telemetry::off());
    THRESHOLD.store(0, Ordering::SeqCst);
    result.expect("run");
    COUNTED.load(Ordering::SeqCst) - before
}

#[test]
fn a_second_run_allocates_no_ps_buffer() {
    let g = fm_graph::synth::power_law(4000, 2.0, 8, 400, 9);
    let cfg = WalkConfig::deepwalk()
        .walkers(64)
        .steps(6)
        .seed(3)
        .record_paths(false)
        .strategy(PlanStrategy::UniformPs)
        .planner(PlannerParams {
            max_partitions: 8,
            ..PlannerParams::default()
        });
    let engine = FlashMob::new(&g, cfg).expect("engine");
    let ps_bytes: Vec<usize> = engine
        .plan()
        .partitions
        .iter()
        .filter(|p| p.policy == SamplePolicy::PreSample)
        .map(|p| 4 * p.edges)
        .collect();
    assert!(!ps_bytes.is_empty(), "the plan must pre-sample");
    let threshold = ps_bytes.iter().max().unwrap() / 2;
    let big = ps_bytes.iter().filter(|&&b| b >= threshold).count();
    assert!(threshold > 64 * 64, "PS buffers must dwarf the walker lanes");

    assert_eq!(counted_in_run(&engine, threshold), big, "first run");
    assert_eq!(counted_in_run(&engine, threshold), 0, "second run");
    assert_eq!(counted_in_run(&engine, threshold), 0, "third run");
}
