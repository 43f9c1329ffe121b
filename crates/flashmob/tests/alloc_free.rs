//! Verifies what the engine allocates: nothing in the steady-state step
//! loop, and one copy of the graph at build.
//!
//! A counting global allocator counts allocations and live heap bytes.
//! Two parallel runs that differ only in step count (4 vs 64 steps)
//! make the same set-up allocations — walker arrays, scratch, PS
//! buffers, worker stacks — so if the per-step loop is allocation-free
//! the totals match exactly; any per-step Vec/Box (the old cursor-matrix
//! clone, scoped-spawn bookkeeping, …) would show up as ~60 extra
//! allocations.  The counters are process-wide, so each test holds
//! [`SERIAL`] while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::Mutex;

use flashmob::{FlashMob, RunOptions, SamplePolicy, WalkConfig};
use fm_graph::VertexId;
use fm_telemetry::Telemetry;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

// SAFETY: pure pass-through to the System allocator; the only addition
// is relaxed atomic counter updates, which cannot violate GlobalAlloc's
// contract (no reentrant allocation, layout forwarded unchanged).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: same layout, same contract as our caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: ptr was produced by our alloc, i.e. by System.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let short = measured_allocs(4);
    let long = measured_allocs(64);
    assert_eq!(
        short, long,
        "allocation count must not grow with step count \
         ({short} allocs at 4 steps vs {long} at 64)"
    );
}

/// On a regular ring every partition the planner cuts is of uniform
/// degree, and a uniform DS partition finds its rows in the sorted CSR
/// by the row rule.  So what `FlashMob::new` leaves live is the sorted
/// CSR, the relabeling and O(|V|) of plan: no room for a second copy of
/// the DS edges.
#[test]
fn a_uniform_ds_plan_keeps_no_second_copy_of_its_edges() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 1 << 15;
    let g = fm_graph::synth::regular_ring(n, 8);
    let cfg = WalkConfig::deepwalk().walkers(n / 2).seed(3);
    let before = LIVE.load(Ordering::SeqCst);
    let engine = FlashMob::new(&g, cfg).unwrap();
    let live = (LIVE.load(Ordering::SeqCst) - before) as usize;

    let ds_edges: usize = (engine.plan().partitions.iter())
        .filter(|p| p.policy == SamplePolicy::Direct && p.uniform_degree.is_some())
        .map(|p| p.edges)
        .sum();
    assert_eq!(ds_edges, g.edge_count(), "every partition is a uniform DS one");

    let vertex = std::mem::size_of::<VertexId>();
    let csr = engine.sorted_graph().footprint_bytes();
    let relabel = 2 * n * vertex;
    // Plan, partition map, ring depths and the engine's own fields.
    let slack = 8 * n;
    let copy = ds_edges * vertex;
    assert!(slack < copy, "the slack must not hide a copy of the edges");
    assert!(
        live < csr + relabel + slack,
        "FlashMob::new left {live} B live: CSR {csr} B, relabeling {relabel} B, \
         slack {slack} B (a copy of the DS edges is {copy} B)"
    );
}
