//! Verifies that making and opening a disk graph holds O(|V|) words.
//!
//! `DiskGraph::create` never builds the degree-sorted CSR: it keeps the
//! sorted offsets index (8 bytes a vertex) and the relabeling (8 bytes a
//! vertex), and streams the sorted rows from its input into the file
//! through one 4 MiB stage.  So the heap it adds on top of its input is
//! at most 24 bytes a vertex, one stage and a small constant, and it does
//! not grow with the edges.  `DiskGraph::open` reads the index through a
//! buffer no larger than a stage and hands the graph an identity
//! relabeling, which holds no arrays, so it holds at most the index and
//! one stage, and the index is its only allocation that large.
//!
//! A counting global allocator tracks every live heap byte and the peak,
//! and counts the allocations of at least a threshold.  One test only:
//! the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use flashmob::oocore::DiskGraph;
use fm_graph::Csr;

/// The bytes of `DiskGraph::create`'s staging buffer.
const STAGE: usize = 4 << 20;
/// Room for the path, the file handle and the counting sort's buckets.
const SLACK: usize = 64 << 10;

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Allocations of at least this many bytes are counted in `LARGE`.
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: pure pass-through to the System allocator; the only additions
// are relaxed atomic counter updates, which cannot violate GlobalAlloc's
// contract (no reentrant allocation, layouts forwarded unchanged).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout, same contract as our caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: ptr was produced by our alloc, i.e. by System.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // The new block is live before the old one is released.
        on_alloc(new_size);
        on_dealloc(layout.size());
        // SAFETY: ptr was produced by our alloc, i.e. by System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its value and the most heap it held at once on
/// top of what was live when it began.
fn peak_added<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let value = f();
    (value, PEAK.load(Ordering::SeqCst) - base)
}

#[test]
fn disk_graphs_are_made_and_opened_in_o_v_words() {
    let path = std::env::temp_dir().join(format!("fm-disk-memory-{}.fmdisk", std::process::id()));
    // The same |V|, about 4x the edges: a held copy of the sorted targets
    // would add more than a stage to the larger graph's peak.
    let n = 100_000;
    let create_peak = |g: &Csr| {
        assert_eq!(g.vertex_count(), n);
        let (disk, peak) = peak_added(|| DiskGraph::create(g, &path).expect("create"));
        drop(disk);
        peak
    };
    let small = fm_graph::synth::power_law(n, 2.0, 4, 400, 7);
    let small_peak = create_peak(&small);
    let small_edges = small.edge_count();
    drop(small);
    let large = fm_graph::synth::power_law(n, 2.0, 16, 1_600, 7);
    let large_peak = create_peak(&large);
    let ratio = large.edge_count() as f64 / small_edges as f64;
    assert!((3.0..5.0).contains(&ratio), "edge ratio {ratio:.2}");
    assert!(
        4 * large.edge_count() > 2 * STAGE,
        "a sorted copy of the targets must be seen"
    );

    let bound = 24 * (n + 1) + STAGE + SLACK;
    for (name, peak) in [("small", small_peak), ("large", large_peak)] {
        assert!(
            peak <= bound,
            "{name}: create added {peak} B, bound {bound}"
        );
    }
    assert!(
        large_peak.abs_diff(small_peak) <= STAGE,
        "create's peak grew with the edges: {small_peak} -> {large_peak} B"
    );

    std::fs::remove_file(&path).ok();
    drop(large);

    // An index (8 bytes a vertex and one) larger than a stage.  Open
    // holds it and at most a stage, and makes no other allocation the
    // index's size.
    let n = 600_000;
    let index = 8 * (n + 1);
    assert!(index > STAGE);
    let cycle = fm_graph::synth::cycle(n);
    DiskGraph::create(&cycle, &path).expect("create");
    THRESHOLD.store(index, Ordering::SeqCst);
    let (disk, open_peak) = peak_added(|| DiskGraph::open(&path).expect("open"));
    THRESHOLD.store(usize::MAX, Ordering::SeqCst);
    assert_eq!(disk.edge_count(), cycle.edge_count());
    let bound = index + STAGE + SLACK;
    assert!(open_peak <= bound, "open held {open_peak} B, bound {bound}");
    assert_eq!(LARGE.load(Ordering::SeqCst), 1, "index-sized allocations");
    std::fs::remove_file(&path).ok();
}
