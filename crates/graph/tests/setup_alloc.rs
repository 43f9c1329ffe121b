//! Pins the heap use of the second-order set-up stages.
//!
//! `n2v_tw`'s peak RSS is reached at the end of `FlashMob::new`, with
//! the input CSR, the sorted CSR and the filter all alive, so anything
//! |E|-sized these two stages allocated on the side would sit on that
//! peak.  A counting global allocator holds them to what they claim:
//! the filter build allocates the filter and nothing else, and the
//! adjacency sort one scratch row as long as the longest list.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fm_graph::bloom::EdgeBloom;
use fm_graph::{synth, Csr, VertexId};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
}

// SAFETY: pure pass-through to the System allocator; the only addition
// is two relaxed atomic counter bumps, which cannot violate
// GlobalAlloc's contract (no reentrant allocation, layout forwarded
// unchanged).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
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
        on_alloc(new_size);
        // SAFETY: ptr was produced by our alloc, i.e. by System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` requested while `f` runs.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (allocs, bytes) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let out = f();
    (
        out,
        ALLOCS.load(Ordering::SeqCst) - allocs,
        BYTES.load(Ordering::SeqCst) - bytes,
    )
}

// One test function: the counters are process-wide, and the harness
// would run two on parallel threads.
#[test]
fn second_order_setup_allocates_no_edge_sized_scratch() {
    // Hub of 5 000 (radix-sorted), a long tail of short rows.
    let mut g = synth::power_law(20_000, 2.0, 1, 5_000, 11);
    let max_degree = g.max_degree();
    assert!(max_degree >= 1_000 && 16 * max_degree < g.edge_count());

    let ((), allocs, bytes) = measured(|| g.sort_adjacency_lists());
    assert!(g.has_sorted_adjacency());
    assert_eq!(allocs, 1, "the scratch row");
    assert_eq!(bytes, max_degree * std::mem::size_of::<VertexId>());

    let (bloom, allocs, bytes) = measured(|| EdgeBloom::from_graph(&g, 8));
    assert_eq!(allocs, 1, "the filter");
    assert_eq!(bytes, bloom.footprint_bytes());

    // No row reaches the radix threshold: no scratch at all.
    let edges: Vec<(VertexId, VertexId)> = (0..50).flat_map(|u| [(u, 49 - u), (u, 0)]).collect();
    let mut short = Csr::from_edges(50, &edges).unwrap();
    let ((), allocs, _) = measured(|| short.sort_adjacency_lists());
    assert!(short.has_sorted_adjacency());
    assert_eq!(allocs, 0);
}
