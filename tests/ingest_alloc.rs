//! Verifies the text edge-list parser allocates per doubling, not per line.
//!
//! A counting global allocator measures `parse_edge_list` on inputs of
//! `n` and `64 n` lines.  What the parser may allocate is the edge vector's
//! doublings (six more for the longer input), the CSR arrays, and the carry
//! for a line that straddles two chunks; a `String` per line — the parser
//! this one replaced — would show up as tens of thousands.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::BufReader;
use std::sync::atomic::{AtomicU64, Ordering};

use flashmob_repro::graph::io::{parse_edge_list, ParseOptions};

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
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: ptr was produced by our alloc, i.e. by System.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of one parse of `lines` edges, read in chunks of `chunk`
/// bytes (`None`: the whole text is the reader's buffer).
fn measured_allocs(lines: usize, chunk: Option<usize>) -> u64 {
    let text: String = (0..lines)
        .map(|k| format!("{} {}\n", k % 97, (k * 7) % 89))
        .collect();
    let before = ALLOCS.load(Ordering::SeqCst);
    let graph = match chunk {
        None => parse_edge_list(text.as_bytes(), ParseOptions::default()),
        Some(chunk) => parse_edge_list(
            BufReader::with_capacity(chunk, text.as_bytes()),
            ParseOptions::default(),
        ),
    }
    .unwrap();
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(graph.edge_count(), lines);
    allocs
}

#[test]
fn parsing_allocates_per_doubling_not_per_line() {
    for chunk in [None, Some(64), Some(5)] {
        let short = measured_allocs(1_000, chunk);
        let long = measured_allocs(64_000, chunk);
        assert!(
            long <= short + 8 && long <= 40,
            "chunk {chunk:?}: {short} allocations for 1000 lines, {long} for 64000"
        );
    }
}
