//! Verifies the bi-block engine's block memory is the budget it was given.
//!
//! The engine's two block buffers map the blocks they hold from the
//! file, so block memory is not on the heap, and the engine reports it
//! instead: `OocStats::peak_block_words`, the most words the two held
//! at once, as asked for (not rounded up to pages).  It must stay within
//! the budget for node2vec, and within the half-budget for a DeepWalk
//! run, which reads one list a step and fills only one of the two.
//!
//! A counting global allocator tracks live allocations of at least half
//! the half-budget ("block-sized": blocks are cut to just under the
//! half-budget, and on a dense graph with 64 walkers nothing else the
//! run allocates — walker lanes, buckets, the output's relabeling —
//! comes near).  Where blocks are mapped it must see none.  (Where the
//! target or kernel cannot map, the words are read into the heap; there
//! the old bound holds: at most two such allocations, summing to at most
//! the budget.)
//!
//! One test only: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use flashmob::oocore::{run_ooc_with, DiskGraph, OocStats};
use flashmob::{RunOptions, WalkConfig};
use fm_graph::mem::FileMap;
use fm_telemetry::Telemetry;

struct BlockSizedAlloc;

/// Allocations of at least this many bytes are tracked; 0 disables.
static THRESHOLD: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn tracked(size: usize) -> bool {
    let t = THRESHOLD.load(Ordering::Relaxed);
    t > 0 && size >= t
}

fn on_alloc(size: usize) {
    if tracked(size) {
        let live = LIVE.fetch_add(1, Ordering::Relaxed) + 1;
        let bytes = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
        PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
        PEAK_BYTES.fetch_max(bytes, Ordering::Relaxed);
    }
}

fn on_dealloc(size: usize) {
    if tracked(size) {
        // Saturating: a block allocated before tracking began may be
        // released while it is on.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            Some(n.saturating_sub(1))
        });
        let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
            Some(n.saturating_sub(size))
        });
    }
}

// SAFETY: pure pass-through to the System allocator; the only additions
// are relaxed atomic counter updates, which cannot violate GlobalAlloc's
// contract (no reentrant allocation, layouts forwarded unchanged).
unsafe impl GlobalAlloc for BlockSizedAlloc {
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
static GLOBAL: BlockSizedAlloc = BlockSizedAlloc;

#[test]
fn biblock_block_memory_stays_within_the_budget() {
    let g = fm_graph::synth::power_law(2000, 2.0, 32, 400, 9);
    let path = std::env::temp_dir().join(format!("fm-ooc-budget-{}.fmdisk", std::process::id()));
    let disk = DiskGraph::create(&g, &path).expect("disk graph");
    // A quarter of the targets array (4 bytes an edge).
    let budget = disk.edge_count() * 4 / 4;
    let half_budget = budget / 2;
    // Degree-sorted: vertex 0 is the largest hub.
    assert!(
        disk.degree(0) * 4 <= half_budget,
        "no hub may overflow the half-budget"
    );
    let node2vec = WalkConfig::node2vec(2.0, 0.5)
        .walkers(64)
        .steps(6)
        .seed(3)
        .record_paths(false);
    let deepwalk = WalkConfig::deepwalk()
        .walkers(64)
        .steps(6)
        .seed(3)
        .record_paths(false);

    // Runs `cfg` with the counters tracking block-sized allocations
    // from zero; returns its stats and the peak live count and bytes.
    let tracked_run = |cfg: &WalkConfig| -> (OocStats, usize, usize) {
        for counter in [&LIVE, &LIVE_BYTES, &PEAK_LIVE, &PEAK_BYTES] {
            counter.store(0, Ordering::SeqCst);
        }
        THRESHOLD.store(half_budget / 2, Ordering::SeqCst);
        let result = run_ooc_with(
            &disk,
            cfg,
            budget,
            &RunOptions::default(),
            &mut Telemetry::off(),
        );
        THRESHOLD.store(0, Ordering::SeqCst);
        let (_, stats) = result.expect("bi-block run");
        (
            stats,
            PEAK_LIVE.load(Ordering::SeqCst),
            PEAK_BYTES.load(Ordering::SeqCst),
        )
    };
    let (n2v, n2v_live, n2v_bytes) = tracked_run(&node2vec);
    let (dw, dw_live, dw_bytes) = tracked_run(&deepwalk);
    // Whether this target and kernel map: hold the file's first words.
    let file = std::fs::File::open(&path).expect("disk graph file");
    // SAFETY: the file is this test's own and nothing writes it while
    // the map lives.
    let probe = unsafe { FileMap::new(&file, 0, 1) }.expect("one word");
    let mapped = probe.is_mapped();
    drop((probe, file));
    std::fs::remove_file(&path).ok();

    assert!(n2v.blocks_streamed > 8, "the run must swap blocks");
    assert!(
        dw.blocks_streamed > 8,
        "the DeepWalk run must swap blocks too"
    );
    let (n2v_held, dw_held) = (n2v.peak_block_words * 4, dw.peak_block_words * 4);
    assert!(
        n2v_held as usize <= budget && n2v_held as usize > half_budget,
        "two blocks held {n2v_held} bytes at once under a budget of {budget}"
    );
    assert!(
        dw_held > 0 && dw_held as usize <= half_budget,
        "DeepWalk's one block held {dw_held} bytes under a half-budget of {half_budget}"
    );
    if mapped {
        assert_eq!(
            (n2v_live, dw_live),
            (0, 0),
            "no block-sized heap allocation while blocks are mapped"
        );
    } else {
        assert!(
            n2v_live <= 2 && n2v_bytes <= budget,
            "{n2v_live}: {n2v_bytes} B"
        );
        assert!(
            dw_live <= 2 && dw_bytes <= budget,
            "{dw_live}: {dw_bytes} B"
        );
    }
}
