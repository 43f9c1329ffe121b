//! Verifies what the engine allocates: nothing in the steady-state step
//! loop, one copy of the graph at build, one snapshot buffer for all of
//! a run's checkpoints, and per checkpoint generation nothing that grows
//! with the PS buffers, the partitions or the walkers.
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
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use flashmob::oocore::{run_ooc_with, DiskGraph};
use flashmob::{CheckpointSpec, FlashMob, PlanStrategy, RunOptions, SamplePolicy, WalkConfig};
use fm_graph::VertexId;
use fm_recover::{load_latest, CheckpointSink};
use fm_telemetry::Telemetry;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());
/// Allocations (or reallocations) of at least `BIG_AT` bytes.
static BIG: AtomicU64 = AtomicU64::new(0);
static BIG_AT: AtomicUsize = AtomicUsize::new(usize::MAX);

fn count_big(size: usize) {
    if size >= BIG_AT.load(Ordering::Relaxed) {
        BIG.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to the System allocator; the only addition
// is relaxed atomic counter updates, which cannot violate GlobalAlloc's
// contract (no reentrant allocation, layout forwarded unchanged).
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        count_big(layout.size());
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
        count_big(new_size);
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

/// A run checkpointing every iteration encodes each generation, on the
/// walk thread, into one buffer the writer thread hands back: over all
/// its generations it makes at most one allocation as large as a
/// snapshot, the buffer's growth to fit the first.  A copy of the lanes
/// and a fresh encoding per generation would make one a generation.
/// The visit counters keep every lane of the run smaller than the
/// snapshot that holds them, and the plan's few dozen partitions keep
/// the per-partition list of PS states well below it.
#[test]
fn checkpoint_generations_share_one_snapshot_sized_buffer() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = fm_graph::synth::power_law(4000, 2.0, 2, 60, 9);
    let steps = 12;
    let cfg = WalkConfig::deepwalk()
        .walkers(2048)
        .steps(steps)
        .seed(3)
        .threads(1)
        .record_paths(false)
        .record_visits(true);
    let engine = FlashMob::new(&g, cfg).unwrap();
    let dir = std::env::temp_dir().join(format!("fm_alloc_free_ckpt_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let opts = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 1));
    let run = || engine.run_with(&opts, &mut Telemetry::off()).unwrap();
    run();
    let snapshot = dir.join(CheckpointSink::snapshot_name(1));
    let snapshot_bytes = std::fs::metadata(&snapshot).unwrap().len() as usize;
    BIG_AT.store(snapshot_bytes, Ordering::SeqCst);
    let before = BIG.load(Ordering::SeqCst);
    run();
    let big = BIG.load(Ordering::SeqCst) - before;
    BIG_AT.store(usize::MAX, Ordering::SeqCst);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        big <= 1,
        "{big} allocations of {snapshot_bytes}+ bytes over {steps} checkpoint generations"
    );
}

/// Allocations of at least `at` bytes made by `run`.
fn big_allocs(at: usize, run: impl FnOnce()) -> u64 {
    BIG_AT.store(at, Ordering::SeqCst);
    let before = BIG.load(Ordering::SeqCst);
    run();
    let big = BIG.load(Ordering::SeqCst) - before;
    BIG_AT.store(usize::MAX, Ordering::SeqCst);
    big
}

/// A checkpoint directory of this process's own.
fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fm_alloc_free_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A snapshot lists only the PS partitions, so a plan of many DS ones
/// costs a generation nothing: a `UniformDs` plan of the same graph as
/// above, about 2 000 partitions and none of them PS, checkpointed every
/// iteration, makes at most one allocation as large as its snapshot
/// over its 12 generations.  A list of all partitions' PS states (48 B
/// an entry, 96 000 B here against a snapshot of under 60 000) would
/// make one a generation.
#[test]
fn checkpoints_of_an_all_ds_plan_allocate_nothing_per_partition() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = fm_graph::synth::power_law(4000, 2.0, 2, 60, 9);
    let steps = 12;
    let cfg = WalkConfig::deepwalk()
        .walkers(2048)
        .steps(steps)
        .seed(3)
        .threads(1)
        .record_paths(false)
        .record_visits(true)
        .strategy(PlanStrategy::UniformDs);
    let engine = FlashMob::new(&g, cfg).unwrap();
    let parts = &engine.plan().partitions;
    assert!(parts.len() > 1500, "{} partitions", parts.len());
    assert!(parts.iter().all(|p| p.policy == SamplePolicy::Direct));
    let dir = temp_dir("all_ds");
    let opts = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 1));
    let run = || engine.run_with(&opts, &mut Telemetry::off()).unwrap();
    run();
    let snapshot_bytes = std::fs::metadata(dir.join(CheckpointSink::snapshot_name(1)))
        .unwrap()
        .len() as usize;
    let big = big_allocs(snapshot_bytes, || drop(run()));
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        big <= 1,
        "{big} allocations of {snapshot_bytes}+ bytes over {steps} checkpoint generations"
    );
}

/// A checkpoint puts the reserved generations in produced form in
/// place, and the snapshot borrows the PS buffers: a run checkpointing
/// every iteration makes no allocation as large as one of its PS
/// partitions' buffers beyond what a run writing one generation makes
/// (the encode buffer's growth to fit its first).  Copying the buffers
/// out would make one a PS partition a generation.
///
/// Reserved generations are live at every generation: the run produces
/// none, and in each iteration its refills stand for more samples than
/// the iteration consumes, so some generation refilled in it is unread
/// at the checkpoint after it.  (A walk of `k` steps is the first `k`
/// iterations of this one, and reserving moves no count.)
#[test]
fn checkpoints_materialize_reserved_generations_without_copying_the_buffers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = fm_graph::synth::power_law(4096, 2.0, 2, 64, 11);
    let steps = 12;
    let cfg = |steps: usize| {
        WalkConfig::deepwalk()
            .walkers(64)
            .steps(steps)
            .seed(5)
            .threads(1)
            .record_paths(false)
    };
    let engine = FlashMob::new(&g, cfg(steps)).unwrap();
    let mut before = (0, 0);
    for k in 1..=steps {
        let short = FlashMob::new(&g, cfg(k)).unwrap();
        let (_, stats) = short.run_with(&RunOptions::default(), &mut Telemetry::off()).unwrap();
        let (produced, reserved, consumed) = stats.pre_sample_totals();
        assert_eq!(produced, 0, "{k} steps");
        assert!(
            reserved - before.0 > consumed - before.1,
            "iteration {k}: {} reserved, {} consumed",
            reserved - before.0,
            consumed - before.1
        );
        before = (reserved, consumed);
    }
    let largest = (engine.plan().partitions.iter())
        .filter(|p| p.policy == SamplePolicy::PreSample)
        .map(|p| p.edges * std::mem::size_of::<VertexId>())
        .max()
        .unwrap();
    let run = |every: usize| {
        let dir = temp_dir(&format!("reserved_{every}"));
        let opts = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, every));
        // A warm-up run parks the PS buffers for the measured one.
        engine.run_with(&opts, &mut Telemetry::off()).unwrap();
        let big = big_allocs(largest, || {
            engine.run_with(&opts, &mut Telemetry::off()).unwrap();
        });
        std::fs::remove_dir_all(&dir).ok();
        big
    };
    let (every, once) = (run(1), run(steps));
    assert_eq!(
        every, once,
        "allocations of {largest}+ bytes: {every} over {steps} generations, {once} over one"
    );
}

/// The BBLK frame's paths are written from the run's rows, walker by
/// walker, into the reused buffer: an out-of-core node2vec run with
/// paths recorded, checkpointed at every pair slot, makes a constant
/// number of allocations a generation, far below its walker count.
/// Gathering the paths into a `Vec` a walker would make one a walker a
/// generation.
#[test]
fn out_of_core_generations_allocate_nothing_per_walker() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let g = fm_graph::synth::power_law(2000, 2.0, 2, 60, 9);
    let disk_path = temp_dir("ooc.fmdisk");
    let disk = DiskGraph::create(&g, &disk_path).unwrap();
    let walkers = 2048;
    let cfg = WalkConfig::node2vec(0.5, 2.0)
        .walkers(walkers)
        .steps(8)
        .seed(3)
        .record_paths(true);
    let budget = disk.edge_count() * 4 / 2;
    let allocs = |opts: &RunOptions| {
        let before = ALLOCS.load(Ordering::SeqCst);
        run_ooc_with(&disk, &cfg, budget, opts, &mut Telemetry::off()).unwrap();
        ALLOCS.load(Ordering::SeqCst) - before
    };
    let plain = allocs(&RunOptions::default());
    let dir = temp_dir("ooc");
    let checkpointed = allocs(&RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 1)));
    let (generations, _) = load_latest(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&disk_path).ok();
    assert!(generations > 10, "{generations} generations");
    let per_generation = (checkpointed - plain) / generations;
    assert!(
        per_generation < walkers as u64 / 16,
        "{per_generation} allocations a generation for {walkers} walkers \
         ({checkpointed} checkpointed, {plain} plain, {generations} generations)"
    );
}
