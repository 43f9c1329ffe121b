//! A persistent, epoch-based worker pool for the step pipeline.
//!
//! The original FlashMob keeps an OpenMP-style pool of threads alive for
//! the whole run; the sample and shuffle stages are barriers between
//! phases, not thread lifetimes.  Spawning scoped threads per stage
//! instead — as this reproduction first did — pays up to four
//! spawn/join cycles *per walk step*, which for an 80-step run means
//! hundreds of thread creations whose latency dwarfs the per-stage work
//! on small inputs.
//!
//! [`WorkerPool`] spawns the configured number of OS threads **once**
//! (per [`crate::FlashMob::run`]) and afterwards dispatches stage jobs
//! by bumping an *epoch*:
//!
//! 1. The coordinator stores the job (a lifetime-erased
//!    `&dyn Fn(usize)`), increments the epoch under the mutex, and
//!    notifies the workers.
//! 2. Each worker observes the new epoch, runs `job(worker_index)`
//!    exactly once, and decrements the outstanding-worker count.
//! 3. The last worker to finish wakes the coordinator, which was
//!    blocked in [`WorkerPool::run`] the whole time — that blocking is
//!    what makes borrowing stack data into the job sound.
//!
//! Both sides spin briefly before parking on a condvar, because epochs
//! in the steady-state step loop arrive microseconds apart.
//!
//! # Determinism
//!
//! The pool assigns worker `t` the `t`-th pre-computed disjoint slice of
//! every stage, and each partition keeps its own seeded RNG stream
//! (`split_stream(seed, iter * K + partition)`), so which thread runs a
//! partition never influences the sampled values.  First-order walk
//! output therefore stays bit-identical across thread counts — the
//! `parallel_matches_sequential` guarantee — and the shuffle passes
//! reproduce the sequential stable counting sort exactly.
//!
//! Dispatching a job does not allocate: the job is passed by reference,
//! and all stage scratch (cursor matrices, visit arrays) lives in
//! buffers reused across epochs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Iterations both sides spin before parking on the condvar — but only
/// when the machine has more cores than pool threads; with the CPUs
/// oversubscribed (or just one core), spinning steals the quantum the
/// *other* side needs to make progress, so both sides park immediately.
const SPIN_ITERS: u32 = 8_192;

/// The spin budget for this machine/pool combination.
fn spin_budget(threads: usize) -> u32 {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores > threads {
        SPIN_ITERS
    } else {
        0
    }
}

/// Pool overhead counters for one run (surfaced in
/// [`crate::RunStats::pool`] and `fmwalk walk --stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// OS threads spawned — equals the configured thread count, once
    /// per pool, never O(steps).
    pub spawned: usize,
    /// Stage jobs (epochs) dispatched over the pool's lifetime.
    pub epochs: u64,
    /// Cumulative wall-clock time workers spent waiting for work.
    pub idle: Duration,
}

impl PoolStats {
    /// Adds another pool's counters into this total.
    pub fn absorb(&mut self, other: &PoolStats) {
        self.spawned += other.spawned;
        self.epochs += other.epochs;
        self.idle += other.idle;
    }
}

/// Lifetime-erased pointer to the current epoch's job.  Raw (not a
/// reference) so that a stale value left from a finished epoch is merely
/// dangling, never an invalid reference.
///
/// # Safety
///
/// The pointer is produced in [`WorkerPool::run_labeled`] from a job
/// reference that outlives the dispatch, and must only be dereferenced
/// by workers between the epoch publish and their `remaining`
/// decrement — the window during which the coordinator keeps the
/// referent alive by blocking.  Outside that window the value is
/// treated as opaque bits.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointer is only dereferenced by workers between the epoch
// publish and their `remaining` decrement, a window during which the
// coordinator keeps the referent alive by blocking in `run`.
unsafe impl Send for JobPtr {}

struct State {
    /// Monotone epoch counter; a bump publishes `job`.
    epoch: u64,
    job: Option<JobPtr>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new epoch.
    work: Condvar,
    /// The coordinator waits here for `remaining` to reach zero.
    done: Condvar,
    /// Workers still running the current epoch's job.
    remaining: AtomicUsize,
    /// Lock-free mirror of `state.epoch` for the workers' spin phase
    /// (`u64::MAX` signals shutdown).
    epoch_hint: AtomicU64,
    /// 0 = no panic; otherwise 1 + the index of the *first* worker
    /// whose job panicked this epoch (for the re-raise message).
    panicked: AtomicUsize,
    idle_ns: AtomicU64,
    /// Spin iterations before parking (0 when cores are oversubscribed).
    spin: u32,
    /// Per-epoch interval log of `DisjointSlice` claims, drained and
    /// checked at each epoch boundary (see fm-audit's `disjoint`).
    #[cfg(feature = "audit-disjoint")]
    claims: Arc<fm_audit::ClaimLog>,
}

/// A pool of persistent worker threads dispatching jobs by epoch.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` workers (at least one), parked until the first
    /// [`WorkerPool::run`].
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            remaining: AtomicUsize::new(0),
            epoch_hint: AtomicU64::new(0),
            panicked: AtomicUsize::new(0),
            idle_ns: AtomicU64::new(0),
            spin: spin_budget(threads),
            #[cfg(feature = "audit-disjoint")]
            claims: fm_audit::ClaimLog::new(),
        });
        let handles = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fm-pool-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawning pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of worker threads (and of job invocations per epoch).
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Dispatches one epoch: every worker `t` in `0..threads()` calls
    /// `job(t)` exactly once; returns when all have finished.  Does not
    /// allocate.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) if any worker's job panicked.
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) {
        self.run_labeled("unlabeled", job);
    }

    /// [`WorkerPool::run`] with a stage label: if a worker's job
    /// panics, the re-raised panic names the worker index and `stage`,
    /// so a crash in an 8-thread 80-step run points at the failing
    /// stage instead of a bare "job panicked".
    ///
    /// A panicked epoch never publishes partial state to later stages:
    /// every stage writes through disjoint slices into its *output*
    /// arrays only, and the re-raise happens before the engine swaps
    /// those outputs in — the walker arrays a subsequent run observes
    /// are the untouched inputs.
    pub fn run_labeled(&self, stage: &'static str, job: &(dyn Fn(usize) + Sync)) {
        let threads = self.handles.len();
        // SAFETY: the job outlives this call, and workers dereference
        // the pointer only while this call blocks below (it returns only
        // once `remaining` hits zero), so the erased lifetime is sound.
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        });
        {
            let mut st = self.shared.state.lock().expect("pool lock poisoned");
            self.shared.remaining.store(threads, Ordering::Release);
            st.job = Some(ptr);
            st.epoch += 1;
            self.shared.epoch_hint.store(st.epoch, Ordering::Release);
            self.shared.work.notify_all();
        }
        // Spin briefly — stage jobs are typically short — then park.
        let mut spins = 0u32;
        while spins < self.shared.spin && self.shared.remaining.load(Ordering::Acquire) != 0 {
            std::hint::spin_loop();
            spins += 1;
        }
        if self.shared.remaining.load(Ordering::Acquire) != 0 {
            let mut st = self.shared.state.lock().expect("pool lock poisoned");
            while self.shared.remaining.load(Ordering::Acquire) != 0 {
                st = self.shared.done.wait(st).expect("pool lock poisoned");
            }
        }
        let panicked = self.shared.panicked.swap(0, Ordering::AcqRel);
        #[cfg(feature = "audit-disjoint")]
        {
            if panicked == 0 {
                // Panics with both claimants on any cross-worker overlap
                // among this epoch's DisjointSlice claims.
                self.shared.claims.drain_and_check(stage);
            } else {
                // A panicked epoch left partial claims; checking them
                // would only add noise to the re-raise below.
                self.shared.claims.drain_discard();
            }
        }
        if panicked != 0 {
            panic!(
                "worker pool job panicked (worker {}, stage {stage})",
                panicked - 1
            );
        }
    }

    /// Snapshot of the pool's overhead counters.
    pub fn stats(&self) -> PoolStats {
        let epochs = self.shared.state.lock().expect("pool lock poisoned").epoch;
        PoolStats {
            spawned: self.handles.len(),
            epochs,
            idle: Duration::from_nanos(self.shared.idle_ns.load(Ordering::Relaxed)),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool lock poisoned");
            st.shutdown = true;
            self.shared.epoch_hint.store(u64::MAX, Ordering::Release);
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    // Bind this thread to the pool's claim log so DisjointSlice can
    // attribute its claims to worker `index`.
    #[cfg(feature = "audit-disjoint")]
    fm_audit::disjoint::set_worker(Arc::clone(&shared.claims), index);
    let mut seen_epoch = 0u64;
    loop {
        let wait_start = Instant::now();
        let mut spins = 0u32;
        while spins < shared.spin && shared.epoch_hint.load(Ordering::Acquire) == seen_epoch {
            std::hint::spin_loop();
            spins += 1;
        }
        let job = {
            let mut st = shared.state.lock().expect("pool lock poisoned");
            while st.epoch == seen_epoch && !st.shutdown {
                st = shared.work.wait(st).expect("pool lock poisoned");
            }
            if st.shutdown {
                return;
            }
            seen_epoch = st.epoch;
            st.job.expect("epoch published without a job")
        };
        shared
            .idle_ns
            .fetch_add(wait_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // SAFETY: the coordinator blocks in `run` until `remaining`
        // reaches zero, keeping the job referent alive for this call.
        let job = unsafe { &*job.0 };
        if catch_unwind(AssertUnwindSafe(|| job(index))).is_err() {
            // Record the *first* panicker only; later ones lose the race
            // and the message stays deterministic for a single failure.
            let _ = shared.panicked.compare_exchange(
                0,
                index + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last finisher: lock so the notify cannot race ahead of the
            // coordinator's check-then-wait.
            let _guard = shared.state.lock().expect("pool lock poisoned");
            shared.done.notify_all();
        }
    }
}

/// A raw-pointer view of a slice allowing writes at *disjoint* indices
/// (or to disjoint sub-ranges) from multiple pool workers.
///
/// This is the lock-free sharing primitive behind the parallel shuffle
/// scatter and the per-partition sample outputs: the coordinator
/// precomputes index sets that partition the slice, so no two workers
/// ever touch the same element — the paper's "threads work on disjoint
/// array areas, eliminating the need for locks".
pub struct DisjointSlice<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: the wrapper is just a pointer + length; every use site
// guarantees disjoint index sets per thread (see `par_scatter` and
// `sample_stage_parallel`).
unsafe impl<T: Send> Sync for DisjointSlice<T> {}
// SAFETY: as above — ownership of the elements stays with the borrowed
// slice; the wrapper only brokers disjoint access.
unsafe impl<T: Send> Send for DisjointSlice<T> {}

impl<T> DisjointSlice<T> {
    /// Wraps a mutable slice for the duration of one dispatch.
    pub fn new(slice: &mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hints the line holding element `index` to the hardware; nothing
    /// past the end.  A hint reads nothing, so it claims no element.
    #[inline(always)]
    pub fn prefetch(&self, index: usize) {
        if index < self.len {
            fm_graph::prefetch::prefetch_read(self.ptr.wrapping_add(index));
        }
    }

    /// Reborrows the sub-range `[start, start + len)` mutably.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and no other thread may concurrently
    /// access any element of it.
    #[allow(clippy::mut_from_ref)] // disjointness is the caller contract
    #[inline]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        debug_assert!(start.checked_add(len).is_some_and(|end| end <= self.len));
        #[cfg(feature = "audit-disjoint")]
        fm_audit::disjoint::claim(
            self.ptr as usize + start * std::mem::size_of::<T>(),
            len * std::mem::size_of::<T>(),
        );
        // SAFETY: in-bounds and exclusive per the caller contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

impl<T: Copy> DisjointSlice<T> {
    /// Writes `value` at `index`.
    ///
    /// # Safety
    ///
    /// `index` must be in bounds and no other thread may concurrently
    /// access the same index.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        #[cfg(feature = "audit-disjoint")]
        fm_audit::disjoint::claim(
            self.ptr as usize + index * std::mem::size_of::<T>(),
            std::mem::size_of::<T>(),
        );
        // SAFETY: in-bounds and exclusive per the caller contract.
        unsafe { *self.ptr.add(index) = value };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_covers_every_worker_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.run(&|t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn epochs_reuse_the_same_threads() {
        let pool = WorkerPool::new(3);
        let sum = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(&|t| {
                sum.fetch_add(t as u64 + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 100 * (1 + 2 + 3));
        let stats = pool.stats();
        assert_eq!(stats.spawned, 3, "threads spawned once, not per epoch");
        assert_eq!(stats.epochs, 100);
    }

    #[test]
    fn borrows_stack_data_into_jobs() {
        let pool = WorkerPool::new(4);
        let mut data = vec![0u64; 4000];
        let shared = DisjointSlice::new(&mut data);
        pool.run(&|t| {
            // SAFETY: each worker owns a disjoint 1000-element range.
            let chunk = unsafe { shared.slice_mut(t * 1000, 1000) };
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = (t * 1000 + i) as u64;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let ran = AtomicUsize::new(0);
        pool.run(&|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn worker_panic_propagates_to_coordinator() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|t| {
                if t == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "coordinator must observe the panic");
        // The pool stays usable after a job panic.
        let ok = AtomicUsize::new(0);
        pool.run(&|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn panic_message_names_worker_and_stage() {
        let pool = WorkerPool::new(3);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_labeled("shuffle-scatter", &|t| {
                if t == 2 {
                    panic!("boom");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("worker 2") && msg.contains("stage shuffle-scatter"),
            "panic message must name the worker and stage, got: {msg}"
        );
    }

    #[test]
    fn stats_track_idle_time() {
        let pool = WorkerPool::new(2);
        pool.run(&|_| {});
        std::thread::sleep(Duration::from_millis(5));
        pool.run(&|_| {});
        // Workers idled at least the sleep (times two workers).
        assert!(pool.stats().idle >= Duration::from_millis(5));
    }

    #[test]
    fn disjoint_slice_point_writes() {
        let mut data = vec![0u32; 8];
        let shared = DisjointSlice::new(&mut data);
        assert_eq!(shared.len(), 8);
        assert!(!shared.is_empty());
        // SAFETY: single-threaded, distinct indices.
        unsafe {
            shared.write(3, 30);
            shared.write(5, 50);
        }
        assert_eq!(data[3], 30);
        assert_eq!(data[5], 50);
    }
}
