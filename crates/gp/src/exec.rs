//! Deterministic fixed-size thread pool for the placement kernels.
//!
//! The smooth-wirelength and density models decompose per-net / per-cell,
//! which makes them embarrassingly parallel — but naive parallel reduction
//! reorders floating-point additions and breaks the placer's bitwise
//! determinism guarantee. This module provides the execution substrate the
//! kernels build on:
//!
//! * [`Executor`] — a fixed-size pool of worker threads (plus the calling
//!   thread) that maps an indexed set of jobs to results **in index
//!   order**. Job *scheduling* is dynamic (work stealing over an atomic
//!   counter) and therefore non-deterministic, but the returned `Vec` is
//!   always ordered by job index, so any reduction the caller performs in
//!   that order is independent of thread count and scheduling.
//! * [`chunk_ranges`] — splits `0..len` into contiguous chunks whose
//!   boundaries depend only on `len`, never on the thread count.
//!
//! With `threads == 1` the executor runs every job inline on the calling
//! thread with no pool, no atomics, and no boxing — the legacy sequential
//! path.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A type-erased unit of work shipped to a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Counts outstanding jobs; `wait` blocks until all have completed.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        // sdp-lint: allow(panic-reachability) -- a poisoned latch means a
        // worker already panicked; propagating that panic is the executor's
        // error model (Executor::map re-raises it on the caller thread).
        let mut left = self.remaining.lock().expect("latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        // sdp-lint: allow(panic-reachability) -- a poisoned latch means a
        // worker already panicked; propagating that panic is the executor's
        // error model (Executor::map re-raises it on the caller thread).
        let mut left = self.remaining.lock().expect("latch poisoned");
        while *left > 0 {
            // sdp-lint: allow(panic-reachability) -- same poisoning argument
            // as the lock above: a panicked worker is re-raised, not masked.
            left = self.done.wait(left).expect("latch poisoned");
        }
    }
}

/// A fixed set of worker threads consuming jobs from a shared queue.
struct ThreadPool {
    workers: Vec<JoinHandle<()>>,
    sender: Option<Sender<Job>>,
}

impl ThreadPool {
    fn new(workers: usize) -> Self {
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("sdp-gp-worker-{i}"))
                    .spawn(move || worker_loop(&rx))
                    // sdp-lint: allow(panic-reachability) -- OS thread-spawn
                    // failure at pool construction is unrecoverable for a
                    // placement run; failing fast beats limping along serial.
                    .expect("failed to spawn placement worker thread")
            })
            .collect();
        ThreadPool {
            workers,
            sender: Some(sender),
        }
    }

    fn submit(&self, job: Job) {
        // `sender` is Some until drop, and workers hold the receiver for the
        // pool's lifetime; job panics are caught into the panic slot, so the
        // channel can only close after the executor itself is gone.
        let Some(sender) = self.sender.as_ref() else {
            unreachable!("pool is live while executor exists");
        };
        if sender.send(job).is_err() {
            unreachable!("worker threads outlive the executor");
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = match rx.lock() {
            // sdp-lint: allow(lock-discipline) -- the mutex exists only to
            // share one Receiver among workers; senders never take it, so
            // blocking in recv() with the guard held cannot deadlock.
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        match job {
            Ok(job) => job(),
            Err(_) => return, // channel closed: executor dropped
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.sender.take(); // close the channel so workers exit
        for w in self.workers.drain(..) {
            // sdp-lint: allow(swallowed-error) -- Drop must not panic; a
            // join error only means a worker panicked, and job panics are
            // already caught and rethrown on the submitting thread.
            let _ = w.join();
        }
    }
}

/// Runs indexed job sets across a fixed number of threads, returning
/// results in job-index order.
///
/// Construct one per placement run and share it across kernel
/// evaluations; worker threads persist for the executor's lifetime.
pub struct Executor {
    pool: Option<ThreadPool>,
    threads: usize,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Executor {
    /// Creates an executor with the given thread count. `0` selects the
    /// machine's available parallelism; `1` is the sequential legacy path
    /// (no pool is created).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let pool = if threads > 1 {
            Some(ThreadPool::new(threads - 1))
        } else {
            None
        };
        Executor { pool, threads }
    }

    /// A single-threaded executor: every job runs inline on the caller.
    pub const fn sequential() -> Self {
        Executor {
            pool: None,
            threads: 1,
        }
    }

    /// The effective thread count (callers + workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(0), f(1), …, f(n-1)` across the pool and returns the
    /// results **in index order**. The calling thread participates, so an
    /// executor with `threads == 1` degenerates to a plain sequential map.
    ///
    /// Scheduling is dynamic (jobs are stolen off an atomic counter), but
    /// because the output preserves index order, any fold the caller does
    /// over it is deterministic regardless of thread count.
    ///
    /// If any job panics, the panic is re-raised on the calling thread
    /// after all in-flight jobs have finished (no worker is left holding a
    /// dangling reference).
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let pool = match &self.pool {
            Some(pool) if n > 1 => pool,
            // sdp-lint: allow(hot-loop-alloc) -- the collect IS the result
            // vector map returns; callers own and reuse it.
            _ => return (0..n).map(f).collect(),
        };

        // sdp-lint: allow(hot-loop-alloc) -- the result buffer itself;
        // map's contract is to return a fresh Vec<T> per call.
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let shared = Shared {
            f: &f,
            slots: SlotsPtr(slots.as_mut_ptr()),
            n,
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };

        let helpers = (self.threads - 1).min(n.saturating_sub(1));
        let latch = Latch::new(helpers);
        {
            let shared_ref = &shared;
            let latch_ref = &latch;
            for _ in 0..helpers {
                // sdp-lint: allow(hot-loop-alloc) -- one small Box per helper
                // thread per dispatch (threads-1 boxes), amortized over a
                // whole chunk of work; an arena would not be observable here.
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    drain(shared_ref);
                    latch_ref.count_down();
                });
                // SAFETY: the job borrows `shared` and `latch`, which live
                // on this frame; `latch.wait()` below blocks until every
                // submitted job ran `count_down`, so the borrows cannot
                // outlive the frame. The transmute only erases the lifetime.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
                pool.submit(job);
            }
            // The caller works too; trap panics so we still wait for the
            // helpers (they borrow our stack) before unwinding.
            let caller_panic = catch_unwind(AssertUnwindSafe(|| drain(shared_ref))).err();
            latch.wait();
            if let Some(payload) = caller_panic {
                resume_unwind(payload);
            }
        }
        // sdp-lint: allow(panic-reachability) -- the panic slot is poisoned
        // only if a worker panicked while recording a panic; re-raising is
        // exactly what this block does anyway.
        if let Some(payload) = shared.panic.lock().expect("panic slot poisoned").take() {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            // sdp-lint: allow(panic-reachability) -- the latch guarantees all
            // n jobs completed and each job writes exactly its own slot; an
            // empty slot is a broken executor invariant worth crashing on.
            .map(|s| s.expect("every job index was drained"))
            // sdp-lint: allow(hot-loop-alloc) -- unwrapping the slot buffer
            // into the returned Vec<T>; this is map's result allocation.
            .collect()
    }
}

/// Raw pointer to the result slots; each index is written by exactly one
/// thread (whoever wins it off the atomic counter), and the latch's mutex
/// establishes the happens-before edge for the caller's reads.
struct SlotsPtr<T>(*mut Option<T>);

// SAFETY: `SlotsPtr` is only used to write disjoint indices from multiple
// threads; `T: Send` is required at the `map` boundary.
unsafe impl<T: Send> Send for SlotsPtr<T> {}
unsafe impl<T: Send> Sync for SlotsPtr<T> {}

struct Shared<'a, T, F> {
    f: &'a F,
    slots: SlotsPtr<T>,
    n: usize,
    next: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Steals job indices until none remain, writing each result into its
/// slot. On panic, records the payload (first wins) and stops stealing;
/// remaining indices are drained by the other participants.
fn drain<T, F>(shared: &Shared<'_, T, F>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    loop {
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= shared.n {
            return;
        }
        match catch_unwind(AssertUnwindSafe(|| (shared.f)(i))) {
            Ok(value) => {
                // SAFETY: index `i` was claimed exclusively via fetch_add,
                // so no other thread writes this slot; `i < n` is checked
                // above and the buffer holds `n` slots.
                unsafe { *shared.slots.0.add(i) = Some(value) };
            }
            Err(payload) => {
                // sdp-lint: allow(panic-reachability) -- poisoning here means
                // another worker panicked while recording its own panic; the
                // first recorded panic still reaches the caller.
                let mut slot = shared.panic.lock().expect("panic slot poisoned");
                if slot.is_none() {
                    *slot = Some(payload);
                }
                // Mark the queue exhausted so peers stop promptly; their
                // already-claimed jobs still finish. (Storing `n`, not
                // `usize::MAX`, keeps later `fetch_add`s from wrapping.)
                shared.next.store(shared.n, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Number of chunks [`chunk_range`] splits `0..len` into: `len` divided
/// into pieces of roughly `target` items. A function of `len` and
/// `target` only — never the thread count.
pub fn chunk_count(len: usize, target: usize) -> usize {
    assert!(target > 0, "chunk target must be positive");
    len.div_ceil(target)
}

/// The `i`-th of [`chunk_count`]`(len, target)` contiguous chunks of
/// `0..len`. Chunk sizes differ by at most one and boundaries depend only
/// on `len` and `target`, so chunked computations reduce identically on
/// any executor. Computing each chunk on demand keeps the solver's inner
/// reductions allocation-free (no `Vec<Range>` per evaluation).
pub fn chunk_range(len: usize, target: usize, i: usize) -> Range<usize> {
    let count = chunk_count(len, target);
    debug_assert!(i < count, "chunk index {i} out of {count}");
    let base = len / count;
    let extra = len % count;
    let start = i * base + i.min(extra);
    start..start + base + usize::from(i < extra)
}

/// Splits `0..len` into contiguous chunks of roughly `target` items.
/// Boundaries depend only on `len` and `target` — never on the thread
/// count — so chunked computations reduce identically on any executor.
/// Hot paths should iterate [`chunk_range`] by index instead of
/// materializing this vector per evaluation.
pub fn chunk_ranges(len: usize, target: usize) -> Vec<Range<usize>> {
    (0..chunk_count(len, target))
        .map(|i| chunk_range(len, target, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_exactly() {
        for len in [0usize, 1, 5, 127, 128, 129, 1000] {
            for target in [1usize, 7, 64, 128, 4096] {
                let ranges = chunk_ranges(len, target);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                assert_eq!(expect, len);
                // Balanced: sizes differ by at most one.
                if let (Some(min), Some(max)) = (
                    ranges.iter().map(|r| r.len()).min(),
                    ranges.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn indexed_chunk_accessors_match_the_materialized_ranges() {
        for len in [0usize, 1, 5, 127, 128, 129, 1000] {
            for target in [1usize, 7, 64, 128, 4096] {
                let ranges = chunk_ranges(len, target);
                assert_eq!(ranges.len(), chunk_count(len, target));
                for (i, r) in ranges.iter().enumerate() {
                    assert_eq!(*r, chunk_range(len, target, i), "len {len} target {target}");
                }
            }
        }
    }

    #[test]
    fn chunks_do_not_depend_on_thread_count() {
        // Trivially true by construction; pin it so a refactor cannot
        // accidentally thread the executor through.
        assert_eq!(chunk_ranges(1000, 128), chunk_ranges(1000, 128));
    }

    #[test]
    fn map_returns_results_in_index_order() {
        for threads in [1, 2, 4, 8] {
            let exec = Executor::new(threads);
            let out = exec.map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_fewer_jobs_than_threads() {
        let exec = Executor::new(8);
        assert_eq!(exec.map(1, |i| i + 1), vec![1]);
        assert_eq!(exec.map(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn executor_is_reusable_across_calls() {
        let exec = Executor::new(4);
        for round in 0..50 {
            let out = exec.map(17, move |i| i + round);
            assert_eq!(out, (0..17).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_means_available_parallelism() {
        let exec = Executor::new(0);
        assert!(exec.threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let exec = Executor::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.map(64, |i| {
                if i == 33 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        assert_eq!(exec.map(4, |i| i), vec![0, 1, 2, 3]);
    }
}

/// Model-check of the slot-dispatch protocol under perturbed thread
/// schedules: `cargo test -p sdp-gp --features loom-check`.
///
/// [`Executor::map`] is built on three claims: (1) job indices claimed
/// via `fetch_add` are unique tickets, so the raw-pointer slot writes are
/// disjoint; (2) the latch's mutex — not `join` — is what makes those
/// writes visible to the caller; (3) the panic path's `store(n)` halts
/// peers without double-claiming. This module re-implements exactly that
/// protocol on `loom` primitives so the model runtime can drive it
/// through many schedules; the assertions fail on any lost or duplicated
/// slot write.
#[cfg(all(test, feature = "loom-check"))]
mod loom_check {
    use loom::sync::atomic::{AtomicUsize, Ordering};
    use loom::sync::{Arc, Condvar, Mutex};
    use loom::thread;

    /// Mirror of [`super::SlotsPtr`] for loom-scheduled threads.
    struct SlotsPtr(*mut Option<usize>);

    // SAFETY: as in production, every index is written by exactly one
    // thread — claims are unique `fetch_add` tickets (asserted below).
    unsafe impl Send for SlotsPtr {}
    unsafe impl Sync for SlotsPtr {}

    /// The shared state of one `map` call: slots, the claim counter, and
    /// the latch. `writes[i]` counts stores into slot `i` so the test can
    /// prove exclusivity, which the production code only claims.
    struct Proto {
        slots: SlotsPtr,
        writes: Vec<AtomicUsize>,
        n: usize,
        next: AtomicUsize,
        remaining: Mutex<usize>,
        done: Condvar,
    }

    /// The model's job body: a pure function of the index.
    fn job(i: usize) -> usize {
        i * i + 1
    }

    /// Mirror of [`super::drain`]'s happy path.
    fn drain(p: &Proto) {
        loop {
            let i = p.next.fetch_add(1, Ordering::Relaxed);
            if i >= p.n {
                return;
            }
            // SAFETY: `i` is a unique ticket below `n`, so no other
            // thread writes this slot; the buffer holds `n` slots.
            unsafe { *p.slots.0.add(i) = Some(job(i)) };
            p.writes[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Mirror of [`super::Latch::count_down`].
    fn count_down(p: &Proto) {
        let mut left = p.remaining.lock().expect("latch poisoned");
        *left -= 1;
        if *left == 0 {
            p.done.notify_all();
        }
    }

    /// Mirror of [`super::Latch::wait`].
    fn wait(p: &Proto) {
        let mut left = p.remaining.lock().expect("latch poisoned");
        while *left > 0 {
            left = p.done.wait(left).expect("latch poisoned");
        }
    }

    #[test]
    fn slot_writes_are_exclusive_and_complete() {
        loom::model(|| {
            const JOBS: usize = 5;
            const HELPERS: usize = 2;
            let mut slots: Box<[Option<usize>]> = vec![None; JOBS].into_boxed_slice();
            let proto = Arc::new(Proto {
                slots: SlotsPtr(slots.as_mut_ptr()),
                writes: (0..JOBS).map(|_| AtomicUsize::new(0)).collect(),
                n: JOBS,
                next: AtomicUsize::new(0),
                remaining: Mutex::new(HELPERS),
                done: Condvar::new(),
            });
            let handles: Vec<_> = (0..HELPERS)
                .map(|_| {
                    let p = Arc::clone(&proto);
                    thread::spawn(move || {
                        drain(&p);
                        count_down(&p);
                    })
                })
                .collect();
            // The caller participates, then blocks on the latch. All
            // exclusivity checks run after `wait` but *before* `join`:
            // the latch alone must order the helpers' writes.
            drain(&proto);
            wait(&proto);
            for (i, w) in proto.writes.iter().enumerate() {
                assert_eq!(w.load(Ordering::Relaxed), 1, "slot {i} written once");
            }
            for h in handles {
                h.join().expect("helper panicked");
            }
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(*s, Some(job(i)), "slot {i} holds its job's result");
            }
        });
    }

    #[test]
    fn exhaustion_store_halts_peers_without_double_claims() {
        // The panic path in `drain` marks the queue exhausted with
        // `store(n)`. Racing peers may still claim in-flight tickets,
        // but no index may ever be claimed twice or out of range.
        loom::model(|| {
            const JOBS: usize = 6;
            let next = Arc::new(AtomicUsize::new(0));
            let claimed = Arc::new(Mutex::new(Vec::new()));
            let stopper = {
                let next = Arc::clone(&next);
                let claimed = Arc::clone(&claimed);
                thread::spawn(move || {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i < JOBS {
                        claimed.lock().expect("claims poisoned").push(i);
                    }
                    next.store(JOBS, Ordering::Relaxed);
                })
            };
            let peer = {
                let next = Arc::clone(&next);
                let claimed = Arc::clone(&claimed);
                thread::spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= JOBS {
                        return;
                    }
                    claimed.lock().expect("claims poisoned").push(i);
                })
            };
            stopper.join().expect("stopper panicked");
            peer.join().expect("peer panicked");
            let claimed = claimed.lock().expect("claims poisoned");
            let unique: std::collections::BTreeSet<usize> = claimed.iter().copied().collect();
            assert_eq!(unique.len(), claimed.len(), "an index was claimed twice");
            assert!(claimed.iter().all(|&i| i < JOBS), "claim out of range");
        });
    }
}
