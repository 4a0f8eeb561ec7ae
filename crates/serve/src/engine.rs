//! The job engine: a bounded queue, a fixed worker pool, per-job
//! cancellation/deadlines, crash isolation, and — because results are
//! deterministic — a content-addressed result cache, request
//! coalescing, and a persistent job store.
//!
//! Each worker runs one job at a time under
//! `std::panic::catch_unwind`, so a panicking job becomes a structured
//! `failed` state for that job alone — the pool keeps serving. A job's
//! [`sdp_core::Observer`] is wired to its [`CancelToken`] and deadline,
//! which the flow polls at phase boundaries and once per
//! global-placement outer iteration; cancellation therefore lands
//! mid-phase, not just between jobs.
//!
//! Determinism: the result body a job stores depends only on its spec
//! (design + seed + flow config) — never on the job id, submission
//! order, wall-clock readings, or worker count — so identical specs
//! produce byte-identical results at any server concurrency. That
//! invariant is what makes the following sound:
//!
//! - **Result cache** ([`crate::cache`]): a submission whose canonical
//!   hash ([`crate::canon::spec_hash`]) matches a cached body is
//!   answered `Done` immediately with byte-identical bytes — no queue,
//!   no placement.
//! - **Coalescing**: a submission matching an *in-flight* job attaches
//!   to it; one placement runs, every attached id completes together.
//!   Cancelling an attached id only detaches it — a run other waiters
//!   share is never killed, and a run nobody wants anymore is stopped
//!   cooperatively.
//! - **Persistence** ([`crate::store`]): terminal transitions are
//!   appended (fsync'd) to `jobs.log` under the state dir; startup
//!   replays the log, restores terminal records, and warms the cache,
//!   so a restart loses no finished result.
//!
//! Lock hierarchy (see DESIGN.md §8): `queue → jobs` is the only
//! nesting; `cache` and `store` are always acquired alone.

use crate::cache::ResultCache;
use crate::canon;
use crate::metrics::Metrics;
use crate::spec::{CaseSource, JobSpec};
use crate::store::{JobStore, StoredRecord};
use sdp_core::{
    CancelToken, Cancelled, FlowOutput, MonotonicClock, Observer, Phase, PhaseTimes, ProgressSink,
    StructurePlacer,
};
use sdp_json::Json;
use sdp_netlist::Netlist;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Worker-pool sizing, queue bound, cache budget, and persistence.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. `0` is allowed (jobs queue but never run) — used
    /// by backpressure tests and drain-only setups.
    pub workers: usize,
    /// Bounded queue depth; submissions beyond it are rejected (429).
    pub queue_depth: usize,
    /// Terminal-state records (Done/Failed/Cancelled) retained for
    /// clients to fetch; once exceeded, the oldest are evicted and
    /// their ids answer 404. Bounds server memory — result bodies can
    /// be large, and a long-running server must not grow per completed
    /// job forever.
    pub retain_terminal: usize,
    /// Byte budget for the content-addressed result cache (`0`
    /// disables caching; coalescing still applies to in-flight jobs).
    pub cache_bytes: usize,
    /// Directory for the persistent job store; `None` keeps all state
    /// in memory. The log inside is replayed on startup.
    pub state_dir: Option<std::path::PathBuf>,
    /// Kernel threads given to jobs whose spec leaves `gp.threads` at
    /// `0` ("available parallelism"). `0` keeps that meaning; a
    /// positive value pins the per-job default (`--threads`). Never
    /// part of the canonical hash — results are bitwise identical at
    /// every thread count.
    pub default_threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 2,
            queue_depth: 16,
            retain_terminal: 256,
            cache_bytes: 64 * 1024 * 1024,
            state_dir: None,
            default_threads: 0,
        }
    }
}

/// A job's lifecycle state.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// A worker is placing it.
    Running,
    /// Finished; the deterministic result body is stored.
    Done,
    /// The job crashed; the panic is recorded, the server kept serving.
    Failed,
    /// Cancelled by a client or its deadline before finishing.
    Cancelled,
}

impl JobState {
    /// Stable lowercase name used in status bodies.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is final (Done/Failed/Cancelled).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

/// Everything the engine tracks about one job.
struct JobRecord {
    label: String,
    state: JobState,
    token: CancelToken,
    submitted: Instant,
    /// Canonical spec hash — the content address shared with the cache,
    /// the in-flight map, and the persistent store.
    hash: u64,
    /// For a coalesced submission: the primary job whose execution this
    /// id is attached to.
    coalesced_into: Option<u64>,
    /// Current phase and fraction while running.
    phase: Option<Phase>,
    frac: f64,
    /// Deterministic result body (`Done` only), shared with the cache
    /// and every record of the same execution.
    result: Option<Arc<str>>,
    /// Failure / cancellation detail.
    error: Option<String>,
    /// Timings for the status endpoint (never part of the result body).
    queue_wait_s: Option<f64>,
    run_s: Option<f64>,
    times: Option<PhaseTimes>,
}

impl JobRecord {
    fn new(spec: &JobSpec, hash: u64) -> JobRecord {
        JobRecord {
            label: spec.label.clone(),
            state: JobState::Queued,
            token: CancelToken::new(),
            // sdp-lint: allow(determinism-taint) -- the submission timestamp
            // feeds queue_wait_s in status metadata and metrics only; result
            // bodies are produced by run_job from the spec alone.
            submitted: Instant::now(),
            hash,
            coalesced_into: None,
            phase: None,
            frac: 0.0,
            result: None,
            error: None,
            queue_wait_s: None,
            run_s: None,
            times: None,
        }
    }

    /// Rebuilds a terminal record from the persistent store at startup.
    fn replayed(rec: &StoredRecord) -> JobRecord {
        JobRecord {
            label: rec.label.clone(),
            state: rec.state.clone(),
            token: CancelToken::new(),
            // sdp-lint: allow(determinism-taint) -- replay timestamp; orders
            // retention pruning only, never result bytes (the replayed body
            // was produced before this process even started).
            submitted: Instant::now(),
            hash: rec.hash,
            coalesced_into: None,
            phase: None,
            frac: 0.0,
            result: rec.result.clone(),
            error: rec.error.clone(),
            queue_wait_s: None,
            run_s: None,
            times: None,
        }
    }
}

/// Builds the persistable form of a (terminal) record.
fn stored_record(id: u64, r: &JobRecord) -> StoredRecord {
    StoredRecord {
        id,
        hash: r.hash,
        label: r.label.clone(),
        state: r.state.clone(),
        result: r.result.clone(),
        error: r.error.clone(),
    }
}

/// Why a submission was not accepted.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — back off and retry (429).
    Busy,
    /// The engine is draining for shutdown (503).
    ShuttingDown,
}

/// Everything guarded by the `jobs` mutex: the records themselves plus
/// the two content-address indices that must stay consistent with them.
struct JobsState {
    records: BTreeMap<u64, JobRecord>,
    /// Canonical hash → primary job id whose execution is queued or
    /// running. New identical submissions attach here instead of
    /// queueing a second placement.
    inflight: BTreeMap<u64, u64>,
    /// Primary id → attached (coalesced) submission ids, completed
    /// together with the primary's execution.
    waiters: BTreeMap<u64, Vec<u64>>,
}

struct Shared {
    cfg: EngineConfig,
    queue: Mutex<VecDeque<(u64, JobSpec)>>,
    available: Condvar,
    jobs: Mutex<JobsState>,
    /// Content-addressed result cache. Always locked alone — never
    /// while `queue` or `jobs` is held (see the module docs).
    cache: Mutex<ResultCache>,
    /// Persistent job store, when a state dir is configured. Always
    /// locked alone, after every other guard is dropped.
    store: Option<Mutex<JobStore>>,
    next_id: AtomicU64,
    shutting: AtomicBool,
    metrics: Metrics,
}

impl Shared {
    /// Appends terminal records to the store, best-effort: a failing
    /// disk degrades durability, never serving. Callers must hold no
    /// engine lock.
    fn persist(&self, recs: &[StoredRecord]) {
        let Some(store) = &self.store else {
            return;
        };
        if recs.is_empty() {
            return;
        }
        let mut store = lock(store);
        for rec in recs {
            if let Err(e) = store.append(rec) {
                note_store_error(&self.metrics, "append", &e);
            }
        }
    }
}

/// Counts every job-store write failure in
/// `sdp_serve_store_errors_total` and logs the first one per process —
/// durability degradation must be observable, not silent, even though
/// it never fails serving.
fn note_store_error(metrics: &Metrics, what: &str, e: &std::io::Error) {
    static LOGGED: AtomicBool = AtomicBool::new(false);
    metrics.store_errors.fetch_add(1, Ordering::Relaxed);
    if !LOGGED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "sdp-serve: job store {what} failed: {e} \
             (durability degraded; see sdp_serve_store_errors_total)"
        );
    }
}

/// Mutex access that survives a poisoned lock: a panicking job is caught
/// inside `catch_unwind` before any engine lock is released abnormally,
/// but a defensive read of poisoned state beats a cascading panic.
fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The engine handle: submit/inspect/cancel jobs, drain on shutdown.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Engine {
    /// Starts the worker pool. With a state dir configured, first
    /// replays the record log: terminal records are restored (so their
    /// ids keep answering), the result cache is warmed from replayed
    /// bodies, and the log is compacted to the surviving records.
    pub fn start(cfg: EngineConfig) -> std::io::Result<Engine> {
        let mut cache = ResultCache::new(cfg.cache_bytes);
        let mut records: BTreeMap<u64, JobRecord> = BTreeMap::new();
        let mut store = None;
        let mut next_id = 1u64;
        if let Some(dir) = &cfg.state_dir {
            let (s, replay) = JobStore::open(dir)?;
            // Log order is append order; last record per id wins.
            let mut by_id: BTreeMap<u64, StoredRecord> = BTreeMap::new();
            for rec in replay {
                by_id.insert(rec.id, rec);
            }
            for (id, rec) in by_id {
                next_id = next_id.max(id + 1);
                if rec.state == JobState::Done {
                    if let Some(body) = &rec.result {
                        cache.insert(rec.hash, Arc::clone(body));
                    }
                }
                records.insert(id, JobRecord::replayed(&rec));
            }
            store = Some(Mutex::new(s));
        }
        let replayed = records.len() as u64;
        let mut jobs = JobsState {
            records,
            inflight: BTreeMap::new(),
            waiters: BTreeMap::new(),
        };
        // Retention spans restarts: an old log must not resurrect more
        // records than a live server would have kept.
        prune_terminal(&mut jobs, cfg.retain_terminal);
        let metrics = Metrics::default();
        metrics.replayed.store(replayed, Ordering::Relaxed);
        if let Some(store) = &store {
            let survivors: Vec<StoredRecord> = jobs
                .records
                .iter()
                .map(|(&id, r)| stored_record(id, r))
                .collect();
            if let Err(e) = lock(store).rewrite(survivors.iter()) {
                note_store_error(&metrics, "startup compaction", &e);
            }
        }

        let shared = Arc::new(Shared {
            cfg: cfg.clone(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            jobs: Mutex::new(jobs),
            cache: Mutex::new(cache),
            store,
            next_id: AtomicU64::new(next_id),
            shutting: AtomicBool::new(false),
            metrics,
        });
        let mut workers = Vec::with_capacity(cfg.workers);
        for ix in 0..cfg.workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("sdp-serve-worker-{ix}"))
                .spawn(move || worker_loop(&shared))?;
            workers.push(handle);
        }
        Ok(Engine {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// Queues a validated job — or answers it without queueing: a spec
    /// whose canonical hash has a cached result transitions straight to
    /// `Done` with byte-identical bytes, and one matching an in-flight
    /// job attaches to it instead of running a second placement.
    /// Applies backpressure when the bounded queue is full.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        let hash = canon::spec_hash(&spec);

        // Content-addressed fast path. The cache guard is statement-
        // scoped: it is never held while `queue`/`jobs` is taken.
        let cached = lock(&self.shared.cache).get(hash);
        if let Some(body) = cached {
            if self.shared.shutting.load(Ordering::Acquire) {
                return Err(SubmitError::ShuttingDown);
            }
            let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
            let mut record = JobRecord::new(&spec, hash);
            record.state = JobState::Done;
            record.result = Some(body);
            let stored = stored_record(id, &record);
            {
                let mut jobs = lock(&self.shared.jobs);
                jobs.records.insert(id, record);
                prune_terminal(&mut jobs, self.shared.cfg.retain_terminal);
            }
            self.shared
                .metrics
                .submitted
                .fetch_add(1, Ordering::Relaxed);
            self.shared
                .metrics
                .cache_hits
                .fetch_add(1, Ordering::Relaxed);
            self.shared.persist(&[stored]);
            return Ok(id);
        }

        let mut queue = lock(&self.shared.queue);
        // Checked under the queue lock: `shutdown()` sets the flag and
        // workers decide to exit under this same lock, so an enqueue can
        // never slip in after the pool has drained and left (which would
        // strand the job in `Queued` forever).
        if self.shared.shutting.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let mut jobs = lock(&self.shared.jobs);
        if let Some(&primary) = jobs.inflight.get(&hash) {
            // Attach to the in-flight identical job — unless its token
            // is already cancelled, in which case its execution will be
            // skipped or stopped and cannot deliver a result.
            let attachable = jobs
                .records
                .get(&primary)
                .is_some_and(|p| !p.token.is_cancelled());
            if attachable {
                let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
                let mut record = JobRecord::new(&spec, hash);
                record.coalesced_into = Some(primary);
                jobs.records.insert(id, record);
                jobs.waiters.entry(primary).or_default().push(id);
                // Guards fall out of scope on return (jobs, then queue);
                // the counters below are atomics, not locks.
                self.shared
                    .metrics
                    .submitted
                    .fetch_add(1, Ordering::Relaxed);
                self.shared
                    .metrics
                    .coalesced
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(id);
            }
        }
        if queue.len() >= self.shared.cfg.queue_depth {
            self.shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Busy);
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        jobs.records.insert(id, JobRecord::new(&spec, hash));
        jobs.inflight.insert(hash, id);
        queue.push_back((id, spec));
        // Guards release at return; the counters are atomics and
        // `notify_one` does not block, so nothing below adds a lock edge.
        self.shared
            .metrics
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .metrics
            .cache_misses
            .fetch_add(1, Ordering::Relaxed);
        self.shared.available.notify_one();
        Ok(id)
    }

    /// The status body for a job, or `None` for unknown ids.
    pub fn status_json(&self, id: u64) -> Option<String> {
        let jobs = lock(&self.shared.jobs);
        let r = jobs.records.get(&id)?;
        let mut pairs = vec![
            ("id", Json::num(id as f64)),
            ("design", Json::str(r.label.clone())),
            ("state", Json::str(r.state.name())),
        ];
        if let Some(primary) = r.coalesced_into {
            pairs.push(("coalesced_into", Json::num(primary as f64)));
        }
        if let Some(phase) = r.phase {
            pairs.push(("phase", Json::str(phase.name())));
            pairs.push(("progress", Json::num(r.frac)));
        }
        if let Some(w) = r.queue_wait_s {
            pairs.push(("queue_wait_s", Json::num(w)));
        }
        if let Some(s) = r.run_s {
            pairs.push(("run_s", Json::num(s)));
        }
        if let Some(t) = r.times {
            pairs.push((
                "phase_s",
                Json::obj([
                    ("extract", Json::num(t.extract)),
                    ("global", Json::num(t.global)),
                    ("legalize", Json::num(t.legalize)),
                    ("detailed", Json::num(t.detailed)),
                    ("route", Json::num(t.route)),
                ]),
            ));
        }
        if let Some(e) = &r.error {
            pairs.push(("error", Json::str(e.clone())));
        }
        Some(Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_string())
    }

    /// The result endpoint: `(status, body)` for a known job — 200 with
    /// the deterministic result, 409 while unfinished, 500 for a crashed
    /// job, 410-style 409 for a cancelled one. `None` for unknown ids.
    pub fn result_response(&self, id: u64) -> Option<(u16, String)> {
        // Under the lock only the shared body's refcount moves; its bytes
        // are copied out after the guard is gone.
        let done = {
            let jobs = lock(&self.shared.jobs);
            let r = jobs.records.get(&id)?;
            match (&r.state, &r.result) {
                (JobState::Done, Some(body)) => Ok(Arc::clone(body)),
                (JobState::Failed, _) => Err((
                    500,
                    error_body(
                        "job failed",
                        r.error.as_deref().unwrap_or("unknown failure"),
                    ),
                )),
                (JobState::Cancelled, _) => Err((
                    409,
                    error_body("job cancelled", r.error.as_deref().unwrap_or("cancelled")),
                )),
                _ => Err((409, error_body("job not finished", r.state.name()))),
            }
        };
        Some(match done {
            Ok(body) => (200, body.to_string()),
            Err(resp) => resp,
        })
    }

    /// Requests cancellation. Returns the resulting state name, or
    /// `None` for unknown ids.
    ///
    /// Semantics per case:
    /// - a **queued job nobody else shares** flips to `Cancelled`
    ///   immediately (the worker's pop recheck skips it);
    /// - a **running job nobody else shares** is cancelled
    ///   cooperatively — it stops at its next checkpoint, mid-phase;
    /// - a **coalesced id** (attached or primary-with-waiters) only
    ///   *detaches*: this id turns `Cancelled` now, while the shared
    ///   execution keeps running for the remaining ids. When the last
    ///   interested id detaches, the execution is stopped cooperatively.
    pub fn cancel(&self, id: u64) -> Option<&'static str> {
        let mut jobs = lock(&self.shared.jobs);
        let (state, coalesced_into, hash) = {
            let r = jobs.records.get(&id)?;
            (r.state.clone(), r.coalesced_into, r.hash)
        };
        if state.is_terminal() {
            return Some(state.name());
        }

        if let Some(primary) = coalesced_into {
            // Detach a waiter; never touch the shared run — unless this
            // was the last id interested in an already-detached primary.
            if let Some(ws) = jobs.waiters.get_mut(&primary) {
                ws.retain(|&w| w != id);
                if ws.is_empty() {
                    jobs.waiters.remove(&primary);
                    if let Some(p) = jobs.records.get(&primary) {
                        if p.state.is_terminal() {
                            p.token.cancel();
                        }
                    }
                }
            }
            let stored = self.finish_cancel(&mut jobs, id);
            drop(jobs);
            self.shared.persist(&stored);
            return Some("cancelled");
        }

        let has_waiters = jobs.waiters.get(&id).is_some_and(|w| !w.is_empty());
        if has_waiters {
            // Detach the primary: its id turns Cancelled, but the
            // execution it anchors keeps running for the waiters (the
            // token stays un-cancelled; completion skips terminal ids).
            let stored = self.finish_cancel(&mut jobs, id);
            drop(jobs);
            self.shared.persist(&stored);
            return Some("cancelled");
        }

        match state {
            JobState::Queued => {
                // Nobody shares it and no worker holds it: terminal now.
                if let Some(r) = jobs.records.get_mut(&id) {
                    r.token.cancel();
                }
                if jobs.inflight.get(&hash) == Some(&id) {
                    jobs.inflight.remove(&hash);
                }
                let stored = self.finish_cancel(&mut jobs, id);
                drop(jobs);
                self.shared.persist(&stored);
                Some("cancelled")
            }
            _ => {
                // Running: cooperative — the worker observes the token
                // at its next checkpoint and records the cancellation.
                if let Some(r) = jobs.records.get_mut(&id) {
                    r.token.cancel();
                    if r.error.is_none() {
                        r.error = Some("cancelled by client".to_string());
                    }
                }
                Some("running")
            }
        }
    }

    /// Marks `id` Cancelled, counts it, prunes, and returns the record
    /// to persist (callers drop the jobs guard, then persist).
    fn finish_cancel(&self, jobs: &mut JobsState, id: u64) -> Vec<StoredRecord> {
        let mut stored = Vec::new();
        if let Some(r) = jobs.records.get_mut(&id) {
            r.state = JobState::Cancelled;
            if r.error.is_none() {
                r.error = Some("cancelled by client".to_string());
            }
            stored.push(stored_record(id, r));
        }
        self.shared
            .metrics
            .cancelled
            .fetch_add(1, Ordering::Relaxed);
        prune_terminal(jobs, self.shared.cfg.retain_terminal);
        stored
    }

    /// Prometheus exposition text.
    pub fn metrics_text(&self) -> String {
        let depth = lock(&self.shared.queue).len();
        let cache_bytes = lock(&self.shared.cache).bytes();
        self.shared.metrics.render(
            depth,
            self.shared.cfg.queue_depth,
            self.shared.cfg.workers,
            cache_bytes,
        )
    }

    /// Graceful shutdown: stop accepting, wake every worker, and join
    /// them after they drain the queue (in-flight jobs run to
    /// completion; queued jobs still execute before the pool exits).
    pub fn shutdown(&self) {
        {
            // Under the queue lock so it serializes with `submit`'s
            // check — see the comment there.
            let _queue = lock(&self.shared.queue);
            self.shared.shutting.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        // Take the handles out under the lock, join with it released: a
        // concurrent `shutdown()` (or anything else touching the pool)
        // must never block behind worker drain time.
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for handle in handles {
            // sdp-lint: allow(swallowed-error) -- a join error only means
            // the worker panicked, which the per-job catch_unwind already
            // recorded in jobs_failed; shutdown must drain regardless.
            let _ = handle.join();
        }
    }

    /// Snapshot of `(state, has_result)` — used by tests and the CLI's
    /// shutdown report.
    pub fn peek_state(&self, id: u64) -> Option<(JobState, bool)> {
        let jobs = lock(&self.shared.jobs);
        jobs.records
            .get(&id)
            .map(|r| (r.state.clone(), r.result.is_some()))
    }
}

/// A `{"error": …, "detail": …}` body.
pub fn error_body(error: &str, detail: &str) -> String {
    Json::obj([("error", Json::str(error)), ("detail", Json::str(detail))]).to_string()
}

/// The per-job progress sink: forwards phase/fraction into the job
/// record and folds the deadline into cancellation.
struct JobSink {
    shared: Arc<Shared>,
    id: u64,
    token: CancelToken,
    deadline: Option<Instant>,
}

impl ProgressSink for JobSink {
    fn report(&self, phase: Phase, frac: f64) {
        let mut jobs = lock(&self.shared.jobs);
        if let Some(r) = jobs.records.get_mut(&self.id) {
            r.phase = Some(phase);
            r.frac = frac;
        }
    }

    fn cancelled(&self) -> bool {
        if self.token.is_cancelled() {
            return true;
        }
        if let Some(deadline) = self.deadline {
            // sdp-lint: allow(determinism-taint) -- the deadline check only
            // decides WHETHER a job completes (cancelled vs done); a job that
            // does complete produces bytes independent of the clock.
            if Instant::now() >= deadline {
                let mut jobs = lock(&self.shared.jobs);
                if let Some(r) = jobs.records.get_mut(&self.id) {
                    if r.error.is_none() {
                        r.error = Some("deadline exceeded".to_string());
                    }
                }
                return true;
            }
        }
        false
    }
}

/// Decrements the live-workers gauge however the worker exits — the
/// gauge is how the deadline-regression test observes worker death.
struct WorkerLiveGuard(Arc<Shared>);

impl Drop for WorkerLiveGuard {
    fn drop(&mut self) {
        self.0.metrics.workers_live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What the pop recheck decided about a claimed task.
enum Claim {
    /// Run the placement with this token; `hash` keys cache/inflight.
    Run { token: CancelToken, hash: u64 },
    /// Skip it (cancelled while queued, or terminal with no waiters).
    Skip,
}

fn worker_loop(shared: &Arc<Shared>) {
    shared.metrics.workers_live.fetch_add(1, Ordering::Relaxed);
    let _live = WorkerLiveGuard(Arc::clone(shared));
    loop {
        let task = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(t) = queue.pop_front() {
                    break Some(t);
                }
                if shared.shutting.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        let Some((id, spec)) = task else {
            return;
        };

        // Claim the job. A cancel that raced the queue pop is honoured
        // here without running anything — unless coalesced waiters
        // still want the result, in which case a terminal (detached)
        // primary still anchors the execution.
        let (claim, stored) = {
            let mut jobs = lock(&shared.jobs);
            let has_waiters = jobs.waiters.get(&id).is_some_and(|w| !w.is_empty());
            let Some(r) = jobs.records.get_mut(&id) else {
                continue;
            };
            let wait = r.submitted.elapsed().as_secs_f64();
            r.queue_wait_s = Some(wait);
            shared.metrics.observe_queue_wait(wait);
            let hash = r.hash;
            let mut stored = Vec::new();
            let claim = if r.token.is_cancelled() && !has_waiters {
                if !r.state.is_terminal() {
                    r.state = JobState::Cancelled;
                    shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                    stored.push(stored_record(id, r));
                }
                Claim::Skip
            } else if r.state.is_terminal() && !has_waiters {
                // Already settled (e.g. cancelled immediately while
                // queued) and nobody is attached: nothing to run.
                Claim::Skip
            } else {
                if !r.state.is_terminal() {
                    r.state = JobState::Running;
                }
                Claim::Run {
                    token: r.token.clone(),
                    hash,
                }
            };
            if matches!(claim, Claim::Skip) {
                if jobs.inflight.get(&hash) == Some(&id) {
                    jobs.inflight.remove(&hash);
                }
                prune_terminal(&mut jobs, shared.cfg.retain_terminal);
            }
            (claim, stored)
        };
        shared.persist(&stored);
        let Claim::Run { token, hash } = claim else {
            continue;
        };

        // sdp-lint: allow(determinism-taint) -- start-of-run timestamp;
        // feeds run_s status metadata and the deadline basis, never the
        // result body bytes.
        let started = Instant::now();

        // Crash isolation: a panicking job must not take the worker (or
        // the server) down — it becomes this job's `failed` state. All
        // per-job setup lives inside the boundary too, so a pathological
        // spec can only ever fail its own job.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // An unrepresentable deadline clamps to "no deadline"
            // rather than panicking; the parse-level cap makes this
            // unreachable through the API, so this is defense in depth.
            let deadline = spec
                .deadline_ms
                .and_then(|ms| started.checked_add(std::time::Duration::from_millis(ms)));
            let sink = JobSink {
                shared: Arc::clone(shared),
                id,
                token: token.clone(),
                deadline,
            };
            let obs = Observer::new(Arc::new(MonotonicClock::new()), Arc::new(sink));
            run_job(&spec, &obs, shared.cfg.default_threads)
        }));

        // Cache a successful body before publishing any job state, so
        // the content address is warm by the time a client could see
        // `done`. The cache guard is statement-scoped — never held
        // while `jobs` is taken.
        if let Ok(Ok((body, _))) = &outcome {
            lock(&shared.cache).insert(hash, Arc::clone(body));
        }

        let run_s = started.elapsed().as_secs_f64();
        let mut jobs = lock(&shared.jobs);
        if jobs.inflight.get(&hash) == Some(&id) {
            jobs.inflight.remove(&hash);
        }
        let attached = jobs.waiters.remove(&id).unwrap_or_default();
        if let Some(r) = jobs.records.get_mut(&id) {
            r.run_s = Some(run_s);
            r.phase = None;
        }
        let mut stored: Vec<StoredRecord> = Vec::new();
        // The outcome applies to the primary and every attached id that
        // has not already detached (detached ids keep their Cancelled
        // state — they were persisted when they detached).
        let targets = std::iter::once(id).chain(attached);
        match outcome {
            Ok(Ok((body, times))) => {
                shared.metrics.observe_phases(&times);
                // `completed` counts placements that produced a result:
                // exactly one however many submissions share the bytes.
                shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
                for target in targets {
                    let Some(r) = jobs.records.get_mut(&target) else {
                        continue;
                    };
                    if r.state.is_terminal() {
                        continue;
                    }
                    r.state = JobState::Done;
                    r.result = Some(Arc::clone(&body));
                    r.times = Some(times);
                    stored.push(stored_record(target, r));
                }
            }
            Ok(Err(Cancelled)) => {
                let reason = jobs
                    .records
                    .get(&id)
                    .and_then(|r| r.error.clone())
                    .unwrap_or_else(|| "cancelled".to_string());
                for target in targets {
                    let Some(r) = jobs.records.get_mut(&target) else {
                        continue;
                    };
                    if r.state.is_terminal() {
                        continue;
                    }
                    r.state = JobState::Cancelled;
                    if r.error.is_none() {
                        r.error = Some(reason.clone());
                    }
                    shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                    stored.push(stored_record(target, r));
                }
            }
            Err(payload) => {
                let msg = format!("job panicked: {}", panic_message(payload.as_ref()));
                for target in targets {
                    let Some(r) = jobs.records.get_mut(&target) else {
                        continue;
                    };
                    if r.state.is_terminal() {
                        continue;
                    }
                    r.state = JobState::Failed;
                    r.error = Some(msg.clone());
                    shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                    stored.push(stored_record(target, r));
                }
            }
        }
        prune_terminal(&mut jobs, shared.cfg.retain_terminal);
        drop(jobs);
        shared.persist(&stored);
    }
}

/// Evicts the oldest terminal-state records beyond `keep`, so memory is
/// bounded by `keep` retained results plus the queued/running set (itself
/// bounded by queue depth + workers). Evicted ids answer 404 afterwards.
/// Records still anchoring an execution (an in-flight primary — possibly
/// detached-cancelled with waiters attached) are never evicted: the
/// worker that pops them still distributes results through them.
fn prune_terminal(jobs: &mut JobsState, keep: usize) {
    let executing: BTreeSet<u64> = jobs.inflight.values().copied().collect();
    let terminal: Vec<u64> = jobs
        .records
        .iter()
        .filter(|(id, r)| r.state.is_terminal() && !executing.contains(id))
        .map(|(&id, _)| id)
        .collect();
    // BTreeMap iteration is id-ascending, so the front of `terminal` is
    // oldest-first.
    for id in terminal.iter().take(terminal.len().saturating_sub(keep)) {
        jobs.records.remove(id);
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Runs one job to completion. Only ever called inside the worker's
/// `catch_unwind` boundary — the chaos hook below relies on that.
/// `default_threads` fills in `gp.threads == 0` specs (server-operator
/// control; never result-affecting — see [`crate::canon`]).
fn run_job(
    spec: &JobSpec,
    obs: &Observer,
    default_threads: usize,
) -> Result<(Arc<str>, PhaseTimes), Cancelled> {
    if spec.chaos_panic {
        panic!("chaos requested by job spec");
    }
    obs.checkpoint()?;
    let generated;
    let (netlist, design, placement) = match &spec.source {
        CaseSource::Generated(cfg) => {
            generated = sdp_dpgen::generate(cfg);
            (&generated.netlist, &generated.design, &generated.placement)
        }
        CaseSource::Loaded { case, .. } => (&case.netlist, &case.design, &case.placement),
    };
    obs.checkpoint()?;
    let mut flow = spec.flow.clone();
    if default_threads != 0 && flow.gp.threads == 0 {
        flow.gp.threads = default_threads;
    }
    let out = StructurePlacer::new(flow).place_with(netlist, design, placement, obs)?;
    let times = out.report.times;
    Ok((result_body(netlist, &out).into(), times))
}

/// The deterministic result body: metrics and the final placement,
/// **excluding** every timing field, the job id, and anything else that
/// varies run-to-run — identical specs must yield byte-identical
/// results regardless of server concurrency.
fn result_body(netlist: &Netlist, out: &FlowOutput) -> String {
    let placement: Vec<Json> = netlist
        .cell_ids()
        .map(|c| {
            let p = out.placement.get(c);
            Json::str(format!("{} {} {}", netlist.cell(c).name, p.x, p.y))
        })
        .collect();
    let mut members: Vec<(&str, Json)> = vec![
        (
            "alignment",
            Json::obj([
                (
                    "aligned_row_fraction",
                    Json::num(out.report.alignment.aligned_row_fraction),
                ),
                (
                    "mean_row_y_spread",
                    Json::num(out.report.alignment.mean_row_y_spread),
                ),
                (
                    "mean_col_x_spread",
                    Json::num(out.report.alignment.mean_col_x_spread),
                ),
                (
                    "rows_measured",
                    Json::num(out.report.alignment.rows_measured as f64),
                ),
            ]),
        ),
        (
            "hpwl",
            Json::obj([
                ("total", Json::num(out.report.hpwl.total)),
                ("datapath", Json::num(out.report.hpwl.datapath)),
                ("other", Json::num(out.report.hpwl.other)),
                (
                    "datapath_nets",
                    Json::num(out.report.hpwl.datapath_nets as f64),
                ),
            ]),
        ),
        ("legal_violations", Json::num(out.legal_violations as f64)),
        ("num_groups", Json::num(out.report.num_groups as f64)),
        (
            "num_group_cells",
            Json::num(out.report.num_group_cells as f64),
        ),
        (
            "gp_outer_iters",
            Json::num(out.report.gp.outer_iters as f64),
        ),
        ("gp_evals", Json::num(out.report.gp.evals as f64)),
    ];
    // Routed metrics appear only for route-mode specs, keeping every
    // existing spec's body byte-identical to what it was.
    if let Some(r) = &out.report.route {
        members.push((
            "route",
            Json::obj([
                ("wirelength", Json::num(r.wirelength)),
                ("overflow", Json::num(r.overflow as f64)),
                ("overflowed_edges", Json::num(r.overflowed_edges as f64)),
                ("max_utilization", Json::num(r.max_utilization)),
                ("rrr_iterations", Json::num(r.iterations as f64)),
                ("segments", Json::num(r.segments as f64)),
                ("feedback_rounds", Json::num(out.report.route_rounds as f64)),
                ("grid_x", Json::num(r.grid.0 as f64)),
                ("grid_y", Json::num(r.grid.1 as f64)),
            ]),
        ));
    }
    members.push(("placement", Json::Arr(placement)));
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    fn wait_done(engine: &Engine, id: u64) -> JobState {
        for _ in 0..600 {
            if let Some((state, _)) = engine.peek_state(id) {
                if state.is_terminal() {
                    return state;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("job {id} never settled");
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sdp-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn identical_specs_yield_byte_identical_results() {
        // Cache disabled and submissions sequential, so the second job
        // genuinely re-runs placement — this pins the determinism
        // invariant itself, not the cache shortcut built on it.
        let engine = Engine::start(EngineConfig {
            workers: 4,
            queue_depth: 8,
            cache_bytes: 0,
            ..EngineConfig::default()
        })
        .unwrap();
        let spec = r#"{"design": {"preset": "dp_tiny", "seed": 11}}"#;
        let a = engine.submit(parse_spec(spec).unwrap()).unwrap();
        assert_eq!(wait_done(&engine, a), JobState::Done);
        let b = engine.submit(parse_spec(spec).unwrap()).unwrap();
        assert_eq!(wait_done(&engine, b), JobState::Done);
        let (sa, ra) = engine.result_response(a).unwrap();
        let (sb, rb) = engine.result_response(b).unwrap();
        assert_eq!((sa, sb), (200, 200));
        assert_eq!(ra, rb, "same spec re-run from scratch → same bytes");
        assert!(ra.contains("\"placement\""));
        let metrics = engine.metrics_text();
        assert!(
            metrics.contains("sdp_serve_jobs_completed_total 2"),
            "cache off: both placements ran: {metrics}"
        );
        engine.shutdown();
    }

    #[test]
    fn cache_hit_returns_identical_bytes_without_rerunning() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            ..EngineConfig::default()
        })
        .unwrap();
        let spec = r#"{"design": {"preset": "dp_tiny", "seed": 21}}"#;
        let a = engine.submit(parse_spec(spec).unwrap()).unwrap();
        assert_eq!(wait_done(&engine, a), JobState::Done);
        let (_, ra) = engine.result_response(a).unwrap();

        let t0 = std::time::Instant::now();
        let b = engine.submit(parse_spec(spec).unwrap()).unwrap();
        let (state, has_result) = engine.peek_state(b).unwrap();
        let hit_latency = t0.elapsed();
        assert_eq!(
            (state, has_result),
            (JobState::Done, true),
            "a cache hit is Done the moment submit returns"
        );
        assert!(
            hit_latency < std::time::Duration::from_millis(10),
            "hit took {hit_latency:?}; a placement takes orders of magnitude longer"
        );
        let (_, rb) = engine.result_response(b).unwrap();
        assert_eq!(ra, rb, "cached bytes are the placed bytes");
        let metrics = engine.metrics_text();
        assert!(
            metrics.contains("sdp_serve_cache_hits_total 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("sdp_serve_jobs_completed_total 1"),
            "no second placement ran: {metrics}"
        );
        assert!(
            metrics.contains("sdp_serve_jobs_submitted_total 2"),
            "{metrics}"
        );
        engine.shutdown();
    }

    #[test]
    fn concurrent_identical_specs_run_placement_once() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            ..EngineConfig::default()
        })
        .unwrap();
        let spec = r#"{"design": {"preset": "dp_tiny", "seed": 31}}"#;
        let ids: Vec<u64> = (0..4)
            .map(|_| engine.submit(parse_spec(spec).unwrap()).unwrap())
            .collect();
        let mut bodies = Vec::new();
        for &id in &ids {
            assert_eq!(wait_done(&engine, id), JobState::Done, "job {id}");
            bodies.push(engine.result_response(id).unwrap().1);
        }
        assert!(
            bodies.windows(2).all(|w| w[0] == w[1]),
            "every id sees the same bytes"
        );
        let metrics = engine.metrics_text();
        assert!(
            metrics.contains("sdp_serve_jobs_completed_total 1"),
            "placement ran exactly once for 4 submissions: {metrics}"
        );
        // The duplicates either attached to the in-flight run or (if it
        // finished first) hit the cache; placement count is what matters.
        assert!(
            metrics.contains("sdp_serve_coalesced_total 3")
                || metrics.contains("sdp_serve_cache_hits_total"),
            "{metrics}"
        );
        engine.shutdown();
    }

    #[test]
    fn overflowing_deadline_is_clamped_and_the_worker_survives() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            ..EngineConfig::default()
        })
        .unwrap();
        // The HTTP layer caps deadline_ms at parse time, so build the
        // pathological spec directly — this exercises the engine's own
        // checked_add clamp, the defense-in-depth layer.
        let mut spec = parse_spec(r#"{"design": {"preset": "dp_tiny", "seed": 41}}"#).unwrap();
        spec.deadline_ms = Some(u64::MAX);
        let a = engine.submit(spec).unwrap();
        assert_eq!(
            wait_done(&engine, a),
            JobState::Done,
            "unrepresentable deadline = no deadline, not a panic"
        );
        let metrics = engine.metrics_text();
        assert!(
            metrics.contains("sdp_serve_workers_live 1"),
            "the worker survived: {metrics}"
        );
        // …and that same worker completes the next (distinct) job.
        let b = engine
            .submit(parse_spec(r#"{"design": {"preset": "dp_tiny", "seed": 42}}"#).unwrap())
            .unwrap();
        assert_eq!(wait_done(&engine, b), JobState::Done);
        engine.shutdown();
    }

    #[test]
    fn cancelling_a_queued_job_is_immediate() {
        // Zero workers: the job can never be popped, so only the new
        // immediate transition can settle it.
        let engine = Engine::start(EngineConfig {
            workers: 0,
            queue_depth: 8,
            ..EngineConfig::default()
        })
        .unwrap();
        let id = engine
            .submit(parse_spec(r#"{"design": {"preset": "dp_tiny", "seed": 51}}"#).unwrap())
            .unwrap();
        assert_eq!(engine.peek_state(id).unwrap().0, JobState::Queued);
        assert_eq!(engine.cancel(id), Some("cancelled"));
        assert_eq!(engine.peek_state(id).unwrap().0, JobState::Cancelled);
        let status = engine.status_json(id).unwrap();
        assert!(status.contains(r#""state":"cancelled""#), "{status}");
        assert!(status.contains("cancelled by client"), "{status}");
        assert!(engine
            .metrics_text()
            .contains("sdp_serve_jobs_cancelled_total 1"));
        engine.shutdown();
    }

    #[test]
    fn cancelling_one_coalesced_id_detaches_without_killing_the_run() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            ..EngineConfig::default()
        })
        .unwrap();
        // dp_small takes long enough that the duplicates attach while
        // the primary is still queued or running.
        let spec = r#"{"design": {"preset": "dp_small", "seed": 61}}"#;
        let a = engine.submit(parse_spec(spec).unwrap()).unwrap();
        let b = engine.submit(parse_spec(spec).unwrap()).unwrap();
        let c = engine.submit(parse_spec(spec).unwrap()).unwrap();
        // b detaches; a and c still complete with the shared result.
        assert_eq!(engine.cancel(b), Some("cancelled"));
        assert_eq!(engine.peek_state(b).unwrap().0, JobState::Cancelled);
        assert_eq!(wait_done(&engine, a), JobState::Done);
        assert_eq!(wait_done(&engine, c), JobState::Done);
        let (_, ra) = engine.result_response(a).unwrap();
        let (_, rc) = engine.result_response(c).unwrap();
        assert_eq!(ra, rc);
        let metrics = engine.metrics_text();
        assert!(
            metrics.contains("sdp_serve_jobs_completed_total 1"),
            "{metrics}"
        );
        assert!(metrics.contains("sdp_serve_coalesced_total 2"), "{metrics}");
        assert!(
            metrics.contains("sdp_serve_jobs_cancelled_total 1"),
            "{metrics}"
        );
        engine.shutdown();
    }

    #[test]
    fn cancelling_the_primary_keeps_waiters_alive() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            ..EngineConfig::default()
        })
        .unwrap();
        let spec = r#"{"design": {"preset": "dp_small", "seed": 71}}"#;
        let a = engine.submit(parse_spec(spec).unwrap()).unwrap();
        let b = engine.submit(parse_spec(spec).unwrap()).unwrap();
        assert_eq!(engine.cancel(a), Some("cancelled"));
        assert_eq!(engine.peek_state(a).unwrap().0, JobState::Cancelled);
        // The waiter still gets the result the run it shares produces.
        assert_eq!(wait_done(&engine, b), JobState::Done);
        assert!(engine
            .result_response(b)
            .unwrap()
            .1
            .contains("\"placement\""));
        engine.shutdown();
    }

    #[test]
    fn queue_backpressure_rejects_when_full() {
        // Zero workers and distinct seeds: nothing drains and nothing
        // coalesces, so the bound is exact.
        let engine = Engine::start(EngineConfig {
            workers: 0,
            queue_depth: 2,
            ..EngineConfig::default()
        })
        .unwrap();
        let spec = |seed: u64| {
            parse_spec(&format!(
                r#"{{"design": {{"preset": "dp_tiny", "seed": {seed}}}}}"#
            ))
            .unwrap()
        };
        assert!(engine.submit(spec(1)).is_ok());
        assert!(engine.submit(spec(2)).is_ok());
        assert_eq!(engine.submit(spec(3)), Err(SubmitError::Busy));
        assert!(engine
            .metrics_text()
            .contains("sdp_serve_jobs_rejected_total 1"));
        engine.shutdown();
    }

    #[test]
    fn chaos_panic_is_isolated_to_its_job() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            ..EngineConfig::default()
        })
        .unwrap();
        let bad = engine
            .submit(parse_spec(r#"{"design": {"preset": "dp_tiny"}, "chaos": "panic"}"#).unwrap())
            .unwrap();
        let good = engine
            .submit(parse_spec(r#"{"design": {"preset": "dp_tiny"}}"#).unwrap())
            .unwrap();
        assert_eq!(wait_done(&engine, bad), JobState::Failed);
        let (status, body) = engine.result_response(bad).unwrap();
        assert_eq!(status, 500);
        assert!(body.contains("chaos requested"), "{body}");
        // The same worker survives and completes the next job.
        assert_eq!(wait_done(&engine, good), JobState::Done);
        assert!(engine.metrics_text().contains("sdp_serve_workers_live 1"));
        engine.shutdown();
    }

    #[test]
    fn terminal_records_are_evicted_beyond_retention() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            retain_terminal: 2,
            ..EngineConfig::default()
        })
        .unwrap();
        let ids: Vec<u64> = (0..4)
            .map(|k| {
                engine
                    .submit(
                        parse_spec(&format!(
                            r#"{{"design": {{"preset": "dp_tiny", "seed": {k}}}}}"#
                        ))
                        .unwrap(),
                    )
                    .unwrap()
            })
            .collect();
        engine.shutdown();
        // Only the newest two terminal records survive; evicted ids are
        // unknown (the HTTP layer answers 404).
        assert_eq!(engine.peek_state(ids[0]), None);
        assert_eq!(engine.peek_state(ids[1]), None);
        assert!(engine.result_response(ids[1]).is_none());
        assert_eq!(engine.peek_state(ids[2]).unwrap().0, JobState::Done);
        assert_eq!(engine.result_response(ids[3]).unwrap().0, 200);
    }

    #[test]
    fn restart_with_state_dir_replays_terminal_results() {
        let dir = tempdir("replay");
        let spec = r#"{"design": {"preset": "dp_tiny", "seed": 81}}"#;
        let cfg = || EngineConfig {
            workers: 1,
            queue_depth: 8,
            state_dir: Some(dir.clone()),
            ..EngineConfig::default()
        };
        let (id, body) = {
            let engine = Engine::start(cfg()).unwrap();
            let id = engine.submit(parse_spec(spec).unwrap()).unwrap();
            assert_eq!(wait_done(&engine, id), JobState::Done);
            let (_, body) = engine.result_response(id).unwrap();
            engine.shutdown();
            (id, body)
        };
        // Simulate a kill mid-append on top of the clean log: the torn
        // tail must be truncated, not fatal.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("jobs.log"))
                .unwrap();
            f.write_all(br#"{"hash":"00","id":9,"tor"#).unwrap();
        }
        // Zero workers: anything the restarted engine serves must come
        // from replay, not from re-running placement.
        let engine = Engine::start(EngineConfig {
            workers: 0,
            ..cfg()
        })
        .unwrap();
        assert_eq!(engine.peek_state(id), Some((JobState::Done, true)));
        assert_eq!(engine.result_response(id).unwrap(), (200, body.clone()));
        let metrics = engine.metrics_text();
        assert!(metrics.contains("sdp_serve_replayed_total 1"), "{metrics}");
        // The replayed body also warmed the cache: a repeat submission
        // is Done immediately even with no workers at all.
        let dup = engine.submit(parse_spec(spec).unwrap()).unwrap();
        assert!(dup > id, "ids continue past the replayed range");
        assert_eq!(engine.peek_state(dup), Some((JobState::Done, true)));
        assert_eq!(engine.result_response(dup).unwrap().1, body);
        engine.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_cache_budget_disables_reuse_but_nothing_else() {
        // A 100-byte budget holds no result body: the LRU never admits
        // one, so duplicates re-run — the budget is respected end to end.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            cache_bytes: 100,
            ..EngineConfig::default()
        })
        .unwrap();
        let spec = r#"{"design": {"preset": "dp_tiny", "seed": 91}}"#;
        let a = engine.submit(parse_spec(spec).unwrap()).unwrap();
        assert_eq!(wait_done(&engine, a), JobState::Done);
        let b = engine.submit(parse_spec(spec).unwrap()).unwrap();
        assert_eq!(wait_done(&engine, b), JobState::Done);
        let metrics = engine.metrics_text();
        assert!(
            metrics.contains("sdp_serve_jobs_completed_total 2"),
            "both ran — nothing fit the budget: {metrics}"
        );
        assert!(metrics.contains("sdp_serve_cache_bytes 0"), "{metrics}");
        assert!(
            metrics.contains("sdp_serve_cache_hits_total 0"),
            "{metrics}"
        );
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            ..EngineConfig::default()
        })
        .unwrap();
        let ids: Vec<u64> = (0..3)
            .map(|k| {
                engine
                    .submit(
                        parse_spec(&format!(
                            r#"{{"design": {{"preset": "dp_tiny", "seed": {k}}}}}"#
                        ))
                        .unwrap(),
                    )
                    .unwrap()
            })
            .collect();
        engine.shutdown();
        for id in ids {
            let (state, has_result) = engine.peek_state(id).unwrap();
            assert_eq!(state, JobState::Done, "job {id} drained");
            assert!(has_result);
        }
        assert!(matches!(
            engine.submit(parse_spec(r#"{"design": {"preset": "dp_tiny"}}"#).unwrap()),
            Err(SubmitError::ShuttingDown)
        ));
    }
}

/// Model-check of the bounded-queue submit/shutdown protocol under
/// perturbed thread schedules: `cargo test -p sdp-serve --features
/// loom-check`.
///
/// The engine's liveness argument rests on three claims: (1) `submit`'s
/// shutting-down check and `shutdown`'s flag store serialize on the
/// queue mutex, so a submission can never be accepted after the pool has
/// decided to drain and exit; (2) workers re-check the flag under that
/// same mutex before parking, so `shutdown`'s `notify_all` can never be
/// lost between the check and the wait; (3) together those mean every
/// *accepted* job is popped before the last worker exits. This module
/// re-implements exactly that protocol on `loom` primitives so the model
/// runtime drives it through many schedules; the assertions fail on any
/// stranded job or phantom acceptance.
#[cfg(all(test, feature = "loom-check"))]
mod loom_check {
    use loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use loom::sync::{Arc, Condvar, Mutex};
    use loom::thread;
    use std::collections::VecDeque;

    /// Mirror of [`Shared`]'s queue-protocol slice.
    struct Proto {
        queue: Mutex<VecDeque<usize>>,
        available: Condvar,
        shutting: AtomicBool,
        depth: usize,
        processed: AtomicUsize,
    }

    /// Mirror of [`Engine::submit`]'s admission path.
    fn submit(p: &Proto, id: usize) -> bool {
        let mut queue = p.queue.lock().expect("queue poisoned");
        if p.shutting.load(Ordering::Acquire) {
            return false;
        }
        if queue.len() >= p.depth {
            return false;
        }
        queue.push_back(id);
        drop(queue);
        p.available.notify_one();
        true
    }

    /// Mirror of [`worker_loop`]'s pop-or-park protocol.
    fn worker(p: &Proto) {
        loop {
            let task = {
                let mut queue = p.queue.lock().expect("queue poisoned");
                loop {
                    if let Some(t) = queue.pop_front() {
                        break Some(t);
                    }
                    if p.shutting.load(Ordering::Acquire) {
                        break None;
                    }
                    queue = p.available.wait(queue).expect("queue poisoned");
                }
            };
            match task {
                Some(_id) => {
                    p.processed.fetch_add(1, Ordering::Relaxed);
                }
                None => return,
            }
        }
    }

    /// Mirror of [`Engine::shutdown`]'s flag/wake sequence (joins are
    /// done by the test itself).
    fn shutdown(p: &Proto) {
        {
            let _queue = p.queue.lock().expect("queue poisoned");
            p.shutting.store(true, Ordering::Release);
        }
        p.available.notify_all();
    }

    fn proto(depth: usize) -> Arc<Proto> {
        Arc::new(Proto {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutting: AtomicBool::new(false),
            depth,
            processed: AtomicUsize::new(0),
        })
    }

    #[test]
    fn shutdown_never_strands_an_accepted_job() {
        loom::model(|| {
            let p = proto(2);
            let w = {
                let p = Arc::clone(&p);
                thread::spawn(move || worker(&p))
            };
            // More submissions than the queue holds: some are accepted,
            // some bounce off backpressure, depending on worker pace.
            let s = {
                let p = Arc::clone(&p);
                thread::spawn(move || (0..4).filter(|&i| submit(&p, i)).count())
            };
            let accepted = s.join().expect("submitter panicked");
            shutdown(&p);
            w.join().expect("worker panicked");
            assert_eq!(
                p.queue.lock().expect("queue poisoned").len(),
                0,
                "drain-on-shutdown must leave no queued job behind"
            );
            assert_eq!(
                p.processed.load(Ordering::Relaxed),
                accepted,
                "every accepted job runs exactly once"
            );
        });
    }

    #[test]
    fn submit_racing_shutdown_is_drained_or_refused() {
        loom::model(|| {
            // The interesting interleaving: submit and shutdown contend
            // for the queue lock. Whichever wins, the invariant is the
            // same — an accepted job is processed, a refused one leaves
            // no trace. Accepted-and-stranded must be impossible.
            let p = proto(1);
            let w = {
                let p = Arc::clone(&p);
                thread::spawn(move || worker(&p))
            };
            let s = {
                let p = Arc::clone(&p);
                thread::spawn(move || submit(&p, 0))
            };
            shutdown(&p);
            let accepted = s.join().expect("submitter panicked");
            w.join().expect("worker panicked");
            assert_eq!(
                p.processed.load(Ordering::Relaxed),
                usize::from(accepted),
                "accepted ⇒ processed; refused ⇒ untouched"
            );
            assert_eq!(p.queue.lock().expect("queue poisoned").len(), 0);
        });
    }
}
