//! The background compilation pipeline.
//!
//! When the runtime (re)builds its IR, it hands the user-logic subprogram to
//! the virtual toolchain. Execution continues in software; when the
//! bitstream is ready — and the *modeled* compile latency has elapsed on the
//! virtual wall clock — the runtime swaps the software engine for a hardware
//! engine. From the user's perspective the program simply gets faster.
//!
//! Every compile runs as a job on a [`CompilePool`]: worker threads
//! draining a bounded queue into one [`BitstreamCache`]. A runtime's
//! [`BackgroundCompiler`] submits through a [`CompileQueue`] handle — a
//! server's shared one, attached before the first eval, or else a private
//! one-worker pool the compiler starts at its first submission and shuts
//! down on drop. A job whose submitter has dispatched again (a newer
//! version, a retry) or was dropped is skipped before it runs; concurrent
//! submissions of the same synthesized netlist are coalesced by content
//! hash — one compile runs, every waiter gets the result.
//!
//! The toolchain runs *behind* the interactive loop: a job carries the
//! program's [`HwSource`], which is elaborated on the worker rather than at
//! eval, and every worker runs at background priority
//! ([`run_in_background`]).

use cascade_durable::BitstreamStore;
use cascade_fpga::{
    wrapper_overhead_les, Bitstream, CompileError, FaultPlan, Toolchain, ToolchainFault,
};
use cascade_netlist::{fingerprint, synthesize, Netlist, SynthError};
use cascade_sim::Design;
use cascade_trace::{Arg, Counter, Histogram, Registry, SpanRef, TraceSink, LATENCY_BUCKETS_S};
use cascade_verilog::ast::ModuleItem;
use cascade_verilog::typecheck::{ModuleLibrary, ParamEnv};
use cascade_verilog::Diagnostic;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Locks a mutex, tolerating poison: the protected state here (caches,
/// queues, waiter maps) stays structurally valid at every await point, so
/// a panic elsewhere must not cascade into every thread that shares the
/// map (satellite of the fault-tolerance work: one panicked worker cannot
/// take the pool down).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Modeled latency of noticing a crashed compile worker.
const PANIC_LATENCY_S: f64 = 10.0;

/// Modeled latency of a cache hit: fetching a stored bitstream and
/// reprogramming the fabric, not rerunning the toolchain (paper Sec. 7
/// positions this as the biggest practical win for iterative development).
const CACHE_HIT_LATENCY_S: f64 = 1.0;

/// Modeled latency of a persistent-store hit: reading and verifying a
/// stored bitstream record from disk and reprogramming the fabric —
/// slower than the in-memory cache, vastly faster than a toolchain run.
/// This is what makes a server restart *warm*.
const STORE_HIT_LATENCY_S: f64 = 2.0;

/// Default bound on the bitstream cache (entries). Bitstreams hold a full
/// placed netlist, so an unbounded cache in a long-lived shared server
/// would grow without limit.
pub const DEFAULT_BITSTREAM_CACHE_CAPACITY: usize = 64;

/// Default bound on a [`CompilePool`]'s pending-job queue (oldest jobs are
/// shed past it).
pub const DEFAULT_COMPILE_QUEUE_CAPACITY: usize = 16;

/// Lowers the calling thread to background priority: nice 10, the `nice`
/// command's default increment. Every toolchain thread calls it first
/// thing, so the compile the paper runs "in the background" takes only the
/// CPU the interactive threads leave idle, and a superseded compile costs
/// an edit nothing. On Linux `setpriority(PRIO_PROCESS, 0, ..)` applies to
/// the calling thread alone; other targets keep the default priority.
fn run_in_background() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn setpriority(which: i32, who: u32, prio: i32) -> i32;
        }
        const PRIO_PROCESS: i32 = 0;
        // SAFETY: a plain system call on the calling thread; a failure
        // (an unprivileged thread may always lower its own priority)
        // leaves the priority as it was.
        unsafe {
            setpriority(PRIO_PROCESS, 0, 10);
        }
    }
}

// ---------------------------------------------------------------------
// The hardware form of a program
// ---------------------------------------------------------------------

/// The name a subprogram takes inside its elaboration library.
pub(crate) const SUBPROGRAM: &str = "__cascade_sub";

/// A program's hardware form before elaboration: the library its software
/// design was elaborated against, holding the subprogram under the
/// crate's internal subprogram name. It is elaborated where it is
/// consumed — on the toolchain thread, or when native mode is entered —
/// so an eval elaborates once, and not at all for hardware nobody
/// compiles.
pub struct HwSource {
    lib: ModuleLibrary,
}

impl HwSource {
    /// Wraps a library that holds a [`SUBPROGRAM`] module.
    pub(crate) fn new(lib: ModuleLibrary) -> HwSource {
        debug_assert!(lib.contains(SUBPROGRAM));
        HwSource { lib }
    }

    /// Elaborates the subprogram without its one-shot items (statements
    /// and `initial` blocks): the form that goes to the toolchain. One-shot
    /// items declare nothing and every check is per item, so this succeeds
    /// whenever the software design did.
    ///
    /// # Errors
    ///
    /// Returns the elaboration diagnostic.
    pub fn elaborate(&self) -> Result<Design, Diagnostic> {
        let mut lib = self.lib.clone();
        let mut sub = lib
            .get(SUBPROGRAM)
            .expect("HwSource holds its subprogram")
            .clone();
        sub.items
            .retain(|i| !matches!(i, ModuleItem::Statement(_) | ModuleItem::Initial(_)));
        lib.insert(sub);
        cascade_sim::elaborate(SUBPROGRAM, &lib, &ParamEnv::new())
    }
}

// ---------------------------------------------------------------------
// Bounded LRU bitstream cache
// ---------------------------------------------------------------------

/// Bitstreams by content-hash cache key ([`Toolchain::cache_key`] over the
/// synthesized netlist's structural fingerprint), bounded with
/// least-recently-used eviction. Shared with worker threads, so a
/// superseded compile still warms the cache.
pub struct BitstreamCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

struct CacheInner {
    map: HashMap<u64, CacheEntry>,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
}

struct CacheEntry {
    bitstream: Bitstream,
    used: u64,
}

impl BitstreamCache {
    /// An empty cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        BitstreamCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a bitstream, refreshing its LRU position. Does not touch
    /// the hit/miss counters — those count whole compile requests, which
    /// the compile paths record themselves.
    fn get(&self, key: u64) -> Option<Bitstream> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(&key)?;
        entry.used = tick;
        Some(entry.bitstream.clone())
    }

    /// Inserts a bitstream, evicting the least-recently-used entry when
    /// over capacity.
    fn insert(&self, key: u64, bitstream: Bitstream) {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let used = inner.tick;
        inner.map.insert(key, CacheEntry { bitstream, used });
        while inner.map.len() > self.capacity {
            let Some(coldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            inner.map.remove(&coldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cached entries currently held.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compile requests answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Compile requests that ran the full modeled toolchain flow.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay under the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Compile outcome
// ---------------------------------------------------------------------

/// The outcome of one background compile.
#[derive(Debug)]
pub struct CompileOutcome {
    /// Program version this compile was submitted against.
    pub version: u64,
    pub result: Result<Bitstream, CompileError>,
    /// Modeled latency from submission to availability.
    pub latency: Duration,
    /// Whether the bitstream came from the content-hash cache (so the
    /// latency models a fetch + reprogram, not a toolchain run).
    pub cached: bool,
}

impl CompileOutcome {
    fn clone_for(&self, version: u64) -> CompileOutcome {
        CompileOutcome {
            version,
            result: self.result.clone(),
            latency: self.latency,
            cached: self.cached,
        }
    }
}

// ---------------------------------------------------------------------
// Compiler telemetry (registry-backed counters + trace spans)
// ---------------------------------------------------------------------

/// Registry-backed counters incremented by a [`BackgroundCompiler`].
///
/// The runtime owns these handles and re-attaches them when it replaces
/// its compiler (attaching a shared [`CompileQueue`]), which is what keeps
/// `RuntimeStats` recovery counters **monotonic across compiler swaps** —
/// previously a swap silently reset retries/watchdog/panic counts to zero.
#[derive(Clone, Debug)]
pub struct CompilerMetrics {
    /// Transient-failure retries dispatched.
    pub retries: Counter,
    /// Hung compiles cancelled by the modeled watchdog.
    pub watchdog_cancels: Counter,
    /// Worker-panic outcomes observed.
    pub worker_panics: Counter,
    /// Modeled end-to-end compile latency (successful outcomes), seconds.
    pub compile_latency: Histogram,
}

impl CompilerMetrics {
    /// Handles not attached to any registry (standalone compilers).
    pub fn detached() -> Self {
        CompilerMetrics {
            retries: Counter::detached(),
            watchdog_cancels: Counter::detached(),
            worker_panics: Counter::detached(),
            compile_latency: Histogram::detached(LATENCY_BUCKETS_S),
        }
    }

    /// Declares (or re-fetches — registration is idempotent) the compiler
    /// metric set in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        CompilerMetrics {
            retries: registry.counter(
                "jit_compile_retries_total",
                "transient compile failures retried with backoff",
            ),
            watchdog_cancels: registry.counter(
                "jit_compile_watchdog_cancels_total",
                "hung compiles cancelled by the modeled watchdog",
            ),
            worker_panics: registry.counter(
                "jit_compile_worker_panics_total",
                "compile-worker panics contained and surfaced as outcomes",
            ),
            compile_latency: registry.histogram(
                "jit_compile_latency_seconds",
                "modeled latency from submission to a surfaced compile outcome",
                LATENCY_BUCKETS_S,
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Compile pool (toolchain workers over a bounded job queue)
// ---------------------------------------------------------------------

struct Job {
    source: Arc<HwSource>,
    toolchain: Toolchain,
    version: u64,
    tx: Sender<CompileOutcome>,
    faults: FaultPlan,
    /// The submitting request's compile span (zeroed when the submitter
    /// has no request context). Dedup joins link back to the leader's.
    origin: SpanRef,
    /// Parent span id for events this job emits into the submitter's tree
    /// (the request root), so dedup joins stay connected to it.
    origin_parent: u64,
    /// Cleared when nobody awaits the outcome any more: the submitter
    /// dispatched again (a newer version, a retry) or was dropped. It
    /// guards no other data, so a stale read only runs a dead job.
    live: Arc<AtomicBool>,
}

impl Job {
    fn is_live(&self) -> bool {
        self.live.load(Ordering::Relaxed)
    }
}

/// Submissions waiting on an in-flight compile of the same content hash:
/// `(runtime version, outcome channel)` per waiter.
type Waiters = Vec<(u64, Sender<CompileOutcome>)>;

/// One in-flight compile of a content-hash key: the leader's request span
/// (for dedup join links) and the submissions riding on its result.
struct InFlight {
    leader: SpanRef,
    waiters: Waiters,
}

struct QueueShared {
    jobs: Mutex<VecDeque<Job>>,
    available: Condvar,
    cache: Arc<BitstreamCache>,
    /// Persistent bitstream store behind the in-memory cache. Misses fall
    /// through to it before the toolchain runs; successful compiles write
    /// through to it. `None` for non-durable servers.
    store: Option<Arc<BitstreamStore>>,
    /// Content-hash keys being compiled right now, with the submissions
    /// waiting on each (deduplication of concurrent identical compiles).
    in_progress: Mutex<HashMap<u64, InFlight>>,
    coalesced: AtomicU64,
    dropped: AtomicU64,
    skipped: AtomicU64,
    worker_panics: AtomicU64,
    capacity: usize,
    shutdown: AtomicBool,
    /// Server-wide trace sink for events that happen on pool workers
    /// (dedup joins). Host-clock only, so worker scheduling cannot perturb
    /// the deterministic export.
    trace: Mutex<TraceSink>,
}

impl QueueShared {
    fn new(
        queue_capacity: usize,
        cache_capacity: usize,
        store: Option<Arc<BitstreamStore>>,
    ) -> Arc<QueueShared> {
        Arc::new(QueueShared {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            cache: Arc::new(BitstreamCache::new(cache_capacity)),
            store,
            in_progress: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            capacity: queue_capacity.max(1),
            shutdown: AtomicBool::new(false),
            trace: Mutex::new(TraceSink::disabled()),
        })
    }

    /// Stops the workers. The flag is set under the queue lock: a worker
    /// between its shutdown check and its wait would otherwise miss the
    /// wake-up and never return (a freshly spawned, lower-priority worker
    /// of a pool dropped at once sits in that window often).
    fn shut_down(&self) {
        let _jobs = lock(&self.jobs);
        self.shutdown.store(true, Ordering::Release);
        self.available.notify_all();
    }
}

/// A cloneable submission handle into a [`CompilePool`].
#[derive(Clone)]
pub struct CompileQueue {
    shared: Arc<QueueShared>,
}

impl CompileQueue {
    fn submit(&self, job: Job) {
        let mut q = lock(&self.shared.jobs);
        if self.shared.shutdown.load(Ordering::Acquire) {
            return; // tx drops; the submitter degrades to software-only
        }
        if q.len() >= self.shared.capacity {
            // Bounded queue: jobs nobody awaits go first; failing that,
            // shed the oldest waiting job. Its submitter's receiver
            // disconnects and that session simply stays on its software
            // engine until it resubmits.
            let before = q.len();
            q.retain(Job::is_live);
            let dead = (before - q.len()) as u64;
            self.shared.skipped.fetch_add(dead, Ordering::Relaxed);
            if dead == 0 {
                q.pop_front();
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        q.push_back(job);
        self.shared.available.notify_one();
    }

    /// The shared bitstream cache.
    pub fn cache(&self) -> &Arc<BitstreamCache> {
        &self.shared.cache
    }

    /// The persistent bitstream store, when this pool is durable.
    pub fn store(&self) -> Option<&Arc<BitstreamStore>> {
        self.shared.store.as_ref()
    }

    /// Jobs waiting for a worker.
    pub fn depth(&self) -> usize {
        lock(&self.shared.jobs).len()
    }

    /// Submissions coalesced onto an identical in-flight compile.
    pub fn coalesced(&self) -> u64 {
        self.shared.coalesced.load(Ordering::Relaxed)
    }

    /// Live jobs shed because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Jobs discarded unrun because their submitter no longer awaited
    /// them (it had dispatched again or was dropped).
    pub fn skipped(&self) -> u64 {
        self.shared.skipped.load(Ordering::Relaxed)
    }

    /// Worker panics contained by the pool (each job's submitter got a
    /// [`CompileError::WorkerPanic`] outcome and the worker kept serving).
    pub fn worker_panics(&self) -> u64 {
        self.shared.worker_panics.load(Ordering::Relaxed)
    }

    /// Installs the server-wide trace sink used for pool-side events
    /// (compile-dedup join links). Idempotent; affects subsequent jobs.
    pub fn set_trace(&self, trace: TraceSink) {
        *lock(&self.shared.trace) = trace;
    }
}

/// K worker threads draining a bounded queue of compile jobs into a shared
/// [`BitstreamCache`]. Owns the threads; dropping the pool shuts them down
/// (queued jobs are abandoned, in-flight compiles finish).
pub struct CompilePool {
    queue: CompileQueue,
    workers: Vec<JoinHandle<()>>,
}

impl CompilePool {
    /// Spawns `workers` toolchain workers over a queue bounded to
    /// `queue_capacity` jobs and a cache bounded to `cache_capacity`
    /// bitstreams.
    pub fn new(workers: usize, queue_capacity: usize, cache_capacity: usize) -> Self {
        Self::with_store(workers, queue_capacity, cache_capacity, None)
    }

    /// Like [`CompilePool::new`], additionally backing the in-memory
    /// cache with a persistent [`BitstreamStore`]: cache misses consult
    /// the store before running the toolchain, and successful compiles
    /// write through to it — so a restarted server skips recompiles.
    pub fn with_store(
        workers: usize,
        queue_capacity: usize,
        cache_capacity: usize,
        store: Option<Arc<BitstreamStore>>,
    ) -> Self {
        let shared = QueueShared::new(queue_capacity, cache_capacity, store);
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    run_in_background();
                    worker_loop(&shared)
                })
            })
            .collect();
        CompilePool {
            queue: CompileQueue { shared },
            workers: handles,
        }
    }

    /// A submission handle for sessions.
    pub fn queue(&self) -> CompileQueue {
        self.queue.clone()
    }
}

impl Drop for CompilePool {
    fn drop(&mut self) {
        self.queue.shared.shut_down();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &QueueShared) {
    loop {
        let job = {
            let mut q = lock(&shared.jobs);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // A job nobody awaits is dropped here, before it can
                // consume a fault-plan occurrence or toolchain time.
                if let Some(j) = q.pop_front() {
                    if j.is_live() {
                        break j;
                    }
                    shared.skipped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                q = shared
                    .available
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Contain panics at the job boundary: the submitter learns its
        // compile died (a retryable outcome), the worker thread survives
        // to serve other tenants, and the in-progress entry is cleaned by
        // its guard. Cloned out of `job` first because the catch consumes
        // it.
        let tx = job.tx.clone();
        let version = job.version;
        let scale = job.toolchain.time_scale;
        if catch_unwind(AssertUnwindSafe(|| run_job(shared, job))).is_err() {
            shared.worker_panics.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(panic_outcome(version, scale));
        }
    }
}

fn panic_outcome(version: u64, time_scale: f64) -> CompileOutcome {
    CompileOutcome {
        version,
        result: Err(CompileError::WorkerPanic),
        latency: Duration::from_secs_f64(PANIC_LATENCY_S * time_scale),
        cached: false,
    }
}

/// Removes the in-progress entry for `key` on unwind, failing coalesced
/// waiters with [`CompileError::WorkerPanic`] so they retry rather than
/// wait forever on a compile nobody is running.
struct InProgressGuard<'a> {
    shared: &'a QueueShared,
    key: u64,
    time_scale: f64,
    done: bool,
}

impl Drop for InProgressGuard<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let waiters = lock(&self.shared.in_progress)
            .remove(&self.key)
            .map(|f| f.waiters)
            .unwrap_or_default();
        for (version, tx) in waiters {
            let _ = tx.send(panic_outcome(version, self.time_scale));
        }
    }
}

fn run_job(shared: &QueueShared, job: Job) {
    let (netlist, tc, key, fp) = match synth_for_compile(&job.source, &job.toolchain, job.version) {
        Ok(parts) => parts,
        Err(outcome) => {
            let _ = job.tx.send(outcome);
            return;
        }
    };
    if let Some(bs) = shared.cache.get(key) {
        shared.cache.hits.fetch_add(1, Ordering::Relaxed);
        let _ = job
            .tx
            .send(hit_outcome(bs, &tc, job.version, CACHE_HIT_LATENCY_S));
        return;
    }
    if let Some(store) = &shared.store {
        // Warm-restart path: the store carries toolchain outputs from a
        // previous server lifetime; the fingerprint check proves they
        // belong to this netlist before they are served.
        if let Some(bs) = store.load(key, fp, Arc::clone(&netlist)) {
            shared.cache.insert(key, bs.clone());
            shared.cache.hits.fetch_add(1, Ordering::Relaxed);
            let _ = job
                .tx
                .send(hit_outcome(bs, &tc, job.version, STORE_HIT_LATENCY_S));
            return;
        }
    }
    {
        let mut ip = lock(&shared.in_progress);
        if let Some(inflight) = ip.get_mut(&key) {
            // An identical compile is running: ride on its result. The
            // join is recorded as a span *link* from the joiner's compile
            // span to the leader's — the causal edge dedup would otherwise
            // erase from the trace.
            let leader = inflight.leader;
            inflight.waiters.push((job.version, job.tx));
            shared.coalesced.fetch_add(1, Ordering::Relaxed);
            drop(ip);
            if job.origin.is_some() {
                let trace = lock(&shared.trace).clone();
                trace.host_instant_ctx(
                    job.origin.tenant,
                    "compile",
                    "compile_dedup_join",
                    job.origin,
                    job.origin_parent,
                    leader.span,
                    &[
                        ("leader_req", Arg::U64(leader.req)),
                        ("leader_tenant", Arg::U64(leader.tenant)),
                    ],
                );
            }
            return;
        }
        ip.insert(
            key,
            InFlight {
                leader: job.origin,
                waiters: Vec::new(),
            },
        );
    }
    let mut guard = InProgressGuard {
        shared,
        key,
        time_scale: tc.time_scale,
        done: false,
    };
    if job.faults.next_worker_panic() {
        panic!("injected compile-worker panic");
    }
    let outcome = run_toolchain(
        netlist,
        &tc,
        key,
        fp,
        job.version,
        &shared.cache,
        shared.store.as_deref(),
        &job.faults,
    );
    let waiters = lock(&shared.in_progress)
        .remove(&key)
        .map(|f| f.waiters)
        .unwrap_or_default();
    guard.done = true;
    for (version, tx) in waiters {
        let _ = tx.send(outcome.clone_for(version));
    }
    let _ = job.tx.send(outcome);
}

// ---------------------------------------------------------------------
// Per-session background compiler
// ---------------------------------------------------------------------

/// How a [`BackgroundCompiler`] responds to transient compile failures:
/// bounded retry with exponential backoff, plus a modeled watchdog that
/// cancels runs which never surface an outcome. All times are in modeled
/// seconds on the same clock as compile latency (callers pre-scale by the
/// toolchain's `time_scale`).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first try (total tries = 1 + this).
    pub max_retries: u32,
    /// First retry waits this long; each later retry doubles it.
    pub backoff_s: f64,
    /// A run with no outcome this long after submission is cancelled as
    /// hung and retried. `0` disables the watchdog.
    pub watchdog_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff_s: 30.0,
            watchdog_s: 3600.0,
        }
    }
}

/// A single-slot background compiler: a newer submission supersedes an
/// in-flight one, whose result is dropped as stale and whose job is skipped
/// if no worker has taken it yet. It submits into a server-wide
/// [`CompileQueue`] when one is attached; a bare compiler starts a private
/// one-worker [`CompilePool`] at its first submission, and dropping the
/// compiler shuts that pool down, waiting at most for the job in progress.
pub struct BackgroundCompiler {
    rx: Option<Receiver<CompileOutcome>>,
    /// Wall time (modeled seconds) at submission.
    submitted_s: f64,
    submitted_version: u64,
    /// Completed outcome waiting for its modeled latency to elapse.
    staged: Option<CompileOutcome>,
    /// Where jobs go; `None` until a bare compiler's first submission.
    queue: Option<CompileQueue>,
    /// The private pool behind `queue` when none was attached.
    pool: Option<CompilePool>,
    policy: RetryPolicy,
    faults: FaultPlan,
    /// The current submission, kept for re-dispatch on transient failure.
    job: Option<(Arc<HwSource>, Toolchain)>,
    /// Tries of the current submission so far (1 = first).
    attempts: u32,
    /// Registry-backed counters — handles outlive this compiler, so a
    /// compiler swap does not reset them.
    metrics: CompilerMetrics,
    /// Phase spans (synthesis, place-and-route, backoff) are emitted from
    /// `poll`, which runs on the session thread against the modeled clock
    /// — so traces stay deterministic even with several workers.
    trace: TraceSink,
    /// Trace track (serve session id; 0 standalone).
    track: u64,
    /// The current submission's request span (zeroed when the submitter
    /// has no request context): compile spans and jobs carry it so
    /// one request's compile work stays in its span tree.
    origin: SpanRef,
    /// Parent span id for emitted compile spans (the request root).
    origin_parent: u64,
    /// The liveness handle of the job last dispatched.
    live: Option<Arc<AtomicBool>>,
}

impl Drop for BackgroundCompiler {
    fn drop(&mut self) {
        self.reset_in_flight();
    }
}

impl Default for BackgroundCompiler {
    fn default() -> Self {
        Self::new()
    }
}

impl BackgroundCompiler {
    /// An idle compiler that will compile on a private one-worker pool
    /// with a default-bounded cache.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// An idle compiler submitting into a shared pool.
    pub fn with_queue(queue: CompileQueue) -> Self {
        Self::build(Some(queue))
    }

    fn build(queue: Option<CompileQueue>) -> Self {
        BackgroundCompiler {
            rx: None,
            submitted_s: 0.0,
            submitted_version: 0,
            staged: None,
            queue,
            pool: None,
            policy: RetryPolicy::default(),
            faults: FaultPlan::none(),
            job: None,
            attempts: 0,
            metrics: CompilerMetrics::detached(),
            trace: TraceSink::disabled(),
            track: 0,
            origin: SpanRef::default(),
            origin_parent: 0,
            live: None,
        }
    }

    /// Ends the current run: nothing is awaited or staged any more, and
    /// the pool skips its job if no worker has taken it yet.
    fn reset_in_flight(&mut self) {
        self.rx = None;
        self.staged = None;
        if let Some(live) = self.live.take() {
            live.store(false, Ordering::Relaxed);
        }
    }

    /// Installs the retry policy and fault schedule (idempotent; applies
    /// to subsequent submissions).
    pub fn configure(&mut self, policy: RetryPolicy, faults: FaultPlan) {
        self.policy = policy;
        self.faults = faults;
    }

    /// Attaches telemetry: counters to increment (handles shared with the
    /// owner, so they survive compiler replacement) and a trace sink +
    /// track for phase spans.
    pub fn attach_telemetry(&mut self, metrics: CompilerMetrics, trace: TraceSink, track: u64) {
        self.metrics = metrics;
        self.trace = trace;
        self.track = track;
    }

    /// Attributes the *next* submission (and its retries) to a request
    /// span: emitted compile spans carry `origin` with `parent`, and
    /// jobs carry `origin` so dedup joins can link to it. A default
    /// `origin` clears attribution.
    pub fn set_origin(&mut self, origin: SpanRef, parent: u64) {
        self.origin = origin;
        self.origin_parent = parent;
    }

    /// Transient-failure retries dispatched so far.
    pub fn retries(&self) -> u64 {
        self.metrics.retries.get()
    }

    /// Hung compiles cancelled by the watchdog so far.
    pub fn watchdog_cancels(&self) -> u64 {
        self.metrics.watchdog_cancels.get()
    }

    /// Worker-panic outcomes observed by this compiler.
    pub fn worker_panics(&self) -> u64 {
        self.metrics.worker_panics.get()
    }

    /// The cache of the queue this compiler submits into, once it has one.
    fn cache(&self) -> Option<&BitstreamCache> {
        self.queue.as_ref().map(|q| &**q.cache())
    }

    /// Compiles whose synthesized netlist + toolchain matched a cached
    /// bitstream (and so returned in the modeled ~1 s cache-hit latency).
    /// Shared across sessions when the queue is.
    pub fn cache_hits(&self) -> u64 {
        self.cache().map_or(0, BitstreamCache::hits)
    }

    /// Compiles that ran the full modeled toolchain flow.
    pub fn cache_misses(&self) -> u64 {
        self.cache().map_or(0, BitstreamCache::misses)
    }

    /// Bitstreams evicted from the (bounded) cache.
    pub fn cache_evictions(&self) -> u64 {
        self.cache().map_or(0, BitstreamCache::evictions)
    }

    /// Whether a compile is in flight or staged.
    pub fn busy(&self) -> bool {
        self.rx.is_some() || self.staged.is_some()
    }

    /// The version of the in-flight/staged compile.
    pub fn version(&self) -> u64 {
        self.submitted_version
    }

    /// Submits a program for compilation with the Cascade MMIO wrapper's
    /// overhead charged to area and latency. Supersedes any prior
    /// submission.
    pub fn submit(
        &mut self,
        source: Arc<HwSource>,
        toolchain: Toolchain,
        version: u64,
        wall_s: f64,
    ) {
        self.submitted_version = version;
        self.attempts = 1;
        self.job = Some((Arc::clone(&source), toolchain.clone()));
        self.dispatch(source, toolchain, wall_s);
    }

    fn dispatch(&mut self, source: Arc<HwSource>, toolchain: Toolchain, at_s: f64) {
        let (tx, rx) = channel();
        self.reset_in_flight();
        let live = Arc::new(AtomicBool::new(true));
        self.live = Some(Arc::clone(&live));
        let job = Job {
            source,
            toolchain,
            version: self.submitted_version,
            tx,
            faults: self.faults.clone(),
            origin: self.origin,
            origin_parent: self.origin_parent,
            live,
        };
        let pool = &mut self.pool;
        let queue = self.queue.get_or_insert_with(|| {
            pool.insert(CompilePool::new(
                1,
                DEFAULT_COMPILE_QUEUE_CAPACITY,
                DEFAULT_BITSTREAM_CACHE_CAPACITY,
            ))
            .queue()
        });
        queue.submit(job);
        self.rx = Some(rx);
        self.submitted_s = at_s;
    }

    /// Moves the worker's outcome into the staging slot, blocking for it
    /// when `block`. A disconnected channel (the pool shed the job or shut
    /// down) stages a transient failure so the retry policy decides what
    /// happens next.
    fn pump(&mut self, block: bool) {
        let Some(rx) = &self.rx else { return };
        let received = if block {
            rx.recv().ok()
        } else {
            match rx.try_recv() {
                Ok(outcome) => Some(outcome),
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => None,
            }
        };
        let outcome = received.unwrap_or_else(|| CompileOutcome {
            version: self.submitted_version,
            result: Err(CompileError::TransientFault(
                "compile job shed by the pool".to_string(),
            )),
            latency: Duration::ZERO,
            cached: false,
        });
        self.reset_in_flight();
        self.staged = Some(outcome);
    }

    /// Whether the current run cannot surface an outcome by its watchdog
    /// deadline (either nothing has arrived, or what arrived carries a
    /// modeled latency past the deadline — a hung place-and-route).
    fn watchdog_expired(&self, wall_s: f64) -> bool {
        if self.policy.watchdog_s <= 0.0 || !self.busy() {
            return false;
        }
        let deadline = self.submitted_s + self.policy.watchdog_s;
        if wall_s < deadline {
            return false;
        }
        match &self.staged {
            Some(o) => self.submitted_s + o.latency.as_secs_f64() > deadline,
            None => true,
        }
    }

    /// Polls the worker and, when the modeled latency has elapsed at
    /// `wall_s`, returns the outcome. Transient failures (faults, hangs,
    /// worker panics, shed jobs) are retried with exponential backoff up
    /// to the policy bound and only then surfaced; terminal design errors
    /// surface immediately.
    pub fn poll(&mut self, wall_s: f64) -> Option<CompileOutcome> {
        self.pump(false);
        if self.watchdog_expired(wall_s) {
            self.metrics.watchdog_cancels.inc();
            self.emit_attempt(self.policy.watchdog_s, Some("watchdog: toolchain hang"));
            self.reset_in_flight();
            return self.retry_or_surface(CompileError::ToolchainHang, wall_s);
        }
        let ready = self
            .staged
            .as_ref()
            .map(|o| wall_s >= self.submitted_s + o.latency.as_secs_f64())
            .unwrap_or(false);
        if !ready {
            return None;
        }
        let outcome = self.staged.take()?;
        if outcome.version == self.submitted_version {
            if let Err(e) = &outcome.result {
                if e.is_transient() {
                    if matches!(e, CompileError::WorkerPanic) {
                        self.metrics.worker_panics.inc();
                    }
                    self.emit_attempt(outcome.latency.as_secs_f64(), Some(&e.to_string()));
                    return self.retry_or_surface(e.clone(), wall_s);
                }
            }
        }
        self.job = None;
        let latency_s = outcome.latency.as_secs_f64();
        self.metrics.compile_latency.observe(latency_s);
        if outcome.cached {
            self.emit_cache_hit(latency_s);
        } else {
            let err = outcome.result.as_ref().err().map(|e| e.to_string());
            self.emit_attempt(latency_s, err.as_deref());
        }
        Some(outcome)
    }

    /// Emits the synthesis + place-and-route spans of one toolchain
    /// attempt, starting at the attempt's dispatch time on the modeled
    /// clock. The modeled toolchain doesn't split its latency, so the
    /// trace uses a fixed 10%/90% synthesis/P&R proportion.
    fn emit_attempt(&self, dur_s: f64, error: Option<&str>) {
        if !self.trace.enabled() {
            return;
        }
        let start_ns = (self.submitted_s * 1e9) as u64;
        let total_ns = (dur_s.max(0.0) * 1e9) as u64;
        let synth_ns = total_ns / 10;
        let ok = error.is_none();
        let args: &[(&str, Arg)] = &[
            ("version", Arg::U64(self.submitted_version)),
            ("attempt", Arg::U64(self.attempts as u64)),
            ("ok", Arg::Bool(ok)),
            ("error", Arg::Str(error.unwrap_or(""))),
        ];
        self.trace.span_ctx(
            self.track,
            "compile",
            "synthesize",
            start_ns,
            synth_ns,
            self.origin,
            self.origin_parent,
            args,
        );
        self.trace.span_ctx(
            self.track,
            "compile",
            "place_route",
            start_ns + synth_ns,
            total_ns - synth_ns,
            self.origin,
            self.origin_parent,
            args,
        );
    }

    /// Emits the span of a content-hash cache hit (fetch + reprogram).
    fn emit_cache_hit(&self, dur_s: f64) {
        if !self.trace.enabled() {
            return;
        }
        self.trace.span_ctx(
            self.track,
            "compile",
            "bitstream_cache_hit",
            (self.submitted_s * 1e9) as u64,
            (dur_s.max(0.0) * 1e9) as u64,
            self.origin,
            self.origin_parent,
            &[("version", Arg::U64(self.submitted_version))],
        );
    }

    /// Re-dispatches the current submission after a transient failure, or
    /// surfaces the failure once the retry budget is spent.
    fn retry_or_surface(&mut self, err: CompileError, wall_s: f64) -> Option<CompileOutcome> {
        let job = self.job.clone();
        match job {
            Some((source, toolchain)) if self.attempts <= self.policy.max_retries => {
                let backoff = self.policy.backoff_s * f64::powi(2.0, self.attempts as i32 - 1);
                self.attempts += 1;
                self.metrics.retries.inc();
                if self.trace.enabled() {
                    self.trace.span_ctx(
                        self.track,
                        "compile",
                        "backoff",
                        (wall_s * 1e9) as u64,
                        (backoff.max(0.0) * 1e9) as u64,
                        self.origin,
                        self.origin_parent,
                        &[
                            ("version", Arg::U64(self.submitted_version)),
                            ("next_attempt", Arg::U64(self.attempts as u64)),
                            ("error", Arg::Str(&err.to_string())),
                        ],
                    );
                }
                self.dispatch(source, toolchain, wall_s + backoff);
                None
            }
            _ => {
                self.job = None;
                Some(CompileOutcome {
                    version: self.submitted_version,
                    result: Err(err),
                    latency: Duration::ZERO,
                    cached: false,
                })
            }
        }
    }

    /// The modeled wall-clock second at which the staged result becomes
    /// available, if known.
    pub fn ready_at(&self) -> Option<f64> {
        self.staged
            .as_ref()
            .map(|o| self.submitted_s + o.latency.as_secs_f64())
    }

    /// The earliest modeled second at which `poll` could act: the staged
    /// result's ready time or the watchdog deadline, whichever is sooner.
    /// Unlike [`BackgroundCompiler::ready_at`], this is always finite
    /// while a compile is in flight (hung runs are bounded by the
    /// watchdog), so schedulers can sleep until it safely.
    pub fn wake_at(&self) -> Option<f64> {
        let ready = self.ready_at();
        let dog = (self.policy.watchdog_s > 0.0 && self.busy())
            .then_some(self.submitted_s + self.policy.watchdog_s);
        match (ready, dog) {
            (Some(r), Some(d)) => Some(r.min(d)),
            (r, d) => r.or(d),
        }
    }

    /// Blocks the calling thread until the worker finishes (test support;
    /// the modeled latency gate still applies to `poll`).
    pub fn wait_worker(&mut self) {
        self.pump(true);
    }
}

// ---------------------------------------------------------------------
// The compile flow
// ---------------------------------------------------------------------

/// Elaboration, synthesis and cache-key derivation: the common prefix of
/// every compile. The key is a content hash of the synthesized netlist
/// (plus toolchain knobs), so semantically identical resubmissions — a
/// re-eval of unchanged source, a whitespace edit, another tenant running
/// the same program — share one cache entry.
// The large `Err` is deliberate: a synthesis failure IS a compile outcome
// (cold path), not an error to box and rethrow.
#[allow(clippy::type_complexity, clippy::result_large_err)]
fn synth_for_compile(
    source: &HwSource,
    toolchain: &Toolchain,
    version: u64,
) -> Result<(Arc<Netlist>, Toolchain, u64, u64), CompileOutcome> {
    let synthesized = source
        .elaborate()
        .map_err(|d| SynthError::new(d.to_string()))
        .and_then(|design| synthesize(&design));
    let netlist = match synthesized {
        Ok(nl) => Arc::new(nl),
        Err(e) => {
            return Err(CompileOutcome {
                version,
                result: Err(CompileError::Synth(e)),
                // Synthesis errors surface early in a real flow.
                latency: Duration::from_secs(30),
                cached: false,
            });
        }
    };
    let mut tc = toolchain.clone();
    tc.overhead_les = wrapper_overhead_les(&netlist);
    let fp = fingerprint(&netlist);
    let key = tc.cache_key(fp);
    Ok((netlist, tc, key, fp))
}

fn hit_outcome(
    mut bitstream: Bitstream,
    tc: &Toolchain,
    version: u64,
    base_latency_s: f64,
) -> CompileOutcome {
    let latency = Duration::from_secs_f64(base_latency_s * tc.time_scale);
    bitstream.modeled_duration = latency;
    CompileOutcome {
        version,
        result: Ok(bitstream),
        latency,
        cached: true,
    }
}

/// Place-and-route with modeled latency; successful bitstreams enter the
/// cache. Failures carry a modeled latency too — a timing-closure failure
/// is only discovered after place-and-route (paper Sec. 6.4).
#[allow(clippy::too_many_arguments)]
fn run_toolchain(
    netlist: Arc<Netlist>,
    tc: &Toolchain,
    key: u64,
    fp: u64,
    version: u64,
    cache: &BitstreamCache,
    store: Option<&BitstreamStore>,
    faults: &FaultPlan,
) -> CompileOutcome {
    cache.misses.fetch_add(1, Ordering::Relaxed);
    let area = cascade_netlist::estimate_area(&netlist);
    let mut padded = area;
    padded.logic_elements += tc.overhead_les;
    let full_latency = tc.modeled_duration(&padded, netlist.cell_count());
    match faults.next_toolchain_fault() {
        Some(ToolchainFault::Transient) => {
            // A mid-flight infrastructure failure: half the run elapsed
            // before the toolchain died.
            return CompileOutcome {
                version,
                result: Err(CompileError::TransientFault(
                    "injected toolchain fault mid-place-and-route".to_string(),
                )),
                latency: Duration::from_secs_f64(full_latency.as_secs_f64() * 0.5),
                cached: false,
            };
        }
        Some(ToolchainFault::Hang) => {
            // The run never surfaces: an unreachable ready time models a
            // toolchain stuck in place-and-route. Only the submitter's
            // watchdog recovers from this.
            return CompileOutcome {
                version,
                result: Err(CompileError::ToolchainHang),
                latency: Duration::MAX,
                cached: false,
            };
        }
        None => {}
    }
    match tc.compile_netlist(netlist) {
        Ok(bs) => {
            cache.insert(key, bs.clone());
            if let Some(store) = store {
                store.save(key, fp, &bs);
            }
            CompileOutcome {
                version,
                result: Ok(bs),
                latency: full_latency,
                cached: false,
            }
        }
        Err(e @ CompileError::DoesNotFit { .. }) => CompileOutcome {
            version,
            result: Err(e),
            // Fit checks fail at the start of place-and-route.
            latency: Duration::from_secs_f64(full_latency.as_secs_f64() * 0.2),
            cached: false,
        },
        Err(e) => CompileOutcome {
            version,
            result: Err(e),
            latency: full_latency,
            cached: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_fpga::Device;

    fn design() -> Arc<HwSource> {
        let lib = cascade_sim::library_from_source(
            "module __cascade_sub(input wire clk, output wire [7:0] q);\n\
               reg [7:0] n = 0;\n\
               always @(posedge clk) n <= n + 1;\n\
               assign q = n;\n\
             endmodule",
        )
        .expect("parse");
        Arc::new(HwSource::new(lib))
    }

    /// A pool dropped as soon as it is built still shuts down: its workers,
    /// just spawned at background priority, are often between their
    /// shutdown check and their wait when the flag is raised.
    #[test]
    fn a_pool_dropped_at_once_shuts_down() {
        let (tx, rx) = channel();
        let dropper = std::thread::spawn(move || {
            for _ in 0..20_000 {
                drop(CompilePool::new(2, 4, 4));
            }
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(120))
            .expect("a dropped pool's worker missed the shutdown wake-up");
        dropper.join().expect("dropper");
    }

    /// Every job is queued before the worker starts, so which jobs it meets
    /// dead is fixed; each submitter then blocks on its own outcome channel.
    #[test]
    fn jobs_nobody_awaits_are_skipped_before_they_run() {
        let shared = QueueShared::new(3, 8, None);
        let queue = CompileQueue {
            shared: Arc::clone(&shared),
        };
        let faults = FaultPlan::builder().toolchain_transient(1).build();
        let tc = Toolchain::new(Device::cyclone_v());
        let submitter = || {
            let mut c = BackgroundCompiler::with_queue(queue.clone());
            c.configure(RetryPolicy::default(), faults.clone());
            c
        };
        let (mut a, mut b, mut c, mut d, mut e, mut f) = (
            submitter(),
            submitter(),
            submitter(),
            submitter(),
            submitter(),
            submitter(),
        );
        a.submit(design(), tc.clone(), 1, 0.0);
        a.submit(design(), tc.clone(), 2, 0.0); // supersedes a@1
        b.submit(design(), tc.clone(), 1, 0.0);
        drop(b);
        // Full: the two dead jobs make room, nothing live is shed.
        c.submit(design(), tc.clone(), 1, 0.0);
        assert_eq!((queue.skipped(), queue.dropped(), queue.depth()), (2, 0, 2));
        d.submit(design(), tc.clone(), 1, 0.0);
        // Full of live jobs: the oldest (a@2) is shed.
        e.submit(design(), tc.clone(), 1, 0.0);
        assert_eq!((queue.skipped(), queue.dropped(), queue.depth()), (2, 1, 3));
        f.submit(design(), tc.clone(), 1, 0.0);
        assert_eq!((queue.skipped(), queue.dropped()), (2, 2), "c@1 shed");
        // d@2 supersedes d@1, whose place it takes.
        d.submit(design(), tc.clone(), 2, 0.0);
        assert_eq!((queue.skipped(), queue.dropped(), queue.depth()), (3, 2, 3));
        drop(e);

        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        };
        // Queue: e@1 (dead), f@1, d@2. The dead job is passed over before
        // it could draw the fault plan's first toolchain fault, so f@1,
        // the first job to run, is the one that fails.
        f.wait_worker();
        d.wait_worker();
        let failed = |c: &BackgroundCompiler| {
            c.staged
                .as_ref()
                .map(|o| matches!(o.result, Err(CompileError::TransientFault(_))))
        };
        assert_eq!(failed(&f), Some(true));
        assert_eq!(failed(&d), Some(false));
        assert_eq!(queue.skipped(), 4);
        for shed in [&mut a, &mut c] {
            shed.pump(false);
            assert_eq!(failed(shed), Some(true), "a shed job reads as transient");
        }

        shared.shut_down();
        worker.join().expect("worker");
    }

    /// A job the pool sheds reaches a submitter blocked in `wait_worker`
    /// as a retryable failure, exactly as it reaches one that polls.
    #[test]
    fn a_shed_job_is_retried_after_wait_worker() {
        let queue = CompileQueue {
            shared: QueueShared::new(1, 8, None),
        };
        let tc = Toolchain::new(Device::cyclone_v());
        let mut a = BackgroundCompiler::with_queue(queue.clone());
        let mut b = BackgroundCompiler::with_queue(queue.clone());
        a.submit(design(), tc.clone(), 1, 0.0);
        b.submit(design(), tc, 1, 0.0);
        assert_eq!(queue.dropped(), 1, "b's job sheds a's");
        a.wait_worker();
        assert!(a.busy(), "the shed job is staged, not lost");
        assert!(a.poll(0.0).is_none(), "a shed job is retried");
        assert_eq!(a.retries(), 1);
        assert!(a.busy() && a.wake_at().is_some(), "the retry is in flight");
    }

    /// A bare compiler's one worker contains an injected panic and runs
    /// the retry itself.
    #[test]
    fn a_bare_compilers_worker_survives_a_panic() {
        let mut c = BackgroundCompiler::new();
        c.configure(
            RetryPolicy::default(),
            FaultPlan::builder().worker_panic(1).build(),
        );
        c.submit(design(), Toolchain::new(Device::cyclone_v()), 1, 0.0);
        let worker = |c: &BackgroundCompiler| {
            let pool = c.pool.as_ref().expect("started at the first submission");
            assert_eq!(pool.workers.len(), 1);
            assert!(!pool.workers[0].is_finished(), "the worker is alive");
            pool.workers[0].thread().id()
        };
        let first = worker(&c);
        c.wait_worker();
        assert!(c.poll(f64::INFINITY).is_none(), "the panic is retried");
        assert_eq!((c.worker_panics(), c.retries()), (1, 1));
        assert_eq!(c.queue.as_ref().map(CompileQueue::worker_panics), Some(1));
        c.wait_worker();
        let outcome = c.poll(f64::INFINITY).expect("the retry's outcome");
        assert!(outcome.result.is_ok(), "{:?}", outcome.result);
        assert_eq!(worker(&c), first, "the retry ran on the same worker");
    }
}
