//! The session layer: one [`Runtime`] per session, hosted on a worker
//! thread pool, sharing a virtual-FPGA [`Fleet`] and one background
//! compile pool across all tenants.
//!
//! Scheduling is sharded: each worker owns a run-queue shard, sessions are
//! pinned to a home shard by id hash, and an idle worker pops locally,
//! then steals from a random victim shard, then parks. A session is marked
//! runnable at most once at a time (`scheduled` flag), and the worker that
//! claims it drains its whole command queue through one REPL checkout —
//! so a burst of N commands costs one scheduling round-trip, not N.
//!
//! A session's REPL is a checked-out resource: exactly one worker holds it
//! at a time, drains the session's command queue through it, and puts it
//! back. Commands are request/reply (the submitting connection blocks on a
//! reply channel), except the internal `Service` pump which lets the
//! sweeper advance compile/lease state machines of *idle* sessions — a
//! revocation must not wait for the victim's next command.
//!
//! Idle sessions do not keep a live `Runtime` at all: the sweeper (or an
//! explicit `hibernate` command) freezes them through the checkpoint
//! machinery into a [`HibernateImage`] held in a bounded in-memory store
//! that spills to disk, and the runtime — engines, compiler handle, fabric
//! lease — is dropped. The next command wakes the session transparently by
//! replaying its append-only source and restoring the checkpointed engine
//! state. One process can hold tens of thousands of mostly-idle tenants
//! this way. New sessions start dormant (an empty image), so `open` is a
//! map insert, not an engine build.
//!
//! `$display` output produced by `run` is buffered in a bounded per-session
//! queue. When the queue fills, `run` stops early (backpressure: the reply
//! says so and the client drains before continuing); a single burst that
//! overflows the bound drops the *oldest* lines and counts them — per
//! session (`stats`) and server-wide (`output_dropped` in `server-stats`
//! and `serve_output_dropped_total` in the metrics exposition).

use crate::json::Json;
use crate::protocol::{err, ok, Request};
use cascade_core::{
    panic_message, CascadeError, CompilePool, CompileQueue, ExecMode, HibernateImage, JitConfig,
    Repl, ReplResponse, Runtime, DEFAULT_BITSTREAM_CACHE_CAPACITY, DEFAULT_COMPILE_QUEUE_CAPACITY,
};
use cascade_durable::{codec, quarantine, BitstreamStore, DurableError, DurableFs};
use cascade_fpga::{ArbiterConfig, Board, Fleet};
use cascade_trace::{
    export_jsonl, expose, merge, render_timeline, Arg, Histogram, MetricSnapshot, Registry,
    RequestCtx, SnapValue, SpanRef, TimeMode, TraceEvent, TraceSink, DEFAULT_RING_CAPACITY,
    LATENCY_BUCKETS_S,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poison-tolerant locking: a panic contained on one worker must not
/// poison shared state for every other session. All data guarded by these
/// mutexes stays consistent across a panic boundary (queues of owned
/// values, timestamps, counters), so recovering the guard is safe.
trait LockExt<T> {
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T>;
}

impl<T> LockExt<T> for Mutex<T> {
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Ticks per scheduling quantum: a long `run` is sliced so output flushes
/// into the session queue (and backpressure is observed) at this grain.
const RUN_CHUNK: u64 = 128;

/// How long a connection waits for its command's reply before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Parked workers re-check their shards at least this often — a safety
/// net under the notify protocol, and the shutdown latency bound.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// Completed requests kept in the server's recent ring for `explain`.
const RECENT_CAP: usize = 512;

/// Events per `subscribe events` frame (bounds frame size, not delivery:
/// the next due frame resumes from the last delivered sequence number).
const EVENTS_FRAME_CAP: usize = 256;

/// Capacity of the always-on crash flight recorder ring.
const FLIGHT_RING: usize = 2048;

// Named wall-time phases a request's latency decomposes into. `other` is
// the residual (total minus every named phase): lock handoffs, channel
// sends, scheduling gaps. Fleet lease waits surface inside `compile` —
// `wait_compile` is where a session blocks for promotion resources.
const PH_QUEUE: usize = 0;
const PH_WAKE: usize = 1;
const PH_COMPILE: usize = 2;
const PH_EVAL_SW: usize = 3;
const PH_EVAL_HW: usize = 4;
const PH_FLUSH: usize = 5;
const PH_JOURNAL: usize = 6;
const PH_OTHER: usize = 7;
const PHASE_NAMES: [&str; 8] = [
    "queue", "wake", "compile", "eval_sw", "eval_hw", "flush", "journal", "other",
];

/// Wall-time accumulator for one request, indexed by the `PH_*` phases.
#[derive(Default)]
struct PhaseAcc {
    ns: [u64; 8],
}

impl PhaseAcc {
    fn add(&mut self, phase: usize, d: Duration) {
        self.ns[phase] += d.as_nanos() as u64;
    }
}

/// Causal metadata minted when a user command is submitted: the request
/// context every downstream span attributes to, the enqueue stamp the
/// queue phase is measured from, and the protocol name for the root span.
struct ReqMeta {
    ctx: RequestCtx,
    enq: Instant,
    name: &'static str,
}

/// A queue entry: the command plus its request metadata. Internal traffic
/// (sweeper pumps, reaper closes, replays) carries no metadata and is
/// invisible to request tracing and tail attribution.
struct Queued {
    cmd: Cmd,
    meta: Option<ReqMeta>,
}

impl Queued {
    fn internal(cmd: Cmd) -> Queued {
        Queued { cmd, meta: None }
    }
}

/// One completed request in the recent ring.
#[derive(Clone)]
struct ReqRecord {
    req: u64,
    tenant: u64,
    name: &'static str,
    total_ns: u64,
    phase_ns: [u64; 8],
}

/// Monotone per-session resource meters. Counters only ever grow for the
/// life of the tenant — they survive hibernation (the `Session` object
/// persists) and restarts (checkpoints carry them; see `REC_CKPT`).
#[derive(Default)]
struct Meter {
    /// Virtual clock ticks executed for this tenant.
    ticks: AtomicU64,
    /// Wall nanoseconds spent in the compile phase on this tenant's
    /// behalf (includes lease waits inside `wait-compile`).
    compile_ns: AtomicU64,
    /// Bytes appended to the tenant's write-ahead journal.
    journal_bytes: AtomicU64,
    /// Bytes of `$display` output and telemetry frames queued.
    output_bytes: AtomicU64,
    /// Fabric lease-microseconds from previous lifetimes (recovery seed);
    /// the live fleet meter is added on read.
    lease_base_us: AtomicU64,
    /// EWMA of recent burn (f64 bits), settled by the sweeper.
    burn: AtomicU64,
    /// The weighted score at the last sweep (f64 bits).
    last_score: AtomicU64,
}

/// What a `subscribe` delivers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SubStream {
    Metrics,
    Events,
}

/// One live telemetry subscription on a session. Frames are pushed into
/// the session's bounded output queue by the sweeper; a slow consumer
/// sheds oldest-first like any other output (drops are accounted).
struct Subscription {
    stream: SubStream,
    interval: Duration,
    next_at: Instant,
    /// High-water mark of delivered trace events (`events` stream).
    last_seq: u64,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Virtual fabrics in the shared fleet (0 = software-only serving).
    pub fabrics: usize,
    /// Lease arbitration tuning: hysteresis margin, modeled revocation
    /// cost, minimum tenure, dwell, and heat decay.
    pub arbiter: ArbiterConfig,
    /// Background toolchain worker threads shared by all sessions. Their
    /// pool sheds the oldest job past [`DEFAULT_COMPILE_QUEUE_CAPACITY`]
    /// pending and caches [`DEFAULT_BITSTREAM_CACHE_CAPACITY`] bitstreams.
    pub compile_workers: usize,
    /// Session executor threads (one run-queue shard each).
    pub workers: usize,
    /// Bound on each session's `$display` output queue (lines).
    pub output_capacity: usize,
    /// Real seconds of inactivity after which a session is reaped.
    pub idle_timeout_s: f64,
    /// Real seconds of inactivity after which a live session is
    /// hibernated (runtime dropped, state frozen to an image). `0`
    /// disables idle-triggered hibernation; the live-count bound below
    /// still applies.
    pub hibernate_after_s: f64,
    /// Bound on concurrently live runtimes; the sweeper hibernates the
    /// most-idle sessions to stay under it. `0` = unbounded.
    pub max_live_sessions: usize,
    /// In-memory budget for hibernation images; images past it spill to
    /// disk under `hibernate_spill_dir`.
    pub hibernate_mem_bytes: usize,
    /// Directory for spilled images. `None` = a per-server directory
    /// under the system temp dir, removed on shutdown. **Retention
    /// contract:** an explicitly configured directory is *never* removed
    /// by the server — its spilled images survive `Server` drop and the
    /// operator owns cleanup. (Durable recovery does not depend on spill
    /// files: every hibernated session's image also lives in its
    /// compacted journal.)
    pub hibernate_spill_dir: Option<String>,
    /// Root directory for crash-safe durable state: write-ahead session
    /// journals under `sessions/`, the persistent content-addressed
    /// bitstream store under `bitstreams/`, and counter baselines in
    /// `server.meta`. `None` disables durability — sessions and compiled
    /// bitstreams die with the process. The directory is never removed
    /// by the server; [`Server::recover`] rebuilds from it after a crash
    /// or a graceful [`Server::drain`].
    pub durable_dir: Option<String>,
    /// Sweeper cadence in real milliseconds. The sweeper is also woken
    /// event-driven by workers when the arbiter has a revocation or
    /// reservation in flight, so this is the *idle* scan period.
    pub sweeper_poll_ms: u64,
    /// Template JIT configuration for new sessions (toolchain model,
    /// optimization switches).
    pub jit: JitConfig,
    /// The shared trace sink every session records into (the session id
    /// is the track, so one ring holds the whole server's timeline).
    /// Enabled by default — serving is observability-on; disable with
    /// [`TraceSink::disabled`] to shed even the ring-buffer cost.
    pub trace: TraceSink,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            fabrics: 2,
            arbiter: ArbiterConfig::default(),
            compile_workers: 2,
            workers: 4,
            output_capacity: 4096,
            idle_timeout_s: 300.0,
            hibernate_after_s: 120.0,
            max_live_sessions: 0,
            hibernate_mem_bytes: 32 << 20,
            hibernate_spill_dir: None,
            durable_dir: None,
            sweeper_poll_ms: 5,
            jit: JitConfig::default(),
            trace: TraceSink::ring(DEFAULT_RING_CAPACITY),
        }
    }
}

impl ServeConfig {
    /// A configuration for tests and demos: modeled compile latency is
    /// compressed to microseconds so promotion happens within a short run.
    pub fn quick() -> Self {
        let mut c = ServeConfig::default();
        c.jit.toolchain.time_scale = 1e-6;
        c
    }
}

/// One user command, carried to the worker holding the session's REPL.
/// The mutating commands carry the client's sequence number (`0` =
/// unsequenced) for exactly-once journaling and dedup.
enum Cmd {
    Eval {
        line: String,
        seq: u64,
        tx: Sender<Json>,
    },
    Run {
        ticks: u64,
        seq: u64,
        tx: Sender<Json>,
    },
    Drain {
        seq: u64,
        tx: Sender<Json>,
    },
    WaitCompile {
        tx: Sender<Json>,
    },
    Probe {
        port: String,
        tx: Sender<Json>,
    },
    Stats {
        tx: Sender<Json>,
    },
    Metrics {
        tx: Sender<Json>,
    },
    Profile {
        tx: Sender<Json>,
    },
    Vcd {
        path: Option<String>,
        ports: Vec<String>,
        tx: Sender<Json>,
    },
    /// Internal pump: advance compile/lease state without user traffic.
    Service,
    /// Freeze the session to a hibernation image and drop its runtime.
    /// `tx` is `None` when the sweeper (idle/pressure) initiates it.
    Hibernate {
        tx: Option<Sender<Json>>,
    },
    /// `tx` is `None` when the idle reaper closes the session.
    Close {
        tx: Option<Sender<Json>>,
    },
}

impl Cmd {
    /// A clone of the command's reply channel, for replies delivered
    /// outside the normal execution path (worker panic containment,
    /// teardown of a dead session's queued commands).
    fn reply_tx(&self) -> Option<Sender<Json>> {
        match self {
            Cmd::Eval { tx, .. }
            | Cmd::Run { tx, .. }
            | Cmd::Drain { tx, .. }
            | Cmd::WaitCompile { tx }
            | Cmd::Probe { tx, .. }
            | Cmd::Stats { tx }
            | Cmd::Metrics { tx }
            | Cmd::Profile { tx }
            | Cmd::Vcd { tx, .. } => Some(tx.clone()),
            Cmd::Service => None,
            Cmd::Hibernate { tx } | Cmd::Close { tx } => tx.clone(),
        }
    }

    /// Whether a user is waiting on this command's latency (scheduled at
    /// the front of its shard) rather than its throughput (the back).
    /// `run` bursts and sweeper traffic are the bulk tier.
    fn is_interactive(&self) -> bool {
        !matches!(self, Cmd::Run { .. } | Cmd::Service)
    }

    /// Protocol name, used as the request root span's name.
    fn name(&self) -> &'static str {
        match self {
            Cmd::Eval { .. } => "eval",
            Cmd::Run { .. } => "run",
            Cmd::Drain { .. } => "drain",
            Cmd::WaitCompile { .. } => "wait-compile",
            Cmd::Probe { .. } => "probe",
            Cmd::Stats { .. } => "stats",
            Cmd::Metrics { .. } => "metrics",
            Cmd::Profile { .. } => "profile",
            Cmd::Vcd { .. } => "vcd",
            Cmd::Service => "service",
            Cmd::Hibernate { .. } => "hibernate",
            Cmd::Close { .. } => "close",
        }
    }
}

/// Bounded `$display` buffer. `dropped` is the drainable delta handed to
/// the client on `drain`; `dropped_total` never resets — it backs the
/// per-session `serve_session_output_dropped_total` exposition.
struct Output {
    lines: VecDeque<String>,
    dropped: u64,
    dropped_total: u64,
}

/// A hibernated session's frozen state.
enum Dormant {
    Mem(Vec<u8>),
    Disk { path: PathBuf, bytes: usize },
}

// Write-ahead journal record tags. Every record after the first carries
// `[tag u8][seq u64][reply str]` followed by tag-specific fields; the
// first record is either `REC_OPEN` (`[token]`) or `REC_CKPT` (`[token]
// [last_seq][last_reply][image][fifo residue][pending output]`).
const REC_OPEN: u8 = 0;
const REC_EVAL: u8 = 1;
const REC_RUN: u8 = 2;
const REC_FIFO: u8 = 3;
const REC_DRAIN: u8 = 4;
const REC_CKPT: u8 = 5;

/// The server's durable roots (present when `durable_dir` is set).
struct Durability {
    fs: DurableFs,
    sessions_dir: PathBuf,
    meta_path: PathBuf,
    /// Where the crash flight recorder dumps its ring.
    crash_path: PathBuf,
    store: Arc<BitstreamStore>,
}

impl Durability {
    fn journal_path(&self, id: u64, gen: u64) -> PathBuf {
        self.sessions_dir.join(format!("s{id}-{gen}.jnl"))
    }
}

/// Per-session journal state; the lock also serializes appends against
/// compaction and close.
struct JournalState {
    /// Current journal generation. Compaction writes generation `n+1`
    /// complete (one checkpoint record) before removing generation `n`,
    /// so a fault mid-compaction never destroys acknowledged state.
    gen: u64,
    /// Oldest generation that may still be on disk (an older one whose
    /// removal failed stays until close).
    oldest: u64,
}

impl JournalState {
    fn at(gen: u64) -> JournalState {
        JournalState { gen, oldest: gen }
    }
}

/// One journaled command, re-applied at the session's first post-recovery
/// wake.
enum ReplayCmd {
    Eval(String),
    Run(u64),
    Fifo(u32, Vec<u64>),
    Drain,
}

/// Everything a recovered session re-applies on its first wake: the
/// checkpoint's FIFO residue and undrained output, then the journaled
/// command suffix.
struct RecoveredReplay {
    fifo: Vec<(u32, u64)>,
    pending: Vec<String>,
    cmds: Vec<ReplayCmd>,
}

impl RecoveredReplay {
    fn empty() -> RecoveredReplay {
        RecoveredReplay {
            fifo: Vec::new(),
            pending: Vec::new(),
            cmds: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.fifo.is_empty() && self.pending.is_empty() && self.cmds.is_empty()
    }
}

/// A session journal decoded for recovery.
struct RecoveredSession {
    token: u64,
    last_seq: u64,
    last_reply: Option<String>,
    image: Vec<u8>,
    replay: RecoveredReplay,
    /// Checkpointed meter counters: ticks, compile_ns, journal_bytes,
    /// output_bytes, lease_us. Zero for pre-meter journals.
    meters: [u64; 5],
}

/// Deterministic per-session resume capability (splitmix64 of the id).
/// A capability against accidental cross-tenant resume, not a secret.
/// Masked to 48 bits so it round-trips losslessly through the protocol's
/// f64 JSON number channel (exact up to 2^53).
fn session_token(id: u64) -> u64 {
    let mut z = id
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 0xffff_ffff_ffff
}

struct Session {
    id: u64,
    /// Handle on the session runtime's metric registry (clones share
    /// cells), so server-wide expositions can read counters without
    /// waiting for the session's worker. Replaced on wake — a fresh
    /// runtime brings fresh cells.
    registry: Mutex<Registry>,
    /// The runtime's full metric snapshot (registry plus stats-derived
    /// series like `jit_ticks_total`) captured at hibernation, so
    /// observability reads against the dormant session see the complete
    /// exposition without waking it. Empty until the first freeze.
    frozen_metrics: Mutex<Vec<MetricSnapshot>>,
    /// The session's virtual board, shared with its runtime: FIFO input
    /// streams in directly, even while a `run` command is executing (and
    /// across hibernation — the board outlives the runtime).
    board: Board,
    cmds: Mutex<VecDeque<Queued>>,
    /// Monotone resource meters (ticks, compile time, journal/output
    /// bytes, lease time) — the tenant's bill.
    meter: Meter,
    /// Live telemetry subscriptions, serviced by the sweeper.
    subs: Mutex<Vec<Subscription>>,
    /// `None` while a worker has the REPL checked out *or* the session is
    /// dormant (see `dormant`).
    repl: Mutex<Option<Box<Repl>>>,
    /// The hibernation image when the session has no live runtime.
    dormant: Mutex<Option<Dormant>>,
    /// Whether a run-queue entry (or the claiming worker) is already
    /// responsible for this session — dedups wakeups so a burst of
    /// commands schedules the session once.
    scheduled: AtomicBool,
    output: Mutex<Output>,
    last_active: Mutex<Instant>,
    closed: AtomicBool,
    /// Resume capability returned by `open`; recovered sessions require
    /// it (`resume`) before accepting commands.
    token: u64,
    /// Set for sessions rehydrated by recovery until the client resumes.
    needs_resume: AtomicBool,
    /// Exactly-once bookkeeping: the highest acknowledged sequence
    /// number and the reply that acknowledged it (re-sent verbatim when
    /// a reconnecting client retries the same `seq`).
    last_seq: AtomicU64,
    last_reply: Mutex<Option<String>>,
    /// Write-ahead journal generation; the lock serializes appends
    /// against compaction.
    journal: Mutex<JournalState>,
    /// Journal suffix not yet re-applied (recovered sessions replay it
    /// on their first wake).
    replay: Mutex<Option<RecoveredReplay>>,
    /// Whether the journal holds records past its last checkpoint (so a
    /// drain must compact it).
    dirty: AtomicBool,
}

/// One worker's run-queue shard.
struct Shard {
    queue: Mutex<VecDeque<u64>>,
    cond: Condvar,
    /// Queue length mirror readable without the lock (steal scan).
    len: AtomicUsize,
    /// Whether the owning worker is parked on `cond`.
    parked: AtomicBool,
    steals: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            len: AtomicUsize::new(0),
            parked: AtomicBool::new(false),
            steals: AtomicU64::new(0),
        }
    }
}

struct Shared {
    config: ServeConfig,
    fleet: Fleet,
    /// The shared trace sink (a clone of `config.trace`).
    trace: TraceSink,
    queue: CompileQueue,
    /// Owns the toolchain worker threads; joined when the server drops.
    _pool: CompilePool,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_session: AtomicU64,
    /// Monotonic activity clock: each user command takes a stamp, and the
    /// stamp is the session's heat for fleet arbitration (most recently
    /// active = hottest).
    activity: AtomicU64,
    /// Per-worker run-queue shards (work stealing).
    shards: Vec<Shard>,
    /// Sweeper gate: `true` when a worker has nudged the sweeper to run
    /// early (arbiter has a revocation/reservation in flight).
    sweep_gate: Mutex<bool>,
    sweep_cond: Condvar,
    shutdown: AtomicBool,
    /// Server-wide counters.
    evals: AtomicU64,
    total_ticks: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_reaped: AtomicU64,
    /// Worker panics contained at the session isolation boundary (the
    /// session dies with a structured error; the server keeps serving).
    session_panics: AtomicU64,
    /// Output lines dropped by bounded session queues, server-wide.
    output_dropped: AtomicU64,
    /// Sessions with a live runtime right now.
    live_runtimes: AtomicUsize,
    /// Sessions currently dormant (hibernated or never woken).
    dormant_now: AtomicUsize,
    hibernates: AtomicU64,
    wakes: AtomicU64,
    wake_failures: AtomicU64,
    /// Hibernation store accounting.
    hib_mem_bytes: AtomicUsize,
    hib_disk_bytes: AtomicUsize,
    hib_spills: AtomicU64,
    spill_dir: PathBuf,
    spill_seq: AtomicU64,
    /// The durable-write seam. Always present — non-durable servers use
    /// it too (spill images go through the same atomic CRC-framed path),
    /// sharing the fault plan's occurrence counters with the JIT layer.
    dfs: DurableFs,
    /// Durable roots; `None` when `durable_dir` is unset.
    durable: Option<Durability>,
    /// Counter floors from the previous lifetime's drain snapshot, so
    /// `serve_*_total` counters are monotone across graceful restarts.
    baseline: BTreeMap<String, u64>,
    /// Recovery counters (`serve_recovery_*`).
    recovered_sessions: AtomicU64,
    recovery_replayed: AtomicU64,
    recovery_quarantined: AtomicU64,
    drain_flushes: AtomicU64,
    /// Server-wide request id mint (1-based; 0 = "no request").
    next_req: AtomicU64,
    /// Server-level observability registry (phase histograms live here;
    /// merged into the exposition alongside session registries).
    obs: Registry,
    /// Per-phase request latency histograms, indexed like `PHASE_NAMES`.
    phase_hists: Vec<Histogram>,
    /// Ring of recently completed requests (`explain` reads it).
    recent: Mutex<VecDeque<ReqRecord>>,
    /// Always-on crash flight recorder: a small ring separate from the
    /// configurable trace sink, stamped by an ordinal virtual clock so
    /// its export is deterministic under seeded re-runs.
    flight: TraceSink,
    flight_clock: AtomicU64,
    /// The flight ring is dumped at most once per process.
    flight_dumped: AtomicBool,
    /// The previous lifetime's crash trace (`last-crash.trace.jsonl`),
    /// loaded by [`Server::recover`].
    last_crash: Option<String>,
}

/// The multi-tenant Cascade server: sessions, workers, fleet, compile pool.
///
/// Protocol entry points are [`Server::request`] (typed) and
/// [`Server::handle_line`] (wire). Dropping the server shuts down its
/// worker and sweeper threads and releases every session's fabric lease.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
}

/// Distinguishes spill directories of servers coexisting in one process.
static SERVER_SEQ: AtomicU64 = AtomicU64::new(0);

impl Server {
    /// Starts a server: `config.workers` session executors (one run-queue
    /// shard each), a compile pool of `config.compile_workers` threads,
    /// and the idle/service sweeper.
    pub fn new(config: ServeConfig) -> Arc<Server> {
        Server::build(config, false)
    }

    /// Rebuilds a server from the durable state under
    /// `config.durable_dir`: every journaled session is rehydrated as a
    /// dormant tenant (resumable by id + token), counter baselines from
    /// the last drain are restored, and the persistent bitstream store
    /// makes the first compiles warm. With no `durable_dir` this is just
    /// [`Server::new`].
    pub fn recover(config: ServeConfig) -> Arc<Server> {
        Server::build(config, true)
    }

    fn build(config: ServeConfig, recovering: bool) -> Arc<Server> {
        let dfs = DurableFs::new(config.jit.faults.clone());
        let durable = config.durable_dir.as_ref().map(|root| {
            let root = PathBuf::from(root);
            let sessions_dir = root.join("sessions");
            let _ = std::fs::create_dir_all(&sessions_dir);
            Durability {
                fs: dfs.clone(),
                meta_path: root.join("server.meta"),
                crash_path: root.join("last-crash.trace.jsonl"),
                store: Arc::new(BitstreamStore::open(root.join("bitstreams"), dfs.clone())),
                sessions_dir,
            }
        });
        let baseline = match (&durable, recovering) {
            (Some(d), true) => load_baseline(d),
            _ => BTreeMap::new(),
        };
        let last_crash = match (&durable, recovering) {
            (Some(d), true) => std::fs::read_to_string(&d.crash_path).ok(),
            _ => None,
        };
        let obs = Registry::new();
        let phase_hists: Vec<Histogram> = PHASE_NAMES
            .iter()
            .map(|p| {
                obs.histogram(
                    &format!("serve_phase_{p}_seconds"),
                    "Wall seconds requests spent in this phase",
                    LATENCY_BUCKETS_S,
                )
            })
            .collect();
        let pool = CompilePool::with_store(
            config.compile_workers.max(1),
            DEFAULT_COMPILE_QUEUE_CAPACITY,
            DEFAULT_BITSTREAM_CACHE_CAPACITY,
            durable.as_ref().map(|d| Arc::clone(&d.store)),
        );
        let nworkers = config.workers.max(1);
        let spill_dir = match &config.hibernate_spill_dir {
            Some(d) => PathBuf::from(d),
            None => std::env::temp_dir().join(format!(
                "cascade-hib-{}-{}",
                std::process::id(),
                SERVER_SEQ.fetch_add(1, Ordering::Relaxed)
            )),
        };
        // Wire the compile queue into the trace plane: dedup joins on
        // shared in-flight jobs are recorded as span links.
        let queue = pool.queue();
        queue.set_trace(config.trace.clone());
        let shared = Arc::new(Shared {
            fleet: Fleet::with_config(config.fabrics, config.arbiter.clone()),
            trace: config.trace.clone(),
            queue,
            _pool: pool,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            activity: AtomicU64::new(0),
            shards: (0..nworkers).map(|_| Shard::new()).collect(),
            sweep_gate: Mutex::new(false),
            sweep_cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            evals: AtomicU64::new(0),
            total_ticks: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            sessions_reaped: AtomicU64::new(0),
            session_panics: AtomicU64::new(0),
            output_dropped: AtomicU64::new(0),
            live_runtimes: AtomicUsize::new(0),
            dormant_now: AtomicUsize::new(0),
            hibernates: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            wake_failures: AtomicU64::new(0),
            hib_mem_bytes: AtomicUsize::new(0),
            hib_disk_bytes: AtomicUsize::new(0),
            hib_spills: AtomicU64::new(0),
            spill_dir,
            spill_seq: AtomicU64::new(0),
            dfs,
            durable,
            baseline,
            recovered_sessions: AtomicU64::new(0),
            recovery_replayed: AtomicU64::new(0),
            recovery_quarantined: AtomicU64::new(0),
            drain_flushes: AtomicU64::new(0),
            next_req: AtomicU64::new(0),
            obs,
            phase_hists,
            recent: Mutex::new(VecDeque::new()),
            flight: TraceSink::ring(FLIGHT_RING),
            flight_clock: AtomicU64::new(0),
            flight_dumped: AtomicBool::new(false),
            last_crash,
            config,
        });
        if recovering {
            rehydrate(&shared);
        }
        let workers = (0..nworkers)
            .map(|me| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&s, me))
            })
            .collect();
        let sweeper = {
            let s = Arc::clone(&shared);
            Some(std::thread::spawn(move || sweeper_loop(&s)))
        };
        Arc::new(Server {
            shared,
            workers,
            sweeper,
        })
    }

    /// Handles one wire line, returning the reply line (no newline).
    pub fn handle_line(&self, line: &str) -> String {
        let reply = match Request::parse(line) {
            Ok(req) => self.request(req),
            Err(e) => err(e),
        };
        reply.to_string()
    }

    /// Handles one typed request.
    pub fn request(&self, req: Request) -> Json {
        match req {
            Request::Open => match self.open_session() {
                Ok((id, token)) => ok([("session", id.into()), ("token", token.into())]),
                Err(e) => err(e),
            },
            Request::Attach { session } => match self.shared.session(session) {
                Some(_) => ok([("session", session.into())]),
                None => err(format!("no session {session}")),
            },
            Request::Resume { session, token } => {
                let Some(s) = self.shared.session(session) else {
                    return err(format!("no session {session}"));
                };
                if s.token != token {
                    return err(format!("bad token for session {session}"));
                }
                s.needs_resume.store(false, Ordering::SeqCst);
                *s.last_active.lock_unpoisoned() = Instant::now();
                ok([
                    ("session", session.into()),
                    ("last_seq", s.last_seq.load(Ordering::SeqCst).into()),
                ])
            }
            Request::DrainServer => {
                let (flushed, hibernated) = self.drain();
                ok([
                    ("flushed", flushed.into()),
                    ("hibernated", hibernated.into()),
                ])
            }
            Request::Stats { session: None } => self.server_stats(),
            Request::Metrics { session: None } => self.server_metrics(),
            Request::Metrics {
                session: Some(session),
            } => {
                // A dormant session's registry is a frozen snapshot of its
                // last live runtime: render it directly instead of waking
                // (and re-hibernating) the tenant for a read.
                if let Some(s) = self.shared.session(session) {
                    if self.shared.refuse(&s).is_none() && s.dormant.lock_unpoisoned().is_some() {
                        let frozen = s.frozen_metrics.lock_unpoisoned();
                        let text = if frozen.is_empty() {
                            // Recovered-from-disk dormancy: no in-process
                            // freeze happened; the registry is all we have.
                            expose(&s.registry.lock_unpoisoned().snapshot())
                        } else {
                            expose(&frozen)
                        };
                        return ok([("text", text.into()), ("dormant", true.into())]);
                    }
                }
                self.submit(session, false, |tx| Cmd::Metrics { tx })
            }
            Request::Explain { percentile } => self.explain(&percentile),
            Request::ServerTop { n } => self.server_top(n),
            Request::Subscribe {
                session,
                stream,
                interval_ms,
            } => self.subscribe(session, &stream, interval_ms),
            Request::Trace {
                session,
                virtual_only,
            } => {
                let mode = if virtual_only {
                    TimeMode::VirtualOnly
                } else {
                    TimeMode::Full
                };
                let events = self.trace_events(session);
                ok([
                    ("trace", export_jsonl(&events, mode).into()),
                    ("dropped", self.shared.trace.dropped().into()),
                ])
            }
            Request::Timeline { session } => {
                let events = self.trace_events(session);
                ok([("text", render_timeline(&events).into())])
            }
            Request::Profile { session } => self.submit(session, false, |tx| Cmd::Profile { tx }),
            Request::Vcd {
                session,
                path,
                ports,
            } => self.submit(session, true, |tx| Cmd::Vcd { path, ports, tx }),
            Request::Eval { session, line, seq } => {
                self.submit(session, true, |tx| Cmd::Eval { line, seq, tx })
            }
            Request::Run {
                session,
                ticks,
                seq,
            } => self.submit(session, true, |tx| Cmd::Run { ticks, seq, tx }),
            Request::Drain { session, seq } => {
                self.submit(session, false, |tx| Cmd::Drain { seq, tx })
            }
            Request::WaitCompile { session } => {
                self.submit(session, true, |tx| Cmd::WaitCompile { tx })
            }
            Request::Probe { session, port } => {
                self.submit(session, false, |tx| Cmd::Probe { port, tx })
            }
            Request::Fifo {
                session,
                width,
                data,
                seq,
            } => {
                let Some(s) = self.shared.session(session) else {
                    return err(format!("no session {session}"));
                };
                if let Some(reason) = self.shared.refuse(&s) {
                    return err(reason);
                }
                if !(1..=64).contains(&width) {
                    return err("fifo width must be 1..=64");
                }
                if let Some(reply) = Shared::dedup_reply(&s, seq) {
                    return reply;
                }
                // A recovered session applies its journal (checkpoint
                // FIFO residue plus replayed pushes) at wake; force the
                // wake first so this push lands after them.
                if s.replay.lock_unpoisoned().is_some() {
                    let probe = self.submit(session, false, |tx| Cmd::Probe {
                        port: String::new(),
                        tx,
                    });
                    if probe.get("ok").and_then(Json::as_bool) != Some(true) {
                        return probe;
                    }
                }
                *s.last_active.lock_unpoisoned() = Instant::now();
                // FIFO pushes execute inline (no session worker), so the
                // request context and phase clock are minted right here.
                let meta = ReqMeta {
                    ctx: self.shared.mint_req(session),
                    enq: Instant::now(),
                    name: "fifo",
                };
                let mut pushed = 0u64;
                for &word in &data {
                    if !s
                        .board
                        .fifo_push(cascade_bits::Bits::from_u64(width as u32, word))
                    {
                        break;
                    }
                    pushed += 1;
                }
                // Journal only the accepted prefix: replay must re-push
                // exactly the words the board took.
                let mut extra = Vec::new();
                codec::put_u32(&mut extra, width as u32);
                codec::put_u64(&mut extra, pushed);
                for &word in &data[..pushed as usize] {
                    codec::put_u64(&mut extra, word);
                }
                let mut acc = PhaseAcc::default();
                let t_journal = Instant::now();
                let reply =
                    self.shared
                        .commit(&s, seq, ok([("pushed", pushed.into())]), REC_FIFO, &extra);
                acc.add(PH_JOURNAL, t_journal.elapsed());
                finish_request(&self.shared, &s, &meta, &mut acc);
                reply
            }
            Request::Stats {
                session: Some(session),
            } => self.submit(session, false, |tx| Cmd::Stats { tx }),
            Request::Hibernate { session } => {
                self.submit(session, false, |tx| Cmd::Hibernate { tx: Some(tx) })
            }
            Request::Close { session } => {
                self.submit(session, false, |tx| Cmd::Close { tx: Some(tx) })
            }
        }
    }

    /// Creates a session. Sessions are born dormant — an empty hibernation
    /// image, no runtime — so `open` is cheap at any tenant count; the
    /// first command builds the runtime through the ordinary wake path.
    /// On a durable server the open itself is journaled (write-ahead)
    /// before the id is handed out.
    fn open_session(&self) -> Result<(u64, u64), String> {
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        let token = session_token(id);
        if let Some(d) = &self.shared.durable {
            let mut payload = Vec::new();
            codec::put_u8(&mut payload, REC_OPEN);
            codec::put_u64(&mut payload, token);
            if let Err(e) = d.fs.write_atomic(&d.journal_path(id, 0), &payload) {
                self.shared.dump_flight("open journal write failed");
                return Err(format!("open not acknowledged: {e}"));
            }
        }
        let board = Board::new();
        let session = Arc::new(Session {
            id,
            registry: Mutex::new(Registry::new()),
            frozen_metrics: Mutex::new(Vec::new()),
            board,
            cmds: Mutex::new(VecDeque::new()),
            meter: Meter::default(),
            subs: Mutex::new(Vec::new()),
            repl: Mutex::new(None),
            dormant: Mutex::new(None),
            scheduled: AtomicBool::new(false),
            output: Mutex::new(Output {
                lines: VecDeque::new(),
                dropped: 0,
                dropped_total: 0,
            }),
            last_active: Mutex::new(Instant::now()),
            closed: AtomicBool::new(false),
            token,
            needs_resume: AtomicBool::new(false),
            last_seq: AtomicU64::new(0),
            last_reply: Mutex::new(None),
            journal: Mutex::new(JournalState::at(0)),
            replay: Mutex::new(None),
            dirty: AtomicBool::new(false),
        });
        // The empty birth image goes through the same budgeted store as
        // real hibernation images, so even opens alone cannot grow the
        // in-memory store past its budget at high tenant counts.
        self.shared
            .store_dormant(&session, HibernateImage::empty().to_bytes());
        self.shared.sessions.lock_unpoisoned().insert(id, session);
        self.shared.sessions_opened.fetch_add(1, Ordering::Relaxed);
        self.shared.flight(id, "open", &[]);
        Ok((id, token))
    }

    /// Enqueues a command and blocks for its reply.
    fn submit(&self, id: u64, user_activity: bool, make: impl FnOnce(Sender<Json>) -> Cmd) -> Json {
        let Some(session) = self.shared.session(id) else {
            return err(format!("no session {id}"));
        };
        if let Some(reason) = self.shared.refuse(&session) {
            return err(reason);
        }
        if user_activity {
            *session.last_active.lock_unpoisoned() = Instant::now();
        }
        let (tx, rx) = channel();
        let cmd = make(tx);
        let interactive = cmd.is_interactive();
        // Mint the causal context here, at protocol ingress: every span the
        // request produces downstream — wake, compile, engine eval, journal
        // — hangs off this id, across threads and crates.
        let meta = ReqMeta {
            ctx: self.shared.mint_req(id),
            enq: Instant::now(),
            name: cmd.name(),
        };
        self.shared.flight(
            id,
            "submit",
            &[
                ("cmd", Arg::Str(meta.name)),
                ("req", Arg::U64(meta.ctx.req)),
            ],
        );
        session.cmds.lock_unpoisoned().push_back(Queued {
            cmd,
            meta: Some(meta),
        });
        self.shared.wake(&session, interactive);
        match rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(reply) => reply,
            Err(_) => err(format!("session {id} reply timed out")),
        }
    }

    fn server_stats(&self) -> Json {
        let s = &self.shared;
        let fleet = s.fleet.stats();
        let cache = s.queue.cache();
        let steals: u64 = s
            .shards
            .iter()
            .map(|sh| sh.steals.load(Ordering::Relaxed))
            .sum();
        let (store_hits, store_saves, store_corrupt) = match &s.durable {
            Some(d) => (
                d.store.hits(),
                d.store.saves(),
                d.store.corrupt_quarantined(),
            ),
            None => (0, 0, 0),
        };
        ok([
            (
                "sessions",
                (s.sessions.lock_unpoisoned().len() as u64).into(),
            ),
            (
                "sessions_live",
                (s.live_runtimes.load(Ordering::Relaxed) as u64).into(),
            ),
            (
                "sessions_hibernated",
                (s.dormant_now.load(Ordering::Relaxed) as u64).into(),
            ),
            (
                "sessions_opened",
                s.sessions_opened.load(Ordering::Relaxed).into(),
            ),
            (
                "sessions_reaped",
                s.sessions_reaped.load(Ordering::Relaxed).into(),
            ),
            ("evals", s.evals.load(Ordering::Relaxed).into()),
            ("requests", s.next_req.load(Ordering::Relaxed).into()),
            ("ticks", s.total_ticks.load(Ordering::Relaxed).into()),
            ("steals", steals.into()),
            ("hibernates", s.hibernates.load(Ordering::Relaxed).into()),
            ("wakes", s.wakes.load(Ordering::Relaxed).into()),
            (
                "wake_failures",
                s.wake_failures.load(Ordering::Relaxed).into(),
            ),
            (
                "hibernate_spills",
                s.hib_spills.load(Ordering::Relaxed).into(),
            ),
            (
                "hibernate_mem_bytes",
                (s.hib_mem_bytes.load(Ordering::Relaxed) as u64).into(),
            ),
            (
                "hibernate_disk_bytes",
                (s.hib_disk_bytes.load(Ordering::Relaxed) as u64).into(),
            ),
            (
                "output_dropped",
                s.output_dropped.load(Ordering::Relaxed).into(),
            ),
            ("fabrics", (fleet.capacity as u64).into()),
            ("fabrics_in_use", (fleet.in_use as u64).into()),
            ("fabric_grants", fleet.granted.into()),
            ("fabric_revocations", fleet.revocations.into()),
            (
                "fabric_revocations_suppressed",
                fleet.revocations_suppressed.into(),
            ),
            ("compile_queue_depth", (s.queue.depth() as u64).into()),
            ("compiles_coalesced", s.queue.coalesced().into()),
            ("compiles_shed", s.queue.dropped().into()),
            ("compiles_skipped", s.queue.skipped().into()),
            ("cache_entries", (cache.len() as u64).into()),
            ("cache_hits", cache.hits().into()),
            ("cache_misses", cache.misses().into()),
            ("cache_evictions", cache.evictions().into()),
            (
                "session_panics",
                s.session_panics.load(Ordering::Relaxed).into(),
            ),
            ("compile_worker_panics", s.queue.worker_panics().into()),
            ("fabrics_lost", (fleet.lost as u64).into()),
            ("fabric_failures", fleet.fabric_failures.into()),
            ("trace_events", (s.trace.len() as u64).into()),
            ("trace_dropped", s.trace.dropped().into()),
            (
                "recovered_sessions",
                s.recovered_sessions.load(Ordering::Relaxed).into(),
            ),
            (
                "recovery_replayed",
                s.recovery_replayed.load(Ordering::Relaxed).into(),
            ),
            (
                "recovery_quarantined",
                (s.recovery_quarantined.load(Ordering::Relaxed) + store_corrupt).into(),
            ),
            ("warm_bitstream_hits", store_hits.into()),
            ("bitstream_store_saves", store_saves.into()),
            (
                "drain_flushes",
                s.drain_flushes.load(Ordering::Relaxed).into(),
            ),
        ])
    }

    /// Tail-latency attribution over the recent-request ring: picks the
    /// requests at or past the given percentile of total wall time and
    /// prints each one's dominant phase and full phase breakdown.
    fn explain(&self, percentile: &str) -> Json {
        let q = match percentile {
            "p50" => 0.50,
            "p90" => 0.90,
            "p99" => 0.99,
            other => return err(format!("unknown percentile `{other}` (want p50|p90|p99)")),
        };
        let recs: Vec<ReqRecord> = self
            .shared
            .recent
            .lock_unpoisoned()
            .iter()
            .cloned()
            .collect();
        if recs.is_empty() {
            return ok([
                ("text", "no requests recorded".into()),
                ("requests", 0.into()),
                ("coverage", 0.0.into()),
            ]);
        }
        let mut totals: Vec<u64> = recs.iter().map(|r| r.total_ns).collect();
        totals.sort_unstable();
        let idx = (((totals.len() - 1) as f64) * q).round() as usize;
        let threshold = totals[idx.min(totals.len() - 1)];
        let mut slow: Vec<&ReqRecord> = recs.iter().filter(|r| r.total_ns >= threshold).collect();
        slow.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        slow.truncate(10);
        let mut text = format!(
            "{percentile} tail of {} recent requests (threshold {:.3} ms):\n",
            recs.len(),
            threshold as f64 / 1e6,
        );
        for r in &slow {
            let (dom, dom_ns) = r
                .phase_ns
                .iter()
                .enumerate()
                .max_by_key(|(_, ns)| **ns)
                .map(|(i, ns)| (PHASE_NAMES[i], *ns))
                .unwrap_or(("other", 0));
            let pct = if r.total_ns > 0 {
                100.0 * dom_ns as f64 / r.total_ns as f64
            } else {
                0.0
            };
            let breakdown: Vec<String> = r
                .phase_ns
                .iter()
                .enumerate()
                .filter(|(_, ns)| **ns > 0)
                .map(|(i, ns)| format!("{} {:.3}ms", PHASE_NAMES[i], *ns as f64 / 1e6))
                .collect();
            text.push_str(&format!(
                "  req {} session {} {}: {:.3} ms, dominant {dom} ({pct:.0}%)  [{}]\n",
                r.req,
                r.tenant,
                r.name,
                r.total_ns as f64 / 1e6,
                breakdown.join(" | "),
            ));
        }
        // Named-phase coverage of the slowest request: everything except
        // the unattributed residual.
        let coverage = slow
            .first()
            .map(|r| {
                if r.total_ns == 0 {
                    1.0
                } else {
                    (r.total_ns.saturating_sub(r.phase_ns[PH_OTHER])) as f64 / r.total_ns as f64
                }
            })
            .unwrap_or(0.0);
        ok([
            ("text", text.into()),
            ("requests", (recs.len() as u64).into()),
            ("coverage", coverage.into()),
        ])
    }

    /// Ranks tenants by recent burn (the sweeper's EWMA over each
    /// session's weighted meter growth). Reads only meters — no session
    /// is woken.
    fn server_top(&self, n: u64) -> Json {
        let sessions: Vec<Arc<Session>> = self
            .shared
            .sessions
            .lock_unpoisoned()
            .values()
            .cloned()
            .collect();
        let mut rows: Vec<(f64, Json, String)> = sessions
            .iter()
            .map(|s| {
                let m = &s.meter;
                let burn = f64::from_bits(m.burn.load(Ordering::Relaxed));
                let ticks = m.ticks.load(Ordering::Relaxed);
                let compile_ms = m.compile_ns.load(Ordering::Relaxed) as f64 / 1e6;
                let journal_bytes = m.journal_bytes.load(Ordering::Relaxed);
                let output_bytes = m.output_bytes.load(Ordering::Relaxed);
                let lease_ms = self.shared.lease_us_total(s) as f64 / 1e3;
                let row = Json::obj([
                    ("session", s.id.into()),
                    ("burn", burn.into()),
                    ("ticks", ticks.into()),
                    ("compile_ms", compile_ms.into()),
                    ("journal_bytes", journal_bytes.into()),
                    ("output_bytes", output_bytes.into()),
                    ("lease_ms", lease_ms.into()),
                ]);
                let line = format!(
                    "  session {} burn {burn:.1} ticks {ticks} compile {compile_ms:.3}ms \
                     lease {lease_ms:.3}ms journal {journal_bytes}B output {output_bytes}B",
                    s.id,
                );
                (burn, row, line)
            })
            .collect();
        rows.sort_by(|a, b| b.0.total_cmp(&a.0));
        rows.truncate(n.max(1) as usize);
        let mut text = format!("top {} tenants by recent burn:\n", rows.len());
        let mut tenants = Vec::with_capacity(rows.len());
        for (_, row, line) in rows {
            text.push_str(&line);
            text.push('\n');
            tenants.push(row);
        }
        ok([("text", text.into()), ("tenants", Json::Arr(tenants))])
    }

    /// Adds (interval > 0) or cancels (interval 0) a live telemetry
    /// subscription on a session. Frames are delivered through the
    /// session's bounded output queue by the sweeper.
    fn subscribe(&self, session: u64, stream: &str, interval_ms: u64) -> Json {
        let Some(s) = self.shared.session(session) else {
            return err(format!("no session {session}"));
        };
        if let Some(reason) = self.shared.refuse(&s) {
            return err(reason);
        }
        let st = match stream {
            "metrics" => SubStream::Metrics,
            "events" => SubStream::Events,
            other => return err(format!("unknown stream `{other}` (want metrics|events)")),
        };
        let mut subs = s.subs.lock_unpoisoned();
        subs.retain(|sub| sub.stream != st);
        let subscribed = interval_ms > 0;
        if subscribed {
            // Event streams start at the ring's current high-water mark:
            // subscribers see what happens next, not history.
            let last_seq = match st {
                SubStream::Events => self
                    .shared
                    .trace
                    .snapshot()
                    .last()
                    .map(|e| e.seq)
                    .unwrap_or(0),
                SubStream::Metrics => 0,
            };
            subs.push(Subscription {
                stream: st,
                interval: Duration::from_millis(interval_ms),
                next_at: Instant::now(),
                last_seq,
            });
        }
        ok([("subscribed", subscribed.into()), ("stream", stream.into())])
    }

    /// The flight-recorder trace persisted by the previous lifetime's
    /// crash, if recovery found one (`last-crash.trace.jsonl`).
    pub fn last_crash_trace(&self) -> Option<String> {
        self.shared.last_crash.clone()
    }

    /// Graceful pre-restart flush: every session's durable state is
    /// brought current — live sessions are hibernated (compacting their
    /// journals on the way down), already-dormant-but-dirty sessions get
    /// their journals compacted from the stored image without waking,
    /// and the counter-baseline snapshot is written. Returns `(flushed,
    /// hibernated)`. Recovered-but-never-woken sessions are skipped:
    /// their journals are already exactly what recovery needs. On a
    /// non-durable server this only hibernates.
    pub fn drain(&self) -> (u64, u64) {
        let ids: Vec<u64> = {
            let sessions = self.shared.sessions.lock_unpoisoned();
            sessions.keys().copied().collect()
        };
        let mut flushed = 0u64;
        let mut hibernated = 0u64;
        for id in ids {
            let Some(session) = self.shared.session(id) else {
                continue;
            };
            if session.needs_resume.load(Ordering::SeqCst) {
                continue;
            }
            if session.dormant.lock_unpoisoned().is_some() {
                if self.shared.compact_dormant(&session) {
                    flushed += 1;
                }
                continue;
            }
            let reply = self.submit(id, false, |tx| Cmd::Hibernate { tx: Some(tx) });
            if reply.get("hibernated").and_then(Json::as_bool) == Some(true) {
                hibernated += 1;
                flushed += 1;
            }
        }
        if let Some(d) = &self.shared.durable {
            let counters = self.counter_baseline();
            let mut payload = Vec::new();
            codec::put_u64(&mut payload, counters.len() as u64);
            for (name, value) in &counters {
                codec::put_str(&mut payload, name);
                codec::put_u64(&mut payload, *value);
            }
            let _ = d.fs.write_atomic(&d.meta_path, &payload);
            self.shared
                .drain_flushes
                .fetch_add(flushed, Ordering::Relaxed);
        }
        (flushed, hibernated)
    }

    /// Every `serve_*_total` counter at its current (baseline-inclusive)
    /// value — the floor a successor process must report from.
    fn counter_baseline(&self) -> Vec<(String, u64)> {
        self.metric_snapshots()
            .into_iter()
            .filter_map(|snap| {
                if !snap.name.starts_with("serve_") || !snap.name.ends_with("_total") {
                    return None;
                }
                match snap.value {
                    SnapValue::Counter(v) => Some((snap.name, v)),
                    _ => None,
                }
            })
            .collect()
    }

    /// Events from the shared ring, filtered to one session's track (the
    /// compile category rides on the submitting session's track too).
    fn trace_events(&self, session: Option<u64>) -> Vec<TraceEvent> {
        let mut events = self.shared.trace.snapshot();
        if let Some(id) = session {
            events.retain(|ev| ev.track == id);
        }
        events
    }

    /// Server-wide Prometheus exposition: every live session's registry
    /// summed (counters and histogram buckets add; a restarted or
    /// hibernated session's cells simply stop contributing), plus
    /// server-level gauges.
    fn server_metrics(&self) -> Json {
        ok([("text", expose(&self.metric_snapshots()).into())])
    }

    /// The snapshots behind [`Server::server_metrics`]. Every
    /// `serve_*_total` counter is reported baseline-inclusive: a server
    /// recovered from a drain adds the previous lifetime's floor, so the
    /// family is monotone across graceful restarts. (After a crash —
    /// no drain snapshot — counters restart from the last *drained*
    /// baseline, still a monotone lower bound of true lifetime totals.)
    fn metric_snapshots(&self) -> Vec<MetricSnapshot> {
        let s = &self.shared;
        let mut snaps: Vec<MetricSnapshot> = Vec::new();
        let per_session: Vec<(u64, Registry, u64)> = s
            .sessions
            .lock_unpoisoned()
            .values()
            .map(|sess| {
                (
                    sess.id,
                    sess.registry.lock_unpoisoned().clone(),
                    sess.output.lock_unpoisoned().dropped_total,
                )
            })
            .collect();
        let mut labeled = Vec::with_capacity(per_session.len());
        for (id, reg, dropped_total) in per_session {
            merge(&mut snaps, reg.snapshot());
            labeled.push(MetricSnapshot {
                name: format!("serve_session_output_dropped_total{{session=\"{id}\"}}"),
                help: "Output lines dropped by one session's bounded queue".to_string(),
                value: SnapValue::Counter(dropped_total),
            });
        }
        merge(&mut snaps, labeled);
        // Server-level phase histograms (`serve_phase_*_seconds`).
        merge(&mut snaps, s.obs.snapshot());
        let fleet = s.fleet.stats();
        let cache = s.queue.cache();
        let steals: u64 = s
            .shards
            .iter()
            .map(|sh| sh.steals.load(Ordering::Relaxed))
            .sum();
        let gauge = |name: &str, help: &str, v: f64| MetricSnapshot {
            name: name.to_string(),
            help: help.to_string(),
            value: SnapValue::Gauge(v),
        };
        let counter = |name: &str, help: &str, v: u64| MetricSnapshot {
            name: name.to_string(),
            help: help.to_string(),
            value: SnapValue::Counter(v + s.baseline.get(name).copied().unwrap_or(0)),
        };
        let (store_hits, store_saves, store_corrupt) = match &s.durable {
            Some(d) => (
                d.store.hits(),
                d.store.saves(),
                d.store.corrupt_quarantined(),
            ),
            None => (0, 0, 0),
        };
        merge(
            &mut snaps,
            vec![
                gauge(
                    "serve_sessions",
                    "Live sessions",
                    s.sessions.lock_unpoisoned().len() as f64,
                ),
                gauge(
                    "serve_sessions_live",
                    "Sessions with a live runtime",
                    s.live_runtimes.load(Ordering::Relaxed) as f64,
                ),
                gauge(
                    "serve_sessions_hibernated",
                    "Sessions currently hibernated (runtime dropped)",
                    s.dormant_now.load(Ordering::Relaxed) as f64,
                ),
                counter(
                    "serve_sessions_opened_total",
                    "Sessions ever opened",
                    s.sessions_opened.load(Ordering::Relaxed),
                ),
                counter(
                    "serve_sessions_reaped_total",
                    "Sessions reaped by the idle timeout",
                    s.sessions_reaped.load(Ordering::Relaxed),
                ),
                counter(
                    "serve_evals_total",
                    "Eval commands served",
                    s.evals.load(Ordering::Relaxed),
                ),
                counter(
                    "serve_ticks_total",
                    "Virtual clock ticks run across all sessions",
                    s.total_ticks.load(Ordering::Relaxed),
                ),
                counter(
                    "serve_steals_total",
                    "Sessions claimed from another worker's shard",
                    steals,
                ),
                counter(
                    "serve_hibernates_total",
                    "Sessions frozen to a hibernation image",
                    s.hibernates.load(Ordering::Relaxed),
                ),
                counter(
                    "serve_wakes_total",
                    "Sessions rebuilt from a hibernation image",
                    s.wakes.load(Ordering::Relaxed),
                ),
                counter(
                    "serve_wake_failures_total",
                    "Sessions lost to an unrestorable hibernation image",
                    s.wake_failures.load(Ordering::Relaxed),
                ),
                counter(
                    "serve_hibernate_spills_total",
                    "Hibernation images spilled to disk",
                    s.hib_spills.load(Ordering::Relaxed),
                ),
                gauge(
                    "serve_hibernate_bytes",
                    "Bytes held by the hibernation store (memory + disk)",
                    (s.hib_mem_bytes.load(Ordering::Relaxed)
                        + s.hib_disk_bytes.load(Ordering::Relaxed)) as f64,
                ),
                counter(
                    "serve_output_dropped_total",
                    "Output lines dropped by bounded session queues",
                    s.output_dropped.load(Ordering::Relaxed),
                ),
                counter(
                    "serve_session_panics_total",
                    "Worker panics contained at the session boundary",
                    s.session_panics.load(Ordering::Relaxed),
                ),
                gauge("serve_fabrics", "Fleet capacity", fleet.capacity as f64),
                gauge(
                    "serve_fabrics_in_use",
                    "Fabric leases currently held",
                    fleet.in_use as f64,
                ),
                counter("serve_fabric_grants_total", "Leases granted", fleet.granted),
                counter(
                    "serve_fabric_revocations_total",
                    "Leases revoked for arbitration",
                    fleet.revocations,
                ),
                counter(
                    "serve_fabric_revocations_suppressed_total",
                    "Revocations suppressed by lease hysteresis",
                    fleet.revocations_suppressed,
                ),
                gauge(
                    "serve_compile_queue_depth",
                    "Pending jobs in the shared compile queue",
                    s.queue.depth() as f64,
                ),
                counter(
                    "serve_compiles_coalesced_total",
                    "Compile jobs coalesced onto an identical in-flight job",
                    s.queue.coalesced(),
                ),
                counter(
                    "serve_compiles_shed_total",
                    "Compile jobs shed by the bounded queue",
                    s.queue.dropped(),
                ),
                counter(
                    "serve_compiles_skipped_total",
                    "Compile jobs discarded unrun because nobody awaited them",
                    s.queue.skipped(),
                ),
                counter(
                    "serve_bitstream_cache_hits_total",
                    "Shared bitstream cache hits",
                    cache.hits(),
                ),
                counter(
                    "serve_bitstream_cache_misses_total",
                    "Shared bitstream cache misses",
                    cache.misses(),
                ),
                counter(
                    "serve_trace_events_dropped_total",
                    "Trace events dropped by the bounded ring",
                    s.trace.dropped(),
                ),
                gauge(
                    "serve_trace_ring_events",
                    "Trace events held by the shared ring",
                    s.trace.len() as f64,
                ),
                gauge(
                    "serve_trace_ring_bytes",
                    "Heap bytes held by the shared trace ring",
                    s.trace.bytes() as f64,
                ),
                counter(
                    "serve_recovery_sessions_total",
                    "Sessions rehydrated from write-ahead journals at recovery",
                    s.recovered_sessions.load(Ordering::Relaxed),
                ),
                counter(
                    "serve_recovery_journal_records_replayed_total",
                    "Journaled commands replayed into woken sessions after recovery",
                    s.recovery_replayed.load(Ordering::Relaxed),
                ),
                counter(
                    "serve_recovery_corrupt_records_quarantined_total",
                    "Corrupt journals, torn tails, spill images, and store entries quarantined",
                    s.recovery_quarantined.load(Ordering::Relaxed) + store_corrupt,
                ),
                counter(
                    "serve_recovery_warm_bitstream_hits_total",
                    "Compiles skipped by the persistent bitstream store",
                    store_hits,
                ),
                counter(
                    "serve_recovery_bitstream_saves_total",
                    "Bitstreams persisted to the durable store",
                    store_saves,
                ),
                counter(
                    "serve_recovery_drain_flushes_total",
                    "Session journals flushed durably by server drains",
                    s.drain_flushes.load(Ordering::Relaxed),
                ),
            ],
        );
        snaps
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            let _g = shard.queue.lock_unpoisoned();
            shard.cond.notify_all();
        }
        {
            let mut gate = self.shared.sweep_gate.lock_unpoisoned();
            *gate = true;
            self.shared.sweep_cond.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(s) = self.sweeper.take() {
            let _ = s.join();
        }
        // Dropping sessions drops their runtimes, releasing fleet leases.
        self.shared.sessions.lock_unpoisoned().clear();
        // Spilled images are worthless without their sessions — but only
        // the server's *own* temp directory is removed; an explicitly
        // configured spill dir (and all durable state under
        // `durable_dir`) is retained for the operator / the successor
        // process.
        if self.shared.config.hibernate_spill_dir.is_none() {
            let _ = std::fs::remove_dir_all(&self.shared.spill_dir);
        }
    }
}

impl Shared {
    fn session(&self, id: u64) -> Option<Arc<Session>> {
        self.sessions.lock_unpoisoned().get(&id).cloned()
    }

    /// The shard a session is pinned to (id hash, stable for its life).
    fn home_shard(&self, id: u64) -> usize {
        ((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % self.shards.len() as u64) as usize
    }

    /// Marks a session runnable on its home shard and makes sure some
    /// worker will claim it. Deduped: if the session is already scheduled
    /// (queued or being drained), this is a no-op — the draining worker
    /// re-checks the command queue before releasing the REPL.
    ///
    /// `interactive` puts the session at the *front* of its shard: a user
    /// waiting on an eval or a probe should not queue behind a line of
    /// 256-tick run bursts. Bulk traffic (run, service sweeps) goes to the
    /// back. Sub-millisecond interactive tails at high tenant counts come
    /// from this split, not from more worker threads.
    fn wake(&self, session: &Session, interactive: bool) {
        if session.scheduled.swap(true, Ordering::SeqCst) {
            return;
        }
        let home = self.home_shard(session.id);
        let shard = &self.shards[home];
        let home_parked = {
            let mut q = shard.queue.lock_unpoisoned();
            if interactive {
                q.push_front(session.id);
            } else {
                q.push_back(session.id);
            }
            shard.len.fetch_add(1, Ordering::SeqCst);
            if shard.parked.load(Ordering::SeqCst) {
                shard.cond.notify_one();
                true
            } else {
                false
            }
        };
        if home_parked {
            return;
        }
        // The home worker is busy: hand the wakeup to any parked worker —
        // it will find the session via its steal scan. Taking the victim's
        // queue lock orders the notify against its park/re-check.
        for s in &self.shards {
            if s.parked.load(Ordering::SeqCst) {
                let _g = s.queue.lock_unpoisoned();
                s.cond.notify_one();
                break;
            }
        }
    }

    /// Wakes the sweeper ahead of its poll tick (a worker observed the
    /// arbiter with a revocation or reservation in flight).
    fn nudge_sweeper(&self) {
        let mut gate = self.sweep_gate.lock_unpoisoned();
        if !*gate {
            *gate = true;
            self.sweep_cond.notify_one();
        }
    }

    /// Fresh activity stamp (monotone across all sessions).
    fn stamp(&self) -> f64 {
        (self.activity.fetch_add(1, Ordering::Relaxed) + 1) as f64
    }

    /// Takes a session's dormant image out of the store (accounting
    /// updated). `None` means the session is not dormant — live, or its
    /// REPL is checked out by some worker.
    fn take_dormant(&self, session: &Session) -> Option<Dormant> {
        let d = session.dormant.lock_unpoisoned().take()?;
        self.dormant_now.fetch_sub(1, Ordering::Relaxed);
        match &d {
            Dormant::Mem(b) => {
                self.hib_mem_bytes.fetch_sub(b.len(), Ordering::Relaxed);
            }
            Dormant::Disk { bytes, .. } => {
                self.hib_disk_bytes.fetch_sub(*bytes, Ordering::Relaxed);
            }
        }
        Some(d)
    }

    /// Puts a dormant image back untouched (the mirror of `take_dormant`).
    fn restore_dormant(&self, session: &Session, d: Dormant) {
        match &d {
            Dormant::Mem(b) => {
                self.hib_mem_bytes.fetch_add(b.len(), Ordering::Relaxed);
            }
            Dormant::Disk { bytes, .. } => {
                self.hib_disk_bytes.fetch_add(*bytes, Ordering::Relaxed);
            }
        }
        self.dormant_now.fetch_add(1, Ordering::Relaxed);
        *session.dormant.lock_unpoisoned() = Some(d);
    }

    /// Stores a freshly serialized image, spilling to disk past the
    /// memory budget.
    fn store_dormant(&self, session: &Session, bytes: Vec<u8>) -> bool {
        let len = bytes.len();
        let budget = self.config.hibernate_mem_bytes;
        let prev = self.hib_mem_bytes.fetch_add(len, Ordering::SeqCst);
        let mut spilled = false;
        let dormant = if prev + len > budget {
            self.hib_mem_bytes.fetch_sub(len, Ordering::SeqCst);
            match self.spill(session.id, &bytes) {
                Some(path) => {
                    self.hib_disk_bytes.fetch_add(len, Ordering::Relaxed);
                    self.hib_spills.fetch_add(1, Ordering::Relaxed);
                    spilled = true;
                    Dormant::Disk { path, bytes: len }
                }
                None => {
                    // Disk refused the image: keep it in memory over
                    // budget rather than lose the session.
                    self.hib_mem_bytes.fetch_add(len, Ordering::SeqCst);
                    Dormant::Mem(bytes)
                }
            }
        } else {
            Dormant::Mem(bytes)
        };
        self.dormant_now.fetch_add(1, Ordering::Relaxed);
        *session.dormant.lock_unpoisoned() = Some(dormant);
        spilled
    }

    fn spill(&self, id: u64, bytes: &[u8]) -> Option<PathBuf> {
        if std::fs::create_dir_all(&self.spill_dir).is_err() {
            return None;
        }
        let seq = self.spill_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.spill_dir.join(format!("s{id}-{seq}.hib"));
        // Atomic + CRC-framed: a torn spill must be *detected* at wake
        // (counted wake failure), never restored as a session.
        self.dfs.write_atomic(&path, bytes).ok()?;
        Some(path)
    }

    /// Mints the causal context for the next request of `tenant`.
    fn mint_req(&self, tenant: u64) -> RequestCtx {
        RequestCtx::new(tenant, self.next_req.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// A tenant's total fabric lease time in microseconds: the recovered
    /// floor plus what the live fleet has metered this lifetime. Monotone.
    fn lease_us_total(&self, session: &Session) -> u64 {
        session.meter.lease_base_us.load(Ordering::Relaxed)
            + (self.fleet.tenant_lease_seconds(session.id) * 1e6) as u64
    }

    /// Records one flight-recorder breadcrumb. The flight ring runs on an
    /// ordinal virtual clock, so a seeded re-run that performs the same
    /// operations exports byte-identical records.
    fn flight(&self, track: u64, name: &'static str, args: &[(&str, Arg)]) {
        let at = self.flight_clock.fetch_add(1, Ordering::Relaxed);
        self.flight.instant(track, "flight", name, at, args);
    }

    /// Persists the flight ring as `last-crash.trace.jsonl` under the
    /// durable root — once per process, through the raw sidecar path that
    /// still works after the durable layer latches its crash flag.
    fn dump_flight(&self, reason: &str) {
        let Some(d) = &self.durable else {
            return;
        };
        if self.flight_dumped.swap(true, Ordering::SeqCst) {
            return;
        }
        let at = self.flight_clock.fetch_add(1, Ordering::Relaxed);
        self.flight
            .instant(0, "flight", "dump", at, &[("reason", Arg::Str(reason))]);
        let text = export_jsonl(&self.flight.snapshot(), TimeMode::VirtualOnly);
        let _ = d.fs.write_sidecar(&d.crash_path, text.as_bytes());
    }

    /// Why a session cannot accept commands right now, if it cannot.
    fn refuse(&self, session: &Session) -> Option<String> {
        if let Some(d) = &self.durable {
            if d.fs.crashed() {
                self.dump_flight("durable store crashed");
                return Some("durable store crashed; restart the server and recover".to_string());
            }
        }
        if session.needs_resume.load(Ordering::SeqCst) {
            return Some(format!(
                "session {} was recovered; resume it with its token first",
                session.id
            ));
        }
        None
    }

    /// The dedup half of exactly-once: a client retrying its last
    /// unacknowledged command re-sends the same `seq`; if that seq was
    /// acknowledged, the stored reply is returned without re-executing.
    /// `seq` 0 = unsequenced (never deduped).
    fn dedup_reply(session: &Session, seq: u64) -> Option<Json> {
        if seq == 0 || session.last_seq.load(Ordering::SeqCst) != seq {
            return None;
        }
        let stored = session.last_reply.lock_unpoisoned().clone()?;
        Json::parse(&stored).ok()
    }

    /// The write-ahead half of exactly-once: the record — including the
    /// reply — is appended and fsynced *before* the reply is released.
    /// A failed append returns an error reply instead: the command was
    /// never acknowledged, so recovery rightly forgets it.
    fn commit(&self, session: &Session, seq: u64, reply: Json, tag: u8, extra: &[u8]) -> Json {
        let reply_text = reply.to_string();
        if let Some(d) = &self.durable {
            let mut payload = Vec::with_capacity(17 + reply_text.len() + extra.len());
            codec::put_u8(&mut payload, tag);
            codec::put_u64(&mut payload, seq);
            codec::put_str(&mut payload, &reply_text);
            payload.extend_from_slice(extra);
            let journal = session.journal.lock_unpoisoned();
            let path = d.journal_path(session.id, journal.gen);
            if let Err(e) = d.fs.append(&path, &payload) {
                drop(journal);
                self.dump_flight("journal append failed");
                return err(format!("not acknowledged: {e}"));
            }
            session
                .meter
                .journal_bytes
                .fetch_add(payload.len() as u64, Ordering::Relaxed);
        }
        self.flight(
            session.id,
            "commit",
            &[("tag", Arg::U64(tag as u64)), ("seq", Arg::U64(seq))],
        );
        session.dirty.store(true, Ordering::Relaxed);
        if seq > 0 {
            session.last_seq.store(seq, Ordering::SeqCst);
            *session.last_reply.lock_unpoisoned() = Some(reply_text);
        }
        reply
    }

    /// Rewrites a session's journal as one checkpoint record at
    /// generation `gen+1`, then retires the old generation. The old file
    /// is removed only after the new one is durably in place, so a fault
    /// at any point leaves a parseable journal holding every
    /// acknowledged command.
    fn compact_journal(&self, session: &Session, image: &[u8]) -> bool {
        let Some(d) = &self.durable else {
            return false;
        };
        if !session.dirty.load(Ordering::Relaxed) {
            return false;
        }
        let mut payload = Vec::new();
        codec::put_u8(&mut payload, REC_CKPT);
        codec::put_u64(&mut payload, session.token);
        codec::put_u64(&mut payload, session.last_seq.load(Ordering::SeqCst));
        codec::put_str(
            &mut payload,
            session
                .last_reply
                .lock_unpoisoned()
                .as_deref()
                .unwrap_or(""),
        );
        codec::put_bytes(&mut payload, image);
        let fifo = session.board.fifo_snapshot();
        codec::put_u64(&mut payload, fifo.len() as u64);
        for bits in &fifo {
            codec::put_bits(&mut payload, bits);
        }
        let queued: Vec<String> = {
            let out = session.output.lock_unpoisoned();
            out.lines.iter().cloned().collect()
        };
        codec::put_u64(&mut payload, queued.len() as u64);
        for line in &queued {
            codec::put_str(&mut payload, line);
        }
        // Trailing meter block (added after the original checkpoint
        // layout; decode treats it as optional for old journals): the
        // tenant's monotone resource counters survive the restart.
        let m = &session.meter;
        codec::put_u64(&mut payload, m.ticks.load(Ordering::Relaxed));
        codec::put_u64(&mut payload, m.compile_ns.load(Ordering::Relaxed));
        codec::put_u64(&mut payload, m.journal_bytes.load(Ordering::Relaxed));
        codec::put_u64(&mut payload, m.output_bytes.load(Ordering::Relaxed));
        codec::put_u64(&mut payload, self.lease_us_total(session));
        let mut journal = session.journal.lock_unpoisoned();
        if session.closed.load(Ordering::Relaxed) {
            return false; // its journal is removed, and must stay removed
        }
        let next = journal.gen + 1;
        if d.fs
            .write_atomic(&d.journal_path(session.id, next), &payload)
            .is_err()
        {
            return false; // old generation remains authoritative
        }
        let removed = std::fs::remove_file(d.journal_path(session.id, journal.gen)).is_ok();
        if removed && journal.oldest == journal.gen {
            journal.oldest = next;
        }
        journal.gen = next;
        drop(journal);
        session.dirty.store(false, Ordering::Relaxed);
        true
    }

    /// Closes a session durably: every journal generation is removed, oldest
    /// first, and the removal is fsynced before the close may be
    /// acknowledged — so a closed session does not come back at recovery.
    /// The session is marked closed under the journal lock, which keeps a
    /// concurrent compaction from writing a generation behind the removal,
    /// and leaves the session table before the close is acknowledged, so
    /// the old token cannot resume it. A failed removal leaves the session
    /// open and unacknowledged.
    fn close_session(&self, session: &Session) -> Result<(), DurableError> {
        let journal = session.journal.lock_unpoisoned();
        if let Some(d) = &self.durable {
            let paths: Vec<PathBuf> = (journal.oldest..=journal.gen)
                .map(|gen| d.journal_path(session.id, gen))
                .collect();
            if let Err(e) = d.fs.remove_all(&paths) {
                drop(journal);
                self.dump_flight("journal removal failed");
                return Err(e);
            }
        }
        session.closed.store(true, Ordering::Relaxed);
        drop(journal);
        self.sessions.lock_unpoisoned().remove(&session.id);
        Ok(())
    }

    /// Compacts a dormant session's journal from its stored image
    /// without waking it (drain of a FIFO-dirtied or long-dormant
    /// session). Refuses while a replay suffix is pending — the stored
    /// image does not include it yet.
    fn compact_dormant(&self, session: &Session) -> bool {
        if self.durable.is_none()
            || !session.dirty.load(Ordering::Relaxed)
            || session.replay.lock_unpoisoned().is_some()
        {
            return false;
        }
        let bytes = {
            let dormant = session.dormant.lock_unpoisoned();
            match dormant.as_ref() {
                Some(Dormant::Mem(b)) => b.clone(),
                Some(Dormant::Disk { path, .. }) => match self.dfs.read_record(path) {
                    Ok(b) => b,
                    Err(_) => return false,
                },
                None => return false,
            }
        };
        self.compact_journal(session, &bytes)
    }
}

// ---------------------------------------------------------------------
// Worker: sharded run queues with randomized stealing
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared, me: usize) {
    let mut prng = cascade_bits::Prng::new(0x5eed_0000 ^ me as u64);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(id) = next_session_id(shared, me, &mut prng) else {
            continue; // parked and timed out (or woken empty): rescan
        };
        let Some(session) = shared.session(id) else {
            continue; // closed while queued
        };
        run_session(shared, &session);
    }
}

/// Local pop → randomized steal scan → park (with a timeout safety net).
fn next_session_id(shared: &Shared, me: usize, prng: &mut cascade_bits::Prng) -> Option<u64> {
    let shards = &shared.shards;
    let mine = &shards[me];
    // 1. Local pop.
    {
        let mut q = mine.queue.lock_unpoisoned();
        if let Some(id) = q.pop_front() {
            mine.len.fetch_sub(1, Ordering::SeqCst);
            return Some(id);
        }
    }
    // 2. Steal scan from a random starting victim. Steals take the tail:
    // the victim owner drains from the head.
    let n = shards.len();
    if n > 1 {
        let start = prng.below(n as u64) as usize;
        for k in 0..n {
            let j = (start + k) % n;
            if j == me || shards[j].len.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let mut q = shards[j].queue.lock_unpoisoned();
            if let Some(id) = q.pop_back() {
                shards[j].len.fetch_sub(1, Ordering::SeqCst);
                mine.steals.fetch_add(1, Ordering::Relaxed);
                return Some(id);
            }
        }
    }
    // 3. Park on the home shard. The parked flag is published before the
    // final emptiness re-check; `wake` increments a shard len before
    // reading parked flags — under SeqCst one side always sees the other,
    // so a wakeup cannot be lost.
    let mut q = mine.queue.lock_unpoisoned();
    mine.parked.store(true, Ordering::SeqCst);
    let work_visible = !q.is_empty()
        || shared.shutdown.load(Ordering::SeqCst)
        || shards
            .iter()
            .enumerate()
            .any(|(j, s)| j != me && s.len.load(Ordering::SeqCst) > 0);
    if !work_visible {
        let (guard, _) = mine
            .cond
            .wait_timeout(q, PARK_TIMEOUT)
            .unwrap_or_else(PoisonError::into_inner);
        q = guard;
    }
    mine.parked.store(false, Ordering::SeqCst);
    let id = q.pop_front();
    if id.is_some() {
        mine.len.fetch_sub(1, Ordering::SeqCst);
    }
    id
}

/// What `ensure_repl` decided about a command that arrived while the
/// session had no live REPL in hand.
enum Disposition {
    /// Handled without a runtime; move to the next command.
    Handled,
    /// Session torn down (closed, or wake failed); stop draining.
    Exit,
    /// A runtime is now in hand; execute the command.
    Execute(Queued),
}

/// Drains a session's command queue through one REPL checkout. Claims the
/// live REPL if present, wakes the session from its hibernation image on
/// the first command that needs a runtime, and hands the commands back if
/// another worker currently holds the REPL.
fn run_session(shared: &Shared, session: &Arc<Session>) {
    // This worker is now responsible: later wakes must re-enqueue.
    session.scheduled.store(false, Ordering::SeqCst);
    let mut repl: Option<Box<Repl>> = session.repl.lock_unpoisoned().take();
    loop {
        if session.closed.load(Ordering::Relaxed) {
            break;
        }
        let Some(q) = session.cmds.lock_unpoisoned().pop_front() else {
            break;
        };
        // The queue phase ends here: a worker has claimed the command.
        let mut acc = PhaseAcc::default();
        if let Some(m) = &q.meta {
            acc.add(PH_QUEUE, m.enq.elapsed());
        }
        let q = if repl.is_some() {
            q
        } else {
            match ensure_repl(shared, session, &mut repl, q, &mut acc) {
                Disposition::Handled => continue,
                Disposition::Exit => return,
                Disposition::Execute(q) => q,
            }
        };
        let Queued { cmd, meta } = q;
        let r = repl.as_mut().expect("repl in hand");
        // Isolation boundary: a panic while executing one session's
        // command kills that session with a structured error. The
        // worker, the server, and every other tenant keep running.
        let reply_tx = cmd.reply_tx();
        let flow = match catch_unwind(AssertUnwindSafe(|| {
            execute(shared, session, r, cmd, meta.as_ref(), &mut acc)
        })) {
            Ok(flow) => flow,
            Err(payload) => {
                shared.session_panics.fetch_add(1, Ordering::Relaxed);
                session.closed.store(true, Ordering::Relaxed);
                let msg = panic_message(payload.as_ref());
                shared.flight(session.id, "panic", &[]);
                shared.dump_flight("session worker panicked");
                if let Some(tx) = reply_tx {
                    let _ = tx.send(Json::obj([
                        ("ok", false.into()),
                        ("status", "panicked".into()),
                        ("error", format!("session worker panicked: {msg}").into()),
                    ]));
                }
                // Commands already queued behind the panic get an error
                // reply instead of a timeout.
                let dead: Vec<Queued> = session.cmds.lock_unpoisoned().drain(..).collect();
                for c in dead {
                    if let Some(tx) = c.cmd.reply_tx() {
                        let _ = tx.send(err(format!(
                            "session {} closed: worker panicked: {msg}",
                            session.id
                        )));
                    }
                }
                Flow::Continue
            }
        };
        if let Flow::Hibernate(tx) = flow {
            let held = repl.take().expect("repl in hand");
            let (at, parent) = request_span(&meta);
            match try_hibernate(shared, session, held, at, parent) {
                Ok((bytes, spilled)) => {
                    if let Some(tx) = tx {
                        let _ = tx.send(ok([
                            ("hibernated", true.into()),
                            ("bytes", (bytes as u64).into()),
                            ("spilled", spilled.into()),
                        ]));
                    }
                }
                Err((held, reason)) => {
                    repl = Some(held);
                    if let Some(tx) = tx {
                        let _ = tx.send(ok([
                            ("hibernated", false.into()),
                            ("reason", reason.into()),
                        ]));
                    }
                }
            }
        }
        if let Some(m) = &meta {
            finish_request(shared, session, m, &mut acc);
        }
    }
    if session.closed.load(Ordering::Relaxed) {
        // Dropping the REPL drops the runtime: its `Drop` releases the
        // fabric lease and cancels any pending fleet request.
        shared.sessions.lock_unpoisoned().remove(&session.id);
        if repl.take().is_some() {
            shared.live_runtimes.fetch_sub(1, Ordering::Relaxed);
        }
    } else {
        if let Some(r) = repl {
            *session.repl.lock_unpoisoned() = Some(r);
        }
        // A command may have arrived between the last pop and the
        // put-back; make sure it gets a worker (at the tier of whatever
        // is now at the front).
        let straggler = session
            .cmds
            .lock_unpoisoned()
            .front()
            .map(|q| q.cmd.is_interactive());
        if let Some(interactive) = straggler {
            shared.wake(session, interactive);
        }
        // Event-driven sweeper: if this batch left the arbiter with a
        // revocation or reservation in flight, service the affected
        // sessions now instead of on the next poll tick.
        if shared.config.fabrics > 0 && shared.fleet.needs_service() {
            shared.nudge_sweeper();
        }
    }
}

/// Obtains a runtime for a command that arrived while `repl` was empty:
/// wakes a dormant session, short-circuits commands that need no runtime,
/// and yields to the worker that has the REPL checked out.
fn ensure_repl(
    shared: &Shared,
    session: &Arc<Session>,
    repl: &mut Option<Box<Repl>>,
    q: Queued,
    acc: &mut PhaseAcc,
) -> Disposition {
    let Queued { cmd, meta } = q;
    // The service pump has nothing to advance in a session with no
    // runtime (no lease, no compile in flight).
    if matches!(cmd, Cmd::Service) {
        return Disposition::Handled;
    }
    match shared.take_dormant(session) {
        Some(image) => match cmd {
            Cmd::Hibernate { tx } => {
                // Already dormant: put the image back untouched.
                shared.restore_dormant(session, image);
                if let Some(tx) = tx {
                    let _ = tx.send(ok([("hibernated", true.into()), ("bytes", 0.into())]));
                }
                Disposition::Handled
            }
            Cmd::Close { tx } => {
                // Close without waking: discard the image, drop the session.
                if let Err(e) = shared.close_session(session) {
                    shared.restore_dormant(session, image);
                    if let Some(tx) = tx {
                        let _ = tx.send(err(format!("close not acknowledged: {e}")));
                    }
                    return Disposition::Handled;
                }
                if let Dormant::Disk { path, .. } = &image {
                    let _ = std::fs::remove_file(path);
                }
                drop(image);
                match tx {
                    Some(tx) => {
                        let _ = tx.send(ok([]));
                    }
                    None => {
                        shared.sessions_reaped.fetch_add(1, Ordering::Relaxed);
                    }
                }
                fail_queued(session, &format!("session {} closed", session.id));
                Disposition::Exit
            }
            cmd => {
                let t0 = Instant::now();
                let (at, parent) = request_span(&meta);
                match wake_session(shared, session, image, at, parent) {
                    Ok(r) => {
                        acc.add(PH_WAKE, t0.elapsed());
                        *repl = Some(r);
                        Disposition::Execute(Queued { cmd, meta })
                    }
                    Err(msg) => {
                        shared.wake_failures.fetch_add(1, Ordering::Relaxed);
                        session.closed.store(true, Ordering::Relaxed);
                        shared.sessions.lock_unpoisoned().remove(&session.id);
                        let full = format!("session {} wake failed: {msg}", session.id);
                        if let Some(tx) = cmd.reply_tx() {
                            let _ = tx.send(err(full.clone()));
                        }
                        fail_queued(session, &full);
                        Disposition::Exit
                    }
                }
            }
        },
        None => {
            // Another worker has the REPL checked out. Hand the command
            // back for the holder's drain. If the holder put the REPL
            // back in the meantime, claim it ourselves; otherwise its
            // put-back re-check will see this command and re-wake.
            session
                .cmds
                .lock_unpoisoned()
                .push_front(Queued { cmd, meta });
            match session.repl.lock_unpoisoned().take() {
                Some(r) => {
                    *repl = Some(r);
                    Disposition::Handled
                }
                None => Disposition::Exit,
            }
        }
    }
}

/// Error-replies every command still queued on a dead session.
fn fail_queued(session: &Session, msg: &str) {
    let dead: Vec<Queued> = session.cmds.lock_unpoisoned().drain(..).collect();
    for c in dead {
        if let Some(tx) = c.cmd.reply_tx() {
            let _ = tx.send(err(msg.to_string()));
        }
    }
}

/// `(child span, root span)` of a request, for attributing lifecycle
/// events (wake, hibernate) to it. Zeroed when there is no request.
fn request_span(meta: &Option<ReqMeta>) -> (SpanRef, u64) {
    match meta {
        Some(m) => (m.ctx.span_ref(m.ctx.child_span()), m.ctx.root_span()),
        None => (SpanRef::default(), 0),
    }
}

/// Rebuilds a runtime from a hibernation image: replay the source log,
/// restore the checkpointed engine state, reattach fleet/compiler/trace.
fn wake_session(
    shared: &Shared,
    session: &Arc<Session>,
    image: Dormant,
    at: SpanRef,
    parent: u64,
) -> Result<Box<Repl>, String> {
    let t0 = Instant::now();
    let bytes = match image {
        Dormant::Mem(b) => b,
        Dormant::Disk { path, .. } => {
            // CRC-framed read: a torn or bit-rotted spill is quarantined
            // and surfaces as a counted wake failure, never as a
            // half-restored session.
            match shared.dfs.read_record(&path) {
                Ok(b) => {
                    let _ = std::fs::remove_file(&path);
                    b
                }
                Err(e) => {
                    let _ = quarantine(&path);
                    shared.recovery_quarantined.fetch_add(1, Ordering::Relaxed);
                    return Err(format!("spill image rejected: {e}"));
                }
            }
        }
    };
    let image = HibernateImage::from_bytes(&bytes)?;
    let mut jit = shared.config.jit.clone();
    jit.trace = shared.trace.clone();
    let board = session.board.clone();
    let queue = shared.queue.clone();
    let fleet = shared.fleet.clone();
    let id = session.id;
    let built = catch_unwind(AssertUnwindSafe(|| -> Result<Runtime, String> {
        let mut rt = Runtime::new(board, jit).map_err(|e| e.to_string())?;
        rt.attach_compile_queue(queue);
        rt.attach_fleet(fleet, id);
        rt.set_trace_track(id);
        rt.restore_image(&image).map_err(|e| e.to_string())?;
        Ok(rt)
    }));
    let rt = match built {
        Ok(Ok(rt)) => rt,
        Ok(Err(e)) => return Err(e),
        Err(payload) => return Err(panic_message(payload.as_ref())),
    };
    *session.registry.lock_unpoisoned() = rt.metrics_registry().clone();
    let mut repl = Box::new(Repl::new(rt));
    // A recovered session's image is its last checkpoint; the journal
    // suffix of commands acknowledged after that checkpoint is replayed
    // here, on first wake, to land exactly where the crashed server left
    // the tenant.
    if let Some(plan) = session.replay.lock_unpoisoned().take() {
        replay_journal(shared, session, &mut repl, plan)?;
    }
    shared.live_runtimes.fetch_add(1, Ordering::Relaxed);
    shared.wakes.fetch_add(1, Ordering::Relaxed);
    shared.flight(session.id, "wake", &[]);
    if shared.trace.enabled() {
        shared.trace.host_instant_ctx(
            session.id,
            "serve",
            "wake",
            at,
            parent,
            0,
            &[
                ("bytes", Arg::U64(bytes.len() as u64)),
                ("us", Arg::U64(t0.elapsed().as_micros() as u64)),
            ],
        );
    }
    Ok(repl)
}

/// Re-executes the journal suffix against a freshly restored runtime.
/// Replayed work is deterministic re-derivation of already-acknowledged
/// state, so it is not re-counted in `total_ticks` — only in the
/// recovery counters.
fn replay_journal(
    shared: &Shared,
    session: &Session,
    repl: &mut Repl,
    plan: RecoveredReplay,
) -> Result<(), String> {
    let n = plan.cmds.len() as u64;
    for &(width, word) in &plan.fifo {
        session
            .board
            .fifo_push(cascade_bits::Bits::from_u64(width, word));
    }
    // Output queued at checkpoint time comes first, then whatever the
    // replayed commands produce, in command order.
    let mut pending = plan.pending;
    for cmd in plan.cmds {
        match cmd {
            ReplayCmd::Eval(line) => {
                // Output stays inside the runtime, exactly as after the
                // live `Eval`; the next Run/Drain sweeps it.
                let _ = repl.line(&line);
            }
            ReplayCmd::Run(ticks) => {
                let rt = repl.runtime();
                let mut done = 0u64;
                while done < ticks && !rt.is_finished() {
                    let chunk = (ticks - done).min(RUN_CHUNK);
                    match rt.run_ticks(chunk) {
                        Ok(0) => break,
                        Ok(k) => done += k,
                        Err(e) => return Err(format!("replay run failed: {e}")),
                    }
                }
                pending.extend(rt.drain_output());
            }
            ReplayCmd::Fifo(width, words) => {
                for word in words {
                    session
                        .board
                        .fifo_push(cascade_bits::Bits::from_u64(width, word));
                }
            }
            ReplayCmd::Drain => {
                let _ = repl.runtime().drain_output();
                pending.clear();
                session.output.lock_unpoisoned().lines.clear();
            }
        }
    }
    push_output(shared, session, pending);
    shared.recovery_replayed.fetch_add(n, Ordering::Relaxed);
    Ok(())
}

/// Decodes a complete journal (one generation file) into the recovered
/// session it describes: identity from the head record, then the replay
/// suffix of everything acknowledged since.
fn decode_journal(records: &[Vec<u8>]) -> Result<RecoveredSession, String> {
    let mut iter = records.iter();
    let head = iter.next().ok_or("empty journal")?;
    let mut r = codec::Reader::new(head);
    let mut rec = match r.u8()? {
        REC_OPEN => {
            let token = r.u64()?;
            r.finish()?;
            RecoveredSession {
                token,
                last_seq: 0,
                last_reply: None,
                image: HibernateImage::empty().to_bytes(),
                replay: RecoveredReplay::empty(),
                meters: [0; 5],
            }
        }
        REC_CKPT => {
            let token = r.u64()?;
            let last_seq = r.u64()?;
            let reply = r.string()?;
            let image = r.bytes()?;
            let mut fifo = Vec::new();
            for _ in 0..r.u64()? {
                let bits = r.bits()?;
                fifo.push((bits.width(), bits.to_u64()));
            }
            let mut pending = Vec::new();
            for _ in 0..r.u64()? {
                pending.push(r.string()?);
            }
            // Optional trailing meter block (absent in pre-meter journals).
            let meters = if r.remaining() > 0 {
                [r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?]
            } else {
                [0; 5]
            };
            r.finish()?;
            RecoveredSession {
                token,
                last_seq,
                last_reply: (!reply.is_empty()).then_some(reply),
                image,
                replay: RecoveredReplay {
                    fifo,
                    pending,
                    cmds: Vec::new(),
                },
                meters,
            }
        }
        tag => return Err(format!("journal head has tag {tag}, want open/checkpoint")),
    };
    for record in iter {
        let mut r = codec::Reader::new(record);
        let tag = r.u8()?;
        let seq = r.u64()?;
        let reply = r.string()?;
        let cmd = match tag {
            REC_EVAL => ReplayCmd::Eval(r.string()?),
            REC_RUN => ReplayCmd::Run(r.u64()?),
            REC_FIFO => {
                let width = r.u32()?;
                let n = r.u64()?;
                let mut words = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    words.push(r.u64()?);
                }
                ReplayCmd::Fifo(width, words)
            }
            REC_DRAIN => ReplayCmd::Drain,
            tag => return Err(format!("journal record has unknown tag {tag}")),
        };
        r.finish()?;
        if seq > 0 {
            rec.last_seq = seq;
            rec.last_reply = Some(reply);
        }
        rec.replay.cmds.push(cmd);
    }
    Ok(rec)
}

/// `s{id}-{gen}.jnl` → `(id, gen)`.
fn parse_journal_name(name: &str) -> Option<(u64, u64)> {
    let stem = name.strip_prefix('s')?.strip_suffix(".jnl")?;
    let (id, gen) = stem.split_once('-')?;
    Some((id.parse().ok()?, gen.parse().ok()?))
}

/// Installs one recovered session as a dormant tenant awaiting `resume`.
fn install_recovered(shared: &Shared, id: u64, gen: u64, oldest: u64, rec: RecoveredSession) {
    let has_replay = !rec.replay.is_empty();
    let session = Arc::new(Session {
        id,
        token: rec.token,
        board: Board::new(),
        cmds: Mutex::new(VecDeque::new()),
        // Meters resume from the checkpointed floor; the fleet's live
        // lease meter restarts at zero, so the floor includes all prior
        // lease time (monotone across the restart).
        meter: Meter {
            ticks: AtomicU64::new(rec.meters[0]),
            compile_ns: AtomicU64::new(rec.meters[1]),
            journal_bytes: AtomicU64::new(rec.meters[2]),
            output_bytes: AtomicU64::new(rec.meters[3]),
            lease_base_us: AtomicU64::new(rec.meters[4]),
            burn: AtomicU64::new(0),
            last_score: AtomicU64::new(0),
        },
        subs: Mutex::new(Vec::new()),
        repl: Mutex::new(None),
        dormant: Mutex::new(None),
        output: Mutex::new(Output {
            lines: VecDeque::new(),
            dropped: 0,
            dropped_total: 0,
        }),
        registry: Mutex::new(Registry::new()),
        frozen_metrics: Mutex::new(Vec::new()),
        last_active: Mutex::new(Instant::now()),
        closed: AtomicBool::new(false),
        scheduled: AtomicBool::new(false),
        needs_resume: AtomicBool::new(true),
        last_seq: AtomicU64::new(rec.last_seq),
        last_reply: Mutex::new(rec.last_reply),
        journal: Mutex::new(JournalState { gen, oldest }),
        replay: Mutex::new(if has_replay { Some(rec.replay) } else { None }),
        // A pending replay means the stored image alone is stale —
        // compaction must wait until the suffix has been applied.
        dirty: AtomicBool::new(has_replay),
    });
    shared.store_dormant(&session, rec.image);
    shared.sessions.lock_unpoisoned().insert(id, session);
    shared.recovered_sessions.fetch_add(1, Ordering::Relaxed);
}

/// Scans the sessions directory and rebuilds every decodable tenant.
/// Newest generation wins; corrupt generations are quarantined and the
/// scan falls back to the previous one. Torn tails (a crash mid-append)
/// are truncated to the last whole record — those commands were never
/// acknowledged.
fn rehydrate(shared: &Shared) {
    let Some(d) = &shared.durable else {
        return;
    };
    let Ok(entries) = std::fs::read_dir(&d.sessions_dir) else {
        return;
    };
    let mut gens: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for entry in entries.flatten() {
        if let Some((id, gen)) = entry.file_name().to_str().and_then(parse_journal_name) {
            gens.entry(id).or_default().push(gen);
        }
    }
    let mut max_id = 0u64;
    for (id, mut generations) in gens {
        generations.sort_unstable_by(|a, b| b.cmp(a));
        for &gen in &generations {
            let path = d.journal_path(id, gen);
            let scan = match d.fs.read_journal(&path) {
                Ok(scan) => scan,
                Err(_) => {
                    let _ = quarantine(&path);
                    shared.recovery_quarantined.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            if scan.torn_bytes > 0 {
                let _ = d.fs.truncate(&path, scan.clean_len);
                shared.recovery_quarantined.fetch_add(1, Ordering::Relaxed);
            }
            match decode_journal(&scan.records) {
                Ok(rec) => {
                    // This generation supersedes every older one.
                    let mut oldest = gen;
                    for &older in generations.iter().filter(|&&g| g < gen) {
                        if std::fs::remove_file(d.journal_path(id, older)).is_err() {
                            oldest = older;
                        }
                    }
                    install_recovered(shared, id, gen, oldest, rec);
                    max_id = max_id.max(id);
                    break;
                }
                Err(_) => {
                    let _ = quarantine(&path);
                    shared.recovery_quarantined.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    // `open` allocates `fetch_add(1) + 1`, so parking the counter at the
    // highest recovered id hands out fresh ids above every tenant.
    let prev = shared.next_session.load(Ordering::Relaxed);
    shared
        .next_session
        .store(prev.max(max_id), Ordering::Relaxed);
}

/// Loads the counter baselines persisted by the last graceful drain.
/// Missing or unreadable baselines start from zero — crash restarts
/// keep counters monotone as a lower bound, not exact.
fn load_baseline(d: &Durability) -> BTreeMap<String, u64> {
    let Ok(payload) = d.fs.read_record(&d.meta_path) else {
        return BTreeMap::new();
    };
    let mut r = codec::Reader::new(&payload);
    let mut out = BTreeMap::new();
    let Ok(n) = r.u64() else {
        return BTreeMap::new();
    };
    for _ in 0..n {
        match (r.string(), r.u64()) {
            (Ok(name), Ok(value)) => {
                out.insert(name, value);
            }
            _ => return BTreeMap::new(),
        }
    }
    out
}

/// Freezes a live session: verified checkpoint → image → store (spilling
/// past the memory budget) → runtime dropped. On refusal (native mode,
/// active VCD, speculation-verify failure) the REPL is handed back.
fn try_hibernate(
    shared: &Shared,
    session: &Arc<Session>,
    mut repl: Box<Repl>,
    at: SpanRef,
    parent: u64,
) -> Result<(usize, bool), (Box<Repl>, String)> {
    let t0 = Instant::now();
    let rt = repl.runtime();
    let image = match rt.hibernate_image() {
        Ok(image) => image,
        Err(e) => return Err((repl, e.to_string())),
    };
    // Freeze the full exposition (registry + stats-derived series) so a
    // `metrics` read against the dormant session is complete without a
    // wake.
    *session.frozen_metrics.lock_unpoisoned() = rt.metrics_snapshot();
    // Verification may have committed quarantined output; flush the lot
    // into the session queue before the runtime goes away.
    let pending = rt.drain_output();
    push_output(shared, session, pending);
    drop(repl); // releases the fabric lease, cancels fleet/compile interest
    shared.hibernates.fetch_add(1, Ordering::Relaxed);
    let bytes = image.to_bytes();
    let len = bytes.len();
    // Hibernation already serialized full session state: fold the
    // journal down to one checkpoint record while the image is in hand.
    shared.compact_journal(session, &bytes);
    let spilled = shared.store_dormant(session, bytes);
    // Decrement live only after the dormant image is in the store, so an
    // observer that sees `sessions_live == 0` also sees every frozen
    // session counted in `sessions_hibernated` (transient double-count
    // over missing-count).
    shared.live_runtimes.fetch_sub(1, Ordering::Relaxed);
    shared.flight(session.id, "hibernate", &[]);
    if shared.trace.enabled() {
        shared.trace.host_instant_ctx(
            session.id,
            "serve",
            "hibernate",
            at,
            parent,
            0,
            &[
                ("bytes", Arg::U64(len as u64)),
                ("spilled", Arg::Bool(spilled)),
                ("us", Arg::U64(t0.elapsed().as_micros() as u64)),
            ],
        );
    }
    Ok((len, spilled))
}

/// What the drain loop should do after a command executes.
enum Flow {
    Continue,
    /// Consume the REPL and freeze the session (reply on the sender).
    Hibernate(Option<Sender<Json>>),
}

fn execute(
    shared: &Shared,
    session: &Session,
    repl: &mut Repl,
    cmd: Cmd,
    meta: Option<&ReqMeta>,
    acc: &mut PhaseAcc,
) -> Flow {
    // Propagate (or clear) the causal context into the runtime: compile
    // jobs, fleet requests, and engine spans emitted while this command
    // executes attribute to this request's tree. Always set, so a stale
    // context from the previous command never leaks into internal work.
    repl.runtime().set_request_ctx(meta.map(|m| m.ctx.clone()));
    match cmd {
        Cmd::Eval { line, seq, tx } => {
            if let Some(reply) = Shared::dedup_reply(session, seq) {
                let _ = tx.send(reply);
                return Flow::Continue;
            }
            shared.evals.fetch_add(1, Ordering::Relaxed);
            let heat = shared.stamp();
            repl.runtime().set_heat(heat);
            let t_eval = Instant::now();
            let reply = match repl.line(&line) {
                ReplResponse::Evaluated(output) => ok([
                    ("status", "evaluated".into()),
                    ("output", Json::strings(output)),
                ]),
                ReplResponse::Incomplete => ok([("status", "incomplete".into())]),
                ReplResponse::Error(e) => Json::obj([
                    ("ok", false.into()),
                    ("status", "error".into()),
                    ("error", e.into()),
                ]),
            };
            acc.add(eval_phase(repl.runtime().mode()), t_eval.elapsed());
            let mut extra = Vec::new();
            codec::put_str(&mut extra, &line);
            let t_journal = Instant::now();
            let reply = shared.commit(session, seq, reply, REC_EVAL, &extra);
            acc.add(PH_JOURNAL, t_journal.elapsed());
            let _ = tx.send(reply);
        }
        Cmd::Run { ticks, seq, tx } => {
            if let Some(reply) = Shared::dedup_reply(session, seq) {
                let _ = tx.send(reply);
                return Flow::Continue;
            }
            // A scheduled worker fault strikes at the start of a run
            // command; the containment boundary in `run_session` turns it
            // into a structured session death.
            if shared.config.jit.faults.next_session_panic() {
                panic!("injected session worker panic");
            }
            let heat = shared.stamp();
            let rt = repl.runtime();
            rt.set_heat(heat);
            let mut done = 0u64;
            let mut backpressure = false;
            while done < ticks && !rt.is_finished() {
                if output_full(session, shared.config.output_capacity) {
                    backpressure = true;
                    break;
                }
                let chunk = (ticks - done).min(RUN_CHUNK);
                let t_run = Instant::now();
                match rt.run_ticks(chunk) {
                    Ok(k) => {
                        acc.add(eval_phase(rt.mode()), t_run.elapsed());
                        let t_flush = Instant::now();
                        let lines = rt.drain_output();
                        push_output(shared, session, lines);
                        acc.add(PH_FLUSH, t_flush.elapsed());
                        if k == 0 {
                            break;
                        }
                        done += k;
                    }
                    Err(e) => {
                        acc.add(eval_phase(rt.mode()), t_run.elapsed());
                        let _ = tx.send(err(e.to_string()));
                        return Flow::Continue;
                    }
                }
            }
            shared.total_ticks.fetch_add(done, Ordering::Relaxed);
            session.meter.ticks.fetch_add(done, Ordering::Relaxed);
            let reply = ok([
                ("ticks", done.into()),
                ("backpressure", backpressure.into()),
                ("finished", rt.is_finished().into()),
                ("mode", rt.mode().name().into()),
                ("lease_held", rt.lease_held().into()),
            ]);
            // The journal records the ticks actually *performed* (`done`),
            // not the ticks requested: replay must land on the same tick
            // count the client was told about.
            let mut extra = Vec::new();
            codec::put_u64(&mut extra, done);
            let t_journal = Instant::now();
            let reply = shared.commit(session, seq, reply, REC_RUN, &extra);
            acc.add(PH_JOURNAL, t_journal.elapsed());
            let _ = tx.send(reply);
        }
        Cmd::Drain { seq, tx } => {
            if let Some(reply) = Shared::dedup_reply(session, seq) {
                let _ = tx.send(reply);
                return Flow::Continue;
            }
            // Sweep anything still inside the runtime, then hand over the
            // whole queue.
            let t_flush = Instant::now();
            let pending = repl.runtime().drain_output();
            push_output(shared, session, pending);
            let mut out = session.output.lock_unpoisoned();
            let lines: Vec<String> = out.lines.drain(..).collect();
            let dropped = std::mem::take(&mut out.dropped);
            drop(out);
            acc.add(PH_FLUSH, t_flush.elapsed());
            let reply = ok([("lines", Json::strings(lines)), ("dropped", dropped.into())]);
            let t_journal = Instant::now();
            let reply = shared.commit(session, seq, reply, REC_DRAIN, &[]);
            acc.add(PH_JOURNAL, t_journal.elapsed());
            let _ = tx.send(reply);
        }
        Cmd::WaitCompile { tx } => {
            let rt = repl.runtime();
            let t_compile = Instant::now();
            let reply = match wait_compile(rt) {
                Ok(()) => ok([
                    ("mode", rt.mode().name().into()),
                    ("lease_held", rt.lease_held().into()),
                    ("hw_pending", rt.stats().hw_pending.into()),
                ]),
                Err(e) => err(e.to_string()),
            };
            acc.add(PH_COMPILE, t_compile.elapsed());
            let _ = tx.send(reply);
        }
        Cmd::Probe { port, tx } => {
            let value = match repl.runtime().probe(&port) {
                Some(bits) => Json::from(bits.to_u64()),
                None => Json::Null,
            };
            let _ = tx.send(ok([("value", value)]));
        }
        Cmd::Stats { tx } => {
            let stats = repl.runtime().stats();
            let rt = repl.runtime();
            let out = session.output.lock_unpoisoned();
            let _ = tx.send(ok([
                ("session", session.id.into()),
                ("version", stats.version.into()),
                ("ticks", stats.ticks.into()),
                ("wall_seconds", stats.wall_seconds.into()),
                ("mode", stats.mode.name().into()),
                ("lease_held", stats.lease_held.into()),
                ("hw_pending", stats.hw_pending.into()),
                ("promotions", stats.hw_promotions.into()),
                ("demotions", stats.lease_demotions.into()),
                ("compile_in_flight", stats.compile_in_flight.into()),
                ("cache_hits", stats.compile_cache_hits.into()),
                ("cache_misses", stats.compile_cache_misses.into()),
                ("cache_evictions", stats.compile_cache_evictions.into()),
                ("finished", rt.is_finished().into()),
                ("leds", rt.board().leds().to_u64().into()),
                ("output_queued", (out.lines.len() as u64).into()),
                ("output_dropped", out.dropped.into()),
                ("compile_retries", stats.compile_retries.into()),
                (
                    "compile_watchdog_cancels",
                    stats.compile_watchdog_cancels.into(),
                ),
                ("panics_contained", stats.panics_contained.into()),
                ("scrubs", stats.scrubs.into()),
                ("scrub_detections", stats.scrub_detections.into()),
                ("checkpoints_taken", stats.checkpoints_taken.into()),
                ("checkpoints_restored", stats.checkpoints_restored.into()),
                ("fabric_losses", stats.fabric_losses.into()),
            ]));
        }
        Cmd::Metrics { tx } => {
            let _ = tx.send(ok([("text", repl.runtime().metrics_text().into())]));
        }
        Cmd::Profile { tx } => {
            let reply = match repl.runtime().profile_text() {
                Some(text) => ok([("text", text.into())]),
                None => err("no profile: session has no user logic or tracing is disabled"),
            };
            let _ = tx.send(reply);
        }
        Cmd::Vcd { path, ports, tx } => {
            let rt = repl.runtime();
            let reply = match path {
                Some(path) => match rt.vcd_start(&path, &ports) {
                    Ok(()) => ok([("active", true.into()), ("path", path.as_str().into())]),
                    Err(e) => err(e.to_string()),
                },
                None => match rt.vcd_stop() {
                    Some(path) => ok([("active", false.into()), ("path", path.as_str().into())]),
                    None => ok([("active", false.into())]),
                },
            };
            let _ = tx.send(reply);
        }
        Cmd::Service => {
            // Best effort: a service fault surfaces on the next command.
            if let Err(e) = repl.runtime().service() {
                push_output(shared, session, vec![format!("service error: {e}")]);
            }
        }
        Cmd::Hibernate { tx } => return Flow::Hibernate(tx),
        Cmd::Close { tx } => {
            let closed = shared.close_session(session);
            match (tx, closed) {
                (Some(tx), Ok(())) => {
                    let _ = tx.send(ok([]));
                }
                (Some(tx), Err(e)) => {
                    let _ = tx.send(err(format!("close not acknowledged: {e}")));
                }
                (None, Ok(())) => {
                    shared.sessions_reaped.fetch_add(1, Ordering::Relaxed);
                }
                (None, Err(_)) => {}
            }
        }
    }
    Flow::Continue
}

/// Blocks until any in-flight compile resolves, advancing the session's
/// modeled wall clock past the bitstream's ready time so promotion (or a
/// fleet request) happens now rather than on some later tick.
fn wait_compile(rt: &mut Runtime) -> Result<(), CascadeError> {
    rt.service()?;
    // Transient faults re-dispatch the compile with a backoff, and a hung
    // compile resolves only at its watchdog deadline — chase the wake-up
    // chain. Bounded well above any retry budget so a compiler bug cannot
    // hang the session worker.
    for _ in 0..64 {
        if !rt.stats().compile_in_flight {
            break;
        }
        rt.wait_for_compile_worker();
        if let Some(wake_at) = rt.compile_ready_at() {
            let now = rt.wall_seconds();
            if wake_at > now {
                rt.advance_wall(wake_at - now + 1e-9);
            }
        }
        rt.service()?;
    }
    Ok(())
}

fn output_full(session: &Session, capacity: usize) -> bool {
    session.output.lock_unpoisoned().lines.len() >= capacity
}

fn push_output(shared: &Shared, session: &Session, lines: Vec<String>) {
    if lines.is_empty() {
        return;
    }
    let capacity = shared.config.output_capacity;
    let mut out = session.output.lock_unpoisoned();
    let mut dropped_now = 0u64;
    let mut bytes = 0u64;
    for line in lines {
        if out.lines.len() >= capacity {
            out.lines.pop_front();
            out.dropped += 1;
            out.dropped_total += 1;
            dropped_now += 1;
        }
        bytes += line.len() as u64;
        out.lines.push_back(line);
    }
    drop(out);
    session
        .meter
        .output_bytes
        .fetch_add(bytes, Ordering::Relaxed);
    if dropped_now > 0 {
        shared
            .output_dropped
            .fetch_add(dropped_now, Ordering::Relaxed);
    }
}

/// Which eval phase a slice of engine time belongs to, by exec mode.
fn eval_phase(mode: ExecMode) -> usize {
    match mode {
        ExecMode::Hardware | ExecMode::HardwareForwarded | ExecMode::Native => PH_EVAL_HW,
        ExecMode::Idle | ExecMode::Software => PH_EVAL_SW,
    }
}

/// Closes out one traced request: the residual becomes the `other` phase,
/// the server-wide phase histograms and the tenant's meters absorb the
/// breakdown, the request lands in the recent ring for `explain`, and the
/// root span ties the whole tree together in the trace export.
fn finish_request(shared: &Shared, session: &Session, meta: &ReqMeta, acc: &mut PhaseAcc) {
    let total_ns = (meta.enq.elapsed().as_nanos() as u64).max(1);
    let named: u64 = acc.ns[..PH_OTHER].iter().sum();
    acc.ns[PH_OTHER] = total_ns.saturating_sub(named);
    for (i, h) in shared.phase_hists.iter().enumerate() {
        if acc.ns[i] > 0 {
            h.observe(acc.ns[i] as f64 / 1e9);
        }
    }
    session
        .meter
        .compile_ns
        .fetch_add(acc.ns[PH_COMPILE], Ordering::Relaxed);
    {
        let mut recent = shared.recent.lock_unpoisoned();
        if recent.len() >= RECENT_CAP {
            recent.pop_front();
        }
        recent.push_back(ReqRecord {
            req: meta.ctx.req,
            tenant: session.id,
            name: meta.name,
            total_ns,
            phase_ns: acc.ns,
        });
    }
    if shared.trace.enabled() {
        let start = shared.trace.host_ns().saturating_sub(total_ns);
        shared.trace.host_span_ctx(
            session.id,
            "req",
            meta.name,
            start,
            total_ns,
            meta.ctx.span_ref(meta.ctx.root_span()),
            0,
            &[
                ("queue_us", Arg::U64(acc.ns[PH_QUEUE] / 1000)),
                ("wake_us", Arg::U64(acc.ns[PH_WAKE] / 1000)),
                ("compile_us", Arg::U64(acc.ns[PH_COMPILE] / 1000)),
                ("eval_sw_us", Arg::U64(acc.ns[PH_EVAL_SW] / 1000)),
                ("eval_hw_us", Arg::U64(acc.ns[PH_EVAL_HW] / 1000)),
                ("flush_us", Arg::U64(acc.ns[PH_FLUSH] / 1000)),
                ("journal_us", Arg::U64(acc.ns[PH_JOURNAL] / 1000)),
                ("other_us", Arg::U64(acc.ns[PH_OTHER] / 1000)),
            ],
        );
    }
}

// ---------------------------------------------------------------------
// Sweeper: service pump + hibernation + idle reaper
// ---------------------------------------------------------------------

/// Periodically (and on worker nudges, when the arbiter has a revocation
/// or reservation in flight): enqueue a `Service` for idle *live*
/// sessions so lease/compile state machines advance without user traffic,
/// hibernate sessions idle past `hibernate_after_s` (or the most-idle
/// ones when the live count exceeds `max_live_sessions`), and reap
/// sessions idle past the timeout. Dormant sessions cost nothing here —
/// they have no state machines to pump.
fn sweeper_loop(shared: &Shared) {
    let poll = Duration::from_millis(shared.config.sweeper_poll_ms.max(1));
    loop {
        {
            let mut gate = shared.sweep_gate.lock_unpoisoned();
            if !*gate {
                let (guard, _) = shared
                    .sweep_cond
                    .wait_timeout(gate, poll)
                    .unwrap_or_else(PoisonError::into_inner);
                gate = guard;
            }
            *gate = false;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let sessions: Vec<Arc<Session>> = shared
            .sessions
            .lock_unpoisoned()
            .values()
            .cloned()
            .collect();
        // Live-count pressure: pick the most-idle live sessions to freeze
        // when over budget.
        let max_live = shared.config.max_live_sessions;
        let mut pressure: Vec<u64> = Vec::new();
        if max_live > 0 {
            let live = shared.live_runtimes.load(Ordering::Relaxed);
            if live > max_live {
                let mut idle_live: Vec<(f64, u64)> = sessions
                    .iter()
                    .filter(|s| {
                        !s.closed.load(Ordering::Relaxed)
                            && s.dormant.lock_unpoisoned().is_none()
                            && s.cmds.lock_unpoisoned().is_empty()
                    })
                    .map(|s| {
                        (
                            s.last_active.lock_unpoisoned().elapsed().as_secs_f64(),
                            s.id,
                        )
                    })
                    .collect();
                idle_live.sort_by(|a, b| b.0.total_cmp(&a.0));
                pressure = idle_live
                    .into_iter()
                    .take(live - max_live)
                    .map(|(_, id)| id)
                    .collect();
            }
        }
        for session in sessions {
            if session.closed.load(Ordering::Relaxed) {
                continue;
            }
            // Metering and live streaming ride the sweep: every pass
            // settles the tenant's burn EWMA and delivers due telemetry
            // frames — dormant sessions included, without waking them
            // (meters and subscriptions outlive the runtime).
            settle_burn(shared, &session);
            service_subscriptions(shared, &session);
            let idle_s = session
                .last_active
                .lock_unpoisoned()
                .elapsed()
                .as_secs_f64();
            if idle_s > shared.config.idle_timeout_s {
                session
                    .cmds
                    .lock_unpoisoned()
                    .push_back(Queued::internal(Cmd::Close { tx: None }));
                shared.wake(&session, false);
                continue;
            }
            if session.dormant.lock_unpoisoned().is_some() {
                continue; // nothing to pump, nothing to freeze
            }
            let hibernate = pressure.contains(&session.id)
                || (shared.config.hibernate_after_s > 0.0
                    && idle_s > shared.config.hibernate_after_s);
            let mut cmds = session.cmds.lock_unpoisoned();
            if !cmds.is_empty() {
                continue; // busy: the drain loop is already servicing it
            }
            if hibernate {
                cmds.push_back(Queued::internal(Cmd::Hibernate { tx: None }));
            } else {
                cmds.push_back(Queued::internal(Cmd::Service));
            }
            drop(cmds);
            shared.wake(&session, false);
        }
    }
}

/// Settles one tenant's burn EWMA from the growth of its weighted meter
/// score since the last sweep. The score weighs each meter into one
/// comparable "work units" number: ticks + compile-µs + lease-µs +
/// journal/output bytes.
fn settle_burn(shared: &Shared, session: &Session) {
    let m = &session.meter;
    let score = m.ticks.load(Ordering::Relaxed) as f64
        + m.compile_ns.load(Ordering::Relaxed) as f64 / 1e3
        + shared.lease_us_total(session) as f64
        + m.journal_bytes.load(Ordering::Relaxed) as f64
        + m.output_bytes.load(Ordering::Relaxed) as f64;
    let last = f64::from_bits(m.last_score.load(Ordering::Relaxed));
    m.last_score.store(score.to_bits(), Ordering::Relaxed);
    let delta = (score - last).max(0.0);
    let burn = f64::from_bits(m.burn.load(Ordering::Relaxed));
    m.burn
        .store((0.7 * burn + 0.3 * delta).to_bits(), Ordering::Relaxed);
}

/// Delivers due telemetry frames for one session's subscriptions through
/// its bounded output queue (newline-JSON frames; a slow consumer sheds
/// oldest-first and the drops are accounted like any other output).
fn service_subscriptions(shared: &Shared, session: &Session) {
    let now = Instant::now();
    let mut frames: Vec<String> = Vec::new();
    {
        let mut subs = session.subs.lock_unpoisoned();
        if subs.is_empty() {
            return;
        }
        for sub in subs.iter_mut() {
            if now < sub.next_at {
                continue;
            }
            sub.next_at = now + sub.interval;
            match sub.stream {
                SubStream::Metrics => frames.push(metrics_frame(shared, session).to_string()),
                SubStream::Events => {
                    let events: Vec<TraceEvent> = shared
                        .trace
                        .snapshot()
                        .into_iter()
                        .filter(|e| e.track == session.id && e.seq > sub.last_seq)
                        .take(EVENTS_FRAME_CAP)
                        .collect();
                    let Some(last) = events.last() else {
                        continue;
                    };
                    sub.last_seq = last.seq;
                    let lines: Vec<Json> = export_jsonl(&events, TimeMode::Full)
                        .lines()
                        .map(|l| Json::Str(l.to_string()))
                        .collect();
                    frames.push(
                        Json::obj([
                            ("frame", "events".into()),
                            ("session", session.id.into()),
                            ("events", Json::Arr(lines)),
                        ])
                        .to_string(),
                    );
                }
            }
        }
    }
    push_output(shared, session, frames);
}

/// One incremental metrics frame: the tenant's meters and burn, cheap
/// enough to stream every interval without touching the session worker.
fn metrics_frame(shared: &Shared, session: &Session) -> Json {
    let m = &session.meter;
    Json::obj([
        ("frame", "metrics".into()),
        ("session", session.id.into()),
        ("ticks", m.ticks.load(Ordering::Relaxed).into()),
        (
            "compile_ms",
            (m.compile_ns.load(Ordering::Relaxed) as f64 / 1e6).into(),
        ),
        (
            "journal_bytes",
            m.journal_bytes.load(Ordering::Relaxed).into(),
        ),
        (
            "output_bytes",
            m.output_bytes.load(Ordering::Relaxed).into(),
        ),
        (
            "lease_ms",
            (shared.lease_us_total(session) as f64 / 1e3).into(),
        ),
        (
            "burn",
            f64::from_bits(m.burn.load(Ordering::Relaxed)).into(),
        ),
    ])
}
