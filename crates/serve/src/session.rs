//! The session layer: one [`Runtime`](cascade_core::Runtime) per session, hosted on a worker
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
//! session (`stats`) and server-wide (`output_dropped`).
//!
//! This module holds the entry points — [`Server`], the session table and
//! the request router. Each mechanism is a child module that owns its
//! block of [`Shared`] (the crate docs list them).

mod dormant;
mod execute;
mod journal;
mod meter;
mod sched;
mod subscribe;

use crate::json::Json;
use crate::protocol::{err, ok, Request};
use cascade_core::{
    CompilePool, CompileQueue, HibernateImage, JitConfig, Repl, DEFAULT_BITSTREAM_CACHE_CAPACITY,
    DEFAULT_COMPILE_QUEUE_CAPACITY,
};
use cascade_durable::DurableFs;
use cascade_fpga::{ArbiterConfig, Board, Fleet};
use cascade_trace::{
    export_jsonl, expose, render_timeline, Arg, MetricSnapshot, Registry, TimeMode, TraceEvent,
    TraceSink, DEFAULT_RING_CAPACITY,
};
use dormant::{Dormant, Store};
use execute::Counters;
use journal::{Durability, JournalState, Recovery, Replay};
use meter::{Meter, Obs, ReqMeta};
use sched::Sched;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use subscribe::Subscription;

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

/// How long a connection waits for its command's reply before giving up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

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

/// One command, carried to the worker holding the session's REPL. The
/// mutating commands carry the client's sequence number (`0` =
/// unsequenced) for exactly-once journaling and dedup.
enum Cmd {
    Eval {
        line: String,
        seq: u64,
    },
    Run {
        ticks: u64,
        seq: u64,
    },
    Drain {
        seq: u64,
    },
    WaitCompile,
    Probe {
        port: String,
    },
    Stats,
    Metrics,
    Profile,
    Vcd {
        path: Option<String>,
        ports: Vec<String>,
    },
    /// Internal pump: advance compile/lease state without user traffic.
    Service,
    /// Freeze the session to a hibernation image and drop its runtime.
    Hibernate,
    /// `reap`: the idle reaper closes the session (counted as reaped).
    Close {
        reap: bool,
    },
}

impl Cmd {
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
            Cmd::WaitCompile => "wait-compile",
            Cmd::Probe { .. } => "probe",
            Cmd::Stats => "stats",
            Cmd::Metrics => "metrics",
            Cmd::Profile => "profile",
            Cmd::Vcd { .. } => "vcd",
            Cmd::Service => "service",
            Cmd::Hibernate => "hibernate",
            Cmd::Close { .. } => "close",
        }
    }
}

/// A queue entry: the command, its submitter's reply channel and its
/// request metadata. Sweeper traffic has neither, so request tracing and
/// tail attribution do not see it.
struct Queued {
    cmd: Cmd,
    tx: Option<Sender<Json>>,
    meta: Option<ReqMeta>,
}

impl Queued {
    fn internal(cmd: Cmd) -> Queued {
        Queued {
            cmd,
            tx: None,
            meta: None,
        }
    }
}

/// Answers a command's submitter, if one waits.
fn answer(tx: Option<Sender<Json>>, reply: Json) {
    if let Some(tx) = tx {
        let _ = tx.send(reply);
    }
}

/// Bounded `$display` buffer. `dropped` is the drainable delta handed to
/// the client on `drain`; `dropped_total` never resets — it backs the
/// per-session dropped-lines series of the metrics exposition.
#[derive(Default)]
struct Output {
    lines: VecDeque<String>,
    dropped: u64,
    dropped_total: u64,
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
    replay: Mutex<Option<Replay>>,
    /// Whether the journal holds records past its last checkpoint (so a
    /// drain must compact it).
    dirty: AtomicBool,
}

impl Session {
    /// A freshly opened session: no runtime, empty queues, zero meters,
    /// journal generation 0. Recovery overrides what the journal restores.
    fn new(id: u64, token: u64) -> Session {
        Session {
            id,
            registry: Mutex::new(Registry::new()),
            frozen_metrics: Mutex::new(Vec::new()),
            board: Board::new(),
            cmds: Mutex::new(VecDeque::new()),
            meter: Meter::default(),
            subs: Mutex::new(Vec::new()),
            repl: Mutex::new(None),
            dormant: Mutex::new(None),
            scheduled: AtomicBool::new(false),
            output: Mutex::new(Output::default()),
            last_active: Mutex::new(Instant::now()),
            closed: AtomicBool::new(false),
            token,
            needs_resume: AtomicBool::new(false),
            last_seq: AtomicU64::new(0),
            last_reply: Mutex::new(None),
            journal: Mutex::new(JournalState::default()),
            replay: Mutex::new(None),
            dirty: AtomicBool::new(false),
        }
    }
}

/// Server-wide state. This module writes only the session table; each
/// child module writes only its own block (`sched`, `counters`, `store`,
/// `recovery`, `obs`); the rest is set at construction.
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
    sessions_opened: AtomicU64,
    /// The durable-write seam. Always present — non-durable servers use
    /// it too (spill images go through the same atomic CRC-framed path),
    /// sharing the fault plan's occurrence counters with the JIT layer.
    dfs: DurableFs,
    /// Durable roots; `None` when `durable_dir` is unset.
    durable: Option<Durability>,
    /// Counter floors from the previous lifetime's drain snapshot, so
    /// `serve_*_total` counters are monotone across graceful restarts.
    baseline: BTreeMap<String, u64>,
    /// The previous lifetime's crash trace (`last-crash.trace.jsonl`),
    /// loaded by [`Server::recover`].
    last_crash: Option<String>,
    sched: Sched,
    counters: Counters,
    store: Store,
    recovery: Recovery,
    obs: Obs,
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
        let durable = config
            .durable_dir
            .as_ref()
            .map(|root| Durability::open(root, &dfs));
        let (baseline, last_crash) = match (&durable, recovering) {
            (Some(d), true) => (
                journal::load_baseline(d),
                std::fs::read_to_string(&d.crash_path).ok(),
            ),
            _ => (BTreeMap::new(), None),
        };
        let pool = CompilePool::with_store(
            config.compile_workers.max(1),
            DEFAULT_COMPILE_QUEUE_CAPACITY,
            DEFAULT_BITSTREAM_CACHE_CAPACITY,
            durable.as_ref().map(|d| Arc::clone(&d.store)),
        );
        let nworkers = config.workers.max(1);
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
            sessions_opened: AtomicU64::new(0),
            dfs,
            durable,
            baseline,
            last_crash,
            sched: Sched::new(nworkers),
            counters: Counters::default(),
            store: Store::new(&config),
            recovery: Recovery::default(),
            obs: Obs::new(),
            config,
        });
        if recovering {
            // `open` allocates `fetch_add(1) + 1`, so parking the counter
            // at the highest recovered id hands out fresh ids above every
            // tenant.
            let max_id = journal::rehydrate(&shared);
            shared.next_session.store(max_id, Ordering::Relaxed);
        }
        let workers = (0..nworkers)
            .map(|me| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || sched::worker_loop(&s, me))
            })
            .collect();
        let sweeper = {
            let s = Arc::clone(&shared);
            Some(std::thread::spawn(move || sched::sweeper_loop(&s)))
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
            Request::Metrics { session: None } => {
                ok([("text", expose(&self.metric_snapshots()).into())])
            }
            Request::Metrics {
                session: Some(session),
            } => {
                // A dormant session's metrics are the snapshot frozen at
                // its last hibernation (none if it never ran): render them
                // instead of waking (and re-hibernating) the tenant.
                if let Ok(s) = self.shared.accepting(session) {
                    if s.dormant.lock_unpoisoned().is_some() {
                        let text = expose(&s.frozen_metrics.lock_unpoisoned());
                        return ok([("text", text.into()), ("dormant", true.into())]);
                    }
                }
                self.submit(session, false, Cmd::Metrics)
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
            Request::Profile { session } => self.submit(session, false, Cmd::Profile),
            Request::Vcd {
                session,
                path,
                ports,
            } => self.submit(session, true, Cmd::Vcd { path, ports }),
            Request::Eval { session, line, seq } => {
                self.submit(session, true, Cmd::Eval { line, seq })
            }
            Request::Run {
                session,
                ticks,
                seq,
            } => self.submit(session, true, Cmd::Run { ticks, seq }),
            Request::Drain { session, seq } => self.submit(session, false, Cmd::Drain { seq }),
            Request::WaitCompile { session } => self.submit(session, true, Cmd::WaitCompile),
            Request::Probe { session, port } => self.submit(session, false, Cmd::Probe { port }),
            Request::Fifo {
                session,
                width,
                data,
                seq,
            } => self.fifo(session, width, &data, seq),
            Request::Stats {
                session: Some(session),
            } => self.submit(session, false, Cmd::Stats),
            Request::Hibernate { session } => self.submit(session, false, Cmd::Hibernate),
            Request::Close { session } => self.submit(session, false, Cmd::Close { reap: false }),
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
        journal::open(&self.shared, id, token)?;
        let session = Session::new(id, token);
        // The empty birth image goes through the same budgeted store as
        // real hibernation images, so even opens alone cannot grow the
        // in-memory store past its budget at high tenant counts.
        dormant::store(&self.shared, &session, HibernateImage::empty().to_bytes());
        self.shared.admit(session);
        self.shared.sessions_opened.fetch_add(1, Ordering::Relaxed);
        meter::flight(&self.shared, id, "open", &[]);
        Ok((id, token))
    }

    /// Enqueues a command and blocks for its reply.
    fn submit(&self, id: u64, user_activity: bool, cmd: Cmd) -> Json {
        let session = match self.shared.accepting(id) {
            Ok(session) => session,
            Err(refused) => return refused,
        };
        if user_activity {
            *session.last_active.lock_unpoisoned() = Instant::now();
        }
        let (tx, rx) = channel();
        let interactive = cmd.is_interactive();
        // Mint the causal context here, at protocol ingress: every span the
        // request produces downstream — wake, compile, engine eval, journal
        // — hangs off this id, across threads and crates.
        let meta = ReqMeta::mint(&self.shared, id, cmd.name());
        meter::flight(
            &self.shared,
            id,
            "submit",
            &[
                ("cmd", Arg::Str(meta.name)),
                ("req", Arg::U64(meta.ctx.req)),
            ],
        );
        session.cmds.lock_unpoisoned().push_back(Queued {
            cmd,
            tx: Some(tx),
            meta: Some(meta),
        });
        sched::wake(&self.shared, &session, interactive);
        match rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(reply) => reply,
            Err(_) => err(format!("session {id} reply timed out")),
        }
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
        let mut flushed = 0u64;
        let mut hibernated = 0u64;
        for session in self.shared.all_sessions() {
            if session.needs_resume.load(Ordering::SeqCst) {
                continue;
            }
            if session.dormant.lock_unpoisoned().is_some() {
                if dormant::compact(&self.shared, &session) {
                    flushed += 1;
                }
                continue;
            }
            let reply = self.submit(session.id, false, Cmd::Hibernate);
            if reply.get("hibernated").and_then(Json::as_bool) == Some(true) {
                hibernated += 1;
                flushed += 1;
            }
        }
        journal::save_baseline(&self.shared, &self.counter_baseline(), flushed);
        (flushed, hibernated)
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
}

impl Drop for Server {
    fn drop(&mut self) {
        sched::stop(&self.shared);
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
            let _ = std::fs::remove_dir_all(&self.shared.store.spill_dir);
        }
    }
}

impl Shared {
    fn session(&self, id: u64) -> Option<Arc<Session>> {
        self.sessions.lock_unpoisoned().get(&id).cloned()
    }

    fn admit(&self, session: Session) {
        self.sessions
            .lock_unpoisoned()
            .insert(session.id, Arc::new(session));
    }

    /// Removes a session: neither commands nor a resume reach it again.
    fn forget(&self, id: u64) {
        self.sessions.lock_unpoisoned().remove(&id);
    }

    /// Every session, for a pass that must not hold the table lock.
    fn all_sessions(&self) -> Vec<Arc<Session>> {
        self.sessions.lock_unpoisoned().values().cloned().collect()
    }

    /// Session `id` if it can accept commands now, else the error reply.
    fn accepting(&self, id: u64) -> Result<Arc<Session>, Json> {
        let session = self
            .session(id)
            .ok_or_else(|| err(format!("no session {id}")))?;
        if let Some(d) = &self.durable {
            if d.fs.crashed() {
                meter::dump_flight(self, "durable store crashed");
                return Err(err("durable store crashed; restart the server and recover"));
            }
        }
        if session.needs_resume.load(Ordering::SeqCst) {
            return Err(err(format!(
                "session {id} was recovered; resume it with its token first"
            )));
        }
        Ok(session)
    }
}
