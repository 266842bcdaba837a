//! Command execution: the drain loop over one session's queue, one
//! command against its REPL, the one teardown every dying session takes,
//! and the FIFO, run and output code live commands and replay share.
//! Owns [`Counters`].

use super::journal::Op;
use super::meter::{PhaseAcc, PH_COMPILE, PH_FLUSH, PH_QUEUE, PH_WAKE};
use super::*;
use cascade_bits::Bits;
use cascade_core::{panic_message, CascadeError, ReplResponse, Runtime};
use cascade_durable::DurableError;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Ticks per scheduling quantum: a long `run` is sliced so output flushes
/// into the session queue (and backpressure is observed) at this grain.
const RUN_CHUNK: u64 = 128;

/// Command counters (the counter table documents each).
#[derive(Default)]
pub(super) struct Counters {
    pub(super) evals: AtomicU64,
    /// Replay's re-derived ticks are not counted.
    pub(super) ticks: AtomicU64,
    pub(super) reaped: AtomicU64,
    pub(super) panics: AtomicU64,
    pub(super) output_dropped: AtomicU64,
    /// Monotonic activity clock: each user command takes a stamp, and the
    /// stamp is the session's heat for fleet arbitration (most recently
    /// active = hottest).
    activity: AtomicU64,
}

/// Fresh activity stamp (monotone across all sessions).
fn stamp(shared: &Shared) -> f64 {
    (shared.counters.activity.fetch_add(1, Ordering::Relaxed) + 1) as f64
}

/// What `ensure_repl` decided about a command that arrived while the
/// session had no live REPL in hand.
enum Disposition {
    /// Handled without a runtime; move to the next command.
    Handled,
    /// Another worker holds the REPL and will drain the queue; stop.
    Yield,
    /// The session died; queued commands fail with this reason.
    Died(String),
    /// A runtime is now in hand; execute the command.
    Execute(Queued),
}

/// What a command's execution asks of the drain loop.
enum Flow {
    /// Send this reply (dropped when no one waits for it).
    Reply(Json),
    /// Consume the REPL and freeze the session; the outcome is the reply.
    Hibernate,
}

/// Drains a session's command queue through one REPL checkout. Claims the
/// live REPL if present, wakes the session from its hibernation image on
/// the first command that needs a runtime, and hands the commands back if
/// another worker currently holds the REPL.
pub(super) fn run_session(shared: &Shared, session: &Arc<Session>) {
    // This worker is now responsible: later wakes must re-enqueue.
    session.scheduled.store(false, Ordering::SeqCst);
    let mut repl: Option<Box<Repl>> = session.repl.lock_unpoisoned().take();
    let mut death: Option<String> = None;
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
                Disposition::Yield => return,
                Disposition::Died(why) => {
                    death = Some(why);
                    break;
                }
                Disposition::Execute(q) => q,
            }
        };
        let Queued { cmd, tx, meta } = q;
        let r = repl.as_mut().expect("repl in hand");
        // Isolation boundary: a panic while executing one session's
        // command kills that session with a structured error. The
        // worker, the server, and every other tenant keep running.
        let flow = match catch_unwind(AssertUnwindSafe(|| {
            execute(shared, session, r, cmd, meta.as_ref(), &mut acc)
        })) {
            Ok(flow) => flow,
            Err(payload) => {
                shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                session.closed.store(true, Ordering::Relaxed);
                let msg = panic_message(payload.as_ref());
                meter::flight(shared, session.id, "panic", &[]);
                meter::dump_flight(shared, "session worker panicked");
                death = Some(format!(
                    "session {} closed: worker panicked: {msg}",
                    session.id
                ));
                Flow::Reply(Json::obj([
                    ("ok", false.into()),
                    ("status", "panicked".into()),
                    ("error", format!("session worker panicked: {msg}").into()),
                ]))
            }
        };
        let reply = match flow {
            Flow::Reply(reply) => reply,
            Flow::Hibernate => {
                let held = repl.take().expect("repl in hand");
                match dormant::hibernate(shared, session, held, &meta) {
                    Ok((bytes, spilled)) => ok([
                        ("hibernated", true.into()),
                        ("bytes", (bytes as u64).into()),
                        ("spilled", spilled.into()),
                    ]),
                    Err((held, reason)) => {
                        repl = Some(held);
                        ok([("hibernated", false.into()), ("reason", reason.into())])
                    }
                }
            }
        };
        // The request ends when its reply is released.
        let end = Instant::now();
        answer(tx, reply);
        if let Some(m) = &meta {
            meter::finish_request(shared, session, m, end, &mut acc);
        }
    }
    if session.closed.load(Ordering::Relaxed) {
        // Every way a session dies (close, reap, panic, failed wake) ends
        // here: it leaves the table, its runtime and fabric lease go, and
        // each command still queued gets an error reply.
        shared.forget(session.id);
        dormant::release(shared, repl.take());
        let why = death.unwrap_or_else(|| format!("session {} closed", session.id));
        let dead: Vec<Queued> = session.cmds.lock_unpoisoned().drain(..).collect();
        for q in dead {
            answer(q.tx, err(why.clone()));
        }
        return;
    }
    if let Some(r) = repl {
        *session.repl.lock_unpoisoned() = Some(r);
    }
    // A command may have arrived between the last pop and the put-back;
    // make sure it gets a worker (at the tier of whatever is now at the
    // front).
    let straggler = session
        .cmds
        .lock_unpoisoned()
        .front()
        .map(|q| q.cmd.is_interactive());
    if let Some(interactive) = straggler {
        sched::wake(shared, session, interactive);
    }
    // Event-driven sweeper: if this batch left the arbiter with a
    // revocation or reservation in flight, service the affected sessions
    // now instead of on the next poll tick.
    if shared.config.fabrics > 0 && shared.fleet.needs_service() {
        sched::nudge_sweeper(shared);
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
    // The service pump has nothing to advance in a session with no
    // runtime (no lease, no compile in flight).
    if matches!(q.cmd, Cmd::Service) {
        return Disposition::Handled;
    }
    let Some(image) = dormant::take(shared, session) else {
        // Another worker has the REPL checked out. Hand the command back
        // for the holder's drain. If the holder put the REPL back in the
        // meantime, claim it ourselves; otherwise its put-back re-check
        // will see this command and re-wake.
        session.cmds.lock_unpoisoned().push_front(q);
        return match session.repl.lock_unpoisoned().take() {
            Some(r) => {
                *repl = Some(r);
                Disposition::Handled
            }
            None => Disposition::Yield,
        };
    };
    match q.cmd {
        Cmd::Hibernate => {
            // Already dormant: put the image back untouched.
            dormant::restore(shared, session, image);
            answer(q.tx, ok([("hibernated", true.into()), ("bytes", 0.into())]));
            Disposition::Handled
        }
        Cmd::Close { reap } => {
            // Close without waking: discard the image; the drain loop
            // sees the session closed and tears it down.
            let closed = journal::close(shared, session);
            match closed {
                Ok(()) => dormant::discard(image),
                Err(_) => dormant::restore(shared, session, image),
            }
            answer(q.tx, close_reply(shared, reap, closed));
            Disposition::Handled
        }
        _ => {
            let t0 = Instant::now();
            match dormant::wake(shared, session, image, &q.meta) {
                Ok(r) => {
                    acc.add(PH_WAKE, t0.elapsed());
                    *repl = Some(r);
                    Disposition::Execute(q)
                }
                Err(msg) => {
                    session.closed.store(true, Ordering::Relaxed);
                    let why = format!("session {} wake failed: {msg}", session.id);
                    answer(q.tx, err(why.clone()));
                    Disposition::Died(why)
                }
            }
        }
    }
}

/// A close's reply: acknowledged once the session's journal is gone. A
/// reaper close counts as reaped (no one waits for its reply).
fn close_reply(shared: &Shared, reap: bool, closed: Result<(), DurableError>) -> Json {
    match closed {
        Ok(()) => {
            if reap {
                shared.counters.reaped.fetch_add(1, Ordering::Relaxed);
            }
            ok([])
        }
        Err(e) => err(format!("close not acknowledged: {e}")),
    }
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
    if let Cmd::Eval { seq, .. } | Cmd::Run { seq, .. } | Cmd::Drain { seq } = &cmd {
        if let Some(reply) = journal::dedup(session, *seq) {
            return Flow::Reply(reply);
        }
    }
    let reply = match cmd {
        Cmd::Eval { line, seq } => {
            shared.counters.evals.fetch_add(1, Ordering::Relaxed);
            repl.runtime().set_heat(stamp(shared));
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
            acc.add(meter::eval_phase(repl.runtime().mode()), t_eval.elapsed());
            journal::commit(shared, session, seq, reply, Op::Eval(line), acc)
        }
        Cmd::Run { ticks, seq } => {
            // A scheduled worker fault strikes at the start of a run
            // command; the containment boundary in `run_session` turns it
            // into a structured session death.
            if shared.config.jit.faults.next_session_panic() {
                panic!("injected session worker panic");
            }
            let rt = repl.runtime();
            rt.set_heat(stamp(shared));
            let (done, backpressure) = match run(shared, session, rt, ticks, true, acc) {
                Ok(ran) => ran,
                Err(e) => return Flow::Reply(err(e.to_string())),
            };
            shared.counters.ticks.fetch_add(done, Ordering::Relaxed);
            session.meter.ticks.fetch_add(done, Ordering::Relaxed);
            let reply = ok([
                ("ticks", done.into()),
                ("backpressure", backpressure.into()),
                ("finished", rt.is_finished().into()),
                ("mode", rt.mode().name().into()),
                ("lease_held", rt.lease_held().into()),
            ]);
            journal::commit(shared, session, seq, reply, Op::Run(done), acc)
        }
        Cmd::Drain { seq } => {
            let t_flush = Instant::now();
            let (lines, dropped) = take_output(shared, session, repl.runtime());
            acc.add(PH_FLUSH, t_flush.elapsed());
            let reply = ok([("lines", Json::strings(lines)), ("dropped", dropped.into())]);
            journal::commit(shared, session, seq, reply, Op::Drain, acc)
        }
        Cmd::WaitCompile => {
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
            reply
        }
        Cmd::Probe { port } => {
            let value = match repl.runtime().probe(&port) {
                Some(bits) => Json::from(bits.to_u64()),
                None => Json::Null,
            };
            ok([("value", value)])
        }
        Cmd::Stats => {
            let stats = repl.runtime().stats();
            let rt = repl.runtime();
            let out = session.output.lock_unpoisoned();
            ok([
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
            ])
        }
        Cmd::Metrics => ok([("text", repl.runtime().metrics_text().into())]),
        Cmd::Profile => match repl.runtime().profile_text() {
            Some(text) => ok([("text", text.into())]),
            None => err("no profile: session has no user logic or tracing is disabled"),
        },
        Cmd::Vcd { path, ports } => {
            let rt = repl.runtime();
            match path {
                Some(path) => match rt.vcd_start(&path, &ports) {
                    Ok(()) => ok([("active", true.into()), ("path", path.as_str().into())]),
                    Err(e) => err(e.to_string()),
                },
                None => match rt.vcd_stop() {
                    Some(path) => ok([("active", false.into()), ("path", path.as_str().into())]),
                    None => ok([("active", false.into())]),
                },
            }
        }
        Cmd::Service => {
            // Best effort: a service fault surfaces on the next command.
            if let Err(e) = repl.runtime().service() {
                push_output(shared, session, vec![format!("service error: {e}")]);
            }
            Json::Null
        }
        Cmd::Hibernate => return Flow::Hibernate,
        Cmd::Close { reap } => close_reply(shared, reap, journal::close(shared, session)),
    };
    Flow::Reply(reply)
}

impl Server {
    /// Pushes words into a session's board FIFO, inline: the board
    /// outlives the runtime, so a dormant session takes them unwoken.
    pub(super) fn fifo(&self, session: u64, width: u64, data: &[u64], seq: u64) -> Json {
        let s = match self.shared.accepting(session) {
            Ok(s) => s,
            Err(refused) => return refused,
        };
        if !(1..=64).contains(&width) {
            return err("fifo width must be 1..=64");
        }
        if let Some(reply) = journal::dedup(&s, seq) {
            return reply;
        }
        // A recovered session applies its journal (checkpoint FIFO
        // residue plus replayed pushes) at wake; force the wake first so
        // this push lands after them.
        if s.replay.lock_unpoisoned().is_some() {
            let port = String::new();
            let probe = self.submit(session, false, Cmd::Probe { port });
            if probe.get("ok").and_then(Json::as_bool) != Some(true) {
                return probe;
            }
        }
        *s.last_active.lock_unpoisoned() = Instant::now();
        let meta = ReqMeta::mint(&self.shared, session, "fifo");
        let width = width as u32;
        let words = data.iter().map(|&w| Bits::from_u64(width, w));
        let pushed = push_fifo(&s.board, words);
        // Journal only the accepted prefix: replay must re-push exactly
        // the words the board took.
        let op = Op::Fifo(width, data[..pushed as usize].to_vec());
        let mut acc = PhaseAcc::default();
        let reply = ok([("pushed", pushed.into())]);
        let reply = journal::commit(&self.shared, &s, seq, reply, op, &mut acc);
        meter::finish_request(&self.shared, &s, &meta, Instant::now(), &mut acc);
        reply
    }
}

/// Pushes words into a board's FIFO until it refuses one; returns how many
/// it took.
pub(super) fn push_fifo(board: &Board, words: impl IntoIterator<Item = Bits>) -> u64 {
    let mut pushed = 0;
    for word in words {
        if !board.fifo_push(word) {
            break;
        }
        pushed += 1;
    }
    pushed
}

/// Runs up to `ticks` in `RUN_CHUNK` slices, flushing output into the
/// session queue after each; with `backpressure`, stops once the queue is
/// full. Returns the ticks run and whether backpressure stopped them.
pub(super) fn run(
    shared: &Shared,
    session: &Session,
    rt: &mut Runtime,
    ticks: u64,
    backpressure: bool,
    acc: &mut PhaseAcc,
) -> Result<(u64, bool), CascadeError> {
    let mut done = 0u64;
    while done < ticks && !rt.is_finished() {
        if backpressure
            && session.output.lock_unpoisoned().lines.len() >= shared.config.output_capacity
        {
            return Ok((done, true));
        }
        let chunk = (ticks - done).min(RUN_CHUNK);
        let t_run = Instant::now();
        let ran = rt.run_ticks(chunk);
        acc.add(meter::eval_phase(rt.mode()), t_run.elapsed());
        let k = ran?;
        let t_flush = Instant::now();
        push_output(shared, session, rt.drain_output());
        acc.add(PH_FLUSH, t_flush.elapsed());
        if k == 0 {
            break;
        }
        done += k;
    }
    Ok((done, false))
}

/// Sweeps the runtime's output into the session queue and takes it all:
/// the lines and the count dropped since the last drain.
pub(super) fn take_output(
    shared: &Shared,
    session: &Session,
    rt: &mut Runtime,
) -> (Vec<String>, u64) {
    push_output(shared, session, rt.drain_output());
    let mut out = session.output.lock_unpoisoned();
    let lines = out.lines.drain(..).collect();
    (lines, std::mem::take(&mut out.dropped))
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

/// Queues output lines and bills their bytes to the tenant.
pub(super) fn push_output(shared: &Shared, session: &Session, lines: Vec<String>) {
    let bytes = enqueue(shared, session, lines);
    session
        .meter
        .output_bytes
        .fetch_add(bytes, Ordering::Relaxed);
}

/// Queues output lines without billing them, dropping the oldest past
/// the queue's bound; returns their bytes.
pub(super) fn enqueue(shared: &Shared, session: &Session, lines: Vec<String>) -> u64 {
    if lines.is_empty() {
        return 0;
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
    if dropped_now > 0 {
        shared
            .counters
            .output_dropped
            .fetch_add(dropped_now, Ordering::Relaxed);
    }
    bytes
}
