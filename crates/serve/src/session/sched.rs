//! Scheduling: run-queue shards with randomized stealing, the worker
//! loop, and the sweeper that pumps, hibernates and reaps idle sessions.
//! Owns [`Sched`].

use super::*;
use std::cmp::Reverse;
use std::sync::atomic::AtomicUsize;
use std::sync::Condvar;

/// Parked workers re-check their shards at least this often — a safety
/// net under the notify protocol, and the shutdown latency bound.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// One worker's run-queue shard.
#[derive(Default)]
struct Shard {
    queue: Mutex<VecDeque<u64>>,
    cond: Condvar,
    /// Queue length mirror readable without the lock (steal scan).
    len: AtomicUsize,
    /// Whether the owning worker is parked on `cond`.
    parked: AtomicBool,
    steals: AtomicU64,
}

/// The scheduler's state: the shards, the sweeper's gate, and the
/// shutdown flag.
#[derive(Default)]
pub(super) struct Sched {
    /// Per-worker run-queue shards (work stealing).
    shards: Vec<Shard>,
    /// Sweeper gate: `true` when a worker has nudged the sweeper to run
    /// early (arbiter has a revocation/reservation in flight).
    sweep_gate: Mutex<bool>,
    sweep_cond: Condvar,
    shutdown: AtomicBool,
}

impl Sched {
    pub(super) fn new(workers: usize) -> Sched {
        Sched {
            shards: (0..workers).map(|_| Shard::default()).collect(),
            ..Sched::default()
        }
    }

    /// Sessions claimed from another worker's shard, server-wide.
    pub(super) fn steals(&self) -> u64 {
        self.shards
            .iter()
            .map(|sh| sh.steals.load(Ordering::Relaxed))
            .sum()
    }

    /// The shard a session is pinned to (id hash, stable for its life).
    fn home_shard(&self, id: u64) -> usize {
        ((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % self.shards.len() as u64) as usize
    }
}

/// Marks a session runnable on its home shard and makes sure some worker
/// will claim it. Deduped: if the session is already scheduled (queued or
/// being drained), this is a no-op — the draining worker re-checks the
/// command queue before releasing the REPL.
///
/// `interactive` puts the session at the *front* of its shard: a user
/// waiting on an eval or a probe should not queue behind a line of
/// 256-tick run bursts. Bulk traffic (run, service sweeps) goes to the
/// back. Sub-millisecond interactive tails at high tenant counts come
/// from this split, not from more worker threads.
pub(super) fn wake(shared: &Shared, session: &Session, interactive: bool) {
    if session.scheduled.swap(true, Ordering::SeqCst) {
        return;
    }
    let sched = &shared.sched;
    let shard = &sched.shards[sched.home_shard(session.id)];
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
    for s in &sched.shards {
        if s.parked.load(Ordering::SeqCst) {
            let _g = s.queue.lock_unpoisoned();
            s.cond.notify_one();
            break;
        }
    }
}

/// Wakes the sweeper ahead of its poll tick (a worker observed the
/// arbiter with a revocation or reservation in flight).
pub(super) fn nudge_sweeper(shared: &Shared) {
    let mut gate = shared.sched.sweep_gate.lock_unpoisoned();
    if !*gate {
        *gate = true;
        shared.sched.sweep_cond.notify_one();
    }
}

/// Tells the workers and the sweeper to exit, and wakes them.
pub(super) fn stop(shared: &Shared) {
    let sched = &shared.sched;
    sched.shutdown.store(true, Ordering::SeqCst);
    for shard in &sched.shards {
        let _g = shard.queue.lock_unpoisoned();
        shard.cond.notify_all();
    }
    let mut gate = sched.sweep_gate.lock_unpoisoned();
    *gate = true;
    sched.sweep_cond.notify_all();
}

pub(super) fn worker_loop(shared: &Shared, me: usize) {
    let mut prng = cascade_bits::Prng::new(0x5eed_0000 ^ me as u64);
    loop {
        if shared.sched.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Some(id) = next_session_id(shared, me, &mut prng) else {
            continue; // parked and timed out (or woken empty): rescan
        };
        let Some(session) = shared.session(id) else {
            continue; // closed while queued
        };
        execute::run_session(shared, &session);
    }
}

/// Local pop → randomized steal scan → park (with a timeout safety net).
fn next_session_id(shared: &Shared, me: usize, prng: &mut cascade_bits::Prng) -> Option<u64> {
    let shards = &shared.sched.shards;
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
        || shared.sched.shutdown.load(Ordering::SeqCst)
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

/// Periodically (and on worker nudges, when the arbiter has a revocation
/// or reservation in flight): enqueue a `Service` for idle *live*
/// sessions so lease/compile state machines advance without user traffic,
/// hibernate sessions idle past `hibernate_after_s` (or the most-idle
/// ones when the live count exceeds `max_live_sessions`), and reap
/// sessions idle past the timeout. Dormant sessions cost nothing here —
/// they have no state machines to pump.
pub(super) fn sweeper_loop(shared: &Shared) {
    let sched = &shared.sched;
    let poll = Duration::from_millis(shared.config.sweeper_poll_ms.max(1));
    loop {
        {
            let mut gate = sched.sweep_gate.lock_unpoisoned();
            if !*gate {
                let (guard, _) = sched
                    .sweep_cond
                    .wait_timeout(gate, poll)
                    .unwrap_or_else(PoisonError::into_inner);
                gate = guard;
            }
            *gate = false;
        }
        if sched.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut sessions = shared.all_sessions();
        // Live-count pressure: over budget, the sweep visits the most idle
        // sessions first, and the first `excess` idle live ones freeze.
        let max_live = shared.config.max_live_sessions;
        let live = shared.store.live.load(Ordering::Relaxed);
        let mut excess = if max_live > 0 {
            live.saturating_sub(max_live)
        } else {
            0
        };
        if excess > 0 {
            sessions.sort_by_cached_key(|s| Reverse(s.last_active.lock_unpoisoned().elapsed()));
        }
        for session in sessions {
            if session.closed.load(Ordering::Relaxed) {
                continue;
            }
            // Metering and live streaming ride the sweep: every pass
            // settles the tenant's burn EWMA and delivers due telemetry
            // frames — dormant sessions included, without waking them
            // (meters and subscriptions outlive the runtime).
            meter::settle_burn(shared, &session);
            subscribe::service(shared, &session);
            let idle_s = session
                .last_active
                .lock_unpoisoned()
                .elapsed()
                .as_secs_f64();
            if idle_s > shared.config.idle_timeout_s {
                session
                    .cmds
                    .lock_unpoisoned()
                    .push_back(Queued::internal(Cmd::Close { reap: true }));
                wake(shared, &session, false);
                continue;
            }
            if session.dormant.lock_unpoisoned().is_some() {
                continue; // nothing to pump, nothing to freeze
            }
            let mut cmds = session.cmds.lock_unpoisoned();
            if !cmds.is_empty() {
                continue; // busy: the drain loop is already servicing it
            }
            let hibernate = excess > 0
                || (shared.config.hibernate_after_s > 0.0
                    && idle_s > shared.config.hibernate_after_s);
            excess = excess.saturating_sub(1);
            if hibernate {
                cmds.push_back(Queued::internal(Cmd::Hibernate));
            } else {
                cmds.push_back(Queued::internal(Cmd::Service));
            }
            drop(cmds);
            wake(shared, &session, false);
        }
    }
}
