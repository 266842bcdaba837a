//! Hibernation: the image store (memory, spilling to disk past its
//! budget), wake and hibernate. Owns [`Store`].

use super::*;
use cascade_core::{panic_message, Runtime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;

/// Distinguishes spill directories of servers coexisting in one process.
static SERVER_SEQ: AtomicU64 = AtomicU64::new(0);

/// A hibernated session's frozen state.
pub(super) enum Dormant {
    Mem(Vec<u8>),
    Disk { path: PathBuf, bytes: usize },
}

/// The hibernation store's accounting and the live/dormant census.
#[derive(Default)]
pub(super) struct Store {
    /// Sessions with a live runtime right now.
    pub(super) live: AtomicUsize,
    /// Sessions currently dormant (hibernated or never woken).
    pub(super) dormant: AtomicUsize,
    pub(super) hibernates: AtomicU64,
    pub(super) wakes: AtomicU64,
    pub(super) wake_failures: AtomicU64,
    pub(super) mem_bytes: AtomicUsize,
    pub(super) disk_bytes: AtomicUsize,
    pub(super) spills: AtomicU64,
    pub(super) spill_dir: PathBuf,
    spill_seq: AtomicU64,
}

impl Store {
    pub(super) fn new(config: &ServeConfig) -> Store {
        let spill_dir = match &config.hibernate_spill_dir {
            Some(d) => PathBuf::from(d),
            None => std::env::temp_dir().join(format!(
                "cascade-hib-{}-{}",
                std::process::id(),
                SERVER_SEQ.fetch_add(1, Ordering::Relaxed)
            )),
        };
        Store {
            spill_dir,
            ..Store::default()
        }
    }
}

/// The store counter an image's bytes are accounted in, and how many.
fn bytes_of<'a>(store: &'a Store, d: &Dormant) -> (&'a AtomicUsize, usize) {
    match d {
        Dormant::Mem(b) => (&store.mem_bytes, b.len()),
        Dormant::Disk { bytes, .. } => (&store.disk_bytes, *bytes),
    }
}

/// Takes a session's dormant image out of the store (accounting updated).
/// `None` means the session is not dormant — live, or its REPL is checked
/// out by some worker.
pub(super) fn take(shared: &Shared, session: &Session) -> Option<Dormant> {
    let d = session.dormant.lock_unpoisoned().take()?;
    shared.store.dormant.fetch_sub(1, Ordering::Relaxed);
    let (counter, len) = bytes_of(&shared.store, &d);
    counter.fetch_sub(len, Ordering::Relaxed);
    Some(d)
}

/// Puts a dormant image back untouched (the mirror of [`take`]).
pub(super) fn restore(shared: &Shared, session: &Session, d: Dormant) {
    let (counter, len) = bytes_of(&shared.store, &d);
    counter.fetch_add(len, Ordering::Relaxed);
    shared.store.dormant.fetch_add(1, Ordering::Relaxed);
    *session.dormant.lock_unpoisoned() = Some(d);
}

/// Stores a freshly serialized image, spilling to disk past the memory
/// budget. Returns whether it spilled.
pub(super) fn store(shared: &Shared, session: &Session, bytes: Vec<u8>) -> bool {
    let store = &shared.store;
    let len = bytes.len();
    let budget = shared.config.hibernate_mem_bytes;
    let prev = store.mem_bytes.fetch_add(len, Ordering::SeqCst);
    let dormant = if prev + len > budget {
        store.mem_bytes.fetch_sub(len, Ordering::SeqCst);
        match spill(shared, session.id, &bytes) {
            Some(path) => {
                store.disk_bytes.fetch_add(len, Ordering::Relaxed);
                store.spills.fetch_add(1, Ordering::Relaxed);
                Dormant::Disk { path, bytes: len }
            }
            None => {
                // Disk refused the image: keep it in memory over budget
                // rather than lose the session.
                store.mem_bytes.fetch_add(len, Ordering::SeqCst);
                Dormant::Mem(bytes)
            }
        }
    } else {
        Dormant::Mem(bytes)
    };
    let spilled = matches!(dormant, Dormant::Disk { .. });
    store.dormant.fetch_add(1, Ordering::Relaxed);
    *session.dormant.lock_unpoisoned() = Some(dormant);
    spilled
}

fn spill(shared: &Shared, id: u64, bytes: &[u8]) -> Option<PathBuf> {
    let store = &shared.store;
    if std::fs::create_dir_all(&store.spill_dir).is_err() {
        return None;
    }
    let seq = store.spill_seq.fetch_add(1, Ordering::Relaxed);
    let path = store.spill_dir.join(format!("s{id}-{seq}.hib"));
    // Atomic + CRC-framed: a torn spill must be *detected* at wake
    // (counted wake failure), never restored as a session.
    shared.dfs.write_atomic(&path, bytes).ok()?;
    Some(path)
}

/// Reads a spilled image back, CRC-checked. When `waking`, a good spill
/// file is consumed, and a torn or bit-rotted one is quarantined and
/// surfaces as an error, never as a half-restored session.
fn read_spill(shared: &Shared, path: &Path, waking: bool) -> Result<Vec<u8>, String> {
    match shared.dfs.read_record(path) {
        Ok(b) => {
            if waking {
                let _ = std::fs::remove_file(path);
            }
            Ok(b)
        }
        Err(e) => {
            if waking {
                journal::quarantine(shared, path);
            }
            Err(format!("spill image rejected: {e}"))
        }
    }
}

/// Discards a closed session's image (a dormant close: no wake).
pub(super) fn discard(image: Dormant) {
    if let Dormant::Disk { path, .. } = image {
        let _ = std::fs::remove_file(path);
    }
}

/// Drops a closed session's live runtime: its `Drop` releases the fabric
/// lease and cancels any pending fleet request.
pub(super) fn release(shared: &Shared, repl: Option<Box<Repl>>) {
    if repl.is_some() {
        shared.store.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Compacts a dormant session's journal from its stored image, unwoken.
/// Refused while a replay suffix is pending: the image predates it.
pub(super) fn compact(shared: &Shared, session: &Session) -> bool {
    if shared.durable.is_none()
        || !session.dirty.load(Ordering::Relaxed)
        || session.replay.lock_unpoisoned().is_some()
    {
        return false;
    }
    let bytes = match session.dormant.lock_unpoisoned().as_ref() {
        Some(Dormant::Mem(b)) => b.clone(),
        Some(Dormant::Disk { path, .. }) => match read_spill(shared, path, false) {
            Ok(b) => b,
            Err(_) => return false,
        },
        None => return false,
    };
    journal::compact(shared, session, &bytes)
}

/// Rebuilds a runtime from a hibernation image (source log, engine state,
/// fleet/compiler/trace attachments) and replays a recovered session's
/// journal suffix. A failure is counted; the caller tears down.
pub(super) fn wake(
    shared: &Shared,
    session: &Session,
    image: Dormant,
    meta: &Option<ReqMeta>,
) -> Result<Box<Repl>, String> {
    let t0 = Instant::now();
    let span = meter::request_span(meta);
    let bytes = match image {
        Dormant::Mem(b) => Ok(b),
        Dormant::Disk { path, .. } => read_spill(shared, &path, true),
    };
    let woken = bytes.and_then(|bytes| {
        let repl = rebuild(shared, session, &bytes)?;
        Ok((repl, bytes.len()))
    });
    let (repl, len) = match woken {
        Ok(woken) => woken,
        Err(e) => {
            shared.store.wake_failures.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
    };
    shared.store.live.fetch_add(1, Ordering::Relaxed);
    shared.store.wakes.fetch_add(1, Ordering::Relaxed);
    let us = t0.elapsed().as_micros() as u64;
    let args = [("bytes", Arg::U64(len as u64)), ("us", Arg::U64(us))];
    meter::lifecycle(shared, session.id, "wake", span, &args);
    Ok(repl)
}

fn rebuild(shared: &Shared, session: &Session, bytes: &[u8]) -> Result<Box<Repl>, String> {
    let image = HibernateImage::from_bytes(bytes)?;
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
        journal::replay(shared, session, &mut repl, plan)?;
    }
    Ok(repl)
}

/// Freezes a live session: verified checkpoint → image → store (spilling
/// past the memory budget) → runtime dropped. On refusal (native mode,
/// active VCD, speculation-verify failure) the REPL is handed back.
pub(super) fn hibernate(
    shared: &Shared,
    session: &Session,
    mut repl: Box<Repl>,
    meta: &Option<ReqMeta>,
) -> Result<(usize, bool), (Box<Repl>, String)> {
    let t0 = Instant::now();
    let span = meter::request_span(meta);
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
    execute::push_output(shared, session, pending);
    drop(repl); // releases the fabric lease, cancels fleet/compile interest
    shared.store.hibernates.fetch_add(1, Ordering::Relaxed);
    let bytes = image.to_bytes();
    let len = bytes.len();
    // Hibernation already serialized full session state: fold the
    // journal down to one checkpoint record while the image is in hand.
    journal::compact(shared, session, &bytes);
    let spilled = store(shared, session, bytes);
    // Decrement live only after the dormant image is in the store, so an
    // observer that sees no live sessions also sees every frozen session
    // counted as hibernated (transient double-count over missing-count).
    shared.store.live.fetch_sub(1, Ordering::Relaxed);
    let us = t0.elapsed().as_micros() as u64;
    let args = [
        ("bytes", Arg::U64(len as u64)),
        ("spilled", Arg::Bool(spilled)),
        ("us", Arg::U64(us)),
    ];
    meter::lifecycle(shared, session.id, "hibernate", span, &args);
    Ok((len, spilled))
}
