//! The write-ahead journal: its record codec, commit, compaction, durable
//! close, recovery and replay, and the counter-baseline codec. A journal
//! generation is CRC-framed records: an [`Record::Open`] or
//! [`Record::Checkpoint`] head, then one [`Record::Command`] per
//! acknowledged command. Owns [`Recovery`].

use super::meter::{Bill, PhaseAcc, PH_JOURNAL};
use super::*;
use cascade_bits::Bits;
use cascade_durable::{codec, BitstreamStore, DurableError};
use std::path::{Path, PathBuf};

// Record tags: the first byte of every record.
const REC_OPEN: u8 = 0;
const REC_EVAL: u8 = 1;
const REC_RUN: u8 = 2;
const REC_FIFO: u8 = 3;
const REC_DRAIN: u8 = 4;
const REC_CKPT: u8 = 5;

/// A journaled command: what replay re-applies.
pub(super) enum Op {
    Eval(String),
    /// The ticks actually *performed*, not the ticks requested: replay
    /// must land on the tick count the client was told about.
    Run(u64),
    /// Only the words the board accepted.
    Fifo(u32, Vec<u64>),
    Drain,
}

impl Op {
    fn tag(&self) -> u8 {
        match self {
            Op::Eval(_) => REC_EVAL,
            Op::Run(_) => REC_RUN,
            Op::Fifo(..) => REC_FIFO,
            Op::Drain => REC_DRAIN,
        }
    }
}

/// A session compacted to one record: its hibernation image, unconsumed
/// FIFO words, undrained output and bill.
#[derive(Default)]
struct Checkpoint {
    token: u64,
    last_seq: u64,
    last_reply: Option<String>,
    image: Vec<u8>,
    fifo: Vec<Bits>,
    pending: Vec<String>,
    /// A trailing block added after the original layout: decode treats
    /// it as optional for old journals.
    bill: Bill,
}

/// One journal record.
enum Record {
    /// `[tag][token]`: the head of a fresh session's first generation.
    Open { token: u64 },
    /// `[tag][token][last_seq][last_reply][image][fifo][pending][bill]`:
    /// the head of every compacted generation.
    Checkpoint(Checkpoint),
    /// `[tag][seq][reply][op fields]`: an acknowledged command.
    Command { seq: u64, reply: String, op: Op },
}

impl Record {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Record::Open { token } => {
                codec::put_u8(&mut out, REC_OPEN);
                codec::put_u64(&mut out, *token);
            }
            Record::Checkpoint(c) => {
                codec::put_u8(&mut out, REC_CKPT);
                codec::put_u64(&mut out, c.token);
                codec::put_u64(&mut out, c.last_seq);
                codec::put_str(&mut out, c.last_reply.as_deref().unwrap_or(""));
                codec::put_bytes(&mut out, &c.image);
                codec::put_u64(&mut out, c.fifo.len() as u64);
                for bits in &c.fifo {
                    codec::put_bits(&mut out, bits);
                }
                codec::put_u64(&mut out, c.pending.len() as u64);
                for line in &c.pending {
                    codec::put_str(&mut out, line);
                }
                let b = &c.bill;
                for v in [
                    b.ticks,
                    b.compile_ns,
                    b.journal_bytes,
                    b.output_bytes,
                    b.lease_us,
                ] {
                    codec::put_u64(&mut out, v);
                }
            }
            Record::Command { seq, reply, op } => {
                codec::put_u8(&mut out, op.tag());
                codec::put_u64(&mut out, *seq);
                codec::put_str(&mut out, reply);
                match op {
                    Op::Eval(line) => codec::put_str(&mut out, line),
                    Op::Run(ticks) => codec::put_u64(&mut out, *ticks),
                    Op::Fifo(width, words) => {
                        codec::put_u32(&mut out, *width);
                        codec::put_u64(&mut out, words.len() as u64);
                        for &word in words {
                            codec::put_u64(&mut out, word);
                        }
                    }
                    Op::Drain => {}
                }
            }
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Record, String> {
        let mut r = codec::Reader::new(bytes);
        let record = match r.u8()? {
            REC_OPEN => Record::Open { token: r.u64()? },
            REC_CKPT => {
                let token = r.u64()?;
                let last_seq = r.u64()?;
                let reply = r.string()?;
                let image = r.bytes()?;
                let mut fifo = Vec::new();
                for _ in 0..r.u64()? {
                    fifo.push(r.bits()?);
                }
                let mut pending = Vec::new();
                for _ in 0..r.u64()? {
                    pending.push(r.string()?);
                }
                let bill = if r.remaining() > 0 {
                    Bill {
                        ticks: r.u64()?,
                        compile_ns: r.u64()?,
                        journal_bytes: r.u64()?,
                        output_bytes: r.u64()?,
                        lease_us: r.u64()?,
                    }
                } else {
                    Bill::default()
                };
                Record::Checkpoint(Checkpoint {
                    token,
                    last_seq,
                    last_reply: (!reply.is_empty()).then_some(reply),
                    image,
                    fifo,
                    pending,
                    bill,
                })
            }
            tag => {
                let seq = r.u64()?;
                let reply = r.string()?;
                let op = match tag {
                    REC_EVAL => Op::Eval(r.string()?),
                    REC_RUN => Op::Run(r.u64()?),
                    REC_FIFO => {
                        let width = r.u32()?;
                        let n = r.u64()?;
                        if n > (r.remaining() / 8) as u64 {
                            return Err(format!("fifo word count {n} exceeds the record"));
                        }
                        let words = (0..n).map(|_| r.u64()).collect::<Result<_, _>>()?;
                        Op::Fifo(width, words)
                    }
                    REC_DRAIN => Op::Drain,
                    tag => return Err(format!("journal record has unknown tag {tag}")),
                };
                Record::Command { seq, reply, op }
            }
        };
        r.finish()?;
        Ok(record)
    }
}

/// The server's durable roots (present when `durable_dir` is set).
pub(super) struct Durability {
    pub(super) fs: DurableFs,
    sessions_dir: PathBuf,
    meta_path: PathBuf,
    /// Where the crash flight recorder dumps its ring.
    pub(super) crash_path: PathBuf,
    pub(super) store: Arc<BitstreamStore>,
}

impl Durability {
    pub(super) fn open(root: &str, dfs: &DurableFs) -> Durability {
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
    }

    fn journal_path(&self, id: u64, gen: u64) -> PathBuf {
        self.sessions_dir.join(format!("s{id}-{gen}.jnl"))
    }
}

/// Per-session journal state; the lock also serializes appends against
/// compaction and close.
#[derive(Default)]
pub(super) struct JournalState {
    /// Current journal generation. Compaction writes generation `n+1`
    /// complete (one checkpoint record) before removing generation `n`,
    /// so a fault mid-compaction never destroys acknowledged state.
    gen: u64,
    /// Oldest generation that may still be on disk (an older one whose
    /// removal failed stays until close).
    oldest: u64,
}

/// Recovery counters (the counter table documents each).
#[derive(Default)]
pub(super) struct Recovery {
    pub(super) sessions: AtomicU64,
    pub(super) replayed: AtomicU64,
    pub(super) quarantined: AtomicU64,
    pub(super) drain_flushes: AtomicU64,
}

/// Everything a recovered session re-applies on its first wake: the
/// checkpoint's FIFO residue and undrained output, then the journaled
/// command suffix.
pub(super) struct Replay {
    fifo: Vec<Bits>,
    pending: Vec<String>,
    ops: Vec<Op>,
}

/// Journals a session's open (write-ahead: before its id is handed out).
pub(super) fn open(shared: &Shared, id: u64, token: u64) -> Result<(), String> {
    if let Some(d) = &shared.durable {
        let payload = Record::Open { token }.encode();
        if let Err(e) = d.fs.write_atomic(&d.journal_path(id, 0), &payload) {
            meter::dump_flight(shared, "open journal write failed");
            return Err(format!("open not acknowledged: {e}"));
        }
    }
    Ok(())
}

/// The dedup half of exactly-once: a client retrying its last
/// unacknowledged command re-sends the same `seq`; if that seq was
/// acknowledged, the stored reply is returned without re-executing.
/// `seq` 0 = unsequenced (never deduped).
pub(super) fn dedup(session: &Session, seq: u64) -> Option<Json> {
    if seq == 0 || session.last_seq.load(Ordering::SeqCst) != seq {
        return None;
    }
    let stored = session.last_reply.lock_unpoisoned().clone()?;
    Json::parse(&stored).ok()
}

/// The write-ahead half of exactly-once: the record — including the
/// reply — is appended and fsynced *before* the reply is released. A
/// failed append returns an error reply instead: the command was never
/// acknowledged, so recovery rightly forgets it. Timed as the request's
/// journal phase.
pub(super) fn commit(
    shared: &Shared,
    session: &Session,
    seq: u64,
    reply: Json,
    op: Op,
    acc: &mut PhaseAcc,
) -> Json {
    let t_journal = Instant::now();
    let text = reply.to_string();
    let tag = op.tag();
    if let Some(d) = &shared.durable {
        let payload = Record::Command {
            seq,
            reply: text.clone(),
            op,
        }
        .encode();
        let journal = session.journal.lock_unpoisoned();
        let path = d.journal_path(session.id, journal.gen);
        if let Err(e) = d.fs.append(&path, &payload) {
            drop(journal);
            meter::dump_flight(shared, "journal append failed");
            acc.add(PH_JOURNAL, t_journal.elapsed());
            return err(format!("not acknowledged: {e}"));
        }
        session
            .meter
            .journal_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
    }
    meter::flight(
        shared,
        session.id,
        "commit",
        &[("tag", Arg::U64(tag as u64)), ("seq", Arg::U64(seq))],
    );
    session.dirty.store(true, Ordering::Relaxed);
    if seq > 0 {
        session.last_seq.store(seq, Ordering::SeqCst);
        *session.last_reply.lock_unpoisoned() = Some(text);
    }
    acc.add(PH_JOURNAL, t_journal.elapsed());
    reply
}

/// Rewrites a session's journal as one checkpoint record at generation
/// `gen+1`, then retires the old generation. The old file is removed only
/// after the new one is durably in place, so a fault at any point leaves
/// a parseable journal holding every acknowledged command.
pub(super) fn compact(shared: &Shared, session: &Session, image: &[u8]) -> bool {
    let Some(d) = &shared.durable else {
        return false;
    };
    if !session.dirty.load(Ordering::Relaxed) {
        return false;
    }
    let payload = Record::Checkpoint(Checkpoint {
        token: session.token,
        last_seq: session.last_seq.load(Ordering::SeqCst),
        last_reply: session.last_reply.lock_unpoisoned().clone(),
        image: image.to_vec(),
        fifo: session.board.fifo_snapshot(),
        pending: session
            .output
            .lock_unpoisoned()
            .lines
            .iter()
            .cloned()
            .collect(),
        bill: meter::bill(shared, session),
    })
    .encode();
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
/// first, and the removal is fsynced before the close may be acknowledged
/// — so a closed session does not come back at recovery. The session is
/// marked closed under the journal lock, which keeps a concurrent
/// compaction from writing a generation behind the removal, and leaves
/// the session table before the close is acknowledged, so the old token
/// cannot resume it. A failed removal leaves the session open and
/// unacknowledged.
pub(super) fn close(shared: &Shared, session: &Session) -> Result<(), DurableError> {
    let journal = session.journal.lock_unpoisoned();
    if let Some(d) = &shared.durable {
        let paths: Vec<PathBuf> = (journal.oldest..=journal.gen)
            .map(|gen| d.journal_path(session.id, gen))
            .collect();
        if let Err(e) = d.fs.remove_all(&paths) {
            drop(journal);
            meter::dump_flight(shared, "journal removal failed");
            return Err(e);
        }
    }
    session.closed.store(true, Ordering::Relaxed);
    drop(journal);
    shared.forget(session.id);
    Ok(())
}

/// Moves a corrupt file aside and counts it.
pub(super) fn quarantine(shared: &Shared, path: &Path) {
    let _ = cascade_durable::quarantine(path);
    shared.recovery.quarantined.fetch_add(1, Ordering::Relaxed);
}

/// Re-executes a recovered session's journal suffix against its restored
/// runtime through the live FIFO, run and drain code. Recovery already
/// billed the tenant for it, and it stays out of the server's counters.
pub(super) fn replay(
    shared: &Shared,
    session: &Session,
    repl: &mut Repl,
    plan: Replay,
) -> Result<(), String> {
    let n = plan.ops.len() as u64;
    execute::push_fifo(&session.board, plan.fifo);
    // The checkpoint's undrained output comes first, then whatever the
    // replayed commands produce, in command order. Its bytes were billed
    // before the checkpoint, so it is queued, not pushed.
    execute::enqueue(shared, session, plan.pending);
    for op in plan.ops {
        match op {
            // Output stays inside the runtime, exactly as after the live
            // `Eval`; the next Run/Drain sweeps it.
            Op::Eval(line) => {
                let _ = repl.line(&line);
            }
            Op::Run(ticks) => {
                let mut acc = PhaseAcc::default();
                execute::run(shared, session, repl.runtime(), ticks, false, &mut acc)
                    .map_err(|e| format!("replay run failed: {e}"))?;
            }
            Op::Fifo(width, words) => {
                let words = words.into_iter().map(|w| Bits::from_u64(width, w));
                execute::push_fifo(&session.board, words);
            }
            Op::Drain => {
                execute::take_output(shared, session, repl.runtime());
            }
        }
    }
    shared.recovery.replayed.fetch_add(n, Ordering::Relaxed);
    Ok(())
}

/// Decodes one generation file into its head (an open becomes an empty
/// checkpoint) and command suffix. The head absorbs the suffix's last
/// acknowledgement and what the suffix billed: its ticks and bytes.
fn decode_journal(records: &[Vec<u8>]) -> Result<(Checkpoint, Vec<Op>), String> {
    let (head, suffix) = records.split_first().ok_or("empty journal")?;
    let mut head = match Record::decode(head)? {
        Record::Open { token } => Checkpoint {
            token,
            image: HibernateImage::empty().to_bytes(),
            ..Checkpoint::default()
        },
        Record::Checkpoint(c) => c,
        Record::Command { op, .. } => {
            return Err(format!(
                "journal head has tag {}, want open/checkpoint",
                op.tag()
            ))
        }
    };
    let mut ops = Vec::with_capacity(suffix.len());
    for bytes in suffix {
        let Record::Command { seq, reply, op } = Record::decode(bytes)? else {
            return Err("a head record past the journal head".to_string());
        };
        if seq > 0 {
            head.last_seq = seq;
            head.last_reply = Some(reply);
        }
        head.bill.journal_bytes += bytes.len() as u64;
        if let Op::Run(ticks) = op {
            head.bill.ticks += ticks;
        }
        ops.push(op);
    }
    Ok((head, ops))
}

/// `s{id}-{gen}.jnl` → `(id, gen)`.
fn parse_journal_name(name: &str) -> Option<(u64, u64)> {
    let stem = name.strip_prefix('s')?.strip_suffix(".jnl")?;
    let (id, gen) = stem.split_once('-')?;
    Some((id.parse().ok()?, gen.parse().ok()?))
}

/// Installs one recovered session as a dormant tenant awaiting `resume`.
fn install(shared: &Shared, id: u64, journal: JournalState, head: Checkpoint, ops: Vec<Op>) {
    let replay = Replay {
        fifo: head.fifo,
        pending: head.pending,
        ops,
    };
    let has_replay =
        !(replay.fifo.is_empty() && replay.pending.is_empty() && replay.ops.is_empty());
    let session = Session {
        // Meters resume from the recovered bill; the fleet's live lease
        // meter restarts at zero, so the bill's lease time is the floor.
        meter: Meter::restored(&head.bill),
        needs_resume: AtomicBool::new(true),
        last_seq: AtomicU64::new(head.last_seq),
        last_reply: Mutex::new(head.last_reply),
        journal: Mutex::new(journal),
        // A pending replay means the stored image alone is stale —
        // compaction must wait until the suffix has been applied.
        dirty: AtomicBool::new(has_replay),
        replay: Mutex::new(has_replay.then_some(replay)),
        ..Session::new(id, head.token)
    };
    dormant::store(shared, &session, head.image);
    shared.admit(session);
    shared.recovery.sessions.fetch_add(1, Ordering::Relaxed);
}

/// Scans the sessions directory and rebuilds every decodable tenant;
/// returns the highest recovered id. Newest generation wins; corrupt
/// generations are quarantined and the scan falls back to the previous
/// one. Torn tails (a crash mid-append) are truncated to the last whole
/// record — those commands were never acknowledged.
pub(super) fn rehydrate(shared: &Shared) -> u64 {
    let Some(d) = &shared.durable else {
        return 0;
    };
    let Ok(entries) = std::fs::read_dir(&d.sessions_dir) else {
        return 0;
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
                    quarantine(shared, &path);
                    continue;
                }
            };
            if scan.torn_bytes > 0 {
                let _ = d.fs.truncate(&path, scan.clean_len);
                shared.recovery.quarantined.fetch_add(1, Ordering::Relaxed);
            }
            match decode_journal(&scan.records) {
                Ok((head, ops)) => {
                    // This generation supersedes every older one.
                    let mut oldest = gen;
                    for &older in generations.iter().filter(|&&g| g < gen) {
                        if std::fs::remove_file(d.journal_path(id, older)).is_err() {
                            oldest = older;
                        }
                    }
                    install(shared, id, JournalState { gen, oldest }, head, ops);
                    max_id = max_id.max(id);
                    break;
                }
                Err(_) => quarantine(shared, &path),
            }
        }
    }
    max_id
}

/// Loads the counter baselines persisted by the last graceful drain.
/// Missing or unreadable baselines start from zero — crash restarts keep
/// counters monotone as a lower bound, not exact.
pub(super) fn load_baseline(d: &Durability) -> BTreeMap<String, u64> {
    let decode = |payload: &[u8]| -> Result<BTreeMap<String, u64>, String> {
        let mut r = codec::Reader::new(payload);
        let n = r.u64()?;
        (0..n).map(|_| Ok((r.string()?, r.u64()?))).collect()
    };
    let payload = d.fs.read_record(&d.meta_path).unwrap_or_default();
    decode(&payload).unwrap_or_default()
}

/// Writes the counter baselines a successor process reports from, and
/// counts the journals this drain flushed.
pub(super) fn save_baseline(shared: &Shared, counters: &[(&str, u64)], flushed: u64) {
    let Some(d) = &shared.durable else {
        return;
    };
    let mut payload = Vec::new();
    codec::put_u64(&mut payload, counters.len() as u64);
    for (name, value) in counters {
        codec::put_str(&mut payload, name);
        codec::put_u64(&mut payload, *value);
    }
    let _ = d.fs.write_atomic(&d.meta_path, &payload);
    shared
        .recovery
        .drain_flushes
        .fetch_add(flushed, Ordering::Relaxed);
}
