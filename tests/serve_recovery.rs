//! Crash-safe durability: warm restarts from the persistent bitstream
//! store, exactly-once sequenced commands, corrupt-journal quarantine,
//! torn-spill containment, the spill-dir retention contract, and FIFO
//! residue surviving a drain/recover round trip.
//!
//! Everything here drives the public surface only: a durable
//! [`ServeConfig`] pointed at a scratch directory, [`Server::drain`] or a
//! plain drop for the "old" process, and [`Server::recover`] for the new
//! one. Corruption is injected by flipping bytes in real files — the same
//! thing a torn write or bit rot would do.

use cascade_serve::{InProcClient, Json, Request, ServeConfig, Server};
use cascade_workloads::regex::{compile, matcher_verilog, Flavor as RegexFlavor};
use std::path::{Path, PathBuf};

const COUNTER: &str = "reg [15:0] cnt = 0;\n\
                       always @(posedge clk.val) cnt <= cnt + 1;\n\
                       always @(posedge clk.val) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);\n\
                       assign led.val = cnt[7:0];";

fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cascade-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durable_config(dir: &Path) -> ServeConfig {
    let mut c = ServeConfig::quick();
    c.fabrics = 1;
    c.workers = 2;
    c.hibernate_after_s = 0.0;
    c.durable_dir = Some(dir.to_string_lossy().into_owned());
    c
}

/// Flips one byte in the middle of `path`.
fn corrupt(path: &Path) {
    let mut raw = std::fs::read(path).expect("read file to corrupt");
    let mid = raw.len() / 2;
    raw[mid] ^= 0x01;
    std::fs::write(path, &raw).expect("write corrupted file");
}

fn journal_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir.join("sessions"))
        .expect("sessions dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "jnl"))
        .collect();
    out.sort();
    out
}

/// A graceful drain → recover must resume the tenant with exact state,
/// and the recovered server's first compile must come from the
/// persistent bitstream store, not the toolchain.
#[test]
fn warm_restart_resumes_state_and_skips_recompiles() {
    // Oracle: the same 128-tick script on a server that never restarts.
    let oracle_lines = {
        let server = Server::new(durable_config(&scratch("warm-oracle")));
        let mut c = InProcClient::connect(&server);
        c.open().expect("open oracle");
        c.eval_all(COUNTER).expect("eval oracle");
        c.run(100).expect("run oracle");
        let mut lines = c.drain().expect("drain oracle").0;
        c.run(28).expect("run oracle 2");
        lines.extend(c.drain().expect("drain oracle").0);
        lines
    };

    let dir = scratch("warm");
    let server = Server::new(durable_config(&dir));
    let mut client = InProcClient::connect(&server);
    let id = client.open().expect("open");
    let token = client.token().expect("open returns a token");
    client.eval_all(COUNTER).expect("eval");
    let r = client.run(100).expect("run");
    assert_eq!(r.ticks, 100);
    client.wait_compile().expect("compile resolves");
    let (lines_before, dropped) = client.drain().expect("drain");
    assert_eq!(dropped, 0);
    let stats = client.server_stats().expect("stats");
    assert!(
        stat_u64(&stats, "bitstream_store_saves") >= 1,
        "the compile must be persisted to the store"
    );
    let (flushed, hibernated) = client.drain_server().expect("drain server");
    assert!(flushed >= 1, "the dirty tenant's journal must flush");
    assert!(hibernated >= 1, "the live tenant must hibernate");
    drop(client);
    drop(server);

    let recovered = Server::recover(durable_config(&dir));
    let mut client = InProcClient::connect(&recovered);
    let stats = client.server_stats().expect("stats");
    assert_eq!(stat_u64(&stats, "recovered_sessions"), 1);

    // Commands without a resume are refused — the token is the proof.
    let refused = client
        .raw(&Request::Probe {
            session: id,
            port: "cnt".to_string(),
        })
        .expect("transport");
    assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
    let bad = client.resume(id, token ^ 1).expect_err("wrong token");
    assert!(bad.contains("token"), "{bad}");
    let last_seq = client.resume(id, token).expect("resume");
    assert_eq!(last_seq, 0, "the script was unsequenced");

    // Exact state: the counter is where the old server left it, and the
    // $display stream continues without a gap or a repeat.
    assert_eq!(client.probe("cnt").expect("probe"), Some(100));
    let r = client.run(28).expect("run after recovery");
    assert_eq!(r.ticks, 28);
    assert_eq!(client.probe("cnt").expect("probe"), Some(128));
    client.wait_compile().expect("warm compile resolves");
    let (lines_after, _) = client.drain().expect("drain");
    let mut all = lines_before;
    all.extend(lines_after);
    assert_eq!(
        all, oracle_lines,
        "transcript must be gapless across the restart"
    );

    // The recompile was served by the persistent store.
    let stats = client.server_stats().expect("stats");
    assert!(
        stat_u64(&stats, "warm_bitstream_hits") >= 1,
        "recovered compile must hit the bitstream store"
    );
}

/// Re-sending an acknowledged sequence number returns the stored reply
/// without re-executing — ticks are applied exactly once.
#[test]
fn sequenced_retry_is_deduped_exactly_once() {
    let dir = scratch("dedup");
    let server = Server::new(durable_config(&dir));
    let mut client = InProcClient::connect(&server);
    client.open().expect("open");
    for line in COUNTER.lines() {
        let seq = client.next_seq();
        client.eval_seq(line, seq).expect("eval");
    }
    let seq = client.next_seq();
    let first = client.run_seq(40, seq).expect("run");
    assert_eq!(first.ticks, 40);
    // The client's ack was "lost"; it retries the same seq.
    let retry = client.run_seq(40, seq).expect("retry");
    assert_eq!(retry, first, "dedup must return the stored reply");
    assert_eq!(
        client.probe("cnt").expect("probe"),
        Some(40),
        "the retried run must not execute twice"
    );
    // A fresh seq executes normally.
    let seq = client.next_seq();
    assert_eq!(client.run_seq(40, seq).expect("run 2").ticks, 40);
    assert_eq!(client.probe("cnt").expect("probe"), Some(80));
}

/// A corrupted journal generation is quarantined, never decoded into a
/// half-real session — and the rest of the server recovers normally.
#[test]
fn corrupt_journal_is_quarantined_not_served() {
    let dir = scratch("corrupt-journal");
    let server = Server::new(durable_config(&dir));
    let mut client = InProcClient::connect(&server);
    let victim = client.open().expect("open victim");
    client.eval_all(COUNTER).expect("eval");
    client.run(50).expect("run");
    let mut healthy = InProcClient::connect(&server);
    let kept = healthy.open().expect("open healthy");
    let kept_token = healthy.token().expect("token");
    healthy.eval_all("reg [7:0] z = 9;").expect("eval healthy");
    client.drain_server().expect("drain");
    drop(client);
    drop(healthy);
    drop(server);

    // Corrupt the victim's (compacted) journal; leave the healthy one.
    let victims: Vec<PathBuf> = journal_files(&dir)
        .into_iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&format!("s{victim}-")))
        })
        .collect();
    assert!(!victims.is_empty(), "victim journal must exist");
    for p in &victims {
        corrupt(p);
    }

    let recovered = Server::recover(durable_config(&dir));
    let mut client = InProcClient::connect(&recovered);
    let stats = client.server_stats().expect("stats");
    assert!(
        stat_u64(&stats, "recovery_quarantined") >= 1,
        "the corrupt journal must be quarantined"
    );
    assert_eq!(
        stat_u64(&stats, "recovered_sessions"),
        1,
        "only the healthy tenant comes back"
    );
    // The healthy tenant is intact; the victim is gone, not wrong.
    client.resume(kept, kept_token).expect("resume healthy");
    assert_eq!(client.probe("z").expect("probe"), Some(9));
    let gone = client
        .raw(&Request::Resume {
            session: victim,
            token: 0,
        })
        .expect("transport");
    assert_eq!(gone.get("ok").and_then(Json::as_bool), Some(false));
    // Quarantined files are renamed aside for post-mortem, not deleted.
    let quarantined = std::fs::read_dir(dir.join("sessions"))
        .expect("sessions dir")
        .flatten()
        .any(|e| e.file_name().to_string_lossy().ends_with(".quar"));
    assert!(quarantined, "the bad journal must be kept for post-mortem");
}

/// A torn spill image must surface as a counted wake failure — the
/// session dies cleanly rather than waking from half a checkpoint.
#[test]
fn torn_spill_image_is_a_counted_wake_failure() {
    let spill = scratch("torn-spill-dir");
    let mut config = ServeConfig::quick();
    config.fabrics = 0;
    config.workers = 1;
    config.hibernate_after_s = 0.0;
    // A zero budget forces every hibernation image straight to disk.
    config.hibernate_mem_bytes = 0;
    config.hibernate_spill_dir = Some(spill.to_string_lossy().into_owned());
    let server = Server::new(config);
    let mut client = InProcClient::connect(&server);
    client.open().expect("open");
    client.eval_all(COUNTER).expect("eval");
    client.run(30).expect("run");
    client.drain().expect("drain");
    assert!(client.hibernate().expect("hibernate"), "must freeze");

    let spilled: Vec<PathBuf> = std::fs::read_dir(&spill)
        .expect("spill dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "hib"))
        .collect();
    assert_eq!(spilled.len(), 1, "image must spill to disk");
    corrupt(&spilled[0]);

    let e = client.probe("cnt").expect_err("wake must fail");
    assert!(e.contains("wake failed"), "{e}");
    let mut fresh = InProcClient::connect(&server);
    let stats = fresh
        .open()
        .and_then(|_| fresh.server_stats())
        .expect("stats");
    assert_eq!(stat_u64(&stats, "wake_failures"), 1);
    assert!(
        stat_u64(&stats, "recovery_quarantined") >= 1,
        "the torn image must be quarantined"
    );
    let _ = std::fs::remove_dir_all(&spill);
}

/// The retention contract: an explicitly configured spill directory is
/// never removed by the server — its images outlive the process.
#[test]
fn explicit_spill_dir_survives_server_drop() {
    let spill = scratch("retained-spill");
    let mut config = ServeConfig::quick();
    config.fabrics = 0;
    config.workers = 1;
    config.hibernate_after_s = 0.0;
    config.hibernate_mem_bytes = 0;
    config.hibernate_spill_dir = Some(spill.to_string_lossy().into_owned());
    let server = Server::new(config);
    let mut client = InProcClient::connect(&server);
    client.open().expect("open");
    client.eval_all("reg [7:0] v = 3;").expect("eval");
    assert!(client.hibernate().expect("hibernate"));
    drop(client);
    drop(server);
    let survivors = std::fs::read_dir(&spill)
        .expect("explicit spill dir must survive server drop")
        .flatten()
        .count();
    assert!(survivors >= 1, "spilled images must be retained");
    let _ = std::fs::remove_dir_all(&spill);
}

/// Words pushed into a board FIFO but not yet consumed must survive a
/// drain/recover restart: the regex matcher sees the full input stream
/// and reports the same match count as an uninterrupted run.
#[test]
fn fifo_residue_survives_drain_and_recovery() {
    let pattern = "GET |POST ";
    let input: &[u8] = b"GET /index HTTP POST /x GET  PUT POST!POST ";
    let dfa = compile(pattern).unwrap();
    let expect_matches = dfa.count_matches(input) as u64;
    let src = matcher_verilog(&dfa, RegexFlavor::Cascade);
    let bytes: Vec<u64> = input.iter().map(|&b| b as u64).collect();
    let split = bytes.len() / 2;

    let dir = scratch("fifo");
    let server = Server::new(durable_config(&dir));
    let mut client = InProcClient::connect(&server);
    let id = client.open().expect("open");
    let token = client.token().expect("token");
    client.eval_all(&src).expect("eval matcher");
    // First half streams in and is partially consumed; whatever the
    // matcher hasn't popped yet is residue that must survive.
    let mut sent = 0usize;
    while sent < split {
        sent += client.fifo_push(8, &bytes[sent..split]).expect("fifo") as usize;
        client.run(8).expect("run");
    }
    client.drain_server().expect("drain");
    drop(client);
    drop(server);

    let recovered = Server::recover(durable_config(&dir));
    let mut client = InProcClient::connect(&recovered);
    client.resume(id, token).expect("resume");
    let mut sent = split;
    while sent < bytes.len() {
        sent += client.fifo_push(8, &bytes[sent..]).expect("fifo") as usize;
        client.run(32).expect("run");
    }
    client.run(64).expect("pipeline slack");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stat_u64(&stats, "leds"),
        expect_matches,
        "match count must equal an uninterrupted run's"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A closed session stays closed: close removes every journal generation,
/// durably, before it is acknowledged, so recovery neither finds a file
/// nor lets the old token resume it. Covers a session closed live, one
/// closed dormant after hibernation compacted its journal to a later
/// generation, and one reaped idle; an open session is the control.
#[test]
fn closed_sessions_do_not_come_back_after_recovery() {
    let dir = scratch("close");
    let mut config = durable_config(&dir);
    // Long enough that no other session idles out while the test runs.
    config.idle_timeout_s = 2.0;
    let server = Server::new(config);
    let session = |ticks: u64| {
        let mut c = InProcClient::connect(&server);
        let id = c.open().expect("open");
        let token = c.token().expect("token");
        c.eval_all(COUNTER).expect("eval");
        assert_eq!(c.run(ticks).expect("run").ticks, ticks);
        (c, id, token)
    };
    let (reaped, reaped_id, reaped_token) = session(30);
    drop(reaped);
    let mut stats = InProcClient::connect(&server);
    let idle = std::time::Instant::now();
    while stat_u64(&stats.server_stats().expect("stats"), "sessions_reaped") == 0 {
        assert!(idle.elapsed().as_secs() < 60, "the idle session is reaped");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let (mut live, live_id, live_token) = session(10);
    live.close().expect("close live");
    let (mut dormant, dormant_id, dormant_token) = session(20);
    assert!(dormant.hibernate().expect("hibernate"), "hibernated");
    assert!(
        journal_files(&dir)
            .iter()
            .any(|p| p.ends_with(format!("s{dormant_id}-1.jnl"))),
        "hibernation compacts the journal to generation 1"
    );
    dormant.close().expect("close dormant");
    let (mut kept, kept_id, kept_token) = session(5);
    assert_eq!(kept.probe("cnt").expect("probe"), Some(5));
    let names: Vec<String> = journal_files(&dir)
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        names,
        [format!("s{kept_id}-0.jnl")],
        "only the open journal"
    );
    drop((live, dormant, kept, stats));
    drop(server);

    let recovered = Server::recover(durable_config(&dir));
    let mut client = InProcClient::connect(&recovered);
    let stats = client.server_stats().expect("stats");
    assert_eq!(stat_u64(&stats, "recovered_sessions"), 1);
    for (id, token) in [
        (live_id, live_token),
        (dormant_id, dormant_token),
        (reaped_id, reaped_token),
    ] {
        client
            .resume(id, token)
            .expect_err("a closed session cannot be resumed");
    }
    client
        .resume(kept_id, kept_token)
        .expect("resume the open one");
    assert_eq!(client.probe("cnt").expect("probe"), Some(5));
}

/// One tenant's meter row from `server-top`: `(ticks, journal_bytes,
/// output_bytes)`.
fn meters(client: &mut InProcClient, id: u64) -> (u64, u64, u64) {
    let (_, tenants) = client.server_top(100).expect("server top");
    let row = tenants
        .iter()
        .find(|t| stat_u64(t, "session") == id)
        .expect("tenant row");
    (
        stat_u64(row, "ticks"),
        stat_u64(row, "journal_bytes"),
        stat_u64(row, "output_bytes"),
    )
}

/// A crash between checkpoints leaves acknowledged commands only in the
/// journal suffix. Replaying them at the first wake must bill the tenant
/// what the old server billed: the replayed run's ticks and the suffix
/// records' journal bytes, no more and no less.
#[test]
fn replayed_suffix_bills_its_ticks_and_journal_bytes() {
    let dir = scratch("bill-suffix");
    let server = Server::new(durable_config(&dir));
    let mut client = InProcClient::connect(&server);
    let id = client.open().expect("open");
    let token = client.token().expect("token");
    client.eval_all(COUNTER).expect("eval");
    assert_eq!(client.run(100).expect("run").ticks, 100);
    let before = meters(&mut client, id);
    assert_eq!(before.0, 100);
    assert!(before.1 > 0, "the suffix was journaled");
    drop(client);
    drop(server); // no drain: the journal is the open record plus a suffix

    let recovered = Server::recover(durable_config(&dir));
    let mut client = InProcClient::connect(&recovered);
    client.resume(id, token).expect("resume");
    assert_eq!(client.probe("cnt").expect("probe wakes"), Some(100));
    assert_eq!(
        meters(&mut client, id),
        before,
        "ticks, journal and output bytes"
    );
    let stats = client.server_stats().expect("stats");
    assert_eq!(
        stat_u64(&stats, "ticks"),
        0,
        "replayed ticks stay out of the server's tick counter"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint's undrained output was billed when it was produced, and
/// the checkpoint's meter block carries that bill. Restoring the output
/// at the first wake must not bill it again.
#[test]
fn checkpointed_output_is_billed_once() {
    let dir = scratch("bill-ckpt");
    let server = Server::new(durable_config(&dir));
    let mut client = InProcClient::connect(&server);
    let id = client.open().expect("open");
    let token = client.token().expect("token");
    client.eval_all(COUNTER).expect("eval");
    assert_eq!(client.run(100).expect("run").ticks, 100);
    client.drain_server().expect("drain server");
    let before = meters(&mut client, id);
    assert!(before.2 > 0, "the run produced output");
    drop(client);
    drop(server);

    let recovered = Server::recover(durable_config(&dir));
    let mut client = InProcClient::connect(&recovered);
    client.resume(id, token).expect("resume");
    assert_eq!(client.probe("cnt").expect("probe wakes"), Some(100));
    assert_eq!(
        meters(&mut client, id),
        before,
        "ticks, journal and output bytes"
    );
    let (lines, _) = client.drain().expect("drain");
    assert_eq!(lines.len(), 12, "the checkpointed output is delivered once");
    let _ = std::fs::remove_dir_all(&dir);
}
