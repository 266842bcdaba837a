//! Pins what the serving layer puts on the wire and on disk: the
//! `server-stats` key set (and every value that does not depend on
//! timing), the `# HELP`/`# TYPE` header of every family in the
//! server-wide `metrics` exposition, and the exact journal bytes of every
//! record kind (open, eval, run, fifo, drain, checkpoint).
//!
//! The script is fixed and deterministic: two durable sessions on a
//! software-only server (no fabrics, no background compiles, no idle
//! hibernation), sequenced commands on one and unsequenced on the other.
//! A refactor of the session layer must leave every pinned byte alone.

use cascade_serve::{InProcClient, Json, ServeConfig, Server};
use std::path::{Path, PathBuf};

const COUNTER: &str = "reg [15:0] cnt = 0;\n\
                       always @(posedge clk.val) cnt <= cnt + 1;\n\
                       always @(posedge clk.val) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);";

fn config(dir: &Path) -> ServeConfig {
    let mut c = ServeConfig::quick();
    c.fabrics = 0;
    c.workers = 2;
    c.jit.auto_compile = false;
    c.hibernate_after_s = 0.0;
    c.idle_timeout_s = 3600.0;
    c.durable_dir = Some(dir.to_string_lossy().into_owned());
    c
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

struct Transcript {
    stats: Json,
    metrics: String,
    /// `(file name, bytes)` of every journal, sorted by name.
    journals: Vec<(String, Vec<u8>)>,
}

fn run_script(dir: &Path) -> Transcript {
    let server = Server::new(config(dir));
    // Session 1: sequenced commands, then a checkpoint that holds
    // undrained output, then a FIFO push and a drain behind it.
    let mut a = InProcClient::connect(&server);
    assert_eq!(a.open().expect("open a"), 1);
    for line in COUNTER.lines() {
        let seq = a.next_seq();
        a.eval_seq(line, seq).expect("eval a");
    }
    let seq = a.next_seq();
    assert_eq!(a.run_seq(20, seq).expect("run a").ticks, 20);
    assert!(a.hibernate().expect("hibernate a"));
    let seq = a.next_seq();
    assert_eq!(a.fifo_push_seq(8, &[1, 2, 3], seq).expect("fifo a"), 3);
    let seq = a.next_seq();
    let (lines, dropped) = a.drain_seq(seq).expect("drain a");
    assert_eq!((lines.len(), dropped), (2, 0), "{lines:?}");

    // Session 2: unsequenced commands left in its first generation.
    let mut b = InProcClient::connect(&server);
    assert_eq!(b.open().expect("open b"), 2);
    b.eval_all(COUNTER).expect("eval b");
    assert_eq!(b.run(10).expect("run b").ticks, 10);

    let stats = a.server_stats().expect("server stats");
    let metrics = a.server_metrics().expect("server metrics");
    drop((a, b));
    drop(server);
    let mut journals: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("sessions"))
        .expect("sessions dir")
        .flatten()
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("read journal"))
        })
        .collect();
    journals.sort();
    Transcript {
        stats,
        metrics,
        journals,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cascade-wire-pin-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Every `server-stats` key, and the value of each one the script fixes
/// (`None`: the value depends on timing, only the key is pinned).
const STATS: &[(&str, Option<u64>)] = &[
    ("bitstream_store_saves", Some(0)),
    ("cache_entries", Some(0)),
    ("cache_evictions", Some(0)),
    ("cache_hits", Some(0)),
    ("cache_misses", Some(0)),
    ("compile_queue_depth", Some(0)),
    ("compile_worker_panics", Some(0)),
    ("compiles_coalesced", Some(0)),
    ("compiles_shed", Some(0)),
    ("compiles_skipped", Some(0)),
    ("drain_flushes", Some(0)),
    ("evals", Some(6)),
    ("fabric_failures", Some(0)),
    ("fabric_grants", Some(0)),
    ("fabric_revocations", Some(0)),
    ("fabric_revocations_suppressed", Some(0)),
    ("fabrics", Some(0)),
    ("fabrics_in_use", Some(0)),
    ("fabrics_lost", Some(0)),
    ("hibernate_disk_bytes", Some(0)),
    ("hibernate_mem_bytes", Some(0)),
    ("hibernate_spills", Some(0)),
    ("hibernates", Some(1)),
    ("ok", None),
    ("output_dropped", Some(0)),
    ("recovered_sessions", Some(0)),
    ("recovery_quarantined", Some(0)),
    ("recovery_replayed", Some(0)),
    ("requests", Some(11)),
    ("session_panics", Some(0)),
    ("sessions", Some(2)),
    ("sessions_hibernated", Some(0)),
    ("sessions_live", Some(2)),
    ("sessions_opened", Some(2)),
    ("sessions_reaped", Some(0)),
    ("steals", None),
    ("ticks", Some(30)),
    ("trace_dropped", Some(0)),
    ("trace_events", None),
    ("wake_failures", Some(0)),
    ("wakes", Some(3)),
    ("warm_bitstream_hits", Some(0)),
];

/// The `# HELP` / `# TYPE` lines of the server-wide exposition.
const EXPOSITION_HEADERS: &str = "\
# HELP jit_checkpoints_restored_total recovery checkpoints restored (rollbacks)\n\
# TYPE jit_checkpoints_restored_total counter\n\
# HELP jit_checkpoints_taken_total recovery checkpoints taken\n\
# TYPE jit_checkpoints_taken_total counter\n\
# HELP jit_compile_latency_seconds modeled latency from submission to a surfaced compile outcome\n\
# TYPE jit_compile_latency_seconds histogram\n\
# HELP jit_compile_retries_total transient compile failures retried with backoff\n\
# TYPE jit_compile_retries_total counter\n\
# HELP jit_compile_watchdog_cancels_total hung compiles cancelled by the modeled watchdog\n\
# TYPE jit_compile_watchdog_cancels_total counter\n\
# HELP jit_compile_worker_panics_total compile-worker panics contained and surfaced as outcomes\n\
# TYPE jit_compile_worker_panics_total counter\n\
# HELP jit_fabric_losses_total fabric losses survived (the program resumed in software)\n\
# TYPE jit_fabric_losses_total counter\n\
# HELP jit_hw_promotions_total software-to-hardware engine swaps performed\n\
# TYPE jit_hw_promotions_total counter\n\
# HELP jit_lease_demotions_total hardware-to-software demotions forced by lease revocation\n\
# TYPE jit_lease_demotions_total counter\n\
# HELP jit_lease_wait_seconds virtual seconds a ready bitstream waited for a fabric lease\n\
# TYPE jit_lease_wait_seconds histogram\n\
# HELP jit_scrub_detections_total scrubs that detected a fabric soft error\n\
# TYPE jit_scrub_detections_total counter\n\
# HELP jit_scrubs_total readback scrubs performed against the hardware engine\n\
# TYPE jit_scrubs_total counter\n\
# HELP serve_bitstream_cache_hits_total Shared bitstream cache hits\n\
# TYPE serve_bitstream_cache_hits_total counter\n\
# HELP serve_bitstream_cache_misses_total Shared bitstream cache misses\n\
# TYPE serve_bitstream_cache_misses_total counter\n\
# HELP serve_compile_queue_depth Pending jobs in the shared compile queue\n\
# TYPE serve_compile_queue_depth gauge\n\
# HELP serve_compiles_coalesced_total Compile jobs coalesced onto an identical in-flight job\n\
# TYPE serve_compiles_coalesced_total counter\n\
# HELP serve_compiles_shed_total Compile jobs shed by the bounded queue\n\
# TYPE serve_compiles_shed_total counter\n\
# HELP serve_compiles_skipped_total Compile jobs discarded unrun because nobody awaited them\n\
# TYPE serve_compiles_skipped_total counter\n\
# HELP serve_evals_total Eval commands served\n\
# TYPE serve_evals_total counter\n\
# HELP serve_fabric_grants_total Leases granted\n\
# TYPE serve_fabric_grants_total counter\n\
# HELP serve_fabric_revocations_suppressed_total Revocations suppressed by lease hysteresis\n\
# TYPE serve_fabric_revocations_suppressed_total counter\n\
# HELP serve_fabric_revocations_total Leases revoked for arbitration\n\
# TYPE serve_fabric_revocations_total counter\n\
# HELP serve_fabrics Fleet capacity\n\
# TYPE serve_fabrics gauge\n\
# HELP serve_fabrics_in_use Fabric leases currently held\n\
# TYPE serve_fabrics_in_use gauge\n\
# HELP serve_hibernate_bytes Bytes held by the hibernation store (memory + disk)\n\
# TYPE serve_hibernate_bytes gauge\n\
# HELP serve_hibernate_spills_total Hibernation images spilled to disk\n\
# TYPE serve_hibernate_spills_total counter\n\
# HELP serve_hibernates_total Sessions frozen to a hibernation image\n\
# TYPE serve_hibernates_total counter\n\
# HELP serve_output_dropped_total Output lines dropped by bounded session queues\n\
# TYPE serve_output_dropped_total counter\n\
# HELP serve_phase_compile_seconds Wall seconds requests spent in this phase\n\
# TYPE serve_phase_compile_seconds histogram\n\
# HELP serve_phase_eval_hw_seconds Wall seconds requests spent in this phase\n\
# TYPE serve_phase_eval_hw_seconds histogram\n\
# HELP serve_phase_eval_sw_seconds Wall seconds requests spent in this phase\n\
# TYPE serve_phase_eval_sw_seconds histogram\n\
# HELP serve_phase_flush_seconds Wall seconds requests spent in this phase\n\
# TYPE serve_phase_flush_seconds histogram\n\
# HELP serve_phase_journal_seconds Wall seconds requests spent in this phase\n\
# TYPE serve_phase_journal_seconds histogram\n\
# HELP serve_phase_other_seconds Wall seconds requests spent in this phase\n\
# TYPE serve_phase_other_seconds histogram\n\
# HELP serve_phase_queue_seconds Wall seconds requests spent in this phase\n\
# TYPE serve_phase_queue_seconds histogram\n\
# HELP serve_phase_wake_seconds Wall seconds requests spent in this phase\n\
# TYPE serve_phase_wake_seconds histogram\n\
# HELP serve_recovery_bitstream_saves_total Bitstreams persisted to the durable store\n\
# TYPE serve_recovery_bitstream_saves_total counter\n\
# HELP serve_recovery_corrupt_records_quarantined_total Corrupt journals, torn tails, spill images, and store entries quarantined\n\
# TYPE serve_recovery_corrupt_records_quarantined_total counter\n\
# HELP serve_recovery_drain_flushes_total Session journals flushed durably by server drains\n\
# TYPE serve_recovery_drain_flushes_total counter\n\
# HELP serve_recovery_journal_records_replayed_total Journaled commands replayed into woken sessions after recovery\n\
# TYPE serve_recovery_journal_records_replayed_total counter\n\
# HELP serve_recovery_sessions_total Sessions rehydrated from write-ahead journals at recovery\n\
# TYPE serve_recovery_sessions_total counter\n\
# HELP serve_recovery_warm_bitstream_hits_total Compiles skipped by the persistent bitstream store\n\
# TYPE serve_recovery_warm_bitstream_hits_total counter\n\
# HELP serve_session_output_dropped_total Output lines dropped by one session's bounded queue\n\
# TYPE serve_session_output_dropped_total counter\n\
# HELP serve_session_panics_total Worker panics contained at the session boundary\n\
# TYPE serve_session_panics_total counter\n\
# HELP serve_sessions Live sessions\n\
# TYPE serve_sessions gauge\n\
# HELP serve_sessions_hibernated Sessions currently hibernated (runtime dropped)\n\
# TYPE serve_sessions_hibernated gauge\n\
# HELP serve_sessions_live Sessions with a live runtime\n\
# TYPE serve_sessions_live gauge\n\
# HELP serve_sessions_opened_total Sessions ever opened\n\
# TYPE serve_sessions_opened_total counter\n\
# HELP serve_sessions_reaped_total Sessions reaped by the idle timeout\n\
# TYPE serve_sessions_reaped_total counter\n\
# HELP serve_steals_total Sessions claimed from another worker's shard\n\
# TYPE serve_steals_total counter\n\
# HELP serve_ticks_total Virtual clock ticks run across all sessions\n\
# TYPE serve_ticks_total counter\n\
# HELP serve_trace_events_dropped_total Trace events dropped by the bounded ring\n\
# TYPE serve_trace_events_dropped_total counter\n\
# HELP serve_trace_ring_bytes Heap bytes held by the shared trace ring\n\
# TYPE serve_trace_ring_bytes gauge\n\
# HELP serve_trace_ring_events Trace events held by the shared ring\n\
# TYPE serve_trace_ring_events gauge\n\
# HELP serve_wake_failures_total Sessions lost to an unrestorable hibernation image\n\
# TYPE serve_wake_failures_total counter\n\
# HELP serve_wakes_total Sessions rebuilt from a hibernation image\n\
# TYPE serve_wakes_total counter\n";

/// `(file, bytes as hex)` per journal: session 1's second generation (a
/// checkpoint holding undrained output, then a FIFO push and a drain) and
/// session 2's first (an open, three evals and a run). Each record is
/// CRC-framed.
const JOURNALS: &[(&str, &str)] = &[
    (
        "s1-1.jnl",
        "fc010000110dba6605431f46740edf0000040000000000000061000000000000007b226261636b70\
         72657373757265223a66616c73652c2266696e6973686564223a66616c73652c226c656173655f68\
         656c64223a66616c73652c226d6f6465223a22736f667477617265222c226f6b223a747275652c22\
         7469636b73223a32307d2b010000000000004348494201000000280000000000000000c5b35fd273\
         66363f8700000000000000726567205b31353a305d20636e74203d20303b0a0a616c776179732040\
         28706f736564676520636c6b2e76616c2920636e74203c3d20636e74202b20313b0a0a616c776179\
         73204028706f736564676520636c6b2e76616c292069662028636e745b323a305d203d3d20332764\
         37292024646973706c61792822633d2564222c20636e74293b0a0200000000000000030000000000\
         0000636c6b010000000000000009000000000000005f5f636c6b5f76616c01000000010000000000\
         00000000000000000000000000000000000004000000000000006d61696e01000000000000000300\
         000000000000636e7410000000010000000000000014000000000000000000000000000000000000\
         000000000002000000000000000300000000000000633d370400000000000000633d313514000000\
         000000000000000000000000cb01000000000000070000000000000000000000000000004b000000\
         ab2e05a303050000000000000016000000000000007b226f6b223a747275652c2270757368656422\
         3a337d0800000003000000000000000100000000000000020000000000000003000000000000003f\
         0000002f8679710406000000000000002e000000000000007b2264726f70706564223a302c226c69\
         6e6573223a5b22633d37222c22633d3135225d2c226f6b223a747275657d",
    ),
    (
        "s2-0.jnl",
        "0900000021bedb4400808200a1ad1000005800000020cd50f10100000000000000002c0000000000\
         00007b226f6b223a747275652c226f7574707574223a5b5d2c22737461747573223a226576616c75\
         61746564227d1300000000000000726567205b31353a305d20636e74203d20303b6e000000a4a625\
         da0100000000000000002c000000000000007b226f6b223a747275652c226f7574707574223a5b5d\
         2c22737461747573223a226576616c7561746564227d2900000000000000616c7761797320402870\
         6f736564676520636c6b2e76616c2920636e74203c3d20636e74202b20313b8b0000004adf259101\
         00000000000000002c000000000000007b226f6b223a747275652c226f7574707574223a5b5d2c22\
         737461747573223a226576616c7561746564227d4600000000000000616c77617973204028706f73\
         6564676520636c6b2e76616c292069662028636e745b323a305d203d3d2033276437292024646973\
         706c61792822633d2564222c20636e74293b7a000000a07708d80200000000000000006100000000\
         0000007b226261636b7072657373757265223a66616c73652c2266696e6973686564223a66616c73\
         652c226c656173655f68656c64223a66616c73652c226d6f6465223a22736f667477617265222c22\
         6f6b223a747275652c227469636b73223a31307d0a00000000000000",
    ),
];

#[test]
fn serve_wire_and_journal_bytes_are_pinned() {
    let dir = scratch("run");
    let t = run_script(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    let Json::Obj(stats) = &t.stats else {
        panic!("server-stats is not an object: {}", t.stats)
    };
    let keys: Vec<&str> = stats.keys().map(String::as_str).collect();
    let pinned: Vec<&str> = STATS.iter().map(|(k, _)| *k).collect();
    assert_eq!(keys, pinned, "server-stats key set");
    for (key, want) in STATS {
        if let Some(want) = want {
            let got = stats.get(*key).and_then(Json::as_u64);
            assert_eq!(got, Some(*want), "server-stats `{key}`");
        }
    }
    let headers: String = t
        .metrics
        .lines()
        .filter(|l| l.starts_with("# "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(headers, EXPOSITION_HEADERS, "exposition families");
    let journals: Vec<(&str, String)> = t
        .journals
        .iter()
        .map(|(name, bytes)| (name.as_str(), hex(bytes)))
        .collect();
    let pinned: Vec<(&str, String)> = JOURNALS
        .iter()
        .map(|(name, bytes)| (*name, bytes.to_string()))
        .collect();
    assert_eq!(journals, pinned, "journal files and their bytes");
}
