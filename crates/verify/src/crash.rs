//! Crash-point fuzzing of the durable serving stack.
//!
//! [`run_crash`] drives a deterministic multi-tenant serve script against
//! a durable [`Server`], then re-runs it once per *durable write point*
//! with a scheduled crash fault at exactly that write (cycling through
//! torn-write, partial-write, lost-fsync, and die-before-write). After
//! each injected crash it recovers a fresh server from the same durable
//! directory, resumes every tenant by id + token, retries the
//! unacknowledged command with its original sequence number, and finishes
//! the script. The invariants, checked at every single crash point:
//!
//! - **No acknowledged tick lost**: the architectural counter equals the
//!   never-crashed oracle's — every `run` the old server acknowledged
//!   survives into the recovered one, and retried commands execute
//!   exactly once.
//! - **Transcripts byte-identical**: `$display` output accumulated across
//!   the crash equals the oracle's, line for line.
//! - **No corrupt record served**: recovery quarantines, it never
//!   hallucinates — divergence or a decode failure would trip the checks
//!   above.
//! - **Exactly-once dedup**: re-sending the last acknowledged sequence
//!   number returns the stored reply verbatim without re-executing.
//! - **Flight recorder survives**: the dying server dumps its in-memory
//!   trace ring to `last-crash.trace.jsonl` through the raw sidecar path,
//!   and recovery surfaces a decodable dump whose final record is the
//!   `dump` marker naming why the recorder fired.
//! - **Closed stays closed**: one tenant closes near the end of the
//!   script. An acknowledged close leaves no session to resume and no
//!   journal file; after an unacknowledged one, a session that is still
//!   there holds the oracle's pre-close state.
//!
//! A separate graceful pass per seed checks **counter monotonicity**: a
//! drain → recover restart must never make a `serve_*_total` counter go
//! backwards (crash restarts only guarantee the journaled lower bound).
//!
//! The write-point count comes from a clean pass under an armed-but-
//! never-firing plan ([`FaultPlan::durable_consults`]), so the sweep
//! covers every durable write the script performs — no hand-maintained
//! list to go stale.

use cascade_fpga::{DurableFault, FaultPlan};
use cascade_serve::{InProcClient, Json, Request, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Crash campaign parameters.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Master seed for the first script; later seeds are `seed + i`.
    pub seed: u64,
    /// Distinct scripts (seeds) to sweep.
    pub seeds: u32,
    /// Cap on crash points swept per seed (0 = every write point).
    pub max_points: u32,
    /// Tenants per script.
    pub tenants: u32,
    /// Run/drain rounds per tenant.
    pub bursts: u32,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            seed: 1,
            seeds: 3,
            max_points: 0,
            tenants: 4,
            bursts: 6,
        }
    }
}

/// Aggregate results of a crash campaign.
#[derive(Debug, Clone, Default)]
pub struct CrashReport {
    /// Durable write points discovered across all seeds.
    pub write_points: u64,
    /// Crash points actually swept (one injected fault each).
    pub crash_points: u64,
    /// Servers recovered from a durable directory.
    pub recoveries: u64,
    /// Sessions successfully resumed by id + token.
    pub resumes: u64,
    /// Journal records replayed by recovered servers.
    pub replayed_records: u64,
    /// Corrupt records quarantined during recovery.
    pub quarantined: u64,
    /// Warm bitstream-store hits observed.
    pub warm_hits: u64,
    /// Flight-recorder records decoded out of post-crash dumps.
    pub flight_records: u64,
    /// Every invariant violation found; empty means a clean campaign.
    pub violations: Vec<String>,
}

/// One scripted tenant command. Sequence numbers are assigned at
/// generation time so a retry after recovery re-sends the original.
#[derive(Debug, Clone)]
enum Op {
    Open,
    Eval(String, u64),
    Run(u64, u64),
    Drain(u64),
    Fifo(u64, Vec<u64>, u64),
    Close,
}

/// The deterministic script: a flat interleaving of tenant ops.
struct Script {
    ops: Vec<(usize, Op)>,
    tenants: usize,
}

fn tenant_source(step: u64) -> Vec<String> {
    vec![
        "reg [15:0] cnt = 0;".to_string(),
        format!("always @(posedge clk.val) cnt <= cnt + 16'd{step};"),
        "always @(posedge clk.val) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);".to_string(),
        "assign led.val = cnt[7:0];".to_string(),
    ]
}

fn generate_script(seed: u64, tenants: u32, bursts: u32) -> Script {
    let mut rng = cascade_bits::Prng::new(seed ^ 0xC4A5);
    let tenants = tenants.max(1) as usize;
    let mut ops = Vec::new();
    let mut seqs = vec![0u64; tenants];
    fn seq(seqs: &mut [u64], t: usize) -> u64 {
        seqs[t] += 1;
        seqs[t]
    }
    for t in 0..tenants {
        ops.push((t, Op::Open));
        // Tenants count in ones so every display firing pattern shows up
        // in the transcript (same convention as the chaos soak).
        for line in tenant_source(1) {
            let s = seq(&mut seqs, t);
            ops.push((t, Op::Eval(line, s)));
        }
    }
    for round in 0..bursts.max(1) {
        for t in 0..tenants {
            if rng.chance(1, 3) {
                let words: Vec<u64> = (0..3).map(|i| (t as u64) << 8 | i).collect();
                let s = seq(&mut seqs, t);
                ops.push((t, Op::Fifo(8, words, s)));
            }
            let burst = 4 + rng.below(20);
            let s = seq(&mut seqs, t);
            ops.push((t, Op::Run(burst, s)));
            if round % 2 == 1 || rng.chance(1, 2) {
                let s = seq(&mut seqs, t);
                ops.push((t, Op::Drain(s)));
            }
        }
    }
    for t in 0..tenants {
        let s = seq(&mut seqs, t);
        ops.push((t, Op::Drain(s)));
        // The first tenant leaves once drained, before the others' last
        // drains, so crash points follow its close as well as precede it.
        if t == 0 {
            ops.push((t, Op::Close));
        }
    }
    Script { ops, tenants }
}

/// Per-tenant progress within one execution pass.
#[derive(Debug, Clone, Default)]
struct TenantState {
    session: Option<u64>,
    token: u64,
    lines: Vec<String>,
    ticks: u64,
    fifo_accepted: u64,
    /// The tenant's close took effect.
    closed: bool,
    /// Last acknowledged sequenced op and its reply text (dedup check).
    last_acked: Option<(Op, String)>,
}

fn op_request(session: u64, op: &Op) -> Request {
    match op {
        Op::Open => Request::Open,
        Op::Eval(line, seq) => Request::Eval {
            session,
            line: line.clone(),
            seq: *seq,
        },
        Op::Run(ticks, seq) => Request::Run {
            session,
            ticks: *ticks,
            seq: *seq,
        },
        Op::Drain(seq) => Request::Drain { session, seq: *seq },
        Op::Fifo(width, data, seq) => Request::Fifo {
            session,
            width: *width,
            data: data.clone(),
            seq: *seq,
        },
        Op::Close => Request::Close { session },
    }
}

/// Applies an acknowledged reply to the tenant's accumulated state.
fn absorb(state: &mut TenantState, op: &Op, reply: &Json) {
    match op {
        Op::Open => {
            state.session = reply.get("session").and_then(Json::as_u64);
            state.token = reply.get("token").and_then(Json::as_u64).unwrap_or(0);
        }
        Op::Run(..) => {
            state.ticks += reply.get("ticks").and_then(Json::as_u64).unwrap_or(0);
        }
        Op::Drain(_) => {
            if let Some(arr) = reply.get("lines").and_then(Json::as_arr) {
                state
                    .lines
                    .extend(arr.iter().filter_map(|v| v.as_str().map(str::to_string)));
            }
        }
        Op::Fifo(..) => {
            state.fifo_accepted += reply.get("pushed").and_then(Json::as_u64).unwrap_or(0);
        }
        Op::Close => state.closed = true,
        Op::Eval(..) => {}
    }
    if !matches!(op, Op::Open | Op::Close) {
        state.last_acked = Some((op.clone(), reply.to_string()));
    }
}

/// Runs script ops starting at `cursor` until completion or the first
/// failed command (the crash point). Returns the index of the first op
/// that was *not* acknowledged, or `ops.len()` on full completion.
fn run_ops(
    client: &mut InProcClient,
    script: &Script,
    states: &mut [TenantState],
    cursor: usize,
) -> usize {
    for (i, (t, op)) in script.ops.iter().enumerate().skip(cursor) {
        let state = &mut states[*t];
        let session = state.session.unwrap_or(0);
        let reply = match client.raw(&op_request(session, op)) {
            Ok(r) => r,
            Err(_) => return i,
        };
        // Eval replies carry `ok:false` for rejected items too; the
        // script only sends valid Verilog, so any not-ok means the
        // journal refused the ack (or the store is already crashed).
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return i;
        }
        absorb(state, op, &reply);
    }
    script.ops.len()
}

/// Whether any journal generation of session `id` is on disk.
fn journal_left(dir: &Path, id: u64) -> bool {
    let prefix = format!("s{id}-");
    std::fs::read_dir(dir.join("sessions")).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with(&prefix) && name.ends_with(".jnl")
        })
    })
}

/// Checks that a closed tenant left nothing behind.
fn assert_gone(
    client: &mut InProcClient,
    dir: &Path,
    t: usize,
    state: &TenantState,
    report: &mut CrashReport,
    here: &dyn Fn(&str) -> String,
) {
    let Some(id) = state.session else { return };
    let resumed = client
        .raw(&Request::Resume {
            session: id,
            token: state.token,
        })
        .is_ok_and(|r| r.get("ok").and_then(Json::as_bool) == Some(true));
    if resumed {
        report
            .violations
            .push(here(&format!("tenant {t} resumed after its close")));
    }
    if journal_left(dir, id) {
        report
            .violations
            .push(here(&format!("tenant {t} left a journal after its close")));
    }
}

fn server_stat(server: &Arc<Server>, key: &str) -> u64 {
    let mut c = InProcClient::connect(server);
    c.server_stats()
        .ok()
        .and_then(|s| s.get(key).and_then(Json::as_u64))
        .unwrap_or(0)
}

/// Parses server-level `serve_*_total` counters out of an exposition.
fn monotone_counters(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        if !name.starts_with("serve_") || !name.ends_with("_total") || name.contains('{') {
            continue;
        }
        if let Ok(v) = value.parse::<f64>() {
            out.push((name.to_string(), v as u64));
        }
    }
    out
}

fn durable_config(dir: &std::path::Path, faults: FaultPlan) -> ServeConfig {
    let mut c = ServeConfig::quick();
    c.fabrics = 1;
    c.workers = 2;
    // Idle-driven hibernation off: the sweep needs a deterministic
    // durable-write sequence, and spills would add timing-dependent
    // write points. (Spill crash-safety has its own integration tests.)
    c.hibernate_after_s = 0.0;
    c.max_live_sessions = 0;
    c.idle_timeout_s = 3600.0;
    c.durable_dir = Some(dir.to_string_lossy().into_owned());
    c.jit.faults = faults;
    c
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cascade-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The oracle: the script, completed on a durable server that never
/// faults, under an armed plan that counts durable write points.
struct Oracle {
    states: Vec<TenantState>,
    write_points: u64,
}

fn run_oracle(
    script: &Script,
    report: &mut CrashReport,
    here: &dyn Fn(&str) -> String,
) -> Option<Oracle> {
    let dir = fresh_dir("oracle");
    // Armed but never firing: occurrence u64::MAX is unreachable, yet the
    // plan is active, so every foreground durable write counts a consult.
    let plan = FaultPlan::builder()
        .durable_fault(u64::MAX, DurableFault::Crash)
        .build();
    let server = Server::new(durable_config(&dir, plan.clone()));
    let mut client = InProcClient::connect(&server);
    let mut states = vec![TenantState::default(); script.tenants];
    let done = run_ops(&mut client, script, &mut states, 0);
    let complete = done == script.ops.len();
    if !complete {
        report
            .violations
            .push(here(&format!("oracle pass failed at op {done}")));
    }
    drop(server);
    let write_points = plan.durable_consults();
    let _ = std::fs::remove_dir_all(&dir);
    complete.then_some(Oracle {
        states,
        write_points,
    })
}

/// Sweeps one crash point: run until the fault kills the server, recover,
/// resume, retry, finish, and compare against the oracle.
fn sweep_point(
    script: &Script,
    oracle: &Oracle,
    k: u64,
    fault: DurableFault,
    report: &mut CrashReport,
    here: &dyn Fn(&str) -> String,
) {
    let dir = fresh_dir(&format!("k{k}"));
    let plan = FaultPlan::builder().durable_fault(k, fault).build();
    let server = Server::new(durable_config(&dir, plan));
    let mut client = InProcClient::connect(&server);
    let mut states = vec![TenantState::default(); script.tenants];
    let mut cursor = run_ops(&mut client, script, &mut states, 0);
    drop(client);
    drop(server);

    // Recover a fresh server from the same durable root, fault-free.
    let recovered = Server::recover(durable_config(&dir, FaultPlan::none()));
    report.recoveries += 1;
    // Every injected fault latches the store into its crashed state, which
    // fires the flight-recorder dump on the dying server. Recovery must
    // surface a decodable dump that ends with the `dump` marker.
    match recovered.last_crash_trace() {
        Some(text) => {
            let mut decoded = 0u64;
            let mut last_name = String::new();
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                match Json::parse(line) {
                    Ok(ev) => match ev.get("name").and_then(Json::as_str) {
                        Some(name) => {
                            decoded += 1;
                            last_name = name.to_string();
                        }
                        None => report.violations.push(here(&format!(
                            "k={k} {fault:?}: flight record without a name: {ev}"
                        ))),
                    },
                    Err(e) => report.violations.push(here(&format!(
                        "k={k} {fault:?}: undecodable flight record: {e}"
                    ))),
                }
            }
            if decoded == 0 {
                report
                    .violations
                    .push(here(&format!("k={k} {fault:?}: flight dump was empty")));
            } else if last_name != "dump" {
                report.violations.push(here(&format!(
                    "k={k} {fault:?}: flight dump tail is {last_name:?}, not the dump marker"
                )));
            }
            report.flight_records += decoded;
        }
        None => report.violations.push(here(&format!(
            "k={k} {fault:?}: no last-crash.trace.jsonl after injected crash"
        ))),
    }
    let mut client = InProcClient::connect(&recovered);
    let here_k = |s: &str| here(&format!("k={k} {fault:?}: {s}"));
    // The tenant whose close the crash interrupted, if it did.
    let closing = match script.ops.get(cursor) {
        Some((t, Op::Close)) => Some(*t),
        _ => None,
    };
    for (t, state) in states.iter_mut().enumerate() {
        let Some(id) = state.session else {
            continue; // crashed before this tenant's open; retried below
        };
        if state.closed {
            assert_gone(&mut client, &dir, t, state, report, &here_k);
            continue;
        }
        match client.raw(&Request::Resume {
            session: id,
            token: state.token,
        }) {
            Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => {
                report.resumes += 1;
            }
            // The unacknowledged close took effect before the crash: the
            // session is gone, so the script moves past the close.
            Ok(_) if closing == Some(t) => {
                state.closed = true;
                cursor += 1;
                assert_gone(&mut client, &dir, t, state, report, &here_k);
                continue;
            }
            Ok(r) => report.violations.push(here(&format!(
                "k={k} {fault:?}: tenant {t} resume rejected: {r}"
            ))),
            Err(e) => report.violations.push(here(&format!(
                "k={k} {fault:?}: tenant {t} resume failed: {e}"
            ))),
        }
        if closing == Some(t) {
            // Still here after an unacknowledged close: it must hold the
            // oracle's pre-close state (the close follows its last run).
            let expected = oracle.states[t].ticks & 0xffff;
            let got = client
                .raw(&Request::Probe {
                    session: id,
                    port: "cnt".to_string(),
                })
                .ok()
                .and_then(|r| r.get("value").and_then(Json::as_u64));
            if got != Some(expected) {
                report.violations.push(here_k(&format!(
                    "tenant {t} holds cnt {got:?} after an unacknowledged close, \
                     not the pre-close {expected}"
                )));
            }
        }
        // Exactly-once dedup: re-sending the last acknowledged seq must
        // return the stored reply verbatim, not re-execute.
        if let Some((op, acked_reply)) = state.last_acked.clone() {
            match client.raw(&op_request(id, &op)) {
                Ok(r) => {
                    if r.to_string() != acked_reply {
                        report.violations.push(here(&format!(
                            "k={k} {fault:?}: tenant {t} dedup reply diverged:\n  \
                             acked: {acked_reply}\n  retry: {r}"
                        )));
                    }
                }
                Err(e) => report.violations.push(here(&format!(
                    "k={k} {fault:?}: tenant {t} dedup retry failed: {e}"
                ))),
            }
        }
    }
    // Finish the script from the unacknowledged op (same sequence
    // numbers, so a command that secretly survived would be deduped, and
    // one that didn't is executed exactly once).
    let done = run_ops(&mut client, script, &mut states, cursor);
    if done != script.ops.len() {
        report.violations.push(here(&format!(
            "k={k} {fault:?}: recovered run failed at op {done}"
        )));
    }

    // Compare every tenant against the never-crashed oracle.
    for (t, (state, want)) in states.iter().zip(&oracle.states).enumerate() {
        if state.ticks != want.ticks {
            report.violations.push(here(&format!(
                "k={k} {fault:?}: tenant {t} acked ticks {} != oracle {}",
                state.ticks, want.ticks
            )));
        }
        if state.lines != want.lines {
            report.violations.push(here(&format!(
                "k={k} {fault:?}: tenant {t} transcript diverged after {} ticks \
                 ({} lines vs oracle {})",
                state.ticks,
                state.lines.len(),
                want.lines.len()
            )));
        }
        if state.fifo_accepted != want.fifo_accepted {
            report.violations.push(here(&format!(
                "k={k} {fault:?}: tenant {t} fifo accepted {} != oracle {}",
                state.fifo_accepted, want.fifo_accepted
            )));
        }
        let Some(id) = state.session else {
            report
                .violations
                .push(here(&format!("k={k} {fault:?}: tenant {t} never opened")));
            continue;
        };
        if want.closed {
            if !state.closed {
                report
                    .violations
                    .push(here_k(&format!("tenant {t} never closed")));
            }
            assert_gone(&mut client, &dir, t, state, report, &here_k);
            continue;
        }
        let expected = want.ticks & 0xffff; // step 1
        match client.raw(&Request::Probe {
            session: id,
            port: "cnt".to_string(),
        }) {
            Ok(r) => {
                let got = r.get("value").and_then(Json::as_u64);
                if got != Some(expected) {
                    report.violations.push(here(&format!(
                        "k={k} {fault:?}: tenant {t} cnt {:?} != expected {expected}",
                        got
                    )));
                }
            }
            Err(e) => report.violations.push(here(&format!(
                "k={k} {fault:?}: tenant {t} probe failed: {e}"
            ))),
        }
    }
    report.replayed_records += server_stat(&recovered, "recovery_replayed");
    report.quarantined += server_stat(&recovered, "recovery_quarantined");
    report.warm_hits += server_stat(&recovered, "warm_bitstream_hits");
    report.crash_points += 1;
    drop(client);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The graceful half: drain → recover must keep `serve_*_total` counters
/// monotone (baselines persisted in `server.meta`) and resume cleanly.
fn graceful_pass(script: &Script, report: &mut CrashReport, here: &dyn Fn(&str) -> String) {
    let dir = fresh_dir("drain");
    let server = Server::new(durable_config(&dir, FaultPlan::none()));
    let mut client = InProcClient::connect(&server);
    let mut states = vec![TenantState::default(); script.tenants];
    if run_ops(&mut client, script, &mut states, 0) != script.ops.len() {
        report.violations.push(here("graceful pass failed"));
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let before = client
        .server_metrics()
        .map(|t| monotone_counters(&t))
        .unwrap_or_default();
    match client.drain_server() {
        Ok((flushed, _)) => {
            if flushed == 0 {
                report.violations.push(here("drain flushed nothing"));
            }
        }
        Err(e) => report.violations.push(here(&format!("drain failed: {e}"))),
    }
    drop(client);
    drop(server);

    let recovered = Server::recover(durable_config(&dir, FaultPlan::none()));
    report.recoveries += 1;
    let mut client = InProcClient::connect(&recovered);
    let after = client
        .server_metrics()
        .map(|t| monotone_counters(&t))
        .unwrap_or_default();
    for (name, was) in &before {
        match after.iter().find(|(n, _)| n == name) {
            Some((_, now)) if now < was => report.violations.push(here(&format!(
                "counter {name} went backwards across drain/recover: {was} -> {now}"
            ))),
            None => report.violations.push(here(&format!(
                "counter {name} vanished across drain/recover"
            ))),
            _ => {}
        }
    }
    // Every tenant must resume and still hold its acknowledged state.
    for (t, state) in states.iter().enumerate() {
        let Some(id) = state.session else { continue };
        if state.closed {
            assert_gone(&mut client, &dir, t, state, report, here);
            continue;
        }
        let resumed = client
            .raw(&Request::Resume {
                session: id,
                token: state.token,
            })
            .ok()
            .and_then(|r| r.get("ok").and_then(Json::as_bool))
            == Some(true);
        if !resumed {
            report
                .violations
                .push(here(&format!("tenant {t} failed to resume after drain")));
            continue;
        }
        report.resumes += 1;
        let expected = state.ticks & 0xffff;
        let got = client
            .raw(&Request::Probe {
                session: id,
                port: "cnt".to_string(),
            })
            .ok()
            .and_then(|r| r.get("value").and_then(Json::as_u64));
        if got != Some(expected) {
            report.violations.push(here(&format!(
                "tenant {t} cnt {got:?} != {expected} after drain/recover"
            )));
        }
    }
    report.warm_hits += server_stat(&recovered, "warm_bitstream_hits");
    drop(client);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

const FAULT_CYCLE: [DurableFault; 4] = [
    DurableFault::Crash,
    DurableFault::TornWrite,
    DurableFault::PartialWrite,
    DurableFault::LostFsync,
];

/// Runs the full crash campaign described by `cfg`.
pub fn run_crash(cfg: &CrashConfig) -> CrashReport {
    let mut report = CrashReport::default();
    for i in 0..cfg.seeds.max(1) {
        let seed = cfg.seed.wrapping_add(i as u64);
        let script = generate_script(seed, cfg.tenants, cfg.bursts);
        let here = move |s: &str| format!("seed {seed}: {s}");
        let Some(oracle) = run_oracle(&script, &mut report, &here) else {
            continue;
        };
        report.write_points += oracle.write_points;
        let points = if cfg.max_points == 0 {
            oracle.write_points
        } else {
            oracle.write_points.min(cfg.max_points as u64)
        };
        for k in 1..=points {
            let fault = FAULT_CYCLE[(k as usize - 1) % FAULT_CYCLE.len()];
            sweep_point(&script, &oracle, k, fault, &mut report, &here);
        }
        graceful_pass(&script, &mut report, &here);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bounded sweep must hold every invariant at every crash point.
    #[test]
    fn bounded_crash_sweep_is_clean() {
        let cfg = CrashConfig {
            seed: 11,
            seeds: 1,
            max_points: 6,
            tenants: 2,
            bursts: 2,
        };
        let report = run_crash(&cfg);
        assert!(
            report.violations.is_empty(),
            "crash violations:\n{}",
            report.violations.join("\n")
        );
        assert_eq!(report.crash_points, 6);
        assert!(report.write_points >= 6, "script too small to sweep");
        assert!(report.recoveries >= 7, "every point + graceful recovers");
        assert!(report.resumes > 0, "no tenant ever resumed");
        assert!(report.flight_records > 0, "no flight dump ever decoded");
    }

    /// The write-point count is stable for a fixed script — the sweep
    /// covers the same points on every run.
    #[test]
    fn write_point_count_is_deterministic() {
        let script = generate_script(5, 2, 2);
        let mut r1 = CrashReport::default();
        let mut r2 = CrashReport::default();
        let here = |s: &str| s.to_string();
        let a = run_oracle(&script, &mut r1, &here).expect("oracle");
        let b = run_oracle(&script, &mut r2, &here).expect("oracle");
        assert_eq!(a.write_points, b.write_points);
        assert!(a.write_points > 0);
    }
}
