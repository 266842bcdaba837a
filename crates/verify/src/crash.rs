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
//! One more restart per seed goes down gracefully instead (drain →
//! recover) and passes the same checks, plus **counter monotonicity**:
//! it must never make a `serve_*_total` counter go backwards (crash
//! restarts only guarantee the journaled lower bound).
//!
//! The write-point count comes from a clean pass under an armed-but-
//! never-firing plan ([`FaultPlan::durable_consults`]), so the sweep
//! covers every durable write the script performs — no hand-maintained
//! list to go stale.

use crate::campaign::{self, Campaign, Outcome};
use crate::script::{
    acked, monotone_counters, monotone_violation, op_request, probe_cnt, run_ops, serve_config,
    server_stat, tenant_source, Op, Script, TenantState,
};
use cascade_fpga::{DurableFault, FaultPlan};
use cascade_serve::{InProcClient, Json, Request, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// The crash script: every tenant opens and loads a counter that prints,
/// then rounds of sometimes-FIFO, run and sometimes-drain; tenant 0
/// closes after its last drain.
fn generate_script(seed: u64, tenants: u32, bursts: u32) -> Script {
    let mut rng = cascade_bits::Prng::new(seed ^ 0xC4A5);
    let tenants = tenants.max(1) as usize;
    let mut ops = Vec::new();
    let mut seqs = vec![0u64; tenants];
    // Appends tenant `t`'s next sequenced op.
    let mut push = |ops: &mut Vec<(usize, Op)>, t: usize, op: &dyn Fn(u64) -> Op| {
        seqs[t] += 1;
        ops.push((t, op(seqs[t])));
    };
    for t in 0..tenants {
        ops.push((t, Op::Open));
        // Tenants count in ones so every display firing pattern shows up
        // in the transcript (same convention as the chaos soak).
        for line in tenant_source(1, true) {
            push(&mut ops, t, &|s| Op::Eval(line.clone(), s));
        }
    }
    for round in 0..bursts.max(1) {
        for t in 0..tenants {
            if rng.chance(1, 3) {
                let words: Vec<u64> = (0..3).map(|i| (t as u64) << 8 | i).collect();
                push(&mut ops, t, &|s| Op::Fifo(8, words.clone(), s));
            }
            let burst = 4 + rng.below(20);
            push(&mut ops, t, &|s| Op::Run(burst, s));
            if round % 2 == 1 || rng.chance(1, 2) {
                push(&mut ops, t, &Op::Drain);
            }
        }
    }
    for t in 0..tenants {
        push(&mut ops, t, &Op::Drain);
        // The first tenant leaves once drained, before the others' last
        // drains, so crash points follow its close as well as precede it.
        if t == 0 {
            ops.push((t, Op::Close));
        }
    }
    Script {
        ops,
        steps: vec![1; tenants],
    }
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

/// Asks to resume tenant `state`'s session `id`.
fn resume(client: &mut InProcClient, id: u64, state: &TenantState) -> Result<Json, String> {
    let token = state.token;
    client.raw(&Request::Resume { session: id, token })
}

/// Checks that a closed tenant left nothing behind.
fn assert_gone(
    client: &mut InProcClient,
    dir: &Path,
    t: usize,
    state: &TenantState,
    flag: &mut dyn FnMut(String),
) {
    let Some(id) = state.session else { return };
    if resume(client, id, state).is_ok_and(|r| acked(&r)) {
        flag(format!("tenant {t} resumed after its close"));
    }
    if journal_left(dir, id) {
        flag(format!("tenant {t} left a journal after its close"));
    }
}

fn durable_config(dir: &Path, faults: FaultPlan) -> ServeConfig {
    let mut c = serve_config(1, 2, faults);
    // Idle-driven hibernation off: the sweep needs a deterministic
    // durable-write sequence, and spills would add timing-dependent
    // write points. (Spill crash-safety has its own integration tests.)
    c.hibernate_after_s = 0.0;
    c.max_live_sessions = 0;
    c.idle_timeout_s = 3600.0;
    c.durable_dir = Some(dir.to_string_lossy().into_owned());
    c
}

/// A durable root of its own: the pid keeps processes apart and the
/// counter keeps apart the sweeps that run on threads of one process.
fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let name = format!("cascade-crash-{}-{n}-{tag}", std::process::id());
    let d = std::env::temp_dir().join(name);
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
    let mut states = vec![TenantState::default(); script.steps.len()];
    let done = run_ops(&mut client, script, &mut states, 0);
    let complete = done == script.ops.len();
    if !complete {
        let v = here(&format!("oracle pass failed at op {done}"));
        report.violations.push(v);
    }
    drop(server);
    let write_points = plan.durable_consults();
    let _ = std::fs::remove_dir_all(&dir);
    complete.then_some(Oracle {
        states,
        write_points,
    })
}

/// Takes a durable server down mid-script and checks what recovery
/// hands back. With `crash = Some((k, fault))` the fault fires at the
/// `k`-th durable write; with `None` the whole script runs and the
/// server drains gracefully. Either way a fresh server recovers from the
/// same root, every tenant resumes by id + token, the unacknowledged
/// command is retried and the script finished, and every tenant is
/// compared with the never-crashed oracle.
fn restart(
    script: &Script,
    oracle: &Oracle,
    crash: Option<(u64, DurableFault)>,
    report: &mut CrashReport,
    here: &dyn Fn(&str) -> String,
) {
    let at = crash.map_or("drain/recover".into(), |(k, fault)| {
        format!("k={k} {fault:?}")
    });
    let mut found = Vec::new();
    let mut flag = |s: String| found.push(here(&format!("{at}: {s}")));
    let dir = fresh_dir(&crash.map_or("drain".into(), |(k, _)| format!("k{k}")));
    let plan = crash.map_or_else(FaultPlan::none, |(k, fault)| {
        FaultPlan::builder().durable_fault(k, fault).build()
    });
    let server = Server::new(durable_config(&dir, plan));
    let mut client = InProcClient::connect(&server);
    let mut states = vec![TenantState::default(); script.steps.len()];
    let mut cursor = run_ops(&mut client, script, &mut states, 0);
    let counters = |client: &mut InProcClient| {
        let text = client.server_metrics().unwrap_or_default();
        monotone_counters(&text)
    };
    // The graceful way down flushes every session durably; the counters
    // it leaves must come back no lower (baselines in `server.meta`).
    let before = if crash.is_some() {
        Vec::new()
    } else {
        let before = counters(&mut client);
        match client.drain_server() {
            Ok((0, _)) => flag("drain flushed nothing".into()),
            Ok(_) => {}
            Err(e) => flag(format!("drain failed: {e}")),
        }
        before
    };
    drop(client);
    drop(server);

    // Recover a fresh server from the same durable root, fault-free.
    let recovered = Server::recover(durable_config(&dir, FaultPlan::none()));
    report.recoveries += 1;
    let mut client = InProcClient::connect(&recovered);
    if crash.is_some() {
        // Every injected fault latches the store into its crashed state,
        // which fires the flight-recorder dump on the dying server.
        // Recovery must surface a decodable dump that ends with the
        // `dump` marker.
        let text = recovered.last_crash_trace().unwrap_or_default();
        let mut last_name = None;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match Json::parse(line) {
                Ok(ev) => match ev.get("name").and_then(Json::as_str) {
                    Some(name) => {
                        report.flight_records += 1;
                        last_name = Some(name.to_string());
                    }
                    None => flag(format!("flight record without a name: {ev}")),
                },
                Err(e) => flag(format!("undecodable flight record: {e}")),
            }
        }
        match last_name.as_deref() {
            None => flag("no flight records in last-crash.trace.jsonl".into()),
            Some("dump") => {}
            Some(tail) => flag(format!("flight dump tail is {tail:?}, not the dump marker")),
        }
    } else if let Some(v) = monotone_violation(&before, &counters(&mut client)) {
        flag(v);
    }
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
            assert_gone(&mut client, &dir, t, state, &mut flag);
            continue;
        }
        match resume(&mut client, id, state) {
            Ok(r) if acked(&r) => report.resumes += 1,
            // The unacknowledged close took effect before the crash: the
            // session is gone, so the script moves past the close.
            Ok(_) if closing == Some(t) => {
                state.closed = true;
                cursor += 1;
                assert_gone(&mut client, &dir, t, state, &mut flag);
                continue;
            }
            Ok(r) => flag(format!("tenant {t} resume rejected: {r}")),
            Err(e) => flag(format!("tenant {t} resume failed: {e}")),
        }
        if closing == Some(t) {
            // Still here after an unacknowledged close: it must hold the
            // oracle's pre-close state (the close follows its last run).
            let expected = script.cnt(t, oracle.states[t].ticks);
            let got = probe_cnt(&mut client, id);
            if got != Some(expected) {
                flag(format!(
                    "tenant {t} holds cnt {got:?} after an unacknowledged close, \
                     not the pre-close {expected}"
                ));
            }
        }
        // Exactly-once dedup: re-sending the last acknowledged seq must
        // return the stored reply verbatim, not re-execute.
        if let Some((op, acked_reply)) = &state.last_acked {
            match client.raw(&op_request(id, op)) {
                Ok(r) if r.to_string() != *acked_reply => flag(format!(
                    "tenant {t} dedup reply diverged:\n  acked: {acked_reply}\n  retry: {r}"
                )),
                Ok(_) => {}
                Err(e) => flag(format!("tenant {t} dedup retry failed: {e}")),
            }
        }
    }
    // Finish the script from the unacknowledged op (same sequence
    // numbers, so a command that secretly survived would be deduped, and
    // one that didn't is executed exactly once).
    let done = run_ops(&mut client, script, &mut states, cursor);
    if done != script.ops.len() {
        flag(format!("recovered run failed at op {done}"));
    }

    // Compare every tenant against the never-crashed oracle.
    for (t, (state, want)) in states.iter().zip(&oracle.states).enumerate() {
        let (ticks, lines) = (state.ticks, state.lines.len());
        if ticks != want.ticks {
            flag(format!(
                "tenant {t} acked ticks {ticks} != oracle {}",
                want.ticks
            ));
        }
        if state.lines != want.lines {
            flag(format!(
                "tenant {t} transcript diverged after {ticks} ticks ({lines} lines vs oracle {})",
                want.lines.len()
            ));
        }
        if state.fifo_accepted != want.fifo_accepted {
            flag(format!(
                "tenant {t} fifo accepted {} != oracle {}",
                state.fifo_accepted, want.fifo_accepted
            ));
        }
        let Some(id) = state.session else {
            flag(format!("tenant {t} never opened"));
            continue;
        };
        if want.closed {
            if !state.closed {
                flag(format!("tenant {t} never closed"));
            }
            assert_gone(&mut client, &dir, t, state, &mut flag);
            continue;
        }
        let expected = script.cnt(t, want.ticks);
        let got = probe_cnt(&mut client, id);
        if got != Some(expected) {
            flag(format!("tenant {t} cnt {got:?} != expected {expected}"));
        }
    }
    report.violations.append(&mut found);
    if crash.is_some() {
        report.replayed_records += server_stat(&recovered, "recovery_replayed");
        report.quarantined += server_stat(&recovered, "recovery_quarantined");
        report.crash_points += 1;
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

/// The crash campaign: one case is one seed's script, swept at every
/// durable write point.
pub struct Crash {
    cfg: CrashConfig,
    report: CrashReport,
}

impl Crash {
    pub fn new(cfg: CrashConfig) -> Crash {
        Crash {
            cfg,
            report: CrashReport::default(),
        }
    }
}

impl Campaign for Crash {
    type Case = (u64, Script);
    type Finding = String;
    /// Each candidate would cost a sweep of every write point; the
    /// findings name the seed and the point instead.
    const SHRINK: bool = false;

    fn budget(&self) -> (u32, u32) {
        let seeds = self.cfg.seeds.max(1);
        (seeds, seeds)
    }

    fn generate(&mut self, attempt: u32) -> (u64, Script) {
        let seed = self.cfg.seed.wrapping_add(u64::from(attempt));
        (
            seed,
            generate_script(seed, self.cfg.tenants, self.cfg.bursts),
        )
    }

    /// Every run is counted: the crash campaign does not shrink.
    fn run(&mut self, (seed, script): &(u64, Script), _: bool) -> Outcome<Vec<String>> {
        let report = &mut self.report;
        let before = report.violations.len();
        let here = |s: &str| format!("seed {seed}: {s}");
        if let Some(oracle) = run_oracle(script, report, &here) {
            report.write_points += oracle.write_points;
            let points = match self.cfg.max_points {
                0 => oracle.write_points,
                max => oracle.write_points.min(u64::from(max)),
            };
            for k in 1..=points {
                let fault = FAULT_CYCLE[(k as usize - 1) % FAULT_CYCLE.len()];
                restart(script, &oracle, Some((k, fault)), report, &here);
            }
            restart(script, &oracle, None, report, &here);
        }
        let found = report.violations.split_off(before);
        if found.is_empty() {
            Outcome::Pass
        } else {
            Outcome::Fail(found)
        }
    }

    fn record(&mut self, _: (u64, Script), findings: Vec<String>) {
        self.report.violations.extend(findings);
    }

    fn vacuous(&self) -> Option<&'static str> {
        (self.report.crash_points == 0).then_some("no crash point was swept")
    }

    fn report(&self, secs: f64) -> String {
        let r = &self.report;
        let mut out = format!(
            "crash: {} crash points / {} write points across {} seeds in {secs:.2}s | \
             {} recoveries, {} resumes, {} records replayed, {} quarantined, {} warm hits\n",
            r.crash_points,
            r.write_points,
            self.cfg.seeds,
            r.recoveries,
            r.resumes,
            r.replayed_records,
            r.quarantined,
            r.warm_hits
        );
        out.extend(r.violations.iter().map(|v| format!("  VIOLATION {v}\n")));
        out
    }
}

/// Runs the full crash campaign described by `cfg`.
pub fn run_crash(cfg: &CrashConfig) -> CrashReport {
    let mut crash = Crash::new(cfg.clone());
    campaign::run(&mut crash);
    crash.report
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
