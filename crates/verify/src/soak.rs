//! Chaos soak testing of the serving stack.
//!
//! [`run_soak`] replays thousands of generated serve-session scripts
//! against in-process [`Server`]s built from a matrix of scheduler /
//! fleet / hibernation configurations, every one of them under a seeded
//! [`FaultPlan::random`] schedule. Tenants run in interleaved bursts (so
//! the work-stealing shards and the lease arbiter actually contend), and
//! the harness checks trace-derived invariants rather than exact timing:
//!
//! - **No lost ticks**: every `run` serves exactly the ticks requested,
//!   and the architectural counter lands on `ticks * step mod 2^16`.
//! - **Transcript byte-identity**: a `$display`-bearing tenant's output
//!   across faults, hibernation, and promotion equals a never-faulted
//!   solo [`Runtime`] oracle's, byte for byte.
//! - **Monotone metrics**: server-level `serve_*_total` counters never
//!   decrease between samples. (Session-registry sums may legitimately
//!   drop when tenants hibernate, so only server-level counters qualify.)
//! - **Lease accounting**: revocations never exceed grants.
//! - **Hibernation hygiene**: zero wake failures and zero dropped output
//!   lines anywhere in the run.
//!
//! Violations are collected, not panicked, so one bad batch reports every
//! broken invariant at once; the [`campaign`] engine then shrinks the
//! batch's script to the shortest one that still breaks the first of
//! them, and reports that script as the repro.

use crate::campaign::{self, Campaign, Outcome};
use crate::script::{
    monotone_counters, monotone_violation, probe_cnt, send, serve_config, server_stat,
    tenant_source, Op, Script, TenantState,
};
use cascade_bits::Prng;
use cascade_core::{JitConfig, Runtime};
use cascade_fpga::{ArbiterConfig, Board, FaultPlan};
use cascade_serve::{InProcClient, Json, ServeConfig, Server};

/// Soak campaign parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master seed; every batch, tenant, and fault schedule derives from it.
    pub seed: u64,
    /// Total serve sessions to replay across the whole campaign.
    pub sessions: u32,
    /// Sessions sharing one server instance (one batch = one server).
    pub batch: u32,
    /// Maximum ticks per run burst.
    pub max_burst: u32,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            seed: 1,
            sessions: 64,
            batch: 16,
            max_burst: 40,
        }
    }
}

/// Aggregate results of a soak campaign.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// Sessions fully replayed.
    pub sessions: u64,
    /// Ticks served across all tenants.
    pub ticks: u64,
    /// `$display` lines collected (and oracle-checked).
    pub display_lines: u64,
    /// Ticks the solo oracles ran inside their software engine (the plane
    /// batch) rather than on the scheduler's walk.
    pub batched_ticks: u64,
    /// Faults the schedules actually injected.
    pub faults_injected: u64,
    /// Hibernate transitions observed server-side.
    pub hibernates: u64,
    /// Server batches (distinct configurations × fault schedules) run.
    pub batches: u64,
    /// Every invariant violation found; empty means a clean campaign.
    pub violations: Vec<String>,
}

/// One point in the configuration matrix.
#[derive(Debug, Clone, Copy)]
struct MatrixPoint {
    fabrics: usize,
    workers: usize,
    eager: bool,
    /// `None` = hibernation off; `Some(true)` = sweeper-driven;
    /// `Some(false)` = explicit client `hibernate` commands.
    hibernate: Option<bool>,
}

/// Eight canonical corners: software-only through contended two-fabric
/// fleets, single-shard through four-shard schedulers, both arbiters,
/// and all three hibernation modes.
#[rustfmt::skip]
const MATRIX: [MatrixPoint; 8] = [
    MatrixPoint { fabrics: 0, workers: 1, eager: false, hibernate: Some(false) },
    MatrixPoint { fabrics: 1, workers: 2, eager: true, hibernate: Some(false) },
    MatrixPoint { fabrics: 2, workers: 4, eager: false, hibernate: Some(true) },
    MatrixPoint { fabrics: 1, workers: 1, eager: true, hibernate: None },
    MatrixPoint { fabrics: 0, workers: 4, eager: false, hibernate: Some(true) },
    MatrixPoint { fabrics: 2, workers: 2, eager: true, hibernate: Some(false) },
    MatrixPoint { fabrics: 1, workers: 4, eager: false, hibernate: Some(false) },
    MatrixPoint { fabrics: 2, workers: 1, eager: false, hibernate: None },
];

fn server_config(point: MatrixPoint, faults: FaultPlan) -> ServeConfig {
    let mut c = serve_config(point.fabrics, point.workers, faults);
    if point.eager {
        c.arbiter = ArbiterConfig::eager();
    }
    match point.hibernate {
        Some(true) => {
            c.hibernate_after_s = 0.05;
            c.max_live_sessions = 8;
            c.hibernate_mem_bytes = 64 << 10;
        }
        Some(false) | None => c.hibernate_after_s = 0.0,
    }
    c
}

/// Generates batch `batch`'s script of `count` tenants. Each tenant opens
/// and loads its counter; then the tenants take turns in rounds (run a
/// burst, drain, and under explicit hibernation sometimes hibernate), so
/// the shards, the compile pool and the arbiter all see real contention.
fn generate_script(cfg: &SoakConfig, batch: u32, count: u32) -> Script {
    let explicit_hibernate = MATRIX[batch as usize % MATRIX.len()].hibernate == Some(false);
    let mut script = Script {
        ops: Vec::new(),
        steps: Vec::new(),
    };
    let mut turns = Vec::new();
    for t in 0..count as usize {
        let mut rng = Prng::new(cfg.seed ^ (u64::from(batch) << 32) ^ t as u64);
        let step = 1 + rng.below(5);
        let display = rng.chance(1, 2);
        // Display tenants count in ones so the oracle transcript is
        // exercised on the densest firing pattern.
        let step = if display { 1 } else { step };
        script.steps.push(step);
        script.ops.push((t, Op::Open));
        let src = tenant_source(step, display).into_iter();
        script.ops.extend(src.map(|line| (t, Op::Eval(line, 0))));
        let bursts = 2 + rng.below(4);
        let turn = |_| {
            let burst = 1 + rng.below(u64::from(cfg.max_burst) - 1);
            (burst, explicit_hibernate && rng.chance(1, 3))
        };
        turns.push((0..bursts).map(turn).collect::<Vec<_>>());
    }
    for round in 0..turns.iter().map(Vec::len).max().unwrap_or(0) {
        let mut last = 0;
        for (t, turn) in turns.iter().enumerate() {
            let Some(&(burst, hibernate)) = turn.get(round) else {
                continue;
            };
            script.ops.push((t, Op::Run(burst, 0)));
            script.ops.push((t, Op::Drain(0)));
            if hibernate {
                script.ops.push((t, Op::Hibernate));
            }
            last = t;
        }
        script.ops.push((last, Op::Metrics));
    }
    script
}

/// Replays batch `batch`'s script against a fresh server, adding its
/// counts to `report`; returns every invariant it broke.
fn run_batch(seed: u64, batch: u32, script: &Script, report: &mut SoakReport) -> Vec<String> {
    let point = MATRIX[batch as usize % MATRIX.len()];
    let faults = FaultPlan::random(seed ^ (0x50AC << 16) ^ u64::from(batch));
    let server = Server::new(server_config(point, faults.clone()));
    let mut found = Vec::new();
    let mut flag = |s: String| found.push(format!("batch {batch} ({point:?}): {s}"));

    // Every command is served in full and drops no output, and no
    // server counter ever goes backwards between two metrics reads.
    let mut client = InProcClient::connect(&server);
    let mut states = vec![TenantState::default(); script.steps.len()];
    let mut counters = Vec::new();
    for (t, op) in &script.ops {
        let reply = match send(&mut client, &mut states[*t], op) {
            Ok(reply) => reply,
            Err(e) => {
                flag(format!("tenant {t}: {op:?} failed: {e}"));
                break;
            }
        };
        let count = |key| reply.get(key).and_then(Json::as_u64).unwrap_or(0);
        let (served, dropped) = (count("ticks"), count("dropped"));
        match op {
            Op::Run(asked, _) if served != *asked => {
                flag(format!(
                    "tenant {t}: lost ticks: asked {asked}, served {served}"
                ));
            }
            Op::Drain(_) if dropped != 0 => {
                flag(format!("tenant {t}: dropped {dropped} output lines"));
            }
            Op::Metrics => {
                let now = monotone_counters(reply.get("text").and_then(Json::as_str).unwrap_or(""));
                if let Some(m) = monotone_violation(&counters, &now) {
                    flag(m);
                }
                counters = now;
            }
            _ => {}
        }
    }

    // Per-tenant closing checks: architectural counter and transcript.
    for (t, state) in states.iter().enumerate() {
        let (ticks, expected) = (state.ticks, script.cnt(t, state.ticks));
        let cnt = state.session.and_then(|id| probe_cnt(&mut client, id));
        if cnt != Some(expected) {
            let step = script.steps[t];
            flag(format!(
                "tenant {t}: cnt invariant: {ticks} ticks * step {step} -> expected {expected}, got {cnt:?}"
            ));
        }
        let src = script.source(t);
        if src.contains("$display") {
            let mut jit = JitConfig::default();
            jit.toolchain.time_scale = 1e-6;
            match Runtime::new(Board::new(), jit) {
                Ok(mut oracle) => {
                    let ok = oracle.eval(&src).is_ok() && oracle.run_ticks(ticks).is_ok();
                    report.batched_ticks += oracle.data_plane_batched_ticks();
                    if !ok {
                        flag(format!("tenant {t}: oracle failed"));
                    } else if state.lines != oracle.drain_output() {
                        flag(format!(
                            "tenant {t}: transcript diverged from solo oracle after {ticks} ticks"
                        ));
                    }
                }
                Err(e) => flag(format!("tenant {t}: oracle: {e}")),
            }
        }
        report.sessions += 1;
        report.ticks += ticks;
        report.display_lines += state.lines.len() as u64;
    }

    // Server-wide accounting invariants.
    let stat = |key| server_stat(&server, key);
    for key in ["wake_failures", "output_dropped"] {
        if stat(key) != 0 {
            flag(format!("{key} != 0"));
        }
    }
    let (grants, revocations) = (stat("fabric_grants"), stat("fabric_revocations"));
    if revocations > grants {
        flag(format!(
            "lease accounting: {revocations} revocations > {grants} grants"
        ));
    }
    report.hibernates += stat("hibernates");
    report.faults_injected += faults.injected();
    report.batches += 1;
    found
}

/// The soak campaign: one case is one batch of tenants on one server.
pub struct Soak {
    cfg: SoakConfig,
    report: SoakReport,
}

impl Soak {
    pub fn new(cfg: SoakConfig) -> Soak {
        Soak {
            cfg,
            report: SoakReport::default(),
        }
    }
}

impl Campaign for Soak {
    type Case = (u32, Script);
    type Finding = String;

    fn budget(&self) -> (u32, u32) {
        let batches = self.cfg.sessions.div_ceil(self.cfg.batch.max(1));
        (batches, batches)
    }

    fn generate(&mut self, batch: u32) -> (u32, Script) {
        let size = self.cfg.batch.max(1);
        let count = size.min(self.cfg.sessions - batch * size);
        (batch, generate_script(&self.cfg, batch, count))
    }

    fn run(&mut self, (batch, script): &(u32, Script), counted: bool) -> Outcome<Vec<String>> {
        let mut scratch = SoakReport::default();
        let report = if counted {
            &mut self.report
        } else {
            &mut scratch
        };
        let found = run_batch(self.cfg.seed, *batch, script, report);
        if found.is_empty() {
            Outcome::Pass
        } else {
            Outcome::Fail(found)
        }
    }

    /// The shrunk script, printed in the report, is the repro.
    fn record(&mut self, (batch, script): (u32, Script), findings: Vec<String>) {
        self.report.violations.extend(findings);
        let repro = format!("batch {batch} repro: {script}");
        self.report.violations.push(repro);
    }

    /// A display tenant's software phase is a software plane: none of it
    /// batched means the plane batch stopped being the path.
    fn vacuous(&self) -> Option<&'static str> {
        let none = self.report.batched_ticks == 0;
        none.then_some("no oracle tick ran inside the software engine")
    }

    fn report(&self, secs: f64) -> String {
        let r = &self.report;
        let mut out = format!(
            "soak: {} sessions / {} batches in {secs:.2}s ({:.1}/s) | {} ticks, \
             {} display lines, {} hibernates, {} faults injected, {} oracle ticks batched\n",
            r.sessions,
            r.batches,
            r.sessions as f64 / secs.max(1e-9),
            r.ticks,
            r.display_lines,
            r.hibernates,
            r.faults_injected,
            r.batched_ticks
        );
        out.extend(r.violations.iter().map(|v| format!("  VIOLATION {v}\n")));
        out
    }
}

/// Runs the full soak campaign described by `cfg`.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let mut soak = Soak::new(cfg.clone());
    campaign::run(&mut soak);
    soak.report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bounded sweep over the config matrix must replay cleanly: every
    /// invariant holds on every tenant under every fault schedule.
    #[test]
    fn small_matrix_soak_is_clean() {
        let cfg = SoakConfig {
            seed: 7,
            sessions: 24,
            batch: 8,
            max_burst: 24,
        };
        let report = run_soak(&cfg);
        assert!(
            report.violations.is_empty(),
            "soak violations:\n{}",
            report.violations.join("\n")
        );
        assert_eq!(report.sessions, 24);
        assert_eq!(report.batches, 3);
        assert!(report.ticks > 0);
        assert!(report.display_lines > 0, "no display tenant fired");
    }

    /// Mutation testing of the soak campaign: with the script runner
    /// seeded to under-count a run that follows a hibernate, the campaign
    /// fails, and the failing batch shrinks to the five commands the bug
    /// needs (open, the counter's two lines, hibernate, run).
    #[test]
    fn seeded_runner_bug_is_found_and_shrunk_small() {
        crate::script::SEEDED_BUG.set(true);
        let mut soak = Soak::new(SoakConfig {
            seed: 7,
            sessions: 8,
            batch: 8,
            max_burst: 24,
        });
        let failed = campaign::run(&mut soak);
        crate::script::SEEDED_BUG.set(false);
        let found = &soak.report.violations;
        assert_eq!(failed, 1, "{found:#?}");
        let repro = found.last().expect("a repro");
        let commands: usize = repro
            .split("repro: ")
            .nth(1)
            .and_then(|r| r.split(' ').next()?.parse().ok())
            .unwrap_or_else(|| panic!("no repro line: {repro}"));
        assert!(commands <= 5, "shrunk only to {repro}");
        assert!(
            repro.contains("Hibernate") && repro.contains("Run("),
            "{repro}"
        );
    }

    #[test]
    fn counter_parsing_and_monotonicity() {
        let a = "# HELP serve_ticks_total t\nserve_ticks_total 10\n\
                 cascade_other_total 9\nserve_gauge 3\nserve_wakes_total 2\n";
        let b = "serve_ticks_total 12\nserve_wakes_total 1\n";
        let ca = monotone_counters(a);
        assert_eq!(
            ca,
            vec![
                ("serve_ticks_total".to_string(), 10),
                ("serve_wakes_total".to_string(), 2)
            ]
        );
        let cb = monotone_counters(b);
        let v = monotone_violation(&ca, &cb).expect("wakes went backwards");
        assert!(v.contains("serve_wakes_total"), "{v}");
        assert!(monotone_violation(&cb, &cb).is_none());
    }
}
