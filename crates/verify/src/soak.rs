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
//! broken invariant at once.

use cascade_bits::Prng;
use cascade_core::{JitConfig, Runtime};
use cascade_fpga::{ArbiterConfig, Board, FaultPlan};
use cascade_serve::{InProcClient, ServeConfig, Server};

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
const MATRIX: [MatrixPoint; 8] = [
    MatrixPoint {
        fabrics: 0,
        workers: 1,
        eager: false,
        hibernate: Some(false),
    },
    MatrixPoint {
        fabrics: 1,
        workers: 2,
        eager: true,
        hibernate: Some(false),
    },
    MatrixPoint {
        fabrics: 2,
        workers: 4,
        eager: false,
        hibernate: Some(true),
    },
    MatrixPoint {
        fabrics: 1,
        workers: 1,
        eager: true,
        hibernate: None,
    },
    MatrixPoint {
        fabrics: 0,
        workers: 4,
        eager: false,
        hibernate: Some(true),
    },
    MatrixPoint {
        fabrics: 2,
        workers: 2,
        eager: true,
        hibernate: Some(false),
    },
    MatrixPoint {
        fabrics: 1,
        workers: 4,
        eager: false,
        hibernate: Some(false),
    },
    MatrixPoint {
        fabrics: 2,
        workers: 1,
        eager: false,
        hibernate: None,
    },
];

fn server_config(point: MatrixPoint, faults: FaultPlan) -> ServeConfig {
    let mut c = ServeConfig::quick();
    c.fabrics = point.fabrics;
    c.workers = point.workers;
    if point.eager {
        c.arbiter = ArbiterConfig::eager();
    }
    c.jit.faults = faults;
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

/// One generated tenant script, partially executed.
struct Tenant {
    client: InProcClient,
    rng: Prng,
    step: u64,
    display: bool,
    src: String,
    ticks: u64,
    lines: Vec<String>,
    bursts_left: u32,
    explicit_hibernate: bool,
}

fn tenant_source(step: u64, display: bool) -> String {
    let mut src =
        format!("reg [15:0] cnt = 0;\nalways @(posedge clk.val) cnt <= cnt + 16'd{step};\n");
    if display {
        src.push_str("always @(posedge clk.val) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);\n");
    }
    src.push_str("assign led.val = cnt[7:0];");
    src
}

/// Parses server-level monotone counters out of a Prometheus exposition.
/// Only `serve_*_total` series qualify: session-registry sums may drop
/// when a tenant hibernates or closes.
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

/// Returns a description of the first counter that went backwards.
fn monotone_violation(prev: &[(String, u64)], cur: &[(String, u64)]) -> Option<String> {
    for (name, was) in prev {
        if let Some((_, now)) = cur.iter().find(|(n, _)| n == name) {
            if now < was {
                return Some(format!("counter {name} went backwards: {was} -> {now}"));
            }
        }
    }
    None
}

fn stat(server: &std::sync::Arc<Server>, key: &str) -> u64 {
    let mut c = InProcClient::connect(server);
    c.server_stats()
        .ok()
        .and_then(|s| s.get(key).and_then(cascade_serve::Json::as_u64))
        .unwrap_or(0)
}

/// Replays one batch of tenants against a fresh server; appends findings
/// to `report`.
fn run_batch(cfg: &SoakConfig, batch_idx: u32, count: u32, report: &mut SoakReport) {
    let point = MATRIX[batch_idx as usize % MATRIX.len()];
    let faults = FaultPlan::random(cfg.seed ^ (0x50AC << 16) ^ batch_idx as u64);
    let plan = faults.clone();
    let server = Server::new(server_config(point, faults));
    let here = |s: &str| format!("batch {batch_idx} ({point:?}): {s}");

    // Spawn the tenants.
    let mut tenants: Vec<Tenant> = (0..count)
        .map(|t| {
            let mut rng = Prng::new(cfg.seed ^ ((batch_idx as u64) << 32) ^ t as u64);
            let step = 1 + rng.below(5);
            let display = rng.chance(1, 2);
            // Display tenants count in ones so the oracle transcript is
            // exercised on the densest firing pattern.
            let step = if display { 1 } else { step };
            let src = tenant_source(step, display);
            let bursts_left = 2 + rng.below(4) as u32;
            let explicit_hibernate = point.hibernate == Some(false);
            Tenant {
                client: InProcClient::connect(&server),
                rng,
                step,
                display,
                src,
                ticks: 0,
                lines: Vec::new(),
                bursts_left,
                explicit_hibernate,
            }
        })
        .collect();
    for (t, tenant) in tenants.iter_mut().enumerate() {
        if let Err(e) = tenant.client.open() {
            report
                .violations
                .push(here(&format!("tenant {t}: open failed: {e}")));
            tenant.bursts_left = 0;
            continue;
        }
        if let Err(e) = tenant.client.eval_all(&tenant.src) {
            report
                .violations
                .push(here(&format!("tenant {t}: eval failed: {e}")));
            tenant.bursts_left = 0;
        }
    }

    // Interleaved bursts: every round touches every live tenant, so the
    // shards, the compile pool, and the arbiter all see real contention.
    let mut metrics_client = InProcClient::connect(&server);
    let mut prev_counters: Vec<(String, u64)> = Vec::new();
    loop {
        let mut progressed = false;
        for (t, tenant) in tenants.iter_mut().enumerate() {
            if tenant.bursts_left == 0 {
                continue;
            }
            progressed = true;
            tenant.bursts_left -= 1;
            let burst = 1 + tenant.rng.below(cfg.max_burst as u64 - 1);
            match tenant.client.run(burst) {
                Ok(r) => {
                    if r.ticks != burst {
                        report.violations.push(here(&format!(
                            "tenant {t}: lost ticks: asked {burst}, served {}",
                            r.ticks
                        )));
                    }
                    tenant.ticks += r.ticks;
                }
                Err(e) => {
                    report
                        .violations
                        .push(here(&format!("tenant {t}: run failed: {e}")));
                    tenant.bursts_left = 0;
                    continue;
                }
            }
            match tenant.client.drain() {
                Ok((batch, dropped)) => {
                    if dropped != 0 {
                        report
                            .violations
                            .push(here(&format!("tenant {t}: dropped {dropped} output lines")));
                    }
                    tenant.lines.extend(batch);
                }
                Err(e) => {
                    report
                        .violations
                        .push(here(&format!("tenant {t}: drain failed: {e}")));
                }
            }
            if tenant.explicit_hibernate && tenant.rng.chance(1, 3) {
                if let Err(e) = tenant.client.hibernate() {
                    report
                        .violations
                        .push(here(&format!("tenant {t}: hibernate failed: {e}")));
                }
            }
        }
        match metrics_client.server_metrics() {
            Ok(text) => {
                let cur = monotone_counters(&text);
                if let Some(v) = monotone_violation(&prev_counters, &cur) {
                    report.violations.push(here(&v));
                }
                prev_counters = cur;
            }
            Err(e) => report
                .violations
                .push(here(&format!("metrics failed: {e}"))),
        }
        if !progressed {
            break;
        }
    }

    // Per-tenant closing checks: architectural counter and transcript.
    for (t, tenant) in tenants.iter_mut().enumerate() {
        let expected = (tenant.ticks.wrapping_mul(tenant.step)) & 0xffff;
        match tenant.client.probe("cnt") {
            Ok(Some(cnt)) => {
                if cnt != expected {
                    report.violations.push(here(&format!(
                        "tenant {t}: cnt invariant: {} ticks * step {} -> expected {expected}, got {cnt}",
                        tenant.ticks, tenant.step
                    )));
                }
            }
            Ok(None) => report
                .violations
                .push(here(&format!("tenant {t}: cnt vanished"))),
            Err(e) => report
                .violations
                .push(here(&format!("tenant {t}: probe failed: {e}"))),
        }
        if tenant.display {
            let mut jit = JitConfig::default();
            jit.toolchain.time_scale = 1e-6;
            match Runtime::new(Board::new(), jit) {
                Ok(mut oracle) => {
                    let ok =
                        oracle.eval(&tenant.src).is_ok() && oracle.run_ticks(tenant.ticks).is_ok();
                    report.batched_ticks += oracle.data_plane_batched_ticks();
                    if !ok {
                        report
                            .violations
                            .push(here(&format!("tenant {t}: oracle failed")));
                    } else if tenant.lines != oracle.drain_output() {
                        report.violations.push(here(&format!(
                            "tenant {t}: transcript diverged from solo oracle after {} ticks",
                            tenant.ticks
                        )));
                    }
                }
                Err(e) => report
                    .violations
                    .push(here(&format!("tenant {t}: oracle: {e}"))),
            }
        }
        report.sessions += 1;
        report.ticks += tenant.ticks;
        report.display_lines += tenant.lines.len() as u64;
    }

    // Server-wide accounting invariants.
    if stat(&server, "wake_failures") != 0 {
        report.violations.push(here("wake_failures != 0"));
    }
    if stat(&server, "output_dropped") != 0 {
        report.violations.push(here("output_dropped != 0"));
    }
    let grants = stat(&server, "fabric_grants");
    let revocations = stat(&server, "fabric_revocations");
    if revocations > grants {
        report.violations.push(here(&format!(
            "lease accounting: {revocations} revocations > {grants} grants"
        )));
    }
    report.hibernates += stat(&server, "hibernates");
    report.faults_injected += plan.injected();
    report.batches += 1;
}

/// Runs the full soak campaign described by `cfg`.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let mut report = SoakReport::default();
    let batch = cfg.batch.max(1);
    let mut remaining = cfg.sessions;
    let mut batch_idx = 0;
    while remaining > 0 {
        let count = remaining.min(batch);
        run_batch(cfg, batch_idx, count, &mut report);
        remaining -= count;
        batch_idx += 1;
    }
    report
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
