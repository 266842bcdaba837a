//! Session hibernation: freeze/wake transparency under chaos, the
//! wake-under-revocation race, and the 10K mostly-idle tenant soak.
//!
//! Hibernation drops a session's entire runtime — engines, compiler
//! handle, fabric lease — keeping only a serialized image. These tests
//! pin down the contract: a session that hibernates and wakes (repeatedly,
//! under a random fault schedule) produces a transcript byte-identical to
//! a solo runtime that never stopped; a woken session re-promoting into a
//! contended fleet survives a revocation injected mid-migration; and a
//! server holding ten thousand mostly-idle sessions keeps its live-runtime
//! count bounded while still serving a woken tenant's first command
//! correctly.

use cascade_core::{JitConfig, Runtime};
use cascade_fpga::{ArbiterConfig, Board, FaultPlan};
use cascade_serve::{InProcClient, Json, ServeConfig, Server};
use std::time::{Duration, Instant};

const COUNTER: &str = "reg [15:0] cnt = 0;\n\
                       always @(posedge clk.val) cnt <= cnt + 1;\n\
                       always @(posedge clk.val) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);\n\
                       assign led.val = cnt[7:0];";

fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Polls `cond` until it holds or the deadline passes.
fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A session that hibernates and wakes between every run burst, under a
/// seeded random fault schedule, must produce the same `$display`
/// transcript, probe state, and tick count as a fault-free solo runtime
/// that never stopped.
#[test]
fn hibernate_wake_chaos_round_trip_matches_oracle() {
    for seed in [1u64, 7, 42] {
        let mut config = ServeConfig::quick();
        config.fabrics = 1;
        config.workers = 2;
        config.jit.scrub_interval_ticks = 4;
        config.jit.faults = FaultPlan::random(seed);
        // Only explicit hibernate commands: the sweeper stays out of the
        // timing so the test controls every freeze point.
        config.hibernate_after_s = 0.0;
        let server = Server::new(config);
        let mut client = InProcClient::connect(&server);
        client.open().expect("open");
        client.eval_all(COUNTER).expect("eval counter");

        let mut lines = Vec::new();
        let mut ticks = 0u64;
        let mut froze = 0u64;
        for i in 0..10 {
            let r = client.run(17).expect("run");
            ticks += r.ticks;
            let (batch, dropped) = client.drain().expect("drain");
            assert_eq!(dropped, 0, "seed {seed}: no output may drop");
            lines.extend(batch);
            if i % 2 == 0 && client.hibernate().expect("hibernate") {
                froze += 1;
            }
        }
        assert!(froze >= 4, "seed {seed}: sessions froze only {froze} times");
        // Wake once more for the final probe, then cross-check the books.
        let cnt = client.probe("cnt").expect("probe").expect("cnt exists");
        let stats = client.server_stats().expect("server stats");
        assert!(
            stat_u64(&stats, "wakes") > froze,
            "every freeze implies a wake plus the lazy-open one"
        );
        assert_eq!(stat_u64(&stats, "wake_failures"), 0, "seed {seed}");

        let oboard = Board::new();
        let mut ocfg = JitConfig::default();
        ocfg.toolchain.time_scale = 1e-6;
        ocfg.scrub_interval_ticks = 4;
        let mut oracle = Runtime::new(oboard, ocfg).expect("oracle runtime");
        oracle.eval(COUNTER).expect("oracle eval");
        oracle.run_ticks(ticks).expect("oracle run");
        assert_eq!(
            lines,
            oracle.drain_output(),
            "seed {seed}: transcript diverged across hibernation"
        );
        assert_eq!(
            Some(cnt),
            oracle.probe("cnt").map(|b| b.to_u64()),
            "seed {seed}: counter state diverged across hibernation"
        );
    }
}

/// Observability reads must not perturb the hibernation economy: against
/// a dormant session, `timeline`, `trace`, and `metrics` return the
/// preserved ring summary and frozen registry without waking the tenant.
#[test]
fn observability_reads_do_not_wake_dormant_sessions() {
    let mut config = ServeConfig::quick();
    config.fabrics = 1;
    config.workers = 2;
    config.hibernate_after_s = 0.0;
    let server = Server::new(config);
    let mut c = InProcClient::connect(&server);
    c.open().expect("open");
    c.eval_all(COUNTER).expect("eval");
    c.run(32).expect("run");
    c.drain().expect("drain");
    assert!(c.hibernate().expect("hibernate"), "session must freeze");

    let stats = c.server_stats().expect("stats");
    let wakes_before = stat_u64(&stats, "wakes");
    assert_eq!(stat_u64(&stats, "sessions_hibernated"), 1);

    // All three observability reads serve from preserved state.
    let timeline = c.timeline().expect("timeline against dormant session");
    assert!(timeline.contains("eval"), "timeline lost: {timeline}");
    let (jsonl, _) = c.trace_jsonl(true).expect("trace against dormant session");
    assert!(!jsonl.is_empty(), "trace ring lost across hibernation");
    let metrics = c.metrics().expect("metrics against dormant session");
    assert!(
        metrics.contains("jit_ticks_total"),
        "frozen registry not rendered:\n{metrics}"
    );

    let stats = c.server_stats().expect("stats");
    assert_eq!(
        stat_u64(&stats, "wakes"),
        wakes_before,
        "an observability read woke the tenant"
    );
    assert_eq!(
        stat_u64(&stats, "sessions_hibernated"),
        1,
        "the tenant is no longer dormant after a read"
    );

    // A data-plane command still wakes it, with state intact.
    assert_eq!(c.probe("cnt").expect("probe"), Some(32));
    let stats = c.server_stats().expect("stats");
    assert_eq!(stat_u64(&stats, "wakes"), wakes_before + 1);
}

/// The wake-under-revocation race: a hibernated session wakes into a
/// fully-contended one-fabric fleet, evicts the squatter (eager arbiter),
/// and an injected `migration_revoke` yanks the lease back mid-migration.
/// The woken session must land in software with exact state, not corrupt
/// or deadlock.
#[test]
fn wake_survives_revocation_injected_mid_promotion() {
    let mut config = ServeConfig::quick();
    config.fabrics = 1;
    config.workers = 2;
    // Strict hottest-wins arbitration: the woken (hotter) session evicts
    // immediately, which is exactly the window the fault targets.
    config.arbiter = ArbiterConfig::eager();
    config.jit.faults = FaultPlan::builder().migration_revoke(1).build();
    config.hibernate_after_s = 0.0;
    let server = Server::new(config);

    let mut a = InProcClient::connect(&server);
    a.open().expect("open a");
    a.eval_all(COUNTER).expect("eval a");
    let mut ra = a.run(64).expect("run a");
    let mut ticks_a = ra.ticks;

    // Freeze A: its lease (if any) returns to the fleet.
    assert!(a.hibernate().expect("hibernate a"), "a must freeze");

    // B takes over the only fabric while A sleeps.
    let mut b = InProcClient::connect(&server);
    b.open().expect("open b");
    b.eval_all("reg [7:0] r = 0;\nalways @(posedge clk.val) r <= r + 2;")
        .expect("eval b");
    b.run(64).expect("run b");
    b.wait_compile().expect("b compile");
    b.run(64).expect("run b hw");

    // A wakes hotter than B (every command takes a fresher activity
    // stamp), re-compiles, and re-promotes — hitting the injected
    // mid-migration revocation on the way up.
    for _ in 0..30 {
        ra = a.run(32).expect("run woken a");
        ticks_a += ra.ticks;
        a.wait_compile().expect("a compile");
        let stats = a.server_stats().expect("stats");
        if stat_u64(&stats, "fabric_revocations") >= 1 {
            break;
        }
    }
    let stats = a.server_stats().expect("stats");
    assert!(
        stat_u64(&stats, "fabric_revocations") >= 1,
        "the contended wake never triggered a revocation"
    );

    // Both tenants still serve correct state after the scramble; A's
    // transcript and counter must match a solo runtime that never left
    // software.
    let (lines, dropped) = a.drain().expect("drain a");
    assert_eq!(dropped, 0);
    let mut oracle = Runtime::new(Board::new(), JitConfig::default()).expect("oracle");
    oracle.eval(COUNTER).expect("oracle eval");
    oracle.run_ticks(ticks_a).expect("oracle run");
    assert_eq!(
        lines,
        oracle.drain_output(),
        "A's transcript broke across the race"
    );
    assert_eq!(
        a.probe("cnt").expect("probe a"),
        oracle.probe("cnt").map(|b| b.to_u64()),
        "A's counter state broke across the race"
    );
    assert!(b.probe("r").expect("probe b").is_some(), "B died");
}

/// The 10K-tenant soak: ten thousand sessions, a handful active, the rest
/// idle. The sweeper hibernates idle tenants (spilling images to disk past
/// the memory budget), the live-runtime count stays bounded, and a woken
/// tenant's first command after days asleep is served correctly.
#[test]
fn ten_thousand_idle_sessions_stay_bounded_and_wake_correctly() {
    const SESSIONS: usize = 10_000;
    const ACTIVE: usize = 24;
    let mut config = ServeConfig::quick();
    config.fabrics = 1;
    config.workers = 2;
    // The soak targets the hibernation store, not the JIT: skip auto
    // compiles so the compile pool isn't a 24-job backlog in debug builds.
    config.jit.auto_compile = false;
    config.hibernate_after_s = 0.05;
    config.sweeper_poll_ms = 5;
    config.max_live_sessions = 32;
    // A deliberately tiny memory budget forces images onto disk.
    config.hibernate_mem_bytes = 64 << 10;
    let server = Server::new(config);

    let mut client = InProcClient::connect(&server);
    let mut ids = Vec::with_capacity(SESSIONS);
    for _ in 0..SESSIONS {
        ids.push(client.open().expect("open"));
    }

    // A few tenants do real work (building real runtimes), the rest stay
    // dormant-from-birth and must cost nothing.
    let mut active = Vec::new();
    for &id in ids.iter().take(ACTIVE) {
        let mut c = InProcClient::connect(&server);
        c.attach(id).expect("attach");
        c.eval_all("reg [15:0] n = 0;\nalways @(posedge clk.val) n <= n + 1;")
            .expect("eval");
        let r = c.run(100).expect("run");
        assert_eq!(r.ticks, 100);
        active.push((c, id));
    }

    // The sweeper freezes the active set once it goes idle.
    wait_until(
        || {
            let stats = client.server_stats().expect("stats");
            stat_u64(&stats, "sessions_live") == 0
        },
        "all live runtimes to hibernate",
    );

    let stats = client.server_stats().expect("stats");
    assert_eq!(stat_u64(&stats, "sessions"), SESSIONS as u64);
    assert_eq!(stat_u64(&stats, "sessions_hibernated"), SESSIONS as u64);
    assert!(
        stat_u64(&stats, "hibernates") >= ACTIVE as u64,
        "each active tenant hibernates at least once"
    );
    assert!(
        stat_u64(&stats, "hibernate_spills") > 0,
        "the tiny memory budget must spill images to disk"
    );
    assert!(
        stat_u64(&stats, "hibernate_mem_bytes") <= (64 << 10) + 4096,
        "the in-memory store must respect its budget (one image of slack)"
    );

    // Wake a mid-pack tenant: its first command must see exact state.
    let (c, _) = &mut active[ACTIVE / 2];
    assert_eq!(
        c.probe("n").expect("probe woken"),
        Some(100),
        "woken tenant lost state"
    );
    let r = c.run(28).expect("run woken");
    assert_eq!(r.ticks, 28);
    assert_eq!(c.probe("n").expect("probe again"), Some(128));

    // A dormant-from-birth tenant wakes into an empty-but-working REPL.
    let mut fresh = InProcClient::connect(&server);
    fresh.attach(ids[SESSIONS - 1]).expect("attach fresh");
    fresh
        .eval_all("reg [7:0] z = 9;")
        .expect("eval fresh tenant");
    assert_eq!(fresh.probe("z").expect("probe fresh"), Some(9));

    let stats = client.server_stats().expect("stats");
    assert!(
        stat_u64(&stats, "sessions_live") <= 32,
        "the live-runtime bound broke"
    );
    assert!(stat_u64(&stats, "wakes") >= (ACTIVE + 2) as u64);
    assert_eq!(stat_u64(&stats, "wake_failures"), 0);
}

/// The durable 10K soak: ten thousand mostly-idle journaled tenants drain
/// gracefully, the server restarts, and sampled tenants — busy and
/// dormant-from-birth alike — resume by id+token with exact state, while
/// the live-runtime bound keeps holding on the recovered server.
#[test]
fn ten_thousand_tenant_drain_and_restart_soak() {
    const SESSIONS: usize = 10_000;
    const ACTIVE: usize = 16;
    let dir = std::env::temp_dir().join(format!("cascade-soak-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServeConfig::quick();
    config.fabrics = 1;
    config.workers = 2;
    config.jit.auto_compile = false;
    config.hibernate_after_s = 0.05;
    config.sweeper_poll_ms = 5;
    config.max_live_sessions = 32;
    config.hibernate_mem_bytes = 64 << 10;
    config.durable_dir = Some(dir.to_string_lossy().into_owned());
    let server = Server::new(config.clone());

    let mut client = InProcClient::connect(&server);
    let mut tenants = Vec::with_capacity(SESSIONS);
    for _ in 0..SESSIONS {
        let id = client.open().expect("open");
        tenants.push((id, client.token().expect("durable open returns token")));
    }

    for &(id, _) in tenants.iter().take(ACTIVE) {
        let mut c = InProcClient::connect(&server);
        c.attach(id).expect("attach");
        c.eval_all("reg [15:0] n = 0;\nalways @(posedge clk.val) n <= n + 1;")
            .expect("eval");
        assert_eq!(c.run(100).expect("run").ticks, 100);
    }
    wait_until(
        || stat_u64(&client.server_stats().expect("stats"), "sessions_live") == 0,
        "all live runtimes to hibernate",
    );

    // The sweeper already compacted every busy tenant's journal at
    // hibernate time, so drain finds nothing left to flush — it only has
    // to land the counter baselines durably.
    client.drain_server().expect("drain server");
    drop(client);
    drop(server);

    let journals = std::fs::read_dir(dir.join("sessions"))
        .expect("sessions dir")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "jnl"))
        .count();
    assert_eq!(journals, SESSIONS, "one journal generation per tenant");

    let recovered = Server::recover(config);
    let mut client = InProcClient::connect(&recovered);
    let stats = client.server_stats().expect("stats");
    assert_eq!(
        stat_u64(&stats, "recovered_sessions"),
        SESSIONS as u64,
        "every journaled tenant must rehydrate"
    );
    assert_eq!(stat_u64(&stats, "recovery_quarantined"), 0);
    assert_eq!(
        stat_u64(&stats, "recovery_replayed"),
        0,
        "a graceful drain leaves only checkpoints, nothing to replay"
    );
    assert_eq!(
        stat_u64(&stats, "sessions_live"),
        0,
        "recovered tenants are dormant until resumed"
    );

    // Busy tenants resume with exact state and keep counting.
    for &(id, token) in tenants.iter().take(ACTIVE).step_by(3) {
        let mut c = InProcClient::connect(&recovered);
        c.resume(id, token).expect("resume busy tenant");
        assert_eq!(c.probe("n").expect("probe"), Some(100), "tenant {id}");
        assert_eq!(c.run(28).expect("run").ticks, 28);
        assert_eq!(c.probe("n").expect("probe"), Some(128), "tenant {id}");
    }
    // Dormant-from-birth tenants resume into a working empty REPL.
    for &(id, token) in tenants.iter().skip(SESSIONS - 4) {
        let mut c = InProcClient::connect(&recovered);
        c.resume(id, token).expect("resume idle tenant");
        c.eval_all("reg [7:0] z = 9;").expect("eval");
        assert_eq!(c.probe("z").expect("probe"), Some(9), "tenant {id}");
    }
    // A wrong token is still rejected after recovery.
    let (id, token) = tenants[SESSIONS / 2];
    let mut c = InProcClient::connect(&recovered);
    assert!(
        c.resume(id, token ^ 1).is_err(),
        "bad token must be refused"
    );

    let stats = client.server_stats().expect("stats");
    assert!(
        stat_u64(&stats, "sessions_live") <= 32,
        "the live-runtime bound broke on the recovered server"
    );
    assert_eq!(stat_u64(&stats, "wake_failures"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Times one server-wide `metrics` read and one `drain` against ten
/// thousand dormant tenants. Both walk every session (one labelled
/// `serve_session_output_dropped_total` series each), so a merge that is
/// quadratic in the series count shows here. Ignored by default; run it
/// optimised:
///
/// `cargo test --release -p cascade-xtests --test serve_hibernate
/// metrics_read_at_ten_thousand_tenants -- --ignored --nocapture`
#[test]
#[ignore]
fn metrics_read_at_ten_thousand_tenants() {
    const SESSIONS: usize = 10_000;
    let dir = std::env::temp_dir().join(format!("cascade-metrics-10k-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServeConfig::quick();
    config.durable_dir = Some(dir.to_string_lossy().into_owned());
    let server = Server::new(config);
    let mut client = InProcClient::connect(&server);
    for _ in 0..SESSIONS {
        client.open().expect("open");
    }
    let mut best = Duration::MAX;
    let mut families = 0;
    for _ in 0..5 {
        let t0 = Instant::now();
        let text = client.server_metrics().expect("metrics");
        best = best.min(t0.elapsed());
        families = text.lines().filter(|l| l.starts_with("# TYPE")).count();
    }
    let t0 = Instant::now();
    client.drain_server().expect("drain");
    let drain = t0.elapsed();
    println!(
        "metrics at {SESSIONS} tenants: {:.1} ms (best of 5, {families} families); drain {:.1} ms",
        best.as_secs_f64() * 1e3,
        drain.as_secs_f64() * 1e3,
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
