//! Multi-tenant serving: concurrent sessions over a shared one-fabric
//! fleet, protocol transport equivalence (TCP vs in-process), lease
//! revocation with state migration validated against a solo-runtime
//! oracle, bounded output backpressure, the shared compile cache, and the
//! idle reaper.

use cascade_core::Runtime;
use cascade_fpga::Board;
use cascade_serve::{EvalResult, InProcClient, Json, ServeConfig, Server, TcpClient, TcpServer};
use cascade_workloads::regex::{compile, matcher_verilog, Flavor as RegexFlavor};
use cascade_workloads::sha256::{find_nonce, miner_verilog, Flavor as MinerFlavor, MinerConfig};
use std::time::{Duration, Instant};

const COUNTER: &str = "reg [15:0] cnt = 0;\n\
                       always @(posedge clk.val) cnt <= cnt + 1;\n\
                       always @(posedge clk.val) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);\n\
                       assign led.val = cnt[7:0];";

fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn stat_bool(stats: &Json, key: &str) -> bool {
    stats.get(key).and_then(Json::as_bool).unwrap_or(false)
}

fn stat_str<'j>(stats: &'j Json, key: &str) -> &'j str {
    stats.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Polls `cond` until it holds or the deadline passes.
fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn tcp_and_inproc_share_one_protocol() {
    let server = Server::new(ServeConfig::quick());
    let tcp = TcpServer::bind(server.clone(), "127.0.0.1:0").expect("bind");
    let mut c = TcpClient::connect(tcp.addr()).expect("connect");

    let id = c.open().expect("open");
    assert_eq!(c.eval("reg [7:0] x"), Ok(EvalResult::Incomplete));
    assert_eq!(c.eval("= 3;"), Ok(EvalResult::Evaluated(vec![])));
    let out = c
        .eval("initial $display(\"x=%d\", x);")
        .expect("display eval");
    assert_eq!(out, EvalResult::Evaluated(vec!["x=3".to_string()]));

    // Position-accurate batched errors travel the wire too: two items
    // close at once, the second is bad, the message names it.
    assert_eq!(c.eval("reg [7:0] y"), Ok(EvalResult::Incomplete));
    let EvalResult::Error(msg) = c.eval("= 1; assign led.val = ghost;").expect("eval") else {
        panic!("expected a per-item error");
    };
    assert!(msg.contains("item 2 of 2"), "got: {msg}");

    // A second connection re-attaches to the same live session.
    let mut c2 = TcpClient::connect(tcp.addr()).expect("connect2");
    c2.attach(id).expect("attach");
    assert_eq!(c2.probe("x").expect("probe"), Some(3));
    assert!(c2.attach(id + 999).is_err(), "bogus id must be rejected");

    // Malformed lines get an error reply, not a dropped connection.
    let mut inproc = InProcClient::connect(&server);
    let reply = Json::parse(&server.handle_line("{\"cmd\":\"warp\"}")).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    // So does the removed `configure` command, aimed at the live session:
    // the probes below show the session kept serving.
    let line = format!("{{\"cmd\":\"configure\",\"session\":{id},\"batch_width\":4}}");
    let reply = Json::parse(&server.handle_line(&line)).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(error.contains("unknown cmd"), "got: {error}");

    // The in-process client sees the TCP client's session state.
    inproc.attach(id).expect("attach inproc");
    assert_eq!(inproc.probe("x").expect("probe"), Some(3));
    c.close().expect("close");
    assert!(inproc.probe("x").is_err(), "closed session must be gone");
}

/// A round trip over the socket costs what the request costs, not a
/// kernel timer: a request sent as two writes on a default socket waits
/// ~40 ms on every call for the peer's delayed ACK to release Nagle's
/// hold on the second, and a reply of several segments can wait the same
/// way for its last one. 250 round trips took ≥ 8.8 s that way and take
/// ~0.1 s now, so the 2 s line is a 20× margin on both sides.
#[test]
fn tcp_round_trips_do_not_wait_on_delayed_ack() {
    let server = Server::new(ServeConfig::quick());
    let tcp = TcpServer::bind(server.clone(), "127.0.0.1:0").expect("bind");
    let mut c = TcpClient::connect(tcp.addr()).expect("connect");
    c.open().expect("open");
    c.eval("reg [7:0] x = 3;").expect("eval");

    let started = Instant::now();
    for _ in 0..200 {
        assert_eq!(c.probe("x").expect("probe"), Some(3));
    }
    for _ in 0..50 {
        let text = c.server_metrics().expect("metrics");
        assert!(text.len() > 4096, "metrics reply should span segments");
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "250 round trips took {took:?}"
    );
}

/// Resident set of this process, from `/proc` (absent elsewhere).
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    kb.trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<u64>()
        .ok()
        .map(|kb| kb * 1024)
}

/// Hostile bytes: a peer that never sends a newline gets an error reply
/// once it passes the request bound, costs the server a bounded buffer
/// however much more it sends, and takes nothing from the next client.
#[test]
fn oversized_request_line_is_refused_and_bounded() {
    use std::io::{BufRead, BufReader, Write};
    let server = Server::new(ServeConfig::quick());
    let tcp = TcpServer::bind(server, "127.0.0.1:0").expect("bind");

    let mut hostile = std::net::TcpStream::connect(tcp.addr()).expect("connect");
    let chunk = vec![b'a'; 64 << 10];
    let before = rss_bytes();
    // 8 MiB is twice the bound; the other 56 are there to show that the
    // server's memory follows the bound, not the line.
    for _ in 0..(64 << 20) / chunk.len() {
        hostile.write_all(&chunk).expect("server keeps reading");
    }
    let mut reply = String::new();
    BufReader::new(&hostile)
        .read_line(&mut reply)
        .expect("reply");
    let reply = Json::parse(reply.trim_end()).expect("reply is JSON");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("request line too long")
    );
    if let (Some(before), Some(after)) = (before, rss_bytes()) {
        let grew = after.saturating_sub(before);
        assert!(grew < 32 << 20, "64 MiB line grew the process by {grew} B");
    }
    // The server has stopped talking to this peer.
    let mut rest = String::new();
    let n = BufReader::new(&hostile).read_line(&mut rest).expect("eof");
    assert_eq!(n, 0, "unexpected second reply: {rest}");
    drop(hostile);

    let mut c = TcpClient::connect(tcp.addr()).expect("connect after");
    c.open().expect("open");
    c.eval("reg [7:0] x = 3;").expect("eval");
    assert_eq!(c.probe("x").expect("probe"), Some(3));
}

#[test]
fn concurrent_pow_and_regex_sessions_make_progress() {
    let mut config = ServeConfig::quick();
    config.fabrics = 1; // three tenants, one fabric
    let server = Server::new(config);

    let miner_cfg = MinerConfig {
        data: 0x5eed_b10c,
        target: 0x1000_0000,
        start_nonce: 0,
        announce: true,
        use_functions: false,
    };
    let (expect_nonce, _) = find_nonce(miner_cfg.data, miner_cfg.target, miner_cfg.start_nonce);
    assert!(expect_nonce < 200, "easy target keeps the test fast");

    let pattern = "GET |POST ";
    let input: &[u8] = b"GET /index HTTP POST /x GET  PUT POST!POST ";
    let expect_matches = compile(pattern).unwrap().count_matches(input);

    let srv = server.clone();
    let miner_src = miner_verilog(&miner_cfg, MinerFlavor::Cascade);
    let miner = std::thread::spawn(move || {
        let mut c = InProcClient::connect(&srv);
        c.open().expect("open miner");
        c.eval_all(&miner_src).expect("eval miner");
        c.wait_compile().expect("wait");
        let mut lines = Vec::new();
        for _ in 0..2000 {
            let run = c.run(64).expect("run miner");
            lines.extend(c.drain().expect("drain").0);
            if run.finished {
                break;
            }
        }
        let stats = c.stats().expect("stats");
        assert!(stat_bool(&stats, "finished"), "miner must $finish");
        (lines, stat_u64(&stats, "ticks"))
    });

    let srv = server.clone();
    let dfa = compile(pattern).unwrap();
    let regex_src = matcher_verilog(&dfa, RegexFlavor::Cascade);
    let bytes: Vec<u64> = input.iter().map(|&b| b as u64).collect();
    let regex = std::thread::spawn(move || {
        let mut c = InProcClient::connect(&srv);
        c.open().expect("open regex");
        c.eval_all(&regex_src).expect("eval regex");
        c.wait_compile().expect("wait");
        let mut sent = 0usize;
        while sent < bytes.len() {
            sent += c.fifo_push(8, &bytes[sent..]).expect("fifo") as usize;
            c.run(32).expect("run regex");
        }
        c.run(32).expect("run regex tail"); // pipeline slack
        let stats = c.stats().expect("stats");
        (stat_u64(&stats, "leds"), stat_u64(&stats, "ticks"))
    });

    let srv = server.clone();
    let counter = std::thread::spawn(move || {
        let mut c = InProcClient::connect(&srv);
        c.open().expect("open counter");
        c.eval_all(COUNTER).expect("eval counter");
        for _ in 0..20 {
            c.run(50).expect("run counter");
        }
        (
            c.probe("cnt").expect("probe").expect("cnt exists"),
            stat_u64(&c.stats().expect("stats"), "ticks"),
        )
    });

    let (miner_lines, miner_ticks) = miner.join().expect("miner thread");
    let (matches, regex_ticks) = regex.join().expect("regex thread");
    let (cnt, counter_ticks) = counter.join().expect("counter thread");

    // Every tenant made progress despite sharing one fabric.
    assert!(miner_ticks > 0 && regex_ticks > 0 && counter_ticks > 0);
    assert_eq!(cnt, 1000, "counter state is exact");
    assert_eq!(matches, expect_matches, "regex matches the Rust DFA");
    let nonce_hex = format!("nonce={expect_nonce:08x}");
    assert!(
        miner_lines.iter().any(|l| l.contains(&nonce_hex)),
        "miner announces the winning nonce; got {miner_lines:?}"
    );

    let mut c = InProcClient::connect(&server);
    c.open().expect("open");
    let stats = c.server_stats().expect("server stats");
    assert_eq!(stat_u64(&stats, "fabrics"), 1);
    assert!(stat_u64(&stats, "fabric_grants") >= 1, "someone promoted");
}

/// The acceptance scenario: on a one-fabric fleet, the holder's lease is
/// revoked when a hotter tenant's compile lands; the victim's state
/// migrates back to software with zero divergence — values and `$display`
/// ordering — from a solo runtime fed the identical schedule.
#[test]
fn lease_revocation_migrates_state_against_oracle() {
    let mut config = ServeConfig::quick();
    config.fabrics = 1;
    let server = Server::new(config.clone());

    // The oracle: a private runtime, dedicated fabric, same toolchain.
    let mut oracle = Runtime::new(Board::new(), config.jit.clone()).expect("oracle");
    let mut oracle_ticks = 0u64;
    let mut oracle_out = Vec::new();

    let mut s1 = InProcClient::connect(&server);
    s1.open().expect("open s1");
    for line in COUNTER.lines() {
        s1.eval(line).expect("eval s1");
    }
    oracle.eval(COUNTER).expect("oracle eval");

    let mut s1_ticks = 0u64;
    let mut run1 = |c: &mut InProcClient, n: u64| {
        let r = c.run(n).expect("run s1");
        s1_ticks += r.ticks;
        r
    };

    run1(&mut s1, 40);
    s1.wait_compile().expect("wait s1");
    let r = run1(&mut s1, 40);
    assert!(r.lease_held, "sole tenant wins the only fabric");
    assert!(r.mode.starts_with("hardware"), "promoted, got {}", r.mode);

    // A second, hotter tenant with a ready bitstream steals the fabric.
    let mut s2 = InProcClient::connect(&server);
    s2.open().expect("open s2");
    s2.eval_all(COUNTER).expect("eval s2");
    s2.run(40).expect("run s2");
    s2.wait_compile().expect("wait s2");
    wait_until(
        || {
            let _ = s2.run(8);
            stat_bool(&s2.stats().expect("stats s2"), "lease_held")
        },
        "s2 to take the fabric",
    );

    // The victim keeps running — in software now, state intact.
    let st1 = s1.stats().expect("stats s1");
    assert!(stat_u64(&st1, "demotions") >= 1, "s1 lost its lease");
    assert_eq!(stat_str(&st1, "mode"), "software");
    run1(&mut s1, 40);

    // Zero divergence from the oracle on the identical tick schedule.
    let mut s1_out = s1.drain().expect("drain s1").0;
    oracle_ticks += oracle
        .run_ticks(s1_ticks - oracle_ticks)
        .expect("oracle run");
    oracle_out.extend(oracle.drain_output());
    assert_eq!(oracle_ticks, s1_ticks);
    assert_eq!(s1_out.len(), oracle_out.len(), "same $display count");
    assert_eq!(s1_out, oracle_out, "$display ordering preserved");
    assert_eq!(
        s1.probe("cnt").expect("probe"),
        oracle.probe("cnt").map(|b| b.to_u64()),
        "register state preserved across revocation"
    );

    // The fabric can come back: s1 becomes hottest again (every run
    // stamps fresh heat) and its cached bitstream re-promotes it.
    wait_until(
        || {
            s1_out.extend(s1.drain().expect("drain").0);
            let r = s1.run(8).expect("run");
            s1_ticks += r.ticks;
            r.lease_held
        },
        "s1 to win the fabric back",
    );
    let stats = s1.stats().expect("stats");
    assert!(stat_u64(&stats, "promotions") >= 2, "re-granted");

    // Still zero divergence after demote → software → re-promote.
    s1_out.extend(s1.drain().expect("drain").0);
    oracle
        .run_ticks(s1_ticks - oracle_ticks)
        .expect("oracle run");
    oracle_out.extend(oracle.drain_output());
    assert_eq!(s1_out, oracle_out, "output transcript identical end-to-end");

    let server_stats = s1.server_stats().expect("server stats");
    assert!(stat_u64(&server_stats, "fabric_revocations") >= 1);
    assert!(
        stat_u64(&server_stats, "cache_hits") >= 1,
        "re-promotion rides the shared compile cache"
    );
}

#[test]
fn output_queue_bounds_and_backpressure() {
    let mut config = ServeConfig::quick();
    config.output_capacity = 16;
    let server = Server::new(config);
    let mut c = InProcClient::connect(&server);
    c.open().expect("open");
    c.eval("reg [15:0] n = 0;").expect("eval");
    c.eval("always @(posedge clk.val) n <= n + 1;")
        .expect("eval");
    c.eval("always @(posedge clk.val) $display(\"n=%d\", n);")
        .expect("eval");

    // One line per tick against a 16-line bound: the run must stop early.
    let r = c.run(10_000).expect("run");
    assert!(r.backpressure, "full output queue throttles the run");
    assert!(r.ticks < 10_000, "did not run to completion");

    let (lines, dropped) = c.drain().expect("drain");
    assert!(lines.len() <= 16, "queue bounded, got {}", lines.len());
    assert!(
        !lines.is_empty() && lines.last().unwrap().starts_with("n="),
        "newest lines survive"
    );
    // A drained queue lets the session run again.
    let r = c.run(8).expect("run again");
    assert!(r.ticks > 0);
    let _ = dropped; // whether the first burst overflowed is chunk-size dependent
}

#[test]
fn shared_cache_serves_identical_designs_across_sessions() {
    let server = Server::new(ServeConfig::quick());
    let mut first = InProcClient::connect(&server);
    first.open().expect("open");
    first.eval_all(COUNTER).expect("eval");
    first.wait_compile().expect("wait");

    let mut second = InProcClient::connect(&server);
    second.open().expect("open");
    second.eval_all(COUNTER).expect("eval");
    second.wait_compile().expect("wait");

    let stats = second.server_stats().expect("server stats");
    assert!(
        stat_u64(&stats, "cache_hits") >= 1,
        "the second session's identical design hits the shared cache: {stats}"
    );
    assert!(
        stat_u64(&stats, "cache_misses") >= 1,
        "first compile missed"
    );
}

#[test]
fn idle_sessions_are_reaped() {
    let mut config = ServeConfig::quick();
    config.idle_timeout_s = 0.05;
    let server = Server::new(config);
    let mut c = InProcClient::connect(&server);
    let id = c.open().expect("open");
    c.eval("reg [3:0] z = 0;").expect("eval");
    wait_until(
        || {
            let mut probe = InProcClient::connect(&server);
            probe.attach(id).is_err()
        },
        "the idle session to be reaped",
    );
    let mut c2 = InProcClient::connect(&server);
    c2.open().expect("open");
    let stats = c2.server_stats().expect("stats");
    assert!(stat_u64(&stats, "sessions_reaped") >= 1);
}
