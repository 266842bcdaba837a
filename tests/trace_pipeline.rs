//! Observability suite: the `cascade-trace` contract across the whole
//! pipeline — the ISSUE acceptance run (a serve session under chaos
//! faults whose exported trace shows the full JIT lifecycle in order),
//! virtual-time determinism (byte-identical exports across two runs with
//! the same fault seed), zero-allocation emission when tracing is
//! disabled and into a full ring, ring-buffer overflow accounting, JSONL
//! schema round-trips through the serve JSON parser, metrics-exposition
//! completeness, counter monotonicity across checkpoint restores, and a
//! VCD smoke test.

use cascade_bench::{emit_served_cycle, SERVED_CYCLE_EVENTS};
use cascade_core::{JitConfig, Runtime};
use cascade_fpga::{Board, FaultPlan};
use cascade_serve::{InProcClient, Json, ServeConfig, Server};
use cascade_trace::{export_jsonl, Arg, TimeMode, TraceSink, SCHEMA_REQUIRED_FIELDS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// A counter packaged as a single user module so that eval'ing it submits
/// exactly one background compile — this pins fault-schedule occurrence
/// numbers to known jobs (same idiom as `tests/fault_recovery.rs`).
const COUNTER_MODULE: &str = "module Counter(input wire c);\n\
      reg [15:0] cnt = 0;\n\
      always @(posedge c) cnt <= cnt + 1;\n\
      always @(posedge c) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);\n\
    endmodule";

/// Root-level counter driving the LED bank — gives the VCD dump visible
/// data-plane ports.
const COUNTER: &str = "reg [15:0] cnt = 0;\n\
                       always @(posedge clk.val) cnt <= cnt + 1;\n\
                       assign led.val = cnt[7:0];";

/// Polls `cond` until it holds or the deadline passes.
fn wait_until(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Drives a solo runtime's background compile to settlement (see
/// `tests/fault_recovery.rs` for the full rationale): all waiting happens
/// in *modeled* wall time, so a trace exported in `VirtualOnly` mode is
/// reproducible no matter how the host schedules the worker thread.
fn settle_compile(rt: &mut Runtime) {
    for _ in 0..64 {
        if !rt.stats().compile_in_flight {
            break;
        }
        rt.wait_for_compile_worker();
        if let Some(at) = rt.compile_ready_at() {
            rt.advance_wall((at - rt.wall_seconds()).max(0.0) + 1e-9);
        }
        rt.service().expect("service");
    }
}

/// The event names of a JSONL export, in line order.
fn event_names(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .map(|l| {
            let obj = Json::parse(l).expect("trace line parses as JSON");
            obj.get("name")
                .and_then(Json::as_str)
                .expect("trace event has a name")
                .to_string()
        })
        .collect()
}

/// Asserts that `needles` appear in `haystack` as an ordered (not
/// necessarily contiguous) subsequence.
fn assert_subsequence(haystack: &[String], needles: &[&str]) {
    let mut pos = 0usize;
    for needle in needles {
        match haystack[pos..].iter().position(|n| n == needle) {
            Some(off) => pos += off + 1,
            None => panic!(
                "trace missing `{needle}` after position {pos}; events: {:?}",
                haystack
            ),
        }
    }
}

/// The ISSUE acceptance run: one serve session runs a counter workload
/// under a chaos fault plan (transient toolchain failure plus fabric soft
/// errors at every clean scrub). The exported virtual-time trace must
/// show the whole JIT lifecycle in order: eval, software compile,
/// synthesis and place-and-route (with retry backoff), fabric
/// programming, state migration, scrub-triggered detection and rollback,
/// a replayed recovery window, and re-promotion onto the fabric.
#[test]
fn serve_chaos_trace_shows_full_jit_lifecycle_in_order() {
    let mut config = ServeConfig::quick();
    config.fabrics = 1;
    config.jit.scrub_interval_ticks = 8;
    let mut faults = FaultPlan::builder().toolchain_transient(1);
    // Seed a soft error at every clean scrub so that both recovery paths
    // fire somewhere in the run: the periodic scrub detects corruption
    // and rolls back, and an eval that closes a corrupted speculation
    // window re-executes it in software (`rollback_replay`).
    for occ in 1..=24 {
        faults = faults.scrub_soft_error(occ, 0xBAD5_EED0 + occ);
    }
    config.jit.faults = faults.build();
    let server = Server::new(config);

    let mut c = InProcClient::connect(&server);
    c.open().expect("open");
    c.eval_all(COUNTER_MODULE).expect("eval module");
    c.eval_all("Counter c0(.c(clk.val));").expect("eval inst");
    // Chase the compile through the transient failure to completion: this
    // is where the synthesize/place_route spans and the backoff event are
    // emitted.
    c.wait_compile().expect("wait compile");

    // Promote onto the fabric.
    wait_until(
        || c.run(8).expect("run").lease_held,
        "promotion onto the fabric",
    );

    // Alternate run/eval rounds until an eval lands inside a corrupted
    // speculation window and the replayed recovery appears in the trace.
    // Each eval adds a fresh (unused) module, which is append-only-legal
    // and forces a speculation check before the program is extended.
    let mut replayed = false;
    for i in 0..60 {
        c.run(8).expect("run round");
        c.eval(&format!("module Pad{i}(); endmodule"))
            .expect("pad eval");
        let (jsonl, _) = c.trace_jsonl(true).expect("trace");
        if jsonl.contains("\"name\":\"rollback_replay\"") {
            replayed = true;
            break;
        }
    }
    assert!(replayed, "no eval closed a corrupted speculation window");
    // Let the session re-promote after the recovery churn.
    wait_until(
        || c.run(8).expect("run").lease_held,
        "re-promotion after recovery",
    );

    let (jsonl, _dropped) = c.trace_jsonl(true).expect("trace export");
    let names = event_names(&jsonl);
    assert_subsequence(
        &names,
        &[
            "eval",
            "software_compile",
            "synthesize",
            "place_route",
            "program_fabric",
            "state_migration",
            "scrub",
            "scrub_detection",
            "rollback",
            "rollback_replay",
        ],
    );
    // Re-promotion: the fabric is programmed at least twice.
    assert!(
        names.iter().filter(|n| *n == "program_fabric").count() >= 2,
        "expected a re-promotion after rollback; events: {names:?}"
    );
    // The transient toolchain failure surfaced as a retry with backoff.
    assert!(
        names.iter().any(|n| n == "backoff"),
        "expected a retry backoff event; events: {names:?}"
    );
    let stats = c.stats().expect("stats");
    assert!(
        stats
            .get("compile_retries")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "expected at least one compile retry"
    );

    // The human timeline renders the same story.
    let timeline = c.timeline().expect("timeline");
    assert!(timeline.contains("program_fabric"), "timeline: {timeline}");

    // Per-session and server-wide metric expositions are live.
    let metrics = c.metrics().expect("metrics");
    assert!(metrics.contains("jit_scrub_detections_total"));
    let server_metrics = c.server_metrics().expect("server metrics");
    assert!(server_metrics.contains("serve_sessions"));
    assert!(server_metrics.contains("jit_hw_promotions_total"));
    // The durability counter family is always exposed — zero-valued on a
    // server without a durable root — so dashboards never miss the names.
    for name in [
        "serve_recovery_sessions_total",
        "serve_recovery_journal_records_replayed_total",
        "serve_recovery_corrupt_records_quarantined_total",
        "serve_recovery_warm_bitstream_hits_total",
        "serve_recovery_bitstream_saves_total",
        "serve_recovery_drain_flushes_total",
    ] {
        assert!(
            server_metrics.contains(name),
            "missing recovery metric {name}"
        );
    }
    // Drop accounting is first-class too: the trace ring's drop counter
    // and every session's bounded-output drop counter (a labeled series
    // per tenant), not just server-stats fields.
    // The ring's own footprint rides along, so what the always-on tracer
    // costs is on the same dashboard as what it saw.
    for name in [
        "serve_trace_events_dropped_total",
        "serve_trace_ring_events",
        "serve_trace_ring_bytes",
    ] {
        assert!(server_metrics.contains(name), "missing trace-ring {name}");
    }
    assert!(
        server_metrics.contains("serve_session_output_dropped_total{session="),
        "missing per-session output drop series"
    );
}

/// The sweeper's roll-up (`merge`) racing a live exposition must never
/// produce a torn or non-monotone read: 8 writer threads bump a shared
/// counter 1000 times each while merging live snapshots, and a
/// concurrent reader sees only monotonically non-decreasing values that
/// never exceed the true total.
#[test]
fn concurrent_merge_during_exposition_is_monotone_and_untorn() {
    use cascade_trace::{expose, merge, Registry};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc as StdArc;

    const THREADS: usize = 8;
    const ITERS: usize = 1000;
    let reg = Registry::new();
    let counter = reg.counter("obs_race_total", "Concurrency-test counter");
    let done = StdArc::new(AtomicBool::new(false));

    let reader = {
        let reg = reg.clone();
        let done = StdArc::clone(&done);
        std::thread::spawn(move || {
            let mut last = 0u64;
            let mut reads = 0u64;
            while !done.load(Ordering::Acquire) {
                // The same path the sweeper races: merge a live snapshot
                // into a roll-up, then render the exposition.
                let mut snaps = Vec::new();
                merge(&mut snaps, reg.snapshot());
                let text = expose(&snaps);
                let value: u64 = text
                    .lines()
                    .find_map(|l| l.strip_prefix("obs_race_total "))
                    .expect("counter exposed")
                    .trim()
                    .parse()
                    .expect("counter value is a clean integer, not torn");
                assert!(value >= last, "counter went backwards: {last} -> {value}");
                assert!(
                    value <= (THREADS * ITERS) as u64,
                    "counter overshot the true total: {value}"
                );
                last = value;
                reads += 1;
            }
            (last, reads)
        })
    };

    let writers: Vec<_> = (0..THREADS)
        .map(|_| {
            let reg = reg.clone();
            let counter = counter.clone();
            std::thread::spawn(move || {
                for _ in 0..ITERS {
                    counter.inc();
                    // Each bump also rolls up a snapshot, so merges and
                    // expositions overlap heavily across threads.
                    let mut snaps = Vec::new();
                    merge(&mut snaps, reg.snapshot());
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    done.store(true, Ordering::Release);
    let (last, reads) = reader.join().expect("reader");
    assert!(reads > 0, "the reader never overlapped the writers");
    assert!(last <= (THREADS * ITERS) as u64);
    assert_eq!(counter.get(), (THREADS * ITERS) as u64);
    // The settled exposition reads the exact total.
    let text = reg.expose();
    assert!(
        text.contains(&format!("obs_race_total {}", THREADS * ITERS)),
        "settled exposition wrong:\n{text}"
    );
}

/// Runs a faulted solo pipeline to completion and exports the
/// virtual-clock trace.
fn traced_chaos_run(seed: u64) -> String {
    let mut config = JitConfig::default();
    config.toolchain.time_scale = 1e-6;
    config.scrub_interval_ticks = 8;
    // Open-loop batch sizing adapts to host speed; disable it so tick
    // boundaries (and thus service points) are host-independent.
    config.open_loop = false;
    config.faults = FaultPlan::random(seed);
    config.trace = TraceSink::ring(65_536);
    let mut rt = Runtime::new(Board::new(), config).expect("runtime");
    rt.eval(COUNTER_MODULE).expect("eval module");
    rt.eval("Counter c0(.c(clk.val));").expect("eval inst");
    // Tick one at a time, settling any in-flight compile at every tick
    // boundary: a rollback mid-run resubmits a background compile, and
    // without the settle its outcome would land at whatever tick the host
    // happened to schedule the worker — re-promotion would then jitter
    // between runs.
    for _ in 0..240 {
        settle_compile(&mut rt);
        rt.run_ticks(1).expect("run");
    }
    settle_compile(&mut rt);
    export_jsonl(&rt.trace_sink().snapshot(), TimeMode::VirtualOnly)
}

/// The determinism contract: the same seed and fault plan produce a
/// byte-identical virtual-time export, run to run — host scheduling,
/// worker-thread timing, and retry wall-clock cost must leave no residue.
#[test]
fn virtual_time_trace_is_byte_identical_across_runs() {
    for seed in [11, 77] {
        let a = traced_chaos_run(seed);
        let b = traced_chaos_run(seed);
        assert!(!a.is_empty(), "seed {seed}: empty trace");
        assert_eq!(a, b, "seed {seed}: virtual-time export not reproducible");
    }
}

/// A counting allocator so the emission tests can assert that a trace
/// call performs no heap work at all. The count is per thread: sibling
/// tests allocate freely on theirs while this one is measured.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations (and reallocations) made by the calling thread in `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A disabled sink is free: emitting spans, instants, and counters
/// allocates nothing (the hot engines lean on this — tracing off must
/// cost ≤2% on the bench hot loops).
#[test]
fn disabled_sink_emission_allocates_nothing() {
    let sink = TraceSink::disabled();
    assert!(!sink.enabled());
    let allocs = allocations_in(|| {
        for i in 0..1_000u64 {
            sink.span(1, "jit", "eval", i, 10, &[("version", Arg::U64(i))]);
            sink.instant(1, "jit", "scrub", i, &[("ok", Arg::Bool(true))]);
            sink.counter(1, "jit", "ticks_per_s", i, &[("value", Arg::F64(1.0))]);
            sink.host_instant(1, "serve", "sweep", &[]);
        }
    });
    assert_eq!(allocs, 0, "disabled sink emission allocated");
    assert_eq!(sink.len(), 0);
    assert_eq!(sink.dropped(), 0);
}

/// The always-on ring is nearly free too: once it has wrapped and has
/// seen every name, emitting the events a served edit loop records
/// allocates nothing — each record is packed into a reused buffer and
/// copied over the space the oldest one gave up.
#[test]
fn full_ring_emission_allocates_nothing() {
    let sink = TraceSink::ring(1024);
    // Warm up on later (so wider) ids than the measured cycles carry:
    // the buffer then already has room for whatever follows, even when
    // the host clock crosses a varint boundary mid-test.
    for cycle in 0..1024 {
        emit_served_cycle(&sink, u64::MAX / 4 + cycle);
    }
    assert_eq!(sink.len(), 1024);
    let before = sink.emitted();
    let allocs = allocations_in(|| {
        for cycle in 0..10_000 / SERVED_CYCLE_EVENTS + 1 {
            emit_served_cycle(&sink, cycle);
        }
    });
    assert!(sink.emitted() - before >= 10_000);
    assert_eq!(allocs, 0, "emission into a full ring allocated");
    assert_eq!(sink.len(), 1024);
}

/// The bounded ring drops oldest-first and counts what it dropped.
#[test]
fn ring_overflow_drops_oldest_and_counts() {
    let sink = TraceSink::ring(8);
    for i in 0..20u64 {
        sink.instant(0, "jit", &format!("ev{i}"), i, &[]);
    }
    assert_eq!(sink.len(), 8);
    assert_eq!(sink.dropped(), 12);
    assert_eq!(sink.emitted(), 20);
    let snap = sink.snapshot();
    // The survivors are the newest events, oldest first.
    assert_eq!(snap.first().unwrap().name, "ev12");
    assert_eq!(snap.last().unwrap().name, "ev19");
}

/// Every exported line is a standalone JSON object carrying the full
/// Chrome-trace schema — the serve JSON parser round-trips it.
#[test]
fn jsonl_export_round_trips_through_json_parser() {
    let sink = TraceSink::ring(64);
    sink.span(3, "jit", "eval", 100, 50, &[("version", Arg::U64(1))]);
    sink.instant(3, "jit", "scrub", 200, &[("ok", Arg::Bool(false))]);
    sink.counter(3, "jit", "ticks_per_s", 300, &[("value", Arg::F64(2.5))]);
    sink.host_instant(3, "serve", "session_open", &[("id", Arg::U64(3))]);
    for mode in [TimeMode::Full, TimeMode::VirtualOnly] {
        let jsonl = export_jsonl(&sink.snapshot(), mode);
        let expect = if mode == TimeMode::Full { 4 } else { 3 };
        assert_eq!(jsonl.lines().count(), expect, "{mode:?}");
        for line in jsonl.lines() {
            let obj = Json::parse(line).expect("line parses");
            for field in SCHEMA_REQUIRED_FIELDS {
                assert!(obj.get(field).is_some(), "missing `{field}` in {line}");
            }
            let ph = obj.get("ph").and_then(Json::as_str).unwrap();
            assert!(matches!(ph, "X" | "i" | "C"), "bad ph `{ph}`");
            assert!(obj.get("ts").and_then(Json::as_f64).is_some());
        }
        // The host clock is redacted from the deterministic export.
        if mode == TimeMode::VirtualOnly {
            assert!(!jsonl.contains("host_ts_ns"));
            assert!(!jsonl.contains("session_open"));
        }
    }
}

/// The metrics exposition lists every former `RuntimeStats` counter plus
/// the compile-latency and lease-wait histograms, with Prometheus-style
/// HELP/TYPE comments.
#[test]
fn metrics_exposition_is_complete() {
    let mut config = JitConfig::default();
    config.toolchain.time_scale = 1e-6;
    config.scrub_interval_ticks = 8;
    let mut rt = Runtime::new(Board::new(), config).expect("runtime");
    rt.eval(COUNTER_MODULE).expect("eval module");
    rt.eval("Counter c0(.c(clk.val));").expect("eval inst");
    settle_compile(&mut rt);
    rt.run_ticks(40).expect("run");
    let text = rt.metrics_text();
    for name in [
        // Former RuntimeStats counters, now registry-backed.
        "jit_hw_promotions_total",
        "jit_lease_demotions_total",
        "jit_scrubs_total",
        "jit_scrub_detections_total",
        "jit_checkpoints_taken_total",
        "jit_checkpoints_restored_total",
        "jit_fabric_losses_total",
        "jit_compile_retries_total",
        "jit_compile_watchdog_cancels_total",
        "jit_compile_worker_panics_total",
        "jit_compile_cache_hits_total",
        "jit_compile_cache_misses_total",
        "jit_compile_cache_evictions_total",
        // Point-in-time gauges.
        "jit_ticks_total",
        "jit_wall_seconds",
        "jit_version",
        "jit_mode",
        "jit_compile_in_flight",
        "jit_open_loop_active",
        "jit_lease_held",
        "jit_hw_pending",
        // Latency histograms.
        "jit_compile_latency_seconds",
        "jit_lease_wait_seconds",
    ] {
        assert!(text.contains(name), "metrics missing `{name}`:\n{text}");
    }
    assert!(text.contains("# HELP"), "no HELP comments:\n{text}");
    assert!(text.contains("# TYPE"), "no TYPE comments:\n{text}");
    assert!(
        text.contains("jit_compile_latency_seconds_bucket"),
        "histogram not exposed with buckets:\n{text}"
    );
}

/// Recovery counters are monotonic: a checkpoint restore (which tears the
/// engines down and rebuilds them) must not reset any counter, because
/// redeclaring a metric by name after the swap yields the same cell.
#[test]
fn recovery_counters_survive_checkpoint_restore() {
    let mut config = JitConfig::default();
    config.toolchain.time_scale = 1e-6;
    config.scrub_interval_ticks = 8;
    config.faults = FaultPlan::builder().toolchain_transient(1).build();
    let mut rt = Runtime::new(Board::new(), config).expect("runtime");
    rt.eval(COUNTER_MODULE).expect("eval module");
    rt.eval("Counter c0(.c(clk.val));").expect("eval inst");
    settle_compile(&mut rt);
    rt.run_ticks(40).expect("run");
    let before = rt.stats();
    assert!(before.compile_retries >= 1, "fault plan did not fire");
    assert!(before.checkpoints_taken >= 1, "no checkpoint armed");

    assert!(
        rt.restore_checkpoint().expect("restore"),
        "nothing restored"
    );
    let after = rt.stats();
    // Monotonic across the engine teardown/rebuild:
    assert_eq!(after.checkpoints_restored, before.checkpoints_restored + 1);
    assert!(after.checkpoints_taken >= before.checkpoints_taken);
    assert!(after.scrubs >= before.scrubs);
    assert_eq!(after.compile_retries, before.compile_retries);
    assert!(after.hw_promotions >= before.hw_promotions);
    // The exposition reads the same cells.
    let text = rt.metrics_text();
    assert!(text.contains(&format!(
        "jit_checkpoints_restored_total {}",
        after.checkpoints_restored
    )));
    assert!(text.contains(&format!(
        "jit_compile_retries_total {}",
        after.compile_retries
    )));

    // And the counters keep counting after the restore.
    rt.run_ticks(40).expect("run after restore");
    settle_compile(&mut rt);
    assert!(rt.stats().ticks >= after.ticks);
}

/// VCD waveform smoke test over the serve protocol: start a dump, run,
/// stop, and check the file holds variable declarations and timestamped
/// value changes.
#[test]
fn serve_vcd_dump_produces_waveform() {
    let dir = std::env::temp_dir().join(format!("cascade_vcd_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("smoke.vcd");
    let path_s = path.to_str().expect("utf8 path");

    let server = Server::new(ServeConfig::quick());
    let mut c = InProcClient::connect(&server);
    c.open().expect("open");
    c.eval_all(COUNTER).expect("eval");
    c.vcd_start(path_s, &[]).expect("vcd start");
    c.run(16).expect("run");
    let stopped = c.vcd_stop().expect("vcd stop");
    assert_eq!(stopped.as_deref(), Some(path_s));
    assert!(c.vcd_stop().expect("second stop").is_none());

    let text = std::fs::read_to_string(&path).expect("read vcd");
    assert!(text.contains("$timescale"), "no header: {text}");
    assert!(text.contains("$var wire"), "no declarations: {text}");
    assert!(text.contains('#'), "no timestamps: {text}");
    // The clock is always tracked and toggles, so value changes exist.
    assert!(
        text.lines().any(|l| l == "1!" || l == "0!"),
        "no clock value changes: {text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Profiling attribution: with tracing enabled the software engine counts
/// process activations attributable to Verilog source constructs.
#[test]
fn profile_report_names_verilog_sources() {
    let mut config = JitConfig::default();
    config.toolchain.time_scale = 1e-6;
    config.auto_compile = false;
    config.trace = TraceSink::ring(1024);
    let mut rt = Runtime::new(Board::new(), config).expect("runtime");
    rt.eval(COUNTER).expect("eval");
    rt.run_ticks(32).expect("run");
    let text = rt.profile_text().expect("profile text");
    assert!(
        text.contains("always @(posedge"),
        "no always-block attribution:\n{text}"
    );
    assert!(text.contains("assign"), "no assign attribution:\n{text}");
    assert!(text.contains("opcode"), "no opcode histogram:\n{text}");
}

/// The hardware-engine profile renders the lane `occ`upancy column. The
/// design mixes both settle schedules: a long combinational chain hangs
/// off a register that updates every 16th cycle, so most waves are narrow
/// (sparse settles) while the chain's update waves go dense; both count
/// the lanes whose output changed.
#[test]
fn hw_profile_shows_occupancy_column() {
    let mut src = String::from(
        "reg [15:0] cnt = 0;\n\
         reg [7:0] slow = 0;\n\
         always @(posedge clk.val) cnt <= cnt + 1;\n\
         always @(posedge clk.val) if (cnt[3:0] == 4'd0) slow <= slow + 8'd1;\n\
         wire [7:0] t0;\n\
         assign t0 = slow ^ 8'h5a;\n",
    );
    // 48 taps directly off `slow` (depth 1), reduced by a balanced xor
    // tree (depth ~6) — wide enough to dwarf the counter's cone but
    // shallow enough for the virtual toolchain to close timing.
    for i in 1..48 {
        src.push_str(&format!(
            "wire [7:0] t{i};\nassign t{i} = (slow >> {}) ^ 8'h{:02x};\n",
            i % 8,
            i
        ));
    }
    let mut names: Vec<String> = (0..48).map(|i| format!("t{i}")).collect();
    let mut next = 0;
    while names.len() > 1 {
        let mut reduced = Vec::new();
        for pair in names.chunks(2) {
            if let [a, b] = pair {
                let n = format!("r{next}");
                next += 1;
                src.push_str(&format!("wire [7:0] {n};\nassign {n} = {a} ^ {b};\n"));
                reduced.push(n);
            } else {
                reduced.push(pair[0].clone());
            }
        }
        names = reduced;
    }
    src.push_str(&format!("assign led.val = {} ^ cnt[7:0];\n", names[0]));

    let mut config = JitConfig::default();
    config.toolchain.time_scale = 1e-6;
    config.trace = TraceSink::ring(1024);
    let mut rt = Runtime::new(Board::new(), config).expect("runtime");
    rt.eval(&src).expect("eval");
    settle_compile(&mut rt);
    rt.run_ticks(256).expect("run");
    let text = rt.profile_text().expect("profile text");
    assert!(
        text.contains("hardware engine"),
        "compile did not promote:\n{text}"
    );
    assert!(text.contains("occ"), "no lane occupancy column:\n{text}");
}
