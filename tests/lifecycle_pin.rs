//! The JIT lifecycle, pinned: fixed scripts drive a runtime through every
//! path of its lifecycle — promotion with and without a fleet, revocation
//! and re-promotion from the bitstream cache, scrub-detected soft errors
//! (rollback and replay), fabric loss, transient-exhausted and terminal
//! compile failures, explicit checkpoints, hibernation and native mode —
//! and each script's whole observable record is pinned: the transcript,
//! the recovery log, the tick count, the modeled wall clock's bits, every
//! `stats()` counter, the sequence of modes, and the virtual-time trace
//! export. A refactor of the lifecycle must leave every record
//! byte-identical; a failure prints the record that moved.

use cascade_core::{JitConfig, Runtime};
use cascade_fpga::{ArbiterConfig, Board, Device, FaultPlan, Fleet, Toolchain};
use cascade_trace::{export_jsonl, TimeMode, TraceSink};

const COUNTER: &str = "reg [15:0] cnt = 0;\n\
                       always @(posedge clk.val) cnt <= cnt + 1;\n\
                       always @(posedge clk.val) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);\n\
                       assign led.val = cnt[7:0];";

/// A counter packaged as one user module, so that eval'ing its instance
/// submits exactly one background compile.
const COUNTER_MODULE: &str = "module Counter(input wire c);\n\
      reg [15:0] cnt = 0;\n\
      always @(posedge c) cnt <= cnt + 1;\n\
      always @(posedge c) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);\n\
    endmodule";

/// A system-task-free counter (native mode refuses `$display`).
const QUIET: &str = "reg [7:0] cnt = 0;\n\
                     always @(posedge clk.val) cnt <= cnt + 1;\n\
                     assign led.val = cnt;";

fn config() -> JitConfig {
    let mut config = JitConfig::default();
    config.toolchain.time_scale = 1e-6;
    // Open-loop batch sizing adapts to measured cost; off, every tick
    // boundary is a service point and the record is host-independent.
    config.open_loop = false;
    config.trace = TraceSink::ring(1 << 16);
    config
}

/// Drives a background compile to settlement in modeled time (see
/// `tests/fault_recovery.rs`): the record is then independent of when
/// the host schedules the compile worker.
fn settle(rt: &mut Runtime) {
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

/// One script's observable record.
#[derive(Default)]
struct Record {
    lines: Vec<String>,
    modes: Vec<&'static str>,
}

impl Record {
    fn note(&mut self, rt: &mut Runtime, what: &str) {
        let m = rt.mode().name();
        if self.modes.last() != Some(&m) {
            self.modes.push(m);
        }
        for l in rt.drain_output() {
            self.lines.push(format!("{what}: out {l}"));
        }
        for l in rt.drain_recovery_log() {
            self.lines.push(format!("{what}: log {l}"));
        }
    }

    /// Ticks one at a time, settling any compile between ticks (a
    /// rollback resubmits one mid-run).
    fn run(&mut self, rt: &mut Runtime, ticks: u64, what: &str) {
        for _ in 0..ticks {
            settle(rt);
            rt.run_ticks(1).expect("run");
            self.note(rt, what);
        }
        settle(rt);
        self.note(rt, what);
    }

    fn finish(mut self, rt: &mut Runtime) -> String {
        self.note(rt, "end");
        let mut out = self.lines.join("\n");
        out.push_str(&format!(
            "\nticks {}\nwall {:#x}\nmodes {}\nstats {:?}\ntrace\n{}",
            rt.ticks(),
            rt.wall_seconds().to_bits(),
            self.modes.join(" > "),
            rt.stats(),
            export_jsonl(&rt.trace_sink().snapshot(), TimeMode::VirtualOnly),
        ));
        out
    }
}

fn promote_without_fleet() -> String {
    let mut config = config();
    config.scrub_interval_ticks = 8;
    let mut rt = Runtime::new(Board::new(), config).expect("runtime");
    let mut rec = Record::default();
    rt.eval(COUNTER).expect("eval");
    rec.note(&mut rt, "eval");
    rec.run(&mut rt, 40, "run");
    rt.eval("reg [3:0] extra = 0;").expect("edit");
    rec.note(&mut rt, "edit");
    rec.run(&mut rt, 24, "rerun");
    rec.finish(&mut rt)
}

fn fleet_revoke_and_repromote() -> String {
    let fleet = Fleet::with_config(1, ArbiterConfig::eager());
    let mut a = Runtime::new(Board::new(), config()).expect("runtime a");
    a.attach_fleet(fleet.clone(), 1);
    a.set_heat(1.0);
    let mut rec = Record::default();
    a.eval(COUNTER).expect("eval a");
    rec.note(&mut a, "eval");
    rec.run(&mut a, 12, "promote");
    assert!(a.lease_held(), "a holds the fabric");

    // A hotter tenant wants the one fabric: the eager arbiter revokes a.
    let mut b = Runtime::new(Board::new(), config()).expect("runtime b");
    b.attach_fleet(fleet.clone(), 2);
    b.set_heat(2.0);
    b.eval(QUIET).expect("eval b");
    settle(&mut b);
    rec.run(&mut a, 6, "revoked");
    b.service().expect("b claims");
    b.run_ticks(4).expect("run b");
    rec.lines.push(format!("b {:?}", b.stats()));
    rec.run(&mut a, 6, "leaseless");

    // b closes; its fabric returns and a re-promotes from the cache.
    drop(b);
    a.set_heat(3.0);
    rec.run(&mut a, 12, "repromote");
    rec.lines.push(format!("fleet {:?}", fleet.stats()));
    rec.finish(&mut a)
}

fn soft_error_rollback_and_replay() -> String {
    let mut config = config();
    config.scrub_interval_ticks = 4;
    let plan = FaultPlan::builder()
        .scrub_soft_error(1, 0xDEAD_BEEF)
        .scrub_soft_error(3, 0x5EED)
        .build();
    config.faults = plan.clone();
    let mut rt = Runtime::new(Board::new(), config).expect("runtime");
    let mut rec = Record::default();
    rt.eval(COUNTER_MODULE).expect("eval module");
    rt.eval("Counter c0(.c(clk.val));").expect("eval inst");
    rec.note(&mut rt, "eval");
    // The first clean scrub injects and the next one detects it and rolls
    // back. Run on to the clean scrub that injects the second upset, then
    // close the window at a boundary: the verify detects it and replays
    // the window in software.
    for _ in 0..64 {
        settle(&mut rt);
        rt.run_ticks(1).expect("run");
        rec.note(&mut rt, "periodic");
        if plan.injected() >= 2 {
            break;
        }
    }
    rec.lines
        .push(format!("verified {:?}", rt.checkpoint_now().ok()));
    rec.note(&mut rt, "boundary");
    rec.run(&mut rt, 16, "after");
    rec.finish(&mut rt)
}

fn fabric_loss() -> String {
    let mut config = config();
    config.scrub_interval_ticks = 4;
    config.faults = FaultPlan::builder().fabric_loss(1).build();
    let fleet = Fleet::with_config(1, ArbiterConfig::eager());
    let mut rt = Runtime::new(Board::new(), config).expect("runtime");
    rt.attach_fleet(fleet.clone(), 7);
    let mut rec = Record::default();
    rt.eval(COUNTER).expect("eval");
    rec.note(&mut rt, "eval");
    rec.run(&mut rt, 24, "lose");
    fleet.restore_fabric();
    rt.service().expect("claim the restored fabric");
    rec.run(&mut rt, 24, "restored");
    // A loss the fleet reports mid-window: resume from the checkpoint and
    // replay in software.
    rec.lines
        .push(format!("failed {:?}", fleet.fail_any_fabric()));
    rec.run(&mut rt, 6, "lost");
    rec.lines.push(format!("fleet {:?}", fleet.stats()));
    rec.finish(&mut rt)
}

fn compile_failures() -> String {
    let mut config = config();
    config.compile_max_retries = 1;
    config.faults = FaultPlan::builder()
        .toolchain_transient(1)
        .toolchain_transient(2)
        .build();
    let mut rt = Runtime::new(Board::new(), config).expect("runtime");
    let mut rec = Record::default();
    rt.eval(COUNTER).expect("eval");
    rec.run(&mut rt, 8, "abandoned");

    let mut terminal = self::config();
    terminal.toolchain = Toolchain::new(Device::tiny(10));
    terminal.toolchain.time_scale = 1e-6;
    let mut small = Runtime::new(Board::new(), terminal).expect("runtime");
    small
        .eval(
            "reg [63:0] a = 0;\n\
             always @(posedge clk.val) a <= a * 64'd2654435761 + (a >> 7);\n\
             assign led.val = a[7:0];",
        )
        .expect("eval");
    rec.run(&mut small, 4, "terminal");
    let small_record = rec.finish(&mut small);
    let mut rec = Record::default();
    rec.lines.push(small_record);
    rec.finish(&mut rt)
}

fn checkpoint_and_restore() -> String {
    let mut config = config();
    config.auto_compile = false;
    config.checkpoint_interval_ticks = 8;
    let mut rt = Runtime::new(Board::new(), config).expect("runtime");
    let mut rec = Record::default();
    rt.eval(COUNTER).expect("eval");
    rec.run(&mut rt, 10, "run");
    rec.lines
        .push(format!("took {:?}", rt.checkpoint_now().ok()));
    rec.run(&mut rt, 6, "after");
    rec.lines
        .push(format!("restored {:?}", rt.restore_checkpoint().ok()));
    rec.note(&mut rt, "restore");
    rec.run(&mut rt, 6, "replay");
    rec.finish(&mut rt)
}

fn hibernate_and_restore() -> String {
    let mut config = config();
    config.scrub_interval_ticks = 8;
    let board = Board::new();
    let mut rt = Runtime::new(board.clone(), config.clone()).expect("runtime");
    let mut rec = Record::default();
    rt.eval(COUNTER).expect("eval");
    rec.run(&mut rt, 20, "run");
    let image = rt.hibernate_image().expect("hibernate");
    rec.note(&mut rt, "hibernate");
    let bytes = image.to_bytes();
    rec.lines.push(format!("image {} bytes", bytes.len()));
    drop(rt);
    // Waking submits the replayed design twice (the replay's eval, then
    // the state restore's rebuild); whether the worker starts the first
    // before the second supersedes it is up to the host, so the woken
    // runtime compiles nothing.
    config.auto_compile = false;
    let mut woke = Runtime::new(board, config).expect("runtime");
    woke.restore_image(&cascade_core::HibernateImage::from_bytes(&bytes).expect("decode"))
        .expect("restore");
    rec.note(&mut woke, "wake");
    rec.run(&mut woke, 20, "woken");
    rec.finish(&mut woke)
}

fn native_from_software() -> String {
    let mut config = config();
    config.auto_compile = false;
    let board = Board::new();
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    let mut rec = Record::default();
    rt.eval(QUIET).expect("eval");
    rec.run(&mut rt, 3, "software");
    rt.enter_native().expect("native");
    rec.note(&mut rt, "native");
    rt.run_ticks(10).expect("run");
    rec.lines.push(format!("leds {}", board.leds().to_u64()));
    rec.note(&mut rt, "native-run");
    rt.exit_native().expect("exit");
    rec.run(&mut rt, 3, "exited");
    rec.finish(&mut rt)
}

/// FNV-1a: a stable digest of a record.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(script, record length, record digest)`.
const PINS: &[(&str, usize, u64)] = &[
    ("promote_without_fleet", 8542, 0xfbda4a6380a9a365),
    ("fleet_revoke_and_repromote", 5801, 0x7e67a0287b1171d2),
    ("soft_error_rollback_and_replay", 5895, 0x93a1d018c819c593),
    ("fabric_loss", 6172, 0x3f86d2b41f691060),
    ("compile_failures", 4234, 0x7b349e0a36a885ad),
    ("checkpoint_and_restore", 1273, 0xeae4b85c2bd36784),
    ("hibernate_and_restore", 4153, 0xdc9fc891838b7086),
    ("native_from_software", 1438, 0x318667c32d6786fc),
];

/// A script: drives one runtime and returns its record.
type Script = fn() -> String;

#[test]
fn every_lifecycle_path_is_pinned() {
    let scripts: [(&str, Script); 8] = [
        ("promote_without_fleet", promote_without_fleet),
        ("fleet_revoke_and_repromote", fleet_revoke_and_repromote),
        (
            "soft_error_rollback_and_replay",
            soft_error_rollback_and_replay,
        ),
        ("fabric_loss", fabric_loss),
        ("compile_failures", compile_failures),
        ("checkpoint_and_restore", checkpoint_and_restore),
        ("hibernate_and_restore", hibernate_and_restore),
        ("native_from_software", native_from_software),
    ];
    let mut moved = Vec::new();
    for (name, script) in scripts {
        let record = script();
        let again = script();
        assert_eq!(record, again, "{name}: the record is not reproducible");
        let got = (name, record.len(), fnv(&record));
        if !PINS.contains(&got) {
            eprintln!("---- {name} record ----\n{record}\n---- end {name} ----");
            moved.push(format!("({name:?}, {}, {:#018x}),", got.1, got.2));
        }
    }
    assert!(moved.is_empty(), "records moved:\n{}", moved.join("\n"));
}
