//! The data plane is index-addressed: names are resolved when engines are
//! wired, and a tick touches integer handles only. Three properties pin
//! that down — a tick allocates nothing, the *modeled* machine is the one
//! the by-name data plane simulated (same virtual clock, same counters,
//! same trace), and a name that cannot be resolved is dealt with at the
//! wiring site, never on the tick path.

use cascade_bits::{Bits, Prng};
use cascade_core::{ExecMode, JitConfig, Runtime};
use cascade_fpga::{Board, FaultPlan, Fleet};
use cascade_netlist::{synthesize, MemId, NetlistSim};
use cascade_serve::{InProcClient, ServeConfig, Server};
use cascade_sim::{elaborate, library_from_source};
use cascade_trace::{export_jsonl, TimeMode, TraceSink};
use cascade_workloads::regex::{compile, matcher_verilog, Flavor as RegexFlavor};
use cascade_workloads::sha256::{miner_verilog, Flavor as MinerFlavor, MinerConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

// ---------------------------------------------------------------------
// A per-thread counting allocator (the `tests/trace_pipeline.rs` pattern:
// sibling tests allocate freely on their own threads).
// ---------------------------------------------------------------------

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations (and reallocations) made by the calling thread in `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Bytes allocated (a reallocation counts its new size) by the calling
/// thread in `f`.
fn bytes_allocated_in(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

const PATTERN: &str = "GET |POST ";
const STREAM: &[u8] = b"GET /index HTTP POST /x GET  PUT POST!POST ";

/// The Fig. 12 matcher: tiny logic behind the board FIFO.
fn matcher_src() -> String {
    matcher_verilog(&compile(PATTERN).expect("pattern"), RegexFlavor::Cascade)
}

/// The Fig. 11 miner with a target no nonce in these windows meets, so
/// `$finish` never cuts a window short.
fn miner_src() -> String {
    let cfg = MinerConfig {
        data: 0x5eed_b10c,
        target: 1,
        start_nonce: 0,
        announce: true,
        use_functions: false,
    };
    miner_verilog(&cfg, MinerFlavor::Cascade)
}

fn push_stream(board: &Board, tokens: usize) {
    for i in 0..tokens {
        assert!(board.fifo_push(Bits::from_u64(8, STREAM[i % STREAM.len()] as u64)));
    }
}

/// Lands the in-flight background compile: all waiting is in modeled
/// time, so the promotion tick is the same on every host.
fn promote(rt: &mut Runtime) {
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("compile staged");
    rt.advance_wall((ready - rt.wall_seconds()).max(0.0) + 1.0);
    rt.run_ticks(1).expect("promotion tick");
}

// ---------------------------------------------------------------------
// Modeled time is pinned
// ---------------------------------------------------------------------

/// Everything the modeled machine reports after a script. `wall_bits` is
/// `wall_seconds().to_bits()`: the virtual clock is compared to the last
/// bit, not to a tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Modeled {
    wall_bits: u64,
    ticks: u64,
    hw_promotions: u64,
    scrubs: u64,
    checkpoints_taken: u64,
    checkpoints_restored: u64,
    cache_hits: u64,
    cache_misses: u64,
    fifo_pops: u64,
    leds: u64,
    output_lines: usize,
}

fn modeled(rt: &mut Runtime, board: &Board) -> Modeled {
    let s = rt.stats();
    Modeled {
        wall_bits: rt.wall_seconds().to_bits(),
        ticks: rt.ticks(),
        hw_promotions: s.hw_promotions,
        scrubs: s.scrubs,
        checkpoints_taken: s.checkpoints_taken,
        checkpoints_restored: s.checkpoints_restored,
        cache_hits: s.compile_cache_hits,
        cache_misses: s.compile_cache_misses,
        fifo_pops: board.fifo_pops(),
        leds: board.leds().to_u64(),
        output_lines: rt.drain_output().len(),
    }
}

/// eval → software window → promote → hardware window (crossing a scrub
/// boundary) → edit → software window → promote → hardware window.
fn edit_loop_script(src: &str, edit: &str, feed: bool) -> Modeled {
    let board = Board::new();
    board.set_fifo_capacity(1 << 14);
    let mut rt = Runtime::new(board.clone(), JitConfig::default()).expect("runtime");
    rt.eval(src).expect("eval");
    let feed = |n| {
        if feed {
            push_stream(&board, n)
        }
    };
    feed(150);
    rt.run_ticks(200).expect("software window");
    assert_eq!(rt.mode(), ExecMode::Software);
    promote(&mut rt);
    assert_eq!(rt.mode(), ExecMode::HardwareForwarded);
    feed(3000);
    rt.run_ticks(5000).expect("hardware window");
    rt.eval(edit).expect("edit");
    assert_eq!(rt.mode(), ExecMode::Software);
    feed(100);
    rt.run_ticks(120).expect("software window after the edit");
    promote(&mut rt);
    assert_eq!(rt.mode(), ExecMode::HardwareForwarded);
    feed(3000);
    rt.run_ticks(5000).expect("hardware window after the edit");
    assert!(!rt.is_finished());
    modeled(&mut rt, &board)
}

const EDIT: &str = "reg [7:0] extra = 0;\n\
                    always @(posedge clk.val) extra <= extra + 8'd3;";

/// The simulator got faster; the simulated machine did not change. Both
/// constants were captured at the parent commit (by-name data plane).
#[test]
fn modeled_machine_is_the_parents_across_an_edit_loop() {
    let common = Modeled {
        wall_bits: 0,
        ticks: 10_322,
        hw_promotions: 2,
        scrubs: 7,
        checkpoints_taken: 9,
        checkpoints_restored: 0,
        cache_hits: 0,
        cache_misses: 2,
        fifo_pops: 0,
        leds: 0,
        output_lines: 0,
    };
    assert_eq!(
        edit_loop_script(&matcher_src(), EDIT, true),
        Modeled {
            wall_bits: 4646612836006068967,
            fifo_pops: 6250,
            leds: 69,
            ..common
        },
        "regex matcher over the FIFO"
    );
    assert_eq!(
        edit_loop_script(&miner_src(), EDIT, false),
        Modeled {
            wall_bits: 4653853822921614763,
            leds: 156,
            ..common
        },
        "SHA-256 miner"
    );
}

/// The Fig. 12 phase script the benchmark's `jit_regex` runs (same
/// `time_scale`, so the compile lands inside it): eval, let the compile
/// worker finish, then 400 × (push 256 bytes, `run_ticks(256)`).
fn phase_script(src: &str, mut config: JitConfig) -> (Modeled, ExecMode) {
    config.toolchain.time_scale = 0.05;
    let board = Board::new();
    board.set_fifo_capacity(1 << 14);
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    rt.eval(src).expect("eval");
    rt.wait_for_compile_worker();
    run_fed_chunks(&mut rt, &board);
    (modeled(&mut rt, &board), rt.mode())
}

/// 400 × (push 256 bytes, `run_ticks(256)`).
fn run_fed_chunks(rt: &mut Runtime, board: &Board) {
    for _ in 0..400 {
        push_stream(board, 256);
        assert_eq!(rt.run_ticks(256).expect("chunk"), 256);
    }
}

/// The edit-loop pin above runs the default configuration only. These are
/// the ones a data-plane change is likeliest to move: a hardware engine
/// left on the data plane (`forwarding` off — every `output` poll of it is
/// a modeled bus message), the scheduler's own tick in hardware
/// (`open_loop` off), one engine per instance (`inline` off) and software
/// for the whole script. Constants captured at the parent commit (every
/// wire polled on every pass).
#[test]
fn modeled_machine_is_the_parents_with_each_stage_off() {
    let common = Modeled {
        wall_bits: 0,
        ticks: 102_400,
        hw_promotions: 1,
        scrubs: 48,
        checkpoints_taken: 71,
        checkpoints_restored: 0,
        cache_hits: 0,
        cache_misses: 1,
        fifo_pops: 102_400,
        leds: 240,
        output_lines: 0,
    };
    // Open-loop batching needs the peripherals absorbed, so with
    // `forwarding` off it never engages and turning it off too changes
    // nothing; the matcher instantiates no user module, so `inline` off
    // only keeps it from compiling.
    let on_the_data_plane = Modeled {
        wall_bits: 4622855035237489309,
        ..common
    };
    let software = Modeled {
        wall_bits: 4623300265966168254,
        hw_promotions: 0,
        scrubs: 0,
        checkpoints_taken: 24,
        cache_misses: 0,
        ..common
    };
    let d = JitConfig::default;
    let cases = [
        (
            "forwarding off",
            d().without("forwarding"),
            (on_the_data_plane, ExecMode::Hardware),
        ),
        (
            "open_loop off",
            d().without("open_loop"),
            (
                Modeled {
                    wall_bits: 4622522712144005845,
                    ..common
                },
                ExecMode::HardwareForwarded,
            ),
        ),
        (
            "forwarding and open_loop off",
            d().without("forwarding").without("open_loop"),
            (on_the_data_plane, ExecMode::Hardware),
        ),
        (
            "inline off",
            d().without("inline"),
            (software, ExecMode::Software),
        ),
        (
            "auto_compile off",
            d().without("auto_compile"),
            (software, ExecMode::Software),
        ),
    ];
    for (what, config, parent) in cases {
        assert_eq!(phase_script(&matcher_src(), config), parent, "{what}");
    }
    // A program that does instantiate a user module: with `inline` off
    // its value crosses main -> `r` -> main inside one pass.
    assert_eq!(
        phase_script(WIRED, d().without("inline")),
        (
            Modeled {
                wall_bits: 4619726157369753825,
                leds: 44,
                output_lines: 12_800,
                ..software
            },
            ExecMode::Software
        ),
        "inline off, one engine per instance"
    );
}

// ---------------------------------------------------------------------
// The plane batch: the clock, the components, one software engine
// ---------------------------------------------------------------------

/// The `tenants_run` tenant: a counter whose low byte drives the LEDs.
const TENANT: &str = "reg [31:0] cnt = 0;\n\
                      always @(posedge clk.val) cnt <= cnt + 32'd40503;\n\
                      assign led.val = cnt[7:0];";

/// The tenant without its LEDs: the clock and one software engine, a plane
/// of no components.
const PIN_FREE: &str = "reg [31:0] cnt = 0;\n\
                        always @(posedge clk.val) cnt <= cnt + 32'd40503;";

/// The `edit_inproc` session: six one-line evals, each followed by a
/// window.
const EDIT_SESSION: [&str; 6] = [
    "reg [11:0] r_a = 1000;",
    "always @(posedge clk.val) r_a <= r_a + 12'd7;",
    "reg [15:0] r_b = 3;",
    "assign led.val = r_a[7:0];",
    "always @(posedge clk.val) r_b <= r_b + 16'd311;",
    "initial $display(\"r_a=%d r_b=%d\", r_a, r_b);",
];

/// The `verify soak`/`crash` tenant shape: a `$display` every 8 ticks,
/// and no pin at all.
const DISPLAY_TENANT: [&str; 2] = [COUNTER_MODULE, "Counter c0(.c(clk.val));"];

/// An edit that ends the program 150 ticks later, mid-window.
const FINISH_EDIT: &str = "reg [7:0] fin = 0;\n\
                           always @(posedge clk.val) begin\n\
                             fin <= fin + 8'd1;\n\
                             if (fin == 8'd150) $finish;\n\
                           end";

/// What a plane script leaves behind. `stats` and `transcript` are
/// FNV-1a hashes of `RuntimeStats` (its `Debug` form) and of the output
/// lines; `polls`/`reads` are the data plane's own counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SinkPins {
    wall_bits: u64,
    ticks: u64,
    stats: u64,
    leds: u64,
    led_writes: u64,
    gpio: u64,
    polls: u64,
    reads: u64,
    transcript_lines: usize,
    transcript: u64,
}

fn sink_pins(rt: &mut Runtime, board: &Board) -> SinkPins {
    // A compile the last eval submitted must not race the cache counters.
    rt.wait_for_compile_worker();
    let lines = rt.drain_output();
    SinkPins {
        wall_bits: rt.wall_seconds().to_bits(),
        ticks: rt.ticks(),
        stats: fnv1a(&format!("{:?}", rt.stats())),
        leds: board.leds().to_u64(),
        led_writes: board.led_writes(),
        gpio: board.gpio_out().to_u64(),
        polls: rt.data_plane_polls(),
        reads: rt.data_plane_reads(),
        transcript_lines: lines.len(),
        transcript: fnv1a(&lines.join("\n")),
    }
}

/// Every place a batch of software ticks must end, or must not start, in
/// one script: command boundaries of every size, checkpoint-interval
/// crossings, a waveform tap, a compile landing five ticks into a window
/// while the fleet has no fabric free (the tenant backs off), the fabric
/// freeing mid-backoff (promotion at the stride), an edit back into
/// software, and `$finish` in the middle of a window.
fn sink_script(evals: &[&str], mut config: JitConfig) -> SinkPins {
    config.toolchain.time_scale = 0.05;
    config.checkpoint_interval_ticks = 100;
    let board = Board::new();
    let fleet = Fleet::new(1);
    let hog = fleet.request(99, 1e12).expect("a free fabric");
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    rt.attach_fleet(fleet, 7);
    for src in evals {
        rt.eval(src).expect("eval");
        // An unchanged netlist hits the cache only once the previous
        // compile is in it: settle each before the next.
        rt.wait_for_compile_worker();
        rt.run_ticks(64).expect("window");
    }
    for n in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233] {
        assert_eq!(rt.run_ticks(n).expect("window"), n);
    }
    for _ in 0..3 {
        rt.tick().expect("tick");
    }
    let path = scratch_file(&format!("sink_{}.vcd", fnv1a(evals[0])));
    rt.vcd_start(&path, &[]).expect("tap");
    rt.run_ticks(20).expect("tapped window");
    assert_eq!(rt.vcd_stop().as_deref(), Some(path.as_str()));
    let _ = std::fs::remove_file(&path);
    let w0 = rt.wall_seconds();
    rt.run_ticks(20).expect("window");
    let tick_s = (rt.wall_seconds() - w0) / 20.0;
    let ready = rt.compile_ready_at().expect("compile staged");
    rt.advance_wall((ready - rt.wall_seconds() - 5.0 * tick_s).max(0.0));
    rt.run_ticks(50).expect("the window the compile lands in");
    assert!(rt.stats().hw_pending, "the fleet has no fabric free");
    assert_eq!(rt.mode(), ExecMode::Software);
    drop(hog);
    rt.run_ticks(300).expect("the window the fabric frees in");
    assert_eq!(rt.stats().hw_promotions, 1);
    rt.eval(FINISH_EDIT).expect("edit");
    assert_eq!(rt.mode(), ExecMode::Software);
    assert!(rt.run_ticks(1000).expect("finishing window") < 1000);
    assert!(rt.is_finished());
    sink_pins(&mut rt, &board)
}

/// Two pins and an eval that puts the FIFO on the data plane (the walk at
/// the parent commit, the plane batch since).
fn fifo_fallback_script(config: JitConfig) -> SinkPins {
    let board = Board::new();
    board.set_fifo_capacity(1 << 10);
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    // Each eval's compile runs before the next eval supersedes it, so the
    // one compile worker cannot skip it and the cache counters are fixed.
    rt.eval(TENANT).expect("eval");
    rt.wait_for_compile_worker();
    rt.eval("assign gpio.out = cnt;").expect("gpio");
    rt.wait_for_compile_worker();
    rt.run_ticks(100).expect("two pins");
    rt.eval(
        "FIFO #(.WIDTH(8)) f();\n\
         assign f.rreq = !f.empty;\n\
         reg [7:0] got = 0;\n\
         always @(posedge clk.val) if (f.rreq) got <= got ^ f.rdata;\n\
         always @(posedge clk.val) if (got == 8'h41) $display(\"got A at %d\", cnt);",
    )
    .expect("fifo");
    push_stream(&board, 200);
    rt.run_ticks(300).expect("the FIFO on the plane");
    sink_pins(&mut rt, &board)
}

/// A software plane runs whole ticks inside the engine; the modeled
/// machine is the one the scheduler's walk simulated. Constants captured
/// at a commit where every one of these ticks walked.
#[test]
fn sink_planes_are_the_parents_modeled_machine() {
    let d = JitConfig::default;
    let cases: [(&str, SinkPins, SinkPins); 4] = [
        ("tenant", sink_script(&[TENANT], d()), PINS_TENANT),
        ("edit session", sink_script(&EDIT_SESSION, d()), PINS_EDIT),
        (
            "display tenant",
            sink_script(&DISPLAY_TENANT, d()),
            PINS_DISPLAY,
        ),
        ("FIFO fallback", fifo_fallback_script(d()), PINS_FIFO),
    ];
    for (what, got, parent) in cases {
        assert_eq!(got, parent, "{what}");
    }
}

/// Programs whose outputs move at awkward points of an iteration: on both
/// edges, straight off the clock, in a second update round, under a
/// `$monitor`, into two sinks at once, into none, ending with `$finish` on
/// either half of a tick, and through a Memory and the pad and reset.
const AWKWARD: [&str; 8] = [
    "reg [7:0] n = 0;\n\
     always @(negedge clk.val) n <= n + 8'd3;\n\
     assign led.val = {n[6:0], clk.val};",
    "reg [7:0] a = 0;\n\
     reg [7:0] b = 0;\n\
     always @(posedge clk.val) a <= a + 8'd1;\n\
     always @(a) b <= a ^ 8'h5a;\n\
     assign led.val = b;\n\
     assign gpio.out = {a, b};",
    "reg [3:0] m = 0;\n\
     always @(posedge clk.val) m <= m + 4'd1;\n\
     initial $monitor(\"m=%d\", m);\n\
     assign led.val = {4'd0, m};",
    PIN_FREE,
    "reg [7:0] k = 0;\n\
     always @(posedge clk.val) begin k <= k + 8'd1; if (k == 8'd77) $finish; end\n\
     assign led.val = k;",
    "reg [7:0] k = 0;\n\
     always @(negedge clk.val) begin k <= k + 8'd1; if (k == 8'd77) $finish; end\n\
     assign led.val = k;",
    MEMORY,
    PAD_RESET,
];

/// Each of [`AWKWARD`] with the batch and with the walk: `inline` off keeps
/// every plane on the walk, and changes nothing else for a program that
/// instantiates no module of its own.
#[test]
fn a_batch_is_the_walk_wherever_outputs_move() {
    let batch = JitConfig::default().without("auto_compile");
    for src in AWKWARD {
        let script = |config: JitConfig| {
            let board = Board::new();
            let mut rt = Runtime::new(board.clone(), config).expect("runtime");
            rt.eval(src).expect("eval");
            for n in [1, 7, 64, 3, 200] {
                rt.run_ticks(n).expect("window");
            }
            sink_pins(&mut rt, &board)
        };
        let walk = batch.clone().without("inline");
        assert_eq!(script(batch.clone()), script(walk), "{src}");
    }
}

/// A RAM whose read address walks and whose write port feeds back what it
/// read: its `rdata` moves on a `read` of `raddr` and at the edge.
const MEMORY: &str = "Memory #(.ADDR(4), .WIDTH(8)) m();\n\
                      reg [3:0] a = 0;\n\
                      always @(posedge clk.val) a <= a + 4'd1;\n\
                      assign m.raddr = a;\n\
                      assign m.wen = 1;\n\
                      assign m.waddr = a + 4'd3;\n\
                      assign m.wdata = m.rdata + 8'd5;\n\
                      assign led.val = m.rdata;";

/// The button pad and the reset line, sampled from the board at `end_step`.
const PAD_RESET: &str = "reg [7:0] cnt = 0;\n\
                         always @(posedge clk.val) if (pad.val == 0 && !rst.val) cnt <= cnt + 8'd1;\n\
                         assign led.val = cnt;";

/// The batch is the path, not a branch nobody takes: the tenant with and
/// without its LEDs, the soak tenant's shape, the miner's software phase,
/// the Fig. 12 matcher (the FIFO feeds main), a Memory, the button pad and
/// reset, and every kind of wire at once run every tick inside the software
/// engine; a waveform tap and `inline` off run none there.
#[test]
fn planes_run_inside_the_software_engine() {
    let batched = |src: &str, config: JitConfig, tap: bool| {
        let board = Board::new();
        board.set_fifo_capacity(1 << 12);
        let mut rt = Runtime::new(board.clone(), config).expect("runtime");
        rt.eval(src).expect("eval");
        push_stream(&board, 600);
        let path = scratch_file("batched.vcd");
        if tap {
            rt.vcd_start(&path, &[]).expect("tap");
        }
        assert_eq!(rt.run_ticks(500).expect("window"), 500);
        if tap {
            rt.vcd_stop();
            let _ = std::fs::remove_file(&path);
        }
        assert_eq!(rt.mode(), ExecMode::Software);
        rt.data_plane_batched_ticks()
    };
    let d = JitConfig::default;
    let soak_tenant = "reg [15:0] cnt = 0;\n\
        always @(posedge clk.val) cnt <= cnt + 16'd1;\n\
        always @(posedge clk.val) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);\n\
        assign led.val = cnt[7:0];";
    assert_eq!(batched(TENANT, d(), false), 500, "tenant");
    assert_eq!(batched(PIN_FREE, d(), false), 500, "no pins");
    assert_eq!(batched(soak_tenant, d(), false), 500, "soak tenant");
    assert_eq!(
        batched(&miner_src(), d(), false),
        500,
        "miner, software phase"
    );
    assert_eq!(
        batched(&matcher_src(), d(), false),
        500,
        "FIFO on the plane"
    );
    assert_eq!(batched(MEMORY, d(), false), 500, "Memory");
    assert_eq!(batched(PAD_RESET, d(), false), 500, "pad and reset");
    assert_eq!(batched(WIRED, d(), false), 500, "every kind of wire");
    assert_eq!(batched(TENANT, d(), true), 0, "waveform tap");
    assert_eq!(
        batched(TENANT, d().without("inline"), false),
        0,
        "inline off"
    );
}

/// A program that never reads the clock leaves a plane of no wires. Once
/// it is in hardware with `open_loop` off, that plane is the walk's, not
/// the batch's: the batch takes only a software main.
#[test]
fn a_hardware_plane_of_no_wires_walks() {
    let board = Board::new();
    let config = JitConfig {
        open_loop: false,
        ..JitConfig::default()
    };
    let mut rt = Runtime::new(board, config).expect("runtime");
    rt.eval("reg [7:0] x = 8'd5;").expect("eval");
    assert_eq!(rt.run_ticks(10).expect("software window"), 10);
    let batched = rt.data_plane_batched_ticks();
    assert!(batched > 0, "the software phase batches");
    promote(&mut rt);
    assert!(
        matches!(rt.mode(), ExecMode::Hardware | ExecMode::HardwareForwarded),
        "{:?}",
        rt.mode()
    );
    assert_eq!(rt.run_ticks(10).expect("hardware window"), 10);
    assert_eq!(rt.data_plane_batched_ticks(), batched);
}

/// `open_loop` governs hardware and native engines only. A software program
/// is charged the walk's terms whether or not it drives a pin, so while it
/// runs in software the switch moves nothing: not before its first pin is
/// wired, not after, and not for a program that never wires one.
#[test]
fn open_loop_leaves_a_software_programs_modeled_machine_alone() {
    let script = |evals: &[&str], open_loop: bool| {
        let board = Board::new();
        let config = JitConfig {
            open_loop,
            auto_compile: false,
            ..JitConfig::default()
        };
        let mut rt = Runtime::new(board.clone(), config).expect("runtime");
        for src in evals {
            rt.eval(src).expect("eval");
            for n in [1, 7, 64] {
                rt.run_ticks(n).expect("window");
            }
        }
        sink_pins(&mut rt, &board)
    };
    for (what, evals) in [
        ("edit session", &EDIT_SESSION[..]),
        ("no pins", &[PIN_FREE]),
    ] {
        assert_eq!(script(evals, true), script(evals, false), "{what}");
    }
}

/// (d) A pin plane: a 2000-tick window inside the software engine.
#[test]
fn sink_plane_ticks_allocate_nothing() {
    let board = Board::new();
    let config = JitConfig {
        auto_compile: false,
        ..no_boundaries(true)
    };
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    rt.eval(TENANT).expect("eval");
    assert_eq!(allocations_per_window(&mut rt, &board, false), 0);
    assert_eq!(rt.data_plane_batched_ticks(), 2500);
}

/// An eval allocates for what it adds, not for the whole program: the
/// sixth line of the edit session, typed into a runtime that holds the
/// first five, with nothing compiled. The bound sits between a runtime
/// that deep-copies its module library and elaborates the hardware form on
/// the calling thread (156 062 bytes) and one that shares the library and
/// leaves that elaboration to the toolchain (108 247 bytes).
#[test]
fn an_eval_allocates_for_the_edit_not_the_library() {
    let config = JitConfig::default().without("auto_compile");
    let mut rt = Runtime::new(Board::new(), config).expect("runtime");
    for src in &EDIT_SESSION[..5] {
        rt.eval(src).expect("eval");
    }
    let bytes = bytes_allocated_in(|| rt.eval(EDIT_SESSION[5]).expect("eval"));
    assert!(bytes < 132 << 10, "the sixth eval allocated {bytes} bytes");
}

/// The FNV-1a offset basis: the hash of an empty transcript.
const NO_OUTPUT: u64 = 0xcbf2_9ce4_8422_2325;

const PINS_TENANT: SinkPins = SinkPins {
    wall_bits: 4619690998794283660,
    ticks: 1215,
    stats: 6974197622842458588,
    leds: 9,
    led_writes: 1215,
    gpio: 0,
    polls: 8481,
    reads: 4679,
    transcript_lines: 0,
    transcript: NO_OUTPUT,
};
/// Re-captured once, when the software open loop was retired: the windows
/// before `assign led.val` exists used to run open loop, charged the
/// engine's cost once per batch and no `runtime_iteration_ns`; they are now
/// charged as the walk, like every window after it. Ticks, LEDs and the
/// transcript did not move.
const PINS_EDIT: SinkPins = SinkPins {
    wall_bits: 4589169158800521224,
    ticks: 1535,
    stats: 13590921592216051297,
    leds: 33,
    led_writes: 1344,
    gpio: 0,
    polls: 9905,
    reads: 5583,
    transcript_lines: 1,
    transcript: 15726611478458260366,
};
const PINS_DISPLAY: SinkPins = SinkPins {
    wall_bits: 4619876669062038732,
    ticks: 1279,
    stats: 1891822845097538854,
    leds: 0,
    led_writes: 0,
    gpio: 0,
    polls: 1893,
    reads: 1872,
    transcript_lines: 152,
    transcript: 10491522384437606611,
};
const PINS_FIFO: SinkPins = SinkPins {
    wall_bits: 4580167608861152805,
    ticks: 400,
    stats: 18230541549932289899,
    leds: 240,
    led_writes: 400,
    gpio: 16201200,
    polls: 11534,
    reads: 4011,
    transcript_lines: 0,
    transcript: NO_OUTPUT,
};

// ---------------------------------------------------------------------
// A faulted serve session's virtual-time trace
// ---------------------------------------------------------------------

const COUNTER_MODULE: &str = "module Counter(input wire c);\n\
      reg [15:0] cnt = 0;\n\
      always @(posedge c) cnt <= cnt + 1;\n\
      always @(posedge c) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);\n\
    endmodule";

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A seeded fault schedule of the kinds a session meets on its own
/// thread: transient toolchain failures (retried with backoff) and soft
/// errors at clean scrubs (rollback, replay, re-promotion). Lease
/// revocations and fabric losses are left out — the sweeper thread
/// services those between requests, so where they land in the trace
/// depends on the host's scheduling, not on the data plane.
fn seeded_faults(seed: u64) -> FaultPlan {
    let mut rng = Prng::new(seed);
    let mut plan = FaultPlan::builder().toolchain_transient(1 + rng.next_u64() % 2);
    for occ in 1..=24 {
        if rng.chance(1, 3) {
            plan = plan.scrub_soft_error(occ, rng.next_u64());
        }
    }
    plan.build()
}

/// One serve session under [`seeded_faults`], driven by a fixed command
/// script; returns the `VirtualOnly` trace export. The background compile
/// is settled before every tick so its outcome lands at a modeled time,
/// not at whatever tick the host happened to finish the worker.
fn faulted_serve_trace(seed: u64) -> String {
    let mut config = ServeConfig::quick();
    config.fabrics = 1;
    config.workers = 1;
    // No idle scans: the sweeper servicing a pending promotion between two
    // requests would strip that event's request attribution.
    config.sweeper_poll_ms = 3_600_000;
    config.jit.scrub_interval_ticks = 8;
    config.jit.faults = seeded_faults(seed);
    let server = Server::new(config);
    let mut c = InProcClient::connect(&server);
    c.open().expect("open");
    c.eval_all(COUNTER_MODULE).expect("eval module");
    c.eval_all("Counter c0(.c(clk.val));").expect("eval inst");
    for _ in 0..160 {
        c.wait_compile().expect("wait compile");
        c.run(1).expect("run");
    }
    let (jsonl, dropped) = c.trace_jsonl(true).expect("trace export");
    assert_eq!(dropped, 0);
    jsonl
}

/// A traced software phase: a batch ends before every `ticks_per_s` rate
/// sample, so the plane batch samples its rate at the walk's ticks and
/// modeled seconds. The `VirtualOnly` export of a fed matcher run, all 100
/// rate samples included, is the walk's byte for byte.
#[test]
fn traced_batches_attribute_like_the_walk() {
    let export = |inline: bool| {
        let board = Board::new();
        board.set_fifo_capacity(1 << 14);
        let config = JitConfig {
            auto_compile: false,
            inline,
            trace: TraceSink::ring(1 << 16),
            ..JitConfig::default()
        };
        let mut rt = Runtime::new(board.clone(), config).expect("runtime");
        rt.eval(&matcher_src()).expect("eval");
        run_fed_chunks(&mut rt, &board);
        let jsonl = export_jsonl(&rt.trace_sink().snapshot(), TimeMode::VirtualOnly);
        (jsonl, rt.data_plane_batched_ticks())
    };
    let (batched, batched_ticks) = export(true);
    let (walked, walked_ticks) = export(false);
    assert!(batched_ticks > 100_000, "{batched_ticks} ticks batched");
    assert_eq!(walked_ticks, 0);
    assert_eq!(batched.matches("\"name\":\"ticks_per_s\"").count(), 100);
    assert_eq!(batched, walked);
}

/// `(seed, export length, FNV-1a of the export)` at the parent commit,
/// less the `"bytecode":true` arg its `software_compile` spans carried
/// (the arg is gone; every other byte is the parent's).
const PARENT_TRACES: [(u64, usize, u64); 4] = [
    (3, 31109, 0x0f88_a9f1_cc3f_e025),
    (11, 31109, 0xa006_5111_d491_c2b2),
    (29, 33330, 0x6172_1585_9431_5ffb),
    (77, 34031, 0xcd4e_fdaf_c4c2_68ec),
];

#[test]
fn faulted_serve_trace_is_byte_identical_to_the_parents() {
    for (seed, len, hash) in PARENT_TRACES {
        let jsonl = faulted_serve_trace(seed);
        assert!(jsonl.contains("\"name\":\"rollback\""), "seed {seed}");
        assert_eq!(
            (jsonl.len(), fnv1a(&jsonl)),
            (len, hash),
            "seed {seed}: virtual-time export differs from the parent commit's"
        );
    }
}

// ---------------------------------------------------------------------
// The data plane is event-driven: a wire is polled when its source moved
// ---------------------------------------------------------------------

/// A software tick of the matcher walks its seven wires twelve times; of
/// those 84 looks only the ones whose source engine was touched since the
/// wire last looked are made, and every `read` an all-wires walk would
/// have delivered still is. Both are counts, not timings, and both are
/// the walk's to the unit (captured at the parent commit, where every one
/// of these ticks walked): the plane batch that runs them now polls where
/// the walk polls.
#[test]
fn a_software_tick_polls_only_wires_whose_source_was_touched() {
    let board = Board::new();
    board.set_fifo_capacity(1 << 14);
    let config = JitConfig::default().without("auto_compile");
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    rt.eval(&matcher_src()).expect("eval");
    let (polls, reads) = (rt.data_plane_polls(), rt.data_plane_reads());
    run_fed_chunks(&mut rt, &board);
    let ticks = rt.ticks();
    assert_eq!(ticks, 102_400);
    let polls = rt.data_plane_polls() - polls;
    let reads = rt.data_plane_reads() - reads;
    assert_eq!(polls, 2_661_998, "polls made (26.0 per tick)");
    assert_eq!(reads, 722_799, "reads delivered (7.06 per tick)");
    assert_eq!(rt.data_plane_batched_ticks(), ticks);
}

/// Every kind of data-plane wire in one program: a user module (its own
/// engine when `inline` is off), the FIFO, the pad, the LEDs, and a
/// `$display` that puts the running state on the transcript.
const WIRED: &str = "module Rol(input wire [7:0] x, output wire [7:0] y);\n\
      assign y = (x == 8'h80) ? 8'h1 : (x << 1);\n\
    endmodule\n\
    FIFO #(.WIDTH(8)) f();\n\
    assign f.rreq = !f.empty;\n\
    reg consuming = 0;\n\
    reg [7:0] cnt = 1;\n\
    reg [7:0] sum = 0;\n\
    Rol r(.x(cnt));\n\
    always @(posedge clk.val) begin\n\
      consuming <= f.rreq;\n\
      if (pad.val == 0) cnt <= r.y;\n\
      if (consuming) sum <= sum + f.rdata;\n\
      if (cnt[2:0] == 3'd4) $display(\"cnt=%d sum=%d\", cnt, sum);\n\
    end\n\
    assign led.val = cnt ^ sum;";

/// What a run of [`wired_script`] can be compared on.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    transcript: Vec<String>,
    leds: u64,
    cnt: Option<u64>,
    sum: Option<u64>,
    ticks: u64,
    fifo_pops: u64,
}

fn observe(rt: &mut Runtime, board: &Board) -> Observed {
    // Close the open speculation window so quarantined output counts.
    rt.checkpoint_now().expect("final verify");
    Observed {
        transcript: rt.drain_output(),
        leds: board.leds().to_u64(),
        cnt: rt.probe("cnt").map(|b| b.to_u64()),
        sum: rt.probe("sum").map(|b| b.to_u64()),
        ticks: rt.ticks(),
        fifo_pops: board.fifo_pops(),
    }
}

/// eval → a window → the compile lands (when there is one) → a window →
/// `mid` → a window. Every window is one `run_ticks`: a command boundary
/// re-polls every wire, so whatever `mid` does has to reach the data
/// plane through its own bump site or the last window runs on stale
/// wires.
fn wired_script(mut config: JitConfig, mid: &dyn Fn(&mut Runtime, &Board)) -> (Observed, ExecMode) {
    // Modeled compile latency, a cache hit's included, is far longer than
    // any window here: when a compile lands is decided by `advance_wall`,
    // never by how fast the host's worker thread was.
    config.toolchain.time_scale = 0.05;
    let board = Board::new();
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    rt.eval(WIRED).expect("eval");
    push_stream(&board, 30);
    rt.run_ticks(9).expect("first window");
    rt.wait_for_compile_worker();
    if let Some(ready) = rt.compile_ready_at() {
        rt.advance_wall((ready - rt.wall_seconds()).max(0.0) + 1.0);
    }
    rt.run_ticks(12).expect("second window");
    mid(&mut rt, &board);
    rt.run_ticks(40).expect("last window");
    let mode = rt.mode();
    (observe(&mut rt, &board), mode)
}

/// The configurations that reach hardware: the default (stdlib absorbed,
/// open loop), the hardware engine left on the data plane, and the
/// scheduler's own tick in hardware.
fn hardware_configs() -> [(&'static str, JitConfig); 3] {
    let d = JitConfig::default;
    [
        ("default", d()),
        ("forwarding off", d().without("forwarding")),
        ("open_loop off", d().without("open_loop")),
    ]
}

/// `mid` under each of [`hardware_configs`], against `interpreter_only()`
/// (one software engine per instance, never compiled) running the same
/// script.
fn assert_matches_the_interpreter(what: &str, mid: &dyn Fn(&mut Runtime, &Board)) {
    let (reference, mode) = wired_script(JitConfig::interpreter_only(), mid);
    assert_eq!(mode, ExecMode::Software, "{what}");
    assert!(reference.transcript.len() >= 5, "{what}: {reference:?}");
    for (stage, config) in hardware_configs() {
        let (observed, _) = wired_script(config, mid);
        assert_eq!(observed, reference, "{what}, {stage}");
    }
}

/// One case per site that bumps a generation from outside the scheduler
/// loop: the engines are rebuilt (checkpoint restore, an edit), poked
/// (`probe`, `vcd_start`), or the world they sample changes (`fifo_push`,
/// a button) between two windows. Promotion and revocation follow below.
#[test]
fn every_bump_site_leaves_the_run_the_interpreters() {
    assert_matches_the_interpreter("nothing in between", &|_, _| {});
    // Restoring the checkpoint just taken changes nothing a program can
    // see, in any mode — but every engine is rebuilt from the snapshot
    // (`set_state`), in software.
    assert_matches_the_interpreter("restore_checkpoint", &|rt, _| {
        assert!(rt.checkpoint_now().expect("checkpoint"));
        assert!(rt.restore_checkpoint().expect("restore"));
        assert_eq!(rt.mode(), ExecMode::Software);
    });
    assert_matches_the_interpreter("probe", &|rt, _| {
        assert!(rt.probe("cnt").is_some());
        assert!(rt.probe("sum").is_some());
    });
    assert_matches_the_interpreter("fifo_push and a button", &|rt, board| {
        push_stream(board, 25);
        board.set_button(1, true);
        rt.run_ticks(3).expect("held");
        board.set_button(1, false);
    });
    assert_matches_the_interpreter("vcd_start", &|rt, _| {
        let path = scratch_file("bump.vcd");
        rt.vcd_start(&path, &["cnt".to_string()]).expect("tap");
        rt.run_ticks(5).expect("tapped");
        assert_eq!(rt.vcd_stop().as_deref(), Some(path.as_str()));
        let _ = std::fs::remove_file(&path);
    });
    assert_matches_the_interpreter("an edit", &|rt, _| {
        rt.eval(EDIT).expect("edit");
    });
}

/// Promotion, and promotion revoked before the swap completes, landing
/// inside a window rather than at its first tick.
#[test]
fn promotion_and_revocation_mid_window_leave_the_run_the_interpreters() {
    // The script with the compile landing a few ticks into the last
    // window instead of between two.
    let script = |mut config: JitConfig, fleet: Option<&Fleet>| {
        // As in `wired_script`: the re-submitted compile after the
        // revocation (a cache hit) cannot land inside the window.
        config.toolchain.time_scale = 0.05;
        let board = Board::new();
        let mut rt = Runtime::new(board.clone(), config).expect("runtime");
        if let Some(fleet) = fleet {
            rt.attach_fleet(fleet.clone(), 7);
        }
        rt.eval(WIRED).expect("eval");
        push_stream(&board, 60);
        let w0 = rt.wall_seconds();
        rt.run_ticks(10).expect("first window");
        let tick_s = (rt.wall_seconds() - w0) / 10.0;
        rt.wait_for_compile_worker();
        if let Some(ready) = rt.compile_ready_at() {
            // Five software ticks short of the compile's modeled second.
            rt.advance_wall((ready - rt.wall_seconds() - 5.0 * tick_s).max(0.0));
        }
        assert_eq!(rt.mode(), ExecMode::Software);
        rt.run_ticks(50).expect("the window it lands in");
        let stats = rt.stats();
        (observe(&mut rt, &board), stats)
    };
    let (reference, _) = script(JitConfig::interpreter_only(), None);
    assert!(reference.transcript.len() >= 5, "{reference:?}");
    for (stage, config) in hardware_configs() {
        let (observed, stats) = script(config.clone(), None);
        assert_eq!(stats.hw_promotions, 1, "{stage}");
        assert_ne!(stats.mode, ExecMode::Software, "{stage}");
        assert_eq!(observed, reference, "promotion, {stage}");

        let revoked = JitConfig {
            faults: FaultPlan::builder().migration_revoke(1).build(),
            ..config
        };
        let (observed, stats) = script(revoked, Some(&Fleet::new(1)));
        assert_eq!(stats.hw_promotions, 1, "{stage}");
        assert_eq!(stats.lease_demotions, 1, "{stage}");
        assert_eq!(observed, reference, "revocation, {stage}");
    }
}

// ---------------------------------------------------------------------
// Allocation budget: a tick allocates nothing
// ---------------------------------------------------------------------

/// A configuration whose runs cross no checkpoint or scrub boundary (both
/// snapshot every engine, which allocates by design).
fn no_boundaries(open_loop: bool) -> JitConfig {
    JitConfig {
        open_loop,
        scrub_interval_ticks: 0,
        checkpoint_interval_ticks: 0,
        ..JitConfig::default()
    }
}

/// Warms `rt` up (buffers reach their steady capacity), then counts the
/// allocations of a 2000-tick window. Tokens are queued beforehand: the
/// host's pushes are not the data plane's.
fn allocations_per_window(rt: &mut Runtime, board: &Board, feed: bool) -> u64 {
    if feed {
        push_stream(board, 3000);
    }
    rt.run_ticks(500).expect("warm-up");
    let before = rt.ticks();
    let allocs = allocations_in(|| {
        rt.run_ticks(2000).expect("measured window");
    });
    assert_eq!(rt.ticks() - before, 2000);
    if feed {
        assert!(board.fifo_pops() >= 2400, "the FIFO was exercised");
    }
    allocs
}

/// (a) Software engines, the FIFO a peripheral engine on the data plane:
/// every token crosses the plane batch, or the walk with `inline` off.
#[test]
fn software_ticks_with_a_fifo_on_the_data_plane_allocate_nothing() {
    fifo_window_allocates_nothing(true);
}

/// (a) with every tick walked.
#[test]
fn walked_ticks_with_a_fifo_on_the_data_plane_allocate_nothing() {
    fifo_window_allocates_nothing(false);
}

/// `inline` decides whether the window runs in the plane batch or walks.
fn fifo_window_allocates_nothing(inline: bool) {
    let board = Board::new();
    board.set_fifo_capacity(1 << 14);
    let config = JitConfig {
        auto_compile: false,
        inline,
        ..no_boundaries(true)
    };
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    rt.eval(&matcher_src()).expect("eval");
    assert_eq!(rt.mode(), ExecMode::Software);
    assert_eq!(allocations_per_window(&mut rt, &board, true), 0);
    assert_eq!(rt.mode(), ExecMode::Software);
    assert_eq!(rt.data_plane_batched_ticks() > 0, inline);
}

/// (b) Hardware with the stdlib absorbed, in the miner's shape (`Led`)
/// and the matcher's (`FIFO`), both through open-loop batches and through
/// the scheduler's own tick.
#[test]
fn hardware_forwarded_ticks_allocate_nothing() {
    for (what, src, feed) in [
        ("miner", miner_src(), false),
        ("matcher", matcher_src(), true),
    ] {
        for open_loop in [true, false] {
            let board = Board::new();
            board.set_fifo_capacity(1 << 14);
            let mut rt = Runtime::new(board.clone(), no_boundaries(open_loop)).expect("runtime");
            rt.eval(&src).expect("eval");
            promote(&mut rt);
            assert_eq!(rt.mode(), ExecMode::HardwareForwarded);
            assert_eq!(
                allocations_per_window(&mut rt, &board, feed),
                0,
                "{what}, open_loop {open_loop}"
            );
            assert_eq!(rt.stats().open_loop_active, open_loop, "{what}");
        }
    }
}

/// (c) Native mode with a peripheral wired straight to the netlist.
#[test]
fn native_ticks_with_a_peripheral_allocate_nothing() {
    let board = Board::new();
    board.set_fifo_capacity(1 << 14);
    let mut config = no_boundaries(true);
    config.auto_compile = false;
    config.toolchain.time_scale = 1e-6;
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    rt.eval(&matcher_src()).expect("eval");
    rt.enter_native().expect("native");
    assert_eq!(rt.mode(), ExecMode::Native);
    assert_eq!(allocations_per_window(&mut rt, &board, true), 0);
}

/// (d) The netlist evaluator itself, under a design whose every edge
/// writes a ≤64-bit memory and fires no task: an edge allocates nothing,
/// one at a time or in an open-loop batch.
#[test]
fn netlist_edges_that_write_a_memory_allocate_nothing() {
    const RAM: &str = "module Ram(input wire clk, output wire [15:0] o);\n\
                       reg [15:0] mem [0:15];\n\
                       reg [3:0] a = 0;\n\
                       reg [15:0] v = 1;\n\
                       always @(posedge clk) begin\n\
                         mem[a] <= v;\n\
                         a <= a + 1;\n\
                         v <= v * 3 + 1;\n\
                       end\n\
                       assign o = mem[a];\n\
                       endmodule";
    let lib = library_from_source(RAM).expect("parse");
    let design = elaborate("Ram", &lib, &Default::default()).expect("elaborate");
    let mut hw =
        NetlistSim::new(Arc::new(synthesize(&design).expect("synthesize"))).expect("levelize");
    assert!(
        hw.program_stats().mem_arena_words > 0,
        "the memory survives synthesis"
    );
    hw.run_cycles(256, usize::MAX);
    for _ in 0..256 {
        hw.step_clock(0);
    }
    let open_loop = allocations_in(|| {
        assert_eq!(hw.run_cycles(256, usize::MAX), 256);
    });
    let stepped = allocations_in(|| {
        for _ in 0..256 {
            hw.step_clock(0);
        }
    });
    assert_eq!((open_loop, stepped), (0, 0), "(run_cycles, step_clock)");
    assert_eq!(hw.cycles(), 1024);
    assert!(!hw.has_tasks());
    // Every edge wrote the memory: it holds what a model of the design says.
    let (mut model, mut a, mut v) = ([0u64; 16], 0, 1u64);
    for _ in 0..1024 {
        model[a] = v;
        a = (a + 1) % 16;
        v = (v * 3 + 1) & 0xffff;
    }
    for (addr, &want) in model.iter().enumerate() {
        assert_eq!(
            hw.read_mem(MemId(0), addr as u64).to_u64(),
            want,
            "mem[{addr}]"
        );
    }
}

// ---------------------------------------------------------------------
// Handle resolution is total: one case per wiring site
// ---------------------------------------------------------------------

const LED_COUNTER: &str = "reg [7:0] cnt = 0;\n\
                           wire odd = cnt[0];\n\
                           always @(posedge clk.val) cnt <= cnt + 1;\n\
                           assign led.val = cnt;";

fn scratch_file(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("data_plane_{}_{name}", std::process::id()));
    path.to_str().expect("utf-8 temp dir").to_string()
}

/// `rebuild_from`: a wire to a port that does not exist never reaches the
/// data plane — the eval that asks for it is refused and the program it
/// would have extended keeps running.
#[test]
fn rebuild_rejects_a_wire_to_an_unknown_port() {
    let board = Board::new();
    let config = JitConfig {
        auto_compile: false,
        ..JitConfig::default()
    };
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    rt.eval(LED_COUNTER).expect("eval");
    assert!(rt.eval("assign led.ghost = cnt;").is_err());
    assert!(rt.eval("assign gpio.out = ghost.val;").is_err());
    rt.run_ticks(5).expect("run");
    assert_eq!(board.leds().to_u64(), 5);
    // A per-request probe of an unknown name reads zero-width, as ever.
    assert_eq!(rt.probe("ghost").map_or(0, |b| b.width()), 0);
    assert_eq!(rt.probe("cnt").map(|b| b.to_u64()), Some(5));
}

/// `vcd_start`: an unknown port is refused before any file is created.
#[test]
fn vcd_start_rejects_an_unknown_port() {
    let mut rt = Runtime::new(Board::new(), JitConfig::default()).expect("runtime");
    rt.eval(LED_COUNTER).expect("eval");
    let path = scratch_file("ghost.vcd");
    let err = rt
        .vcd_start(&path, &["cnt".to_string(), "ghost".to_string()])
        .expect_err("unknown port");
    assert!(err.to_string().contains("unknown port `ghost`"), "{err}");
    assert!(!rt.vcd_active());
    assert!(!std::path::Path::new(&path).exists());
    rt.run_ticks(3).expect("run");
}

/// `swap_to_hardware`, then `rebuild_from` again: a tapped name the new
/// main engine cannot see (an internal wire has no MMIO address) goes
/// stale at the swap and comes back at the rebuild; every tick in between
/// samples it zero-width instead of chasing a handle the old engine issued.
#[test]
fn a_tapped_signal_going_stale_at_promotion_never_reaches_the_tick_path() {
    let mut rt = Runtime::new(Board::new(), JitConfig::default()).expect("runtime");
    rt.eval(LED_COUNTER).expect("eval");
    let path = scratch_file("stale.vcd");
    rt.vcd_start(&path, &["cnt".to_string(), "odd".to_string()])
        .expect("both visible in software");
    rt.run_ticks(4).expect("software");
    promote(&mut rt);
    assert_eq!(rt.mode(), ExecMode::HardwareForwarded);
    assert_eq!(
        rt.probe("odd").map_or(0, |b| b.width()),
        0,
        "stale in hardware"
    );
    rt.run_ticks(4).expect("hardware");
    rt.eval(EDIT).expect("edit");
    assert_eq!(rt.mode(), ExecMode::Software);
    rt.run_ticks(4).expect("software again");
    assert_eq!(rt.probe("cnt").map(|b| b.to_u64()), Some(13));
    assert_eq!(rt.vcd_stop().as_deref(), Some(path.as_str()));
    let vcd = std::fs::read_to_string(&path).expect("dump");
    let _ = std::fs::remove_file(&path);
    assert!(vcd.contains("$var wire 8 \" cnt $end"), "{vcd}");
    assert!(vcd.contains("$var wire 1 # odd $end"), "{vcd}");
    assert!(vcd.contains("b0 #"), "zero-width while stale:\n{vcd}");
    assert!(
        vcd.ends_with("#13\nb00001101 \"\n1#\n"),
        "cnt = 13, odd:\n{vcd}"
    );
}

/// `absorb` and `NativeEngine::new`: a forwarded binding either side
/// cannot resolve — the engine port was optimised away, the component has
/// no such port — is dropped when the table is built; the bindings that
/// do resolve work, and no handle an engine did not issue can panic it.
#[test]
fn forwarded_bindings_to_missing_ports_are_skipped_when_absorbed() {
    use cascade_core::engine::hw::{Forwarded, HwEngine};
    use cascade_core::engine::native::NativeEngine;
    use cascade_core::engine::PortId;
    use cascade_core::Engine;
    use std::sync::Arc;

    let lib = cascade_sim::library_from_source(
        "module Sub(input wire clk_val, output wire [7:0] led_val);\n\
           reg [7:0] cnt = 0;\n\
           always @(posedge clk_val) cnt <= cnt + 1;\n\
           assign led_val = cnt;\n\
         endmodule",
    )
    .expect("parse");
    let design = cascade_sim::elaborate("Sub", &lib, &Default::default()).expect("elaborate");
    let netlist = Arc::new(cascade_netlist::synthesize(&design).expect("synthesize"));
    let name = |a: &str, b: &str| (a.to_string(), b.to_string());
    let forwarded = |board: &Board| {
        vec![Forwarded {
            instance: "led".to_string(),
            peripheral: Box::new(cascade_stdlib::Led::new(board.clone(), 8)),
            drives: vec![
                name("ghost", "val"),
                name("led_val", "ghost"),
                name("led_val", "val"),
            ],
            feeds: vec![name("val", "ghost_in"), name("ghost", "clk_val")],
        }]
    };

    let board = Board::new();
    let mut hw = HwEngine::new(Arc::clone(&netlist)).expect("hw engine");
    hw.absorb(forwarded(&board));
    assert_eq!(hw.open_loop(5), 5);
    assert_eq!(board.leds().to_u64(), 5);

    let board = Board::new();
    let mut native = NativeEngine::new(netlist, forwarded(&board)).expect("native engine");
    assert_eq!(native.open_loop(7), 7);
    assert_eq!(board.leds().to_u64(), 7);

    let engines: [&mut dyn Engine; 2] = [&mut hw, &mut native];
    for engine in engines {
        assert_eq!(engine.port("ghost"), PortId::NONE);
        assert_ne!(engine.port("led_val"), PortId::NONE);
        for stray in [PortId::NONE, PortId(1 << 20)] {
            engine.read(stray, &Bits::from_u64(8, 1));
            let _ = engine.output(stray);
        }
        assert_eq!(engine.output(PortId::NONE).width(), 0);
    }
}
