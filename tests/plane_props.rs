//! Generated planes: the plane batch is the walk.
//!
//! Each seed builds a program around the board FIFO — a reader with a
//! combinational or registered `rreq`, maybe a writer, pins driven from
//! what it read, maybe a negedge block, the button pad, a `$display` on a
//! token and a `$finish` at a token count — and a script of windows with
//! host actions between them: pushes that let the FIFO run dry or fill it
//! to capacity, button presses, `tick()`, `probe`, checkpoints and
//! rollbacks, a waveform tap. The script runs twice in software, with
//! `inline` on (a software plane runs whole ticks in the plane batch) and
//! off (every tick walks), and everything the modeled machine reports must
//! agree: virtual clock bits, ticks, `RuntimeStats`, pins, data-plane polls
//! and reads, transcript, FIFO pops and the tokens the program pushed back
//! to the host.
//!
//! Every eighth seed also lands a background compile five ticks into a
//! window, against the walk with a waveform tap open (the tap keeps every
//! tick on the walk and, in software, moves nothing modeled): the batch
//! must end where the compile lands, so the program leaves software in
//! the same window on both paths.

use cascade_bits::{Bits, Prng};
use cascade_core::{ExecMode, JitConfig, Runtime};
use cascade_fpga::Board;

const SEEDS: u64 = 64;

/// Host→FPGA FIFO capacity: small enough that a script fills it.
const CAPACITY: usize = 40;

const STREAM: &[u8] = b"GET /index HTTP POST /x GET  PUT POST!POST ";

/// A generated program. `landing` programs have no task, so nothing but
/// the compile ends their batches.
fn program(rng: &mut Prng, landing: bool) -> String {
    let mut s = String::from(
        "FIFO #(.WIDTH(8)) f();\n\
         reg consuming = 0;\n\
         reg [15:0] n = 0;\n\
         reg [3:0] t = 0;\n\
         always @(posedge clk.val) t <= t + 4'd1;\n",
    );
    s += &format!("reg [7:0] acc = 8'd{};\n", rng.below(256));
    // Throttled by a free-running count, or not at all.
    let gate = *rng.pick(&["", " && t[0]", " && t[2:1] != 2'd3"]);
    if rng.chance(1, 2) {
        s += &format!("assign f.rreq = !f.empty{gate};\n");
    } else {
        s += &format!(
            "reg rq = 0;\n\
             always @(posedge clk.val) rq <= !f.empty{gate};\n\
             assign f.rreq = rq;\n"
        );
    }
    let pad = if rng.chance(1, 3) {
        " ^ {7'd0, pad.val[0]}"
    } else {
        ""
    };
    s += &format!(
        "always @(posedge clk.val) begin\n\
           consuming <= f.rreq;\n\
           if (consuming) begin\n\
             acc <= (acc ^ f.rdata) + 8'd{}{pad};\n\
             n <= n + 16'd1;\n\
           end\n\
         end\n",
        rng.range(1, 255)
    );
    let mut pins = "acc".to_string();
    if rng.chance(1, 2) {
        s += "reg [7:0] neg = 0;\n\
              always @(negedge clk.val) neg <= neg + f.rdata;\n";
        pins = "acc ^ neg".to_string();
    }
    s += &format!("assign led.val = {pins};\n");
    if rng.chance(1, 2) {
        s += "assign gpio.out = {n, acc};\n";
    }
    match rng.below(3) {
        0 => {}
        1 => {
            s += &format!(
                "assign f.wreq = consuming && acc[{}];\n\
             assign f.wdata = {pins};\n",
                rng.below(8)
            )
        }
        _ => {
            s += "reg wq = 0;\n\
                   always @(posedge clk.val) wq <= consuming;\n\
                   assign f.wreq = wq;\n\
                   assign f.wdata = acc;\n"
        }
    }
    if !landing {
        if rng.chance(2, 3) {
            let token = *rng.pick(STREAM);
            s += &format!(
                "always @(posedge clk.val) if (consuming && f.rdata == 8'd{token}) \
                 $display(\"tok %d acc %d\", n, acc);\n"
            );
        }
        if rng.chance(1, 3) {
            s += &format!(
                "always @(posedge clk.val) if (n == 16'd{}) $finish;\n",
                rng.range(8, 100)
            );
        }
    }
    s
}

/// One step of a window script.
#[derive(Debug, Clone, Copy)]
enum Step {
    Run(u64),
    /// Pushes up to this many tokens (fewer once the FIFO is full).
    Push(usize),
    /// Pushes until the FIFO refuses a token.
    Fill,
    Button(bool),
    Tick,
    Probe,
    Checkpoint,
    Restore,
    /// A window with a waveform tap open.
    Tapped(u64),
}

fn window(rng: &mut Prng) -> u64 {
    match rng.below(3) {
        0 => rng.range(1, 8),
        1 => rng.range(9, 120),
        // Long enough to drain a full FIFO and run dry.
        _ => rng.range(121, 400),
    }
}

fn script(rng: &mut Prng) -> Vec<Step> {
    let mut steps = vec![Step::Push(rng.range(1, 30) as usize)];
    let fill_at = rng.range(2, 10) as usize;
    for i in 0..rng.range(10, 24) as usize {
        if i == fill_at {
            steps.push(Step::Fill);
        }
        steps.push(match rng.below(12) {
            0..=3 => Step::Run(window(rng)),
            4 | 5 => Step::Push(rng.range(1, 24) as usize),
            6 => Step::Button(rng.chance(1, 2)),
            7 => Step::Tick,
            8 => Step::Probe,
            9 => Step::Checkpoint,
            10 => Step::Restore,
            _ => Step::Tapped(rng.range(1, 40)),
        });
        steps.push(Step::Run(window(rng)));
    }
    steps
}

/// Everything a run is compared on.
#[derive(Debug, PartialEq, Eq)]
struct Seen {
    wall_bits: u64,
    ticks: u64,
    finished: bool,
    /// `RuntimeStats`, its `Debug` form.
    stats: String,
    leds: u64,
    led_writes: u64,
    gpio: u64,
    polls: u64,
    reads: u64,
    transcript: Vec<String>,
    fifo_pops: u64,
    /// FPGA→host tokens, drained after every step.
    to_host: Vec<u64>,
    /// What each window ran and each probe, checkpoint and rollback
    /// returned.
    steps: Vec<u64>,
}

fn temp_vcd(seed: u64, inline: bool) -> String {
    let name = format!("plane_props_{}_{seed}_{inline}.vcd", std::process::id());
    let path = std::env::temp_dir().join(name);
    path.to_str().expect("utf-8 temp dir").to_string()
}

/// Runs `steps` on `src`; returns what the run saw and the ticks the plane
/// batch ran.
fn run_script(seed: u64, src: &str, steps: &[Step], config: JitConfig) -> (Seen, u64) {
    let inline = config.inline;
    let board = Board::new();
    board.set_fifo_capacity(CAPACITY);
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    rt.eval(src).expect("eval");
    let mut stream = STREAM.iter().cycle().map(|&t| Bits::from_u64(8, t as u64));
    let mut to_host = Vec::new();
    let mut seen = Vec::new();
    for &step in steps {
        match step {
            Step::Run(n) => seen.push(rt.run_ticks(n).expect("window")),
            Step::Push(k) => {
                for token in stream.by_ref().take(k) {
                    if !board.fifo_push(token) {
                        break;
                    }
                }
            }
            Step::Fill => while board.fifo_push(stream.next().expect("endless")) {},
            Step::Button(down) => board.set_button(0, down),
            Step::Tick => rt.tick().expect("tick"),
            Step::Probe => seen.push(rt.probe("acc").map_or(u64::MAX, |b| b.to_u64())),
            Step::Checkpoint => seen.push(rt.checkpoint_now().expect("checkpoint") as u64),
            Step::Restore => seen.push(rt.restore_checkpoint().expect("restore") as u64),
            Step::Tapped(n) => {
                let path = temp_vcd(seed, inline);
                rt.vcd_start(&path, &[]).expect("tap");
                seen.push(rt.run_ticks(n).expect("tapped window"));
                assert_eq!(rt.vcd_stop().as_deref(), Some(path.as_str()));
                let _ = std::fs::remove_file(&path);
            }
        }
        to_host.extend(board.fifo_out_drain().iter().map(Bits::to_u64));
    }
    assert_eq!(rt.mode(), ExecMode::Software);
    let seen = Seen {
        wall_bits: rt.wall_seconds().to_bits(),
        ticks: rt.ticks(),
        finished: rt.is_finished(),
        stats: format!("{:?}", rt.stats()),
        leds: board.leds().to_u64(),
        led_writes: board.led_writes(),
        gpio: board.gpio_out().to_u64(),
        polls: rt.data_plane_polls(),
        reads: rt.data_plane_reads(),
        transcript: rt.drain_output(),
        fifo_pops: board.fifo_pops(),
        to_host,
        steps: seen,
    };
    (seen, rt.data_plane_batched_ticks())
}

/// The window a background compile lands in, five ticks after it starts:
/// the ticks run, the mode after it and the promotions so far.
fn landing_window(seed: u64, src: &str, tapped: bool) -> (u64, ExecMode, u64) {
    let mut config = JitConfig {
        checkpoint_interval_ticks: 0,
        ..JitConfig::default()
    };
    config.toolchain.time_scale = 0.05;
    let board = Board::new();
    board.set_fifo_capacity(CAPACITY);
    let mut rt = Runtime::new(board.clone(), config).expect("runtime");
    rt.eval(src).expect("eval");
    let path = temp_vcd(seed, !tapped);
    if tapped {
        rt.vcd_start(&path, &[]).expect("tap");
    }
    while board.fifo_push(Bits::from_u64(8, 0x47)) {}
    let w0 = rt.wall_seconds();
    rt.run_ticks(20).expect("window");
    let tick_s = (rt.wall_seconds() - w0) / 20.0;
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("compile staged");
    rt.advance_wall((ready - rt.wall_seconds() - 5.0 * tick_s).max(0.0));
    assert_eq!(rt.mode(), ExecMode::Software);
    let ran = rt.run_ticks(60).expect("the window the compile lands in");
    if tapped {
        rt.vcd_stop();
        let _ = std::fs::remove_file(&path);
    }
    (ran, rt.mode(), rt.stats().hw_promotions)
}

#[test]
fn the_plane_batch_is_the_walk_on_generated_planes() {
    let (mut finished, mut pushed_back) = (0, 0);
    for seed in 0..SEEDS {
        let mut rng = Prng::new(seed);
        let src = program(&mut rng, false);
        let steps = script(&mut rng);
        let config = JitConfig {
            checkpoint_interval_ticks: *rng.pick(&[0, 64, 100, 4096]),
            ..JitConfig::default().without("auto_compile")
        };
        let (batch, batched) = run_script(seed, &src, &steps, config.clone());
        let (walk, walked) = run_script(seed, &src, &steps, config.without("inline"));
        assert_eq!(batch, walk, "seed {seed}:\n{src}\n{steps:?}");
        assert!(batched > 0, "seed {seed}: nothing batched");
        assert_eq!(walked, 0);
        finished += u64::from(batch.finished);
        pushed_back += u64::from(!batch.to_host.is_empty());

        if seed % 8 == 0 {
            let src = program(&mut rng, true);
            let landed = landing_window(seed, &src, false);
            assert_eq!(
                landed,
                landing_window(seed, &src, true),
                "seed {seed}:\n{src}"
            );
            assert_eq!(landed.1, ExecMode::HardwareForwarded, "seed {seed}");
        }
    }
    // The generator reaches what it is there for.
    assert!(
        finished > 0 && pushed_back > 0,
        "{finished} finished, {pushed_back} pushed back"
    );
}
