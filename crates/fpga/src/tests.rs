use crate::{
    place, wrapper_overhead_les, Board, CompileError, CostModel, Ctrl, Device, MmioCore, Toolchain,
    VirtualWall,
};
use cascade_bits::Bits;
use cascade_netlist::synthesize;
use cascade_sim::{elaborate, library_from_source, Design};
use cascade_verilog::typecheck::ParamEnv;
use std::sync::Arc;
use std::time::Duration;

fn design_of(src: &str, top: &str) -> Design {
    let lib = library_from_source(src).expect("parse");
    elaborate(top, &lib, &ParamEnv::new()).expect("elaborate")
}

const COUNTER: &str = "module Count(input wire clk, output wire [7:0] o);\n\
    reg [7:0] c = 0;\n\
    always @(posedge clk) c <= c + 1;\n\
    assign o = c;\nendmodule";

#[test]
fn device_defaults_match_paper_platform() {
    let d = Device::cyclone_v();
    assert_eq!(d.logic_elements, 110_000);
    assert_eq!(d.clock_mhz, 50.0);
    assert_eq!(d.clock_period_ns(), 20.0);
}

#[test]
fn compile_small_design() {
    let design = design_of(COUNTER, "Count");
    let bs = Toolchain::default().compile(&design).expect("compile");
    assert!(bs.fmax_mhz >= 50.0);
    assert!(bs.area.registers >= 8);
    // Paper Sec. 2: "trivial programs can take several minutes".
    assert!(bs.modeled_duration >= Duration::from_secs(60));
    assert!(bs.modeled_duration <= Duration::from_secs(600));
}

#[test]
fn compile_time_grows_with_design_size() {
    let small = Toolchain::default()
        .compile(&design_of(COUNTER, "Count"))
        .unwrap();
    let big_src = "module Big(input wire clk, input wire [63:0] x, output wire [63:0] o);\n\
        reg [63:0] a0 = 0; reg [63:0] a1 = 0; reg [63:0] a2 = 0; reg [63:0] a3 = 0;\n\
        always @(posedge clk) begin\n\
          a0 <= x * 64'd2654435761 + a3;\n\
          a1 <= (a0 ^ (a0 >> 13)) * 64'd40503;\n\
          a2 <= a1 + (a1 << 7) + x;\n\
          a3 <= a2 ^ (a2 >> 17);\n\
        end\n\
        assign o = a3;\nendmodule";
    let big = Toolchain::default()
        .compile(&design_of(big_src, "Big"))
        .unwrap();
    assert!(
        big.modeled_duration > small.modeled_duration,
        "bigger design must compile slower: {:?} vs {:?}",
        big.modeled_duration,
        small.modeled_duration
    );
}

#[test]
fn capacity_failure() {
    let design = design_of(
        "module W(input wire clk, input wire [63:0] x, output wire [63:0] o);\n\
         reg [63:0] r = 0;\n\
         always @(posedge clk) r <= r * x + (r / (x | 64'h1));\n\
         assign o = r;\nendmodule",
        "W",
    );
    let tc = Toolchain::new(Device::tiny(50));
    match tc.compile(&design) {
        Err(CompileError::DoesNotFit { .. }) => {}
        other => panic!("expected capacity failure, got {other:?}"),
    }
}

#[test]
fn timing_closure_failure_on_deep_logic() {
    // A 128-bit divider chain has enormous logic depth.
    let design = design_of(
        "module Deep(input wire clk, input wire [127:0] x, output wire [127:0] o);\n\
         reg [127:0] r = 1;\n\
         always @(posedge clk) r <= ((x / (r | 128'h1)) / ((x >> 1) | 128'h1)) + r;\n\
         assign o = r;\nendmodule",
        "Deep",
    );
    match Toolchain::default().compile(&design) {
        Err(CompileError::TimingClosure {
            fmax_mhz,
            required_mhz,
        }) => {
            assert!(fmax_mhz < required_mhz);
        }
        Ok(bs) => panic!("expected timing failure, got fmax {}", bs.fmax_mhz),
        Err(other) => panic!("expected timing failure, got {other}"),
    }
}

#[test]
fn unsynthesizable_reported() {
    let design = design_of(
        "module R(input wire clk, output wire [31:0] o);\n\
         reg [31:0] r;\n\
         always @(posedge clk) r <= $random;\n\
         assign o = r;\nendmodule",
        "R",
    );
    assert!(matches!(
        Toolchain::default().compile(&design),
        Err(CompileError::Synth(_))
    ));
}

#[test]
fn placement_is_deterministic_per_seed() {
    let design = design_of(COUNTER, "Count");
    let nl = Arc::new(synthesize(&design).unwrap());
    let a = place(&nl, 7, 1.0);
    let b = place(&nl, 7, 1.0);
    assert_eq!(a, b);
    let c = place(&nl, 8, 1.0);
    assert_eq!(a.cells, c.cells);
}

#[test]
fn placement_effort_reduces_wirelength() {
    let design = design_of(
        "module X(input wire clk, input wire [31:0] a, output wire [31:0] o);\n\
         reg [31:0] r0 = 0; reg [31:0] r1 = 0; reg [31:0] r2 = 0;\n\
         always @(posedge clk) begin\n\
           r0 <= a ^ (a << 3) ^ (a >> 5);\n\
           r1 <= r0 + (r0 << 1) + (r0 >> 2);\n\
           r2 <= r1 ^ r0 ^ a;\n\
         end\n\
         assign o = r2;\nendmodule",
        "X",
    );
    let nl = Arc::new(synthesize(&design).unwrap());
    let low = place(&nl, 3, 0.1);
    let high = place(&nl, 3, 4.0);
    assert!(
        high.avg_wirelength <= low.avg_wirelength * 1.05,
        "more effort should not be much worse: {} vs {}",
        high.avg_wirelength,
        low.avg_wirelength
    );
}

#[test]
fn board_buttons_and_leds() {
    let board = Board::new();
    assert_eq!(board.buttons().to_u64(), 0);
    board.set_button(2, true);
    assert_eq!(board.buttons().to_u64(), 0b0100);
    board.set_button(2, false);
    assert_eq!(board.buttons().to_u64(), 0);
    board.write_leds(Bits::from_u64(8, 0xa5));
    assert_eq!(board.leds().to_u64(), 0xa5);
    assert_eq!(board.led_writes(), 1);
    board.write_leds(Bits::from_u64(8, 0xa5));
    assert_eq!(board.led_writes(), 1, "no change, no write counted");
}

#[test]
fn board_fifo_backpressure() {
    let board = Board::new();
    board.set_fifo_capacity(2);
    assert!(board.fifo_push(Bits::from_u64(8, 1)));
    assert!(board.fifo_push(Bits::from_u64(8, 2)));
    assert!(!board.fifo_push(Bits::from_u64(8, 3)), "full");
    assert!(board.fifo_full());
    assert_eq!(board.fifo_pop().unwrap().to_u64(), 1);
    assert_eq!(board.fifo_pops(), 1);
    assert!(board.fifo_push(Bits::from_u64(8, 3)));
    assert_eq!(board.fifo_pop().unwrap().to_u64(), 2);
    assert_eq!(board.fifo_pop().unwrap().to_u64(), 3);
    assert!(board.fifo_pop().is_none());
    assert_eq!(board.fifo_pops(), 3);
}

#[test]
fn board_gpio_and_reset() {
    let board = Board::new();
    board.set_gpio(Bits::from_u64(32, 0xdead));
    assert_eq!(board.gpio_in().to_u64(), 0xdead);
    board.write_gpio(Bits::from_u64(32, 0xbeef));
    assert_eq!(board.gpio_out().to_u64(), 0xbeef);
    assert!(!board.reset());
    board.set_reset(true);
    assert!(board.reset());
}

#[test]
fn board_is_shared_across_clones() {
    let a = Board::new();
    let b = a.clone();
    a.set_button(0, true);
    assert!(b.buttons().bit(0), "clones share state");
}

#[test]
fn mmio_core_protocol() {
    let design = design_of(COUNTER, "Count");
    let nl = Arc::new(synthesize(&design).unwrap());
    let mut core = MmioCore::new(nl).unwrap();
    let o_addr = core.map().addr("o").expect("output mapped");
    let c_addr = core.map().addr("c").expect("state mapped");
    assert_eq!(core.read(o_addr).to_u64(), 0);
    // d = c + 1 != c, so updates are pending.
    assert!(core.ctrl_read(Ctrl::ThereAreUpdates).to_bool());
    core.ctrl_write(Ctrl::Latch, Bits::from_u64(1, 1));
    assert_eq!(core.read(o_addr).to_u64(), 1);
    // set_state: overwrite the counter.
    core.write(c_addr, Bits::from_u64(8, 100));
    assert_eq!(core.read(o_addr).to_u64(), 100);
    assert!(core.transactions() > 0);
}

#[test]
fn mmio_open_loop_runs_until_limit() {
    let design = design_of(COUNTER, "Count");
    let nl = Arc::new(synthesize(&design).unwrap());
    let mut core = MmioCore::new(nl).unwrap();
    let done = core.open_loop(1000);
    assert_eq!(done, 1000);
    let o = core.map().addr("o").unwrap();
    assert_eq!(core.read(o).to_u64(), 1000 % 256);
}

#[test]
fn mmio_open_loop_stops_on_task() {
    let design = design_of(
        "module T(input wire clk, output wire [7:0] o);\n\
         reg [7:0] c = 0;\n\
         always @(posedge clk) begin\n\
           c <= c + 1;\n\
           if (c == 9) $display(\"hit %d\", c);\n\
         end\n\
         assign o = c;\nendmodule",
        "T",
    );
    let nl = Arc::new(synthesize(&design).unwrap());
    let mut core = MmioCore::new(nl).unwrap();
    let done = core.open_loop(1000);
    assert_eq!(done, 10, "stops at the task edge");
    let fires = core.drain_tasks();
    assert_eq!(fires.len(), 1);
    assert_eq!(fires[0].text, "hit 9");
    assert_eq!(core.ctrl_read(Ctrl::Iterations).to_u64(), 10);
}

#[test]
fn wrapper_overhead_scales_with_state() {
    let small = design_of(COUNTER, "Count");
    let small_nl = synthesize(&small).unwrap();
    let big = design_of(
        "module BigState(input wire clk, output wire [7:0] o);\n\
         reg [255:0] s0 = 0; reg [255:0] s1 = 0;\n\
         always @(posedge clk) begin s0 <= s0 + 1; s1 <= s1 ^ s0; end\n\
         assign o = s1[7:0];\nendmodule",
        "BigState",
    );
    let big_nl = synthesize(&big).unwrap();
    assert!(wrapper_overhead_les(&big_nl) > wrapper_overhead_les(&small_nl));
    // The wrapper dominates small designs — the root of the paper's
    // "small but noticeable" spatial overhead.
    let user = cascade_netlist::estimate_area(&small_nl)
        .logic_elements
        .max(1);
    assert!(wrapper_overhead_les(&small_nl) > user);
}

#[test]
fn virtual_wall_accumulates() {
    let mut wall = VirtualWall::new();
    let costs = CostModel::default();
    wall.advance_ns(costs.hw_cycle_ns * 50_000_000.0);
    assert!(
        (wall.seconds() - 1.0).abs() < 1e-9,
        "50M cycles at 50 MHz is one second"
    );
    wall.advance(Duration::from_secs(2));
    assert!((wall.seconds() - 3.0).abs() < 1e-9);
}

#[test]
fn cost_model_defaults_are_sane() {
    let c = CostModel::default();
    assert!(
        c.sw_activation_ns > c.hw_cycle_ns,
        "software is slower than fabric"
    );
    assert!(
        c.abi_message_ns > c.hw_cycle_ns,
        "bus round trips dominate cycles"
    );
    assert!(
        c.reprogram_ns < 1e6,
        "reprogramming takes less than a millisecond"
    );
}

/// An output (or input) is its `NetId`, not whatever net happens to carry
/// its name: the output net here is unnamed, an earlier unrelated net bears
/// the output's name, and the input net is unnamed too.
#[test]
fn mmio_addresses_resolve_through_net_ids_not_names() {
    use cascade_netlist::{Cell, CellOp, Def, NetId, NetInfo, Netlist};
    let net = |width, name: Option<&str>, def| NetInfo {
        width,
        name: name.map(str::to_string),
        def,
    };
    let nl = Netlist {
        nets: vec![
            net(8, Some("o"), Def::Const(Bits::from_u64(8, 0xee))), // decoy
            net(8, None, Def::Input),
            net(8, None, Def::Const(Bits::from_u64(8, 1))),
            net(
                8,
                None,
                Def::Cell(Cell {
                    op: CellOp::Add,
                    inputs: vec![NetId(1), NetId(2)],
                }),
            ),
        ],
        inputs: vec![NetId(1)],
        outputs: vec![("o".to_string(), NetId(3))],
        name: "Inc".to_string(),
        ..Netlist::default()
    };
    let mut core = MmioCore::new(Arc::new(nl)).expect("acyclic");
    let i = core.map().addr("in1").expect("unnamed input mapped");
    let o = core.map().addr("o").expect("output mapped");
    core.write(i, Bits::from_u64(8, 41));
    let v = core.read(o);
    assert_eq!((v.width(), v.to_u64()), (8, 42));
    assert_eq!(core.read(i).to_u64(), 41);
    assert_eq!(core.net(o), Some(NetId(3)));
}
