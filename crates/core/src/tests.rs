use crate::{CascadeError, EngineKind, ExecMode, JitConfig, Repl, ReplResponse, Runtime};
use cascade_bits::Bits;
use cascade_fpga::{Board, Device, Toolchain};

/// The running example as the REPL sees it (paper Fig. 3): stdlib
/// components referenced by hierarchical name, no ports on the root.
const ROL_DECL: &str = "module Rol(input wire [7:0] x, output wire [7:0] y);\n\
    assign y = (x == 8'h80) ? 8'h1 : (x<<1);\nendmodule";

const MAIN_ITEMS: &str = "reg [7:0] cnt = 1;\n\
    Rol r(.x(cnt));\n\
    always @(posedge clk.val)\n\
      if (pad.val == 0)\n\
        cnt <= r.y;\n\
    assign led.val = cnt;";

fn runtime(config: JitConfig) -> (Runtime, Board) {
    let board = Board::new();
    let rt = Runtime::new(board.clone(), config).expect("runtime");
    (rt, board)
}

fn no_compile_config() -> JitConfig {
    JitConfig {
        auto_compile: false,
        ..JitConfig::default()
    }
}

#[test]
fn empty_runtime_ticks() {
    let (mut rt, _) = runtime(no_compile_config());
    rt.run_ticks(5).unwrap();
    assert_eq!(rt.ticks(), 5);
    assert_eq!(rt.mode(), ExecMode::Idle);
}

#[test]
fn running_example_in_software() {
    let (mut rt, board) = runtime(no_compile_config());
    rt.eval(ROL_DECL).unwrap();
    rt.eval(MAIN_ITEMS).unwrap();
    assert_eq!(rt.mode(), ExecMode::Software);
    assert_eq!(board.leds().to_u64(), 1, "visible before any tick");
    rt.run_ticks(3).unwrap();
    assert_eq!(board.leds().to_u64(), 8);
    // Wraps after 8 ticks total.
    rt.run_ticks(5).unwrap();
    assert_eq!(board.leds().to_u64(), 1);
}

#[test]
fn button_press_pauses_animation() {
    let (mut rt, board) = runtime(no_compile_config());
    rt.eval(ROL_DECL).unwrap();
    rt.eval(MAIN_ITEMS).unwrap();
    rt.run_ticks(2).unwrap();
    assert_eq!(board.leds().to_u64(), 4);
    board.set_button(0, true);
    rt.run_ticks(3).unwrap();
    assert_eq!(board.leds().to_u64(), 4, "paused while pressed");
    board.set_button(0, false);
    rt.run_ticks(1).unwrap();
    assert_eq!(board.leds().to_u64(), 8);
}

#[test]
fn display_and_finish_from_software() {
    let (mut rt, _) = runtime(no_compile_config());
    rt.eval(
        "reg [3:0] c = 0;\n\
         always @(posedge clk.val) begin\n\
           c <= c + 1;\n\
           $display(\"c=%d\", c);\n\
           if (c == 2) $finish;\n\
         end",
    )
    .unwrap();
    rt.run_ticks(10).unwrap();
    assert!(rt.is_finished());
    let out = rt.drain_output();
    assert_eq!(out, vec!["c=0", "c=1", "c=2"]);
}

#[test]
fn eval_statement_runs_once() {
    let (mut rt, _) = runtime(no_compile_config());
    rt.eval("reg [7:0] x = 0;").unwrap();
    rt.eval("$display(\"hello %d\", x);").unwrap();
    let out = rt.drain_output();
    assert_eq!(out, vec!["hello 0"]);
    // Subsequent evals and ticks must not re-run the statement.
    rt.eval("reg [7:0] y = 0;").unwrap();
    rt.run_ticks(2).unwrap();
    assert!(rt.drain_output().is_empty());
}

#[test]
fn state_survives_incremental_eval() {
    let (mut rt, board) = runtime(no_compile_config());
    rt.eval("reg [7:0] cnt = 1;").unwrap();
    rt.eval("always @(posedge clk.val) cnt <= cnt + 1;")
        .unwrap();
    rt.run_ticks(5).unwrap();
    // cnt == 6 now; adding the LED hookup must not reset it (paper Sec. 3.5:
    // "cnt must be preserved rather than reset").
    rt.eval("assign led.val = cnt;").unwrap();
    rt.run_ticks(0).unwrap();
    assert_eq!(board.leds().to_u64(), 6);
    rt.run_ticks(1).unwrap();
    assert_eq!(board.leds().to_u64(), 7);
}

#[test]
fn eval_errors_leave_program_unchanged() {
    let (mut rt, board) = runtime(no_compile_config());
    rt.eval("reg [7:0] cnt = 1;").unwrap();
    rt.eval("assign led.val = cnt;").unwrap();
    assert!(rt.eval("assign led.val = bogus_name;").is_err());
    assert!(rt.eval("wire [3:0] w = $$;").is_err());
    assert!(
        rt.eval("module Led(input wire x); endmodule").is_err(),
        "stdlib redeclare"
    );
    rt.eval("always @(posedge clk.val) cnt <= cnt + 1;")
        .unwrap();
    rt.run_ticks(1).unwrap();
    assert_eq!(board.leds().to_u64(), 2);
}

#[test]
fn jit_migrates_to_hardware_and_results_match() {
    let config = JitConfig {
        open_loop: false,
        ..JitConfig::default()
    };
    let (mut rt, board) = runtime(config);
    rt.eval(ROL_DECL).unwrap();
    rt.eval(MAIN_ITEMS).unwrap();
    assert_eq!(rt.mode(), ExecMode::Software);
    rt.run_ticks(3).unwrap();
    assert_eq!(board.leds().to_u64(), 8);
    // Let the background compile finish, then advance the wall past the
    // modeled latency.
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("compile staged");
    rt.advance_wall(ready - rt.wall_seconds() + 1.0);
    rt.run_ticks(1).unwrap();
    assert!(
        matches!(rt.mode(), ExecMode::Hardware | ExecMode::HardwareForwarded),
        "should have migrated, got {:?}",
        rt.mode()
    );
    // State carried over: 3 ticks happened before, so led continues.
    assert_eq!(board.leds().to_u64(), 16, "state migrated seamlessly");
    rt.run_ticks(4).unwrap();
    assert_eq!(board.leds().to_u64(), 1, "wraps after 8 total");
}

#[test]
fn open_loop_reaches_hardware_speed() {
    let (mut rt, board) = runtime(JitConfig::default());
    rt.eval(ROL_DECL).unwrap();
    rt.eval(MAIN_ITEMS).unwrap();
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("staged");
    rt.advance_wall(ready - rt.wall_seconds() + 1.0);
    rt.run_ticks(1).unwrap();
    assert_eq!(rt.mode(), ExecMode::HardwareForwarded);
    let t0 = rt.ticks();
    let w0 = rt.wall_seconds();
    rt.run_ticks(100_000).unwrap();
    let rate = (rt.ticks() - t0) as f64 / (rt.wall_seconds() - w0);
    assert!(rt.stats().open_loop_active, "open loop should engage");
    // 50 MHz fabric: open loop should land within ~3x of native.
    assert!(rate > 15e6, "virtual clock rate {rate:.0} Hz too slow");
    // `cnt` starts one-hot at bit 0 and rotates left once per tick.
    assert_eq!(board.leds().to_u64(), 1 << (rt.ticks() % 8));
}

#[test]
fn display_still_works_from_hardware() {
    let (mut rt, _) = runtime(JitConfig::default());
    rt.eval(
        "reg [15:0] c = 0;\n\
         always @(posedge clk.val) begin\n\
           c <= c + 1;\n\
           if (c == 16'd1000) $display(\"hit %d\", c);\n\
         end",
    )
    .unwrap();
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("staged");
    rt.advance_wall(ready - rt.wall_seconds() + 1.0);
    rt.run_ticks(1).unwrap();
    assert_eq!(rt.mode(), ExecMode::HardwareForwarded);
    rt.drain_output();
    rt.run_ticks(2000).unwrap();
    let out = rt.drain_output();
    assert_eq!(
        out,
        vec!["hit 1000"],
        "printf from hardware (paper headline)"
    );
}

#[test]
fn finish_still_works_from_hardware() {
    let (mut rt, _) = runtime(JitConfig::default());
    rt.eval(
        "reg [15:0] c = 0;\n\
         always @(posedge clk.val) begin\n\
           c <= c + 1;\n\
           if (c == 16'd500) $finish;\n\
         end",
    )
    .unwrap();
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("staged");
    rt.advance_wall(ready - rt.wall_seconds() + 1.0);
    let done = rt.run_ticks(10_000).unwrap();
    assert!(rt.is_finished());
    assert!(done < 10_000, "stopped early at $finish, ran {done}");
}

#[test]
fn eval_after_hardware_returns_to_software() {
    let (mut rt, board) = runtime(JitConfig::default());
    rt.eval("reg [7:0] cnt = 1;").unwrap();
    rt.eval("always @(posedge clk.val) cnt <= cnt + 1;")
        .unwrap();
    rt.eval("assign led.val = cnt;").unwrap();
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("staged");
    rt.advance_wall(ready - rt.wall_seconds() + 1.0);
    rt.run_ticks(10).unwrap();
    assert_eq!(rt.mode(), ExecMode::HardwareForwarded);
    let led_before = board.leds().to_u64();
    // Modifying the program drops back to software with state intact.
    rt.eval("reg [7:0] other = 0;").unwrap();
    assert_eq!(rt.mode(), ExecMode::Software);
    rt.run_ticks(1).unwrap();
    assert_eq!(
        board.leds().to_u64(),
        led_before + 1,
        "cnt preserved through demotion"
    );
}

#[test]
fn compile_failure_is_reported_not_fatal() {
    let config = JitConfig {
        toolchain: Toolchain::new(Device::tiny(10)),
        ..JitConfig::default()
    };
    let (mut rt, board) = runtime(config);
    rt.eval("reg [63:0] a = 0;").unwrap();
    rt.eval("always @(posedge clk.val) a <= a * 64'd2654435761 + (a >> 7);")
        .unwrap();
    rt.eval("assign led.val = a[7:0];").unwrap();
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("staged");
    rt.advance_wall(ready - rt.wall_seconds() + 1.0);
    rt.run_ticks(2).unwrap();
    assert_eq!(rt.mode(), ExecMode::Software, "stays in software");
    let out = rt.drain_output().join("\n");
    assert!(out.contains("compilation failed"), "user is told: {out}");
    let _ = board.leds();
}

#[test]
fn fifo_stream_through_stdlib() {
    let (mut rt, board) = runtime(no_compile_config());
    for i in 1..=4u64 {
        board.fifo_push(Bits::from_u64(8, i * 11));
    }
    rt.eval(
        "FIFO #(.WIDTH(8)) f();\n\
         reg [15:0] sum = 0;\n\
         assign f.rreq = !f.empty;\n\
         always @(posedge clk.val)\n\
           if (f.rreq) sum <= sum + f.rdata;\n\
         assign led.val = sum[7:0];",
    )
    .unwrap();
    rt.run_ticks(8).unwrap();
    // Tokens pop one per cycle; rdata lags rreq by a cycle, so the sum
    // settles after all four arrive.
    assert_eq!(board.fifo_pops(), 4);
    assert!(board.leds().to_u64() > 0);
}

#[test]
fn memory_stdlib_component() {
    let (mut rt, board) = runtime(no_compile_config());
    rt.eval(
        "Memory #(.ADDR(4), .WIDTH(8)) m();\n\
         reg [7:0] phase = 0;\n\
         assign m.wen = (phase < 8'd4);\n\
         assign m.waddr = phase[3:0];\n\
         assign m.wdata = {4'h5, phase[3:0]};\n\
         assign m.raddr = 4'd2;\n\
         assign led.val = m.rdata;\n\
         always @(posedge clk.val) phase <= phase + 1;",
    )
    .unwrap();
    rt.run_ticks(6).unwrap();
    // Address 2 was written with 0x52 during phase 2 and read back
    // asynchronously through the LED bank.
    assert_eq!(board.leds().to_u64(), 0x52);
}

#[test]
fn native_mode_full_performance() {
    let (mut rt, board) = runtime(JitConfig::default());
    rt.eval("reg [7:0] cnt = 1;").unwrap();
    rt.eval("always @(posedge clk.val) cnt <= cnt + 1;")
        .unwrap();
    rt.eval("assign led.val = cnt;").unwrap();
    rt.enter_native().unwrap();
    assert_eq!(rt.mode(), ExecMode::Native);
    let w0 = rt.wall_seconds();
    let t0 = rt.ticks();
    rt.run_ticks(1_000_000).unwrap();
    let rate = (rt.ticks() - t0) as f64 / (rt.wall_seconds() - w0);
    assert!(rate > 45e6, "native ≈ 50 MHz, got {rate:.0}");
    let _ = board.leds();
    rt.exit_native().unwrap();
    assert_eq!(rt.mode(), ExecMode::Software);
}

#[test]
fn native_mode_rejects_system_tasks() {
    let (mut rt, _) = runtime(no_compile_config());
    rt.eval("reg c = 0;").unwrap();
    rt.eval("always @(posedge clk.val) begin c <= ~c; $display(c); end")
        .unwrap();
    match rt.enter_native() {
        Err(CascadeError::NativeIneligible(_)) => {}
        other => panic!("expected ineligible, got {other:?}"),
    }
}

#[test]
fn stale_compiles_are_dropped() {
    let (mut rt, board) = runtime(JitConfig::default());
    rt.eval("reg [7:0] a = 0;").unwrap();
    rt.eval("always @(posedge clk.val) a <= a + 1;").unwrap();
    rt.wait_for_compile_worker();
    // Edit before the compile lands: version bumps, first result is stale.
    rt.eval("assign led.val = a;").unwrap();
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("staged");
    rt.advance_wall(ready - rt.wall_seconds() + 1.0);
    rt.run_ticks(3).unwrap();
    assert!(
        matches!(rt.mode(), ExecMode::HardwareForwarded | ExecMode::Hardware),
        "second compile lands"
    );
    assert_eq!(board.leds().to_u64(), 3);
}

#[test]
fn interpreter_only_config_never_compiles() {
    let (mut rt, _) = runtime(JitConfig::interpreter_only());
    rt.eval("reg [7:0] a = 0;").unwrap();
    rt.eval("always @(posedge clk.val) a <= a + 1;").unwrap();
    rt.run_ticks(50).unwrap();
    assert_eq!(rt.mode(), ExecMode::Software);
    assert!(!rt.stats().compile_in_flight);
}

#[test]
fn stats_reflect_engines() {
    let (mut rt, _) = runtime(no_compile_config());
    rt.eval("reg [7:0] a = 0;").unwrap();
    rt.eval("assign led.val = a;").unwrap();
    let stats = rt.stats();
    assert!(stats
        .engines
        .iter()
        .any(|(n, k)| n == "clk" && *k == EngineKind::Clock));
    assert!(stats
        .engines
        .iter()
        .any(|(n, k)| n == "main" && *k == EngineKind::Software));
    assert!(stats
        .engines
        .iter()
        .any(|(n, k)| n == "led" && *k == EngineKind::Peripheral));
}

#[test]
fn wall_clock_advances_faster_in_software() {
    // The same workload costs more modeled time interpreted than in
    // hardware — the gap that motivates the whole system.
    let (mut sw, _) = runtime(JitConfig::interpreter_only());
    sw.eval("reg [15:0] a = 0;").unwrap();
    sw.eval("always @(posedge clk.val) a <= a + 1;").unwrap();
    sw.run_ticks(500).unwrap();
    let sw_rate = sw.ticks() as f64 / sw.wall_seconds();

    let (mut hw, _) = runtime(JitConfig::default());
    hw.eval("reg [15:0] a = 0;").unwrap();
    hw.eval("always @(posedge clk.val) a <= a + 1;").unwrap();
    hw.wait_for_compile_worker();
    let ready = hw.compile_ready_at().expect("staged");
    hw.advance_wall(ready - hw.wall_seconds() + 1.0);
    hw.run_ticks(1).unwrap();
    let t0 = hw.ticks();
    let w0 = hw.wall_seconds();
    hw.run_ticks(100_000).unwrap();
    let hw_rate = (hw.ticks() - t0) as f64 / (hw.wall_seconds() - w0);
    assert!(
        hw_rate > sw_rate * 10.0,
        "hardware {hw_rate:.0} Hz should dwarf software {sw_rate:.0} Hz"
    );
}

// ----------------------------------------------------------------------
// REPL
// ----------------------------------------------------------------------

#[test]
fn repl_accumulates_multiline_items() {
    let (rt, board) = runtime(no_compile_config());
    let mut repl = Repl::new(rt);
    assert_eq!(
        repl.line("module Rol(input wire [7:0] x, output wire [7:0] y);"),
        ReplResponse::Incomplete
    );
    assert_eq!(
        repl.line("assign y = (x == 8'h80) ? 8'h1 : (x<<1);"),
        ReplResponse::Incomplete
    );
    assert!(matches!(repl.line("endmodule"), ReplResponse::Evaluated(_)));
    assert!(matches!(
        repl.line("reg [7:0] cnt = 1;"),
        ReplResponse::Evaluated(_)
    ));
    assert!(matches!(
        repl.line("Rol r(.x(cnt));"),
        ReplResponse::Evaluated(_)
    ));
    assert_eq!(
        repl.line("always @(posedge clk.val)"),
        ReplResponse::Incomplete
    );
    assert!(matches!(
        repl.line("cnt <= r.y;"),
        ReplResponse::Evaluated(_)
    ));
    assert!(matches!(
        repl.line("assign led.val = cnt;"),
        ReplResponse::Evaluated(_)
    ));
    repl.runtime().run_ticks(2).unwrap();
    assert_eq!(board.leds().to_u64(), 4);
}

#[test]
fn repl_reports_errors_and_recovers() {
    let (rt, _) = runtime(no_compile_config());
    let mut repl = Repl::new(rt);
    let resp = repl.line("assign led.val = nonexistent;");
    assert!(matches!(resp, ReplResponse::Error(_)));
    // Still usable afterwards.
    assert!(matches!(
        repl.line("reg [3:0] ok = 0;"),
        ReplResponse::Evaluated(_)
    ));
}

#[test]
fn repl_immediate_output() {
    let (rt, _) = runtime(no_compile_config());
    let mut repl = Repl::new(rt);
    repl.line("reg [7:0] v = 42;");
    let ReplResponse::Evaluated(out) = repl.line("$display(\"v=%d\", v);") else {
        panic!("expected eval");
    };
    assert_eq!(out, vec!["v=42"]);
}

#[test]
fn repl_batched_error_names_offending_item() {
    let (rt, _) = runtime(no_compile_config());
    let mut repl = Repl::new(rt);
    // Two items close on one line; only the second is bad. The error must
    // name item 2 and give a buffer-relative position (line 2), and the
    // good first item must stay committed.
    assert_eq!(repl.line("reg [3:0] a"), ReplResponse::Incomplete);
    let ReplResponse::Error(msg) = repl.line("= 1; assign led.val = bad_name;") else {
        panic!("expected error for the second item");
    };
    assert!(msg.contains("item 2 of 2"), "got: {msg}");
    assert!(msg.contains("assign led.val"), "got: {msg}");
    assert!(msg.contains("2:"), "expected buffer line 2, got: {msg}");
    // `a` was committed before the failure.
    assert!(matches!(
        repl.line("assign led.val = a;"),
        ReplResponse::Evaluated(_)
    ));
}

#[test]
fn repl_batch_mode() {
    let (rt, board) = runtime(no_compile_config());
    let mut repl = Repl::new(rt);
    repl.batch(&format!("{ROL_DECL}\n{MAIN_ITEMS}")).unwrap();
    repl.runtime().run_ticks(3).unwrap();
    assert_eq!(board.leds().to_u64(), 8);
}

// ----------------------------------------------------------------------
// Transform unit behaviour
// ----------------------------------------------------------------------

#[test]
fn transform_promotes_hier_refs() {
    use crate::transform::{transform_module, Externals};
    use cascade_verilog::ast::Item;
    let unit = cascade_verilog::parse(
        "module M();\n\
         reg [7:0] cnt = 1;\n\
         always @(posedge clk.val) if (pad.val == 0) cnt <= cnt + 1;\n\
         assign led.val = cnt;\n\
         endmodule",
    )
    .unwrap();
    let Item::Module(m) = &unit.items[0] else {
        panic!()
    };
    let mut lib = cascade_verilog::typecheck::ModuleLibrary::new();
    for sm in cascade_stdlib::stdlib_modules() {
        lib.insert(sm);
    }
    let mut externals = Externals::new();
    externals.insert("clk".into(), ("Clock".into(), Default::default()));
    externals.insert("pad".into(), ("Pad".into(), Default::default()));
    externals.insert("led".into(), ("Led".into(), Default::default()));
    let mut wires = Vec::new();
    let out = transform_module("main", m, &externals, &lib, &mut wires).unwrap();
    let port_names: Vec<_> = out.ports.iter().map(|p| p.name.as_str()).collect();
    assert!(port_names.contains(&"clk_val"));
    assert!(port_names.contains(&"pad_val"));
    assert!(port_names.contains(&"led_val"));
    assert_eq!(wires.len(), 3);
    assert!(wires.iter().any(
        |w| w.from == ("clk".into(), "val".into()) && w.to == ("main".into(), "clk_val".into())
    ));
    assert!(wires.iter().any(
        |w| w.from == ("main".into(), "led_val".into()) && w.to == ("led".into(), "val".into())
    ));
    // The printed module is standalone Verilog.
    let printed = cascade_verilog::pretty::print_module(&out);
    assert!(printed.contains("input wire clk_val"));
    assert!(!printed.contains("clk.val"));
}

#[test]
fn transform_rejects_reading_external_inputs() {
    let (mut rt, _) = runtime(no_compile_config());
    // led.val is an input of the Led component; reading it is an error.
    let err = rt.eval("wire w = led.val;").unwrap_err();
    assert!(matches!(err, CascadeError::Unsupported(_)), "{err}");
}

// ----------------------------------------------------------------------
// Fig. 10 wrapper codegen
// ----------------------------------------------------------------------

mod fig10_wrapper {
    use crate::fig10::{generate_wrapper, WrapperSlot};
    use cascade_bits::Bits;
    use cascade_sim::Simulator;
    use cascade_verilog::ast::Item;
    use cascade_verilog::typecheck::ModuleLibrary;
    use std::sync::Arc;

    /// A small inlined subprogram in the shape the runtime produces: flat,
    /// promoted ports, a clocked body with a `$display`.
    const SUB: &str = "module Sub(\n\
        input wire clk_val,\n\
        input wire [3:0] pad_val,\n\
        output wire [7:0] led_val\n\
        );\n\
        reg [7:0] cnt = 1;\n\
        always @(posedge clk_val)\n\
          if (pad_val == 0)\n\
            cnt <= (cnt == 8'h80) ? 8'h1 : (cnt << 1);\n\
          else begin\n\
            $display(\"paused %d\", cnt);\n\
          end\n\
        assign led_val = cnt;\n\
        endmodule";

    fn wrapper_sim() -> (Simulator, crate::fig10::Fig10Wrapper) {
        let unit = cascade_verilog::parse(SUB).unwrap();
        let Item::Module(m) = &unit.items[0] else {
            panic!()
        };
        let wrapper = generate_wrapper(m, &ModuleLibrary::new()).unwrap();
        let lib = cascade_sim::library_from_source(&wrapper.source)
            .unwrap_or_else(|e| panic!("wrapper must parse: {e}\n{}", wrapper.source));
        let design = cascade_sim::elaborate("Main", &lib, &Default::default())
            .unwrap_or_else(|e| panic!("wrapper must elaborate: {e}\n{}", wrapper.source));
        let mut sim = Simulator::new(Arc::new(design));
        sim.initialize().unwrap();
        (sim, wrapper)
    }

    /// One bus write: set RW/ADDR/IN, let the address decode settle (setup
    /// time), pulse CLK.
    fn bus_write(sim: &mut Simulator, addr: u32, value: u64) {
        sim.poke("RW", Bits::from_u64(1, 1));
        sim.poke("ADDR", Bits::from_u64(32, addr as u64));
        sim.poke("IN", Bits::from_u64(32, value));
        sim.settle().unwrap();
        sim.tick("CLK").unwrap();
        sim.poke("RW", Bits::from_u64(1, 0));
        sim.settle().unwrap();
    }

    /// One bus read: set ADDR, sample OUT combinationally.
    fn bus_read(sim: &mut Simulator, addr: u32) -> u64 {
        sim.poke("RW", Bits::from_u64(1, 0));
        sim.poke("ADDR", Bits::from_u64(32, addr as u64));
        sim.settle().unwrap();
        sim.peek("OUT").to_u64()
    }

    #[test]
    fn wrapper_has_figure_structure() {
        let (_, wrapper) = wrapper_sim();
        assert!(wrapper.source.contains("input wire [31:0] ADDR"));
        assert!(wrapper.source.contains("_umask"));
        assert!(wrapper.source.contains("_oloop"));
        assert!(wrapper.source.contains("assign WAIT"));
        assert!(wrapper.ctrl.contains_key("LATCH"));
        assert!(wrapper.ctrl.contains_key("OLOOP"));
        assert!(wrapper
            .slots
            .iter()
            .any(|s| matches!(s, WrapperSlot::State(n) if n == "cnt")));
        assert!(wrapper
            .slots
            .iter()
            .any(|s| matches!(s, WrapperSlot::TaskArg { .. })));
    }

    #[test]
    fn wrapper_behaves_like_the_subprogram() {
        let (mut sim, wrapper) = wrapper_sim();
        let clk = wrapper.addr_of("clk_val").unwrap();
        let led = wrapper.addr_of("led_val").unwrap();
        let cnt = wrapper.addr_of("cnt").unwrap();
        let latch = wrapper.ctrl["LATCH"];
        let updates = wrapper.ctrl["UPDATES"];
        assert_eq!(bus_read(&mut sim, led), 1, "initial state");
        // Three virtual clock cycles over the bus protocol.
        for expect in [2u64, 4, 8] {
            bus_write(&mut sim, clk, 1); // clk rises: user logic stages an update
            assert_ne!(bus_read(&mut sim, updates), 0, "update pending");
            bus_write(&mut sim, latch, 1); // commit shadows
            bus_write(&mut sim, clk, 0); // clk falls
            assert_eq!(bus_read(&mut sim, led), expect);
        }
        // set_state over the bus: jump the counter.
        bus_write(&mut sim, cnt, 0x40);
        assert_eq!(bus_read(&mut sim, led), 0x40);
        bus_write(&mut sim, clk, 1);
        bus_write(&mut sim, latch, 1);
        bus_write(&mut sim, clk, 0);
        assert_eq!(bus_read(&mut sim, led), 0x80);
    }

    #[test]
    fn wrapper_captures_task_arguments() {
        let (mut sim, wrapper) = wrapper_sim();
        let clk = wrapper.addr_of("clk_val").unwrap();
        let pad = wrapper.addr_of("pad_val").unwrap();
        let tasks = wrapper.ctrl["TASKS"];
        let clear = wrapper.ctrl["CLEAR"];
        let targ = wrapper
            .slots
            .iter()
            .position(|s| matches!(s, WrapperSlot::TaskArg { .. }))
            .unwrap() as u32;
        assert_eq!(bus_read(&mut sim, tasks), 0, "no tasks yet");
        bus_write(&mut sim, pad, 1); // press a button
        bus_write(&mut sim, clk, 1); // the $display branch runs
        assert_ne!(bus_read(&mut sim, tasks), 0, "task mask set");
        assert_eq!(bus_read(&mut sim, targ), 1, "captured cnt at trigger");
        bus_write(&mut sim, clear, 1);
        assert_eq!(bus_read(&mut sim, tasks), 0, "mask cleared");
    }

    #[test]
    fn wrapper_open_loop_runs_cycles_in_fabric() {
        let (mut sim, wrapper) = wrapper_sim();
        let led = wrapper.addr_of("led_val").unwrap();
        let oloop = wrapper.ctrl["OLOOP"];
        let itrs = wrapper.ctrl["ITRS"];
        // Ask for 6 open-loop iterations: the wrapper toggles the virtual
        // clock itself; 6 CLK cycles = 3 virtual posedges.
        bus_write(&mut sim, oloop, 6);
        assert!(sim.peek("WAIT").to_bool(), "WAIT asserted during open loop");
        for _ in 0..6 {
            sim.tick("CLK").unwrap();
        }
        assert!(!sim.peek("WAIT").to_bool(), "budget exhausted");
        assert_eq!(bus_read(&mut sim, itrs), 6);
        assert_eq!(bus_read(&mut sim, led), 8, "three virtual cycles advanced");
    }

    #[test]
    fn wrapper_passes_memories_through() {
        // Memories stay inside the fabric (block RAM); they get no bus
        // address but the wrapper still builds and parses.
        let src = "module S(input wire clk_val, output wire [7:0] o);\n\
             reg [7:0] m [0:3];\n\
             reg [1:0] i = 0;\n\
             always @(posedge clk_val) begin m[i] <= m[i] + 1; i <= i + 1; end\n\
             assign o = m[0];\nendmodule";
        let unit = cascade_verilog::parse(src).unwrap();
        let cascade_verilog::ast::Item::Module(m) = &unit.items[0] else {
            panic!()
        };
        let w = generate_wrapper(m, &ModuleLibrary::new()).unwrap();
        assert!(w.addr_of("m").is_none(), "memory not bus-addressable");
        assert!(w.addr_of("i").is_some(), "scalar state is");
        cascade_verilog::parse(&w.source).expect("wrapper parses");
    }

    #[test]
    fn wrapper_rejects_blocking_state_writes() {
        let src = "module S(input wire clk_val, output wire [7:0] o);\n\
             reg [7:0] c = 0;\n\
             always @(posedge clk_val) c = c + 1;\n\
             assign o = c;\nendmodule";
        let unit = cascade_verilog::parse(src).unwrap();
        let cascade_verilog::ast::Item::Module(m) = &unit.items[0] else {
            panic!()
        };
        assert!(generate_wrapper(m, &ModuleLibrary::new()).is_err());
    }
}

#[test]
fn modules_are_append_only() {
    // Paper Sec. 7.2: eval can add code but never edit or delete it.
    let (mut rt, _) = runtime(no_compile_config());
    rt.eval("module A(input wire x, output wire y); assign y = x; endmodule")
        .unwrap();
    let err = rt
        .eval("module A(input wire x, output wire y); assign y = ~x; endmodule")
        .unwrap_err();
    assert!(err.to_string().contains("append-only"), "{err}");
}

#[test]
fn time_advances_with_virtual_clock() {
    let (mut rt, _) = runtime(no_compile_config());
    rt.eval(
        "reg [3:0] c = 0;\n\
         always @(posedge clk.val) begin\n\
           c <= c + 1;\n\
           if (c == 2) $display(\"t=%d\", $time);\n\
         end",
    )
    .unwrap();
    rt.run_ticks(5).unwrap();
    let out = rt.drain_output();
    assert_eq!(out, vec!["t=2"], "$time counts virtual clock ticks");
}

#[test]
fn memory_contents_survive_migration() {
    let (mut rt, board) = runtime(JitConfig::default());
    rt.eval(
        "reg [7:0] scratch [0:15];\n\
         reg [3:0] wp = 0;\n\
         reg [7:0] acc = 0;\n\
         always @(posedge clk.val) begin\n\
           scratch[wp] <= wp + 8'h10;\n\
           wp <= wp + 1;\n\
           acc <= acc + scratch[4'h3];\n\
         end\n\
         assign led.val = acc;",
    )
    .unwrap();
    rt.run_ticks(8).unwrap(); // scratch[3] written with 0x13 at tick 4
    let led_sw = board.leds().to_u64();
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("staged");
    rt.advance_wall((ready - rt.wall_seconds()).max(0.0) + 1.0);
    rt.run_ticks(1).unwrap();
    assert_eq!(rt.mode(), ExecMode::HardwareForwarded);
    // If the memory had been lost, acc would stop growing by 0x13.
    rt.run_ticks(2).unwrap();
    let led_hw = board.leds().to_u64();
    assert_eq!(
        led_hw,
        (led_sw + 3 * 0x13) & 0xff,
        "memory state carried into hardware"
    );
}

#[test]
fn runaway_user_code_reports_sim_error() {
    let (mut rt, _) = runtime(no_compile_config());
    rt.eval(
        "reg [7:0] i = 0;\n\
         always @(posedge clk.val) begin\n\
           i = 1;\n\
           while (i != 0) i = 1;\n\
         end",
    )
    .unwrap();
    match rt.run_ticks(1) {
        Err(CascadeError::Sim(_)) => {}
        other => panic!("expected a simulation fault, got {other:?}"),
    }
}

#[test]
fn eval_runs_the_preprocessor() {
    let (mut rt, board) = runtime(no_compile_config());
    rt.eval(
        "`define WIDTH 8\n\
         reg [`WIDTH-1:0] c = 0;\n\
         always @(posedge clk.val) c <= c + 1;\n\
         assign led.val = c;",
    )
    .unwrap();
    rt.run_ticks(3).unwrap();
    assert_eq!(board.leds().to_u64(), 3);
}

#[test]
fn open_loop_budget_adapts_to_io_cost() {
    // A FIFO-bound program pays a bus round trip per cycle, so the adaptive
    // profiler must shrink the batch size to keep control returns near the
    // configured period.
    let config = JitConfig {
        open_loop_target_s: 0.05,
        ..JitConfig::default()
    };
    let (mut rt, board) = runtime(config);
    board.set_fifo_capacity(1 << 20);
    rt.eval(
        "FIFO #(.WIDTH(8)) f();\n\
         reg [15:0] sum = 0;\n\
         assign f.rreq = !f.empty;\n\
         always @(posedge clk.val) if (f.rreq) sum <= sum + f.rdata;\n\
         assign led.val = sum[7:0];",
    )
    .unwrap();
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("staged");
    rt.advance_wall((ready - rt.wall_seconds()).max(0.0) + 1.0);
    rt.run_ticks(1).unwrap();
    assert_eq!(rt.mode(), ExecMode::HardwareForwarded);
    for _ in 0..500_000u64 {
        board.fifo_push(cascade_bits::Bits::from_u64(8, 7));
    }
    // Warm the controller, then measure one batch.
    rt.run_ticks(40_000).unwrap();
    let w0 = rt.wall_seconds();
    rt.run_ticks(30_000).unwrap();
    let elapsed = rt.wall_seconds() - w0;
    // Per-cycle cost ≈ 1.8µs, so 30k ticks ≈ 55ms of modeled time split
    // into batches near the 50ms target: control returned at least once
    // and batches were not the naive 2.5M-cycle fixed budget.
    assert!(
        elapsed < 0.5,
        "adaptive batches should keep modeled time bounded, got {elapsed:.3}s"
    );
    assert!(rt.stats().open_loop_active);
}

#[test]
fn negedge_design_runs_in_hardware_closed_loop() {
    // Negedge-clocked logic is ineligible for open loop (single-posedge
    // requirement) but must still migrate and stay correct through the
    // closed-loop hardware path.
    let config = JitConfig {
        open_loop: true,
        ..JitConfig::default()
    };
    let (mut rt, board) = runtime(config);
    rt.eval(
        "reg [7:0] up = 0;\n\
         reg [7:0] down = 0;\n\
         always @(posedge clk.val) up <= up + 1;\n\
         always @(negedge clk.val) down <= down + 2;\n\
         assign led.val = up + down;",
    )
    .unwrap();
    rt.run_ticks(3).unwrap();
    assert_eq!(board.leds().to_u64(), 9); // 3*1 + 3*2
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("staged");
    rt.advance_wall((ready - rt.wall_seconds()).max(0.0) + 1.0);
    rt.run_ticks(1).unwrap();
    assert!(matches!(
        rt.mode(),
        ExecMode::Hardware | ExecMode::HardwareForwarded
    ));
    rt.run_ticks(2).unwrap();
    assert_eq!(board.leds().to_u64(), 18, "both edges serviced in hardware");
    assert!(
        !rt.stats().open_loop_active,
        "negedge domain forces closed loop"
    );
}

#[test]
fn resubmitting_unchanged_design_hits_bitstream_cache() {
    use crate::{BackgroundCompiler, HwSource};
    use std::sync::Arc;

    let lib = cascade_sim::library_from_source(
        "module __cascade_sub(input wire clk_val, output wire [7:0] led_val);\n\
         reg [7:0] c = 0;\n\
         always @(posedge clk_val) c <= c + 1;\n\
         assign led_val = c;\nendmodule",
    )
    .unwrap();
    let design = Arc::new(HwSource::new(lib));
    let tc = Toolchain::new(Device::cyclone_v());
    let mut bc = BackgroundCompiler::new();

    bc.submit(Arc::clone(&design), tc.clone(), 1, 0.0);
    bc.wait_worker();
    let first = bc.poll(f64::INFINITY).expect("first outcome");
    let first_bs = first.result.expect("compiles");
    assert_eq!((bc.cache_hits(), bc.cache_misses()), (0, 1));
    assert!(
        first.latency.as_secs_f64() > 60.0,
        "cold compile pays the modeled toolchain latency, got {:.1}s",
        first.latency.as_secs_f64()
    );

    // Identical design, same toolchain: served from the cache at
    // reprogramming cost, not place-and-route cost.
    bc.submit(Arc::clone(&design), tc.clone(), 2, 0.0);
    bc.wait_worker();
    let second = bc.poll(f64::INFINITY).expect("second outcome");
    let second_bs = second.result.expect("cache hit still succeeds");
    assert_eq!((bc.cache_hits(), bc.cache_misses()), (1, 1));
    assert!(
        second.latency.as_secs_f64() < 5.0,
        "cache hit must be near-instant, got {:.1}s",
        second.latency.as_secs_f64()
    );
    assert_eq!(first_bs.fmax_mhz, second_bs.fmax_mhz);
    assert_eq!(first_bs.logic_depth, second_bs.logic_depth);

    // A different placement seed is a different cache key.
    let reseeded = Toolchain {
        seed: tc.seed + 1,
        ..tc
    };
    bc.submit(design, reseeded, 3, 0.0);
    bc.wait_worker();
    let third = bc.poll(f64::INFINITY).expect("third outcome");
    assert!(third.result.is_ok());
    assert_eq!((bc.cache_hits(), bc.cache_misses()), (1, 2));
}

#[test]
fn runtime_stats_expose_compile_cache_counters() {
    let (mut rt, _) = runtime(JitConfig::default());
    rt.eval("reg [7:0] a = 0;").unwrap();
    rt.eval("always @(posedge clk.val) a <= a + 1;").unwrap();
    rt.eval("assign led.val = a;").unwrap();
    rt.wait_for_compile_worker();
    let stats = rt.stats();
    // Three evals submitted three (structurally different) designs; every
    // worker ran, none could hit.
    assert_eq!(stats.compile_cache_hits, 0);
    assert!(stats.compile_cache_misses >= 1);
}

/// One generated REPL line over a small shared vocabulary (regs `r0..r3`,
/// wires `w0..w1`, functions `f0..f1`, integers `i0..i1`), so most lines
/// resolve against earlier ones. One-shot items — bare statements and
/// `initial` blocks — are frequent, including ones that are the only user
/// of a function, an integer or a system task.
fn arb_repl_line(rng: &mut cascade_bits::Prng) -> String {
    fn expr(rng: &mut cascade_bits::Prng) -> String {
        let r = rng.below(4);
        match rng.below(5) {
            0 => format!("r{r}"),
            1 => format!("(r{r} + 8'd{})", rng.below(256)),
            2 => format!("w{}", rng.below(2)),
            3 => format!("f{}(r{r})", rng.below(2)),
            _ => format!("(r{r} ^ r{})", rng.below(4)),
        }
    }
    let (r, n, k) = (rng.below(4), rng.below(2), rng.below(256));
    match rng.below(12) {
        0 => format!("reg [7:0] r{r} = {k};"),
        1 => format!("wire [7:0] w{n} = {};", expr(rng)),
        2 => format!("always @(posedge clk.val) r{r} <= {};", expr(rng)),
        3 => format!("initial r{r} = {};", expr(rng)),
        4 => format!(
            "initial begin : b{k} r{r} = {}; $display(\"%d\", {}); end",
            expr(rng),
            expr(rng)
        ),
        5 => format!("r{r} = {};", expr(rng)),
        6 => format!("$display(\"r=%d\", {});", expr(rng)),
        7 => format!("function [7:0] f{n}(input [7:0] x); f{n} = x ^ 8'd{k}; endfunction"),
        8 => format!("integer i{n};"),
        9 => format!("initial for (i{n} = 0; i{n} < 3; i{n} = i{n} + 1) r{r} = r{r} + f{n}(r{r});"),
        10 => format!("assign led.val = {};", expr(rng)),
        _ => format!("always @(posedge clk.val) if (r{r} == 8'd{k}) $display(\"hit\");"),
    }
}

/// The hardware form is elaborated where it is compiled, not at eval, so
/// a hardware form that failed to elaborate would no longer fail the eval.
/// None can: stripping one-shot items from a program whose software form
/// elaborated leaves one that elaborates — they declare nothing, and every
/// check is per item. Checked on generated programs after every line.
#[test]
fn a_program_that_evals_has_a_hardware_form_that_elaborates() {
    let mut rng = cascade_bits::Prng::new(0x0e1a_b0a7);
    let mut one_shot = 0;
    for case in 0..150 {
        let (mut rt, _) = runtime(no_compile_config());
        // Most of the vocabulary up front, so most later lines resolve.
        for r in 0..4 {
            rt.eval(&format!("reg [7:0] r{r} = {r};")).expect("reg");
        }
        rt.eval("function [7:0] f0(input [7:0] x); f0 = x + 8'd1; endfunction")
            .expect("function");
        for _ in 0..12 {
            let line = arb_repl_line(&mut rng);
            if rt.eval(&line).is_err() {
                continue;
            }
            let statement = line.starts_with('r') && !line.starts_with("reg");
            if statement || line.starts_with("initial") || line.starts_with('$') {
                one_shot += 1;
            }
            if let Some(hw) = rt.hw_source() {
                if let Err(e) = hw.elaborate() {
                    panic!("case {case}: `{line}` evaluated, but the hardware form fails: {e}");
                }
            }
        }
    }
    assert!(
        one_shot > 300,
        "only {one_shot} one-shot lines were accepted"
    );
}

/// Drives a runtime's background compile until it promotes.
fn promote(rt: &mut Runtime) {
    for _ in 0..64 {
        if matches!(rt.mode(), ExecMode::Hardware | ExecMode::HardwareForwarded) {
            return;
        }
        rt.wait_for_compile_worker();
        if let Some(at) = rt.compile_ready_at() {
            rt.advance_wall((at - rt.wall_seconds()).max(0.0) + 1e-9);
        }
        rt.service().unwrap();
    }
    panic!("never promoted: {:?}", rt.stats());
}

const NATIVE_COUNTER: &str = "reg [7:0] cnt = 0;\n\
    always @(posedge clk.val) cnt <= cnt + 1;\n\
    assign led.val = cnt;";

/// Native mode entered from a forwarding hardware engine keeps its
/// peripherals: they go back on the plane before the native engine is
/// built, so the LEDs count exactly as when native is entered from
/// software (native mode restarts from initial values either way).
#[test]
fn native_entered_from_forwarded_hardware_drives_the_peripherals() {
    let mut config = JitConfig::default();
    config.toolchain.time_scale = 1e-6;
    let (mut from_sw, sw_board) = runtime(JitConfig {
        auto_compile: false,
        ..config.clone()
    });
    from_sw.eval(NATIVE_COUNTER).unwrap();
    from_sw.enter_native().unwrap();
    from_sw.run_ticks(10).unwrap();

    let (mut rt, board) = runtime(config);
    rt.eval(NATIVE_COUNTER).unwrap();
    promote(&mut rt);
    assert_eq!(rt.mode(), ExecMode::HardwareForwarded);
    rt.run_ticks(5).unwrap();
    let before = board.leds().to_u64();
    rt.enter_native().unwrap();
    assert_eq!(rt.mode(), ExecMode::Native);
    rt.run_ticks(10).unwrap();
    assert_eq!(
        board.leds().to_u64(),
        sw_board.leds().to_u64(),
        "native from hardware must drive the LEDs (they read {before} at entry)"
    );
}

/// Entering native mode returns a held fleet lease: a hotter tenant then
/// takes the fabric without revoking anyone, and the native program keeps
/// running natively instead of being demoted to a software restart.
#[test]
fn native_entry_returns_the_fleet_lease() {
    use cascade_fpga::{ArbiterConfig, Fleet};
    let mut config = JitConfig::default();
    config.toolchain.time_scale = 1e-6;
    let fleet = Fleet::with_config(1, ArbiterConfig::eager());
    let (mut rt, board) = runtime(config.clone());
    rt.attach_fleet(fleet.clone(), 1);
    rt.set_heat(1.0);
    rt.eval(NATIVE_COUNTER).unwrap();
    promote(&mut rt);
    assert!(rt.lease_held());
    rt.enter_native().unwrap();
    assert!(!rt.lease_held(), "native entry returns the lease");
    assert_eq!(fleet.stats().in_use, 0);
    rt.run_ticks(4).unwrap();

    let (mut hot, _) = runtime(config);
    hot.attach_fleet(fleet.clone(), 2);
    hot.set_heat(2.0);
    hot.eval(NATIVE_COUNTER).unwrap();
    promote(&mut hot);
    assert!(hot.lease_held(), "the free fabric is granted outright");
    assert_eq!(fleet.stats().revocations, 0);

    let leds = board.leds().to_u64();
    rt.run_ticks(3).unwrap();
    assert_eq!(rt.mode(), ExecMode::Native);
    let kinds: Vec<EngineKind> = rt.stats().engines.iter().map(|e| e.1).collect();
    assert_eq!(kinds, [EngineKind::Clock, EngineKind::Native]);
    assert_eq!(board.leds().to_u64(), leds + 3, "state survives the steal");
}
