use crate::{estimate_area, estimate_timing, synthesize, NetlistSim, SynthError, TaskKind};
use cascade_bits::Bits;
use cascade_sim::{elaborate, library_from_source, Design, Simulator};
use cascade_verilog::typecheck::ParamEnv;
use std::sync::Arc;

fn design_of(src: &str, top: &str) -> Design {
    let lib = library_from_source(src).expect("parse");
    elaborate(top, &lib, &ParamEnv::new()).expect("elaborate")
}

fn hw_of(src: &str, top: &str) -> NetlistSim {
    let design = design_of(src, top);
    let nl = synthesize(&design).expect("synthesize");
    NetlistSim::new(Arc::new(nl)).expect("levelize")
}

fn synth_err(src: &str, top: &str) -> SynthError {
    let design = design_of(src, top);
    synthesize(&design).expect_err("expected synthesis failure")
}

#[test]
fn counter_in_hardware() {
    let mut hw = hw_of(
        "module Count(input wire clk, output wire [7:0] o);\n\
         reg [7:0] c = 0;\n\
         always @(posedge clk) c <= c + 1;\n\
         assign o = c;\nendmodule",
        "Count",
    );
    hw.run(10);
    assert_eq!(hw.get_by_name("o").unwrap().to_u64(), 10);
}

#[test]
fn init_values_load() {
    let hw = hw_of(
        "module T(input wire clk, output wire [7:0] o);\n\
         reg [7:0] c = 42;\n\
         always @(posedge clk) c <= c;\n\
         assign o = c;\nendmodule",
        "T",
    );
    assert_eq!(hw.get_by_name("o").unwrap().to_u64(), 42);
}

#[test]
fn combinational_if_else_no_latch() {
    let mut hw = hw_of(
        "module M(input wire [3:0] a, input wire [3:0] b, input wire s, output wire [3:0] o);\n\
         reg [3:0] r;\n\
         always @(*) if (s) r = a; else r = b;\n\
         assign o = r;\nendmodule",
        "M",
    );
    hw.set_by_name("a", Bits::from_u64(4, 7));
    hw.set_by_name("b", Bits::from_u64(4, 2));
    hw.set_by_name("s", Bits::from_u64(1, 1));
    assert_eq!(hw.get_by_name("o").unwrap().to_u64(), 7);
    hw.set_by_name("s", Bits::from_u64(1, 0));
    assert_eq!(hw.get_by_name("o").unwrap().to_u64(), 2);
}

#[test]
fn combinational_case_with_default() {
    let mut hw = hw_of(
        "module Dec(input wire [1:0] s, output wire [3:0] o);\n\
         reg [3:0] r;\n\
         always @(*) case (s)\n\
           2'b00: r = 4'b0001;\n\
           2'b01: r = 4'b0010;\n\
           2'b10: r = 4'b0100;\n\
           default: r = 4'b1000;\n\
         endcase\n\
         assign o = r;\nendmodule",
        "Dec",
    );
    for (s, expect) in [(0u64, 1u64), (1, 2), (2, 4), (3, 8)] {
        hw.set_by_name("s", Bits::from_u64(2, s));
        assert_eq!(hw.get_by_name("o").unwrap().to_u64(), expect, "s={s}");
    }
}

#[test]
fn latch_detection() {
    let err = synth_err(
        "module L(input wire s, input wire [3:0] a, output wire [3:0] o);\n\
         reg [3:0] r;\n\
         always @(*) if (s) r = a;\n\
         assign o = r;\nendmodule",
        "L",
    );
    assert!(err.to_string().contains("latch"), "{err}");
}

#[test]
fn read_before_assign_latch_detection() {
    let err = synth_err(
        "module L(input wire [3:0] a, output wire [3:0] o);\n\
         reg [3:0] r;\n\
         always @(*) r = r + a;\n\
         assign o = r;\nendmodule",
        "L",
    );
    assert!(err.to_string().contains("latch"), "{err}");
}

#[test]
fn for_loop_unrolls() {
    let mut hw = hw_of(
        "module PopCount(input wire [7:0] x, output wire [3:0] n);\n\
         reg [3:0] acc; integer i;\n\
         always @(*) begin\n\
           acc = 0;\n\
           for (i = 0; i < 8; i = i + 1) acc = acc + x[i];\n\
         end\n\
         assign n = acc;\nendmodule",
        "PopCount",
    );
    hw.set_by_name("x", Bits::from_u64(8, 0b1011_0110));
    assert_eq!(hw.get_by_name("n").unwrap().to_u64(), 5);
}

#[test]
fn non_static_loop_rejected() {
    let err = synth_err(
        "module B(input wire clk, input wire [3:0] n, output wire [7:0] o);\n\
         reg [7:0] acc; integer i;\n\
         always @(posedge clk) begin\n\
           acc = 0;\n\
           for (i = 0; i < n; i = i + 1) acc = acc + 1;\n\
         end\n\
         assign o = acc;\nendmodule",
        "B",
    );
    assert!(err.to_string().contains("unroll"), "{err}");
}

#[test]
fn memory_with_write_port() {
    let mut hw = hw_of(
        "module Mem(input wire clk, input wire we, input wire [3:0] addr,\n\
                    input wire [7:0] din, output wire [7:0] dout);\n\
         reg [7:0] mem [0:15];\n\
         always @(posedge clk) if (we) mem[addr] <= din;\n\
         assign dout = mem[addr];\nendmodule",
        "Mem",
    );
    hw.set_by_name("we", Bits::from_u64(1, 1));
    hw.set_by_name("addr", Bits::from_u64(4, 3));
    hw.set_by_name("din", Bits::from_u64(8, 0x5a));
    hw.step_clock(0);
    assert_eq!(hw.get_by_name("dout").unwrap().to_u64(), 0x5a);
    hw.set_by_name("we", Bits::from_u64(1, 0));
    hw.set_by_name("din", Bits::from_u64(8, 0x11));
    hw.step_clock(0);
    assert_eq!(
        hw.get_by_name("dout").unwrap().to_u64(),
        0x5a,
        "write disabled"
    );
}

#[test]
fn display_task_fires_with_args() {
    let mut hw = hw_of(
        "module T(input wire clk);\n\
         reg [7:0] c = 0;\n\
         always @(posedge clk) begin\n\
           c <= c + 1;\n\
           if (c[0]) $display(\"odd %d\", c);\n\
         end\nendmodule",
        "T",
    );
    hw.run(4);
    let fires = hw.drain_tasks();
    assert_eq!(fires.len(), 2);
    assert_eq!(fires[0].text, "odd 1");
    assert_eq!(fires[1].text, "odd 3");
    assert_eq!(fires[0].kind, TaskKind::Display);
}

#[test]
fn finish_task_stops_run() {
    let mut hw = hw_of(
        "module T(input wire clk);\n\
         reg [7:0] c = 0;\n\
         always @(posedge clk) begin\n\
           c <= c + 1;\n\
           if (c == 2) $finish;\n\
         end\nendmodule",
        "T",
    );
    let done = hw.run(100);
    assert!(hw.is_finished());
    assert_eq!(done, 3);
}

#[test]
fn combinational_loop_rejected() {
    let design = design_of(
        "module Osc(output wire o);\n\
         wire a;\n\
         assign a = ~a;\n\
         assign o = a;\nendmodule",
        "Osc",
    );
    let nl = synthesize(&design).expect("synth succeeds; cycle caught at levelize");
    assert!(NetlistSim::new(Arc::new(nl)).is_err());
}

#[test]
fn multiple_drivers_rejected() {
    let err = synth_err(
        "module M(input wire a, output wire o);\n\
         assign o = a;\n\
         assign o = ~a;\nendmodule",
        "M",
    );
    assert!(err.to_string().contains("multiple drivers"), "{err}");
}

#[test]
fn random_rejected() {
    let err = synth_err(
        "module R(input wire clk, output wire [31:0] o);\n\
         reg [31:0] r;\n\
         always @(posedge clk) r <= $random;\n\
         assign o = r;\nendmodule",
        "R",
    );
    assert!(err.to_string().contains("unsynthesizable"), "{err}");
}

#[test]
fn initial_statements_rejected() {
    let err = synth_err(
        "module I(input wire clk, output wire o);\n\
         reg r;\n\
         initial $display(\"hello\");\n\
         assign o = r;\nendmodule",
        "I",
    );
    assert!(err.to_string().contains("initial"), "{err}");
}

#[test]
fn blocking_in_clocked_block() {
    // Blocking assignments chain combinationally within the cycle.
    let mut hw = hw_of(
        "module T(input wire clk, output wire [7:0] o);\n\
         reg [7:0] a = 1; reg [7:0] b = 2;\n\
         always @(posedge clk) begin a = b; b = a; end\n\
         assign o = b;\nendmodule",
        "T",
    );
    hw.step_clock(0);
    assert_eq!(hw.get_by_name("o").unwrap().to_u64(), 2);
    assert_eq!(hw.get_by_name("a").unwrap().to_u64(), 2);
}

#[test]
fn area_and_timing_estimates() {
    let design = design_of(
        "module A(input wire clk, input wire [31:0] x, output wire [31:0] o);\n\
         reg [31:0] acc = 0;\n\
         always @(posedge clk) acc <= acc + x * x;\n\
         assign o = acc;\nendmodule",
        "A",
    );
    let nl = synthesize(&design).unwrap();
    let area = estimate_area(&nl);
    assert!(area.registers >= 32);
    assert!(area.logic_elements > 0);
    assert!(area.dsp_blocks > 0, "multiplier should use DSPs");
    let timing = estimate_timing(&nl);
    assert!(timing.logic_depth >= 2);
    assert!(timing.fmax_mhz > 1.0 && timing.fmax_mhz < 500.0);
}

#[test]
fn hash_consing_shares_cells() {
    let design = design_of(
        "module H(input wire [7:0] a, input wire [7:0] b, output wire [7:0] x, output wire [7:0] y);\n\
         assign x = (a + b) ^ 8'hff;\n\
         assign y = (a + b) ^ 8'h0f;\nendmodule",
        "H",
    );
    let nl = synthesize(&design).unwrap();
    // One shared adder: count Add cells.
    let adds = nl
        .nets
        .iter()
        .filter(|n| matches!(&n.def, crate::Def::Cell(c) if c.op == crate::CellOp::Add))
        .count();
    assert_eq!(adds, 1, "common subexpression should be shared");
}

#[test]
fn constant_folding() {
    let design = design_of(
        "module C(input wire clk, output wire [7:0] o);\n\
         localparam X = 12;\n\
         wire [7:0] k = X * 2 + 1;\n\
         assign o = k;\nendmodule",
        "C",
    );
    let nl = synthesize(&design).unwrap();
    assert_eq!(nl.cell_count(), 0, "everything folds to constants");
    let hw = NetlistSim::new(Arc::new(nl)).unwrap();
    assert_eq!(hw.get_by_name("o").unwrap().to_u64(), 25);
}

// ----------------------------------------------------------------------
// Interpreter/netlist equivalence — the key correctness property: the
// hardware engine must be observationally identical to the software engine.
// ----------------------------------------------------------------------

fn assert_equivalent(
    src: &str,
    top: &str,
    inputs: &[(&str, u64, u32)],
    cycles: u32,
    outputs: &[&str],
) {
    let design = Arc::new(design_of(src, top));
    let mut sw = Simulator::new(Arc::clone(&design));
    sw.initialize().unwrap();
    let nl = synthesize(&design).unwrap();
    let mut hw = NetlistSim::new(Arc::new(nl)).unwrap();
    for &(name, value, width) in inputs {
        sw.poke(name, Bits::from_u64(width, value));
        hw.set_by_name(name, Bits::from_u64(width, value));
    }
    sw.settle().unwrap();
    for _ in 0..cycles {
        sw.tick("clk").unwrap();
        hw.step_clock(0);
        for out in outputs {
            assert_eq!(
                sw.peek(out),
                hw.get_by_name(out).unwrap(),
                "divergence on `{out}` at t={}",
                sw.time()
            );
        }
    }
}

#[test]
fn equivalence_running_example_core() {
    assert_equivalent(
        cascade_verilog::corpus::RUNNING_EXAMPLE_SYNTH,
        "Main",
        &[("pad", 0, 4)],
        20,
        &["led", "cnt"],
    );
}

#[test]
fn equivalence_alu() {
    let src = "module Alu(input wire clk, input wire [2:0] op, input wire [15:0] a,\n\
               input wire [15:0] b, output wire [15:0] o);\n\
        reg [15:0] r = 0;\n\
        always @(posedge clk)\n\
          case (op)\n\
            3'd0: r <= a + b;\n\
            3'd1: r <= a - b;\n\
            3'd2: r <= a & b;\n\
            3'd3: r <= a | b;\n\
            3'd4: r <= a ^ b;\n\
            3'd5: r <= a << b[3:0];\n\
            3'd6: r <= a >> b[3:0];\n\
            default: r <= ~a;\n\
          endcase\n\
        assign o = r;\nendmodule";
    for op in 0..8u64 {
        assert_equivalent(
            src,
            "Alu",
            &[("op", op, 3), ("a", 0xbeef, 16), ("b", 0x0123, 16)],
            3,
            &["o"],
        );
    }
}

#[test]
fn equivalence_shift_register_with_feedback() {
    assert_equivalent(
        "module Lfsr(input wire clk, output wire [15:0] o);\n\
         reg [15:0] r = 16'hace1;\n\
         wire fb = r[0] ^ r[2] ^ r[3] ^ r[5];\n\
         always @(posedge clk) r <= {fb, r[15:1]};\n\
         assign o = r;\nendmodule",
        "Lfsr",
        &[],
        50,
        &["o"],
    );
}

#[test]
fn equivalence_concat_and_parts() {
    assert_equivalent(
        "module P(input wire clk, input wire [15:0] x, output wire [15:0] o);\n\
         reg [15:0] r = 0;\n\
         always @(posedge clk) begin\n\
           r[7:0] <= x[15:8];\n\
           r[15:8] <= x[7:0] ^ 8'h55;\n\
         end\n\
         assign o = r;\nendmodule",
        "P",
        &[("x", 0xabcd, 16)],
        4,
        &["o"],
    );
}

#[test]
fn equivalence_signed_ops() {
    assert_equivalent(
        "module S(input wire clk, input wire signed [7:0] a, input wire signed [7:0] b,\n\
                  output wire [7:0] q, output wire lt, output wire [7:0] sh);\n\
         reg [7:0] qq = 0; reg l = 0; reg [7:0] s = 0;\n\
         always @(posedge clk) begin\n\
           qq <= a / b;\n\
           l <= a < b;\n\
           s <= a >>> 2;\n\
         end\n\
         assign q = qq; assign lt = l; assign sh = s;\nendmodule",
        "S",
        &[("a", 0xf8, 8), ("b", 3, 8)], // a = -8
        3,
        &["q", "lt", "sh"],
    );
}

#[test]
fn equivalence_dynamic_selects() {
    assert_equivalent(
        "module D(input wire clk, input wire [4:0] sel, input wire [31:0] x,\n\
                  output wire bit_out, output wire [7:0] slice_out);\n\
         reg b = 0; reg [7:0] s = 0;\n\
         always @(posedge clk) begin\n\
           b <= x[sel];\n\
           s <= x[sel +: 8];\n\
         end\n\
         assign bit_out = b; assign slice_out = s;\nendmodule",
        "D",
        &[("sel", 7, 5), ("x", 0xdead_beef, 32)],
        3,
        &["bit_out", "slice_out"],
    );
}

#[test]
fn functions_synthesize_and_match_interpreter() {
    assert_equivalent(
        "module T(input wire clk, input wire [7:0] a, input wire [7:0] b, output wire [7:0] o);\n\
         reg [7:0] r = 0;\n\
         function [7:0] max2;\n\
           input [7:0] x; input [7:0] y;\n\
           max2 = (x > y) ? x : y;\n\
         endfunction\n\
         always @(posedge clk) r <= max2(a, b) + max2(r, 8'd3);\n\
         assign o = r;\nendmodule",
        "T",
        &[("a", 14, 8), ("b", 5, 8)],
        4,
        &["o"],
    );
}

#[test]
fn generate_blocks_synthesize_and_match() {
    assert_equivalent(
        "module T(input wire clk, input wire [7:0] a, output wire [7:0] o);\n\
           reg [7:0] r = 0;\n\
           wire [7:0] swizzled;\n\
           genvar i;\n\
           generate\n\
             for (i = 0; i < 8; i = i + 1) begin : sw\n\
               assign swizzled[i] = a[7 - i];\n\
             end\n\
           endgenerate\n\
           always @(posedge clk) r <= r ^ swizzled;\n\
           assign o = r;\nendmodule",
        "T",
        &[("a", 0b1100_0101, 8)],
        3,
        &["o"],
    );
}

#[test]
fn fingerprint_is_stable_and_structure_sensitive() {
    let src = "module T(input wire clk, output wire [7:0] o);\n\
         reg [7:0] c = 0;\n\
         always @(posedge clk) c <= c + 1;\n\
         assign o = c;\nendmodule";
    let a = crate::fingerprint(&synthesize(&design_of(src, "T")).unwrap());
    let b = crate::fingerprint(&synthesize(&design_of(src, "T")).unwrap());
    assert_eq!(a, b, "same source, same netlist, same fingerprint");
    // A different increment constant must change the hash.
    let c =
        crate::fingerprint(&synthesize(&design_of(&src.replace("c + 1", "c + 2"), "T")).unwrap());
    assert_ne!(a, c);
    // A pure formatting change must not.
    let d =
        crate::fingerprint(&synthesize(&design_of(&src.replace("c + 1", "c  +  1"), "T")).unwrap());
    assert_eq!(a, d, "whitespace-only edits share a cache entry");
}
