use crate::{elaborate, library_from_source, SimError, SimEvent, Simulator};
use cascade_bits::Bits;
use cascade_verilog::typecheck::ParamEnv;
use std::sync::Arc;

fn sim_of(src: &str, top: &str) -> Simulator {
    let lib = library_from_source(src).expect("parse");
    let design = elaborate(top, &lib, &ParamEnv::new()).expect("elaborate");
    let mut sim = Simulator::new(Arc::new(design));
    sim.initialize().expect("initialize");
    sim
}

#[test]
fn counter_counts() {
    let mut sim = sim_of(
        "module Count(input wire clk, output wire [7:0] o);\n\
         reg [7:0] c = 0;\n\
         always @(posedge clk) c <= c + 1;\n\
         assign o = c;\nendmodule",
        "Count",
    );
    for _ in 0..10 {
        sim.tick("clk").unwrap();
    }
    assert_eq!(sim.peek("o").to_u64(), 10);
    assert_eq!(sim.time(), 10);
}

#[test]
fn negedge_triggers() {
    let mut sim = sim_of(
        "module T(input wire clk, output wire [3:0] o);\n\
         reg [3:0] c = 0;\n\
         always @(negedge clk) c <= c + 1;\n\
         assign o = c;\nendmodule",
        "T",
    );
    sim.tick("clk").unwrap();
    assert_eq!(sim.peek("o").to_u64(), 1);
}

#[test]
fn running_example_rotates_and_pauses() {
    let mut sim = sim_of(cascade_verilog::corpus::RUNNING_EXAMPLE, "Main");
    assert_eq!(sim.peek("led").to_u64(), 1);
    sim.tick("clk").unwrap();
    assert_eq!(sim.peek("led").to_u64(), 2);
    for _ in 0..6 {
        sim.tick("clk").unwrap();
    }
    assert_eq!(sim.peek("led").to_u64(), 0x80);
    sim.tick("clk").unwrap();
    assert_eq!(sim.peek("led").to_u64(), 1, "rotation wraps");
    // Press a button: animation pauses, $display and $finish fire.
    sim.poke("pad", Bits::from_u64(4, 0b0001));
    sim.settle().unwrap();
    sim.tick("clk").unwrap();
    let events = sim.drain_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, SimEvent::Display(s) if s == "1")));
    assert!(events.contains(&SimEvent::Finish));
    assert!(sim.is_finished());
}

#[test]
fn blocking_vs_nonblocking_swap() {
    // Classic swap: nonblocking swaps, blocking does not.
    let mut sim = sim_of(
        "module T(input wire clk, output wire [7:0] ao, output wire [7:0] bo);\n\
         reg [7:0] a = 1; reg [7:0] b = 2;\n\
         always @(posedge clk) begin a <= b; b <= a; end\n\
         assign ao = a; assign bo = b;\nendmodule",
        "T",
    );
    sim.tick("clk").unwrap();
    assert_eq!(sim.peek("ao").to_u64(), 2);
    assert_eq!(sim.peek("bo").to_u64(), 1);

    let mut sim2 = sim_of(
        "module T(input wire clk, output wire [7:0] ao, output wire [7:0] bo);\n\
         reg [7:0] a = 1; reg [7:0] b = 2;\n\
         always @(posedge clk) begin a = b; b = a; end\n\
         assign ao = a; assign bo = b;\nendmodule",
        "T",
    );
    sim2.tick("clk").unwrap();
    assert_eq!(sim2.peek("ao").to_u64(), 2);
    assert_eq!(sim2.peek("bo").to_u64(), 2, "blocking assignment chains");
}

#[test]
fn combinational_star_block() {
    let mut sim = sim_of(
        "module T(input wire [3:0] a, input wire [3:0] b, output wire [4:0] s);\n\
         reg [4:0] r;\n\
         always @(*) r = a + b;\n\
         assign s = r;\nendmodule",
        "T",
    );
    sim.poke("a", Bits::from_u64(4, 7));
    sim.poke("b", Bits::from_u64(4, 9));
    sim.settle().unwrap();
    assert_eq!(
        sim.peek("s").to_u64(),
        16,
        "carry preserved by 5-bit context"
    );
}

#[test]
fn hierarchy_and_port_connections() {
    let mut sim = sim_of(
        "module Add1(input wire [7:0] x, output wire [7:0] y);\n\
         assign y = x + 1;\nendmodule\n\
         module Top(input wire [7:0] i, output wire [7:0] o);\n\
         wire [7:0] mid;\n\
         Add1 a(.x(i), .y(mid));\n\
         Add1 b(.x(mid), .y(o));\nendmodule",
        "Top",
    );
    sim.poke("i", Bits::from_u64(8, 40));
    sim.settle().unwrap();
    assert_eq!(sim.peek("o").to_u64(), 42);
    // Hierarchical names are addressable.
    assert_eq!(sim.peek("a.y").to_u64(), 41);
}

#[test]
fn hierarchical_read_without_connection() {
    // The paper's Fig. 1 style: read a child's output via `r.y`.
    let mut sim = sim_of(
        "module Rol(input wire [7:0] x, output wire [7:0] y);\n\
         assign y = (x == 8'h80) ? 1 : (x<<1);\nendmodule\n\
         module Top(input wire clk, output wire [7:0] led);\n\
         reg [7:0] cnt = 1;\n\
         Rol r(.x(cnt));\n\
         always @(posedge clk) cnt <= r.y;\n\
         assign led = cnt;\nendmodule",
        "Top",
    );
    sim.tick("clk").unwrap();
    sim.tick("clk").unwrap();
    assert_eq!(sim.peek("led").to_u64(), 4);
}

#[test]
fn parameterized_instances() {
    let mut sim = sim_of(
        "module Inc #(parameter STEP = 1)(input wire [7:0] x, output wire [7:0] y);\n\
         assign y = x + STEP;\nendmodule\n\
         module Top(input wire [7:0] i, output wire [7:0] o);\n\
         wire [7:0] mid;\n\
         Inc #(10) a(.x(i), .y(mid));\n\
         Inc #(.STEP(5)) b(.x(mid), .y(o));\nendmodule",
        "Top",
    );
    sim.poke("i", Bits::from_u64(8, 1));
    sim.settle().unwrap();
    assert_eq!(sim.peek("o").to_u64(), 16);
}

#[test]
fn memory_read_write() {
    let mut sim = sim_of(
        "module Mem(input wire clk, input wire we, input wire [3:0] addr,\n\
                    input wire [7:0] din, output wire [7:0] dout);\n\
         reg [7:0] mem [0:15];\n\
         always @(posedge clk) if (we) mem[addr] <= din;\n\
         assign dout = mem[addr];\nendmodule",
        "Mem",
    );
    sim.poke("we", Bits::from_u64(1, 1));
    sim.poke("addr", Bits::from_u64(4, 5));
    sim.poke("din", Bits::from_u64(8, 0xab));
    sim.tick("clk").unwrap();
    assert_eq!(sim.peek("dout").to_u64(), 0xab);
    sim.poke("addr", Bits::from_u64(4, 6));
    sim.settle().unwrap();
    assert_eq!(sim.peek("dout").to_u64(), 0);
}

#[test]
fn for_loop_in_always() {
    let mut sim = sim_of(
        "module PopCount(input wire [7:0] x, output wire [3:0] n);\n\
         reg [3:0] acc; integer i;\n\
         always @(*) begin\n\
           acc = 0;\n\
           for (i = 0; i < 8; i = i + 1) acc = acc + x[i];\n\
         end\n\
         assign n = acc;\nendmodule",
        "PopCount",
    );
    sim.poke("x", Bits::from_u64(8, 0b1011_0110));
    sim.settle().unwrap();
    assert_eq!(sim.peek("n").to_u64(), 5);
}

#[test]
fn case_statements() {
    let mut sim = sim_of(
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
        sim.poke("s", Bits::from_u64(2, s));
        sim.settle().unwrap();
        assert_eq!(sim.peek("o").to_u64(), expect, "s={s}");
    }
}

#[test]
fn casez_wildcards_priority() {
    let mut sim = sim_of(
        "module Pri(input wire [3:0] req, output wire [1:0] grant);\n\
         reg [1:0] g;\n\
         always @(*) casez (req)\n\
           4'b1???: g = 3;\n\
           4'b01??: g = 2;\n\
           4'b001?: g = 1;\n\
           default: g = 0;\n\
         endcase\n\
         assign grant = g;\nendmodule",
        "Pri",
    );
    for (req, expect) in [
        (0b1000u64, 3u64),
        (0b1111, 3),
        (0b0101, 2),
        (0b0010, 1),
        (0b0001, 0),
    ] {
        sim.poke("req", Bits::from_u64(4, req));
        sim.settle().unwrap();
        assert_eq!(sim.peek("grant").to_u64(), expect, "req={req:04b}");
    }
}

#[test]
fn part_selects_and_concat() {
    let mut sim = sim_of(
        "module T(input wire [15:0] x, output wire [15:0] sw, output wire [7:0] mid);\n\
         assign sw = {x[7:0], x[15:8]};\n\
         assign mid = x[11 -: 8];\nendmodule",
        "T",
    );
    sim.poke("x", Bits::from_u64(16, 0xabcd));
    sim.settle().unwrap();
    assert_eq!(sim.peek("sw").to_u64(), 0xcdab);
    assert_eq!(sim.peek("mid").to_u64(), 0xbc);
}

#[test]
fn concat_lvalue_distributes() {
    let mut sim = sim_of(
        "module T(input wire [3:0] a, input wire [3:0] b, output wire c, output wire [3:0] s);\n\
         reg co; reg [3:0] sum;\n\
         always @(*) {co, sum} = a + b;\n\
         assign c = co; assign s = sum;\nendmodule",
        "T",
    );
    sim.poke("a", Bits::from_u64(4, 0xf));
    sim.poke("b", Bits::from_u64(4, 2));
    sim.settle().unwrap();
    assert_eq!(sim.peek("c").to_u64(), 1);
    assert_eq!(sim.peek("s").to_u64(), 1);
}

#[test]
fn dynamic_bit_write() {
    let mut sim = sim_of(
        "module T(input wire clk, input wire [2:0] sel, output wire [7:0] o);\n\
         reg [7:0] r = 0;\n\
         always @(posedge clk) r[sel] <= 1;\n\
         assign o = r;\nendmodule",
        "T",
    );
    sim.poke("sel", Bits::from_u64(3, 5));
    sim.tick("clk").unwrap();
    assert_eq!(sim.peek("o").to_u64(), 0b10_0000);
}

#[test]
fn ascending_range_mapping() {
    let mut sim = sim_of(
        "module T(input wire [0:7] x, output wire msb, output wire lsb);\n\
         assign msb = x[0];\n\
         assign lsb = x[7];\nendmodule",
        "T",
    );
    sim.poke("x", Bits::from_u64(8, 0x80));
    sim.settle().unwrap();
    assert_eq!(sim.peek("msb").to_u64(), 1);
    assert_eq!(sim.peek("lsb").to_u64(), 0);
}

#[test]
fn signed_comparisons() {
    let mut sim = sim_of(
        "module T(input wire signed [7:0] a, input wire signed [7:0] b, output wire lt);\n\
         assign lt = a < b;\nendmodule",
        "T",
    );
    sim.poke("a", Bits::from_u64(8, 0xff)); // -1
    sim.poke("b", Bits::from_u64(8, 1));
    sim.settle().unwrap();
    assert_eq!(sim.peek("lt").to_u64(), 1, "-1 < 1 signed");
}

#[test]
fn signed_shift_right() {
    let mut sim = sim_of(
        "module T(input wire signed [7:0] a, output wire signed [7:0] o);\n\
         assign o = a >>> 2;\nendmodule",
        "T",
    );
    sim.poke("a", Bits::from_u64(8, 0x80));
    sim.settle().unwrap();
    assert_eq!(sim.peek("o").to_u64(), 0xe0);
}

#[test]
fn display_formats() {
    let mut sim = sim_of(
        "module T(input wire clk);\n\
         reg [7:0] v = 8'hab;\n\
         always @(posedge clk) $display(\"d=%d h=%h b=%b o=%o pct=%% pad=%04d\", v, v, v, v, v);\n\
         endmodule",
        "T",
    );
    sim.tick("clk").unwrap();
    let ev = sim.drain_events();
    let SimEvent::Display(s) = &ev[0] else {
        panic!()
    };
    assert_eq!(s, "d=171 h=ab b=10101011 o=253 pct=% pad=0171");
}

#[test]
fn display_without_format_string() {
    let mut sim = sim_of(
        "module T(input wire clk);\n\
         reg [7:0] v = 7;\n\
         always @(posedge clk) $display(v);\n\
         endmodule",
        "T",
    );
    sim.tick("clk").unwrap();
    assert!(matches!(&sim.drain_events()[0], SimEvent::Display(s) if s == "7"));
}

#[test]
fn write_task_and_time() {
    let mut sim = sim_of(
        "module T(input wire clk);\n\
         always @(posedge clk) $write(\"t=%d\", $time);\n\
         endmodule",
        "T",
    );
    sim.tick("clk").unwrap();
    sim.tick("clk").unwrap();
    let ev = sim.drain_events();
    assert_eq!(
        ev,
        vec![SimEvent::Write("t=0".into()), SimEvent::Write("t=1".into())]
    );
}

#[test]
fn finish_stops_execution() {
    let mut sim = sim_of(
        "module T(input wire clk, output wire [7:0] o);\n\
         reg [7:0] c = 0;\n\
         always @(posedge clk) begin\n\
           c <= c + 1;\n\
           if (c == 3) $finish;\n\
         end\n\
         assign o = c;\nendmodule",
        "T",
    );
    for _ in 0..10 {
        if sim.is_finished() {
            break;
        }
        sim.tick("clk").unwrap();
    }
    assert!(sim.is_finished());
    assert!(sim.peek("o").to_u64() <= 4);
}

#[test]
fn initial_blocks_run_once() {
    let mut sim = sim_of(
        "module T(input wire clk, output wire [7:0] o);\n\
         reg [7:0] r;\n\
         initial begin r = 42; $display(\"init\"); end\n\
         assign o = r;\nendmodule",
        "T",
    );
    assert_eq!(sim.peek("o").to_u64(), 42);
    let ev = sim.drain_events();
    assert_eq!(ev.len(), 1);
    sim.tick("clk").unwrap();
    assert!(sim.drain_events().is_empty(), "initial must not rerun");
}

#[test]
fn wire_initializer_is_continuous() {
    let mut sim = sim_of(
        "module T(input wire [3:0] a, output wire [3:0] o);\n\
         wire [3:0] dbl = a + a;\n\
         assign o = dbl;\nendmodule",
        "T",
    );
    sim.poke("a", Bits::from_u64(4, 3));
    sim.settle().unwrap();
    assert_eq!(sim.peek("o").to_u64(), 6);
    sim.poke("a", Bits::from_u64(4, 5));
    sim.settle().unwrap();
    assert_eq!(sim.peek("o").to_u64(), 10);
}

#[test]
fn combinational_loop_detected() {
    let lib = library_from_source(
        "module Osc(output wire o);\n\
         wire a;\n\
         assign a = ~a;\n\
         assign o = a;\nendmodule",
    )
    .unwrap();
    let design = elaborate("Osc", &lib, &ParamEnv::new()).unwrap();
    let mut sim = Simulator::new(Arc::new(design));
    sim.set_activation_limit(10_000);
    match sim.initialize() {
        Err(SimError::Unstable { .. }) => {}
        other => panic!("expected oscillation detection, got {other:?}"),
    }
}

#[test]
fn runaway_loop_detected() {
    let lib = library_from_source(
        "module Hang(input wire clk);\n\
         reg [7:0] i;\n\
         always @(posedge clk) begin\n\
           i = 1;\n\
           while (i) i = 1;\n\
         end\nendmodule",
    )
    .unwrap();
    let design = elaborate("Hang", &lib, &ParamEnv::new()).unwrap();
    let mut sim = Simulator::new(Arc::new(design));
    sim.set_loop_limit(10_000);
    sim.initialize().unwrap();
    match sim.tick("clk") {
        Err(SimError::LoopLimit { .. }) => {}
        other => panic!("expected loop limit, got {other:?}"),
    }
}

#[test]
fn random_is_deterministic() {
    let src = "module T(input wire clk, output wire [31:0] o);\n\
         reg [31:0] r;\n\
         always @(posedge clk) r <= $random;\n\
         assign o = r;\nendmodule";
    let mut a = sim_of(src, "T");
    let mut b = sim_of(src, "T");
    a.seed_random(7);
    b.seed_random(7);
    a.tick("clk").unwrap();
    b.tick("clk").unwrap();
    assert_eq!(a.peek("o"), b.peek("o"));
    let first = a.peek("o");
    a.tick("clk").unwrap();
    assert_ne!(a.peek("o"), first, "stream advances");
}

#[test]
fn monitor_reports_changes() {
    let mut sim = sim_of(
        "module T(input wire clk, input wire [3:0] v);\n\
         initial $monitor(\"v=%d\", v);\n\
         endmodule",
        "T",
    );
    let ev = sim.drain_events();
    assert_eq!(ev, vec![SimEvent::Display("v=0".into())]);
    sim.poke("v", Bits::from_u64(4, 3));
    sim.settle().unwrap();
    assert_eq!(sim.drain_events(), vec![SimEvent::Display("v=3".into())]);
    sim.settle().unwrap();
    assert!(sim.drain_events().is_empty(), "no change, no output");
}

#[test]
fn state_bits_statistic() {
    let lib = library_from_source(
        "module T(input wire clk);\n\
         reg [7:0] a; reg [15:0] mem [0:3];\nendmodule",
    )
    .unwrap();
    let design = elaborate("T", &lib, &ParamEnv::new()).unwrap();
    assert_eq!(design.state_bits(), 8 + 16 * 4);
}

#[test]
fn repeat_statement() {
    let mut sim = sim_of(
        "module T(input wire clk, output wire [7:0] o);\n\
         reg [7:0] c = 0;\n\
         always @(posedge clk) repeat (3) c = c + 1;\n\
         assign o = c;\nendmodule",
        "T",
    );
    sim.tick("clk").unwrap();
    assert_eq!(sim.peek("o").to_u64(), 3);
}

#[test]
fn force_does_not_wake() {
    let mut sim = sim_of(
        "module T(input wire [3:0] a, output wire [3:0] o);\n\
         assign o = a;\nendmodule",
        "T",
    );
    let a = sim.design().var("a").unwrap();
    sim.force(a, Bits::from_u64(4, 9));
    // No settle needed to observe the forced input itself...
    assert_eq!(sim.peek("a").to_u64(), 9);
    // ...but dependents were not scheduled.
    assert_eq!(sim.peek("o").to_u64(), 0);
}

#[test]
fn vcd_writer_produces_header_and_changes() {
    let mut sim = sim_of(
        "module T(input wire clk, output wire [1:0] o);\n\
         reg [1:0] c = 0;\n\
         always @(posedge clk) c <= c + 1;\n\
         assign o = c;\nendmodule",
        "T",
    );
    let mut buf = Vec::new();
    {
        let mut vcd = crate::VcdWriter::new(&mut buf, sim.design(), &["clk", "o"]).unwrap();
        for _ in 0..3 {
            sim.tick("clk").unwrap();
            vcd.sample(&sim).unwrap();
        }
    }
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("$enddefinitions"));
    assert!(text.contains("$var wire 2"));
    assert!(text.contains("b01"));
}

#[test]
fn functions_evaluate_via_inlining() {
    let mut sim = sim_of(
        "module T(input wire [7:0] a, input wire [7:0] b, output wire [7:0] mx, output wire [15:0] sq);\n\
         function [7:0] max2;\n\
           input [7:0] x; input [7:0] y;\n\
           max2 = (x > y) ? x : y;\n\
         endfunction\n\
         function [15:0] square;\n\
           input [7:0] x;\n\
           reg [15:0] t;\n\
           begin t = x; square = t * t; end\n\
         endfunction\n\
         assign mx = max2(a, b);\n\
         assign sq = square(max2(a, b));\n\
         endmodule",
        "T",
    );
    sim.poke("a", Bits::from_u64(8, 9));
    sim.poke("b", Bits::from_u64(8, 13));
    sim.settle().unwrap();
    assert_eq!(sim.peek("mx").to_u64(), 13);
    assert_eq!(sim.peek("sq").to_u64(), 169);
    sim.poke("a", Bits::from_u64(8, 200));
    sim.settle().unwrap();
    assert_eq!(sim.peek("mx").to_u64(), 200);
    assert_eq!(sim.peek("sq").to_u64(), 40000);
}

#[test]
fn function_in_clocked_block() {
    let mut sim = sim_of(
        "module T(input wire clk, output wire [7:0] o);\n\
         reg [7:0] c = 0;\n\
         function [7:0] gray;\n\
           input [7:0] x;\n\
           gray = x ^ (x >> 1);\n\
         endfunction\n\
         always @(posedge clk) c <= c + 1;\n\
         assign o = gray(c);\n\
         endmodule",
        "T",
    );
    for expect_c in 1..=5u64 {
        sim.tick("clk").unwrap();
        assert_eq!(sim.peek("o").to_u64(), expect_c ^ (expect_c >> 1));
    }
}

#[test]
fn function_input_width_truncates() {
    // Passing a 16-bit value into an 8-bit input truncates, exactly like
    // assigning to a reg of the input's width.
    let mut sim = sim_of(
        "module T(input wire [15:0] a, output wire [7:0] o);\n\
         function [7:0] low; input [7:0] x; low = x; endfunction\n\
         assign o = low(a);\n\
         endmodule",
        "T",
    );
    sim.poke("a", Bits::from_u64(16, 0xabcd));
    sim.settle().unwrap();
    assert_eq!(sim.peek("o").to_u64(), 0xcd);
}

#[test]
fn generate_for_with_instances() {
    // A parameterized ripple-carry adder built with generate (paper-era
    // idiomatic structural Verilog).
    let mut sim = sim_of(
        "module FullAdder(input wire a, input wire b, input wire cin,\n\
                          output wire s, output wire cout);\n\
           assign s = a ^ b ^ cin;\n\
           assign cout = (a & b) | (cin & (a ^ b));\n\
         endmodule\n\
         module Rca #(parameter N = 8)(input wire [N-1:0] a, input wire [N-1:0] b,\n\
                                       output wire [N-1:0] s, output wire cout);\n\
           wire [N:0] c;\n\
           assign c[0] = 0;\n\
           genvar i;\n\
           generate\n\
             for (i = 0; i < N; i = i + 1) begin : stage\n\
               FullAdder fa(.a(a[i]), .b(b[i]), .cin(c[i]), .s(s[i]), .cout(c[i + 1]));\n\
             end\n\
           endgenerate\n\
           assign cout = c[N];\n\
         endmodule",
        "Rca",
    );
    for (a, b) in [(0u64, 0u64), (3, 5), (200, 100), (255, 1)] {
        sim.poke("a", Bits::from_u64(8, a));
        sim.poke("b", Bits::from_u64(8, b));
        sim.settle().unwrap();
        let total = a + b;
        assert_eq!(sim.peek("s").to_u64(), total & 0xff, "{a}+{b}");
        assert_eq!(sim.peek("cout").to_u64(), total >> 8, "{a}+{b} carry");
    }
}

#[test]
fn generate_bounds_from_parameters() {
    let mut sim = sim_of(
        "module Par #(parameter N = 5)(input wire [N-1:0] x, output wire [N-1:0] o);\n\
           genvar k;\n\
           generate\n\
             for (k = 0; k < N; k = k + 1) begin : flip\n\
               assign o[k] = x[N - 1 - k];\n\
             end\n\
           endgenerate\n\
         endmodule",
        "Par",
    );
    sim.poke("x", Bits::from_u64(5, 0b11010));
    sim.settle().unwrap();
    assert_eq!(sim.peek("o").to_u64(), 0b01011);
}

// ---------------------------------------------------------------------
// Compiled backend (bytecode) vs the tree-walking oracle
// ---------------------------------------------------------------------

/// Runs `src` on both backends for `cycles` clock ticks, comparing every
/// variable, every rendered event, `$finish` timing, and `$time`.
fn diff_run(src: &str, top: &str, cycles: u32) {
    let lib = library_from_source(src).expect("parse");
    let design = Arc::new(elaborate(top, &lib, &ParamEnv::new()).expect("elaborate"));
    let mut tree = Simulator::new(Arc::clone(&design));
    let mut comp = crate::CompiledSim::new(Arc::clone(&design));
    tree.initialize().expect("tree initialize");
    comp.initialize().expect("compiled initialize");
    let compare = |tree: &mut Simulator, comp: &mut crate::CompiledSim, when: &str| {
        for (name, id) in design.iter_vars() {
            let info = design.info(id);
            if info.is_array() {
                for i in 0..info.array_len {
                    assert_eq!(
                        tree.peek_array(id, i),
                        comp.peek_array(id, i),
                        "{name}[{i}] diverged {when}"
                    );
                }
            } else {
                assert_eq!(tree.peek_id(id), comp.peek_id(id), "{name} diverged {when}");
            }
        }
        assert_eq!(
            tree.drain_events(),
            comp.drain_events(),
            "events diverged {when}"
        );
        assert_eq!(
            tree.is_finished(),
            comp.is_finished(),
            "$finish diverged {when}"
        );
        assert_eq!(tree.time(), comp.time(), "$time diverged {when}");
    };
    compare(&mut tree, &mut comp, "after initialize");
    let clk = design.var("clk");
    for cycle in 0..cycles {
        let Some(clk) = clk else { break };
        if tree.is_finished() {
            break;
        }
        tree.tick_id(clk).expect("tree tick");
        comp.tick_id(clk).expect("compiled tick");
        compare(&mut tree, &mut comp, &format!("at cycle {cycle}"));
    }
}

#[test]
fn compiled_matches_tree_on_counter() {
    diff_run(
        "module Count(input wire clk, output wire [7:0] o);\n\
         reg [7:0] c = 0;\n\
         always @(posedge clk) c <= c + 1;\n\
         assign o = c;\nendmodule",
        "Count",
        12,
    );
}

#[test]
fn compiled_matches_tree_on_running_example() {
    diff_run(cascade_verilog::corpus::RUNNING_EXAMPLE, "Main", 10);
}

#[test]
fn compiled_matches_tree_on_wide_values() {
    diff_run(
        "module W(input wire clk, output wire [7:0] o);\n\
         reg [95:0] acc = 96'h1;\n\
         reg [127:0] mix = 0;\n\
         always @(posedge clk) begin\n\
           acc <= (acc << 3) ^ (acc + 96'hdeadbeef01234567);\n\
           mix <= {acc[63:0], acc[95:32]} + mix;\n\
           if (acc[95:88] == 8'h5a) $display(\"hit %h\", mix);\n\
         end\n\
         assign o = acc[7:0] ^ mix[127:120];\nendmodule",
        "W",
        24,
    );
}

#[test]
fn compiled_matches_tree_on_signed_arith() {
    diff_run(
        "module S(input wire clk, output wire [31:0] o);\n\
         integer a = -7; integer b = 3; reg signed [15:0] s = -2;\n\
         always @(posedge clk) begin\n\
           a <= a * b - (a / b) + (a % b);\n\
           b <= (b <<< 1) + (s >>> 2) + (a > b ? 1 : -1);\n\
           s <= s - 1;\n\
         end\n\
         assign o = a ^ b;\nendmodule",
        "S",
        16,
    );
}

#[test]
fn compiled_matches_tree_on_arrays_and_parts() {
    diff_run(
        "module M(input wire clk, output wire [15:0] o);\n\
         reg [15:0] mem [0:7];\n\
         reg [2:0] wp = 0;\n\
         reg [15:0] x = 16'habcd;\n\
         integer i;\n\
         initial begin\n\
           for (i = 0; i < 8; i = i + 1) mem[i] = i * 17;\n\
         end\n\
         always @(posedge clk) begin\n\
           mem[wp] <= mem[wp] + x[7:0];\n\
           x[3:0] <= x[15:12];\n\
           x[15:8] <= mem[wp ^ 3][7:0];\n\
           wp <= wp + 1;\n\
         end\n\
         assign o = mem[wp] ^ x;\nendmodule",
        "M",
        20,
    );
}

#[test]
fn compiled_matches_tree_on_case_and_loops() {
    diff_run(
        "module C(input wire clk, output wire [7:0] o);\n\
         reg [7:0] st = 0; reg [7:0] acc = 1;\n\
         integer k;\n\
         always @(posedge clk) begin\n\
           case (st[1:0])\n\
             2'd0: acc <= acc + 1;\n\
             2'd1: begin for (k = 0; k < 3; k = k + 1) acc = acc ^ (k + 1); acc <= acc; end\n\
             2'd2: casez (acc)\n\
               8'b1???????: acc <= 8'h3c;\n\
               default: acc <= acc << 1;\n\
             endcase\n\
             default: begin\n\
               repeat (2) acc = acc + 3;\n\
               acc <= acc;\n\
             end\n\
           endcase\n\
           st <= st + 1;\n\
           if (st == 14) $finish;\n\
         end\n\
         assign o = acc;\nendmodule",
        "C",
        20,
    );
}

#[test]
fn compiled_matches_tree_on_random_and_monitor() {
    diff_run(
        "module R(input wire clk, output wire [31:0] o);\n\
         reg [31:0] r = 0; reg [7:0] n = 0;\n\
         initial $monitor(\"r=%d n=%h\", r, n);\n\
         always @(posedge clk) begin\n\
           r <= $random;\n\
           n <= n + 1;\n\
           if (n[2]) $display(\"t=%d r=%d\", $time, r);\n\
         end\n\
         assign o = r;\nendmodule",
        "R",
        14,
    );
}

#[test]
fn compiled_matches_tree_on_concat_lvalues() {
    diff_run(
        "module K(input wire clk, output wire [15:0] o);\n\
         reg [7:0] hi = 8'h12; reg [7:0] lo = 8'h34;\n\
         always @(posedge clk) begin\n\
           {hi, lo} <= {lo, hi} + 16'h0101;\n\
           {hi[3:0], lo[7:4]} <= hi + lo;\n\
         end\n\
         assign o = {hi, lo};\nendmodule",
        "K",
        12,
    );
}

#[test]
fn equality_if_chain_compiles_to_fused_branches() {
    // The DFA transition-row shape: `if (v == K) ... else if (v == K') ...`
    // must compile to single compare-and-branch ops, not Ld + Cmp + Jz
    // triples.
    let lib = library_from_source(
        "module T(input wire clk, input wire [7:0] b, output reg [7:0] y);\n\
         always @(*) begin\n\
           if (b == 8'd71) y = 1;\n\
           else if (b == 8'd72) y = 2;\n\
           else y = 0;\n\
         end\nendmodule",
    )
    .unwrap();
    let design = elaborate("T", &lib, &Default::default()).unwrap();
    let prog = crate::compile::SwProgram::compile(&design);
    let fused = prog
        .code
        .iter()
        .filter(|op| matches!(op, crate::compile::Op::JnCmpMI { .. }))
        .count();
    assert_eq!(fused, 2, "both equality guards fuse to JnCmpMI");
    assert!(
        !prog
            .code
            .iter()
            .any(|op| matches!(op, crate::compile::Op::Jz(..))),
        "no unfused conditional branches remain"
    );
}
