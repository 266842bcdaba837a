//! Software-engine throughput report: cycles/second of the bytecode-compiled
//! [`CompiledSim`] against the tree-walking [`Simulator`] oracle on the
//! SHA-256 proof-of-work miner and the regex-DFA matcher, simulated
//! *behaviourally* (no synthesis — this is the lane a program runs in the
//! moment after `eval`, before the background compile lands).
//!
//! Two evaluators per workload, each stepped one `tick` at a time: the tree
//! walker and the compiled engine.
//!
//! Prints one row per (workload, evaluator) and writes the machine-readable
//! results to `BENCH_sim.json` at the repository root. Set
//! `CASCADE_BENCH_SECS` to trade precision for runtime.

use cascade_bench::harness::{fmt_si, measure};
use cascade_bits::Bits;
use cascade_sim::{elaborate, library_from_source, CompiledSim, Design, Simulator};
use cascade_workloads::regex::{compile, matcher_verilog, Dfa};
use cascade_workloads::sha256::{miner_verilog, Flavor, MinerConfig};
use std::fmt::Write as _;
use std::sync::Arc;

struct Row {
    workload: &'static str,
    evaluator: &'static str,
    cycles_per_sec: f64,
}

fn design_of(src: &str, top: &str) -> Arc<Design> {
    let lib = library_from_source(src).expect("workload parses");
    Arc::new(elaborate(top, &lib, &Default::default()).expect("elaborates"))
}

/// Measures both evaluators on one design, in cycles per second.
fn bench_design(
    design: &Arc<Design>,
    inputs: &[(&str, Bits)],
    rows: &mut Vec<Row>,
    name: &'static str,
) {
    const BATCH: u64 = 256;
    let clk = design.var("clk").expect("clk port");

    let mut tree = Simulator::new(Arc::clone(design));
    tree.initialize().expect("initializes");
    for (port, v) in inputs {
        tree.poke(port, v.clone());
    }
    tree.settle().expect("settles");
    let ns = measure(&mut || {
        for _ in 0..BATCH {
            tree.tick_id(clk).expect("ticks");
        }
        tree.drain_events();
    });
    let tree_cps = BATCH as f64 * 1e9 / ns;

    let mut stepped = CompiledSim::new(Arc::clone(design));
    stepped.initialize().expect("initializes");
    for (port, v) in inputs {
        stepped.poke(port, v.clone());
    }
    stepped.settle().expect("settles");
    let ns = measure(&mut || {
        for _ in 0..BATCH {
            stepped.tick_id(clk).expect("ticks");
        }
        stepped.drain_events();
    });
    let stepped_cps = BATCH as f64 * 1e9 / ns;

    for (evaluator, cycles_per_sec) in [("tree", tree_cps), ("compiled", stepped_cps)] {
        rows.push(Row {
            workload: name,
            evaluator,
            cycles_per_sec,
        });
    }
    println!(
        "{name:<8} tree {:>9}cyc/s   compiled {:>9}cyc/s ({:.1}x)",
        fmt_si(tree_cps),
        fmt_si(stepped_cps),
        stepped_cps / tree_cps,
    );
}

fn main() {
    let mut rows = Vec::new();

    let cfg = MinerConfig {
        target: 0,
        announce: false,
        ..MinerConfig::default()
    };
    let pow = design_of(&miner_verilog(&cfg, Flavor::Ported), "Miner");
    describe("pow", &pow);
    bench_design(&pow, &[], &mut rows, "pow");

    let dfa = compile("GET |POST |HEAD ").unwrap();
    let regex = design_of(&driven_matcher(&dfa), "Bench");
    describe("regex", &regex);
    bench_design(&regex, &[], &mut rows, "regex");

    let json = render_json(&rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, &json).expect("write BENCH_sim.json");
    println!("\nwrote {path}");
}

/// The Ported matcher plus a self-driving harness that streams a request
/// line through it, one byte per cycle. A constant input byte would let the
/// DFA settle into a fixed point and the loop would measure an idle tick;
/// cycling real text forces a state transition and a next-state evaluation
/// every cycle, which is the work the matcher exists to do.
fn driven_matcher(dfa: &Dfa) -> String {
    let msg = b"GET /x HTTP/1.0 ";
    let mut s = matcher_verilog(dfa, cascade_workloads::regex::Flavor::Ported);
    s.push_str("module Bench(input wire clk, output wire [31:0] matches);\n");
    s.push_str("reg [7:0] msg [0:15];\nreg [3:0] ptr = 0;\nwire [7:0] ch;\nwire vld;\n");
    s.push_str("initial begin\n");
    for (i, b) in msg.iter().enumerate() {
        let _ = writeln!(s, "  msg[{i}] = 8'd{b};");
    }
    s.push_str("end\nassign vld = 1'b1;\nassign ch = msg[ptr];\n");
    s.push_str("always @(posedge clk) ptr <= ptr + 1;\n");
    s.push_str("Matcher m(.clk(clk), .byte_in(ch), .valid(vld), .matches(matches));\nendmodule\n");
    s
}

/// Prints the compiled-program profile for one workload design.
fn describe(name: &str, design: &Arc<Design>) {
    let sim = CompiledSim::new(Arc::clone(design));
    let stats = sim.program().stats();
    println!(
        "{name:<8} {} ops, {} procs, {} arena words, {} regs / {} wide regs",
        stats.ops, stats.procs, stats.arena_words, stats.regs, stats.wide_regs,
    );
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&cascade_bench::schema_header("sim", "host"));
    out.push_str("  \"benchmark\": \"sw_engine_cycles_per_sec\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"workload\": \"{}\", \"evaluator\": \"{}\", \"cycles_per_sec\": {:.1}}}{comma}",
            r.workload, r.evaluator, r.cycles_per_sec
        )
        .unwrap();
    }
    // Per-workload speedups over the tree walker, the acceptance metric
    // for the compiled software engine.
    out.push_str("  ],\n  \"speedup\": {\n");
    let mut names: Vec<&str> = rows.iter().map(|r| r.workload).collect();
    names.dedup();
    let cps = |name: &str, evaluator: &str| {
        rows.iter()
            .find(|r| r.workload == name && r.evaluator == evaluator)
            .map(|r| r.cycles_per_sec)
            .unwrap_or(f64::NAN)
    };
    for (i, name) in names.iter().enumerate() {
        let tree = cps(name, "tree");
        let comma = if i + 1 < names.len() { "," } else { "" };
        writeln!(
            out,
            "    \"{name}\": {{\"compiled\": {:.2}}}{comma}",
            cps(name, "compiled") / tree
        )
        .unwrap();
    }
    out.push_str("  }\n}\n");
    out
}
