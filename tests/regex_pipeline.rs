//! The streaming regex matcher through every substrate, validated against
//! the Rust DFA reference (paper Sec. 6.2's benchmark generator).

use cascade_bits::Bits;
use cascade_core::{ExecMode, JitConfig, Runtime};
use cascade_fpga::Board;
use cascade_netlist::{synthesize, NetlistSim, ProgramStats};
use cascade_sim::{elaborate, library_from_source, Simulator};
use cascade_workloads::regex::{compile, matcher_verilog, Flavor};
use std::sync::Arc;

const PATTERN: &str = "GET |POST ";
const INPUT: &[u8] = b"GET /index HTTP POST /x GET  PUT POST!POST ";

fn expected_matches() -> u64 {
    compile(PATTERN).unwrap().count_matches(INPUT)
}

#[test]
fn matcher_interpreter_matches_reference() {
    let dfa = compile(PATTERN).unwrap();
    let src = matcher_verilog(&dfa, Flavor::Ported);
    let lib = library_from_source(&src).expect("parse");
    let design = elaborate("Matcher", &lib, &Default::default()).expect("elaborate");
    let mut sim = Simulator::new(Arc::new(design));
    sim.initialize().unwrap();
    sim.poke("valid", Bits::from_u64(1, 1));
    for &b in INPUT {
        sim.poke("byte_in", Bits::from_u64(8, b as u64));
        sim.tick("clk").unwrap();
    }
    assert_eq!(sim.peek("matches").to_u64(), expected_matches());
    assert!(expected_matches() >= 3, "test input should contain matches");
}

#[test]
fn matcher_netlist_matches_reference() {
    let dfa = compile(PATTERN).unwrap();
    let src = matcher_verilog(&dfa, Flavor::Ported);
    let lib = library_from_source(&src).expect("parse");
    let design = elaborate("Matcher", &lib, &Default::default()).expect("elaborate");
    let nl = synthesize(&design).expect("synthesize");
    let mut hw = NetlistSim::new(Arc::new(nl)).expect("levelize");
    hw.set_by_name("valid", Bits::from_u64(1, 1));
    for &b in INPUT {
        hw.set_by_name("byte_in", Bits::from_u64(8, b as u64));
        hw.step_clock(0);
    }
    assert_eq!(
        hw.get_by_name("matches").unwrap().to_u64(),
        expected_matches()
    );
}

/// The compiled program is pinned: the peephole passes (Pass 4's
/// compile-time cone evaluation above all) must fold the matcher's
/// transition logic into exactly this program.
#[test]
fn matcher_program_is_pinned() {
    let dfa = compile(PATTERN).unwrap();
    let src = matcher_verilog(&dfa, Flavor::Ported);
    let lib = library_from_source(&src).expect("parse");
    let design = elaborate("Matcher", &lib, &Default::default()).expect("elaborate");
    let nl = synthesize(&design).expect("synthesize");
    let hw = NetlistSim::new(Arc::new(nl)).expect("levelize");
    assert_eq!(
        hw.program_stats(),
        ProgramStats {
            instrs: 33,
            wide_instrs: 0,
            arena_words: 221,
            mem_arena_words: 0,
            levels: 16,
        }
    );
    assert_eq!(
        hw.kernel_histogram(),
        [
            ("Lookup", 10),
            ("MuxEq", 10),
            ("MuxLtU", 7),
            ("Mux", 3),
            ("ZExt", 2),
            ("Add", 1),
        ]
    );
}

fn run_fifo_session(config: JitConfig, migrate: bool) -> u64 {
    let dfa = compile(PATTERN).unwrap();
    let src = matcher_verilog(&dfa, Flavor::Cascade);
    let board = Board::new();
    board.set_fifo_capacity(1024);
    let mut rt = Runtime::new(board.clone(), config).unwrap();
    rt.eval(&src).unwrap();
    if migrate {
        rt.wait_for_compile_worker();
        let ready = rt.compile_ready_at().expect("staged");
        rt.advance_wall((ready - rt.wall_seconds()).max(0.0) + 1.0);
        rt.run_ticks(1).unwrap();
        assert_eq!(rt.mode(), ExecMode::HardwareForwarded);
    }
    for &b in INPUT {
        board.fifo_push(Bits::from_u64(8, b as u64));
    }
    // One byte consumed per cycle plus pipeline slack.
    rt.run_ticks(INPUT.len() as u64 + 8).unwrap();
    assert_eq!(board.fifo_pops(), INPUT.len() as u64, "all bytes consumed");
    board.leds().to_u64()
}

#[test]
fn matcher_over_fifo_in_software() {
    let leds = run_fifo_session(JitConfig::interpreter_only(), false);
    assert_eq!(leds, expected_matches() & 0xff);
}

#[test]
fn matcher_over_fifo_in_hardware() {
    let leds = run_fifo_session(JitConfig::default(), true);
    assert_eq!(leds, expected_matches() & 0xff);
}

#[test]
fn hardware_io_rate_exceeds_software() {
    // The Fig. 12 claim in miniature: IO/s in hardware dwarfs software.
    let dfa = compile(PATTERN).unwrap();
    let src = matcher_verilog(&dfa, Flavor::Cascade);

    let measure = |config: JitConfig, migrate: bool| -> f64 {
        let board = Board::new();
        board.set_fifo_capacity(4096);
        let mut rt = Runtime::new(board.clone(), config).unwrap();
        rt.eval(&src).unwrap();
        if migrate {
            rt.wait_for_compile_worker();
            let ready = rt.compile_ready_at().expect("staged");
            rt.advance_wall((ready - rt.wall_seconds()).max(0.0) + 1.0);
            rt.run_ticks(1).unwrap();
        }
        for i in 0..2000u64 {
            board.fifo_push(Bits::from_u64(8, b"GETPOST /"[(i % 9) as usize] as u64));
        }
        let w0 = rt.wall_seconds();
        let p0 = board.fifo_pops();
        rt.run_ticks(2100).unwrap();
        (board.fifo_pops() - p0) as f64 / (rt.wall_seconds() - w0)
    };
    let sw_rate = measure(JitConfig::interpreter_only(), false);
    let hw_rate = measure(JitConfig::default(), true);
    assert!(
        hw_rate > sw_rate * 5.0,
        "hardware {hw_rate:.0} IO/s should beat software {sw_rate:.0} IO/s"
    );
}
