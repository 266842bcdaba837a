//! The SHA-256 proof-of-work miner through every substrate: interpreter,
//! synthesized netlist, and the full Cascade JIT — all validated against
//! the Rust reference implementation.

use cascade_core::{ExecMode, JitConfig, Runtime};
use cascade_fpga::Board;
use cascade_netlist::{synthesize, NetlistSim, ProgramStats};
use cascade_sim::{elaborate, library_from_source, Simulator};
use cascade_workloads::sha256::{
    find_nonce, miner_verilog, Flavor, MinerConfig, CYCLES_PER_ATTEMPT,
};
use std::sync::Arc;

/// An easy target so tests stay fast: reference search says how many
/// attempts it takes.
fn easy_config() -> (MinerConfig, u32, [u32; 8]) {
    let cfg = MinerConfig {
        data: 0x5eed_b10c,
        target: 0x1000_0000,
        start_nonce: 0,
        announce: true,
        use_functions: false,
    };
    let (nonce, digest) = find_nonce(cfg.data, cfg.target, cfg.start_nonce);
    assert!(
        nonce < 200,
        "pick an easier target for tests (nonce={nonce})"
    );
    (cfg, nonce, digest)
}

#[test]
fn miner_interpreter_matches_reference() {
    let (cfg, expect_nonce, expect_digest) = easy_config();
    let src = miner_verilog(&cfg, Flavor::Ported);
    let lib = library_from_source(&src).expect("parse");
    let design = elaborate("Miner", &lib, &Default::default()).expect("elaborate");
    let mut sim = Simulator::new(Arc::new(design));
    sim.initialize().unwrap();
    let budget = (expect_nonce as u64 + 2) * CYCLES_PER_ATTEMPT + 10;
    for _ in 0..budget {
        if sim.peek("found").to_bool() {
            break;
        }
        sim.tick("clk").unwrap();
    }
    assert!(
        sim.peek("found").to_bool(),
        "miner did not finish in {budget} cycles"
    );
    assert_eq!(sim.peek("nonce_out").to_u64(), expect_nonce as u64);
    assert_eq!(sim.peek("hash_hi").to_u64(), expect_digest[0] as u64);
}

#[test]
fn miner_netlist_matches_interpreter() {
    let (cfg, expect_nonce, expect_digest) = easy_config();
    let src = miner_verilog(&cfg, Flavor::Ported);
    let lib = library_from_source(&src).expect("parse");
    let design = elaborate("Miner", &lib, &Default::default()).expect("elaborate");
    let nl = synthesize(&design).expect("synthesize");
    let mut hw = NetlistSim::new(Arc::new(nl)).expect("levelize");
    let budget = (expect_nonce as u64 + 2) * CYCLES_PER_ATTEMPT + 10;
    for _ in 0..budget {
        if hw.get_by_name("found").unwrap().to_bool() {
            break;
        }
        hw.step_clock(0);
    }
    assert!(hw.get_by_name("found").unwrap().to_bool());
    assert_eq!(
        hw.get_by_name("nonce_out").unwrap().to_u64(),
        expect_nonce as u64
    );
    assert_eq!(
        hw.get_by_name("hash_hi").unwrap().to_u64(),
        expect_digest[0] as u64
    );
}

#[test]
fn miner_under_cascade_jit_announces_from_hardware() {
    let (cfg, expect_nonce, expect_digest) = easy_config();
    let src = miner_verilog(&cfg, Flavor::Cascade);
    let board = Board::new();
    let mut rt = Runtime::new(board, JitConfig::default()).unwrap();
    rt.eval(&src).unwrap();
    // Run a little in software, then let the compile land.
    rt.run_ticks(40).unwrap();
    assert_eq!(rt.mode(), ExecMode::Software);
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("compile staged");
    rt.advance_wall((ready - rt.wall_seconds()).max(0.0) + 1.0);
    rt.run_ticks(1).unwrap();
    assert_eq!(rt.mode(), ExecMode::HardwareForwarded, "miner migrated");
    let budget = (expect_nonce as u64 + 2) * CYCLES_PER_ATTEMPT + 10;
    rt.run_ticks(budget).unwrap();
    assert!(rt.is_finished(), "$finish reached from hardware");
    let out = rt.drain_output().join("\n");
    let expect = format!(
        "FOUND nonce={:08x} hash={:08x}",
        expect_nonce, expect_digest[0]
    );
    assert!(
        out.contains(&expect),
        "expected `{expect}` in output:\n{out}"
    );
}

#[test]
fn miner_under_interpreter_only_matches_too() {
    let (cfg, expect_nonce, _) = easy_config();
    let src = miner_verilog(&cfg, Flavor::Cascade);
    let board = Board::new();
    let mut rt = Runtime::new(board, JitConfig::interpreter_only()).unwrap();
    rt.eval(&src).unwrap();
    let budget = (expect_nonce as u64 + 2) * CYCLES_PER_ATTEMPT + 10;
    rt.run_ticks(budget).unwrap();
    assert!(rt.is_finished());
    let out = rt.drain_output().join("\n");
    assert!(out.contains("FOUND"), "{out}");
}

#[test]
fn function_style_miner_matches_wire_style() {
    // The same search expressed with Verilog functions (the idiom real
    // open-source miners use) must produce identical results through
    // interpretation and synthesis.
    let (mut cfg, expect_nonce, expect_digest) = easy_config();
    cfg.use_functions = true;
    let src = miner_verilog(&cfg, Flavor::Ported);
    let lib = library_from_source(&src).expect("parse");
    let design = elaborate("Miner", &lib, &Default::default()).expect("elaborate");
    let budget = (expect_nonce as u64 + 2) * CYCLES_PER_ATTEMPT + 10;

    let mut sim = Simulator::new(Arc::new(design.clone()));
    sim.initialize().unwrap();
    for _ in 0..budget {
        if sim.peek("found").to_bool() {
            break;
        }
        sim.tick("clk").unwrap();
    }
    assert_eq!(sim.peek("nonce_out").to_u64(), expect_nonce as u64);

    let nl = synthesize(&design).expect("synthesize");
    let mut hw = NetlistSim::new(Arc::new(nl)).expect("levelize");
    for _ in 0..budget {
        if hw.get_by_name("found").unwrap().to_bool() {
            break;
        }
        hw.step_clock(0);
    }
    assert_eq!(
        hw.get_by_name("nonce_out").unwrap().to_u64(),
        expect_nonce as u64
    );
    assert_eq!(
        hw.get_by_name("hash_hi").unwrap().to_u64(),
        expect_digest[0] as u64
    );
}

/// The compiled program is pinned: the peephole passes (Pass 4's
/// compile-time cone evaluation above all) must fold the miner into
/// exactly this program, in both source styles.
#[test]
fn miner_program_is_pinned() {
    for (use_functions, arena_words) in [(false, 1063), (true, 1073)] {
        let (mut cfg, _, _) = easy_config();
        cfg.use_functions = use_functions;
        let src = miner_verilog(&cfg, Flavor::Ported);
        let lib = library_from_source(&src).expect("parse");
        let design = elaborate("Miner", &lib, &Default::default()).expect("elaborate");
        let nl = synthesize(&design).expect("synthesize");
        let hw = NetlistSim::new(Arc::new(nl)).expect("levelize");
        assert_eq!(
            hw.program_stats(),
            ProgramStats {
                instrs: 150,
                wide_instrs: 0,
                arena_words,
                mem_arena_words: 0,
                levels: 50,
            },
            "use_functions {use_functions}"
        );
        assert_eq!(
            hw.kernel_histogram(),
            [
                ("Mux", 83),
                ("Add", 19),
                ("Xor", 11),
                ("ZExt", 11),
                ("Rot", 10),
                ("And", 5),
                ("Eq", 4),
                ("Lookup", 3),
                ("Shr", 2),
                ("LtU", 1),
                ("Not", 1),
            ],
            "use_functions {use_functions}"
        );
    }
}
