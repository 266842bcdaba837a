//! End-to-end exercise of the `cascade-verify` subsystem, plus the
//! checked-in regression corpus.
//!
//! Tier-1 contract: every `.v` file under `corpus/` is a shrunk repro of
//! a once-real engine divergence; all of them must replay as *agreement*
//! through the full five-way differential stack (the bugs they captured
//! stay fixed). On top of that, a bounded fuzz campaign, a BMC proof of
//! the post-synthesis optimizer, and a small chaos soak all run clean.

use cascade_netlist::{synthesize, synthesize_raw};
use cascade_sim::{elaborate, library_from_source};
use cascade_verify::fuzz::replay_repro;
use cascade_verify::{
    check_equiv, run_soak, BmcResult, DiffConfig, DiffOutcome, FuzzConfig, Fuzzer, SoakConfig,
};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    // Tests are registered under crates/xtests; the corpus lives at the
    // workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// Every checked-in repro replays with all engines in agreement.
#[test]
fn corpus_regressions_stay_fixed() {
    let dir = corpus_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 3,
        "corpus shrank: only {} repro files",
        entries.len()
    );
    let cfg = DiffConfig::default();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("read repro");
        match replay_repro(&text, &cfg) {
            Some(DiffOutcome::Agree { cycles_run, .. }) => {
                assert!(cycles_run > 0, "{}: zero-cycle replay", path.display());
            }
            Some(DiffOutcome::Diverged(d)) => panic!(
                "{}: regression resurfaced: engine={} cycle={} {}",
                path.display(),
                d.engine.name(),
                d.cycle,
                d.detail
            ),
            Some(DiffOutcome::Skipped(why)) => {
                panic!("{}: repro no longer runs: {why}", path.display())
            }
            None => panic!("{}: not a valid repro file", path.display()),
        }
    }
}

/// A bounded coverage-guided campaign across all five engines finds no
/// divergences and accumulates real coverage.
#[test]
fn bounded_fuzz_campaign_is_clean() {
    let mut fuzzer = Fuzzer::new(FuzzConfig {
        seed: 0xCA5CADE,
        iterations: 60,
        ..FuzzConfig::default()
    });
    let stats = fuzzer.run();
    assert_eq!(stats.executed, 60);
    assert_eq!(
        stats.diverged,
        0,
        "engine divergence found: {:?}",
        fuzzer.repros()
    );
    assert!(stats.coverage_keys >= 10, "{stats:?}");
}

/// The optimizer pipeline is formally bounded-equivalent to the raw
/// synthesis output on a case-heavy design (the shape
/// `balance_case_chains` actually rewrites).
#[test]
fn bmc_proves_optimizer_on_case_chain() {
    let mut arms = String::new();
    for i in 0..10 {
        arms.push_str(&format!("      4'd{i}: r0 <= a + 16'd{};\n", i * 3));
    }
    let src = format!(
        "module T(input wire clk, input wire [15:0] a, input wire [15:0] b, output wire [15:0] o0);\n\
         reg [15:0] r0 = 0;\n\
         always @(posedge clk) begin\n\
           case (b[3:0])\n{arms}      default: r0 <= r0 + 1;\n\
           endcase\n\
         end\n\
         assign o0 = r0;\nendmodule"
    );
    let lib = library_from_source(&src).expect("parse");
    let design = elaborate("T", &lib, &Default::default()).expect("elaborate");
    let raw = synthesize_raw(&design).expect("raw synth");
    let opt = synthesize(&design).expect("optimized synth");
    match check_equiv(&raw, &opt, 4) {
        BmcResult::Equivalent(stats) => {
            assert_eq!(stats.frames, 4);
            assert!(stats.vars > 0);
        }
        other => panic!("optimizer not proven equivalent: {other:?}"),
    }
}

/// A small chaos soak across the config matrix holds every invariant.
#[test]
fn small_chaos_soak_is_clean() {
    let report = run_soak(&SoakConfig {
        seed: 11,
        sessions: 16,
        batch: 8,
        max_burst: 24,
    });
    assert!(
        report.violations.is_empty(),
        "soak violations:\n{}",
        report.violations.join("\n")
    );
    assert_eq!(report.sessions, 16);
}
