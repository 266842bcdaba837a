//! Throughput report for the `cascade-verify` subsystem: how fast the
//! correctness tooling itself runs. Three rates matter for CI budgeting —
//! differential-fuzz designs/s (bounds the nightly campaign size), BMC
//! unrolled cycles/s (bounds how many optimizer proofs fit in a smoke
//! job), and chaos-soak sessions/s (bounds the fault-matrix sweep).
//!
//! Writes `BENCH_verify.json` at the repository root with the shared
//! schema header. All campaigns are fixed-seed, so run-to-run deltas are
//! host speed, not workload drift.

use cascade_verify::{campaign, run_soak, Bmc, Campaign, FuzzConfig, Fuzzer, SoakConfig};
use std::fmt::Write as _;
use std::time::Instant;

const FUZZ_ITERS: u32 = 150;
const BMC_DESIGNS: u32 = 10;
const BMC_K: u32 = 16;
const SOAK_SESSIONS: u32 = 64;

fn main() {
    // Differential fuzzing: designs through the six-way engine stack.
    let mut fuzzer = Fuzzer::new(FuzzConfig {
        seed: 0xBE7C,
        iterations: FUZZ_ITERS,
        ..FuzzConfig::default()
    });
    let t0 = Instant::now();
    let fuzz = fuzzer.run();
    let fuzz_dt = t0.elapsed().as_secs_f64();
    let designs_per_s = fuzz.executed as f64 / fuzz_dt.max(1e-9);
    assert_eq!(fuzz.diverged, 0, "bench campaign found a real divergence");
    println!(
        "fuzz:  {} designs in {fuzz_dt:.2}s  ({designs_per_s:.1} designs/s, {} cycles)",
        fuzz.executed, fuzz.cycles_total
    );

    // BMC: raw-vs-optimized proofs over generated designs.
    let mut bmc = Bmc::new(0xB11C, BMC_DESIGNS, BMC_K);
    let t0 = Instant::now();
    campaign::run(&mut bmc);
    assert_eq!(bmc.refuted, 0, "optimizer miscompile:\n{}", bmc.report(0.0));
    let (proved, gates, conflicts) = (bmc.proved, bmc.gates, bmc.conflicts);
    let bmc_dt = t0.elapsed().as_secs_f64();
    let unrolled = proved as u64 * BMC_K as u64;
    let cycles_per_s = unrolled as f64 / bmc_dt.max(1e-9);
    println!(
        "bmc:   {proved} proofs at K={BMC_K} in {bmc_dt:.2}s  ({cycles_per_s:.1} unrolled cycles/s, \
         {gates} gates, {conflicts} conflicts)"
    );

    // Chaos soak: faulted serve sessions across the config matrix.
    let t0 = Instant::now();
    let soak = run_soak(&SoakConfig {
        seed: 0x50AC,
        sessions: SOAK_SESSIONS,
        ..SoakConfig::default()
    });
    let soak_dt = t0.elapsed().as_secs_f64();
    let sessions_per_s = soak.sessions as f64 / soak_dt.max(1e-9);
    assert!(
        soak.violations.is_empty(),
        "bench soak hit invariant violations:\n{}",
        soak.violations.join("\n")
    );
    println!(
        "soak:  {} sessions in {soak_dt:.2}s  ({sessions_per_s:.1} sessions/s, {} ticks, \
         {} faults)",
        soak.sessions, soak.ticks, soak.faults_injected
    );

    let mut out = String::from("{\n");
    out.push_str(&cascade_bench::schema_header("verify", "host"));
    out.push_str("  \"benchmark\": \"verify_throughput\",\n");
    writeln!(
        out,
        "  \"fuzz\": {{\"designs\": {}, \"seconds\": {fuzz_dt:.3}, \
         \"designs_per_s\": {designs_per_s:.1}, \"cycles_total\": {}, \
         \"coverage_keys\": {}}},",
        fuzz.executed, fuzz.cycles_total, fuzz.coverage_keys
    )
    .unwrap();
    writeln!(
        out,
        "  \"bmc\": {{\"proofs\": {proved}, \"k\": {BMC_K}, \"seconds\": {bmc_dt:.3}, \
         \"unrolled_cycles_per_s\": {cycles_per_s:.1}, \"gates\": {gates}, \
         \"conflicts\": {conflicts}}},"
    )
    .unwrap();
    writeln!(
        out,
        "  \"soak\": {{\"sessions\": {}, \"seconds\": {soak_dt:.3}, \
         \"sessions_per_s\": {sessions_per_s:.1}, \"ticks\": {}, \
         \"faults_injected\": {}}}",
        soak.sessions, soak.ticks, soak.faults_injected
    )
    .unwrap();
    out.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_verify.json");
    std::fs::write(path, &out).expect("write BENCH_verify.json");
    println!("\nwrote {path}");
}
