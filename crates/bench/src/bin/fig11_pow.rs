//! Figure 11: proof-of-work performance benchmark.
//!
//! Reproduces the paper's Fig. 11 series — virtual clock rate over wall
//! time for iVerilog, Quartus, and Cascade running the SHA-256
//! proof-of-work miner — against the modeled wall clock (deterministic,
//! machine-independent). Set `CASCADE_BENCH_SCALE` (default 0.05) to scale
//! the 900-second experiment window; the curve shapes are scale-invariant.
//!
//! Run with: `cargo run --release -p cascade-bench --bin fig11_pow`

use cascade_bench::{fmt_rate, fresh_runtime, print_series, Curve};
use cascade_core::{ExecMode, JitConfig};
use cascade_fpga::{wrapper_overhead_les, CostModel, Toolchain};
use cascade_netlist::{estimate_area, synthesize};
use cascade_sim::{elaborate, library_from_source, Simulator};
use cascade_workloads::sha256::{miner_verilog, Flavor, MinerConfig};
use std::sync::Arc;

/// The paper measured iVerilog's event dispatch to be several times slower
/// than Cascade's optimized software engines (Sec. 6.1: Cascade simulated
/// 2.4x faster). We model iVerilog with a proportionally costlier
/// per-statement dispatch.
const IVERILOG_DISPATCH_FACTOR: f64 = 2.6;

fn main() {
    let scale: f64 = std::env::var("CASCADE_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    let horizon_s = 900.0 * scale;
    println!("# Figure 11: proof-of-work virtual clock rate vs time");
    println!("# scale={scale} => horizon {horizon_s:.0} modeled seconds\n");

    // Never-found target keeps the miner hashing for the whole window.
    let cfg = MinerConfig {
        target: 0,
        announce: false,
        ..MinerConfig::default()
    };
    let costs = CostModel::default();

    // ------------------------------------------------------------------
    // iVerilog baseline: pure interpretation, constant rate.
    // ------------------------------------------------------------------
    let ported = miner_verilog(&cfg, Flavor::Ported);
    let lib = library_from_source(&ported).expect("parse");
    let design = Arc::new(elaborate("Miner", &lib, &Default::default()).expect("elaborate"));
    let mut sim = Simulator::new(Arc::clone(&design));
    sim.initialize().unwrap();
    let probe_cycles = 2_000u64;
    for _ in 0..probe_cycles {
        sim.tick("clk").unwrap();
    }
    let per_cycle_ns = (sim.activations as f64 * costs.sw_activation_ns
        + sim.statements as f64 * costs.sw_statement_ns)
        / probe_cycles as f64;
    let iverilog_rate = 1e9 / (per_cycle_ns * IVERILOG_DISPATCH_FACTOR);
    println!("# iVerilog: starts <1s, flat {}", fmt_rate(iverilog_rate));

    // ------------------------------------------------------------------
    // Quartus baseline: nothing until compilation ends, then native rate.
    // ------------------------------------------------------------------
    let quartus_tc = Toolchain {
        time_scale: scale,
        ..Toolchain::default()
    };
    let native_bitstream = quartus_tc.compile(&design).expect("native compile");
    let quartus_ready = native_bitstream.modeled_duration.as_secs_f64();
    let native_rate = quartus_tc.device.clock_mhz * 1e6;
    println!(
        "# Quartus: 0 Hz until {quartus_ready:.0}s, then native {} (fmax {:.1} MHz)",
        fmt_rate(native_rate),
        native_bitstream.fmax_mhz
    );

    // ------------------------------------------------------------------
    // Cascade: run the real JIT against the modeled wall clock.
    // ------------------------------------------------------------------
    let mut config = JitConfig::default();
    config.toolchain.time_scale = scale;
    let (mut rt, _board) = fresh_runtime(config);
    rt.eval(&miner_verilog(&cfg, Flavor::Cascade))
        .expect("eval");
    let startup_s = rt.wall_seconds();
    // The worker thread is fast in real time; the modeled latency still
    // gates the swap.
    rt.wait_for_compile_worker();
    let mut cascade = Curve::new("cascade");
    cascade.push(rt.wall_seconds(), rt.ticks());
    // Software phase, sampled until migration.
    let mut sim_rate = 0.0;
    while rt.mode() == ExecMode::Software && rt.wall_seconds() < horizon_s {
        rt.run_ticks(500).unwrap();
        cascade.push(rt.wall_seconds(), rt.ticks());
        sim_rate = cascade.last_rate();
    }
    let crossover_s = rt.wall_seconds();
    if rt.mode() == ExecMode::Software {
        println!("# WARNING: compile did not land within the window; raise CASCADE_BENCH_SCALE");
        return;
    }
    // Hardware phase: measure the steady open-loop rate over a bounded run,
    // then extend analytically (the curve is flat).
    rt.run_ticks(2_000_000).unwrap();
    cascade.push(rt.wall_seconds(), rt.ticks());
    let hw_rate = cascade.last_rate();
    let mut t = rt.wall_seconds();
    while t < horizon_s {
        t += horizon_s / 20.0;
        let (lt, lw) = *cascade.points.last().unwrap();
        cascade.push(t, lw + ((t - lt) * hw_rate) as u64);
    }

    // ------------------------------------------------------------------
    // Series output.
    // ------------------------------------------------------------------
    let iverilog_series: Vec<(f64, f64)> = (0..=20)
        .map(|i| (horizon_s * i as f64 / 20.0, iverilog_rate))
        .collect();
    let quartus_series: Vec<(f64, f64)> = (0..=20)
        .map(|i| {
            let t = horizon_s * i as f64 / 20.0;
            (t, if t >= quartus_ready { native_rate } else { 0.0 })
        })
        .collect();
    print_series("iverilog", &iverilog_series);
    print_series("quartus", &quartus_series);
    print_series("cascade", &cascade.rates());

    // ------------------------------------------------------------------
    // Headline numbers (paper Sec. 6.1).
    // ------------------------------------------------------------------
    let nl = synthesize(&design).unwrap();
    let native_area = estimate_area(&nl).logic_elements.max(1);
    let cascade_area = native_area + wrapper_overhead_les(&nl);
    println!("# --- summary (paper's Sec 6.1 claims in parentheses) ---");
    println!("# cascade startup latency: {startup_s:.3}s (paper: <1s)");
    println!(
        "# cascade sim rate {} vs iVerilog {} => {:.1}x (paper: 2.4x)",
        fmt_rate(sim_rate),
        fmt_rate(iverilog_rate),
        sim_rate / iverilog_rate
    );
    println!(
        "# cascade crossover to hardware at {crossover_s:.0}s; quartus ready at {quartus_ready:.0}s"
    );
    println!(
        "# cascade hw rate {} => within {:.1}x of native 50 MHz (paper: 2.9x)",
        fmt_rate(hw_rate),
        native_rate / hw_rate
    );
    println!(
        "# spatial overhead: {cascade_area} LEs vs {native_area} LEs native => {:.1}x (paper: 2.9x)",
        cascade_area as f64 / native_area as f64
    );
}
