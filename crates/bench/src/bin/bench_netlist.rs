//! Compiled-evaluator throughput report: cycles/second of the word-arena
//! [`NetlistSim`] against the interpretive [`ReferenceSim`] baseline on the
//! SHA-256 proof-of-work miner and the regex-DFA matcher netlists, plus
//! the data-parallel execution path: bit-parallel batch simulation
//! ([`BatchHarness`]) across a sweep of lane widths.
//!
//! Prints one row per configuration and writes the machine-readable
//! results to `BENCH_netlist.json` at the repository root. Knobs:
//!
//! - `CASCADE_BENCH_SECS`: seconds per point (default 0.25; CI smoke less)
//! - `--batch-width 1,8,64` / `CASCADE_BENCH_BATCH_WIDTHS`: lane sweep
//! - `CASCADE_BENCH_ASSERT=1`: exit non-zero if the widest batch fails to
//!   deliver at least 2x the aggregate vectors*cycles/s of batch width 1
//!   on every netlist (the batch-path CI gate; the local target is
//!   >= 4x at width 64)

use cascade_bench::harness::{fmt_si, measure};
use cascade_bits::Bits;
use cascade_netlist::{levelize, synthesize, BatchHarness, Netlist, NetlistSim, ReferenceSim};
use cascade_sim::{elaborate, library_from_source};
use cascade_workloads::regex::{compile, matcher_verilog};
use cascade_workloads::sha256::{miner_verilog, Flavor, MinerConfig};
use std::fmt::Write as _;
use std::sync::Arc;

struct Row {
    netlist: &'static str,
    evaluator: &'static str,
    batch_width: u32,
    /// Per-lane settled cycles per second.
    cycles_per_sec: f64,
    /// Aggregate throughput: `batch_width * cycles_per_sec` (the quantity
    /// the batch path trades latency for).
    vectors_cycles_per_sec: f64,
}

fn netlist_of(src: &str, top: &str) -> Arc<Netlist> {
    let lib = library_from_source(src).expect("workload parses");
    let design = elaborate(top, &lib, &Default::default()).expect("elaborates");
    Arc::new(synthesize(&design).expect("synthesizes"))
}

/// Parses a comma-separated sweep list from a CLI flag or env fallback.
fn sweep(args: &[String], flag: &str, env: &str, default: &[u32]) -> Vec<u32> {
    let from_args = args
        .iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned());
    let raw = from_args.or_else(|| std::env::var(env).ok());
    match raw {
        Some(list) => list
            .split(',')
            .filter_map(|s| s.trim().parse::<u32>().ok())
            .filter(|&v| v >= 1)
            .collect(),
        None => default.to_vec(),
    }
}

const BATCH: u64 = 256;

/// Measures the scalar compiled evaluator and the interpretive reference.
fn bench_pair(nl: &Arc<Netlist>, rows: &mut Vec<Row>, name: &'static str) {
    let mut hw = NetlistSim::new(Arc::clone(nl)).expect("levelize");
    let ns = measure(&mut || {
        hw.run_cycles(BATCH, usize::MAX);
        hw.drain_tasks();
    });
    let compiled = BATCH as f64 * 1e9 / ns;
    rows.push(Row {
        netlist: name,
        evaluator: "compiled",
        batch_width: 1,
        cycles_per_sec: compiled,
        vectors_cycles_per_sec: compiled,
    });

    let mut reference = ReferenceSim::new(Arc::clone(nl)).expect("levelize");
    let ns = measure(&mut || {
        reference.run(BATCH);
        reference.drain_tasks();
    });
    let interp = BATCH as f64 * 1e9 / ns;
    rows.push(Row {
        netlist: name,
        evaluator: "reference",
        batch_width: 1,
        cycles_per_sec: interp,
        vectors_cycles_per_sec: interp,
    });

    println!(
        "{name:<10} compiled {:>10}cyc/s   reference {:>10}cyc/s   speedup {:.1}x",
        fmt_si(compiled),
        fmt_si(interp),
        compiled / interp
    );
}

/// Measures the bit-parallel batch path at one lane width. `drive` sets
/// the stimulus on a fresh harness (all lanes identical — throughput, not
/// correctness, is under test here; the equivalence suite owns the latter).
fn bench_batch(
    nl: &Arc<Netlist>,
    rows: &mut Vec<Row>,
    name: &'static str,
    width: u32,
    drive: &dyn Fn(&mut BatchHarness),
) {
    let mut h = BatchHarness::new(Arc::clone(nl), width).expect("levelize");
    drive(&mut h);
    let ns = measure(&mut || {
        h.run_cycles(BATCH);
        h.drain_tasks();
    });
    let per_lane = BATCH as f64 * 1e9 / ns;
    let aggregate = per_lane * width as f64;
    rows.push(Row {
        netlist: name,
        evaluator: "batch",
        batch_width: width,
        cycles_per_sec: per_lane,
        vectors_cycles_per_sec: aggregate,
    });
    println!(
        "{name:<10} batch  w={width:<4} {:>10}cyc/s/lane   aggregate {:>10}vec*cyc/s",
        fmt_si(per_lane),
        fmt_si(aggregate)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let widths = sweep(
        &args,
        "--batch-width",
        "CASCADE_BENCH_BATCH_WIDTHS",
        &[1, 8, 64],
    );
    let mut rows = Vec::new();

    let cfg = MinerConfig {
        target: 0,
        announce: false,
        ..MinerConfig::default()
    };
    let pow = netlist_of(&miner_verilog(&cfg, Flavor::Ported), "Miner");
    describe("pow", &pow);
    bench_pair(&pow, &mut rows, "pow");
    for &w in &widths {
        bench_batch(&pow, &mut rows, "pow", w, &|_| {});
    }

    let dfa = compile("GET |POST |HEAD ").unwrap();
    let regex = netlist_of(
        &matcher_verilog(&dfa, cascade_workloads::regex::Flavor::Ported),
        "Matcher",
    );
    describe("regex", &regex);
    bench_pair(&regex, &mut rows, "regex");
    // The matcher consumes a byte per cycle; drive a fixed input so every
    // lane stays busy.
    for &w in &widths {
        bench_batch(&regex, &mut rows, "regex", w, &|h| {
            h.set_all_by_name("valid", Bits::from_u64(1, 1));
            h.set_all_by_name("byte_in", Bits::from_u64(8, b'G' as u64));
        });
    }

    let json = render_json(&rows);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_netlist.json");
    std::fs::write(path, &json).expect("write BENCH_netlist.json");
    println!("\nwrote {path}");

    if std::env::var("CASCADE_BENCH_ASSERT").as_deref() == Ok("1") {
        let mut failed = false;
        for name in ["pow", "regex"] {
            let batch = |w: u32| {
                rows.iter()
                    .find(|r| r.netlist == name && r.evaluator == "batch" && r.batch_width == w)
                    .map(|r| r.vectors_cycles_per_sec)
            };
            let Some(base) = widths.first().copied().and_then(batch) else {
                continue;
            };
            let Some(wide) = widths.last().copied().and_then(batch) else {
                continue;
            };
            if widths.len() >= 2 && wide < base * 2.0 {
                eprintln!(
                    "FAIL: {name} batch w={} aggregate {:.0} < 2x of w={} ({:.0})",
                    widths.last().unwrap(),
                    wide,
                    widths.first().unwrap(),
                    base
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("assert: batch scaling gate passed");
    }
}

/// Prints the compiled-program profile for one workload netlist.
fn describe(name: &str, nl: &Arc<Netlist>) {
    let sim = NetlistSim::new(Arc::clone(nl)).expect("levelize");
    let stats = sim.program_stats();
    let order = levelize(nl).expect("acyclic");
    let pop = cascade_netlist::level_population(nl, &order);
    let widest = pop.iter().copied().max().unwrap_or(0);
    println!(
        "{name:<10} {} instrs ({} wide), {} arena words, {} levels (widest {widest})",
        stats.instrs, stats.wide_instrs, stats.arena_words, stats.levels
    );
}

fn render_json(rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&cascade_bench::schema_header("netlist", "host"));
    out.push_str("  \"benchmark\": \"netlist_eval_cycles_per_sec\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"netlist\": \"{}\", \"evaluator\": \"{}\", \"batch_width\": {}, \"cycles_per_sec\": {:.1}, \"vectors_cycles_per_sec\": {:.1}}}{comma}",
            r.netlist, r.evaluator, r.batch_width, r.cycles_per_sec, r.vectors_cycles_per_sec
        )
        .unwrap();
    }
    // Per-netlist speedups: compiled over reference (the scalar acceptance
    // metric) and widest-batch aggregate over batch width 1 (the
    // data-parallel one).
    out.push_str("  ],\n  \"speedup\": {\n");
    let mut names: Vec<&str> = rows.iter().map(|r| r.netlist).collect();
    names.dedup();
    let find = |name: &str, evaluator: &str| {
        rows.iter()
            .find(|r| r.netlist == name && r.evaluator == evaluator)
            .map(|r| r.cycles_per_sec)
    };
    for (i, name) in names.iter().enumerate() {
        let compiled = find(name, "compiled").unwrap_or(0.0);
        let reference = find(name, "reference").unwrap_or(f64::INFINITY);
        let comma = if i + 1 < names.len() { "," } else { "" };
        writeln!(out, "    \"{name}\": {:.2}{comma}", compiled / reference).unwrap();
    }
    out.push_str("  },\n  \"batch_speedup\": {\n");
    for (i, name) in names.iter().enumerate() {
        let batches: Vec<&Row> = rows
            .iter()
            .filter(|r| r.netlist == *name && r.evaluator == "batch")
            .collect();
        let ratio = match (batches.first(), batches.last()) {
            (Some(a), Some(b)) if a.vectors_cycles_per_sec > 0.0 => {
                b.vectors_cycles_per_sec / a.vectors_cycles_per_sec
            }
            _ => 0.0,
        };
        let comma = if i + 1 < names.len() { "," } else { "" };
        writeln!(out, "    \"{name}\": {:.2}{comma}", ratio).unwrap();
    }
    out.push_str("  }\n}\n");
    out
}
