//! `verify` — the cascade-verify command line.
//!
//! ```text
//! verify fuzz   [--iters N] [--seed S] [--corpus DIR]
//! verify bmc    [--designs N] [--k K] [--seed S]
//! verify soak   [--sessions N] [--seed S]
//! verify replay FILE [FILE...]
//! ```
//!
//! Exit status is nonzero whenever a divergence, counterexample, or
//! invariant violation was found — the CI fuzz-smoke job is just this
//! binary with bounded arguments.

use cascade_bits::Prng;
use cascade_netlist::{synthesize, synthesize_raw};
use cascade_sim::{elaborate, library_from_source};
use cascade_verify::{
    check_equiv, BmcResult, CrashConfig, DesignSpec, DiffConfig, DiffOutcome, FuzzConfig, Fuzzer,
    SoakConfig,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> u64 {
    parse_flag(args, flag)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {flag}: {v}");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let iters = parse_u64(args, "--iters", 1000) as u32;
    let seed = parse_u64(args, "--seed", 1);
    let corpus = parse_flag(args, "--corpus").map(PathBuf::from);
    let mut fuzzer = Fuzzer::new(FuzzConfig {
        seed,
        iterations: iters,
        corpus_dir: corpus,
        ..FuzzConfig::default()
    });
    let start = std::time::Instant::now();
    let stats = fuzzer.run();
    let dt = start.elapsed().as_secs_f64();
    println!(
        "fuzz: {} designs in {dt:.2}s ({:.1}/s) | agreed {} skipped {} diverged {}",
        stats.executed,
        stats.executed as f64 / dt.max(1e-9),
        stats.agreed,
        stats.skipped,
        stats.diverged
    );
    println!(
        "coverage: {} keys, {} bucketed points | {} cycles simulated | corpus {}",
        stats.coverage_keys, stats.coverage_points, stats.cycles_total, stats.corpus_len
    );
    for repro in fuzzer.repros() {
        let d = &repro.divergence;
        println!(
            "  DIVERGENCE engine={} kind={:?} cycle={} detail={}{}",
            d.engine.name(),
            d.kind,
            d.cycle,
            d.detail,
            repro
                .path
                .as_ref()
                .map(|p| format!(" -> {}", p.display()))
                .unwrap_or_default()
        );
    }
    if stats.diverged > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_bmc(args: &[String]) -> ExitCode {
    let designs = parse_u64(args, "--designs", 20) as u32;
    let k = parse_u64(args, "--k", 16) as u32;
    let seed = parse_u64(args, "--seed", 1);
    let mut proved = 0u32;
    let mut refuted = 0u32;
    let mut unsupported = 0u32;
    let mut attempts = 0u32;
    let mut gates = 0u64;
    let mut conflicts = 0u64;
    let start = std::time::Instant::now();
    let mut salt = 0u64;
    while proved + refuted < designs && attempts < designs * 4 {
        attempts += 1;
        salt += 1;
        let mut rng = Prng::new(seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9)));
        let spec = DesignSpec::generate(&mut rng);
        let Ok(lib) = library_from_source(&spec.render()) else {
            continue;
        };
        let Ok(design) = elaborate("T", &lib, &Default::default()) else {
            continue;
        };
        let (Ok(raw), Ok(opt)) = (synthesize_raw(&design), synthesize(&design)) else {
            continue;
        };
        match check_equiv(&raw, &opt, k) {
            BmcResult::Equivalent(stats) => {
                proved += 1;
                gates += stats.gates;
                conflicts += stats.conflicts;
            }
            BmcResult::Counterexample { frame, inputs, .. } => {
                refuted += 1;
                eprintln!(
                    "COUNTEREXAMPLE at frame {frame}: inputs {inputs:?}\n{}",
                    spec.render()
                );
            }
            BmcResult::Unsupported(_) => unsupported += 1,
        }
    }
    let dt = start.elapsed().as_secs_f64();
    let cycles = (proved + refuted) as u64 * k as u64;
    println!(
        "bmc: {proved} proved, {refuted} refuted, {unsupported} out of fragment at K={k} \
         in {dt:.2}s ({:.1} unrolled cycles/s) | {gates} gates, {conflicts} conflicts",
        cycles as f64 / dt.max(1e-9)
    );
    if refuted > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_soak(args: &[String]) -> ExitCode {
    let sessions = parse_u64(args, "--sessions", 1000) as u32;
    let seed = parse_u64(args, "--seed", 1);
    let cfg = SoakConfig {
        seed,
        sessions,
        ..SoakConfig::default()
    };
    let start = std::time::Instant::now();
    let report = cascade_verify::run_soak(&cfg);
    let dt = start.elapsed().as_secs_f64();
    println!(
        "soak: {} sessions / {} batches in {dt:.2}s ({:.1}/s) | {} ticks, {} display lines, \
         {} hibernates, {} faults injected, {} oracle ticks batched",
        report.sessions,
        report.batches,
        report.sessions as f64 / dt.max(1e-9),
        report.ticks,
        report.display_lines,
        report.hibernates,
        report.faults_injected,
        report.batched_ticks
    );
    for v in &report.violations {
        println!("  VIOLATION {v}");
    }
    // A display tenant's software phase is a software plane: none of it
    // batched means the plane batch stopped being the path.
    let unbatched = report.display_lines > 0 && report.batched_ticks == 0;
    if unbatched {
        println!("  no oracle tick ran inside the software engine");
    }
    if report.violations.is_empty() && !unbatched {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_crash(args: &[String]) -> ExitCode {
    let defaults = CrashConfig::default();
    let cfg = CrashConfig {
        seed: parse_u64(args, "--seed", defaults.seed),
        seeds: parse_u64(args, "--seeds", defaults.seeds as u64) as u32,
        max_points: parse_u64(args, "--max-points", defaults.max_points as u64) as u32,
        tenants: parse_u64(args, "--tenants", defaults.tenants as u64) as u32,
        bursts: parse_u64(args, "--bursts", defaults.bursts as u64) as u32,
    };
    let start = std::time::Instant::now();
    let report = cascade_verify::run_crash(&cfg);
    let dt = start.elapsed().as_secs_f64();
    println!(
        "crash: {} crash points / {} write points across {} seeds in {dt:.2}s | \
         {} recoveries, {} resumes, {} records replayed, {} quarantined, {} warm hits",
        report.crash_points,
        report.write_points,
        cfg.seeds,
        report.recoveries,
        report.resumes,
        report.replayed_records,
        report.quarantined,
        report.warm_hits
    );
    for v in &report.violations {
        println!("  VIOLATION {v}");
    }
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        eprintln!("replay: no files given");
        return ExitCode::from(2);
    }
    let cfg = DiffConfig::default();
    let mut bad = 0;
    for file in files {
        let Ok(text) = std::fs::read_to_string(file) else {
            eprintln!("{file}: unreadable");
            bad += 1;
            continue;
        };
        match cascade_verify::fuzz::replay_repro(&text, &cfg) {
            Some(DiffOutcome::Agree { cycles_run, .. }) => {
                println!("{file}: engines agree over {cycles_run} cycles (fixed)");
            }
            Some(DiffOutcome::Diverged(d)) => {
                println!(
                    "{file}: STILL DIVERGES engine={} kind={:?} cycle={} detail={}",
                    d.engine.name(),
                    d.kind,
                    d.cycle,
                    d.detail
                );
                bad += 1;
            }
            Some(DiffOutcome::Skipped(why)) => {
                println!("{file}: skipped ({why})");
                bad += 1;
            }
            None => {
                eprintln!("{file}: not a cascade-verify repro file");
                bad += 1;
            }
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("bmc") => cmd_bmc(&args[1..]),
        Some("soak") => cmd_soak(&args[1..]),
        Some("crash") => cmd_crash(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => {
            eprintln!(
                "usage: verify <fuzz|bmc|soak|crash|replay> [options]\n\
                 \n\
                 fuzz   [--iters N] [--seed S] [--corpus DIR]   differential fuzzing\n\
                 bmc    [--designs N] [--k K] [--seed S]        bounded equivalence checking\n\
                 soak   [--sessions N] [--seed S]               chaos soak of the serving stack\n\
                 crash  [--seeds N] [--seed S] [--tenants T]\n\
                 \x20       [--bursts B] [--max-points K]          crash-point fuzzing of durability\n\
                 replay FILE [FILE...]                          re-run corpus repro files"
            );
            ExitCode::from(2)
        }
    }
}
