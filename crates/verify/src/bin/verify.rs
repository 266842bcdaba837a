//! `verify` — the cascade-verify command line.
//!
//! ```text
//! verify fuzz   [--iters N] [--seed S] [--corpus DIR]
//! verify bmc    [--designs N] [--k K] [--seed S]
//! verify soak   [--sessions N] [--seed S]
//! verify crash  [--seeds N] [--seed S] [--tenants T] [--bursts B] [--max-points K]
//! verify replay FILE [FILE...]
//! ```
//!
//! Each campaign is an instance of the one engine
//! ([`cascade_verify::campaign`]); this binary parses flags and picks
//! one. Exit status is nonzero whenever a divergence, counterexample or
//! invariant violation was found, or when a campaign decided nothing —
//! the CI fuzz-smoke and crash-smoke jobs are this binary with bounded
//! arguments.

use cascade_verify::fuzz::replay_repro;
use cascade_verify::{
    campaign, Bmc, Crash, CrashConfig, DiffConfig, DiffOutcome, FuzzConfig, Fuzzer, Soak,
    SoakConfig,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).cloned()
}

fn parse_u64(args: &[String], flag: &str, default: u64) -> u64 {
    let Some(v) = parse_flag(args, flag) else {
        return default;
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: {v}");
        std::process::exit(2);
    })
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        eprintln!("replay: no files given");
        return ExitCode::from(2);
    }
    let mut bad = false;
    for file in files {
        let text = std::fs::read_to_string(file).unwrap_or_default();
        let why = match replay_repro(&text, &DiffConfig::default()) {
            Some(DiffOutcome::Agree { cycles_run, .. }) => {
                println!("{file}: engines agree over {cycles_run} cycles (fixed)");
                continue;
            }
            Some(DiffOutcome::Diverged(d)) => format!("STILL DIVERGES {d}"),
            Some(DiffOutcome::Skipped(why)) => format!("skipped ({why})"),
            None => "unreadable, or not a cascade-verify repro file".to_string(),
        };
        println!("{file}: {why}");
        bad = true;
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let num = |flag, default| parse_u64(rest, flag, default);
    let seed = num("--seed", 1);
    match args.first().map(String::as_str) {
        Some("fuzz") => campaign::main(&mut Fuzzer::new(FuzzConfig {
            seed,
            iterations: num("--iters", 1000) as u32,
            corpus_dir: parse_flag(rest, "--corpus").map(PathBuf::from),
            ..FuzzConfig::default()
        })),
        Some("bmc") => {
            let (designs, k) = (num("--designs", 20) as u32, num("--k", 16) as u32);
            campaign::main(&mut Bmc::new(seed, designs, k))
        }
        Some("soak") => campaign::main(&mut Soak::new(SoakConfig {
            seed,
            sessions: num("--sessions", 1000) as u32,
            ..SoakConfig::default()
        })),
        Some("crash") => {
            let d = CrashConfig::default();
            campaign::main(&mut Crash::new(CrashConfig {
                seed: num("--seed", d.seed),
                seeds: num("--seeds", d.seeds.into()) as u32,
                max_points: num("--max-points", d.max_points.into()) as u32,
                tenants: num("--tenants", d.tenants.into()) as u32,
                bursts: num("--bursts", d.bursts.into()) as u32,
            }))
        }
        Some("replay") => cmd_replay(rest),
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
