//! Pins the deterministic counts of one small run of each `verify`
//! campaign, as printed by the binary: the same seed must decide the
//! same cases, cover the same points and count the same work whatever
//! the campaign loop looks like inside. Wall time and rates are never
//! pinned, and neither is any count that depends on host timing (each
//! one is named below with the reason it is left out).

use std::process::Command;

/// Runs `verify ARGS`, requires a clean exit and returns its stdout.
fn verify(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_verify"))
        .args(args)
        .output()
        .expect("spawn verify");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "verify {args:?} exited {:?}:\n{stdout}",
        out.status.code()
    );
    stdout
}

fn assert_prints(stdout: &str, pinned: &[&str]) {
    for piece in pinned {
        assert!(stdout.contains(piece), "missing {piece:?} in:\n{stdout}");
    }
}

#[test]
fn fuzz_counts_are_pinned() {
    let out = verify(&["fuzz", "--iters", "40", "--seed", "7"]);
    assert_prints(
        &out,
        &[
            "fuzz: 40 designs in ",
            "| agreed 40 skipped 0 diverged 0\n",
            "coverage: 70 keys, 285 bucketed points | 356 cycles simulated | corpus 29\n",
        ],
    );
}

#[test]
fn bmc_counts_are_pinned() {
    let out = verify(&["bmc", "--designs", "4", "--k", "8", "--seed", "3"]);
    assert_prints(
        &out,
        &[
            "bmc: 4 proved, 0 refuted, 0 out of fragment at K=8 in ",
            "| 6858 gates, 0 conflicts\n",
        ],
    );
}

/// Left out: hibernates (the sweeper fires on wall-clock idleness),
/// faults injected (a fault fires on the n-th consult of a site, and
/// how many consults a batch makes depends on which shard ran what
/// when) and oracle ticks batched (a solo oracle leaves its software
/// engine once its background compile lands, which is host timing).
#[test]
fn soak_counts_are_pinned() {
    let out = verify(&["soak", "--sessions", "24", "--seed", "7"]);
    assert_prints(
        &out,
        &[
            "soak: 24 sessions / 2 batches in ",
            "| 1707 ticks, 80 display lines, ",
        ],
    );
}

/// Left out: warm hits (whether a recovered server finds a bitstream in
/// the store depends on whether the background compile finished before
/// the crash).
#[test]
fn crash_counts_are_pinned() {
    let out = verify(&[
        "crash",
        "--seed",
        "11",
        "--seeds",
        "1",
        "--tenants",
        "2",
        "--bursts",
        "2",
    ]);
    assert_prints(
        &out,
        &[
            "crash: 24 crash points / 24 write points across 1 seeds in ",
            "| 25 recoveries, 41 resumes, 224 records replayed, 10 quarantined, ",
        ],
    );
}
