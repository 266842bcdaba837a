//! The toolchain runs behind the interactive loop: every toolchain thread
//! — a server's compile-pool workers, a bare runtime's one compile worker
//! — sits at nice 10, and every other thread stays at nice 0. A bare
//! runtime compiles every version on that one worker, which lives until
//! the runtime is dropped. One test in a binary of its own, so the process
//! holds no threads but the ones it inspects.

#![cfg(target_os = "linux")]

use cascade_core::{JitConfig, Runtime};
use cascade_fpga::Board;
use cascade_serve::{InProcClient, ServeConfig, Server};
use cascade_workloads::sha256::{miner_verilog, Flavor, MinerConfig};
use std::time::{Duration, Instant};

/// `(tid, nice)` of every live thread of this process.
fn threads() -> Vec<(u64, i64)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .flatten()
    {
        // A thread that exited since the directory was listed is skipped.
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // The fields after the parenthesised command name start at field
        // 3 (`state`); nice is field 19.
        let rest = &stat[stat.rfind(')').expect("command name") + 1..];
        let nice = rest
            .split_whitespace()
            .nth(16)
            .and_then(|f| f.parse().ok())
            .expect("nice field");
        let tid = entry.file_name().to_string_lossy().parse().expect("tid");
        out.push((tid, nice));
    }
    out
}

/// The thread table once `done` holds of it; panics after 30 s.
fn wait_for(what: &str, done: impl Fn(&[(u64, i64)]) -> bool) -> Vec<(u64, i64)> {
    let start = Instant::now();
    loop {
        let table = threads();
        if done(&table) {
            return table;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}: {table:?}"
        );
        std::thread::yield_now();
    }
}

fn at(table: &[(u64, i64)], nice: i64) -> usize {
    table.iter().filter(|(_, n)| *n == nice).count()
}

#[test]
fn toolchain_threads_run_at_background_priority() {
    // Served: after a session has evaluated, run and had its compile land,
    // exactly the two compile workers are lowered.
    let server = Server::new(ServeConfig {
        compile_workers: 2,
        ..ServeConfig::quick()
    });
    let mut client = InProcClient::connect(&server);
    client.open().expect("open");
    client
        .eval_all(
            "reg [7:0] cnt = 0;\n\
             always @(posedge clk.val) cnt <= cnt + 1;\n\
             assign led.val = cnt;",
        )
        .expect("eval");
    client.run(100).expect("run");
    client.wait_compile().expect("compile");
    let table = wait_for("both compile workers lowered", |t| at(t, 10) >= 2);
    assert_eq!(at(&table, 10), 2, "compile workers at nice 10: {table:?}");
    assert_eq!(
        at(&table, 0),
        table.len() - 2,
        "every other thread at nice 0: {table:?}"
    );
    drop(client);
    drop(server);

    // Bare: a runtime starts one compile worker at its first eval; it
    // reads nice 10 while its compile (the miner's synthesis and
    // place-and-route) runs, and the next eval's compile runs on it too.
    let before: Vec<u64> = threads().into_iter().map(|(tid, _)| tid).collect();
    let spawned = |table: &[(u64, i64)]| -> Vec<(u64, i64)> {
        table
            .iter()
            .filter(|(tid, _)| !before.contains(tid))
            .copied()
            .collect()
    };
    let mut rt = Runtime::new(Board::new(), JitConfig::default()).expect("runtime");
    assert!(spawned(&threads()).is_empty(), "no worker before an eval");
    let miner = miner_verilog(
        &MinerConfig {
            data: 0x5eed_b10c,
            target: 1,
            start_nonce: 0,
            announce: true,
            use_functions: false,
        },
        Flavor::Cascade,
    );
    let mut worker = None;
    for (i, src) in [
        miner.as_str(),
        "reg [7:0] edit = 0;\n\
         always @(posedge clk.val) edit <= edit + 1;\n\
         assign gpio.out = edit;",
    ]
    .into_iter()
    .enumerate()
    {
        rt.eval(src).expect("eval");
        let table = wait_for("the compile worker lowered", |t| {
            spawned(t).iter().any(|(_, n)| *n == 10)
        });
        let new = spawned(&table);
        assert_eq!(new.len(), 1, "one compile worker, eval {i}: {table:?}");
        assert_eq!(*worker.get_or_insert(new[0].0), new[0].0, "eval {i}");
        assert_eq!(at(&table, 0), table.len() - 1, "{table:?}");
        rt.wait_for_compile_worker();
    }
    assert_eq!(rt.stats().compile_cache_misses, 2, "both versions compiled");
    drop(rt);
    wait_for("the compile worker gone with its runtime", |t| {
        spawned(t).is_empty()
    });
}
