//! Streaming regex matching over the stdlib FIFO (paper Sec. 6.2).
//!
//! Compiles a Snort-style pattern to a DFA, emits the Verilog matcher, and
//! streams an HTTP-ish byte soup through the board FIFO one byte at a time
//! — first interpreted, then in virtual hardware — comparing the measured
//! IO rates and validating the match count against the Rust DFA.
//!
//! Run with: `cargo run --release -p cascade-bench --example regex_stream`

use cascade_bits::Bits;
use cascade_core::{JitConfig, Runtime};
use cascade_fpga::Board;
use cascade_workloads::regex::{compile, matcher_verilog, Flavor};

const PATTERN: &str = "GET |POST |HEAD ";

fn traffic(n: usize) -> Vec<u8> {
    let requests: &[&[u8]] = &[
        b"GET /a ",
        b"POST /b ",
        b"PUT /c ",
        b"HEAD /d ",
        b"noise....",
    ];
    let mut out = Vec::with_capacity(n);
    let mut i = 0;
    while out.len() < n {
        out.extend_from_slice(requests[i % requests.len()]);
        i += 1;
    }
    out.truncate(n);
    out
}

fn main() -> Result<(), cascade_core::CascadeError> {
    let dfa = compile(PATTERN).expect("pattern compiles");
    println!(
        "pattern `{PATTERN}` compiled to a {}-state DFA",
        dfa.states()
    );
    let input = traffic(4_000);
    let expected = dfa.count_matches(&input);
    println!(
        "reference match count over {} bytes: {expected}",
        input.len()
    );

    let board = Board::new();
    board.set_fifo_capacity(1 << 16);
    let mut rt = Runtime::new(board.clone(), JitConfig::default())?;
    rt.eval(&matcher_verilog(&dfa, Flavor::Cascade))?;

    // Software phase: push a slice of the traffic and measure IO/s.
    for &b in &input[..1000] {
        board.fifo_push(Bits::from_u64(8, b as u64));
    }
    let w0 = rt.wall_seconds();
    rt.run_ticks(1_100)?;
    let sw_ios = (board.fifo_pops()) as f64 / (rt.wall_seconds() - w0);
    println!(
        "software phase: {:.1} KIO/s ({:?}, {} bytes consumed, {} of {} ticks in the plane batch)",
        sw_ios / 1e3,
        rt.mode(),
        board.fifo_pops(),
        rt.data_plane_batched_ticks(),
        rt.ticks()
    );

    // Migrate.
    rt.wait_for_compile_worker();
    let ready = rt.compile_ready_at().expect("compile in flight");
    rt.advance_wall((ready - rt.wall_seconds()).max(0.0) + 1.0);
    rt.run_ticks(1)?;
    println!("migrated: mode={:?}", rt.mode());

    // Hardware phase: the rest of the stream.
    for &b in &input[1000..] {
        board.fifo_push(Bits::from_u64(8, b as u64));
    }
    let p0 = board.fifo_pops();
    let w1 = rt.wall_seconds();
    rt.run_ticks(input.len() as u64)?;
    let hw_ios = (board.fifo_pops() - p0) as f64 / (rt.wall_seconds() - w1);
    println!("hardware phase: {:.1} KIO/s", hw_ios / 1e3);

    assert_eq!(board.fifo_pops(), input.len() as u64, "every byte consumed");
    let leds = board.leds().to_u64();
    assert_eq!(leds, expected & 0xff, "match counter on the LEDs agrees");
    println!(
        "match counter (low 8 bits on LEDs): {leds} == reference {} — OK; speedup {:.0}x",
        expected & 0xff,
        hw_ios / sw_ios
    );
    Ok(())
}
