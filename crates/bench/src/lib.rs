//! Shared harness code for regenerating the Cascade paper's figures and
//! tables (see DESIGN.md's experiment index and EXPERIMENTS.md for the
//! recorded results).
//!
//! Each `src/bin/figNN_*.rs` binary prints the rows/series the paper
//! reports, computed against the *modeled* wall clock (deterministic,
//! machine-independent). The Criterion benches under `benches/` measure
//! *real* throughput of the substrates on the host machine.

pub mod harness;

pub use harness::{git_describe, schema_header};

use cascade_core::{JitConfig, Runtime};
use cascade_fpga::Board;
use cascade_trace::{Arg, SpanRef, TraceSink};

/// A sampled performance curve: `(modeled seconds, cumulative work)`.
#[derive(Debug, Clone, Default)]
pub struct Curve {
    pub points: Vec<(f64, u64)>,
    pub label: String,
}

impl Curve {
    /// Creates an empty curve.
    pub fn new(label: impl Into<String>) -> Self {
        Curve {
            points: Vec::new(),
            label: label.into(),
        }
    }

    /// Records a sample.
    pub fn push(&mut self, seconds: f64, work: u64) {
        self.points.push((seconds, work));
    }

    /// The instantaneous rate at the last sample (work/s over the final
    /// interval).
    pub fn last_rate(&self) -> f64 {
        match self.points.len() {
            0 | 1 => 0.0,
            n => {
                let (t1, w1) = self.points[n - 1];
                let (t0, w0) = self.points[n - 2];
                if t1 > t0 {
                    (w1 - w0) as f64 / (t1 - t0)
                } else {
                    0.0
                }
            }
        }
    }

    /// Rate between consecutive samples, as `(mid time, rate)` pairs.
    pub fn rates(&self) -> Vec<(f64, f64)> {
        self.points
            .windows(2)
            .filter(|w| w[1].0 > w[0].0)
            .map(|w| {
                let rate = (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0);
                ((w[0].0 + w[1].0) / 2.0, rate)
            })
            .collect()
    }
}

/// Formats a rate in engineering units (Hz / KHz / MHz).
pub fn fmt_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.1} MHz", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1} KHz", rate / 1e3)
    } else {
        format!("{rate:.0} Hz")
    }
}

/// Builds a runtime on a fresh board.
pub fn fresh_runtime(config: JitConfig) -> (Runtime, Board) {
    let board = Board::new();
    let rt = Runtime::new(board.clone(), config).expect("runtime construction");
    (rt, board)
}

/// Prints a two-column table of `(time, rate)` rows for gnuplot-style
/// consumption.
pub fn print_series(name: &str, series: &[(f64, f64)]) {
    println!("# series: {name}");
    println!("# time_s rate_per_s");
    for (t, r) in series {
        println!("{t:.3} {r:.1}");
    }
    println!();
}

/// Events one served edit cycle records into the shared trace ring.
pub const SERVED_CYCLE_EVENTS: u64 = 6;

/// Emits what a served session records for one edit cycle — an `eval`
/// request (software compile, background submit, eval span, host
/// breakdown, request root with its eight phase columns) and the `run`
/// request that follows it — with values the size real traffic carries.
/// `bench_trace` and the zero-allocation test share it so the ring is
/// sized and timed on the mix the server actually produces.
pub fn emit_served_cycle(sink: &TraceSink, cycle: u64) {
    let track = 1 + cycle % 16;
    let virt_ns = cycle.wrapping_mul(515_199);
    let vary = |base: u64| base + cycle % 97;
    for req in [2 * cycle + 1, 2 * cycle + 2] {
        // Span ids as `RequestCtx` derives them, without its allocation.
        let root = req << 16;
        let at = |child: u64| SpanRef {
            tenant: track,
            req,
            span: root | child,
        };
        let mut name = "run";
        if req % 2 == 1 {
            name = "eval";
            let version = [("version", Arg::U64(cycle))];
            sink.span_ctx(
                track,
                "jit",
                "software_compile",
                virt_ns,
                0,
                at(1),
                root,
                &version,
            );
            sink.instant_ctx(track, "compile", "submit", virt_ns, at(2), root, &version);
            sink.span_ctx(track, "jit", "eval", virt_ns, 0, at(3), root, &version);
            sink.host_instant(
                track,
                "jit",
                "eval_host",
                &[
                    ("parse_ns", Arg::U64(vary(5_400))),
                    ("elaborate_ns", Arg::U64(vary(46_000))),
                    ("total_ns", Arg::U64(vary(172_000))),
                ],
            );
        }
        sink.host_span_ctx(
            track,
            "req",
            name,
            sink.host_ns(),
            vary(480_000),
            at(0),
            0,
            &[
                ("queue_us", Arg::U64(vary(15))),
                ("wake_us", Arg::U64(0)),
                ("compile_us", Arg::U64(0)),
                ("eval_sw_us", Arg::U64(vary(300))),
                ("eval_hw_us", Arg::U64(0)),
                ("flush_us", Arg::U64(0)),
                ("journal_us", Arg::U64(vary(4))),
                ("other_us", Arg::U64(vary(60))),
            ],
        );
    }
}
