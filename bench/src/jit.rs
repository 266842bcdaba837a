//! The paper's loop on a bare `Runtime` (Fig. 11 / Fig. 12): eval a design,
//! run it in software until the background compile lands and the program
//! migrates to hardware, run a fixed hardware window, append one item,
//! reach hardware again, run a second window. Repeated for the window on a
//! fresh runtime each time.

use crate::gen::Design;
use crate::layers::Artifacts;
use crate::span::Tracer;
use crate::stats::{Recorder, Samples};
use cascade_bits::Bits;
use cascade_core::{ExecMode, JitConfig, Runtime};
use cascade_fpga::Board;
use std::time::{Duration, Instant};

/// Ticks per `run_ticks` call, in every phase: the user-visible unit of
/// progress and the grain at which the mode flip is observed.
pub const CHUNK: u64 = 256;
/// Ticks per hardware window.
pub const HW_WINDOW: u64 = 65_536;
/// A rep that has not reached hardware after this many software ticks never
/// will; ten times the miner's deterministic 139 008.
const SW_TICK_LIMIT: u64 = 1_500_000;

/// The configuration the Fig. 11/12 loops run under.
///
/// `time_scale` is 0.05, not smaller: the compile watchdog is *virtual*
/// (3600 s x scale) while the compile worker runs in *host* time. At
/// 1e-3 and below the miner's few host milliseconds of synthesis and
/// placement outlast the scaled watchdog, every attempt is cancelled as
/// `ToolchainHang`, retries exhaust and the session never promotes.
/// `wait_for_compile_worker` before the first tick closes the same race
/// from the other side, and a rep that still never reaches hardware is a
/// hard error below, not a slow sample.
pub fn paper_config() -> JitConfig {
    let mut c = JitConfig::default();
    c.toolchain.time_scale = 0.05;
    c
}

/// When a pass ends: a time-based window, which finishes the unit of work
/// it is in and does at least one, or a fixed count.
pub enum Stop {
    After(Duration),
    Reps(u64),
}

impl Stop {
    /// Whether a pass that began at `begin` and has finished `done` units
    /// of work is over.
    pub fn done(&self, begin: Instant, done: u64) -> bool {
        match self {
            Stop::After(window) => done > 0 && begin.elapsed() >= *window,
            Stop::Reps(n) => done >= *n,
        }
    }
}

#[derive(Default)]
pub struct JitOut {
    pub reps: u64,
    pub elapsed: Duration,
    pub ticks: u64,
    /// Product calls made: `eval`, `wait_for_compile_worker`, `run_ticks`.
    pub calls: u64,
    pub eval_us: Samples,
    pub run_us: Samples,
    pub time_to_hw_ms: Samples,
    pub edit_to_hw_ms: Samples,
    pub virt_time_to_hw_s: Samples,
    pub virt_edit_to_hw_s: Samples,
    pub compile_wait_ms: Samples,
    /// The one `run_ticks` chunk inside which the engines were swapped.
    pub migrate_ms: Samples,
    pub sw_ticks: u64,
    pub sw_time: Duration,
    pub hw_ticks: u64,
    pub hw_time: Duration,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rec: Recorder,
}

impl JitOut {
    pub fn sw_ticks_per_s(&self) -> f64 {
        self.sw_ticks as f64 / self.sw_time.as_secs_f64()
    }

    pub fn hw_ticks_per_s(&self) -> f64 {
        self.hw_ticks as f64 / self.hw_time.as_secs_f64()
    }
}

/// A bare runtime on its own board, clocked in `CHUNK`s and fed as it goes.
pub struct Driven<'a> {
    pub rt: Runtime,
    board: Board,
    design: &'a Design,
    /// FIFO bytes pushed so far.
    fed: usize,
    ticks: u64,
}

impl<'a> Driven<'a> {
    pub fn new(design: &'a Design, jit: &JitConfig) -> Result<Driven<'a>, String> {
        let board = Board::new();
        board.set_fifo_capacity(1 << 20);
        let rt = Runtime::new(board.clone(), jit.clone()).map_err(|e| e.to_string())?;
        Ok(Driven {
            rt,
            board,
            design,
            fed: 0,
            ticks: 0,
        })
    }

    /// One timed `run_ticks(CHUNK)`; with `feed`, a design that reads the
    /// FIFO first gets one byte per tick.
    pub fn chunk(&mut self, feed: bool) -> (Result<u64, String>, Duration) {
        let stream = &self.design.feed;
        if feed && !stream.is_empty() {
            for i in 0..CHUNK as usize {
                let b = stream[(self.fed + i) % stream.len()];
                self.board.fifo_push(Bits::from_u64(8, b as u64));
            }
            self.fed += CHUNK as usize;
        }
        let t = Instant::now();
        let ran = self.rt.run_ticks(CHUNK).map_err(|e| e.to_string());
        let dur = t.elapsed();
        self.ticks += CHUNK;
        (ran, dur)
    }

    pub fn in_hardware(&self) -> bool {
        matches!(
            self.rt.mode(),
            ExecMode::Hardware | ExecMode::HardwareForwarded
        )
    }

    /// Chunks until the program runs in hardware. A design that has not
    /// been promoted after `SW_TICK_LIMIT` software ticks never will be.
    fn promote(&mut self) -> Result<(), String> {
        self.rt.wait_for_compile_worker();
        while !self.in_hardware() {
            self.chunk(true).0?;
            if self.ticks > SW_TICK_LIMIT {
                return Err(format!(
                    "no promotion after {} ticks: {:?}",
                    self.ticks,
                    self.rt.stats()
                ));
            }
        }
        Ok(())
    }
}

/// The same design held in each engine: one runtime that never compiles
/// and so stays in software, one already promoted.
pub struct Steady<'a> {
    pub sw: Driven<'a>,
    pub hw: Driven<'a>,
}

impl<'a> Steady<'a> {
    pub fn build(d: &'a Design, jit: &JitConfig) -> Result<Steady<'a>, String> {
        let mut sw = Driven::new(
            d,
            &JitConfig {
                auto_compile: false,
                ..jit.clone()
            },
        )?;
        sw.rt.eval(&d.cascade_src).map_err(|e| e.to_string())?;
        let mut hw = Driven::new(d, jit)?;
        hw.rt.eval(&d.cascade_src).map_err(|e| e.to_string())?;
        hw.promote()?;
        Ok(Steady { sw, hw })
    }

    /// Nanoseconds per tick through `Runtime::run_ticks` in each engine:
    /// `(software, hardware)`, each the median over `chunks` chunks.
    pub fn tick_ns(&mut self, chunks: usize) -> Result<(f64, f64), String> {
        let median = |engine: &mut Driven| -> Result<f64, String> {
            let mut s = Samples::default();
            for _ in 0..chunks {
                let (ran, dur) = engine.chunk(true);
                ran?;
                s.push(dur.as_secs_f64() * 1e9 / CHUNK as f64);
            }
            Ok(s.p(50.0))
        };
        Ok((median(&mut self.sw)?, median(&mut self.hw)?))
    }
}

/// One chunk, booked: a latency sample if it ran what was asked.
fn chunk(rep: &mut Driven, out: &mut JitOut, feed: bool) -> Duration {
    let (ran, dur) = rep.chunk(feed);
    out.calls += 1;
    if out.rec.check(ran == Ok(CHUNK), || {
        format!("run_ticks({CHUNK}) -> {ran:?}")
    }) {
        out.run_us.push_us(dur);
    }
    out.ticks += CHUNK;
    dur
}

/// What one trip from `eval` to the first hardware tick cost, phase by
/// phase; the four phases partition `total`.
struct ToHw {
    start: Instant,
    eval: Duration,
    wait: Duration,
    sw: Duration,
    sw_ticks: u64,
    migrate: Duration,
    total: Duration,
    virt_s: f64,
}

fn to_hardware(rep: &mut Driven, src: &str, out: &mut JitOut) -> Result<ToHw, String> {
    let virt0 = rep.rt.wall_seconds();
    let start = Instant::now();
    let r = rep.rt.eval(src);
    let eval = start.elapsed();
    out.calls += 1;
    if out.rec.check(r.is_ok(), || format!("eval -> {r:?}")) {
        out.eval_us.push_us(eval);
    }
    let t = Instant::now();
    rep.rt.wait_for_compile_worker();
    let wait = t.elapsed();
    out.calls += 1;
    let (mut sw, mut sw_ticks) = (Duration::ZERO, 0);
    let migrate = loop {
        let dur = chunk(rep, out, true);
        if rep.in_hardware() {
            break dur;
        }
        sw += dur;
        sw_ticks += CHUNK;
        if sw_ticks > SW_TICK_LIMIT {
            return Err(format!(
                "no promotion after {sw_ticks} software ticks (mode {:?}, stats {:?})",
                rep.rt.mode(),
                rep.rt.stats()
            ));
        }
    };
    out.sw_ticks += sw_ticks;
    out.sw_time += sw;
    Ok(ToHw {
        start,
        eval,
        wait,
        sw,
        sw_ticks,
        migrate,
        total: start.elapsed(),
        virt_s: rep.rt.wall_seconds() - virt0,
    })
}

fn hw_window(rep: &mut Driven, out: &mut JitOut) -> (Instant, Duration) {
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    for _ in 0..HW_WINDOW / CHUNK {
        busy += chunk(rep, out, true);
    }
    out.rec.check(rep.in_hardware(), || {
        "left hardware inside a hardware window".to_string()
    });
    out.hw_ticks += HW_WINDOW;
    out.hw_time += busy;
    (start, busy)
}

/// Replays one trip's input through the layers below `core` and hangs the
/// replays under the phase spans.
fn trace_trip(
    tr: &mut Tracer,
    req: u64,
    art: &mut Artifacts,
    d: &Design,
    jit: &JitConfig,
    trip: &ToHw,
    root_name: &'static str,
) {
    let root = tr.root(req, "core", root_name, trip.start, trip.total);
    let eval = tr.child(root, "core", "eval", trip.eval);
    art.replay_frontend(tr, eval, d);
    let wait = tr.child(root, "core", "compile_wait", trip.wait);
    art.replay_toolchain(tr, wait, jit);
    let sw = tr.child(root, "core", "sw_window", trip.sw);
    tr.count("core.sw_ticks", trip.sw_ticks);
    tr.time(sw, "sim", "ticks", || art.sw.ticks(trip.sw_ticks, &d.feed));
    let promote = tr.child(root, "core", "promote", trip.migrate);
    tr.time(promote, "netlist", "sim_build", || art.build_netlist_sim());
}

fn trace_window(
    tr: &mut Tracer,
    req: u64,
    art: &mut Artifacts,
    d: &Design,
    start: Instant,
    busy: Duration,
) {
    let root = tr.root(req, "core", "hw_window", start, busy);
    tr.count("core.hw_ticks", HW_WINDOW);
    tr.time(root, "netlist", "cycles", || {
        art.hw.cycles(HW_WINDOW, &d.feed)
    });
    if !d.feed.is_empty() {
        tr.time(root, "fpga", "fifo_ops", || art.fifo_ops(HW_WINDOW));
    }
}

/// Runs reps of the phase script until `stop`. With a tracer, every phase
/// is a span and its input is replayed through the lower layers' public
/// calls as child spans.
pub fn jit_pass(
    d: &Design,
    jit: &JitConfig,
    stop: &Stop,
    mut trace: Option<(&mut Tracer, &mut Artifacts)>,
) -> Result<JitOut, String> {
    let mut out = JitOut::default();
    let begin = Instant::now();
    while !stop.done(begin, out.reps) {
        let mut rep = Driven::new(d, jit)?;
        let req = out.reps;

        let first = to_hardware(&mut rep, &d.cascade_src, &mut out)?;
        out.time_to_hw_ms.push_ms(first.total);
        out.virt_time_to_hw_s.push(first.virt_s);
        out.compile_wait_ms.push_ms(first.wait);
        out.migrate_ms.push_ms(first.migrate);
        let w1 = hw_window(&mut rep, &mut out);

        let edit_at = rep.ticks;
        let second = to_hardware(&mut rep, &d.edit_src, &mut out)?;
        out.edit_to_hw_ms.push_ms(second.total);
        out.virt_edit_to_hw_s.push(second.virt_s);
        let w2 = hw_window(&mut rep, &mut out);

        // Oracle. Let a FIFO design swallow what it was fed, then compare
        // live state with the closed forms: the state crossed two
        // promotions and one demotion to get here.
        let consumed: Vec<u8> = d.feed.iter().cycle().take(rep.fed).copied().collect();
        while rep.board.fifo_nonempty() {
            chunk(&mut rep, &mut out, false);
        }
        if !d.feed.is_empty() {
            chunk(&mut rep, &mut out, false);
        }
        let mut want = (d.expect)(rep.ticks, &consumed);
        want.push((
            d.edit_port.clone(),
            (d.edit_stride * (rep.ticks - edit_at)) & 0xff,
        ));
        for (port, want) in want {
            let got = rep.rt.probe(&port).map(|b| b.to_u64());
            out.rec.check(got == Some(want), || {
                format!("probe {port}: want {want}, got {got:?}")
            });
        }
        let stats = rep.rt.stats();
        out.cache_hits += stats.compile_cache_hits;
        out.cache_misses += stats.compile_cache_misses;
        out.reps += 1;

        if let Some((tr, art)) = &mut trace {
            trace_trip(tr, req, art, d, jit, &first, "time_to_hw");
            trace_window(tr, req, art, d, w1.0, w1.1);
            trace_trip(tr, req, art, d, jit, &second, "edit_to_hw");
            trace_window(tr, req, art, d, w2.0, w2.1);
        }
    }
    out.elapsed = begin.elapsed();
    Ok(out)
}

/// The announce path end to end: a miner whose target is reachable must
/// print exactly the line `sha256::find_nonce` predicts, then `$finish`.
pub fn announced_rep(src: &str, found: &str, jit: &JitConfig, rec: &mut Recorder) {
    let run = || -> Result<Vec<String>, String> {
        let mut rt = Runtime::new(Board::new(), jit.clone()).map_err(|e| e.to_string())?;
        rt.eval(src).map_err(|e| e.to_string())?;
        let mut ticks = 0;
        while !rt.is_finished() && ticks < SW_TICK_LIMIT {
            ticks += rt.run_ticks(CHUNK).map_err(|e| e.to_string())?.max(1);
        }
        Ok(rt.drain_output())
    };
    let got = run();
    rec.check(
        got.as_ref().is_ok_and(|o| o.iter().any(|l| l == found)),
        || format!("announced miner: want `{found}`, got {got:?}"),
    );
}
