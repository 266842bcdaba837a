//! One row per layer, timed from outside: each probe calls a crate's
//! public API on the workload's own generated design. The same calls are
//! what the traced passes replay under their spans.

use crate::gen::Design;
use crate::span::Tracer;
use crate::stats::Samples;
use crate::Report;
use cascade_bits::Bits;
use cascade_core::JitConfig;
use cascade_durable::{BitstreamStore, DurableFs};
use cascade_fpga::{place, Board, FaultPlan};
use cascade_netlist::{fingerprint, synthesize, BatchHarness, NetId, Netlist, NetlistSim};
use cascade_serve::Request;
use cascade_sim::{elaborate, library_from_source, CompiledSim, VarId};
use cascade_trace::TraceSink;
use cascade_verilog::ast::Module;
use cascade_verilog::typecheck::{check_module, ModuleLibrary, ParamEnv};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The bytecode engine on the ported design, clocked as `jit_regex` clocks
/// it: one input byte per tick when the design has a byte port.
pub struct SwDriver {
    sim: CompiledSim,
    clk: VarId,
    io: Option<(VarId, VarId)>,
    pos: usize,
}

impl SwDriver {
    pub fn ticks(&mut self, n: u64, feed: &[u8]) {
        for _ in 0..n {
            if let Some((byte_in, valid)) = self.io {
                self.sim.poke_id(
                    byte_in,
                    Bits::from_u64(8, feed[self.pos % feed.len()] as u64),
                );
                self.sim.poke_id(valid, Bits::from_u64(1, 1));
                self.pos += 1;
            }
            self.sim.tick_id(self.clk).expect("generated design ticks");
        }
        self.sim.drain_events();
    }
}

/// The netlist engine on the synthesized design, clocked the same way.
pub struct HwDriver {
    sim: NetlistSim,
    io: Option<(NetId, NetId)>,
    pos: usize,
}

impl HwDriver {
    pub fn cycles(&mut self, n: u64, feed: &[u8]) {
        match self.io {
            None => {
                self.sim.run_cycles(n, usize::MAX);
            }
            Some((byte_in, valid)) => {
                for _ in 0..n {
                    self.sim.set_input(
                        byte_in,
                        Bits::from_u64(8, feed[self.pos % feed.len()] as u64),
                    );
                    self.sim.set_input(valid, Bits::from_u64(1, 1));
                    self.pos += 1;
                    self.sim.step_clock(0);
                }
            }
        }
        self.sim.drain_tasks();
    }
}

/// A design taken through every stage once, kept for the probes and the
/// span replays to call into.
pub struct Artifacts {
    module: Module,
    lib: ModuleLibrary,
    design: Arc<cascade_sim::Design>,
    netlist: Arc<Netlist>,
    pub sw: SwDriver,
    pub hw: HwDriver,
    board: Board,
}

impl Artifacts {
    pub fn build(d: &Design) -> Artifacts {
        let lib = library_from_source(&d.ported_src).expect("generated design parses");
        let module = lib.get(d.top).expect("top module present").clone();
        let design = Arc::new(
            elaborate(d.top, &lib, &ParamEnv::new()).expect("generated design elaborates"),
        );
        let netlist = Arc::new(synthesize(&design).expect("generated design synthesizes"));
        let mut sim = CompiledSim::new(Arc::clone(&design));
        sim.initialize().expect("generated design initializes");
        let sw = SwDriver {
            clk: design.var("clk").expect("clk port"),
            io: design.var("byte_in").zip(design.var("valid")),
            sim,
            pos: 0,
        };
        let hw = HwDriver {
            sim: NetlistSim::new(Arc::clone(&netlist)).expect("generated design levelizes"),
            io: netlist
                .net_by_name("byte_in")
                .zip(netlist.net_by_name("valid")),
            pos: 0,
        };
        Artifacts {
            module,
            lib,
            design,
            netlist,
            sw,
            hw,
            board: Board::new(),
        }
    }

    pub fn build_netlist_sim(&self) {
        black_box(NetlistSim::new(Arc::clone(&self.netlist)).expect("levelizes"));
    }

    /// `n` push/pop pairs through the board FIFO.
    pub fn fifo_ops(&self, n: u64) {
        for i in 0..n {
            self.board.fifo_push(Bits::from_u64(8, i & 0xff));
            black_box(self.board.fifo_pop());
        }
    }

    /// What `Runtime::eval` does below `core`, as children of `parent`.
    pub fn replay_frontend(&self, tr: &mut Tracer, parent: u32, d: &Design) {
        frontend_spans(tr, parent, &d.cascade_src, &self.lib, &self.module);
    }

    /// What the compile worker does, as children of `parent`.
    pub fn replay_toolchain(&self, tr: &mut Tracer, parent: u32, jit: &JitConfig) {
        tr.time(parent, "netlist", "synthesize", || {
            black_box(synthesize(&self.design).is_ok())
        });
        let tc = &jit.toolchain;
        let (_, compile) = tr.time(parent, "fpga", "compile_netlist", || {
            black_box(tc.compile_netlist(Arc::clone(&self.netlist)).is_ok())
        });
        tr.time(compile, "fpga", "place", || {
            black_box(place(&self.netlist, tc.seed, tc.effort))
        });
    }
}

/// The frontend stages of one eval as children of `parent`: parse the text
/// that was eval'ed, then type-check, elaborate and bytecode-compile `top`,
/// the whole program it leaves behind.
pub fn frontend_spans(
    tr: &mut Tracer,
    parent: u32,
    evaled: &str,
    lib: &ModuleLibrary,
    top: &Module,
) {
    let env = ParamEnv::new();
    tr.time(parent, "verilog", "parse", || {
        black_box(cascade_verilog::parse(evaled).is_ok())
    });
    tr.time(parent, "verilog", "typecheck", || {
        black_box(check_module(top, &env, lib).is_ok())
    });
    let (design, _) = tr.time(parent, "sim", "elaborate", || {
        elaborate(&top.name, lib, &env)
    });
    if let Ok(design) = design {
        tr.time(parent, "sim", "sw_compile", || {
            black_box(CompiledSim::new(Arc::new(design)))
        });
    }
}

/// Median seconds per call of `f`: at least five calls, then more until
/// 40 ms have been spent.
fn per_call(mut f: impl FnMut()) -> (f64, usize) {
    let mut s = Samples::default();
    let begin = Instant::now();
    while s.len() < 5 || (begin.elapsed() < Duration::from_millis(40) && s.len() < 2000) {
        let t = Instant::now();
        f();
        s.push(t.elapsed().as_secs_f64());
    }
    (s.p(50.0), s.len())
}

const LOOP: u64 = 4096;

/// The frontend, engine, toolchain, store and codec rows.
pub fn micro(d: &Design, art: &mut Artifacts, jit: &JitConfig, scratch: &Path, r: &mut Report) {
    let env = ParamEnv::new();
    let put = |r: &mut Report, name: &str, scale: f64, (secs, n): (f64, usize)| {
        r.put(name, secs * scale, n)
    };

    put(
        r,
        "verilog.parse_us",
        1e6,
        per_call(|| {
            black_box(cascade_verilog::parse(&d.ported_src).is_ok());
        }),
    );
    put(
        r,
        "verilog.typecheck_us",
        1e6,
        per_call(|| {
            black_box(check_module(&art.module, &env, &art.lib).is_ok());
        }),
    );
    r.put("verilog.src_bytes", d.cascade_src.len() as f64, 1);
    put(
        r,
        "sim.elaborate_us",
        1e6,
        per_call(|| {
            black_box(elaborate(d.top, &art.lib, &env).is_ok());
        }),
    );
    put(
        r,
        "sim.sw_compile_us",
        1e6,
        per_call(|| {
            black_box(CompiledSim::new(Arc::clone(&art.design)));
        }),
    );
    r.put(
        "sim.program_ops",
        CompiledSim::new(Arc::clone(&art.design))
            .program()
            .stats()
            .ops as f64,
        1,
    );
    put(
        r,
        "sim.tick_ns",
        1e9 / LOOP as f64,
        per_call(|| art.sw.ticks(LOOP, &d.feed)),
    );

    put(
        r,
        "netlist.synthesize_ms",
        1e3,
        per_call(|| {
            black_box(synthesize(&art.design).is_ok());
        }),
    );
    put(
        r,
        "netlist.sim_build_ms",
        1e3,
        per_call(|| art.build_netlist_sim()),
    );
    r.put(
        "netlist.levels",
        art.hw.sim.program_stats().levels as f64,
        1,
    );
    put(
        r,
        "netlist.cycle_ns",
        1e9 / LOOP as f64,
        per_call(|| art.hw.cycles(LOOP, &d.feed)),
    );
    for (lanes, name) in [
        (64, "netlist.batch64_lane_cycle_ns"),
        (1, "netlist.batch1_cycle_ns"),
    ] {
        let mut h = BatchHarness::new(Arc::clone(&art.netlist), lanes).expect("levelizes");
        if let Some(valid) = art.netlist.net_by_name("valid") {
            h.set_all(valid, Bits::from_u64(1, 1));
        }
        put(
            r,
            name,
            1e9 / (256 * lanes) as f64,
            per_call(|| {
                h.run_cycles(256);
                h.drain_tasks();
            }),
        );
    }

    let tc = &jit.toolchain;
    put(
        r,
        "fpga.compile_ms",
        1e3,
        per_call(|| {
            black_box(tc.compile_netlist(Arc::clone(&art.netlist)).is_ok());
        }),
    );
    put(
        r,
        "fpga.place_ms",
        1e3,
        per_call(|| {
            black_box(place(&art.netlist, tc.seed, tc.effort));
        }),
    );
    let bitstream = tc
        .compile_netlist(Arc::clone(&art.netlist))
        .expect("generated design fits and closes timing");
    r.put("netlist.cells", bitstream.placement.cells as f64, 1);
    r.put(
        "fpga.modeled_compile_s",
        bitstream.modeled_duration.as_secs_f64(),
        1,
    );
    put(
        r,
        "fpga.fifo_op_ns",
        1e9 / LOOP as f64,
        per_call(|| art.fifo_ops(LOOP)),
    );

    let fs = DurableFs::new(FaultPlan::none());
    let journal = scratch.join("probe.jnl");
    put(
        r,
        "durable.append_us",
        1e6,
        per_call(|| {
            fs.append(&journal, &[0x5a; 64])
                .expect("append to scratch journal");
        }),
    );
    let store = BitstreamStore::open(scratch.join("probe-store"), fs);
    let (fp, key) = (
        fingerprint(&art.netlist),
        tc.cache_key(fingerprint(&art.netlist)),
    );
    store.save(key, fp, &bitstream);
    put(
        r,
        "durable.store_load_ms",
        1e3,
        per_call(|| {
            assert!(
                store.load(key, fp, Arc::clone(&art.netlist)).is_some(),
                "saved bitstream loads"
            );
        }),
    );

    let first_line = d.cascade_src.lines().next().unwrap_or_default();
    let request = Request::Eval {
        session: 7,
        line: first_line.to_string(),
        seq: 0,
    };
    let line = request.to_line();
    put(
        r,
        "serve.json_encode_us",
        1e6 / 64.0,
        per_call(|| {
            for _ in 0..64 {
                black_box(request.to_line());
            }
        }),
    );
    put(
        r,
        "serve.json_parse_us",
        1e6 / 64.0,
        per_call(|| {
            for _ in 0..64 {
                black_box(Request::parse(&line).is_ok());
            }
        }),
    );

    let sink = TraceSink::ring(1 << 16);
    put(
        r,
        "trace.emit_ns",
        1e9 / LOOP as f64,
        per_call(|| {
            for i in 0..LOOP {
                sink.span(1, "bench", "probe", i, 1, &[]);
            }
        }),
    );
}
