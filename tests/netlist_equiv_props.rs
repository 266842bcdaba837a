//! Property-based equivalence of the compiled word-arena evaluator
//! ([`NetlistSim`]) against the event-driven interpreter ([`Simulator`]) and
//! the interpretive netlist walker ([`ReferenceSim`]) on randomized
//! synthesizable modules, *including system-task firings*: the peephole
//! passes (copy propagation, compare/select fusion, rotate fusion, cone
//! evaluation, DCE) and the no-mark dense-commit streaks must never change
//! an observable value, a `$display` rendering, or when `$finish` lands.
//!
//! Randomized with the in-tree deterministic [`Prng`] (no registry access in
//! the build environment, so `proptest` is unavailable). Every assertion
//! carries the case seed; rerun a failure by fixing the seed locally.

use cascade_bits::{Bits, Prng};
use cascade_netlist::{synthesize, BatchHarness, NetlistSim, ReferenceSim, TaskFire, TaskKind};
use cascade_sim::{elaborate, library_from_source, Design, SimEvent, Simulator};
use std::sync::Arc;

/// A random expression over inputs `a`/`b`, regs `r0..r2`, and literals.
fn arb_expr(rng: &mut Prng, depth: u32) -> String {
    if depth == 0 {
        match rng.below(6) {
            0 => rng.range(1, 0xffff).to_string(),
            1 => {
                let w = rng.range(1, 16);
                let v = rng.next_u64() & ((1u64 << w) - 1);
                format!("{w}'h{v:x}")
            }
            2 => "a".to_string(),
            3 => "b".to_string(),
            4 => format!("r{}", rng.below(3)),
            _ => "cc".to_string(),
        }
    } else {
        match rng.below(6) {
            0 => {
                let op = *rng.pick(&["+", "-", "*", "&", "|", "^", "<<", ">>", "==", "<"]);
                let l = arb_expr(rng, depth - 1);
                let r = arb_expr(rng, depth - 1);
                format!("({l} {op} {r})")
            }
            1 => {
                let c = arb_expr(rng, depth - 1);
                let t = arb_expr(rng, depth - 1);
                let f = arb_expr(rng, depth - 1);
                format!("({c} ? {t} : {f})")
            }
            2 => format!("(~{})", arb_expr(rng, depth - 1)),
            3 => format!("{{2{{{}}}}}", arb_expr(rng, depth - 1)),
            4 => {
                let l = arb_expr(rng, depth - 1);
                let r = arb_expr(rng, depth - 1);
                format!("{{{l}, {r}}}")
            }
            _ => {
                // A case over a narrow scrutinee selecting literals: the
                // shape the cone-evaluation pass turns into table probes.
                let s = arb_expr(rng, 0);
                let v: Vec<u64> = (0..3).map(|_| rng.next_u64() & 0xffff).collect();
                format!(
                    "(({s}[1:0] == 2'd0) ? 16'd{} : ({s}[1:0] == 2'd1) ? 16'd{} : 16'd{})",
                    v[0], v[1], v[2]
                )
            }
        }
    }
}

/// A random guarded-update statement over regs `r0..r2`.
fn arb_seq_stmt(rng: &mut Prng, depth: u32) -> String {
    let assign = |rng: &mut Prng| {
        let r = rng.below(3);
        let e = arb_expr(rng, 1);
        format!("r{r} <= {e};")
    };
    if depth == 0 {
        return assign(rng);
    }
    match rng.below(7) {
        0..=2 => assign(rng),
        3 | 4 => {
            let c = arb_expr(rng, 1);
            let t = arb_seq_stmt(rng, depth - 1);
            let e = arb_seq_stmt(rng, depth - 1);
            format!("if ({c}) begin {t} end else begin {e} end")
        }
        5 => {
            let scr = arb_expr(rng, 0);
            let x = arb_seq_stmt(rng, depth - 1);
            let y = arb_seq_stmt(rng, depth - 1);
            let z = arb_seq_stmt(rng, depth - 1);
            format!(
                "case ({scr}[1:0]) 2'd0: begin {x} end 2'd1: begin {y} end default: begin {z} end endcase"
            )
        }
        _ => {
            let x = arb_seq_stmt(rng, depth - 1);
            let y = arb_seq_stmt(rng, depth - 1);
            format!("begin {x} {y} end")
        }
    }
}

/// A random clocked module with three regs, a cycle counter, a conditional
/// `$display` over live state, and a `$finish` somewhere in the run.
fn arb_module(rng: &mut Prng) -> String {
    let body = arb_seq_stmt(rng, 2);
    let disp_cond = format!("r{}[{}]", rng.below(3), rng.below(4));
    let finish_at = rng.range(3, 12);
    format!(
        "module T(input wire clk, input wire [15:0] a, input wire [15:0] b,\n\
         output wire [15:0] o0, output wire [15:0] o1, output wire [15:0] o2);\n\
         reg [15:0] r0 = 1; reg [15:0] r1 = 2; reg [15:0] r2 = 3;\n\
         reg [7:0] cc = 0;\n\
         always @(posedge clk) begin\n\
           cc <= cc + 1;\n\
           {body}\n\
           if ({disp_cond}) $display(\"s=%d %h\", r0, r1);\n\
           if (cc == {finish_at}) $finish;\n\
         end\n\
         assign o0 = r0; assign o1 = r1; assign o2 = r2;\nendmodule"
    )
}

fn design_of(src: &str) -> Arc<Design> {
    let lib = library_from_source(src).expect("generated module parses");
    Arc::new(elaborate("T", &lib, &Default::default()).expect("elaborates"))
}

const OUTS: [&str; 3] = ["o0", "o1", "o2"];

/// Compiled evaluator vs the event-driven simulator, cycle by cycle:
/// output values, rendered `$display` text, and the `$finish` cycle.
#[test]
fn compiled_matches_simulator_with_tasks() {
    for seed in 0..48 {
        let mut rng = Prng::new(seed);
        let src = arb_module(&mut rng);
        let design = design_of(&src);
        let mut sim = Simulator::new(Arc::clone(&design));
        sim.initialize().unwrap();
        sim.drain_events();
        let nl = Arc::new(synthesize(&design).expect("synthesize"));
        let mut hw = NetlistSim::new(Arc::clone(&nl)).expect("levelize");
        for cycle in 0..20 {
            if sim.is_finished() {
                break;
            }
            let a = Bits::from_u64(16, rng.next_u64() & 0xffff);
            let b = Bits::from_u64(16, rng.next_u64() & 0xffff);
            sim.poke("a", a.clone());
            sim.poke("b", b.clone());
            sim.settle().unwrap();
            hw.set_by_name("a", a);
            hw.set_by_name("b", b);
            sim.tick("clk").unwrap();
            hw.step_clock(0);
            for out in OUTS {
                assert_eq!(
                    sim.peek(out),
                    hw.get_by_name(out).unwrap(),
                    "{out} diverged at cycle {cycle} (seed {seed})\n{src}"
                );
            }
            let sim_log: Vec<String> = sim
                .drain_events()
                .into_iter()
                .map(|e| match e {
                    SimEvent::Display(s) | SimEvent::Write(s) | SimEvent::Fatal(s) => s,
                    SimEvent::Finish => "$finish".into(),
                })
                .collect();
            let hw_log: Vec<String> = hw
                .drain_tasks()
                .into_iter()
                .map(|f| match f.kind {
                    TaskKind::Finish => "$finish".into(),
                    _ => f.text,
                })
                .collect();
            assert_eq!(
                sim_log, hw_log,
                "task firings diverged at cycle {cycle} (seed {seed})\n{src}"
            );
            assert_eq!(
                sim.is_finished(),
                hw.is_finished(),
                "$finish timing diverged at cycle {cycle} (seed {seed})\n{src}"
            );
        }
    }
}

/// Compiled evaluator vs the interpretive netlist walker on the same
/// netlist object: identical outputs and identical [`TaskFire`] streams.
///
/// [`TaskFire`]: cascade_netlist::TaskFire
#[test]
fn compiled_matches_reference_walker() {
    for seed in 0..48 {
        let mut rng = Prng::new(seed + 1000);
        let src = arb_module(&mut rng);
        let design = design_of(&src);
        let nl = Arc::new(synthesize(&design).expect("synthesize"));
        let mut hw = NetlistSim::new(Arc::clone(&nl)).expect("levelize");
        let mut rf = ReferenceSim::new(Arc::clone(&nl)).expect("levelize");
        for cycle in 0..20 {
            let a = Bits::from_u64(16, rng.next_u64() & 0xffff);
            let b = Bits::from_u64(16, rng.next_u64() & 0xffff);
            hw.set_by_name("a", a.clone());
            hw.set_by_name("b", b.clone());
            rf.set_by_name("a", a);
            rf.set_by_name("b", b);
            hw.step_clock(0);
            rf.step_clock(0);
            for out in OUTS {
                assert_eq!(
                    rf.get_by_name(out).unwrap(),
                    hw.get_by_name(out).unwrap(),
                    "{out} diverged at cycle {cycle} (seed {seed})\n{src}"
                );
            }
            assert_eq!(
                rf.drain_tasks(),
                hw.drain_tasks(),
                "task firings diverged at cycle {cycle} (seed {seed})\n{src}"
            );
            assert_eq!(rf.is_finished(), hw.is_finished(), "seed {seed}\n{src}");
        }
    }
}

/// Like [`arb_module`], but `$finish` depends on the *inputs*, so the
/// lanes of a batch (which share the module yet see different stimulus)
/// finish on different edges — the interesting case for per-lane
/// commit-skip and task suppression.
fn arb_batch_module(rng: &mut Prng) -> String {
    let body = arb_seq_stmt(rng, 2);
    let disp_cond = format!("r{}[{}]", rng.below(3), rng.below(4));
    let min_at = rng.range(3, 8);
    let bit = rng.below(4);
    format!(
        "module T(input wire clk, input wire [15:0] a, input wire [15:0] b,\n\
         output wire [15:0] o0, output wire [15:0] o1, output wire [15:0] o2);\n\
         reg [15:0] r0 = 1; reg [15:0] r1 = 2; reg [15:0] r2 = 3;\n\
         reg [7:0] cc = 0;\n\
         wire [15:0] fsel;\n\
         assign fsel = a ^ b;\n\
         always @(posedge clk) begin\n\
           cc <= cc + 1;\n\
           {body}\n\
           if ({disp_cond}) $display(\"s=%d %h\", r0, r1);\n\
           if (cc >= {min_at} && fsel[{bit}]) $finish;\n\
         end\n\
         assign o0 = r0; assign o1 = r1; assign o2 = r2;\nendmodule"
    )
}

/// Every `(width, seed)` case of the batch-equivalence tests. The
/// single-vector runs they check against are the one-lane instance of the
/// same engine, so what they hold is lane independence: a lane's outputs,
/// tasks and `$finish` edge do not depend on its siblings, however their
/// stimulus and finish edges differ. Width 1 checks that a runtime width
/// of one (what `netlist.batch1_cycle_ns` measures) agrees with the
/// compile-time one. The engine itself is held to the oracles by
/// `compiled_matches_simulator_with_tasks` and
/// `compiled_matches_reference_walker`.
fn batch_cases(seeds: u64) -> impl Iterator<Item = (u32, u64)> {
    [1, 4, 8]
        .into_iter()
        .flat_map(move |width| (0..seeds).map(move |seed| (width, seed)))
}

/// A width-N batched run is bit-identical, lane for lane, to N sequential
/// single-vector runs of the same netlist: outputs every cycle, rendered
/// task text, the edge `$finish` lands on, and the per-lane cycle count.
#[test]
fn batch_lanes_match_sequential_runs() {
    for (width, seed) in batch_cases(24) {
        let mut rng = Prng::new(seed + 3000);
        let src = arb_batch_module(&mut rng);
        let design = design_of(&src);
        let nl = Arc::new(synthesize(&design).expect("synthesize"));
        let mut batch = BatchHarness::new(Arc::clone(&nl), width).expect("levelize");
        let mut scalars: Vec<NetlistSim> = (0..width)
            .map(|_| NetlistSim::new(Arc::clone(&nl)).expect("levelize"))
            .collect();
        // Distinct precomputed stimulus per lane and cycle.
        let stim: Vec<Vec<(Bits, Bits)>> = (0..width)
            .map(|_| {
                (0..20)
                    .map(|_| {
                        (
                            Bits::from_u64(16, rng.next_u64() & 0xffff),
                            Bits::from_u64(16, rng.next_u64() & 0xffff),
                        )
                    })
                    .collect()
            })
            .collect();
        #[allow(clippy::needless_range_loop)] // lock-step over cycles, not one stim row
        for cycle in 0..20 {
            for lane in 0..width {
                let (a, b) = &stim[lane as usize][cycle];
                batch.set_lane_by_name("a", lane, a.clone());
                batch.set_lane_by_name("b", lane, b.clone());
                let sim = &mut scalars[lane as usize];
                if !sim.is_finished() {
                    sim.set_by_name("a", a.clone());
                    sim.set_by_name("b", b.clone());
                }
            }
            for sim in scalars.iter_mut() {
                if !sim.is_finished() {
                    sim.step_clock(0);
                }
            }
            batch.step_clock(0);
            let mut per_lane: Vec<Vec<TaskFire>> = vec![Vec::new(); width as usize];
            for (lane, fire) in batch.drain_tasks() {
                per_lane[lane as usize].push(fire);
            }
            for lane in 0..width {
                for out in OUTS {
                    assert_eq!(
                        scalars[lane as usize].get_by_name(out).unwrap(),
                        batch.get_lane_by_name(out, lane).unwrap(),
                        "{out} lane {lane} diverged at cycle {cycle} (seed {seed})\n{src}"
                    );
                }
                assert_eq!(
                    scalars[lane as usize].drain_tasks(),
                    per_lane[lane as usize],
                    "task firings lane {lane} diverged at cycle {cycle} (seed {seed})\n{src}"
                );
                assert_eq!(
                    scalars[lane as usize].is_finished(),
                    batch.is_finished(lane),
                    "$finish lane {lane} diverged at cycle {cycle} (seed {seed})\n{src}"
                );
            }
        }
    }
}

/// The batch `run_cycles` fast path (dense-commit streaks with per-lane
/// finish skips) matches per-lane sequential `run_cycles`, including how
/// many edges each lane counted before its `$finish`.
#[test]
fn batch_run_cycles_matches_sequential_runs() {
    for (width, seed) in batch_cases(16) {
        let mut rng = Prng::new(seed + 4000);
        let src = arb_batch_module(&mut rng);
        let design = design_of(&src);
        let nl = Arc::new(synthesize(&design).expect("synthesize"));
        let mut batch = BatchHarness::new(Arc::clone(&nl), width).expect("levelize");
        // Constant per-lane stimulus; runs long enough to enter the dense
        // streak. Lanes with (a ^ b)[bit] set finish early, others never.
        let n = rng.range(100, 300);
        let mut scalars = Vec::new();
        for lane in 0..width {
            let a = Bits::from_u64(16, rng.next_u64() & 0xffff);
            let b = Bits::from_u64(16, rng.next_u64() & 0xffff);
            batch.set_lane_by_name("a", lane, a.clone());
            batch.set_lane_by_name("b", lane, b.clone());
            let mut sim = NetlistSim::new(Arc::clone(&nl)).expect("levelize");
            sim.set_by_name("a", a);
            sim.set_by_name("b", b);
            scalars.push(sim);
        }
        batch.run_cycles(n);
        let mut per_lane: Vec<Vec<TaskFire>> = vec![Vec::new(); width as usize];
        for (lane, fire) in batch.drain_tasks() {
            per_lane[lane as usize].push(fire);
        }
        for (lane, sim) in scalars.iter_mut().enumerate() {
            let done = sim.run_cycles(n, usize::MAX);
            assert_eq!(
                done,
                batch.lane_cycles(lane as u32),
                "cycle count lane {lane} diverged (seed {seed})\n{src}"
            );
            for out in OUTS {
                assert_eq!(
                    sim.get_by_name(out).unwrap(),
                    batch.get_lane_by_name(out, lane as u32).unwrap(),
                    "{out} lane {lane} diverged after run_cycles (seed {seed})\n{src}"
                );
            }
            assert_eq!(
                sim.drain_tasks(),
                per_lane[lane],
                "task streams lane {lane} diverged (seed {seed})\n{src}"
            );
            assert_eq!(
                sim.is_finished(),
                batch.is_finished(lane as u32),
                "seed {seed}\n{src}"
            );
        }
    }
}

/// The batched open-loop path (`run_cycles` with its no-mark dense-commit
/// streaks) produces the same state and task stream as single stepping.
#[test]
fn batched_run_matches_single_stepping() {
    for seed in 0..32 {
        let mut rng = Prng::new(seed + 2000);
        let src = arb_module(&mut rng);
        let design = design_of(&src);
        let nl = Arc::new(synthesize(&design).expect("synthesize"));
        let mut batched = NetlistSim::new(Arc::clone(&nl)).expect("levelize");
        let mut stepped = NetlistSim::new(Arc::clone(&nl)).expect("levelize");
        let a = Bits::from_u64(16, rng.next_u64() & 0xffff);
        let b = Bits::from_u64(16, rng.next_u64() & 0xffff);
        for sim in [&mut batched, &mut stepped] {
            sim.set_by_name("a", a.clone());
            sim.set_by_name("b", b.clone());
        }
        // Long enough to enter and leave a 64-cycle dense streak.
        let n = rng.range(100, 400);
        let done_batched = batched.run_cycles(n, usize::MAX);
        let mut done_stepped = 0;
        for _ in 0..n {
            if stepped.is_finished() {
                break;
            }
            stepped.step_clock(0);
            done_stepped += 1;
        }
        assert_eq!(
            done_batched, done_stepped,
            "cycle counts diverged (seed {seed})\n{src}"
        );
        for out in OUTS {
            assert_eq!(
                stepped.get_by_name(out).unwrap(),
                batched.get_by_name(out).unwrap(),
                "{out} diverged after {n} cycles (seed {seed})\n{src}"
            );
        }
        assert_eq!(
            stepped.drain_tasks(),
            batched.drain_tasks(),
            "task streams diverged (seed {seed})\n{src}"
        );
    }
}
