//! Property-based equivalence of the bytecode-compiled software engine
//! ([`CompiledSim`]) against the tree-walking interpreter ([`Simulator`])
//! on randomized behavioural modules: register allocation, the narrow/wide
//! value split, specialized opcodes and the sensitivity index must never
//! change an observable value, a `$display` rendering, the `$random`
//! stream, or when `$finish` lands.
//!
//! The generated programs deliberately exercise what the *netlist* property
//! suite cannot: >64-bit registers, dynamic bit selects, signed
//! division/remainder/arithmetic-shift, memories indexed by live state, and
//! `$random` (side effects must line up activation for activation).
//!
//! A software engine's modeled cost is charged from the `activations` and
//! `statements` counters, so the two backends must also count alike when
//! driven the way the runtime drives a software engine.
//!
//! Randomized with the in-tree deterministic [`Prng`] (no registry access
//! in the build environment, so `proptest` is unavailable). Every assertion
//! carries the case seed; rerun a failure by fixing the seed locally.

use cascade_bits::{Bits, Prng};
use cascade_sim::{
    elaborate, library_from_source, CompiledSim, Design, SimEvent, Simulator, VarClass,
};
use std::sync::Arc;

/// A random self-determined ~16-bit expression over the module's live
/// state, occasionally reaching into the wide register, the memory, or the
/// `$random` stream.
fn arb_expr(rng: &mut Prng, depth: u32) -> String {
    if depth == 0 {
        match rng.below(10) {
            0 => rng.range(1, 0xffff).to_string(),
            1 => {
                let w = rng.range(1, 16);
                let v = rng.next_u64() & ((1u64 << w) - 1);
                format!("{w}'h{v:x}")
            }
            2 => "a".to_string(),
            3 => "b".to_string(),
            4 => format!("r{}", rng.below(3)),
            5 => "cc".to_string(),
            6 => "s0".to_string(),
            7 => "mem[cc[2:0]]".to_string(),
            8 => "w0[47:32]".to_string(),
            _ => "w0[cc[5:0]]".to_string(),
        }
    } else {
        match rng.below(8) {
            0 => {
                let op = *rng.pick(&[
                    "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==", "!=", "<", "<=",
                ]);
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
            3 => format!("(^{})", arb_expr(rng, depth - 1)),
            4 => {
                let l = arb_expr(rng, depth - 1);
                let r = arb_expr(rng, depth - 1);
                format!("{{{l}, {r}}}")
            }
            5 => format!("($random ^ {})", arb_expr(rng, depth - 1)),
            6 => format!("(s0 >>> {})", rng.below(4)),
            _ => format!("({} >> {})", arb_expr(rng, depth - 1), rng.below(18)),
        }
    }
}

/// A random 96-bit expression over the wide register.
fn arb_wide_expr(rng: &mut Prng) -> String {
    match rng.below(6) {
        0 => format!("(w0 >> {})", rng.range(1, 90)),
        1 => format!("(w0 << {})", rng.range(1, 90)),
        2 => format!("{{w0[79:0], {}}}", arb_expr(rng, 1)),
        3 => "(w0 + {r0, r1, r2, a, b, cc})".to_string(),
        4 => format!("(~w0 ^ {{3{{{}}}}})", arb_expr(rng, 1)),
        _ => format!("(w0 * 96'h{:x})", rng.next_u64()),
    }
}

/// A random guarded nonblocking update statement.
fn arb_stmt(rng: &mut Prng, depth: u32) -> String {
    let assign = |rng: &mut Prng| match rng.below(8) {
        0..=3 => {
            let r = rng.below(3);
            let e = arb_expr(rng, 2);
            format!("r{r} <= {e};")
        }
        4 => format!("s0 <= {};", arb_expr(rng, 2)),
        5 => format!("mem[{}] <= {};", arb_expr(rng, 1), arb_expr(rng, 2)),
        6 => format!("r2[11:4] <= {};", arb_expr(rng, 1)),
        _ => format!("w0 <= {};", arb_wide_expr(rng)),
    };
    if depth == 0 {
        return assign(rng);
    }
    match rng.below(7) {
        0..=2 => assign(rng),
        3 | 4 => {
            let c = arb_expr(rng, 1);
            let t = arb_stmt(rng, depth - 1);
            let e = arb_stmt(rng, depth - 1);
            format!("if ({c}) begin {t} end else begin {e} end")
        }
        5 => {
            let x = arb_stmt(rng, depth - 1);
            let y = arb_stmt(rng, depth - 1);
            let z = arb_stmt(rng, depth - 1);
            format!(
                "case (cc[1:0]) 2'd0: begin {x} end 2'd1: begin {y} end default: begin {z} end endcase"
            )
        }
        _ => {
            let x = arb_stmt(rng, depth - 1);
            let y = arb_stmt(rng, depth - 1);
            format!("begin {x} {y} end")
        }
    }
}

/// A random clocked module mixing narrow, signed, wide, and array state,
/// with a conditional `$display` over all of it and a `$finish` in range.
fn arb_module(rng: &mut Prng) -> String {
    let body = arb_stmt(rng, 2);
    let disp_cond = format!("r{}[{}]", rng.below(3), rng.below(4));
    let finish_at = rng.range(4, 14);
    format!(
        "module T(input wire clk, input wire [15:0] a, input wire [15:0] b,\n\
         output wire [15:0] o0, output wire [95:0] ow);\n\
         reg [15:0] r0 = 1; reg [15:0] r1 = 2; reg [15:0] r2 = 3;\n\
         reg signed [15:0] s0 = 16'hfffb;\n\
         reg [95:0] w0 = 96'h0123456789abcdef00112233;\n\
         reg [15:0] mem [0:7];\n\
         reg [7:0] cc = 0;\n\
         integer i;\n\
         initial for (i = 0; i < 8; i = i + 1) mem[i] = i * 3 + 1;\n\
         always @(posedge clk) begin\n\
           cc <= cc + 1;\n\
           {body}\n\
           if ({disp_cond}) $display(\"c=%0d r=%h s=%d w=%h m=%h\", cc, r0, s0, w0, mem[cc[2:0]]);\n\
           if (cc == {finish_at}) $finish;\n\
         end\n\
         assign o0 = r0 ^ r1;\n\
         assign ow = w0;\nendmodule"
    )
}

fn design_of(src: &str) -> Arc<Design> {
    let lib = library_from_source(src).expect("generated module parses");
    Arc::new(elaborate("T", &lib, &Default::default()).expect("elaborates"))
}

fn render(events: Vec<SimEvent>) -> Vec<String> {
    events
        .into_iter()
        .map(|e| match e {
            SimEvent::Display(s) | SimEvent::Write(s) | SimEvent::Fatal(s) => s,
            SimEvent::Finish => "$finish".into(),
        })
        .collect()
}

/// Every variable of `design` — scalars and array words — must agree.
fn assert_same_state(sim: &Simulator, c: &CompiledSim, design: &Design, ctx: &str, src: &str) {
    for (name, id) in design.iter_vars() {
        let info = design.info(id);
        if info.class == VarClass::Wire && info.is_input {
            continue;
        }
        if info.is_array() {
            for i in 0..info.array_len {
                assert_eq!(
                    sim.peek_array(id, i),
                    c.peek_array(id, i),
                    "{name}[{i}] diverged {ctx}\n{src}"
                );
            }
        } else {
            assert_eq!(
                sim.peek_id(id),
                c.peek_id(id),
                "{name} diverged {ctx}\n{src}"
            );
        }
    }
}

/// Compiled engine vs the tree walker, cycle by cycle: every variable,
/// rendered `$display` text, the `$random` stream (indirectly, through
/// both), and the `$finish` cycle.
#[test]
fn compiled_matches_tree_walker_with_tasks() {
    for seed in 0..48 {
        let mut rng = Prng::new(seed);
        let src = arb_module(&mut rng);
        let design = design_of(&src);
        let mut sim = Simulator::new(Arc::clone(&design));
        let mut c = CompiledSim::new(Arc::clone(&design));
        sim.seed_random(seed + 7);
        c.seed_random(seed + 7);
        sim.initialize().unwrap();
        c.initialize().unwrap();
        assert_eq!(
            render(sim.drain_events()),
            render(c.drain_events()),
            "initialization tasks diverged (seed {seed})\n{src}"
        );
        assert_same_state(
            &sim,
            &c,
            &design,
            &format!("after init (seed {seed})"),
            &src,
        );
        for cycle in 0..24 {
            if sim.is_finished() {
                break;
            }
            let a = Bits::from_u64(16, rng.next_u64() & 0xffff);
            let b = Bits::from_u64(16, rng.next_u64() & 0xffff);
            sim.poke("a", a.clone());
            c.poke("a", a);
            sim.poke("b", b.clone());
            c.poke("b", b);
            sim.tick("clk").unwrap();
            c.tick("clk").unwrap();
            assert_same_state(
                &sim,
                &c,
                &design,
                &format!("at cycle {cycle} (seed {seed})"),
                &src,
            );
            assert_eq!(
                render(sim.drain_events()),
                render(c.drain_events()),
                "task firings diverged at cycle {cycle} (seed {seed})\n{src}"
            );
            assert_eq!(
                sim.is_finished(),
                c.is_finished(),
                "$finish timing diverged at cycle {cycle} (seed {seed})\n{src}"
            );
            assert_eq!(sim.time(), c.time(), "time diverged (seed {seed})\n{src}");
        }
    }
}

/// One scheduler iteration as the runtime's software engine makes it on
/// `$sim`: `end_step` (time advances on every second one), the inputs and
/// the clock level through `$drive`, then evaluation and update rounds
/// until the engine is quiet.
macro_rules! iteration {
    ($sim:expr, $half:expr, $drive:expr) => {{
        $sim.end_step();
        if $half % 2 == 1 {
            $sim.advance_time();
        }
        $drive;
        loop {
            while $sim.has_evals() {
                $sim.eval_phase().unwrap();
            }
            if !$sim.has_updates() {
                break;
            }
            $sim.apply_updates();
        }
    }};
}

/// The modeled clock charges a software engine by its `activations` and
/// `statements` counters, so both backends, driven through the calls the
/// runtime makes (clock level by `poke_id` on the tree walker and by
/// `poke_bit` on the compiled engine), must count alike every half-tick.
///
/// Two divergences are known and accounted for exactly, so any other one
/// fails. `statements` may differ on the activation that runs `$finish`
/// (documented in `exec.rs`), so the counters are compared up to it. And
/// the compiled engine elides full-width variable copies (`assign ow = w0;`
/// here; `alias_elision` in `compile.rs`) into shared storage: the tree
/// walker runs the copy as a process, one activation at time zero and one
/// per half-tick in which `w0` changed, and the compiled engine runs
/// nothing. That second one is a modeled-clock divergence between the
/// backends, not a test artefact: a runtime program with such a copy
/// (`assign led.val = cnt;`) is charged less than the tree walker would be.
#[test]
fn compiled_charges_the_modeled_clock_like_the_tree_walker() {
    for seed in 0..48 {
        let mut rng = Prng::new(seed);
        let src = arb_module(&mut rng);
        let design = design_of(&src);
        let [clk, a, b] = ["clk", "a", "b"].map(|n| design.var(n).expect("port"));
        let mut sim = Simulator::new(Arc::clone(&design));
        let mut c = CompiledSim::new(Arc::clone(&design));
        sim.seed_random(seed + 7);
        c.seed_random(seed + 7);
        sim.initialize().unwrap();
        c.initialize().unwrap();
        let w0 = design.var("w0").expect("w0");
        let mut copies = 1u64;
        let mut finished = false;
        for half in 0..48u64 {
            let level = half % 2 == 0;
            let (va, vb) = (
                Bits::from_u64(16, rng.next_u64() & 0xffff),
                Bits::from_u64(16, rng.next_u64() & 0xffff),
            );
            let ctx = format!("half-tick {half} (seed {seed})\n{src}");
            assert_eq!(
                sim.activations,
                c.activations + copies,
                "activations at {ctx}"
            );
            assert_eq!(sim.statements, c.statements, "statements at {ctx}");
            let before = sim.peek_id(w0);
            iteration!(sim, half, {
                sim.poke_id(a, va.clone());
                sim.poke_id(b, vb.clone());
                sim.poke_id(clk, Bits::from_bool(level));
            });
            iteration!(c, half, {
                c.poke_id(a, va);
                c.poke_id(b, vb);
                c.poke_bit(clk, level as u64);
            });
            copies += u64::from(sim.peek_id(w0) != before);
            assert_eq!(sim.is_finished(), c.is_finished(), "$finish at {ctx}");
            assert_eq!(sim.time(), c.time(), "time at {ctx}");
            if sim.is_finished() {
                assert_eq!(
                    sim.activations,
                    c.activations + copies,
                    "activations at {ctx}"
                );
                finished = true;
                break;
            }
        }
        assert!(finished, "no $finish (seed {seed})\n{src}");
    }
}
