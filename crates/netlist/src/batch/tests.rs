//! What the runtime-width engine may choose without it showing: which
//! compiled instance of the kernels runs its lane loops, and when an edge's
//! commit is propagated. Run optimised as well (`cargo test --release -p
//! cascade-netlist`): a debug build does not vectorize the lane loops, so
//! only a release run checks the code that ships.

use super::*;
use crate::synthesize;
use cascade_bits::Prng;
use cascade_sim::{elaborate, library_from_source};

/// A random expression over inputs `a`/`b`, regs `r0..r2` and literals:
/// the shapes of `tests/netlist_equiv_props.rs`.
fn arb_expr(rng: &mut Prng, depth: u32) -> String {
    if depth == 0 {
        return match rng.below(6) {
            0 => rng.range(1, 0xffff).to_string(),
            1 => {
                let w = rng.range(1, 16);
                format!("{w}'h{:x}", rng.next_u64() & ((1u64 << w) - 1))
            }
            2 => "a".into(),
            3 => "b".into(),
            4 => format!("r{}", rng.below(3)),
            _ => "cc".into(),
        };
    }
    let sub = |rng: &mut Prng| arb_expr(rng, depth - 1);
    match rng.below(6) {
        0 => {
            let op = *rng.pick(&["+", "-", "*", "&", "|", "^", "<<", ">>", "==", "<"]);
            format!("({} {op} {})", sub(rng), sub(rng))
        }
        1 => format!("({} ? {} : {})", sub(rng), sub(rng), sub(rng)),
        2 => format!("(~{})", sub(rng)),
        3 => format!("{{2{{{}}}}}", sub(rng)),
        4 => format!("{{{}, {}}}", sub(rng), sub(rng)),
        _ => {
            // A case over literals: what cone evaluation turns into a
            // table probe.
            let s = arb_expr(rng, 0);
            let v: Vec<u64> = (0..3).map(|_| rng.next_u64() & 0xffff).collect();
            format!(
                "(({s}[1:0] == 2'd0) ? 16'd{} : ({s}[1:0] == 2'd1) ? 16'd{} : 16'd{})",
                v[0], v[1], v[2]
            )
        }
    }
}

/// A random guarded update of regs `r0..r2`.
fn arb_seq_stmt(rng: &mut Prng, depth: u32) -> String {
    if depth == 0 || rng.below(7) < 3 {
        return format!("r{} <= {};", rng.below(3), arb_expr(rng, 1));
    }
    let sub = |rng: &mut Prng| arb_seq_stmt(rng, depth - 1);
    match rng.below(3) {
        0 => format!(
            "if ({}) begin {} end else begin {} end",
            arb_expr(rng, 1),
            sub(rng),
            sub(rng)
        ),
        1 => format!(
            "case ({}[1:0]) 2'd0: begin {} end 2'd1: begin {} end default: begin {} end endcase",
            arb_expr(rng, 0),
            sub(rng),
            sub(rng),
            sub(rng)
        ),
        _ => format!("begin {} {} end", sub(rng), sub(rng)),
    }
}

/// A random clocked module whose `$finish` depends on the inputs, so the
/// lanes of a batch finish on different edges.
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

/// The kernels the random shapes do not reach: memory reads and writes,
/// signed division and compares, arithmetic and variable shifts,
/// reductions, and a register wider than one word.
const KERNEL_MIX: &str = "module T(input wire clk, input wire signed [15:0] a,\n\
     input wire signed [15:0] b, output wire [15:0] o0, output wire [15:0] o1,\n\
     output wire [15:0] o2);\n\
     reg [15:0] m [0:7];\n\
     reg [15:0] r0 = 1; reg [15:0] r1 = 2; reg [79:0] w = 0; reg [7:0] cc = 0;\n\
     always @(posedge clk) begin\n\
       cc <= cc + 1;\n\
       m[a[2:0]] <= b ^ r0;\n\
       r0 <= m[b[2:0]] + (a / b) - (a % b) + (a >>> b[3:0]);\n\
       r1 <= {15'd0, a < b} + {15'd0, ^r0} + {15'd0, &a} + (r1 << b[4:0]) + (r0 >> a[4:0]);\n\
       w <= {w[63:0], a ^ r1} + {b, 64'd1};\n\
       if (r0[0]) $display(\"m=%h w=%h\", r0, w);\n\
       if (cc >= 6 && a[1]) $finish;\n\
     end\n\
     assign o0 = r0; assign o1 = r1 ^ w[79:64]; assign o2 = w[15:0];\nendmodule";

/// The generated cases, then the kernel mix.
fn sources(seeds: u64, base: u64) -> impl Iterator<Item = String> {
    (0..seeds)
        .map(move |seed| arb_batch_module(&mut Prng::new(base + seed)))
        .chain([KERNEL_MIX.to_string()])
}

fn netlist_of(src: &str) -> Arc<Netlist> {
    let lib = library_from_source(src).expect("generated module parses");
    let design = elaborate("T", &lib, &Default::default()).expect("elaborates");
    Arc::new(synthesize(&design).expect("synthesizes"))
}

const OUTS: [&str; 3] = ["o0", "o1", "o2"];

/// Loads per-lane random inputs into every harness alike.
fn load(hs: &mut [BatchHarness], rng: &mut Prng) {
    for lane in 0..hs[0].lanes() {
        let (a, b) = (rng.next_u64() & 0xffff, rng.next_u64() & 0xffff);
        for h in hs.iter_mut() {
            h.set_lane_by_name("a", lane, Bits::from_u64(16, a));
            h.set_lane_by_name("b", lane, Bits::from_u64(16, b));
        }
    }
}

/// Everything a harness holds that an instance could get wrong: both
/// arenas, the task stream, and each lane's `$finish` flag and edge count.
type Snapshot = (Vec<u64>, Vec<u64>, Vec<(u32, TaskFire)>, Vec<(bool, u64)>);

fn snapshot(h: &mut BatchHarness) -> Snapshot {
    let (arena, mem) = h.st.arenas();
    let (arena, mem) = (arena.to_vec(), mem.to_vec());
    let lanes = (0..h.lanes())
        .map(|l| (h.is_finished(l), h.lane_cycles(l)))
        .collect();
    (arena, mem, h.drain_tasks(), lanes)
}

/// Every vector instance this host runs gives what the generic instance
/// gives — arenas, task streams, `$finish` flags, per-lane edge counts —
/// under lockstep stepping and under `run_cycles`' dense streaks. On an
/// AVX-512 host nothing else runs the generic multi-lane instance.
#[test]
fn vector_instances_match_the_generic_one() {
    let isas: Vec<Isa> = [
        Isa::Generic,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
    ]
    .into_iter()
    .filter(|isa| isa.runs_here())
    .collect();
    for width in [4, 8, 64] {
        for (case, src) in sources(12, 5000).enumerate() {
            let nl = netlist_of(&src);
            let mut hs: Vec<BatchHarness> = isas
                .iter()
                .map(|&isa| BatchHarness::on(Arc::clone(&nl), width, isa).expect("levelize"))
                .collect();
            let mut rng = Prng::new(case as u64);
            let check = |hs: &mut [BatchHarness], when: &str| {
                let want = snapshot(&mut hs[0]);
                for (h, isa) in hs[1..].iter_mut().zip(&isas[1..]) {
                    assert!(
                        snapshot(h) == want,
                        "{isa:?} diverged from Generic {when} (width {width}, case {case})\n{src}"
                    );
                }
            };
            for cycle in 0..20 {
                load(&mut hs, &mut rng);
                hs.iter_mut().for_each(|h| h.step_clock(0));
                check(&mut hs, &format!("at edge {cycle}"));
            }
            // From power-on, with inputs held: the lanes whose inputs do
            // not trip `$finish` run long enough for dense streaks.
            hs.iter_mut().for_each(BatchHarness::reset);
            load(&mut hs, &mut rng);
            let n = rng.range(100, 300);
            hs.iter_mut().for_each(|h| {
                h.run_cycles(n);
            });
            check(&mut hs, "after run_cycles");
        }
    }
}

/// An edge leaves its commit to the next settle. The same lockstep
/// stimulus reads the same values whether the lanes are read after every
/// edge, every third edge, or only at the end.
#[test]
fn reading_between_edges_changes_nothing() {
    // A multiple of every cadence: the last edge reads (settles) all three.
    const EDGES: usize = 21;
    for width in [4, 64] {
        for (case, src) in sources(16, 6000).enumerate() {
            let nl = netlist_of(&src);
            let every = [1, 3, EDGES];
            let mut hs: Vec<BatchHarness> = every
                .iter()
                .map(|_| BatchHarness::new(Arc::clone(&nl), width).expect("levelize"))
                .collect();
            let mut rng = Prng::new(case as u64);
            let read = |h: &mut BatchHarness| -> Vec<Bits> {
                (0..width)
                    .flat_map(|l| OUTS.map(|o| (l, o)))
                    .map(|(l, o)| h.get_lane_by_name(o, l).expect("output exists"))
                    .collect()
            };
            for edge in 1..=EDGES {
                load(&mut hs, &mut rng);
                hs.iter_mut().for_each(|h| h.step_clock(0));
                let mut reads = hs.iter_mut().zip(every).filter(|(_, k)| edge % k == 0);
                let (first, _) = reads.next().expect("every edge is read");
                let want = read(first);
                for (h, k) in reads {
                    assert_eq!(
                        read(h),
                        want,
                        "read every {k} edges diverged at edge {edge} (width {width}, case {case})\n{src}"
                    );
                }
            }
            let want = snapshot(&mut hs[0]);
            for (h, k) in hs[1..].iter_mut().zip(&every[1..]) {
                assert!(
                    snapshot(h) == want,
                    "read every {k} edges: tasks or state diverged (width {width}, case {case})\n{src}"
                );
            }
        }
    }
}

/// A host with a vector unit runs the batch kernels on it, so the gain
/// cannot vanish behind a detection bug.
#[test]
fn the_harness_runs_on_the_hosts_vector_unit() {
    let h = BatchHarness::new(netlist_of(KERNEL_MIX), 64).expect("levelize");
    let isa = h.st.width().isa();
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512dq")
    {
        assert_eq!(isa, Isa::Avx512);
    } else if is_x86_feature_detected!("avx2") {
        assert_eq!(isa, Isa::Avx2);
    }
    assert!(isa.runs_here());
}
