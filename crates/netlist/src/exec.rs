//! The compiled word-arena evaluator: one program, one kernel set, one
//! scheduler, with the lane count as a parameter.
//!
//! At construction time the levelized netlist is lowered into a flat
//! [`Program`] over a word arena: every net owns a fixed run of 64-bit
//! words (one word for the common ≤64-bit case), and every combinational
//! cell becomes one [`Instr`] whose kernel reads and writes arena offsets
//! directly — no per-cycle `Bits` allocation, no pointer chasing through
//! `Def`. Nets wider than 64 bits share the same arena through multi-word
//! slices and evaluate through a generic [`Bits`]-based fallback kernel.
//!
//! [`State`] runs the program over `W` lanes (lane-major: word `o`, lane
//! `l` at `o·W + l`), and [`exec_lanes`] is the only place a word
//! operation is written. `NetlistSim` is the one-lane instance (`W` is the
//! zero-sized [`One`], so every lane loop compiles to straight-line scalar
//! code), `BatchHarness` the runtime-width one ([`Wide`], whose lane loops
//! run on the host's widest vector unit: see [`Isa`]); the compile-time
//! cone evaluation of Pass 4 runs the same kernels over one lane per root
//! value.
//!
//! Scheduling is activity-driven: each instruction carries its
//! combinational level, and a per-level dirty worklist re-evaluates only
//! the fan-out cone of nets that changed in any lane (inputs written from
//! outside, registers and memories committed at a clock edge). A settled
//! netlist whose inputs did not change costs nothing to re-settle. Each
//! lane keeps its own `$finish` flag, and a clock edge commits no lane
//! whose flag is set: for one lane that is the rule that a `$finish` edge
//! discards its commits.

use crate::eval::{render_task, TaskFire};
use crate::ir::*;
use crate::level::{levelize, levels, LevelError};
use cascade_bits::{wmask, word, Bits};

/// One net's run of words in the arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub off: u32,
    pub words: u32,
    pub width: u32,
}

/// A single-word compute kernel. Operand fields are arena word offsets of
/// canonical (masked) values; `aw`/`bw` are operand bit widths where the
/// operation is width-sensitive.
#[derive(Debug, Clone)]
pub(crate) enum Kernel {
    Not {
        a: u32,
    },
    Neg {
        a: u32,
    },
    RedAnd {
        a: u32,
        aw: u32,
    },
    RedOr {
        a: u32,
    },
    RedXor {
        a: u32,
    },
    LogNot {
        a: u32,
    },
    Add {
        a: u32,
        b: u32,
    },
    Sub {
        a: u32,
        b: u32,
    },
    Mul {
        a: u32,
        b: u32,
    },
    DivU {
        a: u32,
        b: u32,
    },
    RemU {
        a: u32,
        b: u32,
    },
    DivS {
        a: u32,
        b: u32,
        aw: u32,
        bw: u32,
    },
    RemS {
        a: u32,
        b: u32,
        aw: u32,
        bw: u32,
    },
    And {
        a: u32,
        b: u32,
    },
    Or {
        a: u32,
        b: u32,
    },
    Xor {
        a: u32,
        b: u32,
    },
    Xnor {
        a: u32,
        b: u32,
    },
    Shl {
        a: u32,
        b: u32,
    },
    Shr {
        a: u32,
        b: u32,
    },
    AShr {
        a: u32,
        b: u32,
        aw: u32,
    },
    Eq {
        a: u32,
        b: u32,
    },
    Ne {
        a: u32,
        b: u32,
    },
    LtU {
        a: u32,
        b: u32,
    },
    LeU {
        a: u32,
        b: u32,
    },
    LtS {
        a: u32,
        b: u32,
        aw: u32,
        bw: u32,
    },
    LeS {
        a: u32,
        b: u32,
        aw: u32,
        bw: u32,
    },
    Mux {
        s: u32,
        t: u32,
        e: u32,
    },
    /// Fused compare/select: an unsigned comparison whose only reader is a
    /// mux selector folds into the mux, removing one instruction and one
    /// selector round trip through the arena per level of a select tree.
    MuxEq {
        a: u32,
        b: u32,
        t: u32,
        e: u32,
    },
    MuxNe {
        a: u32,
        b: u32,
        t: u32,
        e: u32,
    },
    MuxLtU {
        a: u32,
        b: u32,
        t: u32,
        e: u32,
    },
    MuxLeU {
        a: u32,
        b: u32,
        t: u32,
        e: u32,
    },
    /// Two-part concatenation, `(a << sa) | (b << sb)` — the shape rotate
    /// idioms lower to; specialized to avoid the boxed-parts indirection.
    Concat2 {
        a: u32,
        sa: u32,
        b: u32,
        sb: u32,
    },
    /// A [`Concat2`] whose parts were single-use static slices, folded in:
    /// `(((a >> ra) & ma) << sa) | (((b >> rb) & mb) << sb)`. This is a
    /// full barrel rotate (`{x[l:0], x[h:l+1]}`) in one instruction.
    ///
    /// [`Concat2`]: Kernel::Concat2
    Rot {
        a: u32,
        ra: u32,
        ma: u64,
        sa: u32,
        b: u32,
        rb: u32,
        mb: u64,
        sb: u32,
    },
    /// A flattened constant cone: a whole combinational region whose only
    /// non-constant root is one small net (a `case` over literals, a
    /// round-constant ROM, control decode off a narrow state register)
    /// pre-evaluated over the root's entire domain into one table probe.
    /// Indices beyond the table read `default`.
    Lookup {
        idx: u32,
        table: Box<[u64]>,
        default: u64,
    },
    /// A constant-folded output: always stores `v`.
    ConstK {
        v: u64,
    },
    /// Precompiled `(word offset, left shift)` per part, LSB-justified.
    Concat {
        parts: Box<[(u32, u32)]>,
    },
    Slice {
        a: u32,
        offset: u32,
    },
    DynSlice {
        a: u32,
        b: u32,
    },
    ZExt {
        a: u32,
    },
    SExt {
        a: u32,
        aw: u32,
        fill: u64,
    },
    /// `value * factor` replicates a narrow value into disjoint bit ranges.
    Repeat {
        a: u32,
        factor: u64,
    },
    /// Asynchronous read of a ≤64-bit-wide memory; `addr` is the first
    /// word of the address net (matching `Bits::to_u64` truncation).
    MemRead {
        mem: u32,
        addr: u32,
    },
    /// Generic multi-word fallback: evaluate through [`Bits`].
    Wide {
        op: CellOp,
        inputs: Box<[NetId]>,
    },
    /// Multi-word memory read fallback.
    WideMemRead {
        mem: u32,
        addr: u32,
    },
}

/// One compiled combinational instruction.
#[derive(Debug, Clone)]
pub(crate) struct Instr {
    /// Arena offset of the output's first word.
    pub dst: u32,
    /// Combined operation/output mask applied to single-word results.
    pub mask: u64,
    /// Output net (for slot metadata and fan-out marking).
    pub out: u32,
    pub kernel: Kernel,
}

/// Register commit plan: copy `d`'s words into `q` at a clock edge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RegCommit {
    pub d: Slot,
    pub q: Slot,
    pub q_net: u32,
    /// Offset of this register's sample window in the commit scratch.
    pub scratch: u32,
}

/// Memory write-port plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortCommit {
    pub mem: u32,
    pub enable: Slot,
    /// First word of the address net.
    pub addr: u32,
    pub data: Slot,
}

/// Everything that happens on one clock domain's edge.
#[derive(Debug, Clone, Default)]
pub(crate) struct DomainPlan {
    /// Registers whose `d` and `q` each fit one word: committed by direct
    /// word moves, no slice bookkeeping.
    pub small: Vec<RegCommit>,
    /// Multi-word registers (the general slice-copy path).
    pub regs: Vec<RegCommit>,
    pub ports: Vec<PortCommit>,
    /// Indices into `Netlist::tasks`.
    pub tasks: Vec<u32>,
    /// Words of commit scratch this domain needs.
    pub scratch_words: u32,
}

/// A memory's layout in the memory arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemLayout {
    pub off: u32,
    pub words_per: u32,
    pub count: u64,
    pub width: u32,
}

impl MemLayout {
    /// Word `addr` as a slot of the memory arena, or `None` beyond the
    /// end.
    #[inline]
    fn word(&self, addr: u64) -> Option<Slot> {
        (addr < self.count).then(|| Slot {
            off: self.off + addr as u32 * self.words_per,
            words: self.words_per,
            width: self.width,
        })
    }
}

/// The compiled program: immutable after construction, shared by clones of
/// the evaluator.
#[derive(Debug)]
pub(crate) struct Program {
    pub slots: Vec<Slot>,
    pub instrs: Vec<Instr>,
    /// Combinational level of each instruction (0-based).
    pub level: Vec<u32>,
    pub num_levels: u32,
    /// Net → instructions consuming it (deduplicated).
    pub fanout: Vec<Box<[u32]>>,
    /// Memory → `MemRead` instructions over it.
    pub mem_fanout: Vec<Box<[u32]>>,
    pub mems: Vec<MemLayout>,
    pub domains: Vec<DomainPlan>,
    pub arena_words: u32,
    pub mem_arena_words: u32,
    /// Instructions on the generic wide lane (diagnostics).
    pub wide_instrs: u32,
}

/// The lane count of a [`State`], fixed by its type: the zero-sized
/// [`One`] for [`NetlistSim`](crate::NetlistSim), so that after
/// monomorphisation every lane loop's bound is the constant 1, and a
/// runtime [`Wide`] for [`BatchHarness`](crate::BatchHarness).
pub(crate) trait Lanes: Copy + std::fmt::Debug {
    /// A task firing as this width reports it: bare for one lane, tagged
    /// with its lane for many.
    type Fire: Clone + std::fmt::Debug;
    fn n(self) -> usize;
    fn fire(lane: usize, fire: TaskFire) -> Self::Fire;
    /// Runs one instruction over every lane: [`exec_lanes`], in the
    /// instance this width runs.
    ///
    /// # Safety
    /// As [`exec_lanes`].
    unsafe fn exec(
        self,
        ins: &Instr,
        slots: &[Slot],
        mems: &[MemLayout],
        arena: *mut u64,
        mem: *const u64,
    ) -> u32;
}

/// The one-lane width of the scalar evaluator.
#[derive(Debug, Clone, Copy)]
pub(crate) struct One;

impl Lanes for One {
    type Fire = TaskFire;
    #[inline(always)]
    fn n(self) -> usize {
        1
    }
    fn fire(_lane: usize, fire: TaskFire) -> TaskFire {
        fire
    }
    #[inline(always)]
    unsafe fn exec(
        self,
        ins: &Instr,
        slots: &[Slot],
        mems: &[MemLayout],
        arena: *mut u64,
        mem: *const u64,
    ) -> u32 {
        exec_lanes(ins, slots, mems, arena, mem, self)
    }
}

/// The vector unit a [`Wide`] state's kernels are compiled for. Each is
/// one instance of [`exec_lanes`]; they differ only in the instructions
/// the compiler may emit for its lane loops, never in a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The target's baseline (SSE2 on x86-64), and every non-x86-64 host.
    Generic,
    /// AVX2: four lanes per vector, and 64-bit variable shifts.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512 F/BW/VL/DQ: eight lanes per vector, 64-bit compares into
    /// mask registers, and a 64-bit multiply.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Whether this host's CPU has the instance's vector unit.
    pub fn runs_here(self) -> bool {
        match self {
            Isa::Generic => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx512dq")
            }
        }
    }

    /// The widest instance this host runs (the standard library caches
    /// the CPUID probe, so this is a few loads).
    pub fn host() -> Isa {
        let widest_first = [
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2,
        ];
        widest_first
            .into_iter()
            .find(|&isa| Isa::runs_here(isa))
            .unwrap_or(Isa::Generic)
    }
}

/// A runtime lane count, and the vector unit its kernels run on. The
/// fields are private so that no `Wide` names an instance its host cannot
/// run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wide {
    n: usize,
    isa: Isa,
}

impl Wide {
    /// `n` lanes whose kernels run on `isa`.
    ///
    /// # Panics
    ///
    /// Panics if this host cannot run `isa`.
    pub fn new(n: usize, isa: Isa) -> Wide {
        assert!(isa.runs_here(), "{isa:?} kernels on a host without them");
        Wide { n, isa }
    }

    #[cfg(test)]
    pub fn isa(self) -> Isa {
        self.isa
    }
}

impl Lanes for Wide {
    type Fire = (u32, TaskFire);
    #[inline(always)]
    fn n(self) -> usize {
        self.n
    }
    fn fire(lane: usize, fire: TaskFire) -> (u32, TaskFire) {
        (lane as u32, fire)
    }
    #[inline]
    unsafe fn exec(
        self,
        ins: &Instr,
        slots: &[Slot],
        mems: &[MemLayout],
        arena: *mut u64,
        mem: *const u64,
    ) -> u32 {
        // SAFETY: `Wide::new` admits only an instance this host runs; the
        // arena contract is the caller's.
        match self.isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => exec_lanes_avx512(ins, slots, mems, arena, mem, self),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => exec_lanes_avx2(ins, slots, mems, arena, mem, self),
            Isa::Generic => exec_lanes_generic(ins, slots, mems, arena, mem, self),
        }
    }
}

/// Mutable evaluator state over a [`Program`]: `W` lanes of it, each an
/// independent copy of the design's nets, memories and finish flag.
///
/// Both arenas are lane-major: program word `o`, lane `l` lives at
/// `o·lanes + l`, so one instruction dispatch evaluates every lane.
#[derive(Debug, Clone)]
pub(crate) struct State<W: Lanes> {
    lanes: W,
    /// `prog.arena_words · lanes` words.
    arena: Vec<u64>,
    /// `prog.mem_arena_words · lanes` words.
    mem_arena: Vec<u64>,
    /// Per-level dirty worklists of instruction indices. An instruction
    /// is dirty when any lane of any operand changed.
    queues: Vec<Vec<u32>>,
    queued: Vec<bool>,
    /// Register-sample buffer for two-phase commits.
    scratch: Vec<u64>,
    /// Write-port samples `(mem, addr, data, lane)` of the edge being
    /// committed, kept so that an edge allocates nothing.
    writes: Vec<(u32, u64, Bits, usize)>,
    /// Per-level / per-instruction execution counters; `None` (the
    /// default) costs one predictable branch per executed instruction.
    profile: Option<Box<NlProfileState>>,
    /// Task firings in observation order (edges ascending; within an
    /// edge, task plan order then lane order).
    pub tasks: Vec<W::Fire>,
    /// Per lane: whether its `$finish` has fired.
    pub finished: Vec<bool>,
    /// `finished` at the start of the current edge (a task that fires
    /// `$finish` does not suppress later tasks of that edge).
    pre_finished: Vec<bool>,
    pub all_finished: bool,
    /// Edges executed per lane (a lane stops counting once finished).
    pub lane_cycles: Vec<u64>,
    /// Edges executed (max over lanes).
    pub cycles: u64,
}

/// Raw activity counters collected when profiling is enabled.
#[derive(Debug, Clone, Default)]
pub(crate) struct NlProfileState {
    /// Instruction executions per combinational level.
    pub level_execs: Vec<u64>,
    /// Executions per instruction (index-aligned with `Program::instrs`).
    pub instr_execs: Vec<u64>,
    /// Lanes whose output word(s) changed, per instruction.
    pub instr_changes: Vec<u64>,
    /// Settle passes observed (denominator for mean per-level activity).
    pub settles: u64,
    /// Lane count of the owning evaluator (1 for the scalar engine).
    pub lanes: u32,
}

/// Summary counters for diagnostics and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramStats {
    /// Compiled combinational instructions.
    pub instrs: u32,
    /// Instructions on the generic multi-word fallback lane.
    pub wide_instrs: u32,
    /// 64-bit words in the net arena.
    pub arena_words: u32,
    /// 64-bit words in the memory arena.
    pub mem_arena_words: u32,
    /// Combinational levels (depth of the scheduling pipeline).
    pub levels: u32,
}

impl Program {
    /// Lowers a levelized netlist into the arena program.
    pub fn compile(nl: &Netlist) -> Result<Program, LevelError> {
        let order = levelize(nl)?;
        let (net_level, _depth) = levels(nl, &order);

        // Arena layout: every net gets at least one word so zero-width
        // temps still have a defined slot.
        let mut slots = Vec::with_capacity(nl.nets.len());
        let mut off = 0u32;
        for net in &nl.nets {
            let words = net.width.div_ceil(64).max(1);
            slots.push(Slot {
                off,
                words,
                width: net.width,
            });
            off += words;
        }
        let arena_words = off;

        let mut mems = Vec::with_capacity(nl.mems.len());
        let mut moff = 0u32;
        for m in &nl.mems {
            let words_per = m.width.div_ceil(64).max(1);
            mems.push(MemLayout {
                off: moff,
                words_per,
                count: m.words,
                width: m.width,
            });
            moff += words_per * m.words as u32;
        }

        let mut items: Vec<(u32, NetId, Instr)> = Vec::with_capacity(order.len());
        let mut num_levels = 0u32;
        let mut wide_instrs = 0u32;
        for &net in &order {
            let instr = compile_net(nl, &slots, &mems, net);
            if matches!(
                instr.kernel,
                Kernel::Wide { .. } | Kernel::WideMemRead { .. }
            ) {
                wide_instrs += 1;
            }
            // Source nets are level 0 and comb nets start at 1; instruction
            // levels are 0-based.
            let l = net_level[net.0 as usize].saturating_sub(1);
            num_levels = num_levels.max(l + 1);
            items.push((l, net, instr));
        }
        // --- Peephole over the compiled instruction stream. ---
        //
        // External observers pin their nets: named signals, ports,
        // register d/q, memory write-port operands, task triggers and
        // arguments, clocks. A pinned net's instruction must survive with
        // its value materialized in the arena; anything else is an
        // internal temp only instruction operands read, which the passes
        // below may reroute or eliminate.
        let mut pinned: Vec<bool> = nl.nets.iter().map(|n| n.name.is_some()).collect();
        for &n in &nl.inputs {
            pinned[n.0 as usize] = true;
        }
        for (_, n) in &nl.outputs {
            pinned[n.0 as usize] = true;
        }
        for r in &nl.regs {
            pinned[r.d.0 as usize] = true;
            pinned[r.q.0 as usize] = true;
        }
        for m in &nl.mems {
            for p in &m.write_ports {
                pinned[p.enable.0 as usize] = true;
                pinned[p.addr.0 as usize] = true;
                pinned[p.data.0 as usize] = true;
            }
        }
        for t in &nl.tasks {
            pinned[t.trigger.0 as usize] = true;
            for a in &t.args {
                pinned[a.0 as usize] = true;
            }
        }
        for &(c, _) in &nl.clocks {
            pinned[c.0 as usize] = true;
        }

        // Slot base offset -> net, for attributing operands.
        let mut off2net = vec![u32::MAX; arena_words as usize];
        for (i, s) in slots.iter().enumerate() {
            off2net[s.off as usize] = i as u32;
        }
        // Nets consumed by a `Wide` kernel must also stay materialized:
        // the fallback lane reads whole slots at source widths.
        let mut wide_read = vec![false; nl.nets.len()];
        for (_, _, ins) in &items {
            if let Kernel::Wide { inputs, .. } = &ins.kernel {
                for n in inputs.iter() {
                    wide_read[n.0 as usize] = true;
                }
            }
        }

        // Pass 1 — copy propagation: a `ZExt` (or offset-0 `Slice`) that
        // does not narrow holds exactly its source's word, so consumers
        // can read the source slot directly and the copy disappears.
        let mut dead = vec![false; items.len()];
        let mut fwd: Vec<u32> = (0..arena_words).collect();
        for (idx, (_, net, ins)) in items.iter().enumerate() {
            let src = match ins.kernel {
                Kernel::ZExt { a } => a,
                Kernel::Slice { a, offset: 0 } => a,
                _ => continue,
            };
            let n = net.0 as usize;
            if pinned[n] || wide_read[n] {
                continue;
            }
            if slots[n].width < slots[off2net[src as usize] as usize].width {
                continue; // truncating copy: the output mask does real work
            }
            // Items are in level order, so the source's own forwarding (if
            // any) is already final: chains collapse in one pass.
            fwd[ins.dst as usize] = fwd[src as usize];
            dead[idx] = true;
        }
        for (_, _, ins) in items.iter_mut() {
            for_each_operand(&mut ins.kernel, &mut |o| *o = fwd[*o as usize]);
        }

        // Pass 2 — compare/select fusion: a single-use unsigned compare
        // whose only reader is a mux selector folds into the mux.
        let mut uses = vec![0u32; nl.nets.len()];
        let mut producer = vec![usize::MAX; nl.nets.len()];
        for (idx, (_, net, ins)) in items.iter_mut().enumerate() {
            if dead[idx] {
                continue;
            }
            producer[net.0 as usize] = idx;
            for_each_operand(&mut ins.kernel, &mut |o| {
                uses[off2net[*o as usize] as usize] += 1;
            });
        }
        for idx in 0..items.len() {
            let (s, t, e) = match items[idx].2.kernel {
                Kernel::Mux { s, t, e } => (s, t, e),
                _ => continue,
            };
            let sn = off2net[s as usize] as usize;
            if pinned[sn] || wide_read[sn] || uses[sn] != 1 {
                continue;
            }
            let pidx = producer[sn];
            // A compare's mask keeps bit 0, so its 0/1 result is exact.
            if pidx == usize::MAX || items[pidx].2.mask & 1 == 0 {
                continue;
            }
            let fused = match items[pidx].2.kernel {
                Kernel::Eq { a, b } => Kernel::MuxEq { a, b, t, e },
                Kernel::Ne { a, b } => Kernel::MuxNe { a, b, t, e },
                Kernel::LtU { a, b } => Kernel::MuxLtU { a, b, t, e },
                Kernel::LeU { a, b } => Kernel::MuxLeU { a, b, t, e },
                _ => continue,
            };
            items[idx].2.kernel = fused;
            dead[pidx] = true;
        }

        // Pass 3 — rotate fusion: a `Concat2` part produced by a
        // single-use static slice reads the sliced source directly, with
        // the shift and mask folded in. Barrel rotates (`{x[l:0],
        // x[h:l+1]}`) become one instruction instead of three.
        let fusable_slice =
            |items: &[(u32, NetId, Instr)], off: u32| -> Option<(usize, u32, u32, u64)> {
                let n = off2net[off as usize] as usize;
                if pinned[n] || wide_read[n] || uses[n] != 1 {
                    return None;
                }
                let pidx = producer[n];
                if pidx == usize::MAX {
                    return None;
                }
                match items[pidx].2.kernel {
                    Kernel::Slice { a, offset } if offset < 64 => {
                        Some((pidx, a, offset, items[pidx].2.mask))
                    }
                    _ => None,
                }
            };
        for idx in 0..items.len() {
            let (a, sa, b, sb) = match items[idx].2.kernel {
                Kernel::Concat2 { a, sa, b, sb } => (a, sa, b, sb),
                _ => continue,
            };
            let fa = fusable_slice(&items, a);
            let fb = fusable_slice(&items, b);
            if fa.is_none() && fb.is_none() {
                continue;
            }
            let (a, ra, ma) = match fa {
                Some((p, src, shr, m)) => {
                    dead[p] = true;
                    (src, shr, m)
                }
                None => (a, 0, u64::MAX),
            };
            let (b, rb, mb) = match fb {
                Some((p, src, shr, m)) => {
                    dead[p] = true;
                    (src, shr, m)
                }
                None => (b, 0, u64::MAX),
            };
            items[idx].2.kernel = Kernel::Rot {
                a,
                ra,
                ma,
                sa,
                b,
                rb,
                mb,
                sb,
            };
        }

        // Pass 4 — small-domain cone evaluation: an instruction whose
        // transitive support is constants plus at most one narrow root
        // net (a state register, a round counter) is a pure function of
        // that root, so it is evaluated over the root's entire domain at
        // compile time. A `case` over literals — the ROM/round-constant
        // idiom — collapses to one table probe regardless of how
        // lowering shaped the select network, and fully constant cones
        // fold to `ConstK`. Interior nodes die in the DCE pass below.
        const MAX_IDX_BITS: u32 = 8;
        #[derive(Clone)]
        enum NVal {
            /// Not a function of a single small root.
            Opaque,
            /// Constant, already masked to the net width.
            Const(u64),
            /// `table[root]`, where `root` is a slot base offset and the
            /// table spans the root's full domain, values post-mask.
            Dep { root: u32, table: Box<[u64]> },
        }
        let mut vals: Vec<NVal> = vec![NVal::Opaque; nl.nets.len()];
        for (n, net) in nl.nets.iter().enumerate() {
            // A pinned constant stays opaque: `set_by_name` may overwrite
            // the slot of any named net, and folding would hide that.
            if pinned[n] || net.width > 64 {
                continue;
            }
            if let Def::Const(c) = &net.def {
                vals[n] = NVal::Const(c.resize(net.width).to_u64());
            }
        }
        let mut ops: Vec<u32> = Vec::new();
        let mut probe_arena: Vec<u64> = Vec::new();
        for idx in 0..items.len() {
            if dead[idx]
                || matches!(
                    items[idx].2.kernel,
                    Kernel::MemRead { .. } | Kernel::Wide { .. } | Kernel::WideMemRead { .. }
                )
            {
                continue;
            }
            ops.clear();
            for_each_operand(&mut items[idx].2.kernel, &mut |o| ops.push(*o));
            // Classify the operands. Items arrive in topological order,
            // so each operand's own `NVal` is already final.
            let mut root: Option<u32> = None;
            let mut deps = 0usize;
            let mut ok = true;
            for &o in &ops {
                let on = off2net.get(o as usize).copied().unwrap_or(u32::MAX);
                if on == u32::MAX {
                    ok = false;
                    break;
                }
                let candidate = match &vals[on as usize] {
                    NVal::Const(_) => continue,
                    NVal::Dep { root, .. } => {
                        deps += 1;
                        *root
                    }
                    NVal::Opaque => {
                        let s = slots[on as usize];
                        if s.words != 1 || s.width == 0 || s.width > MAX_IDX_BITS || o != s.off {
                            ok = false;
                            break;
                        }
                        o
                    }
                };
                match root {
                    None => root = Some(candidate),
                    Some(r) if r == candidate => {}
                    Some(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            // Evaluate the instruction with the per-cycle kernels, one
            // lane per root value (one lane when every operand is
            // constant), in a scratch arena: operand `j` in word `j`, the
            // result in the word after the last operand. The generic
            // instance runs it, so no program depends on its host's ISA.
            let net = items[idx].1 .0 as usize;
            let lanes = root.map_or(1, |ro| 1usize << slots[off2net[ro as usize] as usize].width);
            let mut probe = items[idx].2.clone();
            let mut next = 0u32;
            for_each_operand(&mut probe.kernel, &mut |o| {
                *o = next;
                next += 1;
            });
            probe.dst = next;
            probe_arena.clear();
            probe_arena.resize((ops.len() + 1) * lanes, 0);
            for (j, &o) in ops.iter().enumerate() {
                for (v, w) in probe_arena[j * lanes..(j + 1) * lanes]
                    .iter_mut()
                    .enumerate()
                {
                    *w = if Some(o) == root {
                        v as u64
                    } else {
                        match &vals[off2net[o as usize] as usize] {
                            NVal::Const(c) => *c,
                            NVal::Dep { table, .. } => table[v],
                            NVal::Opaque => unreachable!("classified const or root"),
                        }
                    };
                }
            }
            // SAFETY: `probe` reads words `0..ops.len()` and writes word
            // `ops.len()` of a `lanes`-wide arena of `ops.len() + 1` words;
            // memory reads and wide kernels were filtered above, so the
            // empty layouts and memory arena are never touched.
            unsafe {
                Wide::new(lanes, Isa::Generic).exec(
                    &probe,
                    &[],
                    &[],
                    probe_arena.as_mut_ptr(),
                    std::ptr::null(),
                );
            }
            let out = &probe_arena[ops.len() * lanes..];
            let Some(ro) = root else {
                // Every operand is constant: fold the whole instruction.
                let v = out[0];
                items[idx].2.kernel = Kernel::ConstK { v };
                vals[net] = NVal::Const(v);
                continue;
            };
            let table: Box<[u64]> = out.into();
            // Only rewrite when the probe collapses interior nodes; a
            // depth-1 cone (root and constants read directly) is already
            // one instruction. The `NVal` still propagates either way.
            if deps > 0 {
                items[idx].2.kernel = Kernel::Lookup {
                    idx: ro,
                    table: table.clone(),
                    default: 0,
                };
            }
            vals[net] = NVal::Dep { root: ro, table };
        }

        // Pass 5 — dead code elimination: recompute use counts from the
        // rewritten kernels (the passes above reroute reads) and drop
        // unpinned instructions nothing reads, to a fixpoint so whole
        // flattened cones disappear at once.
        let mut uses = vec![0u32; nl.nets.len()];
        for (idx, (_, _, ins)) in items.iter_mut().enumerate() {
            if dead[idx] {
                continue;
            }
            if let Kernel::Wide { inputs, .. } = &ins.kernel {
                for n in inputs.iter() {
                    uses[n.0 as usize] += 1;
                }
            }
            for_each_operand(&mut ins.kernel, &mut |o| {
                let n = off2net[*o as usize];
                if n != u32::MAX {
                    uses[n as usize] += 1;
                }
            });
        }
        let mut changed = true;
        while changed {
            changed = false;
            for idx in 0..items.len() {
                if dead[idx] {
                    continue;
                }
                let n = items[idx].1 .0 as usize;
                if pinned[n] || uses[n] > 0 {
                    continue;
                }
                dead[idx] = true;
                changed = true;
                if let Kernel::Wide { inputs, .. } = &items[idx].2.kernel {
                    for m in inputs.iter() {
                        uses[m.0 as usize] -= 1;
                    }
                }
                for_each_operand(&mut items[idx].2.kernel, &mut |o| {
                    let m = off2net[*o as usize];
                    if m != u32::MAX {
                        uses[m as usize] -= 1;
                    }
                });
            }
        }
        let mut items: Vec<(u32, NetId, Instr)> = items
            .into_iter()
            .zip(dead)
            .filter_map(|(item, d)| (!d).then_some(item))
            .collect();

        // Instructions within a level are independent, so group them by
        // kernel kind: the interpreter's dispatch branch then sees runs of
        // the same opcode and predicts well.
        items.sort_by_key(|(l, _, ins)| (*l, kernel_rank(&ins.kernel)));
        let level: Vec<u32> = items.iter().map(|&(l, _, _)| l).collect();

        // Fan-out: net -> consuming instructions, memory -> readers.
        // Built from kernel operands rather than netlist cell inputs: the
        // passes above reroute reads, and sparse invalidation must follow
        // the reads the interpreter actually performs.
        let mut fanout: Vec<Vec<u32>> = vec![Vec::new(); nl.nets.len()];
        let mut mem_fanout: Vec<Vec<u32>> = vec![Vec::new(); nl.mems.len()];
        for (i, (_, _, ins)) in items.iter_mut().enumerate() {
            if let Kernel::Wide { inputs, .. } = &ins.kernel {
                for n in inputs.iter() {
                    let f = &mut fanout[n.0 as usize];
                    if f.last() != Some(&(i as u32)) {
                        f.push(i as u32);
                    }
                }
            }
            if let Kernel::MemRead { mem, .. } | Kernel::WideMemRead { mem, .. } = ins.kernel {
                mem_fanout[mem as usize].push(i as u32);
            }
            for_each_operand(&mut ins.kernel, &mut |o| {
                let f = &mut fanout[off2net[*o as usize] as usize];
                if f.last() != Some(&(i as u32)) {
                    f.push(i as u32);
                }
            });
        }
        let instrs: Vec<Instr> = items.into_iter().map(|(_, _, ins)| ins).collect();

        // Per-domain sequential plans.
        let mut domains: Vec<DomainPlan> = (0..nl.clocks.len().max(1))
            .map(|_| DomainPlan::default())
            .collect();
        for reg in &nl.regs {
            let plan = &mut domains[reg.clock.0 as usize];
            let d = slots[reg.d.0 as usize];
            let q = slots[reg.q.0 as usize];
            let commit = RegCommit {
                d,
                q,
                q_net: reg.q.0,
                scratch: plan.scratch_words,
            };
            plan.scratch_words += d.words;
            if d.words == 1 && q.words == 1 {
                plan.small.push(commit);
            } else {
                plan.regs.push(commit);
            }
        }
        for (mi, mem) in nl.mems.iter().enumerate() {
            for port in &mem.write_ports {
                domains[port.clock.0 as usize].ports.push(PortCommit {
                    mem: mi as u32,
                    enable: slots[port.enable.0 as usize],
                    addr: slots[port.addr.0 as usize].off,
                    data: slots[port.data.0 as usize],
                });
            }
        }
        for (ti, task) in nl.tasks.iter().enumerate() {
            domains[task.clock.0 as usize].tasks.push(ti as u32);
        }

        Ok(Program {
            slots,
            instrs,
            level,
            num_levels,
            fanout: fanout.into_iter().map(Vec::into_boxed_slice).collect(),
            mem_fanout: mem_fanout.into_iter().map(Vec::into_boxed_slice).collect(),
            mems,
            domains,
            arena_words,
            mem_arena_words: moff,
            wide_instrs,
        })
    }

    /// Instruction counts by kernel kind (diagnostic).
    pub fn kernel_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut map: std::collections::BTreeMap<&'static str, usize> = Default::default();
        for ins in self.instrs.iter() {
            *map.entry(kernel_name(&ins.kernel)).or_default() += 1;
        }
        let mut v: Vec<_> = map.into_iter().collect();
        v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        v
    }

    /// Summary counters.
    pub fn stats(&self) -> ProgramStats {
        ProgramStats {
            instrs: self.instrs.len() as u32,
            wide_instrs: self.wide_instrs,
            arena_words: self.arena_words,
            mem_arena_words: self.mem_arena_words,
            levels: self.num_levels,
        }
    }
}

/// Stable mnemonic for a kernel kind (histograms, profiling).
pub(crate) fn kernel_name(k: &Kernel) -> &'static str {
    use Kernel as K;
    match k {
        K::And { .. } => "And",
        K::Or { .. } => "Or",
        K::Xor { .. } => "Xor",
        K::Xnor { .. } => "Xnor",
        K::Not { .. } => "Not",
        K::Add { .. } => "Add",
        K::Sub { .. } => "Sub",
        K::Neg { .. } => "Neg",
        K::Mul { .. } => "Mul",
        K::Concat2 { .. } => "Concat2",
        K::Rot { .. } => "Rot",
        K::Lookup { .. } => "Lookup",
        K::ConstK { .. } => "ConstK",
        K::Concat { .. } => "Concat",
        K::Slice { .. } => "Slice",
        K::ZExt { .. } => "ZExt",
        K::SExt { .. } => "SExt",
        K::Repeat { .. } => "Repeat",
        K::Mux { .. } => "Mux",
        K::MuxEq { .. } => "MuxEq",
        K::MuxNe { .. } => "MuxNe",
        K::MuxLtU { .. } => "MuxLtU",
        K::MuxLeU { .. } => "MuxLeU",
        K::Eq { .. } => "Eq",
        K::Ne { .. } => "Ne",
        K::LtU { .. } => "LtU",
        K::LeU { .. } => "LeU",
        K::LtS { .. } => "LtS",
        K::LeS { .. } => "LeS",
        K::Shl { .. } => "Shl",
        K::Shr { .. } => "Shr",
        K::AShr { .. } => "AShr",
        K::DynSlice { .. } => "DynSlice",
        K::RedAnd { .. } => "RedAnd",
        K::RedOr { .. } => "RedOr",
        K::RedXor { .. } => "RedXor",
        K::LogNot { .. } => "LogNot",
        K::DivU { .. } => "DivU",
        K::RemU { .. } => "RemU",
        K::DivS { .. } => "DivS",
        K::RemS { .. } => "RemS",
        K::MemRead { .. } => "MemRead",
        K::Wide { .. } => "Wide",
        K::WideMemRead { .. } => "WideMemRead",
    }
}

/// Calls `f` on every single-word operand of a kernel. Operands are slot
/// base offsets, so the peephole passes can rewrite or attribute them;
/// `Wide` inputs are net ids at source widths and are not visited.
fn for_each_operand(k: &mut Kernel, f: &mut impl FnMut(&mut u32)) {
    use Kernel as K;
    match k {
        K::Not { a }
        | K::Neg { a }
        | K::RedAnd { a, .. }
        | K::RedOr { a }
        | K::RedXor { a }
        | K::LogNot { a }
        | K::Slice { a, .. }
        | K::ZExt { a }
        | K::SExt { a, .. }
        | K::Repeat { a, .. } => f(a),
        K::Add { a, b }
        | K::Sub { a, b }
        | K::Mul { a, b }
        | K::DivU { a, b }
        | K::RemU { a, b }
        | K::DivS { a, b, .. }
        | K::RemS { a, b, .. }
        | K::And { a, b }
        | K::Or { a, b }
        | K::Xor { a, b }
        | K::Xnor { a, b }
        | K::Shl { a, b, .. }
        | K::Shr { a, b, .. }
        | K::AShr { a, b, .. }
        | K::Eq { a, b }
        | K::Ne { a, b }
        | K::LtU { a, b }
        | K::LeU { a, b }
        | K::LtS { a, b, .. }
        | K::LeS { a, b, .. }
        | K::DynSlice { a, b }
        | K::Concat2 { a, b, .. }
        | K::Rot { a, b, .. } => {
            f(a);
            f(b);
        }
        K::Mux { s, t, e } => {
            f(s);
            f(t);
            f(e);
        }
        K::MuxEq { a, b, t, e }
        | K::MuxNe { a, b, t, e }
        | K::MuxLtU { a, b, t, e }
        | K::MuxLeU { a, b, t, e } => {
            f(a);
            f(b);
            f(t);
            f(e);
        }
        K::Concat { parts } => {
            for (o, _) in parts.iter_mut() {
                f(o);
            }
        }
        K::MemRead { addr, .. } | K::WideMemRead { addr, .. } => f(addr),
        K::Lookup { idx, .. } => f(idx),
        K::ConstK { .. } | K::Wide { .. } => {}
    }
}

/// Dispatch-order rank for grouping same-kind kernels within a level.
fn kernel_rank(k: &Kernel) -> u8 {
    use Kernel as K;
    match k {
        K::And { .. } => 0,
        K::Or { .. } => 1,
        K::Xor { .. } => 2,
        K::Xnor { .. } => 3,
        K::Not { .. } => 4,
        K::Add { .. } => 5,
        K::Sub { .. } => 6,
        K::Neg { .. } => 7,
        K::Mul { .. } => 8,
        K::Concat2 { .. } => 9,
        K::Rot { .. } => 41,
        K::Lookup { .. } => 42,
        K::ConstK { .. } => 43,
        K::Concat { .. } => 10,
        K::Slice { .. } => 11,
        K::ZExt { .. } => 12,
        K::SExt { .. } => 13,
        K::Repeat { .. } => 14,
        K::Mux { .. } => 15,
        K::MuxEq { .. } => 37,
        K::MuxNe { .. } => 38,
        K::MuxLtU { .. } => 39,
        K::MuxLeU { .. } => 40,
        K::Eq { .. } => 16,
        K::Ne { .. } => 17,
        K::LtU { .. } => 18,
        K::LeU { .. } => 19,
        K::LtS { .. } => 20,
        K::LeS { .. } => 21,
        K::Shl { .. } => 22,
        K::Shr { .. } => 23,
        K::AShr { .. } => 24,
        K::DynSlice { .. } => 25,
        K::RedAnd { .. } => 26,
        K::RedOr { .. } => 27,
        K::RedXor { .. } => 28,
        K::LogNot { .. } => 29,
        K::DivU { .. } => 30,
        K::RemU { .. } => 31,
        K::DivS { .. } => 32,
        K::RemS { .. } => 33,
        K::MemRead { .. } => 34,
        K::Wide { .. } => 35,
        K::WideMemRead { .. } => 36,
    }
}

/// Compiles one combinational net into an instruction.
fn compile_net(nl: &Netlist, slots: &[Slot], mems: &[MemLayout], net: NetId) -> Instr {
    let out_slot = slots[net.0 as usize];
    let width = out_slot.width;
    let outmask = wmask(width);
    let out = net.0;
    match &nl.nets[net.0 as usize].def {
        Def::MemRead { mem, addr } => {
            let addr_off = slots[addr.0 as usize].off;
            let m = mems[mem.0 as usize];
            let kernel = if m.width <= 64 && width <= 64 {
                Kernel::MemRead {
                    mem: mem.0,
                    addr: addr_off,
                }
            } else {
                Kernel::WideMemRead {
                    mem: mem.0,
                    addr: addr_off,
                }
            };
            Instr {
                dst: out_slot.off,
                mask: outmask,
                out,
                kernel,
            }
        }
        Def::Cell(cell) => {
            let ins = &cell.inputs;
            let slot = |i: usize| slots[ins[i].0 as usize];
            let o = |i: usize| slot(i).off;
            let w = |i: usize| slot(i).width;
            let all_small = width <= 64 && ins.iter().all(|i| slots[i.0 as usize].width <= 64);
            let wide = || Instr {
                dst: out_slot.off,
                mask: outmask,
                out,
                kernel: Kernel::Wide {
                    op: cell.op,
                    inputs: ins.clone().into_boxed_slice(),
                },
            };
            if !all_small {
                return wide();
            }
            use CellOp as C;
            // `mask` folds the operation-width wrap and the output resize
            // into one AND; kernels that need a different combination set
            // it explicitly.
            let binop_mask = |i: usize, j: usize| wmask(w(i).max(w(j))) & outmask;
            let (kernel, mask) = match cell.op {
                C::Not => (Kernel::Not { a: o(0) }, wmask(w(0)) & outmask),
                C::Neg => (Kernel::Neg { a: o(0) }, wmask(w(0)) & outmask),
                C::RedAnd => (Kernel::RedAnd { a: o(0), aw: w(0) }, outmask),
                C::RedOr => (Kernel::RedOr { a: o(0) }, outmask),
                C::RedXor => (Kernel::RedXor { a: o(0) }, outmask),
                C::LogNot => (Kernel::LogNot { a: o(0) }, outmask),
                C::Add => (Kernel::Add { a: o(0), b: o(1) }, binop_mask(0, 1)),
                C::Sub => (Kernel::Sub { a: o(0), b: o(1) }, binop_mask(0, 1)),
                C::Mul => (Kernel::Mul { a: o(0), b: o(1) }, binop_mask(0, 1)),
                C::DivU => (Kernel::DivU { a: o(0), b: o(1) }, binop_mask(0, 1)),
                C::RemU => (Kernel::RemU { a: o(0), b: o(1) }, binop_mask(0, 1)),
                C::DivS => (
                    Kernel::DivS {
                        a: o(0),
                        b: o(1),
                        aw: w(0),
                        bw: w(1),
                    },
                    binop_mask(0, 1),
                ),
                C::RemS => (
                    Kernel::RemS {
                        a: o(0),
                        b: o(1),
                        aw: w(0),
                        bw: w(1),
                    },
                    binop_mask(0, 1),
                ),
                C::And => (Kernel::And { a: o(0), b: o(1) }, binop_mask(0, 1)),
                C::Or => (Kernel::Or { a: o(0), b: o(1) }, binop_mask(0, 1)),
                C::Xor => (Kernel::Xor { a: o(0), b: o(1) }, binop_mask(0, 1)),
                C::Xnor => (Kernel::Xnor { a: o(0), b: o(1) }, binop_mask(0, 1)),
                C::Shl => (Kernel::Shl { a: o(0), b: o(1) }, wmask(w(0)) & outmask),
                C::Shr => (Kernel::Shr { a: o(0), b: o(1) }, outmask),
                C::AShr => (
                    Kernel::AShr {
                        a: o(0),
                        b: o(1),
                        aw: w(0),
                    },
                    wmask(w(0)) & outmask,
                ),
                C::Eq => (Kernel::Eq { a: o(0), b: o(1) }, outmask),
                C::Ne => (Kernel::Ne { a: o(0), b: o(1) }, outmask),
                C::LtU => (Kernel::LtU { a: o(0), b: o(1) }, outmask),
                C::LeU => (Kernel::LeU { a: o(0), b: o(1) }, outmask),
                C::LtS => (
                    Kernel::LtS {
                        a: o(0),
                        b: o(1),
                        aw: w(0),
                        bw: w(1),
                    },
                    outmask,
                ),
                C::LeS => (
                    Kernel::LeS {
                        a: o(0),
                        b: o(1),
                        aw: w(0),
                        bw: w(1),
                    },
                    outmask,
                ),
                C::Mux => (
                    Kernel::Mux {
                        s: o(0),
                        t: o(1),
                        e: o(2),
                    },
                    outmask,
                ),
                C::Concat => {
                    let total: u32 = ins.iter().map(|i| slots[i.0 as usize].width).sum();
                    if total > 64 {
                        return wide();
                    }
                    // Inputs are MSB-first; compute each part's LSB offset.
                    let mut shift = total;
                    let mut parts = Vec::with_capacity(ins.len());
                    for i in 0..ins.len() {
                        let pw = w(i);
                        shift -= pw;
                        if pw > 0 {
                            parts.push((o(i), shift));
                        }
                    }
                    if let [(a, sa), (b, sb)] = parts[..] {
                        (Kernel::Concat2 { a, sa, b, sb }, outmask)
                    } else {
                        (
                            Kernel::Concat {
                                parts: parts.into_boxed_slice(),
                            },
                            outmask,
                        )
                    }
                }
                C::Slice { offset } => (Kernel::Slice { a: o(0), offset }, outmask),
                C::DynSlice => (Kernel::DynSlice { a: o(0), b: o(1) }, outmask),
                C::ZExt => (Kernel::ZExt { a: o(0) }, outmask),
                C::SExt => {
                    let aw = w(0);
                    let fill = outmask & !wmask(aw);
                    (Kernel::SExt { a: o(0), aw, fill }, outmask)
                }
                C::Repeat { count } => {
                    let aw = w(0);
                    if aw as u64 * count as u64 > 64 {
                        return wide();
                    }
                    let mut factor = 0u64;
                    for i in 0..count {
                        if aw == 0 {
                            break;
                        }
                        factor |= 1u64 << (i * aw);
                    }
                    (Kernel::Repeat { a: o(0), factor }, outmask)
                }
            };
            Instr {
                dst: out_slot.off,
                mask,
                out,
                kernel,
            }
        }
        _ => unreachable!("only cells and memory reads are compiled"),
    }
}

impl<W: Lanes> State<W> {
    /// Fresh state: constants and register initial values written into
    /// every lane, and the first settle done.
    pub fn new(nl: &Netlist, prog: &Program, lanes: W) -> Self {
        let n = lanes.n();
        let scratch_words = prog
            .domains
            .iter()
            .map(|d| d.scratch_words)
            .max()
            .unwrap_or(0) as usize;
        let mut st = State {
            lanes,
            arena: vec![0u64; prog.arena_words as usize * n],
            mem_arena: vec![0u64; prog.mem_arena_words as usize * n],
            queues: (0..prog.num_levels).map(|_| Vec::new()).collect(),
            queued: vec![false; prog.instrs.len()],
            scratch: vec![0u64; scratch_words * n],
            writes: Vec::new(),
            profile: None,
            tasks: Vec::new(),
            finished: vec![false; n],
            pre_finished: vec![false; n],
            all_finished: false,
            lane_cycles: vec![0; n],
            cycles: 0,
        };
        st.reset(nl, prog);
        st
    }

    /// Returns every lane to power-on state: registers at their initial
    /// values, memories zeroed, no tasks, no finish, no edges counted.
    pub fn reset(&mut self, nl: &Netlist, prog: &Program) {
        self.arena.fill(0);
        self.mem_arena.fill(0);
        for q in &mut self.queues {
            q.clear();
        }
        self.queued.fill(false);
        self.tasks.clear();
        self.finished.fill(false);
        self.pre_finished.fill(false);
        self.all_finished = false;
        self.lane_cycles.fill(0);
        self.cycles = 0;
        for (i, net) in nl.nets.iter().enumerate() {
            match &net.def {
                Def::Const(c) => {
                    self.write_all(prog.slots[i], &c.resize(net.width));
                }
                Def::Reg(r) => {
                    self.write_all(prog.slots[i], &nl.regs[r.0 as usize].init.resize(net.width));
                }
                _ => {}
            }
        }
        self.mark_all(prog);
        self.settle_auto(prog);
    }

    /// Number of lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes.n()
    }

    /// Queues every instruction (full re-evaluation).
    fn mark_all(&mut self, prog: &Program) {
        for i in 0..prog.instrs.len() as u32 {
            if !self.queued[i as usize] {
                self.queued[i as usize] = true;
                self.queues[prog.level[i as usize] as usize].push(i);
            }
        }
    }

    /// Queues the consumers of one net.
    #[inline]
    pub fn mark(&mut self, prog: &Program, net: u32) {
        for &i in prog.fanout[net as usize].iter() {
            if !self.queued[i as usize] {
                self.queued[i as usize] = true;
                self.queues[prog.level[i as usize] as usize].push(i);
            }
        }
    }

    /// Queues every reader of a memory.
    fn mark_mem(&mut self, prog: &Program, mem: u32) {
        for &i in prog.mem_fanout[mem as usize].iter() {
            if !self.queued[i as usize] {
                self.queued[i as usize] = true;
                self.queues[prog.level[i as usize] as usize].push(i);
            }
        }
    }

    /// Executes instruction `i` across every lane; returns the number of
    /// lanes whose output changed.
    #[inline]
    fn exec(&mut self, prog: &Program, i: u32) -> u32 {
        debug_assert!((i as usize) < prog.instrs.len());
        // SAFETY: instruction indices come from the worklists and the
        // dense loop, both bounded by `prog.instrs.len()`; both arenas
        // hold `lanes` words per program word (see `State::new`).
        unsafe {
            self.lanes.exec(
                prog.instrs.get_unchecked(i as usize),
                &prog.slots,
                &prog.mems,
                self.arena.as_mut_ptr(),
                self.mem_arena.as_ptr(),
            )
        }
    }

    /// Drains the dirty worklists level by level. An instruction's
    /// consumers sit at strictly higher levels, so one ascending pass
    /// reaches a fixed point; a changed output (in any lane) queues them.
    fn settle(&mut self, prog: &Program) {
        for lvl in 0..self.queues.len() {
            if self.queues[lvl].is_empty() {
                continue;
            }
            let mut q = std::mem::take(&mut self.queues[lvl]);
            if let Some(p) = &mut self.profile {
                p.level_execs[lvl] += q.len() as u64;
            }
            for &i in &q {
                self.queued[i as usize] = false;
                let changed = self.exec(prog, i);
                if changed > 0 {
                    self.mark(prog, prog.instrs[i as usize].out);
                }
                if let Some(p) = &mut self.profile {
                    p.instr_execs[i as usize] += 1;
                    p.instr_changes[i as usize] += changed as u64;
                }
            }
            q.clear();
            // Reuse the buffer; consumers were queued at higher levels only.
            debug_assert!(self.queues[lvl].is_empty());
            self.queues[lvl] = q;
        }
        if let Some(p) = &mut self.profile {
            p.settles += 1;
        }
    }

    /// Recomputes every instruction in topological order with no dirty
    /// bookkeeping — the straight-line schedule. Faster than [`settle`]
    /// when most of the netlist is active (fan-out marking and queue churn
    /// cost more than blind recomputation saves).
    ///
    /// [`settle`]: State::settle
    fn settle_dense(&mut self, prog: &Program) {
        for q in &mut self.queues {
            for &i in q.iter() {
                self.queued[i as usize] = false;
            }
            q.clear();
        }
        for i in 0..prog.instrs.len() as u32 {
            let changed = self.exec(prog, i);
            if let Some(p) = &mut self.profile {
                p.instr_execs[i as usize] += 1;
                p.level_execs[prog.level[i as usize] as usize] += 1;
                p.instr_changes[i as usize] += changed as u64;
            }
        }
        if let Some(p) = &mut self.profile {
            p.settles += 1;
        }
    }

    /// [`settle`] or [`settle_dense`], picked from how much of the program
    /// the pending worklists already cover: a widely-seeded wave (common
    /// after a clock edge in compute-bound designs like a PoW miner) runs
    /// straight-line; a narrow one (a quiet design absorbing one input
    /// change) propagates only its cone.
    ///
    /// [`settle`]: State::settle
    /// [`settle_dense`]: State::settle_dense
    pub fn settle_auto(&mut self, prog: &Program) {
        if self.wave_is_dense(prog) {
            self.settle_dense(prog);
        } else {
            self.settle(prog);
        }
    }

    /// Whether the pending worklists cover enough of the program that a
    /// dense pass beats draining them.
    fn wave_is_dense(&self, prog: &Program) -> bool {
        let seeded: usize = self.queues.iter().map(Vec::len).sum();
        seeded * 4 >= prog.instrs.len() && !prog.instrs.is_empty()
    }

    /// Switches on activity profiling (idempotent).
    pub fn enable_profiling(&mut self, prog: &Program) {
        if self.profile.is_none() {
            self.profile = Some(Box::new(NlProfileState {
                level_execs: vec![0; prog.num_levels as usize],
                instr_execs: vec![0; prog.instrs.len()],
                instr_changes: vec![0; prog.instrs.len()],
                settles: 0,
                lanes: self.lanes() as u32,
            }));
        }
    }

    /// The collected activity counters, if profiling is enabled.
    pub fn profile(&self) -> Option<&NlProfileState> {
        self.profile.as_deref()
    }

    /// One lane of one program word.
    #[inline]
    pub fn word(&self, off: u32, lane: usize) -> u64 {
        self.arena[off as usize * self.lanes() + lane]
    }

    /// Whether a slot holds any set bit in the given lane.
    #[inline]
    pub fn bool_lane(&self, slot: Slot, lane: usize) -> bool {
        (0..slot.words).any(|k| self.word(slot.off + k, lane) != 0)
    }

    /// Materializes one lane of a slot as a [`Bits`] value.
    pub fn read_lane(&self, slot: Slot, lane: usize) -> Bits {
        assert!(lane < self.lanes());
        // SAFETY: slots are in-bounds by construction and the arena holds
        // `lanes` words per program word.
        unsafe { slot_bits_lane(self.arena.as_ptr(), self.lanes(), lane, slot) }
    }

    /// Writes one lane of a slot (value already resized to the slot
    /// width). Returns whether any word changed.
    pub fn write_lane(&mut self, slot: Slot, lane: usize, value: &Bits) -> bool {
        assert!(lane < self.lanes());
        // SAFETY: as `read_lane`.
        unsafe { write_slot_lane(self.arena.as_mut_ptr(), self.lanes(), lane, slot, value) }
    }

    /// Writes the same value into every lane of a slot. Returns whether
    /// any word changed.
    pub fn write_all(&mut self, slot: Slot, value: &Bits) -> bool {
        let n = self.lanes();
        let src = value.words();
        let mut changed = false;
        for k in 0..slot.words as usize {
            let w = src.get(k).copied().unwrap_or(0);
            let base = (slot.off as usize + k) * n;
            for d in &mut self.arena[base..base + n] {
                changed |= *d != w;
                *d = w;
            }
        }
        changed
    }

    /// Reads one lane of one memory word as [`Bits`] (zero beyond the end).
    pub fn read_mem(&self, prog: &Program, mem: u32, addr: u64, lane: usize) -> Bits {
        let m = prog.mems[mem as usize];
        let Some(word) = m.word(addr) else {
            return Bits::zero(m.width);
        };
        assert!(lane < self.lanes());
        // SAFETY: `word` lies inside the memory's run of the memory arena,
        // which holds `lanes` words per memory word.
        unsafe { slot_bits_lane(self.mem_arena.as_ptr(), self.lanes(), lane, word) }
    }

    /// Writes one lane of one memory word (resized to the memory width).
    /// With `mark`, queues the memory's readers when the stored word
    /// changed.
    pub fn write_mem(
        &mut self,
        prog: &Program,
        mem: u32,
        addr: u64,
        value: &Bits,
        lane: usize,
        mark: bool,
    ) {
        let Some(word) = prog.mems[mem as usize].word(addr) else {
            return;
        };
        assert!(lane < self.lanes());
        let value = value.resize(word.width);
        // SAFETY: as `read_mem`.
        let changed = unsafe {
            write_slot_lane(
                self.mem_arena.as_mut_ptr(),
                self.lanes(),
                lane,
                word,
                &value,
            )
        };
        if mark && changed {
            self.mark_mem(prog, mem);
        }
    }

    /// Commits one clock domain's registers and memory writes: samples all
    /// pre-edge values, then writes them back. Lanes flagged `finished`
    /// are skipped — a `$finish` edge discards its commits and the lane's
    /// registers stay frozen. With `mark`, the fan-out of every net that
    /// changed is queued; without it nothing is, which is only sound when
    /// the next settle is a dense pass. Combinational state must be
    /// settled.
    fn commit_domain(&mut self, prog: &Program, domain: usize, mark: bool) {
        let Some(plan) = prog.domains.get(domain) else {
            return;
        };
        let n = self.lanes();
        let finished = std::mem::take(&mut self.finished);
        let skip = &finished[..n];
        // Phase 1: sample every register's d into the scratch window (all
        // lanes; skipping is applied at writeback), and every live lane's
        // enabled write ports. Registers may feed each other (shift
        // chains), so no q is written until all ds are read.
        for rc in &plan.small {
            let (s, d) = (rc.scratch as usize * n, rc.d.off as usize * n);
            self.scratch[s..s + n].copy_from_slice(&self.arena[d..d + n]);
        }
        for rc in &plan.regs {
            let (s, d) = (rc.scratch as usize * n, rc.d.off as usize * n);
            let words = rc.d.words as usize * n;
            self.scratch[s..s + words].copy_from_slice(&self.arena[d..d + words]);
        }
        for pc in &plan.ports {
            for (lane, &skipped) in skip.iter().enumerate() {
                if skipped || !self.bool_lane(pc.enable, lane) {
                    continue;
                }
                let addr = self.word(pc.addr, lane);
                let data = self.read_lane(pc.data, lane);
                self.writes.push((pc.mem, addr, data, lane));
            }
        }
        // Phase 2: write back. A skipped lane keeps its q, so the select
        // below is branch-free and the lane loop vectorizes.
        for rc in &plan.small {
            let topmask = top_word_mask(rc.q.width);
            let (s, q) = (rc.scratch as usize * n, rc.q.off as usize * n);
            let changed = write_back(
                &mut self.arena[q..q + n],
                self.scratch[s..s + n].iter().copied(),
                topmask,
                skip,
                mark,
            );
            if changed {
                self.mark(prog, rc.q_net);
            }
        }
        for rc in &plan.regs {
            let q_words = rc.q.words as usize;
            let mut changed = false;
            for k in 0..q_words {
                let topmask = if k == q_words - 1 {
                    top_word_mask(rc.q.width)
                } else {
                    u64::MAX
                };
                let dst = &mut self.arena[(rc.q.off as usize + k) * n..][..n];
                // A q word past the end of d takes zero.
                changed |= if k < rc.d.words as usize {
                    let s = (rc.scratch as usize + k) * n;
                    write_back(
                        dst,
                        self.scratch[s..s + n].iter().copied(),
                        topmask,
                        skip,
                        mark,
                    )
                } else {
                    write_back(dst, std::iter::repeat(0), topmask, skip, mark)
                };
            }
            if changed {
                self.mark(prog, rc.q_net);
            }
        }
        if !self.writes.is_empty() {
            let mut writes = std::mem::take(&mut self.writes);
            for (mem, addr, data, lane) in writes.drain(..) {
                self.write_mem(prog, mem, addr, &data, lane, mark);
            }
            self.writes = writes;
        }
        self.finished = finished;
    }

    /// Executes one edge of the given clock domain across every live
    /// lane: settles, samples task triggers and register/memory inputs at
    /// their pre-edge values, and commits them. The commit's fan-out is
    /// left queued, not propagated: the next edge's settle, or a reader's,
    /// consumes it. A no-op once every lane has finished.
    pub fn step_clock(&mut self, nl: &Netlist, prog: &Program, clock_index: u32) {
        if self.all_finished {
            return;
        }
        self.settle_auto(prog);
        self.fire_tasks(nl, prog, clock_index);
        // `$finish` executes before the nonblocking-update region: an edge
        // that finishes a lane discards that lane's pending commits, the
        // same boundary the event-driven simulator observes.
        self.commit_domain(prog, clock_index as usize, true);
        self.bump_cycles();
    }

    /// Runs up to `n` edges of clock domain 0, stopping early when every
    /// lane has finished or when `budget` task firings are buffered (so a
    /// host can drain `$display` output promptly). Returns the number of
    /// edges executed.
    pub fn run_cycles(&mut self, nl: &Netlist, prog: &Program, n: u64, budget: usize) -> u64 {
        // When a settle goes dense, activity bookkeeping stops paying for
        // itself entirely: the next PROBE-1 commits skip consumer marking
        // (the dense pass recomputes everything anyway), then one marked
        // commit re-seeds the worklists so the schedule can drop back to
        // sparse if the design quiesces.
        const PROBE: u64 = 64;
        let mut dense_left = 0u64;
        let mut done = 0;
        while done < n && !self.all_finished {
            if dense_left > 0 {
                self.settle_dense(prog);
            } else if self.wave_is_dense(prog) {
                self.settle_dense(prog);
                dense_left = PROBE;
            } else {
                self.settle(prog);
            }
            self.fire_tasks(nl, prog, 0);
            if self.all_finished {
                // A `$finish` edge drops its commits (see `step_clock`).
                self.bump_cycles();
                done += 1;
                break;
            }
            if dense_left > 1 {
                self.commit_domain(prog, 0, false);
                dense_left -= 1;
            } else {
                self.commit_domain(prog, 0, true);
                dense_left = 0;
            }
            self.bump_cycles();
            done += 1;
            if self.tasks.len() >= budget {
                break;
            }
        }
        if dense_left > 0 {
            // The last commit skipped marking; only a full pass is sound.
            self.settle_dense(prog);
        } else {
            self.settle_auto(prog);
        }
        done
    }

    /// Samples one domain's task triggers per live lane at their pre-edge
    /// values. A lane finishing on this edge still observes the remaining
    /// tasks of the edge, then stops.
    fn fire_tasks(&mut self, nl: &Netlist, prog: &Program, clock_index: u32) {
        // Lane slices are cut at `n` throughout the run loop: for `One`
        // that is a constant, and the per-lane loops vanish.
        let n = self.lanes();
        self.pre_finished[..n].copy_from_slice(&self.finished[..n]);
        let Some(plan) = prog.domains.get(clock_index as usize) else {
            return;
        };
        for &ti in &plan.tasks {
            let task = &nl.tasks[ti as usize];
            let trigger = prog.slots[task.trigger.0 as usize];
            for lane in 0..n {
                if self.pre_finished[lane] || !self.bool_lane(trigger, lane) {
                    continue;
                }
                let args: Vec<Bits> = task
                    .args
                    .iter()
                    .map(|a| self.read_lane(prog.slots[a.0 as usize], lane))
                    .collect();
                if matches!(task.kind, TaskKind::Finish | TaskKind::Fatal) {
                    self.finished[lane] = true;
                }
                let fire = TaskFire {
                    kind: task.kind,
                    text: render_task(task, &args),
                };
                self.tasks.push(W::fire(lane, fire));
            }
        }
        self.all_finished = self.finished[..n].iter().all(|&f| f);
    }

    /// Advances the edge counters: every lane live at the edge's start
    /// counts it (a finishing edge is a lane's last counted edge).
    fn bump_cycles(&mut self) {
        let n = self.lanes();
        for (lc, &pre) in self.lane_cycles[..n]
            .iter_mut()
            .zip(&self.pre_finished[..n])
        {
            *lc += (!pre) as u64;
        }
        self.cycles += 1;
    }
}

#[cfg(test)]
impl<W: Lanes> State<W> {
    pub fn width(&self) -> W {
        self.lanes
    }

    /// The net and memory arenas, word for word.
    pub fn arenas(&self) -> (&[u64], &[u64]) {
        (&self.arena, &self.mem_arena)
    }
}

/// Writes one register word's sampled lanes `src & topmask` into `dst`,
/// leaving the lanes flagged in `skip` alone. With `mark`, returns whether
/// any lane changed; without it, `false`.
#[inline(always)]
fn write_back(
    dst: &mut [u64],
    src: impl Iterator<Item = u64>,
    topmask: u64,
    skip: &[bool],
    mark: bool,
) -> bool {
    let mut changed = false;
    for ((d, v), &skipped) in dst.iter_mut().zip(src).zip(skip) {
        let v = if skipped { *d } else { v & topmask };
        if mark {
            changed |= *d != v;
        }
        *d = v;
    }
    changed
}

// --- The kernels -----------------------------------------------------------
//
// Every word operation is written once, here, as a per-lane loop over a
// lane-major arena (word `o`, lane `l` at `o * lanes + l`). The dispatcher
// matches the kernel once and runs the loop over all lanes: logic ops
// vectorize trivially, and the arithmetic/compare/select/Lookup loops are
// simple enough for the compiler to auto-vectorize. At `One` lane the loop
// bound is the constant 1 and the loop is the scalar evaluator. A `Wide`
// state runs one of three compiled copies of the same dispatcher (see
// `Isa`): only the lane loops gain from a wider vector unit, so nothing
// else is compiled more than once.

/// Per-lane unary kernel loop. Returns the number of lanes whose output
/// word changed.
///
/// # Safety
/// `arena` must hold `lanes` words per program arena word, and `dst`/`a`
/// must be in-bounds slot offsets of the same program: every operand
/// offset is a slot base laid out within `arena_words` at compile time,
/// and [`State::new`] sizes the arena to exactly that, so the unchecked
/// accesses keep the dispatch loop free of bounds branches. `dst` never
/// aliases an operand: operands come from strictly lower levels.
#[inline(always)]
unsafe fn lanes1(
    arena: *mut u64,
    lanes: usize,
    dst: u32,
    mask: u64,
    a: u32,
    f: impl Fn(u64) -> u64,
) -> u32 {
    let pa = arena.add(a as usize * lanes) as *const u64;
    let pd = arena.add(dst as usize * lanes);
    let mut changed = 0u32;
    for l in 0..lanes {
        let v = f(*pa.add(l)) & mask;
        let d = pd.add(l);
        changed += (*d != v) as u32;
        *d = v;
    }
    changed
}

/// Per-lane binary kernel loop (see [`lanes1`] for the safety contract).
#[inline(always)]
unsafe fn lanes2(
    arena: *mut u64,
    lanes: usize,
    dst: u32,
    mask: u64,
    a: u32,
    b: u32,
    f: impl Fn(u64, u64) -> u64,
) -> u32 {
    let pa = arena.add(a as usize * lanes) as *const u64;
    let pb = arena.add(b as usize * lanes) as *const u64;
    let pd = arena.add(dst as usize * lanes);
    let mut changed = 0u32;
    for l in 0..lanes {
        let v = f(*pa.add(l), *pb.add(l)) & mask;
        let d = pd.add(l);
        changed += (*d != v) as u32;
        *d = v;
    }
    changed
}

/// Per-lane ternary kernel loop (see [`lanes1`] for the safety contract).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn lanes3(
    arena: *mut u64,
    lanes: usize,
    dst: u32,
    mask: u64,
    a: u32,
    b: u32,
    c: u32,
    f: impl Fn(u64, u64, u64) -> u64,
) -> u32 {
    let pa = arena.add(a as usize * lanes) as *const u64;
    let pb = arena.add(b as usize * lanes) as *const u64;
    let pc = arena.add(c as usize * lanes) as *const u64;
    let pd = arena.add(dst as usize * lanes);
    let mut changed = 0u32;
    for l in 0..lanes {
        let v = f(*pa.add(l), *pb.add(l), *pc.add(l)) & mask;
        let d = pd.add(l);
        changed += (*d != v) as u32;
        *d = v;
    }
    changed
}

/// Per-lane four-operand kernel loop (fused compare/select; see [`lanes1`]
/// for the safety contract).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn lanes4(
    arena: *mut u64,
    lanes: usize,
    dst: u32,
    mask: u64,
    a: u32,
    b: u32,
    t: u32,
    e: u32,
    f: impl Fn(u64, u64, u64, u64) -> u64,
) -> u32 {
    let pa = arena.add(a as usize * lanes) as *const u64;
    let pb = arena.add(b as usize * lanes) as *const u64;
    let pt = arena.add(t as usize * lanes) as *const u64;
    let pe = arena.add(e as usize * lanes) as *const u64;
    let pd = arena.add(dst as usize * lanes);
    let mut changed = 0u32;
    for l in 0..lanes {
        let v = f(*pa.add(l), *pb.add(l), *pt.add(l), *pe.add(l)) & mask;
        let d = pd.add(l);
        changed += (*d != v) as u32;
        *d = v;
    }
    changed
}

/// Reads one lane of a slot as [`Bits`] from a lane-major arena.
///
/// # Safety
/// `slot` must lie inside `arena`'s program-word range — a net slot of the
/// net arena, or a [`MemLayout::word`] of the memory arena — and `arena`
/// must hold `lanes` words per program word; `lane < lanes`.
unsafe fn slot_bits_lane(arena: *const u64, lanes: usize, lane: usize, slot: Slot) -> Bits {
    if slot.width <= 64 {
        Bits::from_u64(slot.width, *arena.add(slot.off as usize * lanes + lane))
    } else {
        let mut words = Vec::with_capacity(slot.words as usize);
        for k in 0..slot.words {
            words.push(*arena.add((slot.off + k) as usize * lanes + lane));
        }
        Bits::from_words(slot.width, &words)
    }
}

/// Writes one lane of a slot (value already resized to the slot width)
/// into a lane-major arena. Returns whether any word changed.
///
/// # Safety
/// As [`slot_bits_lane`], with `arena` writable.
unsafe fn write_slot_lane(
    arena: *mut u64,
    lanes: usize,
    lane: usize,
    slot: Slot,
    value: &Bits,
) -> bool {
    let src = value.words();
    let mut changed = false;
    for k in 0..slot.words as usize {
        let w = src.get(k).copied().unwrap_or(0);
        let p = arena.add((slot.off as usize + k) * lanes + lane);
        changed |= *p != w;
        *p = w;
    }
    changed
}

/// Executes one instruction across all lanes of a lane-major arena,
/// storing unconditionally. Returns the number of lanes whose output
/// changed — the dirty signal (a consumer is dirty if *any* lane changed).
/// `slots` and `mems` are the program's layouts, read only by memory reads
/// and the multi-word fallback.
///
/// # Safety
/// `arena` must hold `lanes` words per arena word the instruction reads
/// or writes and `mem` `lanes` words per memory word, both lane-major; the
/// caller must guarantee exclusive access to the destination slot.
#[inline(always)]
unsafe fn exec_lanes<W: Lanes>(
    ins: &Instr,
    slots: &[Slot],
    mems: &[MemLayout],
    arena: *mut u64,
    mem: *const u64,
    lanes: W,
) -> u32 {
    let lanes = lanes.n();
    let dst = ins.dst;
    let m = ins.mask;
    use Kernel as K;
    // Operators compute through the narrow-word table. A kernel that
    // carries no width calls its operation at width 64, and the result
    // mask `m` narrows it exactly (`cascade_bits::word` says why).
    match &ins.kernel {
        K::Not { a } => lanes1(arena, lanes, dst, m, *a, |x| word::not(x, 64)),
        K::Neg { a } => lanes1(arena, lanes, dst, m, *a, |x| word::neg(x, 64)),
        K::RedAnd { a, aw } => {
            let aw = *aw;
            lanes1(arena, lanes, dst, m, *a, move |x| {
                word::red_and(x, aw) as u64
            })
        }
        K::RedOr { a } => lanes1(arena, lanes, dst, m, *a, |x| word::red_or(x) as u64),
        K::RedXor { a } => lanes1(arena, lanes, dst, m, *a, |x| word::red_xor(x) as u64),
        K::LogNot { a } => lanes1(arena, lanes, dst, m, *a, |x| !word::red_or(x) as u64),
        K::Add { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| word::add(x, y, 64)),
        K::Sub { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| word::sub(x, y, 64)),
        K::Mul { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| word::mul(x, y, 64)),
        K::DivU { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| word::divu(x, y, 64)),
        K::RemU { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| word::remu(x, y, 64)),
        K::DivS { a, b, aw, bw } => {
            let (aw, bw) = (*aw, *bw);
            lanes2(arena, lanes, dst, m, *a, *b, move |x, y| {
                word::divs(x, aw, y, bw, 64)
            })
        }
        K::RemS { a, b, aw, bw } => {
            let (aw, bw) = (*aw, *bw);
            lanes2(arena, lanes, dst, m, *a, *b, move |x, y| {
                word::rems(x, aw, y, bw, 64)
            })
        }
        K::And { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| x & y),
        K::Or { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| x | y),
        K::Xor { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| x ^ y),
        K::Xnor { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| word::xnor(x, y, 64)),
        K::Shl { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| word::shl(x, y, 64)),
        K::Shr { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| word::shr(x, y, 64)),
        K::AShr { a, b, aw } => {
            let aw = *aw;
            lanes2(arena, lanes, dst, m, *a, *b, move |x, y| {
                word::ashr(x, y, aw)
            })
        }
        K::Eq { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| {
            word::cmp_u(x, y).is_eq() as u64
        }),
        K::Ne { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| {
            word::cmp_u(x, y).is_ne() as u64
        }),
        K::LtU { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| {
            word::cmp_u(x, y).is_lt() as u64
        }),
        K::LeU { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| {
            word::cmp_u(x, y).is_le() as u64
        }),
        K::LtS { a, b, aw, bw } => {
            let (aw, bw) = (*aw, *bw);
            lanes2(arena, lanes, dst, m, *a, *b, move |x, y| {
                word::cmp_s(x, aw, y, bw).is_lt() as u64
            })
        }
        K::LeS { a, b, aw, bw } => {
            let (aw, bw) = (*aw, *bw);
            lanes2(arena, lanes, dst, m, *a, *b, move |x, y| {
                word::cmp_s(x, aw, y, bw).is_le() as u64
            })
        }
        K::Mux { s, t, e } => lanes3(
            arena,
            lanes,
            dst,
            m,
            *s,
            *t,
            *e,
            |s, t, e| {
                if s != 0 {
                    t
                } else {
                    e
                }
            },
        ),
        K::MuxEq { a, b, t, e } => lanes4(arena, lanes, dst, m, *a, *b, *t, *e, |x, y, t, e| {
            if word::cmp_u(x, y).is_eq() {
                t
            } else {
                e
            }
        }),
        K::MuxNe { a, b, t, e } => lanes4(arena, lanes, dst, m, *a, *b, *t, *e, |x, y, t, e| {
            if word::cmp_u(x, y).is_ne() {
                t
            } else {
                e
            }
        }),
        K::MuxLtU { a, b, t, e } => lanes4(arena, lanes, dst, m, *a, *b, *t, *e, |x, y, t, e| {
            if word::cmp_u(x, y).is_lt() {
                t
            } else {
                e
            }
        }),
        K::MuxLeU { a, b, t, e } => lanes4(arena, lanes, dst, m, *a, *b, *t, *e, |x, y, t, e| {
            if word::cmp_u(x, y).is_le() {
                t
            } else {
                e
            }
        }),
        K::Concat2 { a, sa, b, sb } => {
            let (sa, sb) = (*sa, *sb);
            lanes2(arena, lanes, dst, m, *a, *b, move |x, y| {
                (x << sa) | (y << sb)
            })
        }
        K::Rot {
            a,
            ra,
            ma,
            sa,
            b,
            rb,
            mb,
            sb,
        } => {
            let (ra, ma, sa, rb, mb, sb) = (*ra, *ma, *sa, *rb, *mb, *sb);
            lanes2(arena, lanes, dst, m, *a, *b, move |x, y| {
                (((x >> ra) & ma) << sa) | (((y >> rb) & mb) << sb)
            })
        }
        K::Lookup {
            idx,
            table,
            default,
        } => {
            let default = *default;
            lanes1(arena, lanes, dst, m, *idx, move |x| {
                table.get(x as usize).copied().unwrap_or(default)
            })
        }
        K::ConstK { v } => {
            let v = *v & m;
            let pd = arena.add(dst as usize * lanes);
            let mut changed = 0u32;
            for l in 0..lanes {
                let d = pd.add(l);
                changed += (*d != v) as u32;
                *d = v;
            }
            changed
        }
        K::Concat { parts } => {
            let pd = arena.add(dst as usize * lanes);
            let mut changed = 0u32;
            for l in 0..lanes {
                let mut acc = 0u64;
                for &(off, shift) in parts.iter() {
                    acc |= *arena.add(off as usize * lanes + l) << shift;
                }
                let v = acc & m;
                let d = pd.add(l);
                changed += (*d != v) as u32;
                *d = v;
            }
            changed
        }
        K::Slice { a, offset } => {
            let offset = *offset;
            lanes1(arena, lanes, dst, m, *a, move |x| {
                if offset >= 64 {
                    0
                } else {
                    x >> offset
                }
            })
        }
        K::DynSlice { a, b } => lanes2(arena, lanes, dst, m, *a, *b, |x, y| {
            if y >= 64 {
                0
            } else {
                x >> y
            }
        }),
        K::ZExt { a } => lanes1(arena, lanes, dst, m, *a, |x| x),
        K::SExt { a, aw, fill } => {
            let (aw, fill) = (*aw, *fill);
            lanes1(arena, lanes, dst, m, *a, move |x| {
                if aw > 0 && (x >> (aw - 1)) & 1 == 1 {
                    x | fill
                } else {
                    x
                }
            })
        }
        K::Repeat { a, factor } => {
            let factor = *factor;
            lanes1(arena, lanes, dst, m, *a, move |x| x.wrapping_mul(factor))
        }
        K::MemRead { mem: mi, addr } => {
            let ml = mems[*mi as usize];
            let pa = arena.add(*addr as usize * lanes) as *const u64;
            let pd = arena.add(dst as usize * lanes);
            let mut changed = 0u32;
            for l in 0..lanes {
                let a = *pa.add(l);
                let v = if a < ml.count {
                    *mem.add((ml.off + a as u32 * ml.words_per) as usize * lanes + l)
                } else {
                    0
                } & m;
                let d = pd.add(l);
                changed += (*d != v) as u32;
                *d = v;
            }
            changed
        }
        K::Wide { .. } | K::WideMemRead { .. } => {
            exec_lanes_wide(ins, slots, mems, arena, mem, lanes)
        }
    }
}

/// [`exec_lanes`] at a runtime width, compiled for the target's baseline.
/// Never inlined, so every caller shares one copy of the body.
#[inline(never)]
unsafe fn exec_lanes_generic(
    ins: &Instr,
    slots: &[Slot],
    mems: &[MemLayout],
    arena: *mut u64,
    mem: *const u64,
    lanes: Wide,
) -> u32 {
    exec_lanes(ins, slots, mems, arena, mem, lanes)
}

/// [`exec_lanes`] at a runtime width, compiled for AVX2.
///
/// # Safety
/// As [`exec_lanes`], on a host that has AVX2 ([`Isa::runs_here`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn exec_lanes_avx2(
    ins: &Instr,
    slots: &[Slot],
    mems: &[MemLayout],
    arena: *mut u64,
    mem: *const u64,
    lanes: Wide,
) -> u32 {
    exec_lanes(ins, slots, mems, arena, mem, lanes)
}

/// [`exec_lanes`] at a runtime width, compiled for AVX-512.
///
/// # Safety
/// As [`exec_lanes`], on a host that has AVX-512 F/BW/VL/DQ
/// ([`Isa::runs_here`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512dq")]
unsafe fn exec_lanes_avx512(
    ins: &Instr,
    slots: &[Slot],
    mems: &[MemLayout],
    arena: *mut u64,
    mem: *const u64,
    lanes: Wide,
) -> u32 {
    exec_lanes(ins, slots, mems, arena, mem, lanes)
}

/// The multi-word fallback lane of [`exec_lanes`]: materialize each lane's
/// operands as [`Bits`], evaluate, write the lane back.
unsafe fn exec_lanes_wide(
    ins: &Instr,
    slots: &[Slot],
    mems: &[MemLayout],
    arena: *mut u64,
    mem: *const u64,
    lanes: usize,
) -> u32 {
    let mut changed = 0u32;
    match &ins.kernel {
        Kernel::Wide { op, inputs } => {
            let out_slot = slots[ins.out as usize];
            let mut values: Vec<Bits> = Vec::with_capacity(inputs.len());
            for lane in 0..lanes {
                values.clear();
                for n in inputs.iter() {
                    values.push(slot_bits_lane(arena, lanes, lane, slots[n.0 as usize]));
                }
                let v = crate::eval::eval_cell(*op, &values, out_slot.width).resize(out_slot.width);
                changed += write_slot_lane(arena, lanes, lane, out_slot, &v) as u32;
            }
        }
        Kernel::WideMemRead { mem: mi, addr } => {
            let ml = mems[*mi as usize];
            let out_slot = slots[ins.out as usize];
            for lane in 0..lanes {
                let v = match ml.word(*arena.add(*addr as usize * lanes + lane)) {
                    Some(word) => slot_bits_lane(mem, lanes, lane, word),
                    None => Bits::zero(ml.width),
                };
                changed +=
                    write_slot_lane(arena, lanes, lane, out_slot, &v.resize(out_slot.width)) as u32;
            }
        }
        _ => unreachable!("exec_lanes_wide called on a single-word kernel"),
    }
    changed
}

/// Mask for the top (last) word of a `width`-bit multi-word value.
#[inline]
pub(crate) fn top_word_mask(width: u32) -> u64 {
    if width == 0 {
        0
    } else {
        let rem = width % 64;
        if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        }
    }
}
