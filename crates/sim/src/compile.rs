//! Bytecode compiler for the software engine: lowers [`RStmt`]/[`RExpr`]
//! process bodies into the flat register program executed by
//! [`CompiledSim`](crate::CompiledSim).
//!
//! The lowering mirrors [`Simulator`](crate::Simulator)'s tree walk
//! node-for-node: every opcode computes exactly the value the interpreter's
//! `eval(e, ctx)` would produce (context-determined width `max(e.width,
//! ctx)`, per-node sign extension, Verilog's self-determined shift amounts
//! and division-by-zero rules), and `Step`/`Guard` opcodes reproduce the
//! interpreter's statement counter and per-activation loop budget. Values
//! whose width fits a machine word live in a register file of canonical
//! (mask-invariant) `u64`s; anything wider falls back to `Bits`-valued wide
//! registers driven by the same helpers the interpreter uses.
//!
//! Register allocation is a nested stack discipline: each statement resets
//! the high-water mark it entered with, and loop counters are pinned in the
//! enclosing frame so the body cannot clobber them.

use crate::elaborate::{collect_reads, Design};
use crate::rir::*;
use cascade_bits::word::NOp;
use cascade_bits::{sext, Bits};
use cascade_verilog::ast::{BinaryOp, CaseKind, Edge, SystemTask, UnaryOp};

/// Index of a narrow (≤64-bit) scratch register.
pub(crate) type Reg = u16;
/// Index of a wide (`Bits`) scratch register.
pub(crate) type WReg = u16;

/// Comparison conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cc {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cc {
    #[inline]
    pub(crate) fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            Cc::Eq => ord == Equal,
            Cc::Ne => ord != Equal,
            Cc::Lt => ord == Less,
            Cc::Le => ord != Greater,
            Cc::Gt => ord == Greater,
            Cc::Ge => ord != Less,
        }
    }
}

/// Unary reductions producing a 0/1 result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RedKind {
    And,
    Or,
    Xor,
    Nand,
    Nor,
    Xnor,
    LogNot,
}

/// How a `$display`-family argument is materialized at fire time.
#[derive(Debug, Clone)]
pub(crate) enum ArgV {
    /// Narrow expression value: register, width, signedness (the latter only
    /// matters in the no-format-string rendering mode).
    N { r: Reg, w: u32, signed: bool },
    /// Wide expression value.
    W { wr: WReg, signed: bool },
    /// A literal string among the values: renders as itself without a format
    /// string, or as packed ASCII under one.
    Lit { s: String, packed: Bits },
}

/// A compiled system task: argument sources plus the op range that computes
/// them (re-executed when a `$monitor` re-renders).
#[derive(Debug, Clone)]
pub(crate) struct TaskOp {
    pub kind: SystemTask,
    /// `Some` when the first argument is a format string.
    pub fmt: Option<String>,
    pub vals: Box<[ArgV]>,
    /// `[start, end)` op range that loads the argument registers.
    pub frag: (u32, u32),
}

/// Where a variable's value lives at run time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum VStore {
    /// Narrow scalar: one arena word.
    Narrow { off: u32, width: u32 },
    /// Narrow array: `len` consecutive arena words.
    NarrowArr { off: u32, len: u64, width: u32 },
    /// Wide scalar: a `Bits` slot.
    Wide { idx: u32, width: u32 },
    /// Wide array: a `Vec<Bits>` slot.
    WideArr { idx: u32, len: u64, width: u32 },
}

impl VStore {
    pub(crate) fn width(&self) -> u32 {
        match *self {
            VStore::Narrow { width, .. }
            | VStore::NarrowArr { width, .. }
            | VStore::Wide { width, .. }
            | VStore::WideArr { width, .. } => width,
        }
    }
}

/// One bytecode instruction.
///
/// Every value-producing op writes a canonical result: narrow destinations
/// are masked to their static width, wide destinations carry exact-width
/// [`Bits`]. Jump targets are absolute op indices.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    // -- control ------------------------------------------------------
    /// Statement boundary: charges the loop budget and statement counter
    /// exactly like the interpreter's `exec` prologue. Consecutive
    /// statements in straight-line code share one op charging `n` at the
    /// head of the run, so the totals per activation match the interpreter
    /// while the dispatch loop sees one op instead of `n`.
    Step(u32),
    /// Loop back-edge budget charge (no statement count), mirroring the
    /// per-iteration decrement in `For`/`While`.
    Guard,
    Jmp(u32),
    Jz(Reg, u32),
    Jnz(Reg, u32),
    /// Dense `case` dispatch: jump to `table[a - base]` when the index is in
    /// range, else to `default_t`.
    Switch {
        a: Reg,
        base: u64,
        table: Box<[u32]>,
        default_t: u32,
    },
    /// Fused compare-and-branch (an `if` whose condition is one unsigned
    /// compare): jump to `t` when the predicate is FALSE. The `M` variants
    /// additionally fold the operand load, testing `arena[off]` directly —
    /// the shape of a DFA transition row, where one byte is tested against
    /// a chain of ranges and the three-op `Ld`/`CmpRange`/`Jz` sequence per
    /// link collapses to a single dispatch.
    JnRange {
        a: Reg,
        lo: u64,
        hi: u64,
        t: u32,
    },
    JnRangeM {
        off: u32,
        lo: u64,
        hi: u64,
        t: u32,
    },
    JnCmpI {
        cc: Cc,
        a: Reg,
        imm: u64,
        t: u32,
    },
    JnCmpMI {
        cc: Cc,
        off: u32,
        imm: u64,
        t: u32,
    },
    /// End of a process body.
    Halt,
    // -- narrow values ------------------------------------------------
    MovC(Reg, u64),
    Mov(Reg, Reg),
    /// Load a narrow scalar from `arena[off]`.
    Ld(Reg, u32),
    /// Load + sign-extend from the variable's width to `tw`.
    LdSx {
        dst: Reg,
        off: u32,
        fw: u32,
        tw: u32,
    },
    /// Narrow array word read; out-of-range indices read zero.
    LdArr {
        dst: Reg,
        var: u32,
        idx: Reg,
    },
    Sext {
        dst: Reg,
        src: Reg,
        fw: u32,
        tw: u32,
    },
    Mask {
        dst: Reg,
        src: Reg,
        w: u32,
    },
    Bin {
        op: NOp,
        dst: Reg,
        a: Reg,
        b: Reg,
        w: u32,
    },
    BinImm {
        op: NOp,
        dst: Reg,
        a: Reg,
        imm: u64,
        w: u32,
    },
    /// Signed division/remainder: operands sign-extended at their own
    /// widths, result truncated toward zero and masked to `w`.
    DivS {
        dst: Reg,
        a: Reg,
        b: Reg,
        lw: u32,
        rw: u32,
        w: u32,
    },
    RemS {
        dst: Reg,
        a: Reg,
        b: Reg,
        lw: u32,
        rw: u32,
        w: u32,
    },
    /// Arithmetic shift right of the sign-extended `w`-bit value in `a`.
    AShr {
        dst: Reg,
        a: Reg,
        amt: Reg,
        w: u32,
    },
    AShrImm {
        dst: Reg,
        a: Reg,
        amt: u64,
        w: u32,
    },
    CmpU {
        cc: Cc,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    CmpUI {
        cc: Cc,
        dst: Reg,
        a: Reg,
        imm: u64,
    },
    /// Fused unsigned range test: `dst = (lo <= a && a <= hi)`.
    CmpRange {
        dst: Reg,
        a: Reg,
        lo: u64,
        hi: u64,
    },
    CmpS {
        cc: Cc,
        dst: Reg,
        a: Reg,
        b: Reg,
        w: u32,
    },
    CmpSI {
        cc: Cc,
        dst: Reg,
        a: Reg,
        imm: i64,
        w: u32,
    },
    Not {
        dst: Reg,
        a: Reg,
        w: u32,
    },
    Neg {
        dst: Reg,
        a: Reg,
        w: u32,
    },
    /// Reduction over the canonical `w`-bit value in `a`; 1-bit result.
    Red {
        kind: RedKind,
        dst: Reg,
        a: Reg,
        w: u32,
    },
    /// `dst = (a != 0)`.
    Bool(Reg, Reg),
    /// Static part-select `a[off +: w]`.
    SliceC {
        dst: Reg,
        a: Reg,
        off: u32,
        w: u32,
    },
    /// Dynamic part-select; offsets ≥ the word size read zero.
    SliceR {
        dst: Reg,
        a: Reg,
        off: Reg,
        w: u32,
    },
    /// `{hi, lo}` where `lo` is `lw` bits wide.
    Concat2 {
        dst: Reg,
        hi: Reg,
        lo: Reg,
        lw: u32,
    },
    /// Fused rotate-left by `k` of the `w`-bit value in `a`.
    Rotl {
        dst: Reg,
        a: Reg,
        k: u32,
        w: u32,
    },
    /// `dst = c != 0 ? t : f` (branch-free ternary over pure operands).
    Select {
        dst: Reg,
        c: Reg,
        t: Reg,
        f: Reg,
    },
    /// Fused compare-and-select.
    CmpSel {
        dst: Reg,
        cc: Cc,
        signed: bool,
        w: u32,
        a: Reg,
        b: Reg,
        t: Reg,
        f: Reg,
    },
    /// `$time` (full 64-bit counter).
    Time(Reg),
    /// `$random` (xorshift64*, shared with the interpreter's stream).
    Random(Reg),
    // -- wide values --------------------------------------------------
    WMovC(WReg, Box<Bits>),
    /// Load a wide scalar.
    WLd {
        dst: WReg,
        var: u32,
    },
    /// Wide array word read; out-of-range indices read zero.
    WLdArr {
        dst: WReg,
        var: u32,
        idx: Reg,
    },
    /// Resize (zero- or sign-extending) to `w`.
    WExt {
        dst: WReg,
        src: WReg,
        w: u32,
        signed: bool,
    },
    /// Widen a narrow canonical value of width `sw` to a `w`-bit `Bits`.
    WFromR {
        dst: WReg,
        src: Reg,
        sw: u32,
        w: u32,
        signed: bool,
    },
    /// Low 64 bits of a wide value (`Bits::to_u64`).
    RFromW {
        dst: Reg,
        src: WReg,
    },
    /// Verilog truthiness of a wide value.
    RBoolFromW {
        dst: Reg,
        src: WReg,
    },
    /// Add-family binary op on wide operands, resized to `w`; `sdiv` routes
    /// `Div`/`Rem` through the signed helpers.
    WBin {
        op: BinaryOp,
        dst: WReg,
        a: WReg,
        b: WReg,
        w: u32,
        sdiv: bool,
    },
    /// Shift of a wide value by a self-determined narrow amount.
    WShift {
        op: BinaryOp,
        dst: WReg,
        a: WReg,
        amt: Reg,
        arith: bool,
    },
    WPow {
        dst: WReg,
        a: WReg,
        b: WReg,
        w: u32,
    },
    WUn {
        op: UnaryOp,
        dst: WReg,
        a: WReg,
        w: u32,
    },
    WCmp {
        cc: Cc,
        dst: Reg,
        a: WReg,
        b: WReg,
        signed: bool,
    },
    WConcat2 {
        dst: WReg,
        hi: WReg,
        lo: WReg,
    },
    WRepeat {
        dst: WReg,
        src: WReg,
        count: u32,
    },
    /// Narrow slice of a wide base.
    WSliceN {
        dst: Reg,
        a: WReg,
        off: Reg,
        w: u32,
    },
    /// Wide slice of a wide base.
    WSliceW {
        dst: WReg,
        a: WReg,
        off: Reg,
        w: u32,
    },
    // -- stores -------------------------------------------------------
    /// Blocking full-width store of a narrow scalar (the hot shape).
    St {
        var: u32,
        off: u32,
        src: Reg,
    },
    /// Blocking store to a narrow scalar no other process watches (after
    /// masking the writer's own self-wake): a plain arena write with no
    /// change detection or wake scan.
    StQ {
        off: u32,
        src: Reg,
    },
    /// Nonblocking full-width store of a narrow scalar.
    NbSt {
        var: u32,
        src: Reg,
    },
    /// General narrow store: optional array index and bit offset.
    StoreGen {
        var: u32,
        src: Reg,
        w: u32,
        idx: Option<Reg>,
        off: Option<Reg>,
        nb: bool,
    },
    /// General wide store.
    WStore {
        var: u32,
        src: WReg,
        idx: Option<Reg>,
        off: Option<Reg>,
        nb: bool,
    },
    /// A `$display`-family call; `Finish`/`Fatal` end the activation.
    Task(Box<TaskOp>),
}

/// Mnemonic for one opcode (profiling attribution).
pub(crate) fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Step(_) => "step",
        Op::Guard => "guard",
        Op::Jmp(_) => "jmp",
        Op::Jz(..) => "jz",
        Op::Jnz(..) => "jnz",
        Op::Switch { .. } => "switch",
        Op::JnRange { .. } => "jn_range",
        Op::JnRangeM { .. } => "jn_range_m",
        Op::JnCmpI { .. } => "jn_cmp_i",
        Op::JnCmpMI { .. } => "jn_cmp_mi",
        Op::Halt => "halt",
        Op::MovC(..) => "mov_c",
        Op::Mov(..) => "mov",
        Op::Ld(..) => "ld",
        Op::LdSx { .. } => "ld_sx",
        Op::LdArr { .. } => "ld_arr",
        Op::Sext { .. } => "sext",
        Op::Mask { .. } => "mask",
        Op::Bin { .. } => "bin",
        Op::BinImm { .. } => "bin_imm",
        Op::DivS { .. } => "div_s",
        Op::RemS { .. } => "rem_s",
        Op::AShr { .. } => "ashr",
        Op::AShrImm { .. } => "ashr_imm",
        Op::CmpU { .. } => "cmp_u",
        Op::CmpUI { .. } => "cmp_ui",
        Op::CmpRange { .. } => "cmp_range",
        Op::CmpS { .. } => "cmp_s",
        Op::CmpSI { .. } => "cmp_si",
        Op::Not { .. } => "not",
        Op::Neg { .. } => "neg",
        Op::Red { .. } => "red",
        Op::Bool(..) => "bool",
        Op::SliceC { .. } => "slice_c",
        Op::SliceR { .. } => "slice_r",
        Op::Concat2 { .. } => "concat2",
        Op::Rotl { .. } => "rotl",
        Op::Select { .. } => "select",
        Op::CmpSel { .. } => "cmp_sel",
        Op::Time(_) => "time",
        Op::Random(_) => "random",
        Op::WMovC(..) => "wmov_c",
        Op::WLd { .. } => "wld",
        Op::WLdArr { .. } => "wld_arr",
        Op::WExt { .. } => "wext",
        Op::WFromR { .. } => "wfrom_r",
        Op::RFromW { .. } => "rfrom_w",
        Op::RBoolFromW { .. } => "rbool_from_w",
        Op::WBin { .. } => "wbin",
        Op::WShift { .. } => "wshift",
        Op::WPow { .. } => "wpow",
        Op::WUn { .. } => "wun",
        Op::WCmp { .. } => "wcmp",
        Op::WConcat2 { .. } => "wconcat2",
        Op::WRepeat { .. } => "wrepeat",
        Op::WSliceN { .. } => "wslice_n",
        Op::WSliceW { .. } => "wslice_w",
        Op::St { .. } => "st",
        Op::StQ { .. } => "st_q",
        Op::NbSt { .. } => "nb_st",
        Op::StoreGen { .. } => "store_gen",
        Op::WStore { .. } => "wstore",
        Op::Task(_) => "task",
    }
}

/// Entry point and shape of one compiled process.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProcInfo {
    pub entry: u32,
    /// Continuous assignments run without a budget, a statement charge, or
    /// self-wake masking.
    pub is_assign: bool,
    /// Whether the process is scheduled by `initialize` (assigns, initials,
    /// purely level-sensitive always blocks).
    pub run_at_init: bool,
    /// Whether the process is scheduled by `resettle` (assigns and purely
    /// level-sensitive always blocks).
    pub comb: bool,
}

/// A compiled design: bytecode, storage layout, and the inverted
/// sensitivity index (var → watching processes).
#[derive(Debug)]
pub struct SwProgram {
    pub(crate) code: Vec<Op>,
    pub(crate) procs: Vec<ProcInfo>,
    pub(crate) vstore: Vec<VStore>,
    pub(crate) arena_words: u32,
    pub(crate) wide_slots: u32,
    pub(crate) wide_arrs: u32,
    pub(crate) nregs: u32,
    pub(crate) nwregs: u32,
    /// var → processes sensitive to it (same construction and ordering as
    /// the interpreter's `sens_map`, so activation order is identical).
    pub(crate) sens: Vec<Vec<(ProcId, Option<Edge>)>>,
    /// Variables whose `assign x = y` copy was compiled away; they read and
    /// write their root's storage slot and must not re-seed it at reset.
    pub(crate) aliased: Vec<bool>,
}

/// Compiled-program size profile (bench and stats reporting).
#[derive(Debug, Clone, Copy)]
pub struct SwProgramStats {
    /// Total bytecode operations.
    pub ops: usize,
    /// Compiled processes (assigns, always, initial).
    pub procs: usize,
    /// `u64` words backing narrow variables and array words.
    pub arena_words: u32,
    /// Narrow virtual registers.
    pub regs: u32,
    /// Wide (`Bits`) virtual registers.
    pub wide_regs: u32,
}

impl SwProgram {
    /// Size profile of the compiled program.
    pub fn stats(&self) -> SwProgramStats {
        SwProgramStats {
            ops: self.code.len(),
            procs: self.procs.len(),
            arena_words: self.arena_words,
            regs: self.nregs,
            wide_regs: self.nwregs,
        }
    }
    /// Compiles every process of `design` into bytecode.
    pub fn compile(design: &Design) -> SwProgram {
        let (alias, elided) = alias_elision(design);
        let resolve = |mut v: VarId| -> VarId {
            while let Some(n) = alias[v.0 as usize] {
                v = n;
            }
            v
        };

        let mut vstore: Vec<Option<VStore>> = vec![None; design.vars.len()];
        let mut arena_words = 0u32;
        let mut wide_slots = 0u32;
        let mut wide_arrs = 0u32;
        for (vi, info) in design.vars.iter().enumerate() {
            if alias[vi].is_some() {
                continue;
            }
            let vs = if info.is_array() {
                if info.width <= 64 {
                    let off = arena_words;
                    arena_words += info.array_len as u32;
                    VStore::NarrowArr {
                        off,
                        len: info.array_len,
                        width: info.width,
                    }
                } else {
                    let idx = wide_arrs;
                    wide_arrs += 1;
                    VStore::WideArr {
                        idx,
                        len: info.array_len,
                        width: info.width,
                    }
                }
            } else if info.width <= 64 {
                let off = arena_words;
                arena_words += 1;
                VStore::Narrow {
                    off,
                    width: info.width,
                }
            } else {
                let idx = wide_slots;
                wide_slots += 1;
                VStore::Wide {
                    idx,
                    width: info.width,
                }
            };
            vstore[vi] = Some(vs);
        }
        // An elided variable shares its root's slot (alias_elision
        // guarantees equal widths along the chain).
        for vi in 0..design.vars.len() {
            if alias[vi].is_some() {
                vstore[vi] = vstore[resolve(VarId(vi as u32)).0 as usize];
            }
        }
        let vstore: Vec<VStore> = vstore
            .into_iter()
            .map(|v| v.expect("slot assigned"))
            .collect();

        // Watchers register against the storage root, so a write to the
        // driving variable wakes readers of every elided copy directly.
        let mut sens: Vec<Vec<(ProcId, Option<Edge>)>> = vec![Vec::new(); design.vars.len()];
        for (i, p) in design.processes.iter().enumerate() {
            if elided[i] {
                continue;
            }
            let pid = ProcId(i as u32);
            match p {
                Process::Assign { lhs, rhs } => {
                    let mut reads = Vec::new();
                    collect_reads(rhs, &mut reads);
                    lv_selector_reads(lhs, &mut reads);
                    for v in &mut reads {
                        *v = resolve(*v);
                    }
                    reads.sort();
                    reads.dedup();
                    for v in reads {
                        sens[v.0 as usize].push((pid, None));
                    }
                }
                Process::Always { sens: ss, .. } => {
                    for s in ss {
                        sens[resolve(s.var).0 as usize].push((pid, s.edge));
                    }
                }
                Process::Initial { .. } => {}
            }
        }

        let mut c = Compiler {
            design,
            vstore: &vstore,
            sens: &sens,
            cur_pid: 0,
            cur_masked: false,
            code: Vec::new(),
            regs: RegAlloc::default(),
            wregs: RegAlloc::default(),
            open_step: None,
        };
        let mut procs = Vec::with_capacity(design.processes.len());
        for (i, p) in design.processes.iter().enumerate() {
            c.open_step = None;
            c.cur_pid = i as u32;
            c.cur_masked = !matches!(p, Process::Assign { .. });
            let entry = c.code.len() as u32;
            if elided[i] {
                // The copy lives in the storage layout now; keep the slot in
                // `procs` so ProcIds stay aligned with `design.processes`,
                // but nothing ever schedules it.
                c.code.push(Op::Halt);
                procs.push(ProcInfo {
                    entry,
                    is_assign: true,
                    run_at_init: false,
                    comb: false,
                });
                continue;
            }
            match p {
                Process::Assign { lhs, rhs } => {
                    let w = lhs.width(&design.vars);
                    let val = c.expr(rhs, w);
                    let val = c.coerce(val, w, false);
                    c.store(lhs, val, false);
                    c.code.push(Op::Halt);
                    c.regs.reset(0);
                    c.wregs.reset(0);
                    procs.push(ProcInfo {
                        entry,
                        is_assign: true,
                        run_at_init: true,
                        comb: true,
                    });
                }
                Process::Always { sens: ss, body } => {
                    c.stmt(body);
                    c.code.push(Op::Halt);
                    c.regs.reset(0);
                    c.wregs.reset(0);
                    let comb = !ss.is_empty() && ss.iter().all(|s| s.edge.is_none());
                    procs.push(ProcInfo {
                        entry,
                        is_assign: false,
                        run_at_init: comb,
                        comb,
                    });
                }
                Process::Initial { body } => {
                    c.stmt(body);
                    c.code.push(Op::Halt);
                    c.regs.reset(0);
                    c.wregs.reset(0);
                    procs.push(ProcInfo {
                        entry,
                        is_assign: false,
                        run_at_init: true,
                        comb: false,
                    });
                }
            }
        }
        let nregs = c.regs.max.max(1);
        let nwregs = c.wregs.max.max(1);
        let code = c.code;
        SwProgram {
            code,
            procs,
            vstore,
            arena_words,
            wide_slots,
            wide_arrs,
            nregs,
            nwregs,
            sens,
            aliased: alias.iter().map(|a| a.is_some()).collect(),
        }
    }
}

/// Finds continuous assignments that are pure full-width variable copies
/// (`assign x = y;` — the shape every lowered port connection takes) and
/// maps each such `x` onto `y`'s storage.
///
/// Left as processes, these copies cost an activation and a delta round per
/// change of `y`, and they split one value wavefront across rounds: a
/// reader of both `y` and `x` runs once with the fresh `y` and a stale `x`,
/// then again when the copy lands. Compiling the copy into the storage
/// layout removes the round and the re-run.
///
/// Returns `(alias, elided)`: per-variable direct alias target (follow
/// transitively for the storage root) and per-process elision flags.
///
/// `x` must be a scalar wire with this assignment as its only driver and
/// must not be a root input (pokes write roots). `y` must be a scalar of
/// the same width with no blocking procedural writer: a same-round reader
/// of `x` would otherwise observe a blocking write one delta round earlier
/// than the interpreter shows it.
fn alias_elision(design: &Design) -> (Vec<Option<VarId>>, Vec<bool>) {
    let nvars = design.vars.len();
    let mut writers = vec![0u32; nvars];
    let mut blocking = vec![false; nvars];
    for p in &design.processes {
        match p {
            Process::Assign { lhs, .. } => lv_write(lhs, &mut writers, &mut |_| {}),
            Process::Always { body, .. } | Process::Initial { body } => {
                collect_writes(body, &mut writers, &mut blocking);
            }
        }
    }

    let mut alias: Vec<Option<VarId>> = vec![None; nvars];
    let mut elided = vec![false; design.processes.len()];
    for (i, p) in design.processes.iter().enumerate() {
        let Process::Assign {
            lhs: RLValue::Var(x),
            rhs,
        } = p
        else {
            continue;
        };
        let RExprKind::Var(y) = &rhs.kind else {
            continue;
        };
        let (x, y) = (*x, *y);
        let (xi, yi) = (x.0 as usize, y.0 as usize);
        let xv = &design.vars[xi];
        let yv = &design.vars[yi];
        if xv.class != VarClass::Wire || xv.is_input || writers[xi] != 1 {
            continue;
        }
        if xv.is_array() || yv.is_array() || xv.width != yv.width || rhs.width != xv.width {
            continue;
        }
        if blocking[yi] {
            continue;
        }
        // `x` must not already be `y`'s storage root (mutual assigns).
        let mut root = y;
        while let Some(n) = alias[root.0 as usize] {
            root = n;
        }
        if root == x {
            continue;
        }
        alias[xi] = Some(y);
        elided[i] = true;
    }
    (alias, elided)
}

/// Counts `lv`'s base variable as written; `blocking(var)` is called too so
/// statement walks can mark blocking writers.
fn lv_write(lv: &RLValue, writers: &mut [u32], blocking: &mut impl FnMut(usize)) {
    match lv {
        RLValue::Var(v)
        | RLValue::Range { var: v, .. }
        | RLValue::ArrayWord { var: v, .. }
        | RLValue::ArrayWordRange { var: v, .. } => {
            writers[v.0 as usize] += 1;
            blocking(v.0 as usize);
        }
        RLValue::Concat(parts) => {
            for part in parts {
                lv_write(part, writers, blocking);
            }
        }
    }
}

/// Walks a process body recording which variables it writes and which of
/// those writes are blocking.
fn collect_writes(stmt: &RStmt, writers: &mut [u32], blocking: &mut [bool]) {
    match stmt {
        RStmt::Block(stmts) => {
            for s in stmts {
                collect_writes(s, writers, blocking);
            }
        }
        RStmt::Blocking { lhs, .. } => lv_write(lhs, writers, &mut |v| blocking[v] = true),
        RStmt::NonBlocking { lhs, .. } => lv_write(lhs, writers, &mut |_| {}),
        RStmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_writes(then_branch, writers, blocking);
            if let Some(e) = else_branch {
                collect_writes(e, writers, blocking);
            }
        }
        RStmt::Case { arms, default, .. } => {
            for arm in arms {
                collect_writes(&arm.body, writers, blocking);
            }
            if let Some(d) = default {
                collect_writes(d, writers, blocking);
            }
        }
        RStmt::For {
            init, step, body, ..
        } => {
            collect_writes(init, writers, blocking);
            collect_writes(step, writers, blocking);
            collect_writes(body, writers, blocking);
        }
        RStmt::While { body, .. } | RStmt::Repeat { body, .. } => {
            collect_writes(body, writers, blocking);
        }
        RStmt::SystemTask { .. } | RStmt::Null => {}
    }
}

fn lv_selector_reads(lv: &RLValue, out: &mut Vec<VarId>) {
    match lv {
        RLValue::Var(_) => {}
        RLValue::Range { offset, .. } => collect_reads(offset, out),
        RLValue::ArrayWord { index, .. } => collect_reads(index, out),
        RLValue::ArrayWordRange { index, offset, .. } => {
            collect_reads(index, out);
            collect_reads(offset, out);
        }
        RLValue::Concat(parts) => {
            for p in parts {
                lv_selector_reads(p, out);
            }
        }
    }
}

/// Whether evaluating `e` has a side effect (`$random` advances the RNG),
/// which forbids eager evaluation of untaken ternary branches.
fn has_random(e: &RExpr) -> bool {
    match &e.kind {
        RExprKind::Random => true,
        RExprKind::Const(_) | RExprKind::Var(_) | RExprKind::Time => false,
        RExprKind::ArrayWord { index, .. } => has_random(index),
        RExprKind::Slice { base, offset, .. } => has_random(base) || has_random(offset),
        RExprKind::Unary { operand, .. } => has_random(operand),
        RExprKind::Binary { lhs, rhs, .. } => has_random(lhs) || has_random(rhs),
        RExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => has_random(cond) || has_random(then_expr) || has_random(else_expr),
        RExprKind::Concat(parts) => parts.iter().any(has_random),
        RExprKind::Repeat { inner, .. } => has_random(inner),
    }
}

/// Structural equality for the rotate-fusion pattern (conservative: only
/// plain variable reads are considered equal).
fn same_var(a: &RExpr, b: &RExpr) -> Option<VarId> {
    match (&a.kind, &b.kind) {
        (RExprKind::Var(x), RExprKind::Var(y)) if x == y && a.width == b.width => Some(*x),
        _ => None,
    }
}

/// Stack-disciplined scratch register allocator.
#[derive(Default)]
struct RegAlloc {
    next: u32,
    max: u32,
}

impl RegAlloc {
    fn alloc(&mut self) -> u16 {
        let r = self.next;
        self.next += 1;
        self.max = self.max.max(self.next);
        assert!(r <= u16::MAX as u32, "register file overflow");
        r as u16
    }
    fn mark(&self) -> u32 {
        self.next
    }
    fn reset(&mut self, mark: u32) {
        self.next = mark;
    }
}

/// A compiled expression value with its static width.
#[derive(Debug, Clone, Copy)]
enum Val {
    /// Compile-time constant (≤64 bits, canonical).
    C { v: u64, w: u32 },
    /// Narrow register (canonical at `w`).
    N { r: Reg, w: u32 },
    /// Wide register (`Bits` of width `w`).
    W { wr: WReg, w: u32 },
}

impl Val {
    fn width(&self) -> u32 {
        match *self {
            Val::C { w, .. } | Val::N { w, .. } | Val::W { w, .. } => w,
        }
    }
}

struct Compiler<'a> {
    design: &'a Design,
    vstore: &'a [VStore],
    /// Post-grafting sensitivity index; lets stores that provably wake no
    /// one compile to bare arena writes.
    sens: &'a [Vec<(ProcId, Option<Edge>)>],
    /// Process being compiled.
    cur_pid: u32,
    /// Whether the current process masks its own self-wake (`always` /
    /// `initial`; continuous assigns do not, so `assign a = ~a` loops).
    cur_masked: bool,
    code: Vec<Op>,
    regs: RegAlloc,
    wregs: RegAlloc,
    /// Index of the still-open `Op::Step` batching the current
    /// straight-line run, if control cannot have branched since it was
    /// emitted.
    open_step: Option<usize>,
}

impl<'a> Compiler<'a> {
    // ------------------------------------------------------------------
    // Emission helpers
    // ------------------------------------------------------------------

    fn emit(&mut self, op: Op) {
        // Control transfers end the straight-line run an open `Step` is
        // batching; later statements must charge on their own op.
        if matches!(
            op,
            Op::Jmp(_) | Op::Jz(..) | Op::Jnz(..) | Op::Switch { .. } | Op::Halt | Op::Guard
        ) {
            self.open_step = None;
        }
        self.code.push(op);
    }

    /// Charges one statement, extending the open `Step` batch when control
    /// provably reaches it from the batch head (no branch emitted or
    /// patched in since).
    fn step(&mut self) {
        if let Some(i) = self.open_step {
            if let Op::Step(n) = &mut self.code[i] {
                *n += 1;
                return;
            }
        }
        self.open_step = Some(self.code.len());
        self.code.push(Op::Step(1));
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Emits a forward jump with a placeholder target; patch with `patch`.
    fn emit_jmp(&mut self) -> usize {
        self.open_step = None;
        self.code.push(Op::Jmp(u32::MAX));
        self.code.len() - 1
    }

    fn emit_jz(&mut self, r: Reg) -> usize {
        self.open_step = None;
        self.code.push(Op::Jz(r, u32::MAX));
        self.code.len() - 1
    }

    fn emit_jnz(&mut self, r: Reg) -> usize {
        self.open_step = None;
        self.code.push(Op::Jnz(r, u32::MAX));
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize) {
        // The current position becomes a jump target: a path reaches it
        // without passing any `Step` opened earlier.
        self.open_step = None;
        let target = self.here();
        match &mut self.code[at] {
            Op::Jmp(t)
            | Op::Jz(_, t)
            | Op::Jnz(_, t)
            | Op::JnRange { t, .. }
            | Op::JnRangeM { t, .. }
            | Op::JnCmpI { t, .. }
            | Op::JnCmpMI { t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Emits a branch taken when `cv` is false and returns the site to
    /// `patch` with the false target. When the condition was just computed
    /// by a fusible compare (its destination is a dead temporary by
    /// construction: the branch is the sole consumer), the compare — and
    /// the `Ld` feeding it, when it directly precedes — is popped and
    /// re-emitted as one fused compare-and-branch op.
    fn branch_if_false(&mut self, cv: Val) -> usize {
        if let Val::N { r, .. } = cv {
            // The expression frame discipline may have compacted the
            // compare result to the frame floor with a trailing `Mov`;
            // look through it (the Mov is popped along with the compare).
            let mut cmp_r = r;
            let mut movs = 0usize;
            if let Some(&Op::Mov(d, s)) = self.code.last() {
                if d == r {
                    cmp_r = s;
                    movs = 1;
                }
            }
            let at = self.code.len().wrapping_sub(1 + movs);
            match self.code.get(at) {
                Some(&Op::CmpRange { dst, a, lo, hi }) if dst == cmp_r => {
                    self.code.truncate(at);
                    if let Some(&Op::Ld(la, off)) = self.code.last() {
                        if la == a {
                            self.code.pop();
                            return self.emit_branch(Op::JnRangeM {
                                off,
                                lo,
                                hi,
                                t: u32::MAX,
                            });
                        }
                    }
                    return self.emit_branch(Op::JnRange {
                        a,
                        lo,
                        hi,
                        t: u32::MAX,
                    });
                }
                Some(&Op::CmpUI { cc, dst, a, imm }) if dst == cmp_r => {
                    self.code.truncate(at);
                    if let Some(&Op::Ld(la, off)) = self.code.last() {
                        if la == a {
                            self.code.pop();
                            return self.emit_branch(Op::JnCmpMI {
                                cc,
                                off,
                                imm,
                                t: u32::MAX,
                            });
                        }
                    }
                    return self.emit_branch(Op::JnCmpI {
                        cc,
                        a,
                        imm,
                        t: u32::MAX,
                    });
                }
                _ => {}
            }
            // `Jz` already tests the canonical value against zero; no
            // `Bool` normalization needed for a branch.
            return self.emit_jz(r);
        }
        let c = self.bool_reg_of(cv);
        self.emit_jz(c)
    }

    fn emit_branch(&mut self, op: Op) -> usize {
        self.open_step = None;
        self.code.push(op);
        self.code.len() - 1
    }

    /// Whether a blocking write to `var` can wake any process other than
    /// the (self-wake-masked) writer itself.
    fn observed(&self, var: u32) -> bool {
        self.sens[var as usize]
            .iter()
            .any(|&(p, _)| !(self.cur_masked && p.0 == self.cur_pid))
    }

    /// Materializes a value into a narrow register.
    fn reg_of(&mut self, v: Val) -> Reg {
        match v {
            Val::N { r, .. } => r,
            Val::C { v, .. } => {
                let r = self.regs.alloc();
                self.emit(Op::MovC(r, v));
                r
            }
            Val::W { .. } => unreachable!("wide value where narrow register expected"),
        }
    }

    /// Materializes a value into a wide register of its own width.
    fn wreg_of(&mut self, v: Val) -> WReg {
        match v {
            Val::W { wr, .. } => wr,
            Val::N { r, w } => {
                let wr = self.wregs.alloc();
                self.emit(Op::WFromR {
                    dst: wr,
                    src: r,
                    sw: w,
                    w,
                    signed: false,
                });
                wr
            }
            Val::C { v, w } => {
                let wr = self.wregs.alloc();
                self.emit(Op::WMovC(wr, Box::new(Bits::from_u64(w, v))));
                wr
            }
        }
    }

    /// The low-64-bit unsigned value of `v` in a narrow register (the
    /// interpreter's `.to_u64()` on a self-determined operand).
    fn u64_reg_of(&mut self, v: Val) -> Reg {
        match v {
            Val::N { r, .. } => r,
            Val::C { v, .. } => {
                let r = self.regs.alloc();
                self.emit(Op::MovC(r, v));
                r
            }
            Val::W { wr, .. } => {
                let r = self.regs.alloc();
                self.emit(Op::RFromW { dst: r, src: wr });
                r
            }
        }
    }

    /// A 0/1 truthiness register for `v`.
    fn bool_reg_of(&mut self, v: Val) -> Reg {
        match v {
            // A canonical 1-bit value is already 0/1.
            Val::N { r, w: 1 } => r,
            Val::N { r, w: _ } => {
                let d = self.regs.alloc();
                self.emit(Op::Bool(d, r));
                d
            }
            Val::C { v, .. } => {
                let d = self.regs.alloc();
                self.emit(Op::MovC(d, (v != 0) as u64));
                d
            }
            Val::W { wr, .. } => {
                let d = self.regs.alloc();
                self.emit(Op::RBoolFromW { dst: d, src: wr });
                d
            }
        }
    }

    /// Adjusts `v` to width `to` with the interpreter's `extend` semantics
    /// (truncate, or zero-/sign-extend by `signed`).
    fn coerce(&mut self, v: Val, to: u32, signed: bool) -> Val {
        let from = v.width();
        if to == from {
            // Normalize ≤64-bit values into the narrow register file even
            // when no width change is needed, so callers can rely on narrow
            // results being `Val::N`/`Val::C`.
            if let Val::W { wr, w } = v {
                if w <= 64 {
                    let d = self.regs.alloc();
                    self.emit(Op::RFromW { dst: d, src: wr });
                    return Val::N { r: d, w };
                }
            }
            return v;
        }
        match v {
            Val::C { v: cv, w } => {
                let b = Bits::from_u64(w, cv);
                let ext = if signed {
                    b.resize_signed(to)
                } else {
                    b.resize(to)
                };
                if to <= 64 {
                    Val::C {
                        v: ext.to_u64(),
                        w: to,
                    }
                } else {
                    let wr = self.wregs.alloc();
                    self.emit(Op::WMovC(wr, Box::new(ext)));
                    Val::W { wr, w: to }
                }
            }
            Val::N { r, w } => {
                if to <= 64 {
                    if to < w {
                        let d = self.regs.alloc();
                        self.emit(Op::Mask {
                            dst: d,
                            src: r,
                            w: to,
                        });
                        Val::N { r: d, w: to }
                    } else if signed {
                        let d = self.regs.alloc();
                        self.emit(Op::Sext {
                            dst: d,
                            src: r,
                            fw: w,
                            tw: to,
                        });
                        Val::N { r: d, w: to }
                    } else {
                        // Zero extension of a canonical value is free.
                        Val::N { r, w: to }
                    }
                } else {
                    let wr = self.wregs.alloc();
                    self.emit(Op::WFromR {
                        dst: wr,
                        src: r,
                        sw: w,
                        w: to,
                        signed,
                    });
                    Val::W { wr, w: to }
                }
            }
            Val::W { wr, w: _ } => {
                if to <= 64 {
                    // Truncation of a wide value to a narrow one: resize is a
                    // plain low-bits mask.
                    let d = self.regs.alloc();
                    self.emit(Op::RFromW { dst: d, src: wr });
                    if to < 64 {
                        let m = self.regs.alloc();
                        self.emit(Op::Mask {
                            dst: m,
                            src: d,
                            w: to,
                        });
                        Val::N { r: m, w: to }
                    } else {
                        Val::N { r: d, w: to }
                    }
                } else {
                    let d = self.wregs.alloc();
                    self.emit(Op::WExt {
                        dst: d,
                        src: wr,
                        w: to,
                        signed,
                    });
                    Val::W { wr: d, w: to }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Compiles `e` in a context of width `ctx`; the result has width
    /// `max(e.width, ctx)` exactly like `Simulator::eval`.
    fn expr(&mut self, e: &RExpr, ctx: u32) -> Val {
        let target = e.width.max(ctx);
        match &e.kind {
            RExprKind::Const(v) => {
                let ext = extend(v, target, e.signed);
                if ext.width() <= 64 {
                    Val::C {
                        v: ext.to_u64(),
                        w: ext.width(),
                    }
                } else {
                    let wr = self.wregs.alloc();
                    let w = ext.width();
                    self.emit(Op::WMovC(wr, Box::new(ext)));
                    Val::W { wr, w }
                }
            }
            RExprKind::Var(var) => {
                let vs = self.vstore[var.0 as usize];
                let vw = vs.width();
                match vs {
                    VStore::Narrow { off, .. } | VStore::NarrowArr { off, .. } => {
                        // Reading a whole array variable is not produced by
                        // elaboration; treat it as its first word like the
                        // interpreter's zero-width scalar shadow would not
                        // occur. Narrow scalar is the hot case.
                        let eff_target = if target == 0 { vw } else { target };
                        if eff_target <= 64 {
                            if eff_target > vw && e.signed {
                                let d = self.regs.alloc();
                                self.emit(Op::LdSx {
                                    dst: d,
                                    off,
                                    fw: vw,
                                    tw: eff_target,
                                });
                                Val::N {
                                    r: d,
                                    w: eff_target,
                                }
                            } else {
                                let d = self.regs.alloc();
                                self.emit(Op::Ld(d, off));
                                let v = Val::N { r: d, w: vw };
                                self.coerce(v, eff_target, e.signed)
                            }
                        } else {
                            let d = self.regs.alloc();
                            self.emit(Op::Ld(d, off));
                            self.coerce(Val::N { r: d, w: vw }, eff_target, e.signed)
                        }
                    }
                    VStore::Wide { .. } | VStore::WideArr { .. } => {
                        let wr = self.wregs.alloc();
                        self.emit(Op::WLd {
                            dst: wr,
                            var: var.0,
                        });
                        self.coerce(Val::W { wr, w: vw }, target.max(vw), e.signed)
                    }
                }
            }
            RExprKind::ArrayWord { var, index } => {
                let m = self.regs.mark();
                let wm = self.wregs.mark();
                let iv = self.expr(index, 0);
                let idx = self.u64_reg_of(iv);
                let vs = self.vstore[var.0 as usize];
                let vw = vs.width();
                let out = match vs {
                    VStore::Narrow { .. } | VStore::NarrowArr { .. } => {
                        let d = self.regs.alloc();
                        self.emit(Op::LdArr {
                            dst: d,
                            var: var.0,
                            idx,
                        });
                        Val::N { r: d, w: vw }
                    }
                    VStore::Wide { .. } | VStore::WideArr { .. } => {
                        let wr = self.wregs.alloc();
                        self.emit(Op::WLdArr {
                            dst: wr,
                            var: var.0,
                            idx,
                        });
                        Val::W { wr, w: vw }
                    }
                };
                let out = self.coerce(out, target, e.signed);
                self.retain(out, m, wm)
            }
            RExprKind::Slice {
                base,
                offset,
                width,
            } => {
                let m = self.regs.mark();
                let wm = self.wregs.mark();
                let b = self.expr(base, 0);
                let off = self.expr(offset, 0);
                let sliced = self.slice_val(b, off, *width);
                let out = self.coerce(sliced, target, false);
                self.retain(out, m, wm)
            }
            RExprKind::Unary { op, operand } => {
                let m = self.regs.mark();
                let wm = self.wregs.mark();
                let out = self.unary(*op, operand, target, e.signed);
                self.retain(out, m, wm)
            }
            RExprKind::Binary { op, lhs, rhs } => {
                let m = self.regs.mark();
                let wm = self.wregs.mark();
                let out = self.binary(*op, lhs, rhs, target);
                self.retain(out, m, wm)
            }
            RExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let m = self.regs.mark();
                let wm = self.wregs.mark();
                let out = self.ternary(cond, then_expr, else_expr, target);
                self.retain(out, m, wm)
            }
            RExprKind::Concat(parts) => {
                let m = self.regs.mark();
                let wm = self.wregs.mark();
                let total: u32 = parts.iter().map(|p| p.width).sum();
                let out = if total <= 64 {
                    let mut acc: Option<Val> = None;
                    for p in parts {
                        let v = self.expr(p, 0);
                        acc = Some(match acc {
                            None => v,
                            Some(a) => {
                                let hi = self.reg_of(a);
                                let lo = self.reg_of(v);
                                let d = self.regs.alloc();
                                self.emit(Op::Concat2 {
                                    dst: d,
                                    hi,
                                    lo,
                                    lw: v.width(),
                                });
                                Val::N {
                                    r: d,
                                    w: a.width() + v.width(),
                                }
                            }
                        });
                    }
                    acc.unwrap_or(Val::C { v: 0, w: 0 })
                } else {
                    let mut acc: Option<Val> = None;
                    for p in parts {
                        let v = self.expr(p, 0);
                        acc = Some(match acc {
                            None => v,
                            Some(a) => {
                                let aw = a.width();
                                let vw = v.width();
                                let hi = self.wreg_of(a);
                                let lo = self.wreg_of(v);
                                let d = self.wregs.alloc();
                                self.emit(Op::WConcat2 { dst: d, hi, lo });
                                Val::W { wr: d, w: aw + vw }
                            }
                        });
                    }
                    acc.unwrap_or(Val::C { v: 0, w: 0 })
                };
                let out = self.coerce(out, target, false);
                self.retain(out, m, wm)
            }
            RExprKind::Repeat { count, inner } => {
                let m = self.regs.mark();
                let wm = self.wregs.mark();
                let v = self.expr(inner, 0);
                let iw = v.width();
                let total = iw * count;
                let out = if total <= 64 {
                    let mut acc = v;
                    let first = self.reg_of(v);
                    let mut acc_r = first;
                    for _ in 1..*count {
                        let d = self.regs.alloc();
                        self.emit(Op::Concat2 {
                            dst: d,
                            hi: acc_r,
                            lo: first,
                            lw: iw,
                        });
                        acc_r = d;
                        acc = Val::N {
                            r: d,
                            w: acc.width() + iw,
                        };
                    }
                    if *count == 0 {
                        Val::C { v: 0, w: 0 }
                    } else {
                        Val::N { r: acc_r, w: total }
                    }
                } else {
                    let src = self.wreg_of(v);
                    let d = self.wregs.alloc();
                    self.emit(Op::WRepeat {
                        dst: d,
                        src,
                        count: *count,
                    });
                    Val::W { wr: d, w: total }
                };
                let out = self.coerce(out, target, false);
                self.retain(out, m, wm)
            }
            RExprKind::Time => {
                let d = self.regs.alloc();
                self.emit(Op::Time(d));
                self.coerce(Val::N { r: d, w: 64 }, target.max(64), false)
            }
            RExprKind::Random => {
                let d = self.regs.alloc();
                self.emit(Op::Random(d));
                self.coerce(Val::N { r: d, w: 32 }, target.max(32), false)
            }
        }
    }

    /// Frees scratch registers above the marks while keeping `out` live
    /// (moving it down if it would be freed).
    fn retain(&mut self, out: Val, m: u32, wm: u32) -> Val {
        match out {
            Val::C { .. } => {
                self.regs.reset(m);
                self.wregs.reset(wm);
                out
            }
            Val::N { r, w } => {
                self.regs.reset(m);
                self.wregs.reset(wm);
                if (r as u32) >= m {
                    let d = self.regs.alloc();
                    if d != r {
                        self.emit(Op::Mov(d, r));
                    } else {
                        // Reclaimed the same slot; value already there.
                        debug_assert_eq!(d, r);
                    }
                    Val::N { r: d, w }
                } else {
                    out
                }
            }
            Val::W { wr, w } => {
                self.regs.reset(m);
                self.wregs.reset(wm);
                if (wr as u32) >= wm {
                    let d = self.wregs.alloc();
                    if d != wr {
                        self.emit(Op::WExt {
                            dst: d,
                            src: wr,
                            w,
                            signed: false,
                        });
                    }
                    Val::W { wr: d, w }
                } else {
                    out
                }
            }
        }
    }

    /// `base[off +: w]` with the interpreter's out-of-range semantics.
    fn slice_val(&mut self, base: Val, off: Val, w: u32) -> Val {
        match base {
            Val::C { v, w: bw } => match off {
                Val::C { v: o, .. } => {
                    let b = Bits::from_u64(bw, v);
                    let sliced = if o > u32::MAX as u64 {
                        Bits::zero(w)
                    } else {
                        b.slice(o as u32, w)
                    };
                    if w <= 64 {
                        Val::C {
                            v: sliced.to_u64(),
                            w,
                        }
                    } else {
                        let wr = self.wregs.alloc();
                        self.emit(Op::WMovC(wr, Box::new(sliced)));
                        Val::W { wr, w }
                    }
                }
                _ => {
                    let br = self.reg_of(base);
                    let or = self.u64_reg_of(off);
                    let d = self.regs.alloc();
                    self.emit(Op::SliceR {
                        dst: d,
                        a: br,
                        off: or,
                        w,
                    });
                    // A narrow base can only produce a narrow slice value; a
                    // wider requested width zero-fills.
                    if w <= 64 {
                        Val::N { r: d, w }
                    } else {
                        let wr = self.wregs.alloc();
                        self.emit(Op::WFromR {
                            dst: wr,
                            src: d,
                            sw: 64.min(w),
                            w,
                            signed: false,
                        });
                        Val::W { wr, w }
                    }
                }
            },
            Val::N { r, .. } => match off {
                Val::C { v: o, .. } => {
                    if o > u32::MAX as u64 || o >= 64 {
                        return self.zero_val(w);
                    }
                    if w <= 64 {
                        let d = self.regs.alloc();
                        self.emit(Op::SliceC {
                            dst: d,
                            a: r,
                            off: o as u32,
                            w: w.min(64),
                        });
                        Val::N { r: d, w }
                    } else {
                        let d = self.regs.alloc();
                        self.emit(Op::SliceC {
                            dst: d,
                            a: r,
                            off: o as u32,
                            w: 64,
                        });
                        let wr = self.wregs.alloc();
                        self.emit(Op::WFromR {
                            dst: wr,
                            src: d,
                            sw: 64,
                            w,
                            signed: false,
                        });
                        Val::W { wr, w }
                    }
                }
                _ => {
                    let or = self.u64_reg_of(off);
                    let d = self.regs.alloc();
                    self.emit(Op::SliceR {
                        dst: d,
                        a: r,
                        off: or,
                        w: w.min(64),
                    });
                    if w <= 64 {
                        Val::N { r: d, w }
                    } else {
                        let wr = self.wregs.alloc();
                        self.emit(Op::WFromR {
                            dst: wr,
                            src: d,
                            sw: 64,
                            w,
                            signed: false,
                        });
                        Val::W { wr, w }
                    }
                }
            },
            Val::W { wr, .. } => {
                let or = self.u64_reg_of(off);
                if w <= 64 {
                    let d = self.regs.alloc();
                    self.emit(Op::WSliceN {
                        dst: d,
                        a: wr,
                        off: or,
                        w,
                    });
                    Val::N { r: d, w }
                } else {
                    let d = self.wregs.alloc();
                    self.emit(Op::WSliceW {
                        dst: d,
                        a: wr,
                        off: or,
                        w,
                    });
                    Val::W { wr: d, w }
                }
            }
        }
    }

    fn zero_val(&mut self, w: u32) -> Val {
        if w <= 64 {
            Val::C { v: 0, w }
        } else {
            let wr = self.wregs.alloc();
            self.emit(Op::WMovC(wr, Box::new(Bits::zero(w))));
            Val::W { wr, w }
        }
    }

    fn unary(&mut self, op: UnaryOp, operand: &RExpr, target: u32, _signed: bool) -> Val {
        match op {
            UnaryOp::Plus => {
                let v = self.expr(operand, target);
                self.coerce(v, target, false)
            }
            UnaryOp::Neg | UnaryOp::BitNot => {
                let v = self.expr(operand, target);
                let vw = v.width();
                if vw <= 64 && target <= 64 {
                    let r = self.reg_of(v);
                    let d = self.regs.alloc();
                    // Negation/complement at the operand width then truncation
                    // to `target` equals doing it at `target` directly.
                    if op == UnaryOp::Neg {
                        self.emit(Op::Neg {
                            dst: d,
                            a: r,
                            w: target,
                        });
                    } else {
                        self.emit(Op::Not {
                            dst: d,
                            a: r,
                            w: target,
                        });
                    }
                    Val::N { r: d, w: target }
                } else {
                    let a = self.wreg_of(v);
                    let d = self.wregs.alloc();
                    self.emit(Op::WUn {
                        op,
                        dst: d,
                        a,
                        w: target,
                    });
                    if target <= 64 {
                        self.coerce(Val::W { wr: d, w: target }, target, false)
                    } else {
                        Val::W { wr: d, w: target }
                    }
                }
            }
            UnaryOp::LogicalNot
            | UnaryOp::ReduceAnd
            | UnaryOp::ReduceOr
            | UnaryOp::ReduceXor
            | UnaryOp::ReduceNand
            | UnaryOp::ReduceNor
            | UnaryOp::ReduceXnor => {
                let v = self.expr(operand, 0);
                let vw = v.width();
                let kind = match op {
                    UnaryOp::LogicalNot => RedKind::LogNot,
                    UnaryOp::ReduceAnd => RedKind::And,
                    UnaryOp::ReduceOr => RedKind::Or,
                    UnaryOp::ReduceXor => RedKind::Xor,
                    UnaryOp::ReduceNand => RedKind::Nand,
                    UnaryOp::ReduceNor => RedKind::Nor,
                    UnaryOp::ReduceXnor => RedKind::Xnor,
                    _ => unreachable!(),
                };
                let bit = match v {
                    Val::W { wr, .. } => {
                        // Route wide reductions through the interpreter's
                        // helpers for exactness.
                        let d = self.wregs.alloc();
                        self.emit(Op::WUn {
                            op,
                            dst: d,
                            a: wr,
                            w: 1,
                        });
                        let r = self.regs.alloc();
                        self.emit(Op::RFromW { dst: r, src: d });
                        r
                    }
                    _ => {
                        let r = self.reg_of(v);
                        let d = self.regs.alloc();
                        self.emit(Op::Red {
                            kind,
                            dst: d,
                            a: r,
                            w: vw,
                        });
                        d
                    }
                };
                self.coerce(Val::N { r: bit, w: 1 }, target.max(1), false)
            }
        }
    }

    fn binary(&mut self, op: BinaryOp, lhs: &RExpr, rhs: &RExpr, target: u32) -> Val {
        use BinaryOp::*;
        // Fused rotate: (x << k) | (x >> (w-k)) over the same variable.
        if op == Or && target <= 64 {
            if let Some(v) = self.try_rotate(lhs, rhs, target) {
                return v;
            }
        }
        match op {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Xnor => {
                let l = self.expr(lhs, target);
                let r = self.expr(rhs, target);
                let lw = l.width();
                let rw = r.width();
                if lw <= 64 && rw <= 64 && target <= 64 {
                    let sdiv = matches!(op, Div | Rem) && lhs.signed && rhs.signed;
                    if sdiv {
                        let a = self.reg_of(l);
                        let b = self.reg_of(r);
                        let d = self.regs.alloc();
                        if op == Div {
                            self.emit(Op::DivS {
                                dst: d,
                                a,
                                b,
                                lw,
                                rw,
                                w: target,
                            });
                        } else {
                            self.emit(Op::RemS {
                                dst: d,
                                a,
                                b,
                                lw,
                                rw,
                                w: target,
                            });
                        }
                        return Val::N { r: d, w: target };
                    }
                    let nop = match op {
                        Add => NOp::Add,
                        Sub => NOp::Sub,
                        Mul => NOp::Mul,
                        Div => NOp::DivU,
                        Rem => NOp::RemU,
                        And => NOp::And,
                        Or => NOp::Or,
                        Xor => NOp::Xor,
                        Xnor => NOp::Xnor,
                        _ => unreachable!(),
                    };
                    // Constant-fold / immediate forms.
                    if let (Val::C { v: a, .. }, Val::C { v: b, .. }) = (l, r) {
                        return Val::C {
                            v: nop.eval(a, b, target),
                            w: target,
                        };
                    }
                    if let Val::C { v: b, .. } = r {
                        let a = self.reg_of(l);
                        let d = self.regs.alloc();
                        self.emit(Op::BinImm {
                            op: nop,
                            dst: d,
                            a,
                            imm: b,
                            w: target,
                        });
                        return Val::N { r: d, w: target };
                    }
                    let a = self.reg_of(l);
                    let b = self.reg_of(r);
                    let d = self.regs.alloc();
                    self.emit(Op::Bin {
                        op: nop,
                        dst: d,
                        a,
                        b,
                        w: target,
                    });
                    Val::N { r: d, w: target }
                } else {
                    let sdiv = matches!(op, Div | Rem) && lhs.signed && rhs.signed;
                    let a = self.wreg_of(l);
                    let b = self.wreg_of(r);
                    let d = self.wregs.alloc();
                    self.emit(Op::WBin {
                        op,
                        dst: d,
                        a,
                        b,
                        w: target,
                        sdiv,
                    });
                    let out = Val::W { wr: d, w: target };
                    if target <= 64 {
                        self.coerce(out, target, false)
                    } else {
                        out
                    }
                }
            }
            Pow => {
                let l = self.expr(lhs, target);
                let r = self.expr(rhs, 0);
                let lw = l.width();
                if lw <= 64 && target <= 64 && !matches!(r, Val::W { .. }) {
                    let a = self.reg_of(l);
                    if let Val::C { v: b, .. } = r {
                        let d = self.regs.alloc();
                        self.emit(Op::BinImm {
                            op: NOp::Pow,
                            dst: d,
                            a,
                            imm: b,
                            w: target,
                        });
                        return Val::N { r: d, w: target };
                    }
                    let b = self.reg_of(r);
                    let d = self.regs.alloc();
                    self.emit(Op::Bin {
                        op: NOp::Pow,
                        dst: d,
                        a,
                        b,
                        w: target,
                    });
                    Val::N { r: d, w: target }
                } else {
                    let a = self.wreg_of(l);
                    let b = self.wreg_of(r);
                    let d = self.wregs.alloc();
                    self.emit(Op::WPow {
                        dst: d,
                        a,
                        b,
                        w: target,
                    });
                    let out = Val::W { wr: d, w: target };
                    if target <= 64 {
                        self.coerce(out, target, false)
                    } else {
                        out
                    }
                }
            }
            Shl | AShl | Shr | AShr => {
                let l = self.expr(lhs, target);
                let amt = self.expr(rhs, 0);
                let lw = l.width();
                if lw <= 64 {
                    let arith = op == AShr && lhs.signed;
                    let a = self.reg_of(l);
                    if let Val::C { v: k, .. } = amt {
                        let d = self.regs.alloc();
                        if arith {
                            self.emit(Op::AShrImm {
                                dst: d,
                                a,
                                amt: k,
                                w: lw,
                            });
                        } else {
                            let nop = if matches!(op, Shl | AShl) {
                                NOp::Shl
                            } else {
                                NOp::Shr
                            };
                            self.emit(Op::BinImm {
                                op: nop,
                                dst: d,
                                a,
                                imm: k,
                                w: lw,
                            });
                        }
                        return Val::N { r: d, w: lw };
                    }
                    let b = self.u64_reg_of(amt);
                    let d = self.regs.alloc();
                    if arith {
                        self.emit(Op::AShr {
                            dst: d,
                            a,
                            amt: b,
                            w: lw,
                        });
                    } else {
                        let nop = if matches!(op, Shl | AShl) {
                            NOp::Shl
                        } else {
                            NOp::Shr
                        };
                        self.emit(Op::Bin {
                            op: nop,
                            dst: d,
                            a,
                            b,
                            w: lw,
                        });
                    }
                    Val::N { r: d, w: lw }
                } else {
                    let a = self.wreg_of(l);
                    let b = self.u64_reg_of(amt);
                    let d = self.wregs.alloc();
                    self.emit(Op::WShift {
                        op,
                        dst: d,
                        a,
                        amt: b,
                        arith: op == AShr && lhs.signed,
                    });
                    Val::W { wr: d, w: lw }
                }
            }
            LogicalAnd | LogicalOr => {
                if op == LogicalAnd {
                    if let Some(v) = self.try_cmp_range(lhs, rhs, target) {
                        return v;
                    }
                }
                // The interpreter evaluates both sides unconditionally.
                let l = self.expr(lhs, 0);
                let lb = self.bool_reg_of(l);
                let r = self.expr(rhs, 0);
                let rb = self.bool_reg_of(r);
                let d = self.regs.alloc();
                let nop = if op == LogicalAnd { NOp::And } else { NOp::Or };
                self.emit(Op::Bin {
                    op: nop,
                    dst: d,
                    a: lb,
                    b: rb,
                    w: 1,
                });
                self.coerce(Val::N { r: d, w: 1 }, target.max(1), false)
            }
            Eq | Ne | CaseEq | CaseNe | Lt | Le | Gt | Ge => {
                let w = lhs.width.max(rhs.width);
                let signed = lhs.signed && rhs.signed;
                let cc = match op {
                    Eq | CaseEq => Cc::Eq,
                    Ne | CaseNe => Cc::Ne,
                    Lt => Cc::Lt,
                    Le => Cc::Le,
                    Gt => Cc::Gt,
                    Ge => Cc::Ge,
                    _ => unreachable!(),
                };
                let d = self.compare(cc, signed, w, lhs, rhs);
                self.coerce(Val::N { r: d, w: 1 }, target.max(1), false)
            }
        }
    }

    /// Fuses `(v >= lo) && (v <= hi)` over one narrow unsigned variable and
    /// constant bounds — the shape a compiled DFA's transition rows take —
    /// into a single range-test op. All operands are pure, so evaluating
    /// `v` once instead of twice is unobservable.
    fn try_cmp_range(&mut self, lhs: &RExpr, rhs: &RExpr, target: u32) -> Option<Val> {
        let RExprKind::Binary {
            op: BinaryOp::Ge,
            lhs: gl,
            rhs: gr,
        } = &lhs.kind
        else {
            return None;
        };
        let RExprKind::Binary {
            op: BinaryOp::Le,
            lhs: ll,
            rhs: lr,
        } = &rhs.kind
        else {
            return None;
        };
        let (RExprKind::Var(vg), RExprKind::Var(vl)) = (&gl.kind, &ll.kind) else {
            return None;
        };
        let (RExprKind::Const(lo), RExprKind::Const(hi)) = (&gr.kind, &lr.kind) else {
            return None;
        };
        if vg != vl || gl.width > 64 || gr.width > 64 || lr.width > 64 {
            return None;
        }
        // Unsigned comparisons only: the canonical value at the variable's
        // width zero-extends to any compare width, so the `u64` range test
        // is exact.
        if (gl.signed && gr.signed) || (ll.signed && lr.signed) {
            return None;
        }
        let v = self.expr(gl, 0);
        let a = self.reg_of(v);
        let d = self.regs.alloc();
        self.emit(Op::CmpRange {
            dst: d,
            a,
            lo: lo.to_u64(),
            hi: hi.to_u64(),
        });
        Some(self.coerce(Val::N { r: d, w: 1 }, target.max(1), false))
    }

    /// Compiles a comparison at width `w`, returning a 0/1 register.
    fn compare(&mut self, cc: Cc, signed: bool, w: u32, lhs: &RExpr, rhs: &RExpr) -> Reg {
        let l = self.expr(lhs, 0);
        let l = self.coerce_cmp(l, w, signed && lhs.signed);
        let r = self.expr(rhs, 0);
        let r = self.coerce_cmp(r, w, signed && rhs.signed);
        if w <= 64 {
            match (l, r) {
                (l, Val::C { v, .. }) => {
                    let a = self.reg_of(l);
                    let d = self.regs.alloc();
                    if signed {
                        self.emit(Op::CmpSI {
                            cc,
                            dst: d,
                            a,
                            imm: sext(v, w),
                            w,
                        });
                    } else {
                        self.emit(Op::CmpUI {
                            cc,
                            dst: d,
                            a,
                            imm: v,
                        });
                    }
                    d
                }
                (l, r) => {
                    let a = self.reg_of(l);
                    let b = self.reg_of(r);
                    let d = self.regs.alloc();
                    if signed {
                        self.emit(Op::CmpS {
                            cc,
                            dst: d,
                            a,
                            b,
                            w,
                        });
                    } else {
                        self.emit(Op::CmpU { cc, dst: d, a, b });
                    }
                    d
                }
            }
        } else {
            let a = self.wreg_of(l);
            let b = self.wreg_of(r);
            let d = self.regs.alloc();
            self.emit(Op::WCmp {
                cc,
                dst: d,
                a,
                b,
                signed,
            });
            d
        }
    }

    /// `eval_extended` mirror: resize to `w`, sign-extending only when both
    /// the comparison and this operand are signed.
    fn coerce_cmp(&mut self, v: Val, w: u32, sext_this: bool) -> Val {
        self.coerce(v, w, sext_this)
    }

    fn try_rotate(&mut self, lhs: &RExpr, rhs: &RExpr, target: u32) -> Option<Val> {
        let (shl, shr) = match (&lhs.kind, &rhs.kind) {
            (
                RExprKind::Binary {
                    op: BinaryOp::Shl, ..
                },
                RExprKind::Binary {
                    op: BinaryOp::Shr, ..
                },
            ) => (lhs, rhs),
            (
                RExprKind::Binary {
                    op: BinaryOp::Shr, ..
                },
                RExprKind::Binary {
                    op: BinaryOp::Shl, ..
                },
            ) => (rhs, lhs),
            _ => return None,
        };
        let (
            RExprKind::Binary {
                lhs: sl_v,
                rhs: sl_k,
                ..
            },
            RExprKind::Binary {
                lhs: sr_v,
                rhs: sr_k,
                ..
            },
        ) = (&shl.kind, &shr.kind)
        else {
            return None;
        };
        let var = same_var(sl_v, sr_v)?;
        let (RExprKind::Const(k1), RExprKind::Const(k2)) = (&sl_k.kind, &sr_k.kind) else {
            return None;
        };
        if !k1.fits_u64() || !k2.fits_u64() {
            return None;
        }
        let (k1, k2) = (k1.to_u64(), k2.to_u64());
        let vs = self.vstore[var.0 as usize];
        let vw = vs.width() as u64;
        // All widths must agree for the fused form to be exact, and the Or's
        // operands must be exactly the two shifts at the common width.
        if vw == 0
            || vw > 64
            || target as u64 != vw
            || sl_v.width as u64 != vw
            || sr_v.width as u64 != vw
            || shl.width as u64 != vw
            || shr.width as u64 != vw
            || k1 == 0
            || k2 == 0
            || k1 + k2 != vw
            || sl_v.signed
            || sr_v.signed
        {
            return None;
        }
        let VStore::Narrow { off, .. } = vs else {
            return None;
        };
        let s = self.regs.alloc();
        self.emit(Op::Ld(s, off));
        let d = self.regs.alloc();
        self.emit(Op::Rotl {
            dst: d,
            a: s,
            k: k1 as u32,
            w: vw as u32,
        });
        Some(Val::N { r: d, w: target })
    }

    fn ternary(&mut self, cond: &RExpr, t: &RExpr, f: &RExpr, target: u32) -> Val {
        let eager = target <= 64
            && t.width.max(target) <= 64
            && f.width.max(target) <= 64
            && !has_random(t)
            && !has_random(f);
        if eager {
            // Fused compare-and-select when the condition is a narrow
            // comparison.
            if let RExprKind::Binary { op, lhs, rhs } = &cond.kind {
                use BinaryOp::*;
                if matches!(op, Eq | Ne | CaseEq | CaseNe | Lt | Le | Gt | Ge) {
                    let w = lhs.width.max(rhs.width);
                    if w <= 64 && !has_random(cond) {
                        let signed = lhs.signed && rhs.signed;
                        let cc = match op {
                            Eq | CaseEq => Cc::Eq,
                            Ne | CaseNe => Cc::Ne,
                            Lt => Cc::Lt,
                            Le => Cc::Le,
                            Gt => Cc::Gt,
                            Ge => Cc::Ge,
                            _ => unreachable!(),
                        };
                        let l = self.expr(lhs, 0);
                        let l = self.coerce(l, w, signed && lhs.signed);
                        let r = self.expr(rhs, 0);
                        let r = self.coerce(r, w, signed && rhs.signed);
                        let a = self.reg_of(l);
                        let b = self.reg_of(r);
                        let tv = self.expr(t, target);
                        let tv = self.coerce(tv, target, false);
                        let tr = self.reg_of(tv);
                        let fv = self.expr(f, target);
                        let fv = self.coerce(fv, target, false);
                        let fr = self.reg_of(fv);
                        let d = self.regs.alloc();
                        self.emit(Op::CmpSel {
                            dst: d,
                            cc,
                            signed,
                            w,
                            a,
                            b,
                            t: tr,
                            f: fr,
                        });
                        return Val::N { r: d, w: target };
                    }
                }
            }
            let cv = self.expr(cond, 0);
            let c = self.bool_reg_of(cv);
            let tv = self.expr(t, target);
            let tv = self.coerce(tv, target, false);
            let tr = self.reg_of(tv);
            let fv = self.expr(f, target);
            let fv = self.coerce(fv, target, false);
            let fr = self.reg_of(fv);
            let d = self.regs.alloc();
            self.emit(Op::Select {
                dst: d,
                c,
                t: tr,
                f: fr,
            });
            return Val::N { r: d, w: target };
        }
        // Branching form: both arms write the same destination.
        let cv = self.expr(cond, 0);
        let c = self.bool_reg_of(cv);
        if target <= 64 {
            let d = self.regs.alloc();
            let jz = self.emit_jz(c);
            let m = self.regs.mark();
            let wm = self.wregs.mark();
            let tv = self.expr(t, target);
            let tv = self.coerce(tv, target, false);
            match tv {
                Val::C { v, .. } => self.emit(Op::MovC(d, v)),
                Val::N { r, .. } => self.emit(Op::Mov(d, r)),
                Val::W { .. } => unreachable!(),
            }
            self.regs.reset(m);
            self.wregs.reset(wm);
            let jend = self.emit_jmp();
            self.patch(jz);
            let fv = self.expr(f, target);
            let fv = self.coerce(fv, target, false);
            match fv {
                Val::C { v, .. } => self.emit(Op::MovC(d, v)),
                Val::N { r, .. } => self.emit(Op::Mov(d, r)),
                Val::W { .. } => unreachable!(),
            }
            self.regs.reset(m);
            self.wregs.reset(wm);
            self.patch(jend);
            Val::N { r: d, w: target }
        } else {
            let d = self.wregs.alloc();
            let jz = self.emit_jz(c);
            let m = self.regs.mark();
            let wm = self.wregs.mark();
            let tv = self.expr(t, target);
            let tv = self.coerce(tv, target, false);
            let src = self.wreg_of(tv);
            self.emit(Op::WExt {
                dst: d,
                src,
                w: target,
                signed: false,
            });
            self.regs.reset(m);
            self.wregs.reset(wm);
            let jend = self.emit_jmp();
            self.patch(jz);
            let fv = self.expr(f, target);
            let fv = self.coerce(fv, target, false);
            let src = self.wreg_of(fv);
            self.emit(Op::WExt {
                dst: d,
                src,
                w: target,
                signed: false,
            });
            self.regs.reset(m);
            self.wregs.reset(wm);
            self.patch(jend);
            Val::W { wr: d, w: target }
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn stmt(&mut self, s: &RStmt) {
        self.step();
        let m = self.regs.mark();
        let wm = self.wregs.mark();
        match s {
            RStmt::Block(stmts) => {
                for st in stmts {
                    self.stmt(st);
                }
            }
            RStmt::Blocking { lhs, rhs } => {
                let w = lhs.width(&self.design.vars);
                let v = self.expr(rhs, w);
                let v = self.coerce(v, w, false);
                self.store(lhs, v, false);
            }
            RStmt::NonBlocking { lhs, rhs } => {
                let w = lhs.width(&self.design.vars);
                let v = self.expr(rhs, w);
                let v = self.coerce(v, w, false);
                self.store(lhs, v, true);
            }
            RStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cv = self.expr(cond, 0);
                let jz = self.branch_if_false(cv);
                self.regs.reset(m);
                self.wregs.reset(wm);
                self.stmt(then_branch);
                if let Some(e) = else_branch {
                    let jend = self.emit_jmp();
                    self.patch(jz);
                    self.stmt(e);
                    self.patch(jend);
                } else {
                    self.patch(jz);
                }
            }
            RStmt::Case {
                kind,
                scrutinee,
                arms,
                default,
            } => self.case(*kind, scrutinee, arms, default.as_deref()),
            RStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.stmt(init);
                let top = self.here();
                let cm = self.regs.mark();
                let cwm = self.wregs.mark();
                let cv = self.expr(cond, 0);
                let jz = self.branch_if_false(cv);
                self.regs.reset(cm);
                self.wregs.reset(cwm);
                self.stmt(body);
                self.stmt(step);
                self.emit(Op::Guard);
                self.emit(Op::Jmp(top));
                self.patch(jz);
            }
            RStmt::While { cond, body } => {
                let top = self.here();
                let cm = self.regs.mark();
                let cwm = self.wregs.mark();
                let cv = self.expr(cond, 0);
                let jz = self.branch_if_false(cv);
                self.regs.reset(cm);
                self.wregs.reset(cwm);
                self.stmt(body);
                self.emit(Op::Guard);
                self.emit(Op::Jmp(top));
                self.patch(jz);
            }
            RStmt::Repeat { count, body } => {
                let cv = self.expr(count, 0);
                // Pin the down-counter in this frame so the body cannot
                // clobber it.
                let n = match cv {
                    Val::N { r, .. } if (r as u32) == self.regs.mark() - 1 => r,
                    other => {
                        let src = self.u64_reg_of(other);
                        let d = self.regs.alloc();
                        self.emit(Op::Mov(d, src));
                        d
                    }
                };
                let top = self.here();
                let jz = self.emit_jz(n);
                self.stmt(body);
                self.emit(Op::BinImm {
                    op: NOp::Sub,
                    dst: n,
                    a: n,
                    imm: 1,
                    w: 64,
                });
                self.emit(Op::Jmp(top));
                self.patch(jz);
            }
            RStmt::SystemTask { task, args } => self.task(*task, args),
            RStmt::Null => {}
        }
        self.regs.reset(m);
        self.wregs.reset(wm);
    }

    fn case(
        &mut self,
        kind: CaseKind,
        scrutinee: &RExpr,
        arms: &[RCaseArm],
        default: Option<&RStmt>,
    ) {
        let mut w = scrutinee.width;
        for arm in arms {
            for l in &arm.labels {
                w = w.max(l.value.width);
            }
        }
        if self.try_switch(kind, scrutinee, arms, default, w) {
            return;
        }
        let m = self.regs.mark();
        let wm = self.wregs.mark();
        // `expr(scrutinee, w)` already yields width `w`, extending by the
        // scrutinee's own signedness exactly like `eval(scrutinee, w)`.
        let scr = self.expr(scrutinee, w);
        let mut arm_jumps: Vec<(usize, usize)> = Vec::new(); // (arm idx, jump site)
        let mut end_jumps: Vec<usize> = Vec::new();
        for (ai, arm) in arms.iter().enumerate() {
            for label in &arm.labels {
                let lm = self.regs.mark();
                let lwm = self.wregs.mark();
                let hit = self.case_label_hit(kind, scr, label, w);
                if let Some(hit) = hit {
                    let j = self.emit_jnz(hit);
                    arm_jumps.push((ai, j));
                }
                self.regs.reset(lm);
                self.wregs.reset(lwm);
            }
        }
        // No label matched: default (if any), then done.
        if let Some(d) = default {
            self.stmt(d);
        }
        let after_default = self.emit_jmp();
        end_jumps.push(after_default);
        // Arm bodies.
        let mut arm_entries: Vec<Option<u32>> = vec![None; arms.len()];
        for (ai, arm) in arms.iter().enumerate() {
            if !arm_jumps.iter().any(|(a, _)| *a == ai) {
                continue;
            }
            arm_entries[ai] = Some(self.here());
            self.stmt(&arm.body);
            end_jumps.push(self.emit_jmp());
        }
        // Patch label hits to their arm entries.
        let here = self.here();
        for (ai, site) in arm_jumps {
            let target = arm_entries[ai].unwrap_or(here);
            match &mut self.code[site] {
                Op::Jnz(_, t) => *t = target,
                _ => unreachable!(),
            }
        }
        for site in end_jumps {
            self.patch(site);
        }
        self.regs.reset(m);
        self.wregs.reset(wm);
    }

    /// Dense jump-table dispatch for a plain `case` over narrow constant
    /// labels (the shape a lowered FSM takes): one indexed jump replaces the
    /// linear compare-and-branch chain. Labels are pure constants, so
    /// skipping their evaluation is unobservable. Returns false when the
    /// case doesn't fit (wide, masked or non-constant labels, sparse or
    /// tiny label sets) and the generic chain should be emitted.
    fn try_switch(
        &mut self,
        kind: CaseKind,
        scrutinee: &RExpr,
        arms: &[RCaseArm],
        default: Option<&RStmt>,
        w: u32,
    ) -> bool {
        if kind != CaseKind::Case || w > 64 {
            return false;
        }
        let mut labels: Vec<(u64, usize)> = Vec::new(); // (value, arm idx)
        for (ai, arm) in arms.iter().enumerate() {
            for l in &arm.labels {
                if l.care.is_some() {
                    return false;
                }
                let RExprKind::Const(b) = &l.value.kind else {
                    return false;
                };
                if l.value.signed && l.value.width < w {
                    return false; // sign-extended label; keep the chain
                }
                labels.push((b.to_u64(), ai));
            }
        }
        let (Some(&(min, _)), Some(&(max, _))) = (
            labels.iter().min_by_key(|(v, _)| *v),
            labels.iter().max_by_key(|(v, _)| *v),
        ) else {
            return false;
        };
        let span = max - min;
        if labels.len() < 4 || span >= 1024 {
            return false;
        }
        let tlen = span as usize + 1;

        let m = self.regs.mark();
        let wm = self.wregs.mark();
        let scr = self.expr(scrutinee, w);
        let a = self.reg_of(scr);
        let site = self.here() as usize;
        self.emit(Op::Switch {
            a,
            base: min,
            table: vec![0u32; tlen].into_boxed_slice(),
            default_t: 0,
        });
        // The scrutinee is consumed at dispatch; arms start from a clean
        // frame.
        self.regs.reset(m);
        self.wregs.reset(wm);
        let default_entry = self.here();
        if let Some(d) = default {
            self.stmt(d);
        }
        let mut end_jumps = vec![self.emit_jmp()];
        let mut arm_entries: Vec<Option<u32>> = vec![None; arms.len()];
        for (ai, arm) in arms.iter().enumerate() {
            if !labels.iter().any(|(_, la)| *la == ai) {
                continue;
            }
            arm_entries[ai] = Some(self.here());
            self.stmt(&arm.body);
            end_jumps.push(self.emit_jmp());
        }
        let Op::Switch {
            table, default_t, ..
        } = &mut self.code[site]
        else {
            unreachable!()
        };
        *default_t = default_entry;
        table.fill(default_entry);
        let mut filled = vec![false; tlen];
        for (v, ai) in labels {
            let idx = (v - min) as usize;
            // First matching arm wins, as in the compare chain.
            if !filled[idx] {
                filled[idx] = true;
                table[idx] = arm_entries[ai].expect("labeled arm was emitted");
            }
        }
        for site in end_jumps {
            self.patch(site);
        }
        self.regs.reset(m);
        self.wregs.reset(wm);
        true
    }

    /// Emits the hit test for one case label; returns `None` when the label
    /// statically never matches (masked literal in a plain `case`).
    fn case_label_hit(
        &mut self,
        kind: CaseKind,
        scr: Val,
        label: &RCaseLabel,
        w: u32,
    ) -> Option<Reg> {
        match (&label.care, kind) {
            (Some(_), CaseKind::Case) => {
                // A masked literal never matches in a plain `case`, but the
                // interpreter still evaluates the label expression before
                // noticing; keep `$random` stream effects identical.
                if has_random(&label.value) {
                    // Scratch is reclaimed by the enclosing statement's
                    // register-mark reset.
                    let _ = self.expr(&label.value, w);
                }
                None
            }
            (Some(care), CaseKind::Casez | CaseKind::Casex) => {
                let care = care.resize(w);
                let lv = self.expr(&label.value, w);
                let lv = self.coerce(lv, w, false);
                if w <= 64 {
                    let cm = care.to_u64();
                    let s = self.reg_of(scr);
                    let sm = self.regs.alloc();
                    self.emit(Op::BinImm {
                        op: NOp::And,
                        dst: sm,
                        a: s,
                        imm: cm,
                        w,
                    });
                    match lv {
                        Val::C { v, .. } => {
                            let d = self.regs.alloc();
                            self.emit(Op::CmpUI {
                                cc: Cc::Eq,
                                dst: d,
                                a: sm,
                                imm: v & cm,
                            });
                            Some(d)
                        }
                        _ => {
                            let lr = self.reg_of(lv);
                            let lmsk = self.regs.alloc();
                            self.emit(Op::BinImm {
                                op: NOp::And,
                                dst: lmsk,
                                a: lr,
                                imm: cm,
                                w,
                            });
                            let d = self.regs.alloc();
                            self.emit(Op::CmpU {
                                cc: Cc::Eq,
                                dst: d,
                                a: sm,
                                b: lmsk,
                            });
                            Some(d)
                        }
                    }
                } else {
                    let s = self.wreg_of(scr);
                    let cw = self.wregs.alloc();
                    self.emit(Op::WMovC(cw, Box::new(care)));
                    let sm = self.wregs.alloc();
                    self.emit(Op::WBin {
                        op: BinaryOp::And,
                        dst: sm,
                        a: s,
                        b: cw,
                        w,
                        sdiv: false,
                    });
                    let lr = self.wreg_of(lv);
                    let lm = self.wregs.alloc();
                    self.emit(Op::WBin {
                        op: BinaryOp::And,
                        dst: lm,
                        a: lr,
                        b: cw,
                        w,
                        sdiv: false,
                    });
                    let d = self.regs.alloc();
                    self.emit(Op::WCmp {
                        cc: Cc::Eq,
                        dst: d,
                        a: sm,
                        b: lm,
                        signed: false,
                    });
                    Some(d)
                }
            }
            (None, _) => {
                let lv = self.expr(&label.value, w);
                let lv = self.coerce(lv, w, false);
                if w <= 64 {
                    let s = self.reg_of(scr);
                    match lv {
                        Val::C { v, .. } => {
                            let d = self.regs.alloc();
                            self.emit(Op::CmpUI {
                                cc: Cc::Eq,
                                dst: d,
                                a: s,
                                imm: v,
                            });
                            Some(d)
                        }
                        _ => {
                            let lr = self.reg_of(lv);
                            let d = self.regs.alloc();
                            self.emit(Op::CmpU {
                                cc: Cc::Eq,
                                dst: d,
                                a: s,
                                b: lr,
                            });
                            Some(d)
                        }
                    }
                } else {
                    let s = self.wreg_of(scr);
                    let lr = self.wreg_of(lv);
                    let d = self.regs.alloc();
                    self.emit(Op::WCmp {
                        cc: Cc::Eq,
                        dst: d,
                        a: s,
                        b: lr,
                        signed: false,
                    });
                    Some(d)
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Stores
    // ------------------------------------------------------------------

    /// Compiles a store of `val` (already coerced to the lvalue's width)
    /// into `lhs`. Selector expressions evaluate here, after the RHS, in
    /// the interpreter's order.
    fn store(&mut self, lhs: &RLValue, val: Val, nb: bool) {
        match lhs {
            RLValue::Var(var) => {
                let vs = self.vstore[var.0 as usize];
                let vw = vs.width();
                let val = self.coerce(val, vw, false);
                match vs {
                    VStore::Narrow { off, .. } => {
                        let src = self.reg_of(val);
                        if nb {
                            self.emit(Op::NbSt { var: var.0, src });
                        } else if self.observed(var.0) {
                            self.emit(Op::St {
                                var: var.0,
                                off,
                                src,
                            });
                        } else {
                            self.emit(Op::StQ { off, src });
                        }
                    }
                    _ => {
                        let src = self.wreg_of(val);
                        self.emit(Op::WStore {
                            var: var.0,
                            src,
                            idx: None,
                            off: None,
                            nb,
                        });
                    }
                }
            }
            RLValue::Range { var, offset, width } => {
                let val = self.coerce(val, *width, false);
                let ov = self.expr(offset, 0);
                let off = self.u64_reg_of(ov);
                self.emit_part_store(*var, val, *width, None, Some(off), nb);
            }
            RLValue::ArrayWord { var, index } => {
                let vs = self.vstore[var.0 as usize];
                let vw = vs.width();
                let val = self.coerce(val, vw, false);
                let iv = self.expr(index, 0);
                let idx = self.u64_reg_of(iv);
                self.emit_part_store(*var, val, vw, Some(idx), None, nb);
            }
            RLValue::ArrayWordRange {
                var,
                index,
                offset,
                width,
            } => {
                let val = self.coerce(val, *width, false);
                let iv = self.expr(index, 0);
                let idx = self.u64_reg_of(iv);
                let ov = self.expr(offset, 0);
                let off = self.u64_reg_of(ov);
                self.emit_part_store(*var, val, *width, Some(idx), Some(off), nb);
            }
            RLValue::Concat(parts) => {
                let total: u32 = parts.iter().map(|p| p.width(&self.design.vars)).sum();
                let mut hi = total;
                for p in parts {
                    let w = p.width(&self.design.vars);
                    let off = Val::C {
                        v: (hi - w) as u64,
                        w: 64,
                    };
                    let m = self.regs.mark();
                    let wm = self.wregs.mark();
                    let piece = self.slice_val(val, off, w);
                    self.store(p, piece, nb);
                    self.regs.reset(m);
                    self.wregs.reset(wm);
                    hi -= w;
                }
            }
        }
    }

    fn emit_part_store(
        &mut self,
        var: VarId,
        val: Val,
        w: u32,
        idx: Option<Reg>,
        off: Option<Reg>,
        nb: bool,
    ) {
        let vs = self.vstore[var.0 as usize];
        let narrow_var = matches!(vs, VStore::Narrow { .. } | VStore::NarrowArr { .. });
        if narrow_var && w <= 64 {
            let src = self.reg_of(val);
            self.emit(Op::StoreGen {
                var: var.0,
                src,
                w,
                idx,
                off,
                nb,
            });
        } else {
            let src = self.wreg_of(val);
            self.emit(Op::WStore {
                var: var.0,
                src,
                idx,
                off,
                nb,
            });
        }
    }

    // ------------------------------------------------------------------
    // System tasks
    // ------------------------------------------------------------------

    fn task(&mut self, task: SystemTask, args: &[RTaskArg]) {
        let frag_start = self.here();
        let (fmt, specs) = match args.split_first() {
            Some((RTaskArg::Str(f), rest)) => {
                let mut vals = Vec::with_capacity(rest.len());
                for a in rest {
                    vals.push(self.task_arg(a));
                }
                (Some(f.clone()), vals)
            }
            _ => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.task_arg(a));
                }
                (None, vals)
            }
        };
        let frag_end = self.here();
        self.emit(Op::Task(Box::new(TaskOp {
            kind: task,
            fmt,
            vals: specs.into_boxed_slice(),
            frag: (frag_start, frag_end),
        })));
    }

    fn task_arg(&mut self, a: &RTaskArg) -> ArgV {
        match a {
            RTaskArg::Str(s) => {
                let bytes = s.as_bytes();
                let mut b = Bits::zero(bytes.len() as u32 * 8);
                for (i, &byte) in bytes.iter().rev().enumerate() {
                    b.splice(i as u32 * 8, &Bits::from_u64(8, byte as u64));
                }
                ArgV::Lit {
                    s: s.clone(),
                    packed: b,
                }
            }
            RTaskArg::Expr(e) => {
                let v = self.expr(e, 0);
                match v {
                    Val::W { wr, .. } => ArgV::W {
                        wr,
                        signed: e.signed,
                    },
                    other => {
                        let r = self.reg_of(other);
                        ArgV::N {
                            r,
                            w: other.width(),
                            signed: e.signed,
                        }
                    }
                }
            }
        }
    }
}

pub(crate) use crate::sim::extend;
