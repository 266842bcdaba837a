//! Bounded sequential equivalence checking over 2-state netlists.
//!
//! [`check_equiv`] unrolls two synthesized [`Netlist`]s `K` cycles into a
//! single CNF miter and hands it to the in-tree CDCL core ([`crate::sat`]).
//! Both designs read the same symbolic inputs (tied by port name) every
//! frame; registers start from their declared initializers and memories
//! from zero, exactly as the execution engines initialize them. The miter
//! asserts that some frame disagrees on an output value, a task trigger,
//! or a firing task's arguments — UNSAT proves K-cycle equivalence, SAT
//! yields a concrete per-frame input counterexample.
//!
//! The bit-blaster mirrors `cascade_netlist::eval_cell` operator by
//! operator, width-extension rules included, with structural hashing and
//! constant folding at the gate level so logic shared between the two
//! netlists collapses to identical literals and never reaches the solver.
//! Division/remainder cells are outside the fragment (`Unsupported`), as
//! are netlists with more than one clock domain.
//!
//! The headline use, the [`Bmc`] campaign: proving the post-synthesis
//! optimization pipeline (`balance_case_chains` + `prune_dead`) preserved
//! each generated design, by checking `synthesize_raw` output against
//! `synthesize` output.

use crate::campaign::{Campaign, Outcome};
use crate::sat::{Lit, SatResult, Solver};
use crate::spec::DesignSpec;
use cascade_bits::{Bits, Prng};
use cascade_netlist::{synthesize, synthesize_raw, Cell, CellOp, Def, NetId, Netlist};
use cascade_sim::{elaborate, library_from_source};
use std::collections::HashMap;

/// Constant literals: variable 1 is pinned true by a unit clause.
const LIT_TRUE: Lit = 1;
const LIT_FALSE: Lit = -1;

/// Solver/blast statistics for reporting and benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct BmcStats {
    pub frames: u32,
    pub vars: usize,
    pub clauses: usize,
    pub gates: u64,
    pub decisions: u64,
    pub conflicts: u64,
    pub propagations: u64,
}

/// Equivalence verdict.
#[derive(Debug, Clone)]
pub enum BmcResult {
    /// No divergence within the bound.
    Equivalent(BmcStats),
    /// Concrete stimulus distinguishing the designs.
    Counterexample {
        /// First frame whose outputs/tasks disagree.
        frame: u32,
        /// Input values per frame: `(port, [frame0, frame1, ...])`.
        inputs: Vec<(String, Vec<u64>)>,
        stats: BmcStats,
    },
    /// The design pair is outside the checker's fragment, or the solver
    /// budget ran out.
    Unsupported(String),
}

// ---------------------------------------------------------------------
// Gate-level construction with hashing + folding.
// ---------------------------------------------------------------------

struct GateBuilder {
    solver: Solver,
    and_cache: HashMap<(Lit, Lit), Lit>,
    xor_cache: HashMap<(Lit, Lit), Lit>,
    gates: u64,
}

impl GateBuilder {
    fn new() -> Self {
        let mut solver = Solver::new();
        let t = solver.new_var();
        debug_assert_eq!(t, LIT_TRUE);
        solver.add_clause(&[LIT_TRUE]);
        GateBuilder {
            solver,
            and_cache: HashMap::new(),
            xor_cache: HashMap::new(),
            gates: 0,
        }
    }

    fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        if a == LIT_FALSE || b == LIT_FALSE || a == -b {
            return LIT_FALSE;
        }
        if a == LIT_TRUE || a == b {
            return b;
        }
        if b == LIT_TRUE {
            return a;
        }
        let key = (a.min(b), a.max(b));
        if let Some(&g) = self.and_cache.get(&key) {
            return g;
        }
        let g = self.solver.new_var();
        self.solver.add_clause(&[-g, a]);
        self.solver.add_clause(&[-g, b]);
        self.solver.add_clause(&[g, -a, -b]);
        self.and_cache.insert(key, g);
        self.gates += 1;
        g
    }

    fn or2(&mut self, a: Lit, b: Lit) -> Lit {
        -self.and2(-a, -b)
    }

    fn xor2(&mut self, a: Lit, b: Lit) -> Lit {
        if a == LIT_FALSE {
            return b;
        }
        if b == LIT_FALSE {
            return a;
        }
        if a == LIT_TRUE {
            return -b;
        }
        if b == LIT_TRUE {
            return -a;
        }
        if a == b {
            return LIT_FALSE;
        }
        if a == -b {
            return LIT_TRUE;
        }
        // xor(±a, ±b) differs from xor(|a|, |b|) only in output sign.
        let flip = (a < 0) ^ (b < 0);
        let (x, y) = (a.abs().min(b.abs()), a.abs().max(b.abs()));
        let g = match self.xor_cache.get(&(x, y)) {
            Some(&g) => g,
            None => {
                let g = self.solver.new_var();
                self.solver.add_clause(&[-g, x, y]);
                self.solver.add_clause(&[-g, -x, -y]);
                self.solver.add_clause(&[g, -x, y]);
                self.solver.add_clause(&[g, x, -y]);
                self.xor_cache.insert((x, y), g);
                self.gates += 1;
                g
            }
        };
        if flip {
            -g
        } else {
            g
        }
    }

    fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        if s == LIT_TRUE {
            return t;
        }
        if s == LIT_FALSE || t == e {
            return e;
        }
        let a = self.and2(s, t);
        let b = self.and2(-s, e);
        self.or2(a, b)
    }

    /// Full adder: returns (sum, carry).
    fn full_add(&mut self, a: Lit, b: Lit, c: Lit) -> (Lit, Lit) {
        let axb = self.xor2(a, b);
        let sum = self.xor2(axb, c);
        let ab = self.and2(a, b);
        let axbc = self.and2(axb, c);
        let carry = self.or2(ab, axbc);
        (sum, carry)
    }
}

// ---------------------------------------------------------------------
// Word-level vectors (LSB-first).
// ---------------------------------------------------------------------

type Word = Vec<Lit>;

fn const_word(b: &Bits) -> Word {
    (0..b.width())
        .map(|i| if b.bit(i) { LIT_TRUE } else { LIT_FALSE })
        .collect()
}

fn zext(v: &[Lit], w: u32) -> Word {
    let mut out = v.to_vec();
    out.resize(w as usize, LIT_FALSE);
    out.truncate(w as usize);
    out
}

fn sext(v: &[Lit], w: u32) -> Word {
    match v.last() {
        None => vec![LIT_FALSE; w as usize],
        Some(&sign) => {
            let mut out = v.to_vec();
            out.resize(w as usize, sign);
            out.truncate(w as usize);
            out
        }
    }
}

impl GateBuilder {
    fn w_not(&mut self, a: &[Lit]) -> Word {
        a.iter().map(|&l| -l).collect()
    }

    fn w_bitwise(&mut self, op: CellOp, a: &[Lit], b: &[Lit], w: u32) -> Word {
        let m = a.len().max(b.len()) as u32;
        let (a, b) = (zext(a, m), zext(b, m));
        let mut full = Word::with_capacity(m as usize);
        for (&x, &y) in a.iter().zip(&b) {
            let g = match op {
                CellOp::And => self.and2(x, y),
                CellOp::Or => self.or2(x, y),
                CellOp::Xor => self.xor2(x, y),
                CellOp::Xnor => -self.xor2(x, y),
                _ => unreachable!(),
            };
            full.push(g);
        }
        zext(&full, w)
    }

    /// Ripple add of equal-width words with carry-in; result same width.
    fn w_add_core(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Word {
        let mut out = Word::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.full_add(x, y, carry);
            out.push(s);
            carry = c;
        }
        out
    }

    fn w_add(&mut self, a: &[Lit], b: &[Lit], w: u32) -> Word {
        let m = a.len().max(b.len()) as u32;
        let (a, b) = (zext(a, m), zext(b, m));
        let full = self.w_add_core(&a, &b, LIT_FALSE);
        zext(&full, w)
    }

    fn w_sub(&mut self, a: &[Lit], b: &[Lit], w: u32) -> Word {
        let m = a.len().max(b.len()) as u32;
        let (a, b) = (zext(a, m), zext(b, m));
        let nb = self.w_not(&b);
        let full = self.w_add_core(&a, &nb, LIT_TRUE);
        zext(&full, w)
    }

    fn w_neg(&mut self, a: &[Lit], w: u32) -> Word {
        let zero = vec![LIT_FALSE; a.len()];
        let na = self.w_not(a);
        let full = self.w_add_core(&zero, &na, LIT_TRUE);
        zext(&full, w)
    }

    fn w_mul(&mut self, a: &[Lit], b: &[Lit], w: u32) -> Word {
        let m = a.len().max(b.len());
        let a = zext(a, m as u32);
        let b = zext(b, m as u32);
        let mut acc = vec![LIT_FALSE; m];
        for (i, &bi) in b.iter().enumerate() {
            if bi == LIT_FALSE || i >= m {
                continue;
            }
            // Partial product (a << i) gated by b[i], truncated to m bits.
            let mut pp = vec![LIT_FALSE; m];
            for j in 0..m - i {
                pp[i + j] = self.and2(a[j], bi);
            }
            acc = self.w_add_core(&acc, &pp, LIT_FALSE);
        }
        zext(&acc, w)
    }

    /// Dynamic shifts at the width of `a` (amounts at or past the width
    /// produce zero / sign fill), resized to `w` afterwards — matching
    /// `Bits::shl`/`shr`/`ashr` + `shift_amount`'s low-64-bit read.
    fn w_shift(&mut self, op: CellOp, a: &[Lit], b: &[Lit], w: u32) -> Word {
        let wa = a.len();
        if wa == 0 {
            return zext(&[], w);
        }
        let fill = match op {
            CellOp::AShr => a[wa - 1],
            _ => LIT_FALSE,
        };
        // Barrel stages for shift bits that can matter; every other bit
        // below 64 ORs into an "out of range" flag. Bits 64+ are ignored,
        // as `shift_amount` reads only the low 64 bits of the amount.
        let mut cur = a.to_vec();
        let mut oob = LIT_FALSE;
        for (i, &bi) in b.iter().enumerate() {
            if i >= 64 {
                continue;
            }
            if i >= 32 || (1u64 << i) >= wa as u64 {
                oob = self.or2(oob, bi);
                continue;
            }
            let sh = 1usize << i;
            let mut next = Word::with_capacity(wa);
            for (j, &keep) in cur.iter().enumerate() {
                let shifted = match op {
                    CellOp::Shl => {
                        if j >= sh {
                            cur[j - sh]
                        } else {
                            LIT_FALSE
                        }
                    }
                    _ => {
                        if j + sh < wa {
                            cur[j + sh]
                        } else {
                            fill
                        }
                    }
                };
                next.push(self.mux(bi, shifted, keep));
            }
            cur = next;
        }
        let out: Word = cur.iter().map(|&l| self.mux(oob, fill, l)).collect();
        zext(&out, w)
    }

    /// 1-bit equality of zero-extended words.
    fn w_eq(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let m = a.len().max(b.len()) as u32;
        let (a, b) = (zext(a, m), zext(b, m));
        let mut acc = LIT_TRUE;
        for (&x, &y) in a.iter().zip(&b) {
            let same = -self.xor2(x, y);
            acc = self.and2(acc, same);
        }
        acc
    }

    /// 1-bit unsigned less-than of zero-extended words.
    fn w_ltu(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let m = a.len().max(b.len()) as u32;
        let (a, b) = (zext(a, m), zext(b, m));
        let mut lt = LIT_FALSE;
        for (&x, &y) in a.iter().zip(&b) {
            // From LSB up: lt' = (¬x ∧ y) ∨ ((x ≡ y) ∧ lt)
            let xy = self.and2(-x, y);
            let same = -self.xor2(x, y);
            let keep = self.and2(same, lt);
            lt = self.or2(xy, keep);
        }
        lt
    }

    /// Signed less-than: sign-extend each from its own width, flip MSBs,
    /// compare unsigned (matching `Bits::cmp_signed`).
    fn w_lts(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let m = a.len().max(b.len()).max(1) as u32;
        let mut a = sext(a, m);
        let mut b = sext(b, m);
        let top = (m - 1) as usize;
        a[top] = -a[top];
        b[top] = -b[top];
        self.w_ltu(&a, &b)
    }

    fn w_redor(&mut self, a: &[Lit]) -> Lit {
        let mut acc = LIT_FALSE;
        for &l in a {
            acc = self.or2(acc, l);
        }
        acc
    }

    fn w_redand(&mut self, a: &[Lit]) -> Lit {
        let mut acc = LIT_TRUE;
        for &l in a {
            acc = self.and2(acc, l);
        }
        acc
    }

    fn w_redxor(&mut self, a: &[Lit]) -> Lit {
        let mut acc = LIT_FALSE;
        for &l in a {
            acc = self.xor2(acc, l);
        }
        acc
    }

    fn w_mux(&mut self, s: Lit, t: &[Lit], e: &[Lit], w: u32) -> Word {
        let t = zext(t, w);
        let e = zext(e, w);
        t.iter().zip(&e).map(|(&x, &y)| self.mux(s, x, y)).collect()
    }
}

// ---------------------------------------------------------------------
// Netlist blasting.
// ---------------------------------------------------------------------

/// Sequential state of one netlist at a frame boundary.
struct FrameState {
    regs: Vec<Word>,
    /// Per memory, per word.
    mems: Vec<Vec<Word>>,
}

/// Net values of one netlist within one frame.
struct Frame {
    nets: Vec<Option<Word>>,
}

fn initial_state(nl: &Netlist) -> FrameState {
    FrameState {
        regs: nl.regs.iter().map(|r| const_word(&r.init)).collect(),
        mems: nl
            .mems
            .iter()
            .map(|m| vec![vec![LIT_FALSE; m.width as usize]; m.words as usize])
            .collect(),
    }
}

fn blast_cell(gb: &mut GateBuilder, cell: &Cell, ins: &[&Word], w: u32) -> Result<Word, String> {
    let a = ins.first().copied();
    let b = ins.get(1).copied();
    use CellOp::*;
    Ok(match cell.op {
        Not => zext(&gb.w_not(a.expect("input")), w),
        Neg => gb.w_neg(a.expect("input"), w),
        RedAnd => vec![gb.w_redand(a.expect("input"))],
        RedOr => vec![gb.w_redor(a.expect("input"))],
        RedXor => vec![gb.w_redxor(a.expect("input"))],
        LogNot => vec![-gb.w_redor(a.expect("input"))],
        Add => gb.w_add(a.expect("a"), b.expect("b"), w),
        Sub => gb.w_sub(a.expect("a"), b.expect("b"), w),
        Mul => gb.w_mul(a.expect("a"), b.expect("b"), w),
        DivU | DivS | RemU | RemS => {
            return Err("division/remainder cells are outside the BMC fragment".into())
        }
        And | Or | Xor | Xnor => gb.w_bitwise(cell.op, a.expect("a"), b.expect("b"), w),
        Shl | Shr | AShr => gb.w_shift(cell.op, a.expect("a"), b.expect("b"), w),
        Eq => vec![gb.w_eq(a.expect("a"), b.expect("b"))],
        Ne => vec![-gb.w_eq(a.expect("a"), b.expect("b"))],
        LtU => vec![gb.w_ltu(a.expect("a"), b.expect("b"))],
        LeU => vec![-gb.w_ltu(b.expect("b"), a.expect("a"))],
        LtS => vec![gb.w_lts(a.expect("a"), b.expect("b"))],
        LeS => vec![-gb.w_lts(b.expect("b"), a.expect("a"))],
        Mux => {
            let s = gb.w_redor(ins[0]);
            gb.w_mux(s, ins[1], ins[2], w)
        }
        Concat => {
            // Inputs are MSB-first; accumulate LSB-first.
            let mut acc: Word = Vec::new();
            for part in ins.iter().rev() {
                acc.extend_from_slice(part);
            }
            zext(&acc, w)
        }
        Slice { offset } => {
            let v = a.expect("input");
            (0..w)
                .map(|i| *v.get((offset + i) as usize).unwrap_or(&LIT_FALSE))
                .collect()
        }
        DynSlice => {
            // slice(off, w) == (a >> off) truncated to w, zero-filled.
            gb.w_shift(CellOp::Shr, a.expect("input"), b.expect("offset"), w)
        }
        ZExt => zext(a.expect("input"), w),
        SExt => sext(a.expect("input"), w),
        Repeat { count } => {
            let v = a.expect("input");
            let mut acc: Word = Vec::with_capacity(v.len() * count as usize);
            for _ in 0..count {
                acc.extend_from_slice(v);
            }
            zext(&acc, w)
        }
    })
}

/// Evaluates every net of `nl` for one frame.
fn blast_frame(
    gb: &mut GateBuilder,
    nl: &Netlist,
    order: &[NetId],
    state: &FrameState,
    inputs: &HashMap<String, Word>,
) -> Result<Frame, String> {
    let mut nets: Vec<Option<Word>> = vec![None; nl.nets.len()];
    // Non-cell defs first (any order), then cells in topological order.
    for (i, info) in nl.nets.iter().enumerate() {
        let w = info.width;
        nets[i] = match &info.def {
            Def::Input => {
                let name = info.name.as_deref().unwrap_or("");
                let word = inputs
                    .get(name)
                    .ok_or_else(|| format!("unbound input `{name}`"))?;
                Some(zext(word, w))
            }
            Def::Undriven => Some(vec![LIT_FALSE; w as usize]),
            Def::Const(c) => Some(zext(&const_word(c), w)),
            Def::Reg(r) => Some(zext(&state.regs[r.0 as usize], w)),
            Def::Cell(_) | Def::MemRead { .. } => None,
        };
    }
    for &net in order {
        let i = net.0 as usize;
        if nets[i].is_some() {
            continue;
        }
        let w = nl.nets[i].width;
        let value = match &nl.nets[i].def {
            Def::Cell(cell) => {
                let ins: Vec<&Word> = cell
                    .inputs
                    .iter()
                    .map(|inp| nets[inp.0 as usize].as_ref().expect("topological order"))
                    .collect();
                let owned: Vec<Word> = ins.into_iter().cloned().collect();
                let refs: Vec<&Word> = owned.iter().collect();
                blast_cell(gb, cell, &refs, w)?
            }
            Def::MemRead { mem, addr } => {
                // Async read: eq-mux chain over all words, zero default
                // (out-of-range reads are zero in every engine).
                let addr_w = nets[addr.0 as usize].clone().expect("topological order");
                let mut acc = vec![LIT_FALSE; w as usize];
                for (wi, word) in state.mems[mem.0 as usize].iter().enumerate() {
                    let here = const_word(&Bits::from_u64(64, wi as u64));
                    let sel = gb.w_eq(&addr_w, &here);
                    acc = gb.w_mux(sel, word, &acc, w);
                }
                acc
            }
            _ => continue,
        };
        nets[i] = Some(value);
    }
    Ok(Frame { nets })
}

/// Computes the next-frame state from this frame's net values.
fn next_state(gb: &mut GateBuilder, nl: &Netlist, frame: &Frame, state: &FrameState) -> FrameState {
    let regs = nl
        .regs
        .iter()
        .map(|r| {
            let w = nl.width(r.q);
            zext(frame.nets[r.d.0 as usize].as_ref().expect("driven"), w)
        })
        .collect();
    let mems = nl
        .mems
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            let mut words = state.mems[mi].clone();
            // Write ports apply in declaration order: later ports win on
            // address collisions; out-of-range writes are dropped.
            for port in &m.write_ports {
                let en_w = frame.nets[port.enable.0 as usize].clone().expect("driven");
                let en = gb.w_redor(&en_w);
                let addr = frame.nets[port.addr.0 as usize].clone().expect("driven");
                let data = zext(
                    frame.nets[port.data.0 as usize].as_ref().expect("driven"),
                    m.width,
                );
                for (wi, word) in words.iter_mut().enumerate() {
                    let here = const_word(&Bits::from_u64(64, wi as u64));
                    let hit = gb.w_eq(&addr, &here);
                    let sel = gb.and2(en, hit);
                    *word = gb.w_mux(sel, &data, word, m.width);
                }
            }
            words
        })
        .collect();
    FrameState { regs, mems }
}

/// Per-frame miter over outputs and task behavior; true iff they disagree.
fn frame_diff(
    gb: &mut GateBuilder,
    a: &Netlist,
    af: &Frame,
    b: &Netlist,
    bf: &Frame,
) -> Result<Lit, String> {
    let mut diff = LIT_FALSE;
    let b_outs: HashMap<&str, NetId> = b.outputs.iter().map(|(n, id)| (n.as_str(), *id)).collect();
    for (name, a_net) in &a.outputs {
        let Some(&b_net) = b_outs.get(name.as_str()) else {
            return Err(format!("output `{name}` missing from second netlist"));
        };
        let av = af.nets[a_net.0 as usize].clone().expect("driven");
        let bv = bf.nets[b_net.0 as usize].clone().expect("driven");
        let eq = gb.w_eq(&av, &bv);
        diff = gb.or2(diff, -eq);
    }
    if a.tasks.len() != b.tasks.len() {
        return Err("task lists differ in length".into());
    }
    for (ta, tb) in a.tasks.iter().zip(&b.tasks) {
        let ta_trig = af.nets[ta.trigger.0 as usize].clone().expect("driven");
        let tb_trig = bf.nets[tb.trigger.0 as usize].clone().expect("driven");
        let trig_a = gb.w_redor(&ta_trig);
        let trig_b = gb.w_redor(&tb_trig);
        let trig_x = gb.xor2(trig_a, trig_b);
        diff = gb.or2(diff, trig_x);
        if ta.args.len() != tb.args.len() {
            return Err("task argument lists differ".into());
        }
        for (aa, ba) in ta.args.iter().zip(&tb.args) {
            let av = af.nets[aa.0 as usize].clone().expect("driven");
            let bv = bf.nets[ba.0 as usize].clone().expect("driven");
            let eq = gb.w_eq(&av, &bv);
            // Only firing tasks pin their arguments.
            let bad = gb.and2(trig_a, -eq);
            diff = gb.or2(diff, bad);
        }
    }
    Ok(diff)
}

/// Bounded equivalence check of two netlists over `k` cycles, within a
/// budget of two million SAT conflicts.
///
/// See the module docs for the exact contract.
pub fn check_equiv(a: &Netlist, b: &Netlist, k: u32) -> BmcResult {
    let max_conflicts = 2_000_000;
    for nl in [a, b] {
        if nl.clocks.len() > 1 {
            return BmcResult::Unsupported("multiple clock domains".into());
        }
    }
    let order_a = match cascade_netlist::levelize(a) {
        Ok(o) => o,
        Err(e) => return BmcResult::Unsupported(format!("levelize: {e:?}")),
    };
    let order_b = match cascade_netlist::levelize(b) {
        Ok(o) => o,
        Err(e) => return BmcResult::Unsupported(format!("levelize: {e:?}")),
    };

    let mut gb = GateBuilder::new();

    // The union of both designs' input ports, shared per frame.
    let mut input_names: Vec<(String, u32)> = Vec::new();
    for nl in [a, b] {
        for &net in &nl.inputs {
            let info = &nl.nets[net.0 as usize];
            let name = info.name.clone().unwrap_or_default();
            match input_names.iter_mut().find(|(n, _)| *n == name) {
                Some((_, w)) => *w = (*w).max(info.width),
                None => input_names.push((name, info.width)),
            }
        }
    }

    let mut state_a = initial_state(a);
    let mut state_b = initial_state(b);
    let mut frame_inputs: Vec<HashMap<String, Word>> = Vec::new();
    let mut diffs: Vec<Lit> = Vec::new();

    for _ in 0..k {
        let mut inputs: HashMap<String, Word> = HashMap::new();
        for (name, w) in &input_names {
            let word: Word = (0..*w).map(|_| gb.solver.new_var()).collect();
            inputs.insert(name.clone(), word);
        }
        let fa = match blast_frame(&mut gb, a, &order_a, &state_a, &inputs) {
            Ok(f) => f,
            Err(e) => return BmcResult::Unsupported(e),
        };
        let fb = match blast_frame(&mut gb, b, &order_b, &state_b, &inputs) {
            Ok(f) => f,
            Err(e) => return BmcResult::Unsupported(e),
        };
        let d = match frame_diff(&mut gb, a, &fa, b, &fb) {
            Ok(d) => d,
            Err(e) => return BmcResult::Unsupported(e),
        };
        diffs.push(d);
        state_a = next_state(&mut gb, a, &fa, &state_a);
        state_b = next_state(&mut gb, b, &fb, &state_b);
        frame_inputs.push(inputs);
    }

    // Some frame must differ.
    gb.solver.add_clause(&diffs);

    let stats_of = |gb: &GateBuilder| BmcStats {
        frames: k,
        vars: gb.solver.num_vars(),
        clauses: gb.solver.num_clauses(),
        gates: gb.gates,
        decisions: gb.solver.stats.decisions,
        conflicts: gb.solver.stats.conflicts,
        propagations: gb.solver.stats.propagations,
    };

    match gb.solver.solve(max_conflicts) {
        SatResult::Unsat => BmcResult::Equivalent(stats_of(&gb)),
        SatResult::Unknown => BmcResult::Unsupported(format!(
            "solver conflict budget ({max_conflicts}) exhausted"
        )),
        SatResult::Sat => {
            let frame = diffs
                .iter()
                .position(|&d| gb.solver.model_value(d))
                .unwrap_or(0) as u32;
            let mut inputs: Vec<(String, Vec<u64>)> = Vec::new();
            for (name, _) in &input_names {
                let mut per_frame = Vec::with_capacity(k as usize);
                for fi in &frame_inputs {
                    let word = &fi[name];
                    let mut v = 0u64;
                    for (i, &l) in word.iter().enumerate().take(64) {
                        if gb.solver.model_value(l) {
                            v |= 1 << i;
                        }
                    }
                    per_frame.push(v);
                }
                inputs.push((name.clone(), per_frame));
            }
            BmcResult::Counterexample {
                frame,
                inputs,
                stats: stats_of(&gb),
            }
        }
    }
}

/// The BMC campaign: generated designs, each synthesized raw and
/// optimized, and the two netlists proved equivalent `k` cycles deep. It
/// stops at `designs` decided designs or after four times as many
/// attempts; a design outside the fragment is skipped.
#[derive(Debug, Default)]
pub struct Bmc {
    seed: u64,
    designs: u32,
    k: u32,
    pub proved: u32,
    pub refuted: u32,
    pub unsupported: u32,
    pub gates: u64,
    pub conflicts: u64,
    counterexamples: Vec<String>,
}

impl Bmc {
    pub fn new(seed: u64, designs: u32, k: u32) -> Bmc {
        Bmc {
            seed,
            designs,
            k,
            ..Bmc::default()
        }
    }
}

impl Campaign for Bmc {
    type Case = DesignSpec;
    type Finding = String;

    fn budget(&self) -> (u32, u32) {
        (self.designs, self.designs.saturating_mul(4))
    }

    fn generate(&mut self, attempt: u32) -> DesignSpec {
        let salt = u64::from(attempt) + 1;
        let seed = self.seed.wrapping_add(salt.wrapping_mul(0x9e37_79b9));
        DesignSpec::generate(&mut Prng::new(seed))
    }

    fn run(&mut self, spec: &DesignSpec, counted: bool) -> Outcome<Vec<String>> {
        let lib = library_from_source(&spec.render()).ok();
        let design = lib.and_then(|lib| elaborate("T", &lib, &Default::default()).ok());
        let Some((Ok(raw), Ok(opt))) = design.map(|d| (synthesize_raw(&d), synthesize(&d))) else {
            return Outcome::Skip;
        };
        let counted = u32::from(counted);
        match check_equiv(&raw, &opt, self.k) {
            BmcResult::Equivalent(stats) => {
                self.proved += counted;
                self.gates += u64::from(counted) * stats.gates;
                self.conflicts += u64::from(counted) * stats.conflicts;
                Outcome::Pass
            }
            BmcResult::Counterexample { frame, inputs, .. } => {
                self.refuted += counted;
                let found = format!("COUNTEREXAMPLE at frame {frame}: inputs {inputs:?}");
                Outcome::Fail(vec![found])
            }
            BmcResult::Unsupported(_) => {
                self.unsupported += counted;
                Outcome::Skip
            }
        }
    }

    /// Any counterexample will do: its inputs change as the design shrinks.
    fn same_failure(&self, _: &[String], _: &[String]) -> bool {
        true
    }

    fn record(&mut self, spec: DesignSpec, findings: Vec<String>) {
        let found = findings.join("\n");
        self.counterexamples
            .push(format!("{found}\n{}", spec.render()));
    }

    fn vacuous(&self) -> Option<&'static str> {
        (self.proved == 0).then_some("no design was proved")
    }

    fn report(&self, secs: f64) -> String {
        let (k, decided) = (self.k, u64::from(self.proved + self.refuted));
        let rate = (decided * u64::from(k)) as f64 / secs.max(1e-9);
        let mut out = format!(
            "bmc: {} proved, {} refuted, {} out of fragment at K={k} in {secs:.2}s \
             ({rate:.1} unrolled cycles/s) | {} gates, {} conflicts\n",
            self.proved, self.refuted, self.unsupported, self.gates, self.conflicts
        );
        out.extend(self.counterexamples.iter().map(|c| format!("  {c}\n")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::DesignSpec;
    use cascade_bits::Prng;
    use cascade_netlist::{synthesize, synthesize_raw};
    use cascade_sim::{elaborate, library_from_source};

    fn netlists_for(src: &str) -> Option<(Netlist, Netlist)> {
        let lib = library_from_source(src).ok()?;
        let design = elaborate("T", &lib, &Default::default()).ok()?;
        let raw = synthesize_raw(&design).ok()?;
        let opt = synthesize(&design).ok()?;
        Some((raw, opt))
    }

    /// The production pipeline check: raw vs optimized netlists of
    /// generated designs are equivalent at K=8.
    #[test]
    fn raw_vs_optimized_generated_specs() {
        let mut proved = 0;
        for seed in 0..12 {
            let mut rng = Prng::new(seed + 4000);
            let spec = DesignSpec::generate(&mut rng);
            let Some((raw, opt)) = netlists_for(&spec.render()) else {
                continue;
            };
            match check_equiv(&raw, &opt, 8) {
                BmcResult::Equivalent(_) => proved += 1,
                BmcResult::Counterexample { frame, inputs, .. } => panic!(
                    "seed {seed}: optimizer miscompiled (frame {frame}, inputs {inputs:?})\n{}",
                    spec.render()
                ),
                BmcResult::Unsupported(_) => {}
            }
        }
        assert!(proved >= 9, "only {proved}/12 proved");
    }

    /// A seeded miscompile (mux arms swapped post-synthesis) is caught
    /// with a concrete counterexample.
    #[test]
    fn seeded_miscompile_yields_counterexample() {
        let src = "module T(input wire clk, input wire [15:0] a, input wire [15:0] b, output wire [15:0] o0);\n\
                   reg [15:0] r0 = 0;\n\
                   always @(posedge clk) r0 <= (a[0]) ? (a + b) : (a - b);\n\
                   assign o0 = r0;\nendmodule";
        let (raw, opt) = netlists_for(src).expect("synthesizes");
        assert!(matches!(
            check_equiv(&raw, &opt, 4),
            BmcResult::Equivalent(_)
        ));
        // Tamper: swap the arms of every mux in the optimized netlist.
        let mut bad = opt.clone();
        for n in &mut bad.nets {
            if let Def::Cell(c) = &mut n.def {
                if c.op == CellOp::Mux {
                    c.inputs.swap(1, 2);
                }
            }
        }
        match check_equiv(&raw, &bad, 4) {
            BmcResult::Counterexample { inputs, .. } => {
                assert!(inputs.iter().any(|(n, _)| n == "a"));
            }
            other => panic!("tampered netlist not refuted: {other:?}"),
        }
    }

    /// A design checked against itself folds away structurally: the
    /// solver should close the miter without a single conflict.
    #[test]
    fn self_equivalence_is_structural() {
        let src = "module T(input wire clk, input wire [15:0] a, input wire [15:0] b, output wire [15:0] o0);\n\
                   reg [15:0] r0 = 3;\n\
                   always @(posedge clk) r0 <= r0 + a;\n\
                   assign o0 = r0;\nendmodule";
        let (raw, _) = netlists_for(src).expect("synthesizes");
        match check_equiv(&raw, &raw, 16) {
            BmcResult::Equivalent(stats) => {
                assert_eq!(stats.conflicts, 0, "self-miter should fold to false");
            }
            other => panic!("{other:?}"),
        }
    }

    /// Memories participate in the transition relation.
    #[test]
    fn memory_designs_check() {
        let src = "module T(input wire clk, input wire [15:0] a, input wire [15:0] b, output wire [15:0] om);\n\
                   reg [15:0] m [0:7];\n\
                   reg [7:0] cc = 0;\n\
                   always @(posedge clk) begin\n\
                     cc <= cc + 1;\n\
                     m[a[2:0]] <= b;\n\
                   end\n\
                   assign om = m[cc[2:0]];\nendmodule";
        let (raw, opt) = netlists_for(src).expect("synthesizes");
        assert!(matches!(
            check_equiv(&raw, &opt, 6),
            BmcResult::Equivalent(_)
        ));
    }
}
