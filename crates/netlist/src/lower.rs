//! Synthesis: an elaborated [`Design`] → word-level [`Netlist`].
//!
//! Clocked `always` blocks are symbolically executed into next-state mux
//! trees; combinational blocks into expression DAGs (with latch detection);
//! system tasks survive as trigger cells. The builder hash-conses cells and
//! constant-folds as it goes, so common-subexpression elimination and
//! constant propagation fall out of construction.

use crate::eval::eval_cell;
use crate::ir::*;
use cascade_bits::Bits;
use cascade_sim::{Design, RCaseLabel, RExpr, RExprKind, RLValue, RStmt, RTaskArg, VarId};
use cascade_verilog::ast::{BinaryOp, CaseKind, Edge, SystemTask, UnaryOp};
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;

/// Accumulated partial drivers for one variable:
/// `(dynamic offset net, width, value net)`.
type PartialDrivers =
    std::collections::BTreeMap<cascade_sim::VarId, Vec<(Option<NetId>, u32, NetId)>>;

/// A task accumulated during symbolic execution:
/// `(kind, trigger, format, args, arg signedness)`.
type PendingTask = (TaskKind, NetId, Option<String>, Vec<NetId>, Vec<bool>);

/// A synthesis failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthError {
    message: String,
}

impl SynthError {
    /// A synthesis failure with this message.
    pub fn new(message: impl Into<String>) -> Self {
        SynthError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "synthesis error: {}", self.message)
    }
}

impl Error for SynthError {}

/// Maximum loop-unroll iterations.
const UNROLL_LIMIT: u32 = 100_000;

/// Synthesizes a flat design into a netlist.
///
/// # Errors
///
/// Returns [`SynthError`] for unsynthesizable constructs: `initial` blocks
/// with statements, `$time`/`$random`, inferred latches, non-static loops,
/// multiple drivers, multi-clock registers, or system tasks outside clocked
/// blocks.
pub fn synthesize(design: &Design) -> Result<Netlist, SynthError> {
    let mut nl = synthesize_raw(design)?;
    crate::opt::optimize(&mut nl);
    Ok(nl)
}

/// [`synthesize`] without the post-synthesis optimization pipeline.
///
/// The raw netlist is what the optimizer consumes; keeping it reachable
/// lets the equivalence checker (`cascade-verify`) prove the optimized
/// netlist against it rather than trusting the passes.
pub fn synthesize_raw(design: &Design) -> Result<Netlist, SynthError> {
    Synth::new(design).run()
}

struct Synth<'a> {
    design: &'a Design,
    nl: Netlist,
    cell_cache: HashMap<(Cell, u32), NetId>,
    const_cache: HashMap<Bits, NetId>,
    /// var → its current-value net.
    var_nets: Vec<Option<NetId>>,
    /// var → memory.
    var_mems: Vec<Option<MemId>>,
    clock_ids: HashMap<(VarId, Edge), ClockId>,
}

/// A symbolic value: a net plus whether it is defined on every path so far
/// (combinational latch detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SVal {
    net: NetId,
    defined: bool,
}

/// Symbolic-execution context for one procedural block.
struct BlockCtx {
    /// Current (blocking) values; falls back to the var's net.
    env: BTreeMap<VarId, SVal>,
    /// Accumulated next-state (nonblocking) values.
    next: BTreeMap<VarId, SVal>,
    /// Memory write operations accumulated with their conditions.
    mem_writes: Vec<(MemId, NetId, NetId, NetId)>, // (mem, enable, addr, data)
    /// Task cells with their conditions.
    tasks: Vec<PendingTask>,
    /// Whether this block is combinational (latch rules apply).
    comb: bool,
    /// Vars written anywhere in this block (for latch detection).
    written: Vec<VarId>,
}

impl<'a> Synth<'a> {
    fn new(design: &'a Design) -> Self {
        Synth {
            design,
            nl: Netlist {
                name: design.top.clone(),
                ..Netlist::default()
            },
            cell_cache: HashMap::new(),
            const_cache: HashMap::new(),
            var_nets: vec![None; design.vars.len()],
            var_mems: vec![None; design.vars.len()],
            clock_ids: HashMap::new(),
        }
    }

    fn run(mut self) -> Result<Netlist, SynthError> {
        self.classify()?;
        // Continuous assignments and procedural blocks.
        let mut comb_drivers = PartialDrivers::new();
        for p in &self.design.processes {
            match p {
                cascade_sim::Process::Assign { lhs, rhs } => {
                    let width = lhs.width(&self.design.vars);
                    let value = self.build(rhs, width, None)?;
                    self.cont_assign(lhs, value, &mut comb_drivers)?;
                }
                cascade_sim::Process::Always { sens, body } => {
                    self.always_block(sens, body, &mut comb_drivers)?;
                }
                cascade_sim::Process::Initial { body } => {
                    if !matches!(body, RStmt::Null) && !is_empty_block(body) {
                        return Err(SynthError::new(
                            "initial blocks are unsynthesizable (state initializers are supported)",
                        ));
                    }
                }
            }
        }
        // Resolve partial drivers and patch var nets.
        for (var, pieces) in comb_drivers {
            let width = self.design.vars[var.0 as usize].width;
            let mut acc = self.const_net(Bits::zero(width));
            for (offset, w, value) in pieces {
                acc = match offset {
                    None => value,
                    Some(off) => self.splice_dyn(acc, off, w, value),
                };
            }
            self.patch_var(var, acc)?;
        }
        // Outputs.
        for (i, info) in self.design.vars.iter().enumerate() {
            if info.is_output {
                let net = self.var_net(VarId(i as u32));
                self.nl.outputs.push((info.name.clone(), net));
            }
        }
        self.check_drivers()?;
        let mut nl = self.nl;
        crate::opt::dedupe_clocks(&mut nl);
        Ok(nl)
    }

    /// Creates nets/registers/memories for every variable.
    fn classify(&mut self) -> Result<(), SynthError> {
        // Which vars are written in clocked blocks?
        let mut clocked_writes: Vec<Option<ClockId>> = vec![None; self.design.vars.len()];
        for p in &self.design.processes {
            if let cascade_sim::Process::Always { sens, body } = p {
                let edges: Vec<_> = sens.iter().filter(|s| s.edge.is_some()).collect();
                if edges.is_empty() {
                    continue;
                }
                if edges.len() != sens.len() || edges.len() != 1 {
                    return Err(SynthError::new(
                        "synthesis supports exactly one clock edge per always block \
                         (no async resets or mixed sensitivity)",
                    ));
                }
                let clock = self.clock_id(edges[0].var, edges[0].edge.expect("edge"));
                let mut writes = Vec::new();
                collect_writes(body, &mut writes);
                for w in writes {
                    if let Some(existing) = clocked_writes[w.0 as usize] {
                        if existing != clock {
                            return Err(SynthError::new(format!(
                                "`{}` is written from two clock domains",
                                self.design.vars[w.0 as usize].name
                            )));
                        }
                    }
                    clocked_writes[w.0 as usize] = Some(clock);
                }
            }
        }
        // Vars written by *any* always block (clocked or combinational);
        // an unwritten register holds its initial value forever and is a
        // constant in hardware.
        let mut proc_written = vec![false; self.design.vars.len()];
        for p in &self.design.processes {
            if let cascade_sim::Process::Always { body, .. } = p {
                let mut writes = Vec::new();
                collect_writes(body, &mut writes);
                for w in writes {
                    proc_written[w.0 as usize] = true;
                }
            }
        }
        for (i, info) in self.design.vars.iter().enumerate() {
            let var = VarId(i as u32);
            if info.is_array() {
                let mem = MemId(self.nl.mems.len() as u32);
                self.nl.mems.push(Memory {
                    width: info.width,
                    words: info.array_len,
                    name: Some(info.name.clone()),
                    write_ports: Vec::new(),
                });
                self.var_mems[i] = Some(mem);
                continue;
            }
            if info.is_input {
                // Clock-domain discovery above may already have minted a
                // placeholder net for this var (an input used as a clock);
                // patch it in place so the domain's net IS the input net,
                // rather than orphaning it as forever-undriven.
                let net = match self.var_nets[i] {
                    Some(existing) => {
                        self.nl.nets[existing.0 as usize].def = Def::Input;
                        existing
                    }
                    None => self.fresh_net(info.width, Some(info.name.clone()), Def::Input),
                };
                self.nl.inputs.push(net);
                self.var_nets[i] = Some(net);
            } else if let Some(clock) = clocked_writes[i] {
                let reg = RegId(self.nl.regs.len() as u32);
                let q = self.fresh_net(info.width, Some(info.name.clone()), Def::Reg(reg));
                self.nl.regs.push(Register {
                    q,
                    d: q, // patched when the block is synthesized
                    clock,
                    init: info.init.clone().unwrap_or_else(|| Bits::zero(info.width)),
                    name: Some(info.name.clone()),
                });
                self.var_nets[i] = Some(q);
                let _ = var;
            } else if info.class == cascade_sim::VarClass::Reg && !proc_written[i] {
                // Never procedurally written: a constant at its initial
                // value (zero when unspecified).
                let value = info.init.clone().unwrap_or_else(|| Bits::zero(info.width));
                let net = self.fresh_net(info.width, Some(info.name.clone()), Def::Const(value));
                self.var_nets[i] = Some(net);
            }
            // Other vars (wires, comb-block outputs) get nets on demand via
            // placeholder defs patched later.
        }
        Ok(())
    }

    fn clock_id(&mut self, var: VarId, edge: Edge) -> ClockId {
        if let Some(&id) = self.clock_ids.get(&(var, edge)) {
            return id;
        }
        let net = self.var_net(var);
        let id = ClockId(self.nl.clocks.len() as u32);
        self.nl.clocks.push((net, edge));
        self.clock_ids.insert((var, edge), id);
        id
    }

    fn fresh_net(&mut self, width: u32, name: Option<String>, def: Def) -> NetId {
        let id = NetId(self.nl.nets.len() as u32);
        self.nl.nets.push(NetInfo { width, name, def });
        id
    }

    /// The net for a variable, creating a placeholder if none exists yet.
    fn var_net(&mut self, var: VarId) -> NetId {
        if let Some(net) = self.var_nets[var.0 as usize] {
            return net;
        }
        let info = &self.design.vars[var.0 as usize];
        // Placeholder, patched when a driver is found. An unwritten net
        // legitimately stays zero (two-state dangling wire).
        let net = self.fresh_net(info.width, Some(info.name.clone()), Def::Undriven);
        self.var_nets[var.0 as usize] = Some(net);
        net
    }

    fn patch_var(&mut self, var: VarId, driver: NetId) -> Result<(), SynthError> {
        let net = self.var_net(var);
        let info = &self.design.vars[var.0 as usize];
        match &self.nl.nets[net.0 as usize].def {
            Def::Undriven => {
                // Redirect the named net to the driver: constants propagate
                // directly; anything else becomes an identity cell (keeps
                // SSA one-def-per-net).
                self.nl.nets[net.0 as usize].def = match &self.nl.nets[driver.0 as usize].def {
                    Def::Const(c) => Def::Const(c.resize(self.nl.nets[net.0 as usize].width)),
                    _ => Def::Cell(Cell {
                        op: CellOp::ZExt,
                        inputs: vec![driver],
                    }),
                };
                Ok(())
            }
            Def::Input => Err(SynthError::new(format!(
                "`{}` is an input port and cannot be driven",
                info.name
            ))),
            _ => Err(SynthError::new(format!(
                "multiple drivers for `{}`",
                info.name
            ))),
        }
    }

    fn check_drivers(&self) -> Result<(), SynthError> {
        // Registers whose d was never patched keep their value (q == d):
        // that is legal (constant state). Nothing further to check here;
        // combinational cycles are caught by levelization.
        Ok(())
    }

    // ------------------------------------------------------------------
    // Builder with hash-consing and constant folding
    // ------------------------------------------------------------------

    fn const_net(&mut self, value: Bits) -> NetId {
        if let Some(&id) = self.const_cache.get(&value) {
            return id;
        }
        let id = self.fresh_net(value.width(), None, Def::Const(value.clone()));
        self.const_cache.insert(value, id);
        id
    }

    /// Creates (or reuses) a cell producing a `width`-bit net.
    fn cell(&mut self, op: CellOp, inputs: Vec<NetId>, width: u32) -> NetId {
        let cell = Cell { op, inputs };
        // Constant folding.
        let all_const: Option<Vec<Bits>> = cell
            .inputs
            .iter()
            .map(|&i| match &self.nl.nets[i.0 as usize].def {
                Def::Const(c) => Some(c.clone()),
                _ => None,
            })
            .collect();
        if let Some(consts) = all_const {
            let value = eval_cell(op, &consts, width);
            return self.const_net(value);
        }
        // Identity simplifications.
        if let CellOp::ZExt = op {
            if self.nl.nets[cell.inputs[0].0 as usize].width == width {
                return cell.inputs[0];
            }
        }
        if let CellOp::Slice { offset: 0 } = op {
            if self.nl.nets[cell.inputs[0].0 as usize].width == width {
                return cell.inputs[0];
            }
        }
        if let CellOp::Mux = op {
            // mux(c, x, x) = x
            if cell.inputs[1] == cell.inputs[2] {
                return cell.inputs[1];
            }
            // mux(const, a, b)
            if let Def::Const(c) = &self.nl.nets[cell.inputs[0].0 as usize].def {
                return if c.to_bool() {
                    cell.inputs[1]
                } else {
                    cell.inputs[2]
                };
            }
        }
        let key = (cell.clone(), width);
        if let Some(&id) = self.cell_cache.get(&key) {
            return id;
        }
        let id = self.fresh_net(width, None, Def::Cell(cell));
        self.cell_cache.insert(key, id);
        id
    }

    /// Extends or truncates `net` to `width`.
    fn ext(&mut self, net: NetId, width: u32, signed: bool) -> NetId {
        let cur = self.nl.nets[net.0 as usize].width;
        if cur == width {
            net
        } else if cur > width {
            self.cell(CellOp::Slice { offset: 0 }, vec![net], width)
        } else if signed {
            self.cell(CellOp::SExt, vec![net], width)
        } else {
            self.cell(CellOp::ZExt, vec![net], width)
        }
    }

    /// Reduces a net to a 1-bit boolean.
    fn boolean(&mut self, net: NetId) -> NetId {
        if self.nl.nets[net.0 as usize].width == 1 {
            net
        } else {
            self.cell(CellOp::RedOr, vec![net], 1)
        }
    }

    fn const_value(&self, net: NetId) -> Option<Bits> {
        match &self.nl.nets[net.0 as usize].def {
            Def::Const(c) => Some(c.clone()),
            _ => None,
        }
    }

    /// Splices `value` (w bits) into `old` at `offset` (net).
    fn splice_dyn(&mut self, old: NetId, offset: NetId, w: u32, value: NetId) -> NetId {
        let width = self.nl.nets[old.0 as usize].width;
        if let Some(off) = self.const_value(offset) {
            return self.splice_const(old, off.to_u64() as u32, w, value);
        }
        // (old & ~(mask << off)) | (zext(value) << off)
        let mask = self.const_net(Bits::ones(w).resize(width));
        let off_w = self.ext(offset, width.max(32), false);
        let shifted_mask = self.cell(CellOp::Shl, vec![mask, off_w], width);
        let inv = self.cell(CellOp::Not, vec![shifted_mask], width);
        let cleared = self.cell(CellOp::And, vec![old, inv], width);
        let val_w = self.ext(value, width, false);
        let shifted_val = self.cell(CellOp::Shl, vec![val_w, off_w], width);
        self.cell(CellOp::Or, vec![cleared, shifted_val], width)
    }

    /// Splices at a constant offset via concatenation.
    fn splice_const(&mut self, old: NetId, offset: u32, w: u32, value: NetId) -> NetId {
        let width = self.nl.nets[old.0 as usize].width;
        if offset >= width {
            return old;
        }
        let w = w.min(width - offset);
        let value = self.ext(value, w, false);
        if offset == 0 && w == width {
            return value;
        }
        let mut parts: Vec<NetId> = Vec::new(); // MSB first
        if offset + w < width {
            let hi = self.cell(
                CellOp::Slice { offset: offset + w },
                vec![old],
                width - offset - w,
            );
            parts.push(hi);
        }
        parts.push(value);
        if offset > 0 {
            let lo = self.cell(CellOp::Slice { offset: 0 }, vec![old], offset);
            parts.push(lo);
        }
        if parts.len() == 1 {
            parts[0]
        } else {
            self.cell(CellOp::Concat, parts, width)
        }
    }

    // ------------------------------------------------------------------
    // Expression synthesis (mirrors the simulator's eval semantics)
    // ------------------------------------------------------------------

    /// Builds `e` in a `ctx`-bit context; the result has width
    /// `max(e.width, ctx)`. `env` supplies blocking-assignment values.
    fn build(
        &mut self,
        e: &RExpr,
        ctx: u32,
        env: Option<&BTreeMap<VarId, SVal>>,
    ) -> Result<NetId, SynthError> {
        let target = e.width.max(ctx);
        Ok(match &e.kind {
            RExprKind::Const(v) => {
                let ext = extend_const(v, target, e.signed);
                self.const_net(ext)
            }
            RExprKind::Var(var) => {
                let net = env
                    .and_then(|m| m.get(var).map(|sv| sv.net))
                    .unwrap_or_else(|| self.var_net(*var));
                self.ext(net, target, e.signed)
            }
            RExprKind::ArrayWord { var, index } => {
                let mem = self.var_mems[var.0 as usize].ok_or_else(|| {
                    SynthError::new(format!(
                        "`{}` is not a memory",
                        self.design.vars[var.0 as usize].name
                    ))
                })?;
                let addr = self.build(index, 0, env)?;
                let width = self.nl.mems[mem.0 as usize].width;
                let read = self.fresh_net(width, None, Def::MemRead { mem, addr });
                self.ext(read, target, e.signed)
            }
            RExprKind::Slice {
                base,
                offset,
                width,
            } => {
                let b = self.build(base, 0, env)?;
                let net = self
                    .build(offset, 0, env)
                    .map(|off| match self.const_value(off) {
                        Some(c) => {
                            let o = c.to_u64();
                            if o >= self.nl.nets[b.0 as usize].width as u64 {
                                self.const_net(Bits::zero(*width))
                            } else {
                                self.cell(CellOp::Slice { offset: o as u32 }, vec![b], *width)
                            }
                        }
                        None => self.cell(CellOp::DynSlice, vec![b, off], *width),
                    })?;
                self.ext(net, target, false)
            }
            RExprKind::Unary { op, operand } => {
                let net = match op {
                    UnaryOp::Plus => self.build(operand, target, env)?,
                    UnaryOp::Neg => {
                        let v = self.build(operand, target, env)?;
                        self.cell(CellOp::Neg, vec![v], target)
                    }
                    UnaryOp::BitNot => {
                        let v = self.build(operand, target, env)?;
                        self.cell(CellOp::Not, vec![v], target)
                    }
                    UnaryOp::LogicalNot => {
                        let v = self.build(operand, 0, env)?;
                        let b = self.boolean(v);
                        self.cell(CellOp::LogNot, vec![b], 1)
                    }
                    UnaryOp::ReduceAnd => {
                        let v = self.build(operand, 0, env)?;
                        self.cell(CellOp::RedAnd, vec![v], 1)
                    }
                    UnaryOp::ReduceOr => {
                        let v = self.build(operand, 0, env)?;
                        self.cell(CellOp::RedOr, vec![v], 1)
                    }
                    UnaryOp::ReduceXor => {
                        let v = self.build(operand, 0, env)?;
                        self.cell(CellOp::RedXor, vec![v], 1)
                    }
                    UnaryOp::ReduceNand => {
                        let v = self.build(operand, 0, env)?;
                        let r = self.cell(CellOp::RedAnd, vec![v], 1);
                        self.cell(CellOp::Not, vec![r], 1)
                    }
                    UnaryOp::ReduceNor => {
                        let v = self.build(operand, 0, env)?;
                        let r = self.cell(CellOp::RedOr, vec![v], 1);
                        self.cell(CellOp::Not, vec![r], 1)
                    }
                    UnaryOp::ReduceXnor => {
                        let v = self.build(operand, 0, env)?;
                        let r = self.cell(CellOp::RedXor, vec![v], 1);
                        self.cell(CellOp::Not, vec![r], 1)
                    }
                };
                self.ext(net, target, false)
            }
            RExprKind::Binary { op, lhs, rhs } => {
                let net = self.build_binary(*op, lhs, rhs, target, env)?;
                self.ext(net, target, false)
            }
            RExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let c = self.build(cond, 0, env)?;
                let cb = self.boolean(c);
                let t = self.build(then_expr, target, env)?;
                let t = self.ext(t, target, then_expr.signed);
                let f = self.build(else_expr, target, env)?;
                let f = self.ext(f, target, else_expr.signed);
                self.cell(CellOp::Mux, vec![cb, t, f], target)
            }
            RExprKind::Concat(parts) => {
                let mut nets = Vec::with_capacity(parts.len());
                for p in parts {
                    nets.push(self.build(p, 0, env)?);
                }
                let width: u32 = nets.iter().map(|&n| self.nl.nets[n.0 as usize].width).sum();
                let net = self.cell(CellOp::Concat, nets, width);
                self.ext(net, target, false)
            }
            RExprKind::Repeat { count, inner } => {
                let v = self.build(inner, 0, env)?;
                let w = self.nl.nets[v.0 as usize].width * count;
                let net = self.cell(CellOp::Repeat { count: *count }, vec![v], w);
                self.ext(net, target, false)
            }
            RExprKind::Time | RExprKind::Random => {
                return Err(SynthError::new(
                    "$time/$random are unsynthesizable (keep them in software engines)",
                ));
            }
        })
    }

    fn build_binary(
        &mut self,
        op: BinaryOp,
        lhs: &RExpr,
        rhs: &RExpr,
        target: u32,
        env: Option<&BTreeMap<VarId, SVal>>,
    ) -> Result<NetId, SynthError> {
        use BinaryOp::*;
        Ok(match op {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Xnor => {
                let l = self.build(lhs, target, env)?;
                let l = self.ext(l, target, lhs.signed);
                let r = self.build(rhs, target, env)?;
                let r = self.ext(r, target, rhs.signed);
                let signed = lhs.signed && rhs.signed;
                let cop = match op {
                    Add => CellOp::Add,
                    Sub => CellOp::Sub,
                    Mul => CellOp::Mul,
                    Div => {
                        if signed {
                            CellOp::DivS
                        } else {
                            CellOp::DivU
                        }
                    }
                    Rem => {
                        if signed {
                            CellOp::RemS
                        } else {
                            CellOp::RemU
                        }
                    }
                    And => CellOp::And,
                    Or => CellOp::Or,
                    Xor => CellOp::Xor,
                    Xnor => CellOp::Xnor,
                    _ => unreachable!(),
                };
                self.cell(cop, vec![l, r], target)
            }
            Pow => {
                let exp = self.build(rhs, 0, env)?;
                let Some(e) = self.const_value(exp) else {
                    return Err(SynthError::new("`**` requires a constant exponent"));
                };
                let base = self.build(lhs, target, env)?;
                let base = self.ext(base, target, lhs.signed);
                let mut acc = self.const_net(Bits::from_u64(target, 1));
                for _ in 0..e.to_u64().min(4096) {
                    acc = self.cell(CellOp::Mul, vec![acc, base], target);
                }
                acc
            }
            Shl | AShl => {
                let l = self.build(lhs, target, env)?;
                let l = self.ext(l, target, lhs.signed);
                let r = self.build(rhs, 0, env)?;
                self.cell(CellOp::Shl, vec![l, r], target)
            }
            Shr => {
                let l = self.build(lhs, target, env)?;
                let l = self.ext(l, target, lhs.signed);
                let r = self.build(rhs, 0, env)?;
                self.cell(CellOp::Shr, vec![l, r], target)
            }
            AShr => {
                let l = self.build(lhs, target, env)?;
                let l = self.ext(l, target, lhs.signed);
                let r = self.build(rhs, 0, env)?;
                if lhs.signed {
                    self.cell(CellOp::AShr, vec![l, r], target)
                } else {
                    self.cell(CellOp::Shr, vec![l, r], target)
                }
            }
            LogicalAnd | LogicalOr => {
                let l = self.build(lhs, 0, env)?;
                let lb = self.boolean(l);
                let r = self.build(rhs, 0, env)?;
                let rb = self.boolean(r);
                let cop = if op == LogicalAnd {
                    CellOp::And
                } else {
                    CellOp::Or
                };
                self.cell(cop, vec![lb, rb], 1)
            }
            Eq | Ne | CaseEq | CaseNe | Lt | Le | Gt | Ge => {
                let w = lhs.width.max(rhs.width);
                let signed = lhs.signed && rhs.signed;
                let l0 = self.build(lhs, 0, env)?;
                let l = self.ext(l0, w, signed && lhs.signed);
                let r0 = self.build(rhs, 0, env)?;
                let r = self.ext(r0, w, signed && rhs.signed);
                match op {
                    Eq | CaseEq => self.cell(CellOp::Eq, vec![l, r], 1),
                    Ne | CaseNe => self.cell(CellOp::Ne, vec![l, r], 1),
                    Lt => self.cell(
                        if signed { CellOp::LtS } else { CellOp::LtU },
                        vec![l, r],
                        1,
                    ),
                    Le => self.cell(
                        if signed { CellOp::LeS } else { CellOp::LeU },
                        vec![l, r],
                        1,
                    ),
                    Gt => self.cell(
                        if signed { CellOp::LtS } else { CellOp::LtU },
                        vec![r, l],
                        1,
                    ),
                    Ge => self.cell(
                        if signed { CellOp::LeS } else { CellOp::LeU },
                        vec![r, l],
                        1,
                    ),
                    _ => unreachable!(),
                }
            }
        })
    }

    // ------------------------------------------------------------------
    // Continuous assignments
    // ------------------------------------------------------------------

    fn cont_assign(
        &mut self,
        lhs: &RLValue,
        value: NetId,
        partials: &mut PartialDrivers,
    ) -> Result<(), SynthError> {
        match lhs {
            RLValue::Var(var) => {
                let width = self.design.vars[var.0 as usize].width;
                let v = self.ext(value, width, false);
                self.patch_var(*var, v)
            }
            RLValue::Range { var, offset, width } => {
                let off = self.build(offset, 0, None)?;
                let v = self.ext(value, *width, false);
                partials
                    .entry(*var)
                    .or_default()
                    .push((Some(off), *width, v));
                Ok(())
            }
            RLValue::Concat(parts) => {
                let total: u32 = parts.iter().map(|p| p.width(&self.design.vars)).sum();
                let value = self.ext(value, total, false);
                let mut hi = total;
                for p in parts {
                    let w = p.width(&self.design.vars);
                    let piece = self.cell(CellOp::Slice { offset: hi - w }, vec![value], w);
                    self.cont_assign(p, piece, partials)?;
                    hi -= w;
                }
                Ok(())
            }
            RLValue::ArrayWord { .. } | RLValue::ArrayWordRange { .. } => Err(SynthError::new(
                "memories can only be written in clocked always blocks",
            )),
        }
    }

    // ------------------------------------------------------------------
    // Procedural blocks
    // ------------------------------------------------------------------

    fn always_block(
        &mut self,
        sens: &[cascade_sim::Sens],
        body: &RStmt,
        comb_drivers: &mut PartialDrivers,
    ) -> Result<(), SynthError> {
        let edges: Vec<_> = sens.iter().filter(|s| s.edge.is_some()).collect();
        let comb = edges.is_empty();
        let mut written = Vec::new();
        collect_writes(body, &mut written);
        let mut ctx = BlockCtx {
            env: BTreeMap::new(),
            next: BTreeMap::new(),
            mem_writes: Vec::new(),
            tasks: Vec::new(),
            comb,
            written: written.clone(),
        };
        let true_net = self.const_net(Bits::from_u64(1, 1));
        self.exec(body, true_net, &mut ctx, 0)?;

        if comb {
            if !ctx.tasks.is_empty() {
                return Err(SynthError::new(
                    "system tasks are only synthesizable in clocked always blocks",
                ));
            }
            if !ctx.mem_writes.is_empty() {
                return Err(SynthError::new(
                    "memories can only be written in clocked always blocks",
                ));
            }
            if !ctx.next.is_empty() {
                return Err(SynthError::new(
                    "nonblocking assignments in combinational blocks are unsupported",
                ));
            }
            for var in &written {
                let sval = ctx.env.get(var).copied();
                let Some(sval) = sval.filter(|sv| sv.defined) else {
                    return Err(SynthError::new(format!(
                        "`{}` is not assigned on every path (inferred latch)",
                        self.design.vars[var.0 as usize].name
                    )));
                };
                comb_drivers
                    .entry(*var)
                    .or_default()
                    .push((None, 0, sval.net));
            }
            return Ok(());
        }

        // Clocked block.
        let clock = self.clock_id(edges[0].var, edges[0].edge.expect("edge"));
        // Nonblocking and blocking targets both become register next-states.
        let mut d_values: BTreeMap<VarId, NetId> =
            ctx.next.iter().map(|(k, v)| (*k, v.net)).collect();
        for (var, sval) in &ctx.env {
            if d_values.contains_key(var) {
                return Err(SynthError::new(format!(
                    "`{}` has both blocking and nonblocking writes in one block",
                    self.design.vars[var.0 as usize].name
                )));
            }
            d_values.insert(*var, sval.net);
        }
        for (var, d) in d_values {
            let q = self.var_net(var);
            let Def::Reg(reg) = self.nl.nets[q.0 as usize].def.clone() else {
                return Err(SynthError::new(format!(
                    "`{}` is written both procedurally and continuously",
                    self.design.vars[var.0 as usize].name
                )));
            };
            if self.nl.regs[reg.0 as usize].d != q {
                return Err(SynthError::new(format!(
                    "`{}` is written from multiple always blocks",
                    self.design.vars[var.0 as usize].name
                )));
            }
            let width = self.design.vars[var.0 as usize].width;
            let d = self.ext(d, width, false);
            self.nl.regs[reg.0 as usize].d = d;
        }
        for (mem, enable, addr, data) in ctx.mem_writes {
            self.nl.mems[mem.0 as usize].write_ports.push(WritePort {
                clock,
                enable,
                addr,
                data,
            });
        }
        for (kind, trigger, format, args, arg_signed) in ctx.tasks {
            self.nl.tasks.push(TaskCell {
                kind,
                clock,
                trigger,
                format,
                args,
                arg_signed,
            });
        }
        Ok(())
    }

    fn exec(
        &mut self,
        s: &RStmt,
        cond: NetId,
        ctx: &mut BlockCtx,
        depth: u32,
    ) -> Result<(), SynthError> {
        if depth > 512 {
            return Err(SynthError::new("statement nesting exceeds 512"));
        }
        match s {
            RStmt::Block(stmts) => {
                for st in stmts {
                    self.exec(st, cond, ctx, depth + 1)?;
                }
            }
            RStmt::Blocking { lhs, rhs } => {
                let width = lhs.width(&self.design.vars);
                let value = self.build_in(rhs, width, ctx)?;
                self.proc_assign(lhs, value, cond, ctx, false)?;
            }
            RStmt::NonBlocking { lhs, rhs } => {
                let width = lhs.width(&self.design.vars);
                let value = self.build_in(rhs, width, ctx)?;
                self.proc_assign(lhs, value, cond, ctx, true)?;
            }
            RStmt::If {
                cond: c,
                then_branch,
                else_branch,
            } => {
                let cnet = self.build_in(c, 0, ctx)?;
                let cb = self.boolean(cnet);
                // Static branch: fold away the untaken side entirely.
                if let Some(cv) = self.const_value(cb) {
                    if cv.to_bool() {
                        self.exec(then_branch, cond, ctx, depth + 1)?;
                    } else if let Some(e) = else_branch {
                        self.exec(e, cond, ctx, depth + 1)?;
                    }
                    return Ok(());
                }
                let not_cb = self.cell(CellOp::LogNot, vec![cb], 1);
                let then_cond = self.cell(CellOp::And, vec![cond, cb], 1);
                let else_cond = self.cell(CellOp::And, vec![cond, not_cb], 1);
                // Branch-local environments, merged with muxes at the join.
                let saved_env = ctx.env.clone();
                let saved_next = ctx.next.clone();
                self.exec(then_branch, then_cond, ctx, depth + 1)?;
                let then_env = std::mem::replace(&mut ctx.env, saved_env);
                let then_next = std::mem::replace(&mut ctx.next, saved_next);
                if let Some(e) = else_branch {
                    self.exec(e, else_cond, ctx, depth + 1)?;
                }
                self.merge_branches(cb, then_env, then_next, ctx);
            }
            RStmt::Case {
                kind,
                scrutinee,
                arms,
                default,
            } => {
                let mut w = scrutinee.width;
                for arm in arms {
                    for l in &arm.labels {
                        w = w.max(l.value.width);
                    }
                }
                let scr = self.build_in(scrutinee, w, ctx)?;
                let scr = self.ext(scr, w, scrutinee.signed);
                self.exec_case(
                    *kind,
                    scr,
                    w,
                    arms,
                    0,
                    default.as_deref(),
                    cond,
                    ctx,
                    depth + 1,
                )?;
            }
            RStmt::For {
                init,
                cond: c,
                step,
                body,
            } => {
                self.exec(init, cond, ctx, depth + 1)?;
                let mut iters = 0u32;
                loop {
                    let cnet = self.build_in(c, 0, ctx)?;
                    let Some(cv) = self.const_value(cnet) else {
                        return Err(SynthError::new(
                            "loop condition does not unroll to a constant",
                        ));
                    };
                    if !cv.to_bool() {
                        break;
                    }
                    self.exec(body, cond, ctx, depth + 1)?;
                    self.exec(step, cond, ctx, depth + 1)?;
                    iters += 1;
                    if iters > UNROLL_LIMIT {
                        return Err(SynthError::new(
                            "loop unrolling exceeded 100,000 iterations",
                        ));
                    }
                }
            }
            RStmt::While { cond: c, body } => {
                let mut iters = 0u32;
                loop {
                    let cnet = self.build_in(c, 0, ctx)?;
                    let Some(cv) = self.const_value(cnet) else {
                        return Err(SynthError::new(
                            "loop condition does not unroll to a constant",
                        ));
                    };
                    if !cv.to_bool() {
                        break;
                    }
                    self.exec(body, cond, ctx, depth + 1)?;
                    iters += 1;
                    if iters > UNROLL_LIMIT {
                        return Err(SynthError::new(
                            "loop unrolling exceeded 100,000 iterations",
                        ));
                    }
                }
            }
            RStmt::Repeat { count, body } => {
                let cnet = self.build_in(count, 0, ctx)?;
                let Some(cv) = self.const_value(cnet) else {
                    return Err(SynthError::new(
                        "repeat count must be constant for synthesis",
                    ));
                };
                let n = cv.to_u64().min(UNROLL_LIMIT as u64);
                for _ in 0..n {
                    self.exec(body, cond, ctx, depth + 1)?;
                }
            }
            RStmt::SystemTask { task, args } => {
                let kind = match task {
                    SystemTask::Display => TaskKind::Display,
                    SystemTask::Write => TaskKind::Write,
                    SystemTask::Finish => TaskKind::Finish,
                    SystemTask::Fatal => TaskKind::Fatal,
                    SystemTask::Monitor => {
                        return Err(SynthError::new("$monitor is unsynthesizable"));
                    }
                };
                let mut format = None;
                let mut nets = Vec::new();
                let mut signs = Vec::new();
                for (i, a) in args.iter().enumerate() {
                    match a {
                        RTaskArg::Str(s) if i == 0 => format = Some(s.clone()),
                        RTaskArg::Str(_) => {
                            return Err(SynthError::new(
                                "string arguments after the format are unsupported in hardware",
                            ));
                        }
                        RTaskArg::Expr(e) => {
                            nets.push(self.build_in(e, 0, ctx)?);
                            signs.push(e.signed);
                        }
                    }
                }
                ctx.tasks.push((kind, cond, format, nets, signs));
            }
            RStmt::Null => {}
        }
        Ok(())
    }

    fn case_label_match(
        &mut self,
        kind: CaseKind,
        scr: NetId,
        label: &RCaseLabel,
        w: u32,
        ctx: &mut BlockCtx,
    ) -> Result<NetId, SynthError> {
        let lv = self.build_in(&label.value, w, ctx)?;
        let lv = self.ext(lv, w, false);
        Ok(match (&label.care, kind) {
            (Some(care), CaseKind::Casez | CaseKind::Casex) => {
                let care_net = self.const_net(care.resize(w));
                let ms = self.cell(CellOp::And, vec![scr, care_net], w);
                let ml = self.cell(CellOp::And, vec![lv, care_net], w);
                self.cell(CellOp::Eq, vec![ms, ml], 1)
            }
            (Some(_), CaseKind::Case) => self.const_net(Bits::from_u64(1, 0)),
            (None, _) => self.cell(CellOp::Eq, vec![scr, lv], 1),
        })
    }

    /// Builds an expression inside a procedural block, honouring blocking
    /// assignments and latch detection.
    fn build_in(&mut self, e: &RExpr, ctx_width: u32, ctx: &BlockCtx) -> Result<NetId, SynthError> {
        if ctx.comb {
            // Latch check: reading a var this block writes, before it is
            // assigned, would require remembering the previous value.
            let mut reads = Vec::new();
            cascade_sim::collect_reads(e, &mut reads);
            for r in &reads {
                let defined = ctx.env.get(r).is_some_and(|sv| sv.defined);
                if ctx.written.contains(r) && !defined {
                    return Err(SynthError::new(format!(
                        "`{}` is read before assignment in a combinational block (inferred latch)",
                        self.design.vars[r.0 as usize].name
                    )));
                }
            }
        }
        self.build(e, ctx_width, Some(&ctx.env))
    }

    fn proc_assign(
        &mut self,
        lhs: &RLValue,
        value: NetId,
        cond: NetId,
        ctx: &mut BlockCtx,
        nonblocking: bool,
    ) -> Result<(), SynthError> {
        match lhs {
            RLValue::Var(var) => {
                let width = self.design.vars[var.0 as usize].width;
                let v = self.ext(value, width, false);
                self.write_slot(*var, None, v, ctx, nonblocking)
            }
            RLValue::Range { var, offset, width } => {
                let off = self.build_in(offset, 0, ctx)?;
                let v = self.ext(value, *width, false);
                self.write_slot(*var, Some((off, *width)), v, ctx, nonblocking)
            }
            RLValue::ArrayWord { var, index } => {
                if !nonblocking {
                    return Err(SynthError::new(
                        "blocking writes to memories are unsupported in synthesis",
                    ));
                }
                let mem = self.var_mems[var.0 as usize].ok_or_else(|| {
                    SynthError::new(format!(
                        "`{}` is not a memory",
                        self.design.vars[var.0 as usize].name
                    ))
                })?;
                let addr = self.build_in(index, 0, ctx)?;
                let width = self.nl.mems[mem.0 as usize].width;
                let data = self.ext(value, width, false);
                ctx.mem_writes.push((mem, cond, addr, data));
                Ok(())
            }
            RLValue::ArrayWordRange { .. } => Err(SynthError::new(
                "partial-word memory writes are unsupported in synthesis",
            )),
            RLValue::Concat(parts) => {
                let total: u32 = parts.iter().map(|p| p.width(&self.design.vars)).sum();
                let value = self.ext(value, total, false);
                let mut hi = total;
                for p in parts.clone() {
                    let w = p.width(&self.design.vars);
                    let piece = self.cell(CellOp::Slice { offset: hi - w }, vec![value], w);
                    self.proc_assign(&p, piece, cond, ctx, nonblocking)?;
                    hi -= w;
                }
                Ok(())
            }
        }
    }

    fn write_slot(
        &mut self,
        var: VarId,
        range: Option<(NetId, u32)>,
        value: NetId,
        ctx: &mut BlockCtx,
        nonblocking: bool,
    ) -> Result<(), SynthError> {
        let table = if nonblocking { &ctx.next } else { &ctx.env };
        let old = table.get(&var).copied().unwrap_or_else(|| SVal {
            net: self.var_nets[var.0 as usize].unwrap_or(NetId(0)),
            // Nonblocking and clocked-blocking fall back to the register's
            // current value; a combinational block has no storage to fall
            // back on.
            defined: nonblocking || !ctx.comb,
        });
        let old = if self.var_nets[var.0 as usize].is_none() {
            // Materialize the placeholder net lazily.
            SVal {
                net: self.var_net(var),
                ..old
            }
        } else {
            old
        };
        let sval = match range {
            None => SVal {
                net: value,
                defined: true,
            },
            Some((off, w)) => {
                if ctx.comb && !old.defined {
                    return Err(SynthError::new(format!(
                        "partial first write to `{}` in a combinational block (inferred latch)",
                        self.design.vars[var.0 as usize].name
                    )));
                }
                SVal {
                    net: self.splice_dyn(old.net, off, w, value),
                    defined: old.defined,
                }
            }
        };
        let table = if nonblocking {
            &mut ctx.next
        } else {
            &mut ctx.env
        };
        table.insert(var, sval);
        Ok(())
    }

    /// Merges two branch-local environments at an if/case join: values that
    /// differ become muxes on the branch condition; a variable missing on
    /// one side falls back to its pre-branch storage (register value for
    /// clocked/nonblocking contexts, undefined for combinational ones).
    fn merge_branches(
        &mut self,
        sel: NetId,
        then_env: BTreeMap<VarId, SVal>,
        then_next: BTreeMap<VarId, SVal>,
        ctx: &mut BlockCtx,
    ) {
        let else_env = std::mem::take(&mut ctx.env);
        ctx.env = self.merge_maps(sel, then_env, else_env, ctx.comb);
        let else_next = std::mem::take(&mut ctx.next);
        ctx.next = self.merge_maps(sel, then_next, else_next, false);
    }

    fn merge_maps(
        &mut self,
        sel: NetId,
        then_map: BTreeMap<VarId, SVal>,
        else_map: BTreeMap<VarId, SVal>,
        comb: bool,
    ) -> BTreeMap<VarId, SVal> {
        let mut keys: Vec<VarId> = then_map.keys().chain(else_map.keys()).copied().collect();
        keys.sort();
        keys.dedup();
        let mut out = BTreeMap::new();
        for var in keys {
            let fallback = SVal {
                net: self.var_net(var),
                defined: !comb,
            };
            let t = then_map.get(&var).copied().unwrap_or(fallback);
            let e = else_map.get(&var).copied().unwrap_or(fallback);
            let merged = if t.net == e.net {
                SVal {
                    net: t.net,
                    defined: t.defined && e.defined,
                }
            } else {
                let width = self.design.vars[var.0 as usize].width;
                SVal {
                    net: self.cell(CellOp::Mux, vec![sel, t.net, e.net], width),
                    defined: t.defined && e.defined,
                }
            };
            out.insert(var, merged);
        }
        out
    }

    /// Synthesizes a case statement as a recursive if-else chain with
    /// branch-local environments.
    #[allow(clippy::too_many_arguments)]
    fn exec_case(
        &mut self,
        kind: CaseKind,
        scr: NetId,
        w: u32,
        arms: &[cascade_sim::RCaseArm],
        idx: usize,
        default: Option<&RStmt>,
        cond: NetId,
        ctx: &mut BlockCtx,
        depth: u32,
    ) -> Result<(), SynthError> {
        let Some(arm) = arms.get(idx) else {
            if let Some(d) = default {
                self.exec(d, cond, ctx, depth)?;
            }
            return Ok(());
        };
        let mut hit: Option<NetId> = None;
        for label in &arm.labels {
            let eq = self.case_label_match(kind, scr, label, w, ctx)?;
            hit = Some(match hit {
                None => eq,
                Some(h) => self.cell(CellOp::Or, vec![h, eq], 1),
            });
        }
        let hit = hit.unwrap_or_else(|| self.const_net(Bits::from_u64(1, 0)));
        if let Some(hv) = self.const_value(hit) {
            if hv.to_bool() {
                self.exec(&arm.body, cond, ctx, depth)?;
            } else {
                self.exec_case(kind, scr, w, arms, idx + 1, default, cond, ctx, depth)?;
            }
            return Ok(());
        }
        let not_hit = self.cell(CellOp::LogNot, vec![hit], 1);
        let arm_cond = self.cell(CellOp::And, vec![cond, hit], 1);
        let rest_cond = self.cell(CellOp::And, vec![cond, not_hit], 1);
        let saved_env = ctx.env.clone();
        let saved_next = ctx.next.clone();
        self.exec(&arm.body, arm_cond, ctx, depth)?;
        let then_env = std::mem::replace(&mut ctx.env, saved_env);
        let then_next = std::mem::replace(&mut ctx.next, saved_next);
        self.exec_case(kind, scr, w, arms, idx + 1, default, rest_cond, ctx, depth)?;
        self.merge_branches(hit, then_env, then_next, ctx);
        Ok(())
    }
}

fn extend_const(v: &Bits, target: u32, signed: bool) -> Bits {
    if target == v.width() {
        v.clone()
    } else if signed {
        v.resize_signed(target)
    } else {
        v.resize(target)
    }
}

fn is_empty_block(s: &RStmt) -> bool {
    match s {
        RStmt::Null => true,
        RStmt::Block(stmts) => stmts.iter().all(is_empty_block),
        _ => false,
    }
}

/// Collects the variables written by a statement tree.
pub fn collect_writes(s: &RStmt, out: &mut Vec<VarId>) {
    fn lv(l: &RLValue, out: &mut Vec<VarId>) {
        match l {
            RLValue::Var(v) | RLValue::Range { var: v, .. } => out.push(*v),
            // Memory writes are tracked separately.
            RLValue::ArrayWord { .. } | RLValue::ArrayWordRange { .. } => {}
            RLValue::Concat(parts) => {
                for p in parts {
                    lv(p, out);
                }
            }
        }
    }
    match s {
        RStmt::Block(stmts) => {
            for st in stmts {
                collect_writes(st, out);
            }
        }
        RStmt::Blocking { lhs, .. } | RStmt::NonBlocking { lhs, .. } => lv(lhs, out),
        RStmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect_writes(then_branch, out);
            if let Some(e) = else_branch {
                collect_writes(e, out);
            }
        }
        RStmt::Case { arms, default, .. } => {
            for arm in arms {
                collect_writes(&arm.body, out);
            }
            if let Some(d) = default {
                collect_writes(d, out);
            }
        }
        RStmt::For {
            init, step, body, ..
        } => {
            collect_writes(init, out);
            collect_writes(step, out);
            collect_writes(body, out);
        }
        RStmt::While { body, .. } | RStmt::Repeat { body, .. } => collect_writes(body, out),
        RStmt::SystemTask { .. } | RStmt::Null => {}
    }
    out.sort();
    out.dedup();
}
