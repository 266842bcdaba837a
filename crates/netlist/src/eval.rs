//! The netlist evaluator: a compiled word-arena simulator.
//!
//! Where `cascade-sim` walks an AST event queue, this evaluator lowers the
//! levelized netlist into a flat instruction program over a `Vec<u64>` word
//! arena at construction time and executes it with activity-driven
//! scheduling: only the fan-out cone of nets that actually changed is
//! re-evaluated. [`NetlistSim`] is a thin facade over the one-lane
//! instance of [`crate::exec`]'s `State`, the same kernels, scheduler,
//! commit and run loop the batch harness runs at N lanes. The previous
//! interpretive loop survives as [`crate::ReferenceSim`] for benchmarking
//! and differential testing; it shares only [`render_task`] with the
//! compiled engine.

use crate::exec::{kernel_name, NlProfileState, One, Program, ProgramStats, State};
use crate::ir::*;
use crate::level::LevelError;
use cascade_bits::Bits;
use cascade_verilog::ast::Edge;
use std::cmp::Ordering;
use std::sync::Arc;

/// A system-task firing observed at a clock edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFire {
    pub kind: TaskKind,
    /// Rendered text for display/write/fatal (empty for finish).
    pub text: String,
}

/// Activity profile of the arena evaluator: where settle work actually
/// went, attributed to combinational levels, kernel kinds, and (named)
/// output nets. Produced by [`NetlistSim::profile_report`].
#[derive(Debug, Clone, Default)]
pub struct NlProfileReport {
    /// `(level, instruction executions)` for levels that saw work.
    pub levels: Vec<(u32, u64)>,
    /// Executions per kernel kind, hottest first.
    pub kernels: Vec<(&'static str, u64)>,
    /// Executions per output net, hottest first (top 16). Unnamed
    /// temporaries appear as `$n<id>`.
    pub hot_nets: Vec<(String, u64)>,
    /// `(kernel, occupancy)`: the share of evaluated lanes whose output
    /// actually changed, per kernel kind. Low occupancy on a wide batch
    /// means lanes have diverged; on a dense schedule it means work the
    /// sparse one would have skipped.
    pub kernel_occupancy: Vec<(&'static str, f64)>,
}

/// Executes a synthesized [`Netlist`] cycle by cycle.
///
/// Construction compiles the netlist into a word-arena program; after that,
/// settling touches only dirty logic and a quiescent netlist costs nothing
/// to re-settle. Clones share the compiled program and fork the mutable
/// state.
///
/// # Examples
///
/// ```
/// use cascade_netlist::{synthesize, NetlistSim};
/// use cascade_sim::{elaborate, library_from_source};
/// use cascade_bits::Bits;
///
/// let lib = library_from_source(
///     "module Count(input wire clk, output wire [7:0] o);\n\
///      reg [7:0] c = 0;\n\
///      always @(posedge clk) c <= c + 1;\n\
///      assign o = c;\nendmodule",
/// )?;
/// let design = elaborate("Count", &lib, &Default::default())?;
/// let netlist = synthesize(&design)?;
/// let mut sim = NetlistSim::new(netlist.into())?;
/// for _ in 0..3 { sim.step_clock(0); }
/// assert_eq!(sim.get_by_name("o").unwrap().to_u64(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct NetlistSim {
    nl: Arc<Netlist>,
    prog: Arc<Program>,
    st: State<One>,
}

impl NetlistSim {
    /// Builds the evaluator: levelizes the netlist and compiles it into the
    /// word-arena program.
    ///
    /// # Errors
    ///
    /// Returns [`LevelError`] when the netlist has a combinational cycle.
    pub fn new(nl: Arc<Netlist>) -> Result<Self, LevelError> {
        let prog = Arc::new(Program::compile(&nl)?);
        let st = State::new(&nl, &prog, One);
        Ok(NetlistSim { nl, prog, st })
    }

    /// The netlist being executed.
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.nl
    }

    /// Size counters of the compiled program (diagnostics, benches).
    pub fn program_stats(&self) -> ProgramStats {
        self.prog.stats()
    }

    /// Instruction counts by kernel kind (diagnostic).
    pub fn kernel_histogram(&self) -> Vec<(&'static str, usize)> {
        self.prog.kernel_histogram()
    }

    /// Switches on activity profiling: per-level and per-instruction
    /// execution counters feeding [`profile_report`](Self::profile_report).
    /// Costs one counter bump per executed instruction while enabled and a
    /// single predictable branch per instruction when it never was (the
    /// default).
    pub fn enable_profiling(&mut self) {
        self.st.enable_profiling(&self.prog);
    }

    /// Aggregated activity counters, or `None` when profiling was never
    /// enabled. Kernel and net attribution use source-level names where
    /// the netlist kept them.
    pub fn profile_report(&self) -> Option<NlProfileReport> {
        let p = self.st.profile()?;
        Some(build_profile_report(&self.nl, &self.prog, p))
    }

    /// Whether a `$finish` task has fired.
    pub fn is_finished(&self) -> bool {
        self.st.all_finished
    }

    /// Total clock edges executed.
    pub fn cycles(&self) -> u64 {
        self.st.cycles
    }

    /// Drains task firings observed so far.
    pub fn drain_tasks(&mut self) -> Vec<TaskFire> {
        std::mem::take(&mut self.st.tasks)
    }

    /// Whether any task firings are pending.
    pub fn has_tasks(&self) -> bool {
        !self.st.tasks.is_empty()
    }

    /// Sets an input net and repropagates combinational logic. Only the
    /// fan-out cone of the input is re-evaluated, and only when the value
    /// actually changed.
    pub fn set_input(&mut self, net: NetId, value: Bits) {
        let slot = self.prog.slots[net.0 as usize];
        if self.st.write_all(slot, &value.resize(slot.width)) {
            self.st.mark(&self.prog, net.0);
            self.st.settle_auto(&self.prog);
        }
    }

    /// Sets an input by port name.
    ///
    /// # Panics
    ///
    /// Panics if no input net has this name.
    pub fn set_by_name(&mut self, name: &str, value: Bits) {
        let net = self
            .nl
            .net_by_name(name)
            .unwrap_or_else(|| panic!("unknown net `{name}`"));
        self.set_input(net, value);
    }

    /// Reads any net's current value.
    pub fn get(&self, net: NetId) -> Bits {
        self.st.read_lane(self.prog.slots[net.0 as usize], 0)
    }

    /// Reads the low 64 bits of a net without materializing a [`Bits`]
    /// (zero-copy fast path for MMIO polling).
    pub fn get_u64(&self, net: NetId) -> u64 {
        self.st.word(self.prog.slots[net.0 as usize].off, 0)
    }

    /// Reads a net by name.
    pub fn get_by_name(&self, name: &str) -> Option<Bits> {
        self.nl.net_by_name(name).map(|n| self.get(n))
    }

    /// Reads one word of a memory.
    pub fn read_mem(&self, mem: MemId, addr: u64) -> Bits {
        self.st.read_mem(&self.prog, mem.0, addr, 0)
    }

    /// Writes one word of a memory directly (state restoration).
    pub fn write_mem(&mut self, mem: MemId, addr: u64, value: Bits) {
        self.st.write_mem(&self.prog, mem.0, addr, &value, 0, true);
        self.st.settle_auto(&self.prog);
    }

    /// Overwrites a register's current value (state restoration), without
    /// repropagating; call [`NetlistSim::settle`] when done.
    pub fn write_reg(&mut self, reg: RegId, value: Bits) {
        let q = self.nl.regs[reg.0 as usize].q;
        let slot = self.prog.slots[q.0 as usize];
        if self.st.write_all(slot, &value.resize(slot.width)) {
            self.st.mark(&self.prog, q.0);
        }
    }

    /// Reads a register's current value.
    pub fn read_reg(&self, reg: RegId) -> Bits {
        self.get(self.nl.regs[reg.0 as usize].q)
    }

    /// Whether any register of the domain would change value at the next
    /// clock edge (word-level compare of each `d` against its `q`), or any
    /// memory write port is enabled. The MMIO `ThereAreUpdates` register.
    pub fn updates_pending(&self, clock_index: u32) -> bool {
        let Some(plan) = self.prog.domains.get(clock_index as usize) else {
            return false;
        };
        for rc in plan.small.iter().chain(&plan.regs) {
            let topmask = crate::exec::top_word_mask(rc.q.width);
            for k in 0..rc.q.words {
                let mut d = if k < rc.d.words {
                    self.st.word(rc.d.off + k, 0)
                } else {
                    0
                };
                if k == rc.q.words - 1 {
                    d &= topmask;
                }
                if d != self.st.word(rc.q.off + k, 0) {
                    return true;
                }
            }
        }
        plan.ports.iter().any(|pc| self.st.bool_lane(pc.enable, 0))
    }

    /// Drains any pending dirty logic to a fixed point. A no-op when the
    /// netlist is quiescent.
    pub fn settle(&mut self) {
        self.st.settle_auto(&self.prog);
    }

    /// Executes one edge of the given clock domain: samples task triggers
    /// and register/memory inputs, commits them, and repropagates. One call
    /// corresponds to one hardware clock cycle.
    pub fn step_clock(&mut self, clock_index: u32) {
        self.st.step_clock(&self.nl, &self.prog, clock_index);
        // Settled on return: `get`, `get_u64` and `updates_pending` read
        // the arena without settling, and the runtime reads nets between
        // edges (`ForwardTable::exchange`).
        self.st.settle_auto(&self.prog);
    }

    /// Runs `n` cycles of clock domain 0, stopping early on `$finish`.
    /// Returns the number of cycles actually executed.
    pub fn run(&mut self, n: u64) -> u64 {
        self.run_cycles(n, usize::MAX)
    }

    /// Batched open-loop execution: runs up to `n` edges of clock domain 0,
    /// stopping early when `$finish` fires or when `budget` task firings
    /// are buffered (so a host can drain `$display` output promptly).
    /// Returns the number of cycles actually executed.
    ///
    /// This is the entry point the MMIO `OpenLoop` register maps to: the
    /// whole batch executes inside the evaluator with no per-cycle host
    /// round trip.
    pub fn run_cycles(&mut self, n: u64, budget: usize) -> u64 {
        self.st.run_cycles(&self.nl, &self.prog, n, budget)
    }
}

/// Renders a task firing's text from its pre-edge argument values: empty
/// for `$finish`, the format string when there is one, else the arguments
/// in decimal (signed where declared), space-separated. Shared by every
/// netlist evaluator.
pub(crate) fn render_task(task: &TaskCell, args: &[Bits]) -> String {
    match (&task.format, task.kind) {
        (_, TaskKind::Finish) => String::new(),
        (Some(f), _) => cascade_sim::format_verilog(f, args),
        (None, _) => args
            .iter()
            .zip(task.arg_signed.iter().chain(std::iter::repeat(&false)))
            .map(|(v, &s)| {
                if s {
                    v.to_signed_decimal_string()
                } else {
                    v.to_decimal_string()
                }
            })
            .collect::<Vec<_>>()
            .join(" "),
    }
}

/// Builds the user-facing activity report from raw counters, at any lane
/// count.
pub(crate) fn build_profile_report(
    nl: &Netlist,
    prog: &Program,
    p: &NlProfileState,
) -> NlProfileReport {
    let levels: Vec<(u32, u64)> = p
        .level_execs
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(lvl, &n)| (lvl as u32, n))
        .collect();
    let mut by_kernel: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    let mut by_net: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    // Occupancy numerator/denominator per kernel: changed lanes over
    // evaluated lanes.
    let mut occ: std::collections::BTreeMap<&'static str, (u64, u64)> =
        std::collections::BTreeMap::new();
    let lanes = p.lanes.max(1) as u64;
    for (i, &n) in p.instr_execs.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let ins = &prog.instrs[i];
        let kname = kernel_name(&ins.kernel);
        *by_kernel.entry(kname).or_default() += n;
        let e = occ.entry(kname).or_default();
        e.0 += p.instr_changes[i];
        e.1 += n * lanes;
        let name = match &nl.nets[ins.out as usize].name {
            Some(name) => name.clone(),
            None => format!("$n{}", ins.out),
        };
        *by_net.entry(name).or_default() += n;
    }
    let mut kernels: Vec<(&'static str, u64)> = by_kernel.into_iter().collect();
    kernels.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let mut kernel_occupancy: Vec<(&'static str, f64)> = occ
        .into_iter()
        .map(|(k, (c, t))| (k, c as f64 / t.max(1) as f64))
        .collect();
    kernel_occupancy.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal));
    let mut hot_nets: Vec<(String, u64)> = by_net.into_iter().collect();
    hot_nets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot_nets.truncate(16);
    NlProfileReport {
        levels,
        kernels,
        hot_nets,
        kernel_occupancy,
    }
}

/// Which edge a clock domain uses (for drivers that model both edges).
pub fn clock_edge(nl: &Netlist, clock_index: u32) -> Option<Edge> {
    nl.clocks.get(clock_index as usize).map(|&(_, e)| e)
}

/// Evaluates one cell over owned inputs (shared with the synthesizer's
/// constant folder).
pub fn eval_cell(op: CellOp, inputs: &[Bits], width: u32) -> Bits {
    let refs: Vec<&Bits> = inputs.iter().collect();
    eval_cell_refs(op, &refs, width)
}

pub(crate) fn eval_cell_refs(op: CellOp, inputs: &[&Bits], width: u32) -> Bits {
    use CellOp::*;
    let a = inputs.first().copied();
    let b = inputs.get(1).copied();
    match op {
        Not => a.expect("input").not(),
        Neg => a.expect("input").neg(),
        RedAnd => Bits::from_bool(a.expect("input").reduce_and()),
        RedOr => Bits::from_bool(a.expect("input").reduce_or()),
        RedXor => Bits::from_bool(a.expect("input").reduce_xor()),
        LogNot => Bits::from_bool(!a.expect("input").to_bool()),
        Add => a.expect("a").add(b.expect("b")).resize(width),
        Sub => a.expect("a").sub(b.expect("b")).resize(width),
        Mul => a.expect("a").mul(b.expect("b")).resize(width),
        DivU => a.expect("a").div(b.expect("b")).resize(width),
        RemU => a.expect("a").rem(b.expect("b")).resize(width),
        DivS => a.expect("a").sdiv(b.expect("b")).resize(width),
        RemS => a.expect("a").srem(b.expect("b")).resize(width),
        And => a.expect("a").and(b.expect("b")).resize(width),
        Or => a.expect("a").or(b.expect("b")).resize(width),
        Xor => a.expect("a").xor(b.expect("b")).resize(width),
        Xnor => a.expect("a").xnor(b.expect("b")).resize(width),
        Shl => a.expect("a").shl(shift_amount(b.expect("b"))).resize(width),
        Shr => a.expect("a").shr(shift_amount(b.expect("b"))).resize(width),
        AShr => a
            .expect("a")
            .ashr(shift_amount(b.expect("b")))
            .resize(width),
        Eq => Bits::from_bool(a.expect("a").eq_value(b.expect("b"))),
        Ne => Bits::from_bool(!a.expect("a").eq_value(b.expect("b"))),
        LtU => Bits::from_bool(a.expect("a").cmp_unsigned(b.expect("b")) == Ordering::Less),
        LeU => Bits::from_bool(a.expect("a").cmp_unsigned(b.expect("b")) != Ordering::Greater),
        LtS => Bits::from_bool(a.expect("a").cmp_signed(b.expect("b")) == Ordering::Less),
        LeS => Bits::from_bool(a.expect("a").cmp_signed(b.expect("b")) != Ordering::Greater),
        Mux => {
            if inputs[0].to_bool() {
                inputs[1].resize(width)
            } else {
                inputs[2].resize(width)
            }
        }
        Concat => {
            // Inputs are MSB-first.
            let mut acc = Bits::zero(0);
            for part in inputs {
                acc = acc.concat(part);
            }
            acc.resize(width)
        }
        Slice { offset } => a.expect("input").slice(offset, width),
        DynSlice => {
            let off = shift_amount(b.expect("offset"));
            a.expect("input").slice(off, width)
        }
        ZExt => a.expect("input").resize(width),
        SExt => a.expect("input").resize_signed(width),
        Repeat { count } => a.expect("input").repeat(count).resize(width),
    }
}

fn shift_amount(b: &Bits) -> u32 {
    b.to_u64().min(u32::MAX as u64) as u32
}
