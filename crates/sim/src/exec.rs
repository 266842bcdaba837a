//! The compiled software engine: executes [`SwProgram`] bytecode produced by
//! [`SwProgram::compile`] with the exact observable semantics of the
//! tree-walking [`Simulator`](crate::Simulator) — same values, same event
//! interleavings, same `$display` renderings, same `$finish` timing, same
//! `$random` stream.
//!
//! A process activation is a linear dispatch loop over flat opcodes reading
//! and writing a `u64` register file plus a word arena for design state, so
//! the per-node `Bits` allocation and recursion of the interpreter disappear
//! from the hot path. Values wider than 64 bits fall back to `Bits`-valued
//! registers driven by the same arithmetic helpers the interpreter uses.
//!
//! The only intentional divergence from the oracle: after `$finish`/`$fatal`
//! the compiled engine halts the activation immediately, while the
//! interpreter keeps charging its statement budget for the sibling
//! statements it unwinds through as no-ops. Observable state is identical;
//! only the profiling `statements` counter (which feeds the modeled cost
//! clock) differs microscopically on the final activation.

use crate::compile::{op_name, ArgV, NOp, Op, RedKind, SwProgram, TaskOp, VStore};
use crate::elaborate::Design;
use crate::rir::{ProcId, VarId};
use crate::sim::{extend, format_verilog, signed_div, signed_rem, SimError, SimEvent};
use cascade_bits::{sext, wmask, Bits};
use cascade_verilog::ast::{BinaryOp, Edge, SystemTask};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Default per-activation statement budget (mirrors the interpreter).
const DEFAULT_LOOP_LIMIT: u64 = 50_000_000;
/// Default per-settle activation budget (mirrors the interpreter).
const DEFAULT_ACTIVATION_LIMIT: u64 = 1_000_000;

/// A pending nonblocking update value.
#[derive(Debug, Clone)]
enum NbVal {
    /// Narrow value `v`, `w` bits wide.
    N { v: u64, w: u32 },
    /// Wide value.
    W(Bits),
}

/// A pending nonblocking update: (var, word index, bit offset, value).
#[derive(Debug, Clone)]
struct NbUpd {
    var: VarId,
    word: u64,
    off: u32,
    val: NbVal,
}

/// The compiled counterpart of [`Simulator`](crate::Simulator): same design,
/// same public surface, same observable behavior, linear bytecode execution.
pub struct CompiledSim {
    design: Arc<Design>,
    prog: Arc<SwProgram>,
    /// Narrow design state: one canonical word per ≤64-bit scalar or array
    /// element.
    arena: Vec<u64>,
    /// Wide (>64-bit) scalar state.
    wide: Vec<Bits>,
    /// Wide array state.
    wide_arr: Vec<Vec<Bits>>,
    /// Narrow scratch registers (canonical at their static widths).
    regs: Vec<u64>,
    /// Wide scratch registers.
    wregs: Vec<Bits>,
    active: VecDeque<ProcId>,
    queued: Vec<bool>,
    nb_updates: Vec<NbUpd>,
    events: Vec<SimEvent>,
    finished: bool,
    time: u64,
    rng: u64,
    loop_limit: u64,
    activation_limit: u64,
    /// Monitor state: (pc of the `Task` op, last rendering).
    monitors: Vec<(u32, String)>,
    /// Count of process activations (profiling).
    pub activations: u64,
    /// Count of statements executed (profiling; drives the software-engine
    /// cost model).
    pub statements: u64,
    /// The process currently executing; self-writes do not rewake it.
    current: Option<ProcId>,
    /// Per-process activation counts; `None` (the default) keeps the
    /// dispatch path free of profiling work apart from one branch per
    /// activation.
    profile: Option<Box<[u64]>>,
}

/// Execution profile of the bytecode engine, attributed to Verilog source
/// processes and opcode mnemonics. Produced by
/// [`CompiledSim::profile_report`].
#[derive(Debug, Clone, Default)]
pub struct SwProfileReport {
    /// `(source label, activations)` per process, hottest first. Labels
    /// come from the elaborated design: `assign <name>`, `always @(...)`,
    /// or `initial`.
    pub procs: Vec<(String, u64)>,
    /// `(mnemonic, executions)` per opcode, hottest first. Estimated as
    /// each process's static op counts scaled by its activation count —
    /// exact for straight-line processes, an upper bound across branches.
    pub opcodes: Vec<(&'static str, u64)>,
}

impl fmt::Debug for CompiledSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledSim")
            .field("top", &self.design.top)
            .field("time", &self.time)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl CompiledSim {
    /// Compiles `design` and creates an executor with all state at declared
    /// initial values. Call [`CompiledSim::initialize`] to run `initial`
    /// blocks and settle combinational logic.
    pub fn new(design: Arc<Design>) -> Self {
        let prog = Arc::new(SwProgram::compile(&design));
        Self::with_program(design, prog)
    }

    /// Creates an executor over an already-compiled program (allows sharing
    /// one compilation between instances).
    pub fn with_program(design: Arc<Design>, prog: Arc<SwProgram>) -> Self {
        let mut arena = vec![0u64; prog.arena_words as usize];
        let mut wide = vec![Bits::zero(0); prog.wide_slots as usize];
        let mut wide_arr: Vec<Vec<Bits>> = vec![Vec::new(); prog.wide_arrs as usize];
        for (vi, info) in design.vars.iter().enumerate() {
            // An elided alias shares its root's slot; only the root seeds it.
            if prog.aliased[vi] {
                continue;
            }
            match prog.vstore[vi] {
                VStore::Narrow { off, width } => {
                    arena[off as usize] = info
                        .init
                        .as_ref()
                        .map(|b| b.resize(width).to_u64())
                        .unwrap_or(0);
                }
                VStore::NarrowArr { .. } => {}
                VStore::Wide { idx, width } => {
                    wide[idx as usize] = info
                        .init
                        .as_ref()
                        .map(|b| b.resize(width))
                        .unwrap_or_else(|| Bits::zero(width));
                }
                VStore::WideArr { idx, len, width } => {
                    wide_arr[idx as usize] = vec![Bits::zero(width); len as usize];
                }
            }
        }
        let nprocs = prog.procs.len();
        CompiledSim {
            regs: vec![0u64; prog.nregs as usize],
            wregs: vec![Bits::zero(0); prog.nwregs as usize],
            arena,
            wide,
            wide_arr,
            active: VecDeque::new(),
            queued: vec![false; nprocs],
            nb_updates: Vec::new(),
            events: Vec::new(),
            finished: false,
            time: 0,
            rng: 0x2545F4914F6CDD1D,
            loop_limit: DEFAULT_LOOP_LIMIT,
            activation_limit: DEFAULT_ACTIVATION_LIMIT,
            monitors: Vec::new(),
            activations: 0,
            statements: 0,
            current: None,
            profile: None,
            design,
            prog,
        }
    }

    /// Switches on per-process activation profiling (idempotent). Costs
    /// one counter bump per activation while enabled and a single branch
    /// when it never was (the default).
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(vec![0u64; self.prog.procs.len()].into_boxed_slice());
        }
    }

    /// Aggregated execution counters, or `None` when profiling was never
    /// enabled.
    pub fn profile_report(&self) -> Option<SwProfileReport> {
        let counts = self.profile.as_deref()?;
        // Process bodies are laid out contiguously: a body runs from its
        // entry to the next-higher entry (or the end of the program).
        let mut entries: Vec<u32> = self.prog.procs.iter().map(|p| p.entry).collect();
        entries.sort_unstable();
        let mut procs = Vec::new();
        let mut by_op: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for (pi, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            procs.push((self.proc_label(pi), n));
            let entry = self.prog.procs[pi].entry;
            let end = entries
                .iter()
                .copied()
                .find(|&e| e > entry)
                .unwrap_or(self.prog.code.len() as u32);
            for op in &self.prog.code[entry as usize..end as usize] {
                *by_op.entry(op_name(op)).or_default() += n;
            }
        }
        procs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut opcodes: Vec<(&'static str, u64)> = by_op.into_iter().collect();
        opcodes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        Some(SwProfileReport { procs, opcodes })
    }

    /// A short source-level label for process `pi` (ProcIds align with
    /// `design.processes`).
    fn proc_label(&self, pi: usize) -> String {
        use crate::rir::{Process, RLValue};
        fn root_var(lv: &RLValue) -> Option<VarId> {
            match lv {
                RLValue::Var(v)
                | RLValue::Range { var: v, .. }
                | RLValue::ArrayWord { var: v, .. }
                | RLValue::ArrayWordRange { var: v, .. } => Some(*v),
                RLValue::Concat(parts) => parts.first().and_then(root_var),
            }
        }
        match self.design.processes.get(pi) {
            Some(Process::Assign { lhs, .. }) => match root_var(lhs) {
                Some(v) => format!("assign {}", self.design.info(v).name),
                None => "assign".to_string(),
            },
            Some(Process::Always { sens, .. }) => {
                let terms: Vec<String> = sens
                    .iter()
                    .map(|s| {
                        let name = &self.design.info(s.var).name;
                        match s.edge {
                            Some(Edge::Pos) => format!("posedge {name}"),
                            Some(Edge::Neg) => format!("negedge {name}"),
                            None => name.clone(),
                        }
                    })
                    .collect();
                format!("always @({})", terms.join(", "))
            }
            Some(Process::Initial { .. }) => "initial".to_string(),
            None => format!("proc {pi}"),
        }
    }

    /// The design being simulated.
    pub fn design(&self) -> &Arc<Design> {
        &self.design
    }

    /// The compiled program (for sharing across instances and inspection).
    pub fn program(&self) -> &Arc<SwProgram> {
        &self.prog
    }

    /// Current simulation time.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Whether `$finish` has executed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Overrides the per-activation statement budget.
    pub fn set_loop_limit(&mut self, limit: u64) {
        self.loop_limit = limit;
    }

    /// Overrides the per-settle activation budget.
    pub fn set_activation_limit(&mut self, limit: u64) {
        self.activation_limit = limit;
    }

    /// Seeds `$random`.
    pub fn seed_random(&mut self, seed: u64) {
        self.rng = seed | 1;
    }

    /// Drains accumulated side-effect events.
    pub fn drain_events(&mut self) -> Vec<SimEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether any events are pending.
    #[inline]
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Whether nonblocking updates are pending.
    #[inline]
    pub fn has_updates(&self) -> bool {
        !self.nb_updates.is_empty()
    }

    /// Whether any evaluation events are active.
    #[inline]
    pub fn has_evals(&self) -> bool {
        !self.active.is_empty()
    }

    // ------------------------------------------------------------------
    // State access
    // ------------------------------------------------------------------

    /// Reads a scalar variable's current value.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown.
    pub fn peek(&self, name: &str) -> Bits {
        let id = self
            .design
            .var(name)
            .unwrap_or_else(|| panic!("unknown variable `{name}`"));
        self.peek_id(id)
    }

    /// Reads a variable by id.
    #[inline]
    pub fn peek_id(&self, id: VarId) -> Bits {
        match self.prog.vstore[id.0 as usize] {
            VStore::Narrow { off, width } => Bits::from_u64(width, self.arena[off as usize]),
            VStore::Wide { idx, .. } => self.wide[idx as usize].clone(),
            // Arrays have no scalar value (mirrors the interpreter's
            // zero-width shadow slot).
            VStore::NarrowArr { .. } | VStore::WideArr { .. } => Bits::zero(0),
        }
    }

    /// Reads one word of a memory.
    pub fn peek_array(&self, id: VarId, index: u64) -> Bits {
        match self.prog.vstore[id.0 as usize] {
            VStore::NarrowArr { off, len, width } => {
                if index < len {
                    Bits::from_u64(width, self.arena[(off as u64 + index) as usize])
                } else {
                    Bits::zero(width)
                }
            }
            VStore::WideArr { idx, len, width } => {
                if index < len {
                    self.wide_arr[idx as usize][index as usize].clone()
                } else {
                    Bits::zero(width)
                }
            }
            VStore::Narrow { width, .. } | VStore::Wide { width, .. } => Bits::zero(width),
        }
    }

    /// Writes a memory word directly without triggering events.
    pub fn poke_array(&mut self, id: VarId, index: u64, value: Bits) {
        match self.prog.vstore[id.0 as usize] {
            VStore::NarrowArr { off, len, width } if index < len => {
                self.arena[(off as u64 + index) as usize] = value.resize(width).to_u64();
            }
            VStore::WideArr { idx, len, width } if index < len => {
                self.wide_arr[idx as usize][index as usize] = value.resize(width);
            }
            _ => {}
        }
    }

    /// Sets a variable and schedules its dependents. Call
    /// [`CompiledSim::settle`] afterwards.
    pub fn poke(&mut self, name: &str, value: Bits) {
        let id = self
            .design
            .var(name)
            .unwrap_or_else(|| panic!("unknown variable `{name}`"));
        self.poke_id(id, value);
    }

    /// Sets a variable by id, scheduling dependents on change.
    pub fn poke_id(&mut self, id: VarId, value: Bits) {
        match self.prog.vstore[id.0 as usize] {
            VStore::Narrow { width, .. } => {
                let v = value.resize(width).to_u64();
                self.apply_write_n(id, 0, 0, v, width);
            }
            VStore::Wide { width, .. } => {
                let v = value.resize(width);
                self.apply_write_w(id, 0, 0, &v);
            }
            _ => {}
        }
    }

    /// Forces a value without triggering events (state restoration).
    pub fn force(&mut self, id: VarId, value: Bits) {
        match self.prog.vstore[id.0 as usize] {
            VStore::Narrow { off, width } => {
                self.arena[off as usize] = value.resize(width).to_u64();
            }
            VStore::Wide { idx, width } => {
                self.wide[idx as usize] = value.resize(width);
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Scheduling (mirrors the interpreter phase for phase)
    // ------------------------------------------------------------------

    fn schedule(&mut self, pid: ProcId) {
        if !self.queued[pid.0 as usize] {
            self.queued[pid.0 as usize] = true;
            self.active.push_back(pid);
        }
    }

    /// Runs all `initial` blocks and continuous assignments to a fixed
    /// point (time zero).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on combinational loops or runaway processes.
    pub fn initialize(&mut self) -> Result<(), SimError> {
        for i in 0..self.prog.procs.len() {
            if self.prog.procs[i].run_at_init {
                self.schedule(ProcId(i as u32));
            }
        }
        self.settle()
    }

    /// Re-evaluates all combinational logic after state has been
    /// overwritten with [`CompiledSim::force`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on combinational loops.
    pub fn resettle(&mut self) -> Result<(), SimError> {
        for i in 0..self.prog.procs.len() {
            if self.prog.procs[i].comb {
                self.schedule(ProcId(i as u32));
            }
        }
        self.settle()
    }

    /// Runs evaluation/update phases until the event queues are empty.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] on combinational loops or
    /// [`SimError::LoopLimit`] for runaway loops.
    pub fn settle(&mut self) -> Result<(), SimError> {
        let mut rounds: u64 = 0;
        loop {
            self.eval_phase()?;
            if self.finished || self.nb_updates.is_empty() {
                break;
            }
            self.apply_updates();
            rounds += 1;
            if rounds > self.activation_limit {
                return Err(SimError::Unstable {
                    activations: rounds,
                });
            }
        }
        self.run_monitors();
        Ok(())
    }

    /// Runs only the evaluation phase, leaving nonblocking updates pending.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on combinational loops or runaway processes.
    pub fn eval_phase(&mut self) -> Result<(), SimError> {
        let mut count: u64 = 0;
        while let Some(pid) = self.active.pop_front() {
            self.queued[pid.0 as usize] = false;
            count += 1;
            self.activations += 1;
            if count > self.activation_limit {
                return Err(SimError::Unstable { activations: count });
            }
            self.run_process(pid)?;
            if self.finished {
                self.active.clear();
                self.queued.iter_mut().for_each(|q| *q = false);
                self.nb_updates.clear();
                return Ok(());
            }
        }
        Ok(())
    }

    /// Applies all pending nonblocking updates, activating processes
    /// sensitive to the changed values.
    pub fn apply_updates(&mut self) {
        // Move the queue out so writes can borrow `self`, then hand its
        // allocation back: this runs every delta round and must not churn
        // the allocator.
        let mut updates = std::mem::take(&mut self.nb_updates);
        for u in updates.drain(..) {
            match u.val {
                NbVal::N { v, w } => self.apply_write_n(u.var, u.word, u.off, v, w),
                NbVal::W(b) => self.apply_write_w(u.var, u.word, u.off, &b),
            }
        }
        // Applying updates only wakes processes; it cannot queue new ones.
        debug_assert!(self.nb_updates.is_empty());
        std::mem::swap(&mut self.nb_updates, &mut updates);
    }

    /// Runs monitor statements against the current observable state.
    #[inline]
    pub fn end_step(&mut self) {
        self.run_monitors();
    }

    /// Advances logical time by one tick.
    #[inline]
    pub fn advance_time(&mut self) {
        self.time += 1;
    }

    /// Advances one virtual clock cycle: raise `clk`, settle, lower `clk`,
    /// settle, advance time.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`CompiledSim::settle`].
    pub fn tick(&mut self, clk: &str) -> Result<(), SimError> {
        let id = self
            .design
            .var(clk)
            .unwrap_or_else(|| panic!("unknown clock `{clk}`"));
        self.tick_id(id)
    }

    /// [`CompiledSim::tick`] by variable id.
    pub fn tick_id(&mut self, clk: VarId) -> Result<(), SimError> {
        self.poke_bit(clk, 1);
        self.settle()?;
        self.poke_bit(clk, 0);
        // The falling edge usually wakes nothing (posedge-only designs);
        // a settle with empty queues would only re-run monitors.
        if !self.active.is_empty() || !self.nb_updates.is_empty() || !self.monitors.is_empty() {
            self.settle()?;
        }
        self.time += 1;
        Ok(())
    }

    /// Narrow single-bit poke without constructing a `Bits` (the tick hot
    /// path: the runtime delivers every clock edge through here).
    #[inline]
    pub fn poke_bit(&mut self, id: VarId, v: u64) {
        match self.prog.vstore[id.0 as usize] {
            VStore::Narrow { width, .. } => {
                self.apply_write_n(id, 0, 0, v & wmask(width), width);
            }
            _ => self.poke_id(id, Bits::from_u64(1, v)),
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Narrow splice: writes the `w`-bit value `v` into `[off, off+w)` of a
    /// `vw`-bit word, discarding bits that fall outside (mirrors
    /// `Bits::splice`).
    #[inline]
    fn nsplice(old: u64, vw: u32, off: u32, v: u64, w: u32) -> u64 {
        if off >= vw || w == 0 {
            return old;
        }
        // off < vw ≤ 64, so all shifts are in range; bits of the mask above
        // the word boundary drop out naturally.
        let m = (wmask(w) << off) & wmask(vw);
        (old & !m) | ((v << off) & m)
    }

    fn apply_write_n(&mut self, var: VarId, word: u64, off: u32, v: u64, w: u32) {
        match self.prog.vstore[var.0 as usize] {
            VStore::Narrow { off: aoff, width } => {
                let old = self.arena[aoff as usize];
                // Full-width writes (the common case: every scalar
                // nonblocking assign) skip the splice arithmetic.
                let next = if off == 0 && w == width {
                    v
                } else {
                    Self::nsplice(old, width, off, v, w)
                };
                if next != old {
                    let rising = (old & 1) == 0 && (next & 1) == 1;
                    let falling = (old & 1) == 1 && (next & 1) == 0;
                    self.arena[aoff as usize] = next;
                    self.wake(var, rising, falling);
                }
            }
            VStore::NarrowArr {
                off: aoff,
                len,
                width,
            } => {
                if word >= len {
                    return;
                }
                let slot = (aoff as u64 + word) as usize;
                let old = self.arena[slot];
                let next = Self::nsplice(old, width, off, v, w);
                if next != old {
                    self.arena[slot] = next;
                    // Array reads are level-sensitive through the owning var.
                    self.wake(var, false, false);
                }
            }
            // A narrow-valued store can target a wide variable via a
            // part-select; route through the Bits path.
            VStore::Wide { .. } | VStore::WideArr { .. } => {
                let b = Bits::from_u64(w, v);
                self.apply_write_w(var, word, off, &b);
            }
        }
    }

    fn apply_write_w(&mut self, var: VarId, word: u64, off: u32, value: &Bits) {
        match self.prog.vstore[var.0 as usize] {
            VStore::Wide { idx, .. } => {
                let slot = idx as usize;
                let old = &self.wide[slot];
                let mut next = old.clone();
                next.splice(off, value);
                if next != *old {
                    let rising = !old.bit(0) && next.bit(0);
                    let falling = old.bit(0) && !next.bit(0);
                    self.wide[slot] = next;
                    self.wake(var, rising, falling);
                }
            }
            VStore::WideArr { idx, len, .. } => {
                if word >= len {
                    return;
                }
                let slot = &mut self.wide_arr[idx as usize][word as usize];
                let mut next = slot.clone();
                next.splice(off, value);
                if next != *slot {
                    *slot = next;
                    self.wake(var, false, false);
                }
            }
            VStore::Narrow { .. } | VStore::NarrowArr { .. } => {
                let v = value.to_u64();
                self.apply_write_n(var, word, off, v, value.width().min(64));
            }
        }
    }

    #[inline]
    fn wake(&mut self, var: VarId, rising: bool, falling: bool) {
        // SAFETY: `self.prog` is assigned once at construction and never
        // replaced, and the sensitivity index is immutable after compile;
        // reborrowing through a raw pointer lets the loop call `schedule`
        // (`&mut self`) without re-indexing per watcher. Writes are the
        // hottest path in the engine and this runs for every changed value.
        let sens: &[(ProcId, Option<Edge>)] =
            unsafe { &*(self.prog.sens[var.0 as usize].as_slice() as *const _) };
        for &(pid, edge) in sens {
            if self.current == Some(pid) {
                continue;
            }
            let fire = match edge {
                None => true,
                Some(Edge::Pos) => rising,
                Some(Edge::Neg) => falling,
            };
            if fire {
                self.schedule(pid);
            }
        }
    }

    // ------------------------------------------------------------------
    // Bytecode execution
    // ------------------------------------------------------------------

    fn run_process(&mut self, pid: ProcId) -> Result<(), SimError> {
        if let Some(p) = &mut self.profile {
            p[pid.0 as usize] += 1;
        }
        let info = self.prog.procs[pid.0 as usize];
        if info.is_assign {
            // Continuous assignments have no loops and are not masked
            // against self-wake (`assign a = ~a;` must loop-detect).
            let mut budget = u64::MAX;
            self.exec_from(info.entry, &mut budget)
        } else {
            self.current = Some(pid);
            let mut budget = self.loop_limit;
            let r = self.exec_from(info.entry, &mut budget);
            self.current = None;
            r
        }
    }

    fn exec_from(&mut self, entry: u32, budget: &mut u64) -> Result<(), SimError> {
        self.exec_range(entry, u32::MAX, budget)
    }

    /// Narrow register read. SAFETY: register indices are allocated at
    /// compile time strictly below `nregs`, and the register file is sized
    /// to exactly `nregs`; skipping the bounds branch keeps the dispatch
    /// loop lean (same discipline as the netlist evaluator's arena).
    #[inline(always)]
    fn r(&self, i: u16) -> u64 {
        debug_assert!((i as usize) < self.regs.len());
        unsafe { *self.regs.get_unchecked(i as usize) }
    }

    /// Narrow register write. SAFETY: see [`CompiledSim::r`].
    #[inline(always)]
    fn set_r(&mut self, i: u16, v: u64) {
        debug_assert!((i as usize) < self.regs.len());
        unsafe { *self.regs.get_unchecked_mut(i as usize) = v };
    }

    /// Arena word read. SAFETY: scalar offsets come from the storage layout,
    /// which allocates every slot below `arena_words`, the exact arena size.
    #[inline(always)]
    fn aw(&self, off: u32) -> u64 {
        debug_assert!((off as usize) < self.arena.len());
        unsafe { *self.arena.get_unchecked(off as usize) }
    }

    /// The dispatch loop: executes ops from `entry` until a `Halt`, a
    /// terminal task, or (for monitor fragments) the pc reaches `end`.
    fn exec_range(&mut self, entry: u32, end: u32, budget: &mut u64) -> Result<(), SimError> {
        // SAFETY: `self.prog` is assigned once at construction and never
        // replaced, and `SwProgram` has no interior mutability, so the code
        // slice is immutable and outlives this call even while op handlers
        // take `&mut self`. Reborrowing through a raw pointer instead of
        // cloning the `Arc` drops a refcount round-trip from every process
        // activation, the engine's hottest fixed cost.
        let code: &[Op] = unsafe { &*(self.prog.code.as_slice() as *const [Op]) };
        let end = (end as usize).min(code.len());
        let mut pc = entry as usize;
        while pc < end {
            let op = &code[pc];
            pc += 1;
            match *op {
                Op::Step(n) => {
                    let n = n as u64;
                    if *budget < n {
                        return Err(SimError::LoopLimit {
                            limit: self.loop_limit,
                        });
                    }
                    *budget -= n;
                    self.statements += n;
                }
                Op::Guard => {
                    if *budget == 0 {
                        return Err(SimError::LoopLimit {
                            limit: self.loop_limit,
                        });
                    }
                    *budget -= 1;
                }
                Op::Jmp(t) => pc = t as usize,
                Op::Jz(r, t) => {
                    if self.r(r) == 0 {
                        pc = t as usize;
                    }
                }
                Op::Jnz(r, t) => {
                    if self.r(r) != 0 {
                        pc = t as usize;
                    }
                }
                Op::Switch {
                    a,
                    base,
                    ref table,
                    default_t,
                } => {
                    let i = self.r(a).wrapping_sub(base);
                    pc = table.get(i as usize).copied().unwrap_or(default_t) as usize;
                }
                Op::JnRange { a, lo, hi, t } => {
                    let v = self.r(a);
                    if v < lo || hi < v {
                        pc = t as usize;
                    }
                }
                Op::JnRangeM { off, lo, hi, t } => {
                    let v = self.aw(off);
                    if v < lo || hi < v {
                        pc = t as usize;
                    }
                }
                Op::JnCmpI { cc, a, imm, t } => {
                    if !cc.test(self.r(a).cmp(&imm)) {
                        pc = t as usize;
                    }
                }
                Op::JnCmpMI { cc, off, imm, t } => {
                    if !cc.test(self.aw(off).cmp(&imm)) {
                        pc = t as usize;
                    }
                }
                Op::Halt => return Ok(()),
                Op::MovC(d, v) => self.set_r(d, v),
                Op::Mov(d, s) => self.set_r(d, self.r(s)),
                Op::Ld(d, off) => self.set_r(d, self.aw(off)),
                Op::LdSx { dst, off, fw, tw } => {
                    let v = self.aw(off);
                    self.set_r(dst, (sext(v, fw) as u64) & wmask(tw));
                }
                Op::LdArr { dst, var, idx } => {
                    let i = self.r(idx);
                    let v = match self.prog.vstore[var as usize] {
                        VStore::NarrowArr { off, len, .. } if i < len => {
                            self.aw((off as u64 + i) as u32)
                        }
                        VStore::Narrow { off, .. } if i == 0 => self.aw(off),
                        _ => 0,
                    };
                    self.set_r(dst, v);
                }
                Op::Sext { dst, src, fw, tw } => {
                    let v = self.r(src);
                    self.set_r(dst, (sext(v, fw) as u64) & wmask(tw));
                }
                Op::Mask { dst, src, w } => {
                    self.set_r(dst, self.r(src) & wmask(w));
                }
                Op::Bin { op, dst, a, b, w } => {
                    let (a, b) = (self.r(a), self.r(b));
                    self.set_r(dst, nbin(op, a, b, w));
                }
                Op::BinImm { op, dst, a, imm, w } => {
                    let a = self.r(a);
                    self.set_r(dst, nbin(op, a, imm, w));
                }
                Op::DivS {
                    dst,
                    a,
                    b,
                    lw,
                    rw,
                    w,
                } => {
                    let la = sext(self.r(a), lw) as i128;
                    let rb = sext(self.r(b), rw) as i128;
                    let v = if rb == 0 {
                        wmask(w)
                    } else {
                        ((la / rb) as u64) & wmask(w)
                    };
                    self.set_r(dst, v);
                }
                Op::RemS {
                    dst,
                    a,
                    b,
                    lw,
                    rw,
                    w,
                } => {
                    let la = sext(self.r(a), lw) as i128;
                    let rb = sext(self.r(b), rw) as i128;
                    let v = if rb == 0 {
                        wmask(w)
                    } else {
                        ((la % rb) as u64) & wmask(w)
                    };
                    self.set_r(dst, v);
                }
                Op::AShr { dst, a, amt, w } => {
                    let amt = self.r(amt);
                    self.set_r(dst, nashr(self.r(a), amt, w));
                }
                Op::AShrImm { dst, a, amt, w } => {
                    self.set_r(dst, nashr(self.r(a), amt, w));
                }
                Op::CmpU { cc, dst, a, b } => {
                    let ord = self.r(a).cmp(&self.r(b));
                    self.set_r(dst, cc.test(ord) as u64);
                }
                Op::CmpUI { cc, dst, a, imm } => {
                    let ord = self.r(a).cmp(&imm);
                    self.set_r(dst, cc.test(ord) as u64);
                }
                Op::CmpRange { dst, a, lo, hi } => {
                    let v = self.r(a);
                    self.set_r(dst, (lo <= v && v <= hi) as u64);
                }
                Op::CmpS { cc, dst, a, b, w } => {
                    let ord = sext(self.r(a), w).cmp(&sext(self.r(b), w));
                    self.set_r(dst, cc.test(ord) as u64);
                }
                Op::CmpSI { cc, dst, a, imm, w } => {
                    let ord = sext(self.r(a), w).cmp(&imm);
                    self.set_r(dst, cc.test(ord) as u64);
                }
                Op::Not { dst, a, w } => {
                    self.set_r(dst, !self.r(a) & wmask(w));
                }
                Op::Neg { dst, a, w } => {
                    self.set_r(dst, self.r(a).wrapping_neg() & wmask(w));
                }
                Op::Red { kind, dst, a, w } => {
                    let v = self.r(a);
                    let r = match kind {
                        RedKind::And => (v == wmask(w)) as u64,
                        RedKind::Or => (v != 0) as u64,
                        RedKind::Xor => (v.count_ones() & 1) as u64,
                        RedKind::Nand => (v != wmask(w)) as u64,
                        RedKind::Nor => (v == 0) as u64,
                        RedKind::Xnor => ((v.count_ones() & 1) ^ 1) as u64,
                        RedKind::LogNot => (v == 0) as u64,
                    };
                    self.set_r(dst, r);
                }
                Op::Bool(d, a) => {
                    self.set_r(d, (self.r(a) != 0) as u64);
                }
                Op::SliceC { dst, a, off, w } => {
                    self.set_r(dst, (self.r(a) >> off) & wmask(w));
                }
                Op::SliceR { dst, a, off, w } => {
                    let off = self.r(off);
                    let v = if off >= 64 {
                        0
                    } else {
                        (self.r(a) >> off) & wmask(w)
                    };
                    self.set_r(dst, v);
                }
                Op::Concat2 { dst, hi, lo, lw } => {
                    let lo = self.r(lo);
                    let v = if lw >= 64 {
                        lo
                    } else {
                        (self.r(hi) << lw) | lo
                    };
                    self.set_r(dst, v);
                }
                Op::Rotl { dst, a, k, w } => {
                    let v = self.r(a);
                    self.set_r(dst, ((v << k) | (v >> (w - k))) & wmask(w));
                }
                Op::Select { dst, c, t, f } => {
                    let v = if self.r(c) != 0 { self.r(t) } else { self.r(f) };
                    self.set_r(dst, v);
                }
                Op::CmpSel {
                    dst,
                    cc,
                    signed,
                    w,
                    a,
                    b,
                    t,
                    f,
                } => {
                    let ord = if signed {
                        sext(self.r(a), w).cmp(&sext(self.r(b), w))
                    } else {
                        self.r(a).cmp(&self.r(b))
                    };
                    let v = if cc.test(ord) { self.r(t) } else { self.r(f) };
                    self.set_r(dst, v);
                }
                Op::Time(d) => self.set_r(d, self.time),
                Op::Random(d) => {
                    let mut x = self.rng;
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    self.rng = x;
                    self.set_r(d, x.wrapping_mul(0x2545F4914F6CDD1D) >> 32);
                }
                Op::WMovC(d, ref b) => self.wregs[d as usize] = (**b).clone(),
                Op::WLd { dst, var } => {
                    self.wregs[dst as usize] = match self.prog.vstore[var as usize] {
                        VStore::Wide { idx, .. } => self.wide[idx as usize].clone(),
                        _ => Bits::zero(0),
                    };
                }
                Op::WLdArr { dst, var, idx } => {
                    let i = self.r(idx);
                    self.wregs[dst as usize] = match self.prog.vstore[var as usize] {
                        VStore::WideArr {
                            idx: ai,
                            len,
                            width,
                        } => {
                            if i < len {
                                self.wide_arr[ai as usize][i as usize].clone()
                            } else {
                                Bits::zero(width)
                            }
                        }
                        VStore::Wide { idx: ai, width } => {
                            if i == 0 {
                                self.wide[ai as usize].clone()
                            } else {
                                Bits::zero(width)
                            }
                        }
                        _ => Bits::zero(0),
                    };
                }
                Op::WExt {
                    dst,
                    src,
                    w,
                    signed,
                } => {
                    let v = &self.wregs[src as usize];
                    self.wregs[dst as usize] = if signed {
                        v.resize_signed(w)
                    } else {
                        v.resize(w)
                    };
                }
                Op::WFromR {
                    dst,
                    src,
                    sw,
                    w,
                    signed,
                } => {
                    let b = Bits::from_u64(sw, self.r(src));
                    self.wregs[dst as usize] = if w == sw {
                        b
                    } else if signed {
                        b.resize_signed(w)
                    } else {
                        b.resize(w)
                    };
                }
                Op::RFromW { dst, src } => {
                    self.set_r(dst, self.wregs[src as usize].to_u64());
                }
                Op::RBoolFromW { dst, src } => {
                    self.set_r(dst, self.wregs[src as usize].to_bool() as u64);
                }
                Op::WBin {
                    op,
                    dst,
                    a,
                    b,
                    w,
                    sdiv,
                } => {
                    let l = &self.wregs[a as usize];
                    let r = &self.wregs[b as usize];
                    let v = if sdiv && op == BinaryOp::Div {
                        signed_div(l, r)
                    } else if sdiv && op == BinaryOp::Rem {
                        signed_rem(l, r)
                    } else {
                        cascade_verilog::typecheck::apply_binary(op, l, r)
                    };
                    self.wregs[dst as usize] = v.resize(w);
                }
                Op::WShift {
                    op,
                    dst,
                    a,
                    amt,
                    arith,
                } => {
                    let amt = self.r(amt).min(u32::MAX as u64) as u32;
                    let l = &self.wregs[a as usize];
                    self.wregs[dst as usize] = match op {
                        BinaryOp::Shl | BinaryOp::AShl => l.shl(amt),
                        BinaryOp::Shr => l.shr(amt),
                        BinaryOp::AShr => {
                            if arith {
                                l.ashr(amt)
                            } else {
                                l.shr(amt)
                            }
                        }
                        _ => unreachable!("non-shift op in WShift"),
                    };
                }
                Op::WPow { dst, a, b, w } => {
                    let v = self.wregs[a as usize].pow(&self.wregs[b as usize]);
                    self.wregs[dst as usize] = v.resize(w);
                }
                Op::WUn { op, dst, a, w } => {
                    let r = cascade_verilog::typecheck::apply_unary(op, &self.wregs[a as usize]);
                    self.wregs[dst as usize] = extend(&r, w, false);
                }
                Op::WCmp {
                    cc,
                    dst,
                    a,
                    b,
                    signed,
                } => {
                    let l = &self.wregs[a as usize];
                    let r = &self.wregs[b as usize];
                    let ord = if signed {
                        l.cmp_signed(r)
                    } else {
                        l.cmp_unsigned(r)
                    };
                    self.set_r(dst, cc.test(ord) as u64);
                }
                Op::WConcat2 { dst, hi, lo } => {
                    let v = self.wregs[hi as usize].concat(&self.wregs[lo as usize]);
                    self.wregs[dst as usize] = v;
                }
                Op::WRepeat { dst, src, count } => {
                    self.wregs[dst as usize] = self.wregs[src as usize].repeat(count);
                }
                Op::WSliceN { dst, a, off, w } => {
                    let off = self.r(off);
                    let v = if off > u32::MAX as u64 {
                        0
                    } else {
                        self.wregs[a as usize].slice(off as u32, w).to_u64()
                    };
                    self.set_r(dst, v);
                }
                Op::WSliceW { dst, a, off, w } => {
                    let off = self.r(off);
                    self.wregs[dst as usize] = if off > u32::MAX as u64 {
                        Bits::zero(w)
                    } else {
                        self.wregs[a as usize].slice(off as u32, w)
                    };
                }
                Op::St { var, off, src } => {
                    let v = self.r(src);
                    let old = self.aw(off);
                    if v != old {
                        let rising = (old & 1) == 0 && (v & 1) == 1;
                        let falling = (old & 1) == 1 && (v & 1) == 0;
                        self.arena[off as usize] = v;
                        self.wake(VarId(var), rising, falling);
                    }
                }
                Op::StQ { off, src } => {
                    let v = self.r(src);
                    self.arena[off as usize] = v;
                }
                Op::NbSt { var, src } => {
                    let v = self.r(src);
                    let w = self.prog.vstore[var as usize].width();
                    self.nb_updates.push(NbUpd {
                        var: VarId(var),
                        word: 0,
                        off: 0,
                        val: NbVal::N { v, w },
                    });
                }
                Op::StoreGen {
                    var,
                    src,
                    w,
                    idx,
                    off,
                    nb,
                } => {
                    let v = self.r(src);
                    let word = idx.map(|r| self.r(r)).unwrap_or(0);
                    // The interpreter computes the bit offset with a wrapping
                    // `as u32` truncation of the selector value.
                    let off = off.map(|r| self.r(r) as u32).unwrap_or(0);
                    if nb {
                        self.nb_updates.push(NbUpd {
                            var: VarId(var),
                            word,
                            off,
                            val: NbVal::N { v, w },
                        });
                    } else {
                        self.apply_write_n(VarId(var), word, off, v, w);
                    }
                }
                Op::WStore {
                    var,
                    src,
                    idx,
                    off,
                    nb,
                    ..
                } => {
                    let word = idx.map(|r| self.r(r)).unwrap_or(0);
                    let off = off.map(|r| self.r(r) as u32).unwrap_or(0);
                    if nb {
                        let b = self.wregs[src as usize].clone();
                        self.nb_updates.push(NbUpd {
                            var: VarId(var),
                            word,
                            off,
                            val: NbVal::W(b),
                        });
                    } else {
                        let b = self.wregs[src as usize].clone();
                        self.apply_write_w(VarId(var), word, off, &b);
                    }
                }
                Op::Task(ref t) => {
                    self.fire_task(t, pc as u32 - 1);
                    if self.finished {
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // System tasks and monitors
    // ------------------------------------------------------------------

    fn fire_task(&mut self, t: &TaskOp, pc: u32) {
        match t.kind {
            SystemTask::Display => {
                let text = self.render_task(t);
                self.events.push(SimEvent::Display(text));
            }
            SystemTask::Write => {
                let text = self.render_task(t);
                self.events.push(SimEvent::Write(text));
            }
            SystemTask::Finish => {
                self.events.push(SimEvent::Finish);
                self.finished = true;
            }
            SystemTask::Fatal => {
                let text = self.render_task(t);
                self.events.push(SimEvent::Fatal(text));
                self.finished = true;
            }
            SystemTask::Monitor => {
                let rendered = self.render_task(t);
                self.events.push(SimEvent::Display(rendered.clone()));
                self.monitors.push((pc, rendered));
            }
        }
    }

    /// Renders a task's arguments from the current register contents.
    fn render_task(&self, t: &TaskOp) -> String {
        match &t.fmt {
            Some(fmt) => {
                let values: Vec<Bits> = t
                    .vals
                    .iter()
                    .map(|a| match a {
                        ArgV::N { r, w, .. } => Bits::from_u64(*w, self.regs[*r as usize]),
                        ArgV::W { wr, .. } => self.wregs[*wr as usize].clone(),
                        ArgV::Lit { packed, .. } => packed.clone(),
                    })
                    .collect();
                format_verilog(fmt, &values)
            }
            None => t
                .vals
                .iter()
                .map(|a| match a {
                    ArgV::N { r, w, signed } => {
                        let b = Bits::from_u64(*w, self.regs[*r as usize]);
                        if *signed {
                            b.to_signed_decimal_string()
                        } else {
                            b.to_decimal_string()
                        }
                    }
                    ArgV::W { wr, signed } => {
                        let b = &self.wregs[*wr as usize];
                        if *signed {
                            b.to_signed_decimal_string()
                        } else {
                            b.to_decimal_string()
                        }
                    }
                    ArgV::Lit { s, .. } => s.clone(),
                })
                .collect::<Vec<_>>()
                .join(" "),
        }
    }

    fn run_monitors(&mut self) {
        if self.monitors.is_empty() {
            return;
        }
        let monitors = std::mem::take(&mut self.monitors);
        let mut next = Vec::with_capacity(monitors.len());
        let prog = Arc::clone(&self.prog);
        for (pc, last) in monitors {
            let Op::Task(ref t) = prog.code[pc as usize] else {
                unreachable!("monitor pc does not point at a Task op");
            };
            // Re-execute the argument fragment (pure ops plus `$random`
            // stream effects, matching the interpreter's re-evaluation),
            // then re-render.
            self.exec_frag(t.frag.0, t.frag.1);
            let now = self.render_task(t);
            if now != last {
                self.events.push(SimEvent::Display(now.clone()));
            }
            next.push((pc, now));
        }
        self.monitors = next;
    }

    /// Executes the op range `[start, end)` (a task's argument fragment).
    /// Fragments contain only value-computing ops and internal forward
    /// jumps from branching ternaries — no `Step`/`Guard`/store/`Task` —
    /// so with a saturated budget this cannot error or mutate design state
    /// beyond the `$random` stream.
    fn exec_frag(&mut self, start: u32, end: u32) {
        if start < end {
            let mut budget = u64::MAX;
            self.exec_range(start, end, &mut budget)
                .expect("pure task-argument fragment cannot fail");
        }
    }
}

/// Narrow binary ALU evaluation: operands are canonical `w`-bit values, the
/// result is canonical at `w`. Mirrors `Bits` arithmetic exactly for widths
/// ≤ 64 (wrapping ring ops commute with truncation; division/remainder act
/// on the canonical values; x/0 and x%0 yield all-ones like `Bits::div`).
pub(crate) fn nbin(op: NOp, a: u64, b: u64, w: u32) -> u64 {
    let m = wmask(w);
    match op {
        NOp::Add => a.wrapping_add(b) & m,
        NOp::Sub => a.wrapping_sub(b) & m,
        NOp::Mul => a.wrapping_mul(b) & m,
        NOp::DivU => a.checked_div(b).unwrap_or(m),
        NOp::RemU => a.checked_rem(b).unwrap_or(m),
        NOp::And => a & b,
        NOp::Or => a | b,
        NOp::Xor => a ^ b,
        NOp::Xnor => !(a ^ b) & m,
        NOp::Shl => {
            if b >= w as u64 {
                0
            } else {
                (a << b) & m
            }
        }
        NOp::Shr => {
            if b >= 64 {
                0
            } else {
                a >> b
            }
        }
        NOp::Pow => npow(a, b, w),
    }
}

/// `base ** exp` wrapping at width `w` (binary exponentiation mod 2^64,
/// then masked — multiplication mod 2^w is a quotient ring of mod 2^64, so
/// this equals `Bits::pow`'s per-step wrap at the base width).
fn npow(mut base: u64, mut exp: u64, w: u32) -> u64 {
    let mut acc: u64 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        exp >>= 1;
    }
    acc & wmask(w)
}

/// Arithmetic shift right of the canonical `w`-bit value `a` by `amt`,
/// masked back to `w` (mirrors `Bits::ashr` incl. the ≥width saturation).
fn nashr(a: u64, amt: u64, w: u32) -> u64 {
    if w == 0 {
        return 0;
    }
    let s = sext(a, w);
    let shift = amt.min(63) as u32;
    ((s >> shift) as u64) & wmask(w)
}
