//! The event-driven simulator: Verilog's reference scheduling algorithm
//! (paper Fig. 2) over an elaborated [`Design`].

use crate::elaborate::{collect_reads, Design};
use crate::rir::*;
use cascade_bits::{word, Bits};
use cascade_verilog::ast::{BinaryOp, CaseKind, Edge, SystemTask, UnaryOp};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// An observable side effect produced by system tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimEvent {
    /// `$display` output (includes trailing newline semantics: one event per
    /// call).
    Display(String),
    /// `$write` output (no newline).
    Write(String),
    /// `$finish` was executed.
    Finish,
    /// `$fatal` was executed.
    Fatal(String),
}

/// A simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The design did not reach a fixed point (combinational loop).
    Unstable { activations: u64 },
    /// A single process exceeded its statement budget (runaway loop).
    LoopLimit { limit: u64 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Unstable { activations } => {
                write!(
                    f,
                    "design did not stabilize after {activations} process activations"
                )
            }
            SimError::LoopLimit { limit } => {
                write!(f, "process exceeded {limit} statements per activation")
            }
        }
    }
}

impl Error for SimError {}

/// Default per-activation statement budget.
const DEFAULT_LOOP_LIMIT: u64 = 50_000_000;
/// Default per-settle activation budget.
const DEFAULT_ACTIVATION_LIMIT: u64 = 1_000_000;

/// A cycle-accurate event-driven simulator for one [`Design`].
///
/// # Examples
///
/// ```
/// use cascade_sim::{elaborate, library_from_source, Simulator};
///
/// let lib = library_from_source(
///     "module Count(input wire clk, output wire [7:0] o);\n\
///      reg [7:0] c = 0;\n\
///      always @(posedge clk) c <= c + 1;\n\
///      assign o = c;\nendmodule",
/// )?;
/// let design = elaborate("Count", &lib, &Default::default())?;
/// let mut sim = Simulator::new(design.into());
/// sim.initialize()?;
/// for _ in 0..5 { sim.tick("clk")?; }
/// assert_eq!(sim.peek("o").to_u64(), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Simulator {
    design: Arc<Design>,
    /// Scalar values (arrays hold their words in `arrays`).
    values: Vec<Bits>,
    arrays: Vec<Vec<Bits>>,
    /// var → processes sensitive to it.
    sens_map: Vec<Vec<(ProcId, Option<Edge>)>>,
    active: VecDeque<ProcId>,
    queued: Vec<bool>,
    /// Pending nonblocking updates: (var, word index, bit offset, value).
    nb_updates: Vec<(VarId, u64, u32, Bits)>,
    events: Vec<SimEvent>,
    finished: bool,
    time: u64,
    rng: u64,
    loop_limit: u64,
    activation_limit: u64,
    /// Monitor statement state: (args, last rendering).
    monitors: Vec<(Vec<RTaskArg>, String)>,
    /// Count of process activations (profiling).
    pub activations: u64,
    /// Count of statements executed (profiling; drives the software-engine
    /// cost model).
    pub statements: u64,
    /// The process currently executing; self-writes do not rewake it
    /// (a process only reacts to events while suspended at its event
    /// control).
    current: Option<ProcId>,
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("top", &self.design.top)
            .field("time", &self.time)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Creates a simulator with all state at its declared initial values
    /// (zero when unspecified). Call [`Simulator::initialize`] to run
    /// `initial` blocks and settle combinational logic.
    pub fn new(design: Arc<Design>) -> Self {
        let n = design.vars.len();
        let mut values = Vec::with_capacity(n);
        let mut arrays = Vec::with_capacity(n);
        for info in &design.vars {
            if info.is_array() {
                values.push(Bits::zero(0));
                let init = Bits::zero(info.width);
                arrays.push(vec![init; info.array_len as usize]);
            } else {
                values.push(info.init.clone().unwrap_or_else(|| Bits::zero(info.width)));
                arrays.push(Vec::new());
            }
        }
        let mut sens_map: Vec<Vec<(ProcId, Option<Edge>)>> = vec![Vec::new(); n];
        for (i, p) in design.processes.iter().enumerate() {
            let pid = ProcId(i as u32);
            match p {
                Process::Assign { lhs, rhs } => {
                    let mut reads = Vec::new();
                    collect_reads(rhs, &mut reads);
                    lv_selector_reads(lhs, &mut reads);
                    reads.sort();
                    reads.dedup();
                    for v in reads {
                        sens_map[v.0 as usize].push((pid, None));
                    }
                }
                Process::Always { sens, .. } => {
                    for s in sens {
                        sens_map[s.var.0 as usize].push((pid, s.edge));
                    }
                }
                Process::Initial { .. } => {}
            }
        }
        Simulator {
            values,
            arrays,
            sens_map,
            active: VecDeque::new(),
            queued: vec![false; design.processes.len()],
            nb_updates: Vec::new(),
            events: Vec::new(),
            finished: false,
            time: 0,
            rng: word::RANDOM_SEED,
            loop_limit: DEFAULT_LOOP_LIMIT,
            activation_limit: DEFAULT_ACTIVATION_LIMIT,
            monitors: Vec::new(),
            design,
            activations: 0,
            statements: 0,
            current: None,
        }
    }

    /// The design being simulated.
    pub fn design(&self) -> &Arc<Design> {
        &self.design
    }

    /// Current simulation time (virtual clock ticks driven by [`tick`]).
    ///
    /// [`tick`]: Simulator::tick
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

    /// Overrides the per-settle activation budget used for combinational
    /// loop detection.
    pub fn set_activation_limit(&mut self, limit: u64) {
        self.activation_limit = limit;
    }

    /// Seeds `$random`.
    pub fn seed_random(&mut self, seed: u64) {
        self.rng = word::random_seed(seed);
    }

    /// Runs all `initial` blocks and continuous assignments to a fixed point
    /// (time zero).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on combinational loops or runaway processes.
    pub fn initialize(&mut self) -> Result<(), SimError> {
        // Activate all continuous assigns once so wires get defined values,
        // then all initial blocks.
        let design = Arc::clone(&self.design);
        for (i, p) in design.processes.iter().enumerate() {
            match p {
                Process::Assign { .. } | Process::Initial { .. } => self.schedule(ProcId(i as u32)),
                // Purely level-sensitive (combinational) blocks evaluate once
                // at time zero so their outputs are defined, matching
                // `always_comb` semantics and synthesized hardware.
                Process::Always { sens, .. } => {
                    if !sens.is_empty() && sens.iter().all(|s| s.edge.is_none()) {
                        self.schedule(ProcId(i as u32));
                    }
                }
            }
        }
        self.settle()
    }

    fn schedule(&mut self, pid: ProcId) {
        if !self.queued[pid.0 as usize] {
            self.queued[pid.0 as usize] = true;
            self.active.push_back(pid);
        }
    }

    /// Reads a scalar variable's current value.
    ///
    /// # Panics
    ///
    /// Panics if the name is unknown (use [`Design::var`] to test first).
    pub fn peek(&self, name: &str) -> Bits {
        let id = self
            .design
            .var(name)
            .unwrap_or_else(|| panic!("unknown variable `{name}`"));
        self.peek_id(id)
    }

    /// Reads a variable by id.
    pub fn peek_id(&self, id: VarId) -> Bits {
        self.values[id.0 as usize].clone()
    }

    /// Reads one word of a memory.
    pub fn peek_array(&self, id: VarId, index: u64) -> Bits {
        self.arrays[id.0 as usize]
            .get(index as usize)
            .cloned()
            .unwrap_or_else(|| Bits::zero(self.design.info(id).width))
    }

    /// Writes a memory word directly (used for state transfer and test
    /// setup); does not trigger events.
    pub fn poke_array(&mut self, id: VarId, index: u64, value: Bits) {
        let width = self.design.info(id).width;
        if let Some(slot) = self.arrays[id.0 as usize].get_mut(index as usize) {
            *slot = value.resize(width);
        }
    }

    /// Sets a variable and schedules its dependents (an external input
    /// change). Call [`Simulator::settle`] afterwards.
    pub fn poke(&mut self, name: &str, value: Bits) {
        let id = self
            .design
            .var(name)
            .unwrap_or_else(|| panic!("unknown variable `{name}`"));
        self.poke_id(id, value);
    }

    /// Sets a variable by id, scheduling dependents on change.
    pub fn poke_id(&mut self, id: VarId, value: Bits) {
        let width = self.design.info(id).width;
        self.write_word(id, 0, 0, &value.resize(width));
    }

    /// Forces a value without triggering events (state restoration).
    pub fn force(&mut self, id: VarId, value: Bits) {
        let width = self.design.info(id).width;
        self.values[id.0 as usize] = value.resize(width);
    }

    /// Drains accumulated side-effect events.
    pub fn drain_events(&mut self) -> Vec<SimEvent> {
        std::mem::take(&mut self.events)
    }

    /// Whether any events are pending.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// Runs evaluation/update phases until the event queues are empty — one
    /// "observable state" of the reference scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] if the activation budget is exhausted
    /// (combinational loop) or [`SimError::LoopLimit`] for runaway loops.
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
        // Monitors fire at observable states.
        self.run_monitors();
        Ok(())
    }

    /// Runs only the *evaluation* phase: active processes execute until the
    /// queue drains, but pending nonblocking updates are left unapplied.
    /// This is the `evaluate` half of the engine ABI (paper Fig. 7); pair
    /// it with [`Simulator::has_updates`] / [`Simulator::apply_updates`].
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

    /// Whether nonblocking updates are pending (the `there_are_updates`
    /// half of the engine ABI).
    pub fn has_updates(&self) -> bool {
        !self.nb_updates.is_empty()
    }

    /// Whether any evaluation events are active.
    pub fn has_evals(&self) -> bool {
        !self.active.is_empty()
    }

    /// Applies all pending nonblocking updates, activating any processes
    /// sensitive to the changed values (the `update` ABI call).
    pub fn apply_updates(&mut self) {
        let updates = std::mem::take(&mut self.nb_updates);
        for (var, word, offset, value) in updates {
            self.apply_write(var, word, offset, &value);
        }
    }

    /// Runs monitor statements against the current observable state (call
    /// at the end of a time step when driving phases manually).
    pub fn end_step(&mut self) {
        self.run_monitors();
    }

    /// Advances logical time by one tick (used by external drivers such as
    /// Cascade's engine scheduler, which owns the clock).
    pub fn advance_time(&mut self) {
        self.time += 1;
    }

    /// Re-evaluates all combinational logic (continuous assignments and
    /// level-sensitive blocks) after state has been overwritten with
    /// [`Simulator::force`], without generating edge events.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on combinational loops.
    pub fn resettle(&mut self) -> Result<(), SimError> {
        let design = Arc::clone(&self.design);
        for (i, p) in design.processes.iter().enumerate() {
            match p {
                Process::Assign { .. } => self.schedule(ProcId(i as u32)),
                Process::Always { sens, .. } => {
                    if !sens.is_empty() && sens.iter().all(|s| s.edge.is_none()) {
                        self.schedule(ProcId(i as u32));
                    }
                }
                Process::Initial { .. } => {}
            }
        }
        self.settle()
    }

    /// Advances one virtual clock cycle: raise `clk`, settle, lower `clk`,
    /// settle, advance time. This mirrors the paper's definition of a
    /// virtual tick as two scheduler iterations.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`Simulator::settle`].
    pub fn tick(&mut self, clk: &str) -> Result<(), SimError> {
        let id = self
            .design
            .var(clk)
            .unwrap_or_else(|| panic!("unknown clock `{clk}`"));
        self.tick_id(id)
    }

    /// [`Simulator::tick`] by variable id.
    pub fn tick_id(&mut self, clk: VarId) -> Result<(), SimError> {
        self.poke_id(clk, Bits::from_u64(1, 1));
        self.settle()?;
        self.poke_id(clk, Bits::from_u64(1, 0));
        self.settle()?;
        self.time += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    fn write_word(&mut self, var: VarId, word: u64, offset: u32, value: &Bits) {
        self.apply_write(var, word, offset, value);
    }

    fn apply_write(&mut self, var: VarId, word: u64, offset: u32, value: &Bits) {
        let vi = var.0 as usize;
        let info = &self.design.vars[vi];
        if info.is_array() {
            let Some(slot) = self.arrays[vi].get_mut(word as usize) else {
                return;
            };
            let mut next = slot.clone();
            next.splice(offset, value);
            if next != *slot {
                *slot = next;
                // Array reads are level-sensitive through the owning var.
                self.wake(var, false, false);
            }
            return;
        }
        let old = &self.values[vi];
        let mut next = old.clone();
        next.splice(offset, value);
        if next != *old {
            let rising = !old.bit(0) && next.bit(0);
            let falling = old.bit(0) && !next.bit(0);
            self.values[vi] = next;
            self.wake(var, rising, falling);
        }
    }

    fn wake(&mut self, var: VarId, rising: bool, falling: bool) {
        let deps = std::mem::take(&mut self.sens_map[var.0 as usize]);
        for &(pid, edge) in &deps {
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
        self.sens_map[var.0 as usize] = deps;
    }

    // ------------------------------------------------------------------
    // Process execution
    // ------------------------------------------------------------------

    fn run_process(&mut self, pid: ProcId) -> Result<(), SimError> {
        // Cheap Arc clone detaches the process borrow from `self`.
        let design = Arc::clone(&self.design);

        match &design.processes[pid.0 as usize] {
            // Continuous assignments are *not* masked against self-wake:
            // `assign a = ~a;` is a genuine combinational loop and must be
            // detected as such.
            Process::Assign { lhs, rhs } => {
                let width = lhs.width(&design.vars);
                let value = self.eval(rhs, width);
                self.assign(lhs, &value, false);
                Ok(())
            }
            // Procedural blocks only react to events while suspended at
            // their event control, so their own blocking writes must not
            // rewake them.
            Process::Always { body, .. } | Process::Initial { body } => {
                self.current = Some(pid);
                let mut budget = self.loop_limit;
                let r = self.exec(body, &mut budget);
                self.current = None;
                r
            }
        }
    }

    fn exec(&mut self, s: &RStmt, budget: &mut u64) -> Result<(), SimError> {
        if *budget == 0 {
            return Err(SimError::LoopLimit {
                limit: self.loop_limit,
            });
        }
        *budget -= 1;
        self.statements += 1;
        if self.finished {
            return Ok(());
        }
        match s {
            RStmt::Block(stmts) => {
                for st in stmts {
                    self.exec(st, budget)?;
                }
            }
            RStmt::Blocking { lhs, rhs } => {
                let width = lhs.width(&self.design.vars);
                let value = self.eval(rhs, width);
                self.assign(lhs, &value, false);
            }
            RStmt::NonBlocking { lhs, rhs } => {
                let width = lhs.width(&self.design.vars);
                let value = self.eval(rhs, width);
                self.assign(lhs, &value, true);
            }
            RStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond, 0).to_bool() {
                    self.exec(then_branch, budget)?;
                } else if let Some(e) = else_branch {
                    self.exec(e, budget)?;
                }
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
                let scr = self.eval(scrutinee, w);
                let mut matched = false;
                'arms: for arm in arms {
                    for label in &arm.labels {
                        let lv = self.eval(&label.value, w);
                        let hit = match (&label.care, kind) {
                            (Some(care), CaseKind::Casez | CaseKind::Casex) => {
                                let care = care.resize(w);
                                scr.and(&care).eq_value(&lv.and(&care))
                            }
                            // A masked literal in a plain `case` never
                            // matches in two-state mode (x/z bits compare
                            // unequal to 0/1).
                            (Some(_), CaseKind::Case) => false,
                            (None, _) => scr.eq_value(&lv),
                        };
                        if hit {
                            self.exec(&arm.body, budget)?;
                            matched = true;
                            break 'arms;
                        }
                    }
                }
                if !matched {
                    if let Some(d) = default {
                        self.exec(d, budget)?;
                    }
                }
            }
            RStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.exec(init, budget)?;
                while self.eval(cond, 0).to_bool() {
                    self.exec(body, budget)?;
                    self.exec(step, budget)?;
                    if *budget == 0 {
                        return Err(SimError::LoopLimit {
                            limit: self.loop_limit,
                        });
                    }
                    *budget -= 1;
                    if self.finished {
                        break;
                    }
                }
            }
            RStmt::While { cond, body } => {
                while self.eval(cond, 0).to_bool() {
                    self.exec(body, budget)?;
                    if *budget == 0 {
                        return Err(SimError::LoopLimit {
                            limit: self.loop_limit,
                        });
                    }
                    *budget -= 1;
                    if self.finished {
                        break;
                    }
                }
            }
            RStmt::Repeat { count, body } => {
                let n = self.eval(count, 0).to_u64();
                for _ in 0..n {
                    self.exec(body, budget)?;
                    if self.finished {
                        break;
                    }
                }
            }
            RStmt::SystemTask { task, args } => self.system_task(*task, args),
            RStmt::Null => {}
        }
        Ok(())
    }

    fn system_task(&mut self, task: SystemTask, args: &[RTaskArg]) {
        match task {
            SystemTask::Display => {
                let text = self.format_args(args);
                self.events.push(SimEvent::Display(text));
            }
            SystemTask::Write => {
                let text = self.format_args(args);
                self.events.push(SimEvent::Write(text));
            }
            SystemTask::Finish => {
                self.events.push(SimEvent::Finish);
                self.finished = true;
            }
            SystemTask::Fatal => {
                let text = self.format_args(args);
                self.events.push(SimEvent::Fatal(text));
                self.finished = true;
            }
            SystemTask::Monitor => {
                let rendered = self.format_args(args);
                self.events.push(SimEvent::Display(rendered.clone()));
                self.monitors.push((args.to_vec(), rendered));
            }
        }
    }

    fn run_monitors(&mut self) {
        if self.monitors.is_empty() {
            return;
        }
        let monitors = std::mem::take(&mut self.monitors);
        let mut next = Vec::with_capacity(monitors.len());
        for (args, last) in monitors {
            let now = self.format_args(&args);
            if now != last {
                self.events.push(SimEvent::Display(now.clone()));
            }
            next.push((args, now));
        }
        self.monitors = next;
    }

    /// Renders `$display`-style arguments: an optional leading format string
    /// followed by values.
    fn format_args(&mut self, args: &[RTaskArg]) -> String {
        match args.split_first() {
            None => String::new(),
            Some((RTaskArg::Str(fmt), rest)) => {
                let values: Vec<Bits> = rest
                    .iter()
                    .map(|a| match a {
                        RTaskArg::Expr(e) => self.eval(e, 0),
                        RTaskArg::Str(s) => {
                            // A bare string among values renders as itself.
                            let bytes = s.as_bytes();
                            let mut b = Bits::zero(bytes.len() as u32 * 8);
                            for (i, &byte) in bytes.iter().rev().enumerate() {
                                b.splice(i as u32 * 8, &Bits::from_u64(8, byte as u64));
                            }
                            b
                        }
                    })
                    .collect();
                format_verilog(fmt, &values)
            }
            Some(_) => {
                // No format string: print each value in decimal.
                args.iter()
                    .map(|a| match a {
                        RTaskArg::Expr(e) => {
                            let signed = e.signed;
                            let v = self.eval(e, 0);
                            if signed {
                                v.to_signed_decimal_string()
                            } else {
                                v.to_decimal_string()
                            }
                        }
                        RTaskArg::Str(s) => s.clone(),
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            }
        }
    }

    // ------------------------------------------------------------------
    // Assignment
    // ------------------------------------------------------------------

    fn assign(&mut self, lhs: &RLValue, value: &Bits, nonblocking: bool) {
        match lhs {
            RLValue::Var(var) => {
                let width = self.design.info(*var).width;
                self.emit_write(*var, 0, 0, value.resize(width), nonblocking);
            }
            RLValue::Range { var, offset, width } => {
                let off = self.eval(offset, 0).to_u64() as u32;
                self.emit_write(*var, 0, off, value.resize(*width), nonblocking);
            }
            RLValue::ArrayWord { var, index } => {
                let idx = self.eval(index, 0).to_u64();
                let width = self.design.info(*var).width;
                self.emit_write(*var, idx, 0, value.resize(width), nonblocking);
            }
            RLValue::ArrayWordRange {
                var,
                index,
                offset,
                width,
            } => {
                let idx = self.eval(index, 0).to_u64();
                let off = self.eval(offset, 0).to_u64() as u32;
                self.emit_write(*var, idx, off, value.resize(*width), nonblocking);
            }
            RLValue::Concat(parts) => {
                // Parts are MSB-first; distribute from the top.
                let total: u32 = parts.iter().map(|p| p.width(&self.design.vars)).sum();
                let mut hi = total;
                let parts = parts.clone();
                for p in &parts {
                    let w = p.width(&self.design.vars);
                    let piece = value.slice(hi - w, w);
                    self.assign(p, &piece, nonblocking);
                    hi -= w;
                }
            }
        }
    }

    fn emit_write(&mut self, var: VarId, word: u64, offset: u32, value: Bits, nonblocking: bool) {
        if nonblocking {
            self.nb_updates.push((var, word, offset, value));
        } else {
            self.apply_write(var, word, offset, &value);
        }
    }

    // ------------------------------------------------------------------
    // Expression evaluation
    // ------------------------------------------------------------------

    /// Evaluates `e` in a context of width `ctx` (0 = self-determined). The
    /// result has width `max(e.width, ctx)`.
    pub fn eval(&mut self, e: &RExpr, ctx: u32) -> Bits {
        let target = e.width.max(ctx);
        match &e.kind {
            RExprKind::Const(v) => extend(v, target, e.signed),
            RExprKind::Var(var) => {
                let v = &self.values[var.0 as usize];
                extend(v, target, e.signed)
            }
            RExprKind::ArrayWord { var, index } => {
                let idx = self.eval(index, 0).to_u64();
                let v = self.peek_array(*var, idx);
                extend(&v, target, e.signed)
            }
            RExprKind::Slice {
                base,
                offset,
                width,
            } => {
                let b = self.eval(base, 0);
                let off = self.eval(offset, 0).to_u64();
                let v = if off > u32::MAX as u64 {
                    Bits::zero(*width)
                } else {
                    b.slice(off as u32, *width)
                };
                extend(&v, target, false)
            }
            RExprKind::Unary { op, operand } => {
                let v = match op {
                    UnaryOp::Plus | UnaryOp::Neg | UnaryOp::BitNot => self.eval(operand, target),
                    _ => self.eval(operand, 0),
                };
                let r = cascade_verilog::typecheck::apply_unary(*op, &v);
                extend(&r, target, false)
            }
            RExprKind::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, target),
            RExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                if self.eval(cond, 0).to_bool() {
                    self.eval(then_expr, target)
                } else {
                    self.eval(else_expr, target)
                }
            }
            RExprKind::Concat(parts) => {
                let mut acc = Bits::zero(0);
                for p in parts {
                    let v = self.eval(p, 0);
                    acc = acc.concat(&v);
                }
                extend(&acc, target, false)
            }
            RExprKind::Repeat { count, inner } => {
                let v = self.eval(inner, 0);
                extend(&v.repeat(*count), target, false)
            }
            RExprKind::Time => extend(&Bits::from_u64(64, self.time), target, false),
            RExprKind::Random => {
                let v = word::random_next(&mut self.rng);
                extend(&Bits::from_u64(32, v), target, false)
            }
        }
    }

    fn eval_binary(&mut self, op: BinaryOp, lhs: &RExpr, rhs: &RExpr, target: u32) -> Bits {
        use BinaryOp::*;
        match op {
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Xnor => {
                let l = self.eval(lhs, target);
                let r = self.eval(rhs, target);
                let signed = lhs.signed && rhs.signed;
                let v = if op == Div && signed {
                    l.sdiv(&r)
                } else if op == Rem && signed {
                    l.srem(&r)
                } else {
                    cascade_verilog::typecheck::apply_binary(op, &l, &r)
                };
                v.resize(target)
            }
            Pow => {
                let l = self.eval(lhs, target);
                let r = self.eval(rhs, 0);
                l.pow(&r).resize(target)
            }
            Shl | AShl => {
                let l = self.eval(lhs, target);
                let amt = self.eval(rhs, 0).to_u64().min(u32::MAX as u64) as u32;
                l.shl(amt)
            }
            Shr => {
                let l = self.eval(lhs, target);
                let amt = self.eval(rhs, 0).to_u64().min(u32::MAX as u64) as u32;
                l.shr(amt)
            }
            AShr => {
                let l = self.eval(lhs, target);
                let amt = self.eval(rhs, 0).to_u64().min(u32::MAX as u64) as u32;
                if lhs.signed {
                    l.ashr(amt)
                } else {
                    l.shr(amt)
                }
            }
            LogicalAnd => {
                let l = self.eval(lhs, 0).to_bool();
                let r = self.eval(rhs, 0).to_bool();
                Bits::from_bool(l && r).resize(target.max(1))
            }
            LogicalOr => {
                let l = self.eval(lhs, 0).to_bool();
                let r = self.eval(rhs, 0).to_bool();
                Bits::from_bool(l || r).resize(target.max(1))
            }
            Eq | Ne | CaseEq | CaseNe | Lt | Le | Gt | Ge => {
                let w = lhs.width.max(rhs.width);
                let signed = lhs.signed && rhs.signed;
                let l = self.eval_extended(lhs, w, signed);
                let r = self.eval_extended(rhs, w, signed);
                let ord = if signed {
                    l.cmp_signed(&r)
                } else {
                    l.cmp_unsigned(&r)
                };
                let b = match op {
                    Eq | CaseEq => ord == Ordering::Equal,
                    Ne | CaseNe => ord != Ordering::Equal,
                    Lt => ord == Ordering::Less,
                    Le => ord != Ordering::Greater,
                    Gt => ord == Ordering::Greater,
                    Ge => ord != Ordering::Less,
                    _ => unreachable!(),
                };
                Bits::from_bool(b).resize(target.max(1))
            }
        }
    }

    fn eval_extended(&mut self, e: &RExpr, width: u32, signed: bool) -> Bits {
        let v = self.eval(e, 0);
        if signed && e.signed {
            v.resize_signed(width)
        } else {
            v.resize(width)
        }
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

pub(crate) fn extend(v: &Bits, target: u32, signed: bool) -> Bits {
    if target == 0 || target == v.width() {
        return v.clone();
    }
    if signed {
        v.resize_signed(target)
    } else {
        v.resize(target)
    }
}

/// Formats values with Verilog `$display` conversion specifiers
/// (`%d %h %x %b %o %c %s %0d %t %%`).
pub fn format_verilog(fmt: &str, values: &[Bits]) -> String {
    let mut out = String::with_capacity(fmt.len() + 16);
    let mut vi = 0;
    let empty = Bits::default();
    let mut chars = fmt.chars().peekable();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        // Optional zero / width prefix, e.g. %0d, %08h.
        let mut pad = String::new();
        while matches!(chars.peek(), Some(d) if d.is_ascii_digit()) {
            pad.push(chars.next().expect("digit"));
        }
        let Some(spec) = chars.next() else {
            out.push('%');
            break;
        };
        if spec == '%' {
            out.push('%');
            continue;
        }
        let value = values.get(vi).unwrap_or(&empty);
        vi += 1;
        let rendered = match spec.to_ascii_lowercase() {
            'd' => value.to_decimal_string(),
            'h' | 'x' => value.to_hex_string(),
            'b' => value.to_binary_string(),
            'o' => value.to_octal_string(),
            't' => value.to_decimal_string(),
            'c' => char::from_u32(value.to_u64() as u32 & 0x7f)
                .unwrap_or('?')
                .to_string(),
            's' => {
                // Interpret as packed ASCII, MSB first.
                let mut s = String::new();
                let bytes = value.width().div_ceil(8);
                for i in (0..bytes).rev() {
                    let byte = value.slice(i * 8, 8).to_u64() as u8;
                    if byte != 0 {
                        s.push(byte as char);
                    }
                }
                s
            }
            other => {
                out.push('%');
                out.push(other);
                continue;
            }
        };
        // Apply zero padding if requested (e.g. %08h).
        if let Some(stripped) = pad.strip_prefix('0') {
            if let Ok(w) = stripped.parse::<usize>() {
                for _ in rendered.len()..w {
                    out.push('0');
                }
            }
        }
        out.push_str(&rendered);
    }
    out
}
