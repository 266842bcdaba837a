//! Bit-parallel batch simulation: one compiled netlist evaluated over
//! many independent stimulus vectors at once.
//!
//! The scalar evaluator gives every net a run of u64 words in one arena.
//! The batch engine widens each of those words into a *lane group* of `W`
//! consecutive words (lane-major: scalar word offset `o`, lane `l` lives
//! at `o·W + l`), so a single instruction dispatch evaluates `W`
//! independent vectors — up to 64·W stimulus bits per kernel for one-bit
//! nets. Kernels are matched once per instruction and run tight per-lane
//! loops (`crate::exec::exec_lanes`): the logic ops vectorize trivially,
//! and the arithmetic/compare/select/Lookup loops are simple enough for
//! the compiler to auto-vectorize.
//!
//! Scheduling stays activity-driven with a batch-aware dirty rule: an
//! instruction's consumers are queued when *any* lane changed, so all
//! lanes advance through the same worklists and the per-instruction
//! dispatch cost is amortized across the whole group. Sequential
//! semantics are preserved per lane — task firings sample pre-edge
//! values, a lane's `$finish` edge discards that lane's pending commits
//! and freezes its registers, and the remaining lanes keep running.

use crate::eval::{build_profile_report, NlProfileReport, TaskFire};
use crate::exec::{
    exec_lanes, slot_bits_lane, top_word_mask, write_slot_lane, NlProfileState, Program,
    ProgramStats, Slot,
};
use crate::ir::*;
use crate::level::LevelError;
use cascade_bits::Bits;
use std::sync::Arc;

/// Hard cap on the lane count (arena size scales linearly with it).
pub const MAX_BATCH_LANES: u32 = 4096;

/// Lane-major mutable state over a [`Program`] — the batched counterpart
/// of the scalar `State`.
#[derive(Debug, Clone)]
struct BatchState {
    lanes: usize,
    /// `prog.arena_words * lanes` words, lane-major.
    arena: Vec<u64>,
    /// `prog.mem_arena_words * lanes` words, lane-major.
    mem_arena: Vec<u64>,
    /// Per-level dirty worklists (an instruction is dirty if any lane of
    /// any operand changed).
    queues: Vec<Vec<u32>>,
    queued: Vec<bool>,
    /// Register-sample buffer for two-phase commits, lane-major.
    scratch: Vec<u64>,
    profile: Option<Box<NlProfileState>>,
}

impl BatchState {
    fn new(nl: &Netlist, prog: &Program, lanes: usize) -> BatchState {
        let mut st = BatchState {
            lanes,
            arena: vec![0u64; prog.arena_words as usize * lanes],
            mem_arena: vec![0u64; prog.mem_arena_words as usize * lanes],
            queues: (0..prog.num_levels).map(|_| Vec::new()).collect(),
            queued: vec![false; prog.instrs.len()],
            scratch: vec![
                0u64;
                prog.domains
                    .iter()
                    .map(|d| d.scratch_words)
                    .max()
                    .unwrap_or(0) as usize
                    * lanes
            ],
            profile: None,
        };
        st.init(nl, prog);
        st
    }

    /// (Re)writes constants and register initial values into every lane
    /// and queues a full settle.
    fn init(&mut self, nl: &Netlist, prog: &Program) {
        self.arena.fill(0);
        self.mem_arena.fill(0);
        for q in &mut self.queues {
            q.clear();
        }
        self.queued.fill(false);
        for (i, net) in nl.nets.iter().enumerate() {
            match &net.def {
                Def::Const(c) => {
                    self.write_slot_all(prog.slots[i], &c.resize(net.width));
                }
                Def::Reg(r) => {
                    self.write_slot_all(
                        prog.slots[i],
                        &nl.regs[r.0 as usize].init.resize(net.width),
                    );
                }
                _ => {}
            }
        }
        self.mark_all(prog);
        self.settle_auto(prog);
    }

    fn mark_all(&mut self, prog: &Program) {
        for i in 0..prog.instrs.len() as u32 {
            if !self.queued[i as usize] {
                self.queued[i as usize] = true;
                self.queues[prog.level[i as usize] as usize].push(i);
            }
        }
    }

    #[inline]
    fn mark(&mut self, prog: &Program, net: u32) {
        for &i in prog.fanout[net as usize].iter() {
            if !self.queued[i as usize] {
                self.queued[i as usize] = true;
                self.queues[prog.level[i as usize] as usize].push(i);
            }
        }
    }

    fn mark_mem(&mut self, prog: &Program, mem: u32) {
        for &i in prog.mem_fanout[mem as usize].iter() {
            if !self.queued[i as usize] {
                self.queued[i as usize] = true;
                self.queues[prog.level[i as usize] as usize].push(i);
            }
        }
    }

    /// Writes the same value into every lane of a slot.
    fn write_slot_all(&mut self, slot: Slot, value: &Bits) -> bool {
        let src = value.words();
        let mut changed = false;
        for k in 0..slot.words as usize {
            let w = src.get(k).copied().unwrap_or(0);
            let base = (slot.off as usize + k) * self.lanes;
            for d in &mut self.arena[base..base + self.lanes] {
                changed |= *d != w;
                *d = w;
            }
        }
        changed
    }

    fn write_lane(&mut self, slot: Slot, lane: usize, value: &Bits) -> bool {
        debug_assert!(lane < self.lanes);
        // SAFETY: slots are in-bounds by construction and the arena holds
        // `lanes` words per program word.
        unsafe { write_slot_lane(self.arena.as_mut_ptr(), self.lanes, lane, slot, value) }
    }

    fn read_lane(&self, slot: Slot, lane: usize) -> Bits {
        debug_assert!(lane < self.lanes);
        // SAFETY: as `write_lane`.
        unsafe { slot_bits_lane(self.arena.as_ptr(), self.lanes, lane, slot) }
    }

    /// Whether a slot holds any set bit in the given lane.
    fn bool_lane(&self, slot: Slot, lane: usize) -> bool {
        (0..slot.words as usize)
            .any(|k| self.arena[(slot.off as usize + k) * self.lanes + lane] != 0)
    }

    /// Sparse settle: drains the worklists level by level; a changed
    /// output (in any lane) queues its consumers.
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
                // SAFETY: arenas are sized `lanes` words per program word;
                // `i` comes from the worklist.
                let changed = unsafe {
                    exec_lanes(
                        prog,
                        self.arena.as_mut_ptr(),
                        self.mem_arena.as_ptr(),
                        self.lanes,
                        i,
                    )
                };
                if let Some(p) = &mut self.profile {
                    p.instr_execs[i as usize] += 1;
                    p.instr_tracked[i as usize] += 1;
                    p.instr_changes[i as usize] += changed as u64;
                }
                if changed > 0 {
                    self.mark(prog, prog.instrs[i as usize].out);
                }
            }
            q.clear();
            debug_assert!(self.queues[lvl].is_empty());
            self.queues[lvl] = q;
        }
        if let Some(p) = &mut self.profile {
            p.settles += 1;
        }
    }

    /// Dense settle: recomputes every instruction in topological order.
    fn settle_dense(&mut self, prog: &Program) {
        if let Some(p) = &mut self.profile {
            for (i, lvl) in prog.level.iter().enumerate() {
                p.instr_execs[i] += 1;
                p.level_execs[*lvl as usize] += 1;
            }
            p.settles += 1;
        }
        for q in &mut self.queues {
            for &i in q.iter() {
                self.queued[i as usize] = false;
            }
            q.clear();
        }
        if self.profile.is_some() {
            for i in 0..prog.instrs.len() as u32 {
                // SAFETY: as in `settle`.
                let changed = unsafe {
                    exec_lanes(
                        prog,
                        self.arena.as_mut_ptr(),
                        self.mem_arena.as_ptr(),
                        self.lanes,
                        i,
                    )
                };
                if let Some(p) = &mut self.profile {
                    p.instr_tracked[i as usize] += 1;
                    p.instr_changes[i as usize] += changed as u64;
                }
            }
        } else {
            for i in 0..prog.instrs.len() as u32 {
                // SAFETY: as in `settle`.
                unsafe {
                    exec_lanes(
                        prog,
                        self.arena.as_mut_ptr(),
                        self.mem_arena.as_ptr(),
                        self.lanes,
                        i,
                    )
                };
            }
        }
    }

    fn wave_is_dense(&self, prog: &Program) -> bool {
        let seeded: usize = self.queues.iter().map(Vec::len).sum();
        seeded * 4 >= prog.instrs.len() && !prog.instrs.is_empty()
    }

    fn settle_auto(&mut self, prog: &Program) {
        if self.wave_is_dense(prog) {
            self.settle_dense(prog);
        } else {
            self.settle(prog);
        }
    }

    fn write_mem_lane(
        &mut self,
        prog: &Program,
        mem: u32,
        addr: u64,
        value: &Bits,
        lane: usize,
        mark: bool,
    ) {
        let m = prog.mems[mem as usize];
        if addr >= m.count {
            return;
        }
        let v = value.resize(m.width);
        let base = (m.off + addr as u32 * m.words_per) as usize;
        let src = v.words();
        let mut changed = false;
        for k in 0..m.words_per as usize {
            let w = src.get(k).copied().unwrap_or(0);
            let d = &mut self.mem_arena[(base + k) * self.lanes + lane];
            if mark {
                changed |= *d != w;
            }
            *d = w;
        }
        if changed {
            self.mark_mem(prog, mem);
        }
    }

    /// Commits one domain's registers and memory writes per lane, skipping
    /// the lanes flagged in `skip` (finished lanes: a `$finish` edge
    /// discards its commits and the lane's registers stay frozen). With
    /// `mark` off, no change detection or consumer queueing is performed —
    /// only valid when the next settle is a dense pass.
    fn commit_domain(&mut self, prog: &Program, domain: usize, skip: &[bool], mark: bool) {
        let Some(plan) = prog.domains.get(domain) else {
            return;
        };
        let lanes = self.lanes;
        // Phase 1: sample every register's d words (all lanes — skipping
        // is applied at writeback) and the enabled write ports per lane.
        for rc in plan.small.iter().chain(&plan.regs) {
            let src = rc.d.off as usize * lanes;
            let dst = rc.scratch as usize * lanes;
            let words = rc.d.words as usize * lanes;
            self.scratch[dst..dst + words].copy_from_slice(&self.arena[src..src + words]);
        }
        let mut writes: Vec<(u32, u64, Bits, usize)> = Vec::new();
        for pc in &plan.ports {
            for (lane, &skipped) in skip.iter().enumerate().take(lanes) {
                if skipped || !self.bool_lane(pc.enable, lane) {
                    continue;
                }
                let addr = self.arena[pc.addr as usize * lanes + lane];
                let data = self.read_lane(pc.data, lane);
                writes.push((pc.mem, addr, data, lane));
            }
        }
        // Phase 2: write back.
        for rc in &plan.small {
            let topmask = top_word_mask(rc.q.width);
            let s = rc.scratch as usize * lanes;
            let q = rc.q.off as usize * lanes;
            let mut changed = false;
            for (lane, &skipped) in skip.iter().enumerate().take(lanes) {
                if skipped {
                    continue;
                }
                let v = self.scratch[s + lane] & topmask;
                let d = &mut self.arena[q + lane];
                if mark {
                    changed |= *d != v;
                }
                *d = v;
            }
            if changed {
                self.mark(prog, rc.q_net);
            }
        }
        for rc in &plan.regs {
            let q_off = rc.q.off as usize;
            let q_words = rc.q.words as usize;
            let d_words = rc.d.words as usize;
            let topmask = top_word_mask(rc.q.width);
            let mut changed = false;
            for k in 0..q_words {
                for (lane, &skipped) in skip.iter().enumerate().take(lanes) {
                    if skipped {
                        continue;
                    }
                    let mut v = if k < d_words {
                        self.scratch[(rc.scratch as usize + k) * lanes + lane]
                    } else {
                        0
                    };
                    if k == q_words - 1 {
                        v &= topmask;
                    }
                    let d = &mut self.arena[(q_off + k) * lanes + lane];
                    if mark {
                        changed |= *d != v;
                    }
                    *d = v;
                }
            }
            if changed {
                self.mark(prog, rc.q_net);
            }
        }
        for (mem, addr, data, lane) in writes {
            self.write_mem_lane(prog, mem, addr, &data, lane, mark);
        }
    }
}

/// Batched evaluator: `W` independent stimulus vectors ("lanes") through
/// one compiled netlist, one kernel dispatch per instruction for the
/// whole group.
///
/// Each lane behaves exactly like a private [`NetlistSim`]: inputs are
/// loaded per lane, task firings are attributed to their lane, and a
/// lane's `$finish` stops that lane (its registers freeze, its commits
/// stop) while the others keep running. The property suite proves every
/// lane bit-identical to a sequential single-vector run.
///
/// [`NetlistSim`]: crate::NetlistSim
///
/// # Examples
///
/// ```
/// use cascade_netlist::{synthesize, BatchHarness};
/// use cascade_sim::{elaborate, library_from_source};
/// use cascade_bits::Bits;
///
/// let lib = library_from_source(
///     "module Sq(input wire clk, input wire [7:0] a, output wire [15:0] o);\n\
///      reg [15:0] r = 0;\n\
///      always @(posedge clk) r <= a * a;\n\
///      assign o = r;\nendmodule",
/// )?;
/// let design = elaborate("Sq", &lib, &Default::default())?;
/// let netlist = synthesize(&design)?;
/// let mut batch = BatchHarness::new(netlist.into(), 4)?;
/// for lane in 0..4 {
///     batch.set_lane_by_name("a", lane, Bits::from_u64(8, 3 + lane as u64));
/// }
/// batch.run_cycles(1);
/// assert_eq!(batch.get_lane_by_name("o", 2).unwrap().to_u64(), 25);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BatchHarness {
    nl: Arc<Netlist>,
    prog: Arc<Program>,
    st: BatchState,
    /// `(lane, firing)` in observation order (edges ascending; within an
    /// edge, task plan order then lane order).
    tasks: Vec<(u32, TaskFire)>,
    finished: Vec<bool>,
    /// Snapshot of `finished` at the start of the current edge (a task
    /// that fires `$finish` does not suppress later tasks of that edge).
    pre_finished: Vec<bool>,
    all_finished: bool,
    /// Edges executed per lane (a lane stops counting once finished).
    lane_cycles: Vec<u64>,
    /// Harness edges executed (max over lanes).
    cycles: u64,
}

impl BatchHarness {
    /// Compiles `nl` and allocates a `lanes`-wide arena. `lanes` is
    /// clamped to `1..=MAX_BATCH_LANES`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelError`] when the netlist has a combinational cycle.
    pub fn new(nl: Arc<Netlist>, lanes: u32) -> Result<Self, LevelError> {
        let lanes = lanes.clamp(1, MAX_BATCH_LANES) as usize;
        let prog = Arc::new(Program::compile(&nl)?);
        let st = BatchState::new(&nl, &prog, lanes);
        Ok(BatchHarness {
            nl,
            prog,
            st,
            tasks: Vec::new(),
            finished: vec![false; lanes],
            pre_finished: vec![false; lanes],
            all_finished: false,
            lane_cycles: vec![0; lanes],
            cycles: 0,
        })
    }

    /// Number of lanes (stimulus vectors per dispatch).
    pub fn lanes(&self) -> u32 {
        self.st.lanes as u32
    }

    /// The netlist being executed.
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.nl
    }

    /// Size counters of the compiled program.
    pub fn program_stats(&self) -> ProgramStats {
        self.prog.stats()
    }

    /// Resets every lane to power-on state (registers at init values,
    /// memories zeroed, no pending tasks), keeping the compiled program.
    /// Cheaper than rebuilding the harness when grading a corpus chunk by
    /// chunk.
    pub fn reset(&mut self) {
        let (nl, prog) = (Arc::clone(&self.nl), Arc::clone(&self.prog));
        self.st.init(&nl, &prog);
        self.tasks.clear();
        self.finished.fill(false);
        self.pre_finished.fill(false);
        self.all_finished = false;
        self.lane_cycles.fill(0);
        self.cycles = 0;
    }

    /// Switches on activity profiling (see [`NetlistSim::enable_profiling`]).
    ///
    /// [`NetlistSim::enable_profiling`]: crate::NetlistSim::enable_profiling
    pub fn enable_profiling(&mut self) {
        if self.st.profile.is_none() {
            self.st.profile = Some(Box::new(NlProfileState {
                level_execs: vec![0; self.prog.num_levels as usize],
                instr_execs: vec![0; self.prog.instrs.len()],
                instr_changes: vec![0; self.prog.instrs.len()],
                instr_tracked: vec![0; self.prog.instrs.len()],
                settles: 0,
                lanes: self.st.lanes as u32,
            }));
        }
    }

    /// Aggregated activity counters, or `None` when profiling was never
    /// enabled. Includes per-kernel lane occupancy.
    pub fn profile_report(&self) -> Option<NlProfileReport> {
        let p = self.st.profile.as_deref()?;
        Some(build_profile_report(&self.nl, &self.prog, p))
    }

    /// Sets one lane of an input net. Propagation is deferred to the next
    /// step/read, so loading all lanes costs one settle, not `W`.
    pub fn set_lane(&mut self, net: NetId, lane: u32, value: Bits) {
        let slot = self.prog.slots[net.0 as usize];
        let v = value.resize(slot.width);
        if self.st.write_lane(slot, lane as usize, &v) {
            let prog = Arc::clone(&self.prog);
            self.st.mark(&prog, net.0);
        }
    }

    /// Sets one lane of an input by port name.
    ///
    /// # Panics
    ///
    /// Panics if no net has this name.
    pub fn set_lane_by_name(&mut self, name: &str, lane: u32, value: Bits) {
        let net = self
            .nl
            .net_by_name(name)
            .unwrap_or_else(|| panic!("unknown net `{name}`"));
        self.set_lane(net, lane, value);
    }

    /// Sets every lane of an input net to the same value.
    pub fn set_all(&mut self, net: NetId, value: Bits) {
        let slot = self.prog.slots[net.0 as usize];
        let v = value.resize(slot.width);
        if self.st.write_slot_all(slot, &v) {
            let prog = Arc::clone(&self.prog);
            self.st.mark(&prog, net.0);
        }
    }

    /// Sets every lane of an input by port name.
    ///
    /// # Panics
    ///
    /// Panics if no net has this name.
    pub fn set_all_by_name(&mut self, name: &str, value: Bits) {
        let net = self
            .nl
            .net_by_name(name)
            .unwrap_or_else(|| panic!("unknown net `{name}`"));
        self.set_all(net, value);
    }

    /// Reads one lane of a net, settling any deferred input writes first.
    pub fn get_lane(&mut self, net: NetId, lane: u32) -> Bits {
        let prog = Arc::clone(&self.prog);
        self.st.settle_auto(&prog);
        self.st
            .read_lane(self.prog.slots[net.0 as usize], lane as usize)
    }

    /// Reads one lane of a net by name.
    pub fn get_lane_by_name(&mut self, name: &str, lane: u32) -> Option<Bits> {
        let net = self.nl.net_by_name(name)?;
        Some(self.get_lane(net, lane))
    }

    /// Whether a lane's `$finish` has fired.
    pub fn is_finished(&self, lane: u32) -> bool {
        self.finished[lane as usize]
    }

    /// Whether every lane has finished.
    pub fn all_finished(&self) -> bool {
        self.all_finished
    }

    /// Edges executed by a lane (stops at its `$finish` edge).
    pub fn lane_cycles(&self, lane: u32) -> u64 {
        self.lane_cycles[lane as usize]
    }

    /// Harness edges executed (max over lanes).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Drains task firings observed so far, tagged with their lane.
    pub fn drain_tasks(&mut self) -> Vec<(u32, TaskFire)> {
        std::mem::take(&mut self.tasks)
    }

    /// Executes one edge of the given clock domain across all live lanes.
    pub fn step_clock(&mut self, clock_index: u32) {
        if self.all_finished {
            return;
        }
        let prog = Arc::clone(&self.prog);
        self.st.settle_auto(&prog);
        self.fire_tasks(&prog, clock_index);
        self.st
            .commit_domain(&prog, clock_index as usize, &self.finished, true);
        self.bump_cycles();
        self.st.settle_auto(&prog);
    }

    /// Runs up to `n` edges of clock domain 0, stopping early when every
    /// lane has finished. Returns the number of edges executed. Uses the
    /// same dense-commit streak batching as [`NetlistSim::run_cycles`].
    ///
    /// [`NetlistSim::run_cycles`]: crate::NetlistSim::run_cycles
    pub fn run_cycles(&mut self, n: u64) -> u64 {
        let prog = Arc::clone(&self.prog);
        const PROBE: u64 = 64;
        let mut dense_left = 0u64;
        let mut done = 0;
        while done < n && !self.all_finished {
            if dense_left > 0 {
                self.st.settle_dense(&prog);
            } else if self.st.wave_is_dense(&prog) {
                self.st.settle_dense(&prog);
                dense_left = PROBE;
            } else {
                self.st.settle(&prog);
            }
            self.fire_tasks(&prog, 0);
            if self.all_finished {
                self.bump_cycles();
                done += 1;
                break;
            }
            if dense_left > 1 {
                self.st.commit_domain(&prog, 0, &self.finished, false);
                dense_left -= 1;
            } else {
                self.st.commit_domain(&prog, 0, &self.finished, true);
                dense_left = 0;
            }
            self.bump_cycles();
            done += 1;
        }
        if dense_left > 0 {
            self.st.settle_dense(&prog);
        } else {
            self.st.settle_auto(&prog);
        }
        done
    }

    /// Samples one domain's task triggers per live lane at their pre-edge
    /// values. A lane finishing on this edge still observes the remaining
    /// tasks of the edge (matching the sequential engine), then stops.
    fn fire_tasks(&mut self, prog: &Program, clock_index: u32) {
        let Some(plan) = prog.domains.get(clock_index as usize) else {
            return;
        };
        let nl = Arc::clone(&self.nl);
        self.pre_finished.copy_from_slice(&self.finished);
        for &ti in &plan.tasks {
            let task = &nl.tasks[ti as usize];
            let trigger = prog.slots[task.trigger.0 as usize];
            for lane in 0..self.st.lanes {
                if self.pre_finished[lane] || !self.st.bool_lane(trigger, lane) {
                    continue;
                }
                let args: Vec<Bits> = task
                    .args
                    .iter()
                    .map(|a| self.st.read_lane(prog.slots[a.0 as usize], lane))
                    .collect();
                let text = match (&task.format, task.kind) {
                    (_, TaskKind::Finish) => String::new(),
                    (Some(f), _) => cascade_sim::format_verilog(f, &args),
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
                };
                if matches!(task.kind, TaskKind::Finish | TaskKind::Fatal) {
                    self.finished[lane] = true;
                }
                self.tasks.push((
                    lane as u32,
                    TaskFire {
                        kind: task.kind,
                        text,
                    },
                ));
            }
        }
        self.all_finished = self.finished.iter().all(|&f| f);
    }

    /// Advances the edge counters: every lane live at the edge's start
    /// counts it (a finishing edge is a lane's last counted edge).
    fn bump_cycles(&mut self) {
        for (lc, &pre) in self.lane_cycles.iter_mut().zip(&self.pre_finished) {
            *lc += (!pre) as u64;
        }
        self.cycles += 1;
    }
}
