//! Bit-parallel batch simulation: one compiled netlist evaluated over
//! many independent stimulus vectors at once.
//!
//! [`BatchHarness`] is a thin facade over the runtime-width instance of
//! `crate::exec::State`, the same kernels, dirty scheduler, commit and run
//! loop [`NetlistSim`](crate::NetlistSim) runs at one lane. Every arena
//! word becomes a *lane group* of `W` consecutive words, so a single
//! instruction dispatch evaluates `W` independent vectors — up to 64·W
//! stimulus bits per kernel for one-bit nets.
//!
//! An instruction's consumers are queued when *any* lane changed, so all
//! lanes advance through the same worklists and the per-instruction
//! dispatch cost is amortized across the whole group. Sequential
//! semantics are preserved per lane — task firings sample pre-edge
//! values, a lane's `$finish` edge discards that lane's pending commits
//! and freezes its registers, and the remaining lanes keep running.

use crate::eval::{build_profile_report, NlProfileReport, TaskFire};
use crate::exec::{Isa, Program, ProgramStats, State, Wide};
use crate::ir::*;
use crate::level::LevelError;
use cascade_bits::Bits;
use std::sync::Arc;

/// Hard cap on the lane count (arena size scales linearly with it).
pub const MAX_BATCH_LANES: u32 = 4096;

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
    st: State<Wide>,
}

impl BatchHarness {
    /// Compiles `nl` and allocates a `lanes`-wide arena. `lanes` is
    /// clamped to `1..=MAX_BATCH_LANES`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelError`] when the netlist has a combinational cycle.
    pub fn new(nl: Arc<Netlist>, lanes: u32) -> Result<Self, LevelError> {
        Self::on(nl, lanes, Isa::host())
    }

    /// [`BatchHarness::new`] with the kernels compiled for `isa`, which
    /// this host must run.
    fn on(nl: Arc<Netlist>, lanes: u32, isa: Isa) -> Result<Self, LevelError> {
        let lanes = lanes.clamp(1, MAX_BATCH_LANES) as usize;
        let prog = Arc::new(Program::compile(&nl)?);
        let st = State::new(&nl, &prog, Wide::new(lanes, isa));
        Ok(BatchHarness { nl, prog, st })
    }

    /// Number of lanes (stimulus vectors per dispatch).
    pub fn lanes(&self) -> u32 {
        self.st.lanes() as u32
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
        self.st.reset(&self.nl, &self.prog);
    }

    /// Switches on activity profiling (see [`NetlistSim::enable_profiling`]).
    ///
    /// [`NetlistSim::enable_profiling`]: crate::NetlistSim::enable_profiling
    pub fn enable_profiling(&mut self) {
        self.st.enable_profiling(&self.prog);
    }

    /// Aggregated activity counters, or `None` when profiling was never
    /// enabled. Includes per-kernel lane occupancy.
    pub fn profile_report(&self) -> Option<NlProfileReport> {
        let p = self.st.profile()?;
        Some(build_profile_report(&self.nl, &self.prog, p))
    }

    /// Sets one lane of an input net. Propagation is deferred to the next
    /// step/read, so loading all lanes costs one settle, not `W`.
    pub fn set_lane(&mut self, net: NetId, lane: u32, value: Bits) {
        let slot = self.prog.slots[net.0 as usize];
        if self
            .st
            .write_lane(slot, lane as usize, &value.resize(slot.width))
        {
            self.st.mark(&self.prog, net.0);
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
        if self.st.write_all(slot, &value.resize(slot.width)) {
            self.st.mark(&self.prog, net.0);
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

    /// Reads one lane of a net, settling any deferred input writes and
    /// edge commits first.
    pub fn get_lane(&mut self, net: NetId, lane: u32) -> Bits {
        self.st.settle_auto(&self.prog);
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
        self.st.finished[lane as usize]
    }

    /// Whether every lane has finished.
    pub fn all_finished(&self) -> bool {
        self.st.all_finished
    }

    /// Edges executed by a lane (stops at its `$finish` edge).
    pub fn lane_cycles(&self, lane: u32) -> u64 {
        self.st.lane_cycles[lane as usize]
    }

    /// Harness edges executed (max over lanes).
    pub fn cycles(&self) -> u64 {
        self.st.cycles
    }

    /// Drains task firings observed so far, tagged with their lane.
    pub fn drain_tasks(&mut self) -> Vec<(u32, TaskFire)> {
        std::mem::take(&mut self.st.tasks)
    }

    /// Executes one edge of the given clock domain across all live lanes.
    /// The commit propagates at the next edge or read ([`get_lane`]
    /// settles first), so a lockstep loop pays one settle per edge.
    ///
    /// [`get_lane`]: BatchHarness::get_lane
    pub fn step_clock(&mut self, clock_index: u32) {
        self.st.step_clock(&self.nl, &self.prog, clock_index);
    }

    /// Runs up to `n` edges of clock domain 0, stopping early when every
    /// lane has finished. Returns the number of edges executed. This is
    /// [`NetlistSim::run_cycles`] with no task budget.
    ///
    /// [`NetlistSim::run_cycles`]: crate::NetlistSim::run_cycles
    pub fn run_cycles(&mut self, n: u64) -> u64 {
        self.st.run_cycles(&self.nl, &self.prog, n, usize::MAX)
    }
}

#[cfg(test)]
mod tests;
