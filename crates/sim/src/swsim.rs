//! Backend dispatch for the software engine: the tree-walking
//! [`Simulator`] (the semantic oracle) or the bytecode [`CompiledSim`],
//! behind one enum so `SwEngine` and the runtime select a backend with a
//! config knob and everything downstream stays untouched.

use crate::elaborate::Design;
use crate::exec::CompiledSim;
use crate::rir::VarId;
use crate::sim::{SimError, SimEvent, Simulator};
use cascade_bits::Bits;
use std::sync::Arc;

/// A software simulation backend: same design, same observable semantics,
/// different execution strategy.
pub enum SwSim {
    /// The recursive tree-walking interpreter.
    Tree(Simulator),
    /// The compiled bytecode executor.
    Compiled(CompiledSim),
}

macro_rules! delegate {
    ($self:ident, $sim:ident => $body:expr) => {
        match $self {
            SwSim::Tree($sim) => $body,
            SwSim::Compiled($sim) => $body,
        }
    };
}

impl SwSim {
    /// Creates a backend of the requested flavor over `design`.
    pub fn new(design: Arc<Design>, compiled: bool) -> SwSim {
        if compiled {
            SwSim::Compiled(CompiledSim::new(design))
        } else {
            SwSim::Tree(Simulator::new(design))
        }
    }

    /// `"compiled"` or `"tree"` (stats and log lines).
    pub fn backend_name(&self) -> &'static str {
        match self {
            SwSim::Tree(_) => "tree",
            SwSim::Compiled(_) => "compiled",
        }
    }

    /// Switches on execution profiling (compiled backend only; the tree
    /// interpreter has no bytecode to attribute and ignores this).
    pub fn enable_profiling(&mut self) {
        if let SwSim::Compiled(c) = self {
            c.enable_profiling();
        }
    }

    /// The collected execution profile, if profiling is enabled.
    pub fn profile_report(&self) -> Option<crate::SwProfileReport> {
        match self {
            SwSim::Compiled(c) => c.profile_report(),
            SwSim::Tree(_) => None,
        }
    }

    /// The design being simulated.
    pub fn design(&self) -> &Arc<Design> {
        delegate!(self, s => s.design())
    }

    /// Process activations so far (profiling; drives the cost model).
    #[inline]
    pub fn activations(&self) -> u64 {
        delegate!(self, s => s.activations)
    }

    /// Statements executed so far (profiling; drives the cost model).
    #[inline]
    pub fn statements(&self) -> u64 {
        delegate!(self, s => s.statements)
    }

    /// Current simulation time.
    pub fn time(&self) -> u64 {
        delegate!(self, s => s.time())
    }

    /// Whether `$finish` has executed.
    pub fn is_finished(&self) -> bool {
        delegate!(self, s => s.is_finished())
    }

    /// Runs `initial` blocks and settles time zero.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on combinational loops or runaway processes.
    pub fn initialize(&mut self) -> Result<(), SimError> {
        delegate!(self, s => s.initialize())
    }

    /// Re-settles combinational logic after [`SwSim::force`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on combinational loops.
    pub fn resettle(&mut self) -> Result<(), SimError> {
        delegate!(self, s => s.resettle())
    }

    /// Runs evaluation/update phases to a fixed point.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on combinational loops or runaway processes.
    pub fn settle(&mut self) -> Result<(), SimError> {
        delegate!(self, s => s.settle())
    }

    /// Runs one evaluation phase, leaving nonblocking updates pending.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on combinational loops or runaway processes.
    #[inline]
    pub fn eval_phase(&mut self) -> Result<(), SimError> {
        delegate!(self, s => s.eval_phase())
    }

    /// Applies pending nonblocking updates.
    #[inline]
    pub fn apply_updates(&mut self) {
        delegate!(self, s => s.apply_updates())
    }

    /// Whether evaluation events are active.
    #[inline]
    pub fn has_evals(&self) -> bool {
        delegate!(self, s => s.has_evals())
    }

    /// Whether nonblocking updates are pending.
    #[inline]
    pub fn has_updates(&self) -> bool {
        delegate!(self, s => s.has_updates())
    }

    /// Runs `$monitor` checks (end of a scheduler step).
    #[inline]
    pub fn end_step(&mut self) {
        delegate!(self, s => s.end_step())
    }

    /// Advances logical time by one tick.
    #[inline]
    pub fn advance_time(&mut self) {
        delegate!(self, s => s.advance_time())
    }

    /// One full clock cycle on `clk` by var id.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from settling.
    pub fn tick_id(&mut self, clk: VarId) -> Result<(), SimError> {
        delegate!(self, s => s.tick_id(clk))
    }

    /// Reads a variable by id.
    #[inline]
    pub fn peek_id(&self, id: VarId) -> Bits {
        delegate!(self, s => s.peek_id(id))
    }

    /// Reads one word of a memory.
    pub fn peek_array(&self, id: VarId, index: u64) -> Bits {
        delegate!(self, s => s.peek_array(id, index))
    }

    /// Sets a variable by id, scheduling dependents on change.
    pub fn poke_id(&mut self, id: VarId, value: Bits) {
        delegate!(self, s => s.poke_id(id, value))
    }

    /// Drives a clock input to `level`, scheduling dependents on change —
    /// [`SwSim::poke_id`] with a one-bit value, minus the `Bits` on the
    /// compiled backend. The runtime's batched ticks deliver every clock
    /// edge through here.
    #[inline]
    pub fn drive_clock(&mut self, id: VarId, level: bool) {
        match self {
            SwSim::Compiled(c) => c.poke_bit(id, level as u64),
            SwSim::Tree(s) => s.poke_id(id, Bits::from_bool(level)),
        }
    }

    /// Writes a memory word without triggering events.
    pub fn poke_array(&mut self, id: VarId, index: u64, value: Bits) {
        delegate!(self, s => s.poke_array(id, index, value))
    }

    /// Forces a value without triggering events (state restoration).
    pub fn force(&mut self, id: VarId, value: Bits) {
        delegate!(self, s => s.force(id, value))
    }

    /// Drains accumulated side-effect events.
    pub fn drain_events(&mut self) -> Vec<SimEvent> {
        delegate!(self, s => s.drain_events())
    }

    /// Whether any events are pending.
    #[inline]
    pub fn has_events(&self) -> bool {
        delegate!(self, s => s.has_events())
    }

    /// Seeds `$random`.
    pub fn seed_random(&mut self, seed: u64) {
        delegate!(self, s => s.seed_random(seed))
    }
}
