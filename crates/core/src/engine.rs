//! The target-specific engine ABI (paper Fig. 7).
//!
//! An [`Engine`] is the runtime state of one subprogram. Engines start as
//! quickly-compiled software interpreters and are transparently replaced by
//! FPGA-resident hardware engines when background compilation finishes;
//! `get_state`/`set_state` move the subprogram's registers and memories
//! between them. The runtime is deliberately agnostic to where an engine
//! lives — that agnosticism is the mechanism behind Cascade's
//! interactivity.

use cascade_bits::Bits;
use cascade_fpga::CostModel;
use cascade_sim::SimError;
pub use cascade_stdlib::PortId;
use std::collections::BTreeMap;
use std::fmt;

pub mod clock;
mod forward;
pub mod hw;
pub mod native;
pub mod peripheral;
pub mod sw;

/// A snapshot of a subprogram's stateful elements, keyed by hierarchical
/// source name (`cnt`, `r.acc`, ...). Names are stable across engine kinds
/// because every engine elaborates from the same design.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineState {
    pub regs: BTreeMap<String, Bits>,
    pub mems: BTreeMap<String, Vec<Bits>>,
}

/// A side effect reported by an engine (forwarded to the runtime's
/// interrupt queue and then to the view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskEvent {
    Display(String),
    Write(String),
    Finish,
    Fatal(String),
}

/// Where an engine executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// AST interpretation in the runtime's process.
    Software,
    /// Compiled netlist behind the MMIO protocol.
    Hardware,
    /// Hardware without the Cascade wrapper (native mode).
    Native,
    /// A standard-library component.
    Peripheral,
    /// The global clock.
    Clock,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineKind::Software => "software",
            EngineKind::Hardware => "hardware",
            EngineKind::Native => "native",
            EngineKind::Peripheral => "peripheral",
            EngineKind::Clock => "clock",
        };
        f.write_str(s)
    }
}

/// An engine execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    Sim(SimError),
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Sim(e) => write!(f, "{e}"),
            EngineError::Internal(msg) => write!(f, "engine error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}

/// The engine ABI (paper Fig. 7). This is not a user-exposed interface;
/// implementing it is how Cascade gains support for a new backend target.
pub trait Engine: Send {
    /// Where this engine executes.
    fn kind(&self) -> EngineKind;

    /// Snapshots stateful elements (registers, memories) by name.
    fn get_state(&mut self) -> EngineState;

    /// Restores stateful elements by name; unknown names are ignored
    /// (they belong to code that no longer exists).
    fn set_state(&mut self, state: &EngineState);

    /// Resolves a port (or, for probes, any readable signal) name to the
    /// handle `read` and `output` take. Called when engines are wired,
    /// never per tick; a handle is valid for the life of this engine
    /// only. Unknown names resolve to [`PortId::NONE`].
    fn port(&self, name: &str) -> PortId;

    /// Notifies the engine that one of its input ports changed (`read` in
    /// the paper's ABI: the engine discovers input changes). Handles that
    /// do not name an input are ignored.
    fn read(&mut self, port: PortId, value: &Bits);

    /// The current value of an output port (`write`: the engine broadcasts
    /// outputs — the runtime polls and diffs). Zero-width for
    /// [`PortId::NONE`].
    fn output(&mut self, port: PortId) -> Bits;

    /// Accounts for `n` `output` polls the runtime spared this engine
    /// because nothing had touched it since the wire was last polled. The
    /// modeled protocol sends those messages regardless, so an engine
    /// whose `output` has a modeled cost charges them here; for every
    /// other engine a spared poll is free.
    fn charge_polls(&mut self, n: u64) {
        let _ = n;
    }

    /// Whether evaluation events are pending.
    fn there_are_evals(&self) -> bool;

    /// Performs all pending evaluation events.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on simulation faults (combinational loops,
    /// runaway procedural loops).
    fn evaluate(&mut self) -> Result<(), EngineError>;

    /// Whether update (sequential) events are pending.
    fn there_are_updates(&self) -> bool;

    /// Performs all pending update events.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] on simulation faults.
    fn update(&mut self) -> Result<(), EngineError>;

    /// Called when the interrupt queue drains (end of a time step).
    fn end_step(&mut self) {}

    /// Called at shutdown.
    fn end(&mut self) {}

    /// Drains `$display`/`$finish`-family side effects.
    fn drain_tasks(&mut self) -> Vec<TaskEvent>;

    /// Runs up to `steps` whole clock iterations inside the engine without
    /// runtime interaction (paper Sec. 4.4). Returns the number completed
    /// (0 = unsupported). Engines stop early when a system task fires.
    fn open_loop(&mut self, steps: u64) -> u64 {
        let _ = steps;
        0
    }

    /// Modeled nanoseconds of work performed since the last call (drives
    /// the virtual wall clock).
    fn take_cost_ns(&mut self, costs: &CostModel) -> f64;

    /// Whether a `$finish` has executed inside this engine.
    fn is_finished(&self) -> bool {
        false
    }
}

impl fmt::Debug for dyn Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Engine({})", self.kind())
    }
}
