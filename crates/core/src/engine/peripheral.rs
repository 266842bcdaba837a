//! Standard-library components as scheduler-visible engines.
//!
//! Before forwarding kicks in (paper Fig. 9.1–9.3), each stdlib instance is
//! its own pre-compiled engine on the data/control plane. The runtime wires
//! the global clock to `__clk` so synchronous components (FIFO pops, memory
//! writes) commit on the virtual rising edge.

use crate::engine::{Engine, EngineError, EngineKind, EngineState, PortId, TaskEvent};
use cascade_bits::Bits;
use cascade_fpga::CostModel;
use cascade_stdlib::{MovePoints, Peripheral};

/// The implicit clock input port wired to every peripheral engine.
pub const PERIPHERAL_CLOCK_PORT: &str = "__clk";

/// Its handle, past the end of every component's own port table.
const CLOCK: PortId = PortId(u32::MAX - 1);

/// Wraps a [`Peripheral`] as an [`Engine`]. A call at a point the
/// component does not declare ([`MovePoints`]) does nothing, and is not
/// passed on.
pub struct PeripheralEngine {
    peripheral: Box<dyn Peripheral>,
    moves: MovePoints,
    clk_last: bool,
    edge_pending: bool,
    msgs: u64,
}

impl PeripheralEngine {
    /// Wraps a component.
    pub fn new(peripheral: Box<dyn Peripheral>) -> Self {
        PeripheralEngine {
            moves: peripheral.outputs_move(),
            peripheral,
            clk_last: false,
            edge_pending: false,
            msgs: 0,
        }
    }

    /// Extracts the component (for forwarding absorption).
    pub fn into_peripheral(self) -> Box<dyn Peripheral> {
        self.peripheral
    }

    /// Where the component's outputs can change, as the engine's calls
    /// name the points: `end_step`, `update` (the clock edge), and a
    /// `read` of a component input (never of the clock, which only arms
    /// the edge).
    pub(crate) fn outputs_move(&self) -> MovePoints {
        self.moves
    }

    /// Whether a `read` through `port` can move the outputs.
    pub(crate) fn read_moves_outputs(&self, port: PortId) -> bool {
        port != CLOCK && self.moves.input
    }

    /// `read` of a clock level into `__clk`: one bus message, and an edge
    /// to `update` on a rise.
    pub(crate) fn clock(&mut self, level: bool) {
        self.msgs += 1;
        if !self.clk_last && level {
            self.edge_pending = true;
        }
        self.clk_last = level;
    }
}

impl Engine for PeripheralEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Peripheral
    }

    fn get_state(&mut self) -> EngineState {
        EngineState {
            regs: Default::default(),
            mems: self.peripheral.get_state(),
        }
    }

    fn set_state(&mut self, state: &EngineState) {
        self.peripheral.set_state(&state.mems);
    }

    fn port(&self, name: &str) -> PortId {
        if name == PERIPHERAL_CLOCK_PORT {
            CLOCK
        } else {
            self.peripheral.port(name)
        }
    }

    fn read(&mut self, port: PortId, value: &Bits) {
        if port == CLOCK {
            self.clock(value.to_bool());
        } else {
            self.msgs += 1;
            self.peripheral.set_input(port, value);
        }
    }

    fn output(&mut self, port: PortId) -> Bits {
        self.peripheral.output(port)
    }

    fn there_are_evals(&self) -> bool {
        false
    }

    fn evaluate(&mut self) -> Result<(), EngineError> {
        Ok(())
    }

    fn there_are_updates(&self) -> bool {
        self.edge_pending
    }

    fn update(&mut self) -> Result<(), EngineError> {
        if self.edge_pending {
            self.edge_pending = false;
            if self.moves.posedge {
                self.peripheral.posedge();
            }
        }
        Ok(())
    }

    fn end_step(&mut self) {
        if self.moves.end_step {
            self.peripheral.end_step();
        }
    }

    fn drain_tasks(&mut self) -> Vec<TaskEvent> {
        Vec::new()
    }

    fn take_cost_ns(&mut self, costs: &CostModel) -> f64 {
        // Pre-compiled stdlib engines live in hardware; runtime interaction
        // costs one bus message per port exchange, and host-coupled data
        // (FIFO tokens) costs a bus word each, moved at the edge.
        let mut msgs = std::mem::take(&mut self.msgs);
        if self.moves.posedge {
            msgs += self.peripheral.take_bus_words();
        }
        msgs as f64 * costs.abi_message_ns
    }
}
