//! Standard-library components as scheduler-visible engines.
//!
//! Before forwarding kicks in (paper Fig. 9.1–9.3), each stdlib instance is
//! its own pre-compiled engine on the data/control plane. The runtime wires
//! the global clock to `__clk` so synchronous components (FIFO pops, memory
//! writes) commit on the virtual rising edge.

use crate::engine::{Engine, EngineError, EngineKind, EngineState, PortId, TaskEvent};
use cascade_bits::Bits;
use cascade_fpga::CostModel;
use cascade_stdlib::Peripheral;

/// The implicit clock input port wired to every peripheral engine.
pub const PERIPHERAL_CLOCK_PORT: &str = "__clk";

/// Its handle, past the end of every component's own port table.
const CLOCK: PortId = PortId(u32::MAX - 1);

/// Wraps a [`Peripheral`] as an [`Engine`].
pub struct PeripheralEngine {
    peripheral: Box<dyn Peripheral>,
    clk_last: bool,
    edge_pending: bool,
    msgs: u64,
}

impl PeripheralEngine {
    /// Wraps a component.
    pub fn new(peripheral: Box<dyn Peripheral>) -> Self {
        PeripheralEngine {
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

    /// Whether the component is a bank of output pins (`Led`, `GPIO`):
    /// nothing happens at its clock edge, it moves no bus words, and what
    /// it samples at `end_step` only reaches its outputs. Wired as a pure
    /// receiver, it is a sink the software engine's batched ticks drive
    /// without the walk.
    pub(crate) fn is_pin_bank(&self) -> bool {
        matches!(self.peripheral.module_name(), "Led" | "GPIO")
    }

    /// A value-moving `read` of a sink, whose message the batch counts and
    /// charges itself.
    pub(crate) fn deliver(&mut self, port: PortId, value: &Bits) {
        self.peripheral.set_input(port, value);
    }

    /// Hands the messages not charged yet to a batch, which charges them
    /// with its first iteration as `take_cost_ns` would have.
    pub(crate) fn take_msgs(&mut self) -> u64 {
        std::mem::take(&mut self.msgs)
    }

    /// Leaves the sink where the walk would have after a batch: the last
    /// clock level it read, `msgs` messages not charged yet (a batch that
    /// stopped inside an iteration), no edge pending — a pin bank's edge
    /// runs nothing.
    pub(crate) fn resume(&mut self, level: bool, msgs: u64) {
        self.clk_last = level;
        self.edge_pending = false;
        self.msgs += msgs;
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
        self.msgs += 1;
        if port == CLOCK {
            let now = value.to_bool();
            if !self.clk_last && now {
                self.edge_pending = true;
            }
            self.clk_last = now;
        } else {
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
            self.peripheral.posedge();
        }
        Ok(())
    }

    fn end_step(&mut self) {
        self.peripheral.end_step();
    }

    fn drain_tasks(&mut self) -> Vec<TaskEvent> {
        Vec::new()
    }

    fn take_cost_ns(&mut self, costs: &CostModel) -> f64 {
        // Pre-compiled stdlib engines live in hardware; runtime interaction
        // costs one bus message per port exchange, and host-coupled data
        // (FIFO tokens) costs a bus word each.
        let msgs = self.msgs + self.peripheral.take_bus_words();
        self.msgs = 0;
        msgs as f64 * costs.abi_message_ns
    }
}
