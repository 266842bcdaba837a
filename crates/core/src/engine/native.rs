//! Native mode (paper Sec. 4.5): the program compiled exactly as written,
//! with no MMIO wrapper, no `get_state`/`set_state` muxing, and no system
//! task support. Interactivity is sacrificed for full native performance.

use crate::engine::forward::{ForwardTable, Forwarded};
use crate::engine::{Engine, EngineError, EngineKind, EngineState, PortId, TaskEvent};
use cascade_bits::Bits;
use cascade_fpga::CostModel;
use cascade_netlist::{NetId, Netlist, NetlistSim};
use std::sync::Arc;

/// A wrapper-free compiled program with direct peripheral connections.
/// Port handles are net ids.
pub struct NativeEngine {
    sim: NetlistSim,
    peripherals: ForwardTable,
    last_cycles: u64,
}

impl NativeEngine {
    /// Compiles the raw netlist into a native engine.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if the netlist contains system tasks (native
    /// mode forfeits unsynthesizable Verilog) or cannot be levelized.
    pub fn new(netlist: Arc<Netlist>, peripherals: Vec<Forwarded>) -> Result<Self, EngineError> {
        if !netlist.tasks.is_empty() {
            return Err(EngineError::Internal(
                "native mode requires a program without system tasks".to_string(),
            ));
        }
        if netlist.clocks.len() > 1 {
            return Err(EngineError::Internal(
                "native mode supports a single clock domain".to_string(),
            ));
        }
        let sim = NetlistSim::new(netlist)
            .map_err(|e| EngineError::Internal(format!("levelization failed: {e}")))?;
        let mut engine = NativeEngine {
            sim,
            peripherals: ForwardTable::default(),
            last_cycles: 0,
        };
        engine.forward(peripherals);
        Ok(engine)
    }

    /// Connects standard-library components straight to the netlist's
    /// nets, replacing any connected before.
    pub fn forward(&mut self, peripherals: Vec<Forwarded>) {
        let netlist = self.sim.netlist();
        self.peripherals = ForwardTable::new(peripherals, |port| netlist.net_by_name(port));
    }

    /// The net behind a handle (`None` for [`PortId::NONE`]).
    fn net(&self, port: PortId) -> Option<NetId> {
        ((port.0 as usize) < self.sim.netlist().nets.len()).then_some(NetId(port.0))
    }
}

impl Engine for NativeEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Native
    }

    fn get_state(&mut self) -> EngineState {
        // Native bitstreams have no state-access wrapper; migration out of
        // native mode restarts from initial values, exactly like a
        // traditionally-deployed design.
        EngineState::default()
    }

    fn set_state(&mut self, _state: &EngineState) {}

    fn port(&self, name: &str) -> PortId {
        let net = self.sim.netlist().net_by_name(name);
        net.map_or(PortId::NONE, |n| PortId(n.0))
    }

    fn read(&mut self, port: PortId, value: &Bits) {
        if let Some(net) = self.net(port) {
            self.sim.set_input(net, value.clone());
        }
    }

    fn output(&mut self, port: PortId) -> Bits {
        self.net(port)
            .map_or_else(Bits::default, |net| self.sim.get(net))
    }

    fn there_are_evals(&self) -> bool {
        false
    }

    fn evaluate(&mut self) -> Result<(), EngineError> {
        Ok(())
    }

    fn there_are_updates(&self) -> bool {
        false
    }

    fn update(&mut self) -> Result<(), EngineError> {
        Ok(())
    }

    fn drain_tasks(&mut self) -> Vec<TaskEvent> {
        Vec::new()
    }

    fn open_loop(&mut self, steps: u64) -> u64 {
        if self.peripherals.is_empty() {
            // Nothing to exchange per cycle: run the whole batch inside the
            // evaluator (native mode has no tasks to interlock on).
            return self.sim.run_cycles(steps, usize::MAX);
        }
        let mut done = 0;
        while done < steps {
            self.peripherals.exchange(&mut self.sim);
            self.sim.step_clock(0);
            self.peripherals.posedge();
            done += 1;
        }
        self.peripherals.end_step();
        self.peripherals.exchange(&mut self.sim);
        done
    }

    fn take_cost_ns(&mut self, costs: &CostModel) -> f64 {
        let cycles = self.sim.cycles() - self.last_cycles;
        self.last_cycles = self.sim.cycles();
        let bus = self.peripherals.take_bus_words();
        cycles as f64 * costs.hw_cycle_ns + bus as f64 * costs.abi_message_ns
    }
}
