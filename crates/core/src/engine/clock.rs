//! The global clock engine.
//!
//! The clock is just another engine (paper Sec. 4.1): it re-queues its tick
//! via `end_step`, so every two scheduler iterations make one virtual clock
//! cycle — the rate Cascade's performance is measured in.

use crate::engine::{Engine, EngineError, EngineKind, EngineState, PortId, TaskEvent};
use cascade_bits::Bits;
use cascade_fpga::CostModel;

/// The handle of the clock's one port, `val`.
pub(crate) const VAL: PortId = PortId(0);

/// The tick source driving `clk.val`.
#[derive(Debug)]
pub struct ClockEngine {
    val: bool,
    armed: bool,
}

impl ClockEngine {
    /// A clock starting low and armed to rise.
    pub fn new() -> Self {
        ClockEngine {
            val: false,
            armed: true,
        }
    }

    /// The current level.
    pub fn level(&self) -> bool {
        self.val
    }
}

impl Default for ClockEngine {
    fn default() -> Self {
        ClockEngine::new()
    }
}

impl Engine for ClockEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Clock
    }

    fn get_state(&mut self) -> EngineState {
        let mut s = EngineState::default();
        s.regs
            .insert("__clk_val".to_string(), Bits::from_bool(self.val));
        s
    }

    fn set_state(&mut self, state: &EngineState) {
        if let Some(v) = state.regs.get("__clk_val") {
            self.val = v.to_bool();
        }
    }

    fn port(&self, name: &str) -> PortId {
        if name == "val" {
            VAL
        } else {
            PortId::NONE
        }
    }

    fn read(&mut self, _port: PortId, _value: &Bits) {}

    fn output(&mut self, port: PortId) -> Bits {
        if port == VAL {
            Bits::from_bool(self.val)
        } else {
            Bits::default()
        }
    }

    fn there_are_evals(&self) -> bool {
        false
    }

    fn evaluate(&mut self) -> Result<(), EngineError> {
        Ok(())
    }

    fn there_are_updates(&self) -> bool {
        self.armed
    }

    fn update(&mut self) -> Result<(), EngineError> {
        if self.armed {
            self.armed = false;
            self.val = !self.val;
        }
        Ok(())
    }

    fn end_step(&mut self) {
        // Re-queue the tick for the next scheduler iteration.
        self.armed = true;
    }

    fn drain_tasks(&mut self) -> Vec<TaskEvent> {
        Vec::new()
    }

    fn take_cost_ns(&mut self, _costs: &CostModel) -> f64 {
        0.0
    }
}
