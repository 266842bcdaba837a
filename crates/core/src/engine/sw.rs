//! Software engines: subprograms executed by `cascade-sim`
//! (paper Sec. 5.1). These begin execution in under a second and run until
//! the background hardware compilation delivers a replacement.
//!
//! The execution backend is selected by `JitConfig::sw_compile`: the
//! bytecode-compiling [`SwSim::Compiled`] backend by default, or the
//! tree-walking oracle for ablation. A software engine has no open loop: it
//! is driven through the [`Engine`] calls of the scheduler's walk, made
//! either by the walk itself or by the plane batch (`crate::plane`), which
//! makes the same calls in the same order without the runtime in the loop
//! and which the virtual clock charges alike.

use crate::engine::{Engine, EngineError, EngineKind, EngineState, PortId, TaskEvent};
use cascade_bits::Bits;
use cascade_fpga::CostModel;
use cascade_sim::{Design, SimEvent, SwSim, VarClass, VarId};
use std::sync::Arc;

/// An engine interpreting or bytecode-executing one subprogram.
pub struct SwEngine {
    sim: SwSim,
    design: Arc<Design>,
    last_activations: u64,
    last_statements: u64,
    /// Scheduler iterations seen; two per virtual clock tick.
    half_steps: u8,
}

impl SwEngine {
    /// Builds and initializes a software engine, restoring `prior` state
    /// *before* running `initial` blocks — newly eval'ed statements must
    /// observe the live program state they were typed against (paper
    /// Sec. 3.5). `compiled = false` selects the tree-walking oracle over
    /// the bytecode backend.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] if time-zero settlement fails.
    pub fn with_options(
        design: Arc<Design>,
        prior: Option<&EngineState>,
        compiled: bool,
    ) -> Result<Self, EngineError> {
        let mut sim = SwSim::new(Arc::clone(&design), compiled);
        if let Some(state) = prior {
            for (name, value) in &state.regs {
                if let Some(id) = design.var(name) {
                    sim.force(id, value.clone());
                }
            }
            for (name, words) in &state.mems {
                if let Some(id) = design.var(name) {
                    for (i, w) in words.iter().enumerate() {
                        sim.poke_array(id, i as u64, w.clone());
                    }
                }
            }
        }
        sim.initialize()?;
        Ok(SwEngine {
            sim,
            design,
            last_activations: 0,
            last_statements: 0,
            half_steps: 0,
        })
    }

    /// Switches on execution profiling in the underlying simulator
    /// (compiled backend only).
    pub fn enable_profiling(&mut self) {
        self.sim.enable_profiling();
    }

    /// The collected execution profile, if profiling is enabled.
    pub fn profile_report(&self) -> Option<cascade_sim::SwProfileReport> {
        self.sim.profile_report()
    }

    /// The variable behind a handle (`None` for [`PortId::NONE`]).
    pub(crate) fn var(&self, port: PortId) -> Option<VarId> {
        ((port.0 as usize) < self.design.vars.len()).then_some(VarId(port.0))
    }

    /// The input variable behind a handle: what `read` writes.
    pub(crate) fn input_var(&self, port: PortId) -> Option<VarId> {
        self.var(port).filter(|&id| self.design.info(id).is_input)
    }

    /// `output` of a variable resolved by [`SwEngine::var`].
    pub(crate) fn peek(&self, var: Option<VarId>) -> Bits {
        var.map_or_else(Bits::default, |id| self.sim.peek_id(id))
    }

    /// `read` of a level into a one-bit input (the clock, resolved by
    /// [`SwEngine::input_var`]), without `Bits`.
    pub(crate) fn drive_clock(&mut self, var: VarId, level: bool) {
        self.sim.drive_clock(var, level);
    }

    /// Whether `drain_tasks` has anything to hand over. Task events stay
    /// queued in the simulator, in order, until drained.
    pub(crate) fn has_tasks(&self) -> bool {
        self.sim.has_events()
    }
}

impl Engine for SwEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Software
    }

    fn get_state(&mut self) -> EngineState {
        let mut state = EngineState::default();
        for (name, id) in self.design.iter_vars() {
            let info = self.design.info(id);
            if info.class != VarClass::Reg {
                continue;
            }
            if info.is_array() {
                let words = (0..info.array_len)
                    .map(|i| self.sim.peek_array(id, i))
                    .collect();
                state.mems.insert(name.to_string(), words);
            } else {
                state.regs.insert(name.to_string(), self.sim.peek_id(id));
            }
        }
        state
    }

    fn set_state(&mut self, state: &EngineState) {
        for (name, value) in &state.regs {
            if let Some(id) = self.design.var(name) {
                self.sim.force(id, value.clone());
            }
        }
        for (name, words) in &state.mems {
            if let Some(id) = self.design.var(name) {
                for (i, w) in words.iter().enumerate() {
                    self.sim.poke_array(id, i as u64, w.clone());
                }
            }
        }
        // Re-settle combinational logic around the restored state (force
        // does not generate events).
        let _ = self.sim.resettle();
    }

    // A handle is the `VarId` of the named variable; any variable can be
    // read (probes), only input ports can be written.
    fn port(&self, name: &str) -> PortId {
        self.design
            .var(name)
            .map_or(PortId::NONE, |id| PortId(id.0))
    }

    fn read(&mut self, port: PortId, value: &Bits) {
        if let Some(id) = self.input_var(port) {
            self.sim.poke_id(id, value.clone());
        }
    }

    fn output(&mut self, port: PortId) -> Bits {
        self.peek(self.var(port))
    }

    fn there_are_evals(&self) -> bool {
        self.sim.has_evals()
    }

    fn evaluate(&mut self) -> Result<(), EngineError> {
        self.sim.eval_phase()?;
        Ok(())
    }

    fn there_are_updates(&self) -> bool {
        self.sim.has_updates()
    }

    fn update(&mut self) -> Result<(), EngineError> {
        self.sim.apply_updates();
        Ok(())
    }

    fn end_step(&mut self) {
        self.sim.end_step();
        // Two scheduler iterations make one virtual clock tick (`$time`).
        self.half_steps += 1;
        if self.half_steps == 2 {
            self.half_steps = 0;
            self.sim.advance_time();
        }
    }

    fn drain_tasks(&mut self) -> Vec<TaskEvent> {
        self.sim
            .drain_events()
            .into_iter()
            .map(|ev| match ev {
                SimEvent::Display(s) => TaskEvent::Display(s),
                SimEvent::Write(s) => TaskEvent::Write(s),
                SimEvent::Finish => TaskEvent::Finish,
                SimEvent::Fatal(s) => TaskEvent::Fatal(s),
            })
            .collect()
    }

    fn take_cost_ns(&mut self, costs: &CostModel) -> f64 {
        let acts = self.sim.activations() - self.last_activations;
        self.last_activations = self.sim.activations();
        let stmts = self.sim.statements() - self.last_statements;
        self.last_statements = self.sim.statements();
        acts as f64 * costs.sw_activation_ns + stmts as f64 * costs.sw_statement_ns
    }

    fn is_finished(&self) -> bool {
        self.sim.is_finished()
    }
}
