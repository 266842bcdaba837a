//! Hardware engines: compiled subprograms running in the virtual FPGA
//! behind the MMIO protocol (paper Sec. 5.2, Fig. 10), with optional ABI
//! forwarding for absorbed standard-library components (Sec. 4.3) and
//! open-loop scheduling (Sec. 4.4).

use crate::engine::forward::ForwardTable;
pub use crate::engine::forward::Forwarded;
use crate::engine::{Engine, EngineError, EngineKind, EngineState, PortId, TaskEvent};
use cascade_bits::Bits;
use cascade_fpga::{CostModel, MmioCore};
use cascade_netlist::{Netlist, TaskFire, TaskKind};
use cascade_verilog::ast::Edge;
use std::sync::Arc;

/// A compiled subprogram executing behind the MMIO register file. Port
/// handles are MMIO data addresses.
pub struct HwEngine {
    core: MmioCore,
    /// Clock domains: domain index → (input port, edge). A clock net the
    /// address map does not reach has no port.
    clock_inputs: Vec<(PortId, Edge)>,
    /// Last seen value of each clock input.
    clock_last: Vec<bool>,
    /// Clock domains with a pending edge.
    pending: Vec<u32>,
    /// Whether non-clock inputs changed since the last evaluate.
    dirty: bool,
    forwarded: ForwardTable,
    tasks: Vec<TaskEvent>,
    /// Runtime-visible bus messages (the data/control-plane traffic the
    /// cost model charges; internal forwarded peripheral exchanges are
    /// on-fabric and free).
    bus_msgs: u64,
    last_cycles: u64,
    /// Accumulated configuration disturbance from injected soft errors;
    /// zero on a healthy fabric.
    config_upsets: u64,
}

impl HwEngine {
    /// Wraps a compiled netlist.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError`] when the netlist cannot be levelized.
    pub fn new(netlist: Arc<Netlist>) -> Result<Self, EngineError> {
        let core = MmioCore::new(Arc::clone(&netlist))
            .map_err(|e| EngineError::Internal(format!("levelization failed: {e}")))?;
        let clock_inputs = netlist
            .clocks
            .iter()
            .map(|&(net, edge)| {
                let name = netlist.nets[net.0 as usize].name.as_deref();
                let port = name.and_then(|n| core.map().addr(n));
                (port.map_or(PortId::NONE, PortId), edge)
            })
            .collect::<Vec<_>>();
        let clock_last = vec![false; clock_inputs.len()];
        Ok(HwEngine {
            core,
            clock_inputs,
            clock_last,
            pending: Vec::new(),
            dirty: true,
            forwarded: ForwardTable::default(),
            tasks: Vec::new(),
            bus_msgs: 0,
            last_cycles: 0,
            config_upsets: 0,
        })
    }

    /// Switches on activity profiling in the arena evaluator.
    pub fn enable_profiling(&mut self) {
        self.core.sim().enable_profiling();
    }

    /// The collected activity profile, if profiling is enabled.
    pub fn profile_report(&self) -> Option<cascade_netlist::NlProfileReport> {
        self.core.sim_ref().profile_report()
    }

    /// One readback scrub: reads the configuration back and compares it
    /// against the programming-time image. `true` means the fabric is
    /// intact. Charged as one request/response bus exchange.
    ///
    /// The netlist is an immutable `Arc`, so the configuration can differ
    /// from its programming-time image only by injected upsets: a scrub
    /// detects exactly when `config_upsets` is nonzero.
    pub fn scrub_ok(&mut self) -> bool {
        self.bus_msgs += 2;
        self.config_upsets == 0
    }

    /// Injects a modeled single-event upset: flips one live register bit
    /// (chosen by `salt`) and disturbs the configuration image so the
    /// next readback CRC mismatches. State-only corruption without the
    /// CRC disturbance would be undetectable — exactly the failure mode
    /// scrubbing exists to bound.
    pub fn inject_soft_error(&mut self, salt: u64) {
        let nregs = self.core.sim_ref().netlist().regs.len();
        if nregs > 0 {
            let idx = cascade_netlist::RegId((salt % nregs as u64) as u32);
            let mut v = self.core.sim().read_reg(idx);
            if v.width() > 0 {
                let bit = ((salt >> 16) % v.width() as u64) as u32;
                let flipped = !v.bit(bit);
                v.set_bit(bit, flipped);
                self.core.sim().write_reg(idx, v);
                self.core.sim().settle();
            }
        }
        // `| 1` keeps the disturbance nonzero even for salt 0.
        self.config_upsets ^= salt | 1;
        self.dirty = true;
    }

    /// Absorbs standard-library components (ABI forwarding, Fig. 9.4),
    /// resolving their bindings against the address map. The exchange
    /// itself is on-fabric, so it addresses nets rather than the bus.
    pub fn absorb(&mut self, forwarded: Vec<Forwarded>) {
        let core = &self.core;
        self.forwarded = ForwardTable::new(forwarded, |port| {
            core.map().addr(port).and_then(|addr| core.net(addr))
        });
        // Establish initial peripheral-driven inputs.
        self.forwarded.exchange(self.core.sim());
    }

    /// Whether this engine has absorbed peripherals.
    pub fn is_forwarding(&self) -> bool {
        !self.forwarded.is_empty()
    }

    /// Whether the engine has exactly one rising-edge clock domain (the
    /// open-loop eligibility requirement).
    pub fn single_posedge_domain(&self) -> bool {
        self.clock_inputs.len() <= 1
            && self
                .clock_inputs
                .first()
                .map(|(_, e)| *e == Edge::Pos)
                .unwrap_or(true)
    }

    fn collect_fires(&mut self, fires: Vec<TaskFire>) {
        for f in fires {
            self.tasks.push(match f.kind {
                TaskKind::Display => TaskEvent::Display(f.text),
                TaskKind::Write => TaskEvent::Write(f.text),
                TaskKind::Finish => TaskEvent::Finish,
                TaskKind::Fatal => TaskEvent::Fatal(f.text),
            });
        }
    }

    /// One full cycle of clock domain 0, including absorbed peripherals.
    fn cycle(&mut self) {
        self.forwarded.exchange(self.core.sim());
        self.core
            .ctrl_write(cascade_fpga::Ctrl::Latch, Bits::from_u64(1, 1));
        self.forwarded.posedge();
        self.forwarded.exchange(self.core.sim());
        let fires = self.core.drain_tasks();
        self.collect_fires(fires);
    }
}

impl Engine for HwEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Hardware
    }

    fn get_state(&mut self) -> EngineState {
        let mut state = EngineState::default();
        let nl = Arc::clone(self.core.sim_ref().netlist());
        for (i, reg) in nl.regs.iter().enumerate() {
            let name = reg.name.clone().unwrap_or_else(|| format!("reg{i}"));
            state.regs.insert(
                name,
                self.core.sim().read_reg(cascade_netlist::RegId(i as u32)),
            );
        }
        for (i, mem) in nl.mems.iter().enumerate() {
            let name = mem.name.clone().unwrap_or_else(|| format!("mem{i}"));
            let words = (0..mem.words)
                .map(|a| {
                    self.core
                        .sim()
                        .read_mem(cascade_netlist::MemId(i as u32), a)
                })
                .collect();
            state.mems.insert(name, words);
        }
        self.forwarded.get_state(&mut state.mems);
        state
    }

    fn set_state(&mut self, state: &EngineState) {
        let nl = Arc::clone(self.core.sim_ref().netlist());
        for (i, reg) in nl.regs.iter().enumerate() {
            let name = reg.name.clone().unwrap_or_else(|| format!("reg{i}"));
            if let Some(v) = state.regs.get(&name) {
                self.core
                    .sim()
                    .write_reg(cascade_netlist::RegId(i as u32), v.clone());
            }
        }
        for (i, mem) in nl.mems.iter().enumerate() {
            let name = mem.name.clone().unwrap_or_else(|| format!("mem{i}"));
            if let Some(words) = state.mems.get(&name) {
                for (a, w) in words.iter().enumerate() {
                    self.core.sim().write_mem(
                        cascade_netlist::MemId(i as u32),
                        a as u64,
                        w.clone(),
                    );
                }
            }
        }
        self.forwarded.set_state(&state.mems);
        self.core.sim().settle();
        self.dirty = true;
    }

    fn port(&self, name: &str) -> PortId {
        self.core.map().addr(name).map_or(PortId::NONE, PortId)
    }

    fn read(&mut self, port: PortId, value: &Bits) {
        self.bus_msgs += 1;
        if port == PortId::NONE {
            return;
        }
        // Clock inputs are edges, not data. One physical clock may drive
        // several domains (posedge and negedge logic), so every matching
        // domain gets edge-detected.
        let mut is_clock = false;
        for (i, &(clock, edge)) in self.clock_inputs.iter().enumerate() {
            if clock == port {
                is_clock = true;
                let now = value.to_bool();
                let was = self.clock_last[i];
                self.clock_last[i] = now;
                let fire = match edge {
                    Edge::Pos => !was && now,
                    Edge::Neg => was && !now,
                };
                if fire {
                    self.pending.push(i as u32);
                }
            }
        }
        self.core.write(port.0, value.clone());
        if !is_clock {
            self.dirty = true;
        }
    }

    fn output(&mut self, port: PortId) -> Bits {
        self.bus_msgs += 1;
        if port == PortId::NONE {
            return Bits::default();
        }
        self.core.read(port.0)
    }

    fn charge_polls(&mut self, n: u64) {
        self.bus_msgs += n;
    }

    fn there_are_evals(&self) -> bool {
        self.dirty
    }

    fn evaluate(&mut self) -> Result<(), EngineError> {
        self.bus_msgs += 1;
        // Combinational settling happened on write; just refresh absorbed
        // peripherals and clear the flag.
        self.forwarded.exchange(self.core.sim());
        self.dirty = false;
        Ok(())
    }

    fn there_are_updates(&self) -> bool {
        !self.pending.is_empty()
    }

    fn update(&mut self) -> Result<(), EngineError> {
        self.bus_msgs += 1;
        // Indexed, not taken: the buffer keeps its capacity across ticks.
        for i in 0..self.pending.len() {
            match self.pending[i] {
                0 => self.cycle(),
                domain => {
                    self.core.sim().step_clock(domain);
                    let fires = self.core.drain_tasks();
                    self.collect_fires(fires);
                }
            }
        }
        self.pending.clear();
        self.dirty = true;
        Ok(())
    }

    fn end_step(&mut self) {
        self.forwarded.end_step();
        self.forwarded.exchange(self.core.sim());
    }

    fn drain_tasks(&mut self) -> Vec<TaskEvent> {
        let fires = self.core.drain_tasks();
        self.collect_fires(fires);
        std::mem::take(&mut self.tasks)
    }

    fn open_loop(&mut self, steps: u64) -> u64 {
        if !self.single_posedge_domain() {
            return 0;
        }
        self.bus_msgs += 2; // request + return of control
        if !self.is_forwarding() {
            // No absorbed peripherals to feed per cycle: the whole batch
            // executes inside the evaluator as one MMIO transaction,
            // stopping at the first task firing or `$finish`.
            let done = self.core.open_loop_batch(steps);
            let fires = self.core.drain_tasks();
            self.collect_fires(fires);
            self.dirty = true;
            return done;
        }
        // Sample external inputs at batch start: the runtime hands over
        // control at an observable state, which is when boards get polled.
        self.forwarded.end_step();
        self.forwarded.exchange(self.core.sim());
        let mut done = 0u64;
        while done < steps {
            self.cycle();
            done += 1;
            if !self.tasks.is_empty() || self.core.is_finished() {
                break;
            }
        }
        // Peripherals poll external inputs when control returns.
        self.forwarded.end_step();
        self.forwarded.exchange(self.core.sim());
        self.dirty = true;
        done
    }

    fn take_cost_ns(&mut self, costs: &CostModel) -> f64 {
        // Host-coupled peripherals (the FIFO) move data over the same bus
        // even when absorbed.
        let msgs = std::mem::take(&mut self.bus_msgs) + self.forwarded.take_bus_words();
        let cycles = self.core.sim_ref().cycles() - self.last_cycles;
        self.last_cycles = self.core.sim_ref().cycles();
        msgs as f64 * costs.abi_message_ns + cycles as f64 * costs.hw_cycle_ns
    }

    fn is_finished(&self) -> bool {
        self.core.is_finished()
    }
}
