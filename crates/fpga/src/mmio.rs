//! The AXI-style memory-mapped protocol between the runtime's software stub
//! and an FPGA-resident engine (paper Fig. 10).
//!
//! A compiled subprogram is wrapped in a register file: its inputs, state,
//! and `$display` arguments live at addresses; distinguished addresses form
//! the RPC surface (`<LATCH>`, `<CLEAR>`, `<OLOOP>`, ...). Here the wrapped
//! netlist executes in [`NetlistSim`]; the wrapper's logic-element cost is
//! modeled explicitly because it is the source of the paper's reported
//! spatial overhead (2.9× for proof-of-work, Sec. 6.1).

use cascade_bits::Bits;
use cascade_netlist::{NetId, Netlist, NetlistSim, RegId, TaskFire, TaskKind};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Distinguished control addresses (Fig. 10's `<LATCH>`, `<OLOOP>`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ctrl {
    /// Commit pending register updates (one clock edge).
    Latch,
    /// Clear the task mask.
    Clear,
    /// Enter open-loop mode for N iterations.
    OpenLoop,
    /// Iterations completed in the last open-loop run.
    Iterations,
    /// Whether any register would change on the next edge.
    ThereAreUpdates,
    /// Task mask: nonzero when tasks fired.
    Tasks,
}

/// What a data address refers to. Slots carry the evaluator handle they
/// stand for — names are resolved once, when the map is built — so a bus
/// access is an index, not a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// A top-level input net (writable).
    Input(NetId),
    /// A readable net (outputs, display arguments).
    Output(NetId),
    /// A register (readable and writable — `get_state`/`set_state`).
    State(RegId),
}

/// The memory map of a wrapped subprogram.
#[derive(Debug, Clone, Default)]
pub struct AddressMap {
    slots: Vec<Slot>,
    by_name: BTreeMap<String, u32>,
}

impl AddressMap {
    /// Builds the canonical map for a netlist: inputs, then state, then
    /// outputs. When two signals share a name the first mapped wins.
    pub fn for_netlist(nl: &Netlist) -> AddressMap {
        let mut map = AddressMap::default();
        for &input in &nl.inputs {
            let name = nl.nets[input.0 as usize]
                .name
                .clone()
                .unwrap_or_else(|| format!("in{}", input.0));
            map.push(name, Slot::Input(input));
        }
        for (i, reg) in nl.regs.iter().enumerate() {
            let name = reg.name.clone().unwrap_or_else(|| format!("reg{i}"));
            map.push(name, Slot::State(RegId(i as u32)));
        }
        for (name, net) in &nl.outputs {
            map.push(name.clone(), Slot::Output(*net));
        }
        map
    }

    fn push(&mut self, name: String, slot: Slot) {
        self.by_name.entry(name).or_insert(self.slots.len() as u32);
        self.slots.push(slot);
    }

    /// The address of a named signal. Wiring-time only: callers keep the
    /// address and use it for every later access.
    pub fn addr(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The slot at an address.
    pub fn slot(&self, addr: u32) -> Option<Slot> {
        self.slots.get(addr as usize).copied()
    }

    /// Number of mapped addresses.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The logic-element cost of the Fig. 10 wrapper around a netlist: address
/// decode, `get_state`/`set_state` muxing over every state bit, update and
/// task masks, and the open-loop counter. This is the spatial overhead the
/// paper attributes to Cascade (Sec. 6.1: 2.9×; Sec. 6.2: 6.5× for a
/// FIFO-coupled design with little user logic).
pub fn wrapper_overhead_les(nl: &Netlist) -> u64 {
    let state_bits = nl.state_bits();
    let io_bits: u64 = nl
        .inputs
        .iter()
        .map(|&i| nl.width(i) as u64)
        .chain(nl.outputs.iter().map(|(_, n)| nl.width(*n) as u64))
        .sum();
    let task_args: u64 = nl.tasks.iter().map(|t| t.args.len() as u64 * 32).sum();
    // Fixed bus interface + open-loop FSM + masks (~2.5K LEs), get/set_state
    // muxing and shadow registers per state bit, address decode per IO bit,
    // and task-argument capture. Constants calibrated against the paper's
    // two reported overheads (PoW 2.9x, Sec 6.1; FIFO/regex 6.5x, Sec 6.2).
    2_500 + 12 * state_bits + 2 * io_bits + 2 * task_args
}

/// A wrapped hardware engine core: [`NetlistSim`] behind the Fig. 10
/// register-file protocol. Every `read`/`write` counts as one bus
/// transaction (the runtime charges modeled time per transaction).
#[derive(Debug)]
pub struct MmioCore {
    sim: NetlistSim,
    map: AddressMap,
    transactions: u64,
    iterations: u32,
}

impl MmioCore {
    /// Wraps a compiled netlist.
    ///
    /// # Errors
    ///
    /// Returns the levelization error if the netlist is combinationally
    /// cyclic.
    pub fn new(netlist: Arc<Netlist>) -> Result<Self, cascade_netlist::LevelError> {
        let map = AddressMap::for_netlist(&netlist);
        let sim = NetlistSim::new(netlist)?;
        Ok(MmioCore {
            sim,
            map,
            transactions: 0,
            iterations: 0,
        })
    }

    /// The address map.
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// The wrapped evaluator (direct access for state transfer).
    pub fn sim(&mut self) -> &mut NetlistSim {
        &mut self.sim
    }

    /// The wrapped evaluator, immutably.
    pub fn sim_ref(&self) -> &NetlistSim {
        &self.sim
    }

    /// Bus transactions performed so far.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// The net behind a data address (a state slot's register output),
    /// for on-fabric connections that bypass the bus.
    pub fn net(&self, addr: u32) -> Option<NetId> {
        Some(match self.map.slot(addr)? {
            Slot::Input(net) | Slot::Output(net) => net,
            Slot::State(reg) => self.sim.netlist().regs[reg.0 as usize].q,
        })
    }

    /// Reads a data address.
    pub fn read(&mut self, addr: u32) -> Bits {
        self.transactions += 1;
        match self.map.slot(addr) {
            Some(Slot::Input(net) | Slot::Output(net)) => self.sim.get(net),
            Some(Slot::State(reg)) => self.sim.read_reg(reg),
            None => Bits::zero(32),
        }
    }

    /// Writes a data address.
    pub fn write(&mut self, addr: u32, value: Bits) {
        self.transactions += 1;
        match self.map.slot(addr) {
            Some(Slot::Input(net)) => self.sim.set_input(net, value),
            Some(Slot::State(reg)) => {
                self.sim.write_reg(reg, value);
                self.sim.settle();
            }
            Some(Slot::Output(_)) | None => {}
        }
    }

    /// Reads a control address.
    pub fn ctrl_read(&mut self, ctrl: Ctrl) -> Bits {
        self.transactions += 1;
        match ctrl {
            Ctrl::ThereAreUpdates => Bits::from_bool(self.updates_pending()),
            Ctrl::Tasks => Bits::from_bool(self.sim.has_tasks()),
            Ctrl::Iterations => Bits::from_u64(32, self.iterations as u64),
            _ => Bits::zero(1),
        }
    }

    /// Writes a control address.
    pub fn ctrl_write(&mut self, ctrl: Ctrl, value: Bits) {
        self.transactions += 1;
        match ctrl {
            Ctrl::Latch => self.sim.step_clock(0),
            Ctrl::Clear => {
                // Task mask clearing is implicit in drain; nothing to do.
            }
            Ctrl::OpenLoop => {
                self.iterations = self.open_loop(value.to_u64() as u32);
            }
            Ctrl::Iterations | Ctrl::ThereAreUpdates | Ctrl::Tasks => {}
        }
    }

    /// Whether any register (or memory) would change at the next edge, in
    /// any clock domain. Delegates to the evaluator's word-level compare —
    /// no `Bits` are materialized.
    pub fn updates_pending(&self) -> bool {
        let domains = self.sim.netlist().clocks.len().max(1) as u32;
        (0..domains).any(|c| self.sim.updates_pending(c))
    }

    /// Runs up to `limit` clock cycles entirely inside the engine, stopping
    /// early when a system task fires (Fig. 10's `_oloop` / `_tasks`
    /// interlock). Returns the number of cycles executed.
    ///
    /// The batch executes inside [`NetlistSim::run_cycles`]: one call, no
    /// per-cycle host round trip.
    pub fn open_loop(&mut self, limit: u32) -> u32 {
        self.open_loop_batch(limit as u64) as u32
    }

    /// [`MmioCore::open_loop`] without the `u32` bus-register limit, for
    /// hosts that schedule multi-million-cycle batches.
    pub fn open_loop_batch(&mut self, limit: u64) -> u64 {
        self.transactions += 1;
        let done = self.sim.run_cycles(limit, 1);
        self.iterations = done.min(u32::MAX as u64) as u32;
        done
    }

    /// Drains task firings (forwarded to the runtime's interrupt queue).
    pub fn drain_tasks(&mut self) -> Vec<TaskFire> {
        self.sim.drain_tasks()
    }

    /// Whether a `$finish`/`$fatal` has executed.
    pub fn is_finished(&self) -> bool {
        self.sim.is_finished()
    }
}

/// Renders a task fire like the runtime's view would.
pub fn describe_task(fire: &TaskFire) -> String {
    match fire.kind {
        TaskKind::Display => fire.text.clone(),
        TaskKind::Write => fire.text.clone(),
        TaskKind::Finish => "$finish".to_string(),
        TaskKind::Fatal => format!("$fatal: {}", fire.text),
    }
}
