//! The interpretive reference evaluator.
//!
//! This is the original `Bits`-walking netlist loop: every settle
//! re-evaluates all combinational nets in topological order, allocating
//! intermediate [`Bits`] values as it goes. It is kept in-tree as the
//! baseline the compiled word-arena evaluator ([`crate::NetlistSim`]) is
//! benchmarked against (`cascade-bench`'s `bench_netlist`), and as a second
//! independent oracle for the equivalence property tests.

use crate::eval::{eval_cell_refs, render_task, TaskFire};
use crate::ir::*;
use crate::level::{levelize, LevelError};
use cascade_bits::Bits;
use std::sync::Arc;

/// Executes a synthesized [`Netlist`] cycle by cycle, interpretively.
///
/// Mirrors the public surface of [`crate::NetlistSim`]; see there for the
/// per-method documentation. Prefer `NetlistSim` everywhere except when the
/// interpretive baseline itself is the object of study.
#[derive(Debug, Clone)]
pub struct ReferenceSim {
    nl: Arc<Netlist>,
    values: Vec<Bits>,
    mems: Vec<Vec<Bits>>,
    /// Topological evaluation order of cell/memread nets.
    order: Vec<NetId>,
    tasks: Vec<TaskFire>,
    finished: bool,
    /// Cycles executed per clock domain.
    cycles: u64,
}

impl ReferenceSim {
    /// Builds the evaluator, levelizing the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`LevelError`] when the netlist has a combinational cycle.
    pub fn new(nl: Arc<Netlist>) -> Result<Self, LevelError> {
        let order = levelize(&nl)?;
        let values = nl
            .nets
            .iter()
            .map(|n| match &n.def {
                Def::Const(c) => c.resize(n.width),
                Def::Reg(r) => nl.regs[r.0 as usize].init.resize(n.width),
                Def::Input | Def::Undriven | Def::Cell(_) | Def::MemRead { .. } => {
                    Bits::zero(n.width)
                }
            })
            .collect();
        let mems = nl
            .mems
            .iter()
            .map(|m| vec![Bits::zero(m.width); m.words as usize])
            .collect();
        let mut sim = ReferenceSim {
            nl,
            values,
            mems,
            order,
            tasks: Vec::new(),
            finished: false,
            cycles: 0,
        };
        sim.settle();
        Ok(sim)
    }

    /// The netlist being executed.
    pub fn netlist(&self) -> &Arc<Netlist> {
        &self.nl
    }

    /// Whether a `$finish` task has fired.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Total clock edges executed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Drains task firings observed so far.
    pub fn drain_tasks(&mut self) -> Vec<TaskFire> {
        std::mem::take(&mut self.tasks)
    }

    /// Whether any task firings are pending.
    pub fn has_tasks(&self) -> bool {
        !self.tasks.is_empty()
    }

    /// Sets an input net and repropagates combinational logic.
    pub fn set_input(&mut self, net: NetId, value: Bits) {
        let w = self.nl.width(net);
        self.values[net.0 as usize] = value.resize(w);
        self.settle();
    }

    /// Sets an input by port name.
    ///
    /// # Panics
    ///
    /// Panics if no input net has this name.
    pub fn set_by_name(&mut self, name: &str, value: Bits) {
        let net = self
            .nl
            .net_by_name(name)
            .unwrap_or_else(|| panic!("unknown net `{name}`"));
        self.set_input(net, value);
    }

    /// Reads any net's current value.
    pub fn get(&self, net: NetId) -> Bits {
        self.values[net.0 as usize].clone()
    }

    /// Reads a net by name.
    pub fn get_by_name(&self, name: &str) -> Option<Bits> {
        self.nl.net_by_name(name).map(|n| self.get(n))
    }

    /// Reads one word of a memory.
    pub fn read_mem(&self, mem: MemId, addr: u64) -> Bits {
        self.mems[mem.0 as usize]
            .get(addr as usize)
            .cloned()
            .unwrap_or_else(|| Bits::zero(self.nl.mems[mem.0 as usize].width))
    }

    /// Writes one word of a memory directly (state restoration).
    pub fn write_mem(&mut self, mem: MemId, addr: u64, value: Bits) {
        let w = self.nl.mems[mem.0 as usize].width;
        if let Some(slot) = self.mems[mem.0 as usize].get_mut(addr as usize) {
            *slot = value.resize(w);
        }
    }

    /// Overwrites a register's current value (state restoration), without
    /// repropagating; call [`ReferenceSim::settle`] when done.
    pub fn write_reg(&mut self, reg: RegId, value: Bits) {
        let q = self.nl.regs[reg.0 as usize].q;
        let w = self.nl.width(q);
        self.values[q.0 as usize] = value.resize(w);
    }

    /// Reads a register's current value.
    pub fn read_reg(&self, reg: RegId) -> Bits {
        let q = self.nl.regs[reg.0 as usize].q;
        self.get(q)
    }

    /// Recomputes all combinational nets in topological order.
    pub fn settle(&mut self) {
        let nl = Arc::clone(&self.nl);
        for &net in &self.order {
            let value = match &nl.nets[net.0 as usize].def {
                Def::Cell(cell) => {
                    let inputs: Vec<&Bits> = cell
                        .inputs
                        .iter()
                        .map(|i| &self.values[i.0 as usize])
                        .collect();
                    eval_cell_refs(cell.op, &inputs, nl.width(net))
                }
                Def::MemRead { mem, addr } => {
                    let a = self.values[addr.0 as usize].to_u64();
                    self.read_mem(*mem, a)
                }
                _ => continue,
            };
            self.values[net.0 as usize] = value;
        }
    }

    /// Executes one edge of the given clock domain: samples task triggers
    /// and register/memory inputs, commits them, and repropagates. One call
    /// corresponds to one hardware clock cycle.
    pub fn step_clock(&mut self, clock_index: u32) {
        if self.finished {
            return;
        }
        let nl = Arc::clone(&self.nl);
        let clock = ClockId(clock_index);
        // Sample phase (pre-edge values).
        let mut reg_updates: Vec<(NetId, Bits)> = Vec::new();
        for reg in &nl.regs {
            if reg.clock == clock {
                reg_updates.push((reg.q, self.values[reg.d.0 as usize].clone()));
            }
        }
        let mut mem_updates: Vec<(MemId, u64, Bits)> = Vec::new();
        for (mi, mem) in nl.mems.iter().enumerate() {
            for port in &mem.write_ports {
                if port.clock == clock && self.values[port.enable.0 as usize].to_bool() {
                    let addr = self.values[port.addr.0 as usize].to_u64();
                    mem_updates.push((
                        MemId(mi as u32),
                        addr,
                        self.values[port.data.0 as usize].clone(),
                    ));
                }
            }
        }
        for task in &nl.tasks {
            if task.clock == clock && self.values[task.trigger.0 as usize].to_bool() {
                let args: Vec<Bits> = task
                    .args
                    .iter()
                    .map(|a| self.values[a.0 as usize].clone())
                    .collect();
                if matches!(task.kind, TaskKind::Finish | TaskKind::Fatal) {
                    self.finished = true;
                }
                self.tasks.push(TaskFire {
                    kind: task.kind,
                    text: render_task(task, &args),
                });
            }
        }
        // Commit phase. `$finish` executes before the nonblocking-update
        // region, so an edge that finishes discards its pending commits —
        // the same boundary the event-driven simulator observes.
        if !self.finished {
            for (q, v) in reg_updates {
                let w = nl.width(q);
                self.values[q.0 as usize] = v.resize(w);
            }
            for (mem, addr, v) in mem_updates {
                self.write_mem(mem, addr, v);
            }
        }
        self.cycles += 1;
        self.settle();
    }

    /// Runs `n` cycles of clock domain 0, stopping early on `$finish`.
    /// Returns the number of cycles actually executed.
    pub fn run(&mut self, n: u64) -> u64 {
        let mut done = 0;
        for _ in 0..n {
            if self.finished {
                break;
            }
            self.step_clock(0);
            done += 1;
        }
        done
    }
}
