//! Stable structural fingerprinting of netlists.
//!
//! The background compiler keys its bitstream cache on this hash: two
//! textually different programs that synthesize to the same netlist share a
//! cache entry, and re-eval'ing an unchanged design never pays the modeled
//! multi-minute toolchain latency twice (the SYNERGY approach to
//! compilation caching).
//!
//! The hash is FNV-1a over a canonical byte walk of the structure — NOT
//! `std::hash::Hash`, whose SipHash keys are randomized per process and so
//! useless as a persistent/stable cache key.

use crate::ir::{Cell, CellOp, Def, Netlist, TaskKind};
use cascade_bits::Bits;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a accumulator with helpers for the shapes the netlist contains.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
    }

    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.byte(*b);
        }
    }

    fn opt_str(&mut self, s: &Option<String>) {
        match s {
            None => self.byte(0),
            Some(s) => {
                self.byte(1);
                self.str(s);
            }
        }
    }

    fn bits(&mut self, b: &Bits) {
        self.u32(b.width());
        for w in b.words() {
            self.u64(*w);
        }
    }
}

/// Returns a stable 64-bit structural hash of `nl`: identical across
/// processes and runs, sensitive to every field that affects compilation
/// (definitions, widths, state, tasks, port order).
pub fn fingerprint(nl: &Netlist) -> u64 {
    let mut h = Fnv::new();
    h.str(&nl.name);
    h.u64(nl.nets.len() as u64);
    for net in &nl.nets {
        h.u32(net.width);
        // Net names matter: ports and probes are addressed by name.
        h.opt_str(&net.name);
        match &net.def {
            Def::Input => h.byte(1),
            Def::Undriven => h.byte(2),
            Def::Const(b) => {
                h.byte(3);
                h.bits(b);
            }
            Def::Cell(c) => {
                h.byte(4);
                cell(&mut h, c);
            }
            Def::Reg(r) => {
                h.byte(5);
                h.u32(r.0);
            }
            Def::MemRead { mem, addr } => {
                h.byte(6);
                h.u32(mem.0);
                h.u32(addr.0);
            }
        }
    }
    h.u64(nl.regs.len() as u64);
    for r in &nl.regs {
        h.u32(r.q.0);
        h.u32(r.d.0);
        h.u32(r.clock.0);
        h.bits(&r.init);
        h.opt_str(&r.name);
    }
    h.u64(nl.mems.len() as u64);
    for m in &nl.mems {
        h.u32(m.width);
        h.u64(m.words);
        h.opt_str(&m.name);
        h.u64(m.write_ports.len() as u64);
        for wp in &m.write_ports {
            h.u32(wp.clock.0);
            h.u32(wp.enable.0);
            h.u32(wp.addr.0);
            h.u32(wp.data.0);
        }
    }
    h.u64(nl.tasks.len() as u64);
    for t in &nl.tasks {
        h.byte(match t.kind {
            TaskKind::Display => 0,
            TaskKind::Write => 1,
            TaskKind::Finish => 2,
            TaskKind::Fatal => 3,
        });
        h.u32(t.clock.0);
        h.u32(t.trigger.0);
        match &t.format {
            None => h.byte(0),
            Some(f) => {
                h.byte(1);
                h.str(f);
            }
        }
        h.u64(t.args.len() as u64);
        for a in &t.args {
            h.u32(a.0);
        }
        for s in &t.arg_signed {
            h.byte(*s as u8);
        }
    }
    h.u64(nl.clocks.len() as u64);
    for (net, edge) in &nl.clocks {
        h.u32(net.0);
        h.byte(*edge as u8);
    }
    h.u64(nl.inputs.len() as u64);
    for i in &nl.inputs {
        h.u32(i.0);
    }
    h.u64(nl.outputs.len() as u64);
    for (name, net) in &nl.outputs {
        h.str(name);
        h.u32(net.0);
    }
    h.0
}

fn cell(h: &mut Fnv, c: &Cell) {
    h.byte(match c.op {
        CellOp::Not => 0,
        CellOp::Neg => 1,
        CellOp::RedAnd => 2,
        CellOp::RedOr => 3,
        CellOp::RedXor => 4,
        CellOp::LogNot => 5,
        CellOp::Add => 6,
        CellOp::Sub => 7,
        CellOp::Mul => 8,
        CellOp::DivU => 9,
        CellOp::DivS => 10,
        CellOp::RemU => 11,
        CellOp::RemS => 12,
        CellOp::And => 13,
        CellOp::Or => 14,
        CellOp::Xor => 15,
        CellOp::Xnor => 16,
        CellOp::Shl => 17,
        CellOp::Shr => 18,
        CellOp::AShr => 19,
        CellOp::Eq => 20,
        CellOp::Ne => 21,
        CellOp::LtU => 22,
        CellOp::LtS => 23,
        CellOp::LeU => 24,
        CellOp::LeS => 25,
        CellOp::Mux => 26,
        CellOp::Concat => 27,
        CellOp::Slice { .. } => 28,
        CellOp::DynSlice => 29,
        CellOp::ZExt => 30,
        CellOp::SExt => 31,
        CellOp::Repeat { .. } => 32,
    });
    match c.op {
        CellOp::Slice { offset } => h.u32(offset),
        CellOp::Repeat { count } => h.u32(count),
        _ => {}
    }
    h.u64(c.inputs.len() as u64);
    for i in &c.inputs {
        h.u32(i.0);
    }
}
