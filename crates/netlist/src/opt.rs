//! Post-synthesis netlist optimizations.
//!
//! The symbolic executor lowers `case` statements into linear mux chains;
//! real synthesis tools recognize the parallel-case pattern and emit a
//! balanced decision tree (a LUT ROM), which is the difference between a
//! 64-level critical path and a 6-level one. `balance_case_chains` performs
//! that rewrite; `prune_dead` then drops cells no longer reachable from any
//! architectural root so area estimates reflect the optimized design.

use crate::ir::{Cell, CellOp, ClockId, Def, NetId, Netlist};
use cascade_bits::Bits;
use std::collections::BTreeMap;

/// Runs the standard optimization pipeline in place.
pub fn optimize(nl: &mut Netlist) {
    balance_case_chains(nl);
    prune_dead(nl);
}

/// Merges clock domains whose clock nets are aliases of the same root.
///
/// Hierarchy flattening wires a submodule's `clk` port to the parent's
/// clock through an identity cell, so `always @(posedge clk)` blocks on
/// the two sides of the instance boundary land in *different* domains of
/// the same physical clock. Every execution engine steps one domain per
/// edge (`step_clock(0)` in the MMIO `Latch` path, `run_cycles`, the
/// batch/parallel evaluators), which silently froze the other half of the
/// design. Resolving each domain's net through width-preserving identity
/// chains (`ZExt`/`SExt`/`Slice@0` of an equal-width input) and merging
/// equal `(root, edge)` pairs restores the single-domain semantics the
/// event-driven simulator exhibits. Found by differential fuzzing.
pub fn dedupe_clocks(nl: &mut Netlist) {
    if nl.clocks.len() <= 1 {
        return;
    }
    let resolve = |nets: &[crate::ir::NetInfo], mut n: NetId| -> NetId {
        loop {
            let info = &nets[n.0 as usize];
            let Def::Cell(cell) = &info.def else {
                return n;
            };
            let passthrough = matches!(
                cell.op,
                CellOp::ZExt | CellOp::SExt | CellOp::Slice { offset: 0 }
            );
            if !passthrough
                || cell.inputs.len() != 1
                || nets[cell.inputs[0].0 as usize].width != info.width
            {
                return n;
            }
            n = cell.inputs[0];
        }
    };
    let mut canon: Vec<(NetId, cascade_verilog::ast::Edge)> = Vec::new();
    let mut remap: Vec<ClockId> = Vec::with_capacity(nl.clocks.len());
    for &(net, edge) in &nl.clocks {
        let root = resolve(&nl.nets, net);
        match canon.iter().position(|&(n, e)| n == root && e == edge) {
            Some(at) => remap.push(ClockId(at as u32)),
            None => {
                canon.push((root, edge));
                remap.push(ClockId(canon.len() as u32 - 1));
            }
        }
    }
    if canon.len() == nl.clocks.len() {
        return;
    }
    nl.clocks = canon;
    for r in &mut nl.regs {
        r.clock = remap[r.clock.0 as usize];
    }
    for m in &mut nl.mems {
        for wp in &mut m.write_ports {
            wp.clock = remap[wp.clock.0 as usize];
        }
    }
    for t in &mut nl.tasks {
        t.clock = remap[t.clock.0 as usize];
    }
}

/// One detected chain link: `Mux(Eq(scr, const), value, next)`.
struct Link {
    constant: Bits,
    value: NetId,
}

/// Rewrites linear `case` mux chains over a common scrutinee into balanced
/// binary decision trees. Chains shorter than 8 links are left alone (the
/// linear form is fine at that depth).
pub fn balance_case_chains(nl: &mut Netlist) {
    let n = nl.nets.len();
    for net in 0..n {
        let id = NetId(net as u32);
        let Some((scr, links, default)) = detect_chain(nl, id) else {
            continue;
        };
        if links.len() < 8 {
            continue;
        }
        // Deduplicate constants, keeping the first occurrence (the linear
        // chain gives priority to earlier arms).
        let mut seen = BTreeMap::new();
        for link in links {
            seen.entry(link.constant.to_u64()).or_insert(link);
        }
        let mut entries: Vec<Link> = seen.into_values().collect();
        entries.sort_by_key(|l| l.constant.to_u64());
        let width = nl.width(id);
        let tree = build_tree(nl, scr, &entries, default, width);
        // Redirect the chain head to the tree root via an identity cell.
        nl.nets[net].def = Def::Cell(Cell {
            op: CellOp::ZExt,
            inputs: vec![tree],
        });
    }
}

/// Follows a mux chain from `head`. Returns `(scrutinee, links, default)`.
fn detect_chain(nl: &Netlist, head: NetId) -> Option<(NetId, Vec<Link>, NetId)> {
    let mut links = Vec::new();
    let mut cur = head;
    let mut scr: Option<NetId> = None;
    while let Def::Cell(cell) = &nl.nets[cur.0 as usize].def {
        if cell.op != CellOp::Mux {
            break;
        }
        let (sel, value, next) = (cell.inputs[0], cell.inputs[1], cell.inputs[2]);
        let Def::Cell(sel_cell) = &nl.nets[sel.0 as usize].def else {
            break;
        };
        if sel_cell.op != CellOp::Eq {
            break;
        }
        let (a, b) = (sel_cell.inputs[0], sel_cell.inputs[1]);
        // One side must be a constant; the other is the scrutinee.
        let (s, c) = match (&nl.nets[a.0 as usize].def, &nl.nets[b.0 as usize].def) {
            (_, Def::Const(c)) => (a, c.clone()),
            (Def::Const(c), _) => (b, c.clone()),
            _ => break,
        };
        match scr {
            None => scr = Some(s),
            Some(prev) if prev == s => {}
            Some(_) => break,
        }
        links.push(Link { constant: c, value });
        cur = next;
    }
    let scr = scr?;
    if links.is_empty() {
        return None;
    }
    Some((scr, links, cur))
}

/// Builds a balanced decision tree over sorted entries.
fn build_tree(nl: &mut Netlist, scr: NetId, entries: &[Link], default: NetId, width: u32) -> NetId {
    match entries.len() {
        0 => default,
        1 => {
            let c = push_const(nl, entries[0].constant.resize(nl.width(scr)));
            let eq = push_cell(nl, CellOp::Eq, vec![scr, c], 1);
            push_cell(nl, CellOp::Mux, vec![eq, entries[0].value, default], width)
        }
        n => {
            let mid = n / 2;
            let pivot = push_const(nl, entries[mid].constant.resize(nl.width(scr)));
            let lt = push_cell(nl, CellOp::LtU, vec![scr, pivot], 1);
            let left = build_tree(nl, scr, &entries[..mid], default, width);
            let right = build_tree(nl, scr, &entries[mid..], default, width);
            push_cell(nl, CellOp::Mux, vec![lt, left, right], width)
        }
    }
}

fn push_const(nl: &mut Netlist, value: Bits) -> NetId {
    let id = NetId(nl.nets.len() as u32);
    nl.nets.push(crate::ir::NetInfo {
        width: value.width(),
        name: None,
        def: Def::Const(value),
    });
    id
}

fn push_cell(nl: &mut Netlist, op: CellOp, inputs: Vec<NetId>, width: u32) -> NetId {
    let id = NetId(nl.nets.len() as u32);
    nl.nets.push(crate::ir::NetInfo {
        width,
        name: None,
        def: Def::Cell(Cell { op, inputs }),
    });
    id
}

/// Marks cells unreachable from any architectural root (outputs, register
/// inputs, memory ports, task cells) as [`Def::Undriven`], removing them
/// from area, timing, and evaluation.
pub fn prune_dead(nl: &mut Netlist) {
    let mut live = vec![false; nl.nets.len()];
    let mut stack: Vec<NetId> = Vec::new();
    let root = |stack: &mut Vec<NetId>, id: NetId| stack.push(id);
    for (_, out) in &nl.outputs {
        root(&mut stack, *out);
    }
    for reg in &nl.regs {
        root(&mut stack, reg.d);
        root(&mut stack, reg.q);
    }
    for mem in &nl.mems {
        for port in &mem.write_ports {
            root(&mut stack, port.enable);
            root(&mut stack, port.addr);
            root(&mut stack, port.data);
        }
    }
    for task in &nl.tasks {
        root(&mut stack, task.trigger);
        for a in &task.args {
            root(&mut stack, *a);
        }
    }
    for &(clk, _) in &nl.clocks {
        root(&mut stack, clk);
    }
    for &input in &nl.inputs {
        root(&mut stack, input);
    }
    while let Some(id) = stack.pop() {
        if live[id.0 as usize] {
            continue;
        }
        live[id.0 as usize] = true;
        match &nl.nets[id.0 as usize].def {
            Def::Cell(cell) => {
                for i in &cell.inputs {
                    if !live[i.0 as usize] {
                        stack.push(*i);
                    }
                }
            }
            Def::MemRead { addr, .. } if !live[addr.0 as usize] => {
                stack.push(*addr);
            }
            _ => {}
        }
    }
    for (i, net) in nl.nets.iter_mut().enumerate() {
        if !live[i] && matches!(net.def, Def::Cell(_)) {
            net.def = Def::Undriven;
        }
    }
}
