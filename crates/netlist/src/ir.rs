//! The word-level RTL netlist produced by synthesis.
//!
//! Every net is in SSA form: it has exactly one definition — an external
//! input, a constant, a combinational cell, a register output, or a memory
//! read port. Registers and memories carry the sequential state; system
//! tasks survive synthesis as trigger cells (the mechanism behind the
//! paper's `_tmask` transformation in Fig. 10).

use cascade_bits::Bits;
use cascade_verilog::ast::Edge;

/// Index of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Index of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegId(pub u32);

/// Index of a memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemId(pub u32);

/// Index of a clock domain `(net, edge)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockId(pub u32);

/// Metadata for one net.
#[derive(Debug, Clone)]
pub struct NetInfo {
    pub width: u32,
    /// Source-level name for ports and named signals; `None` for temps.
    pub name: Option<String>,
    pub def: Def,
}

/// How a net gets its value.
#[derive(Debug, Clone, PartialEq)]
pub enum Def {
    /// Driven externally (top-level input).
    Input,
    /// Placeholder for a net whose driver has not been attached yet; a net
    /// left undriven reads as zero (two-state dangling wire). Never
    /// constant-folded.
    Undriven,
    Const(Bits),
    Cell(Cell),
    /// Output of a register.
    Reg(RegId),
    /// Asynchronous memory read port.
    MemRead {
        mem: MemId,
        addr: NetId,
    },
}

/// A combinational cell. All inputs are pre-extended to the widths the
/// operation expects, so evaluation is direct.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    pub op: CellOp,
    pub inputs: Vec<NetId>,
}

/// Combinational operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellOp {
    Not,
    Neg,
    RedAnd,
    RedOr,
    RedXor,
    LogNot,
    Add,
    Sub,
    Mul,
    DivU,
    DivS,
    RemU,
    RemS,
    And,
    Or,
    Xor,
    Xnor,
    /// Dynamic shifts: `inputs[0] << inputs[1]`.
    Shl,
    Shr,
    AShr,
    Eq,
    Ne,
    LtU,
    LtS,
    LeU,
    LeS,
    /// `inputs = [sel, then, else]`.
    Mux,
    /// MSB-first concatenation.
    Concat,
    /// Static slice `[offset, offset+width)` of `inputs[0]`.
    Slice {
        offset: u32,
    },
    /// Dynamic slice: `inputs[0] >> inputs[1]`, truncated to the net width.
    DynSlice,
    /// Zero extension (or truncation) to the net width.
    ZExt,
    /// Sign extension to the net width.
    SExt,
    /// Replication of `inputs[0]`.
    Repeat {
        count: u32,
    },
}

/// A D flip-flop (bank): `q <= d` on its clock edge.
#[derive(Debug, Clone)]
pub struct Register {
    pub q: NetId,
    pub d: NetId,
    pub clock: ClockId,
    pub init: Bits,
    pub name: Option<String>,
}

/// A synchronous-write, asynchronous-read memory.
#[derive(Debug, Clone)]
pub struct Memory {
    pub width: u32,
    pub words: u64,
    pub name: Option<String>,
    pub write_ports: Vec<WritePort>,
}

/// One write port of a memory.
#[derive(Debug, Clone)]
pub struct WritePort {
    pub clock: ClockId,
    pub enable: NetId,
    pub addr: NetId,
    pub data: NetId,
}

/// The system-task kinds that survive synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    Display,
    Write,
    Finish,
    Fatal,
}

/// A synthesized system task: fires when `trigger` is high at its clock
/// edge; `args` are sampled pre-edge.
#[derive(Debug, Clone)]
pub struct TaskCell {
    pub kind: TaskKind,
    pub clock: ClockId,
    pub trigger: NetId,
    pub format: Option<String>,
    pub args: Vec<NetId>,
    /// Whether each argument was signed at the source level (affects
    /// default decimal rendering).
    pub arg_signed: Vec<bool>,
}

/// A complete synthesized netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    pub nets: Vec<NetInfo>,
    pub regs: Vec<Register>,
    pub mems: Vec<Memory>,
    pub tasks: Vec<TaskCell>,
    /// Clock domains: the nets whose edges drive sequential logic.
    pub clocks: Vec<(NetId, Edge)>,
    /// Top-level inputs, in declaration order.
    pub inputs: Vec<NetId>,
    /// Top-level outputs `(name, net)`.
    pub outputs: Vec<(String, NetId)>,
    pub name: String,
}

impl Netlist {
    /// The width of a net.
    pub fn width(&self, id: NetId) -> u32 {
        self.nets[id.0 as usize].width
    }

    /// Looks up a named net.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name.as_deref() == Some(name))
            .map(|i| NetId(i as u32))
    }

    /// Number of combinational cells.
    pub fn cell_count(&self) -> usize {
        self.nets
            .iter()
            .filter(|n| matches!(n.def, Def::Cell(_)))
            .count()
    }

    /// Total state bits in registers and memories.
    pub fn state_bits(&self) -> u64 {
        let reg_bits: u64 = self.regs.iter().map(|r| self.width(r.q) as u64).sum();
        let mem_bits: u64 = self.mems.iter().map(|m| m.width as u64 * m.words).sum();
        reg_bits + mem_bits
    }
}
