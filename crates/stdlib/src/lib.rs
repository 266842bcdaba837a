//! Cascade's standard library (paper Sec. 3.2): IO peripherals and common
//! components exposed to Verilog as pre-declared module types.
//!
//! `Clock`, `Pad`, and `Led` are implicitly instantiated when the runtime
//! starts; `Reset`, `GPIO`, `Memory`, and `FIFO` may be instantiated at the
//! user's discretion. Each component is a [`Peripheral`]: a Rust object
//! bound to the virtual [`Board`] that both software-engine scheduling and
//! forwarded hardware-engine execution can drive. This is what makes IO
//! side effects visible in *every* compilation state — the portability and
//! interactivity story of the paper.

use cascade_bits::Bits;
use cascade_fpga::Board;
use cascade_verilog::ast::Module;
use cascade_verilog::typecheck::{ModuleLibrary, ParamEnv};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

mod components;

pub use components::{Fifo, Gpio, Led, Memory, Pad, Reset};

/// The Verilog interface declarations for every standard-library module.
///
/// These are inserted into the runtime's module library at startup so user
/// code can reference `pad.val`, instantiate `FIFO #(8) f();`, and so on.
pub const STDLIB_DECLARATIONS: &str = r#"
module Clock(output wire val); endmodule

module Pad #(parameter WIDTH = 4)(output wire [WIDTH-1:0] val); endmodule

module Led #(parameter WIDTH = 8)(input wire [WIDTH-1:0] val); endmodule

module Reset(output wire val); endmodule

module GPIO #(parameter WIDTH = 32)(
  input wire [WIDTH-1:0] out,
  output wire [WIDTH-1:0] in
); endmodule

module Memory #(parameter ADDR = 8, parameter WIDTH = 8)(
  input wire [ADDR-1:0] raddr,
  output wire [WIDTH-1:0] rdata,
  input wire wen,
  input wire [ADDR-1:0] waddr,
  input wire [WIDTH-1:0] wdata
); endmodule

module FIFO #(parameter WIDTH = 8)(
  input wire rreq,
  output wire [WIDTH-1:0] rdata,
  output wire empty,
  input wire wreq,
  input wire [WIDTH-1:0] wdata,
  output wire full
); endmodule
"#;

/// Names of the standard-library module types.
pub const STDLIB_MODULE_NAMES: &[&str] =
    &["Clock", "Pad", "Led", "Reset", "GPIO", "Memory", "FIFO"];

/// Whether a module name belongs to the standard library.
pub fn is_stdlib_module(name: &str) -> bool {
    STDLIB_MODULE_NAMES.contains(&name)
}

/// Parses the standard-library declarations.
///
/// # Panics
///
/// Panics only on an internal syntax error, which the test suite guards.
pub fn stdlib_modules() -> Vec<Module> {
    let unit =
        cascade_verilog::parse(STDLIB_DECLARATIONS).expect("stdlib declarations always parse");
    unit.items
        .into_iter()
        .filter_map(|i| match i {
            cascade_verilog::ast::Item::Module(m) => Some(m),
            _ => None,
        })
        .collect()
}

/// The standard-library declarations as a module library, parsed once per
/// process. A runtime starts from a clone of it, which shares the parsed
/// modules instead of re-parsing them.
pub fn stdlib_library() -> &'static ModuleLibrary {
    static LIB: OnceLock<ModuleLibrary> = OnceLock::new();
    LIB.get_or_init(|| {
        let mut lib = ModuleLibrary::new();
        for m in stdlib_modules() {
            lib.insert(m);
        }
        lib
    })
}

/// An integer handle for one port of a component (or of an engine in the
/// runtime's ABI): the port's name is resolved to it once, when engines
/// are wired, and every per-tick exchange addresses the port by handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortId(pub u32);

impl PortId {
    /// What an unknown name resolves to: reads as a zero-width value,
    /// writes are dropped.
    pub const NONE: PortId = PortId(u32::MAX);
}

/// The points at which a component's outputs can change
/// ([`Peripheral::outputs_move`]). `end_step` and `posedge` are also the
/// only calls that do anything else a scheduler sees of a component
/// besides taking its inputs — writes to the board or the host bus, bus
/// words — so one that is not listed does nothing and may be skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovePoints {
    /// At `end_step`: the component samples the board there (buttons,
    /// pins, reset), or it is where a scheduler looks for what the host
    /// did to it (the host's side of the FIFO).
    pub end_step: bool,
    /// At `posedge`.
    pub posedge: bool,
    /// When an input is set: an output follows an input combinationally.
    pub input: bool,
}

impl MovePoints {
    /// A bank of output pins: nothing moves and no call but `set_input`
    /// does anything.
    pub const NEVER: MovePoints = MovePoints {
        end_step: false,
        posedge: false,
        input: false,
    };
}

/// A standard-library component instance: Rust-implemented behaviour behind
/// a Verilog port interface.
///
/// Components are *synchronous* where it matters (FIFO pops, memory writes
/// commit at the virtual clock's rising edge) and combinational elsewhere
/// (`empty`, `rdata` of Memory), mirroring ordinary vendor IP.
pub trait Peripheral: Send {
    /// The stdlib module type this instance implements.
    fn module_name(&self) -> &'static str;

    /// The component's fixed port table, in declaration order: a port's
    /// index here is its [`PortId`].
    fn ports(&self) -> &'static [&'static str];

    /// Resolves a port name to its handle ([`PortId::NONE`] when the
    /// component has no such port). Wiring-time only.
    fn port(&self, name: &str) -> PortId {
        self.ports()
            .iter()
            .position(|p| *p == name)
            .map_or(PortId::NONE, |i| PortId(i as u32))
    }

    /// Current value of one output port (zero-width for anything else).
    fn output(&self, port: PortId) -> Bits;

    /// Drives one input port (anything else is ignored).
    fn set_input(&mut self, port: PortId, value: &Bits);

    /// Called at each rising edge of the virtual clock (synchronous
    /// behaviour such as FIFO pops).
    fn posedge(&mut self) {}

    /// Called at each observable state (poll external inputs).
    fn end_step(&mut self) {}

    /// Where this component's outputs can change ([`MovePoints`]): a
    /// scheduler that re-reads them only after one of these points misses
    /// no change. Declaring a point that moves nothing is safe; leaving out
    /// one that does is not.
    fn outputs_move(&self) -> MovePoints;

    /// Snapshot internal state for engine migration (memories).
    fn get_state(&self) -> BTreeMap<String, Vec<Bits>> {
        BTreeMap::new()
    }

    /// Restore internal state.
    fn set_state(&mut self, _state: &BTreeMap<String, Vec<Bits>>) {}

    /// Host-bus words moved since the last call. On-board pins (buttons,
    /// LEDs, GPIO) cost nothing; host-coupled components (the FIFO) cross
    /// the memory-mapped IO bus once per token — the bottleneck behind the
    /// paper's Fig. 12 rates.
    fn take_bus_words(&mut self) -> u64 {
        0
    }
}

impl fmt::Debug for dyn Peripheral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Peripheral({})", self.module_name())
    }
}

/// Instantiates a peripheral by stdlib module name with resolved parameter
/// overrides, bound to `board`. Returns `None` for non-stdlib names and for
/// `Clock` (the clock is the runtime's tick source, not a peripheral).
pub fn instantiate(name: &str, params: &ParamEnv, board: &Board) -> Option<Box<dyn Peripheral>> {
    let width = |key: &str, default: u64| -> u32 {
        params
            .get(key)
            .map(|b| b.to_u64() as u32)
            .unwrap_or(default as u32)
    };
    Some(match name {
        "Pad" => Box::new(Pad::new(board.clone(), width("WIDTH", 4))),
        "Led" => Box::new(Led::new(board.clone(), width("WIDTH", 8))),
        "Reset" => Box::new(Reset::new(board.clone())),
        "GPIO" => Box::new(Gpio::new(board.clone(), width("WIDTH", 32))),
        "Memory" => Box::new(Memory::new(width("ADDR", 8), width("WIDTH", 8))),
        "FIFO" => Box::new(Fifo::new(board.clone(), width("WIDTH", 8))),
        _ => return None,
    })
}

#[cfg(test)]
mod tests;
