//! Event-driven Verilog simulator implementing the reference scheduling
//! algorithm (Cascade paper Fig. 2).
//!
//! This crate is two things at once:
//!
//! 1. the substrate for Cascade's **software engines** — a subprogram's AST
//!    is elaborated and interpreted here while the FPGA toolchain compiles
//!    in the background, and
//! 2. the **iVerilog-style baseline** measured in the paper's Fig. 11 — a
//!    full hierarchical design can be elaborated and simulated directly.
//!
//! # Examples
//!
//! ```
//! use cascade_sim::{elaborate, library_from_source, SimEvent, Simulator};
//!
//! let lib = library_from_source(
//!     "module Blink(input wire clk, output wire led);\n\
//!      reg state = 0;\n\
//!      always @(posedge clk) begin\n\
//!        state <= ~state;\n\
//!        $display(\"tick %d\", $time);\n\
//!      end\n\
//!      assign led = state;\nendmodule",
//! )?;
//! let design = elaborate("Blink", &lib, &Default::default())?;
//! let mut sim = Simulator::new(design.into());
//! sim.initialize()?;
//! sim.tick("clk")?;
//! assert!(sim.peek("led").to_bool());
//! assert!(matches!(&sim.drain_events()[0], SimEvent::Display(s) if s == "tick 0"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod compile;
mod elaborate;
mod exec;
mod rir;
#[allow(clippy::module_inception)]
mod sim;
mod vcd;

pub use compile::{SwProgram, SwProgramStats};
pub use elaborate::{
    collect_reads, collect_reads_stmt, elaborate, elaborate_leaf, library_from_source, Design,
};
pub use exec::{CompiledSim, SwProfileReport};
pub use rir::{
    Process, RCaseArm, RCaseLabel, RExpr, RExprKind, RLValue, RStmt, RTaskArg, Sens, VarClass,
    VarId, VarInfo,
};
pub use sim::{format_verilog, SimError, SimEvent, Simulator};
pub use vcd::{PortVcd, VcdWriter};

#[cfg(test)]
mod tests;
