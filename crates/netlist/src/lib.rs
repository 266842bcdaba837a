//! RTL synthesis and fast netlist evaluation for Cascade-rs.
//!
//! This crate turns an elaborated design (from [`cascade_sim`]) into a
//! word-level netlist — the artifact the virtual FPGA toolchain places and
//! routes — and executes it with a Verilator-style compiled schedule. It is
//! the execution substrate behind Cascade's **hardware engines**: once the
//! background compilation finishes, a subprogram stops being interpreted
//! and starts running here, orders of magnitude faster per cycle.
//!
//! System tasks (`$display`, `$finish`) survive synthesis as trigger cells,
//! mirroring the paper's Fig. 10 task-mask transformation: hardware can
//! still "printf".
//!
//! # Examples
//!
//! ```
//! use cascade_netlist::{synthesize, NetlistSim, TaskKind};
//! use cascade_sim::{elaborate, library_from_source};
//!
//! let lib = library_from_source(
//!     "module T(input wire clk, output wire [3:0] o);\n\
//!      reg [3:0] c = 0;\n\
//!      always @(posedge clk) begin\n\
//!        c <= c + 1;\n\
//!        if (c == 2) $display(\"c=%d\", c);\n\
//!      end\n\
//!      assign o = c;\nendmodule",
//! )?;
//! let design = elaborate("T", &lib, &Default::default())?;
//! let netlist = synthesize(&design)?;
//! let mut hw = NetlistSim::new(netlist.into())?;
//! hw.run(4);
//! let fires = hw.drain_tasks();
//! assert_eq!(fires.len(), 1);
//! assert_eq!(fires[0].text, "c=2");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod batch;
mod eval;
mod exec;
mod fingerprint;
mod interp;
mod ir;
mod level;
mod lower;
pub mod opt;
pub mod stats;

pub use batch::{BatchHarness, MAX_BATCH_LANES};
pub use eval::{clock_edge, eval_cell, NetlistSim, NlProfileReport, TaskFire};
pub use exec::ProgramStats;
pub use fingerprint::fingerprint;
pub use interp::ReferenceSim;
pub use ir::{
    Cell, CellOp, ClockId, Def, MemId, Memory, NetId, NetInfo, Netlist, RegId, Register, TaskCell,
    TaskKind, WritePort,
};
pub use level::{levelize, levels, logic_depth, LevelError};
pub use lower::{collect_writes, synthesize, synthesize_raw, SynthError};
pub use opt::{balance_case_chains, dedupe_clocks, optimize, prune_dead};
pub use stats::{
    cell_delay_ns, critical_path_ns, estimate_area, estimate_timing, level_population,
    AreaEstimate, TimingEstimate,
};

#[cfg(test)]
mod tests;
