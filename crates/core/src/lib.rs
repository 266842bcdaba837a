//! Cascade-rs: a just-in-time compiler and runtime for Verilog.
//!
//! A Rust reproduction of *"Just-in-Time Compilation for Verilog"*
//! (Schkufza, Wei, Rossbach — ASPLOS 2019). Eval'ed Verilog runs
//! immediately in a software interpreter while the (virtual) FPGA toolchain
//! compiles in the background; when the bitstream is ready the program's
//! state migrates into hardware and it simply gets faster. Unsynthesizable
//! `$display`/`$finish` keep working from hardware, IO peripherals are
//! standard-library components visible in every compilation state, and a
//! finalized design can drop into native mode.
//!
//! # Quick start
//!
//! ```
//! use cascade_core::{JitConfig, Runtime};
//! use cascade_fpga::Board;
//!
//! let board = Board::new();
//! let mut cascade = Runtime::new(board.clone(), JitConfig::default())?;
//! // The paper's running example: rotate LEDs, pause on a button press.
//! cascade.eval("reg [7:0] cnt = 1;")?;
//! cascade.eval(
//!     "always @(posedge clk.val)\n\
//!        if (pad.val == 0)\n\
//!          cnt <= (cnt == 8'h80) ? 8'h1 : (cnt << 1);",
//! )?;
//! cascade.eval("assign led.val = cnt;")?;
//! cascade.run_ticks(2)?;
//! assert_eq!(board.leds().to_u64(), 4);
//! # Ok::<(), cascade_core::CascadeError>(())
//! ```

mod compiler;
mod config;
pub mod engine;
mod error;
pub mod fig10;
pub mod hibernate;
mod plane;
mod repl;
mod runtime;
pub mod transform;

pub use compiler::{
    BackgroundCompiler, BitstreamCache, CompileOutcome, CompilePool, CompileQueue, HwSource,
    RetryPolicy, DEFAULT_BITSTREAM_CACHE_CAPACITY,
};
pub use config::JitConfig;
pub use engine::{Engine, EngineKind, EngineState, TaskEvent};
pub use error::{panic_message, CascadeError};
pub use hibernate::HibernateImage;
pub use repl::{Repl, ReplResponse};
pub use runtime::{ExecMode, Runtime, RuntimeStats};

#[cfg(test)]
mod tests;
