//! Cascade-serve: a multi-tenant Cascade server over a shared
//! virtual-FPGA fleet.
//!
//! The single-user [`cascade_core::Runtime`] gives one engineer the JIT
//! experience — eval Verilog, run it immediately in software, migrate to
//! hardware when the background compile lands. This crate hosts *many*
//! such runtimes behind one server process, the way SYNERGY virtualizes
//! Cascade over shared FPGAs:
//!
//! - **protocol**: newline-delimited JSON over TCP (or in-process), one
//!   request/reply pair per line — REPL input, `$display` output, stats.
//! - **sessions**: one runtime per session, hosted on a worker-thread
//!   pool (the runtime is `Send`, asserted in core), with idle timeouts
//!   and bounded output queues with backpressure.
//! - **fleet**: N virtual fabrics shared by all sessions. A finished
//!   background compile needs a fabric lease to promote; under contention
//!   the arbiter revokes the coldest tenant's lease, and the victim
//!   migrates its state back to software via the `get_state` engine ABI —
//!   it keeps running, just slower.
//! - **compile pool**: K toolchain workers, a bounded job queue that
//!   sheds the oldest work, and a shared content-hash bitstream cache, so
//!   a re-promoted tenant pays ~1 modeled second, not a full synthesis.
//!
//! Modules: `protocol`, `json` and `frame` (the wire), `client`, `server`
//! (TCP), and `session` — [`Server`] and the session table — whose
//! children each own one block of server state: `session::sched` (shards,
//! workers, sweeper), `session::execute` (commands, teardown, output),
//! `session::journal` (write-ahead journal, recovery, replay),
//! `session::dormant` (hibernation), `session::meter` (bills, phases,
//! the counter table) and `session::subscribe` (telemetry streams).
//!
//! ```no_run
//! use cascade_serve::{InProcClient, ServeConfig, Server};
//!
//! let server = Server::new(ServeConfig::quick());
//! let mut client = InProcClient::connect(&server);
//! client.open().unwrap();
//! client.eval("reg [7:0] cnt = 0;").unwrap();
//! client.eval("always @(posedge clk.val) cnt <= cnt + 1;").unwrap();
//! client.run(100).unwrap();
//! assert_eq!(client.probe("cnt").unwrap(), Some(100));
//! ```

mod client;
mod frame;
pub mod json;
pub mod protocol;
mod server;
mod session;

pub use client::{Client, EvalResult, InProc, InProcClient, RunResult, Tcp, TcpClient, Transport};
pub use json::Json;
pub use protocol::Request;
pub use server::TcpServer;
pub use session::{ServeConfig, Server};
