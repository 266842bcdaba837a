//! Cascade-trace: virtual-time-aware tracing, metrics, and JIT phase
//! profiling for Cascade-rs.
//!
//! The paper's headline claim is a *user-experience curve*: a program
//! starts in the interpreter and "just gets faster" as the JIT promotes it
//! through compiled software, hardware, and native mode. This crate is the
//! instrument that makes the curve observable:
//!
//! - [`TraceSink`] — a structured span/event tracer over a bounded ring
//!   buffer, recording the JIT lifecycle (parse, elaborate, software
//!   compile, synthesis, place-and-route attempts, bitstream programming,
//!   state migration, revocation, rollback/replay, native handoff) with
//!   **dual clocks**: deterministic modeled virtual time and host wall
//!   time. A disabled sink is a no-op costing one branch.
//! - [`export_jsonl`] / [`export_chrome_json`] — Chrome-trace/Perfetto
//!   compatible export; [`TimeMode::VirtualOnly`] is byte-identical across
//!   runs with the same seed and `FaultPlan`.
//! - [`render_timeline`] — the "gets faster" curve as terminal text.
//! - [`Registry`] — typed counters/gauges/fixed-bucket histograms with a
//!   Prometheus-style text exposition; counters are declared once and
//!   survive component swaps because redeclaration returns the same cell.
//!
//! ```
//! use cascade_trace::{Arg, Registry, TimeMode, TraceSink};
//!
//! let sink = TraceSink::ring(1024);
//! sink.span(1, "compile", "place_route", 0, 14_000_000_000,
//!           &[("attempt", Arg::U64(1))]);
//! let jsonl = cascade_trace::export_jsonl(&sink.snapshot(), TimeMode::VirtualOnly);
//! assert!(jsonl.contains("\"name\":\"place_route\""));
//!
//! let reg = Registry::new();
//! let retries = reg.counter("compile_retries_total", "toolchain retries");
//! retries.inc();
//! assert!(reg.expose().contains("compile_retries_total 1"));
//! ```

mod ctx;
mod event;
mod export;
mod metrics;
mod ring;
mod sink;
mod timeline;

pub use ctx::{RequestCtx, SpanRef};
pub use event::{Arg, ArgValue, Phase, TraceEvent};
pub use export::{
    escape_json, event_to_json, export_chrome_json, export_jsonl, fmt_f64, TimeMode,
    SCHEMA_REQUIRED_FIELDS,
};
pub use metrics::{
    expose, family_name, merge, valid_metric_name, Counter, Gauge, Histogram, MetricSnapshot,
    Registry, SnapValue, LATENCY_BUCKETS_S,
};
pub use sink::{TraceSink, DEFAULT_RING_CAPACITY};
pub use timeline::render_timeline;
