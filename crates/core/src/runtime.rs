//! The Cascade runtime (paper Sec. 3.4, Fig. 5 & 6).
//!
//! The runtime owns the program's source, the engine for each subprogram,
//! the data/control plane wiring them, the interrupt queue, and the
//! scheduler. Code eval'ed by the user is integrated between time steps —
//! when the event queue is empty and the system is in an observable state —
//! which is also when hardware engines replace software engines and
//! interrupts (system-task side effects) are serviced.

use crate::compiler::{
    BackgroundCompiler, CompileQueue, CompilerMetrics, HwSource, RetryPolicy, SUBPROGRAM,
};
use crate::config::JitConfig;
use crate::engine::clock::{self, ClockEngine};
use crate::engine::hw::{Forwarded, HwEngine};
use crate::engine::native::NativeEngine;
use crate::engine::peripheral::{PeripheralEngine, PERIPHERAL_CLOCK_PORT};
use crate::engine::sw::SwEngine;
use crate::engine::{Engine, EngineKind, EngineState, PortId, TaskEvent};
use crate::error::{panic_message, CascadeError};
use crate::plane::{Counts, Endpoint, Plan, ResolvedWire, Slot, SlotEngine};
use crate::transform::{transform_module, Externals, Wire};
use cascade_bits::Bits;
use cascade_fpga::{Board, FabricFault, Fleet, Lease, VirtualWall};
use cascade_sim::PortVcd;
use cascade_trace::{
    expose, Arg, Counter, Histogram, MetricSnapshot, Registry, RequestCtx, SnapValue, SpanRef,
    TraceSink, LATENCY_BUCKETS_S,
};
use cascade_verilog::ast::{Item, Module, ModuleItem};
use cascade_verilog::typecheck::{check_module, const_eval, ModuleLibrary, ParamEnv};
use cascade_verilog::Span;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The name of the implicit root module.
const ROOT: &str = "main";

/// One accumulated root-module item and whether its one-shot part has
/// already executed (statements and initial blocks run exactly once, when
/// eval'ed).
#[derive(Debug, Clone)]
struct RootEntry {
    item: ModuleItem,
    executed: bool,
}

/// A consistent snapshot of every engine's state, taken at a verified
/// point (a clean scrub boundary in hardware, a tick boundary in
/// software). Restoring it rewinds the program to that point.
struct Checkpoint {
    states: BTreeMap<String, EngineState>,
    iterations: u64,
    finished: bool,
}

/// Registry-backed runtime counters. Handles are declared by name;
/// re-declaring after a component swap (shared compile queue, checkpoint
/// restore, engine replacement) returns the *same* cells, which is what
/// keeps recovery counters monotonic across rollback and replay.
#[derive(Clone)]
struct RuntimeMetrics {
    hw_promotions: Counter,
    lease_demotions: Counter,
    scrubs: Counter,
    scrub_detections: Counter,
    checkpoints_taken: Counter,
    checkpoints_restored: Counter,
    fabric_losses: Counter,
    /// Virtual seconds from "bitstream ready" to "fabric lease granted".
    lease_wait: Histogram,
}

impl RuntimeMetrics {
    fn from_registry(reg: &Registry) -> Self {
        RuntimeMetrics {
            hw_promotions: reg.counter(
                "jit_hw_promotions_total",
                "software-to-hardware engine swaps performed",
            ),
            lease_demotions: reg.counter(
                "jit_lease_demotions_total",
                "hardware-to-software demotions forced by lease revocation",
            ),
            scrubs: reg.counter(
                "jit_scrubs_total",
                "readback scrubs performed against the hardware engine",
            ),
            scrub_detections: reg.counter(
                "jit_scrub_detections_total",
                "scrubs that detected a fabric soft error",
            ),
            checkpoints_taken: reg
                .counter("jit_checkpoints_taken_total", "recovery checkpoints taken"),
            checkpoints_restored: reg.counter(
                "jit_checkpoints_restored_total",
                "recovery checkpoints restored (rollbacks)",
            ),
            fabric_losses: reg.counter(
                "jit_fabric_losses_total",
                "fabric losses survived (the program resumed in software)",
            ),
            lease_wait: reg.histogram(
                "jit_lease_wait_seconds",
                "virtual seconds a ready bitstream waited for a fabric lease",
                LATENCY_BUCKETS_S,
            ),
        }
    }
}

/// An active waveform dump: a VCD stream fed one sample per tick.
struct VcdTap {
    writer: PortVcd<std::io::BufWriter<std::fs::File>>,
    /// The sampled main-engine signals, by name and by handle in the
    /// current main engine. The clock is sampled ahead of them.
    ports: Vec<(String, PortId)>,
    /// Sample buffer, reused every tick: the clock, then `ports`.
    values: Vec<Option<Bits>>,
    path: String,
}

/// Emit a `ticks_per_s` trace sample at least every this many ticks.
const RATE_SAMPLE_TICKS: u64 = 1024;

/// Scheduler iterations (2 per tick) a denied lease request waits before
/// re-asking the arbiter mid-run. Small enough that promotion lands within
/// microseconds of a freed fabric; large enough that leaseless tenants
/// don't serialize the server on the fleet mutex.
const LEASE_POLL_STRIDE_ITERS: u64 = 128;

/// How the program is currently executing (for instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// No user logic yet.
    Idle,
    /// Software engines on the data plane.
    Software,
    /// User logic in hardware; stdlib still on the data plane.
    Hardware,
    /// Hardware with stdlib absorbed (ABI forwarding).
    HardwareForwarded,
    /// Wrapper-free native execution.
    Native,
}

impl ExecMode {
    /// Stable lowercase name (trace events, timeline, metrics).
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Idle => "idle",
            ExecMode::Software => "software",
            ExecMode::Hardware => "hardware",
            ExecMode::HardwareForwarded => "hardware-forwarded",
            ExecMode::Native => "native",
        }
    }
}

/// Point-in-time runtime statistics.
#[derive(Debug, Clone)]
pub struct RuntimeStats {
    pub version: u64,
    pub ticks: u64,
    pub wall_seconds: f64,
    pub mode: ExecMode,
    pub compile_in_flight: bool,
    pub engines: Vec<(String, EngineKind)>,
    /// Whether the last `run_ticks` batch used open-loop scheduling.
    pub open_loop_active: bool,
    /// Background compiles answered from the content-hash bitstream cache.
    pub compile_cache_hits: u64,
    /// Background compiles that ran the full modeled toolchain flow.
    pub compile_cache_misses: u64,
    /// Bitstreams evicted from the bounded cache (LRU).
    pub compile_cache_evictions: u64,
    /// Whether this runtime currently holds a fabric lease from an
    /// attached [`Fleet`].
    pub lease_held: bool,
    /// Whether a compiled bitstream is ready but waiting for a fabric.
    pub hw_pending: bool,
    /// Software→hardware engine swaps performed.
    pub hw_promotions: u64,
    /// Hardware→software demotions forced by fleet lease revocation.
    pub lease_demotions: u64,
    /// Transient compile failures (faults, hangs, worker panics) that were
    /// retried with exponential backoff.
    pub compile_retries: u64,
    /// Hung toolchain runs cancelled by the modeled compile watchdog.
    pub compile_watchdog_cancels: u64,
    /// Compile-worker panics contained at an isolation boundary.
    pub panics_contained: u64,
    /// Readback scrubs performed against the hardware engine.
    pub scrubs: u64,
    /// Scrubs that detected a fabric soft error (each triggers a rollback
    /// to the last checkpoint and software re-execution).
    pub scrub_detections: u64,
    /// Recovery checkpoints taken.
    pub checkpoints_taken: u64,
    /// Recovery checkpoints restored (rollbacks).
    pub checkpoints_restored: u64,
    /// Fabric losses survived (the program resumed in software).
    pub fabric_losses: u64,
}

/// The Cascade runtime: eval Verilog, run it immediately, let the JIT move
/// it into (virtual) hardware behind your back.
///
/// # Examples
///
/// ```
/// use cascade_core::{JitConfig, Runtime};
/// use cascade_fpga::Board;
///
/// let board = Board::new();
/// let mut cascade = Runtime::new(board.clone(), JitConfig::default())?;
/// cascade.eval(
///     "reg [7:0] cnt = 1;\n\
///      always @(posedge clk.val) cnt <= (cnt == 8'h80) ? 8'h1 : (cnt << 1);\n\
///      assign led.val = cnt;",
/// )?;
/// cascade.run_ticks(3)?;
/// assert_eq!(board.leds().to_u64(), 8);
/// # Ok::<(), cascade_core::CascadeError>(())
/// ```
pub struct Runtime {
    config: JitConfig,
    board: Board,
    lib: ModuleLibrary,
    root: Vec<RootEntry>,
    version: u64,
    /// Committed source text in eval order. Programs are append-only
    /// (paper Sec. 7.2), so this log plus a checkpoint's engine states is
    /// a complete hibernation image — see [`Runtime::hibernate_image`].
    src_log: Vec<String>,

    slots: Vec<Slot>,
    wires: Vec<ResolvedWire>,
    clock_idx: usize,
    main_idx: Option<usize>,
    /// Polls, reads and batched ticks (see [`Runtime::data_plane_polls`]).
    counts: Counts,
    /// The plane lowered for the batch, when it has the batch's shape.
    plan: Option<Plan>,

    output: Vec<String>,
    finished: bool,
    wall: VirtualWall,
    iterations: u64,

    compiler: BackgroundCompiler,
    /// Hardware form of the current main subprogram (what gets compiled).
    hw_source: Option<Arc<HwSource>>,
    native: bool,
    open_loop_last: bool,
    /// Adaptive open-loop budget in cycles (paper Sec. 4.4: "adaptive
    /// profiling is used to choose an iteration limit which allows the
    /// engine to relinquish control on a regular basis").
    open_loop_budget: f64,
    /// Warnings surfaced asynchronously (compile failures).
    warnings: Vec<String>,

    /// Shared fabric fleet this runtime arbitrates through (multi-tenant
    /// serving); `None` means a dedicated fabric is always available.
    fleet: Option<(Fleet, u64)>,
    /// The fabric lease currently held (hardware execution).
    lease: Option<Lease>,
    /// Activity heat reported to the fleet arbiter (server-assigned,
    /// monotonically increasing across tenants).
    heat: f64,
    /// A compiled bitstream waiting for a fabric lease.
    pending_hw: Option<Arc<cascade_netlist::Netlist>>,
    /// Virtual second at which `pending_hw` was staged (lease-wait
    /// histogram start point).
    hw_pending_since_s: Option<f64>,
    /// Iteration before which a denied lease request is not retried
    /// (per-tick arbiter polling serializes on the fleet mutex).
    lease_backoff_until_iter: u64,

    /// Last known-good snapshot (the rollback point).
    checkpoint: Option<Checkpoint>,
    /// Iteration of the last scrub boundary (hardware windows).
    last_scrub_iter: u64,
    /// Iteration of the last checkpoint.
    last_ckpt_iter: u64,
    /// Output produced inside the current unverified hardware window:
    /// committed at the next clean scrub, discarded on rollback.
    quarantine: Vec<String>,
    /// Recovery events. Deliberately separate from `output`: fault
    /// recovery must leave the user-visible transcript byte-identical to
    /// a fault-free run.
    recovery_log: Vec<String>,

    /// Typed metric cells backing the recovery/JIT counters (see
    /// [`RuntimeMetrics`]); declared in `registry`.
    metrics: RuntimeMetrics,
    /// The registry behind [`Runtime::metrics_snapshot`]; servers merge
    /// per-session registries into one exposition.
    registry: Registry,
    /// JIT lifecycle trace sink (disabled by default; see `JitConfig`).
    trace: TraceSink,
    /// Track id stamped on trace events (the serve session id).
    track: u64,
    /// The request currently being serviced (causal tracing): every trace
    /// event emitted while set joins that request's span tree, and compile
    /// submissions carry it into the shared pool.
    req_ctx: Option<RequestCtx>,
    /// Last execution mode announced on the trace (dedup).
    last_mode: Option<&'static str>,
    /// `ticks_per_s` sampling state: virtual second and tick count of the
    /// previous sample.
    rate_last_s: f64,
    rate_last_ticks: u64,
    /// Active waveform dump, if any (disables open-loop batching so every
    /// tick is observable).
    vcd: Option<VcdTap>,
}

// Sessions are hosted on server worker threads; the runtime must be free
// to migrate between them.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Runtime>();
};

impl Runtime {
    /// Creates a runtime bound to a virtual board. The standard library is
    /// declared and its implicit components (`clk`, `pad`, `led`) are
    /// instantiated.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] only on internal stdlib declaration
    /// failures.
    pub fn new(board: Board, config: JitConfig) -> Result<Self, CascadeError> {
        let lib = cascade_stdlib::stdlib_library().clone();
        // Seed the adaptive open-loop budget from the device clock: one
        // batch ≈ one control-return period at full fabric speed. The
        // controller rescales from measured cost after the first batch.
        let open_loop_budget = config
            .toolchain
            .device
            .open_loop_batch_hint(config.open_loop_target_s)
            .min(1 << 22) as f64;
        let registry = Registry::new();
        let metrics = RuntimeMetrics::from_registry(&registry);
        let trace = config.trace.clone();
        let mut rt = Runtime {
            config,
            board,
            lib,
            root: Vec::new(),
            version: 0,
            src_log: Vec::new(),
            slots: Vec::new(),
            wires: Vec::new(),
            clock_idx: 0,
            main_idx: None,
            counts: Counts::default(),
            plan: None,
            output: Vec::new(),
            finished: false,
            wall: VirtualWall::new(),
            iterations: 0,
            compiler: BackgroundCompiler::new(),
            hw_source: None,
            native: false,
            open_loop_last: false,
            open_loop_budget,
            warnings: Vec::new(),
            fleet: None,
            lease: None,
            heat: 0.0,
            pending_hw: None,
            hw_pending_since_s: None,
            lease_backoff_until_iter: 0,
            checkpoint: None,
            last_scrub_iter: 0,
            last_ckpt_iter: 0,
            quarantine: Vec::new(),
            recovery_log: Vec::new(),
            metrics,
            registry,
            trace,
            track: 0,
            req_ctx: None,
            last_mode: None,
            rate_last_s: 0.0,
            rate_last_ticks: 0,
            vcd: None,
        };
        let policy = rt.retry_policy();
        rt.compiler.configure(policy, rt.config.faults.clone());
        rt.reattach_compiler_telemetry();
        rt.rebuild()?;
        Ok(rt)
    }

    /// (Re-)hands the compiler its registry-backed metric cells and the
    /// trace sink. Registration is idempotent, so a replaced compiler
    /// inherits the *same* counters — retries/watchdog/panic counts stay
    /// monotonic across compiler swaps and checkpoint restores.
    fn reattach_compiler_telemetry(&mut self) {
        self.compiler.attach_telemetry(
            CompilerMetrics::from_registry(&self.registry),
            self.trace.clone(),
            self.track,
        );
    }

    // ------------------------------------------------------------------
    // Trace emission. Every virtual-clock event is emitted from this
    // (session) thread against the modeled wall clock, so the
    // virtual-time export is deterministic for a given seed + FaultPlan.
    // ------------------------------------------------------------------

    #[inline]
    fn virt_ns(&self) -> u64 {
        (self.wall.seconds() * 1e9) as u64
    }

    /// `(event span, parent)` for an emission under the active request:
    /// each event gets a fresh child span under the request root. Zeroed
    /// (no attribution) outside a request.
    fn req_at(&self) -> (SpanRef, u64) {
        match &self.req_ctx {
            Some(ctx) => (ctx.span_ref(ctx.child_span()), ctx.root_span()),
            None => (SpanRef::default(), 0),
        }
    }

    /// Announces the execution mode on the trace when it changed — the
    /// paper's promotion staircase, one instant per step.
    fn trace_mode(&mut self) {
        if !self.trace.enabled() {
            return;
        }
        let m = self.mode().name();
        if self.last_mode == Some(m) {
            return;
        }
        self.last_mode = Some(m);
        let (at, parent) = self.req_at();
        self.trace.instant_ctx(
            self.track,
            "jit",
            "mode",
            self.virt_ns(),
            at,
            parent,
            &[("mode", Arg::Str(m)), ("ticks", Arg::U64(self.ticks()))],
        );
    }

    /// Rate-limited `ticks_per_s` counter samples: at most one per
    /// [`RATE_SAMPLE_TICKS`] ticks of progress. The rate is virtual ticks
    /// over virtual seconds — the "gets faster" curve itself.
    fn trace_rate(&mut self) {
        if !self.trace.enabled() {
            return;
        }
        let ticks = self.ticks();
        if ticks.saturating_sub(self.rate_last_ticks) < RATE_SAMPLE_TICKS {
            return;
        }
        let now = self.wall.seconds();
        let dt = now - self.rate_last_s;
        let dticks = ticks.saturating_sub(self.rate_last_ticks);
        self.rate_last_s = now;
        self.rate_last_ticks = ticks;
        if dt <= 0.0 {
            return;
        }
        let mode = self.mode().name();
        self.trace.counter(
            self.track,
            "jit",
            "ticks_per_s",
            self.virt_ns(),
            &[
                ("value", Arg::F64(dticks as f64 / dt)),
                ("mode", Arg::Str(mode)),
            ],
        );
    }

    /// Emits a virtual-clock instant in the `jit` category, attributed to
    /// the active request (when any).
    fn trace_instant(&self, name: &str, args: &[(&str, Arg)]) {
        if self.trace.enabled() {
            let (at, parent) = self.req_at();
            self.trace
                .instant_ctx(self.track, "jit", name, self.virt_ns(), at, parent, args);
        }
    }

    /// The compile retry/watchdog policy, with modeled seconds compressed
    /// by the toolchain's time scale (like compile latency itself).
    fn retry_policy(&self) -> RetryPolicy {
        let scale = self.config.toolchain.time_scale;
        let modeled = RetryPolicy::default();
        RetryPolicy {
            max_retries: self.config.compile_max_retries,
            backoff_s: modeled.backoff_s * scale,
            watchdog_s: modeled.watchdog_s * scale,
        }
    }

    // ------------------------------------------------------------------
    // Public surface
    // ------------------------------------------------------------------

    /// The board this runtime drives.
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// Virtual clock ticks executed.
    pub fn ticks(&self) -> u64 {
        self.iterations / 2
    }

    /// Modeled wall-clock seconds elapsed.
    pub fn wall_seconds(&self) -> f64 {
        self.wall.seconds()
    }

    /// Advances the modeled wall clock without executing (idle time, e.g.
    /// a user reading the screen in the study model).
    pub fn advance_wall(&mut self, seconds: f64) {
        self.wall.advance_ns(seconds * 1e9);
    }

    /// Whether `$finish` has executed.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Drains view output (`$display` text, warnings).
    pub fn drain_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    /// Current statistics.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            version: self.version,
            ticks: self.ticks(),
            wall_seconds: self.wall.seconds(),
            mode: self.mode(),
            compile_in_flight: self.compiler.busy(),
            engines: self
                .slots
                .iter()
                .map(|s| (s.name.clone(), s.kind()))
                .collect(),
            open_loop_active: self.open_loop_last,
            compile_cache_hits: self.compiler.cache_hits(),
            compile_cache_misses: self.compiler.cache_misses(),
            compile_cache_evictions: self.compiler.cache_evictions(),
            lease_held: self.lease.is_some(),
            hw_pending: self.pending_hw.is_some(),
            hw_promotions: self.metrics.hw_promotions.get(),
            lease_demotions: self.metrics.lease_demotions.get(),
            compile_retries: self.compiler.retries(),
            compile_watchdog_cancels: self.compiler.watchdog_cancels(),
            panics_contained: self.compiler.worker_panics(),
            scrubs: self.metrics.scrubs.get(),
            scrub_detections: self.metrics.scrub_detections.get(),
            checkpoints_taken: self.metrics.checkpoints_taken.get(),
            checkpoints_restored: self.metrics.checkpoints_restored.get(),
            fabric_losses: self.metrics.fabric_losses.get(),
        }
    }

    /// The metrics registry backing this runtime's typed counters and
    /// histograms. A server merges per-session registries into one
    /// Prometheus-style exposition.
    pub fn metrics_registry(&self) -> &Registry {
        &self.registry
    }

    /// Point-in-time metric snapshots: every registry metric plus derived
    /// gauges/counters for the remaining [`RuntimeStats`] fields, so the
    /// exposition covers the whole legacy stats surface.
    pub fn metrics_snapshot(&self) -> Vec<MetricSnapshot> {
        let mut snaps = self.registry.snapshot();
        let s = self.stats();
        let gauge = |name: &str, help: &str, v: f64| MetricSnapshot {
            name: name.to_string(),
            help: help.to_string(),
            value: SnapValue::Gauge(v),
        };
        let counter = |name: &str, help: &str, v: u64| MetricSnapshot {
            name: name.to_string(),
            help: help.to_string(),
            value: SnapValue::Counter(v),
        };
        let flag = |b: bool| {
            if b {
                1.0
            } else {
                0.0
            }
        };
        let mode_code = match s.mode {
            ExecMode::Idle => 0.0,
            ExecMode::Software => 1.0,
            ExecMode::Hardware => 2.0,
            ExecMode::HardwareForwarded => 3.0,
            ExecMode::Native => 4.0,
        };
        cascade_trace::merge(
            &mut snaps,
            vec![
                counter("jit_ticks_total", "virtual clock ticks executed", s.ticks),
                gauge(
                    "jit_wall_seconds",
                    "modeled wall-clock seconds elapsed",
                    s.wall_seconds,
                ),
                gauge(
                    "jit_version",
                    "program version (eval count)",
                    s.version as f64,
                ),
                gauge(
                    "jit_mode",
                    "execution mode (0=idle 1=software 2=hardware 3=hardware-forwarded 4=native)",
                    mode_code,
                ),
                gauge(
                    "jit_compile_in_flight",
                    "whether a background compile is in flight",
                    flag(s.compile_in_flight),
                ),
                gauge(
                    "jit_open_loop_active",
                    "whether the last batch used open-loop scheduling",
                    flag(s.open_loop_active),
                ),
                counter(
                    "jit_compile_cache_hits_total",
                    "background compiles answered from the bitstream cache",
                    s.compile_cache_hits,
                ),
                counter(
                    "jit_compile_cache_misses_total",
                    "background compiles that ran the full toolchain flow",
                    s.compile_cache_misses,
                ),
                counter(
                    "jit_compile_cache_evictions_total",
                    "bitstreams evicted from the bounded cache",
                    s.compile_cache_evictions,
                ),
                gauge(
                    "jit_lease_held",
                    "whether a fabric lease is currently held",
                    flag(s.lease_held),
                ),
                gauge(
                    "jit_hw_pending",
                    "whether a compiled bitstream is waiting for a fabric",
                    flag(s.hw_pending),
                ),
                counter(
                    "trace_ring_dropped_total",
                    "trace events dropped to ring-buffer overflow",
                    self.trace.dropped(),
                ),
            ],
        );
        snaps
    }

    /// Prometheus-style text exposition of [`Runtime::metrics_snapshot`].
    pub fn metrics_text(&self) -> String {
        expose(&self.metrics_snapshot())
    }

    /// The trace sink this runtime emits JIT lifecycle events into.
    pub fn trace_sink(&self) -> &TraceSink {
        &self.trace
    }

    /// Renders the active main engine's execution profile, or `None` when
    /// there is no user logic or profiling is off (tracing disabled).
    /// Attribution follows the engine: the bytecode engine reports source
    /// processes and opcode mnemonics, the virtual-hardware engine reports
    /// combinational levels, kernels, and hot nets.
    pub fn profile_text(&mut self) -> Option<String> {
        let idx = self.main_idx?;
        let engine = &mut self.slots[idx].engine;
        let mut out = String::new();
        use std::fmt::Write as _;
        if let Some(sw) = engine.software() {
            let rep = sw.profile_report()?;
            let _ = writeln!(out, "profile (software engine, bytecode):");
            let _ = writeln!(out, "  process activations:");
            for (label, n) in rep.procs.iter().take(12) {
                let _ = writeln!(out, "    {n:>12}  {label}");
            }
            let _ = writeln!(out, "  opcode executions (est):");
            for (op, n) in rep.opcodes.iter().take(12) {
                let _ = writeln!(out, "    {n:>12}  {op}");
            }
            return Some(out);
        }
        if let Some(hw) = engine.hardware() {
            let rep = hw.profile_report()?;
            let _ = writeln!(out, "profile (hardware engine, arena):");
            let _ = writeln!(out, "  instruction executions by level:");
            for (lvl, n) in rep.levels.iter().take(12) {
                let _ = writeln!(out, "    {n:>12}  level {lvl}");
            }
            // Per-kernel lane occupancy: share of evaluated lanes whose
            // output changed.
            let occ: std::collections::BTreeMap<&str, f64> =
                rep.kernel_occupancy.iter().map(|&(k, v)| (k, v)).collect();
            let _ = writeln!(out, "  kernel executions:");
            for (k, n) in rep.kernels.iter().take(12) {
                match occ.get(*k) {
                    Some(share) => {
                        let _ = writeln!(out, "    {n:>12}  {k}  occ {:>3.0}%", share * 100.0);
                    }
                    None => {
                        let _ = writeln!(out, "    {n:>12}  {k}");
                    }
                }
            }
            let _ = writeln!(out, "  hot nets:");
            for (name, n) in rep.hot_nets.iter().take(12) {
                let _ = writeln!(out, "    {n:>12}  {name}");
            }
            return Some(out);
        }
        None
    }

    /// Sets the track id stamped on this runtime's trace events (servers
    /// use the session id, so one shared sink holds every session).
    pub fn set_trace_track(&mut self, track: u64) {
        self.track = track;
        self.reattach_compiler_telemetry();
    }

    /// Enters (or leaves, with `None`) a request's causal context: until
    /// changed, every trace event this runtime emits joins that request's
    /// span tree, and compile submissions carry the context into the
    /// shared pool. Servers set this around each protocol command.
    pub fn set_request_ctx(&mut self, ctx: Option<RequestCtx>) {
        self.req_ctx = ctx;
    }

    /// Joins a shared virtual-FPGA fleet: hardware promotion now requires a
    /// fabric lease from `fleet`, and the lease can be revoked (the runtime
    /// migrates back to its software engine at the next tick boundary).
    /// `tenant` must be unique across the fleet's tenants.
    pub fn attach_fleet(&mut self, fleet: Fleet, tenant: u64) {
        self.fleet = Some((fleet, tenant));
    }

    /// The trace track id stamped on this runtime's events.
    pub fn trace_track(&self) -> u64 {
        self.track
    }

    /// Routes background compiles through a shared [`CompilePool`] queue
    /// (replacing the private per-runtime compiler and cache). Call before
    /// the first `eval`.
    ///
    /// [`CompilePool`]: crate::CompilePool
    pub fn attach_compile_queue(&mut self, queue: CompileQueue) {
        self.compiler = BackgroundCompiler::with_queue(queue);
        self.compiler
            .configure(self.retry_policy(), self.config.faults.clone());
        // The replacement compiler re-fetches the same registry cells, so
        // retry/watchdog/panic counts survive the swap instead of
        // resetting to zero.
        self.reattach_compiler_telemetry();
    }

    /// Reports this tenant's activity heat to the fleet arbiter (higher =
    /// more recently active; the server assigns monotonically increasing
    /// stamps across tenants).
    pub fn set_heat(&mut self, heat: f64) {
        self.heat = heat;
        self.lease_backoff_until_iter = 0;
        if let Some((fleet, tenant)) = &self.fleet {
            fleet.touch(*tenant, heat);
        }
    }

    /// Whether this runtime currently holds a fabric lease.
    pub fn lease_held(&self) -> bool {
        self.lease.is_some()
    }

    /// Services fleet and compiler events without advancing virtual time:
    /// vacates a revoked lease (migrating state back to software), polls
    /// the background compiler, and claims a fabric when one is available.
    /// The server calls this on idle sessions so a revocation or a
    /// reservation does not wait for the tenant's next command.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] if an engine rebuild or swap fails.
    pub fn service(&mut self) -> Result<(), CascadeError> {
        self.check_revocation()?;
        self.poll_compiler()?;
        // Command boundary: always re-ask the arbiter, even mid-backoff.
        self.lease_backoff_until_iter = 0;
        self.try_promote()
    }

    /// The current execution mode.
    pub fn mode(&self) -> ExecMode {
        if self.native {
            return ExecMode::Native;
        }
        match self.main_idx {
            None => ExecMode::Idle,
            Some(i) => match self.slots[i].kind() {
                EngineKind::Hardware => {
                    if self.slots.len() <= 2 {
                        ExecMode::HardwareForwarded
                    } else {
                        ExecMode::Hardware
                    }
                }
                EngineKind::Native => ExecMode::Native,
                _ => ExecMode::Software,
            },
        }
    }

    /// Evaluates Verilog source: module declarations enter the library;
    /// bare items (declarations, instantiations, statements) append to the
    /// implicit root module. Code begins executing immediately — statements
    /// run once, and any `$display` output is available from
    /// [`Runtime::drain_output`] on return.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] on parse/type errors; the program is left
    /// unchanged.
    pub fn eval(&mut self, src: &str) -> Result<(), CascadeError> {
        let t0 = self.virt_ns();
        let h0 = self.trace.host_ns();
        let src = cascade_verilog::preproc::preprocess(src, &cascade_verilog::preproc::NoIncludes)?;
        let unit = cascade_verilog::parse(&src)?;
        let h_parse = self.trace.host_ns();
        // Stage: validate before mutating.
        let mut staged_lib = self.lib.clone();
        let mut staged_root = self.root.clone();
        for item in unit.items {
            match item {
                Item::Module(m) => {
                    if cascade_stdlib::is_stdlib_module(&m.name) {
                        return Err(CascadeError::Unsupported(format!(
                            "cannot redeclare standard-library module `{}`",
                            m.name
                        )));
                    }
                    // Monotonicity (paper Sec. 7.2): eval may add code to a
                    // running program but never edit or delete it — the
                    // soundness of running code immediately depends on later
                    // evals not changing its semantics.
                    if staged_lib.contains(&m.name) {
                        return Err(CascadeError::Unsupported(format!(
                            "cannot redeclare module `{}`: Cascade programs are append-only \
                             (paper Sec. 7.2)",
                            m.name
                        )));
                    }
                    check_module(&m, &ParamEnv::new(), &staged_lib)
                        .map_err(CascadeError::Typecheck)?;
                    staged_lib.insert(m);
                }
                Item::RootItem(mi) => {
                    staged_root.push(RootEntry {
                        item: mi,
                        executed: false,
                    });
                }
            }
        }
        // Validate the composed root module.
        let root_module = compose_root(&staged_root, false);
        let externals = root_externals(&root_module, &staged_lib)?;
        let mut wires = Vec::new();
        let transformed =
            transform_module(ROOT, &root_module, &externals, &staged_lib, &mut wires)?;
        check_module(&transformed, &ParamEnv::new(), &staged_lib)
            .map_err(CascadeError::Typecheck)?;
        let h_elaborate = self.trace.host_ns();
        // Commit. Any open speculation window is verified first so the
        // state a rebuild migrates is trustworthy; a mid-commit rebuild
        // failure (or panic) restores the previous program so one bad item
        // cannot take the session down.
        self.verify_speculation()?;
        let prev_lib = std::mem::replace(&mut self.lib, staged_lib);
        let prev_root = std::mem::replace(&mut self.root, staged_root);
        self.version += 1;
        self.native = false;
        match catch_unwind(AssertUnwindSafe(|| self.rebuild())) {
            Ok(Ok(())) => {
                // Committed: the (preprocessed) text joins the hibernation
                // replay log. Preprocessed form keeps `define scoping
                // per-eval even when the log is replayed as one unit.
                self.src_log.push(src.clone());
                if self.trace.enabled() {
                    let (at, parent) = self.req_at();
                    self.trace.span_ctx(
                        self.track,
                        "jit",
                        "eval",
                        t0,
                        self.virt_ns().saturating_sub(t0),
                        at,
                        parent,
                        &[("version", Arg::U64(self.version))],
                    );
                    // Host-clock parse/elaborate timings ride on a
                    // non-deterministic instant so the virtual-time export
                    // stays byte-identical across runs.
                    self.trace.host_instant(
                        self.track,
                        "jit",
                        "eval_host",
                        &[
                            ("parse_ns", Arg::U64(h_parse.saturating_sub(h0))),
                            (
                                "elaborate_ns",
                                Arg::U64(h_elaborate.saturating_sub(h_parse)),
                            ),
                            (
                                "total_ns",
                                Arg::U64(self.trace.host_ns().saturating_sub(h0)),
                            ),
                        ],
                    );
                }
                self.trace_mode();
                Ok(())
            }
            Ok(Err(e)) => {
                self.recover_failed_commit(prev_lib, prev_root);
                Err(e)
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                self.recover_failed_commit(prev_lib, prev_root);
                Err(CascadeError::Internal(msg))
            }
        }
    }

    /// Restores the previous (known-good) program after a failed eval
    /// commit. Rebuilding the prior program is best-effort: it was running
    /// a moment ago, so a second failure means engine state is torn — the
    /// runtime is then left idle but alive.
    fn recover_failed_commit(&mut self, lib: ModuleLibrary, root: Vec<RootEntry>) {
        self.lib = lib;
        self.root = root;
        self.version += 1;
        let recovered = matches!(
            catch_unwind(AssertUnwindSafe(|| self.rebuild())),
            Ok(Ok(()))
        );
        if !recovered {
            self.slots.clear();
            self.wires.clear();
            self.clock_idx = 0;
            self.main_idx = None;
            self.hw_source = None;
            self.plan = None;
        }
    }

    /// Runs `n` virtual clock ticks (or until `$finish`): open loop for a
    /// hardware or native engine alone with the clock, the plane batch for
    /// a software plane, the walk otherwise. Returns the ticks actually
    /// executed.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] on engine faults.
    pub fn run_ticks(&mut self, n: u64) -> Result<u64, CascadeError> {
        // Progress is derived from the iteration counter rather than
        // accumulated locally: a scrub-detected fault rolls the counter
        // back, and the rolled-back ticks must be re-executed.
        let start = self.iterations;
        self.open_loop_last = false;
        self.touch_all();
        loop {
            loop {
                let done = self.iterations.saturating_sub(start) / 2;
                if done >= n || self.finished {
                    break;
                }
                self.check_revocation()?;
                self.poll_compiler()?;
                self.try_promote()?;
                self.maybe_scrub()?;
                self.maybe_checkpoint();
                // Servicing above may have rewound or advanced progress.
                let done = self.iterations.saturating_sub(start) / 2;
                if done >= n || self.finished {
                    break;
                }
                if self.try_open_loop(n - done)?.is_some() || self.run_plane_batch(n - done)? {
                    self.trace_rate();
                    continue;
                }
                self.step_tick()?;
                self.trace_rate();
            }
            // Never leave an unverified window at a command boundary: a
            // detection here rolls back (rewinding `iterations`) and the
            // outer loop re-executes the lost ticks in software.
            if self.speculating() && self.iterations != self.last_scrub_iter {
                self.scrub()?;
                continue;
            }
            break;
        }
        Ok(self.iterations.saturating_sub(start) / 2)
    }

    /// Runs one virtual clock tick (two scheduler iterations).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] on engine faults.
    pub fn tick(&mut self) -> Result<(), CascadeError> {
        self.touch_all();
        self.step_tick()
    }

    /// One tick inside a command (the boundary was crossed by the caller).
    fn step_tick(&mut self) -> Result<(), CascadeError> {
        self.iteration()?;
        self.iteration()?;
        if self.vcd.is_some() {
            self.vcd_sample();
        }
        Ok(())
    }

    /// Command boundary: anything may have happened to the engines and
    /// the board since the last one, so every wire is polled once more.
    fn touch_all(&mut self) {
        for slot in &mut self.slots {
            slot.gen += 1;
        }
    }

    /// `Engine::output` polls the data plane has made so far. The
    /// poll-count guard in `tests/data_plane.rs` reads it; nothing else
    /// should.
    #[doc(hidden)]
    pub fn data_plane_polls(&self) -> u64 {
        self.counts.polls
    }

    /// `Engine::read`s the data plane has delivered so far (see
    /// [`Runtime::data_plane_polls`]).
    #[doc(hidden)]
    pub fn data_plane_reads(&self) -> u64 {
        self.counts.reads
    }

    /// Ticks run by the plane batch — a software plane's whole ticks
    /// without the runtime in the loop — instead of the walk (see
    /// [`Runtime::data_plane_polls`]).
    #[doc(hidden)]
    pub fn data_plane_batched_ticks(&self) -> u64 {
        self.counts.batched_ticks
    }

    /// Switches to native mode: the program is compiled exactly as written
    /// (no wrapper), sacrificing interactivity and system tasks for full
    /// native performance. Blocks for the (modeled) compile latency.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::NativeIneligible`] when the program uses
    /// unsynthesizable Verilog, or the compile error otherwise.
    pub fn enter_native(&mut self) -> Result<(), CascadeError> {
        self.verify_speculation()?;
        let design = self
            .hw_source
            .as_ref()
            .ok_or_else(|| CascadeError::NativeIneligible("no user logic".to_string()))?
            .elaborate()
            .map_err(CascadeError::Elaborate)?;
        let mut tc = self.config.toolchain.clone();
        tc.overhead_les = 0;
        let bitstream = tc.compile(&design)?;
        if !bitstream.netlist.tasks.is_empty() {
            return Err(CascadeError::NativeIneligible(
                "program contains unsynthesizable system tasks".to_string(),
            ));
        }
        let t0 = self.virt_ns();
        self.wall.advance(bitstream.modeled_duration);
        // Gather peripherals for direct connection.
        let forwarded = self.collect_forwarded();
        let native = NativeEngine::new(Arc::clone(&bitstream.netlist), forwarded)
            .map_err(|e| CascadeError::NativeIneligible(e.to_string()))?;
        let main_idx = self.main_idx.expect("hw_source implies main");
        self.slots[main_idx].install(SlotEngine::Native(Box::new(native)));
        self.rebind(main_idx);
        // Only the clock and the native engine remain.
        self.retain_clock_and_main();
        self.native = true;
        // Native mode restarts state; checkpoints of the old engines are
        // meaningless now.
        self.checkpoint = None;
        self.board.fifo_unmark();
        if self.trace.enabled() {
            let (at, parent) = self.req_at();
            self.trace.span_ctx(
                self.track,
                "jit",
                "native_handoff",
                t0,
                self.virt_ns().saturating_sub(t0),
                at,
                parent,
                &[("version", Arg::U64(self.version))],
            );
        }
        self.trace_mode();
        Ok(())
    }

    /// Leaves native mode, rebuilding interpreted engines (state restarts
    /// from initial values, as with a traditionally-deployed design).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] if the rebuild fails.
    pub fn exit_native(&mut self) -> Result<(), CascadeError> {
        self.native = false;
        self.version += 1;
        self.rebuild()
    }

    /// The hardware form of the current main subprogram (test support).
    #[cfg(test)]
    pub(crate) fn hw_source(&self) -> Option<&HwSource> {
        self.hw_source.as_deref()
    }

    /// Test and instrumentation support: blocks until any in-flight
    /// compilation's worker thread finishes (its modeled latency still
    /// gates the swap).
    pub fn wait_for_compile_worker(&mut self) {
        self.compiler.wait_worker();
    }

    /// The modeled second of the next compiler event: a staged outcome
    /// becoming ready, or a watchdog deadline on a hung compile.
    pub fn compile_ready_at(&self) -> Option<f64> {
        self.compiler.wake_at()
    }

    /// Takes an explicit recovery checkpoint of the program. Any open
    /// speculation window is verified first. Returns whether a checkpoint
    /// was taken (`false` without user logic).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] if verifying the open window fails.
    pub fn checkpoint_now(&mut self) -> Result<bool, CascadeError> {
        self.verify_speculation()?;
        if self.main_idx.is_none() {
            return Ok(false);
        }
        self.take_checkpoint();
        Ok(true)
    }

    /// Rewinds the program to the last recovery checkpoint (engine state,
    /// tick count, `$finish` status, and peripheral FIFO positions),
    /// resuming in software. Returns whether a checkpoint existed.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] if the software rebuild fails.
    pub fn restore_checkpoint(&mut self) -> Result<bool, CascadeError> {
        if self.checkpoint.is_none() {
            return Ok(false);
        }
        self.rollback_to_checkpoint()?;
        Ok(true)
    }

    /// Freezes this runtime into a portable
    /// [`HibernateImage`](crate::HibernateImage): the committed source log
    /// plus a verified checkpoint of every engine.
    /// Routes through the same machinery as [`Runtime::checkpoint_now`],
    /// so any open speculation window is scrubbed (and re-executed on
    /// corruption) before its state is trusted. After this returns the
    /// runtime can simply be dropped — a held fabric lease is released by
    /// the drop — and later resurrected with [`Runtime::restore_image`]
    /// on a fresh runtime bound to the *same* board.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Unsupported`] in native mode (the program
    /// is fused to its fabric) or during an active VCD dump (the tap
    /// holds a live file), and propagates speculation-verify failures.
    pub fn hibernate_image(&mut self) -> Result<crate::hibernate::HibernateImage, CascadeError> {
        if self.native {
            return Err(CascadeError::Unsupported(
                "native sessions cannot hibernate".to_string(),
            ));
        }
        if self.vcd.is_some() {
            return Err(CascadeError::Unsupported(
                "cannot hibernate during an active VCD dump".to_string(),
            ));
        }
        let took = self.checkpoint_now()?;
        let states = if took {
            self.checkpoint
                .as_ref()
                .map(|cp| cp.states.clone())
                .unwrap_or_default()
        } else {
            BTreeMap::new()
        };
        // take_checkpoint may have opened a FIFO journal mark (hardware
        // mode); this runtime is about to be dropped, so leave the board
        // unjournaled for its successor.
        self.board.fifo_unmark();
        Ok(crate::hibernate::HibernateImage {
            source: self.src_log.join("\n"),
            states,
            iterations: self.iterations,
            finished: self.finished,
            wall_seconds: self.wall.seconds(),
        })
    }

    /// Resurrects a hibernated program on this (fresh) runtime: advances
    /// the modeled wall clock to the image's, replays the append-only
    /// source log to rebuild the library and root structure (replay
    /// output is discarded — it already happened), then overwrites engine
    /// state with the checkpointed snapshot exactly as a rollback would.
    /// The restored state is re-armed as the recovery checkpoint, and the
    /// replayed design re-enters the compile pipeline (hitting the
    /// bitstream cache when the design was compiled before).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] if the source replay or the state rebuild
    /// fails; the runtime is then in the replayed-but-unrestored state
    /// and should be discarded.
    pub fn restore_image(
        &mut self,
        image: &crate::hibernate::HibernateImage,
    ) -> Result<(), CascadeError> {
        let dt = image.wall_seconds - self.wall.seconds();
        if dt > 0.0 {
            self.advance_wall(dt);
        }
        if !image.source.is_empty() {
            self.eval(&image.source)?;
        }
        // Replay re-ran the program's one-shot items; their output (and
        // any staged warnings) belongs to the pre-hibernation transcript.
        self.output.clear();
        self.iterations = image.iterations;
        self.finished = image.finished;
        if !image.states.is_empty() {
            self.rebuild_from(Some(image.states.clone()))?;
            self.output.clear();
            // Arm the restored snapshot as the last known-good point so an
            // immediate post-wake fault can still roll back.
            self.checkpoint = Some(Checkpoint {
                states: image.states.clone(),
                iterations: self.iterations,
                finished: self.finished,
            });
        }
        self.last_ckpt_iter = self.iterations;
        self.last_scrub_iter = self.iterations;
        Ok(())
    }

    /// Drains the recovery event log (retries, scrub detections,
    /// rollbacks). Kept separate from [`Runtime::drain_output`] because
    /// recovery must not perturb the user-visible transcript.
    pub fn drain_recovery_log(&mut self) -> Vec<String> {
        std::mem::take(&mut self.recovery_log)
    }

    /// Reads a named signal from the main engine (outputs and promoted
    /// ports), for tests and probes. Any open speculation window is
    /// verified first: a fault-plan upset can strike at the very scrub
    /// boundary that just came back clean, and probing the raw engine
    /// would leak that unverified (possibly corrupt) state to the caller.
    /// Returns `None` when verification cannot restore a trustworthy
    /// state.
    pub fn probe(&mut self, port: &str) -> Option<Bits> {
        self.verify_speculation().ok()?;
        let engine = &mut self.slots[self.main_idx?].engine;
        let port = engine.port(port);
        Some(engine.output(port))
    }

    // ------------------------------------------------------------------
    // Waveform dumps (VCD)
    // ------------------------------------------------------------------

    /// Starts streaming a VCD waveform to `path`, sampled once per tick.
    /// `ports` names main-engine signals (as [`Runtime::probe`] sees
    /// them); an empty list defaults to every main-engine port on the
    /// data plane. The clock is always included. Open-loop scheduling is
    /// suspended while a dump is active so every tick is observable.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Unsupported`] when there is no user logic,
    /// a port is unknown, or the file cannot be created.
    pub fn vcd_start(&mut self, path: &str, ports: &[String]) -> Result<(), CascadeError> {
        if self.main_idx.is_none() {
            return Err(CascadeError::Unsupported(
                "vcd: no user logic to dump".to_string(),
            ));
        }
        let mut names: Vec<String> = if ports.is_empty() {
            let main_idx = self.main_idx;
            let mut auto: Vec<String> = self
                .wires
                .iter()
                .filter(|w| Some(w.from.slot) == main_idx)
                .map(|w| w.from.name.clone())
                .collect();
            auto.sort();
            auto.dedup();
            auto
        } else {
            ports.to_vec()
        };
        names.retain(|n| n != "clk");
        // Validate against the live engine (unknown ports fail fast) and
        // take widths from live values.
        let mut decls: Vec<(String, u32)> = vec![("clk".to_string(), 1)];
        for name in &names {
            let unknown = || CascadeError::Unsupported(format!("vcd: unknown port `{name}`"));
            let width = self.probe(name).ok_or_else(unknown)?.width();
            let main = self.main_idx.ok_or_else(unknown)?;
            if self.slots[main].engine.port(name) == PortId::NONE {
                return Err(unknown());
            }
            decls.push((name.clone(), width));
        }
        let file = std::fs::File::create(path)
            .map_err(|e| CascadeError::Unsupported(format!("vcd: cannot create `{path}`: {e}")))?;
        let writer = PortVcd::new(std::io::BufWriter::new(file), ROOT, &decls)
            .map_err(|e| CascadeError::Unsupported(format!("vcd: write failed: {e}")))?;
        // Handles are taken last: a probe above may have closed a corrupt
        // speculation window, which replaces the engines.
        self.vcd = Some(VcdTap {
            writer,
            values: Vec::with_capacity(decls.len()),
            ports: names.into_iter().map(|n| (n, PortId::NONE)).collect(),
            path: path.to_string(),
        });
        self.rebind_tap();
        // Record the starting values immediately.
        self.vcd_sample();
        Ok(())
    }

    /// Whether a VCD dump is active.
    pub fn vcd_active(&self) -> bool {
        self.vcd.is_some()
    }

    /// Stops the active VCD dump, flushing the file. Returns its path.
    pub fn vcd_stop(&mut self) -> Option<String> {
        let mut tap = self.vcd.take()?;
        if let Err(e) = tap.writer.finish() {
            self.warnings.push(format!("vcd: flush failed: {e}"));
        }
        Some(tap.path)
    }

    /// Appends one sample of every tracked port to the active dump. A
    /// write failure stops the dump with a warning rather than killing
    /// the session.
    fn vcd_sample(&mut self) {
        let Some(tap) = &mut self.vcd else {
            return;
        };
        tap.values.clear();
        tap.values
            .push(Some(self.slots[self.clock_idx].engine.output(clock::VAL)));
        for i in 0..tap.ports.len() {
            // Verified like `probe`, signal by signal. A failed verify
            // replaces the engines, which re-resolves the tap — so the
            // handle is read only afterwards.
            let verified = self.verify_speculation().is_ok();
            let Some(tap) = &mut self.vcd else {
                return;
            };
            let value = match self.main_idx {
                Some(idx) if verified => Some(self.slots[idx].engine.output(tap.ports[i].1)),
                _ => None,
            };
            tap.values.push(value);
        }
        let Some(tap) = &mut self.vcd else {
            return;
        };
        if let Err(e) = tap.writer.sample(&tap.values) {
            self.warnings
                .push(format!("vcd: write failed: {e}; dump stopped"));
            self.vcd = None;
        }
    }

    // ------------------------------------------------------------------
    // Rebuild: source → partition → engines
    // ------------------------------------------------------------------

    fn rebuild(&mut self) -> Result<(), CascadeError> {
        self.rebuild_from(None)
    }

    /// Rebuilds engines from source, seeding them from `override_states`
    /// when given (checkpoint restore — the live engines' state is
    /// deliberately ignored) or from the live engines otherwise.
    fn rebuild_from(
        &mut self,
        override_states: Option<BTreeMap<String, EngineState>>,
    ) -> Result<(), CascadeError> {
        // Engines are about to be replaced with software: any staged
        // bitstream is stale and a held fabric lease must be returned to
        // the fleet (dropping it releases the fabric).
        self.pending_hw = None;
        self.hw_pending_since_s = None;
        self.lease = None;
        // Speculation bookkeeping resets with the engines. Quarantined
        // output is committed — callers that intend to discard it
        // (rollback) clear the quarantine first.
        self.checkpoint = None;
        self.board.fifo_unmark();
        let leftover = std::mem::take(&mut self.quarantine);
        self.output.extend(leftover);
        // 1. Save state. A forwarding hardware engine reports absorbed
        // peripheral state under `instance::element` keys; split those
        // back out so peripherals survive demotion.
        let mut saved: BTreeMap<String, EngineState> = match override_states {
            Some(states) => states,
            None => {
                let mut saved = BTreeMap::new();
                for slot in &mut self.slots {
                    saved.insert(slot.name.clone(), slot.engine.get_state());
                }
                saved
            }
        };
        split_forwarded_state(&mut saved);
        // 2. Compose and transform. Without inlining (paper Fig. 9.1), every
        // root-level user-module instance becomes its own engine on the
        // data/control plane; with inlining (Fig. 9.2) they stay inside the
        // single main subprogram.
        let root_module = compose_root(&self.root, true);
        let mut externals = root_externals(&root_module, &self.lib)?;
        let mut child_specs: Vec<(String, String, ParamEnv)> = Vec::new();
        if !self.config.inline {
            for item in &root_module.items {
                let ModuleItem::Instance(inst) = item else {
                    continue;
                };
                if cascade_stdlib::is_stdlib_module(&inst.module) {
                    continue;
                }
                let Some(decl) = self.lib.get(&inst.module) else {
                    continue;
                };
                let mut params = ParamEnv::new();
                for (i, conn) in inst.params.iter().enumerate() {
                    let name = match &conn.name {
                        Some(n) => n.clone(),
                        None => match decl.params.get(i) {
                            Some(p) => p.name.clone(),
                            None => continue,
                        },
                    };
                    if let Some(expr) = &conn.expr {
                        if let Ok(v) = const_eval(expr, &ParamEnv::new()) {
                            params.insert(name, v);
                        }
                    }
                }
                externals.insert(inst.name.clone(), (inst.module.clone(), params.clone()));
                child_specs.push((inst.name.clone(), inst.module.clone(), params));
            }
        }
        let mut wires: Vec<Wire> = Vec::new();
        let transformed = transform_module(ROOT, &root_module, &externals, &self.lib, &mut wires)?;

        // 3. Build engines.
        let mut slots: Vec<Slot> = Vec::new();
        slots.push(Slot::new(
            "clk".to_string(),
            SlotEngine::Clock(ClockEngine::new()),
        ));
        let clock_idx = 0;

        // Peripherals that actually participate (wired), instantiated via
        // the stdlib.
        let mut peripheral_names: Vec<String> = wires
            .iter()
            .flat_map(|w| [w.from.0.clone(), w.to.0.clone()])
            .filter(|n| n != ROOT && n != "clk")
            .collect();
        peripheral_names.sort();
        peripheral_names.dedup();
        for name in &peripheral_names {
            let Some((module, params)) = externals.get(name) else {
                continue;
            };
            if !cascade_stdlib::is_stdlib_module(module) {
                continue; // a non-inlined user instance: gets its own engine below
            }
            let Some(p) = cascade_stdlib::instantiate(module, params, &self.board) else {
                return Err(CascadeError::Unsupported(format!(
                    "`{module}` cannot be instantiated as a peripheral"
                )));
            };
            slots.push(Slot::new(
                name.clone(),
                SlotEngine::Peripheral(PeripheralEngine::new(p)),
            ));
        }

        // Child engines for non-inlined user instances (software only; the
        // JIT promotes to hardware only in the inlined configuration, as in
        // the paper's optimization flow).
        for (inst_name, module_name, params) in &child_specs {
            let design = cascade_sim::elaborate(module_name, &self.lib, params)
                .map_err(CascadeError::Elaborate)?;
            let engine = SwEngine::new(Arc::new(design), saved.get(inst_name.as_str()))
                .map_err(|e| CascadeError::Unsupported(e.to_string()))?;
            slots.push(Slot::new(
                inst_name.clone(),
                SlotEngine::Software(Box::new(engine)),
            ));
        }

        // The main engine (if there is user logic).
        let has_user_logic = !transformed.items.is_empty();
        let mut main_idx = None;
        let mut hw_source = None;
        if has_user_logic {
            // The software design includes not-yet-executed statements and
            // initials; the hardware form, which excludes them, is
            // elaborated where it is compiled. (Function inlining happens
            // inside `cascade_sim::elaborate`.)
            let mut lib = self.lib.clone();
            let mut sub = transformed;
            sub.name = SUBPROGRAM.to_string();
            lib.insert(sub);
            let sw_design = Arc::new(
                cascade_sim::elaborate(SUBPROGRAM, &lib, &ParamEnv::new())
                    .map_err(CascadeError::Elaborate)?,
            );
            // Prior state is restored *before* initial blocks and freshly
            // eval'ed statements execute, so probes observe live values.
            let engine = SwEngine::new(Arc::clone(&sw_design), saved.get(ROOT))
                .map_err(|e| CascadeError::Unsupported(e.to_string()))?;
            main_idx = Some(slots.len());
            slots.push(Slot::new(
                ROOT.to_string(),
                SlotEngine::Software(Box::new(engine)),
            ));
            hw_source = Some(Arc::new(HwSource::new(lib)));
        }

        // 4. Resolve wires (plus the implicit clock wire to peripherals).
        let index_of = |name: &str, slots: &[Slot]| slots.iter().position(|s| s.name == name);
        let mut resolved = Vec::new();
        for w in &wires {
            let (Some(f), Some(t)) = (index_of(&w.from.0, &slots), index_of(&w.to.0, &slots))
            else {
                continue; // wire to an unused peripheral
            };
            resolved.push(ResolvedWire::new(
                Endpoint::resolve(f, &w.from.1, &slots),
                Endpoint::resolve(t, &w.to.1, &slots),
            ));
        }
        for (i, slot) in slots.iter().enumerate() {
            if slot.kind() == EngineKind::Peripheral {
                resolved.push(ResolvedWire::new(
                    Endpoint::resolve(clock_idx, "val", &slots),
                    Endpoint::resolve(i, PERIPHERAL_CLOCK_PORT, &slots),
                ));
            }
        }

        // Restore peripheral state (memories survive rebuilds).
        for slot in &mut slots {
            if let Some(prev) = saved.get(&slot.name) {
                if slot.kind() == EngineKind::Peripheral {
                    slot.engine.set_state(prev);
                }
            }
        }

        self.slots = slots;
        self.wires = resolved;
        self.clock_idx = clock_idx;
        self.main_idx = main_idx;
        self.hw_source = hw_source;
        self.rebind_tap();
        self.lower_plan();

        // 5. Mark one-shot items executed (they ran during engine init) and
        // surface their output.
        for entry in &mut self.root {
            if matches!(
                entry.item,
                ModuleItem::Statement(_) | ModuleItem::Initial(_)
            ) {
                entry.executed = true;
            }
        }
        self.collect_interrupts();
        // Initial propagation so peripherals see time-zero outputs.
        self.propagate();

        // Bytecode-compiling the software engine is itself a JIT phase:
        // announce it so the timeline shows the software step. Modeled
        // duration is zero — software compilation is instantaneous on the
        // virtual clock.
        if let (Some(idx), true) = (self.main_idx, self.trace.enabled()) {
            if let Some(sw) = self.slots[idx].engine.software() {
                sw.enable_profiling();
            }
            let (at, parent) = self.req_at();
            self.trace.span_ctx(
                self.track,
                "jit",
                "software_compile",
                self.virt_ns(),
                0,
                at,
                parent,
                &[("version", Arg::U64(self.version))],
            );
        }

        // 6. Kick background compilation (only meaningful for the inlined
        // configuration: a partitioned program would need one compile per
        // engine, which the paper's flow sidesteps by inlining first).
        if self.config.auto_compile && self.config.inline {
            if let Some(source) = &self.hw_source {
                // The compile work is attributed to the submitting request:
                // one child span covers the whole toolchain flow (attempts,
                // backoff) and rides into the shared pool so dedup joins can
                // link to it from other requests.
                let (at, parent) = self.req_at();
                self.compiler.set_origin(at, parent);
                self.compiler.submit(
                    Arc::clone(source),
                    self.config.toolchain.clone(),
                    self.version,
                    self.wall.seconds(),
                );
                if self.trace.enabled() {
                    self.trace.instant_ctx(
                        self.track,
                        "compile",
                        "submit",
                        self.virt_ns(),
                        at,
                        parent,
                        &[("version", Arg::U64(self.version))],
                    );
                }
            }
        }
        self.trace_mode();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Scheduler (paper Fig. 6)
    // ------------------------------------------------------------------

    fn iteration(&mut self) -> Result<(), CascadeError> {
        if self.finished {
            return Ok(());
        }
        // Start-of-step: poll external inputs (board state the user changed
        // while the runtime was idle) and re-arm recurring events like the
        // clock tick. This is the paper's "end step for all engines",
        // executed at the equivalent point before the next iteration.
        // Only a peripheral samples the outside world here (buttons, pins,
        // the host's side of the FIFO); every other engine's `end_step`
        // leaves its outputs alone.
        for slot in &mut self.slots {
            slot.engine.end_step();
            if slot.kind() == EngineKind::Peripheral {
                slot.gen += 1;
            }
        }
        self.propagate();
        loop {
            // Evaluation events, batched per engine, with propagation.
            loop {
                let mut any = false;
                for slot in &mut self.slots {
                    if slot.engine.there_are_evals() {
                        slot.engine.evaluate().map_err(engine_err)?;
                        slot.gen += 1;
                        any = true;
                    }
                }
                let moved = self.propagate();
                if !any && !moved {
                    break;
                }
            }
            // Update events.
            let mut updated = false;
            for slot in &mut self.slots {
                if slot.engine.there_are_updates() {
                    slot.engine.update().map_err(engine_err)?;
                    slot.gen += 1;
                    updated = true;
                }
            }
            if !updated {
                break;
            }
            self.propagate();
        }
        // Observable state: interrupts are serviced, engines may be
        // replaced, time advances.
        self.collect_interrupts();
        self.iterations += 1;
        self.charge_costs();
        self.wall.advance_ns(self.config.costs.runtime_iteration_ns);
        Ok(())
    }

    /// The walk's pass ([`crate::plane::propagate`]). Returns whether
    /// anything moved.
    fn propagate(&mut self) -> bool {
        crate::plane::propagate(&mut self.slots, &mut self.wires, &mut self.counts)
    }

    /// Re-resolves every handle naming a port of slot `idx`, whose engine
    /// was just replaced: the wire ends there, and the waveform tap when
    /// it is the main engine.
    fn rebind(&mut self, idx: usize) {
        let engine = &*self.slots[idx].engine;
        for w in &mut self.wires {
            for end in [&mut w.from, &mut w.to] {
                if end.slot == idx {
                    end.port = engine.port(&end.name);
                }
            }
        }
        if self.main_idx == Some(idx) {
            self.rebind_tap();
        }
        self.lower_plan();
    }

    /// Re-resolves the waveform tap's names against the current main
    /// engine. A signal that engine cannot see resolves to
    /// [`PortId::NONE`] and samples zero-width.
    fn rebind_tap(&mut self) {
        if let (Some(tap), Some(idx)) = (&mut self.vcd, self.main_idx) {
            let main = &self.slots[idx].engine;
            for (name, port) in &mut tap.ports {
                *port = main.port(name);
            }
        }
    }

    fn collect_interrupts(&mut self) {
        // Inside an unverified hardware window, user-visible output is
        // quarantined until a clean scrub proves the fabric configuration
        // intact; it is discarded if the window rolls back.
        let speculating = self.speculating();
        for i in 0..self.slots.len() {
            for ev in self.slots[i].engine.drain_tasks() {
                match ev {
                    TaskEvent::Display(s) | TaskEvent::Write(s) => {
                        if speculating {
                            self.quarantine.push(s);
                        } else {
                            self.output.push(s);
                        }
                    }
                    TaskEvent::Finish => {
                        self.finished = true;
                    }
                    TaskEvent::Fatal(s) => {
                        let line = format!("fatal: {s}");
                        if speculating {
                            self.quarantine.push(line);
                        } else {
                            self.output.push(line);
                        }
                        self.finished = true;
                    }
                }
            }
        }
        for w in std::mem::take(&mut self.warnings) {
            self.output.push(w);
        }
    }

    fn charge_costs(&mut self) {
        for slot in &mut self.slots {
            if slot.spared > 0 {
                slot.engine.charge_polls(std::mem::take(&mut slot.spared));
            }
            let ns = slot.engine.take_cost_ns(&self.config.costs);
            self.wall.advance_ns(ns);
        }
    }

    // ------------------------------------------------------------------
    // Fault recovery: scrubbing, checkpoints, rollback
    // ------------------------------------------------------------------

    fn main_is_hw(&self) -> bool {
        !self.native
            && self
                .main_idx
                .map(|i| self.slots[i].kind() == EngineKind::Hardware)
                .unwrap_or(false)
    }

    /// Whether the main subprogram is executing inside an unverified
    /// hardware window (readback scrubbing enabled, checkpoint armed).
    fn speculating(&self) -> bool {
        self.config.scrub_interval_ticks > 0 && self.checkpoint.is_some() && self.main_is_hw()
    }

    /// Snapshots every engine (plus peripheral FIFO read positions) as the
    /// new rollback point.
    fn take_checkpoint(&mut self) {
        if self.main_idx.is_none() {
            return;
        }
        let mut states = BTreeMap::new();
        for slot in &mut self.slots {
            states.insert(slot.name.clone(), slot.engine.get_state());
        }
        self.checkpoint = Some(Checkpoint {
            states,
            iterations: self.iterations,
            finished: self.finished,
        });
        self.last_ckpt_iter = self.iterations;
        self.metrics.checkpoints_taken.inc();
        if self.main_is_hw() && self.config.scrub_interval_ticks > 0 {
            // Journal FIFO consumption from here so a rollback restores
            // stream peripherals too.
            self.board.fifo_mark();
        }
    }

    /// Periodic software checkpoints (hardware windows checkpoint at scrub
    /// boundaries instead).
    fn maybe_checkpoint(&mut self) {
        let interval = self.config.checkpoint_interval_ticks;
        if interval == 0 || self.native || self.main_is_hw() || self.main_idx.is_none() {
            return;
        }
        if self.iterations.saturating_sub(self.last_ckpt_iter) >= interval * 2 {
            self.take_checkpoint();
        }
    }

    /// Scrubs the hardware window when it has run long enough.
    fn maybe_scrub(&mut self) -> Result<(), CascadeError> {
        if !self.speculating() {
            return Ok(());
        }
        if self.iterations.saturating_sub(self.last_scrub_iter)
            >= self.config.scrub_interval_ticks * 2
        {
            self.scrub()?;
        }
        Ok(())
    }

    /// One readback scrub: re-derive the configuration CRC from the fabric
    /// and compare against the golden CRC recorded at programming time. A
    /// clean scrub commits the quarantined output and advances the
    /// checkpoint; a detection rolls back. Scrub boundaries are also where
    /// the fault plan's scheduled fabric faults strike, so the *next*
    /// window observes them.
    fn scrub(&mut self) -> Result<(), CascadeError> {
        let Some(main_idx) = self.main_idx else {
            return Ok(());
        };
        match self.scrub_readback() {
            Some(true) => {}
            Some(false) => {
                self.recovery_log.push(
                    "scrub detected a fabric soft error; rolled back to the last checkpoint"
                        .to_string(),
                );
                return self.rollback_to_checkpoint();
            }
            None => return Ok(()),
        }
        match self.config.faults.next_scrub_fault() {
            Some(FabricFault::SoftError { salt }) => {
                let slot = &mut self.slots[main_idx];
                if let Some(hw) = slot.engine.hardware() {
                    hw.inject_soft_error(salt);
                    slot.gen += 1;
                }
            }
            Some(FabricFault::Loss) => {
                // The fabric vanishes at the boundary we just verified, so
                // nothing re-executes: resume in software from the
                // checkpoint taken a moment ago.
                self.metrics.fabric_losses.inc();
                self.trace_instant("fabric_loss", &[]);
                if let Some((fleet, tenant)) = &self.fleet {
                    fleet.fail_fabric_of(*tenant);
                }
                self.recovery_log
                    .push("fabric lost; resumed in software from the checkpoint".to_string());
                self.rollback_to_checkpoint()?;
            }
            None => {}
        }
        Ok(())
    }

    /// Restores the last checkpoint: discards quarantined output, rewinds
    /// peripheral FIFO consumption, rewinds the tick counter, and rebuilds
    /// software engines from the checkpointed state. The checkpoint stays
    /// armed — it remains the last known-good point.
    fn rollback_to_checkpoint(&mut self) -> Result<(), CascadeError> {
        let Some(cp) = self.checkpoint.take() else {
            // No checkpoint (scrubbing disabled): degrade to a live-state
            // software migration.
            return self.rebuild();
        };
        self.quarantine.clear();
        self.board.fifo_rewind();
        let rewound = self.iterations.saturating_sub(cp.iterations) / 2;
        self.iterations = cp.iterations;
        self.finished = cp.finished;
        self.metrics.checkpoints_restored.inc();
        self.trace_instant("rollback", &[("ticks_rewound", Arg::U64(rewound))]);
        self.rebuild_from(Some(cp.states.clone()))?;
        self.checkpoint = Some(cp);
        self.last_ckpt_iter = self.iterations;
        Ok(())
    }

    /// Rolls back to the last checkpoint and immediately re-executes the
    /// rolled-back ticks in software, making the recovery invisible in the
    /// transcript.
    fn rollback_and_replay(&mut self) -> Result<(), CascadeError> {
        let target = self.iterations;
        let t0 = self.virt_ns();
        self.rollback_to_checkpoint()?;
        let replay_from = self.iterations;
        while self.iterations < target && !self.finished {
            self.step_tick()?;
        }
        if self.trace.enabled() {
            let (at, parent) = self.req_at();
            self.trace.span_ctx(
                self.track,
                "jit",
                "rollback_replay",
                t0,
                self.virt_ns().saturating_sub(t0),
                at,
                parent,
                &[(
                    "ticks_replayed",
                    Arg::U64(self.iterations.saturating_sub(replay_from) / 2),
                )],
            );
        }
        Ok(())
    }

    /// Closes any open speculation window before its state is trusted
    /// elsewhere (eval, native entry, cooperative lease migration,
    /// explicit checkpoints). On corruption the window is re-executed in
    /// software before control returns.
    fn verify_speculation(&mut self) -> Result<(), CascadeError> {
        if !self.speculating() || self.scrub_readback() != Some(false) {
            return Ok(());
        }
        self.recovery_log.push(
            "scrub detected a fabric soft error; re-executed the window in software".to_string(),
        );
        self.rollback_and_replay()
    }

    /// The readback both scrub paths share: checks the fabric's
    /// configuration, counts and traces the scrub, and then commits the
    /// quarantined output and advances the checkpoint on a clean window,
    /// or counts the detection. `None` when the main engine is not
    /// hardware; the caller logs and recovers from a detection.
    fn scrub_readback(&mut self) -> Option<bool> {
        let ok = self.slots[self.main_idx?].engine.hardware()?.scrub_ok();
        self.last_scrub_iter = self.iterations;
        self.metrics.scrubs.inc();
        self.trace_instant("scrub", &[("ok", Arg::Bool(ok))]);
        if ok {
            let q = std::mem::take(&mut self.quarantine);
            self.output.extend(q);
            self.take_checkpoint();
        } else {
            self.metrics.scrub_detections.inc();
            self.trace_instant("scrub_detection", &[]);
        }
        Some(ok)
    }

    // ------------------------------------------------------------------
    // JIT transitions
    // ------------------------------------------------------------------

    fn poll_compiler(&mut self) -> Result<(), CascadeError> {
        let Some(outcome) = self.compiler.poll(self.wall.seconds()) else {
            return Ok(());
        };
        if outcome.version != self.version || self.native {
            return Ok(()); // stale
        }
        match outcome.result {
            Ok(bitstream) => {
                if self.fleet.is_some() {
                    // Fleet-arbitrated: hold the bitstream until a fabric
                    // lease is granted.
                    self.pending_hw = Some(Arc::clone(&bitstream.netlist));
                    self.hw_pending_since_s = Some(self.wall.seconds());
                    self.lease_backoff_until_iter = 0;
                    self.try_promote()?;
                } else {
                    self.swap_to_hardware(Arc::clone(&bitstream.netlist))?;
                }
            }
            Err(e) => {
                let msg = e.to_string();
                if e.is_transient() {
                    // A transient failure that exhausted its retry budget.
                    // The program keeps running in software either way, and
                    // recovery events stay off the user transcript.
                    self.trace_instant("hw_compile_abandoned", &[("error", Arg::Str(&msg))]);
                    self.recovery_log
                        .push(format!("hardware compilation abandoned: {e}"));
                } else {
                    self.trace_instant("hw_compile_failed", &[("error", Arg::Str(&msg))]);
                    self.warnings
                        .push(format!("hardware compilation failed: {e}"));
                    self.collect_interrupts();
                }
            }
        }
        Ok(())
    }

    /// Claims a fabric lease for a pending bitstream, swapping to hardware
    /// when granted. No-op without a pending bitstream or with a lease
    /// already held; a denied request leaves the tenant registered as
    /// pending with the arbiter (and may flag a colder holder for
    /// revocation).
    fn try_promote(&mut self) -> Result<(), CascadeError> {
        if self.native || self.lease.is_some() || self.pending_hw.is_none() {
            return Ok(());
        }
        // A denied request backs off for a stride of iterations: the
        // arbiter's answer only changes on a heat/tenure/dwell edge, and
        // re-asking under the fleet mutex on every tick of every leaseless
        // tenant serializes the whole server on that lock. Heat changes
        // and command boundaries clear the backoff.
        if self.iterations < self.lease_backoff_until_iter {
            return Ok(());
        }
        let Some((fleet, tenant)) = &self.fleet else {
            return Ok(());
        };
        let Some(lease) = fleet.request(*tenant, self.heat) else {
            self.lease_backoff_until_iter = self.iterations + LEASE_POLL_STRIDE_ITERS;
            return Ok(());
        };
        self.lease = Some(lease);
        if let Some(since) = self.hw_pending_since_s.take() {
            let wait_s = (self.wall.seconds() - since).max(0.0);
            self.metrics.lease_wait.observe(wait_s);
            self.trace_instant("lease_granted", &[("wait_s", Arg::F64(wait_s))]);
        }
        // A scheduled mid-migration revocation fires here: the lease is
        // flagged before the swap completes, so the very next revocation
        // check migrates straight back.
        if self.config.faults.next_migration_revoke() {
            if let Some((fleet, tenant)) = &self.fleet {
                fleet.revoke(*tenant);
            }
        }
        let netlist = self.pending_hw.take().expect("pending bitstream");
        self.swap_to_hardware(netlist)
    }

    /// Vacates a revoked fabric lease: the hardware engine's state migrates
    /// back into a fresh software engine (`get_state`/`set_state` via
    /// `rebuild`), and the fabric returns to the fleet. The rebuild
    /// resubmits the design to the background compiler, so the tenant
    /// re-promotes through the (cached) compile path when a fabric frees
    /// up — the cache-hit latency doubles as thrash hysteresis.
    fn check_revocation(&mut self) -> Result<(), CascadeError> {
        let (lost, revoked) = match &self.lease {
            Some(l) => (l.lost(), l.revoked()),
            None => return Ok(()),
        };
        if lost {
            // The fabric is gone and its state with it. Resume from the
            // last checkpoint and re-execute the lost window in software,
            // so the transcript never notices.
            self.metrics.lease_demotions.inc();
            self.metrics.fabric_losses.inc();
            self.trace_instant("fabric_loss", &[]);
            self.recovery_log
                .push("fabric lost; resumed in software from the last checkpoint".to_string());
            return self.rollback_and_replay();
        }
        if !revoked {
            return Ok(());
        }
        // Cooperative migration: never migrate unverified state. A failed
        // verify rolls back and replays in software, which also vacates
        // the lease. No "just scrubbed" shortcut here: the fault plan
        // injects upsets *at* clean scrub boundaries, so state can be
        // corrupt even when `iterations == last_scrub_iter`.
        if self.speculating() {
            self.verify_speculation()?;
        }
        self.metrics.lease_demotions.inc();
        self.trace_instant("revocation", &[]);
        if self.lease.is_none() {
            // The verify above rolled back (and released the fabric).
            return Ok(());
        }
        self.lease = None; // dropping the lease releases the fabric
        self.trace_instant("state_migration", &[("direction", Arg::Str("hw_to_sw"))]);
        self.rebuild()
    }

    fn swap_to_hardware(
        &mut self,
        netlist: Arc<cascade_netlist::Netlist>,
    ) -> Result<(), CascadeError> {
        let Some(main_idx) = self.main_idx else {
            return Ok(());
        };
        self.metrics.hw_promotions.inc();
        // Swap only at a tick boundary (clock low) so edge detection stays
        // coherent.
        let mut hw =
            HwEngine::new(netlist).map_err(|e| CascadeError::Unsupported(e.to_string()))?;
        let state = self.slots[main_idx].engine.get_state();
        hw.set_state(&state);
        if self.trace.enabled() {
            hw.enable_profiling();
        }
        self.slots[main_idx].install(SlotEngine::Hardware(Box::new(hw)));
        self.rebind(main_idx);
        // Reset wire caches so current values are re-broadcast into the new
        // engine.
        for w in &mut self.wires {
            if w.to.slot == main_idx {
                w.last = None;
                w.seen = 0;
            }
        }
        self.propagate();
        let t0 = self.virt_ns();
        self.wall.advance_ns(self.config.costs.reprogram_ns);
        if self.trace.enabled() {
            let (at, parent) = self.req_at();
            self.trace.span_ctx(
                self.track,
                "jit",
                "program_fabric",
                t0,
                self.virt_ns().saturating_sub(t0),
                at,
                parent,
                &[("version", Arg::U64(self.version))],
            );
            self.trace_instant("state_migration", &[("direction", Arg::Str("sw_to_hw"))]);
        }
        if self.config.forwarding {
            self.absorb_peripherals(main_idx);
        }
        // Open a verified-execution window: checkpoint the just-migrated
        // (known-good) state and quarantine output until the first clean
        // scrub.
        if self.config.scrub_interval_ticks > 0 {
            self.last_scrub_iter = self.iterations;
            self.take_checkpoint();
        }
        self.trace_mode();
        Ok(())
    }

    /// ABI forwarding (paper Sec. 4.3): move peripherals into the hardware
    /// engine and collapse their data-plane wires.
    fn absorb_peripherals(&mut self, main_idx: usize) {
        let forwarded = self.collect_forwarded();
        if forwarded.is_empty() {
            return;
        }
        let slot = &mut self.slots[main_idx];
        if let Some(hw) = slot.engine.hardware() {
            hw.absorb(forwarded);
        }
        self.retain_clock_and_main();
    }

    /// Extracts peripheral engines and their bindings for absorption.
    fn collect_forwarded(&mut self) -> Vec<Forwarded> {
        let Some(main_idx) = self.main_idx else {
            return Vec::new();
        };
        let mut out: Vec<Forwarded> = Vec::new();
        let peripheral_indices: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind() == EngineKind::Peripheral)
            .map(|(i, _)| i)
            .collect();
        for pi in peripheral_indices {
            let mut drives = Vec::new();
            let mut feeds = Vec::new();
            for w in &self.wires {
                if w.from.slot == main_idx && w.to.slot == pi {
                    drives.push((w.from.name.clone(), w.to.name.clone()));
                }
                if w.from.slot == pi && w.to.slot == main_idx {
                    feeds.push((w.from.name.clone(), w.to.name.clone()));
                }
            }
            // Replace the slot's engine with a placeholder and take the
            // peripheral out.
            let name = self.slots[pi].name.clone();
            let old = self.slots[pi].install(SlotEngine::Clock(ClockEngine::new()));
            let SlotEngine::Peripheral(peripheral) = old else {
                continue;
            };
            out.push(Forwarded {
                instance: name,
                peripheral: peripheral.into_peripheral(),
                drives,
                feeds,
            });
        }
        out
    }

    /// Drops every slot except the clock and main, rewiring accordingly.
    fn retain_clock_and_main(&mut self) {
        let Some(main_idx) = self.main_idx else {
            return;
        };
        let keep: Vec<usize> = vec![self.clock_idx, main_idx];
        let mut new_slots = Vec::new();
        let mut remap = BTreeMap::new();
        for (new_i, &old_i) in keep.iter().enumerate() {
            remap.insert(old_i, new_i);
            new_slots.push(std::mem::replace(
                &mut self.slots[old_i],
                Slot::new(String::new(), SlotEngine::Clock(ClockEngine::new())),
            ));
        }
        self.wires
            .retain(|w| remap.contains_key(&w.from.slot) && remap.contains_key(&w.to.slot));
        for w in &mut self.wires {
            w.from.slot = remap[&w.from.slot];
            w.to.slot = remap[&w.to.slot];
        }
        self.slots = new_slots;
        self.clock_idx = 0;
        self.main_idx = Some(1);
        self.lower_plan();
    }

    /// Open-loop scheduling (paper Sec. 4.4): hand a hardware or native
    /// engine an iteration budget and let it run cycles internally. A
    /// software engine has none; its batch is the walk's
    /// ([`Runtime::run_plane_batch`]).
    fn try_open_loop(&mut self, remaining: u64) -> Result<Option<u64>, CascadeError> {
        if !self.config.open_loop && !self.native {
            return Ok(None);
        }
        if self.vcd.is_some() {
            // Waveform dumps sample every tick; open-loop batches would
            // skip them.
            return Ok(None);
        }
        let Some(main_idx) = self.main_idx else {
            return Ok(None);
        };
        if self.slots.len() > 2 {
            return Ok(None); // peripherals still on the data plane
        }
        if !matches!(
            self.slots[main_idx].kind(),
            EngineKind::Hardware | EngineKind::Native
        ) {
            return Ok(None);
        }
        // Adaptive budget: aim for the configured control-return period.
        // The profiler measures the modeled cost of the previous batch and
        // rescales — necessary because per-cycle cost varies wildly between
        // pure compute (one fabric cycle) and host-coupled IO (a bus
        // round trip per token).
        let mut budget = (self.open_loop_budget as u64).max(16).min(remaining.max(1));
        if self.speculating() {
            // Batches never cross a scrub boundary, bounding how much
            // work a detected fault can roll back.
            let until_scrub = (self.config.scrub_interval_ticks * 2)
                .saturating_sub(self.iterations.saturating_sub(self.last_scrub_iter))
                / 2;
            budget = budget.min(until_scrub.max(1));
        }
        if let Some(ready_at) = self.compiler.wake_at() {
            let cycle_ns = self.config.costs.hw_cycle_ns.max(0.001);
            let until = ((ready_at - self.wall.seconds()).max(0.0) * 1e9 / cycle_ns) as u64;
            budget = budget.min(until.max(1));
        }
        let w0 = self.wall.seconds();
        let main = &mut self.slots[main_idx];
        let done = main.engine.open_loop(budget);
        main.gen += 1;
        if done == 0 {
            return Ok(None);
        }
        self.iterations += 2 * done;
        self.collect_interrupts();
        self.charge_costs();
        let elapsed = self.wall.seconds() - w0;
        if elapsed > 0.0 {
            let per_cycle_s = elapsed / done as f64;
            let target = (self.config.open_loop_target_s / per_cycle_s).max(16.0);
            // Exponential smoothing keeps the controller stable when task
            // firings cut batches short.
            self.open_loop_budget = 0.5 * self.open_loop_budget + 0.5 * target;
        }
        self.open_loop_last = true;
        Ok(Some(done))
    }

    // ------------------------------------------------------------------
    // The plane batch: a software plane's whole ticks without the runtime
    // ------------------------------------------------------------------

    /// Lowers the plane for the batch ([`Plan::lower`]); every wiring site
    /// ends here. `inline` off keeps the walk.
    fn lower_plan(&mut self) {
        self.plan = if self.config.inline {
            Plan::lower(&mut self.slots, &self.wires, self.clock_idx, self.main_idx)
        } else {
            None
        };
    }

    /// Runs whole ticks of a lowered plane through [`Plan::iteration`],
    /// which is the walk's iteration, with per-tick servicing checked once
    /// for the batch. The batch ends before the first tick servicing could
    /// act on ([`Runtime::batch_limit`], and a compile outcome or watchdog
    /// deadline coming due), after the tick a task fires in, or inside an
    /// iteration that fails. Returns whether it ran.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] on an engine fault.
    fn run_plane_batch(&mut self, remaining: u64) -> Result<bool, CascadeError> {
        // A tap samples every tick; a lease is serviced every tick; a
        // pending warning joins the transcript at the next iteration.
        if self.vcd.is_some() || self.lease.is_some() || !self.warnings.is_empty() {
            return Ok(false);
        }
        let limit = self.batch_limit(remaining);
        if limit == 0 {
            return Ok(false);
        }
        let Some(mut plan) = self.plan.take() else {
            return Ok(false);
        };
        if !plan.begin(&self.slots, &self.wires) {
            self.plan = Some(plan);
            return Ok(false);
        }
        let stop_at = self.compiler.wake_at();
        let mut ran = Ok(true);
        'ticks: for tick in 0..limit {
            if tick > 0 && stop_at.is_some_and(|at| self.wall.seconds() >= at) {
                break;
            }
            let mut tasks = false;
            for _ in 0..2 {
                if self.finished {
                    break 'ticks;
                }
                let (slots, wires, counts) = (&mut self.slots, &mut self.wires, &mut self.counts);
                match plan.iteration(slots, wires, counts, &mut self.wall, &self.config.costs) {
                    Ok(has_tasks) => {
                        self.iterations += 1;
                        if has_tasks {
                            self.collect_interrupts();
                            tasks = true;
                        }
                    }
                    Err(e) => {
                        ran = Err(engine_err(e));
                        break 'ticks;
                    }
                }
            }
            self.counts.batched_ticks += 1;
            if tasks {
                break;
            }
        }
        plan.end(&self.slots, &mut self.wires);
        self.plan = Some(plan);
        ran
    }

    /// Ticks before per-tick servicing could act, at most `remaining`.
    fn batch_limit(&self, remaining: u64) -> u64 {
        // Ticks until the iteration counter reaches `iter`.
        let until = |iter: u64| iter.saturating_sub(self.iterations).div_ceil(2);
        let mut limit = remaining;
        let interval = self.config.checkpoint_interval_ticks;
        if interval > 0 {
            limit = limit.min(until(self.last_ckpt_iter + 2 * interval));
        }
        if self.pending_hw.is_some() {
            limit = limit.min(until(self.lease_backoff_until_iter));
        }
        if self.trace.enabled() {
            let since = self.ticks().saturating_sub(self.rate_last_ticks);
            limit = limit.min(RATE_SAMPLE_TICKS.saturating_sub(since));
        }
        limit
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Return the fabric and withdraw any pending fleet request so a
        // closed session cannot strand a reservation.
        self.lease = None;
        if let Some((fleet, tenant)) = &self.fleet {
            fleet.cancel(*tenant);
        }
    }
}

/// Splits `instance::element` memory entries out of the root snapshot into
/// per-instance peripheral snapshots — the inverse of ABI forwarding's
/// state absorption. Existing per-instance snapshots win.
fn split_forwarded_state(saved: &mut BTreeMap<String, EngineState>) {
    let Some(root) = saved.get(ROOT) else {
        return;
    };
    let mut split: BTreeMap<String, EngineState> = BTreeMap::new();
    for (key, words) in &root.mems {
        if let Some((inst, elem)) = key.split_once("::") {
            split
                .entry(inst.to_string())
                .or_default()
                .mems
                .insert(elem.to_string(), words.clone());
        }
    }
    for (inst, state) in split {
        saved.entry(inst).or_insert(state);
    }
}

fn engine_err(e: crate::engine::EngineError) -> CascadeError {
    match e {
        crate::engine::EngineError::Sim(s) => CascadeError::Sim(s),
        crate::engine::EngineError::Internal(m) => CascadeError::Unsupported(m),
    }
}

/// Composes the implicit root module from accumulated entries. When
/// `for_engine`, previously executed one-shot items are excluded.
fn compose_root(entries: &[RootEntry], for_engine: bool) -> Module {
    let items = entries
        .iter()
        .filter(|e| {
            if !for_engine {
                return true;
            }
            match e.item {
                ModuleItem::Statement(_) | ModuleItem::Initial(_) => !e.executed,
                _ => true,
            }
        })
        .map(|e| e.item.clone())
        .collect();
    Module {
        name: "Main".to_string(),
        params: Vec::new(),
        ports: Vec::new(),
        items,
        span: Span::synthetic(),
    }
}

/// Determines the external components visible to the root subprogram: the
/// implicit stdlib instances plus any stdlib modules instantiated in the
/// root items.
fn root_externals(root: &Module, lib: &ModuleLibrary) -> Result<Externals, CascadeError> {
    let mut ext = Externals::new();
    ext.insert("clk".to_string(), ("Clock".to_string(), ParamEnv::new()));
    ext.insert("pad".to_string(), ("Pad".to_string(), ParamEnv::new()));
    ext.insert("led".to_string(), ("Led".to_string(), ParamEnv::new()));
    ext.insert("rst".to_string(), ("Reset".to_string(), ParamEnv::new()));
    ext.insert("gpio".to_string(), ("GPIO".to_string(), ParamEnv::new()));
    // Explicit stdlib instances.
    for item in &root.items {
        let ModuleItem::Instance(inst) = item else {
            continue;
        };
        if !cascade_stdlib::is_stdlib_module(&inst.module) {
            continue;
        }
        let decl = lib.get(&inst.module).ok_or_else(|| {
            CascadeError::Unsupported(format!("unknown stdlib module `{}`", inst.module))
        })?;
        let mut params = ParamEnv::new();
        for (i, conn) in inst.params.iter().enumerate() {
            let name = match &conn.name {
                Some(n) => n.clone(),
                None => match decl.params.get(i) {
                    Some(p) => p.name.clone(),
                    None => continue,
                },
            };
            if let Some(expr) = &conn.expr {
                let v = const_eval(expr, &ParamEnv::new()).map_err(CascadeError::Elaborate)?;
                params.insert(name, v);
            }
        }
        ext.insert(inst.name.clone(), (inst.module.clone(), params));
    }
    Ok(ext)
}
