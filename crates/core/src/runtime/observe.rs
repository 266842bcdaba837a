//! Observation: the registry-backed counters, trace emission, the
//! [`RuntimeStats`] and metrics surfaces, execution profiles, and the VCD
//! waveform tap. Every virtual-clock event is emitted from the session
//! thread against the modeled wall clock, so the virtual-time export is
//! deterministic for a given seed and `FaultPlan`.

use super::sched::RATE_SAMPLE_TICKS;
use super::{ExecMode, Runtime, ROOT};
use crate::engine::clock;
use crate::engine::{EngineKind, PortId};
use crate::error::CascadeError;
use cascade_bits::Bits;
use cascade_sim::PortVcd;
use cascade_trace::{
    expose, Arg, Counter, Histogram, MetricSnapshot, Registry, RequestCtx, SnapValue, SpanRef,
    TraceSink, LATENCY_BUCKETS_S,
};

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
    /// attached [`Fleet`](cascade_fpga::Fleet).
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

/// Registry-backed runtime counters. Handles are declared by name;
/// re-declaring after a component swap (shared compile queue, checkpoint
/// restore, engine replacement) returns the *same* cells, which is what
/// keeps recovery counters monotonic across rollback and replay.
#[derive(Clone)]
pub(super) struct RuntimeMetrics {
    pub hw_promotions: Counter,
    pub lease_demotions: Counter,
    pub scrubs: Counter,
    pub scrub_detections: Counter,
    pub checkpoints_taken: Counter,
    pub checkpoints_restored: Counter,
    pub fabric_losses: Counter,
    /// Virtual seconds from "bitstream ready" to "fabric lease granted".
    pub lease_wait: Histogram,
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
pub(super) struct VcdTap {
    writer: PortVcd<std::io::BufWriter<std::fs::File>>,
    /// The sampled main-engine signals, by name and by handle in the
    /// current main engine. The clock is sampled ahead of them.
    ports: Vec<(String, PortId)>,
    /// Samples not yet written, each the clock then `ports`: those taken
    /// inside an unverified hardware window wait here for its readback.
    held: Vec<Option<Bits>>,
    path: String,
}

/// What the runtime reports about itself.
pub(super) struct Observe {
    /// Typed metric cells backing the recovery/JIT counters; declared in
    /// `registry`.
    pub metrics: RuntimeMetrics,
    /// The registry behind [`Runtime::metrics_snapshot`]; servers merge
    /// per-session registries into one exposition.
    pub registry: Registry,
    /// JIT lifecycle trace sink (disabled by default; see `JitConfig`).
    pub trace: TraceSink,
    /// Track id stamped on trace events (the serve session id).
    pub track: u64,
    /// The request currently being serviced (causal tracing): every trace
    /// event emitted while set joins that request's span tree, and compile
    /// submissions carry it into the shared pool.
    req_ctx: Option<RequestCtx>,
    /// Last execution mode announced on the trace (dedup).
    last_mode: Option<&'static str>,
    /// `ticks_per_s` sampling state: virtual second and tick count of the
    /// previous sample.
    rate_last_s: f64,
    pub rate_last_ticks: u64,
    /// Active waveform dump, if any (disables open-loop batching so every
    /// tick is observable).
    pub vcd: Option<VcdTap>,
}

impl Observe {
    pub fn new(trace: TraceSink) -> Observe {
        let registry = Registry::new();
        Observe {
            metrics: RuntimeMetrics::from_registry(&registry),
            registry,
            trace,
            track: 0,
            req_ctx: None,
            last_mode: None,
            rate_last_s: 0.0,
            rate_last_ticks: 0,
            vcd: None,
        }
    }

    /// `(event span, parent)` for an emission under the active request:
    /// each event gets a fresh child span under the request root. Zeroed
    /// (no attribution) outside a request.
    pub fn req_at(&self) -> (SpanRef, u64) {
        match &self.req_ctx {
            Some(ctx) => (ctx.span_ref(ctx.child_span()), ctx.root_span()),
            None => (SpanRef::default(), 0),
        }
    }
}

impl Runtime {
    #[inline]
    pub(super) fn virt_ns(&self) -> u64 {
        (self.wall.seconds() * 1e9) as u64
    }

    /// Announces the execution mode on the trace when it changed — the
    /// paper's promotion staircase, one instant per step.
    pub(super) fn trace_mode(&mut self) {
        let m = self.lc.mode.name();
        if !self.obs.trace.enabled() || self.obs.last_mode == Some(m) {
            return;
        }
        self.obs.last_mode = Some(m);
        let ticks = self.ticks();
        self.trace_instant("mode", &[("mode", Arg::Str(m)), ("ticks", Arg::U64(ticks))]);
    }

    /// Rate-limited `ticks_per_s` counter samples: at most one per
    /// [`RATE_SAMPLE_TICKS`] ticks of progress. The rate is virtual ticks
    /// over virtual seconds — the "gets faster" curve itself.
    pub(super) fn trace_rate(&mut self) {
        let ticks = self.ticks();
        let dticks = ticks.saturating_sub(self.obs.rate_last_ticks);
        if !self.obs.trace.enabled() || dticks < RATE_SAMPLE_TICKS {
            return;
        }
        let now = self.wall.seconds();
        let dt = now - self.obs.rate_last_s;
        self.obs.rate_last_s = now;
        self.obs.rate_last_ticks = ticks;
        if dt <= 0.0 {
            return;
        }
        self.obs.trace.counter(
            self.obs.track,
            "jit",
            "ticks_per_s",
            self.virt_ns(),
            &[
                ("value", Arg::F64(dticks as f64 / dt)),
                ("mode", Arg::Str(self.lc.mode.name())),
            ],
        );
    }

    /// Emits a virtual-clock instant in the `jit` category, attributed to
    /// the active request (when any).
    pub(super) fn trace_instant(&self, name: &str, args: &[(&str, Arg)]) {
        if self.obs.trace.enabled() {
            let (at, parent) = self.obs.req_at();
            let (sink, track) = (&self.obs.trace, self.obs.track);
            sink.instant_ctx(track, "jit", name, self.virt_ns(), at, parent, args);
        }
    }

    /// Emits a `jit` span from virtual nanosecond `t0` to now, attributed
    /// to the active request (when any).
    pub(super) fn jit_span(&self, name: &str, t0: u64, args: &[(&str, Arg)]) {
        if self.obs.trace.enabled() {
            let (at, parent) = self.obs.req_at();
            let dur = self.virt_ns().saturating_sub(t0);
            let (sink, track) = (&self.obs.trace, self.obs.track);
            sink.span_ctx(track, "jit", name, t0, dur, at, parent, args);
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> RuntimeStats {
        let m = &self.obs.metrics;
        RuntimeStats {
            version: self.lc.version,
            ticks: self.ticks(),
            wall_seconds: self.wall.seconds(),
            mode: self.lc.mode,
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
            hw_pending: self.lc.pending,
            hw_promotions: m.hw_promotions.get(),
            lease_demotions: m.lease_demotions.get(),
            compile_retries: self.compiler.retries(),
            compile_watchdog_cancels: self.compiler.watchdog_cancels(),
            panics_contained: self.compiler.worker_panics(),
            scrubs: m.scrubs.get(),
            scrub_detections: m.scrub_detections.get(),
            checkpoints_taken: m.checkpoints_taken.get(),
            checkpoints_restored: m.checkpoints_restored.get(),
            fabric_losses: m.fabric_losses.get(),
        }
    }

    /// The metrics registry backing this runtime's typed counters and
    /// histograms. A server merges per-session registries into one
    /// Prometheus-style exposition.
    pub fn metrics_registry(&self) -> &Registry {
        &self.obs.registry
    }

    /// Point-in-time metric snapshots: every registry metric plus derived
    /// gauges/counters for the remaining [`RuntimeStats`] fields, so the
    /// exposition covers the whole legacy stats surface.
    pub fn metrics_snapshot(&self) -> Vec<MetricSnapshot> {
        let s = self.stats();
        let gauge = |v: f64| SnapValue::Gauge(v);
        let flag = |b: bool| SnapValue::Gauge(if b { 1.0 } else { 0.0 });
        let mode_code = match s.mode {
            ExecMode::Idle => 0.0,
            ExecMode::Software => 1.0,
            ExecMode::Hardware => 2.0,
            ExecMode::HardwareForwarded => 3.0,
            ExecMode::Native => 4.0,
        };
        let derived = [
            (
                "jit_ticks_total",
                "virtual clock ticks executed",
                SnapValue::Counter(s.ticks),
            ),
            (
                "jit_wall_seconds",
                "modeled wall-clock seconds elapsed",
                gauge(s.wall_seconds),
            ),
            (
                "jit_version",
                "program version (eval count)",
                gauge(s.version as f64),
            ),
            (
                "jit_mode",
                "execution mode (0=idle 1=software 2=hardware 3=hardware-forwarded 4=native)",
                gauge(mode_code),
            ),
            (
                "jit_compile_in_flight",
                "whether a background compile is in flight",
                flag(s.compile_in_flight),
            ),
            (
                "jit_open_loop_active",
                "whether the last batch used open-loop scheduling",
                flag(s.open_loop_active),
            ),
            (
                "jit_compile_cache_hits_total",
                "background compiles answered from the bitstream cache",
                SnapValue::Counter(s.compile_cache_hits),
            ),
            (
                "jit_compile_cache_misses_total",
                "background compiles that ran the full toolchain flow",
                SnapValue::Counter(s.compile_cache_misses),
            ),
            (
                "jit_compile_cache_evictions_total",
                "bitstreams evicted from the bounded cache",
                SnapValue::Counter(s.compile_cache_evictions),
            ),
            (
                "jit_lease_held",
                "whether a fabric lease is currently held",
                flag(s.lease_held),
            ),
            (
                "jit_hw_pending",
                "whether a compiled bitstream is waiting for a fabric",
                flag(s.hw_pending),
            ),
            (
                "trace_ring_dropped_total",
                "trace events dropped to ring-buffer overflow",
                SnapValue::Counter(self.obs.trace.dropped()),
            ),
        ];
        let mut snaps = self.obs.registry.snapshot();
        let derived = derived
            .into_iter()
            .map(|(name, help, value)| MetricSnapshot {
                name: name.to_string(),
                help: help.to_string(),
                value,
            });
        cascade_trace::merge(&mut snaps, derived.collect());
        snaps
    }

    /// Prometheus-style text exposition of [`Runtime::metrics_snapshot`].
    pub fn metrics_text(&self) -> String {
        expose(&self.metrics_snapshot())
    }

    /// The trace sink this runtime emits JIT lifecycle events into.
    pub fn trace_sink(&self) -> &TraceSink {
        &self.obs.trace
    }

    /// Sets the track id stamped on this runtime's trace events (servers
    /// use the session id, so one shared sink holds every session).
    pub fn set_trace_track(&mut self, track: u64) {
        self.obs.track = track;
        self.reattach_compiler_telemetry();
    }

    /// Enters (or leaves, with `None`) a request's causal context: until
    /// changed, every trace event this runtime emits joins that request's
    /// span tree, and compile submissions carry the context into the
    /// shared pool. Servers set this around each protocol command.
    pub fn set_request_ctx(&mut self, ctx: Option<RequestCtx>) {
        self.obs.req_ctx = ctx;
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
        let Some(main_idx) = self.main_idx else {
            return Err(CascadeError::Unsupported(
                "vcd: no user logic to dump".to_string(),
            ));
        };
        let mut names: Vec<String> = if ports.is_empty() {
            let mut auto: Vec<String> = self
                .wires
                .iter()
                .filter(|w| w.from.slot == main_idx)
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
        // take widths from live values. Nothing here is verified: a width
        // does not depend on the fabric, and the values are sampled below.
        let mut decls: Vec<(String, u32)> = vec![("clk".to_string(), 1)];
        let main = &mut self.slots[main_idx].engine;
        for name in &names {
            let port = main.port(name);
            if port == PortId::NONE {
                return Err(CascadeError::Unsupported(format!(
                    "vcd: unknown port `{name}`"
                )));
            }
            decls.push((name.clone(), main.output(port).width()));
        }
        let file = std::fs::File::create(path)
            .map_err(|e| CascadeError::Unsupported(format!("vcd: cannot create `{path}`: {e}")))?;
        let writer = PortVcd::new(std::io::BufWriter::new(file), ROOT, &decls)
            .map_err(|e| CascadeError::Unsupported(format!("vcd: write failed: {e}")))?;
        self.obs.vcd = Some(VcdTap {
            writer,
            held: Vec::with_capacity(decls.len()),
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
        self.obs.vcd.is_some()
    }

    /// Stops the active VCD dump, flushing the file. Returns its path.
    pub fn vcd_stop(&mut self) -> Option<String> {
        // Samples held by a window still open (after `tick`) are written
        // once it verifies.
        if self
            .obs
            .vcd
            .as_ref()
            .is_some_and(|tap| !tap.held.is_empty())
            && self.verify().is_ok()
        {
            self.vcd_release();
        }
        let mut tap = self.obs.vcd.take()?;
        if let Err(e) = tap.writer.finish() {
            self.warnings.push(format!("vcd: flush failed: {e}"));
        }
        Some(tap.path)
    }

    /// Appends one sample of every tracked port to the active dump. Like
    /// `$display` output, a sample of an unverified hardware window is held
    /// until a clean readback releases it ([`Runtime::vcd_release`]); a
    /// rollback discards it, and the re-executed ticks sample again.
    pub(super) fn vcd_sample(&mut self) {
        let Some(tap) = &mut self.obs.vcd else {
            return;
        };
        tap.held
            .push(Some(self.slots[self.clock_idx].engine.output(clock::VAL)));
        for &(_, port) in &tap.ports {
            let value = self.main_idx.map(|idx| self.slots[idx].engine.output(port));
            tap.held.push(value);
        }
        // Nothing has run unverified since a readback at this iteration.
        if !self.lc.speculating() || self.iterations == self.lc.last_scrub {
            self.vcd_release();
        }
    }

    /// Writes the held samples. A write failure stops the dump with a
    /// warning rather than killing the session.
    pub(super) fn vcd_release(&mut self) {
        let Some(tap) = &mut self.obs.vcd else {
            return;
        };
        let n = tap.ports.len() + 1;
        let written = tap.held.chunks(n).try_for_each(|s| tap.writer.sample(s));
        tap.held.clear();
        if let Err(e) = written {
            self.warnings
                .push(format!("vcd: write failed: {e}; dump stopped"));
            self.obs.vcd = None;
        }
    }

    /// Drops the samples of a window that rolled back.
    pub(super) fn vcd_discard(&mut self) {
        if let Some(tap) = &mut self.obs.vcd {
            tap.held.clear();
        }
    }

    /// Re-resolves the waveform tap's names against the current main
    /// engine. A signal that engine cannot see resolves to
    /// [`PortId::NONE`] and samples zero-width.
    pub(super) fn rebind_tap(&mut self) {
        if let (Some(tap), Some(idx)) = (&mut self.obs.vcd, self.main_idx) {
            let main = &self.slots[idx].engine;
            for (name, port) in &mut tap.ports {
                *port = main.port(name);
            }
        }
    }
}
