//! The Cascade runtime (paper Sec. 3.4, Fig. 5 & 6).
//!
//! The runtime owns the program's source, the engine for each subprogram,
//! the data/control plane wiring them, the interrupt queue, and the
//! scheduler. Code eval'ed by the user is integrated between time steps —
//! when the event queue is empty and the system is in an observable state —
//! which is also when hardware engines replace software engines and
//! interrupts (system-task side effects) are serviced.
//!
//! The JIT lifecycle is one value stepped by one pure table
//! ([`lifecycle`]); this module observes events, steps the table and
//! executes its actions. The mechanisms live in child modules that own
//! their state: `build` (source → engines), `sched` (the scheduler's hot
//! path), `recovery` (checkpoints, scrubs, rollback, quarantine) and
//! `observe` (metrics, trace, stats, the VCD tap).

mod build;
#[cfg(test)]
mod explore;
mod lifecycle;
mod observe;
mod recovery;
mod sched;

use crate::compiler::{BackgroundCompiler, CompileQueue, CompilerMetrics, HwSource, RetryPolicy};
use crate::config::JitConfig;
use crate::engine::native::NativeEngine;
use crate::engine::EngineState;
use crate::error::{panic_message, CascadeError};
use crate::plane::{Counts, Plan, ResolvedWire, Slot, SlotEngine};
use crate::transform::transform_module;
use build::{compose_root, root_externals, RootEntry, ROOT};
use cascade_bits::Bits;
use cascade_fpga::{Board, CompileError, Fleet, Lease, VirtualWall};
use cascade_trace::Arg;
use cascade_verilog::ast::Item;
use cascade_verilog::typecheck::{check_module, ModuleLibrary, ParamEnv};
use lifecycle::{Action, Actions, Event, Lifecycle};
use observe::Observe;
use recovery::Recovery;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

pub use observe::RuntimeStats;

/// How the program is currently executing (for instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// No user logic yet.
    #[default]
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
    open_loop_last: bool,
    /// Adaptive open-loop budget in cycles (paper Sec. 4.4: "adaptive
    /// profiling is used to choose an iteration limit which allows the
    /// engine to relinquish control on a regular basis").
    open_loop_budget: f64,
    /// Warnings surfaced asynchronously (compile failures).
    warnings: Vec<String>,

    /// The JIT lifecycle: mode, lease, staged bitstream, back-off,
    /// checkpoint and scrub marks (see [`lifecycle`]).
    lc: Lifecycle,
    /// Shared fabric fleet this runtime arbitrates through (multi-tenant
    /// serving); `None` means a dedicated fabric is always available.
    fleet: Option<(Fleet, u64)>,
    /// The fabric lease handle, held while the lifecycle holds a lease.
    lease: Option<Lease>,
    /// Activity heat reported to the fleet arbiter (server-assigned,
    /// monotonically increasing across tenants).
    heat: f64,
    /// The compiled bitstream the lifecycle has staged, and the virtual
    /// second it was staged at (the lease-wait histogram's start).
    staged: Option<(Arc<cascade_netlist::Netlist>, f64)>,
    /// The rollback snapshot, quarantined output and recovery log.
    recovery: Recovery,
    /// Metrics, trace emission and the waveform tap.
    obs: Observe,
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
        let lc = Lifecycle {
            scrub_every: config.scrub_interval_ticks * 2,
            ckpt_every: config.checkpoint_interval_ticks * 2,
            ..Lifecycle::default()
        };
        let obs = Observe::new(config.trace.clone());
        let mut rt = Runtime {
            config,
            board,
            lib,
            root: Vec::new(),
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
            open_loop_last: false,
            open_loop_budget,
            warnings: Vec::new(),
            lc,
            fleet: None,
            lease: None,
            heat: 0.0,
            staged: None,
            recovery: Recovery::default(),
            obs,
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
            CompilerMetrics::from_registry(&self.obs.registry),
            self.obs.trace.clone(),
            self.obs.track,
        );
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

    /// Joins a shared virtual-FPGA fleet: hardware promotion now requires a
    /// fabric lease from `fleet`, and the lease can be revoked (the runtime
    /// migrates back to its software engine at the next tick boundary).
    /// `tenant` must be unique across the fleet's tenants.
    pub fn attach_fleet(&mut self, fleet: Fleet, tenant: u64) {
        self.fleet = Some((fleet, tenant));
        (self.lc, _) = lifecycle::step(&self.lc, Event::AttachFleet);
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
        (self.lc, _) = lifecycle::step(&self.lc, Event::Heat);
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
        self.service_point(true)
    }

    /// The current execution mode.
    pub fn mode(&self) -> ExecMode {
        self.lc.mode
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
        self.eval_seeded(src, None)
    }

    /// [`Runtime::eval`], with the new version's engines seeded from
    /// `states` when given instead of from the live engines. Seeded source
    /// is a replay: its one-shot items ran before the states were taken.
    fn eval_seeded(
        &mut self,
        src: &str,
        states: Option<BTreeMap<String, EngineState>>,
    ) -> Result<(), CascadeError> {
        let t0 = self.virt_ns();
        let h0 = self.obs.trace.host_ns();
        let src = cascade_verilog::preproc::preprocess(src, &cascade_verilog::preproc::NoIncludes)?;
        let unit = cascade_verilog::parse(&src)?;
        let h_parse = self.obs.trace.host_ns();
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
                        executed: states.is_some(),
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
        let h_elaborate = self.obs.trace.host_ns();
        // Commit. Any open speculation window is verified first so the
        // state a rebuild migrates is trustworthy; a mid-commit rebuild
        // failure (or panic) restores the previous program so one bad item
        // cannot take the session down.
        self.verify()?;
        let prev_lib = std::mem::replace(&mut self.lib, staged_lib);
        let prev_root = std::mem::replace(&mut self.root, staged_root);
        match catch_unwind(AssertUnwindSafe(|| self.new_version(states))) {
            Ok(Ok(_)) => {
                // Committed: the (preprocessed) text joins the hibernation
                // replay log. Preprocessed form keeps `define scoping
                // per-eval even when the log is replayed as one unit.
                self.src_log.push(src.clone());
                let version = self.lc.version;
                self.jit_span("eval", t0, &[("version", Arg::U64(version))]);
                if self.obs.trace.enabled() {
                    // Host-clock parse/elaborate timings ride on a
                    // non-deterministic instant so the virtual-time export
                    // stays byte-identical across runs.
                    let total = self.obs.trace.host_ns().saturating_sub(h0);
                    self.obs.trace.host_instant(
                        self.obs.track,
                        "jit",
                        "eval_host",
                        &[
                            ("parse_ns", Arg::U64(h_parse.saturating_sub(h0))),
                            (
                                "elaborate_ns",
                                Arg::U64(h_elaborate.saturating_sub(h_parse)),
                            ),
                            ("total_ns", Arg::U64(total)),
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

    /// Steps in a new version. Its rebuild seeds the engines from `states`
    /// when given, from the live engines otherwise.
    fn new_version(
        &mut self,
        mut states: Option<BTreeMap<String, EngineState>>,
    ) -> Result<(), CascadeError> {
        let mut rebuilt = Ok(());
        self.feed_with(Event::Eval, |rt, a| {
            let seeded = a == Action::Rebuild && states.is_some();
            if seeded {
                rebuilt = rt.rebuild_from(states.take());
            }
            seeded
        })?;
        rebuilt
    }

    /// Restores the previous (known-good) program after a failed eval
    /// commit. Rebuilding the prior program is best-effort: it was running
    /// a moment ago, so a second failure means engine state is torn — the
    /// runtime is then left idle but alive.
    fn recover_failed_commit(&mut self, lib: ModuleLibrary, root: Vec<RootEntry>) {
        self.lib = lib;
        self.root = root;
        let recovered = matches!(
            catch_unwind(AssertUnwindSafe(|| self.feed(Event::Eval))),
            Ok(Ok(_))
        );
        if !recovered {
            self.slots.clear();
            self.wires.clear();
            self.clock_idx = 0;
            self.main_idx = None;
            self.hw_source = None;
            self.plan = None;
            (self.lc, _) = lifecycle::step(&self.lc, Event::Empty);
        }
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
        self.verify()?;
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
        let mut native = NativeEngine::new(Arc::clone(&bitstream.netlist), Vec::new())
            .map_err(|e| CascadeError::NativeIneligible(e.to_string()))?;
        // The table returns the lease, withdraws any request, and hands a
        // forwarding engine's peripherals back to the plane; native mode
        // restarts state, so the checkpoint is disarmed.
        self.feed(Event::EnterNative)?;
        native.forward(self.collect_forwarded());
        let main_idx = self.main_idx.expect("hw_source implies main");
        self.slots[main_idx].install(SlotEngine::Native(Box::new(native)));
        self.rebind(main_idx);
        // Only the clock and the native engine remain.
        self.retain_clock_and_main();
        let version = self.lc.version;
        self.jit_span("native_handoff", t0, &[("version", Arg::U64(version))]);
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
        self.feed(Event::Eval).map(drop)
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

    /// Reads a named signal from the main engine (outputs and promoted
    /// ports), for tests and probes. Any open speculation window is
    /// verified first: a fault-plan upset can strike at the very scrub
    /// boundary that just came back clean, and probing the raw engine
    /// would leak that unverified (possibly corrupt) state to the caller.
    /// Returns `None` when verification cannot restore a trustworthy
    /// state.
    pub fn probe(&mut self, port: &str) -> Option<Bits> {
        self.verify().ok()?;
        let engine = &mut self.slots[self.main_idx?].engine;
        let port = engine.port(port);
        Some(engine.output(port))
    }

    // ------------------------------------------------------------------
    // The lifecycle: observe, step, execute
    // ------------------------------------------------------------------

    /// Steps the lifecycle with `ev` and executes the actions it returns,
    /// in order. `payload` executes the ones that carry the observed
    /// event's payload (a bitstream, a lease, a compile error) and says
    /// whether it did.
    fn feed_with(
        &mut self,
        ev: Event,
        mut payload: impl FnMut(&mut Self, Action) -> bool,
    ) -> Result<Actions, CascadeError> {
        let (next, actions) = lifecycle::step(&self.lc, ev);
        self.lc = next;
        for &a in actions.as_slice() {
            if !payload(self, a) {
                self.exec(a)?;
            }
        }
        Ok(actions)
    }

    fn feed(&mut self, ev: Event) -> Result<Actions, CascadeError> {
        self.feed_with(ev, |_, _| false)
    }

    fn exec(&mut self, a: Action) -> Result<(), CascadeError> {
        match a {
            // Executed with their event's payload (`feed_with`).
            Action::Stage | Action::TakeLease | Action::Report => {}
            Action::Unstage => self.staged = None,
            Action::DropLease => self.lease = None,
            Action::Withdraw => {
                if let Some((fleet, tenant)) = &self.fleet {
                    fleet.cancel(*tenant);
                }
            }
            Action::RequestLease => return self.request_lease(),
            Action::Promote => {
                let (netlist, _) = self.staged.take().expect("a staged bitstream");
                return self.promote(netlist);
            }
            Action::Scrub | Action::Verify => return self.readback(a == Action::Verify),
            Action::Release => {
                let q = std::mem::take(&mut self.recovery.quarantine);
                self.output.extend(q);
                self.vcd_release();
            }
            Action::TakeCheckpoint => self.take_checkpoint(),
            Action::Strike => return self.strike(),
            Action::RolledBack
            | Action::Replayed
            | Action::LostAtScrub
            | Action::Lost
            | Action::Revoked => self.note(a),
            Action::Rollback(replay_to) => return self.rollback(replay_to),
            Action::Demote => {
                self.trace_instant("state_migration", &[("direction", Arg::Str("hw_to_sw"))]);
                return self.rebuild();
            }
            Action::Rebuild => return self.rebuild(),
            Action::Disarm => {
                self.recovery.snapshot = None;
                self.board.fifo_unmark();
            }
            Action::Unmark => self.board.fifo_unmark(),
        }
        Ok(())
    }

    /// The one servicing order. At every service point — a command
    /// boundary (`command`) or each batch of a run — events reach the
    /// table in this order: (1) the lease, lost before revoked; (2) the
    /// compiler's outcome; (3) the arbiter, when a staged bitstream wants a
    /// lease; (4) inside a run, a due scrub or checkpoint.
    fn service_point(&mut self, command: bool) -> Result<(), CascadeError> {
        if let Some(lease) = &self.lease {
            let at = self.iterations;
            if lease.lost() {
                self.feed(Event::LeaseLost(at))?;
            } else if lease.revoked() {
                self.feed(Event::LeaseRevoked)?;
            }
        }
        self.poll_compiler()?;
        self.feed(Event::Service(self.iterations, command))?;
        if !command {
            self.feed(Event::Boundary(self.iterations, false))?;
        }
        Ok(())
    }

    /// Whether a promotion now leaves main alone with the clock (ABI
    /// forwarding absorbs the peripherals, or there are none).
    fn forwards(&self) -> bool {
        self.config.forwarding || self.slots.len() <= 2
    }

    fn poll_compiler(&mut self) -> Result<(), CascadeError> {
        let Some(outcome) = self.compiler.poll(self.wall.seconds()) else {
            return Ok(());
        };
        let version = outcome.version;
        match outcome.result {
            Ok(bitstream) => {
                let ev = Event::CompileReady(version, self.iterations, self.forwards());
                self.feed_with(ev, |rt, a| {
                    if a != Action::Stage {
                        return false;
                    }
                    rt.staged = Some((Arc::clone(&bitstream.netlist), rt.wall.seconds()));
                    true
                })?;
            }
            Err(e) => {
                self.feed_with(Event::CompileFailed(version), |rt, a| {
                    if a != Action::Report {
                        return false;
                    }
                    rt.report_compile_failure(&e);
                    true
                })?;
            }
        }
        Ok(())
    }

    fn report_compile_failure(&mut self, e: &CompileError) {
        let msg = e.to_string();
        if e.is_transient() {
            // A transient failure that exhausted its retry budget. The
            // program keeps running in software either way, and recovery
            // events stay off the user transcript.
            self.trace_instant("hw_compile_abandoned", &[("error", Arg::Str(&msg))]);
            self.recovery
                .log
                .push(format!("hardware compilation abandoned: {e}"));
        } else {
            self.trace_instant("hw_compile_failed", &[("error", Arg::Str(&msg))]);
            self.warnings
                .push(format!("hardware compilation failed: {e}"));
            self.collect_interrupts();
        }
    }

    /// Asks the arbiter for a fabric. A grant the table keeps is held; one
    /// it does not want is dropped, which returns the fabric.
    fn request_lease(&mut self) -> Result<(), CascadeError> {
        let Some(granted) = self.fleet.as_ref().map(|(f, t)| f.request(*t, self.heat)) else {
            return Ok(());
        };
        let at = self.iterations;
        let Some(lease) = granted else {
            return self.feed(Event::LeaseDenied(at)).map(drop);
        };
        let mut lease = Some(lease);
        let forwards = self.forwards();
        self.feed_with(Event::LeaseGranted(at, forwards), |rt, a| {
            if a != Action::TakeLease {
                return false;
            }
            rt.take_lease(lease.take());
            true
        })
        .map(drop)
    }

    fn take_lease(&mut self, lease: Option<Lease>) {
        self.lease = lease;
        if let Some((_, since)) = &self.staged {
            let wait_s = (self.wall.seconds() - since).max(0.0);
            self.obs.metrics.lease_wait.observe(wait_s);
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

fn engine_err(e: crate::engine::EngineError) -> CascadeError {
    match e {
        crate::engine::EngineError::Sim(s) => CascadeError::Sim(s),
        crate::engine::EngineError::Internal(m) => CascadeError::Unsupported(m),
    }
}
