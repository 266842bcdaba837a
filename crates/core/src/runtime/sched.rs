//! The scheduler (paper Fig. 6) and its hot path: runs of ticks, one
//! scheduler iteration, the open loop, and the plane batch. Every run
//! reaches the lifecycle only through [`Runtime::service_point`].

use super::{engine_err, Event, ExecMode, Runtime};
use crate::engine::{EngineKind, TaskEvent};
use crate::error::CascadeError;

/// Emit a `ticks_per_s` trace sample at least every this many ticks.
pub(super) const RATE_SAMPLE_TICKS: u64 = 1024;

impl Runtime {
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
                self.service_point(false)?;
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
            let closing = Event::Boundary(self.iterations, true);
            if self.feed(closing)?.as_slice().is_empty() {
                break;
            }
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
    pub(super) fn step_tick(&mut self) -> Result<(), CascadeError> {
        self.iteration()?;
        self.iteration()?;
        if self.obs.vcd.is_some() {
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
    pub(super) fn propagate(&mut self) -> bool {
        crate::plane::propagate(&mut self.slots, &mut self.wires, &mut self.counts)
    }

    pub(super) fn collect_interrupts(&mut self) {
        // Inside an unverified hardware window, user-visible output is
        // quarantined until a clean scrub proves the fabric configuration
        // intact; it is discarded if the window rolls back.
        let out = if self.lc.speculating() {
            &mut self.recovery.quarantine
        } else {
            &mut self.output
        };
        for slot in &mut self.slots {
            for ev in slot.engine.drain_tasks() {
                match ev {
                    TaskEvent::Display(s) | TaskEvent::Write(s) => out.push(s),
                    TaskEvent::Finish => self.finished = true,
                    TaskEvent::Fatal(s) => {
                        out.push(format!("fatal: {s}"));
                        self.finished = true;
                    }
                }
            }
        }
        self.output.append(&mut self.warnings);
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

    /// Open-loop scheduling (paper Sec. 4.4): hand a hardware or native
    /// engine an iteration budget and let it run cycles internally. A
    /// software engine has none; its batch is the walk's
    /// ([`Runtime::run_plane_batch`]).
    fn try_open_loop(&mut self, remaining: u64) -> Result<Option<u64>, CascadeError> {
        let native = self.lc.mode == ExecMode::Native;
        // Main must be alone with the clock (no peripheral left on the
        // data plane), and a waveform dump samples every tick.
        if (!self.config.open_loop && !native)
            || self.obs.vcd.is_some()
            || !matches!(self.lc.mode, ExecMode::HardwareForwarded | ExecMode::Native)
        {
            return Ok(None);
        }
        let Some(main_idx) = self.main_idx else {
            return Ok(None);
        };
        // Adaptive budget: aim for the configured control-return period.
        // The profiler measures the modeled cost of the previous batch and
        // rescales — necessary because per-cycle cost varies wildly between
        // pure compute (one fabric cycle) and host-coupled IO (a bus
        // round trip per token).
        let mut budget = (self.open_loop_budget as u64).max(16).min(remaining.max(1));
        if self.lc.speculating() {
            // Batches never cross a scrub boundary, bounding how much
            // work a detected fault can roll back.
            let until_scrub = self
                .lc
                .scrub_every
                .saturating_sub(self.iterations.saturating_sub(self.lc.last_scrub))
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

    /// Runs whole ticks of a lowered plane through [`Plan::iteration`],
    /// which is the walk's iteration, with per-tick servicing checked once
    /// for the batch. The batch ends before the first tick servicing could
    /// act on ([`Runtime::batch_limit`], and a compile outcome or watchdog
    /// deadline coming due), after the tick a task fires in, or inside an
    /// iteration that fails. Returns whether it ran.
    ///
    /// [`Plan::iteration`]: crate::plane::Plan::iteration
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] on an engine fault.
    fn run_plane_batch(&mut self, remaining: u64) -> Result<bool, CascadeError> {
        // A tap samples every tick; a lease is serviced every tick; a
        // pending warning joins the transcript at the next iteration.
        if self.obs.vcd.is_some() || self.lease.is_some() || !self.warnings.is_empty() {
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
        if self.lc.ckpt_every > 0 {
            limit = limit.min(until(self.lc.last_ckpt + self.lc.ckpt_every));
        }
        if self.lc.pending {
            limit = limit.min(until(self.lc.backoff_until));
        }
        if self.obs.trace.enabled() {
            let since = self.ticks().saturating_sub(self.obs.rate_last_ticks);
            limit = limit.min(RATE_SAMPLE_TICKS.saturating_sub(since));
        }
        limit
    }
}
