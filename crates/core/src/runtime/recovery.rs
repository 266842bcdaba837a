//! Fault recovery: checkpoints, readback scrubs, rollback and replay, and
//! the quarantine that keeps an unverified hardware window's output off
//! the transcript. The lifecycle decides when each happens; this module
//! owns the snapshot, the quarantine and the recovery log.

use super::lifecycle::{Action, Event};
use super::{ExecMode, Runtime};
use crate::engine::EngineState;
use crate::error::CascadeError;
use crate::hibernate::HibernateImage;
use cascade_fpga::FabricFault;
use cascade_trace::Arg;
use std::collections::BTreeMap;

/// A consistent snapshot of every engine's state, taken at a verified
/// point (a clean scrub boundary in hardware, a tick boundary in
/// software). Restoring it rewinds the program to that point.
pub(super) struct Snapshot {
    states: BTreeMap<String, EngineState>,
    iterations: u64,
    finished: bool,
}

#[derive(Default)]
pub(super) struct Recovery {
    /// The last known-good snapshot: armed exactly while the lifecycle
    /// holds a checkpoint.
    pub snapshot: Option<Snapshot>,
    /// Output produced inside the current unverified hardware window:
    /// committed at the next clean readback, discarded on rollback.
    pub quarantine: Vec<String>,
    /// Recovery events. Deliberately separate from the output: fault
    /// recovery must leave the user-visible transcript byte-identical to
    /// a fault-free run.
    pub log: Vec<String>,
}

impl Runtime {
    /// Takes an explicit recovery checkpoint of the program. Any open
    /// speculation window is verified first. Returns whether a checkpoint
    /// was taken (`false` without user logic).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] if verifying the open window fails.
    pub fn checkpoint_now(&mut self) -> Result<bool, CascadeError> {
        self.verify()?;
        let at = self.iterations;
        self.feed(Event::Checkpoint(at, false))?;
        Ok(self.lc.mode != ExecMode::Idle)
    }

    /// Rewinds the program to the last recovery checkpoint (engine state,
    /// tick count, `$finish` status, and peripheral FIFO positions),
    /// resuming in software. Returns whether a checkpoint existed.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError`] if the software rebuild fails.
    pub fn restore_checkpoint(&mut self) -> Result<bool, CascadeError> {
        let armed = self.lc.checkpoint.is_some();
        self.feed(Event::Restore)?;
        Ok(armed)
    }

    /// Freezes this runtime into a portable [`HibernateImage`]: the
    /// committed source log plus a verified checkpoint of every engine.
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
    pub fn hibernate_image(&mut self) -> Result<HibernateImage, CascadeError> {
        if self.lc.mode == ExecMode::Native {
            return Err(CascadeError::Unsupported(
                "native sessions cannot hibernate".to_string(),
            ));
        }
        if self.obs.vcd.is_some() {
            return Err(CascadeError::Unsupported(
                "cannot hibernate during an active VCD dump".to_string(),
            ));
        }
        self.verify()?;
        let at = self.iterations;
        let took = self.lc.mode != ExecMode::Idle;
        // A checkpoint may open a FIFO journal mark (hardware mode); this
        // runtime is about to be dropped, so the table leaves the board
        // unjournaled for its successor.
        self.feed(Event::Checkpoint(at, true))?;
        let states = match (&self.recovery.snapshot, took) {
            (Some(cp), true) => cp.states.clone(),
            _ => BTreeMap::new(),
        };
        Ok(HibernateImage {
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
    pub fn restore_image(&mut self, image: &HibernateImage) -> Result<(), CascadeError> {
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
        let armed = !image.states.is_empty();
        if armed {
            self.rebuild_from(Some(image.states.clone()))?;
            self.output.clear();
            // Arm the restored snapshot as the last known-good point so an
            // immediate post-wake fault can still roll back.
            self.recovery.snapshot = Some(Snapshot {
                states: image.states.clone(),
                iterations: self.iterations,
                finished: self.finished,
            });
        }
        let at = self.iterations;
        self.feed(Event::Woken(at, armed)).map(drop)
    }

    /// Drains the recovery event log (retries, scrub detections,
    /// rollbacks). Kept separate from [`Runtime::drain_output`] because
    /// recovery must not perturb the user-visible transcript.
    pub fn drain_recovery_log(&mut self) -> Vec<String> {
        std::mem::take(&mut self.recovery.log)
    }

    /// Closes any open speculation window before its state is trusted
    /// elsewhere (eval, native entry, probes, explicit checkpoints). On
    /// corruption the window is re-executed in software before control
    /// returns.
    pub(super) fn verify(&mut self) -> Result<(), CascadeError> {
        self.feed(Event::Verify).map(drop)
    }

    /// Snapshots every engine (plus peripheral FIFO read positions) as the
    /// new rollback point.
    pub(super) fn take_checkpoint(&mut self) {
        let states = self.engine_states();
        self.recovery.snapshot = Some(Snapshot {
            states,
            iterations: self.iterations,
            finished: self.finished,
        });
        self.obs.metrics.checkpoints_taken.inc();
        if self.lc.speculating() {
            // Journal FIFO consumption from here so a rollback restores
            // stream peripherals too.
            self.board.fifo_mark();
        }
    }

    /// One readback: compare the fabric's configuration against its
    /// programming-time image, count and trace it, and hand the verdict to
    /// the lifecycle.
    pub(super) fn readback(&mut self, verify: bool) -> Result<(), CascadeError> {
        let Some(hw) = self.main_idx.and_then(|i| self.slots[i].engine.hardware()) else {
            return Ok(());
        };
        let ok = hw.scrub_ok();
        let m = &self.obs.metrics;
        m.scrubs.inc();
        self.trace_instant("scrub", &[("ok", Arg::Bool(ok))]);
        if !ok {
            self.obs.metrics.scrub_detections.inc();
            self.trace_instant("scrub_detection", &[]);
        }
        let at = self.iterations;
        let verdict = if verify {
            Event::Verified
        } else {
            Event::Scrubbed
        };
        self.feed(verdict(ok, at)).map(drop)
    }

    /// The fault plan's scheduled fabric fault, struck at a clean periodic
    /// scrub so the *next* window observes it.
    pub(super) fn strike(&mut self) -> Result<(), CascadeError> {
        match self.config.faults.next_scrub_fault() {
            Some(FabricFault::SoftError { salt }) => {
                if let Some(i) = self.main_idx {
                    let slot = &mut self.slots[i];
                    if let Some(hw) = slot.engine.hardware() {
                        hw.inject_soft_error(salt);
                        slot.gen += 1;
                    }
                }
                Ok(())
            }
            // The fabric vanishes at the boundary just verified, so nothing
            // re-executes: the program resumes in software from the
            // checkpoint taken a moment ago.
            Some(FabricFault::Loss) => self.feed(Event::FabricLost).map(drop),
            None => Ok(()),
        }
    }

    /// Counts, traces and logs a recovery note (one of the lifecycle's
    /// `RolledBack`, `Replayed`, `LostAtScrub`, `Lost`, `Revoked`).
    pub(super) fn note(&mut self, note: Action) {
        let m = &self.obs.metrics;
        let line = match note {
            Action::RolledBack => {
                "scrub detected a fabric soft error; rolled back to the last checkpoint"
            }
            Action::Replayed => {
                "scrub detected a fabric soft error; re-executed the window in software"
            }
            Action::LostAtScrub => {
                m.fabric_losses.inc();
                self.trace_instant("fabric_loss", &[]);
                if let Some((fleet, tenant)) = &self.fleet {
                    fleet.fail_fabric_of(*tenant);
                }
                "fabric lost; resumed in software from the checkpoint"
            }
            Action::Lost => {
                m.lease_demotions.inc();
                m.fabric_losses.inc();
                self.trace_instant("fabric_loss", &[]);
                "fabric lost; resumed in software from the last checkpoint"
            }
            Action::Revoked => {
                m.lease_demotions.inc();
                self.trace_instant("revocation", &[]);
                return;
            }
            other => unreachable!("{other:?} is not a recovery note"),
        };
        self.recovery.log.push(line.to_string());
    }

    /// Restores the last checkpoint: discards quarantined output, rewinds
    /// peripheral FIFO consumption, rewinds the tick counter, and rebuilds
    /// software engines from the checkpointed state. The checkpoint stays
    /// armed — it remains the last known-good point. Without one
    /// (scrubbing disabled) this degrades to a live-state software
    /// migration. With `replay_to`, the rolled-back ticks are re-executed
    /// in software at once, making the recovery invisible in the
    /// transcript.
    pub(super) fn rollback(&mut self, replay_to: Option<u64>) -> Result<(), CascadeError> {
        let t0 = self.virt_ns();
        match self.recovery.snapshot.take() {
            None => self.rebuild()?,
            Some(cp) => {
                self.recovery.quarantine.clear();
                self.board.fifo_rewind();
                let rewound = self.iterations.saturating_sub(cp.iterations) / 2;
                self.iterations = cp.iterations;
                self.finished = cp.finished;
                self.obs.metrics.checkpoints_restored.inc();
                self.trace_instant("rollback", &[("ticks_rewound", Arg::U64(rewound))]);
                self.rebuild_from(Some(cp.states.clone()))?;
                self.recovery.snapshot = Some(cp);
            }
        }
        let Some(target) = replay_to else {
            return Ok(());
        };
        let from = self.iterations;
        while self.iterations < target && !self.finished {
            self.step_tick()?;
        }
        let replayed = self.iterations.saturating_sub(from) / 2;
        self.jit_span(
            "rollback_replay",
            t0,
            &[("ticks_replayed", Arg::U64(replayed))],
        );
        Ok(())
    }
}
