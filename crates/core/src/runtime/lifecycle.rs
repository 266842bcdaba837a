//! The JIT lifecycle (paper Sec. 3.4, 4.4–4.5): `Runtime` observes an
//! [`Event`], [`step`]s its [`Lifecycle`] and executes the [`Actions`]
//! returned, in order. The table holds no handle and allocates nothing; an
//! action that reads the world is answered by an event. `at` and the marks
//! count scheduler iterations (two per tick).

use super::ExecMode;
use ExecMode::{Hardware, HardwareForwarded, Idle, Native, Software};

/// Iterations a denied lease request waits to re-ask the arbiter: soon after
/// a fabric frees, without serializing leaseless tenants on the fleet mutex.
pub(crate) const LEASE_POLL_STRIDE_ITERS: u64 = 128;

/// The fabric lease as the table sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) enum Lease {
    #[default]
    None,
    Held,
    /// Asked back by the arbiter; returned once the window is verified.
    Revoked,
}

/// Everything the JIT decides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct Lifecycle {
    pub version: u64,
    pub mode: ExecMode,
    pub fleet: bool,
    /// Iterations between scrubs and between software checkpoints (0: off).
    pub scrub_every: u64,
    pub ckpt_every: u64,
    pub lease: Lease,
    /// A compiled bitstream waits for a lease; the arbiter holds our request.
    pub pending: bool,
    pub requested: bool,
    pub backoff_until: u64,
    /// The armed rollback point: the `(version, at)` it was taken at.
    pub checkpoint: Option<(u64, u64)>,
    pub last_scrub: u64,
    pub last_ckpt: u64,
}

/// What the runtime observed; DESIGN.md tabulates each row. `forwards`: a
/// promotion leaves main alone with the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A new version: an eval, a failed commit's recovery, native exit.
    Eval,
    /// The rebuilt program has no user logic.
    Empty,
    AttachFleet,
    Heat,
    /// `(version, at, forwards)`.
    CompileReady(u64, u64, bool),
    CompileFailed(u64),
    /// A service point `(at, command)`; a command is past any back-off.
    Service(u64, bool),
    LeaseGranted(u64, bool),
    LeaseDenied(u64),
    LeaseRevoked,
    LeaseLost(u64),
    /// A tick boundary in a run `(at, closing)`: is a scrub or a checkpoint due?
    Boundary(u64, bool),
    /// State is about to be trusted: close an open window first.
    Verify,
    /// A periodic scrub's verdict `(ok, at)`.
    Scrubbed(bool, u64),
    /// A closing window's verdict `(ok, at)`.
    Verified(bool, u64),
    /// The fault plan took the fabric at a clean scrub.
    FabricLost,
    /// An explicit checkpoint `(at, hibernate)`: hibernating unjournals the board.
    Checkpoint(u64, bool),
    Restore,
    /// A hibernated program woke `(at, armed)`.
    Woken(u64, bool),
    EnterNative,
}

/// What the runtime does. `Stage`, `TakeLease` and `Report` act on their
/// event's payload (a bitstream, a lease, a compile error); `RequestLease`,
/// `Scrub`, `Verify`, `Strike` and the engine swaps are answered by events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Action {
    #[default]
    Stage,
    Unstage,
    RequestLease,
    TakeLease,
    DropLease,
    Withdraw,
    /// Install the staged bitstream as main.
    Promote,
    /// Read the fabric back: periodically, or to verify a closing window.
    Scrub,
    Verify,
    /// Commit the quarantined output.
    Release,
    TakeCheckpoint,
    /// Let the fault plan strike the fabric.
    Strike,
    /// Restore the checkpoint (or rebuild), then replay to an iteration.
    Rollback(Option<u64>),
    /// Migrate main's state into fresh software engines.
    Demote,
    /// Rebuild the software engines for a new version.
    Rebuild,
    /// Drop the checkpoint and stop journaling the FIFOs.
    Disarm,
    Unmark,
    Report,
    /// Recovery notes: counted, traced and logged.
    RolledBack,
    Replayed,
    LostAtScrub,
    Lost,
    Revoked,
}

/// A step's actions: a fixed-size list, so stepping never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Actions {
    list: [Action; 8],
    len: usize,
}

impl Actions {
    fn push(&mut self, a: Action) {
        self.list[self.len] = a;
        self.len += 1;
    }

    fn push_if(&mut self, cond: bool, a: Action) {
        if cond {
            self.push(a);
        }
    }

    pub fn as_slice(&self) -> &[Action] {
        &self.list[..self.len]
    }
}

impl Lifecycle {
    pub fn on_fabric(&self) -> bool {
        matches!(self.mode, Hardware | HardwareForwarded)
    }

    /// Main runs an unverified hardware window: output is quarantined.
    pub fn speculating(&self) -> bool {
        self.scrub_every > 0 && self.checkpoint.is_some() && self.on_fabric()
    }
}

/// The table: the lifecycle after `ev`, and what to do about it.
pub(crate) fn step(s: &Lifecycle, ev: Event) -> (Lifecycle, Actions) {
    use {Action as A, Event as E};
    let (mut n, sw) = (*s, s.mode == Software);
    let mut a = Actions::default();
    match ev {
        E::Eval => {
            n.version += 1;
            leave(&mut n, &mut a);
            a.push(A::Rebuild);
        }
        E::Empty if sw => n.mode = Idle,
        E::AttachFleet => n.fleet = true,
        E::Heat => n.backoff_until = 0,
        E::CompileReady(version, at, forwards) if version == s.version && sw => {
            a.push(A::Stage);
            if s.fleet {
                (n.pending, n.backoff_until) = (true, 0);
            } else {
                promote(&mut n, &mut a, at, forwards);
            }
        }
        E::CompileFailed(version) => a.push_if(version == s.version && sw, A::Report),
        E::Service(at, command) => {
            n.backoff_until = if command { 0 } else { s.backoff_until };
            let wants = s.lease == Lease::None && s.pending && at >= n.backoff_until;
            a.push_if(wants, A::RequestLease);
        }
        E::LeaseGranted(at, forwards) if s.lease == Lease::None && s.pending => {
            (n.lease, n.requested) = (Lease::Held, false);
            a.push(A::TakeLease);
            promote(&mut n, &mut a, at, forwards);
        }
        E::LeaseDenied(at) if s.lease == Lease::None && s.pending => {
            (n.requested, n.backoff_until) = (true, at + LEASE_POLL_STRIDE_ITERS);
        }
        E::LeaseLost(at) if s.lease != Lease::None => {
            a.push(A::Lost);
            rollback(&mut n, &mut a, Some(at));
        }
        // Never migrate unverified state: the lease goes with the verdict.
        E::LeaseRevoked if s.lease == Lease::Held && s.speculating() => {
            n.lease = Lease::Revoked;
            a.push(A::Verify);
        }
        E::LeaseRevoked if s.lease == Lease::Held => demote(&mut n, &mut a),
        E::Boundary(at, closing) if s.speculating() => {
            let due = at.saturating_sub(s.last_scrub) >= s.scrub_every;
            a.push_if(due || (closing && at != s.last_scrub), A::Scrub);
        }
        E::Boundary(at, false)
            if sw && s.ckpt_every > 0 && at.saturating_sub(s.last_ckpt) >= s.ckpt_every =>
        {
            checkpoint(&mut n, &mut a, at)
        }
        E::Verify => a.push_if(s.speculating(), A::Verify),
        E::Scrubbed(ok, at) | E::Verified(ok, at) if s.speculating() => {
            let replay = matches!(ev, E::Verified(..));
            n.last_scrub = at;
            let revoked = s.lease == Lease::Revoked;
            if ok {
                a.push(A::Release);
                checkpoint(&mut n, &mut a, at);
                a.push_if(!replay, A::Strike);
            } else {
                a.push([A::RolledBack, A::Replayed][usize::from(replay)]);
                rollback(&mut n, &mut a, replay.then_some(at));
                a.push_if(revoked, A::Revoked);
            }
            if revoked && ok {
                demote(&mut n, &mut a);
            }
        }
        E::FabricLost if s.on_fabric() => {
            a.push(A::LostAtScrub);
            rollback(&mut n, &mut a, None);
        }
        E::Checkpoint(at, hibernate) if s.mode != Native || !hibernate => {
            if s.mode != Idle {
                checkpoint(&mut n, &mut a, at);
            }
            a.push_if(hibernate, A::Unmark);
        }
        E::Restore if s.checkpoint.is_some() => rollback(&mut n, &mut a, None),
        E::Woken(at, armed) => {
            n.checkpoint = armed.then_some((s.version, at));
            (n.last_ckpt, n.last_scrub) = (at, at);
        }
        // Native mode holds no fabric lease and no request, and a
        // forwarding engine first hands its peripherals back to the plane.
        E::EnterNative if s.mode != Idle => {
            leave(&mut n, &mut a);
            a.push_if(s.mode == HardwareForwarded, A::Demote);
            a.push_if(s.requested, A::Withdraw);
            a.push(A::Disarm);
            (n.mode, n.requested) = (Native, false);
        }
        _ => {}
    }
    (n, a)
}

/// Main becomes software: the lease goes back, a staged bitstream is
/// dropped and the checkpoint disarmed.
fn leave(n: &mut Lifecycle, a: &mut Actions) {
    a.push_if(n.lease != Lease::None, Action::DropLease);
    a.push_if(n.pending, Action::Unstage);
    (n.lease, n.pending, n.mode, n.checkpoint) = (Lease::None, false, Software, None);
}

/// A revoked lease is returned: main's state migrates to software.
fn demote(n: &mut Lifecycle, a: &mut Actions) {
    a.push(Action::Revoked);
    leave(n, a);
    a.push(Action::Demote);
}

/// Main becomes hardware; with scrubbing on, the migrated (known-good)
/// state opens a verified-execution window.
fn promote(n: &mut Lifecycle, a: &mut Actions, at: u64, forwards: bool) {
    n.pending = false;
    n.mode = [Hardware, HardwareForwarded][usize::from(forwards)];
    a.push(Action::Promote);
    if n.scrub_every > 0 {
        n.last_scrub = at;
        checkpoint(n, a, at);
    }
}

fn checkpoint(n: &mut Lifecycle, a: &mut Actions, at: u64) {
    (n.checkpoint, n.last_ckpt) = (Some((n.version, at)), at);
    a.push(Action::TakeCheckpoint);
}

/// Main resumes in software from the armed checkpoint, which stays armed.
fn rollback(n: &mut Lifecycle, a: &mut Actions, replay_to: Option<u64>) {
    let armed = n.checkpoint;
    leave(n, a);
    n.checkpoint = armed;
    if let Some((_, at)) = armed {
        n.last_ckpt = at;
    }
    a.push(Action::Rollback(replay_to));
}
