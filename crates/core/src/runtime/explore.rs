//! The lifecycle table, checked exhaustively: a breadth-first search over
//! every [`Lifecycle`] reachable from idle, with a visited set, that
//! drives [`step`] — the table `Runtime` executes — and checks five
//! invariants on every transition:
//!
//! 1. at most one engine owns main;
//! 2. a lease or a pending fleet request exists only in a mode that can
//!    use it;
//! 3. no output is released from an unverified window;
//! 4. every rollback lands on a checkpoint taken in the current version;
//! 5. a stale-version compile never promotes.
//!
//! One search step is one observation (an eval, a compile outcome, a
//! lease flag, a service point, a checkpoint, ...) followed by the
//! answers to every action that reads the world — a lease request is
//! granted or denied, a readback comes back clean or not, a clean scrub's
//! fault strike takes the fabric or not, a rebuild yields a program with
//! or without user logic — branching on each answer, as `Runtime` feeds
//! them back while it executes the actions. A verify's verdict may also
//! arrive only after later observations, so the states in which a
//! revocation waits for it are searched too.

use super::lifecycle::{step, Action, Actions, Event, Lease, Lifecycle, LEASE_POLL_STRIDE_ITERS};
use super::ExecMode::{self, Hardware, HardwareForwarded, Idle, Native, Software};
use std::collections::HashSet;

/// Scrub and checkpoint interval of the explored configurations.
const EVERY: u64 = 8;
/// Far enough past every mark that each interval and back-off is due.
const LATER: u64 = LEASE_POLL_STRIDE_ITERS + EVERY;

fn on_fabric(m: ExecMode) -> bool {
    matches!(m, Hardware | HardwareForwarded)
}

/// The most recent scrub or checkpoint mark: observations happen at it
/// or `LATER` past it (a back-off may end on either side).
fn base(s: &Lifecycle) -> u64 {
    let ckpt = s.checkpoint.map_or(0, |c| c.1);
    s.last_scrub.max(s.last_ckpt).max(ckpt)
}

/// Every observation the world can present in `s`.
fn observations(s: &Lifecycle) -> Vec<Event> {
    use Event::*;
    let stale = s.version.wrapping_sub(1);
    let mut evs = vec![Eval, Heat, LeaseRevoked, Verify, Restore, EnterNative];
    evs.extend([s.version, stale].map(CompileFailed));
    for at in [base(s), base(s) + LATER] {
        evs.extend([LeaseLost(at)]);
        for b in [false, true] {
            evs.extend([s.version, stale].map(|version| CompileReady(version, at, b)));
            evs.extend([
                Service(at, b),
                Boundary(at, b),
                Checkpoint(at, b),
                Woken(at, b),
            ]);
        }
    }
    evs
}

/// The iteration an event happens at (answers happen there too).
fn at_of(s: &Lifecycle, e: Event) -> u64 {
    use Event::*;
    match e {
        CompileReady(_, at, _) | Service(at, _) | LeaseGranted(at, _) | LeaseDenied(at) => at,
        LeaseLost(at) | Boundary(at, _) | Checkpoint(at, _) | Woken(at, _) => at,
        Scrubbed(_, at) | Verified(_, at) => at,
        _ => base(s),
    }
}

/// The answers the world may give to `a`; `None` when `a` asks nothing.
/// A `None` answer stands for "nothing to report".
fn answers(a: Action, at: u64) -> Option<Vec<Option<Event>>> {
    use Event::*;
    Some(match a {
        Action::RequestLease => vec![
            Some(LeaseGranted(at, true)),
            Some(LeaseGranted(at, false)),
            Some(LeaseDenied(at)),
        ],
        Action::Scrub => vec![Some(Scrubbed(true, at)), Some(Scrubbed(false, at))],
        // A verdict may also come later than other observations: the table
        // must be safe while a revocation waits for it.
        Action::Verify => vec![Some(Verified(true, at)), Some(Verified(false, at)), None],
        Action::Strike => vec![None, Some(FabricLost)],
        Action::Rebuild | Action::Demote | Action::Rollback(_) => vec![None, Some(Empty)],
        _ => return None,
    })
}

/// Steps `s` with `e`, checks the transition, resolves every answer its
/// actions ask for, and appends each resulting lifecycle to `out`.
fn explore(s: &Lifecycle, e: Event, out: &mut Vec<Lifecycle>) -> Result<(), String> {
    let (n, acts) = step(s, e);
    check(s, e, &acts, &n).map_err(|why| format!("{why}\n  {e:?} from {s:?}\n  -> {acts:?}"))?;
    let at = at_of(s, e);
    let mut states = vec![n];
    for &a in acts.as_slice() {
        let Some(answers) = answers(a, at) else {
            continue;
        };
        let mut next = Vec::new();
        for st in &states {
            for answer in &answers {
                match answer {
                    None => next.push(*st),
                    Some(ev) => explore(st, *ev, &mut next)?,
                }
            }
        }
        states = next;
    }
    out.extend(states);
    Ok(())
}

/// The five invariants, on one transition `s --e--> n` doing `acts`.
fn check(s: &Lifecycle, e: Event, acts: &Actions, n: &Lifecycle) -> Result<(), String> {
    let has = |a: Action| acts.as_slice().contains(&a);
    let swaps = acts.as_slice().iter().filter(|a| {
        matches!(
            a,
            Action::Promote | Action::Demote | Action::Rebuild | Action::Rollback(_)
        )
    });
    // 1. At most one engine owns main: one swap per step, a promotion
    // replaces a software owner, and native mode never takes main from a
    // forwarding engine that still holds the peripherals.
    if swaps.count() > 1 {
        return Err("1: two engines installed as main in one step".into());
    }
    if has(Action::Promote) && s.mode != Software {
        return Err(format!("1: promoted over a {} owner", s.mode.name()));
    }
    if e == Event::EnterNative && s.mode == HardwareForwarded && !has(Action::Demote) {
        return Err("1: native entered while the peripherals are absorbed".into());
    }
    // 2. A lease or a pending fleet request exists only in a mode that can
    // use it, and hardware behind a fleet runs on a fabric it holds.
    if n.lease != Lease::None && !on_fabric(n.mode) {
        return Err(format!("2: a lease held in {} mode", n.mode.name()));
    }
    if (n.pending || n.requested) && !matches!(n.mode, Idle | Software) {
        return Err(format!(
            "2: a fleet request pending in {} mode",
            n.mode.name()
        ));
    }
    if (n.lease != Lease::None || n.pending || n.requested) && !n.fleet {
        return Err("2: a lease or request without a fleet".into());
    }
    if n.fleet && on_fabric(n.mode) && n.lease == Lease::None {
        return Err("2: hardware on a fabric no lease holds".into());
    }
    let verdict = matches!(e, Event::Scrubbed(..) | Event::Verified(..));
    if verdict && s.lease == Lease::Revoked && n.lease != Lease::None {
        return Err("2: a revoked lease kept past its window's verdict".into());
    }
    // 3. No output is released from an unverified window.
    if has(Action::Release) && !matches!(e, Event::Scrubbed(true, _) | Event::Verified(true, _)) {
        return Err("3: quarantined output released without a clean readback".into());
    }
    // 4. Every rollback lands on a checkpoint taken in the current version.
    let rolls = acts
        .as_slice()
        .iter()
        .any(|a| matches!(a, Action::Rollback(_)));
    if rolls && s.checkpoint.is_some_and(|c| c.0 != s.version) {
        return Err("4: rolled back to another version's checkpoint".into());
    }
    if n.checkpoint.is_some_and(|c| c.0 != n.version) {
        return Err("4: a checkpoint of another version stays armed".into());
    }
    // 5. A stale-version compile never promotes.
    if let Event::CompileReady(version, ..) = e {
        if version != s.version && (has(Action::Promote) || has(Action::Stage) || n != s) {
            return Err("5: a stale compile moved the lifecycle".into());
        }
    }
    Ok(())
}

/// The lifecycle up to what `step` can tell apart from the observations
/// `observations` offers: versions and iteration marks relative to the
/// current ones, clamped where every comparison comes out the same.
fn canonical(s: &Lifecycle) -> Lifecycle {
    let b = base(s);
    let rel = |m: u64| b - m.max(b.saturating_sub(LATER + 1));
    let mut c = *s;
    c.version = 0;
    c.checkpoint = s
        .checkpoint
        .map(|(v, at)| (s.version.wrapping_sub(v).min(2), rel(at)));
    c.last_scrub = rel(s.last_scrub);
    c.last_ckpt = rel(s.last_ckpt);
    c.backoff_until = (s.backoff_until.saturating_sub(b)).min(LATER + 1)
        + (LATER + 1) * u64::from(s.backoff_until < b.saturating_sub(LATER + 1));
    c
}

/// Searches to `depth` observations from every idle configuration (fleet,
/// scrubbing and periodic checkpoints each on or off), and returns every
/// lifecycle visited.
fn search(depth: usize) -> Result<HashSet<Lifecycle>, String> {
    let mut frontier = Vec::new();
    for fleet in [false, true] {
        for scrub_every in [0, EVERY] {
            for ckpt_every in [0, EVERY] {
                let s = Lifecycle {
                    scrub_every,
                    ckpt_every,
                    ..Lifecycle::default()
                };
                frontier.push(if fleet {
                    step(&s, Event::AttachFleet).0
                } else {
                    s
                });
            }
        }
    }
    let mut visited: HashSet<Lifecycle> = frontier.iter().map(canonical).collect();
    for _ in 0..depth {
        let mut next = Vec::new();
        for s in &frontier {
            let mut out = Vec::new();
            for e in observations(s) {
                explore(s, e, &mut out)?;
            }
            next.extend(out.into_iter().filter(|n| visited.insert(canonical(n))));
        }
        frontier = next;
    }
    Ok(visited)
}

#[test]
fn every_lifecycle_to_depth_8_keeps_the_invariants() {
    let visited = search(8).unwrap_or_else(|why| panic!("{why}"));
    // Every mode is reached, hardware with and without a lease, and a
    // scrubbed hardware window.
    let seen: HashSet<_> = visited
        .iter()
        .map(|s| (s.mode, s.lease != Lease::None, s.speculating()))
        .collect();
    for want in [
        (Idle, false, false),
        (Software, false, false),
        (Hardware, false, false),
        (HardwareForwarded, true, true),
        (Native, false, false),
    ] {
        assert!(seen.contains(&want), "never reached {want:?}");
    }
}

#[test]
#[ignore = "depth 12: run optimised (CI's chaos-smoke job)"]
fn every_lifecycle_to_depth_12_keeps_the_invariants() {
    let visited = search(12).unwrap_or_else(|why| panic!("{why}"));
    eprintln!("{} lifecycles visited", visited.len());
}
