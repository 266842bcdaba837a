//! The one campaign engine: generate → run → check → shrink.
//!
//! Every `verify` campaign is an instance of [`Campaign`]: it generates
//! cases from its seed, runs each against its oracle, names the smaller
//! cases a failing one reduces to ([`Shrink`]) and renders its report.
//! The engine owns the loop and its stopping rule, the greedy shrink of
//! every failure, and the verdict: a campaign fails on any finding, and
//! when it decided nothing (every case skipped proves nothing).

use std::process::ExitCode;
use std::time::Instant;

/// What one run of one case came to.
pub enum Outcome<F> {
    /// The oracle agreed.
    Pass,
    /// The case fell outside what the runner decides.
    Skip,
    /// The oracle disagreed; carries what was found.
    Fail(F),
}

/// A case the shrinker can reduce.
pub trait Shrink: Clone {
    /// A measure that every candidate lowers, so shrinking terminates.
    fn size(&self) -> u64;
    /// Smaller variants of the case, biggest reductions first.
    fn candidates(&self) -> Vec<Self>;
}

/// One campaign: its cases, runner, oracle and report.
pub trait Campaign {
    type Case: Shrink;
    type Finding: std::fmt::Display;
    /// Whether a failure is worth shrinking (false where every candidate
    /// would cost a whole campaign's worth of runs).
    const SHRINK: bool = true;
    /// The stopping rule: stop once this many cases are decided (passed
    /// or failed), or after the second number of attempts.
    fn budget(&self) -> (u32, u32);
    /// The case of the `attempt`-th turn (from 0), derived from the
    /// campaign's seed.
    fn generate(&mut self, attempt: u32) -> Self::Case;
    /// Runs one case against its oracle. Only a generated case is
    /// `counted` into the report; the shrinker's re-runs count nothing.
    fn run(&mut self, case: &Self::Case, counted: bool) -> Outcome<Vec<Self::Finding>>;
    /// Whether a shrink candidate still shows the failure being shrunk:
    /// by default, a finding of the same shape (digits aside).
    fn same_failure(&self, first: &[Self::Finding], now: &[Self::Finding]) -> bool {
        let shape = |f: &Self::Finding| -> String {
            f.to_string()
                .chars()
                .filter(|c| !c.is_ascii_digit())
                .collect()
        };
        first
            .first()
            .is_some_and(|f| now.iter().any(|n| shape(n) == shape(f)))
    }
    /// Keeps a shrunk failing case and what it found.
    fn record(&mut self, case: Self::Case, findings: Vec<Self::Finding>);
    /// Why the campaign decided nothing, if it did not.
    fn vacuous(&self) -> Option<&'static str>;
    /// The report: summary lines, then one line per finding.
    fn report(&self, secs: f64) -> String;
}

/// Greedily shrinks `case` while `still_fails` holds, accepting the first
/// smaller candidate that still fails and starting over from it. Returns
/// the smallest failing case found (`case` itself if nothing smaller
/// fails). A fuel bound caps the predicate calls on huge cases.
pub fn shrink<C: Shrink>(case: &C, still_fails: &mut dyn FnMut(&C) -> bool) -> C {
    let mut best = case.clone();
    let mut best_size = best.size();
    let mut fuel: u32 = 4_000;
    'outer: loop {
        for cand in best.candidates() {
            if fuel == 0 {
                break 'outer;
            }
            let size = cand.size();
            if size >= best_size {
                continue;
            }
            fuel -= 1;
            if still_fails(&cand) {
                best = cand;
                best_size = size;
                continue 'outer;
            }
        }
        break;
    }
    best
}

/// One turn of the loop: generate a case and run it; a failure is shrunk
/// and recorded. Returns the outcome without its findings.
pub fn step<C: Campaign>(c: &mut C, attempt: u32) -> Outcome<()> {
    let case = c.generate(attempt);
    let mut findings = match c.run(&case, true) {
        Outcome::Pass => return Outcome::Pass,
        Outcome::Skip => return Outcome::Skip,
        Outcome::Fail(f) => f,
    };
    let small = if C::SHRINK {
        shrink(&case, &mut |cand| match c.run(cand, false) {
            Outcome::Fail(now) if c.same_failure(&findings, &now) => {
                findings = now;
                true
            }
            _ => false,
        })
    } else {
        case
    };
    c.record(small, findings);
    Outcome::Fail(())
}

/// Runs `c` to its stopping rule; returns how many cases failed.
pub fn run<C: Campaign>(c: &mut C) -> u32 {
    let (want, attempts) = c.budget();
    let (mut decided, mut failed) = (0, 0);
    for attempt in 0..attempts {
        if decided == want {
            break;
        }
        match step(c, attempt) {
            Outcome::Pass => decided += 1,
            Outcome::Fail(()) => (decided, failed) = (decided + 1, failed + 1),
            Outcome::Skip => {}
        }
    }
    failed
}

/// Runs `c`, prints its report and returns the verdict.
pub fn main<C: Campaign>(c: &mut C) -> ExitCode {
    let start = Instant::now();
    let failed = run(c);
    print!("{}", c.report(start.elapsed().as_secs_f64()));
    let vacuous = c.vacuous();
    if let Some(why) = vacuous {
        println!("  {why}");
    }
    if failed == 0 && vacuous.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bmc, FuzzConfig, Fuzzer, Soak, SoakConfig};

    impl Shrink for u64 {
        fn size(&self) -> u64 {
            *self
        }

        fn candidates(&self) -> Vec<u64> {
            vec![self - 1, self / 2]
        }
    }

    /// Cases 5, 10, 15, …: 15 is skipped, anything else from 10 up fails.
    #[derive(Default)]
    struct Toy {
        next: u64,
        recorded: Vec<(u64, Vec<u64>)>,
    }

    impl Campaign for Toy {
        type Case = u64;
        type Finding = u64;

        fn budget(&self) -> (u32, u32) {
            (3, 10)
        }

        fn generate(&mut self, attempt: u32) -> u64 {
            self.next = 5 * (u64::from(attempt) + 1);
            self.next
        }

        fn run(&mut self, n: &u64, _: bool) -> Outcome<Vec<u64>> {
            match *n {
                15 => Outcome::Skip,
                10.. => Outcome::Fail(vec![*n]),
                _ => Outcome::Pass,
            }
        }

        fn record(&mut self, n: u64, found: Vec<u64>) {
            self.recorded.push((n, found));
        }

        fn vacuous(&self) -> Option<&'static str> {
            None
        }

        fn report(&self, _: f64) -> String {
            String::new()
        }
    }

    /// The loop stops once its quota is decided (a skip decides nothing),
    /// and each failure is recorded shrunk as far as it still fails.
    #[test]
    fn the_loop_stops_at_its_quota_and_shrinks_each_failure() {
        let mut toy = Toy::default();
        assert_eq!(run(&mut toy), 2);
        assert_eq!(toy.next, 20, "5 passes, 10 fails, 15 skips, 20 fails");
        // 10 → 9 and 5 pass; 20 → 19 → 18 → 17 → 16, where 15 skips.
        assert_eq!(toy.recorded, vec![(10, vec![10]), (16, vec![16])]);
    }

    /// A campaign that decided nothing fails, whatever else it did.
    #[test]
    fn a_campaign_that_decides_nothing_fails() {
        let fuzz = FuzzConfig {
            iterations: 0,
            ..FuzzConfig::default()
        };
        let soak = SoakConfig {
            sessions: 0,
            ..SoakConfig::default()
        };
        assert_eq!(main(&mut Fuzzer::new(fuzz)), ExitCode::FAILURE);
        assert_eq!(main(&mut Bmc::new(1, 0, 8)), ExitCode::FAILURE);
        assert_eq!(main(&mut Soak::new(soak)), ExitCode::FAILURE);
        assert_eq!(main(&mut Bmc::new(3, 2, 4)), ExitCode::SUCCESS);
    }
}
