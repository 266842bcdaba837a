//! Sample statistics and the pass/fail ledger every workload shares.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A bag of timing samples, sorted on demand.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn p(&self, p: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }
}

/// Counts what was attempted and what failed. A request that errors, is
/// refused, or returns a value the oracle disagrees with is one failure;
/// it also has no latency sample, so it misses every latency limit.
#[derive(Debug, Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub examples: Vec<String>,
}

impl Recorder {
    /// Records one attempt; `why` is only rendered on failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.examples.len() < 5 {
                self.examples.push(why());
            }
        }
        ok
    }

    /// Records a request outcome, passing the success value through.
    pub fn request<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    pub fn merge(&mut self, other: Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.examples {
            if self.examples.len() < 5 {
                self.examples.push(e);
            }
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
        let mut s = Samples::default();
        for x in [30.0, 10.0, 20.0] {
            s.push(x);
        }
        assert_eq!(s.p(50.0), 20.0);
    }

    #[test]
    fn refused_and_wrong_requests_land_in_fail_ratio() {
        let mut rec = Recorder::default();
        assert_eq!(rec.request("run", Ok::<u64, String>(64)), Some(64));
        assert_eq!(rec.request::<u64>("run", Err("refused".into())), None);
        assert!(rec.check(true, String::new));
        assert!(!rec.check(false, || "probe cnt: want 3 got 4".into()));
        assert_eq!((rec.attempted, rec.failed), (4, 2));
        assert_eq!(rec.fail_ratio(), 0.5);
        assert_eq!(rec.examples, ["run: refused", "probe cnt: want 3 got 4"]);
        let mut total = Recorder::default();
        total.merge(rec);
        assert_eq!((total.attempted, total.failed), (4, 2));
    }
}
