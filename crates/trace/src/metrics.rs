//! A typed metrics registry: counters, gauges, and fixed-bucket
//! histograms, with a Prometheus-style text exposition.
//!
//! Registration is idempotent — declaring `compile_retries_total` twice
//! returns the *same* underlying cell, which is what makes counters
//! survive component swaps: the `Runtime` hands its `BackgroundCompiler` a
//! [`Counter`] handle, and replacing the compiler (e.g. when a session
//! attaches to the shared compile pool) re-fetches the same cell instead
//! of starting a fresh one at zero.
//!
//! Naming rules (checked at registration): `snake_case`
//! (`[a-z_][a-z0-9_]*`), counters end in `_total`, histograms carry a unit
//! suffix (`_seconds`, `_ticks`, ...). See DESIGN.md "Observability".

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (for tests / defaults).
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an `f64` (stored as bits in an atomic).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistState {
    /// Upper bounds of each bucket (strictly increasing); an implicit
    /// `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One count per bound, plus the `+Inf` bucket at the end.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram (cumulative exposition, Prometheus-style).
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistState>);

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached(bounds: &[f64]) -> Self {
        Histogram(Arc::new(HistState {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // CAS-add for the f64 sum.
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket (non-cumulative) counts; last entry is `+Inf`.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Bucket upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }
}

/// Default latency buckets in modeled seconds: microseconds → minutes.
pub const LATENCY_BUCKETS_S: &[f64] = &[
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
];

#[derive(Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Entry {
    help: String,
    metric: Metric,
}

/// A shared, cloneable registry of named metrics.
#[derive(Clone, Default, Debug)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Entry>>>,
}

/// True when `name` is legal: `[a-z_][a-z0-9_]*`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn check_name(name: &str) {
        assert!(
            valid_metric_name(name),
            "invalid metric name `{name}` (want snake_case [a-z_][a-z0-9_]*)"
        );
    }

    /// Declares (or re-fetches) a counter. Counter names end in `_total`.
    ///
    /// # Panics
    ///
    /// If the name is malformed or already registered as another kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        Self::check_name(name);
        let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match map.get(name) {
            Some(Entry {
                metric: Metric::Counter(c),
                ..
            }) => c.clone(),
            Some(_) => panic!("metric `{name}` already registered with a different kind"),
            None => {
                let c = Counter::detached();
                map.insert(
                    name.to_string(),
                    Entry {
                        help: help.to_string(),
                        metric: Metric::Counter(c.clone()),
                    },
                );
                c
            }
        }
    }

    /// Declares (or re-fetches) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        Self::check_name(name);
        let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match map.get(name) {
            Some(Entry {
                metric: Metric::Gauge(g),
                ..
            }) => g.clone(),
            Some(_) => panic!("metric `{name}` already registered with a different kind"),
            None => {
                let g = Gauge::detached();
                map.insert(
                    name.to_string(),
                    Entry {
                        help: help.to_string(),
                        metric: Metric::Gauge(g.clone()),
                    },
                );
                g
            }
        }
    }

    /// Declares (or re-fetches) a histogram with the given bucket bounds.
    /// Re-fetching ignores `bounds` and returns the original cell.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        Self::check_name(name);
        let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match map.get(name) {
            Some(Entry {
                metric: Metric::Histogram(h),
                ..
            }) => h.clone(),
            Some(_) => panic!("metric `{name}` already registered with a different kind"),
            None => {
                let h = Histogram::detached(bounds);
                map.insert(
                    name.to_string(),
                    Entry {
                        help: help.to_string(),
                        metric: Metric::Histogram(h.clone()),
                    },
                );
                h
            }
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        map.iter()
            .map(|(name, e)| MetricSnapshot {
                name: name.clone(),
                help: e.help.clone(),
                value: match &e.metric {
                    Metric::Counter(c) => SnapValue::Counter(c.get()),
                    Metric::Gauge(g) => SnapValue::Gauge(g.get()),
                    Metric::Histogram(h) => SnapValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                },
            })
            .collect()
    }

    /// Renders this registry alone (see [`expose`] for merged sets).
    pub fn expose(&self) -> String {
        expose(&self.snapshot())
    }
}

/// A snapshot of one metric's value.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// The value.
    pub value: SnapValue,
}

/// Snapshot payload per metric kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram buckets (non-cumulative, `+Inf` last), sum, and count.
    Histogram {
        /// Bucket upper bounds.
        bounds: Vec<f64>,
        /// Per-bucket counts (one more than `bounds`).
        counts: Vec<u64>,
        /// Sum of observations.
        sum: f64,
        /// Number of observations.
        count: u64,
    },
}

/// Merges `from` into `into` by name: counters and histogram buckets add,
/// gauges add too (a summed gauge across sessions reads as a fleet-wide
/// level, e.g. total leases held). Histograms with mismatched bounds keep
/// the first set and add only `sum`/`count`; a kind mismatch keeps the
/// first snapshot. `into` comes back sorted by name.
///
/// Both sides are put in name order and walked once, so merging `m`
/// series into `n` costs O(n + m log m): a server merging one labelled
/// series per session does not search the whole set per series.
pub fn merge(into: &mut Vec<MetricSnapshot>, mut from: Vec<MetricSnapshot>) {
    // Stable sorts, and `into` wins ties: the first snapshot of a name
    // stays first, whichever side it came from.
    into.sort_by(|a, b| a.name.cmp(&b.name));
    from.sort_by(|a, b| a.name.cmp(&b.name));
    let mut old = std::mem::take(into).into_iter().peekable();
    let mut new = from.into_iter().peekable();
    into.reserve(old.len() + new.len());
    loop {
        let next = match (old.peek(), new.peek()) {
            (Some(a), Some(b)) if b.name < a.name => new.next(),
            (Some(_), _) => old.next(),
            (None, _) => new.next(),
        };
        let Some(snap) = next else {
            return;
        };
        match into.last_mut() {
            Some(last) if last.name == snap.name => add_into(&mut last.value, snap.value),
            _ => into.push(snap),
        }
    }
}

fn add_into(into: &mut SnapValue, from: SnapValue) {
    match (into, from) {
        (SnapValue::Counter(a), SnapValue::Counter(b)) => *a += b,
        (SnapValue::Gauge(a), SnapValue::Gauge(b)) => *a += b,
        (
            SnapValue::Histogram {
                bounds: ab,
                counts: ac,
                sum: asum,
                count: acount,
            },
            SnapValue::Histogram {
                bounds: bb,
                counts: bc,
                sum: bsum,
                count: bcount,
            },
        ) => {
            if *ab == bb && ac.len() == bc.len() {
                for (a, b) in ac.iter_mut().zip(bc) {
                    *a += b;
                }
            }
            *asum += bsum;
            *acount += bcount;
        }
        _ => {} // kind mismatch across registries: keep the first
    }
}

fn fmt_bound(b: f64) -> String {
    crate::export::fmt_f64(b)
}

/// The metric family name: everything before a `{label="..."}` suffix.
/// Snapshot names may carry Prometheus labels (per-session series such as
/// `serve_session_output_dropped_total{session="3"}`); `HELP`/`TYPE` lines
/// must name the family, not the labeled series.
pub fn family_name(name: &str) -> &str {
    match name.find('{') {
        Some(i) => &name[..i],
        None => name,
    }
}

/// Prometheus text exposition for a snapshot set.
pub fn expose(snaps: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for m in snaps {
        let family = family_name(&m.name);
        // Labeled series of the same family sort adjacently (the registry
        // snapshot is name-sorted); emit HELP/TYPE once per family.
        let header = family != last_family;
        last_family = family.to_string();
        match &m.value {
            SnapValue::Counter(v) => {
                if header {
                    out.push_str(&format!("# HELP {} {}\n", family, m.help));
                    out.push_str(&format!("# TYPE {family} counter\n"));
                }
                out.push_str(&format!("{} {}\n", m.name, v));
            }
            SnapValue::Gauge(v) => {
                if header {
                    out.push_str(&format!("# HELP {} {}\n", family, m.help));
                    out.push_str(&format!("# TYPE {family} gauge\n"));
                }
                out.push_str(&format!("{} {}\n", m.name, crate::export::fmt_f64(*v)));
            }
            SnapValue::Histogram {
                bounds,
                counts,
                sum,
                count,
            } => {
                if header {
                    out.push_str(&format!("# HELP {} {}\n", family, m.help));
                    out.push_str(&format!("# TYPE {family} histogram\n"));
                }
                let mut cum = 0u64;
                for (i, b) in bounds.iter().enumerate() {
                    cum += counts.get(i).copied().unwrap_or(0);
                    out.push_str(&format!(
                        "{}_bucket{{le=\"{}\"}} {}\n",
                        m.name,
                        fmt_bound(*b),
                        cum
                    ));
                }
                cum += counts.last().copied().unwrap_or(0);
                out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", m.name, cum));
                out.push_str(&format!(
                    "{}_sum {}\n",
                    m.name,
                    crate::export::fmt_f64(*sum)
                ));
                out.push_str(&format!("{}_count {}\n", m.name, count));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_idempotent_across_redeclaration() {
        let r = Registry::new();
        let a = r.counter("compile_retries_total", "retries");
        a.add(3);
        // A second component declaring the same counter gets the same cell
        // — the monotonicity guarantee behind the PR-5 satellite fix.
        let b = r.counter("compile_retries_total", "retries");
        b.inc();
        assert_eq!(a.get(), 4);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x_total", "x");
        r.gauge("x_total", "x");
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("jit_ticks_total"));
        assert!(valid_metric_name("_x"));
        assert!(!valid_metric_name("BadName"));
        assert!(!valid_metric_name("9lead"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name(""));
    }

    #[test]
    fn histogram_buckets_and_exposition() {
        let r = Registry::new();
        let h = r.histogram("lat_seconds", "latency", &[0.1, 1.0, 10.0]);
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 56.05).abs() < 1e-9);
        assert_eq!(h.bucket_counts(), vec![1, 2, 1, 1]);
        let text = r.expose();
        assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("lat_seconds_bucket{le=\"1\"} 3"));
        assert!(text.contains("lat_seconds_bucket{le=\"10\"} 4"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("lat_seconds_count 5"));
        assert!(text.contains("# TYPE lat_seconds histogram"));
    }

    #[test]
    fn merge_sums_by_name() {
        let r1 = Registry::new();
        let r2 = Registry::new();
        r1.counter("ticks_total", "t").add(10);
        r2.counter("ticks_total", "t").add(5);
        r2.counter("only_in_two_total", "o").inc();
        r1.gauge("lease_held", "l").set(1.0);
        r2.gauge("lease_held", "l").set(1.0);
        let mut all = r1.snapshot();
        merge(&mut all, r2.snapshot());
        let find = |n: &str| all.iter().find(|m| m.name == n).unwrap().value.clone();
        assert_eq!(find("ticks_total"), SnapValue::Counter(15));
        assert_eq!(find("only_in_two_total"), SnapValue::Counter(1));
        assert_eq!(find("lease_held"), SnapValue::Gauge(2.0));
    }

    /// The sorted walk agrees with a search of `into` per series followed
    /// by a sort, on inputs with shared names, repeats within one side,
    /// labelled series and a kind mismatch.
    #[test]
    fn merge_matches_a_search_per_series() {
        fn reference(into: &mut Vec<MetricSnapshot>, from: Vec<MetricSnapshot>) {
            for snap in from {
                match into.iter_mut().find(|m| m.name == snap.name) {
                    None => into.push(snap),
                    Some(existing) => add_into(&mut existing.value, snap.value),
                }
            }
            into.sort_by(|a, b| a.name.cmp(&b.name));
        }
        let snap = |name: &str, value: SnapValue| MetricSnapshot {
            name: name.to_string(),
            help: format!("help {name}"),
            value,
        };
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..200 {
            let mut batches: Vec<Vec<MetricSnapshot>> = Vec::new();
            for _ in 0..4 {
                let n = next() % 12;
                batches.push(
                    (0..n)
                        .map(|_| {
                            let k = next() % 9;
                            match k {
                                0..=3 => {
                                    snap(&format!("c{k}_total"), SnapValue::Counter(next() % 5))
                                }
                                4 | 5 => snap(
                                    &format!("s_total{{session=\"{}\"}}", next() % 4),
                                    SnapValue::Counter(1),
                                ),
                                6 => snap("g", SnapValue::Gauge((next() % 3) as f64)),
                                7 => snap("c0_total", SnapValue::Gauge(1.0)),
                                _ => snap(
                                    "h_seconds",
                                    SnapValue::Histogram {
                                        bounds: vec![1.0],
                                        counts: vec![1, next() % 2],
                                        sum: 1.0,
                                        count: 2,
                                    },
                                ),
                            }
                        })
                        .collect(),
                );
            }
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            for batch in batches {
                merge(&mut fast, batch.clone());
                reference(&mut slow, batch);
            }
            assert_eq!(fast, slow);
            assert_eq!(expose(&fast), expose(&slow));
        }
    }

    #[test]
    fn exposition_counter_and_gauge_lines() {
        let r = Registry::new();
        r.counter("a_total", "the a").add(2);
        r.gauge("depth", "queue depth").set(3.5);
        let text = r.expose();
        assert!(text.contains("# TYPE a_total counter\na_total 2\n"));
        assert!(text.contains("# TYPE depth gauge\ndepth 3.5\n"));
    }
}
