//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the product crates: a root span times
//! one real request or phase, and the benchmark then replays that request's
//! input through each layer's public calls, recording every replay as a
//! child. A replayed child has a measured duration but no position of its
//! own, so children are laid end to end from their parent's start. A span's
//! self time is its duration minus its children's; the root's self time is
//! what no layer call accounts for and is reported as unattributed.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based; `parent == 0` marks a root.
    pub id: u32,
    pub parent: u32,
    /// The request (or rep) this span belongs to.
    pub req: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-(layer, name) totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub n: u64,
    pub total_ns: u64,
    /// Duration minus children, summed; negative when replays cost more
    /// than the call they explain.
    pub self_ns: i64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Where the next child of span `i + 1` starts.
    cursor: Vec<u64>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            cursor: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn push(
        &mut self,
        parent: u32,
        req: u64,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            req,
            layer,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
        self.cursor.push(start_ns);
        id
    }

    /// Records a real request or phase that ran from `start` for `dur`.
    pub fn root(
        &mut self,
        req: u64,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) -> u32 {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.push(0, req, layer, name, start_ns, dur.as_nanos() as u64)
    }

    /// Records a child of `parent` that took `dur`, placed after its
    /// earlier siblings.
    pub fn child(
        &mut self,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        dur: Duration,
    ) -> u32 {
        let p = parent as usize - 1;
        let (req, start_ns) = (self.spans[p].req, self.cursor[p]);
        let dur_ns = dur.as_nanos() as u64;
        self.cursor[p] += dur_ns;
        self.push(parent, req, layer, name, start_ns, dur_ns)
    }

    /// Times `f` and records it as a child of `parent`.
    pub fn time<R>(
        &mut self,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let t = Instant::now();
        let r = f();
        let id = self.child(parent, layer, name, t.elapsed());
        (r, id)
    }

    /// Adds `n` to the count `name`: work done at a span boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Folds another thread's trace into this one, renumbering its spans.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        for mut s in other.spans {
            s.id += offset;
            if s.parent != 0 {
                s.parent += offset;
            }
            self.spans.push(s);
        }
        self.cursor.extend(other.cursor);
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<i64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if s.parent != 0 {
                own[s.parent as usize - 1] -= s.dur_ns() as i64;
            }
        }
        own
    }

    pub fn aggregate(&self) -> BTreeMap<(&'static str, &'static str), Agg> {
        let own = self.self_ns();
        let mut out: BTreeMap<_, Agg> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let a = out.entry((s.layer, s.name)).or_default();
            a.n += 1;
            a.total_ns += s.dur_ns();
            a.self_ns += own;
        }
        out
    }

    /// Over the roots called `name`: their total time, and the share of it
    /// that their direct children's total covers. Totals, not a sum of
    /// per-root shares: a replay is a second measurement of the same work
    /// and overshoots its root as often as it undershoots, so capping each
    /// root at 1 would read the replay noise as a gap.
    pub fn coverage(&self, name: &str) -> (u64, f64) {
        let own = self.self_ns();
        let (mut total, mut remainder) = (0u64, 0i64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.parent == 0 && s.name == name {
                total += s.dur_ns();
                remainder += own;
            }
        }
        let covered = total as f64 - remainder.max(0) as f64;
        (
            total,
            if total == 0 {
                0.0
            } else {
                covered / total as f64
            },
        )
    }

    /// One JSON object per span, then one per count.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, n) in &self.counts {
            writeln!(w, "{{\"count\":\"{name}\",\"value\":{n}}}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn self_times_and_unattributed_sum_to_the_root() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        let root = tr.root(7, "serve", "eval", t0, us(1000));
        tr.child(root, "serve", "json_parse", us(40));
        let core = tr.child(root, "core", "eval", us(800));
        tr.child(core, "verilog", "parse", us(100));
        tr.child(core, "sim", "elaborate", us(250));
        tr.child(core, "sim", "sw_compile", us(300));

        let own = tr.self_ns();
        let sum: i64 = own.iter().sum();
        let root_ns = tr.spans()[0].dur_ns() as i64;
        assert!((sum - root_ns).abs() as f64 <= 0.01 * root_ns as f64);
        // The root's own remainder is the unattributed part.
        assert_eq!(own[0], 160_000);
        assert_eq!(own[2], 150_000);
        let (total, covered) = tr.coverage("eval");
        assert_eq!(total, 1_000_000);
        assert!((covered - 0.84).abs() < 1e-9);

        // Children are laid end to end inside their parent.
        let s = tr.spans();
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!(s[3].start_ns, s[2].start_ns);
        assert!(s.iter().all(|x| x.req == 7));
        let agg = tr.aggregate();
        assert_eq!(
            agg[&("core", "eval")],
            Agg {
                n: 1,
                total_ns: 800_000,
                self_ns: 150_000
            }
        );
    }

    #[test]
    fn merge_keeps_parent_links() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        let ra = a.root(1, "serve", "run", t0, us(10));
        a.child(ra, "core", "run_ticks", us(4));
        let mut b = Tracer::new(t0);
        let rb = b.root(2, "serve", "run", t0, us(20));
        b.child(rb, "core", "run_ticks", us(5));
        a.count("serve.run", 1);
        b.count("serve.run", 1);
        a.merge(b);
        assert_eq!(a.spans()[3].parent, 3);
        assert_eq!(a.spans()[3].id, 4);
        assert_eq!(a.self_ns(), vec![6_000, 4_000, 15_000, 5_000]);
        assert_eq!(a.counts()["serve.run"], 2);
    }
}
