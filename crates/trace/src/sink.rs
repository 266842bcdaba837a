//! The trace sink: a cloneable handle over a bounded event ring buffer.
//!
//! A disabled sink is a `None` — every emit path is a single branch on
//! `Option::is_some` and performs **no allocation and no locking**. An
//! enabled sink shares one `Mutex<Ring>` between all clones (runtime,
//! compiler, serve sessions); emission sites are cold (JIT phase
//! transitions, rate-limited counters), so one short lock per event is
//! cheap. Hot-loop profiling (netlist kernels, bytecode opcodes) never
//! goes through the sink per-operation — engines keep local counters and
//! publish summaries at phase boundaries.

use crate::ctx::SpanRef;
use crate::event::{Arg, Phase, TraceEvent};
use crate::ring::{Emit, Ring};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default ring capacity (events) for [`TraceSink::ring`]: with the
/// packed record layout a full default ring stays under 1 MiB.
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

struct SinkInner {
    ring: Mutex<Ring>,
    epoch: Instant,
}

impl SinkInner {
    /// Poison is ignored: the ring's counters move after the bytes they
    /// count, so a ring abandoned mid-push is still readable.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A cloneable, thread-safe handle to a shared trace ring buffer.
///
/// `TraceSink::default()` is disabled: it records nothing, allocates
/// nothing, and costs one branch per emit call.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "TraceSink(disabled)"),
            Some(_) => write!(f, "TraceSink(enabled, {} events)", self.len()),
        }
    }
}

impl TraceSink {
    /// A disabled sink (same as `default()`).
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// An enabled sink with a bounded ring of `capacity` events. When the
    /// ring is full the **oldest** event is dropped (and counted), so the
    /// buffer always holds the most recent window — the part of the
    /// timeline a user asks about.
    pub fn ring(capacity: usize) -> Self {
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                ring: Mutex::new(Ring::new(capacity)),
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether events are being recorded. Emit sites that need to build
    /// names or arguments should guard on this first.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds of host time since this sink was created.
    pub fn host_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Emits a complete span on the virtual clock.
    #[inline]
    pub fn span(
        &self,
        track: u64,
        cat: &'static str,
        name: &str,
        virt_ns: u64,
        virt_dur_ns: u64,
        args: &[(&str, Arg)],
    ) {
        self.span_ctx(
            track,
            cat,
            name,
            virt_ns,
            virt_dur_ns,
            SpanRef::default(),
            0,
            args,
        );
    }

    /// Emits a complete span on the virtual clock, attributed to a request
    /// span (`at`) with an optional parent span id. A default `at` behaves
    /// exactly like [`TraceSink::span`].
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn span_ctx(
        &self,
        track: u64,
        cat: &'static str,
        name: &str,
        virt_ns: u64,
        virt_dur_ns: u64,
        at: SpanRef,
        parent: u64,
        args: &[(&str, Arg)],
    ) {
        if self.inner.is_none() {
            return;
        }
        self.record(Emit {
            track,
            cat,
            name,
            ph: Phase::Span,
            virt_ns,
            virt_dur_ns,
            vclock: true,
            req: at.req,
            span_id: at.span,
            parent,
            link: 0,
            args,
        });
    }

    /// Emits a host-clock span (`vclock = false`): `virt_ns`/`virt_dur_ns`
    /// carry *host* nanoseconds and the event is excluded from the
    /// deterministic export. Used for request root spans, whose queue/wake
    /// phases exist only in host time.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn host_span_ctx(
        &self,
        track: u64,
        cat: &'static str,
        name: &str,
        start_ns: u64,
        dur_ns: u64,
        at: SpanRef,
        parent: u64,
        args: &[(&str, Arg)],
    ) {
        if self.inner.is_none() {
            return;
        }
        self.record(Emit {
            track,
            cat,
            name,
            ph: Phase::Span,
            virt_ns: start_ns,
            virt_dur_ns: dur_ns,
            vclock: false,
            req: at.req,
            span_id: at.span,
            parent,
            link: 0,
            args,
        });
    }

    /// Emits an instant event on the virtual clock.
    #[inline]
    pub fn instant(
        &self,
        track: u64,
        cat: &'static str,
        name: &str,
        virt_ns: u64,
        args: &[(&str, Arg)],
    ) {
        self.instant_ctx(track, cat, name, virt_ns, SpanRef::default(), 0, args);
    }

    /// Emits an instant event on the virtual clock, attributed to a
    /// request span. A default `at` behaves like [`TraceSink::instant`].
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn instant_ctx(
        &self,
        track: u64,
        cat: &'static str,
        name: &str,
        virt_ns: u64,
        at: SpanRef,
        parent: u64,
        args: &[(&str, Arg)],
    ) {
        if self.inner.is_none() {
            return;
        }
        self.record(Emit {
            track,
            cat,
            name,
            ph: Phase::Instant,
            virt_ns,
            virt_dur_ns: 0,
            vclock: true,
            req: at.req,
            span_id: at.span,
            parent,
            link: 0,
            args,
        });
    }

    /// Emits a counter sample on the virtual clock. `args` should carry
    /// the sampled value(s), e.g. `("value", Arg::F64(rate))`.
    #[inline]
    pub fn counter(
        &self,
        track: u64,
        cat: &'static str,
        name: &str,
        virt_ns: u64,
        args: &[(&str, Arg)],
    ) {
        if self.inner.is_none() {
            return;
        }
        self.record(Emit {
            track,
            cat,
            name,
            ph: Phase::Counter,
            virt_ns,
            virt_dur_ns: 0,
            vclock: true,
            req: 0,
            span_id: 0,
            parent: 0,
            link: 0,
            args,
        });
    }

    /// Emits a host-clock-only instant (session lifecycle, sweeper
    /// activity). Excluded from the deterministic export.
    #[inline]
    pub fn host_instant(&self, track: u64, cat: &'static str, name: &str, args: &[(&str, Arg)]) {
        self.host_instant_ctx(track, cat, name, SpanRef::default(), 0, 0, args);
    }

    /// Emits a host-clock-only instant attributed to a request span, with
    /// an optional cross-request `link` (e.g. a compile-dedup join pointing
    /// at the leader's compile span). A default `at` with `parent = 0` and
    /// `link = 0` behaves like [`TraceSink::host_instant`].
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn host_instant_ctx(
        &self,
        track: u64,
        cat: &'static str,
        name: &str,
        at: SpanRef,
        parent: u64,
        link: u64,
        args: &[(&str, Arg)],
    ) {
        if self.inner.is_none() {
            return;
        }
        self.record(Emit {
            track,
            cat,
            name,
            ph: Phase::Instant,
            virt_ns: 0,
            virt_dur_ns: 0,
            vclock: false,
            req: at.req,
            span_id: at.span,
            parent,
            link,
            args,
        });
    }

    /// Stamps the host clock and packs the event into the ring; nothing
    /// is allocated for an event on a warm ring. The emit methods test
    /// for a disabled sink themselves, before they build `ev`, which keeps
    /// that path to one branch.
    fn record(&self, ev: Emit) {
        let Some(inner) = &self.inner else { return };
        let host_ns = inner.epoch.elapsed().as_nanos() as u64;
        inner.ring().push(&ev, host_ns);
    }

    /// A copy of the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.ring().snapshot())
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.ring().len())
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the ring holds: its record buffer as allocated plus the
    /// symbol table. This is what the always-on tracer costs in memory.
    pub fn bytes(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.ring().bytes())
    }

    /// Events dropped to ring overflow since creation (or last `clear`).
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring().dropped)
    }

    /// Total events ever emitted into this sink.
    pub fn emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring().seq)
    }

    /// Discards all buffered events, releases their memory, and resets
    /// the drop counter (the sequence counter keeps running so `seq`
    /// stays unique).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.ring().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ArgValue;

    #[test]
    fn disabled_sink_records_nothing() {
        let s = TraceSink::disabled();
        assert!(!s.enabled());
        s.span(0, "jit", "eval", 0, 10, &[("v", Arg::U64(1))]);
        s.instant(0, "jit", "x", 5, &[]);
        s.counter(0, "jit", "r", 5, &[("value", Arg::F64(1.0))]);
        assert_eq!(s.len(), 0);
        assert_eq!(s.snapshot().len(), 0);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.emitted(), 0);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let s = TraceSink::ring(4);
        for i in 0..10u64 {
            s.instant(0, "t", "e", i, &[]);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.dropped(), 6);
        assert_eq!(s.emitted(), 10);
        let snap = s.snapshot();
        // The survivors are the most recent four, in order.
        let ts: Vec<u64> = snap.iter().map(|e| e.virt_ns).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
        // seq remains globally unique and ordered.
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn clones_share_one_ring() {
        let a = TraceSink::ring(16);
        let b = a.clone();
        a.instant(1, "t", "from_a", 1, &[]);
        b.instant(2, "t", "from_b", 2, &[]);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        b.clear();
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn host_clock_monotone() {
        let s = TraceSink::ring(8);
        s.instant(0, "t", "a", 0, &[]);
        s.instant(0, "t", "b", 0, &[]);
        let snap = s.snapshot();
        assert!(snap[0].host_ns <= snap[1].host_ns);
    }

    /// xorshift64*: the crate has no dependencies to borrow a PRNG from.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Values on both sides of every varint length boundary.
        fn int(&mut self) -> u64 {
            match self.below(5) {
                0 => 0,
                1 => u64::MAX,
                2 => self.next(),
                3 => (1u64 << self.below(64)).wrapping_sub(self.below(2)),
                _ => self.below(300),
            }
        }

        /// Interned, inline (too many, too long), empty and non-ASCII.
        fn text(&mut self) -> String {
            match self.below(6) {
                0 => String::new(),
                1 => "x".repeat(4096),
                2 => "h\u{e9}llo \u{2713} \u{65e5}\u{672c}\u{8a9e}".to_string(),
                3 => format!("dyn{}", self.below(3000)),
                4 => "k".repeat(65),
                _ => ["mode", "version", "queue_us"][self.below(3) as usize].to_string(),
            }
        }
    }

    /// `==` on the exchange type, except that floats compare by bits
    /// (NaN payloads and the sign of zero must survive the ring).
    fn assert_same(got: &TraceEvent, want: &TraceEvent) {
        let float_bits = |e: &TraceEvent| {
            let mut e = e.clone();
            for (_, v) in &mut e.args {
                if let ArgValue::F64(f) = v {
                    *v = ArgValue::Str(format!("f64 bits {:#018x}", f.to_bits()));
                }
            }
            e
        };
        assert_eq!(float_bits(got), float_bits(want));
    }

    /// The ring's codec is lossless: whatever goes in through `record`
    /// comes out of `snapshot` field for field, across overflow, with
    /// more distinct names than the symbol table holds.
    #[test]
    fn ring_round_trips_random_events_field_for_field() {
        const CAP: usize = 257;
        for seed in [1u64, 2, 3] {
            let mut r = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let sink = TraceSink::ring(CAP);
            let mut want: Vec<TraceEvent> = Vec::new();
            for i in 0..4000u64 {
                let nargs = [0, 1, 3, 8, 32][r.below(5) as usize];
                let args: Vec<(String, ArgValue)> = (0..nargs)
                    .map(|_| {
                        let value = match r.below(7) {
                            0 => ArgValue::U64(r.int()),
                            1 => ArgValue::F64(f64::from_bits(r.next())),
                            2 => ArgValue::F64(f64::NAN),
                            3 => ArgValue::F64(-0.0),
                            4 => ArgValue::Str(r.text()),
                            _ => ArgValue::Bool(r.below(2) == 0),
                        };
                        (r.text(), value)
                    })
                    .collect();
                // Ids: absent, request-relative (the common case, which
                // the codec shortens), and unrelated (which must wrap).
                let req = [0, i + 1, r.int()][r.below(3) as usize];
                let id = |r: &mut Rng| match r.below(3) {
                    0 => 0,
                    1 => (req << 16) | r.below(1 << 16),
                    _ => r.int(),
                };
                let ev = TraceEvent {
                    seq: i,
                    track: r.int(),
                    cat: ["jit", "compile", "serve", "req"][r.below(4) as usize],
                    name: r.text(),
                    ph: [Phase::Span, Phase::Instant, Phase::Counter][r.below(3) as usize],
                    virt_ns: r.int(),
                    virt_dur_ns: r.int(),
                    host_ns: 0,
                    vclock: r.below(2) == 0,
                    req,
                    span_id: id(&mut r),
                    parent: id(&mut r),
                    link: id(&mut r),
                    args,
                };
                let borrowed: Vec<(&str, Arg)> = ev
                    .args
                    .iter()
                    .map(|(k, v)| {
                        let v = match v {
                            ArgValue::U64(v) => Arg::U64(*v),
                            ArgValue::F64(v) => Arg::F64(*v),
                            ArgValue::Str(v) => Arg::Str(v),
                            ArgValue::Bool(v) => Arg::Bool(*v),
                        };
                        (k.as_str(), v)
                    })
                    .collect();
                sink.record(Emit {
                    track: ev.track,
                    cat: ev.cat,
                    name: &ev.name,
                    ph: ev.ph,
                    virt_ns: ev.virt_ns,
                    virt_dur_ns: ev.virt_dur_ns,
                    vclock: ev.vclock,
                    req: ev.req,
                    span_id: ev.span_id,
                    parent: ev.parent,
                    link: ev.link,
                    args: &borrowed,
                });
                want.push(ev);

                assert_eq!(sink.emitted(), i + 1);
                assert_eq!(sink.len() as u64 + sink.dropped(), sink.emitted());
                assert_eq!(sink.len(), want.len().min(CAP));
            }
            let got = sink.snapshot();
            assert_eq!(got.len(), CAP);
            for (g, w) in got.iter().zip(&mut want[4000 - CAP..]) {
                // The one field the sink, not the caller, supplies.
                w.host_ns = g.host_ns;
                assert_same(g, w);
            }
            assert!(got.windows(2).all(|w| w[0].host_ns <= w[1].host_ns));
            assert!(got[CAP - 1].host_ns <= sink.host_ns());
        }
    }

    #[test]
    fn clear_releases_bytes_as_well_as_events() {
        let s = TraceSink::ring(64);
        let empty = s.bytes();
        for i in 0..100u64 {
            s.instant(0, "t", "e", i, &[("note", Arg::Str(&"n".repeat(500)))]);
        }
        let full = s.bytes();
        assert!(full > empty + 64 * 500, "{full} bytes for 64 events");
        s.clear();
        assert_eq!((s.len(), s.dropped(), s.emitted()), (0, 0, 100));
        // What is left is the symbol table, not the records.
        assert!(s.bytes() < empty + 4096, "{} bytes after clear", s.bytes());
        s.instant(0, "t", "e", 100, &[]);
        assert_eq!(s.snapshot()[0].seq, 100);
    }
}
