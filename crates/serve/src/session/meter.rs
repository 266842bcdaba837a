//! Metering and observability: tenant bills, request phases and the ring
//! behind `explain`, the flight recorder, and the server counter table
//! that both `server-stats` and the exposition render. Owns [`Obs`].

use super::*;
use cascade_core::ExecMode;
use cascade_durable::BitstreamStore;
use cascade_trace::{merge, Histogram, RequestCtx, SnapValue, SpanRef, LATENCY_BUCKETS_S};

/// Completed requests kept in the server's recent ring for `explain`.
const RECENT_CAP: usize = 512;

/// Capacity of the always-on crash flight recorder ring.
const FLIGHT_RING: usize = 2048;

// Named wall-time phases a request's latency decomposes into. `other` is
// the residual (total minus every named phase): lock handoffs, channel
// sends, scheduling gaps. Fleet lease waits surface inside `compile` —
// `wait_compile` is where a session blocks for promotion resources.
pub(super) const PH_QUEUE: usize = 0;
pub(super) const PH_WAKE: usize = 1;
pub(super) const PH_COMPILE: usize = 2;
const PH_EVAL_SW: usize = 3;
const PH_EVAL_HW: usize = 4;
pub(super) const PH_FLUSH: usize = 5;
pub(super) const PH_JOURNAL: usize = 6;
const PH_OTHER: usize = 7;
const PHASE_NAMES: [&str; 8] = [
    "queue", "wake", "compile", "eval_sw", "eval_hw", "flush", "journal", "other",
];

/// Wall-time accumulator for one request, indexed by the `PH_*` phases.
#[derive(Default)]
pub(super) struct PhaseAcc {
    ns: [u64; 8],
}

impl PhaseAcc {
    pub(super) fn add(&mut self, phase: usize, d: Duration) {
        self.ns[phase] += d.as_nanos() as u64;
    }
}

/// Which eval phase a slice of engine time belongs to, by exec mode.
pub(super) fn eval_phase(mode: ExecMode) -> usize {
    match mode {
        ExecMode::Hardware | ExecMode::HardwareForwarded | ExecMode::Native => PH_EVAL_HW,
        ExecMode::Idle | ExecMode::Software => PH_EVAL_SW,
    }
}

/// Causal metadata minted when a user command is submitted: the request
/// context every downstream span attributes to, the enqueue stamp the
/// queue phase is measured from, and the protocol name for the root span.
pub(super) struct ReqMeta {
    pub(super) ctx: RequestCtx,
    pub(super) enq: Instant,
    pub(super) name: &'static str,
}

impl ReqMeta {
    /// Mints the causal context for the next request of `tenant`.
    pub(super) fn mint(shared: &Shared, tenant: u64, name: &'static str) -> ReqMeta {
        let req = shared.obs.next_req.fetch_add(1, Ordering::Relaxed) + 1;
        ReqMeta {
            ctx: RequestCtx::new(tenant, req),
            enq: Instant::now(),
            name,
        }
    }
}

/// `(child span, root span)` of a request, for attributing lifecycle
/// events (wake, hibernate) to it. Zeroed when there is no request.
pub(super) fn request_span(meta: &Option<ReqMeta>) -> (SpanRef, u64) {
    match meta {
        Some(m) => (m.ctx.span_ref(m.ctx.child_span()), m.ctx.root_span()),
        None => (SpanRef::default(), 0),
    }
}

/// One completed request in the recent ring.
#[derive(Clone)]
struct ReqRecord {
    req: u64,
    tenant: u64,
    name: &'static str,
    total_ns: u64,
    phase_ns: [u64; 8],
}

/// Monotone per-session resource meters. Counters only ever grow for the
/// life of the tenant — they survive hibernation (the `Session` object
/// persists) and restarts (checkpoints carry them as a [`Bill`]).
#[derive(Default)]
pub(super) struct Meter {
    /// Virtual clock ticks executed for this tenant.
    pub(super) ticks: AtomicU64,
    /// Wall nanoseconds spent in the compile phase on this tenant's
    /// behalf (includes lease waits inside `wait-compile`).
    compile_ns: AtomicU64,
    /// Bytes appended to the tenant's write-ahead journal.
    pub(super) journal_bytes: AtomicU64,
    /// Bytes of `$display` output and telemetry frames queued.
    pub(super) output_bytes: AtomicU64,
    /// Fabric lease-microseconds from previous lifetimes (recovery seed);
    /// the live fleet meter is added on read.
    lease_base_us: AtomicU64,
    /// EWMA of recent burn (f64 bits), settled by the sweeper.
    burn: AtomicU64,
    /// The weighted score at the last sweep (f64 bits).
    last_score: AtomicU64,
}

impl Meter {
    /// Meters resuming from a recovered bill.
    pub(super) fn restored(bill: &Bill) -> Meter {
        Meter {
            ticks: AtomicU64::new(bill.ticks),
            compile_ns: AtomicU64::new(bill.compile_ns),
            journal_bytes: AtomicU64::new(bill.journal_bytes),
            output_bytes: AtomicU64::new(bill.output_bytes),
            lease_base_us: AtomicU64::new(bill.lease_us),
            ..Meter::default()
        }
    }
}

/// A tenant's meters read at one instant: what a checkpoint persists,
/// what `server-top` ranks and what a metrics frame streams.
#[derive(Default)]
pub(super) struct Bill {
    pub(super) ticks: u64,
    pub(super) compile_ns: u64,
    pub(super) journal_bytes: u64,
    pub(super) output_bytes: u64,
    /// Total fabric lease time: the recovered floor plus what the live
    /// fleet has metered this lifetime.
    pub(super) lease_us: u64,
}

pub(super) fn bill(shared: &Shared, session: &Session) -> Bill {
    let m = &session.meter;
    Bill {
        ticks: m.ticks.load(Ordering::Relaxed),
        compile_ns: m.compile_ns.load(Ordering::Relaxed),
        journal_bytes: m.journal_bytes.load(Ordering::Relaxed),
        output_bytes: m.output_bytes.load(Ordering::Relaxed),
        lease_us: m.lease_base_us.load(Ordering::Relaxed)
            + (shared.fleet.tenant_lease_seconds(session.id) * 1e6) as u64,
    }
}

/// One tenant's row: its id, recent burn and bill. `server-top` ranks
/// these; a metrics subscription streams one per interval.
pub(super) fn tenant_row(
    shared: &Shared,
    session: &Session,
) -> (f64, Bill, Vec<(&'static str, Json)>) {
    let burn = f64::from_bits(session.meter.burn.load(Ordering::Relaxed));
    let b = bill(shared, session);
    let row = vec![
        ("session", session.id.into()),
        ("burn", burn.into()),
        ("ticks", b.ticks.into()),
        ("compile_ms", (b.compile_ns as f64 / 1e6).into()),
        ("journal_bytes", b.journal_bytes.into()),
        ("output_bytes", b.output_bytes.into()),
        ("lease_ms", (b.lease_us as f64 / 1e3).into()),
    ];
    (burn, b, row)
}

/// Settles one tenant's burn EWMA from the growth of its weighted meter
/// score since the last sweep. The score weighs each meter into one
/// comparable "work units" number: ticks + compile-µs + lease-µs +
/// journal/output bytes.
pub(super) fn settle_burn(shared: &Shared, session: &Session) {
    let b = bill(shared, session);
    let score = b.ticks as f64
        + b.compile_ns as f64 / 1e3
        + b.lease_us as f64
        + b.journal_bytes as f64
        + b.output_bytes as f64;
    let m = &session.meter;
    let last = f64::from_bits(m.last_score.load(Ordering::Relaxed));
    m.last_score.store(score.to_bits(), Ordering::Relaxed);
    let delta = (score - last).max(0.0);
    let burn = f64::from_bits(m.burn.load(Ordering::Relaxed));
    m.burn
        .store((0.7 * burn + 0.3 * delta).to_bits(), Ordering::Relaxed);
}

/// Request tracing and the flight recorder.
#[derive(Default)]
pub(super) struct Obs {
    /// Server-wide request id mint (1-based; 0 = "no request").
    pub(super) next_req: AtomicU64,
    /// Server-level registry (phase histograms live here; merged into the
    /// exposition alongside session registries).
    registry: Registry,
    /// Per-phase request latency histograms, indexed like `PHASE_NAMES`.
    phase_hists: Vec<Histogram>,
    /// Ring of recently completed requests (`explain` reads it).
    recent: Mutex<VecDeque<ReqRecord>>,
    /// Always-on crash flight recorder: a small ring separate from the
    /// configurable trace sink, stamped by an ordinal virtual clock so
    /// its export is deterministic under seeded re-runs.
    flight: TraceSink,
    flight_clock: AtomicU64,
    /// The flight ring is dumped at most once per process.
    flight_dumped: AtomicBool,
}

impl Obs {
    pub(super) fn new() -> Obs {
        let registry = Registry::new();
        let phase_hists = PHASE_NAMES
            .iter()
            .map(|p| {
                registry.histogram(
                    &format!("serve_phase_{p}_seconds"),
                    "Wall seconds requests spent in this phase",
                    LATENCY_BUCKETS_S,
                )
            })
            .collect();
        Obs {
            registry,
            phase_hists,
            flight: TraceSink::ring(FLIGHT_RING),
            ..Obs::default()
        }
    }
}

/// Marks a session lifecycle event (wake, hibernate) in the flight
/// recorder and in the trace, attributed to the request behind it.
pub(super) fn lifecycle(
    shared: &Shared,
    session: u64,
    name: &'static str,
    (at, parent): (SpanRef, u64),
    args: &[(&str, Arg)],
) {
    flight(shared, session, name, &[]);
    if shared.trace.enabled() {
        shared
            .trace
            .host_instant_ctx(session, "serve", name, at, parent, 0, args);
    }
}

/// Records one flight-recorder breadcrumb. The flight ring runs on an
/// ordinal virtual clock, so a seeded re-run that performs the same
/// operations exports byte-identical records.
pub(super) fn flight(shared: &Shared, track: u64, name: &'static str, args: &[(&str, Arg)]) {
    let at = shared.obs.flight_clock.fetch_add(1, Ordering::Relaxed);
    shared.obs.flight.instant(track, "flight", name, at, args);
}

/// Persists the flight ring as `last-crash.trace.jsonl` under the durable
/// root — once per process, through the raw sidecar path that still
/// works after the durable layer latches its crash flag.
pub(super) fn dump_flight(shared: &Shared, reason: &str) {
    let Some(d) = &shared.durable else {
        return;
    };
    let obs = &shared.obs;
    if obs.flight_dumped.swap(true, Ordering::SeqCst) {
        return;
    }
    flight(shared, 0, "dump", &[("reason", Arg::Str(reason))]);
    let text = export_jsonl(&obs.flight.snapshot(), TimeMode::VirtualOnly);
    let _ = d.fs.write_sidecar(&d.crash_path, text.as_bytes());
}

/// Closes out one traced request, which ended (its reply released) at
/// `end`: the residual becomes the `other` phase, the server-wide phase
/// histograms and the tenant's meters absorb the breakdown, the request
/// lands in the recent ring for `explain`, and the root span ties the
/// whole tree together in the trace export.
pub(super) fn finish_request(
    shared: &Shared,
    session: &Session,
    meta: &ReqMeta,
    end: Instant,
    acc: &mut PhaseAcc,
) {
    let obs = &shared.obs;
    let total_ns = ((end - meta.enq).as_nanos() as u64).max(1);
    let named: u64 = acc.ns[..PH_OTHER].iter().sum();
    acc.ns[PH_OTHER] = total_ns.saturating_sub(named);
    for (i, h) in obs.phase_hists.iter().enumerate() {
        if acc.ns[i] > 0 {
            h.observe(acc.ns[i] as f64 / 1e9);
        }
    }
    session
        .meter
        .compile_ns
        .fetch_add(acc.ns[PH_COMPILE], Ordering::Relaxed);
    {
        let mut recent = obs.recent.lock_unpoisoned();
        if recent.len() >= RECENT_CAP {
            recent.pop_front();
        }
        recent.push_back(ReqRecord {
            req: meta.ctx.req,
            tenant: session.id,
            name: meta.name,
            total_ns,
            phase_ns: acc.ns,
        });
    }
    if shared.trace.enabled() {
        let since_enq = meta.enq.elapsed().as_nanos() as u64;
        let start = shared.trace.host_ns().saturating_sub(since_enq);
        shared.trace.host_span_ctx(
            session.id,
            "req",
            meta.name,
            start,
            total_ns,
            meta.ctx.span_ref(meta.ctx.root_span()),
            0,
            &[
                ("queue_us", Arg::U64(acc.ns[PH_QUEUE] / 1000)),
                ("wake_us", Arg::U64(acc.ns[PH_WAKE] / 1000)),
                ("compile_us", Arg::U64(acc.ns[PH_COMPILE] / 1000)),
                ("eval_sw_us", Arg::U64(acc.ns[PH_EVAL_SW] / 1000)),
                ("eval_hw_us", Arg::U64(acc.ns[PH_EVAL_HW] / 1000)),
                ("flush_us", Arg::U64(acc.ns[PH_FLUSH] / 1000)),
                ("journal_us", Arg::U64(acc.ns[PH_JOURNAL] / 1000)),
                ("other_us", Arg::U64(acc.ns[PH_OTHER] / 1000)),
            ],
        );
    }
}

/// How an exposed server counter is typed.
#[derive(Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
}

use Kind::{Counter, Gauge};

/// One server counter: `server-stats` reports this lifetime's value under
/// `key`; the exposition reports `family`, counters baseline-inclusive so
/// they stay monotone across graceful restarts. Either may be absent.
struct Stat {
    key: Option<&'static str>,
    family: Option<(&'static str, &'static str, Kind)>,
    read: Read,
}

type Read = fn(&Shared) -> u64;

/// A counter both renderings report.
const fn stat(
    key: &'static str,
    name: &'static str,
    kind: Kind,
    help: &'static str,
    read: Read,
) -> Stat {
    Stat {
        key: Some(key),
        family: Some((name, help, kind)),
        read,
    }
}

/// A counter only `server-stats` reports.
const fn key(key: &'static str, read: Read) -> Stat {
    Stat {
        key: Some(key),
        family: None,
        read,
    }
}

/// A counter only the exposition reports.
const fn family(name: &'static str, kind: Kind, help: &'static str, read: Read) -> Stat {
    Stat {
        key: None,
        family: Some((name, help, kind)),
        read,
    }
}

/// A durable bitstream-store counter (0 without a durable root).
fn store(s: &Shared, read: fn(&BitstreamStore) -> u64) -> u64 {
    s.durable.as_ref().map_or(0, |d| read(&d.store))
}

const R: Ordering = Ordering::Relaxed;

/// Every server counter. Adding one is adding a row: its `server-stats`
/// key, its exposition name, kind and help, and its reader.
#[rustfmt::skip]
const STATS: &[Stat] = &[
    stat("sessions", "serve_sessions", Gauge, "Live sessions",
        |s| s.sessions.lock_unpoisoned().len() as u64),
    stat("sessions_live", "serve_sessions_live", Gauge, "Sessions with a live runtime",
        |s| s.store.live.load(R) as u64),
    stat("sessions_hibernated", "serve_sessions_hibernated", Gauge,
        "Sessions currently hibernated (runtime dropped)", |s| s.store.dormant.load(R) as u64),
    stat("sessions_opened", "serve_sessions_opened_total", Counter, "Sessions ever opened",
        |s| s.sessions_opened.load(R)),
    stat("sessions_reaped", "serve_sessions_reaped_total", Counter,
        "Sessions reaped by the idle timeout", |s| s.counters.reaped.load(R)),
    stat("evals", "serve_evals_total", Counter, "Eval commands served",
        |s| s.counters.evals.load(R)),
    key("requests", |s| s.obs.next_req.load(R)),
    stat("ticks", "serve_ticks_total", Counter, "Virtual clock ticks run across all sessions",
        |s| s.counters.ticks.load(R)),
    stat("steals", "serve_steals_total", Counter, "Sessions claimed from another worker's shard",
        |s| s.sched.steals()),
    stat("hibernates", "serve_hibernates_total", Counter, "Sessions frozen to a hibernation image",
        |s| s.store.hibernates.load(R)),
    stat("wakes", "serve_wakes_total", Counter, "Sessions rebuilt from a hibernation image",
        |s| s.store.wakes.load(R)),
    stat("wake_failures", "serve_wake_failures_total", Counter,
        "Sessions lost to an unrestorable hibernation image", |s| s.store.wake_failures.load(R)),
    stat("hibernate_spills", "serve_hibernate_spills_total", Counter,
        "Hibernation images spilled to disk", |s| s.store.spills.load(R)),
    key("hibernate_mem_bytes", |s| s.store.mem_bytes.load(R) as u64),
    key("hibernate_disk_bytes", |s| s.store.disk_bytes.load(R) as u64),
    family("serve_hibernate_bytes", Gauge, "Bytes held by the hibernation store (memory + disk)",
        |s| (s.store.mem_bytes.load(R) + s.store.disk_bytes.load(R)) as u64),
    stat("output_dropped", "serve_output_dropped_total", Counter,
        "Output lines dropped by bounded session queues", |s| s.counters.output_dropped.load(R)),
    stat("fabrics", "serve_fabrics", Gauge, "Fleet capacity",
        |s| s.fleet.stats().capacity as u64),
    stat("fabrics_in_use", "serve_fabrics_in_use", Gauge, "Fabric leases currently held",
        |s| s.fleet.stats().in_use as u64),
    stat("fabric_grants", "serve_fabric_grants_total", Counter, "Leases granted",
        |s| s.fleet.stats().granted),
    stat("fabric_revocations", "serve_fabric_revocations_total", Counter,
        "Leases revoked for arbitration", |s| s.fleet.stats().revocations),
    stat("fabric_revocations_suppressed", "serve_fabric_revocations_suppressed_total", Counter,
        "Revocations suppressed by lease hysteresis", |s| s.fleet.stats().revocations_suppressed),
    key("fabrics_lost", |s| s.fleet.stats().lost as u64),
    key("fabric_failures", |s| s.fleet.stats().fabric_failures),
    stat("compile_queue_depth", "serve_compile_queue_depth", Gauge,
        "Pending jobs in the shared compile queue", |s| s.queue.depth() as u64),
    stat("compiles_coalesced", "serve_compiles_coalesced_total", Counter,
        "Compile jobs coalesced onto an identical in-flight job", |s| s.queue.coalesced()),
    stat("compiles_shed", "serve_compiles_shed_total", Counter,
        "Compile jobs shed by the bounded queue", |s| s.queue.dropped()),
    stat("compiles_skipped", "serve_compiles_skipped_total", Counter,
        "Compile jobs discarded unrun because nobody awaited them", |s| s.queue.skipped()),
    key("compile_worker_panics", |s| s.queue.worker_panics()),
    key("cache_entries", |s| s.queue.cache().len() as u64),
    stat("cache_hits", "serve_bitstream_cache_hits_total", Counter, "Shared bitstream cache hits",
        |s| s.queue.cache().hits()),
    stat("cache_misses", "serve_bitstream_cache_misses_total", Counter,
        "Shared bitstream cache misses", |s| s.queue.cache().misses()),
    key("cache_evictions", |s| s.queue.cache().evictions()),
    stat("session_panics", "serve_session_panics_total", Counter,
        "Worker panics contained at the session boundary", |s| s.counters.panics.load(R)),
    stat("trace_events", "serve_trace_ring_events", Gauge, "Trace events held by the shared ring",
        |s| s.trace.len() as u64),
    family("serve_trace_ring_bytes", Gauge, "Heap bytes held by the shared trace ring",
        |s| s.trace.bytes() as u64),
    stat("trace_dropped", "serve_trace_events_dropped_total", Counter,
        "Trace events dropped by the bounded ring", |s| s.trace.dropped()),
    stat("recovered_sessions", "serve_recovery_sessions_total", Counter,
        "Sessions rehydrated from write-ahead journals at recovery",
        |s| s.recovery.sessions.load(R)),
    stat("recovery_replayed", "serve_recovery_journal_records_replayed_total", Counter,
        "Journaled commands replayed into woken sessions after recovery",
        |s| s.recovery.replayed.load(R)),
    stat("recovery_quarantined", "serve_recovery_corrupt_records_quarantined_total", Counter,
        "Corrupt journals, torn tails, spill images, and store entries quarantined",
        |s| s.recovery.quarantined.load(R) + store(s, BitstreamStore::corrupt_quarantined)),
    stat("warm_bitstream_hits", "serve_recovery_warm_bitstream_hits_total", Counter,
        "Compiles skipped by the persistent bitstream store", |s| store(s, BitstreamStore::hits)),
    stat("bitstream_store_saves", "serve_recovery_bitstream_saves_total", Counter,
        "Bitstreams persisted to the durable store", |s| store(s, BitstreamStore::saves)),
    stat("drain_flushes", "serve_recovery_drain_flushes_total", Counter,
        "Session journals flushed durably by server drains", |s| s.recovery.drain_flushes.load(R)),
];

/// A table row's exposition snapshot, if the exposition carries it.
fn exposed(s: &Shared, stat: &Stat) -> Option<MetricSnapshot> {
    let (name, help, kind) = stat.family?;
    let v = (stat.read)(s);
    let value = match kind {
        Counter => SnapValue::Counter(v + s.baseline.get(name).copied().unwrap_or(0)),
        Gauge => SnapValue::Gauge(v as f64),
    };
    Some(MetricSnapshot {
        name: name.to_string(),
        help: help.to_string(),
        value,
    })
}

impl Server {
    /// `server-stats`: every table row with a JSON key, this lifetime.
    pub(super) fn server_stats(&self) -> Json {
        let s = &self.shared;
        ok(STATS
            .iter()
            .filter_map(|stat| Some((stat.key?, (stat.read)(s).into()))))
    }

    /// The server-wide exposition: every session's registry summed (a
    /// hibernated session's cells stop contributing), a dropped-lines
    /// series per session, the phase histograms, and the counter table.
    /// After a crash, counters restart from the last drained baseline: a
    /// monotone lower bound of the lifetime totals.
    pub(super) fn metric_snapshots(&self) -> Vec<MetricSnapshot> {
        let s = &self.shared;
        let mut snaps: Vec<MetricSnapshot> = Vec::new();
        let mut labeled = Vec::new();
        for sess in s.all_sessions() {
            let registry = sess.registry.lock_unpoisoned().clone();
            merge(&mut snaps, registry.snapshot());
            labeled.push(MetricSnapshot {
                name: format!(
                    "serve_session_output_dropped_total{{session=\"{}\"}}",
                    sess.id
                ),
                help: "Output lines dropped by one session's bounded queue".to_string(),
                value: SnapValue::Counter(sess.output.lock_unpoisoned().dropped_total),
            });
        }
        merge(&mut snaps, labeled);
        merge(&mut snaps, s.obs.registry.snapshot());
        merge(
            &mut snaps,
            STATS.iter().filter_map(|stat| exposed(s, stat)).collect(),
        );
        snaps
    }

    /// Every exposed counter at its current (baseline-inclusive) value —
    /// the floor a successor process must report from.
    pub(super) fn counter_baseline(&self) -> Vec<(&'static str, u64)> {
        STATS
            .iter()
            .filter_map(
                |stat| match (stat.family?, exposed(&self.shared, stat)?.value) {
                    ((name, _, Counter), SnapValue::Counter(v)) => Some((name, v)),
                    _ => None,
                },
            )
            .collect()
    }

    /// Tail-latency attribution over the recent-request ring: picks the
    /// requests at or past the given percentile of total wall time and
    /// prints each one's dominant phase and full phase breakdown.
    pub(super) fn explain(&self, percentile: &str) -> Json {
        let q = match percentile {
            "p50" => 0.50,
            "p90" => 0.90,
            "p99" => 0.99,
            other => return err(format!("unknown percentile `{other}` (want p50|p90|p99)")),
        };
        let recs = self.shared.obs.recent.lock_unpoisoned().clone();
        if recs.is_empty() {
            return ok([
                ("text", "no requests recorded".into()),
                ("requests", 0.into()),
                ("coverage", 0.0.into()),
            ]);
        }
        let mut totals: Vec<u64> = recs.iter().map(|r| r.total_ns).collect();
        totals.sort_unstable();
        let idx = (((totals.len() - 1) as f64) * q).round() as usize;
        let threshold = totals[idx.min(totals.len() - 1)];
        let mut slow: Vec<&ReqRecord> = recs.iter().filter(|r| r.total_ns >= threshold).collect();
        slow.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        slow.truncate(10);
        let mut text = format!(
            "{percentile} tail of {} recent requests (threshold {:.3} ms):\n",
            recs.len(),
            threshold as f64 / 1e6,
        );
        for r in &slow {
            let (dom, dom_ns) = r
                .phase_ns
                .iter()
                .enumerate()
                .max_by_key(|(_, ns)| **ns)
                .map(|(i, ns)| (PHASE_NAMES[i], *ns))
                .unwrap_or(("other", 0));
            let pct = 100.0 * dom_ns as f64 / r.total_ns as f64;
            let breakdown: Vec<String> = r
                .phase_ns
                .iter()
                .enumerate()
                .filter(|(_, ns)| **ns > 0)
                .map(|(i, ns)| format!("{} {:.3}ms", PHASE_NAMES[i], *ns as f64 / 1e6))
                .collect();
            text.push_str(&format!(
                "  req {} session {} {}: {:.3} ms, dominant {dom} ({pct:.0}%)  [{}]\n",
                r.req,
                r.tenant,
                r.name,
                r.total_ns as f64 / 1e6,
                breakdown.join(" | "),
            ));
        }
        // Named-phase coverage of the slowest request: everything except
        // the unattributed residual. (A recorded request lasts at least
        // 1 ns, and the slowest is at or past any threshold.)
        let top = slow[0];
        let coverage = (top.total_ns - top.phase_ns[PH_OTHER]) as f64 / top.total_ns as f64;
        ok([
            ("text", text.into()),
            ("requests", (recs.len() as u64).into()),
            ("coverage", coverage.into()),
        ])
    }

    /// Ranks tenants by recent burn (the sweeper's EWMA over each
    /// session's weighted meter growth). Reads only meters — no session
    /// is woken.
    pub(super) fn server_top(&self, n: u64) -> Json {
        let sessions: Vec<Arc<Session>> = self.shared.all_sessions();
        let mut rows: Vec<(f64, Json, String)> = sessions
            .iter()
            .map(|s| {
                let (burn, b, row) = tenant_row(&self.shared, s);
                let line = format!(
                    "  session {} burn {burn:.1} ticks {} compile {:.3}ms \
                     lease {:.3}ms journal {}B output {}B",
                    s.id,
                    b.ticks,
                    b.compile_ns as f64 / 1e6,
                    b.lease_us as f64 / 1e3,
                    b.journal_bytes,
                    b.output_bytes,
                );
                (burn, Json::obj(row), line)
            })
            .collect();
        rows.sort_by(|a, b| b.0.total_cmp(&a.0));
        rows.truncate(n.max(1) as usize);
        let mut text = format!("top {} tenants by recent burn:\n", rows.len());
        let mut tenants = Vec::with_capacity(rows.len());
        for (_, row, line) in rows {
            text.push_str(&line);
            text.push('\n');
            tenants.push(row);
        }
        ok([("text", text.into()), ("tenants", Json::Arr(tenants))])
    }
}
