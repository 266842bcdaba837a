//! The serving path: closed-loop clients driving `cascade-serve` through
//! the product's own `InProcClient` / `TcpClient`, one session script at a
//! time, checking every reply against the script's closed forms.

use crate::gen::{Design, Script, Step, TENANT_RUN_TICKS};
use crate::jit::{Steady, Stop};
use crate::layers;
use crate::span::Tracer;
use crate::stats::{Recorder, Samples};
use cascade_bits::Prng;
use cascade_core::{JitConfig, Repl, Runtime};
use cascade_fpga::Board;
use cascade_serve::{
    Client, EvalResult, InProcClient, Json, Request, RunResult, ServeConfig, Server, TcpClient,
    TcpServer, Transport,
};
use cascade_sim::library_from_source;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The JIT configuration a session gets on [`serve_config`]'s server.
pub fn served_jit() -> JitConfig {
    ServeConfig::quick().jit
}

/// The server every serving workload runs against: modeled compile latency
/// compressed as in `ServeConfig::quick` so promotion happens inside short
/// sessions, one executor per core, one toolchain worker, two fabrics.
pub fn serve_config(durable_dir: Option<&Path>, scratch: &Path) -> ServeConfig {
    let mut c = ServeConfig::quick();
    c.workers = nproc();
    c.compile_workers = 1;
    c.fabrics = 2;
    c.hibernate_spill_dir = Some(scratch.join("spill").to_string_lossy().into_owned());
    c.durable_dir = durable_dir.map(|d| d.to_string_lossy().into_owned());
    c
}

#[derive(Default)]
pub struct ServeOut {
    pub elapsed: Duration,
    pub requests: u64,
    pub ticks: u64,
    pub eval_us: Samples,
    pub run_us: Samples,
    pub sw_ticks: u64,
    pub sw_time: Duration,
    pub hw_ticks: u64,
    pub hw_time: Duration,
    pub rec: Recorder,
}

impl ServeOut {
    pub fn merge(&mut self, o: ServeOut) {
        self.elapsed = self.elapsed.max(o.elapsed);
        self.requests += o.requests;
        self.ticks += o.ticks;
        self.eval_us.extend(o.eval_us);
        self.run_us.extend(o.run_us);
        self.sw_ticks += o.sw_ticks;
        self.sw_time += o.sw_time;
        self.hw_ticks += o.hw_ticks;
        self.hw_time += o.hw_time;
        self.rec.merge(o.rec);
    }

    /// Books one `run` reply: its latency sample if it did what was asked,
    /// and its ticks under the engine that ran them.
    fn ran(&mut self, want: u64, r: &Result<RunResult, String>, dur: Duration) {
        let ok = matches!(r, Ok(rr) if rr.ticks == want && !rr.finished);
        if self.rec.check(ok, || format!("run {want}: got {r:?}")) {
            self.run_us.push_us(dur);
        }
        if let Ok(rr) = r {
            self.ticks += rr.ticks;
            if rr.mode == "software" {
                self.sw_ticks += rr.ticks;
                self.sw_time += dur;
            } else {
                self.hw_ticks += rr.ticks;
                self.hw_time += dur;
            }
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Instant, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start, start.elapsed())
}

pub fn request_of(step: &Step, session: u64) -> Request {
    match step {
        Step::Eval { line, .. } => Request::Eval {
            session,
            line: line.clone(),
            seq: 0,
        },
        Step::Run(ticks) => Request::Run {
            session,
            ticks: *ticks,
            seq: 0,
        },
        Step::Fifo(data) => Request::Fifo {
            session,
            width: 8,
            data: data.clone(),
            seq: 0,
        },
        Step::Drain(_) => Request::Drain { session, seq: 0 },
        Step::Probe { port, .. } => Request::Probe {
            session,
            port: port.clone(),
        },
    }
}

/// Idle in-process servers that take every request a second time: the same
/// server with the journal on (for a workload that journals), and with it
/// off. Against the real round trip their latencies split off the wire and
/// the journal, and what remains is decomposed under the plain one.
pub struct MirrorServers {
    pub journaled: Option<Arc<Server>>,
    pub plain: Arc<Server>,
}

fn handle(server: &Server, req: &Request) -> Json {
    Json::parse(&server.handle_line(&req.to_line())).unwrap_or(Json::Null)
}

/// A probe of a port no program declares: it crosses the codec, the shard
/// queue and a worker and comes back, and does nothing else.
fn noop_probe(session: u64) -> String {
    let port = "bench_no_such_port".to_string();
    Request::Probe { session, port }.to_line()
}

fn open_on(server: &Server) -> u64 {
    handle(server, &Request::Open)
        .get("session")
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// One client thread's tracing state.
pub struct TraceCtx {
    pub tr: Tracer,
    jit: JitConfig,
    mirrors: MirrorServers,
    /// A session on the plain mirror that only ever takes no-op probes.
    idle_session: u64,
    /// Finished real sessions waiting to be replayed.
    finished: Vec<(Script, Vec<Timed>)>,
    req: u64,
}

/// Sessions replayed per client. A replay costs several sessions' time, so
/// a pass keeps the first this many and only counts the rest.
const REPLAYED_SESSIONS: usize = 256;

/// One real request as the client saw it.
type Timed = (&'static str, Instant, Duration);

impl TraceCtx {
    pub fn new(epoch: Instant, jit: JitConfig, mirrors: &MirrorServers, client: u64) -> TraceCtx {
        TraceCtx {
            tr: Tracer::new(epoch),
            jit,
            mirrors: MirrorServers {
                journaled: mirrors.journaled.clone(),
                plain: Arc::clone(&mirrors.plain),
            },
            idle_session: open_on(&mirrors.plain),
            finished: Vec::new(),
            // Keeps request numbers of different clients apart.
            req: client << 32,
        }
    }

    fn root(&mut self, (name, start, dur): Timed) -> u32 {
        self.req += 1;
        self.tr.count(name, 1);
        self.tr.root(self.req, "serve", name, start, dur)
    }

    /// Plays `script` on a fresh session of `server` back to back, timing
    /// `handle_line` per step, then lets the session's background compile
    /// finish so that it does not run on into the next replay's timings.
    fn replay_on(server: &Server, script: &Script) -> Vec<Duration> {
        let session = open_on(server);
        let times = script
            .steps
            .iter()
            .map(|step| {
                let line = request_of(step, session).to_line();
                timed(|| black_box(server.handle_line(&line))).2
            })
            .collect();
        handle(server, &Request::WaitCompile { session });
        handle(server, &Request::Close { session });
        times
    }

    /// Keeps a finished session for [`TraceCtx::replay`].
    fn keep(&mut self, script: &Script, reals: Vec<Timed>) {
        if self.finished.len() < REPLAYED_SESSIONS {
            self.finished.push((script.clone(), reals));
        } else {
            self.tr.count("sessions_not_replayed", 1);
        }
    }

    /// Replays the kept sessions and returns the trace.
    ///
    /// This runs once the pass is over, and each stand-in plays a session
    /// back to back like the real one did. Any gap between a server's
    /// requests lets its compile worker catch up, sessions get promoted to
    /// hardware that would have stayed in software, and their requests cost
    /// twice as much: replaying between sessions doubled the real `run` p50.
    pub fn replay(mut self) -> Tracer {
        for (script, reals) in std::mem::take(&mut self.finished) {
            self.session(&script, &reals);
        }
        self.tr
    }

    /// Records one session: one root span per real request, and under each
    /// step the anatomy of that request.
    ///
    /// Under a step: the client's encode; `handle_line` on the journaled
    /// mirror (when there is one) and under that on the plain mirror; under
    /// that the decode, a no-op trip through the shard queue, and the same
    /// call on a bare runtime with the frontend stages below it. Self
    /// times then read: root = wire and client, journaled = journal,
    /// plain = dispatch, `core` = the runtime's own work.
    fn session(&mut self, script: &Script, reals: &[Timed]) {
        let journaled = self
            .mirrors
            .journaled
            .as_deref()
            .map(|j| Self::replay_on(j, script));
        let plain = Self::replay_on(&self.mirrors.plain, script);
        // With `auto_compile` a bare runtime spawns a toolchain thread of
        // its own per eval, and those threads outlive this replay and slow
        // the next one. A server hands compiles to its pool instead, so what
        // submission costs there stays in the mirror's self time.
        let bare = JitConfig {
            auto_compile: false,
            ..self.jit.clone()
        };
        let mut shadow = Repl::new(Runtime::new(Board::new(), bare).expect("stdlib declares"));
        let core: Vec<Duration> = script
            .steps
            .iter()
            .map(|step| match step {
                Step::Eval { line, .. } => timed(|| black_box(shadow.line(line))).2,
                Step::Run(ticks) => {
                    timed(|| black_box(shadow.runtime().run_ticks(*ticks).is_ok())).2
                }
                _ => Duration::ZERO,
            })
            .collect();

        self.root(reals[0]);
        let mut evals = 0;
        for (i, step) in script.steps.iter().enumerate() {
            let root = self.root(reals[i + 1]);
            let tr = &mut self.tr;
            let req = request_of(step, 1);
            let (line, _) = tr.time(root, "serve", "json_encode", || req.to_line());
            let mut parent = root;
            if let Some(journaled) = &journaled {
                parent = tr.child(parent, "durable", "handle_line_journaled", journaled[i]);
            }
            let (handle_line, core_name) = match step {
                Step::Eval { .. } => ("handle_line_eval", "eval"),
                Step::Run(_) => ("handle_line_run", "run_ticks"),
                _ => ("handle_line_other", ""),
            };
            parent = tr.child(parent, "serve", handle_line, plain[i]);
            tr.time(parent, "serve", "json_parse", || {
                black_box(Request::parse(&line).is_ok())
            });
            let noop = noop_probe(self.idle_session);
            tr.time(parent, "serve", "queue", || {
                black_box(self.mirrors.plain.handle_line(&noop))
            });
            if core_name.is_empty() {
                continue;
            }
            let core = tr.child(parent, "core", core_name, core[i]);
            if let Step::Eval { line, .. } = step {
                let lib = library_from_source(&script.ported_after[evals])
                    .expect("generated program parses");
                evals += 1;
                let top = lib.iter().next().expect("one module");
                layers::frontend_spans(tr, core, line, &lib, top);
            }
        }
        self.root(reals[script.steps.len() + 1]);
    }
}

/// Plays one session: `open`, every step, `close`. Each request is one
/// attempt; a transport error, an error reply or a reply that differs from
/// the script's expectation is one failure and leaves no latency sample.
pub fn play<T: Transport>(
    client: &mut Client<T>,
    script: &Script,
    out: &mut ServeOut,
    trace: Option<&mut TraceCtx>,
) {
    let mut reals: Vec<Timed> = Vec::with_capacity(script.steps.len() + 2);
    let (opened, start, dur) = timed(|| client.open());
    out.requests += 1;
    if out.rec.request("open", opened).is_none() {
        return;
    }
    reals.push(("open", start, dur));
    for step in &script.steps {
        out.requests += 1;
        reals.push(match step {
            Step::Eval { line, output } => {
                let (r, start, dur) = timed(|| client.eval(line));
                let ok = match (&r, output) {
                    (Ok(EvalResult::Evaluated(got)), Some(want)) => got == want,
                    (Ok(EvalResult::Evaluated(_) | EvalResult::Incomplete), None) => true,
                    _ => false,
                };
                if out
                    .rec
                    .check(ok, || format!("eval `{line}`: want {output:?}, got {r:?}"))
                {
                    out.eval_us.push_us(dur);
                }
                ("eval", start, dur)
            }
            Step::Run(ticks) => {
                let (r, start, dur) = timed(|| client.run(*ticks));
                out.ran(*ticks, &r, dur);
                ("run", start, dur)
            }
            Step::Fifo(data) => {
                let (r, start, dur) = timed(|| client.fifo_push(8, data));
                out.rec.check(r == Ok(data.len() as u64), || {
                    format!("fifo push of {}: got {r:?}", data.len())
                });
                ("fifo", start, dur)
            }
            Step::Drain(want) => {
                let (r, start, dur) = timed(|| client.drain());
                let ok = matches!(&r, Ok((lines, 0)) if lines == want);
                out.rec
                    .check(ok, || format!("drain: want {want:?}, got {r:?}"));
                ("drain", start, dur)
            }
            Step::Probe { port, want } => {
                let (r, start, dur) = timed(|| client.probe(port));
                out.rec.check(r == Ok(Some(*want)), || {
                    format!("probe {port}: want {want}, got {r:?}")
                });
                ("probe", start, dur)
            }
        });
    }
    let (closed, start, dur) = timed(|| client.close());
    out.requests += 1;
    out.rec.request("close", closed);
    reals.push(("close", start, dur));
    if let Some(ctx) = trace {
        ctx.keep(script, reals);
    }
}

/// A server and the clients that will load it, built and connected but
/// idle: what `setup_s` times for the edit workloads.
pub struct Stack {
    config: ServeConfig,
    /// Held so the listener outlives its clients.
    _tcp: Option<TcpServer>,
    clients: Vec<AnyClient>,
}

enum AnyClient {
    InProc(InProcClient),
    Tcp(TcpClient),
}

impl Stack {
    /// `clients` clients; over TCP when `tcp`, each on its own connection.
    ///
    /// The TCP clients are the product's `TcpClient` exactly as shipped.
    /// It sends a request as two small writes on a socket without
    /// `TCP_NODELAY`, so every round trip waits out the peer's delayed-ACK
    /// timer (~44 ms here against ~0.3 ms in process). That floor is the
    /// baseline this benchmark exists to record; a private client that set
    /// the socket option would measure a product nobody is running.
    pub fn build(config: ServeConfig, tcp: bool, clients: usize) -> Result<Stack, String> {
        let server = Server::new(config.clone());
        let tcp = match tcp {
            true => Some(
                TcpServer::bind(Arc::clone(&server), "127.0.0.1:0")
                    .map_err(|e| format!("bind: {e}"))?,
            ),
            false => None,
        };
        let clients = (0..clients)
            .map(|_| match &tcp {
                Some(t) => TcpClient::connect(t.addr())
                    .map(AnyClient::Tcp)
                    .map_err(|e| format!("connect: {e}")),
                None => Ok(AnyClient::InProc(InProcClient::connect(&server))),
            })
            .collect::<Result<_, _>>()?;
        Ok(Stack {
            config,
            _tcp: tcp,
            clients,
        })
    }
}

/// Sums the clients' results and folds their traces into `sink`.
fn gather(results: Vec<(ServeOut, Option<Tracer>)>, mut sink: Option<&mut Tracer>) -> ServeOut {
    let mut total = ServeOut::default();
    for (out, tr) in results {
        total.merge(out);
        if let (Some(sink), Some(tr)) = (&mut sink, tr) {
            sink.merge(tr);
        }
    }
    total
}

/// Every client plays sessions from `scripts` back to back until `stop`.
/// Clients start together and each finishes the session it is in.
pub fn serve_pass(
    stack: &mut Stack,
    seed: u64,
    scripts: &(dyn Fn(&mut Prng) -> Script + Sync),
    stop: &Stop,
    trace: Option<(&mut Tracer, &MirrorServers)>,
) -> ServeOut {
    let epoch = Instant::now();
    let barrier = std::sync::Barrier::new(stack.clients.len());
    let jit = &stack.config.jit;
    let mirrors = trace.as_ref().map(|(_, m)| *m);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rng =
                        Prng::new(seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let mut out = ServeOut::default();
                    let mut ctx = mirrors.map(|m| TraceCtx::new(epoch, jit.clone(), m, i as u64));
                    barrier.wait();
                    let begin = Instant::now();
                    let mut sessions = 0;
                    while !stop.done(begin, sessions) {
                        let script = scripts(&mut rng);
                        match client {
                            AnyClient::InProc(c) => play(c, &script, &mut out, ctx.as_mut()),
                            AnyClient::Tcp(c) => play(c, &script, &mut out, ctx.as_mut()),
                        }
                        sessions += 1;
                    }
                    out.elapsed = begin.elapsed();
                    (out, ctx.map(TraceCtx::replay))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    gather(results, trace.map(|(tr, _)| tr))
}

/// Long-lived tenants: sessions opened and programmed once, then run
/// round-robin by clients that `attach` to one after another.
pub struct Tenants {
    pub server: Arc<Server>,
    config: ServeConfig,
    /// Per client: its connection and the tenants it owns.
    clients: Vec<(InProcClient, Vec<Tenant>)>,
}

struct Tenant {
    session: u64,
    design: Arc<Design>,
    /// Ticks its `run` replies have acknowledged.
    ticks: u64,
}

impl Tenants {
    /// Opens one session per design, dealt round-robin to `clients`
    /// clients, and evals each design into its session.
    pub fn build(
        config: ServeConfig,
        designs: Vec<Arc<Design>>,
        clients: usize,
    ) -> Result<Tenants, String> {
        let server = Server::new(config.clone());
        let mut clients: Vec<_> = (0..clients)
            .map(|_| (InProcClient::connect(&server), Vec::new()))
            .collect();
        for (i, design) in designs.into_iter().enumerate() {
            let n = clients.len();
            let (client, owned) = &mut clients[i % n];
            let session = client.open()?;
            client.eval_all(&design.cascade_src)?;
            owned.push(Tenant {
                session,
                design,
                ticks: 0,
            });
        }
        Ok(Tenants {
            server,
            config,
            clients,
        })
    }

    /// Software-to-hardware swaps summed over every tenant.
    pub fn promotions(&mut self) -> u64 {
        let mut total = 0;
        for (client, owned) in &mut self.clients {
            for t in owned.iter() {
                let stats = client.attach(t.session).and_then(|()| client.stats());
                total += stats
                    .ok()
                    .and_then(|s| s.get("promotions")?.as_u64())
                    .unwrap_or(0);
            }
        }
        total
    }
}

/// One client's share of [`tenants_pass`].
fn tenant_client(
    client: &mut InProcClient,
    owned: &mut [Tenant],
    server: &Server,
    stop: &Stop,
    barrier: &std::sync::Barrier,
    mut trace: Option<(Tracer, Steady, u64)>,
) -> (ServeOut, Option<Tracer>) {
    let mut out = ServeOut::default();
    barrier.wait();
    let begin = Instant::now();
    let mut rounds = 0;
    while !stop.done(begin, rounds) {
        for t in owned.iter_mut() {
            let (r, start, dur) = timed(|| client.attach(t.session));
            out.requests += 1;
            out.rec.request("attach", r);
            if let Some((tr, _, req)) = &mut trace {
                *req += 1;
                tr.root(*req, "serve", "attach", start, dur);
            }
            let (r, start, dur) = timed(|| client.run(TENANT_RUN_TICKS));
            out.requests += 1;
            out.ran(TENANT_RUN_TICKS, &r, dur);
            let Ok(reply) = &r else { continue };
            t.ticks += reply.ticks;
            // A tenant's engine is the fleet arbiter's choice, so no mirror
            // server can stand in for it: the run is replayed on a bare
            // runtime in the engine the reply names, beside the codec and a
            // queue trip.
            if let Some((tr, stand_in, req)) = &mut trace {
                *req += 1;
                let root = tr.root(*req, "serve", "run", start, dur);
                let software = reply.mode == "software";
                tr.count(
                    if software {
                        "run_in_software"
                    } else {
                        "run_in_hardware"
                    },
                    1,
                );
                let run = Request::Run {
                    session: t.session,
                    ticks: TENANT_RUN_TICKS,
                    seq: 0,
                };
                let (line, _) = tr.time(root, "serve", "json_encode", || run.to_line());
                tr.time(root, "serve", "json_parse", || {
                    black_box(Request::parse(&line).is_ok())
                });
                let noop = noop_probe(t.session);
                tr.time(root, "serve", "queue", || {
                    black_box(server.handle_line(&noop))
                });
                let rt = if software {
                    &mut stand_in.sw.rt
                } else {
                    &mut stand_in.hw.rt
                };
                tr.time(root, "core", "run_ticks", || {
                    black_box(rt.run_ticks(TENANT_RUN_TICKS).is_ok())
                });
            }
        }
        rounds += 1;
    }
    out.elapsed = begin.elapsed();
    for t in owned.iter() {
        out.rec.request("attach", client.attach(t.session));
        for (port, want) in (t.design.expect)(t.ticks, &[]) {
            let got = client.probe(&port);
            out.rec.check(got == Ok(Some(want)), || {
                format!(
                    "tenant {} probe {port} after {} ticks: want {want}, got {got:?}",
                    t.session, t.ticks
                )
            });
        }
    }
    (out, trace.map(|(tr, _, _)| tr))
}

/// Every client cycles over its tenants (`attach`, `run 1024`) until
/// `stop`, then probes each tenant's counter against stride x the ticks its
/// replies acknowledged.
pub fn tenants_pass(t: &mut Tenants, stop: &Stop, trace: Option<&mut Tracer>) -> ServeOut {
    let epoch = Instant::now();
    let barrier = std::sync::Barrier::new(t.clients.len());
    let (server, jit, tracing) = (&t.server, &t.config.jit, trace.is_some());
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = t
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, (client, owned))| {
                let barrier = &barrier;
                s.spawn(move || {
                    // One pair of stand-ins per client, built from its first
                    // tenant: tenants differ only in a stride constant.
                    let first = owned.first().map(|t| Arc::clone(&t.design));
                    let trace = first.as_deref().filter(|_| tracing).map(|d| {
                        let stand_in = Steady::build(d, jit).expect("stand-in runtimes build");
                        (Tracer::new(epoch), stand_in, (i as u64) << 32)
                    });
                    tenant_client(client, owned, server, stop, barrier, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    gather(results, trace)
}

/// `Server::handle_line` called directly: `sessions` sessions of `script`,
/// left open. Returns the eval and run latencies, the request count, and
/// each session's `(id, resume token)`.
pub fn handle_line_probe(
    server: &Server,
    script: &Script,
    sessions: usize,
    rec: &mut Recorder,
) -> (Samples, Samples, u64, Vec<(u64, u64)>) {
    let (mut eval_us, mut run_us, mut requests) = (Samples::default(), Samples::default(), 0);
    let mut opened = Vec::new();
    for _ in 0..sessions {
        let reply = handle(server, &Request::Open);
        requests += 1;
        let id = reply.get("session").and_then(Json::as_u64);
        if !rec.check(id.is_some(), || format!("open -> {reply}")) {
            continue;
        }
        let id = id.unwrap_or(0);
        opened.push((id, reply.get("token").and_then(Json::as_u64).unwrap_or(0)));
        for step in &script.steps {
            let line = request_of(step, id).to_line();
            let (text, _, dur) = timed(|| server.handle_line(&line));
            requests += 1;
            let reply = Json::parse(&text).unwrap_or(Json::Null);
            let ok = match step {
                Step::Probe { want, .. } => {
                    reply.get("value").and_then(Json::as_u64) == Some(*want)
                }
                Step::Eval { .. } => reply.get("status").and_then(Json::as_str) != Some("error"),
                _ => reply.get("ok").and_then(Json::as_bool) == Some(true),
            };
            if rec.check(ok, || format!("{line} -> {text}")) {
                match step {
                    Step::Eval { .. } => eval_us.push_us(dur),
                    Step::Run(_) => run_us.push_us(dur),
                    _ => {}
                }
            }
        }
    }
    (eval_us, run_us, requests, opened)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Against a real server: an eval the REPL rejects and a probe whose
    /// value is not the expected one are two failures, leave no latency
    /// sample, and everything else in the session still counts as attempted.
    #[test]
    fn rejected_eval_and_wrong_probe_are_failures() {
        let scratch = std::env::temp_dir().join(format!("cascade-e2e-test-{}", std::process::id()));
        let mut stack =
            Stack::build(serve_config(None, &scratch), false, 1).expect("in-process stack");
        let eval = |line: &str| Step::Eval {
            line: line.to_string(),
            output: Some(Vec::new()),
        };
        let script = Script {
            steps: vec![
                eval("reg [7:0] a = 1;"),
                eval("assign nowhere = ;"),
                Step::Run(64),
                Step::Probe {
                    port: "a".to_string(),
                    want: 2,
                },
            ],
            ported_after: Vec::new(),
        };
        let out = serve_pass(&mut stack, 1, &|_| script.clone(), &Stop::Reps(1), None);
        assert_eq!(
            (out.rec.attempted, out.rec.failed),
            (6, 2),
            "{:?}",
            out.rec.examples
        );
        assert_eq!(out.requests, 6);
        assert_eq!(out.eval_us.len(), 1);
        assert_eq!((out.run_us.len(), out.ticks), (1, 64));
        assert!(out.rec.examples[0].starts_with("eval `assign nowhere = ;`"));
        assert!(out.rec.examples[1].starts_with("probe a: want 2, got Ok(Some(1))"));
    }
}
