//! `--trace 1`: the workload's own pass untraced then traced, and every
//! layer's rows measured on the workload's own generated design. Every
//! workload climbs the same ladder; only the rung that is its own pass runs
//! for `--trace-secs`, the others run just long enough to fill their rows.

use crate::batch::batch_pass;
use crate::gen::{Design, Script, Step, EDIT_RUN_TICKS};
use crate::jit::{jit_pass, Steady, Stop};
use crate::layers::{self, Artifacts};
use crate::serve::{
    handle_line_probe, nproc, serve_config, serve_pass, tenants_pass, MirrorServers, Stack, Tenants,
};
use crate::span::Tracer;
use crate::stats::{Recorder, Samples};
use crate::{edit_script, inputs, journal_dir, per_sec, Inputs, Kind, Report};
use cascade_bits::Prng;
use cascade_serve::{InProcClient, Server, TcpClient, TcpServer};
use cascade_trace::TraceSink;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions each direct `handle_line` probe plays.
const PROBE_SESSIONS: usize = 4;
/// `run_ticks` chunks timed per engine for the steady tick rates.
const STEADY_CHUNKS: usize = 128;
/// Length of a pass that is not the workload's own but feeds a layer row.
const SIDE_PASS: Stop = Stop::After(Duration::from_millis(400));

pub struct Ladder<'a> {
    pub kind: Kind,
    pub seed: u64,
    pub corrupt: bool,
    /// How long the workload's own pass runs, untraced and again traced.
    pub own: Stop,
    pub inp: &'a Inputs,
    pub scratch: &'a Path,
    pub tr: Tracer,
    /// p50 of the workload's own primary latency, tracing off and on.
    pub own_p50: (f64, f64),
}

fn pct_worse(base: f64, with: f64) -> f64 {
    (with - base) / base * 100.0
}

impl Ladder<'_> {
    /// The session the serve probes play: the workload's own script when it
    /// has one, else the default session of its design.
    fn script(&self) -> Script {
        match self.kind {
            Kind::EditInproc | Kind::EditTcpDurable => {
                edit_script(&mut Prng::new(self.seed), self.corrupt)
            }
            _ => {
                let mut s = Script::for_design(&self.inp.design);
                if self.corrupt {
                    s.corrupt();
                }
                s
            }
        }
    }

    /// `verilog` to `fpga` micro rows, then `core`: the design on a bare
    /// runtime through promotion and one edit, and steady in each engine.
    pub fn core(&mut self, r: &mut Report, rec: &mut Recorder) -> Result<(), String> {
        let (d, jit) = (&self.inp.design, &self.inp.jit);
        let mut art = Artifacts::build(d);
        layers::micro(d, &mut art, jit, self.scratch, r);

        let own = matches!(self.kind, Kind::JitPow | Kind::JitRegex);
        if own {
            let out = jit_pass(d, jit, &self.own, None)?;
            self.own_p50.0 = out.run_us.p(50.0);
            rec.merge(out.rec);
        }
        let stop = if own { &self.own } else { &Stop::Reps(1) };
        let out = jit_pass(d, jit, stop, Some((&mut self.tr, &mut art)))?;
        if own {
            self.own_p50.1 = out.run_us.p(50.0);
        }
        let n = out.reps as usize;
        let eval_us = out.eval_us.p(50.0);
        r.put("core.eval_us", eval_us, out.eval_us.len());
        let frontend: f64 = [
            "verilog.parse_us",
            "verilog.typecheck_us",
            "sim.elaborate_us",
            "sim.sw_compile_us",
        ]
        .iter()
        .map(|m| r.get(m))
        .sum();
        r.put(
            "core.eval_unattributed_us",
            eval_us - frontend,
            out.eval_us.len(),
        );
        r.put("core.compile_wait_ms", out.compile_wait_ms.p(50.0), n);
        r.put("core.migrate_ms", out.migrate_ms.p(50.0), n);
        r.put("core.time_to_hw_ms", out.time_to_hw_ms.p(50.0), n);
        r.put("core.virt_time_to_hw_s", out.virt_time_to_hw_s.p(50.0), n);
        r.put("core.virt_edit_to_hw_s", out.virt_edit_to_hw_s.p(50.0), n);
        r.put("core.cache_hits", out.cache_hits as f64, n);
        r.put("core.cache_misses", out.cache_misses as f64, n);
        r.put(
            "bench.time_to_hw_attributed_pct",
            self.tr.coverage("time_to_hw").1 * 100.0,
            n,
        );
        rec.merge(out.rec);

        let (sw_tick_ns, hw_tick_ns) = Steady::build(d, jit)?.tick_ns(STEADY_CHUNKS)?;
        r.put("core.sw_tick_ns", sw_tick_ns, STEADY_CHUNKS);
        r.put(
            "core.sw_overhead_x",
            sw_tick_ns / r.get("sim.tick_ns"),
            STEADY_CHUNKS,
        );
        r.put("core.hw_tick_ns", hw_tick_ns, STEADY_CHUNKS);
        r.put(
            "core.hw_overhead_x",
            hw_tick_ns / r.get("netlist.cycle_ns"),
            STEADY_CHUNKS,
        );
        Ok(())
    }

    /// `serve` and `durable` from `Server::handle_line` called directly:
    /// journal off and on, a graceful restart, and the TCP wire.
    pub fn handle_line(&mut self, r: &mut Report, rec: &mut Recorder) -> Result<(), String> {
        let script = self.script();
        let plain = Server::new(serve_config(None, self.scratch));
        let (eval_off, run_off, _, opened) =
            handle_line_probe(&plain, &script, PROBE_SESSIONS, rec);
        r.put(
            "serve.handle_line_eval_us",
            eval_off.p(50.0),
            eval_off.len(),
        );
        r.put("serve.handle_line_run_us", run_off.p(50.0), run_off.len());
        r.put("serve.eval_p99_us", eval_off.p(99.0), eval_off.len());
        r.put("serve.run_p99_us", run_off.p(99.0), run_off.len());

        let dir = journal_dir(self.scratch, 1000);
        let config = serve_config(Some(&dir), self.scratch);
        let journaled = Server::new(config.clone());
        let (eval_on, run_on, requests, sessions) =
            handle_line_probe(&journaled, &script, PROBE_SESSIONS, rec);
        let both = |mut a: Samples, b: Samples| {
            a.extend(b);
            a
        };
        let (on, off) = (both(eval_on, run_on), both(eval_off, run_off));
        r.put(
            "durable.journal_cost_us",
            on.p(50.0) - off.p(50.0),
            on.len(),
        );
        let journal_bytes: u64 = std::fs::read_dir(dir.join("sessions"))
            .map_err(|e| format!("journal directory: {e}"))?
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum();
        r.put(
            "durable.journal_bytes_per_req",
            journal_bytes as f64 / requests as f64,
            requests as usize,
        );

        // Graceful restart: drain, recover, and every session resumes with
        // the state its script left behind.
        journaled.drain();
        drop(journaled);
        let t = Instant::now();
        let recovered = Server::recover(config);
        let mut client = InProcClient::connect(&recovered);
        for (id, token) in &sessions {
            rec.request("resume", client.resume(*id, *token));
            for step in &script.steps {
                if let Step::Probe { port, want } = step {
                    let got = client.probe(port);
                    rec.check(got == Ok(Some(*want)), || {
                        format!("recovered session {id} probe {port}: want {want}, got {got:?}")
                    });
                }
            }
        }
        r.put(
            "durable.recover_ms",
            t.elapsed().as_secs_f64() * 1e3,
            sessions.len(),
        );

        // The same `run` on one live session through the product
        // `TcpClient` and in process.
        let endpoint =
            TcpServer::bind(Arc::clone(&plain), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let mut wire = TcpClient::connect(endpoint.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut local = InProcClient::connect(&plain);
        let (mut over_tcp, mut in_proc) = (Samples::default(), Samples::default());
        if let Some((id, _)) = opened.first() {
            rec.request("attach", wire.attach(*id));
            rec.request("attach", local.attach(*id));
            for _ in 0..8 {
                let t = Instant::now();
                if rec.request("run", wire.run(EDIT_RUN_TICKS)).is_some() {
                    over_tcp.push_us(t.elapsed());
                }
                let t = Instant::now();
                if rec.request("run", local.run(EDIT_RUN_TICKS)).is_some() {
                    in_proc.push_us(t.elapsed());
                }
            }
        }
        r.put(
            "serve.wire_us",
            over_tcp.p(50.0) - in_proc.p(50.0),
            over_tcp.len(),
        );
        Ok(())
    }

    /// Client-level sessions, traced: in process for the anatomy of an
    /// eval, and on `edit_tcp_durable` its own pass over TCP, mirrored.
    /// Traced passes use one client, so that no other client's requests
    /// run while a session is being replayed.
    pub fn sessions(&mut self, r: &mut Report, rec: &mut Recorder) -> Result<(), String> {
        let (kind, seed, corrupt) = (self.kind, self.seed, self.corrupt);
        let fixed = self.script();
        let scripts = |rng: &mut Prng| match kind {
            Kind::EditInproc | Kind::EditTcpDurable => edit_script(rng, corrupt),
            _ => fixed.clone(),
        };
        let mut mirrors = MirrorServers {
            journaled: None,
            plain: Server::new(serve_config(None, self.scratch)),
        };

        let own = kind == Kind::EditInproc;
        let mut stack = Stack::build(serve_config(None, self.scratch), false, 1)?;
        if own {
            let out = serve_pass(&mut stack, seed, &scripts, &self.own, None);
            self.own_p50.0 = out.run_us.p(50.0);
            rec.merge(out.rec);
        }
        let stop = if own { &self.own } else { &Stop::Reps(2) };
        let mut tr = Tracer::new(Instant::now());
        let out = serve_pass(&mut stack, seed, &scripts, stop, Some((&mut tr, &mirrors)));
        if own {
            self.own_p50.1 = out.run_us.p(50.0);
        }
        rec.merge(out.rec);
        let evals = tr
            .aggregate()
            .get(&("serve", "handle_line_eval"))
            .copied()
            .unwrap_or_default();
        r.put(
            "serve.dispatch_us",
            evals.self_ns as f64 / evals.n as f64 / 1e3,
            evals.n as usize,
        );
        r.put(
            "bench.eval_attributed_pct",
            tr.coverage("eval").1 * 100.0,
            evals.n as usize,
        );
        self.tr.merge(tr);

        if kind == Kind::EditTcpDurable {
            let mut stack = Stack::build(
                serve_config(Some(&journal_dir(self.scratch, 1001)), self.scratch),
                true,
                1,
            )?;
            let out = serve_pass(&mut stack, seed, &scripts, &self.own, None);
            self.own_p50.0 = out.run_us.p(50.0);
            rec.merge(out.rec);
            mirrors.journaled = Some(Server::new(serve_config(
                Some(&journal_dir(self.scratch, 1002)),
                self.scratch,
            )));
            let out = serve_pass(
                &mut stack,
                seed,
                &scripts,
                &self.own,
                Some((&mut self.tr, &mirrors)),
            );
            self.own_p50.1 = out.run_us.p(50.0);
            rec.merge(out.rec);
        }
        Ok(())
    }

    /// `fpga` fleet counts and the `trace` plane's cost: tenants over two
    /// fabrics with the server's trace ring on (its default) and off.
    pub fn fleet(&mut self, r: &mut Report, rec: &mut Recorder) -> Result<(), String> {
        let own = self.kind == Kind::TenantsRun;
        let designs: Vec<Arc<Design>> = match own {
            true => self.inp.tenants.clone(),
            false => (0..4)
                .map(|_| Arc::new(inputs(self.kind, self.seed, self.corrupt).design))
                .collect(),
        };
        let window = if own { &self.own } else { &SIDE_PASS };
        let mut plane_on =
            Tenants::build(serve_config(None, self.scratch), designs.clone(), nproc())?;
        let out = tenants_pass(&mut plane_on, window, None);
        let on_rate = per_sec(out.ticks, out.elapsed);
        rec.merge(out.rec);
        let mut probe = InProcClient::connect(&plane_on.server);
        let stats = probe
            .server_stats()
            .map_err(|e| format!("server stats: {e}"))?;
        for (metric, key) in [
            ("fpga.lease_grants", "fabric_grants"),
            ("fpga.revocations", "fabric_revocations"),
            (
                "fpga.revocations_suppressed",
                "fabric_revocations_suppressed",
            ),
            ("serve.steals", "steals"),
        ] {
            r.put(
                metric,
                stats.get(key).and_then(|v| v.as_f64()).unwrap_or(f64::NAN),
                1,
            );
        }
        r.put(
            "serve.promotions",
            plane_on.promotions() as f64,
            designs.len(),
        );
        let (_, explained, coverage) = probe.explain("p50").map_err(|e| format!("explain: {e}"))?;
        r.put(
            "serve.explain_coverage_pct",
            coverage * 100.0,
            explained as usize,
        );
        drop((probe, plane_on));

        let mut config = serve_config(None, self.scratch);
        config.trace = TraceSink::disabled();
        let mut plane_off = Tenants::build(config, designs.clone(), nproc())?;
        let out = tenants_pass(&mut plane_off, window, None);
        let off_rate = per_sec(out.ticks, out.elapsed);
        r.put(
            "trace.plane_cost_pct",
            (off_rate - on_rate) / off_rate * 100.0,
            out.run_us.len(),
        );
        rec.merge(out.rec);
        drop(plane_off);

        if own {
            let mut solo = Tenants::build(serve_config(None, self.scratch), designs, 1)?;
            let out = tenants_pass(&mut solo, &self.own, None);
            self.own_p50.0 = out.run_us.p(50.0);
            rec.merge(out.rec);
            let out = tenants_pass(&mut solo, &self.own, Some(&mut self.tr));
            self.own_p50.1 = out.run_us.p(50.0);
            rec.merge(out.rec);
        }
        Ok(())
    }

    /// `batch_sweep`'s own pass; no other workload has a batched call.
    pub fn batch(&mut self, rec: &mut Recorder) {
        if self.kind != Kind::BatchSweep {
            return;
        }
        let out = batch_pass(&self.inp.corpora, &self.own, None);
        self.own_p50.0 = out.sweep_us.p(50.0);
        rec.merge(out.rec);
        let out = batch_pass(&self.inp.corpora, &self.own, Some(&mut self.tr));
        self.own_p50.1 = out.sweep_us.p(50.0);
        rec.merge(out.rec);
    }

    /// The `bench` rows, the span summary on stdout, and the spans on disk.
    pub fn finish(self, r: &mut Report, loadavg: f64, path: &Path) -> Result<(), String> {
        r.put(
            "bench.trace_overhead_pct",
            pct_worse(self.own_p50.0, self.own_p50.1),
            1,
        );
        r.put("bench.loadavg_at_start", loadavg, 1);
        println!("# spans (layer.name n total_us self_us):");
        for ((layer, name), a) in self.tr.aggregate() {
            println!(
                "# span {layer}.{name} n={} total_us={:.1} self_us={:.1}",
                a.n,
                a.total_ns as f64 / 1e3,
                a.self_ns as f64 / 1e3
            );
        }
        for (name, n) in self.tr.counts() {
            println!("# count {name} {n}");
        }
        self.tr
            .write_jsonl(path)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}
