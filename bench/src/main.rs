//! The repo's one end-to-end benchmark. One invocation runs one workload in
//! one mode:
//!
//! - `--trace 0`: the timed window, tracing off; prints the end-to-end
//!   metrics.
//! - `--trace 1`: a quarter-length untraced pass and traced pass of the same
//!   workload, then every layer probe on the workload's own generated
//!   design; prints the per-layer metrics and writes the spans.
//!
//! Every metric is printed as `name value unit n=samples`; the last line of
//! stdout is the JSON object the driver reads. See `README.md`.

mod batch;
mod gen;
mod jit;
mod ladder;
mod layers;
mod metrics;
mod serve;
mod span;
mod stats;
mod sys;

use batch::batch_pass;
use cascade_bits::Prng;
use cascade_core::{JitConfig, Runtime};
use cascade_fpga::Board;
use gen::{Corpus, Design, Script};
use jit::{jit_pass, JitOut, Stop};
use ladder::Ladder;
use metrics::Class;
use serve::{nproc, serve_config, serve_pass, served_jit, tenants_pass, ServeOut, Stack, Tenants};
use span::Tracer;
use stats::{Recorder, Samples};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    JitPow,
    JitRegex,
    EditInproc,
    EditTcpDurable,
    TenantsRun,
    BatchSweep,
}

/// In the order `BENCHMARK.json` lists them: the workload that waits on a
/// timer first and the two that are pure compute last. This box runs up to
/// a third slower for a few minutes after a build has kept both cores busy,
/// and a driver that builds and then measures in list order spends those
/// minutes on the workload that cares least.
const WORKLOADS: [(&str, Kind); 6] = [
    ("edit_tcp_durable", Kind::EditTcpDurable),
    ("edit_inproc", Kind::EditInproc),
    ("tenants_run", Kind::TenantsRun),
    ("batch_sweep", Kind::BatchSweep),
    ("jit_regex", Kind::JitRegex),
    ("jit_pow", Kind::JitPow),
];

/// Fewest set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Long-lived tenants on `tenants_run`: eight per fabric.
const TENANTS: usize = 16;
const CORPORA: usize = 4;

/// The metrics of one run, in print order.
#[derive(Default)]
pub struct Report {
    rows: Vec<(&'static str, f64, usize)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, n: usize) {
        let m = metrics::lookup(name);
        assert!(
            self.rows.iter().all(|r| r.0 != m.name),
            "metric `{name}` reported twice"
        );
        self.rows.push((m.name, value, n));
    }

    fn get(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.0 == name)
            .map_or(f64::NAN, |r| r.1)
    }
}

struct Args {
    workload: (&'static str, Kind),
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_secs: Option<f64>,
    out: PathBuf,
    corrupt_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: WORKLOADS[0],
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_secs: None,
        out: PathBuf::from("bench/out"),
        corrupt_oracle: false,
    };
    let mut named = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-oracle" {
            args.corrupt_oracle = true;
            continue;
        }
        if flag == "--list" {
            // For the scripts: the workload names, in `BENCHMARK.json` order.
            println!("{}", WORKLOADS.map(|w| w.0).join(" "));
            std::process::exit(0);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                args.workload = *WORKLOADS
                    .iter()
                    .find(|w| w.0 == value)
                    .ok_or_else(|| bad(&format!("one of {}", WORKLOADS.map(|w| w.0).join(", "))))?;
                named = true;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" | "--secs" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?
            }
            "--trace-secs" => {
                args.trace_secs = Some(value.parse().map_err(|_| bad("a number of seconds"))?)
            }
            "--trace" => args.trace = value == "1",
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !named {
        return Err("--workload is required".to_string());
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Everything one workload generates from the seed.
struct Inputs {
    /// The design the layer probes and the bare-runtime pass take.
    design: Design,
    /// The configuration that design's runtimes run under in this workload.
    jit: JitConfig,
    /// `jit_pow` only: the announcing miner and the line it must print.
    announced: Option<(String, String)>,
    tenants: Vec<Arc<Design>>,
    corpora: Vec<Corpus>,
}

fn edit_script(rng: &mut Prng, corrupt: bool) -> Script {
    let (mut script, _) = gen::edit_session(rng);
    if corrupt {
        script.corrupt();
    }
    script
}

fn inputs(kind: Kind, seed: u64, corrupt: bool) -> Inputs {
    let mut rng = Prng::new(seed);
    let served = served_jit();
    let (mut tenants, mut corpora, mut announced) = (Vec::new(), Vec::new(), None);
    let (mut design, jit) = match kind {
        Kind::JitPow => {
            let d = gen::miner(&mut rng);
            announced = Some(gen::announced_miner(&mut rng));
            (d, jit::paper_config())
        }
        Kind::JitRegex => (gen::matcher(&mut rng), jit::paper_config()),
        Kind::EditInproc | Kind::EditTcpDurable => (gen::edit_session(&mut rng).1, served),
        Kind::TenantsRun => {
            tenants = (0..TENANTS).map(|_| gen::tenant(&mut rng)).collect();
            (gen::tenant(&mut Prng::new(seed)), served)
        }
        Kind::BatchSweep => {
            corpora = (0..CORPORA).map(|_| gen::corpus(&mut rng)).collect();
            (gen::corpus_design(&mut rng, &corpora[0]), served)
        }
    };
    if corrupt {
        design.corrupt();
        tenants.iter_mut().for_each(Design::corrupt);
        corpora.iter_mut().for_each(Corpus::corrupt);
        if let Some((_, found)) = &mut announced {
            found.push('!');
        }
    }
    Inputs {
        design,
        jit,
        announced,
        tenants: tenants.into_iter().map(Arc::new).collect(),
        corpora,
    }
}

/// Builds again and again, keeps the last build, and returns the median
/// build time in seconds with its sample count: at least `SETUP_REPS`
/// builds, then more until 200 ms have gone by, because the cheapest
/// set-ups here take 0.1 ms and a median of fifteen of those wanders. A
/// build is dropped only after the next one has been timed.
fn setup_median<T>(
    mut build: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64, usize), String> {
    let mut s = Samples::default();
    let mut last = None;
    let begin = Instant::now();
    while s.len() < SETUP_REPS || (begin.elapsed() < Duration::from_millis(200) && s.len() < 500) {
        let t = Instant::now();
        let built = build(s.len())?;
        s.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("SETUP_REPS > 0"), s.p(50.0), s.len()))
}

fn per_sec(n: u64, d: Duration) -> f64 {
    n as f64 / d.as_secs_f64()
}

fn put_latency(r: &mut Report, p50: &str, p90: &str, s: &Samples) {
    r.put(p50, s.p(50.0), s.len());
    r.put(p90, s.p(90.0), s.len());
}

fn put_jit(r: &mut Report, o: &JitOut) {
    r.put("ticks_per_s", per_sec(o.ticks, o.elapsed), o.reps as usize);
    r.put(
        "requests_per_s",
        per_sec(o.calls, o.elapsed),
        o.reps as usize,
    );
    put_latency(r, "run_p50_us", "run_p90_us", &o.run_us);
    r.put("sw_ticks_per_s", o.sw_ticks_per_s(), o.reps as usize);
    r.put("hw_ticks_per_s", o.hw_ticks_per_s(), o.reps as usize);
    r.put(
        "time_to_hw_ms",
        o.time_to_hw_ms.p(50.0),
        o.time_to_hw_ms.len(),
    );
    r.put(
        "edit_to_hw_ms",
        o.edit_to_hw_ms.p(50.0),
        o.edit_to_hw_ms.len(),
    );
    r.put(
        "virt_time_to_hw_s",
        o.virt_time_to_hw_s.p(50.0),
        o.virt_time_to_hw_s.len(),
    );
    r.put(
        "virt_edit_to_hw_s",
        o.virt_edit_to_hw_s.p(50.0),
        o.virt_edit_to_hw_s.len(),
    );
    r.put("eval_p50_us", o.eval_us.p(50.0), o.eval_us.len());
}

fn put_serve(r: &mut Report, o: &ServeOut) {
    r.put("ticks_per_s", per_sec(o.ticks, o.elapsed), o.run_us.len());
    r.put(
        "requests_per_s",
        per_sec(o.requests, o.elapsed),
        o.requests as usize,
    );
    put_latency(r, "run_p50_us", "run_p90_us", &o.run_us);
    if o.eval_us.len() > 0 {
        put_latency(r, "eval_p50_us", "eval_p90_us", &o.eval_us);
    }
    if o.sw_ticks > 0 {
        r.put(
            "sw_ticks_per_s",
            o.sw_ticks as f64 / o.sw_time.as_secs_f64(),
            o.run_us.len(),
        );
    }
    if o.hw_ticks > 0 {
        r.put(
            "hw_ticks_per_s",
            o.hw_ticks as f64 / o.hw_time.as_secs_f64(),
            o.run_us.len(),
        );
    }
}

fn journal_dir(scratch: &Path, rep: usize) -> PathBuf {
    scratch.join(format!("journal-{rep}"))
}

/// `--trace 0`: set up, run the window with tracing off, check, report.
fn timed_run(
    args: &Args,
    scratch: &Path,
    r: &mut Report,
    rec: &mut Recorder,
) -> Result<(), String> {
    let (kind, seed, corrupt) = (args.workload.1, args.seed, args.corrupt_oracle);
    let stop = Stop::After(Duration::from_secs_f64(args.seconds));
    let inp = inputs(kind, seed, corrupt);
    match kind {
        Kind::JitPow | Kind::JitRegex => {
            let (_, setup_s, n) = setup_median(|_| {
                black_box(inputs(kind, seed, false));
                Runtime::new(Board::new(), inp.jit.clone()).map_err(|e| e.to_string())
            })?;
            r.put("setup_s", setup_s, n);
            let mut out = jit_pass(&inp.design, &inp.jit, &stop, None)?;
            if let Some((src, found)) = &inp.announced {
                jit::announced_rep(src, found, &inp.jit, &mut out.rec);
            }
            put_jit(r, &out);
            rec.merge(out.rec);
        }
        Kind::EditInproc | Kind::EditTcpDurable => {
            let tcp = kind == Kind::EditTcpDurable;
            let (mut stack, setup_s, n) = setup_median(|rep| {
                black_box(edit_script(&mut Prng::new(seed), corrupt));
                let dir = tcp.then(|| journal_dir(scratch, rep));
                Stack::build(serve_config(dir.as_deref(), scratch), tcp, nproc())
            })?;
            r.put("setup_s", setup_s, n);
            let out = serve_pass(
                &mut stack,
                seed,
                &|rng| edit_script(rng, corrupt),
                &stop,
                None,
            );
            put_serve(r, &out);
            rec.merge(out.rec);
        }
        Kind::TenantsRun => {
            let (mut tenants, setup_s, n) = setup_median(|_| {
                let designs = inputs(kind, seed, corrupt).tenants;
                Tenants::build(serve_config(None, scratch), designs, nproc())
            })?;
            r.put("setup_s", setup_s, n);
            let out = tenants_pass(&mut tenants, &stop, None);
            put_serve(r, &out);
            rec.merge(out.rec);
        }
        Kind::BatchSweep => {
            let (_, setup_s, n) = setup_median(|_| Ok(inputs(kind, seed, false).corpora))?;
            r.put("setup_s", setup_s, n);
            let out = batch_pass(&inp.corpora, &stop, None);
            r.put(
                "ticks_per_s",
                per_sec(out.lane_ticks, out.elapsed),
                out.sweeps as usize,
            );
            r.put(
                "requests_per_s",
                per_sec(out.sweeps, out.elapsed),
                out.sweeps as usize,
            );
            put_latency(r, "run_p50_us", "run_p90_us", &out.sweep_us);
            rec.merge(out.rec);
        }
    }
    r.put("peak_rss_mb", sys::peak_rss_mb(), 1);
    r.put("fail_ratio", rec.fail_ratio(), rec.attempted as usize);
    Ok(())
}

/// `--trace 1`: see [`ladder`].
fn traced_run(
    args: &Args,
    header: &sys::Header,
    scratch: &Path,
    r: &mut Report,
    rec: &mut Recorder,
) -> Result<(), String> {
    let (kind, seed, corrupt) = (args.workload.1, args.seed, args.corrupt_oracle);
    let inp = inputs(kind, seed, corrupt);
    let own = Duration::from_secs_f64(args.trace_secs.unwrap_or(args.seconds / 4.0));
    let mut ladder = Ladder {
        kind,
        seed,
        corrupt,
        own: Stop::After(own),
        inp: &inp,
        scratch,
        tr: Tracer::new(Instant::now()),
        own_p50: (f64::NAN, f64::NAN),
    };
    ladder.core(r, rec)?;
    ladder.handle_line(r, rec)?;
    ladder.sessions(r, rec)?;
    ladder.fleet(r, rec)?;
    ladder.batch(rec);
    let path = args.out.join(format!("trace-{}.jsonl", args.workload.0));
    ladder.finish(r, header.loadavg_1m, &path)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cascade-e2e: {e}");
            eprintln!("usage: cascade-e2e --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-secs S] [--out DIR] [--corrupt-oracle] | --list");
            return ExitCode::from(2);
        }
    };
    let header = sys::Header::capture();
    let scratch = args.out.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cascade-e2e: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    println!(
        "# cascade-e2e workload={} seed={} seconds={} trace={}",
        args.workload.0, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# git={} rustc=\"{}\" nproc={} cpu=\"{}\" loadavg_1m={} journal_dir={}",
        header.git_rev,
        header.rustc,
        header.nproc,
        header.cpu,
        header.loadavg_1m,
        scratch.display()
    );
    if header.busy() {
        println!(
            "# WARNING: 1-minute load average {} is above half of {} cores; timings will be noisy",
            header.loadavg_1m, header.nproc
        );
    }

    let mut report = Report::default();
    let mut rec = Recorder::default();
    let result = match args.trace {
        false => timed_run(&args, &scratch, &mut report, &mut rec),
        true => traced_run(&args, &header, &scratch, &mut report, &mut rec),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = result {
        eprintln!("cascade-e2e: {e}");
        return ExitCode::from(3);
    }

    let listed = if args.trace {
        Class::PerLayer
    } else {
        Class::EndToEnd
    };
    let mut file = String::new();
    let mut line = String::new();
    for (name, value, n) in &report.rows {
        let m = metrics::lookup(name);
        println!("{name} {value} {} n={n}", m.unit);
        if !value.is_finite() {
            rec.check(false, || format!("metric {name} is not a number"));
        }
        let entry = format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
            json_number(*value),
            m.unit
        );
        let better = if m.better == metrics::Better::Lower {
            "lower"
        } else {
            "higher"
        };
        let sep = if file.is_empty() { "" } else { "," };
        let _ = write!(
            file,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{}\",\"better\":\"{better}\",\"n\":{n}}}",
            json_number(*value),
            m.unit
        );
        if m.class == listed {
            let _ = write!(line, "{}{entry}", if line.is_empty() { "" } else { "," });
        }
    }
    for example in &rec.examples {
        println!("# FAILED {example}");
    }
    let verdict = format!(
        "\"correct\":{},\"attempted\":{},\"failed\":{}",
        rec.failed == 0,
        rec.attempted.max(1),
        rec.failed
    );
    let suffix = if args.trace { ".layers" } else { "" };
    let path = args.out.join(format!("{}{suffix}.json", args.workload.0));
    let doc = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"git\":\"{}\",\"rustc\":\"{}\",\"nproc\":{},\"cpu\":\"{}\",\"loadavg_1m\":{},{verdict},\"metrics\":{{{file}}}}}\n",
        args.workload.0, args.seed, args.seconds, header.git_rev, header.rustc, header.nproc, header.cpu, json_number(header.loadavg_1m)
    );
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("cascade-e2e: {}: {e}", path.display());
        return ExitCode::from(3);
    }
    println!("{{{verdict},\"metrics\":{{{line}}}}}");
    if rec.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cascade_serve::Json;

    /// `BENCHMARK.json` lists exactly the table's end-to-end and per-layer
    /// rows, with their units and directions, and the six workloads.
    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .expect("valid JSON");
        for (key, class) in [
            ("end_to_end", Class::EndToEnd),
            ("per_layer", Class::PerLayer),
        ] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string member")
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let table: Vec<(String, String, String)> = metrics::METRICS
                .iter()
                .filter(|m| m.class == class)
                .map(|m| {
                    let better = if m.better == metrics::Better::Lower {
                        "lower"
                    } else {
                        "higher"
                    };
                    (m.name.to_string(), m.unit.to_string(), better.to_string())
                })
                .collect();
            assert_eq!(listed, table, "{key}");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.0));
    }
}
