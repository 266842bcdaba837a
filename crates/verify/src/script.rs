//! The tenant-script model the serve campaigns share.
//!
//! A [`Script`] is a flat interleaving of tenant commands against one
//! in-process [`Server`]. The soak and crash campaigns generate their
//! scripts differently, but both run them through [`send`] (or
//! [`run_ops`]), fold the replies into a [`TenantState`] per tenant, and
//! read the server through the same helpers. A script shrinks by
//! dropping a tenant, dropping a command or halving a burst.

use crate::campaign::Shrink;
use cascade_fpga::FaultPlan;
use cascade_serve::{InProcClient, Json, Request, ServeConfig, Server};
use std::fmt;
use std::sync::Arc;

/// One scripted tenant command. Sequence numbers (0 = unsequenced) are
/// assigned at generation time, so a retry after recovery re-sends the
/// original.
#[derive(Debug, Clone)]
pub enum Op {
    Open,
    Eval(String, u64),
    Run(u64, u64),
    Drain(u64),
    Fifo(u64, Vec<u64>, u64),
    Hibernate,
    Close,
    /// Reads the server-wide metrics exposition.
    Metrics,
}

/// A flat interleaving of tenant ops; tenant `t` counts by `steps[t]`.
#[derive(Debug, Clone)]
pub struct Script {
    pub ops: Vec<(usize, Op)>,
    pub steps: Vec<u64>,
}

impl Script {
    /// The `cnt` tenant `t` holds after `ticks` ticks (it stays 0 if a
    /// shrunk script no longer loads the counter's `always` line).
    pub fn cnt(&self, t: usize, ticks: u64) -> u64 {
        let counts = self.source(t).contains("cnt <= cnt +");
        ticks.wrapping_mul(self.steps[t] * u64::from(counts)) & 0xffff
    }

    /// The Verilog tenant `t` evaluates.
    pub fn source(&self, t: usize) -> String {
        let lines = self.ops.iter().filter_map(|(u, op)| match op {
            Op::Eval(line, _) if *u == t => Some(line.as_str()),
            _ => None,
        });
        lines.collect::<Vec<_>>().join("\n")
    }
}

/// The tenant program: a 16-bit counter stepping by `step`, optionally
/// printing every eighth value.
pub fn tenant_source(step: u64, display: bool) -> Vec<String> {
    let mut src = vec![
        "reg [15:0] cnt = 0;".to_string(),
        format!("always @(posedge clk.val) cnt <= cnt + 16'd{step};"),
    ];
    if display {
        src.push(
            "always @(posedge clk.val) if (cnt[2:0] == 3'd7) $display(\"c=%d\", cnt);".to_string(),
        );
    }
    src.push("assign led.val = cnt[7:0];".to_string());
    src
}

/// Per-tenant progress within one execution of a script.
#[derive(Debug, Clone, Default)]
pub struct TenantState {
    pub session: Option<u64>,
    pub token: u64,
    pub lines: Vec<String>,
    pub ticks: u64,
    pub fifo_accepted: u64,
    /// The tenant's close took effect.
    pub closed: bool,
    /// Last acknowledged sequenced op and its reply text (dedup check).
    pub last_acked: Option<(Op, String)>,
    #[cfg(test)]
    after_hibernate: bool,
}

#[cfg(test)]
thread_local! {
    /// A runner bug planted for mutation testing of the soak campaign: a
    /// `run` right after a `hibernate` is absorbed one tick short.
    /// Compiled only under `cfg(test)`.
    pub static SEEDED_BUG: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

pub fn op_request(session: u64, op: &Op) -> Request {
    match op {
        Op::Open => Request::Open,
        Op::Eval(line, seq) => Request::Eval {
            session,
            line: line.clone(),
            seq: *seq,
        },
        Op::Run(ticks, seq) => Request::Run {
            session,
            ticks: *ticks,
            seq: *seq,
        },
        Op::Drain(seq) => Request::Drain { session, seq: *seq },
        Op::Fifo(width, data, seq) => Request::Fifo {
            session,
            width: *width,
            data: data.clone(),
            seq: *seq,
        },
        Op::Hibernate => Request::Hibernate { session },
        Op::Close => Request::Close { session },
        Op::Metrics => Request::Metrics { session: None },
    }
}

/// Applies an acknowledged reply to the tenant's accumulated state.
fn absorb(state: &mut TenantState, op: &Op, reply: &Json) {
    let count = |key| reply.get(key).and_then(Json::as_u64).unwrap_or(0);
    match op {
        Op::Open => {
            state.session = reply.get("session").and_then(Json::as_u64);
            state.token = count("token");
        }
        Op::Run(..) => {
            let ticks = count("ticks");
            #[cfg(test)]
            let ticks = ticks - u64::from(state.after_hibernate && ticks > 0 && SEEDED_BUG.get());
            state.ticks += ticks;
        }
        Op::Drain(_) => {
            if let Some(arr) = reply.get("lines").and_then(Json::as_arr) {
                state
                    .lines
                    .extend(arr.iter().filter_map(|v| v.as_str().map(str::to_string)));
            }
        }
        Op::Fifo(..) => state.fifo_accepted += count("pushed"),
        Op::Close => state.closed = true,
        Op::Eval(..) | Op::Hibernate | Op::Metrics => {}
    }
    if !matches!(op, Op::Open | Op::Close | Op::Hibernate | Op::Metrics) {
        state.last_acked = Some((op.clone(), reply.to_string()));
    }
    #[cfg(test)]
    {
        state.after_hibernate = matches!(op, Op::Hibernate);
    }
}

/// Whether a reply acknowledges its request.
pub fn acked(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Sends `op` for the tenant whose state is `state`, and absorbs the
/// reply if the server acknowledged it.
pub fn send(client: &mut InProcClient, state: &mut TenantState, op: &Op) -> Result<Json, String> {
    let reply = client.raw(&op_request(state.session.unwrap_or(0), op))?;
    // Eval replies carry `ok:false` for rejected items too; the scripts
    // only send valid Verilog, so any not-ok means the server refused the
    // command (or its store is already crashed).
    if !acked(&reply) {
        return Err(format!("not acknowledged: {reply}"));
    }
    absorb(state, op, &reply);
    Ok(reply)
}

/// Runs script ops starting at `cursor` until completion or the first
/// failed command (the crash point). Returns the index of the first op
/// that was *not* acknowledged, or `ops.len()` on full completion.
pub fn run_ops(
    client: &mut InProcClient,
    script: &Script,
    states: &mut [TenantState],
    cursor: usize,
) -> usize {
    for (i, (t, op)) in script.ops.iter().enumerate().skip(cursor) {
        if send(client, &mut states[*t], op).is_err() {
            return i;
        }
    }
    script.ops.len()
}

/// A quick in-process server config on `fabrics` fabrics and `workers`
/// shards, with `faults` armed.
pub fn serve_config(fabrics: usize, workers: usize, faults: FaultPlan) -> ServeConfig {
    let mut c = ServeConfig::quick();
    c.fabrics = fabrics;
    c.workers = workers;
    c.jit.faults = faults;
    c
}

/// One server-wide statistic (0 when absent).
pub fn server_stat(server: &Arc<Server>, key: &str) -> u64 {
    let mut c = InProcClient::connect(server);
    c.server_stats()
        .ok()
        .and_then(|s| s.get(key).and_then(Json::as_u64))
        .unwrap_or(0)
}

/// Session `id`'s `cnt`.
pub fn probe_cnt(client: &mut InProcClient, id: u64) -> Option<u64> {
    let port = "cnt".to_string();
    let reply = client.raw(&Request::Probe { session: id, port });
    reply.ok()?.get("value").and_then(Json::as_u64)
}

/// Parses server-level monotone counters out of a Prometheus exposition.
/// Only `serve_*_total` series qualify: session-registry sums may drop
/// when a tenant hibernates or closes.
pub fn monotone_counters(text: &str) -> Vec<(String, u64)> {
    let counter = |line: &str| {
        let mut parts = line.split_whitespace();
        let (name, value) = (parts.next()?, parts.next()?.parse::<f64>().ok()?);
        let server = name.starts_with("serve_") && name.ends_with("_total") && !name.contains('{');
        server.then(|| (name.to_string(), value as u64))
    };
    let lines = text.lines().filter(|l| !l.starts_with('#'));
    lines.filter_map(counter).collect()
}

/// Describes the first counter that went backwards or vanished.
pub fn monotone_violation(prev: &[(String, u64)], cur: &[(String, u64)]) -> Option<String> {
    prev.iter()
        .find_map(|(name, was)| match cur.iter().find(|(n, _)| n == name) {
            Some((_, now)) if now < was => {
                Some(format!("counter {name} went backwards: {was} -> {now}"))
            }
            None => Some(format!("counter {name} vanished")),
            Some(_) => None,
        })
}

impl Shrink for Script {
    /// Commands first, then ticks: every candidate drops a command or
    /// halves a burst.
    fn size(&self) -> u64 {
        let ticks = self.ops.iter().map(|(_, op)| match op {
            Op::Run(n, _) => *n,
            _ => 0,
        });
        ((self.ops.len() as u64) << 32) + ticks.sum::<u64>()
    }

    /// Drop a tenant, then drop a command (last first; a tenant keeps its
    /// open), then halve a burst.
    fn candidates(&self) -> Vec<Script> {
        let mut out = Vec::new();
        for t in 0..self.steps.len() {
            let mut c = self.clone();
            c.steps.remove(t);
            c.ops.retain(|(u, _)| *u != t);
            c.ops
                .iter_mut()
                .filter(|(u, _)| *u > t)
                .for_each(|(u, _)| *u -= 1);
            out.push(c);
        }
        for i in (0..self.ops.len()).rev() {
            if !matches!(self.ops[i].1, Op::Open) {
                let mut c = self.clone();
                c.ops.remove(i);
                out.push(c);
            }
        }
        for (i, (_, op)) in self.ops.iter().enumerate() {
            if let Op::Run(n @ 2.., seq) = op {
                let mut c = self.clone();
                c.ops[i].1 = Op::Run(n / 2, *seq);
                out.push(c);
            }
        }
        out
    }
}

/// A script tagged with what else its run depends on (the soak batch,
/// the crash seed) shrinks as the script.
impl<K: Clone> Shrink for (K, Script) {
    fn size(&self) -> u64 {
        self.1.size()
    }

    fn candidates(&self) -> Vec<Self> {
        let (k, script) = self;
        let each = script.candidates().into_iter();
        each.map(|s| (k.clone(), s)).collect()
    }
}

/// One line: the command count, then every command with its tenant.
impl fmt::Display for Script {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} commands, steps {:?}:", self.ops.len(), self.steps)?;
        self.ops
            .iter()
            .try_for_each(|(t, op)| write!(f, " t{t} {op:?};"))
    }
}
