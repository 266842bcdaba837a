//! The wire protocol: newline-delimited JSON request/reply pairs.
//!
//! Every request is one line holding a JSON object with a `cmd` member;
//! every reply is one line holding a JSON object with an `ok` member.
//! Session-scoped commands carry the session id explicitly, so a single
//! connection can multiplex several sessions and a reconnecting client
//! can re-attach to a live session by id.
//!
//! | `cmd`          | members                | reply                                        |
//! |----------------|------------------------|----------------------------------------------|
//! | `open`         |                        | `{ok, session, token}`                       |
//! | `attach`       | `session`              | `{ok}` (validates the id)                    |
//! | `resume`       | `session`, `token`     | `{ok, session, last_seq}` (after recovery)   |
//! | `eval`         | `session`, `line`      | `{ok, status, output[], error?}`             |
//! | `run`          | `session`, `ticks`     | `{ok, ticks, backpressure, mode, lease_held}`|
//! | `drain`        | `session`              | `{ok, lines[], dropped}`                     |
//! | `wait_compile` | `session`              | `{ok, mode, lease_held}`                     |
//! | `probe`        | `session`, `port`      | `{ok, value}` (null when absent)             |
//! | `fifo`         | `session`, `width`, `data[]` | `{ok, pushed}` (stops when full)       |
//! | `stats`        | `session?`             | session stats, or server stats when omitted  |
//! | `metrics`      | `session?`             | `{ok, text}` Prometheus exposition           |
//! | `trace`        | `session?`, `virtual_only?` | `{ok, trace, dropped}` Chrome-trace JSONL |
//! | `timeline`     | `session?`             | `{ok, text}` human-readable JIT timeline     |
//! | `profile`      | `session`              | `{ok, text}` engine execution profile        |
//! | `vcd`          | `session`, `path?`, `ports?[]` | `{ok, active, path?}` start/stop dump |
//! | `hibernate`    | `session`              | `{ok, hibernated, bytes?, reason?}`          |
//! | `drain_server` |                        | `{ok, flushed, hibernated}` durable flush    |
//! | `explain`      | `percentile?`          | `{ok, text, requests, coverage}` tail-latency phase breakdown |
//! | `server_top`   | `n?`                   | `{ok, text, tenants[]}` tenants ranked by recent burn |
//! | `subscribe`    | `session`, `stream`, `interval_ms?` | `{ok, subscribed, stream}` live telemetry frames |
//! | `close`        | `session`              | `{ok}`                                       |
//!
//! The mutating session commands (`eval`, `run`, `drain`, `fifo`) accept
//! an optional `seq` member — a client-chosen, strictly increasing
//! sequence number (0 / absent = unsequenced). On a durable server the
//! command is journaled under that `seq` *before* the reply is released,
//! and re-sending the last acknowledged `seq` after a reconnect returns
//! the stored reply instead of executing twice — exactly-once delivery
//! across crashes. `resume` re-attaches to a session rehydrated by
//! crash recovery, proving ownership with the token `open` handed out;
//! its reply reports the last journaled `seq` so the client knows
//! whether its in-flight command was acknowledged.

use crate::json::Json;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Creates a session; the reply carries its id.
    Open,
    /// Validates that a session id is live (re-attach after reconnect).
    Attach { session: u64 },
    /// Re-attaches to a session rehydrated by crash recovery, proving
    /// ownership with the token `open` returned. The reply's `last_seq`
    /// is the highest journaled sequence number.
    Resume { session: u64, token: u64 },
    /// Feeds one line of Verilog to the session's REPL. `seq` (0 =
    /// unsequenced) enables exactly-once journaling and dedup.
    Eval {
        session: u64,
        line: String,
        seq: u64,
    },
    /// Runs up to `ticks` virtual clock ticks.
    Run { session: u64, ticks: u64, seq: u64 },
    /// Drains queued `$display` output.
    Drain { session: u64, seq: u64 },
    /// Blocks until the session's in-flight compile resolves.
    WaitCompile { session: u64 },
    /// Reads a named signal.
    Probe { session: u64, port: String },
    /// Streams words into the session board's input FIFO.
    Fifo {
        session: u64,
        width: u64,
        data: Vec<u64>,
        seq: u64,
    },
    /// Session statistics, or server-wide statistics when `session` is
    /// `None`.
    Stats { session: Option<u64> },
    /// Prometheus-style text exposition: one session's full metric set,
    /// or the server-wide merge (every session's registry summed, plus
    /// server gauges) when `session` is `None`.
    Metrics { session: Option<u64> },
    /// Exports the trace ring as Chrome-trace JSONL, filtered to one
    /// session's track (or every track when `session` is `None`).
    /// `virtual_only` redacts host clocks and sorts by virtual time, so
    /// the output is deterministic for a given seed and fault plan.
    Trace {
        session: Option<u64>,
        virtual_only: bool,
    },
    /// Renders the recorded JIT lifecycle as a human-readable timeline,
    /// filtered like `Trace`.
    Timeline { session: Option<u64> },
    /// Execution profile of the session's active main engine (bytecode
    /// process/opcode counts, or netlist level/kernel/net activity).
    Profile { session: u64 },
    /// Starts (`path` set) or stops (`path` absent) a VCD waveform dump
    /// of the session's main-engine ports. An empty `ports` list dumps
    /// the clock plus every named wire port.
    Vcd {
        session: u64,
        path: Option<String>,
        ports: Vec<String>,
    },
    /// Freezes an idle session to a hibernation image and drops its
    /// runtime (releasing its fabric lease). The next command wakes it
    /// transparently; this just forces the transition the sweeper would
    /// make on its own. Refused (with a `reason`) in native mode or while
    /// a VCD dump is active.
    Hibernate { session: u64 },
    /// Durably flushes every session (live ones are hibernated, journals
    /// are compacted, counter baselines snapshotted) ahead of a graceful
    /// restart. The reply counts `flushed` journals and `hibernated`
    /// runtimes.
    DrainServer,
    /// Tail-latency attribution over the server's recent-request ring:
    /// which named phases (queue, wake, compile, eval, flush, journal)
    /// dominate wall time at and above the given percentile (`"p50"` or
    /// `"p99"`, default `"p99"`).
    Explain { percentile: String },
    /// The top `n` tenants ranked by recent metered burn (ticks,
    /// compile time, fabric-lease time, journal and output bytes).
    ServerTop { n: u64 },
    /// Subscribes the session's output queue to periodic telemetry
    /// frames: `stream` is `"metrics"` (meter snapshots) or `"events"`
    /// (incremental trace events). `interval_ms = 0` cancels the
    /// stream's subscription. Frames are newline-JSON objects with a
    /// `frame` member, delivered through the bounded output queue
    /// (oldest dropped and accounted under backpressure).
    Subscribe {
        session: u64,
        stream: String,
        interval_ms: u64,
    },
    /// Closes a session, releasing its fabric lease.
    Close { session: u64 },
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, an unknown
    /// `cmd`, or missing/mistyped members.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line)?;
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing `cmd` member")?;
        let session = || {
            v.get("session")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{cmd}` needs a numeric `session`"))
        };
        let seq = || v.get("seq").and_then(Json::as_u64).unwrap_or(0);
        match cmd {
            "open" => Ok(Request::Open),
            "attach" => Ok(Request::Attach {
                session: session()?,
            }),
            "resume" => Ok(Request::Resume {
                session: session()?,
                token: v
                    .get("token")
                    .and_then(Json::as_u64)
                    .ok_or("`resume` needs a numeric `token`")?,
            }),
            "eval" => Ok(Request::Eval {
                session: session()?,
                line: v
                    .get("line")
                    .and_then(Json::as_str)
                    .ok_or("`eval` needs a string `line`")?
                    .to_string(),
                seq: seq(),
            }),
            "run" => Ok(Request::Run {
                session: session()?,
                ticks: v
                    .get("ticks")
                    .and_then(Json::as_u64)
                    .ok_or("`run` needs a numeric `ticks`")?,
                seq: seq(),
            }),
            "drain" => Ok(Request::Drain {
                session: session()?,
                seq: seq(),
            }),
            "wait_compile" => Ok(Request::WaitCompile {
                session: session()?,
            }),
            "probe" => Ok(Request::Probe {
                session: session()?,
                port: v
                    .get("port")
                    .and_then(Json::as_str)
                    .ok_or("`probe` needs a string `port`")?
                    .to_string(),
            }),
            "fifo" => Ok(Request::Fifo {
                session: session()?,
                width: v
                    .get("width")
                    .and_then(Json::as_u64)
                    .ok_or("`fifo` needs a numeric `width`")?,
                data: v
                    .get("data")
                    .and_then(Json::as_arr)
                    .ok_or("`fifo` needs a `data` array")?
                    .iter()
                    .map(|x| {
                        x.as_u64()
                            .ok_or("`fifo` data must be non-negative integers")
                    })
                    .collect::<Result<Vec<u64>, _>>()?,
                seq: seq(),
            }),
            "stats" => Ok(Request::Stats {
                session: v.get("session").and_then(Json::as_u64),
            }),
            "metrics" => Ok(Request::Metrics {
                session: v.get("session").and_then(Json::as_u64),
            }),
            "trace" => Ok(Request::Trace {
                session: v.get("session").and_then(Json::as_u64),
                virtual_only: v
                    .get("virtual_only")
                    .and_then(Json::as_bool)
                    .unwrap_or(false),
            }),
            "timeline" => Ok(Request::Timeline {
                session: v.get("session").and_then(Json::as_u64),
            }),
            "profile" => Ok(Request::Profile {
                session: session()?,
            }),
            "vcd" => Ok(Request::Vcd {
                session: session()?,
                path: v.get("path").and_then(Json::as_str).map(str::to_string),
                ports: match v.get("ports") {
                    None => Vec::new(),
                    Some(arr) => arr
                        .as_arr()
                        .ok_or("`vcd` ports must be an array of strings")?
                        .iter()
                        .map(|x| {
                            x.as_str()
                                .map(str::to_string)
                                .ok_or("`vcd` ports must be an array of strings")
                        })
                        .collect::<Result<Vec<String>, _>>()?,
                },
            }),
            "hibernate" => Ok(Request::Hibernate {
                session: session()?,
            }),
            "drain_server" => Ok(Request::DrainServer),
            // `server-top` is accepted as an operator-friendly alias.
            "explain" => Ok(Request::Explain {
                percentile: v
                    .get("percentile")
                    .and_then(Json::as_str)
                    .unwrap_or("p99")
                    .to_string(),
            }),
            "server_top" | "server-top" => Ok(Request::ServerTop {
                n: v.get("n").and_then(Json::as_u64).unwrap_or(10),
            }),
            "subscribe" => Ok(Request::Subscribe {
                session: session()?,
                stream: v
                    .get("stream")
                    .and_then(Json::as_str)
                    .ok_or("`subscribe` needs a string `stream`")?
                    .to_string(),
                interval_ms: v.get("interval_ms").and_then(Json::as_u64).unwrap_or(100),
            }),
            "close" => Ok(Request::Close {
                session: session()?,
            }),
            other => Err(format!("unknown cmd `{other}`")),
        }
    }

    /// Serializes the request to its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let json = match self {
            Request::Open => Json::obj([("cmd", "open".into())]),
            Request::Attach { session } => {
                Json::obj([("cmd", "attach".into()), ("session", (*session).into())])
            }
            Request::Resume { session, token } => Json::obj([
                ("cmd", "resume".into()),
                ("session", (*session).into()),
                ("token", (*token).into()),
            ]),
            Request::Eval { session, line, seq } => {
                let mut pairs = vec![
                    ("cmd", Json::from("eval")),
                    ("session", (*session).into()),
                    ("line", line.as_str().into()),
                ];
                if *seq > 0 {
                    pairs.push(("seq", (*seq).into()));
                }
                Json::obj(pairs)
            }
            Request::Run {
                session,
                ticks,
                seq,
            } => {
                let mut pairs = vec![
                    ("cmd", Json::from("run")),
                    ("session", (*session).into()),
                    ("ticks", (*ticks).into()),
                ];
                if *seq > 0 {
                    pairs.push(("seq", (*seq).into()));
                }
                Json::obj(pairs)
            }
            Request::Drain { session, seq } => {
                let mut pairs = vec![("cmd", Json::from("drain")), ("session", (*session).into())];
                if *seq > 0 {
                    pairs.push(("seq", (*seq).into()));
                }
                Json::obj(pairs)
            }
            Request::WaitCompile { session } => Json::obj([
                ("cmd", "wait_compile".into()),
                ("session", (*session).into()),
            ]),
            Request::Probe { session, port } => Json::obj([
                ("cmd", "probe".into()),
                ("session", (*session).into()),
                ("port", port.as_str().into()),
            ]),
            Request::Fifo {
                session,
                width,
                data,
                seq,
            } => {
                let mut pairs = vec![
                    ("cmd", Json::from("fifo")),
                    ("session", (*session).into()),
                    ("width", (*width).into()),
                    (
                        "data",
                        Json::Arr(data.iter().map(|&x| Json::from(x)).collect()),
                    ),
                ];
                if *seq > 0 {
                    pairs.push(("seq", (*seq).into()));
                }
                Json::obj(pairs)
            }
            Request::Stats { session } => match session {
                Some(s) => Json::obj([("cmd", "stats".into()), ("session", (*s).into())]),
                None => Json::obj([("cmd", "stats".into())]),
            },
            Request::Metrics { session } => match session {
                Some(s) => Json::obj([("cmd", "metrics".into()), ("session", (*s).into())]),
                None => Json::obj([("cmd", "metrics".into())]),
            },
            Request::Trace {
                session,
                virtual_only,
            } => {
                let mut pairs = vec![("cmd", Json::from("trace"))];
                if let Some(s) = session {
                    pairs.push(("session", (*s).into()));
                }
                pairs.push(("virtual_only", (*virtual_only).into()));
                Json::obj(pairs)
            }
            Request::Timeline { session } => match session {
                Some(s) => Json::obj([("cmd", "timeline".into()), ("session", (*s).into())]),
                None => Json::obj([("cmd", "timeline".into())]),
            },
            Request::Profile { session } => {
                Json::obj([("cmd", "profile".into()), ("session", (*session).into())])
            }
            Request::Vcd {
                session,
                path,
                ports,
            } => {
                let mut pairs = vec![("cmd", Json::from("vcd")), ("session", (*session).into())];
                if let Some(p) = path {
                    pairs.push(("path", p.as_str().into()));
                }
                pairs.push((
                    "ports",
                    Json::Arr(ports.iter().map(|p| Json::from(p.as_str())).collect()),
                ));
                Json::obj(pairs)
            }
            Request::Hibernate { session } => {
                Json::obj([("cmd", "hibernate".into()), ("session", (*session).into())])
            }
            Request::DrainServer => Json::obj([("cmd", "drain_server".into())]),
            Request::Explain { percentile } => Json::obj([
                ("cmd", "explain".into()),
                ("percentile", percentile.as_str().into()),
            ]),
            Request::ServerTop { n } => {
                Json::obj([("cmd", "server_top".into()), ("n", (*n).into())])
            }
            Request::Subscribe {
                session,
                stream,
                interval_ms,
            } => Json::obj([
                ("cmd", "subscribe".into()),
                ("session", (*session).into()),
                ("stream", stream.as_str().into()),
                ("interval_ms", (*interval_ms).into()),
            ]),
            Request::Close { session } => {
                Json::obj([("cmd", "close".into()), ("session", (*session).into())])
            }
        };
        json.to_string()
    }
}

/// An `{ok: true, ...}` reply.
pub fn ok(extra: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut pairs = vec![("ok", Json::Bool(true))];
    pairs.extend(extra);
    Json::obj(pairs)
}

/// An `{ok: false, error: ...}` reply.
pub fn err(message: impl Into<String>) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let requests = [
            Request::Open,
            Request::Attach { session: 7 },
            Request::Resume {
                session: 7,
                token: 0xdead_beef_cafe,
            },
            Request::Eval {
                session: 1,
                line: "assign led.val = \"odd\\nstring\";".to_string(),
                seq: 0,
            },
            Request::Eval {
                session: 1,
                line: "reg r = 0;".to_string(),
                seq: 41,
            },
            Request::Run {
                session: 2,
                ticks: 1_000_000,
                seq: 0,
            },
            Request::Run {
                session: 2,
                ticks: 64,
                seq: 42,
            },
            Request::Drain { session: 3, seq: 0 },
            Request::Drain {
                session: 3,
                seq: 43,
            },
            Request::WaitCompile { session: 4 },
            Request::Probe {
                session: 5,
                port: "cnt".to_string(),
            },
            Request::Fifo {
                session: 5,
                width: 8,
                data: vec![71, 69, 84, 32],
                seq: 0,
            },
            Request::Fifo {
                session: 5,
                width: 16,
                data: vec![9],
                seq: 44,
            },
            Request::Stats { session: None },
            Request::Stats { session: Some(6) },
            Request::Metrics { session: None },
            Request::Metrics { session: Some(2) },
            Request::Trace {
                session: Some(1),
                virtual_only: true,
            },
            Request::Trace {
                session: None,
                virtual_only: false,
            },
            Request::Timeline { session: Some(3) },
            Request::Timeline { session: None },
            Request::Profile { session: 4 },
            Request::Vcd {
                session: 5,
                path: Some("/tmp/wave.vcd".to_string()),
                ports: vec!["clk".to_string(), "cnt".to_string()],
            },
            Request::Vcd {
                session: 5,
                path: None,
                ports: vec![],
            },
            Request::Hibernate { session: 6 },
            Request::DrainServer,
            Request::Explain {
                percentile: "p99".to_string(),
            },
            Request::ServerTop { n: 5 },
            Request::Subscribe {
                session: 7,
                stream: "metrics".to_string(),
                interval_ms: 50,
            },
            Request::Close { session: 8 },
        ];
        for r in requests {
            let line = r.to_line();
            assert!(!line.contains('\n'), "one request per line: {line}");
            assert_eq!(Request::parse(&line).unwrap(), r, "through `{line}`");
        }
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{}").is_err());
        assert!(Request::parse("{\"cmd\":\"warp\"}").is_err());
        assert_eq!(
            Request::parse("{\"cmd\":\"configure\",\"session\":1,\"batch_width\":4}"),
            Err("unknown cmd `configure`".to_string())
        );
        assert!(Request::parse("{\"cmd\":\"eval\",\"session\":1}").is_err());
        assert!(Request::parse("{\"cmd\":\"run\",\"session\":1,\"ticks\":\"x\"}").is_err());
        assert!(Request::parse("{\"cmd\":\"eval\",\"line\":\"x;\"}").is_err());
        assert!(Request::parse("{\"cmd\":\"resume\",\"session\":1}").is_err());
    }

    #[test]
    fn omitted_seq_parses_as_unsequenced() {
        let r = Request::parse("{\"cmd\":\"run\",\"session\":1,\"ticks\":8}").unwrap();
        assert_eq!(
            r,
            Request::Run {
                session: 1,
                ticks: 8,
                seq: 0
            }
        );
        // And an unsequenced request does not emit a `seq` member.
        assert!(!r.to_line().contains("seq"));
    }

    #[test]
    fn reply_builders() {
        let r = ok([("session", 3u64.into())]);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(r.get("session").and_then(Json::as_u64), Some(3));
        let e = err("nope");
        assert_eq!(e.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(e.get("error").and_then(Json::as_str), Some("nope"));
    }
}
