//! Clients: a generic typed client over a line transport, with an
//! in-process transport (tests, embedding) and a TCP transport. Both
//! serialize through the same protocol lines, so an in-process test
//! exercises exactly what a socket client would send.

use crate::frame::{self, Frame, MAX_REPLY_BYTES};
use crate::json::Json;
use crate::protocol::Request;
use crate::session::Server;
use std::io::{BufReader, Error, ErrorKind};
use std::net::TcpStream;
use std::sync::Arc;

/// A blocking line transport: one request line in, one reply line out.
pub trait Transport {
    /// Sends `line` and returns the reply line, which lives in the
    /// transport's own buffer until the next call.
    ///
    /// # Errors
    ///
    /// Returns an IO error if the transport fails.
    fn round_trip(&mut self, line: &str) -> std::io::Result<&str>;
}

/// In-process transport: calls the server directly.
pub struct InProc {
    server: Arc<Server>,
    reply: String,
}

impl Transport for InProc {
    fn round_trip(&mut self, line: &str) -> std::io::Result<&str> {
        self.reply = self.server.handle_line(line);
        Ok(&self.reply)
    }
}

/// TCP transport: newline-delimited JSON over a socket, framed by the
/// rules in the `frame` module (one write per request, `TCP_NODELAY`).
pub struct Tcp {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The outgoing frame and the incoming reply, reused across calls.
    frame: Vec<u8>,
    reply: String,
}

impl Transport for Tcp {
    fn round_trip(&mut self, line: &str) -> std::io::Result<&str> {
        frame::write_frame(&mut self.writer, &mut self.frame, line)?;
        match frame::read_frame(&mut self.reader, &mut self.reply, MAX_REPLY_BYTES)? {
            Frame::Line => Ok(&self.reply),
            Frame::Eof => Err(Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Frame::TooLong => Err(Error::new(ErrorKind::InvalidData, "reply line too long")),
        }
    }
}

/// The result of feeding one REPL line.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalResult {
    /// Item(s) accepted; immediate `$display` output attached.
    Evaluated(Vec<String>),
    /// More input needed.
    Incomplete,
    /// The item was rejected.
    Error(String),
}

/// What a `run` command did.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub ticks: u64,
    pub backpressure: bool,
    pub finished: bool,
    pub mode: String,
    pub lease_held: bool,
}

/// A typed client bound to one session over a [`Transport`].
pub struct Client<T: Transport> {
    transport: T,
    session: Option<u64>,
    token: Option<u64>,
    /// Next command sequence number (exactly-once). 0 = unsequenced.
    next_seq: u64,
}

/// In-process client (shares the server's address space).
pub type InProcClient = Client<InProc>;

/// Socket client.
pub type TcpClient = Client<Tcp>;

impl InProcClient {
    /// Creates a client talking directly to `server`.
    pub fn connect(server: &Arc<Server>) -> InProcClient {
        Client {
            transport: InProc {
                server: Arc::clone(server),
                reply: String::new(),
            },
            session: None,
            token: None,
            next_seq: 0,
        }
    }
}

impl TcpClient {
    /// Connects to a [`TcpServer`](crate::TcpServer).
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<TcpClient> {
        let (reader, writer) = frame::split(TcpStream::connect(addr)?)?;
        Ok(Client {
            transport: Tcp {
                reader,
                writer,
                frame: Vec::new(),
                reply: String::new(),
            },
            session: None,
            token: None,
            next_seq: 0,
        })
    }
}

impl<T: Transport> Client<T> {
    /// Sends a raw request and parses the reply.
    ///
    /// # Errors
    ///
    /// Returns a message for transport failures, unparseable replies, or
    /// `{ok: false}` replies (except `eval`, whose errors are data).
    pub fn raw(&mut self, req: &Request) -> Result<Json, String> {
        let line = req.to_line();
        let reply = self
            .transport
            .round_trip(&line)
            .map_err(|e| format!("transport: {e}"))?;
        Json::parse(reply).map_err(|e| format!("bad reply `{reply}`: {e}"))
    }

    fn expect_ok(&mut self, req: &Request) -> Result<Json, String> {
        let reply = self.raw(req)?;
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(reply)
        } else {
            Err(reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("request failed")
                .to_string())
        }
    }

    fn session(&self) -> Result<u64, String> {
        self.session.ok_or_else(|| "no open session".to_string())
    }

    /// Opens a session and binds this client to it.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn open(&mut self) -> Result<u64, String> {
        let reply = self.expect_ok(&Request::Open)?;
        let id = reply
            .get("session")
            .and_then(Json::as_u64)
            .ok_or("reply missing session id")?;
        self.session = Some(id);
        self.token = reply.get("token").and_then(Json::as_u64);
        Ok(id)
    }

    /// The resume capability returned by [`open`](Self::open), needed to
    /// reclaim this session from a recovered server.
    pub fn token(&self) -> Option<u64> {
        self.token
    }

    /// Reclaims a session recovered after a server restart. Returns the
    /// last command sequence number the old server acknowledged, so the
    /// caller knows exactly where to resume its command stream.
    ///
    /// # Errors
    ///
    /// Returns the server's error message (unknown session, bad token).
    pub fn resume(&mut self, id: u64, token: u64) -> Result<u64, String> {
        let reply = self.expect_ok(&Request::Resume { session: id, token })?;
        self.session = Some(id);
        self.token = Some(token);
        Ok(reply.get("last_seq").and_then(Json::as_u64).unwrap_or(0))
    }

    /// Flushes every session's journal to a durable checkpoint and
    /// hibernates live tenants — the graceful half of a restart. Returns
    /// `(flushed, hibernated)`.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn drain_server(&mut self) -> Result<(u64, u64), String> {
        let reply = self.expect_ok(&Request::DrainServer)?;
        let flushed = reply.get("flushed").and_then(Json::as_u64).unwrap_or(0);
        let hibernated = reply.get("hibernated").and_then(Json::as_u64).unwrap_or(0);
        Ok((flushed, hibernated))
    }

    /// Allocates the next command sequence number for the `*_seq`
    /// exactly-once variants.
    pub fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Re-attaches to a live session by id.
    ///
    /// # Errors
    ///
    /// Returns the server's error message (e.g. the session is gone).
    pub fn attach(&mut self, id: u64) -> Result<(), String> {
        self.expect_ok(&Request::Attach { session: id })?;
        self.session = Some(id);
        Ok(())
    }

    /// Feeds one line of Verilog.
    ///
    /// # Errors
    ///
    /// Returns transport/protocol failures; rejected items come back as
    /// [`EvalResult::Error`].
    pub fn eval(&mut self, line: &str) -> Result<EvalResult, String> {
        self.eval_seq(line, 0)
    }

    /// [`eval`](Self::eval) with an explicit sequence number (see
    /// [`next_seq`](Self::next_seq)): the server journals the command
    /// before acknowledging, and re-sending the same `seq` after a
    /// timeout returns the stored reply instead of re-executing.
    ///
    /// # Errors
    ///
    /// Returns transport/protocol failures; rejected items come back as
    /// [`EvalResult::Error`].
    pub fn eval_seq(&mut self, line: &str, seq: u64) -> Result<EvalResult, String> {
        let reply = self.raw(&Request::Eval {
            session: self.session()?,
            line: line.to_string(),
            seq,
        })?;
        match reply.get("status").and_then(Json::as_str) {
            Some("evaluated") => Ok(EvalResult::Evaluated(string_array(&reply, "output"))),
            Some("incomplete") => Ok(EvalResult::Incomplete),
            Some("error") => Ok(EvalResult::Error(
                reply
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("eval failed")
                    .to_string(),
            )),
            _ => Err(format!("bad eval reply: {reply}")),
        }
    }

    /// Feeds a multi-line source, line by line.
    ///
    /// # Errors
    ///
    /// Returns the first rejected item's message.
    pub fn eval_all(&mut self, src: &str) -> Result<Vec<String>, String> {
        let mut output = Vec::new();
        for line in src.lines() {
            match self.eval(line)? {
                EvalResult::Evaluated(mut out) => output.append(&mut out),
                EvalResult::Incomplete => {}
                EvalResult::Error(e) => return Err(e),
            }
        }
        Ok(output)
    }

    /// Runs up to `ticks` virtual clock ticks.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn run(&mut self, ticks: u64) -> Result<RunResult, String> {
        self.run_seq(ticks, 0)
    }

    /// [`run`](Self::run) with an explicit sequence number for
    /// exactly-once retry (see [`eval_seq`](Self::eval_seq)).
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn run_seq(&mut self, ticks: u64, seq: u64) -> Result<RunResult, String> {
        let reply = self.expect_ok(&Request::Run {
            session: self.session()?,
            ticks,
            seq,
        })?;
        Ok(RunResult {
            ticks: reply.get("ticks").and_then(Json::as_u64).unwrap_or(0),
            backpressure: reply
                .get("backpressure")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            finished: reply
                .get("finished")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            mode: reply
                .get("mode")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            lease_held: reply
                .get("lease_held")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }

    /// Drains queued `$display` output; returns `(lines, dropped)`.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn drain(&mut self) -> Result<(Vec<String>, u64), String> {
        self.drain_seq(0)
    }

    /// [`drain`](Self::drain) with an explicit sequence number for
    /// exactly-once retry (see [`eval_seq`](Self::eval_seq)).
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn drain_seq(&mut self, seq: u64) -> Result<(Vec<String>, u64), String> {
        let reply = self.expect_ok(&Request::Drain {
            session: self.session()?,
            seq,
        })?;
        let dropped = reply.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        Ok((string_array(&reply, "lines"), dropped))
    }

    /// Blocks until the in-flight compile resolves.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn wait_compile(&mut self) -> Result<Json, String> {
        self.expect_ok(&Request::WaitCompile {
            session: self.session()?,
        })
    }

    /// Reads a named signal (`None` when the port does not exist yet).
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn probe(&mut self, port: &str) -> Result<Option<u64>, String> {
        let reply = self.expect_ok(&Request::Probe {
            session: self.session()?,
            port: port.to_string(),
        })?;
        Ok(reply.get("value").and_then(Json::as_u64))
    }

    /// Streams words into the session's input FIFO; returns how many fit.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn fifo_push(&mut self, width: u64, data: &[u64]) -> Result<u64, String> {
        self.fifo_push_seq(width, data, 0)
    }

    /// [`fifo_push`](Self::fifo_push) with an explicit sequence number
    /// for exactly-once retry (see [`eval_seq`](Self::eval_seq)).
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn fifo_push_seq(&mut self, width: u64, data: &[u64], seq: u64) -> Result<u64, String> {
        let reply = self.expect_ok(&Request::Fifo {
            session: self.session()?,
            width,
            data: data.to_vec(),
            seq,
        })?;
        Ok(reply.get("pushed").and_then(Json::as_u64).unwrap_or(0))
    }

    /// This session's statistics.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.expect_ok(&Request::Stats {
            session: Some(self.session()?),
        })
    }

    /// Server-wide statistics.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn server_stats(&mut self) -> Result<Json, String> {
        self.expect_ok(&Request::Stats { session: None })
    }

    /// This session's Prometheus-style metrics exposition.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn metrics(&mut self) -> Result<String, String> {
        let reply = self.expect_ok(&Request::Metrics {
            session: Some(self.session()?),
        })?;
        Ok(text_member(&reply))
    }

    /// The server-wide metrics exposition (all sessions merged).
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn server_metrics(&mut self) -> Result<String, String> {
        let reply = self.expect_ok(&Request::Metrics { session: None })?;
        Ok(text_member(&reply))
    }

    /// This session's trace as Chrome-trace JSONL, plus the ring's
    /// dropped-event count. `virtual_only` makes the export deterministic
    /// (virtual clock only, sorted).
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn trace_jsonl(&mut self, virtual_only: bool) -> Result<(String, u64), String> {
        let reply = self.expect_ok(&Request::Trace {
            session: Some(self.session()?),
            virtual_only,
        })?;
        let dropped = reply.get("dropped").and_then(Json::as_u64).unwrap_or(0);
        let trace = reply
            .get("trace")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        Ok((trace, dropped))
    }

    /// This session's JIT lifecycle rendered as a human-readable timeline.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn timeline(&mut self) -> Result<String, String> {
        let reply = self.expect_ok(&Request::Timeline {
            session: Some(self.session()?),
        })?;
        Ok(text_member(&reply))
    }

    /// The execution profile of this session's active engine.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn profile(&mut self) -> Result<String, String> {
        let reply = self.expect_ok(&Request::Profile {
            session: self.session()?,
        })?;
        Ok(text_member(&reply))
    }

    /// Starts a VCD waveform dump into `path`. An empty `ports` list dumps
    /// the clock and every named wire port.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn vcd_start(&mut self, path: &str, ports: &[&str]) -> Result<(), String> {
        self.expect_ok(&Request::Vcd {
            session: self.session()?,
            path: Some(path.to_string()),
            ports: ports.iter().map(|p| p.to_string()).collect(),
        })?;
        Ok(())
    }

    /// Stops the active VCD dump, returning its path if one was active.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn vcd_stop(&mut self) -> Result<Option<String>, String> {
        let reply = self.expect_ok(&Request::Vcd {
            session: self.session()?,
            path: None,
            ports: Vec::new(),
        })?;
        Ok(reply.get("path").and_then(Json::as_str).map(str::to_string))
    }

    /// Tail-latency attribution: the server's recent slow requests with
    /// their dominant-phase breakdowns. `percentile` is `p50`, `p90`, or
    /// `p99`. Returns `(text, requests_considered, coverage)` where
    /// `coverage` is the named-phase fraction of the slowest request.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn explain(&mut self, percentile: &str) -> Result<(String, u64, f64), String> {
        let reply = self.expect_ok(&Request::Explain {
            percentile: percentile.to_string(),
        })?;
        let requests = reply.get("requests").and_then(Json::as_u64).unwrap_or(0);
        let coverage = reply.get("coverage").and_then(Json::as_f64).unwrap_or(0.0);
        Ok((text_member(&reply), requests, coverage))
    }

    /// The top `n` tenants ranked by recent burn. Returns the rendered
    /// table and one JSON object per tenant (session, burn, meters).
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn server_top(&mut self, n: u64) -> Result<(String, Vec<Json>), String> {
        let reply = self.expect_ok(&Request::ServerTop { n })?;
        let tenants = reply
            .get("tenants")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default();
        Ok((text_member(&reply), tenants))
    }

    /// Subscribes this session to a live telemetry stream (`metrics` or
    /// `events`). Frames arrive as JSON lines in the session's output
    /// queue — interleave [`drain`](Self::drain) with
    /// [`take_frames`](Self::take_frames) to separate them from
    /// `$display` output. `interval_ms = 0` cancels the stream's
    /// subscription. Returns whether a subscription is now active.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn subscribe(&mut self, stream: &str, interval_ms: u64) -> Result<bool, String> {
        let reply = self.expect_ok(&Request::Subscribe {
            session: self.session()?,
            stream: stream.to_string(),
            interval_ms,
        })?;
        Ok(reply
            .get("subscribed")
            .and_then(Json::as_bool)
            .unwrap_or(false))
    }

    /// Splits drained output lines into telemetry frames and ordinary
    /// `$display` lines: `(frames, rest)`. A frame is a JSON object with
    /// a `"frame"` member (`metrics` or `events`).
    pub fn take_frames(lines: Vec<String>) -> (Vec<Json>, Vec<String>) {
        let mut frames = Vec::new();
        let mut rest = Vec::new();
        for line in lines {
            match Json::parse(&line) {
                Ok(v) if v.get("frame").and_then(Json::as_str).is_some() => frames.push(v),
                _ => rest.push(line),
            }
        }
        (frames, rest)
    }

    /// Asks the server to hibernate this session now (freeze it to an
    /// image and drop its runtime). Returns whether it actually froze —
    /// the server refuses, without error, in native mode or while a VCD
    /// dump is active. The session stays usable either way; the next
    /// command wakes it transparently.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn hibernate(&mut self) -> Result<bool, String> {
        let reply = self.expect_ok(&Request::Hibernate {
            session: self.session()?,
        })?;
        Ok(reply
            .get("hibernated")
            .and_then(Json::as_bool)
            .unwrap_or(false))
    }

    /// Closes the session.
    ///
    /// # Errors
    ///
    /// Returns the server's error message.
    pub fn close(&mut self) -> Result<(), String> {
        let id = self.session()?;
        self.expect_ok(&Request::Close { session: id })?;
        self.session = None;
        Ok(())
    }
}

fn text_member(reply: &Json) -> String {
    reply
        .get("text")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

fn string_array(reply: &Json, key: &str) -> Vec<String> {
    reply
        .get(key)
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_sets_nodelay() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpClient::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.transport.writer.nodelay().unwrap());
    }
}
