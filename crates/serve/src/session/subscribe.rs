//! Live telemetry: `subscribe metrics|events` streams, whose frames the
//! sweeper delivers through the session's bounded output queue (a slow
//! consumer sheds oldest-first, accounted like any other output).

use super::*;

/// Events per `subscribe events` frame (bounds frame size, not delivery:
/// the next due frame resumes from the last delivered sequence number).
const EVENTS_FRAME_CAP: usize = 256;

/// What a `subscribe` delivers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SubStream {
    Metrics,
    Events,
}

/// One live telemetry subscription on a session.
pub(super) struct Subscription {
    stream: SubStream,
    interval: Duration,
    next_at: Instant,
    /// High-water mark of delivered trace events (`events` stream).
    last_seq: u64,
}

impl Server {
    /// Adds (interval > 0) or cancels (interval 0) a live telemetry
    /// subscription on a session.
    pub(super) fn subscribe(&self, session: u64, stream: &str, interval_ms: u64) -> Json {
        let s = match self.shared.accepting(session) {
            Ok(s) => s,
            Err(refused) => return refused,
        };
        let st = match stream {
            "metrics" => SubStream::Metrics,
            "events" => SubStream::Events,
            other => return err(format!("unknown stream `{other}` (want metrics|events)")),
        };
        let mut subs = s.subs.lock_unpoisoned();
        subs.retain(|sub| sub.stream != st);
        let subscribed = interval_ms > 0;
        if subscribed {
            // Event streams start after the ring's newest event:
            // subscribers see what happens next, not history.
            let last_seq = self.shared.trace.emitted().saturating_sub(1);
            subs.push(Subscription {
                stream: st,
                interval: Duration::from_millis(interval_ms),
                next_at: Instant::now(),
                last_seq,
            });
        }
        ok([("subscribed", subscribed.into()), ("stream", stream.into())])
    }
}

/// Delivers due telemetry frames for one session's subscriptions as
/// newline-JSON lines in its output queue.
pub(super) fn service(shared: &Shared, session: &Session) {
    let now = Instant::now();
    let mut frames: Vec<String> = Vec::new();
    {
        let mut subs = session.subs.lock_unpoisoned();
        if subs.is_empty() {
            return;
        }
        for sub in subs.iter_mut() {
            if now < sub.next_at {
                continue;
            }
            sub.next_at = now + sub.interval;
            match sub.stream {
                SubStream::Metrics => {
                    // The tenant's meters and burn: cheap enough to stream
                    // every interval without touching the session worker.
                    let (_, _, row) = meter::tenant_row(shared, session);
                    let frame = [("frame", "metrics".into())].into_iter().chain(row);
                    frames.push(Json::obj(frame).to_string());
                }
                SubStream::Events => {
                    let events: Vec<TraceEvent> = shared
                        .trace
                        .snapshot()
                        .into_iter()
                        .filter(|e| e.track == session.id && e.seq > sub.last_seq)
                        .take(EVENTS_FRAME_CAP)
                        .collect();
                    let Some(last) = events.last() else {
                        continue;
                    };
                    sub.last_seq = last.seq;
                    let lines: Vec<Json> = export_jsonl(&events, TimeMode::Full)
                        .lines()
                        .map(|l| Json::Str(l.to_string()))
                        .collect();
                    frames.push(
                        Json::obj([
                            ("frame", "events".into()),
                            ("session", session.id.into()),
                            ("events", Json::Arr(lines)),
                        ])
                        .to_string(),
                    );
                }
            }
        }
    }
    execute::push_output(shared, session, frames);
}
