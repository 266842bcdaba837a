//! The structured trace event model.
//!
//! Every event carries **dual clocks** (paper Sec. 2: the user experiences
//! *modeled* time, the operator experiences host time):
//!
//! - `virt_ns` — modeled virtual time in nanoseconds, derived from the
//!   runtime's `VirtualWall`. Deterministic: two runs with the same seed
//!   and the same `FaultPlan` produce identical virtual timestamps.
//! - `host_ns` — host wall time in nanoseconds since the sink's epoch.
//!   Useful for profiling the host process; never deterministic.
//!
//! Events whose virtual timestamp is meaningful set [`TraceEvent::vclock`];
//! the deterministic exporter keeps only those and redacts `host_ns`/`seq`.

/// Event phase, mirroring the Chrome Trace Event Format `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span (`ph: "X"`): has a start and a duration.
    Span,
    /// A point event (`ph: "i"`).
    Instant,
    /// A sampled counter (`ph: "C"`); the value lives in `args`.
    Counter,
}

impl Phase {
    /// The Chrome trace `ph` letter.
    pub fn code(self) -> &'static str {
        match self {
            Phase::Span => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
        }
    }

    /// Parses a Chrome trace `ph` letter.
    pub fn from_code(s: &str) -> Option<Phase> {
        match s {
            "X" => Some(Phase::Span),
            "i" => Some(Phase::Instant),
            "C" => Some(Phase::Counter),
            _ => None,
        }
    }
}

/// A borrowed argument value, used at emit sites so that building the
/// argument list allocates nothing until the sink is known to be enabled.
#[derive(Debug, Clone, Copy)]
pub enum Arg<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Floating point (rates, seconds).
    F64(f64),
    /// Borrowed string.
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

/// An owned argument value, as [`TraceEvent`] carries it.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Owned string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Emission order, assigned by the sink. Not deterministic across runs
    /// when multiple threads emit concurrently.
    pub seq: u64,
    /// Track id — the Chrome trace `tid`. By convention this is the serve
    /// session id, or 0 for a standalone runtime / server-wide events.
    pub track: u64,
    /// Category (`cat`): `"jit"`, `"compile"`, `"recover"`, `"serve"`, ...
    pub cat: &'static str,
    /// Event name: `"eval"`, `"place_route"`, `"rollback_replay"`, ...
    pub name: String,
    /// Chrome trace phase.
    pub ph: Phase,
    /// Virtual (modeled) timestamp, nanoseconds.
    pub virt_ns: u64,
    /// Virtual duration for spans, nanoseconds (0 for instants/counters).
    pub virt_dur_ns: u64,
    /// Host timestamp, nanoseconds since the sink epoch.
    pub host_ns: u64,
    /// True when `virt_ns` is meaningful and deterministic; host-side
    /// bookkeeping events (session open, sweeper activity) clear this.
    pub vclock: bool,
    /// Request id this event belongs to (causal tracing); 0 = none.
    pub req: u64,
    /// Span id within the request's tree; 0 = none.
    pub span_id: u64,
    /// Parent span id; 0 = this is the request's root (or no context).
    pub parent: u64,
    /// Cross-request span link (e.g. a compile-dedup join pointing at the
    /// leader's compile span); 0 = none.
    pub link: u64,
    /// Key/value payload, preserved in emission order.
    pub args: Vec<(String, ArgValue)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_codes_round_trip() {
        for ph in [Phase::Span, Phase::Instant, Phase::Counter] {
            assert_eq!(Phase::from_code(ph.code()), Some(ph));
        }
        assert_eq!(Phase::from_code("Z"), None);
    }
}
