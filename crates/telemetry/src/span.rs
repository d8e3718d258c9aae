//! Phase-span records: which phase each rank was in, in simulated time.
//!
//! The SPMD engine emits one [`SpanRecord`] per completed phase on each
//! rank: local compute phases, named collective communication phases
//! (opened by the application or by the `fxnet-fx` collective helpers),
//! and engine-detected blocking intervals (blocked on a `recv`, on a full
//! send buffer, or at a barrier). Spans carry simulated-time begin/end
//! stamps, so they compose exactly with the packet trace.

use fxnet_sim::SimTime;
use serde::{Deserialize, Serialize};

/// What kind of phase a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpanKind {
    /// A local computation phase.
    Compute,
    /// A named communication phase (a compiler-generated collective).
    Collective,
    /// Blocked waiting for an incoming message.
    BlockedRecv,
    /// Blocked on a full sender-side socket buffer.
    BlockedSend,
    /// Blocked waiting for a barrier to complete.
    Barrier,
}

impl SpanKind {
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Collective => "collective",
            SpanKind::BlockedRecv => "blocked_recv",
            SpanKind::BlockedSend => "blocked_send",
            SpanKind::Barrier => "barrier",
        }
    }
}

/// One completed phase on one rank, `[begin, end]` in simulated time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    pub rank: u32,
    pub name: String,
    pub kind: SpanKind,
    pub begin: SimTime,
    pub end: SimTime,
}

impl SpanRecord {
    pub fn duration(&self) -> SimTime {
        SimTime::from_nanos(self.end.as_nanos().saturating_sub(self.begin.as_nanos()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_round_trips_through_json() {
        let s = SpanRecord {
            rank: 3,
            name: "neighbor_exchange".into(),
            kind: SpanKind::Collective,
            begin: SimTime::from_micros(10),
            end: SimTime::from_micros(25),
        };
        let text = serde::json::to_string(&s);
        let back: SpanRecord = serde::json::from_str(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.duration(), SimTime::from_micros(15));
    }
}
