//! Structured watcher events; [`fxnet_telemetry::to_jsonl`] renders
//! them one per line.

use fxnet_sim::{FrameRecord, SimTime};

/// What kind of misbehavior an event reports.
///
/// `ContractViolation` is *latched*: the watcher emits at most one per
/// tenant, so a log can be checked for "exactly one violation" when
/// exactly one tenant over-drives its contract. `BurstAnomaly` is a
/// weaker, per-burst observation and may repeat (bounded by
/// [`crate::MAX_ANOMALIES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EventKind {
    ContractViolation,
    BurstAnomaly,
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventKind::ContractViolation => write!(f, "ContractViolation"),
            EventKind::BurstAnomaly => write!(f, "BurstAnomaly"),
        }
    }
}

/// One structured event, with the flight-recorder contents at the
/// moment it fired (the last N frames the watcher saw, oldest first).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WatchEvent {
    /// Event class; see [`EventKind`].
    pub kind: EventKind,
    /// Offending tenant's display name.
    pub tenant: String,
    /// Simulated time at which the check fired.
    pub time: SimTime,
    /// Which check fired: `mean-bandwidth`, `burst-volume`, or
    /// `connection-burst`.
    pub check: String,
    /// The measured quantity (bytes/s for bandwidth checks, bytes for
    /// volume checks).
    pub measured: f64,
    /// The contract-derived limit the measurement exceeded.
    pub limit: f64,
    /// Human-readable one-line summary.
    pub detail: String,
    /// Flight-recorder dump: the frames immediately preceding (and
    /// including) the triggering frame.
    pub flight_recorder: Vec<FrameRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: EventKind) -> WatchEvent {
        WatchEvent {
            kind,
            tenant: "SOR".to_string(),
            time: SimTime::from_millis(120),
            check: "burst-volume".to_string(),
            measured: 2e6,
            limit: 1e6,
            detail: "burst of 2000000 B exceeds 2x claimed cycle volume".to_string(),
            flight_recorder: Vec::new(),
        }
    }

    #[test]
    fn kind_serializes_as_its_grep_able_name() {
        let line = serde::json::to_string(&event(EventKind::ContractViolation));
        assert!(line.contains("ContractViolation"));
        assert!(!line.contains('\n'));
        let other = serde::json::to_string(&event(EventKind::BurstAnomaly));
        assert!(other.contains("BurstAnomaly") && !other.contains("ContractViolation"));
    }

    #[test]
    fn jsonl_is_one_line_per_event_and_round_trips() {
        let events = vec![
            event(EventKind::ContractViolation),
            event(EventKind::BurstAnomaly),
        ];
        let text = fxnet_telemetry::to_jsonl(&events);
        assert_eq!(text.lines().count(), 2);
        for (line, orig) in text.lines().zip(&events) {
            let back: WatchEvent = serde::json::from_str(line).unwrap();
            assert_eq!(&back, orig);
        }
    }
}
