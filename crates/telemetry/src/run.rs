//! Per-run telemetry container and JSON export.

use crate::profile::SimProfile;
use crate::registry::TelemetryRegistry;
use crate::span::SpanRecord;
use serde::{Serialize, Value};

/// Everything telemetry captured for one SPMD run.
///
/// The deterministic part (spans + registry) is a pure function of the
/// run configuration and seed; the profile is wall-clock and varies
/// between runs, so it is excluded from [`RunTelemetry::to_value`] and
/// only appears in the human-readable [`RunTelemetry::summary`].
#[derive(Debug, Default)]
pub struct RunTelemetry {
    pub spans: Vec<SpanRecord>,
    pub registry: TelemetryRegistry,
    pub profile: Option<SimProfile>,
}

impl RunTelemetry {
    /// Deterministic JSON value: spans and the counter registry.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("spans".to_string(), self.spans.to_value()),
            ("registry".to_string(), self.registry.to_value()),
        ])
    }

    /// Human-readable summary: registry table plus the profile, if any.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("telemetry: {} spans\n", self.spans.len()));
        out.push_str(&self.registry.table());
        if let Some(profile) = &self.profile {
            out.push_str("profile (wall-clock, non-deterministic):\n");
            out.push_str(&profile.summary());
        }
        out
    }
}

/// Write `value` as JSON to `path` (pretty, trailing newline), creating
/// parent directories as needed.
pub fn write_json_artifact(
    path: impl AsRef<std::path::Path>,
    value: &(impl Serialize + ?Sized),
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut text = serde::json::to_string_pretty(value);
    text.push('\n');
    std::fs::write(path, text)
}

/// Render records as JSON Lines: one compact JSON value per line, in
/// order. Deterministic because the serializer keeps field order.
pub fn to_jsonl<T: Serialize>(records: impl IntoIterator<Item = T>) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde::json::to_string(&r));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;
    use fxnet_sim::SimTime;

    #[test]
    fn deterministic_value_excludes_profile() {
        let mut a = RunTelemetry::default();
        a.registry.set_counter("tcp.segments", 5);
        a.spans.push(SpanRecord {
            rank: 0,
            name: "exchange".into(),
            kind: SpanKind::Collective,
            begin: SimTime::from_micros(1),
            end: SimTime::from_micros(2),
        });
        let mut b = RunTelemetry::default();
        b.registry.set_counter("tcp.segments", 5);
        b.spans = a.spans.clone();
        b.profile = Some(SimProfile {
            wall: std::time::Duration::from_secs(123),
            sim_seconds: 1.0,
            ..Default::default()
        });
        assert_eq!(
            serde::json::to_string(&a.to_value()),
            serde::json::to_string(&b.to_value()),
        );
        assert!(b.summary().contains("profile"));
    }
}
