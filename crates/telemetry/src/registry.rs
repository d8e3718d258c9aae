//! The unified counter/gauge registry.
//!
//! Every layer of the stack (MAC, TCP, PVM, engine) snapshots its
//! counters into one [`TelemetryRegistry`] at the end of a run, under
//! dotted names (`mac.collisions`, `tcp.segments`, `pvm.fragments`,
//! `engine.events.send`, ...). Keys are kept in a `BTreeMap`, so
//! iteration order — and therefore JSON export — is deterministic.

use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// A flat, deterministic map of named counters (u64) and gauges (f64).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl TelemetryRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a counter to an absolute value (snapshot style).
    pub fn set_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Read a counter; missing counters read as zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Read a gauge; missing gauges read as NaN-free zero.
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Render as an aligned two-column text table, grouped by the dotted
    /// prefix (one blank line between groups).
    pub fn table(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        let mut last_group: Option<&str> = None;
        let mut rows: Vec<(&str, String)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), v.to_string()))
            .collect();
        rows.extend(
            self.gauges
                .iter()
                .map(|(k, v)| (k.as_str(), format!("{v:.3}"))),
        );
        rows.sort_by(|a, b| a.0.cmp(b.0));
        for (key, value) in rows {
            let group = key.split('.').next().unwrap_or(key);
            if let Some(prev) = last_group {
                if prev != group {
                    out.push('\n');
                }
            }
            last_group = Some(group);
            out.push_str(&format!("  {key:<width$}  {value}\n"));
        }
        out
    }
}

impl Serialize for TelemetryRegistry {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "counters".to_string(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::U64(v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Value::F64(v)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = TelemetryRegistry::new();
        r.set_counter("tcp.segments", 3);
        r.set_counter("tcp.segments", 7);
        r.set_counter("mac.collisions", 9);
        r.set_gauge("engine.events_per_sec", 1.5);
        assert_eq!(r.counter("tcp.segments"), 7);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("engine.events_per_sec"), 1.5);
        let table = r.table();
        assert!(table.contains("tcp.segments"));
        assert!(table.contains('7'));
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let mut a = TelemetryRegistry::new();
        a.set_counter("z.last", 1);
        a.set_counter("a.first", 2);
        let mut b = TelemetryRegistry::new();
        b.set_counter("a.first", 2);
        b.set_counter("z.last", 1);
        assert_eq!(serde::json::to_string(&a), serde::json::to_string(&b));
        let text = serde::json::to_string(&a);
        assert!(text.find("a.first").unwrap() < text.find("z.last").unwrap());
    }
}
