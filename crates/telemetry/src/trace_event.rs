//! The one Chrome trace-event record every Perfetto artifact is made of.
//!
//! Critical-path slices (`fxnet-causal`) and weather counter tracks
//! (`fxnet-metrics`) are both `Vec<TraceEvent>`, so a caller merges them
//! into one file by concatenating and re-homes them by assigning `pid`.
//! The serialized JSON loads in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`; absent fields are left out, not written as `null`.

use serde::Serialize;

/// One trace event. Times are microseconds, as the format expects.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    pub name: String,
    /// `"M"` metadata, `"X"` complete slice or `"C"` counter sample.
    pub ph: &'static str,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub ts: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub dur: Option<f64>,
    /// The process (track group) the event belongs to.
    pub pid: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tid: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub args: Option<TraceArgs>,
}

/// The `args` of a trace event: a process name for metadata, or the
/// one series a counter sample carries.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TraceArgs {
    #[serde(skip_serializing_if = "Option::is_none")]
    pub name: Option<String>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub utilization: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    pub frames: Option<u64>,
}

fn micros(ns: u64) -> Option<f64> {
    Some(ns as f64 / 1000.0)
}

impl TraceEvent {
    /// `process_name` metadata: process `pid` is labelled `name`.
    pub fn process_name(pid: u64, name: &str) -> TraceEvent {
        TraceEvent {
            name: "process_name".to_string(),
            ph: "M",
            ts: None,
            dur: None,
            pid,
            tid: None,
            args: Some(TraceArgs {
                name: Some(name.to_string()),
                ..TraceArgs::default()
            }),
        }
    }

    /// A complete slice `[ts_ns, ts_ns + dur_ns)` on thread `tid` of
    /// process `pid`.
    pub fn slice(name: String, ts_ns: u64, dur_ns: u64, pid: u64, tid: u64) -> TraceEvent {
        TraceEvent {
            name,
            ph: "X",
            ts: micros(ts_ns),
            dur: micros(dur_ns),
            pid,
            tid: Some(tid),
            args: None,
        }
    }

    /// A sample of counter track `name` at `ts_ns`, on process 0.
    pub fn counter(name: String, ts_ns: u64, args: TraceArgs) -> TraceEvent {
        TraceEvent {
            name,
            ph: "C",
            ts: micros(ts_ns),
            dur: None,
            pid: 0,
            tid: None,
            args: Some(args),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_fields_are_left_out() {
        let json = |e: &TraceEvent| serde::json::to_string(e);
        assert_eq!(
            json(&TraceEvent::process_name(1, "SOR")),
            r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"SOR"}}"#
        );
        assert_eq!(
            json(&TraceEvent::slice("wire".into(), 1500, 20_000, 0, 2)),
            r#"{"name":"wire","ph":"X","ts":1.5,"dur":20.0,"pid":0,"tid":2}"#
        );
        let depth = TraceArgs {
            frames: Some(3),
            ..TraceArgs::default()
        };
        assert_eq!(
            json(&TraceEvent::counter("depth h0".into(), 0, depth)),
            r#"{"name":"depth h0","ph":"C","ts":0.0,"pid":0,"args":{"frames":3}}"#
        );
    }
}
