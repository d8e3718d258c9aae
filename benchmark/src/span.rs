//! Spans recorded by the benchmark around each call into a layer's
//! public functions. They are kept in memory and written out when the
//! child ends; an untraced pass records nothing.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `parent` is the span that was open when this one
/// began; `pass` is the traced pass it belongs to, `None` for a ladder
/// drive, which is a root of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub pass: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    /// Off during untraced passes: `span` then only runs its closure.
    pub enabled: bool,
    /// Stamped on every span recorded from now on.
    pub pass: Option<u32>,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            enabled: false,
            pass: None,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span called `name`, a child of whichever span is
    /// open on entry.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            pass: self.pass,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Seconds per span name: within each traced pass the spans of one
    /// name are summed, and the median over passes is reported; the
    /// spans of a ladder drive are summed as they are.
    pub fn seconds_by_name(&self) -> BTreeMap<String, f64> {
        let mut per_pass: BTreeMap<&str, BTreeMap<Option<u32>, f64>> = BTreeMap::new();
        for s in &self.spans {
            *per_pass
                .entry(&s.name)
                .or_default()
                .entry(s.pass)
                .or_default() += s.seconds();
        }
        per_pass
            .into_iter()
            .map(|(name, passes)| {
                let sums: Vec<f64> = passes.into_values().collect();
                (name.to_string(), crate::stats::median(&sums))
            })
            .collect()
    }

    /// The share of the traced passes that no stage span covers.
    pub fn uncovered_share_of_passes(&self) -> f64 {
        let (mut total, mut uncovered) = (0.0, 0.0);
        for (span, own_s) in self.spans.iter().zip(self_seconds(&self.spans)) {
            if span.name == "pass" {
                total += span.seconds();
                uncovered += own_s;
            }
        }
        uncovered / total
    }

    /// The spans as the JSON array written to `trace_<workload>.json`.
    pub fn to_value(&self, workload: &str) -> Value {
        let opt = |v: Option<u32>| v.map_or(Value::Null, |x| Value::U64(u64::from(x)));
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("id".to_string(), Value::U64(u64::from(s.id))),
                        ("parent".to_string(), opt(s.parent)),
                        ("name".to_string(), Value::Str(s.name.clone())),
                        ("workload".to_string(), Value::Str(workload.to_string())),
                        ("pass".to_string(), opt(s.pass)),
                        ("start_ns".to_string(), Value::U64(s.start_ns)),
                        ("end_ns".to_string(), Value::U64(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus what its direct children
/// cover. Spans come from one thread, so siblings never overlap.
pub fn self_seconds(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.seconds();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, pass: Option<u32>, t: (u64, u64)) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            pass,
            start_ns: t.0,
            end_ns: t.1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, "pass", Some(0), (0, 10_000_000_000)),
            span(1, Some(0), "load", Some(0), (0, 4_000_000_000)),
            span(2, Some(1), "decode", Some(0), (0, 3_000_000_000)),
            span(3, Some(0), "scan", Some(0), (4_000_000_000, 9_000_000_000)),
        ];
        assert_eq!(self_seconds(&spans), vec![1.0, 1.0, 3.0, 5.0]);
        let t = Tracer {
            spans,
            ..Tracer::default()
        };
        assert_eq!(t.uncovered_share_of_passes(), 0.1);
    }

    #[test]
    fn nesting_follows_the_call_structure_and_untraced_records_nothing() {
        let mut t = Tracer::default();
        assert_eq!(t.span("ignored", |_| 7), 7);
        assert!(t.spans.is_empty());
        t.enabled = true;
        t.pass = Some(3);
        t.span("pass", |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.span("c", |_| ()));
        });
        t.pass = None;
        t.span("ladder", |_| ());
        let got: Vec<(&str, Option<u32>, Option<u32>)> = t
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent, s.pass))
            .collect();
        assert_eq!(
            got,
            vec![
                ("pass", None, Some(3)),
                ("a", Some(0), Some(3)),
                ("b", Some(0), Some(3)),
                ("c", Some(2), Some(3)),
                ("ladder", None, None),
            ]
        );
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let v = t.to_value("w");
        let first = &v.as_array().unwrap()[0];
        assert_eq!(first.get("parent"), Some(&Value::Null));
        assert_eq!(first.get("workload").and_then(Value::as_str), Some("w"));
    }

    #[test]
    fn seconds_by_name_sums_within_a_pass_and_takes_the_median_over_passes() {
        let t = Tracer {
            spans: vec![
                span(0, None, "drain", Some(0), (0, 1_000_000_000)),
                span(1, None, "drain", Some(0), (0, 1_000_000_000)),
                span(2, None, "drain", Some(1), (0, 4_000_000_000)),
                span(3, None, "drain", Some(2), (0, 3_000_000_000)),
                span(4, None, "replay", None, (0, 500_000_000)),
                span(5, None, "replay", None, (0, 250_000_000)),
            ],
            ..Tracer::default()
        };
        let by = t.seconds_by_name();
        assert_eq!(by["drain"], 3.0);
        assert_eq!(by["replay"], 0.75);
    }
}
