//! Markdown report generation for a measured trace.
//!
//! Produces the paper's per-program row set (packet sizes, interarrivals,
//! average bandwidth, burst profile, spectral summary) as a markdown
//! fragment, so harnesses and downstream tools can emit EXPERIMENTS-style
//! tables without reimplementing the formatting.

use crate::bursts::BurstProfile;
use crate::stats::Stats;
use crate::store::TraceView;
use crate::streaming::StreamingReport;
use fxnet_sim::SimTime;
use std::fmt::Write;

/// Options controlling the report.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Bandwidth bin / window (the paper's 10 ms).
    pub bin: SimTime,
    /// Quiet gap separating bursts.
    pub burst_gap: SimTime,
    /// Ignore spectral content below this frequency when reporting the
    /// dominant component.
    pub min_hz: f64,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            bin: SimTime::from_millis(10),
            burst_gap: SimTime::from_millis(120),
            min_hz: 0.1,
        }
    }
}

/// All derived quantities for one trace, computed in one pass by
/// [`StreamingReport`].
#[derive(Debug, Clone)]
pub struct TraceReport {
    pub label: String,
    pub frames: usize,
    pub span_s: f64,
    pub sizes: Option<Stats>,
    pub interarrivals_ms: Option<Stats>,
    pub avg_bandwidth: Option<f64>,
    pub bursts: Option<BurstProfile>,
    pub dominant_hz: Option<f64>,
    pub flatness: Option<f64>,
}

impl TraceReport {
    /// Analyze a time-ordered [`TraceView`] under `opts`: the view's
    /// samples pushed through [`StreamingReport`] as one chunk.
    pub fn analyze_view(
        label: impl Into<String>,
        view: TraceView<'_>,
        opts: &ReportOptions,
    ) -> TraceReport {
        let mut fold = StreamingReport::new(label, opts);
        fold.push_view(view);
        fold.finish()
    }

    /// One markdown table row:
    /// `| label | frames | span | sizes | interarrival | bw | bursts | f0 |`.
    pub fn markdown_row(&self) -> String {
        let stats4 = |s: &Option<Stats>| match s {
            Some(s) => format!("{:.0}/{:.0}/{:.0}/{:.0}", s.min, s.max, s.avg, s.sd),
            None => "-".to_string(),
        };
        let bw = self
            .avg_bandwidth
            .map_or("-".to_string(), |b| format!("{:.1}", b / 1000.0));
        let bursts = self.bursts.as_ref().map_or("-".to_string(), |b| {
            format!(
                "{}×{:.0}KB (cv {:.2})",
                b.count,
                b.sizes.avg / 1000.0,
                b.size_cv()
            )
        });
        let f0 = self
            .dominant_hz
            .map_or("-".to_string(), |f| format!("{f:.2}"));
        format!(
            "| {} | {} | {:.1} | {} | {} | {} | {} | {} |",
            self.label,
            self.frames,
            self.span_s,
            stats4(&self.sizes),
            stats4(&self.interarrivals_ms),
            bw,
            bursts,
            f0
        )
    }

    /// The header matching [`TraceReport::markdown_row`].
    pub fn markdown_header() -> String {
        "| trace | frames | span s | sizes B (min/max/avg/sd) | interarrival ms | bw KB/s | bursts | dominant Hz |\n|---|---|---|---|---|---|---|---|".to_string()
    }
}

/// Render a full markdown table for several labelled views.
pub fn markdown_table_views<'a>(
    rows: impl IntoIterator<Item = (&'a str, TraceView<'a>)>,
    opts: &ReportOptions,
) -> String {
    let mut out = TraceReport::markdown_header();
    for (label, view) in rows {
        let r = TraceReport::analyze_view(label, view, opts);
        write!(out, "\n{}", r.markdown_row()).expect("string write");
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spectrum::Periodogram;
    use crate::TraceStore;
    use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId};

    /// The report composed kernel by kernel from the view kernels, one
    /// pass over the view per quantity. The kernels share the fold's
    /// accumulators but none of its loop, so agreement says the fold
    /// interleaves them correctly; `tests/columnar_equiv.rs` holds both
    /// to record-wise reference code.
    pub(crate) fn view_oracle(
        label: &str,
        view: TraceView<'_>,
        opts: &ReportOptions,
    ) -> TraceReport {
        let spec = (!view.is_empty())
            .then(|| Periodogram::compute(&view.binned_bandwidth(opts.bin), opts.bin));
        TraceReport {
            label: label.to_string(),
            frames: view.len(),
            span_s: view
                .time_bounds()
                .map_or(0.0, |(a, b)| (b - a).as_secs_f64()),
            sizes: view.packet_sizes(),
            interarrivals_ms: view.interarrivals_ms(),
            avg_bandwidth: view.average_bandwidth(),
            bursts: view.burst_profile(opts.burst_gap),
            dominant_hz: spec
                .as_ref()
                .and_then(|s| s.dominant_frequency(opts.min_hz)),
            flatness: spec.as_ref().map(Periodogram::flatness),
        }
    }

    /// `{:?}` prints every `f64` in shortest round-trip form, so two
    /// reports render alike exactly when every field matches bit for bit.
    pub(crate) fn assert_reports_bitwise_equal(a: &TraceReport, b: &TraceReport) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.markdown_row(), b.markdown_row());
    }

    fn analyze(label: &str, trace: &[FrameRecord]) -> TraceReport {
        let store = TraceStore::from_records(trace);
        TraceReport::analyze_view(label, store.view(), &ReportOptions::default())
    }

    /// 2 Hz burst train: 20-frame bursts spanning 190 ms every 500 ms
    /// (wide bursts so the fundamental dominates the harmonics).
    fn burst_trace() -> Vec<FrameRecord> {
        let mut tr = Vec::new();
        for b in 0..10u64 {
            for i in 0..20u64 {
                let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, 1460, i);
                tr.push(FrameRecord::capture(
                    SimTime::from_millis(b * 500 + i * 10),
                    &f,
                ));
            }
        }
        tr
    }

    #[test]
    fn analyze_fills_every_field() {
        let r = analyze("demo", &burst_trace());
        assert_eq!(r.frames, 200);
        assert!(r.span_s > 4.0);
        assert_eq!(r.sizes.unwrap().max, 1518.0);
        // Longest quiet gap: 500 ms period − 190 ms burst span.
        assert!(r.interarrivals_ms.unwrap().max >= 300.0);
        assert!(r.avg_bandwidth.unwrap() > 0.0);
        let b = r.bursts.unwrap();
        assert_eq!(b.count, 10);
        assert!(b.size_cv() < 1e-9);
        let f0 = r.dominant_hz.unwrap();
        assert!((f0 - 2.0).abs() < 0.2, "dominant {f0}");
        assert!(r.flatness.unwrap() < 0.5);
    }

    #[test]
    fn empty_trace_renders_dashes() {
        let row = analyze("empty", &[]).markdown_row();
        assert!(
            row.contains("| empty | 0 | 0.0 | - | - | - | - | - |"),
            "{row}"
        );
    }

    #[test]
    fn analyze_view_is_bitwise_identical_to_analyze() {
        let opts = ReportOptions::default();
        let tr = burst_trace();
        for (label, part) in [("demo", &tr[..]), ("e", &[]), ("one", &tr[..1])] {
            let store = TraceStore::from_records(part);
            assert_reports_bitwise_equal(
                &analyze(label, part),
                &view_oracle(label, store.view(), &opts),
            );
        }
    }

    #[test]
    fn markdown_table_has_header_and_rows() {
        let store = TraceStore::from_records(&burst_trace());
        let table = markdown_table_views(
            [("a", store.view()), ("b", store.view())],
            &ReportOptions::default(),
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4); // header + separator + 2 rows
        assert!(lines[0].starts_with("| trace |"));
        assert!(lines[2].starts_with("| a |"));
        assert!(lines[3].starts_with("| b |"));
        // Every row has the same column count.
        let cols = lines[0].matches('|').count();
        assert!(lines.iter().all(|l| l.matches('|').count() == cols));
    }
}
