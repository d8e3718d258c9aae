//! Cross-connection correlation (§7.1).
//!
//! "The synchronized communication phases of an Fx program imply that its
//! connections act in phase" — the traffic along the active connections
//! is *correlated*, and any traffic model must capture this. This module
//! measures it: Pearson correlation between the binned bandwidth series
//! of different connections, and the mean pairwise correlation over all
//! busy connections of a trace.

use crate::store::TraceView;
use crate::stream::bin_index;
use fxnet_sim::SimTime;

/// Pearson correlation of two equal-sampled series, compared over their
/// common prefix. `None` if either side is constant or too short.
pub fn correlation(a: &[f64], b: &[f64]) -> Option<f64> {
    let n = a.len().min(b.len());
    if n < 2 {
        return None;
    }
    let (a, b) = (&a[..n], &b[..n]);
    let ma = a.iter().sum::<f64>() / n as f64;
    let mb = b.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return None;
    }
    Some(cov / (va * vb).sqrt())
}

/// Mean pairwise correlation of the binned bandwidth of every connection
/// carrying at least `min_frames` frames. All per-connection series are
/// placed on the same absolute time base so "in phase" is meaningful.
/// `None` if fewer than two connections qualify.
///
/// Connections are zero-copy views off the store's connection index, so
/// `view` must cover its whole store (it panics otherwise).
pub fn mean_connection_correlation(
    view: TraceView<'_>,
    bin: SimTime,
    min_frames: usize,
) -> Option<f64> {
    let store = view.store();
    assert_eq!(view.len(), store.len(), "a whole-store view");
    let (t0, t_end) = view.time_bounds()?;
    let bin_ns = bin.as_nanos();
    let span_bins = (bin_index(t_end.as_nanos(), t0.as_nanos(), bin_ns) + 1) as usize;
    let mut series: Vec<Vec<f64>> = Vec::new();
    for ((src, dst), count) in view.host_pairs() {
        if count < min_frames {
            continue;
        }
        let conn = store.connection(src, dst);
        // Rebase onto the shared time origin: prepend the offset.
        let first = conn.record(0).time.as_nanos();
        let mut s = vec![0.0; bin_index(first, t0.as_nanos(), bin_ns) as usize];
        s.extend(conn.binned_bandwidth(bin));
        s.resize(span_bins, 0.0);
        series.push(s);
    }
    if series.len() < 2 {
        return None;
    }
    let mut sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..series.len() {
        for j in 0..i {
            if let Some(c) = correlation(&series[i], &series[j]) {
                sum += c;
                pairs += 1;
            }
        }
    }
    (pairs > 0).then(|| sum / pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStore;
    use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId};

    fn mean_correlation(tr: &[FrameRecord], bin: SimTime, min_frames: usize) -> Option<f64> {
        mean_connection_correlation(TraceStore::from_records(tr).view(), bin, min_frames)
    }

    fn rec(src: u32, dst: u32, t_ms: u64, size: u32) -> FrameRecord {
        let f = Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, size - 58, 0);
        FrameRecord::capture(SimTime::from_millis(t_ms), &f)
    }

    #[test]
    fn correlation_of_identical_series_is_one() {
        let a = vec![1.0, 5.0, 2.0, 8.0, 3.0];
        assert!((correlation(&a, &a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_of_negated_series_is_minus_one() {
        let a = vec![1.0, 5.0, 2.0, 8.0];
        let b: Vec<f64> = a.iter().map(|v| -v).collect();
        assert!((correlation(&a, &b).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_has_no_correlation() {
        assert!(correlation(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(correlation(&[1.0], &[2.0]).is_none());
    }

    #[test]
    fn in_phase_connections_correlate() {
        // Two connections bursting in the same 100 ms windows.
        let mut tr = Vec::new();
        for burst in 0..10u64 {
            for i in 0..5u64 {
                tr.push(rec(0, 1, burst * 100 + i, 1518));
                tr.push(rec(2, 3, burst * 100 + i, 1518));
            }
        }
        tr.sort_by_key(|r| r.time);
        let c = mean_correlation(&tr, SimTime::from_millis(10), 5).unwrap();
        assert!(c > 0.8, "in-phase correlation {c}");
    }

    #[test]
    fn anti_phase_connections_anticorrelate() {
        let mut tr = Vec::new();
        for burst in 0..10u64 {
            for i in 0..5u64 {
                tr.push(rec(0, 1, burst * 100 + i, 1518));
                tr.push(rec(2, 3, burst * 100 + 50 + i, 1518));
            }
        }
        tr.sort_by_key(|r| r.time);
        let c = mean_correlation(&tr, SimTime::from_millis(10), 5).unwrap();
        assert!(c < 0.1, "anti-phase correlation {c}");
    }

    #[test]
    fn min_frames_filters_quiet_pairs() {
        let mut tr = Vec::new();
        for i in 0..20u64 {
            tr.push(rec(0, 1, i * 10, 1000));
        }
        tr.push(rec(2, 3, 55, 1000)); // one stray frame
        tr.sort_by_key(|r| r.time);
        // Only one connection qualifies → no pairwise correlation.
        assert!(mean_correlation(&tr, SimTime::from_millis(10), 5).is_none());
    }

    #[test]
    #[should_panic(expected = "a whole-store view")]
    fn a_subset_view_is_rejected() {
        // The connections would come from the whole store, not the subset.
        let tr: Vec<FrameRecord> = (0..4)
            .map(|i| rec(i % 2, 1 - i % 2, i as u64, 100))
            .collect();
        let store = TraceStore::from_records(&tr);
        mean_connection_correlation(store.select(&[0, 1]), SimTime::from_millis(10), 1);
    }

    #[test]
    fn empty_trace_is_none() {
        assert!(mean_correlation(&[], SimTime::from_millis(10), 1).is_none());
    }
}
