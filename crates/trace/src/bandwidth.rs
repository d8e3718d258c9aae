//! Lifetime bandwidth and the batch side of static binning.
//!
//! [`Lifetime`] is the one accumulator behind the lifetime average
//! (Figure 5) — [`crate::TraceView::average_bandwidth`],
//! [`crate::TraceView::time_bounds`] and the report fold all push into
//! it. [`binned_from`] runs [`crate::StreamBinner`] over a view, with a
//! sort for the rare view that is not in time order.

use crate::stream::StreamBinner;
use fxnet_sim::SimTime;

/// Lifetime totals of a frame stream: earliest and latest capture time
/// and bytes carried. Accepts frames in any order, so an unsorted view
/// yields its true lifetime rather than a wrong (or negative) span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lifetime {
    n: usize,
    t_min: u64,
    t_max: u64,
    bytes: u64,
}

impl Lifetime {
    pub(crate) fn new() -> Lifetime {
        Lifetime {
            n: 0,
            t_min: u64::MAX,
            t_max: 0,
            bytes: 0,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, time_ns: u64, wire_len: u32) {
        self.n += 1;
        self.t_min = self.t_min.min(time_ns);
        self.t_max = self.t_max.max(time_ns);
        self.bytes += u64::from(wire_len);
    }

    /// Earliest and latest capture time, `None` before any frame.
    pub(crate) fn bounds(&self) -> Option<(SimTime, SimTime)> {
        (self.n > 0).then(|| {
            (
                SimTime::from_nanos(self.t_min),
                SimTime::from_nanos(self.t_max),
            )
        })
    }

    /// Average bandwidth in bytes/second over the observed lifetime;
    /// `None` for streams spanning zero time.
    pub(crate) fn average(&self) -> Option<f64> {
        let (lo, hi) = self.bounds()?;
        let span = (hi - lo).as_secs_f64();
        (span > 0.0).then(|| self.bytes as f64 / span)
    }
}

/// Static binning of `(time_ns, wire_len)` samples on the grid anchored
/// at the earliest one. A time-ordered stream (every capture) is one
/// pass through a [`StreamBinner`]. A sample out of time order is
/// detected on the fly, and the samples are then binned once more after
/// a sort: integer byte sums do not depend on the order they are added
/// in. `make` must yield the same samples each time it is called.
pub(crate) fn binned_from<I>(mut make: impl FnMut() -> I, bin: SimTime) -> Vec<f64>
where
    I: Iterator<Item = (u64, u32)>,
{
    bin_ordered(make(), bin).unwrap_or_else(|| {
        let mut sorted: Vec<(u64, u32)> = make().collect();
        sorted.sort_unstable_by_key(|&(t, _)| t);
        bin_ordered(sorted.into_iter(), bin).expect("sorted samples are in time order")
    })
}

/// Bin a stream through a [`StreamBinner`]; `None` at the first sample
/// earlier than its predecessor.
fn bin_ordered(samples: impl Iterator<Item = (u64, u32)>, bin: SimTime) -> Option<Vec<f64>> {
    let mut binner = StreamBinner::new(bin);
    let mut last = 0u64;
    for (t, len) in samples {
        if t < last {
            return None;
        }
        last = t;
        binner.push(SimTime::from_nanos(t), len);
    }
    Some(binner.finish())
}

#[cfg(test)]
mod tests {
    use crate::TraceStore;
    use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId, SimTime};
    use proptest::prelude::*;

    fn rec(t: SimTime, size: u32) -> FrameRecord {
        let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, size - 58, 0);
        FrameRecord::capture(t, &f)
    }

    fn average_bandwidth(tr: &[FrameRecord]) -> Option<f64> {
        TraceStore::from_records(tr).view().average_bandwidth()
    }

    fn binned_bandwidth(tr: &[FrameRecord], bin: SimTime) -> Vec<f64> {
        TraceStore::from_records(tr).view().binned_bandwidth(bin)
    }

    fn sliding_window_bandwidth(tr: &[FrameRecord], window: SimTime) -> Vec<(SimTime, f64)> {
        TraceStore::from_records(tr)
            .view()
            .sliding_window_bandwidth(window)
    }

    #[test]
    fn average_over_span() {
        let tr = vec![
            rec(SimTime::ZERO, 1000),
            rec(SimTime::from_secs(1), 1000),
            rec(SimTime::from_secs(2), 1000),
        ];
        // 3000 bytes over 2 seconds.
        assert_eq!(average_bandwidth(&tr), Some(1500.0));
    }

    #[test]
    fn average_degenerate_cases() {
        assert_eq!(average_bandwidth(&[]), None);
        assert_eq!(average_bandwidth(&[rec(SimTime::ZERO, 100)]), None);
    }

    #[test]
    fn sliding_window_counts_recent_bytes() {
        let w = SimTime::from_millis(10);
        let tr = vec![
            rec(SimTime::from_millis(0), 500),
            rec(SimTime::from_millis(5), 500),
            rec(SimTime::from_millis(20), 500),
        ];
        let bw = sliding_window_bandwidth(&tr, w);
        assert_eq!(bw.len(), 3);
        // First point: 500 B in 10 ms.
        assert_eq!(bw[0].1, 50_000.0);
        // Second: both packets inside the window.
        assert_eq!(bw[1].1, 100_000.0);
        // Third: the early packets fell out of the window.
        assert_eq!(bw[2].1, 50_000.0);
    }

    #[test]
    fn binned_distributes_packets() {
        let bin = SimTime::from_millis(10);
        let tr = vec![
            rec(SimTime::from_millis(0), 100),
            rec(SimTime::from_millis(3), 100),
            rec(SimTime::from_millis(25), 100),
        ];
        let b = binned_bandwidth(&tr, bin);
        assert_eq!(b.len(), 3);
        assert_eq!(b[0], 20_000.0); // 200 B / 10 ms
        assert_eq!(b[1], 0.0);
        assert_eq!(b[2], 10_000.0);
    }

    #[test]
    fn binned_empty() {
        assert!(binned_bandwidth(&[], SimTime::from_millis(10)).is_empty());
    }

    #[test]
    fn average_handles_unsorted_traces() {
        // Same three frames as `average_over_span`, delivered out of
        // order: the span must still be the true 2-second lifetime.
        let tr = vec![
            rec(SimTime::from_secs(2), 1000),
            rec(SimTime::ZERO, 1000),
            rec(SimTime::from_secs(1), 1000),
        ];
        assert_eq!(average_bandwidth(&tr), Some(1500.0));
    }

    #[test]
    fn binned_handles_unsorted_traces() {
        let bin = SimTime::from_millis(10);
        let sorted = vec![
            rec(SimTime::from_millis(0), 100),
            rec(SimTime::from_millis(3), 100),
            rec(SimTime::from_millis(25), 100),
        ];
        let mut shuffled = sorted.clone();
        shuffled.swap(0, 2);
        assert_eq!(
            binned_bandwidth(&shuffled, bin),
            binned_bandwidth(&sorted, bin)
        );
    }

    proptest! {
        #[test]
        fn binned_conserves_total_bytes(
            times in prop::collection::vec(0u64..1_000_000u64, 1..200),
            sizes in prop::collection::vec(58u32..1518, 1..200),
        ) {
            let mut ts: Vec<u64> = times;
            ts.sort_unstable();
            let tr: Vec<FrameRecord> = ts
                .iter()
                .zip(sizes.iter().cycle())
                .map(|(&t, &s)| rec(SimTime::from_micros(t), s))
                .collect();
            let bin = SimTime::from_millis(10);
            let b = binned_bandwidth(&tr, bin);
            let total_from_bins: f64 = b.iter().sum::<f64>() * bin.as_secs_f64();
            let total: u64 = tr.iter().map(|r| u64::from(r.wire_len)).sum();
            prop_assert!((total_from_bins - total as f64).abs() < 1e-6 * total as f64 + 1e-6);
        }

        #[test]
        fn binned_and_average_are_order_independent(
            times in prop::collection::vec(0u64..1_000_000u64, 1..200),
            sizes in prop::collection::vec(58u32..1518, 1..200),
        ) {
            let tr: Vec<FrameRecord> = times
                .iter()
                .zip(sizes.iter().cycle())
                .map(|(&t, &s)| rec(SimTime::from_micros(t), s))
                .collect();
            let mut sorted = tr.clone();
            sorted.sort_by_key(|r| r.time);
            let bin = SimTime::from_millis(10);
            prop_assert_eq!(binned_bandwidth(&tr, bin), binned_bandwidth(&sorted, bin));
            prop_assert_eq!(average_bandwidth(&tr), average_bandwidth(&sorted));
        }

        #[test]
        fn sliding_window_is_nonnegative_and_bounded(
            times in prop::collection::vec(0u64..100_000u64, 2..100),
        ) {
            let mut ts = times;
            ts.sort_unstable();
            let tr: Vec<FrameRecord> = ts
                .iter()
                .map(|&t| rec(SimTime::from_micros(t), 1518))
                .collect();
            let w = SimTime::from_millis(10);
            let bw = sliding_window_bandwidth(&tr, w);
            prop_assert_eq!(bw.len(), tr.len());
            for (_, v) in bw {
                prop_assert!(v >= 0.0);
                // Cannot exceed all bytes in one window.
                prop_assert!(v <= tr.len() as f64 * 1518.0 / w.as_secs_f64());
            }
        }
    }
}
