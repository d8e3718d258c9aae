//! Live `[l, b, c]` estimation over streaming burst detection.
//!
//! The batch path (`TraceView::detect_bursts` followed by
//! `fxnet_qos::estimate::estimate_traffic`) needs the whole trace in
//! memory. The watcher instead folds each frame into running sums as it
//! arrives, through the same [`BurstSegmenter`] the batch detector runs:
//! a burst is open while consecutive frames are no more than the
//! configured quiet gap apart, and closes — updating the running
//! estimate — when the gap is exceeded or the stream ends. O(1) state
//! per stream.

use fxnet_sim::SimTime;
use fxnet_trace::{Burst, BurstSegmenter};

/// The live traffic estimate, in the vocabulary of the QoS descriptor:
/// the tenant *behaves as if* it had handed the network this `[l, b, c]`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LiveEstimate {
    /// Completed bursts observed.
    pub bursts: u64,
    /// Mean burst length, seconds (`t_b`).
    pub t_burst: f64,
    /// Mean start-to-start burst interval, seconds (`t_bi`).
    pub t_interval: f64,
    /// Implied local computation per cycle: `t_bi − t_b`, clamped ≥ 0.
    pub local_s: f64,
    /// Mean bytes per burst per connection (the effective `b(P)`).
    pub burst_bytes: f64,
    /// Effective long-run load: mean cycle volume over mean interval,
    /// bytes/s.
    pub mean_bw: f64,
}

/// O(1)-state streaming burst detector with running `[l, b, c]` sums.
#[derive(Debug, Clone)]
pub struct BurstEstimator {
    segmenter: BurstSegmenter,
    prev_start: Option<SimTime>,
    closed: u64,
    sum_burst_s: f64,
    sum_interval_s: f64,
    intervals: u64,
    sum_bytes: f64,
}

impl BurstEstimator {
    /// A detector splitting bursts at quiet gaps longer than `gap`.
    pub fn new(gap: SimTime) -> BurstEstimator {
        assert!(gap > SimTime::ZERO, "burst gap must be positive");
        BurstEstimator {
            segmenter: BurstSegmenter::new(gap),
            prev_start: None,
            closed: 0,
            sum_burst_s: 0.0,
            sum_interval_s: 0.0,
            intervals: 0,
            sum_bytes: 0.0,
        }
    }

    /// Fold one frame in; returns the burst this frame closed, if any,
    /// with its 0-based index in the stream.
    pub fn push(&mut self, time: SimTime, wire_len: u32) -> Option<(u64, Burst)> {
        let b = self.segmenter.push(time, wire_len)?;
        Some(self.close(b))
    }

    /// Close the trailing burst at end of stream, if one is open.
    pub fn finish(&mut self) -> Option<(u64, Burst)> {
        let b = self.segmenter.finish()?;
        Some(self.close(b))
    }

    fn close(&mut self, b: Burst) -> (u64, Burst) {
        let index = self.closed;
        self.closed += 1;
        self.sum_burst_s += b.duration();
        self.sum_bytes += b.bytes as f64;
        if let Some(prev) = self.prev_start {
            self.sum_interval_s += (b.start.saturating_sub(prev)).as_secs_f64();
            self.intervals += 1;
        }
        self.prev_start = Some(b.start);
        (index, b)
    }

    /// Completed bursts so far.
    pub fn bursts(&self) -> u64 {
        self.closed
    }

    /// Current estimate, spreading each burst over `connections`
    /// simplex connections. Needs at least two completed bursts (one
    /// interval), like the batch estimator.
    pub fn estimate(&self, connections: u32) -> Option<LiveEstimate> {
        if self.closed < 2 || self.intervals == 0 {
            return None;
        }
        let t_burst = self.sum_burst_s / self.closed as f64;
        let t_interval = self.sum_interval_s / self.intervals as f64;
        let cycle_bytes = self.sum_bytes / self.closed as f64;
        Some(LiveEstimate {
            bursts: self.closed,
            t_burst,
            t_interval,
            local_s: (t_interval - t_burst).max(0.0),
            burst_bytes: cycle_bytes / f64::from(connections.max(1)),
            mean_bw: if t_interval > 0.0 {
                cycle_bytes / t_interval
            } else {
                0.0
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn splits_bursts_at_the_quiet_gap() {
        let mut e = BurstEstimator::new(ms(10));
        // Two frames 1 ms apart, then a 50 ms gap, then one more.
        assert!(e.push(ms(0), 1000).is_none());
        assert!(e.push(ms(1), 1000).is_none());
        let (index, b) = e.push(ms(51), 500).expect("gap closes the first burst");
        assert_eq!(b.bytes, 2000);
        assert_eq!(b.packets, 2);
        assert_eq!(index, 0);
        assert_eq!((b.start, b.end), (ms(0), ms(1)));
        let (index, tail) = e.finish().expect("trailing burst");
        assert_eq!(tail.bytes, 500);
        assert_eq!(index, 1);
        assert!(e.finish().is_none());
    }

    #[test]
    fn estimate_matches_the_periodic_construction() {
        // Perfectly periodic: 3 frames over 2 ms every 100 ms.
        let mut e = BurstEstimator::new(ms(10));
        for cycle in 0..5u64 {
            for j in 0..3u64 {
                e.push(ms(cycle * 100 + j), 1000);
            }
        }
        e.finish();
        let est = e.estimate(2).expect("five bursts seen");
        assert_eq!(est.bursts, 5);
        assert!((est.t_interval - 0.1).abs() < 1e-12);
        assert!((est.t_burst - 0.002).abs() < 1e-12);
        assert!((est.local_s - 0.098).abs() < 1e-12);
        assert!((est.burst_bytes - 1500.0).abs() < 1e-9); // 3000 B over 2 conns
        assert!((est.mean_bw - 30_000.0).abs() < 1e-6);
    }

    #[test]
    fn fewer_than_two_bursts_yields_no_estimate() {
        let mut e = BurstEstimator::new(ms(10));
        e.push(ms(0), 100);
        e.push(ms(1), 100);
        e.finish();
        assert!(e.estimate(1).is_none());
    }

    #[test]
    fn boundary_matches_batch_detector_rule() {
        // detect_bursts merges frames whose spacing is <= gap; the
        // first strictly-larger spacing starts a new burst.
        let mut e = BurstEstimator::new(ms(10));
        e.push(ms(0), 100);
        assert!(e.push(ms(10), 100).is_none(), "exact-gap spacing merges");
        let closed = e.push(SimTime::from_micros(20_001), 100);
        assert!(closed.is_some(), "spacing beyond the gap must split");
    }

    /// One trace, three detectors — the view kernel, the report fold and
    /// the live estimator — split it at the same frames: a gap of exactly
    /// `gap` merges, `gap + 1 ns` splits.
    #[test]
    fn view_fold_and_estimator_agree_on_the_gap_boundary() {
        use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId};
        use fxnet_trace::{ReportOptions, TraceReport, TraceStore};
        let gap = ms(10);
        let one_ns = SimTime::from_nanos(1);
        let mut times = vec![SimTime::ZERO, gap];
        times.push(times[1] + gap + one_ns);
        times.push(times[2] + SimTime::from_micros(1));
        times.push(times[3] + gap + one_ns);
        times.push(times[4] + gap);
        let trace: Vec<FrameRecord> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, 100 * i as u32, 0);
                FrameRecord::capture(t, &f)
            })
            .collect();
        let store = TraceStore::from_records(&trace);

        let batch = store.view().detect_bursts(gap);
        let spans: Vec<(SimTime, SimTime)> = batch.iter().map(|b| (b.start, b.end)).collect();
        assert_eq!(
            spans,
            vec![
                (times[0], times[1]),
                (times[2], times[3]),
                (times[4], times[5])
            ]
        );

        let opts = ReportOptions {
            burst_gap: gap,
            ..ReportOptions::default()
        };
        let folded = TraceReport::analyze_view("t", store.view(), &opts)
            .bursts
            .expect("bursts");
        let want = store.view().burst_profile(gap).expect("bursts");
        assert_eq!(folded.count, 3);
        assert_eq!(
            (folded.count, folded.sizes, folded.intervals),
            (want.count, want.sizes, want.intervals)
        );

        let mut e = BurstEstimator::new(gap);
        let mut live: Vec<Burst> = trace
            .iter()
            .filter_map(|r| e.push(r.time, r.wire_len))
            .map(|(_, b)| b)
            .collect();
        live.extend(e.finish().map(|(_, b)| b));
        assert_eq!(live, batch);
    }

    #[test]
    fn streaming_bursts_equal_batch_bursts() {
        use fxnet_sim::{Frame, FrameKind, HostId};
        // An irregular but deterministic spacing pattern.
        let mut t = 0u64;
        let mut trace = Vec::new();
        for i in 0..200u64 {
            t += 137 * ((i * i) % 97) + 1; // µs steps, some beyond the gap
            let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, (i % 1400) as u32, i);
            trace.push(fxnet_sim::FrameRecord::capture(SimTime::from_micros(t), &f));
        }
        let gap = ms(2);
        let batch = fxnet_trace::TraceStore::from_records(&trace)
            .view()
            .detect_bursts(gap);
        let mut e = BurstEstimator::new(gap);
        let mut stream: Vec<(u64, Burst)> = trace
            .iter()
            .filter_map(|r| e.push(r.time, r.wire_len))
            .collect();
        stream.extend(e.finish());
        let indices: Vec<u64> = stream.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..batch.len() as u64).collect::<Vec<_>>());
        let bursts: Vec<Burst> = stream.into_iter().map(|(_, b)| b).collect();
        assert_eq!(bursts, batch);
    }
}
