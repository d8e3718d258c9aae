//! Live `[l, b, c]` estimation over streaming burst detection.
//!
//! The watcher folds each frame into [`BurstEstimator`]'s running sums
//! as it arrives. It is the one traffic estimator of `fxnet_qos::estimate`,
//! so the live `[l, b, c]` and the §7.3 estimate of a whole trace
//! (`fxnet_qos::estimate::estimate_traffic`) are the same arithmetic.

pub use fxnet_qos::estimate::{BurstEstimator, LiveEstimate};

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::SimTime;
    use fxnet_trace::Burst;

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
