//! Deriving a `[l(P), b(P), c]` descriptor from a measured trace.
//!
//! The paper assumes the Fx compiler can emit the characterization at
//! compile time. When it cannot (a binary-only program, or a run of an
//! already-deployed code), the same parameters are recoverable from one
//! measured trace at a known `P`: the burst profile gives the burst size
//! `N` and the burst interval `t_bi`; subtracting the observed burst
//! length `t_b` recovers the local computation time `l(P) = t_bi − t_b`.
//! Scaling assumptions (embarrassingly parallel work, fixed or
//! `1/P`-scaled messages) then extend the point estimate to a full
//! descriptor the network can negotiate against.
//!
//! There is one estimator, [`BurstEstimator`]: it folds each frame into
//! running sums as it arrives, through the same [`BurstSegmenter`] the
//! trace kernels run. A burst is open while consecutive frames are no
//! more than the quiet gap apart, and closes — updating the running
//! estimate — when the gap is exceeded or the stream ends. O(1) state
//! per stream. The live watcher feeds it frame by frame;
//! [`estimate_traffic`] is the same fold over a whole trace.

use crate::descriptor::AppDescriptor;
use fxnet_fx::Pattern;
use fxnet_sim::SimTime;
use fxnet_trace::{Burst, BurstSegmenter, TraceView};

/// Point estimates extracted from one measured run at a known `P`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrafficEstimate {
    /// Processor count of the measured run.
    pub p: u32,
    /// Per-cycle aggregate burst size, bytes.
    pub burst_bytes: f64,
    /// Mean burst length `t_b`, seconds.
    pub t_burst: f64,
    /// Mean burst interval `t_bi`, seconds.
    pub t_interval: f64,
    /// Recovered local computation time `l(P) = t_bi − t_b`, seconds.
    pub local_s: f64,
    /// Coefficient of variation of burst sizes — near zero for the
    /// constant-burst programs this model is valid for.
    pub burst_size_cv: f64,
}

/// How the program's message sizes scale with the processor count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum BurstScaling {
    /// Per-connection bursts independent of `P` (SOR's O(N) rows).
    Constant,
    /// Total volume fixed; per-connection bursts shrink with the
    /// connection count (2DFFT's O((N/P)²) blocks).
    FixedTotal,
}

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
    sum_sq_bytes: f64,
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
            sum_sq_bytes: 0.0,
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
        self.sum_sq_bytes += (b.bytes as f64).powi(2);
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
    /// interval).
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

    /// Coefficient of variation of the completed bursts' sizes (the
    /// population standard deviation over the mean; 0 before any burst
    /// or when every burst is empty).
    pub fn size_cv(&self) -> f64 {
        if self.sum_bytes == 0.0 {
            return 0.0;
        }
        let n = self.closed as f64;
        let mean = self.sum_bytes / n;
        (self.sum_sq_bytes / n - mean * mean).max(0.0).sqrt() / mean
    }
}

/// Extract point estimates from a trace measured at `p` processors:
/// [`BurstEstimator`] folded over the trace, splitting bursts at quiet
/// gaps longer than `gap`. Returns `None` when the trace has fewer than
/// two bursts (no interval to measure); panics on a zero `gap`, as
/// [`BurstEstimator::new`] does.
pub fn estimate_traffic(trace: TraceView<'_>, p: u32, gap: SimTime) -> Option<TrafficEstimate> {
    let mut e = BurstEstimator::new(gap);
    for (t, len) in trace.samples() {
        e.push(SimTime::from_nanos(t), len);
    }
    e.finish();
    let live = e.estimate(1)?;
    Some(TrafficEstimate {
        p,
        burst_bytes: live.burst_bytes,
        t_burst: live.t_burst,
        t_interval: live.t_interval,
        local_s: live.local_s,
        burst_size_cv: e.size_cv(),
    })
}

/// Build a negotiable [`AppDescriptor`] from a measured estimate:
/// `l(P)` assumes perfectly divisible work (`l(P) = l(p₀)·p₀/P`), and
/// `b(P)` follows the chosen scaling. The aggregate burst is split over
/// the connections the pattern uses at the measured `P`.
pub fn estimate_descriptor(
    est: &TrafficEstimate,
    pattern: Pattern,
    scaling: BurstScaling,
) -> AppDescriptor {
    let conns_at_p0 = pattern.connection_count(est.p).max(1) as f64;
    let per_conn_at_p0 = est.burst_bytes / conns_at_p0;
    let total = est.burst_bytes;
    let p0 = f64::from(est.p);
    let local_p0 = est.local_s;
    let pattern_for_burst = pattern.clone();
    AppDescriptor {
        pattern,
        local: Box::new(move |p| local_p0 * p0 / f64::from(p)),
        burst: Box::new(move |p| match scaling {
            BurstScaling::Constant => per_conn_at_p0 as u64,
            BurstScaling::FixedTotal => {
                let conns = pattern_for_burst.connection_count(p).max(1) as f64;
                (total / conns) as u64
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negotiate::negotiate;
    use crate::network::QosNetwork;
    use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId};
    use fxnet_trace::TraceStore;

    fn estimate(tr: &[FrameRecord], p: u32, gap: SimTime) -> Option<TrafficEstimate> {
        estimate_traffic(TraceStore::from_records(tr).view(), p, gap)
    }

    /// A synthetic shift-pattern trace: bursts of `frames` full packets
    /// every `period_ms`, alternating over the ring connections.
    fn shift_trace(
        cycles: usize,
        frames: usize,
        period_ms: u64,
        burst_ms: u64,
    ) -> Vec<FrameRecord> {
        let mut out = Vec::new();
        for c in 0..cycles {
            for f in 0..frames {
                let src = (f % 4) as u32;
                let t = SimTime::from_micros(
                    c as u64 * period_ms * 1000 + f as u64 * burst_ms * 1000 / frames as u64,
                );
                let frame =
                    Frame::tcp(HostId(src), HostId((src + 1) % 4), FrameKind::Data, 1460, 0);
                out.push(FrameRecord::capture(t, &frame));
            }
        }
        out
    }

    #[test]
    fn estimates_recover_synthetic_parameters() {
        // 800 ms period, 200 ms bursts of 100 full frames.
        let tr = shift_trace(10, 100, 800, 200);
        let est = estimate(&tr, 4, SimTime::from_millis(100)).unwrap();
        assert_eq!(est.p, 4);
        assert!(
            (est.t_interval - 0.8).abs() < 0.05,
            "t_bi {}",
            est.t_interval
        );
        assert!((est.t_burst - 0.2).abs() < 0.05, "t_b {}", est.t_burst);
        assert!((est.local_s - 0.6).abs() < 0.08, "l {}", est.local_s);
        assert!((est.burst_bytes - 151_800.0).abs() < 1.0);
        assert!(est.burst_size_cv < 0.01, "constant bursts");
    }

    #[test]
    fn burst_size_cv_is_the_profiles() {
        // Bursts of 10, 30 and 20 full frames: the running second moment
        // must give the burst profile's population CV.
        let mut tr = Vec::new();
        for (c, frames) in [10usize, 30, 20, 10, 30, 20].into_iter().enumerate() {
            tr.extend(shift_trace(1, frames, 800, 200).into_iter().map(|mut r| {
                r.time += SimTime::from_millis(800 * c as u64);
                r
            }));
        }
        let gap = SimTime::from_millis(100);
        let est = estimate(&tr, 4, gap).unwrap();
        let store = TraceStore::from_records(&tr);
        let want = store.view().burst_profile(gap).unwrap().size_cv();
        assert!(want > 0.3, "bursts differ in size: cv {want}");
        assert!(
            (est.burst_size_cv - want).abs() < 1e-12,
            "{} vs {want}",
            est.burst_size_cv
        );
    }

    #[test]
    fn too_few_bursts_is_none() {
        let tr = shift_trace(1, 10, 800, 200);
        assert!(estimate(&tr, 4, SimTime::from_millis(100)).is_none());
        assert!(estimate(&[], 4, SimTime::from_millis(100)).is_none());
    }

    #[test]
    fn descriptor_reproduces_measured_point() {
        let tr = shift_trace(10, 100, 800, 200);
        let est = estimate(&tr, 4, SimTime::from_millis(100)).unwrap();
        let app = estimate_descriptor(&est, Pattern::Shift { k: 1 }, BurstScaling::Constant);
        // At the measured P, the descriptor's l matches the estimate.
        assert!(((app.local)(4) - est.local_s).abs() < 1e-9);
        // Work scales 1/P.
        assert!(((app.local)(8) - est.local_s / 2.0).abs() < 1e-9);
        // Constant scaling: per-connection burst independent of P.
        assert_eq!((app.burst)(4), (app.burst)(16));
    }

    #[test]
    fn fixed_total_scaling_shrinks_bursts_with_connections() {
        let tr = shift_trace(10, 100, 800, 200);
        let est = estimate(&tr, 4, SimTime::from_millis(100)).unwrap();
        let app = estimate_descriptor(&est, Pattern::AllToAll, BurstScaling::FixedTotal);
        assert!((app.burst)(8) < (app.burst)(4));
    }

    #[test]
    fn measured_descriptor_is_negotiable() {
        let tr = shift_trace(10, 100, 800, 200);
        let est = estimate(&tr, 4, SimTime::from_millis(100)).unwrap();
        let app = estimate_descriptor(&est, Pattern::Shift { k: 1 }, BurstScaling::Constant);
        let deal = negotiate(&app, &QosNetwork::ethernet_10mbps(), 1..=16).expect("admissible");
        assert!(deal.p >= 1);
        assert!(deal.timing.t_interval > 0.0);
    }
}
