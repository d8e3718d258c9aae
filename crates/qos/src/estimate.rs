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

use crate::descriptor::AppDescriptor;
use fxnet_fx::Pattern;
use fxnet_sim::SimTime;
use fxnet_trace::{BurstProfile, TraceView};

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

/// Extract point estimates from a trace measured at `p` processors,
/// segmenting its bursts once, split at quiet gaps longer than `gap`.
/// Returns `None` when the trace has fewer than two bursts (no interval
/// to measure).
pub fn estimate_traffic(trace: TraceView<'_>, p: u32, gap: SimTime) -> Option<TrafficEstimate> {
    let bursts = trace.detect_bursts(gap);
    let t_burst = bursts.iter().map(|b| b.duration()).sum::<f64>() / bursts.len() as f64;
    let profile = BurstProfile::of_bursts(bursts)?;
    let intervals = profile.intervals?;
    Some(TrafficEstimate {
        p,
        burst_bytes: profile.sizes.avg,
        t_burst,
        t_interval: intervals.avg,
        local_s: (intervals.avg - t_burst).max(0.0),
        burst_size_cv: profile.size_cv(),
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
