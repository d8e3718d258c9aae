//! Baseline media-style traffic sources.
//!
//! The paper's central contrast (§1, §8): QoS research of the era
//! characterized *media streams* — traffic with intrinsic frame-rate
//! periodicity, variable burst sizes, and (for aggregated VBR video)
//! self-similar scaling — whereas compiler-parallelized programs have
//! constant burst sizes and periodicity that depends on application
//! parameters and on the bandwidth the network provides. These generators
//! provide the media side of that comparison.

use fxnet_sim::{Frame, FrameKind};
use fxnet_sim::{FrameRecord, HostId, SimRng, SimTime};

fn mk_record(t: f64, size: u32, src: HostId, dst: HostId) -> FrameRecord {
    let f = Frame::tcp(src, dst, FrameKind::Data, size.saturating_sub(58), 0);
    FrameRecord {
        time: SimTime::from_secs_f64(t),
        wire_len: size,
        proto: f.proto,
        kind: f.kind,
        src,
        dst,
    }
}

/// Constant-bit-rate stream: fixed-size packets at a fixed interval (an
/// uncompressed audio/video stream).
pub fn cbr_trace(rate_bytes_per_s: f64, packet: u32, duration: SimTime) -> Vec<FrameRecord> {
    assert!(rate_bytes_per_s > 0.0 && packet > 0);
    let interval = f64::from(packet) / rate_bytes_per_s;
    let dur = duration.as_secs_f64();
    let mut out = Vec::new();
    let mut t = 0.0;
    while t < dur {
        out.push(mk_record(t, packet, HostId(0), HostId(1)));
        t += interval;
    }
    out
}

/// On/off VBR stream: exponentially distributed on and off periods; while
/// on, packets flow at `peak_bytes_per_s` (a compressed video source with
/// scene-dependent rate).
pub fn onoff_vbr_trace(
    peak_bytes_per_s: f64,
    mean_on_s: f64,
    mean_off_s: f64,
    packet: u32,
    duration: SimTime,
    rng: &mut SimRng,
) -> Vec<FrameRecord> {
    let dur = duration.as_secs_f64();
    let interval = f64::from(packet) / peak_bytes_per_s;
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut on = true;
    while t < dur {
        let period = if on {
            rng.exponential(mean_on_s)
        } else {
            rng.exponential(mean_off_s)
        };
        if on {
            let mut pt = t;
            while pt < (t + period).min(dur) {
                out.push(mk_record(pt, packet, HostId(0), HostId(1)));
                pt += interval;
            }
        }
        t += period;
        on = !on;
    }
    out
}

/// Self-similar aggregate: `sources` independent Pareto on/off streams
/// (Garrett & Willinger's construction for VBR video). Heavy-tailed on
/// periods with shape `alpha ∈ (1, 2)` produce long-range dependence with
/// Hurst exponent `H = (3 − α) / 2`.
pub fn self_similar_trace(
    sources: usize,
    per_source_bytes_per_s: f64,
    alpha: f64,
    mean_period_s: f64,
    packet: u32,
    duration: SimTime,
    rng: &mut SimRng,
) -> Vec<FrameRecord> {
    assert!(
        alpha > 1.0 && alpha < 2.0,
        "need infinite-variance on times"
    );
    let dur = duration.as_secs_f64();
    let interval = f64::from(packet) / per_source_bytes_per_s;
    // Pareto scale so the mean period is mean_period_s: mean = xm·α/(α−1).
    let xm = mean_period_s * (alpha - 1.0) / alpha;
    let mut out = Vec::new();
    for s in 0..sources {
        let src = HostId(s as u32 % 8);
        let mut t = rng.unit() * mean_period_s; // stagger the sources
        let mut on = s % 2 == 0;
        while t < dur {
            let period = rng.pareto(xm, alpha);
            if on {
                let mut pt = t;
                while pt < (t + period).min(dur) {
                    out.push(mk_record(pt, packet, src, HostId(8)));
                    pt += interval;
                }
            }
            t += period;
            on = !on;
        }
    }
    out.sort_by_key(|r| r.time);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_trace::{Periodogram, TraceStore};

    const BIN: SimTime = SimTime(10_000_000);

    #[test]
    fn cbr_rate_is_exact() {
        let tr = cbr_trace(100_000.0, 1000, SimTime::from_secs(10));
        let bytes: u64 = tr.iter().map(|r| u64::from(r.wire_len)).sum();
        assert!((bytes as f64 / 10.0 - 100_000.0).abs() < 2000.0);
        // Perfectly regular interarrivals.
        let s = TraceStore::from_records(&tr)
            .view()
            .interarrivals_ms()
            .unwrap();
        assert!(s.sd < 1e-6, "CBR jitter {}", s.sd);
    }

    #[test]
    fn vbr_is_burstier_than_cbr() {
        let mut rng = SimRng::new(11);
        let vbr = onoff_vbr_trace(400_000.0, 0.3, 0.7, 1000, SimTime::from_secs(30), &mut rng);
        let cbr = cbr_trace(120_000.0, 1000, SimTime::from_secs(30));
        let b_vbr = TraceStore::from_records(&vbr)
            .view()
            .interarrivals_ms()
            .unwrap()
            .burstiness();
        let b_cbr = TraceStore::from_records(&cbr)
            .view()
            .interarrivals_ms()
            .unwrap()
            .burstiness();
        assert!(b_vbr > 5.0 * b_cbr, "vbr {b_vbr} vs cbr {b_cbr}");
    }

    #[test]
    fn media_spectra_are_flatter_than_periodic_bursts() {
        // The paper's claim, inverted into a test: a periodic parallel-
        // style burst train has a far less flat (spikier) spectrum than
        // on/off media traffic of the same average rate.
        let mut rng = SimRng::new(5);
        let vbr = onoff_vbr_trace(500_000.0, 0.4, 0.6, 1000, SimTime::from_secs(60), &mut rng);
        let vbr_series = TraceStore::from_records(&vbr).view().binned_bandwidth(BIN);
        let periodic: Vec<f64> = (0..vbr_series.len())
            .map(|i| if (i / 20) % 5 == 0 { 1_000_000.0 } else { 0.0 })
            .collect();
        let f_vbr = Periodogram::compute(&vbr_series, BIN).flatness();
        let f_par = Periodogram::compute(&periodic, BIN).flatness();
        assert!(f_vbr > 3.0 * f_par, "vbr {f_vbr} vs parallel {f_par}");
    }

    #[test]
    fn self_similar_produces_traffic_at_expected_volume() {
        let mut rng = SimRng::new(23);
        let tr = self_similar_trace(
            16,
            50_000.0,
            1.5,
            0.5,
            500,
            SimTime::from_secs(30),
            &mut rng,
        );
        assert!(!tr.is_empty());
        // ~half the sources on at any time → ~16·50k/2 = 400 KB/s.
        let bytes: u64 = tr.iter().map(|r| u64::from(r.wire_len)).sum();
        let rate = bytes as f64 / 30.0;
        assert!(rate > 100_000.0 && rate < 800_000.0, "rate {rate}");
    }

    #[test]
    fn generators_are_deterministic() {
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            onoff_vbr_trace(1e5, 0.5, 0.5, 800, SimTime::from_secs(5), &mut rng)
        };
        assert_eq!(run(1), run(1));
    }
}
