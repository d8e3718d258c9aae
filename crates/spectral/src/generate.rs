//! Synthetic traffic generation from a Fourier bandwidth model.
//!
//! Given a [`FourierModel`] fitted to a measured kernel, emit a packet
//! trace whose windowed bandwidth follows the model — "analytic models to
//! generate similar traffic" (abstract). A planner can replay
//! 2DFFT-shaped load against a network design without running 2DFFT.

use crate::fourier::FourierModel;
use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId, SimRng, SimTime};

/// Packet-level shaping for the synthesized trace.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Source/destination stamped on the generated records.
    pub src: HostId,
    pub dst: HostId,
    /// Bin used to integrate the model into byte quotas.
    pub bin: SimTime,
    /// Maximum frame size; quotas are emitted as full frames plus one
    /// remainder (mirroring MSS segmentation).
    pub max_frame: u32,
    /// Minimum frame size (protocol floor).
    pub min_frame: u32,
    /// Jitter applied to packet spacing inside a bin, as a fraction of
    /// the even spacing (0 = perfectly regular).
    pub jitter: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            src: HostId(0),
            dst: HostId(1),
            bin: SimTime::from_millis(10),
            max_frame: 1518,
            min_frame: 58,
            jitter: 0.1,
        }
    }
}

/// Generate `duration` of synthetic traffic following `model`.
///
/// Each bin's byte quota is `model.eval(t) · bin`; the quota is emitted
/// as max-size frames plus a remainder, evenly spaced with optional
/// jitter. Fractional bytes carry over between bins so long-run volume is
/// conserved.
pub fn synthesize_trace(
    model: &FourierModel,
    duration: SimTime,
    cfg: &SynthConfig,
    rng: &mut SimRng,
) -> Vec<FrameRecord> {
    let bin_s = cfg.bin.as_secs_f64();
    let nbins = (duration.as_nanos() / cfg.bin.as_nanos()) as usize;
    let mut out = Vec::new();
    let mut carry = 0.0f64;
    for b in 0..nbins {
        let t0 = b as f64 * bin_s;
        let mut budget = model.eval(t0) * bin_s + carry;
        let mut frames: Vec<u32> = Vec::new();
        while budget >= f64::from(cfg.max_frame) {
            frames.push(cfg.max_frame);
            budget -= f64::from(cfg.max_frame);
        }
        if budget >= f64::from(cfg.min_frame) {
            let sz = budget as u32;
            frames.push(sz);
            budget -= f64::from(sz);
        }
        carry = budget;
        let n = frames.len();
        for (i, sz) in frames.into_iter().enumerate() {
            let even = (i as f64 + 0.5) / n as f64;
            let jit = (rng.unit() - 0.5) * cfg.jitter / n as f64;
            let frac = (even + jit).clamp(0.0, 0.999_999);
            let t = SimTime::from_secs_f64(t0 + frac * bin_s);
            let frame = Frame::tcp(cfg.src, cfg.dst, FrameKind::Data, sz - 58, 0);
            out.push(FrameRecord {
                time: t,
                wire_len: sz,
                proto: frame.proto,
                kind: frame.kind,
                src: cfg.src,
                dst: cfg.dst,
            });
        }
    }
    out.sort_by_key(|r| r.time);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_trace::{Periodogram, TraceStore};

    fn model_with(mean: f64, freq: f64, amp: f64) -> FourierModel {
        FourierModel {
            mean,
            spikes: vec![fxnet_trace::Spike {
                freq,
                power: amp * amp,
                coeff_re: amp / 2.0,
                coeff_im: 0.0,
            }],
        }
    }

    #[test]
    fn volume_matches_model_mean() {
        let m = model_with(200_000.0, 2.0, 80_000.0);
        let mut rng = SimRng::new(1);
        let tr = synthesize_trace(
            &m,
            SimTime::from_secs(20),
            &SynthConfig::default(),
            &mut rng,
        );
        let bytes: u64 = tr.iter().map(|r| u64::from(r.wire_len)).sum();
        let rate = bytes as f64 / 20.0;
        assert!(
            (rate - 200_000.0).abs() < 10_000.0,
            "long-run rate {rate} B/s"
        );
    }

    #[test]
    fn spectrum_of_generated_traffic_has_model_spike() {
        let m = model_with(300_000.0, 4.0, 150_000.0);
        let mut rng = SimRng::new(7);
        let tr = synthesize_trace(
            &m,
            SimTime::from_secs(40),
            &SynthConfig::default(),
            &mut rng,
        );
        let series = TraceStore::from_records(&tr)
            .view()
            .binned_bandwidth(SimTime::from_millis(10));
        let p = Periodogram::compute(&series, SimTime::from_millis(10));
        let f = p.dominant_frequency(0.5).unwrap();
        assert!((f - 4.0).abs() < 0.2, "regenerated dominant {f} Hz");
    }

    #[test]
    fn quiet_model_emits_nothing() {
        let m = FourierModel {
            mean: 0.0,
            spikes: vec![],
        };
        let mut rng = SimRng::new(3);
        let tr = synthesize_trace(&m, SimTime::from_secs(5), &SynthConfig::default(), &mut rng);
        assert!(tr.is_empty());
    }

    #[test]
    fn frames_respect_size_bounds_and_order() {
        let m = model_with(500_000.0, 1.0, 400_000.0);
        let mut rng = SimRng::new(9);
        let cfg = SynthConfig::default();
        let tr = synthesize_trace(&m, SimTime::from_secs(10), &cfg, &mut rng);
        assert!(!tr.is_empty());
        for r in &tr {
            assert!(r.wire_len >= cfg.min_frame && r.wire_len <= cfg.max_frame);
        }
        assert!(tr.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let m = model_with(100_000.0, 3.0, 50_000.0);
        let gen = |seed| {
            let mut rng = SimRng::new(seed);
            synthesize_trace(&m, SimTime::from_secs(5), &SynthConfig::default(), &mut rng)
        };
        assert_eq!(gen(5), gen(5));
        assert_ne!(gen(5), gen(6));
    }
}
