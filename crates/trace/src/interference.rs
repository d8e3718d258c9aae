//! Interference metrics for multi-tenant runs.
//!
//! When several compiler-parallelized programs share one Ethernet
//! (`fxnet-mix`), each one still emits the periodic burst train the paper
//! measures — but the shared medium couples them. Three observable
//! effects are quantified here, each comparing a tenant's *mixed* trace
//! (demuxed out of the shared capture) against its *solo* baseline run:
//!
//! * **Slowdown** — wall-clock dilation of the whole program,
//!   `t_mixed / t_solo`. The QoS model of §7.3 predicts this from the
//!   bandwidth split; `fxnet-mix` prints both side by side.
//! * **Burst collisions** — how many of the tenant's communication
//!   bursts overlap in time with another tenant's bursts. Collisions are
//!   where the medium is actually contended; a collision-free mix means
//!   the burst trains interleave.
//! * **Spectral interference** — contention perturbs the burst schedule,
//!   which shows up in the periodogram as the dominant spike moving to a
//!   lower frequency (phases stretch) and power smearing out of the
//!   spikes into the floor (burst timing becomes irregular).

use crate::bursts::Burst;
use crate::spectrum::Periodogram;

/// Wall-clock slowdown of a mixed run relative to the solo baseline
/// (`>= 1` when sharing hurts). Returns 1.0 if the solo duration is
/// degenerate.
pub fn slowdown(mixed_secs: f64, solo_secs: f64) -> f64 {
    if solo_secs <= 0.0 {
        1.0
    } else {
        mixed_secs / solo_secs
    }
}

/// Count bursts of `a` that overlap in time with at least one burst of
/// `b`. Both inputs must be start-ordered (as produced by
/// [`crate::TraceView::detect_bursts`]); the sweep is O(|a| + |b|).
pub fn burst_collisions(a: &[Burst], b: &[Burst]) -> usize {
    let mut collisions = 0;
    let mut j = 0;
    for x in a {
        // Skip b-bursts that end before x starts.
        while j < b.len() && b[j].end < x.start {
            j += 1;
        }
        // x collides iff some remaining b-burst starts before x ends.
        if j < b.len() && b[j].start <= x.end {
            collisions += 1;
        }
    }
    collisions
}

/// How much of the spectrum's AC power sits in its `k` strongest spikes.
/// Near 1 for the paper's sparse "spiky" spectra; drops as interference
/// smears power into the floor.
pub fn spectral_concentration(p: &Periodogram, k: usize) -> f64 {
    let total = p.total_power();
    if total <= 0.0 {
        return 1.0;
    }
    let in_spikes: f64 = p.top_spikes(k, 0.0).iter().map(|s| s.power).sum();
    (in_spikes / total).min(1.0)
}

/// Spectral comparison of a tenant's solo and mixed traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralInterference {
    /// Dominant frequency of the solo run (Hz).
    pub solo_peak_hz: f64,
    /// Dominant frequency of the same program under the mix (Hz).
    pub mixed_peak_hz: f64,
    /// `mixed - solo`: negative when contention stretches the phases.
    pub peak_shift_hz: f64,
    /// Top-spike power concentration of the solo spectrum.
    pub solo_concentration: f64,
    /// Top-spike power concentration of the mixed spectrum.
    pub mixed_concentration: f64,
    /// `solo - mixed` concentration: positive when interference smears
    /// spike power into the spectral floor.
    pub smearing: f64,
}

impl SpectralInterference {
    /// Compare two periodograms. `min_hz` masks the low-frequency bins
    /// when hunting for the dominant spike (long-run trends otherwise
    /// drown the burst fundamental); `k` spikes define concentration.
    /// `None` if either spectrum has no spike above `min_hz`.
    pub fn compare(
        solo: &Periodogram,
        mixed: &Periodogram,
        min_hz: f64,
        k: usize,
    ) -> Option<SpectralInterference> {
        let solo_peak_hz = solo.dominant_frequency(min_hz)?;
        let mixed_peak_hz = mixed.dominant_frequency(min_hz)?;
        let solo_concentration = spectral_concentration(solo, k);
        let mixed_concentration = spectral_concentration(mixed, k);
        Some(SpectralInterference {
            solo_peak_hz,
            mixed_peak_hz,
            peak_shift_hz: mixed_peak_hz - solo_peak_hz,
            solo_concentration,
            mixed_concentration,
            smearing: solo_concentration - mixed_concentration,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::SimTime;

    fn burst(start_ms: u64, end_ms: u64) -> Burst {
        Burst {
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            bytes: 1000,
            packets: 1,
        }
    }

    #[test]
    fn slowdown_ratio() {
        assert!((slowdown(3.0, 2.0) - 1.5).abs() < 1e-12);
        assert!((slowdown(2.0, 2.0) - 1.0).abs() < 1e-12);
        assert_eq!(slowdown(1.0, 0.0), 1.0);
    }

    #[test]
    fn interleaved_bursts_do_not_collide() {
        let a = vec![burst(0, 10), burst(100, 110), burst(200, 210)];
        let b = vec![burst(50, 60), burst(150, 160)];
        assert_eq!(burst_collisions(&a, &b), 0);
        assert_eq!(burst_collisions(&b, &a), 0);
    }

    #[test]
    fn overlapping_bursts_collide() {
        let a = vec![burst(0, 10), burst(100, 110), burst(200, 210)];
        let b = vec![burst(5, 15), burst(205, 220)];
        assert_eq!(burst_collisions(&a, &b), 2);
        assert_eq!(burst_collisions(&b, &a), 2);
        // Touching endpoints count as a collision (the medium is busy).
        let c = vec![burst(10, 20)];
        assert_eq!(burst_collisions(&a, &c), 1);
    }

    #[test]
    fn one_long_burst_collides_with_many() {
        let a = vec![burst(0, 1000)];
        let b = vec![burst(10, 20), burst(500, 510), burst(900, 910)];
        assert_eq!(burst_collisions(&a, &b), 1); // a's single burst collides
        assert_eq!(burst_collisions(&b, &a), 3); // all three of b collide
    }

    fn tone(f: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * f * i as f64 * 0.01).cos())
            .collect()
    }

    #[test]
    fn peak_shift_detects_stretched_phases() {
        let dt = SimTime::from_millis(10);
        let solo = Periodogram::compute(&tone(5.0, 2048, 3.0), dt);
        let mixed = Periodogram::compute(&tone(4.0, 2048, 3.0), dt);
        let si = SpectralInterference::compare(&solo, &mixed, 0.5, 5).unwrap();
        assert!((si.solo_peak_hz - 5.0).abs() < 2.0 * solo.df);
        assert!((si.mixed_peak_hz - 4.0).abs() < 2.0 * mixed.df);
        assert!(si.peak_shift_hz < 0.0, "shift {}", si.peak_shift_hz);
    }

    #[test]
    fn smearing_detects_power_leaving_the_spikes() {
        let dt = SimTime::from_millis(10);
        // 6.25 Hz is an exact FFT bin (128 of 2048 at 100 Hz sampling),
        // so the clean tone has no leakage and concentration ≈ 1.
        let clean = tone(6.25, 2048, 3.0);
        // Same tone buried in deterministic pseudo-noise.
        let noisy: Vec<f64> = clean
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                v + ((z >> 32) % 600) as f64 / 100.0 - 3.0
            })
            .collect();
        let solo = Periodogram::compute(&clean, dt);
        let mixed = Periodogram::compute(&noisy, dt);
        let si = SpectralInterference::compare(&solo, &mixed, 0.5, 5).unwrap();
        assert!(si.solo_concentration > 0.9, "{}", si.solo_concentration);
        assert!(si.smearing > 0.0, "smearing {}", si.smearing);
    }

    #[test]
    fn empty_burst_lists() {
        assert_eq!(burst_collisions(&[], &[burst(0, 10)]), 0);
        assert_eq!(burst_collisions(&[burst(0, 10)], &[]), 0);
    }
}
