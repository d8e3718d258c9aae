//! Power spectra (periodograms) of the binned bandwidth, and spike
//! extraction.
//!
//! "These spectra directly correspond to the Fourier series coefficients
//! needed to reconstruct the instantaneous average bandwidth at any point
//! in time. Interestingly, these spectra are rather sparse and 'spiky',
//! which means the Fourier expansion can be limited to important spikes"
//! (abstract, §7.2). The full complex coefficients are retained so that
//! `fxnet-spectral` can build those truncated analytic models.

use fxnet_numerics::{fft, Complex};
use fxnet_sim::SimTime;
use serde::{Deserialize, Serialize};

/// One spectral spike: a dominant frequency component.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spike {
    /// Frequency in Hz.
    pub freq: f64,
    /// Periodogram power at that bin.
    pub power: f64,
    /// The complex Fourier coefficient (for signal reconstruction).
    pub coeff_re: f64,
    pub coeff_im: f64,
}

/// The periodogram of an evenly sampled bandwidth series.
#[derive(Debug, Clone)]
pub struct Periodogram {
    /// Frequency resolution (Hz per bin).
    pub df: f64,
    /// `|X(f)|²` for DC through Nyquist.
    pub power: Vec<f64>,
    /// Complex spectrum (same indexing), normalized by the sample count
    /// so coefficients are Fourier-series amplitudes.
    coeffs: Vec<Complex>,
    /// Mean of the input signal (the DC term, removed before the FFT).
    pub mean: f64,
    /// Number of (unpadded) input samples.
    pub n_samples: usize,
}

impl Periodogram {
    /// Compute the periodogram of `series` sampled every `dt`. The mean
    /// is removed first (the paper's interesting structure is the
    /// periodicity, not the DC offset); it is kept in [`Periodogram::mean`]
    /// for reconstruction. The series is zero-padded to a power of two.
    pub fn compute(series: &[f64], dt: SimTime) -> Periodogram {
        assert!(!series.is_empty(), "empty series");
        let dt_s = dt.as_secs_f64();
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        let n = series.len().next_power_of_two();
        let mut buf = vec![Complex::ZERO; n];
        for (b, &s) in buf.iter_mut().zip(series) {
            *b = Complex::real(s - mean);
        }
        fft(&mut buf);
        let half = n / 2 + 1;
        let scale = 1.0 / series.len() as f64;
        let coeffs: Vec<Complex> = buf[..half].iter().map(|z| z.scale(scale)).collect();
        let power = buf[..half].iter().map(|z| z.norm_sq()).collect();
        Periodogram {
            df: 1.0 / (n as f64 * dt_s),
            power,
            coeffs,
            mean,
            n_samples: series.len(),
        }
    }

    /// Frequency of bin `i` in Hz.
    pub fn freq(&self, i: usize) -> f64 {
        i as f64 * self.df
    }

    /// The complex Fourier coefficient at bin `i`.
    pub fn coeff(&self, i: usize) -> Complex {
        self.coeffs[i]
    }

    /// Total spectral energy (excluding DC, which was removed).
    pub fn total_power(&self) -> f64 {
        self.power.iter().sum()
    }

    /// Extract up to `k` dominant spikes: local maxima ranked by power,
    /// separated by at least `min_sep_hz`. This is the "important spikes"
    /// selection of §7.2.
    pub fn top_spikes(&self, k: usize, min_sep_hz: f64) -> Vec<Spike> {
        let mut candidates: Vec<usize> = (1..self.power.len().saturating_sub(1))
            .filter(|&i| self.power[i] >= self.power[i - 1] && self.power[i] >= self.power[i + 1])
            .collect();
        candidates.sort_by(|&a, &b| {
            self.power[b]
                .partial_cmp(&self.power[a])
                .expect("power is finite")
        });
        let mut picked: Vec<usize> = Vec::new();
        for i in candidates {
            if picked.len() >= k {
                break;
            }
            if picked
                .iter()
                .all(|&j| (self.freq(i) - self.freq(j)).abs() >= min_sep_hz)
            {
                picked.push(i);
            }
        }
        picked
            .into_iter()
            .map(|i| Spike {
                freq: self.freq(i),
                power: self.power[i],
                coeff_re: self.coeffs[i].re,
                coeff_im: self.coeffs[i].im,
            })
            .collect()
    }

    /// The strongest spike's frequency (the fundamental or dominant
    /// harmonic), ignoring bins below `min_hz`.
    pub fn dominant_frequency(&self, min_hz: f64) -> Option<f64> {
        let start = (min_hz / self.df).ceil() as usize;
        let (best, _) = self
            .power
            .iter()
            .enumerate()
            .skip(start.max(1))
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))?;
        Some(self.freq(best))
    }

    /// Spectral flatness (geometric mean / arithmetic mean of power),
    /// excluding DC: near 1 for noise-like media traffic, near 0 for the
    /// sparse spiky spectra of parallel programs.
    pub fn flatness(&self) -> f64 {
        let p: Vec<f64> = self.power[1..].iter().map(|&v| v.max(1e-30)).collect();
        if p.is_empty() {
            return 1.0;
        }
        let log_mean = p.iter().map(|v| v.ln()).sum::<f64>() / p.len() as f64;
        let mean = p.iter().sum::<f64>() / p.len() as f64;
        (log_mean.exp() / mean).min(1.0)
    }
}

/// Normalized autocorrelation of `series` (mean removed) for lags
/// `0..=max_lag`, computed via FFT. `acf[0] = 1`; a strong peak at lag L
/// means the signal repeats every `L` samples — the direct time-domain
/// statement of the paper's periodicity claims.
pub fn autocorrelation(series: &[f64], max_lag: usize) -> Vec<f64> {
    assert!(!series.is_empty());
    let mean = series.iter().sum::<f64>() / series.len() as f64;
    // Zero-pad to at least 2n to make the circular correlation linear.
    let n = (series.len() * 2).next_power_of_two();
    let mut buf = vec![Complex::ZERO; n];
    for (b, &s) in buf.iter_mut().zip(series) {
        *b = Complex::real(s - mean);
    }
    fft(&mut buf);
    for z in buf.iter_mut() {
        *z = Complex::real(z.norm_sq());
    }
    fxnet_numerics::ifft(&mut buf);
    let denom = buf[0].re.max(1e-30);
    (0..=max_lag.min(series.len() - 1))
        .map(|l| buf[l].re / denom)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, dt: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * f * i as f64 * dt).cos())
            .collect()
    }

    #[test]
    fn pure_tone_peak_at_right_frequency() {
        let dt = SimTime::from_millis(10);
        // 5 Hz tone sampled at 100 Hz for 1024 samples.
        let s = tone(5.0, 0.01, 1024, 3.0);
        let p = Periodogram::compute(&s, dt);
        let f = p.dominant_frequency(0.0).unwrap();
        assert!((f - 5.0).abs() < p.df, "dominant {f} Hz");
    }

    #[test]
    fn two_tones_give_two_spikes() {
        let dt = SimTime::from_millis(10);
        let mut s = tone(5.0, 0.01, 2048, 3.0);
        for (x, y) in s.iter_mut().zip(tone(12.0, 0.01, 2048, 1.5)) {
            *x += y;
        }
        let p = Periodogram::compute(&s, dt);
        let spikes = p.top_spikes(2, 1.0);
        assert_eq!(spikes.len(), 2);
        let mut freqs: Vec<f64> = spikes.iter().map(|s| s.freq).collect();
        freqs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((freqs[0] - 5.0).abs() < 2.0 * p.df);
        assert!((freqs[1] - 12.0).abs() < 2.0 * p.df);
        // Stronger tone first by power.
        assert!(spikes[0].power > spikes[1].power);
    }

    #[test]
    fn dc_is_removed() {
        let dt = SimTime::from_millis(10);
        let s = vec![42.0; 512];
        let p = Periodogram::compute(&s, dt);
        assert_eq!(p.mean, 42.0);
        assert!(p.total_power() < 1e-12, "constant signal has no AC power");
    }

    #[test]
    fn frequency_resolution() {
        let dt = SimTime::from_millis(10); // 100 Hz sampling
        let p = Periodogram::compute(&vec![0.0; 1000], dt);
        // Padded to 1024 bins → df = 100/1024 Hz, Nyquist 50 Hz.
        assert!((p.df - 100.0 / 1024.0).abs() < 1e-9);
        assert!((p.freq(p.power.len() - 1) - 50.0).abs() < 0.1);
    }

    #[test]
    fn periodic_bursts_have_harmonics() {
        // A 2 Hz rectangular burst train (20% duty) sampled at 100 Hz:
        // spikes at 2, 4, 6 ... Hz.
        let dt = SimTime::from_millis(10);
        let n = 4096;
        let s: Vec<f64> = (0..n)
            .map(|i| {
                let phase = (i as f64 * 0.01 * 2.0) % 1.0;
                if phase < 0.2 {
                    1000.0
                } else {
                    0.0
                }
            })
            .collect();
        let p = Periodogram::compute(&s, dt);
        let spikes = p.top_spikes(3, 0.5);
        let mut freqs: Vec<f64> = spikes.iter().map(|s| s.freq).collect();
        freqs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in freqs.iter().zip([2.0, 4.0, 6.0]) {
            assert!((got - want).abs() < 0.1, "harmonic {got} vs {want}");
        }
    }

    #[test]
    fn flatness_separates_noise_from_tones() {
        let dt = SimTime::from_millis(10);
        // Deterministic pseudo-noise (splitmix-style scramble).
        let noise: Vec<f64> = (0..2048u64)
            .map(|i| {
                let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) % 1000) as f64
            })
            .collect();
        let spiky = tone(5.0, 0.01, 2048, 100.0);
        let f_noise = Periodogram::compute(&noise, dt).flatness();
        let f_spiky = Periodogram::compute(&spiky, dt).flatness();
        assert!(f_noise > 5.0 * f_spiky, "noise {f_noise} vs tone {f_spiky}");
    }

    #[test]
    fn min_separation_respected() {
        let dt = SimTime::from_millis(10);
        let s = tone(5.0, 0.01, 2048, 3.0);
        let p = Periodogram::compute(&s, dt);
        let spikes = p.top_spikes(5, 2.0);
        for i in 0..spikes.len() {
            for j in 0..i {
                assert!((spikes[i].freq - spikes[j].freq).abs() >= 2.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn empty_series_rejected() {
        let _ = Periodogram::compute(&[], SimTime::from_millis(10));
    }

    #[test]
    fn autocorrelation_of_periodic_signal_peaks_at_period() {
        // Period-50 burst train.
        let s: Vec<f64> = (0..2000)
            .map(|i| if i % 50 < 10 { 100.0 } else { 0.0 })
            .collect();
        let acf = autocorrelation(&s, 120);
        assert!((acf[0] - 1.0).abs() < 1e-9);
        assert!(acf[50] > 0.9, "acf[50] = {}", acf[50]);
        assert!(acf[100] > 0.8, "acf[100] = {}", acf[100]);
        assert!(acf[25] < 0.3, "acf[25] = {}", acf[25]);
    }

    #[test]
    fn autocorrelation_of_noise_decays_immediately() {
        let s: Vec<f64> = (0..4096u64)
            .map(|i| {
                let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((z ^ (z >> 27)) % 1000) as f64
            })
            .collect();
        let acf = autocorrelation(&s, 50);
        for (l, v) in acf.iter().enumerate().skip(1) {
            assert!(v.abs() < 0.1, "acf[{l}] = {v}");
        }
    }

    #[test]
    fn autocorrelation_lag_capped_by_length() {
        let s = vec![1.0, 2.0, 3.0];
        let acf = autocorrelation(&s, 100);
        assert_eq!(acf.len(), 3);
    }
}
