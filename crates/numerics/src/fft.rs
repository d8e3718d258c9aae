//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! Used in two roles: as the *workload* of the 2DFFT and T2DFFT kernels
//! (local row/column FFTs over distributed matrices), and as the *analysis
//! tool* computing the power spectra of Figures 7 and 11.
//!
//! A transform runs from a per-length, per-direction plan: the
//! bit-reversal swaps and every stage's twiddles, worked out once, so
//! the butterflies read a table instead of waiting on a recurrence. The
//! table holds what the recurrence produced, not exact roots of unity:
//! every rank checksum downstream is pinned to those bits.

use crate::complex::Complex;
use std::sync::OnceLock;

/// In-place forward FFT. Length must be a power of two.
pub fn fft(x: &mut [Complex]) {
    transform(x, false);
}

/// In-place inverse FFT (including the 1/N normalization).
pub fn ifft(x: &mut [Complex]) {
    transform(x, true);
    let scale = 1.0 / x.len() as f64;
    for v in x.iter_mut() {
        *v = v.scale(scale);
    }
}

/// Transforms of at most `2^MAX_CACHED_LOG2` points keep their plan for
/// the life of the process (n − 1 twiddles each: under 2 MiB per
/// direction if every such length were asked for); a longer one builds
/// its plan per call.
const MAX_CACHED_LOG2: usize = 16;

/// Plans by `[inverse][log2 n]`.
static PLANS: [[OnceLock<Plan>; MAX_CACHED_LOG2 + 1]; 2] =
    [const { [const { OnceLock::new() }; MAX_CACHED_LOG2 + 1] }; 2];

/// What one (length, direction) needs besides the data.
struct Plan {
    /// The index pairs the bit-reversal permutation exchanges.
    swaps: Vec<(u32, u32)>,
    /// The stage that joins blocks of `half` has its twiddles at
    /// `half - 1..2 * half - 1`, as `w ← w · e^{±2πi / 2half}` reaches
    /// them from 1.
    twiddles: Vec<Complex>,
}

impl Plan {
    fn new(n: usize, inverse: bool) -> Plan {
        let bits = n.trailing_zeros();
        let n32 = u32::try_from(n).expect("FFT length must fit 32 bits");
        let swaps = (0..n32)
            .map(|i| (i, i.reverse_bits() >> (u32::BITS - bits)))
            .filter(|(i, j)| j > i)
            .collect();
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            let mut w = Complex::ONE;
            for _ in 0..len / 2 {
                twiddles.push(w);
                w = w * wlen;
            }
            len <<= 1;
        }
        Plan { swaps, twiddles }
    }

    fn apply(&self, x: &mut [Complex]) {
        for &(i, j) in &self.swaps {
            x.swap(i as usize, j as usize);
        }
        let mut half = 1;
        while half < x.len() {
            let twiddles = &self.twiddles[half - 1..2 * half - 1];
            for block in x.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi).zip(twiddles) {
                    let (u, v) = (*a, *b * w);
                    *a = u + v;
                    *b = u - v;
                }
            }
            half <<= 1;
        }
    }
}

fn transform(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    match PLANS[usize::from(inverse)].get(n.trailing_zeros() as usize) {
        Some(cached) => cached.get_or_init(|| Plan::new(n, inverse)).apply(x),
        None => Plan::new(n, inverse).apply(x),
    }
}

/// Approximate floating-point operation count of one length-`n` FFT
/// (the standard `5 n log2 n` figure), used by the compute cost model.
pub fn fft_flops(n: usize) -> u64 {
    let log2 = n.checked_ilog2().unwrap_or(0);
    5 * n as u64 * u64::from(log2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &v) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    acc += v * Complex::cis(ang);
                }
                acc
            })
            .collect()
    }

    /// The transform as it stood before plans: the twiddle recurrence
    /// run again inside every block. The bit-identity oracle.
    fn transform_chain(x: &mut [Complex], inverse: bool) {
        let n = x.len();
        if n <= 1 {
            return;
        }
        let bits = n.trailing_zeros();
        for i in 0..n {
            let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
            if j > i {
                x.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            for start in (0..n).step_by(len) {
                let mut w = Complex::ONE;
                for k in 0..len / 2 {
                    let u = x[start + k];
                    let v = x[start + k + len / 2] * w;
                    x[start + k] = u + v;
                    x[start + k + len / 2] = u - v;
                    w = w * wlen;
                }
            }
            len <<= 1;
        }
    }

    fn assert_same_bits_as_chain(log2: u32, inverse: bool, seed: u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<Complex> = (0..1usize << log2)
            .map(|_| Complex::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3)))
            .collect();
        let mut want = x.clone();
        transform_chain(&mut want, inverse);
        let mut got = x;
        transform(&mut got, inverse);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (w.re.to_bits(), w.im.to_bits()),
                "n = 2^{log2}, inverse = {inverse}, element {i}"
            );
        }
    }

    #[test]
    fn a_transform_above_the_cache_bound_matches_the_chain_bit_for_bit() {
        let log2 = MAX_CACHED_LOG2 as u32 + 1;
        assert_same_bits_as_chain(log2, false, 1);
        assert_same_bits_as_chain(log2, true, 2);
    }

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn matches_naive_dft() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let want = naive_dft(&x);
        let mut got = x.clone();
        fft(&mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!(close(*g, *w, 1e-9), "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 16];
        x[0] = Complex::ONE;
        fft(&mut x);
        for z in &x {
            assert!(close(*z, Complex::ONE, 1e-12));
        }
    }

    #[test]
    fn pure_tone_has_single_bin() {
        let n = 256;
        let k0 = 17;
        let mut x: Vec<Complex> = (0..n)
            .map(|i| {
                Complex::real((2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).cos())
            })
            .collect();
        fft(&mut x);
        let p: Vec<f64> = x[..n / 2 + 1].iter().map(|z| z.norm_sq()).collect();
        let peak = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, k0);
        // Energy concentrated in that bin.
        let total: f64 = p.iter().sum();
        assert!(p[k0] / total > 0.9);
    }

    #[test]
    fn degenerate_lengths() {
        let mut empty: Vec<Complex> = vec![];
        fft(&mut empty);
        let mut one = vec![Complex::new(2.0, 3.0)];
        fft(&mut one);
        assert_eq!(one[0], Complex::new(2.0, 3.0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut x = vec![Complex::ZERO; 12];
        fft(&mut x);
    }

    #[test]
    fn flops_estimate() {
        assert_eq!(fft_flops(512), 5 * 512 * 9);
    }

    #[test]
    fn flops_of_degenerate_lengths_are_zero() {
        assert_eq!(fft_flops(0), 0);
        assert_eq!(fft_flops(1), 0);
        assert_eq!(fft_flops(2), 10);
    }

    proptest! {
        #[test]
        fn planned_transform_matches_the_chain_bit_for_bit(seed in any::<u64>()) {
            for log2 in 0..=13 {
                assert_same_bits_as_chain(log2, false, seed);
                assert_same_bits_as_chain(log2, true, !seed);
            }
        }

        #[test]
        fn round_trip(vals in prop::collection::vec(-100.0f64..100.0, 1..6)) {
            // Build a power-of-two signal from the values.
            let n = vals.len().next_power_of_two() * 8;
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new(vals[i % vals.len()] * (i as f64 * 0.1).sin(), 0.0))
                .collect();
            let mut y = x.clone();
            fft(&mut y);
            ifft(&mut y);
            for (a, b) in x.iter().zip(&y) {
                prop_assert!(close(*a, *b, 1e-9));
            }
        }

        #[test]
        fn parseval(vals in prop::collection::vec(-10.0f64..10.0, 8..64)) {
            let n = vals.len().next_power_of_two();
            let mut x = vec![Complex::ZERO; n];
            for (xi, &v) in x.iter_mut().zip(&vals) {
                *xi = Complex::real(v);
            }
            let time_energy: f64 = x.iter().map(|z| z.norm_sq()).sum();
            fft(&mut x);
            let freq_energy: f64 = x.iter().map(|z| z.norm_sq()).sum::<f64>() / n as f64;
            prop_assert!((time_energy - freq_energy).abs() < 1e-6 * (1.0 + time_energy));
        }

        #[test]
        fn linearity(scale in -5.0f64..5.0) {
            let x: Vec<Complex> = (0..32).map(|i| Complex::new((i as f64).cos(), 0.0)).collect();
            let mut fx = x.clone();
            fft(&mut fx);
            let mut sx: Vec<Complex> = x.iter().map(|z| z.scale(scale)).collect();
            fft(&mut sx);
            for (a, b) in fx.iter().zip(&sx) {
                prop_assert!(close(a.scale(scale), *b, 1e-8));
            }
        }
    }
}
