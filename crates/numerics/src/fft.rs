//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! Used in two roles: as the *workload* of the 2DFFT and T2DFFT kernels
//! (local row/column FFTs over distributed matrices, [`fft_rows`]), and as
//! the *analysis tool* computing the power spectra of Figures 7 and 11
//! ([`fft`]/[`ifft`]).
//!
//! Both run one butterfly kernel over split arrays: the real parts in one
//! `f64` slice, the imaginary parts in another, so a stage's butterflies
//! are contiguous runs of each that the compiler vectorises at the
//! baseline target. The kernel runs from a per-length, per-direction plan
//! (the bit-reversal permutation and every stage's twiddles, worked out
//! once) and reads its input at the bit-reversed index, widened from
//! `f32` by [`fft_rows`] or read from [`Complex`] by the adapters, so no
//! swap pass runs. The stages that join blocks of one and of two points
//! run on each quad of inputs as it is read, in registers: their runs are
//! one and two butterflies long, too short for the contiguous loop, and
//! with a pass each over the scratch a 512-point row took about 30 %
//! longer. Every later stage is one pass of contiguous runs.
//!
//! The twiddle table holds what the `w ← w · w_len` recurrence produced,
//! not exact roots of unity, and every butterfly forms its two outputs
//! with the four multiplies and six adds or subtracts of `Complex`
//! arithmetic, in that order. Only butterflies that do not depend on each
//! other are reordered: those of one stage, and those of the first two
//! stages across quads. Rust never contracts them into fused
//! multiply-adds, and the kernel uses no `unsafe` and no target features,
//! so every rank checksum downstream keeps its bits.

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

/// Normalized (1/n) in-place forward FFT over every length-`n` row of an
/// interleaved-complex `f32` block, computed in `f64`. Normalization
/// keeps iterated runs bounded in `f32` without changing the traffic.
pub fn fft_rows(block: &mut [f32], n: usize) {
    let scale = 1.0 / n as f64;
    with_plan(n, false, |plan| {
        let (mut re, mut im) = (vec![0.0; n], vec![0.0; n]);
        for row in block.chunks_exact_mut(2 * n) {
            let pairs = row.as_chunks::<2>().0;
            plan.run(&mut re, &mut im, |j| {
                let [r, i] = pairs[j];
                (f64::from(r), f64::from(i))
            });
            for ((pair, &r), &i) in row.chunks_exact_mut(2).zip(&re).zip(&im) {
                pair[0] = (r * scale) as f32;
                pair[1] = (i * scale) as f32;
            }
        }
    });
}

/// Transforms of at most `2^MAX_CACHED_LOG2` points keep their plan for
/// the life of the process (n − 1 twiddles and n/4 indices each: about
/// 2.1 MiB per direction if every such length were asked for); a longer
/// one builds its plan per call.
const MAX_CACHED_LOG2: usize = 16;

/// Plans by `[inverse][log2 n]`.
static PLANS: [[OnceLock<Plan>; MAX_CACHED_LOG2 + 1]; 2] =
    [const { [const { OnceLock::new() }; MAX_CACHED_LOG2 + 1] }; 2];

/// What one (length, direction) needs besides the data.
struct Plan {
    /// `rev[m]` is `4m` with its log2 n bits reversed: the input index
    /// that lands first in the `m`-th quad of the bit-reversed order.
    /// The quad's other three come from `rev[m] + n/2`, `+ n/4` and
    /// `+ 3n/4`. Empty below four points.
    rev: Vec<u32>,
    /// The twiddles' real (`wr`) and imaginary (`wi`) parts. The stage
    /// that joins blocks of `half` has its twiddles at
    /// `half - 1..2 * half - 1`, as `w ← w · e^{±2πi / 2half}` reaches
    /// them from 1.
    wr: Vec<f64>,
    wi: Vec<f64>,
}

/// Run `f` on the plan of an `n`-point transform.
fn with_plan(n: usize, inverse: bool, f: impl FnOnce(&Plan)) {
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    match PLANS[usize::from(inverse)].get(n.trailing_zeros() as usize) {
        Some(cached) => f(cached.get_or_init(|| Plan::new(n, inverse))),
        None => f(&Plan::new(n, inverse)),
    }
}

/// One butterfly: `(a, b) ← (a + b·w, a − b·w)`, with `b·w` formed as
/// `Complex`'s product forms it.
#[inline(always)]
fn butterfly(ar: &mut f64, ai: &mut f64, br: &mut f64, bi: &mut f64, wr: f64, wi: f64) {
    let (vr, vi) = (*br * wr - *bi * wi, *br * wi + *bi * wr);
    let (ur, ui) = (*ar, *ai);
    (*ar, *ai) = (ur + vr, ui + vi);
    (*br, *bi) = (ur - vr, ui - vi);
}

impl Plan {
    fn new(n: usize, inverse: bool) -> Plan {
        let bits = n.trailing_zeros();
        let n32 = u32::try_from(n).expect("FFT length must fit 32 bits");
        let rev = (0..n32 / 4)
            .map(|m| (4 * m).reverse_bits() >> (u32::BITS - bits))
            .collect();
        let sign = if inverse { 1.0 } else { -1.0 };
        let (mut wr, mut wi) = (Vec::with_capacity(n - 1), Vec::with_capacity(n - 1));
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
            let wlen = Complex::cis(ang);
            let mut w = Complex::ONE;
            for _ in 0..len / 2 {
                wr.push(w.re);
                wi.push(w.im);
                w = w * wlen;
            }
            len <<= 1;
        }
        Plan { rev, wr, wi }
    }

    /// The transform of the `n = re.len()` points that `load(j)` returns
    /// for `j < n`, into `re`/`im` in natural order. The first two stages
    /// run on each quad of the bit-reversed order as it is loaded.
    fn run(&self, re: &mut [f64], im: &mut [f64], load: impl Fn(usize) -> (f64, f64)) {
        let n = re.len();
        assert_eq!(im.len(), n, "split halves must have one length");
        if n < 4 {
            // One or two points are their own bit reversal.
            for (j, (r, i)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
                (*r, *i) = load(j);
            }
            if let ([ar, br], [ai, bi]) = (re, im) {
                butterfly(ar, ai, br, bi, self.wr[0], self.wi[0]);
            }
            return;
        }
        let (w1r, w1i) = (self.wr[0], self.wi[0]);
        let (w20r, w20i, w21r, w21i) = (self.wr[1], self.wi[1], self.wr[2], self.wi[2]);
        let q = n / 4;
        let quads = re.as_chunks_mut::<4>().0.iter_mut();
        for ((r, i), &j) in quads.zip(im.as_chunks_mut::<4>().0).zip(&self.rev) {
            let j = j as usize;
            let ((mut r0, mut i0), (mut r1, mut i1)) = (load(j), load(j + 2 * q));
            let ((mut r2, mut i2), (mut r3, mut i3)) = (load(j + q), load(j + 3 * q));
            butterfly(&mut r0, &mut i0, &mut r1, &mut i1, w1r, w1i);
            butterfly(&mut r2, &mut i2, &mut r3, &mut i3, w1r, w1i);
            butterfly(&mut r0, &mut i0, &mut r2, &mut i2, w20r, w20i);
            butterfly(&mut r1, &mut i1, &mut r3, &mut i3, w21r, w21i);
            (*r, *i) = ([r0, r1, r2, r3], [i0, i1, i2, i3]);
        }
        let mut half = 4;
        while half < n {
            let tw = half - 1..2 * half - 1;
            stage(re, im, &self.wr[tw.clone()], &self.wi[tw]);
            half <<= 1;
        }
    }
}

/// The stage that joins blocks of `half = wr.len()` points: one
/// contiguous run of `half` butterflies per block.
fn stage(re: &mut [f64], im: &mut [f64], wr: &[f64], wi: &[f64]) {
    let half = wr.len();
    // Cut to the run's length, so that the compiler sees every index in
    // bounds and vectorises the run. Without the cut it guarded the loop
    // with overlap checks, and a 512-point row took 1.7× as long.
    let wi = &wi[..half];
    for (r, i) in re
        .chunks_exact_mut(2 * half)
        .zip(im.chunks_exact_mut(2 * half))
    {
        let (ar, br) = r.split_at_mut(half);
        let (ai, bi) = i.split_at_mut(half);
        for k in 0..half {
            butterfly(&mut ar[k], &mut ai[k], &mut br[k], &mut bi[k], wr[k], wi[k]);
        }
    }
}

/// The [`Complex`] adapter: the kernel reads `x` at the bit-reversed
/// index into split scratch, and the result is written back.
fn transform(x: &mut [Complex], inverse: bool) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    with_plan(n, inverse, |plan| {
        let (mut re, mut im) = (vec![0.0; n], vec![0.0; n]);
        plan.run(&mut re, &mut im, |j| (x[j].re, x[j].im));
        for ((z, r), i) in x.iter_mut().zip(re).zip(im) {
            *z = Complex::new(r, i);
        }
    });
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
        assert_adapter_matches_chain(x, inverse);
    }

    /// `fft_rows` as it stood before the split kernel: each row widened
    /// into a `Complex` buffer, transformed, scaled by 1/n and narrowed.
    /// With [`transform_chain`] in place of the planned transform, it is
    /// the row kernel's bit-identity oracle.
    fn fft_rows_chain(block: &mut [f32], n: usize) {
        let scale = 1.0 / n as f64;
        let mut buf = vec![Complex::ZERO; n];
        for row in block.chunks_exact_mut(2 * n) {
            for (b, pair) in buf.iter_mut().zip(row.chunks_exact(2)) {
                *b = Complex::new(f64::from(pair[0]), f64::from(pair[1]));
            }
            transform_chain(&mut buf, false);
            for (b, pair) in buf.iter().zip(row.chunks_exact_mut(2)) {
                pair[0] = (b.re * scale) as f32;
                pair[1] = (b.im * scale) as f32;
            }
        }
    }

    /// `len` values, each an exact zero of either sign, a subnormal of
    /// either sign (an `f32` one widened, or an `f64` one) or an ordinary
    /// value, zeros making up a share drawn per call from 0 to 1. 2DFFT's
    /// matrix passes through all of them as it underflows.
    fn edge_values(len: usize, rng: &mut rand::rngs::StdRng) -> Vec<f64> {
        use rand::Rng;
        let zeros = f64::from(rng.gen_range(0u8..=4)) / 4.0;
        (0..len)
            .map(|_| {
                let sign = if rng.gen::<bool>() { -1.0 } else { 1.0 };
                let class = rng.gen::<f64>();
                sign * if class < zeros {
                    0.0
                } else if class < zeros + 0.15 {
                    f64::from(f32::from_bits(rng.gen_range(1..0x0080_0000)))
                } else if class < zeros + 0.2 {
                    f64::from_bits(rng.gen_range(1..1 << 52))
                } else {
                    rng.gen_range(0.0..1e3)
                }
            })
            .collect()
    }

    /// The kernel through the `Complex` adapter against the chain, on
    /// `x`, to the bit.
    fn assert_adapter_matches_chain(x: Vec<Complex>, inverse: bool) {
        let mut want = x.clone();
        transform_chain(&mut want, inverse);
        let mut got = x;
        transform(&mut got, inverse);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                (g.re.to_bits(), g.im.to_bits()),
                (w.re.to_bits(), w.im.to_bits()),
                "n = {}, inverse = {inverse}, element {i}",
                got.len()
            );
        }
    }

    fn edge_complex(n: usize, rng: &mut rand::rngs::StdRng) -> Vec<Complex> {
        let v = edge_values(2 * n, rng);
        v.chunks_exact(2)
            .map(|p| Complex::new(p[0], p[1]))
            .collect()
    }

    #[test]
    fn edge_values_above_the_cache_bound_match_the_chain_bit_for_bit() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 1 << (MAX_CACHED_LOG2 + 1);
        assert_adapter_matches_chain(edge_complex(n, &mut rng), false);
        assert_adapter_matches_chain(edge_complex(n, &mut rng), true);
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
        fn edge_values_match_the_chain_bit_for_bit(seed in any::<u64>()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for log2 in 0..=13 {
                assert_adapter_matches_chain(edge_complex(1 << log2, &mut rng), false);
                assert_adapter_matches_chain(edge_complex(1 << log2, &mut rng), true);
            }
        }

        #[test]
        fn fft_rows_of_edge_values_match_the_chain_bit_for_bit(seed in any::<u64>()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for log2 in 1..=10 {
                let n = 1usize << log2;
                let mut want: Vec<f32> = (0..3)
                    .flat_map(|_| edge_values(2 * n, &mut rng))
                    .map(|v| v as f32)
                    .collect();
                let mut got = want.clone();
                fft_rows_chain(&mut want, n);
                fft_rows(&mut got, n);
                prop_assert_eq!(bits(&got), bits(&want), "n = {}", n);
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
