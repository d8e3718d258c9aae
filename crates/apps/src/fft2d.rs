//! 2DFFT — the data-parallel 2-D FFT, the *all-to-all* pattern kernel.
//!
//! Rows of the N×N single-precision complex matrix (Fortran `COMPLEX`,
//! 8 bytes) are block-distributed. Each iteration runs local 1-D FFTs
//! over the owned rows, redistributes so columns are block-distributed
//! (the transpose — an all-to-all where every rank sends every other an
//! O((N/P)²) block), then runs local 1-D FFTs over the owned columns.
//! The all-to-all uses the shift schedule: in round r, rank i sends to
//! (i+r) mod P and receives from (i−r) mod P, tightly synchronizing all
//! processors — which is why 2DFFT's *aggregate* spectrum is the clean
//! one (paper §6.1).

use crate::checksum_f32;
use fxnet_fx::{BlockDist, RankCtx};
use fxnet_numerics::fft::{fft_flops, fft_rows};
use fxnet_pvm::MessageBuilder;

/// 2DFFT kernel parameters.
#[derive(Debug, Clone)]
pub struct FftParams {
    /// Matrix dimension N (must be a power of two and divisible by P).
    pub n: usize,
    /// Outer iterations.
    pub iters: usize,
}

impl FftParams {
    /// The measured configuration: N=512, 100 iterations.
    pub fn paper() -> FftParams {
        FftParams { n: 512, iters: 100 }
    }

    /// A CI-sized configuration.
    pub fn tiny() -> FftParams {
        FftParams { n: 16, iters: 2 }
    }
}

/// Deterministic initial local block: rows `lo..hi`, interleaved re/im.
pub fn initial_block(n: usize, lo: usize, hi: usize) -> Vec<f32> {
    let mut v = Vec::with_capacity((hi - lo) * n * 2);
    for r in lo..hi {
        for c in 0..n {
            v.push(((r * 13 + c * 7) % 32) as f32 * 0.125);
            v.push(((r * 5 + c * 11) % 16) as f32 * 0.0625 - 0.5);
        }
    }
    v
}

/// Copy the sub-block (rows `r0..r1` of this rank's block starting at
/// global row `lo`, global columns `c0..c1`) into `out`, row-major.
fn gather_block(local: &[f32], n: usize, rows: usize, c0: usize, c1: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(rows * (c1 - c0) * 2);
    for r in 0..rows {
        let base = (r * n + c0) * 2;
        out.extend_from_slice(&local[base..base + (c1 - c0) * 2]);
    }
    out
}

/// Rows per strip of [`scatter_transposed`].
const STRIP: usize = 16;

/// Write a received block (global rows `r0..r1`, `width` of this rank's
/// columns, row-major) into the transposed local layout, where global
/// row `r` of local column `c` lands at local row `c`, column `r`.
///
/// The block is walked in strips of [`STRIP`] rows, so each write is a
/// contiguous run of up to `STRIP` complex values instead of one value
/// per `n`-stride.
pub(crate) fn scatter_transposed(
    next: &mut [f32],
    n: usize,
    r0: usize,
    r1: usize,
    vals: &[f32],
    width: usize,
) {
    // Callers size `vals` from the same block bounds; a mismatch is a
    // distribution bug that would otherwise scatter garbage.
    assert_eq!(vals.len(), (r1 - r0) * width * 2, "block size mismatch");
    for s0 in (r0..r1).step_by(STRIP) {
        let s1 = (s0 + STRIP).min(r1);
        for c in 0..width {
            let run = &mut next[(c * n + s0) * 2..(c * n + s1) * 2];
            for (k, pair) in run.chunks_exact_mut(2).enumerate() {
                let at = ((s0 - r0 + k) * width + c) * 2;
                pair.copy_from_slice(&vals[at..at + 2]);
            }
        }
    }
}

/// The per-rank SPMD program. Returns a checksum of the final block.
pub fn fft2d_rank(ctx: &mut RankCtx, p: &FftParams) -> u64 {
    let (me, np) = (ctx.rank() as usize, ctx.nprocs() as usize);
    assert_eq!(p.n % np, 0, "N must divide evenly for the transpose");
    let dist = BlockDist::new(p.n, np);
    let (lo, hi) = (dist.lo(me), dist.hi(me));
    let rows = hi - lo;
    let mut local = initial_block(p.n, lo, hi);

    for iter in 0..p.iters {
        // Stage 1: local row FFTs.
        fft_rows(&mut local, p.n);
        ctx.compute_flops(rows as u64 * fft_flops(p.n));

        // Stage 2: the distribution transpose (all-to-all, shift schedule).
        ctx.phase_begin("transpose");
        let mut next = vec![0.0f32; rows * p.n * 2];
        // Diagonal block stays local.
        let diag = gather_block(&local, p.n, rows, lo, hi);
        scatter_transposed(&mut next, p.n, lo, hi, &diag, rows);
        for r in 1..np {
            let dst = (me + r) % np;
            let src = (me + np - r) % np;
            let (dlo, dhi) = (dist.lo(dst), dist.hi(dst));
            let block = gather_block(&local, p.n, rows, dlo, dhi);
            let mut b = MessageBuilder::new((iter * np + r) as i32);
            b.pack_f32(&block);
            ctx.send(dst as u32, b.finish());

            let (slo, shi) = (dist.lo(src), dist.hi(src));
            let m = ctx.recv(src as u32);
            let vals = m.reader().f32s((shi - slo) * rows * 2);
            scatter_transposed(&mut next, p.n, slo, shi, &vals, rows);
        }
        ctx.phase_end();
        local = next;

        // Stage 3: local column FFTs (rows of the transposed layout).
        fft_rows(&mut local, p.n);
        ctx.compute_flops(rows as u64 * fft_flops(p.n));
    }

    checksum_f32(&local)
}

/// Sequential reference: per-rank checksums of the identical computation.
pub fn fft2d_sequential(p: &FftParams, np: usize) -> Vec<u64> {
    let n = p.n;
    let mut m = initial_block(n, 0, n);
    for _ in 0..p.iters {
        fft_rows(&mut m, n);
        // Full transpose.
        let mut t = vec![0.0f32; n * n * 2];
        for r in 0..n {
            for c in 0..n {
                t[(c * n + r) * 2] = m[(r * n + c) * 2];
                t[(c * n + r) * 2 + 1] = m[(r * n + c) * 2 + 1];
            }
        }
        m = t;
        fft_rows(&mut m, n);
    }
    let dist = BlockDist::new(n, np);
    (0..np)
        .map(|r| checksum_f32(&m[dist.lo(r) * n * 2..dist.hi(r) * n * 2]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_fx::{run_single, RunOptions, SpmdConfig};
    use fxnet_numerics::{fft, Complex};

    fn cfg(p: u32) -> SpmdConfig {
        let mut c = SpmdConfig {
            p,
            hosts: p,
            ..SpmdConfig::default()
        };
        c.pvm.heartbeat = None;
        c
    }

    #[test]
    fn distributed_matches_sequential() {
        let params = FftParams::tiny();
        let want = fft2d_sequential(&params, 4);
        let pp = params.clone();
        let res = run_single(
            cfg(4),
            move |ctx| fft2d_rank(ctx, &pp),
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(res.results, want);
    }

    #[test]
    fn two_rank_version_matches() {
        let params = FftParams { n: 8, iters: 1 };
        let want = fft2d_sequential(&params, 2);
        let pp = params.clone();
        let res = run_single(
            cfg(2),
            move |ctx| fft2d_rank(ctx, &pp),
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(res.results, want);
    }

    #[test]
    fn all_pairs_carry_traffic() {
        let params = FftParams::tiny();
        let res = run_single(
            cfg(4),
            move |ctx| fft2d_rank(ctx, &params),
            RunOptions::default(),
        )
        .unwrap();
        let mut pairs = std::collections::HashSet::new();
        for r in &res.trace {
            if r.kind == fxnet_sim::FrameKind::Data {
                pairs.insert((r.src.0, r.dst.0));
            }
        }
        assert_eq!(pairs.len(), 12, "all-to-all must use all P(P-1) pairs");
    }

    #[test]
    fn tiled_scatter_matches_the_naive_loop() {
        let naive = |next: &mut [f32], n: usize, r0: usize, r1: usize, vals: &[f32], width| {
            let mut it = vals.chunks_exact(2);
            for r in r0..r1 {
                for c in 0..width {
                    let pair = it.next().unwrap();
                    next[(c * n + r) * 2] = pair[0];
                    next[(c * n + r) * 2 + 1] = pair[1];
                }
            }
        };
        for (n, r0, rows, width) in [
            (8, 3, 1, 5),
            (16, 2, 6, 3),
            (40, 5, 17, 9),
            (160, 7, 130, 33),
        ] {
            let vals: Vec<f32> = (0..rows * width * 2)
                .map(|i| i as f32 * 0.37 - 1.0)
                .collect();
            let mut want = vec![f32::NAN; width * n * 2];
            let mut got = want.clone();
            naive(&mut want, n, r0, r0 + rows, &vals, width);
            scatter_transposed(&mut got, n, r0, r0 + rows, &vals, width);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{rows} rows × {width} columns");
        }
    }

    #[test]
    fn fft_rows_single_row_matches_direct_fft() {
        let n = 8;
        let mut block = initial_block(n, 3, 4);
        let mut direct: Vec<Complex> = block
            .chunks_exact(2)
            .map(|p| Complex::new(f64::from(p[0]), f64::from(p[1])))
            .collect();
        fft_rows(&mut block, n);
        fft(&mut direct);
        for (got, want) in block.chunks_exact(2).zip(&direct) {
            assert!((f64::from(got[0]) - want.re / n as f64).abs() < 1e-6);
            assert!((f64::from(got[1]) - want.im / n as f64).abs() < 1e-6);
        }
    }
}
