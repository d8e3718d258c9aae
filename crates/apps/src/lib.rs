//! # fxnet-apps
//!
//! The six Fx programs whose network traffic the paper measured (§3),
//! implemented as genuine SPMD programs over the [`fxnet_fx`] runtime:
//! every rank runs straight-line code on its block of the distributed
//! data, performs the *real* local numerics, and exchanges *real bytes*
//! through the simulated PVM/TCP/Ethernet stack. The kernels and their
//! communication patterns (the paper's Figure 2):
//!
//! | pattern   | kernel  | description                    |
//! |-----------|---------|--------------------------------|
//! | neighbor  | SOR     | 2-D successive overrelaxation  |
//! | all-to-all| 2DFFT   | 2-D data-parallel FFT          |
//! | partition | T2DFFT  | 2-D task-parallel FFT          |
//! | broadcast | SEQ     | sequential I/O                 |
//! | tree      | HIST    | 2-D image histogram            |
//!
//! plus AIRSHED, the air-quality-model skeleton (§3.2) with its
//! three-timescale phase structure (hourly preprocess, per-step
//! chemistry/transport, paired all-to-all transposes).
//!
//! Each module provides a `Params` struct with `paper()` (the measured
//! configuration, possibly with documented scaling) and `tiny()` (fast CI
//! configuration), a free function building the rank program, and a
//! sequential reference used by the tests to verify the distributed
//! results bit-for-bit or to tolerance.

pub mod airshed;
pub mod fft2d;
pub mod hist;
pub mod seq;
pub mod sor;
pub mod t2dfft;

use fxnet_fx::{run_single, FxnetResult, RankCtx, RunOptions, RunResult, SpmdConfig};
use std::sync::Arc;

/// The five kernels, for harnesses that sweep over all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    Sor,
    Fft2d,
    T2dfft,
    Seq,
    Hist,
}

impl KernelKind {
    /// All five kernels in the paper's table order.
    pub const ALL: [KernelKind; 5] = [
        KernelKind::Sor,
        KernelKind::Fft2d,
        KernelKind::T2dfft,
        KernelKind::Seq,
        KernelKind::Hist,
    ];

    /// The kernel's name as the paper prints it.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Sor => "SOR",
            KernelKind::Fft2d => "2DFFT",
            KernelKind::T2dfft => "T2DFFT",
            KernelKind::Seq => "SEQ",
            KernelKind::Hist => "HIST",
        }
    }

    /// The communication pattern the kernel exhibits.
    pub fn pattern(&self) -> fxnet_fx::Pattern {
        match self {
            KernelKind::Sor => fxnet_fx::Pattern::Neighbor,
            KernelKind::Fft2d => fxnet_fx::Pattern::AllToAll,
            KernelKind::T2dfft => fxnet_fx::Pattern::Partition,
            KernelKind::Seq => fxnet_fx::Pattern::Broadcast { root: 0 },
            KernelKind::Hist => fxnet_fx::Pattern::TreeUp,
        }
    }

    /// Run the kernel at paper scale, scaled down by `iter_div` on the
    /// outer iteration count (1 = the full measured run), under `opts`
    /// (frame tap, telemetry, causal capture, deschedule injection).
    ///
    /// # Errors
    /// Propagates any [`fxnet_fx::FxnetError`] from the engine (invalid
    /// config, deadlock, runaway clock).
    pub fn run_paper_opts(
        &self,
        cfg: SpmdConfig,
        iter_div: usize,
        opts: RunOptions,
    ) -> FxnetResult<RunResult<u64>> {
        let prog = self.rank_program(iter_div);
        run_single(cfg, move |ctx| prog(ctx), opts)
    }

    /// The kernel's SPMD rank program at paper scale, with the outer
    /// iteration count divided by `iter_div` (1 = the full measured
    /// run). Every kernel returns a `u64` checksum, so outcomes are
    /// comparable across kernels and tenants.
    pub fn rank_program(&self, iter_div: usize) -> Arc<dyn Fn(&mut RankCtx) -> u64 + Send + Sync> {
        let d = iter_div.max(1);
        match self {
            KernelKind::Sor => {
                let mut p = sor::SorParams::paper();
                p.steps = (p.steps / d).max(1);
                Arc::new(move |ctx| sor::sor_rank(ctx, &p))
            }
            KernelKind::Fft2d => {
                let mut p = fft2d::FftParams::paper();
                p.iters = (p.iters / d).max(1);
                Arc::new(move |ctx| fft2d::fft2d_rank(ctx, &p))
            }
            KernelKind::T2dfft => {
                let mut p = t2dfft::T2dfftParams::paper();
                p.iters = (p.iters / d).max(1);
                Arc::new(move |ctx| t2dfft::t2dfft_rank(ctx, &p))
            }
            KernelKind::Seq => {
                let mut p = seq::SeqParams::paper();
                p.iters = (p.iters / d).max(1);
                Arc::new(move |ctx| seq::seq_rank(ctx, &p))
            }
            KernelKind::Hist => {
                let mut p = hist::HistParams::paper();
                p.iters = (p.iters / d).max(1);
                Arc::new(move |ctx| {
                    let h = hist::hist_rank(ctx, &p);
                    let as_f64: Vec<f64> = h.iter().map(|&v| f64::from(v)).collect();
                    checksum(&as_f64)
                })
            }
        }
    }
}

/// A stable checksum over a float slice, used as the rank return value so
/// integration tests can compare distributed and sequential results.
pub fn checksum(values: &[f64]) -> u64 {
    fold_bits(values.iter().copied())
}

/// [`checksum`] of a single-precision slice, each value widened to `f64`
/// on the way in: what `checksum` returns for the widened copy, without
/// making one.
pub fn checksum_f32(values: &[f32]) -> u64 {
    fold_bits(values.iter().map(|&v| f64::from(v)))
}

fn fold_bits(values: impl Iterator<Item = f64>) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        acc ^= v.to_bits();
        acc = acc.wrapping_mul(0x1000_0000_01b3);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_match_paper_table() {
        let names: Vec<&str> = KernelKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["SOR", "2DFFT", "T2DFFT", "SEQ", "HIST"]);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum(&[1.0, 2.0]), checksum(&[2.0, 1.0]));
        assert_eq!(checksum(&[1.0, 2.0]), checksum(&[1.0, 2.0]));
    }

    #[test]
    fn checksum_f32_is_the_checksum_of_the_widened_copy() {
        let values = [0.0f32, -0.0, 1.5, -3.25e-7, f32::MAX, f32::MIN_POSITIVE];
        let widened: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
        assert_eq!(checksum_f32(&values), checksum(&widened));
        assert_eq!(checksum_f32(&[]), checksum(&[]));
    }
}
