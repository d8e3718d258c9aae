//! # fxnet-numerics
//!
//! The dense-matrix numerics the measured Fx programs actually perform,
//! implemented from scratch:
//!
//! * [`Complex`] and one iterative radix-2 FFT kernel over split `re`/`im`
//!   arrays, fed two ways: [`fft_rows`] transforms the interleaved `f32`
//!   rows of the 2DFFT/T2DFFT kernels, and [`fft()`]/[`ifft()`] transform
//!   `Complex` slices for the trace analysis (the periodogram of the
//!   instantaneous bandwidth is `|FFT|²`).
//! * [`sor`] — the 5-point successive-overrelaxation stencil.
//! * [`hist`] — local histograms and the tree-merge operator.
//! * [`linalg`] — dense LU factorization with partial pivoting plus
//!   triangular backsolves, the direct solver AIRSHED's horizontal
//!   transport applies per layer and species.
//! * [`Matrix`] — a minimal row-major dense matrix.
//!
//! The kernels are bit-stable across optimisation: the split FFT and
//! the multi-column backsolve ([`linalg::Lu::solve_many`]) return the
//! bits of the textbook loops they replaced, which survive as test-only
//! oracles beside them. The programs' rank checksums are pinned
//! (`benchmark/expected.json`, `tests/integration_*.rs`), so a change
//! here may reorder independent operations but never one value's own.
//!
//! The SPMD applications in `fxnet-apps` run these kernels *for real* on
//! their block-distributed data and exchange actual bytes through the
//! simulated network; tests check their results against the sequential
//! references beside each program there.

//! ```
//! use fxnet_numerics::{fft, ifft, Complex};
//!
//! let mut x: Vec<Complex> = (0..8).map(|i| Complex::real(i as f64)).collect();
//! let orig = x.clone();
//! fft(&mut x);
//! ifft(&mut x);
//! for (a, b) in x.iter().zip(&orig) {
//!     assert!((*a - *b).abs() < 1e-12);
//! }
//! ```

pub mod complex;
pub mod fft;
pub mod hist;
pub mod linalg;
pub mod matrix;
pub mod sor;

pub use complex::Complex;
pub use fft::{fft, fft_rows, ifft};
pub use matrix::Matrix;
