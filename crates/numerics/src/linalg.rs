//! Dense LU factorization and triangular solves.
//!
//! AIRSHED's horizontal-transport phase assembles and factors one finite
//! element stiffness matrix per atmospheric layer once per simulated hour,
//! then performs `l × s` backsolves per transport phase (one per layer and
//! species). This module provides that direct solver.

use crate::matrix::Matrix;

/// An LU factorization with partial pivoting: `P·A = L·U`, stored packed
/// in a single matrix plus a pivot vector.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Matrix,
    pivots: Vec<usize>,
}

/// Error returned when the matrix is singular to working precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Singular;

/// Right-hand sides one substitution pass carries in lock-step. One
/// column alone is a chain of dependent subtractions, a few cycles each
/// with nothing to overlap them; eight chains side by side fill those
/// cycles (16 read no better here, and 4 leaves AIRSHED's 35 columns
/// nine passes instead of five).
const LANES: usize = 8;

impl Lu {
    /// Factor `a` (consumed). O(n³/3) flops.
    pub fn factor(mut a: Matrix) -> Result<Lu, Singular> {
        let n = a.rows();
        assert_eq!(n, a.cols(), "LU requires a square matrix");
        let mut pivots = Vec::with_capacity(n);
        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k.
            let mut p = k;
            let mut best = a.row(k)[k].abs();
            for r in k + 1..n {
                let v = a.row(r)[k].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best < f64::EPSILON * 16.0 {
                return Err(Singular);
            }
            a.swap_rows(k, p);
            pivots.push(p);
            let (above, below) = a.as_mut_slice().split_at_mut((k + 1) * n);
            let pivot_row = &above[k * n..];
            let inv = 1.0 / pivot_row[k];
            for row in below.chunks_exact_mut(n) {
                let m = row[k] * inv;
                row[k] = m;
                for (x, &u) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                    *x -= m * u;
                }
            }
        }
        Ok(Lu { lu: a, pivots })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A x = b` in place. O(n²) flops — this is the per-species
    /// backsolve AIRSHED repeats.
    pub fn solve(&self, b: &mut [f64]) {
        self.solve_many(b, 1);
    }

    /// Solve `A X = B` in place for `k` right-hand sides stored
    /// interleaved, row `i` of column `j` at `b[i * k + j]`. Every column
    /// goes through exactly the operations of [`Lu::solve`] in the same
    /// order, so it ends with the same bits; the columns only share the
    /// walk over the factors.
    pub fn solve_many(&self, b: &mut [f64], k: usize) {
        assert_eq!(b.len(), self.n() * k);
        for first in (0..k).step_by(LANES) {
            // A lone column goes alone: seven idle lanes would cost it
            // more than they hide.
            match k - first {
                1 => self.solve_group::<1>(b, k, first, 1),
                rest => self.solve_group::<LANES>(b, k, first, rest.min(LANES)),
            }
        }
    }

    /// Columns `first..first + width` of `b`, carried through the
    /// substitution as the leading lanes of `L`; the spare lanes of a
    /// short group compute on zeros and are never read.
    fn solve_group<const L: usize>(&self, b: &mut [f64], k: usize, first: usize, width: usize) {
        let mut x = vec![[0.0f64; L]; self.n()];
        for (lanes, row) in x.iter_mut().zip(b.chunks_exact(k)) {
            lanes[..width].copy_from_slice(&row[first..first + width]);
        }
        // Apply the row permutation.
        for (r, &p) in self.pivots.iter().enumerate() {
            x.swap(r, p);
        }
        // Forward substitution with unit-diagonal L.
        for r in 1..x.len() {
            let mut acc = x[r];
            for (&l, xc) in self.lu.row(r).iter().zip(&x[..r]) {
                for (a, &v) in acc.iter_mut().zip(xc) {
                    *a -= l * v;
                }
            }
            x[r] = acc;
        }
        // Back substitution with U.
        for r in (0..x.len()).rev() {
            let row = self.lu.row(r);
            let mut acc = x[r];
            for (&u, xc) in row[r + 1..].iter().zip(&x[r + 1..]) {
                for (a, &v) in acc.iter_mut().zip(xc) {
                    *a -= u * v;
                }
            }
            x[r] = acc.map(|a| a / row[r]);
        }
        for (lanes, row) in x.iter().zip(b.chunks_exact_mut(k)) {
            row[first..first + width].copy_from_slice(&lanes[..width]);
        }
    }
}

/// Assemble a 1-D Poisson-like stiffness matrix of dimension `n` with
/// wrap-around coupling scaled by `coupling`, a stand-in for AIRSHED's
/// per-layer finite element stiffness matrix (diagonally dominant, hence
/// always factorable).
pub fn stiffness_matrix(n: usize, coupling: f64) -> Matrix {
    Matrix::from_fn(n, n, |r, c| {
        if r == c {
            2.0 + coupling.abs() * 2.0
        } else if r + 1 == c || c + 1 == r || (r == 0 && c == n - 1) || (c == 0 && r == n - 1) {
            -coupling
        } else {
            0.0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `Lu::factor` and `Lu::solve` as they stood before the row-slice
    /// and lane kernels, element by element through `lu[(r, c)]`: the
    /// bit-identity oracle.
    fn factor_reference(mut a: Matrix) -> Result<Lu, Singular> {
        let n = a.rows();
        let mut pivots = Vec::with_capacity(n);
        for k in 0..n {
            let mut p = k;
            let mut best = a[(k, k)].abs();
            for r in k + 1..n {
                let v = a[(r, k)].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best < f64::EPSILON * 16.0 {
                return Err(Singular);
            }
            a.swap_rows(k, p);
            pivots.push(p);
            let inv = 1.0 / a[(k, k)];
            for r in k + 1..n {
                let m = a[(r, k)] * inv;
                a[(r, k)] = m;
                for c in k + 1..n {
                    a[(r, c)] -= m * a[(k, c)];
                }
            }
        }
        Ok(Lu { lu: a, pivots })
    }

    fn solve_reference(lu: &Lu, b: &mut [f64]) {
        let n = lu.n();
        assert_eq!(b.len(), n);
        for (k, &p) in lu.pivots.iter().enumerate() {
            b.swap(k, p);
        }
        for r in 1..n {
            let mut acc = b[r];
            for (c, &bc) in b.iter().enumerate().take(r) {
                acc -= lu.lu[(r, c)] * bc;
            }
            b[r] = acc;
        }
        for r in (0..n).rev() {
            let mut acc = b[r];
            for (c, &bc) in b.iter().enumerate().skip(r + 1) {
                acc -= lu.lu[(r, c)] * bc;
            }
            b[r] = acc / lu.lu[(r, r)];
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// A random matrix with no structure to spare it row exchanges.
    fn random_matrix(n: usize, rng: &mut impl rand::Rng) -> Matrix {
        Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn solve_many_of_no_columns_is_a_no_op() {
        let lu = Lu::factor(stiffness_matrix(6, 0.7)).unwrap();
        lu.solve_many(&mut [], 0);
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn solve_many_rejects_a_buffer_of_the_wrong_length() {
        let lu = Lu::factor(stiffness_matrix(6, 0.7)).unwrap();
        lu.solve_many(&mut [0.0; 17], 3);
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn solve_rejects_a_buffer_of_the_wrong_length() {
        let lu = Lu::factor(stiffness_matrix(6, 0.7)).unwrap();
        lu.solve(&mut [0.0; 5]);
    }

    #[test]
    fn solves_known_system() {
        // [[2,1],[1,3]] x = [3,5] → x = [0.8, 1.4]
        let a = Matrix::from_fn(2, 2, |r, c| [[2.0, 1.0], [1.0, 3.0]][r][c]);
        let lu = Lu::factor(a).unwrap();
        let mut b = vec![3.0, 5.0];
        lu.solve(&mut b);
        assert!((b[0] - 0.8).abs() < 1e-12);
        assert!((b[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn identity_solve_is_identity() {
        let lu = Lu::factor(Matrix::from_fn(5, 5, |r, c| if r == c { 1.0 } else { 0.0 })).unwrap();
        let mut b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        lu.solve(&mut b);
        assert_eq!(b, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Without pivoting this matrix fails at k=0.
        let a = Matrix::from_fn(2, 2, |r, c| [[0.0, 1.0], [1.0, 0.0]][r][c]);
        let lu = Lu::factor(a).unwrap();
        let mut b = vec![7.0, 9.0];
        lu.solve(&mut b);
        // x = [9, 7]
        assert!((b[0] - 9.0).abs() < 1e-12);
        assert!((b[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_fn(3, 3, |_, c| c as f64); // rank 1
        assert!(Lu::factor(a).is_err());
    }

    #[test]
    fn stiffness_is_factorable_and_symmetric() {
        let m = stiffness_matrix(32, 0.9);
        for r in 0..32 {
            for c in 0..32 {
                assert_eq!(m[(r, c)], m[(c, r)]);
            }
        }
        assert!(Lu::factor(m).is_ok());
    }

    proptest! {
        #[test]
        fn factor_matches_the_reference_bit_for_bit(n in 1usize..41, seed in any::<u64>()) {
            use rand::SeedableRng;
            let a = random_matrix(n, &mut rand::rngs::StdRng::seed_from_u64(seed));
            match (Lu::factor(a.clone()), factor_reference(a)) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(bits(got.lu.as_slice()), bits(want.lu.as_slice()));
                    prop_assert_eq!(got.pivots, want.pivots);
                }
                (got, want) => prop_assert_eq!(got.is_err(), want.is_err()),
            }
        }

        #[test]
        fn solve_many_matches_solve_column_for_column(n in 1usize..41, seed in any::<u64>()) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let lu = Lu::factor(random_matrix(n, &mut rng)).expect("not singular");
            if n > 2 {
                let exchanged = lu.pivots.iter().enumerate().any(|(r, &p)| r != p);
                prop_assert!(exchanged, "a random matrix should pivot");
            }
            // Below, at, above and at multiples of the lane width.
            for k in 1..=2 * LANES + 1 {
                let b: Vec<f64> = (0..n * k).map(|_| rng.gen_range(-10.0..10.0)).collect();
                let column = |of: &[f64], j: usize| -> Vec<f64> {
                    of.iter().skip(j).step_by(k).copied().collect()
                };
                let mut many = b.clone();
                lu.solve_many(&mut many, k);
                for j in 0..k {
                    let mut want = column(&b, j);
                    solve_reference(&lu, &mut want);
                    let got = column(&many, j);
                    prop_assert_eq!(bits(&got), bits(&want), "n = {}, k = {}, column {}", n, k, j);
                    let mut one = column(&b, j);
                    lu.solve(&mut one);
                    prop_assert_eq!(bits(&one), bits(&want));
                }
            }
        }

        #[test]
        fn solves_random_diagonally_dominant_systems(
            n in 2usize..24,
            seed in 0u64..500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
            for i in 0..n {
                let rowsum: f64 = a.row(i).iter().map(|v| v.abs()).sum();
                a[(i, i)] = rowsum + 1.0; // enforce strict dominance
            }
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let mut b: Vec<f64> = (0..n)
                .map(|r| a.row(r).iter().zip(&x_true).map(|(a, x)| a * x).sum())
                .collect();
            let lu = Lu::factor(a).unwrap();
            lu.solve(&mut b);
            for (got, want) in b.iter().zip(&x_true) {
                prop_assert!((got - want).abs() < 1e-8, "{got} vs {want}");
            }
        }
    }
}
