//! Successive overrelaxation (the SOR kernel's local computation).
//!
//! "In each step, each element of an N×N matrix computes its next value as
//! a function of its neighboring elements" (§3.1). We use the 5-point
//! Jacobi-style update with an overrelaxation factor ω, formulated so a
//! block of rows can be updated given halo rows above and below — exactly
//! what the distributed kernel exchanges with its neighbors.

/// One weighted-Jacobi/SOR sweep over the row block `rows` (each of width
/// `n`), using `above` and `below` as halo rows (`None` ⇒ physical
/// boundary, held fixed). Returns the updated block.
pub fn sor_sweep_block(
    rows: &[Vec<f64>],
    above: Option<&[f64]>,
    below: Option<&[f64]>,
    omega: f64,
) -> Vec<Vec<f64>> {
    let m = rows.len();
    let n = rows[0].len();
    let mut out = rows.to_vec();
    for i in 0..m {
        let up: Option<&[f64]> = if i == 0 { above } else { Some(&rows[i - 1]) };
        let down: Option<&[f64]> = if i + 1 == m {
            below
        } else {
            Some(&rows[i + 1])
        };
        // Boundary rows of the global domain are fixed.
        let (up, down) = match (up, down) {
            (Some(u), Some(d)) => (u, d),
            _ => continue,
        };
        let row = &rows[i];
        let o = &mut out[i];
        for j in 1..n - 1 {
            let neighbors = up[j] + down[j] + row[j - 1] + row[j + 1];
            o[j] = row[j] + omega * 0.25 * (neighbors - 4.0 * row[j]);
        }
    }
    out
}

/// Sequential reference: sweep the whole `n × n` grid `steps` times with
/// fixed boundary values.
pub fn sor_reference(grid: &mut [Vec<f64>], omega: f64, steps: usize) {
    for _ in 0..steps {
        let interior = sor_sweep_block(
            &grid[1..grid.len() - 1],
            Some(&grid[0].clone()),
            Some(&grid[grid.len() - 1].clone()),
            omega,
        );
        let len = grid.len();
        grid[1..len - 1].clone_from_slice(&interior);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Residual of the Laplace equation over the interior: max |Δu|.
    fn laplace_residual(grid: &[Vec<f64>]) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 1..grid.len() - 1 {
            for j in 1..grid[0].len() - 1 {
                let lap = grid[i - 1][j] + grid[i + 1][j] + grid[i][j - 1] + grid[i][j + 1]
                    - 4.0 * grid[i][j];
                worst = worst.max(lap.abs());
            }
        }
        worst
    }

    fn hot_top_grid(n: usize) -> Vec<Vec<f64>> {
        let mut g = vec![vec![0.0; n]; n];
        for v in g[0].iter_mut() {
            *v = 100.0;
        }
        g
    }

    #[test]
    fn converges_toward_laplace_solution() {
        let mut g = hot_top_grid(16);
        let before = laplace_residual(&g);
        sor_reference(&mut g, 1.0, 400);
        let after = laplace_residual(&g);
        assert!(after < before * 0.01, "residual {before} -> {after}");
    }

    #[test]
    fn fixed_point_is_preserved() {
        // A linear-in-i field is harmonic: one sweep must not change it.
        let n = 8;
        let g: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64; n]).collect();
        let out = sor_sweep_block(&g[1..n - 1], Some(&g[0]), Some(&g[n - 1]), 1.5);
        for (i, row) in out.iter().enumerate() {
            for (j, v) in row.iter().enumerate().take(n - 1).skip(1) {
                assert!(
                    (v - (i + 1) as f64).abs() < 1e-12,
                    "changed at ({i},{j}): {v}"
                );
            }
        }
    }

    #[test]
    fn block_decomposition_matches_reference() {
        // Sweeping the interior as two blocks with exchanged halos must
        // equal sweeping it as one block.
        let n = 12;
        let mut g = hot_top_grid(n);
        for (i, row) in g.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v += ((i * 7 + j * 13) % 5) as f64;
            }
        }
        let whole = sor_sweep_block(&g[1..n - 1], Some(&g[0]), Some(&g[n - 1]), 0.9);
        let mid = 1 + (n - 2) / 2;
        let top = sor_sweep_block(&g[1..mid], Some(&g[0]), Some(&g[mid]), 0.9);
        let bot = sor_sweep_block(&g[mid..n - 1], Some(&g[mid - 1]), Some(&g[n - 1]), 0.9);
        let stitched: Vec<Vec<f64>> = top.into_iter().chain(bot).collect();
        assert_eq!(whole.len(), stitched.len());
        for (a, b) in whole.iter().zip(&stitched) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn omega_zero_is_identity() {
        let g = hot_top_grid(6);
        let out = sor_sweep_block(&g[1..5], Some(&g[0]), Some(&g[5]), 0.0);
        assert_eq!(out, g[1..5].to_vec());
    }
}
