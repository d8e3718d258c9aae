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
    let mut out = rows.to_vec();
    sor_sweep_in_place(&mut out, above, below, omega, &mut Default::default());
    out
}

/// [`sor_sweep_block`] in place. Each row is swept into a spare row that
/// then takes its place, so the pre-sweep row above is the only copy
/// kept: memory is the block plus the two rows of `spare`, which keep
/// their buffers from sweep to sweep, so a sweep allocates nothing once
/// they have grown to `n`.
pub fn sor_sweep_in_place(
    rows: &mut [Vec<f64>],
    above: Option<&[f64]>,
    below: Option<&[f64]>,
    omega: f64,
    spare: &mut [Vec<f64>; 2],
) {
    let (m, n) = (rows.len(), rows[0].len());
    let [prev, next] = spare;
    prev.resize(n, 0.0);
    next.resize(n, 0.0);
    for i in 0..m {
        // Row `i − 1` before the sweep is `prev`; row `i + 1` is not
        // swept yet.
        let up = if i == 0 { above } else { Some(&prev[..]) };
        let down = if i + 1 == m {
            below
        } else {
            Some(&rows[i + 1][..])
        };
        // Boundary rows of the global domain are fixed.
        let (Some(up), Some(down)) = (up, down) else {
            prev.copy_from_slice(&rows[i]);
            continue;
        };
        let (up, down, row, out) = (&up[..n], &down[..n], &rows[i][..n], &mut next[..n]);
        out[0] = row[0];
        out[n - 1] = row[n - 1];
        for j in 1..n - 1 {
            let neighbors = up[j] + down[j] + row[j - 1] + row[j + 1];
            out[j] = row[j] + omega * 0.25 * (neighbors - 4.0 * row[j]);
        }
        // The swept row goes in, the row as it was becomes `prev`, and
        // the old `prev` is the next row's scratch.
        std::mem::swap(&mut rows[i], next);
        std::mem::swap(prev, next);
    }
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

    /// The sweep as it was before it ran in place: the oracle.
    fn copying_sweep(
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

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// A row of width `n` seeded by `seed`, with signed zeros, subnormals
    /// and ordinary values mixed in.
    fn odd_row(n: usize, seed: u64) -> Vec<f64> {
        let sub = f64::MIN_POSITIVE / 4.0;
        (0..n as u64)
            .map(|j| match (j * 7 + seed * 13) % 9 {
                0 => 0.0,
                1 => -0.0,
                2 => sub * (j + 1) as f64,
                3 => -sub,
                4 => f64::from_bits(1),
                _ => ((j * 31 + seed * 17) % 23) as f64 * 0.37 - 4.0,
            })
            .collect()
    }

    #[test]
    fn in_place_sweeps_equal_the_copying_sweep_to_the_bit() {
        let n = 19;
        let halo_a = odd_row(n, 100);
        let halo_b = odd_row(n, 200);
        for m in [1, 2, 3, 8] {
            for (above, below) in [
                (Some(&halo_a[..]), Some(&halo_b[..])),
                (None, Some(&halo_b[..])),
                (Some(&halo_a[..]), None),
                (None, None),
            ] {
                for omega in [1.0, 1.7, 0.3] {
                    let mut block: Vec<Vec<f64>> = (0..m).map(|i| odd_row(n, i as u64)).collect();
                    let mut want = block.clone();
                    let mut spare = Default::default();
                    for sweep in 0..20 {
                        want = copying_sweep(&want, above, below, omega);
                        sor_sweep_in_place(&mut block, above, below, omega, &mut spare);
                        assert_eq!(bits(&block), bits(&want), "m {m}, ω {omega}, sweep {sweep}");
                    }
                    let swept = sor_sweep_block(&block, above, below, omega);
                    let want = copying_sweep(&want, above, below, omega);
                    assert_eq!(bits(&swept), bits(&want));
                }
            }
        }
    }

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
