//! SOR — successive overrelaxation, the *neighbor* pattern kernel.
//!
//! The N×N grid has its rows block-distributed; in every step each rank
//! (except the ends) exchanges one boundary row with each lattice
//! neighbor before sweeping its block: O(N) bytes to p−1 and p+1, and
//! O(N²/P) local work. The per-connection traffic is highly periodic
//! (paper: ≈5 Hz fundamental at N=512, P=4) while the aggregate is less
//! clean because neighbor exchange only loosely synchronizes the ranks.

use crate::checksum;
use fxnet_fx::{BlockDist, RankCtx};
use fxnet_numerics::sor::{sor_reference, sor_sweep_in_place};
use fxnet_pvm::MessageBuilder;

/// SOR kernel parameters.
#[derive(Debug, Clone)]
pub struct SorParams {
    /// Grid dimension N.
    pub n: usize,
    /// Outer iterations (paper: each kernel's outer loop ran 100×).
    pub steps: usize,
    /// Overrelaxation factor ω.
    pub omega: f64,
    /// Modelled memory traffic per stencil point, in bytes. The paper's
    /// measured 5.6 KB/s SOR average implies a step period of seconds,
    /// i.e. tens of microseconds per point: Fx compiles the array
    /// assignment through shifted-section temporaries, making the sweep
    /// many full-array passes of memory traffic, not one. The default is
    /// inferred from Figure 5 (≈20 array passes).
    pub bytes_per_point: u64,
}

impl SorParams {
    /// The measured configuration: N=512, 100 outer iterations.
    pub fn paper() -> SorParams {
        SorParams {
            n: 512,
            steps: 100,
            omega: 1.0,
            bytes_per_point: 1300,
        }
    }

    /// A CI-sized configuration.
    pub fn tiny() -> SorParams {
        SorParams {
            n: 32,
            steps: 6,
            omega: 1.0,
            bytes_per_point: 48,
        }
    }
}

/// Deterministic initial grid: hot top boundary, interior perturbation.
pub fn initial_row(n: usize, global_row: usize) -> Vec<f64> {
    if global_row == 0 {
        vec![100.0; n]
    } else {
        (0..n)
            .map(|j| ((global_row * 31 + j * 17) % 11) as f64 * 0.5)
            .collect()
    }
}

/// The per-rank SPMD program. Returns a checksum of the rank's final
/// block (row-major), so tests can stitch and compare with the reference.
pub fn sor_rank(ctx: &mut RankCtx, p: &SorParams) -> u64 {
    let (me, np) = (ctx.rank() as usize, ctx.nprocs() as usize);
    let dist = BlockDist::new(p.n, np);
    let (lo, hi) = (dist.lo(me), dist.hi(me));
    let mut block: Vec<Vec<f64>> = (lo..hi).map(|r| initial_row(p.n, r)).collect();
    let mut spare = Default::default();

    for step in 0..p.steps {
        // Communication phase: exchange boundary rows with neighbors.
        // Sends are buffered, so send-then-receive cannot deadlock.
        let tag = step as i32;
        ctx.phase_begin("boundary_exchange");
        if me > 0 {
            let mut b = MessageBuilder::new(tag);
            b.pack_f64(&block[0]);
            ctx.send(me as u32 - 1, b.finish());
        }
        if me + 1 < np {
            let mut b = MessageBuilder::new(tag);
            b.pack_f64(block.last().expect("nonempty block"));
            ctx.send(me as u32 + 1, b.finish());
        }
        let above: Option<Vec<f64>> = if me > 0 {
            Some(ctx.recv(me as u32 - 1).reader().f64s(p.n))
        } else {
            None
        };
        let below: Option<Vec<f64>> = if me + 1 < np {
            Some(ctx.recv(me as u32 + 1).reader().f64s(p.n))
        } else {
            None
        };
        ctx.phase_end();

        // Local computation phase: one weighted-Jacobi sweep (memory-bound).
        sor_sweep_in_place(
            &mut block,
            above.as_deref(),
            below.as_deref(),
            p.omega,
            &mut spare,
        );
        ctx.compute_mem((hi - lo) as u64 * p.n as u64 * p.bytes_per_point);
    }

    let flat: Vec<f64> = block.into_iter().flatten().collect();
    checksum(&flat)
}

/// Sequential reference producing per-rank block checksums for `np` ranks.
pub fn sor_sequential(p: &SorParams, np: usize) -> Vec<u64> {
    let mut grid: Vec<Vec<f64>> = (0..p.n).map(|r| initial_row(p.n, r)).collect();
    sor_reference(&mut grid, p.omega, p.steps);
    let dist = BlockDist::new(p.n, np);
    (0..np)
        .map(|r| {
            let flat: Vec<f64> = grid[dist.lo(r)..dist.hi(r)]
                .iter()
                .flatten()
                .copied()
                .collect();
            checksum(&flat)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_fx::{run_single, RunOptions, SpmdConfig};

    fn cfg(p: u32) -> SpmdConfig {
        let mut c = SpmdConfig {
            p,
            hosts: p + 1,
            ..SpmdConfig::default()
        };
        c.pvm.heartbeat = None;
        c
    }

    #[test]
    fn distributed_matches_sequential() {
        let params = SorParams::tiny();
        let want = sor_sequential(&params, 4);
        let pp = params.clone();
        let res = run_single(cfg(4), move |ctx| sor_rank(ctx, &pp), RunOptions::default()).unwrap();
        assert_eq!(res.results, want);
    }

    #[test]
    fn works_on_two_ranks() {
        let params = SorParams {
            n: 16,
            steps: 3,
            ..SorParams::tiny()
        };
        let want = sor_sequential(&params, 2);
        let pp = params.clone();
        let res = run_single(cfg(2), move |ctx| sor_rank(ctx, &pp), RunOptions::default()).unwrap();
        assert_eq!(res.results, want);
    }

    #[test]
    fn traffic_uses_only_neighbor_connections() {
        let params = SorParams::tiny();
        let res = run_single(
            cfg(4),
            move |ctx| sor_rank(ctx, &params),
            RunOptions::default(),
        )
        .unwrap();
        for r in &res.trace {
            let (a, b) = (r.src.0 as i64, r.dst.0 as i64);
            assert!(
                (a - b).abs() == 1,
                "non-neighbor frame {a}->{b} in SOR trace"
            );
        }
    }

    #[test]
    fn boundary_rows_never_change() {
        // Rank 0's first row is the hot boundary: the reference and the
        // kernel must both hold it at 100.
        let params = SorParams::tiny();
        let mut grid: Vec<Vec<f64>> = (0..params.n).map(|r| initial_row(params.n, r)).collect();
        sor_reference(&mut grid, params.omega, params.steps);
        assert!(grid[0].iter().all(|&v| v == 100.0));
    }
}
