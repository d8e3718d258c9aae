//! AIRSHED — the multiscale air-quality model skeleton (paper §3.2).
//!
//! The skeleton models the computation and communication of the real
//! application: `s` chemical species over `p` grid points in each of `l`
//! atmospheric layers, advanced for `h` simulation hours of `k` steps
//! each. The concentration array is distributed *by layer*; horizontal
//! transport (a direct solver applied per layer and species) is local in
//! that distribution, but chemistry/vertical transport operates per grid
//! point across all layers, so each step performs an all-to-all
//! distribution transpose before it and a reverse transpose after —
//! "k back-to-back pairs of all-to-all traffic".
//!
//! Like the skeleton the paper measured, compute *durations* are modelled
//! per phase (preprocessing, transport, chemistry) while the numerics run
//! for real at reduced scale: a genuine LU stiffness factorization per
//! layer per hour and genuine backsolves and vertical mixing on the
//! distributed concentration data, verified against a sequential
//! reference. The three phase durations produce the paper's three
//! spectral timescales (≈66 s hour, ≈5 s chemistry step, ≈200 ms
//! transport).

use crate::checksum;
use fxnet_fx::{BlockDist, RankCtx};
use fxnet_numerics::linalg::{stiffness_matrix, Lu};
use fxnet_pvm::MessageBuilder;
use fxnet_sim::SimTime;

/// AIRSHED skeleton parameters.
#[derive(Debug, Clone)]
pub struct AirshedParams {
    /// Chemical species count `s`.
    pub species: usize,
    /// Grid points per layer `p`.
    pub grid: usize,
    /// Atmospheric layers `l`.
    pub layers: usize,
    /// Simulation steps per hour `k`.
    pub steps: usize,
    /// Simulation hours `h`.
    pub hours: usize,
    /// Dimension of the real (reduced-scale) stiffness system.
    pub fe_dim: usize,
    /// Modelled duration of the hourly preprocessing phase (stiffness
    /// assembly + factorization for the full-size system).
    pub preprocess: SimTime,
    /// Modelled duration of one horizontal-transport phase.
    pub transport: SimTime,
    /// Modelled duration of one chemistry/vertical-transport phase.
    pub chem: SimTime,
}

impl AirshedParams {
    /// The measured configuration: s=35, p=1024, l=4, k=5, h=100, with
    /// phase durations landing the paper's 0.015 / 0.2 / 5 Hz peaks.
    pub fn paper() -> AirshedParams {
        AirshedParams {
            species: 35,
            grid: 1024,
            layers: 4,
            steps: 5,
            hours: 100,
            fe_dim: 96,
            preprocess: SimTime::from_secs(42),
            transport: SimTime::from_millis(200),
            chem: SimTime::from_millis(3800),
        }
    }

    /// A CI-sized configuration.
    pub fn tiny() -> AirshedParams {
        AirshedParams {
            species: 3,
            grid: 16,
            layers: 4,
            steps: 2,
            hours: 2,
            fe_dim: 8,
            preprocess: SimTime::from_millis(30),
            transport: SimTime::from_millis(2),
            chem: SimTime::from_millis(8),
        }
    }
}

/// Deterministic initial concentration at (layer, species, grid point).
pub fn initial_concentration(l: usize, sp: usize, gp: usize) -> f64 {
    1.0 + ((l * 131 + sp * 17 + gp * 7) % 100) as f64 * 0.01
}

/// Concentrations cross the wire as Fortran `REAL` (f32). Both the
/// distributed path (at pack/unpack) and the sequential reference (at
/// the same points) apply this rounding, so results stay bit-identical.
#[inline]
fn round_wire(x: f64) -> f64 {
    x as f32 as f64
}

/// Layer-layout block for layers `llo..lhi`: index
/// `((l − llo) · species + sp) · grid + gp`.
fn init_layer_block(p: &AirshedParams, llo: usize, lhi: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity((lhi - llo) * p.species * p.grid);
    for l in llo..lhi {
        for sp in 0..p.species {
            for gp in 0..p.grid {
                v.push(initial_concentration(l, sp, gp));
            }
        }
    }
    v
}

/// Factor the (reduced-scale) stiffness matrix of global layer `l`.
fn layer_stiffness(p: &AirshedParams, l: usize) -> Lu {
    Lu::factor(stiffness_matrix(p.fe_dim, 0.5 + 0.1 * l as f64)).expect("diagonally dominant")
}

/// Horizontal transport on a layer-layout block whose layers `lus`
/// factors in order: one backsolve per (layer, species), a layer's
/// species solved together as the columns of one `fe_dim × species`
/// system, writing the solution back into the leading `fe_dim` grid
/// points.
fn transport_block(block: &mut [f64], p: &AirshedParams, lus: &[Lu]) {
    let mut rhs = vec![0.0f64; p.fe_dim * p.species];
    for (layer, lu) in block.chunks_exact_mut(p.species * p.grid).zip(lus) {
        for (sp, conc) in layer.chunks_exact(p.grid).enumerate() {
            for (gp, &v) in conc[..p.fe_dim].iter().enumerate() {
                rhs[gp * p.species + sp] = v;
            }
        }
        lu.solve_many(&mut rhs, p.species);
        for (sp, conc) in layer.chunks_exact_mut(p.grid).enumerate() {
            for (gp, v) in conc[..p.fe_dim].iter_mut().enumerate() {
                *v = rhs[gp * p.species + sp];
            }
        }
    }
}

/// Chemistry + vertical transport on a grid-layout block (all layers and
/// species, grid points `glo..ghi`; index `(l · species + sp) · width +
/// (gp − glo)`): vertical mixing toward the column mean, then first-order
/// chemical decay. Operates per grid point, which is exactly why the
/// transpose is required.
fn chem_block(block: &mut [f64], p: &AirshedParams, width: usize) {
    for sp in 0..p.species {
        for g in 0..width {
            let mut mean = 0.0;
            for l in 0..p.layers {
                mean += block[(l * p.species + sp) * width + g];
            }
            mean /= p.layers as f64;
            for l in 0..p.layers {
                let v = &mut block[(l * p.species + sp) * width + g];
                *v += 0.05 * (mean - *v);
                *v *= 1.0 - 1e-4;
            }
        }
    }
}

/// The per-rank SPMD program. Returns the checksum of the rank's final
/// layer-layout block.
pub fn airshed_rank(ctx: &mut RankCtx, p: &AirshedParams) -> u64 {
    let (me, np) = (ctx.rank() as usize, ctx.nprocs() as usize);
    assert_eq!(p.layers % np, 0, "ranks must divide layers");
    assert_eq!(p.grid % np, 0, "ranks must divide grid points");
    let ldist = BlockDist::new(p.layers, np);
    let gdist = BlockDist::new(p.grid, np);
    let (llo, lhi) = (ldist.lo(me), ldist.hi(me));
    let (glo, ghi) = (gdist.lo(me), gdist.hi(me));
    let gw = ghi - glo;
    let my_layers = lhi - llo;

    let mut c = init_layer_block(p, llo, lhi);

    for hour in 0..p.hours {
        // Hourly preprocessing: assemble + factor each owned layer's
        // stiffness matrix (real at reduced scale; duration modelled).
        let lus: Vec<Lu> = (llo..lhi).map(|l| layer_stiffness(p, l)).collect();
        ctx.compute_time(p.preprocess);

        for step in 0..p.steps {
            let tag = (hour * p.steps + step) as i32;

            // Horizontal transport (local in the layer distribution).
            transport_block(&mut c, p, &lus);
            ctx.compute_time(p.transport);

            // Forward transpose: layer layout → grid layout. Data moves
            // as f32 (Fortran REAL); the diagonal piece is rounded the
            // same way so every element sees exactly one rounding.
            ctx.phase_begin("forward_transpose");
            let mut g = vec![0.0f64; p.layers * p.species * gw];
            // Own diagonal piece.
            for l in llo..lhi {
                for sp in 0..p.species {
                    for gp in glo..ghi {
                        g[(l * p.species + sp) * gw + (gp - glo)] =
                            round_wire(c[((l - llo) * p.species + sp) * p.grid + gp]);
                    }
                }
            }
            for r in 1..np {
                let dst = (me + r) % np;
                let src = (me + np - r) % np;
                let (dglo, dghi) = (gdist.lo(dst), gdist.hi(dst));
                let mut buf: Vec<f32> = Vec::with_capacity(my_layers * p.species * (dghi - dglo));
                for l in 0..my_layers {
                    for sp in 0..p.species {
                        let base = (l * p.species + sp) * p.grid;
                        buf.extend(c[base + dglo..base + dghi].iter().map(|&v| v as f32));
                    }
                }
                let mut b = MessageBuilder::new(tag);
                b.pack_f32(&buf);
                ctx.send(dst as u32, b.finish());

                let (sllo, slhi) = (ldist.lo(src), ldist.hi(src));
                let m = ctx.recv(src as u32);
                let vals = m.reader().f32s((slhi - sllo) * p.species * gw);
                let mut it = vals.iter();
                for l in sllo..slhi {
                    for sp in 0..p.species {
                        for gp in 0..gw {
                            g[(l * p.species + sp) * gw + gp] =
                                f64::from(*it.next().expect("size"));
                        }
                    }
                }
            }
            ctx.phase_end();

            // Chemistry / vertical transport (local in grid distribution).
            chem_block(&mut g, p, gw);
            ctx.compute_time(p.chem);

            // Reverse transpose: grid layout → layer layout (f32 wire).
            ctx.phase_begin("reverse_transpose");
            for l in llo..lhi {
                for sp in 0..p.species {
                    for gp in glo..ghi {
                        c[((l - llo) * p.species + sp) * p.grid + gp] =
                            round_wire(g[(l * p.species + sp) * gw + (gp - glo)]);
                    }
                }
            }
            for r in 1..np {
                let dst = (me + r) % np;
                let src = (me + np - r) % np;
                let (dllo, dlhi) = (ldist.lo(dst), ldist.hi(dst));
                let mut buf: Vec<f32> = Vec::with_capacity((dlhi - dllo) * p.species * gw);
                for l in dllo..dlhi {
                    for sp in 0..p.species {
                        let base = (l * p.species + sp) * gw;
                        buf.extend(g[base..base + gw].iter().map(|&v| v as f32));
                    }
                }
                let mut b = MessageBuilder::new(!tag);
                b.pack_f32(&buf);
                ctx.send(dst as u32, b.finish());

                let (sglo, sghi) = (gdist.lo(src), gdist.hi(src));
                let m = ctx.recv(src as u32);
                let vals = m.reader().f32s(my_layers * p.species * (sghi - sglo));
                let mut it = vals.iter();
                for l in 0..my_layers {
                    for sp in 0..p.species {
                        for gp in sglo..sghi {
                            c[(l * p.species + sp) * p.grid + gp] =
                                f64::from(*it.next().expect("size"));
                        }
                    }
                }
            }
            ctx.phase_end();

            // Second horizontal transport of the step.
            transport_block(&mut c, p, &lus);
            ctx.compute_time(p.transport);
        }
    }
    checksum(&c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_fx::{run_single, RunOptions, SpmdConfig};
    use fxnet_sim::FrameKind;

    /// Sequential reference: per-rank layer-block checksums for `np` ranks.
    fn airshed_sequential(p: &AirshedParams, np: usize) -> Vec<u64> {
        let mut c = init_layer_block(p, 0, p.layers);
        for _hour in 0..p.hours {
            let lus: Vec<Lu> = (0..p.layers).map(|l| layer_stiffness(p, l)).collect();
            for _step in 0..p.steps {
                transport_block(&mut c, p, &lus);
                // In the sequential reference the "transpose" is the identity
                // on data, but the f32 wire rounding still applies; chemistry
                // runs on the full grid width.
                for v in c.iter_mut() {
                    *v = round_wire(*v);
                }
                chem_block(&mut c, p, p.grid);
                for v in c.iter_mut() {
                    *v = round_wire(*v);
                }
                transport_block(&mut c, p, &lus);
            }
        }
        let ldist = BlockDist::new(p.layers, np);
        (0..np)
            .map(|r| {
                let seg = &c[ldist.lo(r) * p.species * p.grid..ldist.hi(r) * p.species * p.grid];
                checksum(seg)
            })
            .collect()
    }

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
        let params = AirshedParams::tiny();
        let want = airshed_sequential(&params, 4);
        let pp = params.clone();
        let res = run_single(
            cfg(4),
            move |ctx| airshed_rank(ctx, &pp),
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(res.results, want);
    }

    #[test]
    fn two_rank_version_matches() {
        let params = AirshedParams::tiny();
        let want = airshed_sequential(&params, 2);
        let pp = params.clone();
        let res = run_single(
            cfg(2),
            move |ctx| airshed_rank(ctx, &pp),
            RunOptions::default(),
        )
        .unwrap();
        assert_eq!(res.results, want);
    }

    #[test]
    fn transpose_pairs_per_step() {
        let params = AirshedParams {
            hours: 1,
            steps: 3,
            ..AirshedParams::tiny()
        };
        let res = run_single(
            cfg(4),
            move |ctx| airshed_rank(ctx, &params),
            RunOptions::default(),
        )
        .unwrap();
        let data_msgs = res
            .trace
            .iter()
            .filter(|r| r.kind == FrameKind::Data)
            .count();
        // Each transpose moves P(P−1) messages; 2 transposes × 3 steps.
        // With the tiny size each message is a single frame.
        assert_eq!(data_msgs, 12 * 2 * 3);
    }

    #[test]
    fn chemistry_conserves_column_coupling() {
        // After mixing, layer values at one grid point move toward their
        // mean: the spread must shrink.
        let p = AirshedParams::tiny();
        let mut block = init_layer_block(&p, 0, p.layers);
        let spread = |b: &[f64]| {
            let vals: Vec<f64> = (0..p.layers).map(|l| b[(l * p.species) * p.grid]).collect();
            let mx = vals.iter().cloned().fold(f64::MIN, f64::max);
            let mn = vals.iter().cloned().fold(f64::MAX, f64::min);
            mx - mn
        };
        let before = spread(&block);
        chem_block(&mut block, &p, p.grid);
        let after = spread(&block);
        assert!(after < before || before == 0.0);
    }

    #[test]
    fn transport_only_touches_fe_prefix() {
        let p = AirshedParams::tiny();
        let mut block = init_layer_block(&p, 0, p.layers);
        let orig = block.clone();
        let lus: Vec<Lu> = (0..p.layers).map(|l| layer_stiffness(&p, l)).collect();
        transport_block(&mut block, &p, &lus);
        for l in 0..p.layers {
            for sp in 0..p.species {
                let base = (l * p.species + sp) * p.grid;
                assert_eq!(
                    &block[base + p.fe_dim..base + p.grid],
                    &orig[base + p.fe_dim..base + p.grid],
                    "grid points beyond fe_dim must be untouched"
                );
            }
        }
    }
}
