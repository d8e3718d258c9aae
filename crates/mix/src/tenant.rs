//! Tenant descriptions: what each co-scheduled program runs, and the
//! `[l(P), b(P), c]` descriptor it hands the QoS admission controller.

use fxnet_apps::{fft2d, hist, seq, sor, t2dfft, KernelKind};
use fxnet_fx::{shift, CostModel, Pattern, RankCtx};
use fxnet_qos::AppDescriptor;
use fxnet_sim::SimTime;
use std::sync::Arc;

/// The program a tenant runs on its slice of the machine.
#[derive(Debug, Clone)]
pub enum TenantProgram {
    /// One of the paper's measured kernels at paper scale, with the outer
    /// iteration count divided by `div` (1 = the full measured run).
    Kernel { kind: KernelKind, div: usize },
    /// The synthetic shift-pattern program of §7.3: `rounds` cycles of
    /// `work_s` seconds of total computation (divided over the ranks)
    /// followed by a `bytes`-sized shift exchange. Its descriptor is
    /// *exact*, which makes it the reference workload for checking the
    /// QoS model's slowdown predictions. Needs `p >= 2`.
    Shift {
        work_s: f64,
        bytes: u64,
        rounds: usize,
    },
}

impl TenantProgram {
    /// The traffic descriptor the tenant presents at admission. Kernel
    /// descriptors are coarse compile-time estimates (operation counts
    /// through the cost model, boundary/block sizes from the paper-scale
    /// parameters); the shift descriptor is exact by construction.
    pub fn descriptor(&self, cost: &CostModel) -> AppDescriptor {
        match *self {
            TenantProgram::Kernel { kind, div: _ } => match kind {
                KernelKind::Sor => {
                    let p = sor::SorParams::paper();
                    let sweep = cost.mem((p.n * p.n) as u64 * p.bytes_per_point);
                    let row = 8 * p.n as u64;
                    AppDescriptor::scalable(Pattern::Neighbor, sweep.as_secs_f64(), move |_| row)
                }
                KernelKind::Fft2d => {
                    let p = fft2d::FftParams::paper();
                    let n = p.n as u64;
                    // Two 1-D FFT passes over N rows of N points each.
                    let flops = 2 * n * 5 * n * n.ilog2() as u64;
                    let iter = cost.flops(flops);
                    AppDescriptor::scalable(Pattern::AllToAll, iter.as_secs_f64(), move |pp| {
                        8 * (n / u64::from(pp)).pow(2)
                    })
                }
                KernelKind::T2dfft => {
                    let p = t2dfft::T2dfftParams::paper();
                    let n = p.n as u64;
                    let flops = 2 * n * 5 * n * n.ilog2() as u64;
                    let iter = cost.flops(flops);
                    AppDescriptor::scalable(Pattern::Partition, iter.as_secs_f64(), move |pp| {
                        8 * n * n / u64::from(pp.max(2) / 2).max(1)
                    })
                }
                KernelKind::Seq => {
                    let p = seq::SeqParams::paper();
                    let row = 8 * p.n as u64;
                    let work = p.row_io.as_secs_f64() * p.n as f64;
                    AppDescriptor {
                        pattern: Pattern::Broadcast { root: 0 },
                        // Record I/O is serial on the root — it does not
                        // shrink with P.
                        local: Box::new(move |_| work),
                        burst: Box::new(move |_| row),
                    }
                }
                KernelKind::Hist => {
                    let p = hist::HistParams::paper();
                    let scan = cost.flops((p.n * p.n) as u64 * p.ops_per_point);
                    let vector = 4 * p.bins as u64;
                    AppDescriptor::scalable(Pattern::TreeUp, scan.as_secs_f64(), move |_| vector)
                }
            },
            TenantProgram::Shift {
                work_s,
                bytes,
                rounds: _,
            } => AppDescriptor::scalable(Pattern::Shift { k: 1 }, work_s, move |_| bytes),
        }
    }

    /// Build the SPMD rank program. All programs return a `u64` checksum
    /// so outcomes are comparable across tenants.
    pub fn rank_program(&self) -> Arc<dyn Fn(&mut RankCtx) -> u64 + Send + Sync> {
        match *self {
            TenantProgram::Kernel { kind, div } => kind.rank_program(div),
            TenantProgram::Shift {
                work_s,
                bytes,
                rounds,
            } => Arc::new(move |ctx| {
                assert!(ctx.nprocs() >= 2, "shift tenant needs p >= 2");
                let per_rank = SimTime::from_secs_f64(work_s / f64::from(ctx.nprocs()));
                let payload: Vec<u8> = (0..bytes).map(|i| (i % 251) as u8).collect();
                let mut acc = 0u64;
                for round in 0..rounds {
                    ctx.compute_time(per_rank);
                    let got = shift(ctx, round as i32, 1, &payload);
                    acc = acc
                        .wrapping_mul(0x100_0000_01b3)
                        .wrapping_add(got.len() as u64);
                }
                acc
            }),
        }
    }

    /// Display name of the program.
    pub fn label(&self) -> String {
        match self {
            TenantProgram::Kernel { kind, .. } => kind.name().to_string(),
            TenantProgram::Shift { .. } => "SHIFT".to_string(),
        }
    }
}

/// One tenant of the mix: a program, its processor demand, and when it
/// arrives.
#[derive(Clone)]
pub struct MixTenant {
    /// Display name ("SOR", "tenant-2", ...).
    pub name: String,
    /// What the tenant runs.
    pub program: TenantProgram,
    /// Processor (and host) count the tenant is compiled for. Admission
    /// is negotiated at exactly this P: the Fx binary is already
    /// compiled, so the mixer cannot rescale it.
    pub p: u32,
    /// Simulated arrival/start time.
    pub start: SimTime,
    /// Scale applied to the burst sizes of the descriptor this tenant
    /// *presents at admission* — what it runs is unchanged. 1.0 is an
    /// honest tenant; below 1.0 the tenant under-declares its traffic
    /// (over-drives its contract), which admission cannot see but the
    /// streaming watcher (`fxnet-watch`) catches online.
    pub claim_scale: f64,
}

impl MixTenant {
    /// A tenant running `kind` at paper scale divided by `div`.
    pub fn kernel(name: &str, kind: KernelKind, div: usize, p: u32, start: SimTime) -> MixTenant {
        MixTenant {
            name: name.to_string(),
            program: TenantProgram::Kernel { kind, div },
            p,
            start,
            claim_scale: 1.0,
        }
    }

    /// A synthetic shift-pattern tenant (§7.3 reference workload).
    pub fn shift(name: &str, work_s: f64, bytes: u64, rounds: usize, p: u32) -> MixTenant {
        MixTenant {
            name: name.to_string(),
            program: TenantProgram::Shift {
                work_s,
                bytes,
                rounds,
            },
            p,
            start: SimTime::ZERO,
            claim_scale: 1.0,
        }
    }

    /// Scale the burst sizes this tenant claims at admission (see
    /// [`MixTenant::claim_scale`]).
    pub fn with_claim_scale(mut self, scale: f64) -> MixTenant {
        assert!(scale > 0.0, "claim scale must be positive");
        self.claim_scale = scale;
        self
    }

    /// The descriptor this tenant *presents* to the admission
    /// controller: the program's true descriptor with burst sizes
    /// scaled by `claim_scale`. Identical to the true descriptor for an
    /// honest tenant.
    pub fn claimed_descriptor(&self, cost: &CostModel) -> AppDescriptor {
        let app = self.program.descriptor(cost);
        if (self.claim_scale - 1.0).abs() < f64::EPSILON {
            return app;
        }
        let scale = self.claim_scale;
        let burst = app.burst;
        AppDescriptor {
            pattern: app.pattern,
            local: app.local,
            burst: Box::new(move |p| ((burst(p) as f64 * scale).round() as u64).max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_descriptor_is_exact() {
        let prog = TenantProgram::Shift {
            work_s: 2.0,
            bytes: 400_000,
            rounds: 3,
        };
        let d = prog.descriptor(&CostModel::default());
        assert_eq!((d.burst)(4), 400_000);
        assert!(((d.local)(4) - 0.5).abs() < 1e-12);
        // Shift: P simplex connections, all concurrent.
        assert_eq!(d.concurrent_connections(4), 4);
    }

    #[test]
    fn kernel_descriptors_cover_all_kinds() {
        let cost = CostModel::default();
        for kind in KernelKind::ALL {
            let prog = TenantProgram::Kernel { kind, div: 50 };
            let d = prog.descriptor(&cost);
            assert!((d.local)(4) > 0.0, "{kind:?} local time");
            assert!((d.burst)(4) > 0, "{kind:?} burst bytes");
            assert!(d.concurrent_connections(4) > 0, "{kind:?} connections");
        }
    }

    #[test]
    fn claim_scale_shrinks_only_the_presented_descriptor() {
        let t = MixTenant::shift("u", 2.0, 400_000, 3, 4).with_claim_scale(0.125);
        let cost = CostModel::default();
        let claimed = t.claimed_descriptor(&cost);
        let truth = t.program.descriptor(&cost);
        assert_eq!((claimed.burst)(4), 50_000, "burst claim scaled by 1/8");
        assert_eq!((truth.burst)(4), 400_000, "the program itself is unchanged");
        assert_eq!(
            (claimed.local)(4),
            (truth.local)(4),
            "compute claim untouched"
        );
        let honest = MixTenant::shift("h", 2.0, 400_000, 3, 4);
        assert_eq!(honest.claim_scale, 1.0);
        assert_eq!((honest.claimed_descriptor(&cost).burst)(4), 400_000);
    }

    #[test]
    fn labels_match_kernel_names() {
        let prog = TenantProgram::Kernel {
            kind: KernelKind::Sor,
            div: 1,
        };
        assert_eq!(prog.label(), "SOR");
        let s = TenantProgram::Shift {
            work_s: 1.0,
            bytes: 1,
            rounds: 1,
        };
        assert_eq!(s.label(), "SHIFT");
    }
}
