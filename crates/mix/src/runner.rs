//! The mixer: admit tenants, co-execute the admitted set on one shared
//! network, demultiplex the promiscuous trace, and quantify interference
//! against per-tenant solo baselines.

use crate::admission::{AdmissionController, Rejection};
use crate::tenant::MixTenant;
use fxnet_fx::{run, run_single, CausalRun, GroupSpec, RunOptions, SpmdConfig};
use fxnet_pvm::TenantMap;
use fxnet_qos::{Negotiation, QosNetwork};
use fxnet_sim::{FrameRecord, FrameTap, HostId, SimTime};
use fxnet_telemetry::RunTelemetry;
use fxnet_trace::{
    burst_collisions, demux_store, slowdown, Burst, Periodogram, SpectralInterference, Stats,
    TraceStore,
};
use fxnet_watch::{StreamWatch, TenantContract, WatchReport};
use std::sync::{Arc, Mutex};

/// Quiet gap separating bursts in the interference analysis.
const BURST_GAP: SimTime = SimTime::from_millis(10);

/// Bin width of the solo-vs-mixed periodograms: the paper's 10 ms
/// measurement window.
const SPECTRUM_BIN: SimTime = SimTime::from_millis(10);

/// Everything measured about one admitted tenant.
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Ranks it ran on.
    pub p: u32,
    /// Its staggered start time.
    pub start: SimTime,
    /// The accepted QoS operating point.
    pub negotiation: Negotiation,
    /// Frames in the tenant's demuxed share of the shared trace.
    pub frames: usize,
    /// Per-rank return values.
    pub results: Vec<u64>,
    /// Wall-clock duration under the mix (start to its last rank done).
    pub mixed_secs: f64,
    /// Duration of the solo baseline run, when one was taken.
    pub solo_secs: Option<f64>,
    /// Measured slowdown: `mixed_secs / solo_secs`.
    pub measured_slowdown: Option<f64>,
    /// The QoS model's predicted slowdown (shared-capacity burst split).
    pub predicted_slowdown: f64,
    /// Packet-size statistics of the demuxed sub-trace.
    pub sizes: Option<Stats>,
    /// Lifetime average bandwidth of the sub-trace, bytes/s.
    pub avg_bw: Option<f64>,
    /// Packet-size statistics of the solo baseline trace.
    pub solo_sizes: Option<Stats>,
    /// Lifetime average bandwidth of the solo baseline, bytes/s.
    pub solo_avg_bw: Option<f64>,
    /// How many of this tenant's bursts overlapped other tenants' bursts.
    pub burst_collisions: usize,
    /// Bursts detected in the demuxed sub-trace.
    pub burst_count: usize,
    /// Spectral comparison against the solo baseline.
    pub spectral: Option<SpectralInterference>,
}

/// Outcome of a whole mixed run.
pub struct MixOutcome {
    /// Admitted tenants, in admission order, with their measurements.
    pub tenants: Vec<TenantOutcome>,
    /// Tenants refused at admission (they did not run).
    pub rejected: Vec<Rejection>,
    /// Host/task ownership of the admitted set.
    pub map: TenantMap,
    /// The full promiscuous trace of the shared network, as the one
    /// columnar store the demux ran over.
    pub store: TraceStore,
    /// Count of the frames belonging to no single tenant
    /// (cross-boundary daemon chatter, idle hosts).
    pub background: usize,
    /// Simulated finish time of the last rank of any tenant.
    pub finished_at: SimTime,
    /// Telemetry of the mixed run, when enabled.
    pub telemetry: Option<RunTelemetry>,
    /// Streaming-watcher report, when a watcher was attached.
    pub watch: Option<WatchReport>,
    /// Causal capture of the mixed run (application ops and per-frame
    /// cause chains), when enabled.
    pub causal: Option<CausalRun>,
    /// Per-link sample series of the mixed run, when sampling was
    /// enabled via [`Mix::sample_links`].
    pub link_stats: Option<fxnet_sim::LinkStats>,
}

impl MixOutcome {
    /// Assert the demux conservation property — per-tenant frame counts
    /// plus background sum exactly to the aggregate — and return the
    /// total.
    pub fn check_conservation(&self) -> usize {
        let attributed: usize =
            self.tenants.iter().map(|t| t.frames).sum::<usize>() + self.background;
        assert_eq!(
            attributed,
            self.store.len(),
            "per-tenant frame counts must sum to the aggregate"
        );
        self.store.len()
    }

    /// Human-readable report: admission log, per-tenant demuxed traffic
    /// statistics, and interference metrics with the QoS model's
    /// predicted slowdown next to the measured one.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        push(
            &mut out,
            format!(
                "mixed run: {} admitted, {} rejected, {} frames total ({} background), finished at {:.3} s",
                self.tenants.len(),
                self.rejected.len(),
                self.check_conservation(),
                self.background,
                self.finished_at.as_secs_f64()
            ),
        );
        for r in &self.rejected {
            push(&mut out, format!("  admission: {r}"));
        }
        push(
            &mut out,
            "| tenant | P | start s | frames | avg BW B/s | pkt avg/sd B | bursts | collisions | slowdown meas | slowdown pred | peak solo→mix Hz | smearing |".to_string(),
        );
        push(
            &mut out,
            "|--------|---|---------|--------|------------|--------------|--------|------------|---------------|---------------|------------------|----------|".to_string(),
        );
        for t in &self.tenants {
            let (avg, sd) = t.sizes.as_ref().map_or((0.0, 0.0), |s| (s.avg, s.sd));
            let peaks = t.spectral.map_or("-".to_string(), |s| {
                format!("{:.2}→{:.2}", s.solo_peak_hz, s.mixed_peak_hz)
            });
            let smear = t
                .spectral
                .map_or("-".to_string(), |s| format!("{:+.3}", s.smearing));
            push(
                &mut out,
                format!(
                    "| {} | {} | {:.3} | {} | {:.0} | {:.0}/{:.0} | {} | {} | {} | {:.3} | {} | {} |",
                    t.name,
                    t.p,
                    t.start.as_secs_f64(),
                    t.frames,
                    t.avg_bw.unwrap_or(0.0),
                    avg,
                    sd,
                    t.burst_count,
                    t.burst_collisions,
                    t.measured_slowdown
                        .map_or("-".to_string(), |s| format!("{s:.3}")),
                    t.predicted_slowdown,
                    peaks,
                    smear,
                ),
            );
        }
        out
    }
}

/// Builder for a mixed multi-tenant run.
pub struct Mix {
    cfg: SpmdConfig,
    net: QosNetwork,
    tenants: Vec<MixTenant>,
    solo_baselines: bool,
    watch: bool,
    causal: bool,
    sample_links: bool,
}

impl Mix {
    /// A mixer over the testbed configuration `cfg` and the paper's
    /// 10 Mb/s shared Ethernet as the QoS network.
    pub fn new(cfg: SpmdConfig) -> Mix {
        Mix {
            cfg,
            net: QosNetwork::ethernet_10mbps(),
            tenants: Vec::new(),
            solo_baselines: true,
            watch: false,
            causal: false,
            sample_links: false,
        }
    }

    /// Replace the QoS network the admission controller draws from.
    pub fn network(mut self, net: QosNetwork) -> Mix {
        self.net = net;
        self
    }

    /// Add a tenant to the offered load.
    pub fn tenant(mut self, t: MixTenant) -> Mix {
        self.tenants.push(t);
        self
    }

    /// Whether to run each admitted tenant alone afterwards to measure
    /// slowdown and spectral interference (default true; disable for
    /// speed when only the mixed trace matters).
    pub fn solo_baselines(mut self, on: bool) -> Mix {
        self.solo_baselines = on;
        self
    }

    /// Attach a streaming watcher (`fxnet-watch`) to the mixed run's
    /// frame tap. Each admitted tenant's *claimed* contract terms are
    /// handed to the watcher, which checks the live traffic against
    /// them and reports through [`MixOutcome::watch`].
    pub fn watch(mut self) -> Mix {
        self.watch = true;
        self
    }

    /// Capture causal provenance (`fxnet-causal`) during the mixed run:
    /// every frame is tagged with the application operation that caused
    /// it, via the token side-table, so the trace stays byte-identical.
    pub fn causal(mut self, on: bool) -> Mix {
        self.causal = on;
        self
    }

    /// Enable passive per-link sampling (`fxnet-metrics` feed) during
    /// the mixed run. Observational only: the trace stays
    /// byte-identical.
    pub fn sample_links(mut self, on: bool) -> Mix {
        self.sample_links = on;
        self
    }

    /// Admit, co-execute, demux, and analyze.
    pub fn run(self) -> MixOutcome {
        let Mix {
            cfg,
            net,
            tenants,
            solo_baselines,
            watch,
            causal,
            sample_links,
        } = self;

        // Admission, in arrival order: the residual shrinks as each
        // tenant commits its negotiated mean load.
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        order.sort_by_key(|&i| tenants[i].start);
        let capacity = net.available();
        let mut ac = AdmissionController::new(net);
        let mut admitted: Vec<(usize, Negotiation)> = Vec::new();
        let mut rejected = Vec::new();
        for i in order {
            let t = &tenants[i];
            // Admission sees the descriptor the tenant *claims* — for
            // an honest tenant this is the program's true descriptor.
            let app = t.claimed_descriptor(&cfg.cost);
            match ac.admit(&t.name, &app, t.p) {
                Ok(n) => admitted.push((i, n)),
                Err(r) => rejected.push(r),
            }
        }
        admitted.sort_by_key(|&(i, _)| i);

        // Predicted slowdown from the QoS burst algebra: solo, a burst
        // gets capacity/concurrent_i; under the mix, every admitted
        // tenant's connections contend, so each gets
        // capacity/Σ concurrent_j.
        let total_concurrent: usize = admitted
            .iter()
            .map(|&(i, _)| {
                let t = &tenants[i];
                t.program.descriptor(&cfg.cost).concurrent_connections(t.p)
            })
            .sum();
        let predicted: Vec<f64> = admitted
            .iter()
            .map(|&(i, _)| {
                let t = &tenants[i];
                let app = t.program.descriptor(&cfg.cost);
                let conc = app.concurrent_connections(t.p).max(1);
                let solo = app.timing(t.p, capacity / conc as f64);
                let mixed = app.timing(t.p, capacity / total_concurrent.max(1) as f64);
                mixed.t_interval / solo.t_interval
            })
            .collect();

        // Co-execute the admitted set on one shared network.
        let groups: Vec<GroupSpec<u64>> = admitted
            .iter()
            .map(|&(i, _)| {
                let t = &tenants[i];
                GroupSpec {
                    name: t.name.clone(),
                    p: t.p,
                    start: t.start,
                    program: t.program.rank_program(),
                }
            })
            .collect();
        // Streaming watcher on the frame tap: each admitted tenant's
        // claimed contract, plus the host-ownership table the engine
        // will pack (TenantMap::pack is deterministic, so packing the
        // same groups here reproduces the engine's map exactly).
        let watcher: Option<Arc<Mutex<StreamWatch>>> = watch.then(|| {
            let map = TenantMap::pack(groups.iter().map(|g| (g.name.clone(), g.p)));
            let hosts = cfg.hosts.max(map.total_ranks());
            let host_owner: Vec<Option<usize>> =
                (0..hosts).map(|h| map.owner_of_host(HostId(h))).collect();
            let contracts = admitted
                .iter()
                .map(|&(i, n)| {
                    let t = &tenants[i];
                    TenantContract {
                        name: t.name.clone(),
                        terms: t.claimed_descriptor(&cfg.cost).terms(&n),
                    }
                })
                .collect();
            Arc::new(Mutex::new(StreamWatch::new(contracts, host_owner)))
        });
        let tap = watcher.clone().map(|w| -> FrameTap {
            Box::new(move |r: &FrameRecord| w.lock().expect("watch tap").observe(r))
        });

        let mut multi = run(
            cfg.clone(),
            groups,
            RunOptions {
                tap,
                causal,
                sample_links,
            },
        )
        .unwrap_or_else(|e| panic!("{e}"));
        let watch_report = watcher.map(|w| {
            Arc::try_unwrap(w)
                .ok()
                .expect("engine dropped the tap with the run")
                .into_inner()
                .expect("watch tap")
                .finalize()
        });
        // One columnar store of the shared capture, which replaces the
        // record `Vec`; tenants are zero-copy row-index views over it
        // rather than per-tenant frame copies.
        let store = TraceStore::from(std::mem::take(&mut multi.trace));
        let demuxed = demux_store(&store, &multi.map);
        demuxed.check_conservation();

        // Solo baselines: each admitted tenant alone on its own hosts.
        let solos: Vec<Option<(f64, TraceStore)>> = admitted
            .iter()
            .map(|&(i, _)| {
                if !solo_baselines {
                    return None;
                }
                let t = &tenants[i];
                let mut solo_cfg = cfg.clone();
                solo_cfg.p = t.p;
                solo_cfg.hosts = t.p;
                solo_cfg.telemetry = false;
                let prog = t.program.rank_program();
                let r = run_single(solo_cfg, move |ctx| prog(ctx), RunOptions::default())
                    .unwrap_or_else(|e| panic!("{e}"));
                Some((
                    r.finished_at.as_secs_f64(),
                    TraceStore::from_records(&r.trace),
                ))
            })
            .collect();

        // Per-tenant bursts for the collision analysis, fused over the
        // tenant views.
        let bursts: Vec<Vec<Burst>> = (0..demuxed.tenants())
            .map(|i| demuxed.tenant(i).detect_bursts(BURST_GAP))
            .collect();

        let mut outcomes = Vec::new();
        for (gi, &(i, negotiation)) in admitted.iter().enumerate() {
            let t = &tenants[i];
            let tenant_view = demuxed.tenant(gi);
            let mixed = multi.group_finished_at[gi].saturating_sub(multi.group_starts[gi]);
            let mixed_secs = mixed.as_secs_f64();
            let (solo_secs, solo_store) = match &solos[gi] {
                Some((s, st)) => (Some(*s), Some(st)),
                None => (None, None),
            };

            // All other tenants' bursts, merged in start order.
            let mut others: Vec<Burst> = bursts
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != gi)
                .flat_map(|(_, b)| b.iter().copied())
                .collect();
            others.sort_by_key(|b| b.start);

            let spectral = solo_store.and_then(|st| {
                let solo_series = st.view().binned_bandwidth(SPECTRUM_BIN);
                let mixed_series = tenant_view.binned_bandwidth(SPECTRUM_BIN);
                if solo_series.len() < 2 || mixed_series.len() < 2 {
                    return None;
                }
                let solo = Periodogram::compute(&solo_series, SPECTRUM_BIN);
                let mixed = Periodogram::compute(&mixed_series, SPECTRUM_BIN);
                SpectralInterference::compare(&solo, &mixed, 0.5, 5)
            });

            outcomes.push(TenantOutcome {
                name: t.name.clone(),
                p: t.p,
                start: t.start,
                negotiation,
                mixed_secs,
                solo_secs,
                measured_slowdown: solo_secs.map(|s| slowdown(mixed_secs, s)),
                predicted_slowdown: predicted[gi],
                sizes: tenant_view.packet_sizes(),
                avg_bw: tenant_view.average_bandwidth(),
                solo_sizes: solo_store.and_then(|st| st.view().packet_sizes()),
                solo_avg_bw: solo_store.and_then(|st| st.view().average_bandwidth()),
                burst_collisions: burst_collisions(&bursts[gi], &others),
                burst_count: bursts[gi].len(),
                spectral,
                results: multi.group_results(gi).to_vec(),
                frames: tenant_view.len(),
            });
        }

        // Finished tenants release their commitments: the controller ends
        // the run with the full capacity available again.
        for t in &outcomes {
            ac.release(&t.name);
        }
        debug_assert!((ac.residual() - capacity).abs() < 1e-6);

        let background = demuxed.background.len();
        MixOutcome {
            tenants: outcomes,
            rejected,
            map: multi.map,
            store,
            background,
            finished_at: multi.finished_at,
            telemetry: multi.telemetry,
            watch: watch_report,
            causal: multi.causal,
            link_stats: multi.link_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::TenantProgram;

    fn base_cfg() -> SpmdConfig {
        let mut cfg = SpmdConfig::default();
        cfg.pvm.heartbeat = None;
        cfg.hosts = 1;
        cfg
    }

    fn shift_tenant(name: &str, start_ms: u64) -> MixTenant {
        MixTenant {
            name: name.to_string(),
            program: TenantProgram::Shift {
                work_s: 0.05,
                bytes: 20_000,
                rounds: 4,
            },
            p: 2,
            start: SimTime::from_millis(start_ms),
            claim_scale: 1.0,
        }
    }

    #[test]
    fn two_tenant_mix_demuxes_and_conserves() {
        let out = Mix::new(base_cfg())
            .tenant(shift_tenant("alpha", 0))
            .tenant(shift_tenant("beta", 30))
            .run();
        assert_eq!(out.tenants.len(), 2);
        assert!(out.rejected.is_empty());
        let total = out.check_conservation();
        assert!(total > 0);
        for t in &out.tenants {
            assert!(t.frames > 0, "{} demuxed no frames", t.name);
            assert!(t.measured_slowdown.unwrap() > 0.9);
            assert!(t.predicted_slowdown >= 1.0);
            assert_eq!(t.results.len(), 2);
        }
        let report = out.report();
        assert!(report.contains("alpha") && report.contains("beta"));
    }

    #[test]
    fn mix_is_deterministic() {
        let run = || {
            Mix::new(base_cfg())
                .tenant(shift_tenant("alpha", 0))
                .tenant(shift_tenant("beta", 30))
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.store, b.store);
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn watcher_catches_the_overdriver_and_spares_the_honest_tenant() {
        let honest = shift_tenant("honest", 0);
        // Same program, but claims 1/10th of its real burst size at
        // admission — the watcher must catch it from the live stream.
        let liar = shift_tenant("liar", 30).with_claim_scale(0.1);
        let out = Mix::new(base_cfg())
            .solo_baselines(false)
            .watch()
            .tenant(honest)
            .tenant(liar)
            .run();
        assert!(out.rejected.is_empty());
        let w = out.watch.as_ref().expect("watch report attached");
        assert_eq!(w.violations_for("liar"), 1, "one latched violation");
        assert_eq!(w.violations_for("honest"), 0, "honest tenant clean");
        let e = w
            .events
            .iter()
            .find(|e| e.tenant == "liar")
            .expect("liar event");
        assert!(e.measured > e.limit);
        assert!(!e.flight_recorder.is_empty(), "event carries frame dump");
        // The watcher saw the whole shared trace, no perturbation: the
        // trace is identical to an unwatched run.
        assert_eq!(w.frames as usize, out.store.len());
        let unwatched = Mix::new(base_cfg())
            .solo_baselines(false)
            .tenant(shift_tenant("honest", 0))
            .tenant(shift_tenant("liar", 30).with_claim_scale(0.1))
            .run();
        assert_eq!(out.store, unwatched.store);
        assert!(unwatched.watch.is_none());
    }

    #[test]
    fn saturating_load_rejects_a_tenant() {
        let net = QosNetwork::ethernet_10mbps().with_min_burst_bw(50_000.0);
        let hungry = |name: &str| MixTenant {
            name: name.to_string(),
            program: TenantProgram::Shift {
                work_s: 0.02,
                bytes: 100_000,
                rounds: 3,
            },
            p: 4,
            start: SimTime::ZERO,
            claim_scale: 1.0,
        };
        let out = Mix::new(base_cfg())
            .network(net)
            .solo_baselines(false)
            .tenant(hungry("t1"))
            .tenant(hungry("t2"))
            .tenant(hungry("t3"))
            .run();
        assert!(
            !out.rejected.is_empty(),
            "offered load beyond capacity must reject"
        );
        assert!(out.tenants.len() < 3);
        out.check_conservation();
    }
}
