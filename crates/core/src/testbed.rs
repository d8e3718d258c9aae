//! The measurement testbed: the paper's nine-workstation environment as
//! one configurable builder.

use fxnet_apps::{airshed, KernelKind};
use fxnet_fx::{
    run_single, DescheduleConfig, FxnetResult, RankCtx, RunOptions, RunResult, SpmdConfig,
};
use fxnet_proto::LinkKind;
use fxnet_pvm::Route;
use fxnet_sim::SimTime;

/// Builder for a [`Testbed`]: one fluent surface over everything the
/// experiments vary — topology, seed, telemetry — replacing the old
/// `with_*` constructor sprawl. A frame tap is a per-run option
/// ([`RunOptions::tapped`]).
///
/// ```
/// use fxnet::TestbedBuilder;
/// let tb = TestbedBuilder::paper().seed(7).telemetry().build();
/// ```
pub struct TestbedBuilder {
    cfg: SpmdConfig,
}

impl TestbedBuilder {
    /// Start from the paper's configuration: programs compiled for P=4 on
    /// a LAN of 9 workstations (idle machines contribute only daemon
    /// chatter; one is the tcpdump tracer).
    pub fn paper() -> TestbedBuilder {
        TestbedBuilder {
            cfg: SpmdConfig {
                p: 4,
                hosts: 9,
                seed: 1998,
                ..SpmdConfig::default()
            },
        }
    }

    /// Start from a minimal quiet testbed for unit-style experiments:
    /// `p` hosts, no daemon heartbeats.
    pub fn quiet(p: u32) -> TestbedBuilder {
        let mut cfg = SpmdConfig {
            p,
            hosts: p.max(2),
            ..SpmdConfig::default()
        };
        cfg.pvm.heartbeat = None;
        TestbedBuilder { cfg }
    }

    /// Override the processor count the programs are compiled for.
    pub fn p(mut self, p: u32) -> TestbedBuilder {
        self.cfg.p = p;
        self.cfg.hosts = self.cfg.hosts.max(p);
        self
    }

    /// Override the simulation seed.
    pub fn seed(mut self, seed: u64) -> TestbedBuilder {
        self.cfg.seed = seed;
        self.cfg.pvm.net.seed = seed ^ 0x00C0_FFEE;
        self
    }

    /// Select the PVM routing mechanism (direct TCP vs daemon UDP).
    pub fn route(mut self, route: Route) -> TestbedBuilder {
        self.cfg.pvm.route = route;
        self
    }

    /// Enable OS deschedule injection (§6.1's burst-merging artifact).
    pub fn deschedule(mut self, mean_cpu_between: SimTime, duration: SimTime) -> TestbedBuilder {
        self.cfg.deschedule = Some(DescheduleConfig {
            mean_cpu_between,
            duration,
        });
        self
    }

    /// Make the bus lossy (frame corruption probability) — the failure-
    /// injection extension; TCP recovers by go-back-N retransmission.
    pub fn loss(mut self, drop_prob: f64) -> TestbedBuilder {
        self.cfg.pvm.net.ether.drop_prob = drop_prob;
        self
    }

    /// Change the LAN's raw bit rate (default 10 Mb/s). The paper's
    /// point that burst periodicity is *bandwidth dependent* (§7.3,
    /// conclusions) can be demonstrated by sweeping this.
    pub fn bandwidth_bps(mut self, bps: u64) -> TestbedBuilder {
        self.cfg.pvm.net.ether.bandwidth_bps = bps;
        self
    }

    /// Replace the shared collision domain with a store-and-forward
    /// switch (per-host full-duplex 10 Mb/s ports) — the DESIGN.md §8
    /// ablation isolating the MAC layer's contribution to burst shaping.
    pub fn switched_fabric(mut self) -> TestbedBuilder {
        self.cfg.pvm.net.link = LinkKind::Switched;
        self
    }

    /// Replace the link layer with a declarative multi-segment topology
    /// (DESIGN.md §11). The LAN's host count follows the spec's
    /// attachment list (it must cover at least the compiled ranks plus
    /// the tracer, which the engine validates at run time), so host
    /// placement — which ranks share a segment, which contend only on a
    /// trunk — is controlled by the spec.
    pub fn topology(mut self, spec: fxnet_topo::TopologySpec) -> TestbedBuilder {
        self.cfg.hosts = spec.host_count() as u32;
        self.cfg.pvm.net.link = LinkKind::Topology(spec);
        self
    }

    /// Enable or disable the PVM daemons' periodic UDP chatter
    /// (enabled by default on the paper testbed).
    pub fn heartbeats(mut self, on: bool) -> TestbedBuilder {
        if on {
            self.cfg.pvm.heartbeat = fxnet_pvm::PvmConfig::default().heartbeat;
        } else {
            self.cfg.pvm.heartbeat = None;
        }
        self
    }

    /// Enable telemetry collection: phase spans, the cross-layer counter
    /// registry, and the simulator self-profile appear in
    /// [`RunResult::telemetry`]. The packet trace is unchanged.
    pub fn telemetry(self) -> TestbedBuilder {
        self.telemetry_enabled(true)
    }

    /// [`TestbedBuilder::telemetry`] with an explicit flag, for callers
    /// that thread the decision through.
    pub fn telemetry_enabled(mut self, on: bool) -> TestbedBuilder {
        self.cfg.telemetry = on;
        self
    }

    /// Finish: produce the configured [`Testbed`].
    pub fn build(self) -> Testbed {
        Testbed { cfg: self.cfg }
    }
}

/// The simulated testbed of §5.1: DEC 3000/400-class workstations on a
/// single bridged 10 Mb/s Ethernet collision domain, PVM 3.3-style
/// message passing, one promiscuous tracer. Build one with
/// [`TestbedBuilder`] (or the [`Testbed::paper`] / [`Testbed::quiet`]
/// shortcuts), then run kernels or arbitrary SPMD programs on it.
#[derive(Debug, Clone)]
pub struct Testbed {
    cfg: SpmdConfig,
}

impl Testbed {
    /// The paper's configuration ([`TestbedBuilder::paper`] built as-is).
    pub fn paper() -> Testbed {
        TestbedBuilder::paper().build()
    }

    /// A minimal quiet testbed ([`TestbedBuilder::quiet`] built as-is).
    pub fn quiet(p: u32) -> Testbed {
        TestbedBuilder::quiet(p).build()
    }

    /// Start a builder from the paper configuration — equivalent to
    /// [`TestbedBuilder::paper`].
    pub fn builder() -> TestbedBuilder {
        TestbedBuilder::paper()
    }

    /// Access the full configuration for fine-grained control.
    pub fn config(&self) -> &SpmdConfig {
        &self.cfg
    }

    /// Run one of the five kernels at paper scale with the outer
    /// iteration count divided by `iter_div` (1 = the full measured run).
    ///
    /// # Errors
    /// Propagates any [`fxnet_fx::FxnetError`] from the engine (invalid
    /// config, deadlock, runaway clock).
    pub fn run_kernel(&self, kernel: KernelKind, iter_div: usize) -> FxnetResult<RunResult<u64>> {
        self.run_kernel_opts(kernel, iter_div, RunOptions::default())
    }

    /// [`Testbed::run_kernel`] with explicit [`RunOptions`] — the hook
    /// the observability experiments use to attach a frame tap, causal
    /// capture, or per-link sampling to a kernel run.
    ///
    /// # Errors
    /// Propagates any [`fxnet_fx::FxnetError`] from the engine.
    pub fn run_kernel_opts(
        &self,
        kernel: KernelKind,
        iter_div: usize,
        opts: RunOptions,
    ) -> FxnetResult<RunResult<u64>> {
        kernel.run_paper_opts(self.cfg.clone(), iter_div, opts)
    }

    /// Run the AIRSHED skeleton with explicit parameters.
    ///
    /// # Errors
    /// Propagates any [`fxnet_fx::FxnetError`] from the engine.
    pub fn run_airshed(&self, params: airshed::AirshedParams) -> FxnetResult<RunResult<u64>> {
        run_single(
            self.cfg.clone(),
            move |ctx| airshed::airshed_rank(ctx, &params),
            RunOptions::default(),
        )
    }

    /// Run an arbitrary SPMD program on the testbed.
    ///
    /// Panics on engine errors (deadlock, runaway clock) — ad-hoc
    /// programs are test code; use [`Testbed::try_run`] to handle them.
    pub fn run<T, F>(&self, f: F) -> RunResult<T>
    where
        T: Send + 'static,
        F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    {
        match self.try_run(f) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Run an arbitrary SPMD program, surfacing engine errors.
    ///
    /// # Errors
    /// Propagates any [`fxnet_fx::FxnetError`] from the engine.
    pub fn try_run<T, F>(&self, f: F) -> FxnetResult<RunResult<T>>
    where
        T: Send + 'static,
        F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    {
        self.try_run_opts(f, RunOptions::default())
    }

    /// [`Testbed::try_run`] with explicit [`RunOptions`].
    ///
    /// # Errors
    /// Propagates any [`fxnet_fx::FxnetError`] from the engine.
    pub fn try_run_opts<T, F>(&self, f: F, opts: RunOptions) -> FxnetResult<RunResult<T>>
    where
        T: Send + 'static,
        F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    {
        run_single(self.cfg.clone(), f, opts)
    }

    /// Start building a multi-tenant mixed run on this testbed: add
    /// tenants with [`fxnet_mix::Mix::tenant`], then
    /// [`fxnet_mix::Mix::run`].
    pub fn mix(&self) -> fxnet_mix::Mix {
        fxnet_mix::Mix::new(self.cfg.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::Proto;

    #[test]
    fn paper_testbed_shape() {
        let tb = Testbed::paper();
        assert_eq!(tb.config().p, 4);
        assert_eq!(tb.config().hosts, 9);
    }

    #[test]
    fn builder_overrides_land_in_the_config() {
        let tb = TestbedBuilder::paper().seed(7).telemetry().build();
        assert_eq!(tb.config().seed, 7);
        assert!(tb.config().telemetry);
        let tb = TestbedBuilder::quiet(4)
            .loss(0.05)
            .bandwidth_bps(100_000_000)
            .build();
        assert_eq!(tb.config().pvm.net.ether.drop_prob, 0.05);
        assert_eq!(tb.config().pvm.net.ether.bandwidth_bps, 100_000_000);
    }

    #[test]
    fn run_kernel_opts_samples_links_without_perturbing() {
        let tb = Testbed::quiet(4);
        let plain = tb.run_kernel(KernelKind::Seq, 100).unwrap();
        let opts = RunOptions {
            sample_links: true,
            ..RunOptions::default()
        };
        let sampled = tb.run_kernel_opts(KernelKind::Seq, 100, opts).unwrap();
        assert!(plain.link_stats.is_none());
        let stats = sampled.link_stats.as_ref().expect("sampled link stats");
        assert!(stats.links.iter().any(|(_, s)| !s.is_empty()));
        assert_eq!(plain.trace, sampled.trace, "sampling must not perturb");
    }

    #[test]
    fn heartbeats_from_idle_machines_present_by_default() {
        // Even a compute-only program sees daemon UDP chatter from the
        // other LAN machines, as the paper's connection definition notes.
        let tb = Testbed::paper();
        let run = tb.run(|ctx| {
            ctx.compute_time(SimTime::from_secs(65));
        });
        let udp = run.trace.iter().filter(|r| r.proto == Proto::Udp).count();
        // Two 30 s rounds × 8 slave daemons.
        assert!(udp >= 16, "expected heartbeat rounds, saw {udp} datagrams");
    }

    #[test]
    fn without_heartbeats_is_silent_when_idle() {
        let tb = TestbedBuilder::paper().heartbeats(false).build();
        let run = tb.run(|ctx| {
            ctx.compute_time(SimTime::from_secs(65));
        });
        assert!(run.trace.is_empty());
    }

    #[test]
    fn seeds_change_mac_level_timing() {
        let a = TestbedBuilder::paper()
            .seed(1)
            .build()
            .run_kernel(KernelKind::Hist, 100)
            .unwrap();
        let b = TestbedBuilder::paper()
            .seed(1)
            .build()
            .run_kernel(KernelKind::Hist, 100)
            .unwrap();
        assert_eq!(a.trace, b.trace, "same seed must reproduce exactly");
    }

    #[test]
    fn kernel_runs_produce_traffic() {
        let run = Testbed::quiet(4).run_kernel(KernelKind::Sor, 100).unwrap();
        assert!(!run.trace.is_empty());
        assert!(run.finished_at > SimTime::ZERO);
    }

    #[test]
    fn columnar_store_of_a_kernel_run_matches_the_record_trace() {
        // The columnar engine is the analysis path the harness uses on
        // real testbed output: a store built from a run must reproduce
        // the record trace and agree with statistics taken off the records.
        let run = Testbed::quiet(4).run_kernel(KernelKind::Sor, 100).unwrap();
        let store = fxnet_trace::TraceStore::from_records(&run.trace);
        assert_eq!(store.to_records(), run.trace);
        assert_eq!(
            store.view().packet_sizes(),
            fxnet_trace::Stats::of(run.trace.iter().map(|r| f64::from(r.wire_len)))
        );
        let mut pairs = std::collections::BTreeMap::new();
        for r in &run.trace {
            *pairs.entry((r.src, r.dst)).or_insert(0usize) += 1;
        }
        assert_eq!(store.host_pairs(), pairs.into_iter().collect::<Vec<_>>());
        for &((s, d), n) in &store.host_pairs() {
            assert_eq!(store.connection(s, d).len(), n);
        }
    }

    #[test]
    fn topology_testbed_runs_kernels_and_single_segment_matches_bus() {
        let rate = fxnet_sim::RATE_10M;
        let bus = TestbedBuilder::paper()
            .seed(5)
            .build()
            .run_kernel(KernelKind::Hist, 100)
            .unwrap();
        let topo = TestbedBuilder::paper()
            .seed(5)
            .topology(fxnet_topo::TopologySpec::single_segment(9, rate))
            .build()
            .run_kernel(KernelKind::Hist, 100)
            .unwrap();
        assert_eq!(bus.trace, topo.trace, "single segment must be the bus");
        // A trunked fabric still runs the kernel to completion and
        // produces traffic.
        let trunked = TestbedBuilder::paper()
            .seed(5)
            .topology(fxnet_topo::TopologySpec::two_switches_trunk(9, rate))
            .build()
            .run_kernel(KernelKind::Hist, 100)
            .unwrap();
        assert!(!trunked.trace.is_empty());
    }

    #[test]
    fn undersized_topology_is_a_typed_error() {
        let mut tb = TestbedBuilder::paper()
            .topology(fxnet_topo::TopologySpec::two_switches_trunk(
                9,
                fxnet_sim::RATE_10M,
            ))
            .build();
        tb.cfg.hosts = 12; // spec only attaches 9
        let err = tb.run_kernel(KernelKind::Sor, 100).unwrap_err();
        assert!(
            matches!(err, fxnet_fx::FxnetError::InvalidConfig(_)),
            "{err:?}"
        );
    }

    #[test]
    fn an_invalid_topology_is_a_typed_error_not_a_panic() {
        let rate = fxnet_sim::RATE_10M;
        let mut zero_rate = fxnet_topo::TopologySpec::two_switches_trunk(9, rate);
        zero_rate.nodes[1].rate_bps = 0;
        let mut dangling = fxnet_topo::TopologySpec::two_switches_trunk(9, rate);
        dangling.trunks[0].b = dangling.nodes.len();
        for spec in [zero_rate, dangling] {
            let err = TestbedBuilder::paper()
                .topology(spec)
                .build()
                .run_kernel(KernelKind::Hist, 100)
                .unwrap_err();
            assert!(
                matches!(err, fxnet_fx::FxnetError::InvalidConfig(_)),
                "{err:?}"
            );
        }
    }

    #[test]
    fn a_zero_deschedule_mean_is_a_typed_error_not_a_panic() {
        let err = TestbedBuilder::paper()
            .deschedule(SimTime::ZERO, SimTime::from_millis(10))
            .build()
            .run_kernel(KernelKind::Hist, 100)
            .unwrap_err();
        assert!(
            matches!(err, fxnet_fx::FxnetError::InvalidConfig(_)),
            "{err:?}"
        );
    }

    #[test]
    fn a_zero_bandwidth_is_a_typed_error_not_a_panic() {
        let err = TestbedBuilder::quiet(2)
            .bandwidth_bps(0)
            .build()
            .run_kernel(KernelKind::Seq, 100)
            .unwrap_err();
        assert!(
            matches!(err, fxnet_fx::FxnetError::InvalidConfig(_)),
            "{err:?}"
        );
    }

    #[test]
    fn a_loss_outside_zero_to_one_is_a_typed_error() {
        for p in [2.0, -0.1, f64::NAN] {
            let err = TestbedBuilder::quiet(2)
                .loss(p)
                .build()
                .run_kernel(KernelKind::Seq, 100)
                .unwrap_err();
            assert!(
                matches!(err, fxnet_fx::FxnetError::InvalidConfig(_)),
                "loss {p}: {err:?}"
            );
        }
    }

    #[test]
    fn invalid_testbed_surfaces_a_typed_error() {
        let mut tb = Testbed::quiet(4);
        tb.cfg.hosts = 2; // fewer hosts than ranks
        let err = tb.run_kernel(KernelKind::Sor, 100).unwrap_err();
        assert!(
            matches!(err, fxnet_fx::FxnetError::InvalidConfig(_)),
            "{err:?}"
        );
    }
}
