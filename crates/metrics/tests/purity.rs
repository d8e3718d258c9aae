//! The weather map's non-perturbation contract, end to end: attaching
//! the full sampler (frame tap + per-link sampling + causal capture)
//! to a kernel run leaves the promiscuous packet trace byte-identical,
//! on the shared segment and on the oversubscribed two-switch fabric,
//! across seeds — while still producing a populated report.

use fxnet::TestbedBuilder;
use fxnet_apps::KernelKind;
use fxnet_fx::RunOptions;
use fxnet_metrics::FabricSampler;
use fxnet_sim::RATE_10M;
use fxnet_topo::TopologySpec;

fn topologies() -> Vec<Option<TopologySpec>> {
    vec![
        None, // the seed's single shared segment
        Some(TopologySpec::two_switches_trunk(4, RATE_10M)),
    ]
}

#[test]
fn sampler_attach_detach_leaves_traces_byte_identical() {
    for kernel in KernelKind::ALL {
        for spec in topologies() {
            for seed in [1998u64, 7] {
                let mut b = TestbedBuilder::quiet(4).seed(seed);
                if let Some(spec) = &spec {
                    b = b.topology(spec.clone());
                }
                let tb = b.build();
                let plain = tb.run_kernel(kernel, 200).unwrap();

                let sampler = FabricSampler::new();
                let opts = RunOptions {
                    tap: Some(sampler.tap()),
                    causal: true,
                    sample_links: Some(sampler.bin_ns()),
                };
                let sampled = tb.run_kernel_opts(kernel, 200, opts).unwrap();

                assert_eq!(
                    plain.trace,
                    sampled.trace,
                    "{kernel:?} topo={:?} seed={seed}: sampler perturbed the trace",
                    spec.as_ref().map(|s| s.id.clone()),
                );
                assert_eq!(plain.results, sampled.results);
                assert_eq!(plain.finished_at, sampled.finished_at);

                // And the observability side actually observed: rings
                // fed, matrices fed, totals conserved against the trace.
                let mut sampler = sampler;
                let stats = sampled.link_stats.as_ref().expect("link stats on");
                sampler.ingest_links(stats);
                sampler.ingest_causal(
                    &sampled.causal.as_ref().expect("causal on").events,
                    spec.as_ref(),
                );
                let report = sampler.finalize(spec.as_ref());
                assert!(!report.rings.is_empty());
                for (label, ring) in &report.rings {
                    ring.check_consistency()
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                }
                let traced: u64 = plain.trace.len() as u64;
                assert_eq!(
                    report.scaling[0].total_packets, traced,
                    "tap saw every delivered frame exactly once"
                );
            }
        }
    }
}
