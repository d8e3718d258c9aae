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

                // And the observability side actually observed: link
                // windows and matrices fed, totals conserved against the
                // trace.
                let mut sampler = sampler;
                let stats = sampled.link_stats.as_ref().expect("link stats on");
                sampler.ingest_links(stats);
                sampler.ingest_causal(
                    &sampled.causal.as_ref().expect("causal on").events,
                    spec.as_ref(),
                );
                let report = sampler.finalize(spec.as_ref());
                let traced: u64 = plain.trace.len() as u64;
                let traced_bytes: u64 = plain.trace.iter().map(|r| u64::from(r.wire_len)).sum();
                // (frames, bytes) over the link totals whose label passes `pick`.
                let sum = |pick: &dyn Fn(&str) -> bool| {
                    let links = report.rollup.links.iter().filter(|l| pick(&l.label));
                    links.fold((0, 0), |(f, b), l| (f + l.total.frames, b + l.total.bytes))
                };
                let case = format!(
                    "{kernel:?} topo={:?} seed={seed}",
                    spec.as_ref().map(|s| s.id.clone())
                );
                if spec.is_none() {
                    let bus = sum(&|l| l == "seg:bus");
                    assert_eq!(
                        bus,
                        (traced, traced_bytes),
                        "{case}: the segment carried the trace"
                    );
                } else {
                    let host = |dir: &'static str| {
                        move |l: &str| l.starts_with("host:") && l.ends_with(dir)
                    };
                    let down = sum(&host(":down"));
                    let up = sum(&host(":up"));
                    assert_eq!(
                        down,
                        (traced, traced_bytes),
                        "{case}: the down ports carried the trace"
                    );
                    assert_eq!(
                        up,
                        (traced, traced_bytes),
                        "{case}: the up ports carried the trace"
                    );
                }
                assert_eq!(
                    report.scaling[0].total_packets, traced,
                    "tap saw every delivered frame exactly once"
                );
            }
        }
    }
}
