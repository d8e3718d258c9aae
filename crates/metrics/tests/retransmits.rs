//! Retransmitted bytes reach the weather map on every lossy fabric: the
//! causal capture's retransmits are charged to a sampled link whether
//! the run is on the legacy bus (`seg:bus`) or on a compiled topology
//! whose segments are named after their nodes (`seg:seg0`, ...).

use fxnet::TestbedBuilder;
use fxnet_apps::KernelKind;
use fxnet_fx::RunOptions;
use fxnet_metrics::{FabricSampler, WeatherReport};
use fxnet_sim::RATE_10M;
use fxnet_topo::TopologySpec;

/// A 5 % lossy 2DFFT run on `spec` (the legacy bus when `None`): its
/// weather map and the retransmitted wire bytes the causal capture saw.
/// The capture has one event per trace row, under loss too.
fn lossy(spec: Option<&TopologySpec>) -> (WeatherReport, u64) {
    let mut b = TestbedBuilder::quiet(4).seed(1998).loss(0.05);
    if let Some(spec) = spec {
        b = b.topology(spec.clone());
    }
    let sampler = FabricSampler::new();
    let opts = RunOptions {
        tap: Some(sampler.tap()),
        causal: true,
        sample_links: true,
    };
    let run = b
        .build()
        .run_kernel_opts(KernelKind::Fft2d, 200, opts)
        .unwrap();
    let mut sampler = sampler;
    sampler.ingest_links(run.link_stats.as_ref().expect("link sampling on"));
    let events = &run.causal.as_ref().expect("causal capture on").events;
    assert_eq!(
        events.len(),
        run.trace.len(),
        "{:?}: one causal event per trace row",
        spec.map(|s| &s.id),
    );
    sampler.ingest_causal(events, &run.trace[..], spec);
    let retx: u64 = (events.iter().zip(&run.trace))
        .filter(|(e, _)| e.retx)
        .map(|(_, r)| u64::from(r.wire_len))
        .sum();
    (sampler.finalize(spec), retx)
}

fn retx_in_map(r: &WeatherReport) -> u64 {
    r.links
        .iter()
        .flat_map(|(_, s)| s.windows())
        .map(|(_, w)| w.retx_bytes)
        .sum()
}

#[test]
fn every_retransmitted_byte_lands_on_a_sampled_link() {
    let (bus, bus_retx) = lossy(None);
    assert!(bus_retx > 0, "5 % loss must retransmit");
    assert_eq!(retx_in_map(&bus), bus_retx, "bus");

    let single = TopologySpec::single_segment(4, RATE_10M);
    let (seg, seg_retx) = lossy(Some(&single));
    assert_eq!(seg_retx, bus_retx, "one segment runs the bus's trace");
    assert_eq!(retx_in_map(&seg), seg_retx, "single_segment");
    // Window for window, the same map under the node's segment name.
    let relabeled: Vec<_> = seg
        .links
        .iter()
        .map(|(l, s)| (l.replace("seg:seg0", "seg:bus"), s.clone()))
        .collect();
    assert_eq!(relabeled, bus.links);

    let routed = TopologySpec::routed_two_subnets(4, RATE_10M);
    let (routed_map, routed_retx) = lossy(Some(&routed));
    assert!(routed_retx > 0, "5 % loss must retransmit");
    assert_eq!(retx_in_map(&routed_map), routed_retx, "routed_two_subnets");
}
