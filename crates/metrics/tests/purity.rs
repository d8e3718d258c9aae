//! The weather map's non-perturbation contract, end to end: attaching
//! the full sampler (frame tap + per-link sampling + causal capture)
//! to a kernel run leaves the promiscuous packet trace byte-identical,
//! on the shared segment and on the oversubscribed two-switch fabric,
//! across seeds — while still producing a populated report, and the
//! causal capture's records are that trace, row for row.

use fxnet::TestbedBuilder;
use fxnet_apps::KernelKind;
use fxnet_fx::RunOptions;
use fxnet_metrics::FabricSampler;
use fxnet_sim::{FrameRecord, LinkWindow, LINK_WINDOW_NS, RATE_10M};
use fxnet_topo::TopologySpec;
use std::collections::BTreeMap;

/// `(frames, bytes)` per 10 ms window, from the trace.
fn binned(trace: &[FrameRecord]) -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    for r in trace {
        let e = out
            .entry(r.time.as_nanos() / LINK_WINDOW_NS)
            .or_insert((0, 0));
        e.0 += 1;
        e.1 += u64::from(r.wire_len);
    }
    out
}

/// `(frames, bytes)` per window, summed over the given link series.
fn windowed<'a>(
    links: impl Iterator<Item = impl Iterator<Item = (u64, &'a LinkWindow)>>,
) -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (w, win) in links.flatten() {
        if win.frames > 0 {
            let e = out.entry(w).or_insert((0, 0));
            e.0 += win.frames;
            e.1 += win.bytes;
        }
    }
    out
}

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
                    sample_links: true,
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
                let events = &sampled.causal.as_ref().expect("causal on").events;
                assert_eq!(
                    events.len(),
                    sampled.trace.len(),
                    "{kernel:?} topo={:?} seed={seed}: one causal event per trace row",
                    spec.as_ref().map(|s| s.id.clone()),
                );

                // And the observability side actually observed: link
                // windows and matrices fed, totals conserved against the
                // trace.
                let mut sampler = sampler;
                let stats = sampled.link_stats.as_ref().expect("link stats on");
                sampler.ingest_links(stats);
                sampler.ingest_causal(events, &sampled.trace[..], spec.as_ref());
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
                // Per window: the links that capture happens at, binned
                // by completion, equal the trace binned by `time / 10 ms`.
                let per_window = |pick: &dyn Fn(&str) -> bool| {
                    windowed(
                        report
                            .links
                            .iter()
                            .filter(|(l, _)| pick(l))
                            .map(|(_, s)| s.windows()),
                    )
                };
                let trace_windows = binned(&plain.trace);
                if spec.is_none() {
                    let bus = sum(&|l| l == "seg:bus");
                    assert_eq!(
                        bus,
                        (traced, traced_bytes),
                        "{case}: the segment carried the trace"
                    );
                    assert_eq!(
                        per_window(&|l| l == "seg:bus"),
                        trace_windows,
                        "{case}: each segment window holds the frames captured in it"
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
                    assert_eq!(
                        per_window(&host(":down")),
                        trace_windows,
                        "{case}: each down-port window holds the frames captured in it"
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
