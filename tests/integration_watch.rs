//! Cross-crate integration for the streaming watcher (`fxnet-watch`):
//! the streaming primitives agree with the batch trace/spectral analyses
//! on the traces of all six measured programs, the watcher's output
//! (events, flight-recorder dumps, metrics) is a pure function of the
//! seed, and an over-driving tenant is caught online while the honest
//! tenant stays clean.

use fxnet::mix::MixTenant;
use fxnet::spectral::{goertzel_power, padded_bin};
use fxnet::telemetry::prometheus_text;
use fxnet::trace::{Periodogram, SlidingBandwidth, StreamBinner, TraceStore};
use fxnet::watch::{EventKind, WatchReport, FLIGHT_RECORDER};
use fxnet::{FrameRecord, KernelKind, SimTime, TestbedBuilder};

const BIN: SimTime = SimTime(10_000_000); // the paper's 10 ms window

/// The six measured programs (§5): the five Fx kernels at reduced
/// iteration counts plus the §7.3 shift pattern.
fn six_programs() -> Vec<(String, Vec<FrameRecord>)> {
    let mut traces = Vec::new();
    for (k, div) in [
        (KernelKind::Sor, 20),
        (KernelKind::Fft2d, 20),
        (KernelKind::T2dfft, 20),
        (KernelKind::Seq, 5),
        (KernelKind::Hist, 20),
    ] {
        let run = TestbedBuilder::paper()
            .seed(7)
            .build()
            .run_kernel(k, div)
            .unwrap();
        traces.push((k.name().to_string(), run.trace));
    }
    let run = TestbedBuilder::quiet(4).seed(7).build().run(move |ctx| {
        let payload = vec![1u8; 40_000];
        for round in 0..4i32 {
            ctx.compute_time(SimTime::from_millis(30));
            let _ = fxnet::fx::shift(ctx, round, 1, &payload);
        }
        0u64
    });
    traces.push(("SHIFT".to_string(), run.trace));
    traces
}

#[test]
fn streaming_binned_bandwidth_matches_batch_on_all_six_programs() {
    for (name, trace) in six_programs() {
        let batch = TraceStore::from_records(&trace)
            .view()
            .binned_bandwidth(BIN);
        let mut binner = StreamBinner::new(BIN);
        let mut streamed = Vec::new();
        for r in &trace {
            binner.push(r.time, r.wire_len);
            while let Some(v) = binner.pop_closed() {
                streamed.push(v);
            }
        }
        streamed.extend(binner.finish());
        assert_eq!(streamed.len(), batch.len(), "{name}: bin count");
        for (i, (s, b)) in streamed.iter().zip(&batch).enumerate() {
            assert!(
                (s - b).abs() <= 1e-9,
                "{name}: bin {i} streamed {s} vs batch {b}"
            );
        }
    }
}

#[test]
fn streaming_window_bandwidth_matches_batch_on_all_six_programs() {
    for (name, trace) in six_programs() {
        let batch = TraceStore::from_records(&trace)
            .view()
            .sliding_window_bandwidth(BIN);
        assert_eq!(batch.len(), trace.len(), "{name}: one point per frame");
        let mut win = SlidingBandwidth::new(BIN);
        for (i, r) in trace.iter().enumerate() {
            let v = win.push(r.time, r.wire_len);
            assert!(
                (v - batch[i].1).abs() <= 1e-9,
                "{name}: frame {i} streamed {v} vs batch {}",
                batch[i].1
            );
        }
    }
}

#[test]
fn goertzel_power_matches_the_fft_periodogram_on_all_six_programs() {
    for (name, trace) in six_programs() {
        let series = TraceStore::from_records(&trace)
            .view()
            .binned_bandwidth(BIN);
        let spec = Periodogram::compute(&series, BIN);
        // The bins a live watcher would track: the spectral peaks the
        // batch analysis reports, plus fixed low bins and Nyquist.
        let mut bins = vec![1usize, 2, 3, spec.power.len() - 1];
        for s in spec.top_spikes(5, 0.0) {
            bins.push(padded_bin(s.freq, series.len(), BIN));
        }
        let scale: f64 = series.iter().map(|x| x * x).sum::<f64>().max(1.0);
        for bin in bins {
            let g = goertzel_power(&series, bin);
            let f = spec.power[bin];
            let rel = (g - f).abs() / g.abs().max(f.abs()).max(1e-30);
            assert!(
                rel < 1e-9 || (g - f).abs() < 1e-9 * scale,
                "{name}: bin {bin} goertzel {g:e} vs fft {f:e}"
            );
        }
    }
}

/// A watched two-tenant mix: one honest shift tenant, one that presents
/// a tenth of its true burst sizes at admission.
fn watched_mix(seed: u64) -> WatchReport {
    let mut liar = MixTenant::shift("liar", 0.05, 30_000, 4, 2).with_claim_scale(0.1);
    liar.start = SimTime::from_millis(30);
    TestbedBuilder::quiet(2)
        .seed(seed)
        .build()
        .mix()
        .solo_baselines(false)
        .tenant(MixTenant::shift("honest", 0.05, 30_000, 4, 2))
        .tenant(liar)
        .watch()
        .run()
        .watch
        .expect("watch was enabled")
}

#[test]
fn watcher_events_and_metrics_are_a_pure_function_of_the_seed() {
    let (a, b) = (watched_mix(11), watched_mix(11));
    assert_eq!(
        a.events_jsonl(),
        b.events_jsonl(),
        "same seed, same event log (flight-recorder dumps included)"
    );
    assert_eq!(
        prometheus_text(&a.registry),
        prometheus_text(&b.registry),
        "same seed, same exported metrics"
    );
}

#[test]
fn watcher_catches_the_overdriver_online() {
    let report = watched_mix(11);
    assert_eq!(report.violations_for("liar"), 1, "one latched violation");
    assert_eq!(report.violations_for("honest"), 0, "honest tenant clean");
    let cap = FLIGHT_RECORDER;
    for e in &report.events {
        assert!(e.tenant == "liar", "only the liar trips the watcher");
        assert!(!e.flight_recorder.is_empty(), "dump must hold frames");
        assert!(e.flight_recorder.len() <= cap, "dump bounded by the ring");
        // The dump is the frames leading up to the event, in order.
        for w in e.flight_recorder.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        let last = e.flight_recorder.last().expect("non-empty");
        assert!(last.time <= e.time, "no frames from after the event");
    }
    assert!(report
        .events
        .iter()
        .any(|e| e.kind == EventKind::ContractViolation));
}

#[test]
fn watcher_streams_a_trunked_topology_run() {
    // The live tap rides the composite fabric's capture point, so the
    // watcher sees a multi-segment run exactly like a shared-bus one —
    // and stays a pure function of the seed.
    let mut spec = fxnet::TopologySpec::two_switches_trunk(4, fxnet::sim::RATE_10M);
    spec.attachments = vec![0, 1, 0, 1]; // both tenants span the trunk
    let run = |seed: u64| {
        TestbedBuilder::quiet(4)
            .seed(seed)
            .topology(spec.clone())
            .build()
            .mix()
            .solo_baselines(false)
            .tenant(MixTenant::shift("up", 0.05, 30_000, 4, 2))
            .tenant(MixTenant::shift("down", 0.05, 30_000, 4, 2))
            .watch()
            .run()
    };
    let out = run(3);
    let report = out.watch.expect("watch was enabled");
    assert!(
        report
            .registry
            .counters()
            .any(|(name, v)| name.contains("frames") && v > 0),
        "watcher metrics must have seen frames"
    );
    assert_eq!(
        run(3).watch.expect("watch on").events_jsonl(),
        report.events_jsonl()
    );
}
