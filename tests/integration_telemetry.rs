//! Cross-crate integration of the telemetry layer: determinism of the
//! exported snapshot, conservation between the counter registry and the
//! packet trace, trace invariance, and phase attribution coverage.

use fxnet::telemetry::SpanKind;
use fxnet::trace::{PhaseBreakdown, TraceStore};
use fxnet::{KernelKind, RunResult, SimTime, TestbedBuilder};
use std::sync::OnceLock;

/// Run each kernel once with telemetry and share the result across tests.
fn run(kernel: KernelKind) -> &'static RunResult<u64> {
    static SOR: OnceLock<RunResult<u64>> = OnceLock::new();
    static FFT: OnceLock<RunResult<u64>> = OnceLock::new();
    static TFFT: OnceLock<RunResult<u64>> = OnceLock::new();
    static SEQ: OnceLock<RunResult<u64>> = OnceLock::new();
    static HIST: OnceLock<RunResult<u64>> = OnceLock::new();
    let (cell, div) = match kernel {
        KernelKind::Sor => (&SOR, 20),
        KernelKind::Fft2d => (&FFT, 20),
        KernelKind::T2dfft => (&TFFT, 20),
        KernelKind::Seq => (&SEQ, 5),
        KernelKind::Hist => (&HIST, 20),
    };
    cell.get_or_init(|| {
        TestbedBuilder::paper()
            .seed(1998)
            .telemetry_enabled(true)
            .build()
            .run_kernel(kernel, div)
            .unwrap()
    })
}

#[test]
fn same_seed_runs_produce_identical_telemetry_json() {
    let a = TestbedBuilder::paper()
        .seed(1998)
        .telemetry_enabled(true)
        .build()
        .run_kernel(KernelKind::Hist, 20)
        .unwrap();
    let b = TestbedBuilder::paper()
        .seed(1998)
        .telemetry_enabled(true)
        .build()
        .run_kernel(KernelKind::Hist, 20)
        .unwrap();
    let ja = serde::json::to_string(&a.telemetry.expect("telemetry on").to_value());
    let jb = serde::json::to_string(&b.telemetry.expect("telemetry on").to_value());
    assert_eq!(ja, jb, "telemetry snapshot must be a function of the seed");
}

#[test]
fn telemetry_does_not_perturb_the_trace() {
    let plain = TestbedBuilder::paper()
        .seed(7)
        .build()
        .run_kernel(KernelKind::Hist, 20)
        .unwrap();
    let tele = TestbedBuilder::paper()
        .seed(7)
        .telemetry_enabled(true)
        .build()
        .run_kernel(KernelKind::Hist, 20)
        .unwrap();
    assert!(plain.telemetry.is_none());
    assert_eq!(
        plain.trace, tele.trace,
        "span collection must not move a single frame"
    );
    assert_eq!(plain.ether, tele.ether);
}

#[test]
fn registry_counters_conserve_trace_totals() {
    // On the lossless shared bus every delivered frame is captured, so
    // the MAC registry counters, the EtherStats snapshot and the trace
    // must agree exactly.
    let run = run(KernelKind::Sor);
    let reg = &run.telemetry.as_ref().expect("telemetry on").registry;
    let trace_bytes: u64 = run.trace.iter().map(|r| u64::from(r.wire_len)).sum();
    assert_eq!(
        reg.counter("mac.frames_delivered"),
        run.ether.frames_delivered
    );
    assert_eq!(
        reg.counter("mac.bytes_delivered"),
        run.ether.bytes_delivered
    );
    assert_eq!(reg.counter("mac.frames_delivered"), run.trace.len() as u64);
    assert_eq!(reg.counter("mac.bytes_delivered"), trace_bytes);
    assert_eq!(reg.counter("mac.collisions"), run.ether.collisions);
}

#[test]
fn engine_counters_and_spans_are_populated() {
    let run = run(KernelKind::Hist);
    let tel = run.telemetry.as_ref().expect("telemetry on");
    assert!(tel.registry.counter("engine.events.send") > 0);
    assert!(tel.registry.counter("engine.events.recv") > 0);
    assert!(tel.registry.counter("tcp.data_segments") > 0);
    assert!(tel.registry.counter("pvm.messages_sent") > 0);
    assert!(!tel.spans.is_empty());
    for s in &tel.spans {
        assert!(s.end >= s.begin, "span {s:?} ends before it begins");
    }
    assert!(
        tel.spans.iter().any(|s| s.kind == SpanKind::Collective),
        "kernels must emit named collective spans"
    );
}

#[test]
fn most_data_bytes_attribute_to_a_named_phase() {
    // The acceptance figure of the `phases` experiment: ≥ 90 % of traced
    // data bytes belong to a named collective span, for every kernel.
    for k in KernelKind::ALL {
        let run = run(k);
        let tel = run.telemetry.as_ref().expect("telemetry on");
        let store = TraceStore::from_records(&run.trace);
        let bd = PhaseBreakdown::compute(store.view(), &tel.spans, 4, SimTime::from_millis(10));
        assert!(
            bd.data_attribution_fraction >= 0.9,
            "{}: only {:.1}% of data bytes attributed",
            k.name(),
            100.0 * bd.data_attribution_fraction
        );
        assert!(!bd.rows.is_empty(), "{} has no named phases", k.name());
    }
}
