//! End-to-end §7.2: measured trace → truncated Fourier model →
//! regenerated traffic, plus the parallel-vs-media contrast.

use fxnet::sim::SimRng;
use fxnet::spectral::{
    cbr_trace, hurst_aggregated_variance, onoff_vbr_trace, self_similar_trace, synthesize_trace,
    FourierModel,
};
use fxnet::trace::{Periodogram, TraceStore};
use fxnet::{KernelKind, RunResult, SimTime, TestbedBuilder};
use std::sync::OnceLock;

const BIN: SimTime = SimTime(10_000_000);

fn hist_run() -> &'static RunResult<u64> {
    static RUN: OnceLock<RunResult<u64>> = OnceLock::new();
    RUN.get_or_init(|| {
        TestbedBuilder::paper()
            .seed(3)
            .build()
            .run_kernel(KernelKind::Hist, 4)
            .unwrap()
    })
}

/// The HIST run's frames as one columnar store, built once.
fn hist_store() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(|| TraceStore::from_records(&hist_run().trace))
}

#[test]
fn truncated_model_converges_on_measured_kernel_traffic() {
    let series = hist_store().view().binned_bandwidth(BIN);
    let spec = Periodogram::compute(&series, BIN);
    // Zero-padding the non-power-of-two series makes the expansion only
    // approximately orthogonal, so allow a small tolerance per step but
    // require a clear overall decrease.
    let errs: Vec<f64> = [1usize, 4, 16, 64]
        .iter()
        .map(|&k| FourierModel::from_periodogram(&spec, k, 0.05).reconstruction_error(&series, BIN))
        .collect();
    for w in errs.windows(2) {
        assert!(w[1] <= w[0] + 0.05, "error not converging: {errs:?}");
    }
    assert!(
        errs[3] < errs[0] * 0.9,
        "64 spikes should beat 1 spike clearly: {errs:?}"
    );
    assert!(errs[3] < 1.0, "64-spike model error {}", errs[3]);
}

#[test]
fn model_fundamental_matches_measured_dominant_frequency() {
    let series = hist_store().view().binned_bandwidth(BIN);
    let spec = Periodogram::compute(&series, BIN);
    let dominant = spec.dominant_frequency(0.2).expect("spectrum");
    let model = FourierModel::from_periodogram(&spec, 8, 0.2);
    let has_dominant = model
        .spikes
        .iter()
        .any(|s| (s.freq - dominant).abs() < 2.0 * spec.df);
    assert!(has_dominant, "model spikes miss the dominant {dominant} Hz");
}

#[test]
fn regenerated_traffic_reproduces_the_periodicity() {
    let series = hist_store().view().binned_bandwidth(BIN);
    let spec = Periodogram::compute(&series, BIN);
    let model = FourierModel::from_periodogram(&spec, 16, 0.1);
    let mut rng = SimRng::new(5);
    let synth = synthesize_trace(
        &model,
        SimTime::from_secs_f64(series.len() as f64 * 0.01),
        &mut rng,
    );
    assert!(!synth.is_empty());
    let synth_spec = Periodogram::compute(
        &TraceStore::from_records(&synth)
            .view()
            .binned_bandwidth(BIN),
        BIN,
    );
    let f_meas = spec.dominant_frequency(0.2).unwrap();
    let f_synth = synth_spec.dominant_frequency(0.2).unwrap();
    assert!(
        (f_meas - f_synth).abs() < 0.5,
        "measured {f_meas:.2} Hz vs regenerated {f_synth:.2} Hz"
    );
}

#[test]
fn parallel_traffic_is_spikier_than_media_traffic() {
    // The paper's headline contrast, §1/§8: the kernel's spectral energy
    // concentrates in a few discrete harmonics; random on/off media
    // traffic spreads energy across the band.
    let concentration = |trace: &[fxnet::FrameRecord]| {
        let spec = Periodogram::compute(
            &TraceStore::from_records(trace).view().binned_bandwidth(BIN),
            BIN,
        );
        FourierModel::from_periodogram(&spec, 8, 0.1).captured_power_fraction(&spec)
    };
    let kernel_c = concentration(&hist_run().trace);
    let mut rng = SimRng::new(9);
    let dur = SimTime::from_secs(40);
    let vbr = onoff_vbr_trace(400_000.0, 0.4, 0.6, 1000, dur, &mut rng);
    let vbr_c = concentration(&vbr);
    assert!(
        kernel_c > 1.5 * vbr_c,
        "kernel concentration {kernel_c:.3} must exceed VBR {vbr_c:.3}"
    );
}

#[test]
fn media_traffic_lacks_the_kernels_discrete_harmonics() {
    // Kernel spectra concentrate energy in few spikes; CBR concentrates
    // at its packet rate only; self-similar spreads energy broadly. Use
    // captured-power-in-8-spikes as the concentration metric.
    let concentration = |trace: &[fxnet::FrameRecord]| {
        let spec = Periodogram::compute(
            &TraceStore::from_records(trace).view().binned_bandwidth(BIN),
            BIN,
        );
        FourierModel::from_periodogram(&spec, 8, 0.1).captured_power_fraction(&spec)
    };
    let kernel_c = concentration(&hist_run().trace);
    let mut rng = SimRng::new(21);
    let ss = self_similar_trace(
        16,
        40_000.0,
        1.5,
        0.5,
        800,
        SimTime::from_secs(60),
        &mut rng,
    );
    let ss_c = concentration(&ss);
    assert!(
        kernel_c > ss_c,
        "kernel concentration {kernel_c:.3} vs self-similar {ss_c:.3}"
    );
}

#[test]
fn hurst_separates_self_similar_from_periodic_kernel_traffic() {
    let series = hist_store()
        .view()
        .binned_bandwidth(SimTime::from_millis(50));
    let h_kernel = hurst_aggregated_variance(&series);
    let mut rng = SimRng::new(31);
    let ss = self_similar_trace(
        32,
        20_000.0,
        1.4,
        1.0,
        500,
        SimTime::from_secs(200),
        &mut rng,
    );
    let h_ss = hurst_aggregated_variance(
        &TraceStore::from_records(&ss)
            .view()
            .binned_bandwidth(SimTime::from_millis(50)),
    )
    .unwrap();
    assert!(h_ss > 0.6, "self-similar H = {h_ss}");
    if let Some(h) = h_kernel {
        // Periodic traffic decorrelates under aggregation: H well below
        // the self-similar source's.
        assert!(h < h_ss, "kernel H {h} vs self-similar {h_ss}");
    }
}

#[test]
fn cbr_has_single_spectral_line_not_burst_harmonics() {
    let cbr = cbr_trace(200_000.0, 1000, SimTime::from_secs(30));
    let spec = Periodogram::compute(
        &TraceStore::from_records(&cbr).view().binned_bandwidth(BIN),
        BIN,
    );
    // CBR at 200 packets/s sampled in 10 ms bins is essentially constant:
    // almost no AC energy at all compared to its DC level.
    let ac = spec.total_power().sqrt();
    assert!(
        ac < spec.mean * 50.0,
        "CBR should be nearly flat (ac {ac:.1} vs mean {:.1})",
        spec.mean
    );
}
