//! Fit a truncated Fourier-series model (§7.2) to a measured kernel and
//! regenerate synthetic traffic from it.
//!
//! ```sh
//! cargo run --release --example spectral_model
//! ```
//!
//! Measures 2DFFT, fits models keeping 1..64 spikes, shows the
//! reconstruction error converging, then synthesizes a packet trace from
//! the 16-spike model and compares its spectrum with the measured one.

use fxnet::sim::SimRng;
use fxnet::spectral::generate::SynthConfig;
use fxnet::spectral::{synthesize_trace, FourierModel};
use fxnet::trace::{Periodogram, TraceStore};
use fxnet::{KernelKind, SimTime, Testbed};

fn main() {
    println!("measuring 2DFFT...");
    let run = Testbed::paper().run_kernel(KernelKind::Fft2d, 10).unwrap();
    let bin = SimTime::from_millis(10);
    let store = TraceStore::from_records(&run.trace);
    let series = store.view().binned_bandwidth(bin);
    let spec = Periodogram::compute(&series, bin);
    println!(
        "measured: {:.1} KB/s average, dominant {:.2} Hz",
        store.view().average_bandwidth().unwrap() / 1000.0,
        spec.dominant_frequency(0.1).unwrap_or(0.0)
    );

    println!("\nFourier truncation convergence (\"choose the important spikes\"):");
    println!("  spikes   captured-power   reconstruction-RMS");
    for k in [1usize, 2, 4, 8, 16, 32, 64] {
        let m = FourierModel::from_periodogram(&spec, k, 0.05);
        println!(
            "  {k:>5}   {:>13.1}%   {:>17.3}",
            m.captured_power_fraction(&spec) * 100.0,
            m.reconstruction_error(&series, bin)
        );
    }

    // Regenerate traffic from the 16-spike model.
    let model = FourierModel::from_periodogram(&spec, 16, 0.05);
    let mut rng = SimRng::new(42);
    let synth = synthesize_trace(
        &model,
        SimTime::from_secs_f64(series.len() as f64 * 0.01),
        &SynthConfig::default(),
        &mut rng,
    );
    let synth_series = TraceStore::from_records(&synth)
        .view()
        .binned_bandwidth(bin);
    let synth_spec = Periodogram::compute(&synth_series, bin);
    println!("\nsynthetic trace: {} frames", synth.len());
    println!(
        "  measured  dominant: {:.2} Hz, mean {:.1} KB/s",
        spec.dominant_frequency(0.1).unwrap_or(0.0),
        spec.mean / 1000.0
    );
    println!(
        "  synthetic dominant: {:.2} Hz, mean {:.1} KB/s",
        synth_spec.dominant_frequency(0.1).unwrap_or(0.0),
        synth_spec.mean / 1000.0
    );
    println!(
        "  flatness: measured {:.4} vs synthetic {:.4}",
        spec.flatness(),
        synth_spec.flatness()
    );
}
