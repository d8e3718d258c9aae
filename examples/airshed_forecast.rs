//! Run the AIRSHED air-quality skeleton and verify its three-timescale
//! traffic structure (paper §6.2, Figures 10–11).
//!
//! ```sh
//! cargo run --release --example airshed_forecast -- 6
//! # arg: number of simulation hours (default 6; the paper ran 100)
//! ```

use fxnet::apps::airshed::AirshedParams;
use fxnet::trace::{Periodogram, TraceStore};
use fxnet::{SimTime, Testbed};
use std::io::Write;

fn main() {
    let hours: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    let mut params = AirshedParams::paper();
    params.hours = hours;
    println!(
        "AIRSHED skeleton: s={} species, p={} grid points, l={} layers, k={} steps/hour, {} hours",
        params.species, params.grid, params.layers, params.steps, params.hours
    );

    let run = Testbed::paper().run_airshed(params.clone()).unwrap();
    println!(
        "{} frames over {:.1} s simulated ({:.1} s per hour)",
        run.trace.len(),
        run.finished_at.as_secs_f64(),
        run.finished_at.as_secs_f64() / hours as f64
    );

    let store = TraceStore::from_records(&run.trace);
    let trace = store.view();
    let s = trace.packet_sizes().expect("trace");
    let i = trace.interarrivals_ms().expect("trace");
    println!(
        "packet sizes  B : min {:.0} max {:.0} avg {:.0} sd {:.0}",
        s.min, s.max, s.avg, s.sd
    );
    println!(
        "interarrival ms : min {:.1} max {:.1} avg {:.1} sd {:.1} (max/avg {:.0})",
        i.min,
        i.max,
        i.avg,
        i.sd,
        i.burstiness()
    );
    println!(
        "average bandwidth: {:.1} KB/s (paper: 32.7 KB/s aggregate)",
        trace.average_bandwidth().expect("trace") / 1000.0
    );

    // The three timescales: hour (~1/66 Hz), chemistry step (~0.2 Hz),
    // horizontal transport (~5 Hz).
    let bin = SimTime::from_millis(10);
    let series = trace.binned_bandwidth(bin);
    let spec = Periodogram::compute(&series, bin);
    println!("\nspectral peaks by band:");
    for (label, lo, hi) in [
        ("hour      (0 – 0.1 Hz)", 0.005, 0.1),
        ("chem step (0.1 – 1 Hz)", 0.1, 1.0),
        ("transport (1 – 20 Hz)", 1.0, 20.0),
    ] {
        let mut best = (0.0f64, 0.0f64);
        let mut idx = 0;
        while spec.freq(idx) < hi && idx < spec.power.len() {
            let f = spec.freq(idx);
            if f >= lo && spec.power[idx] > best.1 {
                best = (f, spec.power[idx]);
            }
            idx += 1;
        }
        println!(
            "  {label}: {:.3} Hz (period {:.1} s)",
            best.0,
            1.0 / best.0.max(1e-9)
        );
    }

    std::fs::create_dir_all("out").expect("out/");
    let mut f = std::fs::File::create("out/AIRSHED.bw").expect("open");
    for (j, v) in series.iter().enumerate() {
        writeln!(f, "{:.3} {:.1}", j as f64 * 0.01, v / 1000.0).expect("write");
    }
    println!("\nwrote out/AIRSHED.bw (10 ms binned bandwidth, KB/s)");
}
