//! Quickstart: measure one kernel's traffic on the simulated testbed.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's environment (P=4 tasks, 9 workstations, 10 Mb/s
//! shared Ethernet), runs the HIST kernel, and prints the per-program
//! rows the paper's tables report: packet sizes, interarrivals, average
//! bandwidth, and the dominant spectral frequency.

use fxnet::trace::{Periodogram, TraceStore};
use fxnet::{KernelKind, SimTime, TestbedBuilder};

fn main() {
    let testbed = TestbedBuilder::paper().seed(1998).build();
    let kernel = KernelKind::Hist;
    // 10 of the paper's 100 outer iterations: enough to see periodicity.
    println!("running {} on the simulated testbed...", kernel.name());
    let run = testbed.run_kernel(kernel, 10).unwrap();

    println!(
        "\ntrace: {} frames over {:.1} s of simulated time",
        run.trace.len(),
        run.finished_at.as_secs_f64()
    );

    // One columnar store per run; every analysis is a view kernel.
    let store = TraceStore::from_records(&run.trace);
    let trace = store.view();
    let sizes = trace.packet_sizes().expect("nonempty trace");
    println!(
        "packet size  (B):  min {:>5.0}  max {:>5.0}  avg {:>6.1}  sd {:>6.1}",
        sizes.min, sizes.max, sizes.avg, sizes.sd
    );
    let inter = trace.interarrivals_ms().expect("nonempty trace");
    println!(
        "interarrival (ms): min {:>5.1}  max {:>5.1}  avg {:>6.2}  sd {:>6.2}  (max/avg = {:.0})",
        inter.min,
        inter.max,
        inter.avg,
        inter.sd,
        inter.burstiness()
    );
    let bw = trace.average_bandwidth().expect("nonempty trace");
    println!("average bandwidth: {:.1} KB/s", bw / 1000.0);

    let series = trace.binned_bandwidth(SimTime::from_millis(10));
    let spec = Periodogram::compute(&series, SimTime::from_millis(10));
    if let Some(f) = spec.dominant_frequency(0.2) {
        println!(
            "dominant spectral component: {f:.2} Hz (period {:.0} ms)",
            1000.0 / f
        );
    }
    println!(
        "spectral flatness: {:.4} (spiky ≪ 1; media-like ≈ 1)",
        spec.flatness()
    );

    println!(
        "\nEthernet: {} collisions, {} frames delivered",
        run.ether.collisions, run.ether.frames_delivered
    );
}
