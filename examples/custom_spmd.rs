//! Write your own compiler-style SPMD program, measure its traffic, fit
//! a spectral model, and negotiate QoS for it — the full library
//! workflow on a program that is not one of the paper's six.
//!
//! ```sh
//! cargo run --release --example custom_spmd
//! ```
//!
//! The program is a toy iterative solver: each rank relaxes a block,
//! exchanges halo edges with neighbors, tree-reduces a residual norm to
//! rank 0, and receives the convergence decision by broadcast — two
//! different collective patterns per iteration.

use fxnet::fx::{broadcast, neighbor_exchange, reduce_tree, Pattern};
use fxnet::qos::{negotiate, AppDescriptor, QosNetwork};
use fxnet::spectral::FourierModel;
use fxnet::trace::{Periodogram, TraceStore};
use fxnet::{SimTime, Testbed};

const N: usize = 256; // block edge per rank
const ITERS: usize = 40;

fn main() {
    println!("measuring a custom SPMD solver (neighbor + tree + broadcast per iteration)...");
    let run = Testbed::paper().run(|ctx| {
        let me = ctx.rank();
        let mut block = vec![f64::from(me) + 1.0; N * N];
        for iter in 0..ITERS {
            // Halo exchange: one N-element f64 edge each way.
            let edge_up: Vec<u8> = block[..N * 8 / 8]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            let edge_down: Vec<u8> = block[block.len() - N..]
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect();
            let (above, below) = neighbor_exchange(ctx, iter as i32, &edge_up, &edge_down);

            // Local relaxation (real arithmetic + modelled duration).
            let a0 = above.map_or(0.0, |a| f64::from_le_bytes(a[..8].try_into().unwrap()));
            let b0 = below.map_or(0.0, |b| f64::from_le_bytes(b[..8].try_into().unwrap()));
            let mut residual = 0.0f64;
            for v in block.iter_mut() {
                let next = 0.5 * *v + 0.25 * (a0 + b0);
                residual += (next - *v).abs();
                *v = next;
            }
            ctx.compute_mem((N * N * 48) as u64);

            // Residual reduction and convergence broadcast.
            let total = reduce_tree(
                ctx,
                1000 + iter as i32,
                residual.to_le_bytes().to_vec(),
                |acc, m| {
                    let a = f64::from_le_bytes(acc[..8].try_into().unwrap());
                    let b = f64::from_le_bytes(m.body[..8].try_into().unwrap());
                    (a + b).to_le_bytes().to_vec()
                },
            );
            let decision = broadcast(ctx, 2000 + iter as i32, 0, &total.unwrap_or_default());
            let _ = decision;
        }
        block.iter().sum::<f64>()
    });

    println!(
        "{} frames over {:.1} s simulated; results: {:?}",
        run.trace.len(),
        run.finished_at.as_secs_f64(),
        run.results
            .iter()
            .map(|v| format!("{v:.1}"))
            .collect::<Vec<_>>()
    );

    let store = TraceStore::from_records(&run.trace);
    let trace = store.view();
    let s = trace.packet_sizes().expect("traffic");
    println!(
        "packet sizes: min {:.0} max {:.0} avg {:.0}",
        s.min, s.max, s.avg
    );
    println!(
        "average bandwidth: {:.1} KB/s",
        trace.average_bandwidth().unwrap_or(0.0) / 1000.0
    );

    let bin = SimTime::from_millis(10);
    let series = trace.binned_bandwidth(bin);
    let spec = Periodogram::compute(&series, bin);
    if let Some(f) = spec.dominant_frequency(0.2) {
        println!(
            "iteration periodicity: {f:.2} Hz ({:.0} ms per iteration)",
            1000.0 / f
        );
    }
    let model = FourierModel::from_periodogram(&spec, 8, 0.1);
    println!(
        "8-spike Fourier model: {:.1}% of AC power, reconstruction RMS {:.3}",
        model.captured_power_fraction(&spec) * 100.0,
        model.reconstruction_error(&series, bin)
    );

    if let Some(profile) = trace.burst_profile(SimTime::from_millis(50)) {
        println!(
            "bursts: {} of {:.1} KB avg (size CV {:.3} — constant bursts)",
            profile.count,
            profile.sizes.avg / 1000.0,
            profile.size_cv()
        );
    }

    // Hand the network a [l(P), b(P), c] descriptor for this program.
    let app = AppDescriptor::scalable(Pattern::Neighbor, 2.0, |_| (N * 8) as u64);
    match negotiate(&app, &QosNetwork::ethernet_10mbps(), 1..=16) {
        Some(n) => println!(
            "QoS negotiation: run on P = {} (t_bi {:.3} s at {:.0} KB/s per connection)",
            n.p,
            n.timing.t_interval,
            n.burst_bw / 1000.0
        ),
        None => println!("QoS negotiation: rejected"),
    }
}
