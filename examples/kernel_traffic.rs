//! Measure any of the five Fx kernels and dump its bandwidth series and
//! power spectrum for plotting.
//!
//! ```sh
//! cargo run --release --example kernel_traffic -- 2DFFT 20
//! # args: kernel name (SOR|2DFFT|T2DFFT|SEQ|HIST), iteration divisor
//! # writes out/<kernel>.bw and out/<kernel>.spectrum
//! ```

use fxnet::trace::{Periodogram, TraceStore};
use fxnet::{HostId, KernelKind, SimTime, Testbed};
use std::io::Write;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "2DFFT".to_string());
    let iter_div: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);
    let kernel = KernelKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(&name))
        .unwrap_or_else(|| {
            eprintln!("unknown kernel {name}; expected SOR|2DFFT|T2DFFT|SEQ|HIST");
            std::process::exit(2);
        });

    println!(
        "running {} (pattern: {}) at paper scale / {iter_div} ...",
        kernel.name(),
        kernel.pattern().name()
    );
    let run = Testbed::paper().run_kernel(kernel, iter_div).unwrap();
    println!(
        "{} frames, {:.1} s simulated",
        run.trace.len(),
        run.finished_at.as_secs_f64()
    );

    // Aggregate rows (Figures 3–5).
    let store = TraceStore::from_records(&run.trace);
    let trace = store.view();
    let s = trace.packet_sizes().expect("trace");
    let i = trace.interarrivals_ms().expect("trace");
    let bw = trace.average_bandwidth().expect("trace");
    println!("\naggregate:");
    println!(
        "  sizes  B : min {:.0} max {:.0} avg {:.0} sd {:.0}",
        s.min, s.max, s.avg, s.sd
    );
    println!(
        "  inter ms : min {:.1} max {:.1} avg {:.2} sd {:.2}",
        i.min, i.max, i.avg, i.sd
    );
    println!("  avg bw   : {:.1} KB/s", bw / 1000.0);

    // Representative connection (paper §6.1): host 0 → host 1.
    let conn = store.connection(HostId(0), HostId(1));
    if let (Some(cs), Some(ci)) = (conn.packet_sizes(), conn.interarrivals_ms()) {
        println!("connection h0->h1:");
        println!(
            "  sizes  B : min {:.0} max {:.0} avg {:.0} sd {:.0}",
            cs.min, cs.max, cs.avg, cs.sd
        );
        println!(
            "  inter ms : min {:.1} max {:.1} avg {:.2} sd {:.2}",
            ci.min, ci.max, ci.avg, ci.sd
        );
        if let Some(cbw) = conn.average_bandwidth() {
            println!("  avg bw   : {:.1} KB/s", cbw / 1000.0);
        }
    }

    // Size population (trimodality check).
    println!("\npacket-size population (top 6):");
    let mut pop = trace.size_population();
    pop.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (sz, c) in pop.iter().take(6) {
        println!("  {sz:>5} B  ×{c}");
    }

    // Busiest pairs.
    println!("\nbusiest host pairs:");
    let mut pairs = trace.host_pairs();
    pairs.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for ((a, b), c) in pairs.iter().take(6) {
        println!("  {a} -> {b}: {c} frames");
    }

    // Series + spectrum dumps.
    std::fs::create_dir_all("out").expect("create out/");
    let bin = SimTime::from_millis(10);
    let win = trace.sliding_window_bandwidth(bin);
    let bw = std::fs::File::create(format!("out/{}.bw", kernel.name())).expect("open");
    let mut f = std::io::BufWriter::new(bw);
    for (t, v) in &win {
        writeln!(f, "{:.4} {:.1}", t.as_secs_f64(), v / 1000.0).expect("write");
    }
    f.flush().expect("write");
    let series = trace.binned_bandwidth(bin);
    let spec = Periodogram::compute(&series, bin);
    let spectrum = std::fs::File::create(format!("out/{}.spectrum", kernel.name())).expect("open");
    let mut f = std::io::BufWriter::new(spectrum);
    for idx in 0..spec.power.len() {
        writeln!(f, "{:.4} {:.3e}", spec.freq(idx), spec.power[idx]).expect("write");
    }
    f.flush().expect("write");
    println!("\nwrote out/{0}.bw and out/{0}.spectrum", kernel.name());
    if let Some(fd) = spec.dominant_frequency(0.1) {
        println!("dominant frequency: {fd:.2} Hz");
    }
    println!("top spikes:");
    for sp in spec.top_spikes(5, 0.3) {
        println!("  {:>6.2} Hz  power {:.2e}", sp.freq, sp.power);
    }
}
