//! Criterion benches for the analysis pipeline (the paper's offline
//! tooling): statistics, windowed bandwidth, periodograms, model fitting
//! and regeneration, the QoS negotiation, and the columnar engine —
//! store build, the report fold, indexed connection views vs filtered
//! copies, binary vs text trace IO, and the chunked-container (FXTC v2)
//! cursor decode.

use criterion::{criterion_group, criterion_main, Criterion};
use fxnet::fx::Pattern;
use fxnet::qos::{negotiate, AppDescriptor, QosNetwork};
use fxnet::sim::{Frame, FrameKind, FrameRecord, HostId, SimRng, SimTime};
use fxnet::spectral::generate::SynthConfig;
use fxnet::spectral::{synthesize_trace, FourierModel};
use fxnet::trace::{
    binned_bandwidth, connection, host_pairs, io, sliding_window_bandwidth, Periodogram,
    ReportOptions, Stats, TraceReport, TraceStore,
};
use std::hint::black_box;

/// A deterministic synthetic trace shaped like bursty kernel traffic.
fn synthetic_trace(n: usize) -> Vec<FrameRecord> {
    let mut t_us = 0u64;
    (0..n)
        .map(|i| {
            let burst = (i / 200) % 3 == 0;
            t_us += if burst { 1_200 } else { 40_000 };
            let f = Frame::tcp(
                HostId((i % 4) as u32),
                HostId(((i + 1) % 4) as u32),
                FrameKind::Data,
                if i % 3 == 0 { 1460 } else { 100 },
                i as u64,
            );
            FrameRecord::capture(SimTime::from_micros(t_us), &f)
        })
        .collect()
}

fn bench_stats(c: &mut Criterion) {
    let tr = synthetic_trace(100_000);
    c.bench_function("analysis/stats_100k_frames", |b| {
        b.iter(|| {
            black_box(Stats::packet_sizes(&tr));
            black_box(Stats::interarrivals_ms(&tr));
        })
    });
}

fn bench_window(c: &mut Criterion) {
    let tr = synthetic_trace(100_000);
    c.bench_function("analysis/sliding_window_100k_frames", |b| {
        b.iter(|| black_box(sliding_window_bandwidth(&tr, SimTime::from_millis(10))))
    });
}

fn bench_periodogram(c: &mut Criterion) {
    let tr = synthetic_trace(100_000);
    let series = binned_bandwidth(&tr, SimTime::from_millis(10));
    c.bench_function("analysis/periodogram", |b| {
        b.iter(|| black_box(Periodogram::compute(&series, SimTime::from_millis(10))))
    });
}

fn bench_model_fit_and_generate(c: &mut Criterion) {
    let tr = synthetic_trace(50_000);
    let series = binned_bandwidth(&tr, SimTime::from_millis(10));
    let spec = Periodogram::compute(&series, SimTime::from_millis(10));
    c.bench_function("analysis/fourier_fit_32_spikes", |b| {
        b.iter(|| black_box(FourierModel::from_periodogram(&spec, 32, 0.05)))
    });
    let model = FourierModel::from_periodogram(&spec, 16, 0.05);
    c.bench_function("analysis/synthesize_60s", |b| {
        b.iter(|| {
            let mut rng = SimRng::new(1);
            black_box(synthesize_trace(
                &model,
                SimTime::from_secs(60),
                &SynthConfig::default(),
                &mut rng,
            ))
        })
    });
}

fn bench_store_build(c: &mut Criterion) {
    let tr = synthetic_trace(100_000);
    c.bench_function("columnar/store_build_100k_frames", |b| {
        b.iter(|| black_box(TraceStore::from_records(&tr)))
    });
}

fn bench_report(c: &mut Criterion) {
    let store = TraceStore::from_records(&synthetic_trace(100_000));
    let opts = ReportOptions::default();
    c.bench_function("columnar/report_fused_view", |b| {
        b.iter(|| black_box(TraceReport::analyze_view("bench", store.view(), &opts)))
    });
}

fn bench_connection_index_vs_copy(c: &mut Criterion) {
    let tr = synthetic_trace(100_000);
    let store = TraceStore::from_records(&tr);
    let pairs = host_pairs(&tr);
    c.bench_function("columnar/connections_legacy_copy", |b| {
        b.iter(|| {
            for &((s, d), _) in &pairs {
                let conn = connection(&tr, s, d);
                black_box(Stats::packet_sizes(&conn));
            }
        })
    });
    c.bench_function("columnar/connections_indexed_view", |b| {
        b.iter(|| {
            for &((s, d), _) in &pairs {
                black_box(store.connection(s, d).packet_sizes());
            }
        })
    });
}

fn bench_trace_io(c: &mut Criterion) {
    let tr = synthetic_trace(100_000);
    let store = TraceStore::from_records(&tr);
    let dir = std::env::temp_dir().join(format!("fxnet-bench-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench dir");
    let path = dir.join("trace.fxb");
    c.bench_function("io/write_binary_100k_frames", |b| {
        b.iter(|| io::save_store(&path, &store).expect("encode binary"))
    });
    let binary = std::fs::read(&path).expect("read back the binary trace");
    let mut text = Vec::new();
    io::write_trace(&mut text, &tr).expect("encode text");
    c.bench_function("io/read_binary_100k_frames", |b| {
        b.iter(|| black_box(io::read_store_binary(&mut binary.as_slice()).expect("decode")))
    });
    c.bench_function("io/read_text_100k_frames", |b| {
        b.iter(|| black_box(io::read_trace(&mut text.as_slice()).expect("parse")))
    });
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_chunk_cursor(c: &mut Criterion) {
    let tr = synthetic_trace(100_000);
    let store = TraceStore::from_records(&tr);
    let dir = std::env::temp_dir().join(format!("fxnet-bench-chunks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench dir");
    let path = dir.join("cursor.fxb");
    io::save_store_chunked(&path, &store, 8_192).expect("write chunked trace");
    c.bench_function("io/chunk_cursor_decode_100k_frames", |b| {
        b.iter(|| {
            let mut cursor = io::ChunkCursor::open(&path).expect("open chunked trace");
            let mut frames = 0u64;
            while let Some((meta, buf)) = cursor.next_chunk().expect("decode chunk") {
                frames += meta.frames;
                black_box(buf.time_ns.last());
            }
            black_box(frames)
        })
    });
    std::fs::remove_dir_all(&dir).ok();
}

fn bench_qos(c: &mut Criterion) {
    c.bench_function("qos/negotiate_1_to_64", |b| {
        let app = AppDescriptor::scalable(Pattern::AllToAll, 24.0, |p| {
            (512 / u64::from(p).max(1)).pow(2) * 8
        });
        let net = QosNetwork::ethernet_10mbps();
        b.iter(|| black_box(negotiate(&app, &net, 1..=64)))
    });
}

criterion_group!(
    benches,
    bench_stats,
    bench_window,
    bench_periodogram,
    bench_model_fit_and_generate,
    bench_store_build,
    bench_report,
    bench_connection_index_vs_copy,
    bench_trace_io,
    bench_chunk_cursor,
    bench_qos
);
criterion_main!(benches);
