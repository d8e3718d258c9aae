//! Cross-crate integration: the five kernels run end-to-end on the
//! simulated testbed and their traffic exhibits the paper's qualitative
//! results (§6.1) at reduced iteration counts.

use fxnet::trace::{Periodogram, TraceStore};
use fxnet::{HostId, KernelKind, RunResult, SimTime, Testbed, TestbedBuilder};
use std::sync::OnceLock;

/// Run each kernel once and share the result across tests.
fn run(kernel: KernelKind) -> &'static RunResult<u64> {
    static SOR: OnceLock<RunResult<u64>> = OnceLock::new();
    static FFT: OnceLock<RunResult<u64>> = OnceLock::new();
    static TFFT: OnceLock<RunResult<u64>> = OnceLock::new();
    static SEQ: OnceLock<RunResult<u64>> = OnceLock::new();
    static HIST: OnceLock<RunResult<u64>> = OnceLock::new();
    let (cell, div) = match kernel {
        KernelKind::Sor => (&SOR, 5),    // 20 steps
        KernelKind::Fft2d => (&FFT, 10), // 10 iterations
        KernelKind::T2dfft => (&TFFT, 10),
        KernelKind::Seq => (&SEQ, 5),   // 1 iteration
        KernelKind::Hist => (&HIST, 5), // 20 iterations
    };
    cell.get_or_init(|| {
        TestbedBuilder::paper()
            .seed(1998)
            .build()
            .run_kernel(kernel, div)
            .unwrap()
    })
}

/// Each kernel's frames as one columnar store, built once.
fn store(kernel: KernelKind) -> &'static TraceStore {
    static STORES: [OnceLock<TraceStore>; 5] = [const { OnceLock::new() }; 5];
    let i = KernelKind::ALL.iter().position(|&k| k == kernel);
    STORES[i.expect("one of the five kernels")]
        .get_or_init(|| TraceStore::from_records(&run(kernel).trace))
}

const BIN: SimTime = SimTime(10_000_000);

#[test]
fn packet_sizes_span_58_to_1518_for_bulk_kernels() {
    // Figure 3: SOR, 2DFFT, T2DFFT, HIST all range from pure ACKs to
    // full frames.
    for k in [
        KernelKind::Sor,
        KernelKind::Fft2d,
        KernelKind::T2dfft,
        KernelKind::Hist,
    ] {
        let s = store(k).view().packet_sizes().expect("traffic");
        assert_eq!(s.min, 58.0, "{}: min", k.name());
        assert_eq!(s.max, 1518.0, "{}: max", k.name());
    }
}

#[test]
fn seq_packets_are_tiny() {
    // Figure 3: SEQ spans 58..90 bytes only (element messages + ACKs).
    let s = store(KernelKind::Seq)
        .view()
        .packet_sizes()
        .expect("traffic");
    assert_eq!(s.min, 58.0);
    assert_eq!(s.max, 90.0);
    assert!(s.avg > 58.0 && s.avg < 90.0);
}

#[test]
fn bulk_single_fragment_kernels_are_trimodal() {
    // §6.1: "for several of the kernels (2DFFT, HIST, SOR), the
    // distribution of packet sizes is trimodal": full frames, one
    // remainder size, and ACKs dominate.
    for k in [KernelKind::Fft2d, KernelKind::Sor, KernelKind::Hist] {
        // Distinct sizes carried by at least 5 % of the frames.
        let view = store(k).view();
        let modes: Vec<u32> = view
            .size_population()
            .into_iter()
            .filter(|&(_, c)| c as f64 >= 0.05 * view.len() as f64)
            .map(|(s, _)| s)
            .collect();
        assert!(
            modes.contains(&58) && modes.contains(&1518),
            "{}: dominant modes {modes:?} must include ACKs and full frames",
            k.name()
        );
        assert!(
            modes.len() <= 4,
            "{}: expected a few dominant modes, got {modes:?}",
            k.name()
        );
    }
}

#[test]
fn t2dfft_has_broader_size_mix_than_2dfft() {
    // §4: T2DFFT's fragment-list messages produce "the variety of packet
    // sizes" — more distinct data-frame sizes than 2DFFT's copy-loop.
    let distinct = |k: KernelKind| {
        store(k)
            .view()
            .size_population()
            .into_iter()
            .filter(|&(sz, _)| sz > 90) // ignore ACK/ctrl populations
            .count()
    };
    let fft = distinct(KernelKind::Fft2d);
    let tfft = distinct(KernelKind::T2dfft);
    assert!(
        tfft >= fft,
        "T2DFFT should show at least as many data sizes ({tfft} vs {fft})"
    );
}

#[test]
fn interarrival_max_to_avg_ratio_is_high() {
    // Figure 4's burstiness observation: max/avg ≫ 1 for every kernel.
    for k in KernelKind::ALL {
        let s = store(k).view().interarrivals_ms().expect("traffic");
        assert!(
            s.burstiness() > 5.0,
            "{}: max/avg = {:.1} not bursty",
            k.name(),
            s.burstiness()
        );
    }
}

#[test]
fn bandwidth_ordering_matches_figure_5() {
    // 2DFFT and T2DFFT are the heavy kernels; SOR is tiny; nobody
    // saturates the 1.25 MB/s line rate.
    let bw = |k: KernelKind| store(k).view().average_bandwidth().expect("traffic");
    let sor = bw(KernelKind::Sor);
    let fft = bw(KernelKind::Fft2d);
    let tfft = bw(KernelKind::T2dfft);
    let hist = bw(KernelKind::Hist);
    assert!(fft > 10.0 * sor, "2DFFT {fft:.0} vs SOR {sor:.0}");
    assert!(tfft > 10.0 * sor, "T2DFFT {tfft:.0} vs SOR {sor:.0}");
    assert!(fft > hist, "2DFFT {fft:.0} vs HIST {hist:.0}");
    for k in KernelKind::ALL {
        assert!(
            bw(k) < 1_250_000.0,
            "{} exceeds the aggregate line rate",
            k.name()
        );
    }
}

#[test]
fn traffic_is_periodic_bursts_with_quiet_gaps() {
    // Figure 6: substantial portions of time with virtually no bandwidth
    // (compute phases) interleaved with intense bursts.
    for k in [KernelKind::Fft2d, KernelKind::Hist, KernelKind::Sor] {
        let series = store(k).view().binned_bandwidth(BIN);
        let quiet = series.iter().filter(|&&v| v < 1000.0).count();
        let busy = series.iter().filter(|&&v| v > 100_000.0).count();
        assert!(
            quiet * 10 > series.len(),
            "{}: expected ≥10% quiet bins, got {quiet}/{}",
            k.name(),
            series.len()
        );
        assert!(busy > 0, "{}: no bursts seen", k.name());
    }
}

/// The burst-train fundamental: the lowest-frequency spike among the
/// strong spectral peaks (the dominant bin may be a harmonic, as the
/// paper's own SEQ spectrum shows with its dominant 4 Hz *harmonic*).
fn fundamental(k: KernelKind, min_hz: f64) -> f64 {
    let series = store(k).view().binned_bandwidth(BIN);
    let spec = Periodogram::compute(&series, BIN);
    let spikes = spec.top_spikes(8, min_hz.max(4.0 * spec.df));
    let peak = spikes.iter().map(|s| s.power).fold(0.0, f64::max);
    // Lowest *substantial* spike: weak subharmonics do not count.
    spikes
        .iter()
        .filter(|s| s.freq >= min_hz && s.power >= 0.1 * peak)
        .map(|s| s.freq)
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn spectra_are_spiky_with_plausible_fundamentals() {
    // Figure 7: every kernel's bandwidth has clear harmonic structure at
    // the right time scale (paper: 2DFFT ≈0.5 Hz, HIST ≈5 Hz, SEQ
    // ≈4 Hz). We accept a factor-2 band — the shape claim.
    let f_fft = fundamental(KernelKind::Fft2d, 0.2);
    assert!(
        (0.25..=1.2).contains(&f_fft),
        "2DFFT fundamental {f_fft:.2} Hz vs paper ~0.5 Hz"
    );
    let f_hist = fundamental(KernelKind::Hist, 1.5);
    assert!(
        (2.0..=10.0).contains(&f_hist),
        "HIST fundamental {f_hist:.2} Hz vs paper ~5 Hz"
    );
    let f_seq = fundamental(KernelKind::Seq, 1.5);
    assert!(
        (1.5..=10.0).contains(&f_seq),
        "SEQ fundamental {f_seq:.2} Hz vs paper ~4 Hz"
    );
}

#[test]
fn sor_connection_traffic_is_strongly_periodic() {
    // §6.1: "the representative connection's power spectrum does show
    // considerable periodicity". The time-domain statement: the
    // connection's bandwidth autocorrelation has a strong peak at the
    // step period.
    let conn = store(KernelKind::Sor).connection(HostId(1), HostId(2));
    assert!(!conn.is_empty(), "representative connection is silent");
    let series = conn.binned_bandwidth(BIN);
    // Look for a repeat between 0.5 s and 8 s (the step period).
    let acf = fxnet::trace::autocorrelation(&series, 800.min(series.len() - 1));
    let peak = acf.iter().enumerate().skip(50).map(|(l, &v)| (l, v)).fold(
        (0usize, f64::MIN),
        |best, (l, v)| {
            if v > best.1 {
                (l, v)
            } else {
                best
            }
        },
    );
    assert!(
        peak.1 > 0.25,
        "no periodic repeat: best ACF {:.3} at lag {} bins",
        peak.1,
        peak.0
    );
}

#[test]
fn all_to_all_connections_act_in_phase() {
    // §7.1: "the stronger the synchronization, the more likely it is
    // that the connections are in phase". 2DFFT's shift-scheduled
    // all-to-all tightly synchronizes all processors, so its busy
    // connections' bandwidth series correlate positively; media-style
    // independent sources would not.
    let tcp: TraceStore = run(KernelKind::Fft2d)
        .trace
        .iter()
        .filter(|r| r.proto == fxnet::sim::Proto::Tcp)
        .copied()
        .collect();
    // Phase alignment lives at burst scale: at fine bins the shared
    // medium *serializes* the connections (near-zero correlation), while
    // at ~quarter-period bins their on/off phases align.
    let coarse =
        fxnet::trace::mean_connection_correlation(tcp.view(), SimTime::from_millis(500), 200)
            .expect("busy connections");
    let fine = fxnet::trace::mean_connection_correlation(tcp.view(), SimTime::from_millis(10), 200)
        .expect("busy connections");
    assert!(coarse > 0.15, "burst-scale correlation {coarse:.3}");
    assert!(
        coarse > fine + 0.1,
        "burst-scale ({coarse:.3}) must exceed fine-scale ({fine:.3}) correlation"
    );
}

#[test]
fn kernels_scale_to_other_processor_counts() {
    // The paper compiled for P=4, but Fx programs compile for arbitrary P
    // (§5.2): the distributed kernels must stay correct at P=2 and P=8.
    use fxnet::apps::{fft2d, hist, sor};
    for p in [2u32, 8] {
        let params = sor::SorParams::tiny();
        let want = sor::sor_sequential(&params, p as usize);
        let pp = params.clone();
        let run = Testbed::quiet(p).run(move |ctx| sor::sor_rank(ctx, &pp));
        assert_eq!(run.results, want, "SOR at P={p}");

        let params = fft2d::FftParams::tiny();
        let want = fft2d::fft2d_sequential(&params, p as usize);
        let pp = params.clone();
        let run = Testbed::quiet(p).run(move |ctx| fft2d::fft2d_rank(ctx, &pp));
        assert_eq!(run.results, want, "2DFFT at P={p}");

        let params = hist::HistParams::tiny();
        let want = hist::hist_sequential(&params);
        let pp = params.clone();
        let run = Testbed::quiet(p).run(move |ctx| hist::hist_rank(ctx, &pp));
        for r in &run.results {
            assert_eq!(r, &want, "HIST at P={p}");
        }
    }
}

#[test]
fn trace_survives_a_save_load_round_trip() {
    // The tcpdump-equivalent persistence (§5.3's offline workflow): a
    // measured trace written to disk and reloaded analyzes identically.
    let run = run(KernelKind::Hist);
    let path = std::env::temp_dir().join("fxnet-integration-trace.fxb");
    fxnet::trace::save_store_chunked(
        &path,
        &fxnet::trace::TraceStore::from_records(&run.trace),
        fxnet::trace::io::SAVE_CHUNK_FRAMES,
    )
    .expect("save");
    let back = fxnet::trace::load_store(&path).expect("load");
    assert_eq!(back.to_records(), run.trace);
    assert_eq!(
        back.view().packet_sizes(),
        store(KernelKind::Hist).view().packet_sizes()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn runs_are_deterministic() {
    let a = TestbedBuilder::paper()
        .seed(77)
        .build()
        .run_kernel(KernelKind::Hist, 25)
        .unwrap();
    let b = TestbedBuilder::paper()
        .seed(77)
        .build()
        .run_kernel(KernelKind::Hist, 25)
        .unwrap();
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.results, b.results);
    assert_eq!(a.finished_at, b.finished_at);
}

#[test]
fn all_to_all_uses_all_pairs_neighbor_does_not() {
    // §7.1: the patterns differ in how many connections they use.
    // Consider only the kernels' TCP traffic: daemon heartbeats add UDP
    // pairs on any LAN.
    let pairs = |k: KernelKind| {
        let tcp: TraceStore = run(k)
            .trace
            .iter()
            .filter(|r| r.proto == fxnet::sim::Proto::Tcp)
            .copied()
            .collect();
        tcp.view()
            .host_pairs()
            .into_iter()
            .filter(|&((a, b), _)| a.0 < 4 && b.0 < 4)
            .count()
    };
    // All-to-all: every ordered pair (data or reverse ACKs) = 12.
    assert_eq!(pairs(KernelKind::Fft2d), 12);
    // Neighbor: only adjacent pairs (plus their ACK channels) = 6.
    assert_eq!(pairs(KernelKind::Sor), 6);
}

#[test]
fn rank_checksums_are_pinned() {
    // The rank-side numerics are bit-stable across optimisation: these
    // are the per-rank `results` of the five kernels as the kernels stood
    // before any of them was tuned, at `tiny()` and at the 1/20 scale
    // `benchmark/expected.json` digests. A change that moves one low bit
    // of an FFT, a sweep or a histogram fails here.
    use fxnet::apps::{checksum, fft2d, hist, seq, sor, t2dfft};
    let quiet = || Testbed::quiet(4);
    let tiny: [(&str, Vec<u64>); 5] = [
        ("SOR", {
            let p = sor::SorParams::tiny();
            quiet().run(move |ctx| sor::sor_rank(ctx, &p)).results
        }),
        ("2DFFT", {
            let p = fft2d::FftParams::tiny();
            quiet().run(move |ctx| fft2d::fft2d_rank(ctx, &p)).results
        }),
        ("T2DFFT", {
            let p = t2dfft::T2dfftParams::tiny();
            quiet().run(move |ctx| t2dfft::t2dfft_rank(ctx, &p)).results
        }),
        ("SEQ", {
            let p = seq::SeqParams::tiny();
            quiet().run(move |ctx| seq::seq_rank(ctx, &p)).results
        }),
        ("HIST", {
            let p = hist::HistParams::tiny();
            let run = quiet().run(move |ctx| {
                let h = hist::hist_rank(ctx, &p);
                checksum(&h.iter().map(|&v| f64::from(v)).collect::<Vec<_>>())
            });
            run.results
        }),
    ];
    let tiny_want: [[u64; 4]; 5] = [
        [
            0x01cdac40736bb725,
            0xbee5abd8736bb725,
            0x0387ac18736bb725,
            0xa2574858736bb725,
        ],
        [
            0x79a4639f2c7ced25,
            0xbdf1267a0c7ced25,
            0x7cd832940c7ced25,
            0x299771950c7ced25,
        ],
        [
            0x0000000000000200,
            0x0000000000000200,
            0x0925d710b36bb725,
            0x1d4cf430f36bb725,
        ],
        [
            0x9038afb960ff6465,
            0x2538afb960ff6465,
            0xf266afb960ff6465,
            0x06ecafb960ff6465,
        ],
        [
            0xf2fc6fb960ff6465,
            0xf2fc6fb960ff6465,
            0xf2fc6fb960ff6465,
            0xf2fc6fb960ff6465,
        ],
    ];
    for ((name, got), want) in tiny.iter().zip(&tiny_want) {
        assert_eq!(got.as_slice(), want, "{name} at tiny()");
    }

    let tb = TestbedBuilder::paper().seed(1998).build();
    let scaled_want: [[u64; 4]; 5] = [
        [
            0x8cb1547ea5b62325,
            0x53aa262ea5b62325,
            0x39aba92ea5b62325,
            0x8530c12ea5b62325,
        ],
        [
            0x4d2b2c3c074a2325,
            0x08b00b37474a2325,
            0xf90c34fc274a2325,
            0x465dfb7f474a2325,
        ],
        [
            0x0000000000140000,
            0x0000000000140000,
            0x524f432fea722325,
            0x355a2ef3ca722325,
        ],
        [
            0x83dcc59d61083025,
            0x4993c59d61083025,
            0x896fc59d61083025,
            0xfff8c59d61083025,
        ],
        [
            0x6d7e28b97d054b25,
            0x6d7e28b97d054b25,
            0x6d7e28b97d054b25,
            0x6d7e28b97d054b25,
        ],
    ];
    for (k, want) in KernelKind::ALL.iter().zip(&scaled_want) {
        let got = tb.run_kernel(*k, 20).unwrap().results;
        assert_eq!(got.as_slice(), want, "{} at 1/20 scale", k.name());
    }
}
