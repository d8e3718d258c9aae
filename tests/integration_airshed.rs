//! AIRSHED end-to-end: the three-timescale traffic structure of §6.2
//! (Figures 10–11) at a reduced hour count.

use fxnet::apps::airshed::AirshedParams;
use fxnet::trace::{Periodogram, TraceStore};
use fxnet::{RunResult, SimTime, TestbedBuilder};
use std::sync::OnceLock;

fn run() -> &'static RunResult<u64> {
    static RUN: OnceLock<RunResult<u64>> = OnceLock::new();
    RUN.get_or_init(|| {
        let params = AirshedParams {
            hours: 4,
            ..AirshedParams::paper()
        };
        TestbedBuilder::paper()
            .seed(1998)
            .build()
            .run_airshed(params)
            .unwrap()
    })
}

/// The run's frames as one columnar store, built once.
fn store() -> &'static TraceStore {
    static STORE: OnceLock<TraceStore> = OnceLock::new();
    STORE.get_or_init(|| TraceStore::from_records(&run().trace))
}

const BIN: SimTime = SimTime(10_000_000);

#[test]
fn hour_length_is_near_66_seconds() {
    let per_hour = run().finished_at.as_secs_f64() / 4.0;
    assert!(
        (50.0..=80.0).contains(&per_hour),
        "simulated hour took {per_hour:.1} s vs paper's ≈66 s"
    );
}

#[test]
fn packet_population_matches_figure_8_shape() {
    let s = store().view().packet_sizes().expect("traffic");
    assert_eq!(s.min, 58.0);
    assert_eq!(s.max, 1518.0);
    // Bulk transposes → large average with a big ACK population.
    assert!(s.avg > 500.0 && s.avg < 1200.0, "avg {:.0}", s.avg);
}

#[test]
fn interarrivals_are_extremely_bursty() {
    // Figure 9: max and average interarrival an order of magnitude above
    // the kernels'; max/avg ratio very high (long preprocess silences).
    let s = store().view().interarrivals_ms().expect("traffic");
    assert!(s.max > 10_000.0, "max interarrival {:.0} ms", s.max);
    assert!(s.burstiness() > 100.0, "max/avg {:.0}", s.burstiness());
}

#[test]
fn average_bandwidth_is_low_despite_big_bursts() {
    // §6.2: 32.7 KB/s aggregate — far below the line rate because of the
    // long quiet preprocessing phases. Accept the band 10–200 KB/s.
    let bw = store().view().average_bandwidth().expect("traffic") / 1000.0;
    assert!((10.0..=200.0).contains(&bw), "aggregate {bw:.1} KB/s");
}

#[test]
fn bursts_come_in_k_pairs_per_hour() {
    // Figure 10: each hour shows 5 pairs of transpose peaks. Count burst
    // onsets (quiet → busy transitions) in the binned series.
    let series = store().view().binned_bandwidth(BIN);
    let threshold = 50_000.0;
    let mut bursts = 0;
    let mut in_burst = false;
    // Hysteresis: a burst ends only after 200 ms of quiet, so the gap
    // inside one transpose's ACK dialogue doesn't split it.
    let mut quiet_run = 0;
    for &v in &series {
        if v > threshold {
            if !in_burst {
                bursts += 1;
                in_burst = true;
            }
            quiet_run = 0;
        } else if in_burst {
            quiet_run += 1;
            if quiet_run > 20 {
                in_burst = false;
            }
        }
    }
    // 4 hours × 5 steps × 2 transposes = 40 expected; adjacent pairs may
    // merge when the transport gap is short, so accept 20..=60.
    assert!(
        (20..=60).contains(&bursts),
        "expected ~40 transpose bursts, counted {bursts}"
    );
}

#[test]
fn spectrum_shows_three_timescales() {
    // Figure 11: peaks near 0.015 Hz (hour), 0.2 Hz (chemistry step) and
    // ~5 Hz (transport) — each band's peak must stand out within it.
    let series = store().view().binned_bandwidth(BIN);
    let spec = Periodogram::compute(&series, BIN);
    let band_peak = |lo: f64, hi: f64| -> (f64, f64) {
        let mut best = (lo, 0.0);
        for i in 1..spec.power.len() {
            let f = spec.freq(i);
            if f >= lo && f < hi && spec.power[i] > best.1 {
                best = (f, spec.power[i]);
            }
        }
        best
    };
    let (f_hour, p_hour) = band_peak(0.008, 0.05);
    let (f_step, p_step) = band_peak(0.08, 0.8);
    let (_f_fast, p_fast) = band_peak(1.0, 20.0);
    assert!(
        (0.010..=0.022).contains(&f_hour),
        "hour peak at {f_hour:.4} Hz vs paper ≈0.015 Hz"
    );
    assert!(
        (0.1..=0.4).contains(&f_step),
        "step peak at {f_step:.3} Hz vs paper ≈0.2 Hz"
    );
    assert!(p_hour > 0.0 && p_step > 0.0 && p_fast > 0.0);
    // The hour-scale component carries the most energy (Figure 11's
    // dominant low-frequency spike).
    assert!(p_hour > p_fast, "hour {p_hour:.2e} vs fast {p_fast:.2e}");
}

#[test]
fn connection_traffic_mirrors_aggregate_population() {
    // §6.2: "the packet size distribution for the single connection is
    // very similar to the aggregate packet distribution".
    let s_all = store().view().packet_sizes().unwrap();
    let s_conn = store()
        .connection(fxnet::HostId(0), fxnet::HostId(1))
        .packet_sizes()
        .unwrap();
    assert_eq!(s_conn.min, s_all.min);
    assert_eq!(s_conn.max, s_all.max);
    assert!(
        (s_conn.avg - s_all.avg).abs() < 0.25 * s_all.avg,
        "conn avg {:.0} vs aggregate {:.0}",
        s_conn.avg,
        s_all.avg
    );
}

#[test]
fn rank_checksums_are_pinned() {
    // The per-rank `results` as `Lu::factor`/`solve` produced them before
    // either was tuned, at `tiny()` and at the 5 hours `benchmark/`
    // digests at 1/20 scale: a change that moves one low bit of a
    // factorization or a backsolve fails here.
    let tb = TestbedBuilder::paper().seed(1998).build();
    let tiny = tb.run_airshed(AirshedParams::tiny()).unwrap().results;
    assert_eq!(
        tiny,
        [
            0x76f384cd7f659551,
            0x652b225d94d245e1,
            0x7dc3f9b5210290be,
            0x8239baca1efbd2dc
        ],
        "tiny()"
    );
    let scaled = AirshedParams {
        hours: 5,
        ..AirshedParams::paper()
    };
    let scaled = tb.run_airshed(scaled).unwrap().results;
    assert_eq!(
        scaled,
        [
            0x0813bf9bedef46cf,
            0xf443a3fa1d39623e,
            0x9f791e4e0dd83204,
            0xd9b1971582f2fd5e
        ],
        "1/20 scale"
    );
}
