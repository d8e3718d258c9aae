//! Columnar-vs-slice equivalence: every analysis kernel must produce
//! identical results on a [`TraceStore`] view and on the
//! `&[FrameRecord]` slice kernels — bitwise for the `f64` outputs, since
//! both share one arithmetic core. Covers unsorted and single-frame
//! traces, and the round trip through the on-disk container.
//!
//! This file also holds the oracles of the two paths that have a single
//! implementation in `src/`: the report fold ([`StreamingReport`], which
//! is all [`TraceReport::analyze_view`] is) against the multi-pass report
//! composed from the slice kernels, and [`demux_store`] against the
//! attribution rule written out over records.

use fxnet_sim::{FrameKind, FrameRecord, HostId, Proto, SimTime};
use fxnet_trace::{
    average_bandwidth, binned_bandwidth, connection, demux_store, detect_bursts, dominant_modes,
    host_pairs, load_store, markdown_table_views, save_store, size_population,
    sliding_window_bandwidth, BurstProfile, Periodogram, ReportOptions, Stats, StreamingReport,
    TraceReport, TraceStore,
};
use proptest::prelude::*;

const BIN: SimTime = SimTime::from_millis(10);
const GAP: SimTime = SimTime::from_millis(5);

/// Build a trace from raw (time_us, size, src, dst) tuples; proto and
/// kind cycle through every combination.
fn trace_from(parts: &[(u64, u32, u32, u32)]) -> Vec<FrameRecord> {
    parts
        .iter()
        .enumerate()
        .map(|(i, &(t, sz, s, d))| FrameRecord {
            time: SimTime::from_micros(t),
            wire_len: sz,
            proto: if i % 2 == 0 { Proto::Tcp } else { Proto::Udp },
            kind: match i % 4 {
                0 => FrameKind::Data,
                1 => FrameKind::Ack,
                2 => FrameKind::Syn,
                _ => FrameKind::Datagram,
            },
            src: HostId(s),
            dst: HostId(d),
        })
        .collect()
}

fn stats_bits(s: Option<Stats>) -> Option<(u64, u64, u64, u64, usize)> {
    s.map(|s| {
        (
            s.min.to_bits(),
            s.max.to_bits(),
            s.avg.to_bits(),
            s.sd.to_bits(),
            s.count,
        )
    })
}

/// The report the slow way: one pass over the records per quantity,
/// through the public slice kernels only. It shares the fold's
/// arithmetic cores but none of its loop, so agreement says the fold
/// interleaves them correctly.
fn multipass_report(label: &str, tr: &[FrameRecord], opts: &ReportOptions) -> TraceReport {
    let spec =
        (!tr.is_empty()).then(|| Periodogram::compute(&binned_bandwidth(tr, opts.bin), opts.bin));
    TraceReport {
        label: label.to_string(),
        frames: tr.len(),
        span_s: match (tr.first(), tr.last()) {
            (Some(a), Some(b)) => (b.time - a.time).as_secs_f64(),
            _ => 0.0,
        },
        sizes: Stats::packet_sizes(tr),
        interarrivals_ms: Stats::interarrivals_ms(tr),
        avg_bandwidth: average_bandwidth(tr),
        bursts: BurstProfile::of(tr, opts.burst_gap),
        dominant_hz: spec
            .as_ref()
            .and_then(|s| s.dominant_frequency(opts.min_hz)),
        flatness: spec.as_ref().map(Periodogram::flatness),
    }
}

fn profile_bits(p: &Option<BurstProfile>) -> Option<impl PartialEq + std::fmt::Debug> {
    p.as_ref()
        .map(|p| (p.count, stats_bits(Some(p.sizes)), stats_bits(p.intervals)))
}

/// Field by field, `to_bits` on every float.
fn assert_reports_bitwise_equal(got: &TraceReport, want: &TraceReport) {
    assert_eq!(got.label, want.label);
    assert_eq!(got.frames, want.frames);
    assert_eq!(got.span_s.to_bits(), want.span_s.to_bits());
    assert_eq!(stats_bits(got.sizes), stats_bits(want.sizes));
    assert_eq!(
        stats_bits(got.interarrivals_ms),
        stats_bits(want.interarrivals_ms)
    );
    assert_eq!(
        got.avg_bandwidth.map(f64::to_bits),
        want.avg_bandwidth.map(f64::to_bits)
    );
    assert_eq!(profile_bits(&got.bursts), profile_bits(&want.bursts));
    assert_eq!(
        got.dominant_hz.map(f64::to_bits),
        want.dominant_hz.map(f64::to_bits)
    );
    assert_eq!(
        got.flatness.map(f64::to_bits),
        want.flatness.map(f64::to_bits)
    );
    assert_eq!(got.markdown_row(), want.markdown_row());
}

/// Hold the fold to the multi-pass oracle on a time-ordered trace: as
/// one chunk (`analyze_view`), cut at `cuts` into pushed chunks, and on
/// every connection sub-view against the copied-out connection.
fn assert_fold_matches_multipass(tr: &[FrameRecord], cuts: &[usize]) {
    let opts = ReportOptions::default();
    let store = TraceStore::from_records(tr);
    let want = multipass_report("t", tr, &opts);
    assert_reports_bitwise_equal(&TraceReport::analyze_view("t", store.view(), &opts), &want);
    assert_eq!(
        markdown_table_views([("t", store.view())], &opts),
        format!(
            "{}\n{}",
            TraceReport::markdown_header(),
            want.markdown_row()
        )
    );

    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (tr.len() + 1)).collect();
    bounds.extend([0, tr.len()]);
    bounds.sort_unstable();
    bounds.dedup();
    let mut fold = StreamingReport::new("t", &opts);
    for w in bounds.windows(2) {
        let chunk = &tr[w[0]..w[1]];
        let t: Vec<u64> = chunk.iter().map(|r| r.time.as_nanos()).collect();
        let len: Vec<u32> = chunk.iter().map(|r| r.wire_len).collect();
        fold.push_chunk(&t, &len);
    }
    let (got, series, spec) = fold.finish_parts();
    assert_reports_bitwise_equal(&got, &want);
    let want_series = binned_bandwidth(tr, opts.bin);
    assert_eq!(
        series.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        want_series.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    );
    assert_eq!(
        spec.map(|s| s.total_power().to_bits()),
        (!tr.is_empty()).then(|| Periodogram::compute(&want_series, opts.bin)
            .total_power()
            .to_bits())
    );

    for ((s, d), _) in store.host_pairs() {
        assert_reports_bitwise_equal(
            &TraceReport::analyze_view("c", store.connection(s, d), &opts),
            &multipass_report("c", &connection(tr, s, d), &opts),
        );
    }
}

/// The tenant attribution rule over records — the reference
/// [`demux_store`] is held to: a frame belongs to tenant `t` iff `t`
/// owns both its ends, and to the background otherwise; every bucket
/// keeps capture order.
fn reference_demux(
    tr: &[FrameRecord],
    map: &fxnet_pvm::TenantMap,
) -> (Vec<Vec<FrameRecord>>, Vec<FrameRecord>) {
    let mut per_tenant = vec![Vec::new(); map.len()];
    let mut background = Vec::new();
    for r in tr {
        match (map.owner_of_host(r.src), map.owner_of_host(r.dst)) {
            (Some(a), Some(b)) if a == b => per_tenant[a].push(*r),
            _ => background.push(*r),
        }
    }
    (per_tenant, background)
}

/// Assert every kernel agrees between the slice path and the columnar
/// view, bit for bit. `sorted` gates the kernels that assume capture
/// order (sliding window's ring and the report fold assert monotone
/// time).
fn assert_kernels_agree(tr: &[FrameRecord], sorted: bool) {
    let store = TraceStore::from_records(tr);
    let v = store.view();

    assert_eq!(store.to_records(), tr, "record round trip");
    assert_eq!(
        stats_bits(v.packet_sizes()),
        stats_bits(Stats::packet_sizes(tr))
    );
    assert_eq!(
        v.average_bandwidth().map(f64::to_bits),
        average_bandwidth(tr).map(f64::to_bits)
    );
    let (vb, lb) = (v.binned_bandwidth(BIN), binned_bandwidth(tr, BIN));
    assert_eq!(
        vb.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        lb.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "binned series"
    );
    // The spectrum input series being identical makes the periodogram
    // identical; spot-check the total power anyway.
    if !vb.is_empty() {
        assert_eq!(
            Periodogram::compute(&vb, BIN).total_power().to_bits(),
            Periodogram::compute(&lb, BIN).total_power().to_bits()
        );
    }
    assert_eq!(v.detect_bursts(GAP), detect_bursts(tr, GAP));
    if sorted {
        // Burst intervals subtract consecutive start times, which (like
        // the legacy path) assumes capture order.
        let (vp, lp) = (v.burst_profile(GAP), BurstProfile::of(tr, GAP));
        assert_eq!(
            vp.as_ref().map(|p| (stats_bits(Some(p.sizes)), p.count)),
            lp.as_ref().map(|p| (stats_bits(Some(p.sizes)), p.count))
        );
    }
    assert_eq!(v.size_population(), size_population(tr));
    assert_eq!(v.dominant_modes(0.1), dominant_modes(tr, 0.1));
    assert_eq!(v.host_pairs(), host_pairs(tr));
    assert_eq!(store.host_pairs(), host_pairs(tr));
    for &((s, d), n) in &store.host_pairs() {
        let legacy = connection(tr, s, d);
        let view = store.connection(s, d);
        assert_eq!(view.len(), n);
        assert_eq!(view.to_records(), legacy);
        assert_eq!(
            stats_bits(view.packet_sizes()),
            stats_bits(Stats::packet_sizes(&legacy))
        );
    }
    if sorted {
        assert_eq!(
            stats_bits(v.interarrivals_ms()),
            stats_bits(Stats::interarrivals_ms(tr))
        );
        assert_eq!(
            v.sliding_window_bandwidth(BIN),
            sliding_window_bandwidth(tr, BIN)
        );
        assert_fold_matches_multipass(tr, &[1, tr.len() / 2]);
    }
}

#[test]
fn single_frame_trace_agrees() {
    assert_kernels_agree(&trace_from(&[(5, 1518, 0, 1)]), true);
}

#[test]
fn empty_trace_agrees() {
    assert_kernels_agree(&[], true);
}

#[test]
fn two_identical_timestamps_agree() {
    assert_kernels_agree(&trace_from(&[(7, 100, 0, 1), (7, 200, 1, 0)]), true);
}

#[test]
fn deterministic_unsorted_trace_agrees() {
    assert_kernels_agree(
        &trace_from(&[
            (900, 1518, 0, 1),
            (100, 58, 1, 0),
            (500, 700, 0, 1),
            (100, 1518, 2, 3),
            (0, 58, 0, 1),
        ]),
        false,
    );
}

#[test]
fn demux_agrees_with_legacy_on_interleaved_tenants() {
    let map = fxnet_pvm::TenantMap::pack([("A".to_string(), 2), ("B".to_string(), 2)]);
    let mut parts = Vec::new();
    for i in 0..60u64 {
        parts.push((4 * i, 1518, 0, 1));
        parts.push((4 * i + 1, 700, 2, 3));
        parts.push((4 * i + 2, 58, 1, 0));
        parts.push((4 * i + 3, 58, 4, 0)); // cross-boundary: background
    }
    let tr = trace_from(&parts);
    let store = TraceStore::from_records(&tr);
    let (per_tenant, background) = reference_demux(&tr, &map);
    let cols = demux_store(&store, &map);
    assert_eq!(cols.check_conservation(), tr.len());
    for (i, want) in per_tenant.iter().enumerate() {
        assert_eq!(&cols.tenant(i).to_records(), want);
        assert_eq!(
            stats_bits(cols.tenant(i).packet_sizes()),
            stats_bits(Stats::packet_sizes(want))
        );
    }
    assert_eq!(cols.background_view().to_records(), background);
}

proptest! {
    #[test]
    fn kernels_agree_on_arbitrary_sorted_traces(
        times in prop::collection::vec(0u64..2_000_000u64, 1..150),
        sizes in prop::collection::vec(58u32..1519, 1..150),
        hosts in prop::collection::vec((0u32..6, 0u32..6), 1..150),
    ) {
        let mut ts = times;
        ts.sort_unstable();
        let parts: Vec<(u64, u32, u32, u32)> = ts
            .iter()
            .zip(sizes.iter().cycle())
            .zip(hosts.iter().cycle())
            .map(|((&t, &sz), &(s, d))| (t, sz, s, d))
            .collect();
        assert_kernels_agree(&trace_from(&parts), true);
    }

    #[test]
    fn kernels_agree_on_arbitrary_unsorted_traces(
        times in prop::collection::vec(0u64..2_000_000u64, 1..150),
        sizes in prop::collection::vec(58u32..1519, 1..150),
        hosts in prop::collection::vec((0u32..6, 0u32..6), 1..150),
    ) {
        let parts: Vec<(u64, u32, u32, u32)> = times
            .iter()
            .zip(sizes.iter().cycle())
            .zip(hosts.iter().cycle())
            .map(|((&t, &sz), &(s, d))| (t, sz, s, d))
            .collect();
        assert_kernels_agree(&trace_from(&parts), false);
    }

    #[test]
    fn demux_store_agrees_on_arbitrary_traces(
        times in prop::collection::vec(0u64..1_000_000u64, 1..120),
        hosts in prop::collection::vec((0u32..8, 0u32..8), 1..120),
    ) {
        let map = fxnet_pvm::TenantMap::pack([("A".to_string(), 3), ("B".to_string(), 3)]);
        let parts: Vec<(u64, u32, u32, u32)> = times
            .iter()
            .zip(hosts.iter().cycle())
            .map(|(&t, &(s, d))| (t, 400, s, d))
            .collect();
        let tr = trace_from(&parts);
        let store = TraceStore::from_records(&tr);
        let (per_tenant, background) = reference_demux(&tr, &map);
        let cols = demux_store(&store, &map);
        prop_assert_eq!(cols.check_conservation(), tr.len());
        prop_assert_eq!(cols.tenants(), per_tenant.len());
        for (i, want) in per_tenant.iter().enumerate() {
            prop_assert_eq!(&cols.tenant(i).to_records(), want);
        }
        prop_assert_eq!(cols.background_view().to_records(), background);
    }

    #[test]
    fn report_fold_matches_multipass_on_any_chunking(
        times in prop::collection::vec(0u64..5_000_000u64, 0..150),
        sizes in prop::collection::vec(58u32..1519, 1..150),
        hosts in prop::collection::vec((0u32..4, 0u32..4), 1..150),
        cuts in prop::collection::vec(0usize..150, 0..12),
    ) {
        let mut ts = times;
        ts.sort_unstable();
        let parts: Vec<(u64, u32, u32, u32)> = ts
            .iter()
            .zip(sizes.iter().cycle())
            .zip(hosts.iter().cycle())
            .map(|((&t, &sz), &(s, d))| (t, sz, s, d))
            .collect();
        assert_fold_matches_multipass(&trace_from(&parts), &cuts);
    }

    #[test]
    fn binary_text_round_trip_agrees(
        times in prop::collection::vec(0u64..u64::MAX / 2, 1..80),
        sizes in prop::collection::vec(58u32..1519, 1..80),
        hosts in prop::collection::vec((0u32..16, 0u32..16), 1..80),
    ) {
        let parts: Vec<(u64, u32, u32, u32)> = times
            .iter()
            .zip(sizes.iter().cycle())
            .zip(hosts.iter().cycle())
            .map(|((&t, &sz), &(s, d))| (t / 1000, sz, s, d))
            .collect();
        let tr = trace_from(&parts);
        let store = TraceStore::from_records(&tr);
        let bin = std::env::temp_dir().join("fxnet-columnar-equiv-round-trip.fxb");
        save_store(&bin, &store).unwrap();
        let from_bin = load_store(&bin).unwrap();
        let _ = std::fs::remove_file(&bin);
        prop_assert_eq!(&from_bin, &store);
        prop_assert_eq!(from_bin.to_records(), tr);
    }
}
