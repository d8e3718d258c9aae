//! Independent oracles: every [`TraceView`] kernel and the report fold
//! ([`StreamingReport`], which is all [`TraceReport::analyze_view`] is)
//! are held, `to_bits` on every float, to record-wise reference code
//! written out below. The references walk a `&[FrameRecord]` the
//! obvious way, one function per quantity, and call nothing of the
//! crate under test but its output types and [`Periodogram`] (the
//! spectrum of a series, not a trace quantity). Covers sorted, unsorted,
//! empty, single-frame and equal-timestamp traces, any chunking of the
//! fold, and the round trip through the on-disk container.
//!
//! [`demux_store`] is held the same way to the attribution rule written
//! out over records.

use fxnet_sim::{FrameKind, FrameRecord, HostId, Proto, SimTime};
use fxnet_trace::{
    demux_store, load_store, markdown_table_views, save_store_chunked, Burst, BurstProfile,
    Periodogram, ReportOptions, Stats, StreamingReport, TraceReport, TraceStore,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

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

// ---- Record-wise reference code -------------------------------------

/// Min/max/mean/population sd by Welford's recurrence, the method the
/// crate documents for every `Stats`; `None` for no samples.
fn ref_stats(values: impl IntoIterator<Item = f64>) -> Option<Stats> {
    let (mut n, mut mean, mut m2) = (0usize, 0.0f64, 0.0f64);
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        n += 1;
        let d = v - mean;
        mean += d / n as f64;
        m2 += d * (v - mean);
        min = min.min(v);
        max = max.max(v);
    }
    (n > 0).then(|| Stats {
        min,
        max,
        avg: mean,
        sd: (m2 / n as f64).max(0.0).sqrt(),
        count: n,
    })
}

/// Packet sizes in bytes (Figures 3 and 8).
fn ref_packet_sizes(tr: &[FrameRecord]) -> Option<Stats> {
    ref_stats(tr.iter().map(|r| f64::from(r.wire_len)))
}

/// Gaps between consecutive captures in milliseconds (Figures 4 and 9).
fn ref_interarrivals_ms(tr: &[FrameRecord]) -> Option<Stats> {
    ref_stats(
        tr.windows(2)
            .map(|w| (w[1].time.as_nanos() - w[0].time.as_nanos()) as f64 / 1e6),
    )
}

/// Bytes over the span from the earliest to the latest capture
/// (Figure 5); `None` for a zero span.
fn ref_average_bandwidth(tr: &[FrameRecord]) -> Option<f64> {
    let lo = tr.iter().map(|r| r.time).min()?;
    let hi = tr.iter().map(|r| r.time).max()?;
    let bytes: u64 = tr.iter().map(|r| u64::from(r.wire_len)).sum();
    let span = (hi - lo).as_secs_f64();
    (span > 0.0).then(|| bytes as f64 / span)
}

/// Bytes per `bin`-long interval from the earliest capture, over the
/// bin length (§6.1).
fn ref_binned_bandwidth(tr: &[FrameRecord], bin: SimTime) -> Vec<f64> {
    let Some(lo) = tr.iter().map(|r| r.time.as_nanos()).min() else {
        return Vec::new();
    };
    let hi = tr.iter().map(|r| r.time.as_nanos()).max().unwrap();
    let bin_ns = bin.as_nanos();
    let mut bytes = vec![0u64; ((hi - lo) / bin_ns + 1) as usize];
    for r in tr {
        bytes[((r.time.as_nanos() - lo) / bin_ns) as usize] += u64::from(r.wire_len);
    }
    bytes
        .into_iter()
        .map(|b| b as f64 / bin.as_secs_f64())
        .collect()
}

/// At each capture `t`, the bytes captured so far in `(t − window, t]`
/// over the window length (Figures 6 and 10).
fn ref_sliding_window_bandwidth(tr: &[FrameRecord], window: SimTime) -> Vec<(SimTime, f64)> {
    (0..tr.len())
        .map(|i| {
            let t = tr[i].time;
            let bytes: u64 = tr[..=i]
                .iter()
                .filter(|r| r.time + window > t)
                .map(|r| u64::from(r.wire_len))
                .sum();
            (t, bytes as f64 / window.as_secs_f64())
        })
        .collect()
}

/// Bursts: a frame no more than `gap` after the open burst's last frame
/// (a frame earlier than it counts as no gap at all) joins the burst.
fn ref_bursts(tr: &[FrameRecord], gap: SimTime) -> Vec<Burst> {
    let mut out: Vec<Burst> = Vec::new();
    for r in tr {
        match out.last_mut() {
            Some(b) if r.time.as_nanos().saturating_sub(b.end.as_nanos()) <= gap.as_nanos() => {
                b.end = r.time;
                b.bytes += u64::from(r.wire_len);
                b.packets += 1;
            }
            _ => out.push(Burst {
                start: r.time,
                end: r.time,
                bytes: u64::from(r.wire_len),
                packets: 1,
            }),
        }
    }
    out
}

/// Burst sizes and start-to-start intervals.
fn ref_burst_profile(tr: &[FrameRecord], gap: SimTime) -> Option<BurstProfile> {
    let bursts = ref_bursts(tr, gap);
    Some(BurstProfile {
        sizes: ref_stats(bursts.iter().map(|b| b.bytes as f64))?,
        intervals: ref_stats(
            bursts
                .windows(2)
                .map(|w| (w[1].start - w[0].start).as_secs_f64()),
        ),
        count: bursts.len(),
    })
}

/// `(wire size, frames)`, ascending by size.
fn ref_size_population(tr: &[FrameRecord]) -> Vec<(u32, usize)> {
    let mut m: BTreeMap<u32, usize> = BTreeMap::new();
    for r in tr {
        *m.entry(r.wire_len).or_insert(0) += 1;
    }
    m.into_iter().collect()
}

/// `(src, dst)` pairs with frame counts, ascending.
fn ref_host_pairs(tr: &[FrameRecord]) -> Vec<((HostId, HostId), usize)> {
    let mut m: BTreeMap<(HostId, HostId), usize> = BTreeMap::new();
    for r in tr {
        *m.entry((r.src, r.dst)).or_insert(0) += 1;
    }
    m.into_iter().collect()
}

/// The paper's connection: every frame from `src` to `dst`, copied out.
fn ref_connection(tr: &[FrameRecord], src: HostId, dst: HostId) -> Vec<FrameRecord> {
    tr.iter()
        .filter(|r| r.src == src && r.dst == dst)
        .copied()
        .collect()
}

/// The report the slow way: one reference pass over the records per
/// quantity.
fn multipass_report(label: &str, tr: &[FrameRecord], opts: &ReportOptions) -> TraceReport {
    let spec = (!tr.is_empty())
        .then(|| Periodogram::compute(&ref_binned_bandwidth(tr, opts.bin), opts.bin));
    TraceReport {
        label: label.to_string(),
        frames: tr.len(),
        span_s: match (tr.first(), tr.last()) {
            (Some(a), Some(b)) => (b.time - a.time).as_secs_f64(),
            _ => 0.0,
        },
        sizes: ref_packet_sizes(tr),
        interarrivals_ms: ref_interarrivals_ms(tr),
        avg_bandwidth: ref_average_bandwidth(tr),
        bursts: ref_burst_profile(tr, opts.burst_gap),
        dominant_hz: spec
            .as_ref()
            .and_then(|s| s.dominant_frequency(opts.min_hz)),
        flatness: spec.as_ref().map(Periodogram::flatness),
    }
}

// ---- Comparisons ----------------------------------------------------

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

fn series_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
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

/// Hold the fold to the multi-pass reference on a time-ordered trace:
/// as one chunk (`analyze_view`), cut at `cuts` into pushed chunks, and
/// on every connection sub-view against the copied-out connection.
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
    let want_series = ref_binned_bandwidth(tr, opts.bin);
    assert_eq!(series_bits(&series), series_bits(&want_series));
    assert_eq!(
        spec.map(|s| s.total_power().to_bits()),
        (!tr.is_empty()).then(|| Periodogram::compute(&want_series, opts.bin)
            .total_power()
            .to_bits())
    );

    for ((s, d), _) in store.host_pairs() {
        assert_reports_bitwise_equal(
            &TraceReport::analyze_view("c", store.connection(s, d), &opts),
            &multipass_report("c", &ref_connection(tr, s, d), &opts),
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

/// Assert every view kernel agrees with its reference, bit for bit.
/// `sorted` gates the kernels that require capture order (the
/// interarrival gaps, the sliding window's ring and the report fold
/// panic on time travel) and the burst intervals, which subtract
/// consecutive starts.
fn assert_kernels_agree(tr: &[FrameRecord], sorted: bool) {
    let store = TraceStore::from_records(tr);
    let v = store.view();

    assert_eq!(store.to_records(), tr, "record round trip");
    assert_eq!(
        stats_bits(v.packet_sizes()),
        stats_bits(ref_packet_sizes(tr))
    );
    assert_eq!(
        v.average_bandwidth().map(f64::to_bits),
        ref_average_bandwidth(tr).map(f64::to_bits)
    );
    assert_eq!(
        v.time_bounds(),
        tr.iter()
            .map(|r| r.time)
            .min()
            .zip(tr.iter().map(|r| r.time).max())
    );
    let (vb, rb) = (v.binned_bandwidth(BIN), ref_binned_bandwidth(tr, BIN));
    assert_eq!(series_bits(&vb), series_bits(&rb), "binned series");
    assert_eq!(v.detect_bursts(GAP), ref_bursts(tr, GAP));
    if sorted {
        assert_eq!(
            profile_bits(&v.burst_profile(GAP)),
            profile_bits(&ref_burst_profile(tr, GAP))
        );
    }
    assert_eq!(v.size_population(), ref_size_population(tr));
    assert_eq!(v.host_pairs(), ref_host_pairs(tr));
    assert_eq!(store.host_pairs(), ref_host_pairs(tr));
    for &((s, d), n) in &store.host_pairs() {
        let copied = ref_connection(tr, s, d);
        let view = store.connection(s, d);
        assert_eq!(view.len(), n);
        assert_eq!(view.to_records(), copied);
        assert_eq!(
            stats_bits(view.packet_sizes()),
            stats_bits(ref_packet_sizes(&copied))
        );
        assert_eq!(
            series_bits(&view.binned_bandwidth(BIN)),
            series_bits(&ref_binned_bandwidth(&copied, BIN))
        );
    }
    if sorted {
        assert_eq!(
            stats_bits(v.interarrivals_ms()),
            stats_bits(ref_interarrivals_ms(tr))
        );
        let (vs, rs) = (
            v.sliding_window_bandwidth(BIN),
            ref_sliding_window_bandwidth(tr, BIN),
        );
        assert_eq!(
            vs.iter()
                .map(|&(t, x)| (t, x.to_bits()))
                .collect::<Vec<_>>(),
            rs.iter()
                .map(|&(t, x)| (t, x.to_bits()))
                .collect::<Vec<_>>()
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
fn gaps_of_exactly_the_burst_gap_and_one_nanosecond_more_agree() {
    // Spacings of `GAP` (merge) and `GAP + 1 ns` (split), on and off
    // the `BIN` grid.
    let mut t = 0u64;
    let mut parts = Vec::new();
    for i in 0..12u64 {
        parts.push((t, 100 + i as u32, (i % 2) as u32, 1 - (i % 2) as u32));
        t += GAP.as_nanos() + (i % 3 == 1) as u64;
    }
    let tr: Vec<FrameRecord> = trace_from(&parts)
        .into_iter()
        .zip(&parts)
        .map(|(r, &(ns, ..))| FrameRecord {
            time: SimTime::from_nanos(ns),
            ..r
        })
        .collect();
    assert_eq!(ref_bursts(&tr, GAP).len(), 5);
    assert_kernels_agree(&tr, true);
}

#[test]
fn frames_on_bin_and_window_edges_agree() {
    // One nanosecond either side of each `BIN` edge past the first
    // frame, and pairs exactly one window apart (the earlier one leaves
    // the sliding window).
    let t0 = 3_000_000u64;
    let bin = BIN.as_nanos();
    let mut times = vec![t0];
    for k in 1..6u64 {
        times.extend([t0 + k * bin - 1, t0 + k * bin, t0 + k * bin + 1]);
    }
    let tr: Vec<FrameRecord> = times
        .iter()
        .enumerate()
        .map(|(i, &ns)| FrameRecord {
            time: SimTime::from_nanos(ns),
            wire_len: 60 + 7 * i as u32,
            proto: Proto::Tcp,
            kind: FrameKind::Data,
            src: HostId(0),
            dst: HostId(1 + (i % 2) as u32),
        })
        .collect();
    assert_kernels_agree(&tr, true);
    let mut shuffled = tr.clone();
    shuffled.reverse();
    assert_kernels_agree(&shuffled, false);
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
            stats_bits(ref_packet_sizes(want))
        );
    }
    assert_eq!(store.select(&cols.background).to_records(), background);
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
        prop_assert_eq!(store.select(&cols.background).to_records(), background);
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
        save_store_chunked(&bin, &store, fxnet_trace::io::SAVE_CHUNK_FRAMES).unwrap();
        let from_bin = load_store(&bin).unwrap();
        let _ = std::fs::remove_file(&bin);
        prop_assert_eq!(&from_bin, &store);
        prop_assert_eq!(from_bin.to_records(), tr);
    }
}
