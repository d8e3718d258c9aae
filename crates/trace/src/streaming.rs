//! The report kernel: one fold over `(time_ns, wire_len)` samples in
//! capture order.
//!
//! [`StreamingReport`] is the only implementation of [`TraceReport`]:
//! it accepts whole chunks from a [`crate::ChunkCursor`], a
//! [`TraceView`] (which is how [`TraceReport::analyze_view`] runs — a
//! materialized store is one chunk), or single frames. Each quantity is
//! folded through the same accumulator the [`TraceView`] kernel of that
//! name uses: Welford size and interarrival statistics, the lifetime
//! byte/span totals, the [`BurstSegmenter`], and the [`StreamBinner`]
//! that feeds the periodogram. The fold is sequential and keeps no
//! per-chunk state, so how the samples were cut into pushes cannot
//! change a bit of the result; `tests/columnar_equiv.rs` holds it,
//! `to_bits` field by field, to record-wise reference code.
//!
//! Peak state is O(output), not O(trace): the accumulator holds the
//! running scalars, one `f64` per bandwidth bin, and one entry per
//! detected burst. No per-frame data survives the push.

use crate::bandwidth::Lifetime;
use crate::bursts::{Burst, BurstProfile, BurstSegmenter};
use crate::report::{ReportOptions, TraceReport};
use crate::spectrum::Periodogram;
use crate::stats::{Interarrivals, Welford};
use crate::store::TraceView;
use crate::stream::{SlidingBandwidth, StreamBinner};
use fxnet_sim::SimTime;

/// The report fold; see the module docs.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    label: String,
    opts: ReportOptions,
    n: usize,
    sizes: Welford,
    inter: Interarrivals,
    life: Lifetime,
    segmenter: BurstSegmenter,
    bursts: Vec<Burst>,
    binner: StreamBinner,
}

impl StreamingReport {
    /// Start an empty fold for a trace labelled `label`.
    pub fn new(label: impl Into<String>, opts: &ReportOptions) -> StreamingReport {
        StreamingReport {
            label: label.into(),
            opts: opts.clone(),
            n: 0,
            sizes: Welford::new(),
            inter: Interarrivals::new(),
            life: Lifetime::new(),
            segmenter: BurstSegmenter::new(opts.burst_gap),
            bursts: Vec::new(),
            binner: StreamBinner::new(opts.bin),
        }
    }

    /// Frames folded so far.
    pub fn frames(&self) -> usize {
        self.n
    }

    /// Fold one frame. Frames must arrive in non-decreasing time order
    /// (the capture invariant every simulator trace satisfies); a frame
    /// earlier than its predecessor panics.
    pub fn push(&mut self, time_ns: u64, wire_len: u32) {
        self.inter.push(time_ns);
        self.sizes.push(f64::from(wire_len));
        self.life.push(time_ns, wire_len);
        let time = SimTime::from_nanos(time_ns);
        if let Some(b) = self.segmenter.push(time, wire_len) {
            self.bursts.push(b);
        }
        self.binner.push(time, wire_len);
        self.n += 1;
    }

    /// Fold one decoded chunk of columns.
    pub fn push_chunk(&mut self, time_ns: &[u64], wire_len: &[u32]) {
        assert_eq!(time_ns.len(), wire_len.len());
        for (&t, &len) in time_ns.iter().zip(wire_len) {
            self.push(t, len);
        }
    }

    /// Fold every frame of `view`, in view order, as one chunk.
    pub fn push_view(&mut self, view: TraceView<'_>) {
        for (t, len) in view.samples() {
            self.push(t, len);
        }
    }

    /// Finish the fold, returning the report together with what it was
    /// derived from: the `opts.bin`-binned bandwidth series (bytes/second
    /// per bin, identical to `view.binned_bandwidth(opts.bin)` on the
    /// same frames) and its periodogram (`None` for an empty trace) — so
    /// spectral consumers need neither a second pass nor a second FFT.
    pub fn finish_parts(mut self) -> (TraceReport, Vec<f64>, Option<Periodogram>) {
        self.bursts.extend(self.segmenter.finish());
        let series = self.binner.finish();
        let spec = (self.n != 0).then(|| Periodogram::compute(&series, self.opts.bin));
        let (dominant_hz, flatness) = match &spec {
            None => (None, None),
            Some(spec) => (
                spec.dominant_frequency(self.opts.min_hz),
                Some(spec.flatness()),
            ),
        };
        let report = TraceReport {
            label: self.label,
            frames: self.n,
            span_s: self
                .life
                .bounds()
                .map_or(0.0, |(first, last)| (last - first).as_secs_f64()),
            sizes: self.sizes.finish(),
            interarrivals_ms: self.inter.finish(),
            avg_bandwidth: self.life.average(),
            bursts: BurstProfile::of_bursts(self.bursts),
            dominant_hz,
            flatness,
        };
        (report, series, spec)
    }

    /// Finish the fold, returning just the report.
    pub fn finish(self) -> TraceReport {
        self.finish_parts().0
    }
}

/// Running peak of the sliding-window bandwidth: the O(window) fold of
/// the quantity [`TraceView::sliding_window_bandwidth`] materializes as
/// a full per-packet vector. It pushes the frames through the same
/// [`SlidingBandwidth`] ring, so the peak agrees bitwise with the
/// maximum of that vector.
#[derive(Debug, Clone)]
pub struct SlidingPeak {
    ring: SlidingBandwidth,
    peak: f64,
    n: usize,
}

impl SlidingPeak {
    pub fn new(window: SimTime) -> SlidingPeak {
        SlidingPeak {
            ring: SlidingBandwidth::new(window),
            peak: f64::NEG_INFINITY,
            n: 0,
        }
    }

    /// Fold one frame; returns the instantaneous window bandwidth.
    pub fn push(&mut self, time: SimTime, wire_len: u32) -> f64 {
        let bw = self.ring.push(time, wire_len);
        self.peak = self.peak.max(bw);
        self.n += 1;
        bw
    }

    /// Highest window bandwidth seen, `None` before any frame.
    pub fn peak(&self) -> Option<f64> {
        (self.n > 0).then_some(self.peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::{assert_reports_bitwise_equal, view_oracle};
    use crate::TraceStore;
    use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId, Proto};
    use proptest::prelude::*;

    fn burst_trace(n: usize) -> Vec<FrameRecord> {
        let mut t_us = 0u64;
        (0..n)
            .map(|i| {
                t_us += if i % 20 == 0 { 400_000 } else { 900 };
                FrameRecord::capture(
                    SimTime::from_micros(t_us),
                    &Frame::tcp(
                        HostId((i % 4) as u32),
                        HostId(((i + 1) % 4) as u32),
                        if i % 3 == 0 {
                            FrameKind::Ack
                        } else {
                            FrameKind::Data
                        },
                        if i % 3 == 0 { 0 } else { 1460 },
                        i as u64,
                    ),
                )
            })
            .collect()
    }

    /// Fold `tr` cut at `bounds` (ascending, covering `0..=tr.len()`)
    /// and hold report, series and spectrum to the multi-pass view
    /// oracle.
    fn assert_chunking_matches_oracle(tr: &[FrameRecord], bounds: &[usize]) {
        let opts = ReportOptions::default();
        let mut s = StreamingReport::new("t", &opts);
        for w in bounds.windows(2) {
            let slice = &tr[w[0]..w[1]];
            let t: Vec<u64> = slice.iter().map(|r| r.time.as_nanos()).collect();
            let wl: Vec<u32> = slice.iter().map(|r| r.wire_len).collect();
            s.push_chunk(&t, &wl);
        }
        assert_eq!(s.frames(), tr.len());
        let (streamed, series, spec) = s.finish_parts();
        let store = TraceStore::from_records(tr);
        assert_reports_bitwise_equal(&streamed, &view_oracle("t", store.view(), &opts));
        let want = store.view().binned_bandwidth(opts.bin);
        assert_eq!(
            series.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(spec.is_some(), !tr.is_empty());
        if let Some(spec) = spec {
            assert_eq!(
                spec.total_power().to_bits(),
                Periodogram::compute(&want, opts.bin)
                    .total_power()
                    .to_bits()
            );
        }
    }

    #[test]
    fn streamed_report_matches_materialized_exactly() {
        let tr = burst_trace(500);
        for chunk in [1usize, 7, 100, 500, 1000] {
            let mut bounds: Vec<usize> = (0..tr.len()).step_by(chunk).collect();
            bounds.push(tr.len());
            assert_chunking_matches_oracle(&tr, &bounds);
        }
    }

    #[test]
    fn empty_stream_matches_empty_view() {
        assert_chunking_matches_oracle(&[], &[0]);
        assert_chunking_matches_oracle(&[], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_frames_are_rejected() {
        let mut s = StreamingReport::new("x", &ReportOptions::default());
        s.push(1_000_000, 100);
        s.push(999_999, 100);
    }

    #[test]
    fn sliding_peak_matches_materialized_max() {
        let tr = burst_trace(400);
        let window = SimTime::from_millis(10);
        let mut peak = SlidingPeak::new(window);
        assert_eq!(peak.peak(), None);
        for r in &tr {
            peak.push(r.time, r.wire_len);
        }
        let full = TraceStore::from_records(&tr)
            .view()
            .sliding_window_bandwidth(window);
        let want = full.iter().fold(f64::NEG_INFINITY, |m, &(_, v)| m.max(v));
        assert_eq!(peak.peak().unwrap().to_bits(), want.to_bits());
    }

    proptest! {
        /// Any chunking — 1-frame chunks, one whole-trace chunk, anything
        /// between — folds to the exact bits of the multi-pass oracle.
        #[test]
        fn any_chunking_is_bitwise_identical(
            times in prop::collection::vec(0u64..5_000_000_000u64, 0..120),
            sizes in prop::collection::vec(58u32..1519, 1..120),
            cuts in prop::collection::vec(0usize..120, 0..12),
        ) {
            let mut ts = times;
            ts.sort_unstable();
            let tr: Vec<FrameRecord> = ts
                .iter()
                .zip(sizes.iter().cycle())
                .map(|(&t, &sz)| FrameRecord {
                    time: SimTime::from_nanos(t),
                    wire_len: sz,
                    proto: if t % 2 == 0 { Proto::Tcp } else { Proto::Udp },
                    kind: FrameKind::Data,
                    src: HostId((t % 5) as u32),
                    dst: HostId((t % 3) as u32),
                })
                .collect();
            let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (tr.len() + 1)).collect();
            bounds.push(0);
            bounds.push(tr.len());
            bounds.sort_unstable();
            bounds.dedup();
            assert_chunking_matches_oracle(&tr, &bounds);
        }
    }
}
