//! Streaming (single-pass, O(1) amortized per frame) bandwidth state.
//!
//! The windowed bandwidth quantities have one implementation each,
//! here, and every consumer folds frames through it: the
//! [`crate::TraceView`] kernels, the report fold
//! ([`crate::StreamingReport`]) and the live observer in `fxnet-watch`,
//! which sees one frame at a time and may never hold the whole trace.
//! [`SlidingBandwidth`] is the 10 ms window sliding one packet at a time
//! (Figures 6 and 10); [`StreamBinner`] the static bins anchored at the
//! first frame that the spectra are computed from (§6.1). Window and bin
//! semantics live in exactly one place — there is no batch/streaming
//! edge-case drift to fix twice.

use fxnet_sim::SimTime;
use std::collections::VecDeque;

/// Incremental sliding-window bandwidth: the bytes received in
/// `(t − window, t]` divided by the full window length, updated one
/// frame at a time. Frames must arrive in non-decreasing time order.
///
/// The first frames of a trace are *not* special-cased: a window that
/// extends before the first packet simply contains fewer bytes and is
/// still divided by the full `window`, matching Figures 6 and 10 (and
/// the batch path, which delegates here).
#[derive(Debug, Clone)]
pub struct SlidingBandwidth {
    window: SimTime,
    w_secs: f64,
    ring: VecDeque<(SimTime, u32)>,
    bytes: u64,
}

impl SlidingBandwidth {
    /// A window of `window` simulated time. Panics if zero.
    pub fn new(window: SimTime) -> SlidingBandwidth {
        assert!(window.as_nanos() > 0, "window must be positive");
        SlidingBandwidth {
            window,
            w_secs: window.as_secs_f64(),
            ring: VecDeque::new(),
            bytes: 0,
        }
    }

    /// Account one frame of `wire_len` bytes at `time` and return the
    /// instantaneous bandwidth (bytes/second) of the window ending at
    /// `time`. Panics if `time` precedes the newest frame seen.
    pub fn push(&mut self, time: SimTime, wire_len: u32) -> f64 {
        if let Some(&(last, _)) = self.ring.back() {
            assert!(time >= last, "frames must arrive in time order");
        }
        self.ring.push_back((time, wire_len));
        self.bytes += u64::from(wire_len);
        // Evict frames at or before t − window: the window is (t − w, t].
        while let Some(&(t0, len)) = self.ring.front() {
            if t0 + self.window <= time {
                self.bytes -= u64::from(len);
                self.ring.pop_front();
            } else {
                break;
            }
        }
        self.bytes as f64 / self.w_secs
    }

    /// Frames currently inside the window.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no frame is inside the window.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

/// Incremental static binning: bins of `bin` simulated time anchored
/// at the first frame, bytes per bin divided by the bin length, closed
/// as frames pass them. This is the one binning rule: the report fold
/// and [`crate::TraceView::binned_bandwidth`] fold through it too.
#[derive(Debug, Clone)]
pub struct StreamBinner {
    bin_ns: u64,
    bin_s: f64,
    t0: Option<u64>,
    cur_idx: u64,
    cur_bytes: u64,
    pending: VecDeque<f64>,
}

impl StreamBinner {
    /// Bins of `bin` simulated time. Panics if zero.
    pub fn new(bin: SimTime) -> StreamBinner {
        assert!(bin.as_nanos() > 0, "bin must be positive");
        StreamBinner {
            bin_ns: bin.as_nanos(),
            bin_s: bin.as_secs_f64(),
            t0: None,
            cur_idx: 0,
            cur_bytes: 0,
            pending: VecDeque::new(),
        }
    }

    /// Account one frame. Bins strictly before the frame's bin close and
    /// become available from [`StreamBinner::pop_closed`]. Panics if the
    /// frame precedes the first frame or falls in an already closed bin.
    #[inline]
    pub fn push(&mut self, time: SimTime, wire_len: u32) {
        let t = time.as_nanos();
        let t0 = *self.t0.get_or_insert(t);
        assert!(t >= t0, "frames must arrive in time order");
        let idx = bin_index(t, t0, self.bin_ns);
        assert!(idx >= self.cur_idx, "frames must arrive in time order");
        while self.cur_idx < idx {
            self.pending.push_back(self.cur_bytes as f64 / self.bin_s);
            self.cur_bytes = 0;
            self.cur_idx += 1;
        }
        self.cur_bytes += u64::from(wire_len);
    }

    /// The next closed bin's bandwidth (bytes/second), oldest first.
    pub fn pop_closed(&mut self) -> Option<f64> {
        self.pending.pop_front()
    }

    /// Close the final (possibly partial) bin and return every bin not
    /// yet popped. The result appended to the already-popped bins equals
    /// [`crate::TraceView::binned_bandwidth`] on the same frames exactly.
    pub fn finish(mut self) -> Vec<f64> {
        if self.t0.is_some() {
            self.pending.push_back(self.cur_bytes as f64 / self.bin_s);
        }
        self.pending.into()
    }
}

/// Index of the `bin_ns`-long bin holding `t_ns` on a grid anchored at
/// `anchor_ns`; the caller guarantees `t_ns >= anchor_ns`.
#[inline]
pub(crate) fn bin_index(t_ns: u64, anchor_ns: u64, bin_ns: u64) -> u64 {
    (t_ns - anchor_ns) / bin_ns
}

/// A latched consecutive-breach detector: fires once when a condition
/// has held for `threshold` consecutive windows, then stays latched.
///
/// This is the shared breach rule of the live observers: the watcher
/// (`fxnet-watch`) latches a tenant's bandwidth violation with it, and
/// the fabric weather map (`fxnet-metrics`) latches hotspot links with
/// exactly the same semantics, so "flagged" means the same thing in
/// both reports.
#[derive(Debug, Clone, Default)]
pub struct StreakLatch {
    /// Consecutive over-threshold windows required to latch.
    threshold: usize,
    streak: usize,
    latched: bool,
}

impl StreakLatch {
    /// A latch that fires after `threshold` consecutive breaches.
    /// A zero threshold fires on the first observation, breach or not.
    pub fn new(threshold: usize) -> StreakLatch {
        StreakLatch {
            threshold,
            streak: 0,
            latched: false,
        }
    }

    /// Observe one window: `over` is whether the condition breached.
    /// Returns `true` exactly once — on the observation that completes
    /// the streak while not yet latched.
    pub fn update(&mut self, over: bool) -> bool {
        if over {
            self.streak += 1;
        } else {
            self.streak = 0;
        }
        if self.streak >= self.threshold && !self.latched {
            self.latched = true;
            return true;
        }
        false
    }

    /// Latch immediately (single-observation breach rules, e.g. the
    /// watcher's burst check). Returns `true` if this call latched.
    pub fn latch_now(&mut self) -> bool {
        let fired = !self.latched;
        self.latched = true;
        fired
    }

    /// Whether the latch has fired.
    pub fn latched(&self) -> bool {
        self.latched
    }

    /// Current consecutive-breach streak.
    pub fn streak(&self) -> usize {
        self.streak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStore;
    use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId};
    use proptest::prelude::*;

    fn rec(t_us: u64, size: u32) -> FrameRecord {
        let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, size - 58, 0);
        FrameRecord::capture(SimTime::from_micros(t_us), &f)
    }

    #[test]
    fn ring_matches_batch_on_a_regular_trace() {
        let tr: Vec<FrameRecord> = (0..50).map(|i| rec(i * 3_000, 500 + i as u32)).collect();
        let w = SimTime::from_millis(10);
        let batch = TraceStore::from_records(&tr)
            .view()
            .sliding_window_bandwidth(w);
        let mut ring = SlidingBandwidth::new(w);
        for (r, (bt, bv)) in tr.iter().zip(batch) {
            let v = ring.push(r.time, r.wire_len);
            assert_eq!(r.time, bt);
            assert_eq!(v, bv, "exact agreement, not approximate");
        }
    }

    #[test]
    fn trace_shorter_than_one_window_never_evicts() {
        // Regression (satellite): every frame fits in one window, so the
        // series is the cumulative byte count over the full window — no
        // partial-window renormalization at either edge.
        let tr = vec![rec(0, 1000), rec(2_000, 1000), rec(4_000, 1000)];
        let w = SimTime::from_millis(10);
        let batch = TraceStore::from_records(&tr)
            .view()
            .sliding_window_bandwidth(w);
        assert_eq!(batch[0].1, 100_000.0);
        assert_eq!(batch[1].1, 200_000.0);
        assert_eq!(batch[2].1, 300_000.0);
        let mut ring = SlidingBandwidth::new(w);
        for (r, (_, bv)) in tr.iter().zip(&batch) {
            assert_eq!(ring.push(r.time, r.wire_len), *bv);
        }
        assert_eq!(ring.len(), 3, "nothing evicted");
    }

    #[test]
    fn single_frame_window() {
        let mut ring = SlidingBandwidth::new(SimTime::from_millis(10));
        assert!(ring.is_empty());
        let v = ring.push(SimTime::from_secs(5), 1518);
        assert_eq!(v, 151_800.0);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn binner_matches_batch_with_gaps() {
        // Frames spanning empty bins: the binner must emit the zeros.
        let tr = vec![
            rec(0, 100),
            rec(3_000, 100),
            rec(25_000, 100),
            rec(47_000, 200),
        ];
        let bin = SimTime::from_millis(10);
        let batch = TraceStore::from_records(&tr).view().binned_bandwidth(bin);
        let mut b = StreamBinner::new(bin);
        let mut got = Vec::new();
        for r in &tr {
            b.push(r.time, r.wire_len);
            while let Some(v) = b.pop_closed() {
                got.push(v);
            }
        }
        got.extend(b.finish());
        assert_eq!(got, batch);
    }

    #[test]
    fn streak_latch_fires_once_after_k_consecutive_breaches() {
        let mut l = StreakLatch::new(3);
        assert!(!l.update(true));
        assert!(!l.update(true));
        assert!(!l.update(false), "streak resets");
        assert_eq!(l.streak(), 0);
        assert!(!l.update(true));
        assert!(!l.update(true));
        assert!(l.update(true), "third consecutive breach fires");
        assert!(l.latched());
        assert!(!l.update(true), "already latched: never fires again");
        assert!(!l.latch_now());
        let mut direct = StreakLatch::new(5);
        assert!(direct.latch_now(), "direct latch fires once");
        assert!(!direct.update(true));
    }

    #[test]
    fn binner_empty_stream() {
        let b = StreamBinner::new(SimTime::from_millis(10));
        assert_eq!(b.finish(), Vec::<f64>::new());
        assert!(TraceStore::default()
            .view()
            .binned_bandwidth(SimTime::from_millis(10))
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "frames must arrive in time order")]
    fn binner_rejects_a_frame_before_the_first() {
        // Without the check, `time - t0` wraps in optimised builds and
        // the bin loop allocates until the process aborts.
        let mut b = StreamBinner::new(SimTime::from_millis(10));
        b.push(SimTime::from_micros(1_000), 100);
        b.push(SimTime::from_micros(500), 100);
    }

    #[test]
    #[should_panic(expected = "frames must arrive in time order")]
    fn binner_rejects_a_frame_in_a_closed_bin() {
        let mut b = StreamBinner::new(SimTime::from_millis(10));
        b.push(SimTime::from_millis(1), 100);
        b.push(SimTime::from_millis(25), 100);
        b.push(SimTime::from_millis(5), 100);
    }

    proptest! {
        /// The streaming ring and binner agree with the batch functions
        /// exactly (bitwise) on arbitrary sorted traces.
        #[test]
        fn stream_equals_batch(
            times in prop::collection::vec(0u64..2_000_000u64, 1..300),
            sizes in prop::collection::vec(58u32..1518, 1..300),
        ) {
            let mut ts = times;
            ts.sort_unstable();
            let tr: Vec<FrameRecord> = ts
                .iter()
                .zip(sizes.iter().cycle())
                .map(|(&t, &s)| rec(t, s))
                .collect();
            let w = SimTime::from_millis(10);
            let store = TraceStore::from_records(&tr);
            let batch = store.view().sliding_window_bandwidth(w);
            let mut ring = SlidingBandwidth::new(w);
            for (r, (_, bv)) in tr.iter().zip(&batch) {
                prop_assert_eq!(ring.push(r.time, r.wire_len), *bv);
            }
            let bbatch = store.view().binned_bandwidth(w);
            let mut binner = StreamBinner::new(w);
            let mut got = Vec::new();
            for r in &tr {
                binner.push(r.time, r.wire_len);
                while let Some(v) = binner.pop_closed() {
                    got.push(v);
                }
            }
            got.extend(binner.finish());
            prop_assert_eq!(got, bbatch);
        }
    }
}
