//! Burst detection and the constant-burst-size analysis.
//!
//! Two of the paper's five headline traffic properties are burst-level:
//! *constant burst sizes* (the data exchanged per communication phase is
//! fixed by the program, unlike a media stream's variable frames) and
//! *periodic burstiness*. This module segments a trace into bursts —
//! maximal packet runs separated by quiet gaps — and summarizes their
//! sizes and spacing.

use crate::stats::Stats;
use fxnet_sim::SimTime;

/// One detected burst.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Burst {
    /// Time of the first packet.
    pub start: SimTime,
    /// Time of the last packet.
    pub end: SimTime,
    /// Total bytes carried.
    pub bytes: u64,
    /// Packets in the burst.
    pub packets: usize,
}

impl Burst {
    /// Burst length in seconds (the paper's `t_b`).
    pub fn duration(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }
}

/// The one burst rule, incremental: a frame no more than `gap` after
/// the open burst's last frame joins it; otherwise it closes that burst
/// and opens the next. [`crate::TraceView::detect_bursts`], the report
/// fold and `fxnet-qos`'s traffic estimator all fold through it.
///
/// Frames are expected in capture order; one earlier than the open
/// burst's end (an unsorted view) joins that burst.
#[derive(Debug, Clone)]
pub struct BurstSegmenter {
    gap: SimTime,
    open: Option<Burst>,
}

impl BurstSegmenter {
    /// Split bursts at quiet gaps longer than `gap`.
    pub fn new(gap: SimTime) -> BurstSegmenter {
        BurstSegmenter { gap, open: None }
    }

    /// Account one frame; returns the burst it closed, if any.
    #[inline]
    pub fn push(&mut self, time: SimTime, wire_len: u32) -> Option<Burst> {
        if let Some(b) = &mut self.open {
            if time.saturating_sub(b.end) <= self.gap {
                b.end = time;
                b.bytes += u64::from(wire_len);
                b.packets += 1;
                return None;
            }
        }
        self.open.replace(Burst {
            start: time,
            end: time,
            bytes: u64::from(wire_len),
            packets: 1,
        })
    }

    /// Close the open burst at end of stream, if there is one.
    pub fn finish(&mut self) -> Option<Burst> {
        self.open.take()
    }
}

/// Burst-level summary of a trace.
#[derive(Debug, Clone)]
pub struct BurstProfile {
    /// Byte-size statistics over bursts.
    pub sizes: Stats,
    /// Burst-interval statistics (start-to-start, seconds) — the paper's
    /// `t_bi`.
    pub intervals: Option<Stats>,
    /// Number of bursts.
    pub count: usize,
}

impl BurstProfile {
    /// Profile a detected burst list, in time order; `None` if it is
    /// empty. [`crate::TraceView::burst_profile`] and the report fold
    /// both summarize here.
    pub fn of_bursts(bursts: Vec<Burst>) -> Option<BurstProfile> {
        let sizes = Stats::of(bursts.iter().map(|b| b.bytes as f64))?;
        let intervals = if bursts.len() >= 2 {
            Stats::of(
                bursts
                    .windows(2)
                    .map(|w| (w[1].start - w[0].start).as_secs_f64()),
            )
        } else {
            None
        };
        Some(BurstProfile {
            sizes,
            intervals,
            count: bursts.len(),
        })
    }

    /// Coefficient of variation of burst sizes: ≈0 for the paper's
    /// constant-burst-size programs, large for variable-bit-rate media.
    pub fn size_cv(&self) -> f64 {
        if self.sizes.avg == 0.0 {
            0.0
        } else {
            self.sizes.sd / self.sizes.avg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStore;
    use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId};

    fn detect_bursts(tr: &[FrameRecord], gap: SimTime) -> Vec<Burst> {
        TraceStore::from_records(tr).view().detect_bursts(gap)
    }

    fn profile(tr: &[FrameRecord], gap: SimTime) -> Option<BurstProfile> {
        TraceStore::from_records(tr).view().burst_profile(gap)
    }

    fn rec(t_us: u64, size: u32) -> FrameRecord {
        let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, size - 58, 0);
        FrameRecord::capture(SimTime::from_micros(t_us), &f)
    }

    /// Three bursts of 4 packets each, 100 ms apart.
    fn regular_trace() -> Vec<FrameRecord> {
        let mut tr = Vec::new();
        for b in 0..3u64 {
            for i in 0..4u64 {
                tr.push(rec(b * 100_000 + i * 500, 1000));
            }
        }
        tr
    }

    #[test]
    fn detects_gap_separated_bursts() {
        let bursts = detect_bursts(&regular_trace(), SimTime::from_millis(10));
        assert_eq!(bursts.len(), 3);
        for b in &bursts {
            assert_eq!(b.packets, 4);
            assert_eq!(b.bytes, 4000);
            assert!((b.duration() - 0.0015).abs() < 1e-9);
        }
    }

    #[test]
    fn whole_trace_is_one_burst_with_huge_gap() {
        let bursts = detect_bursts(&regular_trace(), SimTime::from_secs(1));
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].packets, 12);
    }

    #[test]
    fn constant_burst_sizes_have_zero_cv() {
        let p = profile(&regular_trace(), SimTime::from_millis(10)).unwrap();
        assert_eq!(p.count, 3);
        assert!(p.size_cv() < 1e-9);
        let iv = p.intervals.unwrap();
        assert!((iv.avg - 0.1).abs() < 1e-9, "interval {:?}", iv.avg);
        assert!(iv.sd < 1e-9);
    }

    #[test]
    fn variable_bursts_have_high_cv() {
        let mut tr = Vec::new();
        let mut t = 0u64;
        for (i, n) in [1u64, 10, 2, 20, 3].iter().enumerate() {
            for j in 0..*n {
                tr.push(rec(t + j * 500, 1000));
            }
            t += 100_000 * (i as u64 + 1);
        }
        let p = profile(&tr, SimTime::from_millis(10)).unwrap();
        assert_eq!(p.count, 5);
        assert!(p.size_cv() > 0.5, "cv {}", p.size_cv());
    }

    #[test]
    fn empty_trace_is_none() {
        assert!(profile(&[], SimTime::from_millis(10)).is_none());
    }

    #[test]
    fn single_packet_trace() {
        let p = profile(&[rec(0, 500)], SimTime::from_millis(10)).unwrap();
        assert_eq!(p.count, 1);
        assert!(p.intervals.is_none());
    }
}
