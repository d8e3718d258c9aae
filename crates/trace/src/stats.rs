//! Min/max/average/standard-deviation summaries.

use fxnet_sim::SimTime;

/// Summary statistics over a sample, as the paper's tables report them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    pub min: f64,
    pub max: f64,
    pub avg: f64,
    /// Population standard deviation.
    pub sd: f64,
    pub count: usize,
}

/// Welford's online min/max/mean/variance accumulator.
///
/// This is the *single* arithmetic core behind every `Stats` in the
/// crate: the [`crate::TraceView`] kernels and the report fold push
/// their samples through it in the same order, so the two paths produce
/// bitwise-identical `f64` results.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Welford {
    n: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    pub(crate) fn new() -> Welford {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, v: f64) {
        self.n += 1;
        let d = v - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub(crate) fn finish(self) -> Option<Stats> {
        if self.n == 0 {
            return None;
        }
        Some(Stats {
            min: self.min,
            max: self.max,
            avg: self.mean,
            sd: (self.m2 / self.n as f64).max(0.0).sqrt(),
            count: self.n,
        })
    }
}

/// Interarrival statistics in milliseconds (Figures 4 and 9) over a
/// time-ordered stream of capture times; `None` before two frames.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interarrivals {
    prev: Option<u64>,
    gaps: Welford,
}

impl Interarrivals {
    pub(crate) fn new() -> Interarrivals {
        Interarrivals {
            prev: None,
            gaps: Welford::new(),
        }
    }

    /// Account one capture time. Panics if it precedes the previous one:
    /// the gap would be negative, and `u64` arithmetic would wrap it.
    #[inline]
    pub(crate) fn push(&mut self, time_ns: u64) {
        if let Some(p) = self.prev {
            assert!(
                time_ns >= p,
                "frames must be time-ordered ({time_ns} ns after {p} ns)"
            );
            self.gaps
                .push((SimTime::from_nanos(time_ns) - SimTime::from_nanos(p)).as_millis_f64());
        }
        self.prev = Some(time_ns);
    }

    pub(crate) fn finish(self) -> Option<Stats> {
        self.gaps.finish()
    }
}

impl Stats {
    /// Compute over an iterator of samples. Returns `None` when empty.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Option<Stats> {
        // Welford's online algorithm: numerically stable in one pass.
        let mut w = Welford::new();
        for v in values {
            w.push(v);
        }
        w.finish()
    }

    /// The max/avg ratio the paper uses as its burstiness indicator.
    pub fn burstiness(&self) -> f64 {
        if self.avg == 0.0 {
            f64::INFINITY
        } else {
            self.max / self.avg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceStore;
    use fxnet_sim::{Frame, FrameKind, FrameRecord, HostId};
    use proptest::prelude::*;

    fn rec(t_ms: u64, size: u32) -> FrameRecord {
        let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, size - 58, 0);
        FrameRecord::capture(SimTime::from_millis(t_ms), &f)
    }

    fn store(tr: &[FrameRecord]) -> TraceStore {
        TraceStore::from_records(tr)
    }

    #[test]
    fn known_values() {
        let s = Stats::of([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.avg, 5.0);
        assert_eq!(s.sd, 2.0);
        assert_eq!(s.count, 8);
    }

    #[test]
    fn empty_is_none() {
        assert!(Stats::of(std::iter::empty()).is_none());
    }

    #[test]
    fn packet_sizes_use_wire_length() {
        let tr = vec![rec(0, 58), rec(1, 1518)];
        let s = store(&tr).view().packet_sizes().unwrap();
        assert_eq!(s.min, 58.0);
        assert_eq!(s.max, 1518.0);
        assert_eq!(s.avg, 788.0);
    }

    #[test]
    fn interarrivals_in_ms() {
        let tr = vec![rec(0, 100), rec(10, 100), rec(40, 100)];
        let s = store(&tr).view().interarrivals_ms().unwrap();
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 30.0);
        assert_eq!(s.avg, 20.0);
        assert_eq!(s.count, 2);
    }

    #[test]
    fn interarrivals_need_two_packets() {
        assert!(store(&[rec(0, 100)]).view().interarrivals_ms().is_none());
        assert!(store(&[]).view().interarrivals_ms().is_none());
    }

    #[test]
    #[should_panic(expected = "frames must be time-ordered")]
    fn interarrivals_reject_an_unordered_view() {
        // Frames at 2, 1 and 3 ms: the 2 → 1 gap is negative, and an
        // optimised build would otherwise report it as ~1.8e13 ms.
        store(&[rec(2, 100), rec(1, 100), rec(3, 100)])
            .view()
            .interarrivals_ms();
    }

    #[test]
    fn burstiness_ratio() {
        let s = Stats::of([1.0, 1.0, 10.0]).unwrap();
        assert!((s.burstiness() - 10.0 / 4.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn sd_is_zero_for_constant_samples(v in -100.0f64..100.0, n in 1usize..50) {
            let s = Stats::of(std::iter::repeat_n(v, n)).unwrap();
            prop_assert!(s.sd < 1e-6);
            prop_assert_eq!(s.min, v);
            prop_assert_eq!(s.max, v);
        }

        #[test]
        fn min_le_avg_le_max(vals in prop::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Stats::of(vals.iter().copied()).unwrap();
            prop_assert!(s.min <= s.avg + 1e-9);
            prop_assert!(s.avg <= s.max + 1e-9);
            prop_assert!(s.sd >= 0.0);
        }
    }
}
