//! The flight recorder: a bounded ring of the most recent frames,
//! snapshotted into each emitted event so offline debugging sees the
//! traffic that led up to a violation without retaining the whole trace.

use fxnet_sim::FrameRecord;
use std::collections::VecDeque;

/// Fixed-capacity frame ring. `push` is O(1); `snapshot` copies the
/// current contents oldest-first.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    ring: VecDeque<FrameRecord>,
}

impl FlightRecorder {
    /// A recorder holding the last `cap` frames (zero holds none).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap,
            ring: VecDeque::with_capacity(cap + 1),
        }
    }

    /// Record one frame, evicting the oldest beyond capacity.
    pub fn push(&mut self, r: FrameRecord) {
        self.ring.push_back(r);
        if self.ring.len() > self.cap {
            self.ring.pop_front();
        }
    }

    /// The retained frames, oldest first.
    pub fn snapshot(&self) -> Vec<FrameRecord> {
        self.ring.iter().copied().collect()
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::{Frame, FrameKind, HostId, SimTime};

    fn rec(i: u64) -> FrameRecord {
        let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, 100, i);
        FrameRecord::capture(SimTime::from_micros(i), &f)
    }

    #[test]
    fn wraps_keeping_exactly_the_last_n() {
        let mut fr = FlightRecorder::new(4);
        for i in 0..10 {
            fr.push(rec(i));
        }
        let snap = fr.snapshot();
        assert_eq!(snap.len(), 4);
        let times: Vec<_> = snap.iter().map(|r| r.time).collect();
        assert_eq!(
            times,
            (6..10).map(SimTime::from_micros).collect::<Vec<_>>(),
            "ring must hold the last four frames, oldest first"
        );
    }

    #[test]
    fn partial_fill_returns_everything_in_order() {
        let mut fr = FlightRecorder::new(8);
        for i in 0..3 {
            fr.push(rec(i));
        }
        assert_eq!(fr.len(), 3);
        assert!(fr.snapshot().windows(2).all(|w| w[0].time < w[1].time));
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let mut fr = FlightRecorder::new(0);
        fr.push(rec(1));
        assert!(fr.is_empty());
        assert_eq!(fr.snapshot(), Vec::new());
    }
}
