//! Passive per-link sample windows — the raw feed of the fabric weather
//! map (`fxnet-metrics`).
//!
//! A [`LinkProbe`] rides next to a link's existing accounting and folds
//! every completed transmission into the [`LINK_WINDOW_NS`] window the
//! completion lands in. That width is the one window the paper reads
//! every network quantity through (§6.1) and the only one anything
//! downstream reports, so it is a constant rather than an argument: a
//! sample cannot be taken at one width and read at another. Sampling is
//! strictly read-only with respect to the simulation: it draws no random
//! numbers, schedules no events, and never touches frame timing, so a
//! sampled run produces a byte-identical trace to an unsampled one.
//! Windows are kept sparse — only windows that saw traffic exist — in a
//! sorted map, so export order is deterministic and idle links cost
//! nothing.

use crate::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Width of every link sample window, ns: 10 ms, the paper's
/// measurement window. Window `w` covers `[w·10 ms, (w+1)·10 ms)`.
pub const LINK_WINDOW_NS: u64 = 10_000_000;

/// Label of the one link of the paper's shared bus (`LinkKind::SharedBus`)
/// in a [`LinkStats`]. A compiled topology names each segment
/// `seg:{node}` instead. Whatever reports the bus's series and whatever
/// charges retransmits to it must both use this name: a retransmit
/// charged to a label no series carries is dropped without a trace.
pub const BUS_LINK: &str = "seg:bus";

/// One sample window of one link (direction): everything the weather map
/// gauges need, folded additively (`depth_max` by max).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LinkWindow {
    /// Wire bytes whose transmission completed in this window.
    pub bytes: u64,
    /// Frames whose transmission completed in this window.
    pub frames: u64,
    /// Wire occupancy contributed by those frames, ns.
    pub busy_ns: u64,
    /// Queueing (waiting for the link/medium) those frames accumulated, ns.
    pub wait_ns: u64,
    /// CSMA/CD backoff those frames accumulated, ns (segments only).
    pub backoff_ns: u64,
    /// Collision events observed in this window (segments only).
    pub collisions: u64,
    /// Wire bytes of retransmitted frames (attributed post-run from the
    /// causal capture; always 0 in the live sampler).
    pub retx_bytes: u64,
    /// High-water queue depth observed in this window (frames).
    pub depth_max: u32,
}

impl LinkWindow {
    /// Fold another window into this one: counters add, the high-water
    /// depth takes the max. Repeated ingestion of one link merges its
    /// windows by this rule.
    pub fn fold(&mut self, o: &LinkWindow) {
        self.bytes += o.bytes;
        self.frames += o.frames;
        self.busy_ns += o.busy_ns;
        self.wait_ns += o.wait_ns;
        self.backoff_ns += o.backoff_ns;
        self.collisions += o.collisions;
        self.retx_bytes += o.retx_bytes;
        self.depth_max = self.depth_max.max(o.depth_max);
    }

    /// Utilization fraction: wire occupancy over the window's
    /// [`LINK_WINDOW_NS`]. Can exceed 1.0 when several completions
    /// charged to one window carry occupancy that straddled its edges.
    pub fn utilization(&self) -> f64 {
        self.busy_ns as f64 / LINK_WINDOW_NS as f64
    }
}

/// Sparse window series of one link (direction): window index → stats,
/// sorted, only touched windows present.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkSeries {
    bins: BTreeMap<u64, LinkWindow>,
}

impl LinkSeries {
    /// An empty series.
    pub fn new() -> LinkSeries {
        LinkSeries::default()
    }

    /// The (created-on-first-touch) window at index `w`.
    pub fn window_mut(&mut self, w: u64) -> &mut LinkWindow {
        self.bins.entry(w).or_default()
    }

    /// The (created-on-first-touch) window instant `t` falls in.
    pub fn window_at(&mut self, t: SimTime) -> &mut LinkWindow {
        self.window_mut(t.as_nanos() / LINK_WINDOW_NS)
    }

    /// Fold every window of `other` into the window of the same index.
    pub fn merge(&mut self, other: &LinkSeries) {
        for (w, win) in other.windows() {
            self.window_mut(w).fold(win);
        }
    }

    /// The window at index `w`, if touched.
    pub fn get(&self, w: u64) -> Option<&LinkWindow> {
        self.bins.get(&w)
    }

    /// Sorted iteration over the touched windows.
    pub fn windows(&self) -> impl DoubleEndedIterator<Item = (u64, &LinkWindow)> {
        self.bins.iter().map(|(&w, s)| (w, s))
    }

    /// Number of touched windows.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether no window was ever touched.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Exact fold of every touched window.
    pub fn total(&self) -> LinkWindow {
        let mut t = LinkWindow::default();
        for s in self.bins.values() {
            t.fold(s);
        }
        t
    }
}

/// A sampler for one link (direction) whose occupancy is modeled as a
/// free-time scalar (switch/router ports, trunks): completed
/// transmissions are charged to the window their completion lands in,
/// and the queue depth is reconstructed from the in-flight completion
/// times.
#[derive(Debug, Clone, Default)]
pub struct LinkProbe {
    series: LinkSeries,
    /// Completion instants of transmissions not yet finished at the last
    /// observation — the link's queue, oldest first.
    pending: VecDeque<SimTime>,
}

impl LinkProbe {
    /// An empty probe.
    pub fn new() -> LinkProbe {
        LinkProbe::default()
    }

    /// Record one transmission: requested at `now`, occupying the link
    /// until `done`, `wire` bytes over `tx_ns` of wire time after
    /// `wait_ns` of queueing.
    pub fn record(&mut self, now: SimTime, done: SimTime, wire: u64, tx_ns: u64, wait_ns: u64) {
        while self.pending.front().is_some_and(|&d| d <= now) {
            self.pending.pop_front();
        }
        self.pending.push_back(done);
        let depth = self.pending.len() as u32;
        let w = self.series.window_at(done);
        w.bytes += wire;
        w.frames += 1;
        w.busy_ns += tx_ns;
        w.wait_ns += wait_ns;
        w.depth_max = w.depth_max.max(depth);
    }

    /// Take the accumulated series, resetting the probe.
    pub fn take(&mut self) -> LinkSeries {
        self.pending.clear();
        std::mem::take(&mut self.series)
    }
}

/// The complete per-link sample set of one run: every sampled link's
/// series, labeled (`trunk:n0-n1:fwd`, `seg:seg0`, `host:h3:up`, ...),
/// in a fixed deterministic order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// `(label, series)` per sampled link direction.
    pub links: Vec<(String, LinkSeries)>,
}

impl LinkStats {
    /// The series labeled `label`, if sampled.
    pub fn series(&self, label: &str) -> Option<&LinkSeries> {
        self.links.iter().find(|(l, _)| l == label).map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_sparse_and_sorted() {
        let mut s = LinkSeries::new();
        s.window_mut(7).bytes += 10;
        s.window_mut(2).bytes += 5;
        s.window_mut(7).frames += 1;
        let got: Vec<(u64, u64)> = s.windows().map(|(w, v)| (w, v.bytes)).collect();
        assert_eq!(got, vec![(2, 5), (7, 10)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total().bytes, 15);
        assert_eq!(s.total().frames, 1);
    }

    #[test]
    fn fold_adds_counters_and_maxes_depth() {
        let mut a = LinkWindow {
            bytes: 1,
            frames: 1,
            busy_ns: 10,
            wait_ns: 3,
            backoff_ns: 2,
            collisions: 1,
            retx_bytes: 0,
            depth_max: 4,
        };
        let b = LinkWindow {
            bytes: 2,
            frames: 1,
            busy_ns: 5,
            wait_ns: 0,
            backoff_ns: 0,
            collisions: 0,
            retx_bytes: 7,
            depth_max: 2,
        };
        a.fold(&b);
        assert_eq!(a.bytes, 3);
        assert_eq!(a.busy_ns, 15);
        assert_eq!(a.retx_bytes, 7);
        assert_eq!(a.depth_max, 4);
    }

    #[test]
    fn probe_reconstructs_queue_depth() {
        let mut p = LinkProbe::new();
        let ms = |n: u64| SimTime::from_millis(n);
        // Three back-to-back transmissions requested at t=0: queue
        // builds to 3, all inside window 0.
        p.record(ms(0), ms(1), 100, 1_000_000, 0);
        p.record(ms(0), ms(2), 100, 1_000_000, 1_000_000);
        p.record(ms(0), ms(3), 100, 1_000_000, 2_000_000);
        // A later one after the queue drained: depth back to 1, in
        // window 1 (10–20 ms).
        p.record(ms(10), ms(11), 100, 1_000_000, 0);
        // One that completes exactly on a window edge opens window 2.
        p.record(ms(19), ms(20), 100, 1_000_000, 0);
        let s = p.take();
        let depths: Vec<(u64, u32)> = s.windows().map(|(w, win)| (w, win.depth_max)).collect();
        assert_eq!(depths, vec![(0, 3), (1, 1), (2, 1)]);
        assert_eq!(s.total().bytes, 500);
    }

    #[test]
    fn utilization_is_busy_over_window() {
        let w = LinkWindow {
            busy_ns: 8_000_000,
            ..LinkWindow::default()
        };
        assert!((w.utilization() - 0.8).abs() < 1e-12);
        assert_eq!(LinkWindow::default().utilization(), 0.0);
    }
}
