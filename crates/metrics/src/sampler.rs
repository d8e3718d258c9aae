//! The fabric sampler: glue between a run and the weather map.
//!
//! [`FabricSampler`] consumes the three passive observation channels a
//! run offers and never touches the simulation itself:
//!
//! * a [`fxnet_sim::FrameTap`] ([`FabricSampler::tap`]) counting every
//!   delivered frame into the matrix ladder's [`ScalingAccum`] and the
//!   set of host pairs — the tap runs outside the MAC state machine, so
//!   attaching it cannot perturb timing, RNG draws, or the captured
//!   trace;
//! * the per-link sample series ([`FabricSampler::ingest_links`]) the
//!   engine collects when `RunOptions::sample_links` is set, folded
//!   into one map of [`WINDOW_NS`] windows per link direction;
//! * the causal capture ([`FabricSampler::ingest_causal`]), used purely
//!   *post-run* to attribute retransmitted wire bytes to the link
//!   windows they crossed.
//!
//! [`FabricSampler::finalize`] folds everything into a
//! [`WeatherReport`]: link windows, scaling relations, and the topology
//! rollup with latched hotspots.

use crate::matrix::{ScalingAccum, ScalingRelation};
use crate::rollup::{rollup, FabricRollup, HotspotConfig, WINDOW_NS};
use fxnet_sim::{CausalEvent, FrameTap, LinkStats, LinkWindow};
use fxnet_topo::TopologySpec;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Base sample window, ns: 1 ms. The paper's traffic features live
/// between 1 ms bursts and 1 s heartbeat periods.
pub(crate) const BIN_NS: u64 = 1_000_000;

/// The matrix ladder, multiples of [`BIN_NS`]: 1 ms → 10 ms → 100 ms →
/// 1 s.
pub(crate) const SCALES: [u64; 4] = [1, 10, 100, 1000];

/// Base windows folded into one link window.
const PER_WINDOW: u64 = WINDOW_NS / BIN_NS;

/// The finished weather map of one run.
#[derive(Debug, Clone)]
pub struct WeatherReport {
    /// Per link direction, in sampler order: its touched [`WINDOW_NS`]
    /// windows by index, each the exact fold of the base windows it
    /// covers.
    pub links: Vec<(String, BTreeMap<u64, LinkWindow>)>,
    /// Distinct `(src, dst)` pairs that carried a frame.
    pub pairs: usize,
    /// Per-scale scaling-relation summaries of the matrix ladder.
    pub scaling: Vec<ScalingRelation>,
    /// Link → node → fabric rollup with latched hotspots.
    pub rollup: FabricRollup,
}

impl WeatherReport {
    /// The hotspot flagged for `link` (direction-stripped), if any.
    pub fn hotspot(&self, link: &str) -> Option<&crate::rollup::Hotspot> {
        self.rollup.hotspots.iter().find(|h| h.link == link)
    }
}

/// What the frame tap counts.
struct TapState {
    ladder: ScalingAccum,
    pairs: BTreeSet<(u32, u32)>,
}

impl TapState {
    fn new() -> TapState {
        TapState {
            ladder: ScalingAccum::new(BIN_NS, &SCALES),
            pairs: BTreeSet::new(),
        }
    }
}

/// Accumulates one run's passive observations into a weather report.
pub struct FabricSampler {
    hotspot: HotspotConfig,
    tapped: Arc<Mutex<TapState>>,
    links: Vec<(String, BTreeMap<u64, LinkWindow>)>,
}

impl FabricSampler {
    /// A sampler with the default hotspot detection.
    pub fn new() -> FabricSampler {
        FabricSampler::with_hotspot(HotspotConfig::default())
    }

    /// A sampler flagging hotspots by `hotspot`.
    pub fn with_hotspot(hotspot: HotspotConfig) -> FabricSampler {
        FabricSampler {
            hotspot,
            tapped: Arc::new(Mutex::new(TapState::new())),
            links: Vec::new(),
        }
    }

    /// The base sample window, ns — pass this as
    /// `RunOptions::sample_links` so link windows and matrices share
    /// bins.
    pub fn bin_ns(&self) -> u64 {
        BIN_NS
    }

    /// A frame tap feeding the matrix ladder. Frames must reach it in
    /// time order, as one run captures them; [`ScalingAccum`] panics on
    /// one that goes back in time. Detaching (dropping) a tap is always
    /// safe — the report just sees fewer frames.
    pub fn tap(&self) -> FrameTap {
        let shared = Arc::clone(&self.tapped);
        Box::new(move |r| {
            let mut tapped = shared.lock();
            tapped.ladder.record(r.time.as_nanos(), r.src.0, r.dst.0);
            tapped.pairs.insert((r.src.0, r.dst.0));
        })
    }

    /// Fold a run's per-link sample series into the link windows: base
    /// window `w` lands in window `w / 10`. Labels keep the engine's
    /// deterministic order; repeated ingestion folds.
    pub fn ingest_links(&mut self, stats: &LinkStats) {
        for (label, series) in &stats.links {
            let i = match self.links.iter().position(|(l, _)| l == label) {
                Some(i) => i,
                None => {
                    self.links.push((label.clone(), BTreeMap::new()));
                    self.links.len() - 1
                }
            };
            let windows = &mut self.links[i].1;
            for (w, win) in series.windows() {
                windows.entry(w / PER_WINDOW).or_default().fold(win);
            }
        }
    }

    /// Attribute retransmitted wire bytes to link windows, post-run,
    /// from the causal capture. A retransmitted frame charges the
    /// window its delivery lands in on:
    ///
    /// * the recorded bottleneck trunk's crossing direction (resolved
    ///   through the topology's host attachments; `:fwd` when the spec
    ///   is unknown),
    /// * else the sender's uplink port, if sampled,
    /// * else the shared segment (`seg:bus`), if sampled.
    ///
    /// Frames on unsampled links are skipped — attribution only ever
    /// annotates windows the link sampler saw.
    pub fn ingest_causal(&mut self, events: &[CausalEvent], spec: Option<&TopologySpec>) {
        for e in events.iter().filter(|e| e.retx) {
            let w = e.record.time.as_nanos() / WINDOW_NS;
            let label = match e.meta.trunk_label() {
                Some(base) => {
                    let dir = match (fxnet_sim::FrameMeta::trunk_nodes(e.meta.trunk), spec) {
                        (Some((a, _)), Some(spec)) => {
                            let src_node = spec.attachments.get(e.record.src.0 as usize).copied();
                            if src_node == Some(a as usize) {
                                ":fwd"
                            } else {
                                ":rev"
                            }
                        }
                        _ => ":fwd",
                    };
                    format!("{base}{dir}")
                }
                None => {
                    let up = format!("host:h{}:up", e.record.src.0);
                    if self.links.iter().any(|(l, _)| l == &up) {
                        up
                    } else {
                        "seg:bus".to_string()
                    }
                }
            };
            if let Some((_, windows)) = self.links.iter_mut().find(|(l, _)| l == &label) {
                windows.entry(w).or_default().retx_bytes += u64::from(e.record.wire_len);
            }
        }
    }

    /// Fold everything observed into the finished weather report.
    pub fn finalize(self, spec: Option<&TopologySpec>) -> WeatherReport {
        let tapped = std::mem::replace(&mut *self.tapped.lock(), TapState::new());
        let roll = rollup(&self.links, spec, &self.hotspot);
        WeatherReport {
            links: self.links,
            pairs: tapped.pairs.len(),
            scaling: tapped.ladder.finalize(),
            rollup: roll,
        }
    }
}

impl Default for FabricSampler {
    fn default() -> FabricSampler {
        FabricSampler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::{FrameKind, FrameMeta, FrameRecord, HostId, LinkSeries, Proto, SimTime};

    fn rec(ms: u64, src: u32, dst: u32, len: u32) -> FrameRecord {
        FrameRecord {
            time: SimTime::from_millis(ms),
            wire_len: len,
            proto: Proto::Tcp,
            kind: FrameKind::Data,
            src: HostId(src),
            dst: HostId(dst),
        }
    }

    #[test]
    fn tap_feeds_matrices_and_links_feed_rings() {
        let mut sampler = FabricSampler::new();
        let mut tap = sampler.tap();
        tap(&rec(0, 0, 1, 100));
        tap(&rec(0, 1, 0, 60));
        tap(&rec(12, 0, 1, 100));
        drop(tap);

        let mut series = LinkSeries::new();
        series.window_mut(0).bytes = 160;
        series.window_mut(0).frames = 2;
        series.window_mut(12).bytes = 100;
        series.window_mut(12).frames = 1;
        sampler.ingest_links(&LinkStats {
            bin_ns: 1_000_000,
            links: vec![("seg:bus".to_string(), series)],
        });

        let report = sampler.finalize(None);
        assert_eq!(report.pairs, 2);
        assert_eq!(report.scaling[0].total_packets, 3);
        assert_eq!(report.links.len(), 1);
        // Base windows 0 and 12 land in 10 ms windows 0 and 1.
        let bytes: Vec<(u64, u64)> = report.links[0]
            .1
            .iter()
            .map(|(&w, win)| (w, win.bytes))
            .collect();
        assert_eq!(bytes, vec![(0, 160), (1, 100)]);
        assert_eq!(report.rollup.links[0].total.bytes, 260);
    }

    #[test]
    fn retx_attribution_lands_in_the_right_trunk_window() {
        use fxnet_sim::RATE_10M;
        let spec = TopologySpec::two_switches_trunk(4, RATE_10M);
        let mut sampler = FabricSampler::new();
        let mut series = LinkSeries::new();
        series.window_mut(3).bytes = 1000;
        sampler.ingest_links(&LinkStats {
            bin_ns: 1_000_000,
            links: vec![
                ("trunk:n0-n1:fwd".to_string(), series.clone()),
                ("trunk:n0-n1:rev".to_string(), series),
            ],
        });
        // h2 lives on node 1, so its retransmit crossed the trunk rev.
        let ev = CausalEvent {
            record: rec(3, 2, 0, 700),
            cause: fxnet_sim::CauseId::NONE,
            retx: true,
            conn: 1,
            dir: 0,
            seq: 0,
            meta: FrameMeta {
                queue_ns: 0,
                backoff_ns: 0,
                tx_ns: 0,
                attempts: 1,
                trunk: FrameMeta::trunk_code(0, 1),
            },
        };
        sampler.ingest_causal(&[ev], Some(&spec));
        let report = sampler.finalize(Some(&spec));
        let windows = |label: &str| &report.links.iter().find(|(l, _)| l == label).unwrap().1;
        // Delivered at 3 ms: the rev direction's 10 ms window 0.
        assert_eq!(windows("trunk:n0-n1:rev")[&0].retx_bytes, 700);
        assert_eq!(windows("trunk:n0-n1:fwd")[&0].retx_bytes, 0);
    }
}
