//! The fabric sampler: glue between a run and the weather map.
//!
//! [`FabricSampler`] reads the three records a run leaves behind, all
//! post-run, and never touches the simulation itself:
//!
//! * the captured trace ([`FabricSampler::ingest_trace`]), every
//!   delivered frame in capture order, counted into the matrix ladder's
//!   [`ScalingAccum`] and the set of host pairs;
//! * the per-link sample series ([`FabricSampler::ingest_links`]) the
//!   engine collects when `RunOptions::sample_links` is set, kept as
//!   the probes binned them: one [`fxnet_sim::LINK_WINDOW_NS`] series
//!   per link direction;
//! * the causal capture ([`FabricSampler::ingest_causal`]), which
//!   attributes retransmitted wire bytes to the link windows they
//!   crossed.
//!
//! [`FabricSampler::finalize`] folds everything into a
//! [`WeatherReport`]: link windows, scaling relations, and the topology
//! rollup with latched hotspots.
//!
//! The sampler has no width to set. Link windows are the simulator's
//! [`fxnet_sim::LINK_WINDOW_NS`] (10 ms, the paper's measurement
//! window). The matrix ladder starts at `BIN_NS` (1 ms) and climbs
//! `SCALES` to 1 s, because the paper's traffic features live between
//! 1 ms bursts and 1 s heartbeat periods; the weather stream's meta
//! line prints both.

use crate::matrix::{ScalingAccum, ScalingRelation};
use crate::rollup::{rollup, FabricRollup, HotspotConfig};
use fxnet_sim::{CausalEvent, LinkSeries, LinkStats, TraceRows, BUS_LINK};
use fxnet_topo::TopologySpec;
use std::collections::BTreeSet;

/// Base window of the matrix ladder, ns: 1 ms.
pub(crate) const BIN_NS: u64 = 1_000_000;

/// The matrix ladder, multiples of [`BIN_NS`]: 1 ms → 10 ms → 100 ms →
/// 1 s.
pub(crate) const SCALES: [u64; 4] = [1, 10, 100, 1000];

/// The finished weather map of one run.
#[derive(Debug, Clone)]
pub struct WeatherReport {
    /// Per link direction, in sampler order: its touched
    /// [`fxnet_sim::LINK_WINDOW_NS`] windows.
    pub links: Vec<(String, LinkSeries)>,
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

/// Accumulates one run's observations into a weather report.
pub struct FabricSampler {
    hotspot: HotspotConfig,
    ladder: ScalingAccum,
    pairs: BTreeSet<(u32, u32)>,
    links: Vec<(String, LinkSeries)>,
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
            ladder: ScalingAccum::new(BIN_NS, &SCALES),
            pairs: BTreeSet::new(),
            links: Vec::new(),
        }
    }

    /// Count a run's captured trace into the matrix ladder and the set
    /// of host pairs. Rows must be in time order, as one run captures
    /// them; [`ScalingAccum`] panics on one that goes back in time.
    pub fn ingest_trace<R: TraceRows + ?Sized>(&mut self, rows: &R) {
        for i in 0..rows.len() {
            let r = rows.get(i);
            self.ladder.record(r.time.as_nanos(), r.src.0, r.dst.0);
            self.pairs.insert((r.src.0, r.dst.0));
        }
    }

    /// Take in a run's per-link sample series. Labels keep the
    /// engine's deterministic order; ingesting a label again folds its
    /// windows into those of the same index.
    pub fn ingest_links(&mut self, stats: &LinkStats) {
        for (label, series) in &stats.links {
            match self.links.iter_mut().find(|(l, _)| l == label) {
                Some((_, have)) => have.merge(series),
                None => self.links.push((label.clone(), series.clone())),
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
    /// * else the sender's segment: `seg:{name}` of the node the spec
    ///   attaches it to, or the legacy bus's [`BUS_LINK`] without a spec.
    ///
    /// Frames on unsampled links are skipped — attribution only ever
    /// annotates windows the link sampler saw. `rows` is the trace the
    /// events describe: event `i` is row `i`.
    pub fn ingest_causal<R: TraceRows + ?Sized>(
        &mut self,
        events: &[CausalEvent],
        rows: &R,
        spec: Option<&TopologySpec>,
    ) {
        for (i, e) in events.iter().enumerate().filter(|(_, e)| e.retx) {
            let record = rows.get(i);
            let src = record.src.0 as usize;
            let label = match e.meta.trunk_label() {
                Some(base) => {
                    let dir = match (fxnet_sim::FrameMeta::trunk_nodes(e.meta.trunk), spec) {
                        (Some((a, _)), Some(spec)) => {
                            if spec.attachments.get(src).copied() == Some(a as usize) {
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
                    let up = format!("host:h{src}:up");
                    if self.links.iter().any(|(l, _)| l == &up) {
                        up
                    } else {
                        match spec.and_then(|s| s.attachments.get(src).map(|&n| &s.nodes[n])) {
                            Some(node) => format!("seg:{}", node.name),
                            None => BUS_LINK.to_string(),
                        }
                    }
                }
            };
            if let Some((_, series)) = self.links.iter_mut().find(|(l, _)| l == &label) {
                series.window_at(record.time).retx_bytes += u64::from(record.wire_len);
            }
        }
    }

    /// Fold everything observed into the finished weather report.
    pub fn finalize(self, spec: Option<&TopologySpec>) -> WeatherReport {
        let roll = rollup(&self.links, spec, &self.hotspot);
        WeatherReport {
            links: self.links,
            pairs: self.pairs.len(),
            scaling: self.ladder.finalize(),
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
    fn trace_feeds_matrices_and_links_feed_rings() {
        let mut sampler = FabricSampler::new();
        sampler.ingest_trace(&[rec(0, 0, 1, 100), rec(0, 1, 0, 60), rec(12, 0, 1, 100)][..]);

        let mut series = LinkSeries::new();
        series.window_at(SimTime::from_millis(0)).bytes = 160;
        series.window_at(SimTime::from_millis(0)).frames = 2;
        series.window_at(SimTime::from_millis(12)).bytes = 100;
        series.window_at(SimTime::from_millis(12)).frames = 1;
        let stats = LinkStats {
            links: vec![("seg:bus".to_string(), series)],
        };
        sampler.ingest_links(&stats);
        // A second ingestion of the same link folds window by window.
        sampler.ingest_links(&stats);

        let report = sampler.finalize(None);
        assert_eq!(report.pairs, 2);
        assert_eq!(report.scaling[0].total_packets, 3);
        assert_eq!(report.links.len(), 1);
        // 0 ms and 12 ms land in 10 ms windows 0 and 1.
        let bytes: Vec<(u64, u64)> = report.links[0]
            .1
            .windows()
            .map(|(w, win)| (w, win.bytes))
            .collect();
        assert_eq!(bytes, vec![(0, 320), (1, 200)]);
        assert_eq!(report.rollup.links[0].total.bytes, 520);
    }

    #[test]
    fn retx_attribution_lands_in_the_right_trunk_window() {
        use fxnet_sim::RATE_10M;
        let spec = TopologySpec::two_switches_trunk(4, RATE_10M);
        let mut sampler = FabricSampler::new();
        let mut series = LinkSeries::new();
        series.window_mut(0).bytes = 1000;
        sampler.ingest_links(&LinkStats {
            links: vec![
                ("trunk:n0-n1:fwd".to_string(), series.clone()),
                ("trunk:n0-n1:rev".to_string(), series),
            ],
        });
        // h2 lives on node 1, so its retransmit crossed the trunk rev.
        let ev = CausalEvent {
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
        sampler.ingest_causal(&[ev], &[rec(3, 2, 0, 700)][..], Some(&spec));
        let report = sampler.finalize(Some(&spec));
        let windows = |label: &str| &report.links.iter().find(|(l, _)| l == label).unwrap().1;
        // Delivered at 3 ms: the rev direction's 10 ms window 0.
        assert_eq!(windows("trunk:n0-n1:rev").get(0).unwrap().retx_bytes, 700);
        assert_eq!(windows("trunk:n0-n1:fwd").get(0).unwrap().retx_bytes, 0);
    }
}
