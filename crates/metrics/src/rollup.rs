//! Topology-aware health rollup: link → node → fabric, plus hotspot
//! flagging with the same latch discipline the bandwidth watcher uses.
//!
//! A link direction is *over* in a detection window when its utilization
//! or its high-water queue depth crosses the configured threshold; a
//! link becomes a flagged **hotspot** when it stays over for `k`
//! consecutive windows (untouched windows are idle, hence under). The
//! flag latches through [`fxnet_trace::StreakLatch`] — the exact
//! mechanism behind watcher contract violations — so "flagged" means
//! the same thing in both reports: breached persistently, reported
//! once. Hotspots are named by direction-stripped link (`trunk:n0-n1`,
//! not `trunk:n0-n1:fwd`), matching the `blocking_link` labels the
//! causal critical paths blame, so the weather map and the provenance
//! report can be cross-checked interval against interval.

use fxnet_sim::{LinkSeries, LinkWindow, SimTime, LINK_WINDOW_NS};
use fxnet_topo::{NodeKind, TopologySpec};
use fxnet_trace::StreakLatch;

/// Hotspot detection parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HotspotConfig {
    /// Utilization fraction at or above which a window is over.
    pub util_threshold: f64,
    /// High-water queue depth (frames) at or above which a window is
    /// over.
    pub depth_threshold: u32,
    /// Consecutive over windows required to latch the flag.
    pub k: usize,
}

impl Default for HotspotConfig {
    fn default() -> HotspotConfig {
        HotspotConfig {
            util_threshold: 0.85,
            depth_threshold: 8,
            k: 4,
        }
    }
}

/// One link direction's health summary at the detection resolution.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LinkHealth {
    /// Full direction label (`trunk:n0-n1:fwd`, `seg:seg0`, ...).
    pub label: String,
    /// Detection window width, ns.
    pub window_ns: u64,
    /// Touched detection windows.
    pub windows: u64,
    /// Exact fold of the whole run.
    pub total: LinkWindow,
    /// Highest single-window utilization.
    pub peak_utilization: f64,
    /// Mean utilization over touched windows.
    pub mean_utilization: f64,
    /// Highest high-water queue depth.
    pub peak_depth: u32,
}

/// Aggregated health of a group of link directions (a topology node, or
/// the whole fabric).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GroupHealth {
    /// Group name: the node's display name, or `fabric`.
    pub name: String,
    /// Member link labels, in rollup order.
    pub members: Vec<String>,
    /// Exact fold of every member's run total.
    pub total: LinkWindow,
    /// Highest single-window utilization across members.
    pub peak_utilization: f64,
    /// Highest queue depth across members.
    pub peak_depth: u32,
}

/// A latched hotspot: one link (direction-stripped) that stayed over
/// threshold for at least `k` consecutive detection windows. Serializes
/// with nanosecond keys (`flagged_at_ns`, `intervals_ns`), as
/// `fabric_health.json` and the weather stream carry it.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Hotspot {
    /// Direction-stripped link label (`trunk:n0-n1`, `seg:seg0`,
    /// `host:h3`), comparable to causal `blocking_link` names.
    pub link: String,
    /// Simulated time the flag latched (end of the k-th window of the
    /// first qualifying streak).
    #[serde(rename = "flagged_at_ns")]
    pub flagged_at: SimTime,
    /// All flagged detection window indices, ascending — every
    /// window belonging to a streak of length ≥ k, both directions
    /// merged.
    pub windows: Vec<u64>,
    /// The flagged windows as merged half-open simulated-time
    /// intervals, ready for overlap checks against causal
    /// `contended_intervals`.
    #[serde(rename = "intervals_ns")]
    pub intervals: Vec<(SimTime, SimTime)>,
    /// Highest utilization inside the flagged windows.
    pub peak_utilization: f64,
    /// Highest queue depth inside the flagged windows.
    pub peak_depth: u32,
}

/// The complete rollup: per-direction health, per-node and fabric
/// aggregates, and the latched hotspots.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FabricRollup {
    /// Detection window width, ns.
    pub window_ns: u64,
    /// Per link direction, in sampler order.
    pub links: Vec<LinkHealth>,
    /// Per topology node (when a spec was given), in node order.
    pub nodes: Vec<GroupHealth>,
    /// The whole fabric.
    pub fabric: GroupHealth,
    /// Latched hotspots, in first-flagged order (ties by label).
    pub hotspots: Vec<Hotspot>,
}

/// Strip a trailing direction suffix from a link label.
pub fn strip_direction(label: &str) -> &str {
    for suffix in [":fwd", ":rev", ":up", ":down"] {
        if let Some(base) = label.strip_suffix(suffix) {
            return base;
        }
    }
    label
}

/// Maximal runs of `true` with length ≥ k over a dense window walk of
/// `[lo, hi]`; `over(w)` decides each window (untouched ⇒ under).
fn streaks(lo: u64, hi: u64, k: usize, mut over: impl FnMut(u64) -> bool) -> Vec<(u64, u64)> {
    let mut runs = Vec::new();
    let mut start: Option<u64> = None;
    for w in lo..=hi {
        if over(w) {
            start.get_or_insert(w);
        } else if let Some(s) = start.take() {
            if (w - s) as usize >= k {
                runs.push((s, w - 1));
            }
        }
    }
    if let Some(s) = start {
        if (hi + 1 - s) as usize >= k {
            runs.push((s, hi));
        }
    }
    runs
}

/// Build the full rollup from the sampler's [`LINK_WINDOW_NS`] link
/// windows. With a topology spec, links are grouped under their nodes
/// (a trunk belongs to both endpoints); without one, only per-link and
/// fabric aggregates are produced.
pub fn rollup(
    link_windows: &[(String, LinkSeries)],
    spec: Option<&TopologySpec>,
    cfg: &HotspotConfig,
) -> FabricRollup {
    let window_ns = if link_windows.is_empty() {
        0
    } else {
        LINK_WINDOW_NS
    };

    let mut links = Vec::new();
    for (label, wins) in link_windows {
        let mut total = LinkWindow::default();
        let mut peak_util = 0.0f64;
        let mut util_sum = 0.0f64;
        let mut peak_depth = 0u32;
        for (_, w) in wins.windows() {
            let u = w.utilization();
            total.fold(w);
            peak_util = peak_util.max(u);
            util_sum += u;
            peak_depth = peak_depth.max(w.depth_max);
        }
        let n = wins.len() as u64;
        links.push(LinkHealth {
            label: label.clone(),
            window_ns: LINK_WINDOW_NS,
            windows: n,
            total,
            peak_utilization: peak_util,
            mean_utilization: if n == 0 { 0.0 } else { util_sum / n as f64 },
            peak_depth,
        });
    }

    let group = |name: &str, members: Vec<usize>| -> GroupHealth {
        let mut total = LinkWindow::default();
        let mut peak_utilization = 0.0f64;
        let mut peak_depth = 0u32;
        let mut labels = Vec::new();
        for &i in &members {
            total.fold(&links[i].total);
            peak_utilization = peak_utilization.max(links[i].peak_utilization);
            peak_depth = peak_depth.max(links[i].peak_depth);
            labels.push(links[i].label.clone());
        }
        GroupHealth {
            name: name.to_string(),
            members: labels,
            total,
            peak_utilization,
            peak_depth,
        }
    };

    let mut nodes = Vec::new();
    if let Some(spec) = spec {
        for (ni, node) in spec.nodes.iter().enumerate() {
            let mut members = Vec::new();
            for (li, lh) in links.iter().enumerate() {
                let base = strip_direction(&lh.label);
                let member = if let Some(seg) = base.strip_prefix("seg:") {
                    seg == node.name
                } else if let Some(pair) = base.strip_prefix("trunk:") {
                    // A trunk rolls up to both of its endpoint nodes.
                    spec.trunks
                        .iter()
                        .any(|t| (t.a == ni || t.b == ni) && pair == format!("n{}-n{}", t.a, t.b))
                } else if let Some(host) = base.strip_prefix("host:h") {
                    matches!(node.kind, NodeKind::Switch | NodeKind::Router)
                        && host
                            .parse::<usize>()
                            .is_ok_and(|h| spec.attachments.get(h) == Some(&ni))
                } else {
                    false
                };
                if member {
                    members.push(li);
                }
            }
            nodes.push(group(&node.name, members));
        }
    }
    let fabric = group("fabric", (0..links.len()).collect());

    // Hotspot detection: per direction, dense walk of the touched
    // span; then merge directions of the same stripped link.
    let mut flagged: Vec<Hotspot> = Vec::new();
    for (label, wins) in link_windows {
        let (Some((lo, _)), Some((hi, _))) = (wins.windows().next(), wins.windows().next_back())
        else {
            continue;
        };
        let over = |w: u64| {
            wins.get(w).is_some_and(|win| {
                win.utilization() >= cfg.util_threshold || win.depth_max >= cfg.depth_threshold
            })
        };
        let runs = streaks(lo, hi, cfg.k.max(1), over);
        if runs.is_empty() {
            continue;
        }
        // Replay the latch for the flag instant: it fires exactly once,
        // at the end of the k-th consecutive over window.
        let mut latch = StreakLatch::new(cfg.k.max(1));
        let mut flagged_at = None;
        for w in lo..=hi {
            if latch.update(over(w)) {
                flagged_at = Some(SimTime::from_nanos((w + 1) * LINK_WINDOW_NS));
                break;
            }
        }
        let mut windows = Vec::new();
        let mut peak_utilization = 0.0f64;
        let mut peak_depth = 0u32;
        for &(s, e) in &runs {
            for w in s..=e {
                windows.push(w);
                if let Some(win) = wins.get(w) {
                    peak_utilization = peak_utilization.max(win.utilization());
                    peak_depth = peak_depth.max(win.depth_max);
                }
            }
        }
        let link = strip_direction(label).to_string();
        match flagged.iter_mut().find(|h| h.link == link) {
            Some(h) => {
                h.flagged_at = h.flagged_at.min(flagged_at.expect("runs imply latch"));
                h.windows.extend(&windows);
                h.windows.sort_unstable();
                h.windows.dedup();
                h.peak_utilization = h.peak_utilization.max(peak_utilization);
                h.peak_depth = h.peak_depth.max(peak_depth);
            }
            None => flagged.push(Hotspot {
                link,
                flagged_at: flagged_at.expect("runs imply latch"),
                windows,
                intervals: Vec::new(),
                peak_utilization,
                peak_depth,
            }),
        }
    }
    for h in &mut flagged {
        h.intervals = windows_to_intervals(&h.windows, window_ns);
    }
    flagged.sort_by(|a, b| (a.flagged_at, &a.link).cmp(&(b.flagged_at, &b.link)));

    FabricRollup {
        window_ns,
        links,
        nodes,
        fabric,
        hotspots: flagged,
    }
}

/// Merge sorted window indices into half-open `[begin, end)` simulated
/// time intervals (adjacent windows coalesce).
pub fn windows_to_intervals(windows: &[u64], window_ns: u64) -> Vec<(SimTime, SimTime)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &w in windows {
        match out.last_mut() {
            Some((_, e)) if *e == w => *e = w + 1,
            _ => out.push((w, w + 1)),
        }
    }
    out.into_iter()
        .map(|(s, e)| {
            (
                SimTime::from_nanos(s * window_ns),
                SimTime::from_nanos(e * window_ns),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::LinkWindow;

    fn busy(frac: f64, wns: u64) -> LinkWindow {
        LinkWindow {
            bytes: 100,
            frames: 1,
            busy_ns: (frac * wns as f64) as u64,
            ..LinkWindow::default()
        }
    }

    fn link_with(windows: &[(u64, f64)]) -> LinkSeries {
        let mut series = LinkSeries::new();
        for &(w, frac) in windows {
            *series.window_mut(w) = busy(frac, LINK_WINDOW_NS);
        }
        series
    }

    #[test]
    fn strip_direction_matches_causal_labels() {
        assert_eq!(strip_direction("trunk:n0-n1:fwd"), "trunk:n0-n1");
        assert_eq!(strip_direction("trunk:n0-n1:rev"), "trunk:n0-n1");
        assert_eq!(strip_direction("host:h3:up"), "host:h3");
        assert_eq!(strip_direction("seg:seg0"), "seg:seg0");
    }

    #[test]
    fn hotspot_needs_k_consecutive_windows() {
        let cfg = HotspotConfig {
            util_threshold: 0.8,
            depth_threshold: 1000,
            k: 3,
        };
        // Two over windows, gap, two more: no streak of 3.
        let calm = link_with(&[(0, 0.9), (1, 0.9), (3, 0.9), (4, 0.9)]);
        let r = rollup(&[("trunk:n0-n1:fwd".into(), calm)], None, &cfg);
        assert!(r.hotspots.is_empty());
        // Three consecutive over windows: latched.
        let hot = link_with(&[(5, 0.9), (6, 0.95), (7, 0.9), (9, 0.9)]);
        let r = rollup(&[("trunk:n0-n1:fwd".into(), hot)], None, &cfg);
        assert_eq!(r.hotspots.len(), 1);
        let h = &r.hotspots[0];
        assert_eq!(h.link, "trunk:n0-n1");
        // Latched at the end of window 7 (the 3rd consecutive).
        assert_eq!(h.flagged_at, SimTime::from_millis(80));
        assert_eq!(h.windows, vec![5, 6, 7]);
        assert_eq!(
            h.intervals,
            vec![(SimTime::from_millis(50), SimTime::from_millis(80))]
        );
        assert!((h.peak_utilization - 0.95).abs() < 1e-9);
    }

    #[test]
    fn directions_merge_under_one_stripped_label() {
        let cfg = HotspotConfig {
            util_threshold: 0.8,
            depth_threshold: 1000,
            k: 2,
        };
        let fwd = link_with(&[(0, 0.9), (1, 0.9)]);
        let rev = link_with(&[(4, 0.9), (5, 0.9)]);
        let r = rollup(
            &[
                ("trunk:n0-n1:fwd".into(), fwd),
                ("trunk:n0-n1:rev".into(), rev),
            ],
            None,
            &cfg,
        );
        assert_eq!(r.hotspots.len(), 1);
        assert_eq!(r.hotspots[0].windows, vec![0, 1, 4, 5]);
        assert_eq!(r.hotspots[0].intervals.len(), 2);
    }

    #[test]
    fn rollup_groups_by_topology_node() {
        use fxnet_sim::RATE_10M;
        // 4 hosts: h0, h1 on sw0; h2, h3 on sw1.
        let spec = TopologySpec::two_switches_trunk(4, RATE_10M);
        let cfg = HotspotConfig::default();
        let links: Vec<(String, LinkSeries)> = vec![
            ("trunk:n0-n1:fwd".into(), link_with(&[(0, 0.5)])),
            ("trunk:n0-n1:rev".into(), link_with(&[(0, 0.1)])),
            ("host:h0:up".into(), link_with(&[(0, 0.2)])),
            ("host:h2:up".into(), link_with(&[(0, 0.2)])),
        ];
        let r = rollup(&links, Some(&spec), &cfg);
        assert_eq!(r.nodes.len(), 2);
        // Both switches own the trunk; only the attached hosts' ports.
        let n0 = &r.nodes[0];
        assert!(n0.members.iter().any(|m| m == "trunk:n0-n1:fwd"));
        assert!(n0.members.iter().any(|m| m == "host:h0:up"));
        assert!(!n0.members.iter().any(|m| m == "host:h2:up"));
        let n1 = &r.nodes[1];
        assert!(n1.members.iter().any(|m| m == "host:h2:up"));
        assert!(n1.members.iter().any(|m| m == "trunk:n0-n1:rev"));
        assert_eq!(r.fabric.members.len(), 4);
        assert_eq!(r.fabric.total.frames, 4);
    }
}
