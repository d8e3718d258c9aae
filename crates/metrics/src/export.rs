//! Deterministic exports of a [`WeatherReport`]: structured JSON,
//! line-per-observation JSONL, the Prometheus snapshot (through
//! `fxnet-telemetry`), and Perfetto counter tracks that sit alongside
//! the causal critical-path slices in one Chrome trace file.
//!
//! The JSON documents are the report's own types serialized
//! (`FabricRollup`, `ScalingRelation`); the JSONL lines and the counter
//! events are derived records built here. Every export walks the report
//! in its stored order (links in sampler order, windows ascending,
//! scales finest-first) and performs no floating-point reassociation —
//! so byte-identical reports yield byte-identical artifacts regardless
//! of thread count or host.

use crate::sampler::{WeatherReport, BIN_NS, SCALES};
use fxnet_sim::{SimTime, LINK_WINDOW_NS};
use fxnet_telemetry::{labeled, to_jsonl, TelemetryRegistry, TraceArgs, TraceEvent};
use serde::Serialize;

/// The `meta` header line of the weather stream.
#[derive(Serialize)]
struct MetaLine {
    t: &'static str,
    bin_ns: u64,
    scales: Vec<u64>,
    links: usize,
    pairs: usize,
}

/// One `w` line: a link's touched detection window.
#[derive(Serialize)]
struct WindowLine {
    t: &'static str,
    link: String,
    w: u64,
    bytes: u64,
    frames: u64,
    busy_ns: u64,
    wait_ns: u64,
    backoff_ns: u64,
    collisions: u64,
    retx_bytes: u64,
    depth_max: u32,
    util: f64,
}

/// One `scaling` line: a [`crate::ScalingRelation`] under its tag.
#[derive(Serialize)]
struct ScalingLine {
    t: &'static str,
    scale: u64,
    window_ns: u64,
    windows: u64,
    total_packets: u64,
    max_packets: u64,
    mean_packets: f64,
    max_distinct_pairs: u64,
    mean_distinct_pairs: f64,
    max_degree: u32,
    max_degree_host: u32,
}

/// One `hotspot` line: a [`crate::Hotspot`] under its tag.
#[derive(Serialize)]
struct HotspotLine {
    t: &'static str,
    link: String,
    flagged_at_ns: SimTime,
    windows: Vec<u64>,
    intervals_ns: Vec<(SimTime, SimTime)>,
    peak_utilization: f64,
    peak_depth: u32,
}

/// The weather stream: one JSON object per line. A `meta` header, one
/// `w` line per touched detection window per link, one `scaling` line
/// per ladder scale, one `hotspot` line per latched hotspot.
pub fn report_jsonl(r: &WeatherReport) -> String {
    let meta = MetaLine {
        t: "meta",
        bin_ns: BIN_NS,
        scales: SCALES.to_vec(),
        links: r.links.len(),
        pairs: r.pairs,
    };
    let windows = r.links.iter().flat_map(|(label, wins)| {
        wins.windows().map(move |(w, win)| WindowLine {
            t: "w",
            link: label.clone(),
            w,
            bytes: win.bytes,
            frames: win.frames,
            busy_ns: win.busy_ns,
            wait_ns: win.wait_ns,
            backoff_ns: win.backoff_ns,
            collisions: win.collisions,
            retx_bytes: win.retx_bytes,
            depth_max: win.depth_max,
            util: win.utilization(),
        })
    });
    let scaling = r.scaling.iter().map(|s| ScalingLine {
        t: "scaling",
        scale: s.scale,
        window_ns: s.window_ns,
        windows: s.windows,
        total_packets: s.total_packets,
        max_packets: s.max_packets,
        mean_packets: s.mean_packets,
        max_distinct_pairs: s.max_distinct_pairs,
        mean_distinct_pairs: s.mean_distinct_pairs,
        max_degree: s.max_degree,
        max_degree_host: s.max_degree_host,
    });
    let hotspots = r.rollup.hotspots.iter().map(|h| HotspotLine {
        t: "hotspot",
        link: h.link.clone(),
        flagged_at_ns: h.flagged_at,
        windows: h.windows.clone(),
        intervals_ns: h.intervals.clone(),
        peak_utilization: h.peak_utilization,
        peak_depth: h.peak_depth,
    });
    to_jsonl([meta]) + &to_jsonl(windows) + &to_jsonl(scaling) + &to_jsonl(hotspots)
}

/// Snapshot the report into the unified registry under labeled
/// `fabric_*` families, Prometheus-ready: totals as counters, peaks
/// and scaling relations as gauges, one `fabric_hotspot_flagged` gauge
/// per latched hotspot. `extra` label pairs are appended to every
/// sample — e.g. `[("prog", "SOR")]` so several programs' reports
/// coexist in one registry without colliding.
pub fn fill_registry(r: &WeatherReport, reg: &mut TelemetryRegistry, extra: &[(&str, &str)]) {
    let with = |own: &[(&str, &str)]| -> Vec<(String, String)> {
        own.iter()
            .chain(extra)
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let name = |base: &str, labels: &Vec<(String, String)>| -> String {
        if labels.is_empty() {
            base.to_string()
        } else {
            let refs: Vec<(&str, &str)> = labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            labeled(base, &refs)
        }
    };
    for lh in &r.rollup.links {
        let l = with(&[("link", lh.label.as_str())]);
        reg.set_counter(name("fabric_link_bytes_total", &l), lh.total.bytes);
        reg.set_counter(name("fabric_link_frames_total", &l), lh.total.frames);
        reg.set_counter(
            name("fabric_link_collisions_total", &l),
            lh.total.collisions,
        );
        reg.set_counter(
            name("fabric_link_retx_bytes_total", &l),
            lh.total.retx_bytes,
        );
        reg.set_gauge(
            name("fabric_link_utilization_peak", &l),
            lh.peak_utilization,
        );
        reg.set_gauge(
            name("fabric_link_utilization_mean", &l),
            lh.mean_utilization,
        );
        reg.set_gauge(
            name("fabric_link_queue_depth_peak", &l),
            f64::from(lh.peak_depth),
        );
    }
    for g in r
        .rollup
        .nodes
        .iter()
        .chain(std::iter::once(&r.rollup.fabric))
    {
        let l = with(&[("node", g.name.as_str())]);
        reg.set_counter(name("fabric_node_bytes_total", &l), g.total.bytes);
        reg.set_gauge(name("fabric_node_utilization_peak", &l), g.peak_utilization);
    }
    for h in &r.rollup.hotspots {
        let l = with(&[("link", h.link.as_str())]);
        reg.set_gauge(name("fabric_hotspot_flagged", &l), 1.0);
        reg.set_gauge(
            name("fabric_hotspot_flagged_at_seconds", &l),
            h.flagged_at.as_nanos() as f64 / 1e9,
        );
        reg.set_counter(
            name("fabric_hotspot_windows_total", &l),
            h.windows.len() as u64,
        );
    }
    for s in &r.scaling {
        let scale = s.scale.to_string();
        let l = with(&[("scale", scale.as_str())]);
        reg.set_counter(name("fabric_matrix_packets_total", &l), s.total_packets);
        reg.set_gauge(
            name("fabric_matrix_pairs_max", &l),
            s.max_distinct_pairs as f64,
        );
        reg.set_gauge(name("fabric_matrix_pairs_mean", &l), s.mean_distinct_pairs);
        reg.set_gauge(
            name("fabric_matrix_degree_max", &l),
            f64::from(s.max_degree),
        );
    }
    reg.set_counter(name("fabric_pairs_distinct", &with(&[])), r.pairs as u64);
}

/// Perfetto counter tracks (`ph:"C"`): per link direction, a
/// utilization track and a queue-depth track sampled per detection
/// window, each closed with a zero sample one window after the
/// last touched window. Concatenate with the causal `chrome_trace`
/// slices to see hotspot windows under the straggler spans they explain.
pub fn counter_events(r: &WeatherReport) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for (label, wins) in &r.links {
        let mut sample = |ts_ns: u64, utilization: f64, frames: u64| {
            let util = TraceArgs {
                utilization: Some(utilization),
                ..TraceArgs::default()
            };
            let depth = TraceArgs {
                frames: Some(frames),
                ..TraceArgs::default()
            };
            out.push(TraceEvent::counter(format!("util {label}"), ts_ns, util));
            out.push(TraceEvent::counter(format!("depth {label}"), ts_ns, depth));
        };
        let mut last = None;
        for (w, win) in wins.windows() {
            sample(
                w * LINK_WINDOW_NS,
                win.utilization(),
                u64::from(win.depth_max),
            );
            last = Some(w);
        }
        if let Some(w) = last {
            sample((w + 1) * LINK_WINDOW_NS, 0.0, 0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::FabricSampler;
    use fxnet_sim::{LinkSeries, LinkStats};
    use fxnet_telemetry::{parse_prometheus, prometheus_text};

    /// Twenty frames, then 60 ms of 90 % utilization on the trunk.
    fn report() -> WeatherReport {
        let mut sampler = FabricSampler::new();
        let trace: Vec<fxnet_sim::FrameRecord> = (0..20u64)
            .map(|i| fxnet_sim::FrameRecord {
                time: fxnet_sim::SimTime::from_millis(i),
                wire_len: 1000,
                proto: fxnet_sim::Proto::Tcp,
                kind: fxnet_sim::FrameKind::Data,
                src: fxnet_sim::HostId((i % 3) as u32),
                dst: fxnet_sim::HostId(((i + 1) % 3) as u32),
            })
            .collect();
        sampler.ingest_trace(&trace[..]);
        // Six 10 ms detection windows, enough for the default k = 4
        // streak to latch a hotspot.
        let mut series = LinkSeries::new();
        for w in 0..6 {
            let win = series.window_mut(w);
            win.bytes = 10_000;
            win.frames = 10;
            win.busy_ns = 9_000_000;
            win.depth_max = 3;
        }
        sampler.ingest_links(&LinkStats {
            links: vec![("trunk:n0-n1:fwd".to_string(), series)],
        });
        sampler.finalize(None)
    }

    #[test]
    fn json_and_jsonl_are_deterministic() {
        let a = serde::json::to_string(&report().rollup);
        let b = serde::json::to_string(&report().rollup);
        assert_eq!(a, b);
        assert_eq!(report_jsonl(&report()), report_jsonl(&report()));
        let jsonl = report_jsonl(&report());
        assert!(jsonl.lines().next().unwrap().contains("\"meta\""));
        assert!(jsonl.lines().all(|l| serde::json::parse(l).is_ok()));
        assert!(jsonl.contains("\"hotspot\""), "90% for 60 ms must flag");
    }

    #[test]
    fn registry_snapshot_round_trips_through_prometheus_text() {
        let r = report();
        let mut reg = TelemetryRegistry::new();
        fill_registry(&r, &mut reg, &[]);
        let text = prometheus_text(&reg);
        assert!(text.contains("fabric_link_bytes_total{link=\"trunk:n0-n1:fwd\"} 60000"));
        assert!(text.contains("fabric_hotspot_flagged{link=\"trunk:n0-n1\"} 1"));
        let parsed = parse_prometheus(&text).unwrap();
        let n = reg.counters().count() + reg.gauges().count();
        assert_eq!(parsed.len(), n);
        // Every registry value survives the text round trip exactly.
        for (name, v) in reg.counters() {
            let got = parsed.iter().find(|(k, _)| k == name).unwrap().1;
            assert_eq!(got, v as f64, "{name}");
        }
    }

    #[test]
    fn counter_events_form_closed_tracks() {
        let evs = counter_events(&report());
        // Six 10 ms windows × 2 tracks + 2 closing zeros.
        assert_eq!(evs.len(), 14);
        for e in &evs {
            assert_eq!(e.ph, "C");
            assert!(e.ts.is_some());
        }
        let last_util = evs
            .iter()
            .rfind(|e| e.name == "util trunk:n0-n1:fwd")
            .unwrap();
        assert_eq!(last_util.args.as_ref().unwrap().utilization, Some(0.0));
    }

    /// The stream, the counters and the hotspot all index windows at the
    /// width the rollup detected at, [`LINK_WINDOW_NS`].
    #[test]
    fn exports_follow_the_configured_detection_level() {
        let r = report();
        assert_eq!(r.rollup.window_ns, LINK_WINDOW_NS);
        let hot = r.hotspot("trunk:n0-n1").expect("six hot 10 ms windows");
        assert_eq!(hot.windows, (0..6).collect::<Vec<u64>>());

        let jsonl = report_jsonl(&r);
        let trunk_windows: Vec<u64> = jsonl
            .lines()
            .map(|l| serde::json::parse(l).unwrap())
            .filter(|v| v.get("link").and_then(|l| l.as_str()) == Some("trunk:n0-n1:fwd"))
            .filter(|v| v.get("t").and_then(|t| t.as_str()) == Some("w"))
            .map(|v| v.get("w").and_then(|w| w.as_u64()).unwrap())
            .collect();
        assert_eq!(trunk_windows, hot.windows);

        let util: Vec<f64> = counter_events(&r)
            .iter()
            .filter(|e| e.name == "util trunk:n0-n1:fwd")
            .map(|e| e.ts.unwrap())
            .collect();
        let per_window_us = (LINK_WINDOW_NS / 1_000) as f64;
        let expect: Vec<f64> = (0..=6).map(|w| w as f64 * per_window_us).collect();
        assert_eq!(
            util, expect,
            "six samples and the closing zero, 10 ms apart"
        );
    }
}
