//! # fxnet-metrics
//!
//! The fabric weather map: zero-perturbation observability for the
//! simulated LAN. Everything here is fed by passive observation
//! channels — the promiscuous [`fxnet_sim::FrameTap`], the engine's
//! per-link sample series, and the post-run causal capture — so a run
//! with the weather map attached produces a byte-identical packet
//! trace to one without it.
//!
//! Three layers:
//!
//! * **Link windows**: per link direction, utilization / queue-depth /
//!   backoff / collision / retransmit gauges in sparse 10 ms windows
//!   ([`rollup::WINDOW_NS`]), each the exact [`fxnet_sim::LinkWindow::fold`] of
//!   the 1 ms samples it covers.
//! * **Matrices** ([`ScalingAccum`]): hypersparse per-window src×dst
//!   traffic matrices at 1 ms, 10 ms, 100 ms and 1 s, reduced as they
//!   close to per-scale [`ScalingRelation`] summaries, Kepner style.
//! * **Rollup** ([`mod@rollup`]): topology-aware link → node → fabric
//!   aggregation and hotspot flagging — over threshold for `k`
//!   consecutive windows, latched through the same
//!   [`fxnet_trace::StreakLatch`] the bandwidth watcher uses, named to
//!   match causal `blocking_link` labels for interval cross-checks.
//!
//! [`FabricSampler`] ties the channels together. The report's types
//! serialize themselves; [`export`] adds the JSONL weather stream, the
//! Prometheus snapshot and the Perfetto counter tracks.

pub mod export;
pub mod matrix;
pub mod rollup;
pub mod sampler;

pub use export::{counter_events, fill_registry, fill_registry_labeled, report_jsonl};
pub use matrix::{ScalingAccum, ScalingRelation};
pub use rollup::{
    rollup, strip_direction, windows_to_intervals, FabricRollup, GroupHealth, Hotspot,
    HotspotConfig, LinkHealth,
};
pub use sampler::{FabricSampler, WeatherReport};

#[cfg(test)]
/// The link rings: each link direction's sparse map of [`rollup::WINDOW_NS`]
/// windows, checked through [`FabricSampler::ingest_links`].
mod rings {
    mod tests {
        use crate::FabricSampler;
        use fxnet_sim::{LinkSeries, LinkStats, LinkWindow};
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        fn win(bytes: u64, depth: u32) -> LinkWindow {
            LinkWindow {
                bytes,
                frames: 1,
                busy_ns: bytes * 8,
                wait_ns: bytes / 2,
                backoff_ns: bytes / 4,
                collisions: u64::from(depth % 2),
                retx_bytes: bytes / 8,
                depth_max: depth,
            }
        }

        /// Ingest `samples` (1 ms window, sample) on `seg:bus`, one
        /// series per sample, in the order given.
        fn ring(samples: &[(u64, LinkWindow)]) -> (BTreeMap<u64, LinkWindow>, LinkWindow) {
            let mut sampler = FabricSampler::new();
            for &(w, s) in samples {
                let mut series = LinkSeries::new();
                *series.window_mut(w) = s;
                sampler.ingest_links(&LinkStats {
                    bin_ns: 1_000_000,
                    links: vec![("seg:bus".to_string(), series)],
                });
            }
            let mut report = sampler.finalize(None);
            let total = report.rollup.links[0].total;
            (report.links.remove(0).1, total)
        }

        #[test]
        fn coarse_buckets_are_exact_folds() {
            let samples: Vec<(u64, LinkWindow)> = [0, 3, 9, 10, 57, 999, 1000, 1001]
                .iter()
                .map(|&w| (w, win(100 + w, (w % 7) as u32)))
                .collect();
            let (windows, total) = ring(&samples);
            // Base windows 0, 3, 9 land in 10 ms window 0.
            let mut first = win(100, 0);
            first.fold(&win(103, 3));
            first.fold(&win(109, 2));
            assert_eq!(windows[&0], first);
            assert_eq!(first.bytes, 100 + 103 + 109);
            assert_eq!(first.depth_max, 3); // max of depths 0, 3, 2
            assert_eq!(
                windows.keys().copied().collect::<Vec<u64>>(),
                vec![0, 1, 5, 99, 100]
            );
            assert_eq!(total.frames, 8);
        }

        #[test]
        fn push_order_does_not_matter() {
            let samples: Vec<(u64, LinkWindow)> = (0..30u64)
                .map(|i| i * 37 % 400)
                .map(|w| (w, win(w + 1, (w % 5) as u32)))
                .collect();
            let reversed: Vec<(u64, LinkWindow)> = samples.iter().rev().copied().collect();
            assert_eq!(ring(&samples), ring(&reversed));
        }

        proptest! {
            /// Every link window is the exact fold of the 1 ms samples it
            /// covers, and the run total conserves every sample.
            #[test]
            fn ladder_is_exact_on_arbitrary_input(
                ws in prop::collection::vec(0u64..5_000, 1..200),
                bytes in prop::collection::vec(1u64..100_000, 1..200),
            ) {
                let samples: Vec<(u64, LinkWindow)> = ws
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| (w, win(bytes[i % bytes.len()], (w % 11) as u32)))
                    .collect();
                let (windows, total) = ring(&samples);
                let mut expect: BTreeMap<u64, LinkWindow> = BTreeMap::new();
                for (w, s) in &samples {
                    expect.entry(w / 10).or_default().fold(s);
                }
                prop_assert_eq!(&windows, &expect);
                let sum: u64 = samples.iter().map(|(_, s)| s.bytes).sum();
                prop_assert_eq!(total.bytes, sum);
                prop_assert_eq!(total.frames, ws.len() as u64);
            }
        }
    }
}
