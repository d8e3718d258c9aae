//! # fxnet-metrics
//!
//! The fabric weather map: zero-perturbation observability for the
//! simulated LAN. Everything here is read after the run, from what it
//! recorded — the captured trace, the engine's per-link sample series,
//! and the causal capture — as the paper analyzes its tcpdump capture
//! after the fact; a run with link sampling and causal capture on
//! produces a byte-identical packet trace to one without them.
//!
//! Three layers:
//!
//! * **Link windows**: per link direction, utilization / queue-depth /
//!   backoff / collision / retransmit gauges in sparse 10 ms windows
//!   ([`fxnet_sim::LINK_WINDOW_NS`]), as the simulator's link probes
//!   binned them: each the exact [`fxnet_sim::LinkWindow::fold`] of the
//!   transmissions that completed in it.
//! * **Matrices** ([`ScalingAccum`]): hypersparse per-window src×dst
//!   traffic matrices at 1 ms, 10 ms, 100 ms and 1 s, reduced as they
//!   close to per-scale [`ScalingRelation`] summaries, Kepner style.
//! * **Rollup** ([`mod@rollup`]): topology-aware link → node → fabric
//!   aggregation and hotspot flagging — over threshold for `k`
//!   consecutive windows, latched through the same
//!   [`fxnet_trace::StreakLatch`] the bandwidth watcher uses, named to
//!   match causal `blocking_link` labels for interval cross-checks.
//!
//! [`FabricSampler`] ties the three records together. The report's types
//! serialize themselves; [`export`] adds the JSONL weather stream, the
//! Prometheus snapshot and the Perfetto counter tracks.

// Nothing in this crate uses `parking_lot`; Cargo.toml declares it only
// because `benchmark/Cargo.lock` pins this crate's dependency list and the
// benchmark runs `--locked` (ROADMAP item 1 drops it at the next re-lock).
pub mod export;
pub mod matrix;
pub mod rollup;
pub mod sampler;

pub use export::{counter_events, fill_registry, report_jsonl};
pub use matrix::{ScalingAccum, ScalingRelation};
pub use rollup::{
    rollup, strip_direction, windows_to_intervals, FabricRollup, GroupHealth, Hotspot,
    HotspotConfig, LinkHealth,
};
pub use sampler::{FabricSampler, WeatherReport};

#[cfg(test)]
/// The link rings: each link direction's sparse series of
/// [`fxnet_sim::LINK_WINDOW_NS`] windows, from [`fxnet_sim::LinkProbe`]
/// through [`FabricSampler::ingest_links`].
mod rings {
    mod tests {
        use crate::FabricSampler;
        use fxnet_sim::{LinkProbe, LinkStats, LinkWindow, SimTime, LINK_WINDOW_NS};
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// One transmission on a FIFO link.
        #[derive(Debug, Clone, Copy)]
        struct Tx {
            now: u64,
            done: u64,
            wire: u64,
            tx: u64,
            wait: u64,
        }

        /// A FIFO link's schedule of `(request ns, wire bytes, tx ns)`
        /// requests, ascending: each waits for the one before it.
        fn schedule(reqs: &[(u64, u64, u64)]) -> Vec<Tx> {
            let mut free = 0;
            reqs.iter()
                .map(|&(now, wire, tx)| {
                    let start = free.max(now);
                    free = start + tx;
                    Tx {
                        now,
                        done: free,
                        wire,
                        tx,
                        wait: start - now,
                    }
                })
                .collect()
        }

        /// Record each run on its own probe and ingest the probes'
        /// series on `seg:bus`, in the order given.
        fn ring(runs: &[Vec<Tx>]) -> (BTreeMap<u64, LinkWindow>, LinkWindow) {
            let mut sampler = FabricSampler::new();
            for run in runs {
                let mut probe = LinkProbe::new();
                for t in run {
                    let (now, done) = (SimTime::from_nanos(t.now), SimTime::from_nanos(t.done));
                    probe.record(now, done, t.wire, t.tx, t.wait);
                }
                sampler.ingest_links(&LinkStats {
                    links: vec![("seg:bus".to_string(), probe.take())],
                });
            }
            let report = sampler.finalize(None);
            let total = report.rollup.links[0].total;
            let windows = report.links[0].1.windows().map(|(w, s)| (w, *s)).collect();
            (windows, total)
        }

        /// The oracle: every transmission folded into the window its
        /// completion lands in, its depth the transmissions of its run
        /// still in flight when it was requested, itself included.
        fn folded(runs: &[Vec<Tx>]) -> BTreeMap<u64, LinkWindow> {
            let mut out: BTreeMap<u64, LinkWindow> = BTreeMap::new();
            for run in runs {
                for (i, t) in run.iter().enumerate() {
                    let depth = run[..i].iter().filter(|u| u.done > t.now).count() + 1;
                    let one = LinkWindow {
                        bytes: t.wire,
                        frames: 1,
                        busy_ns: t.tx,
                        wait_ns: t.wait,
                        depth_max: depth as u32,
                        ..LinkWindow::default()
                    };
                    out.entry(t.done / LINK_WINDOW_NS).or_default().fold(&one);
                }
            }
            out
        }

        const MS: u64 = 1_000_000;

        #[test]
        fn coarse_buckets_are_exact_folds() {
            let run = schedule(&[
                (0, 100, MS / 2),
                (3 * MS, 103, MS / 2),
                (9 * MS, 109, MS / 2),
                // Requested in window 0 behind the one before it, done
                // at 10.1 ms: window 1.
                (9 * MS, 50, 6 * MS / 10),
                (10 * MS, 110, MS / 2),
                (57 * MS, 157, MS / 2),
                (999 * MS, 999, MS / 2),
                (1000 * MS, 1000, MS / 2),
                (1001 * MS, 1001, MS / 2),
            ]);
            let runs = vec![run];
            let (windows, total) = ring(&runs);
            assert_eq!(windows, folded(&runs));
            assert_eq!(
                windows.keys().copied().collect::<Vec<u64>>(),
                vec![0, 1, 5, 99, 100]
            );
            assert_eq!(windows[&0].bytes, 100 + 103 + 109);
            assert_eq!(windows[&0].depth_max, 1);
            // The late one and the 10 ms request queued behind it.
            assert_eq!(windows[&1].bytes, 50 + 110);
            assert_eq!(windows[&1].depth_max, 2);
            assert_eq!(windows[&1].wait_ns, MS / 2 + MS / 10);
            assert_eq!(total.frames, 9);
        }

        #[test]
        fn push_order_does_not_matter() {
            let runs: Vec<Vec<Tx>> = (0..30u64)
                .map(|i| i * 37 % 400)
                .map(|ms| schedule(&[(ms * MS, ms + 1, MS), (ms * MS, 64, MS / 4)]))
                .collect();
            let reversed: Vec<Vec<Tx>> = runs.iter().rev().cloned().collect();
            assert_eq!(ring(&runs), ring(&reversed));
            assert_eq!(ring(&runs).0, folded(&runs));
        }

        proptest! {
            /// Every link window is the exact fold of the transmissions
            /// that complete in it, and the run total conserves every
            /// transmission.
            #[test]
            fn ladder_is_exact_on_arbitrary_input(
                gaps in prop::collection::vec(0u64..30 * MS, 1..200),
                bytes in prop::collection::vec(1u64..100_000, 1..200),
                tx in prop::collection::vec(1u64..5 * MS, 1..200),
                runs in 1usize..4,
            ) {
                let mut at = 0;
                let reqs: Vec<(u64, u64, u64)> = gaps
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| {
                        at += g;
                        (at, bytes[i % bytes.len()], tx[i % tx.len()])
                    })
                    .collect();
                let per_run = reqs.len().div_ceil(runs);
                let runs: Vec<Vec<Tx>> = reqs.chunks(per_run).map(schedule).collect();
                let (windows, total) = ring(&runs);
                prop_assert_eq!(&windows, &folded(&runs));
                let sum: u64 = reqs.iter().map(|r| r.1).sum();
                prop_assert_eq!(total.bytes, sum);
                prop_assert_eq!(total.frames, reqs.len() as u64);
            }
        }
    }
}
