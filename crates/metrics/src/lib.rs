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
//! * **Rings** ([`MultiResRing`]): per link direction, utilization /
//!   queue-depth / backoff / collision / retransmit gauges in a
//!   hierarchical ring of rings downsampling 1 ms → 10 ms → 100 ms →
//!   1 s, every coarse bucket the *exact* fold of its fine buckets
//!   (proptested — [`fxnet_sim::LinkWindow::fold`] is the one rule).
//! * **Matrices** ([`TrafficMatrices`]): hypersparse per-window
//!   src×dst traffic matrices over the sorted host-pair id space, with
//!   per-scale [`ScalingRelation`] summaries, Kepner style.
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
pub mod rings;
pub mod rollup;
pub mod sampler;

pub use export::{counter_events, fill_registry, fill_registry_labeled, report_jsonl};
pub use matrix::{
    MatrixAccum, PairSpace, ScalingAccum, ScalingRelation, TrafficMatrices, WindowMatrix,
};
pub use rings::{MultiResRing, DEFAULT_SCALES};
pub use rollup::{
    rollup, strip_direction, windows_to_intervals, FabricRollup, GroupHealth, Hotspot,
    HotspotConfig, LinkHealth,
};
pub use sampler::{FabricSampler, SamplerConfig, WeatherReport};
