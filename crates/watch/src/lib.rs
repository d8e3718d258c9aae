//! # fxnet-watch
//!
//! Streaming trace analysis and online QoS-contract compliance.
//!
//! The paper's methodology is strictly offline: capture a promiscuous
//! trace, then analyze it (bandwidth series, periodogram, burst
//! structure, the `[l, b, c]` descriptor). This crate is the *online*
//! counterpart: an observer attached to the simulator's frame tap
//! ([`fxnet_sim::FrameTap`]) that maintains, incrementally and in O(1)
//! amortized work per frame:
//!
//! * the sliding 10 ms-window bandwidth of §6.1 ([`fxnet_trace::SlidingBandwidth`]),
//! * an online periodogram at the admitted tenants' contract
//!   frequencies (a sliding DFT; [`fxnet_spectral::SlidingDft`]),
//! * per-connection burst structure (start / length / gap), and
//! * a live estimate of each tenant's effective `[l, b, c]`
//!   ([`LiveEstimate`], from `fxnet-qos`'s one traffic estimator,
//!   [`BurstEstimator`]), checked continuously against the descriptor
//!   the tenant presented to `fxnet-mix`'s admission controller.
//!
//! When a tenant's measured traffic exceeds its *claimed* contract the
//! watcher emits a structured event — a latched [`EventKind::ContractViolation`]
//! or a bounded-count [`EventKind::BurstAnomaly`] — carrying a
//! flight-recorder dump of the frames that led up to it. Results export
//! three ways: a Prometheus text snapshot (via
//! [`fxnet_telemetry::prometheus_text`]), a JSONL event log
//! ([`WatchReport::events_jsonl`]), and the in-memory [`WatchReport`].
//!
//! The tap observes records the tracer captures anyway, so the watcher
//! cannot perturb the simulation: the trace is byte-identical with and
//! without it, and — because its state is a pure function of the frame
//! stream — everything it emits is deterministic under a fixed seed.
//!
//! The watcher has no options. Its parameters are the constants of
//! [`config`], each documented with its reason: the 10 ms [`WINDOW`]
//! and [`BIN`], the [`DFT_WINDOW`] and [`HARMONICS`] of the spectral
//! tracker, the [`FLIGHT_RECORDER`] depth, the compliance rule
//! ([`WARMUP_BINS`], [`MEAN_WINDOW_BINS`], [`BREACH_BINS`],
//! [`MEAN_TOLERANCE`], [`BURST_TOLERANCE`]), the [`BURST_GAP`] and the
//! [`MAX_ANOMALIES`] cap.

pub mod config;
pub mod estimator;
pub mod event;
pub mod recorder;
pub mod watch;

pub use config::{
    BIN, BREACH_BINS, BURST_GAP, BURST_TOLERANCE, DFT_WINDOW, FLIGHT_RECORDER, HARMONICS,
    MAX_ANOMALIES, MEAN_TOLERANCE, MEAN_WINDOW_BINS, WARMUP_BINS, WINDOW,
};
pub use estimator::{BurstEstimator, LiveEstimate};
pub use event::{EventKind, WatchEvent};
pub use recorder::FlightRecorder;
pub use watch::{SpectralPeak, StreamWatch, TenantContract, TenantReport, WatchReport};
