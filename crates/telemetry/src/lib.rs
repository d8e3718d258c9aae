//! # fxnet-telemetry
//!
//! Cross-layer instrumentation for the fxnet stack, making the paper's
//! causal claim — every traffic burst is caused by a specific
//! compiler-generated collective phase — measurable instead of asserted:
//!
//! * [`span`] — per-rank phase spans (compute, named collective,
//!   blocked) with simulated-time begin/end, emitted by the SPMD engine.
//! * [`attribution`] — tags every captured frame with the collective
//!   span active on its source rank, yielding the per-phase traffic
//!   tables of the `repro -- phases` experiment.
//! * [`registry`] — the unified counter/gauge registry that MAC, TCP,
//!   PVM and engine counters snapshot into at the end of a run.
//! * [`profile`] — simulator self-profiling (wall-clock per simulated
//!   second, events/sec, per-event-type timing histograms); deliberately
//!   excluded from the deterministic JSON artifact.
//! * [`run`] — the per-run container and the one JSON / JSONL writer
//!   every artifact goes through.
//! * [`trace_event`] — the one Chrome trace-event record every Perfetto
//!   artifact is made of.
//!
//! Only `serde` (plus `fxnet-sim` for time/frame types) is used; the
//! layer adds nothing to the simulation itself and, when disabled,
//! costs nothing on the hot path.

// Nothing in this crate uses `parking_lot`; Cargo.toml declares it only
// because `benchmark/Cargo.lock` pins this crate's dependency list and the
// benchmark runs `--locked` (ROADMAP item 3 drops it at the next re-lock).
pub mod attribution;
pub mod profile;
pub mod prometheus;
pub mod registry;
pub mod run;
pub mod span;
pub mod trace_event;

pub use attribution::{attribute_collectives, AttributedTrace};
pub use profile::{EventClass, SimProfile, TimingHistogram};
pub use prometheus::{labeled, parse_prometheus, prometheus_text, write_prometheus};
pub use registry::TelemetryRegistry;
pub use run::{to_jsonl, write_json_artifact, RunTelemetry};
pub use span::{SpanKind, SpanRecord};
pub use trace_event::{TraceArgs, TraceEvent};
