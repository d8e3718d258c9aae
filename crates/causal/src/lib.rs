//! # fxnet-causal
//!
//! Causal provenance for the simulated testbed: every data byte on the
//! wire traced back to the application operation that caused it, across
//! every layer of the stack.
//!
//! The engine tags each application send with a compact [`CauseId`]
//! (tenant, rank, phase-span, op sequence). The id rides the protocol
//! layer's token side-table — PVM fragment writes, TCP segmentation
//! *and retransmission* (a retransmitted segment keeps its original
//! cause), UDP daemon grams — down to delivered MAC frames, including
//! the collision/backoff history each frame accumulated. Nothing is
//! added to the frames themselves, so a tagged run produces a
//! byte-identical trace to an untagged run.
//!
//! From the tagged stream ([`fxnet_fx::CausalRun`]), read beside the
//! trace it describes (any [`fxnet_sim::TraceRows`]: event `i` is row
//! `i`, and the frame's record lives only in the trace), this crate
//! builds:
//!
//! * [`CauseDag`] — the per-run cause DAG: op → frame emission edges,
//!   frame → frame retransmit edges, protocol-artifact terminals. Frame
//!   provenance is conservation-checked: per op, the distinct delivered
//!   data bytes equal exactly the transport bytes the op committed
//!   ([`CauseDag::check_conservation`]).
//! * [`collective_paths`] — per-collective straggler attribution: which
//!   rank blocked each collective instance, with the straggler's elapsed
//!   time split into compute / serialization / wire / queue / backoff /
//!   retransmit segments that sum exactly to the elapsed simulated time,
//!   and the most contended link named.
//! * [`blame_violation`] — a watcher contract violation's
//!   flight-recorder frames resolved to the causing tenant → rank → op
//!   chains.
//! * [`export`] — the cause DAG as JSON and the critical paths as a
//!   Chrome trace-event (Perfetto-loadable) timeline; the path and blame
//!   types serialize themselves.

pub mod blame;
pub mod critical;
pub mod dag;
pub mod export;

pub use blame::{blame_violation, BlameChain, ViolationBlame};
pub use critical::{
    collective_paths, contended_intervals, intervals_overlap, CollectivePath, SegmentBreakdown,
};
pub use dag::{CauseDag, ConservationError, ConservationReport, Provenance, RowMismatch};
pub use export::{chrome_trace, dag_value, DagJson};
pub use fxnet_sim::{AppCause, CausalEvent, Cause, CauseId, FrameMeta, ProtoCause};
