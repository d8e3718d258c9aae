//! # fxnet-fx
//!
//! An Fx-style SPMD run-time (paper §2) over the simulated PVM system.
//!
//! The Fx compiler parallelizes dense-matrix HPF programs into the Single
//! Program, Multiple Data model: every processor runs the same program on
//! processor-local data, alternating *local computation phases* with
//! *global communication phases*. This crate provides:
//!
//! * [`Pattern`] — the five collective communication patterns of the
//!   paper's Figure 1 (neighbor, all-to-all, partition, broadcast, tree)
//!   plus the shift pattern of §7.3, each with its explicit round
//!   schedule (all-to-all uses the shift schedule the paper mentions).
//! * [`BlockDist`] — the block row/column distribution arithmetic.
//! * [`CostModel`] — maps operation counts of the *real* local
//!   computations to simulated compute-phase durations on a 133 MHz
//!   Alpha 21064-class workstation (the single calibration knob of
//!   DESIGN.md §5), plus messaging software overheads including the
//!   message-assembly "copy loop" the paper describes.
//! * [`run`] — a deterministic process-oriented engine: each rank runs
//!   as a real OS thread executing straight-line SPMD code (`compute` /
//!   `send` / `recv` / `barrier` on a [`RankCtx`]), while a conservative
//!   sequencer on the calling thread interleaves rank progress with the
//!   network simulation in global simulated-time order. Two runs with
//!   the same seed produce byte-identical packet traces, and per-run
//!   state is fully owned, so independent runs may execute concurrently.
//!   One or many programs (tenants) per run; [`RunOptions`] carries the
//!   frame tap, telemetry, deschedule, and causal-capture hooks.
//! * Optional *deschedule injection* — reproducing the paper's
//!   observation that an OS descheduling a processor stalls the whole
//!   synchronous communication schedule and merges bursts.
//!
//! ```
//! use fxnet_fx::{run, GroupSpec, RunOptions, SpmdConfig};
//! use fxnet_pvm::MessageBuilder;
//!
//! let mut cfg = SpmdConfig { p: 2, hosts: 2, ..SpmdConfig::default() };
//! cfg.pvm.heartbeat = None;
//! let group = GroupSpec::single(2, |ctx| {
//!     if ctx.rank() == 0 {
//!         let mut b = MessageBuilder::new(0);
//!         b.pack_u32(&[99]);
//!         ctx.send(1, b.finish());
//!         0
//!     } else {
//!         ctx.recv(0).reader().u32s(1)[0]
//!     }
//! });
//! let result = run(cfg, vec![group], RunOptions::default()).expect("valid config");
//! assert_eq!(result.results, vec![0, 99]);
//! assert!(!result.trace.is_empty()); // the exchange is on the wire
//! ```

pub mod collectives;
pub mod cost;
pub mod dist;
pub mod engine;
pub mod pattern;
mod sequencer;
#[cfg(test)]
mod sequencing_golden;

pub use collectives::{
    all_to_all, broadcast, gather, neighbor_exchange, reduce_tree, scatter, shift,
};
pub use cost::CostModel;
pub use dist::BlockDist;
pub use engine::{
    run, run_single, AppOp, CausalRun, DescheduleConfig, GroupSpec, RankCtx, RunOptions, RunResult,
    SpmdConfig,
};
pub use fxnet_sim::{FxnetError, FxnetResult};
pub use pattern::Pattern;
