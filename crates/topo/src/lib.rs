//! fxnet-topo: declarative multi-segment switched topologies.
//!
//! The measured testbed in the source paper is a single shared 10 Mb/s
//! Ethernet; its analysis, though, is parameterized on *provided
//! bandwidth*, and the natural next instrument is a LAN whose provided
//! bandwidth varies by where you stand: hosts behind different switches
//! see full port rate locally but contend on an oversubscribed trunk.
//! This crate describes such fabrics declaratively — hosts, shared-bus
//! collision domains, store-and-forward switches, routers, and
//! trunk/uplink links at 10/100/1000 Mb/s with per-link propagation
//! delay — and compiles the description into a [`CompositeFabric`] that
//! drives the existing `fxnet-sim` elements behind the same pull
//! interface the protocol stack already speaks.
//!
//! - [`spec`] — the topology graph ([`TopologySpec`]), validation, and
//!   BFS-derived forwarding tables, plus the four canonical shapes the
//!   fabric bandwidth sweep exercises and the one-switch star of the
//!   DESIGN.md §8 ablation.
//! - [`fabric`] — the compiled [`CompositeFabric`]: per-segment
//!   [`EtherBus`](fxnet_sim::EtherBus) instances, per-trunk output
//!   queues on the calendar event queue, exact per-hop
//!   [`FrameMeta`](fxnet_sim::FrameMeta) accounting, and deterministic
//!   event ordering so traces are byte-identical across thread counts.
//! - [`partition`] — the shard [`Partition`]: contiguous host-balanced
//!   node blocks (one shard per switch subtree by default), cut trunks,
//!   and per-direction inter-shard channel lookaheads for the
//!   conservative parallel core in `fxnet-shard`.

pub mod fabric;
pub mod partition;
pub mod spec;
// Tests only: the one-switch star against its closed forms.
mod switch;

pub use fabric::{CompositeFabric, CrossFrame, NodeFlow};
pub use partition::{min_frame_tx, Partition, ShardChannel};
pub use spec::{Node, NodeKind, TopologySpec, Trunk};
