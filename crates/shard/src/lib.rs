//! # fxnet-shard
//!
//! A sequential shim over one [`CompositeFabric`]. There is no threaded
//! drain: [`ShardedFabric::drain_parallel`] runs the fabric's own event
//! loop on the calling thread, and [`ShardedFabric::shard_count`] is
//! always 1. Measured on the synthesis load, one shard drained faster
//! than two in every traced run (DESIGN.md §13).
//!
//! The names are kept for `benchmark/` only (`synth.rs` and
//! `fabricbench.rs`), which runs `--locked` against this crate's
//! dependency edges. Nothing else may call it: CI's Layering step fails
//! on any other use. ROADMAP item 1's benchmark change deletes this
//! crate; a batch load is drained with [`CompositeFabric::enqueue`] and
//! [`CompositeFabric::run_to_idle`].

use fxnet_sim::ethernet::Delivery;
use fxnet_sim::{EtherConfig, EtherStats, Frame, NicId, SimTime, TxError};
use fxnet_topo::{CompositeFabric, TopologySpec};

/// What a drain delivered. The protocol counters of the threaded drain
/// survive as constants: nothing runs that could violate causality or
/// wait on a peer.
#[derive(Debug)]
pub struct DrainOutcome {
    /// Every final delivery, in event order.
    pub deliveries: Vec<Delivery>,
    /// Fabric events processed.
    pub events: u64,
    /// Always 0.
    pub violations: u64,
    /// Always 0.
    pub null_rounds: u64,
}

/// One [`CompositeFabric`] under the threaded drain's old names.
pub struct ShardedFabric {
    fabric: CompositeFabric,
}

impl ShardedFabric {
    /// Compile `spec`; the shard count is ignored.
    pub fn new(
        spec: TopologySpec,
        ether: &EtherConfig,
        seed: u64,
        _shards: usize,
    ) -> ShardedFabric {
        ShardedFabric {
            fabric: CompositeFabric::new(spec, ether, seed),
        }
    }

    /// Always 1.
    pub fn shard_count(&self) -> usize {
        1
    }

    /// [`CompositeFabric::enqueue`].
    pub fn enqueue(&mut self, nic: NicId, frame: Frame, now: SimTime) {
        self.fabric.enqueue(nic, frame, now);
    }

    /// [`CompositeFabric::errors`].
    pub fn errors(&self) -> &[(SimTime, Frame, TxError)] {
        self.fabric.errors()
    }

    /// [`CompositeFabric::stats`].
    pub fn stats(&self) -> EtherStats {
        self.fabric.stats()
    }

    /// Drain every pending event on the calling thread, counting events.
    pub fn drain_parallel(&mut self) -> DrainOutcome {
        let mut deliveries = Vec::new();
        let mut events = 0;
        while self.fabric.advance(&mut deliveries).is_some() {
            events += 1;
        }
        DrainOutcome {
            deliveries,
            events,
            violations: 0,
            null_rounds: 0,
        }
    }
}
