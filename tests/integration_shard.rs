//! Cross-crate integration on the load `repro analysis-scale` and the
//! benchmark's `fabric-synth` offer the fabric: the order in which the
//! fabric's per-link lanes release events is held to the pop order of
//! `KeyedQueue`, the one heap the fabric ran on before, and the
//! sequential shim that `benchmark/` drains through (`fxnet-shard`)
//! delivers what the fabric does.

use fxnet::shard::ShardedFabric;
use fxnet::sim::{EtherConfig, Frame, FrameKind, KeyedQueue, NicId};
use fxnet::topo::CompositeFabric;
use fxnet::{HostId, SimTime, TopologySpec};

/// Hosts of the synth-shaped load, eight to a switch.
const HOSTS: u32 = 16;

fn synth_spec() -> TopologySpec {
    TopologySpec::two_switches_trunk(HOSTS, fxnet::sim::RATE_10M)
}

/// The synth-shaped batch load: 16 hosts on two switches, rounds of one
/// frame per host 700 µs apart in two burst groups 300 ms apart, every
/// 16th frame to the mirror host across the trunk and the rest to a
/// neighbour on the sender's own switch.
fn offer_synth(spec: &TopologySpec, mut enqueue: impl FnMut(NicId, Frame, SimTime)) {
    const ROUNDS_PER_GROUP: u32 = 96;
    for i in 0..2 * ROUNDS_PER_GROUP * HOSTS {
        let src = i % HOSTS;
        let dst = if i % 16 == 0 {
            (src + HOSTS / 2) % HOSTS
        } else {
            let half = HOSTS / 2;
            src / half * half + (src + 1) % half
        };
        assert_eq!(
            spec.attachments[src as usize] == spec.attachments[dst as usize],
            i % 16 != 0
        );
        let frame = Frame::tcp(
            HostId(src),
            HostId(dst),
            FrameKind::Data,
            200 + (i * 97) % 1200,
            u64::from(i) + 1,
        );
        let round = u64::from(i / HOSTS);
        let group = u64::from(ROUNDS_PER_GROUP);
        let t_us = (round / group) * (group * 700 + 300_000) + (round % group) * 700;
        enqueue(NicId(src), frame, SimTime::from_micros(t_us));
    }
}

/// The heap as an oracle. Drive the synth load through one fabric, give
/// every processed event's key to a `KeyedQueue`, and require the heap
/// to pop them in the order the lanes released them. The deliveries are
/// those of `fxnet-shard`'s sequential shim, which `benchmark/` still
/// drains this load through.
#[test]
fn lanes_release_events_in_the_keyed_heaps_pop_order_at_shard_counts_1_2() {
    let spec = synth_spec();
    let mut fab = CompositeFabric::new(spec.clone(), &EtherConfig::default(), 1998);
    let mut shim = ShardedFabric::new(spec.clone(), &EtherConfig::default(), 1998, 2);
    assert_eq!(shim.shard_count(), 1);
    offer_synth(&spec, |nic, frame, t| {
        fab.enqueue(nic, frame, t);
        shim.enqueue(nic, frame, t);
    });
    let mut oracle = KeyedQueue::new();
    let mut deliveries = Vec::new();
    while let Some(key) = fab.advance_keyed(&mut deliveries) {
        oracle.push(key, oracle.len());
    }
    let processed = oracle.len();
    let popped: Vec<usize> = std::iter::from_fn(|| oracle.pop())
        .map(|(_, i)| i)
        .collect();
    assert!(
        popped.iter().copied().eq(0..processed),
        "the heap pops the processed keys in another order"
    );
    assert_eq!(deliveries.len(), 2 * 96 * 16);
    let want = shim.drain_parallel();
    assert_eq!((want.violations, want.null_rounds), (0, 0));
    assert_eq!(processed as u64, want.events);
    assert_eq!(deliveries, want.deliveries);
    assert_eq!(shim.stats(), fab.stats());
    assert_eq!(shim.errors(), fab.errors());
}
