//! Cross-crate integration for the threaded drain (`fxnet-shard`), which
//! no program runs: on the load `repro analysis-scale` and the
//! benchmark's `fabric-synth` offer it, two shards must merge to exactly
//! what one delivers — and on that load the order in which the fabric's
//! per-link lanes release events is held to the pop order of
//! `KeyedQueue`, the one heap the fabric ran on before, whole and cut in
//! two.

use fxnet::shard::ShardedFabric;
use fxnet::sim::{EtherConfig, Frame, FrameKind, KeyedQueue, NicId};
use fxnet::topo::{CompositeFabric, Partition};
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

fn synth_loaded(seed: u64, shards: usize) -> ShardedFabric {
    let spec = synth_spec();
    let mut fab = ShardedFabric::new(spec.clone(), &EtherConfig::default(), seed, shards);
    offer_synth(&spec, |nic, frame, t| fab.enqueue(nic, frame, t));
    fab
}

#[test]
fn threaded_drain_of_the_synth_load_is_identical_at_shard_counts_1_2() {
    for seed in [7u64, 1998] {
        let mut base = synth_loaded(seed, 1);
        let want = base.drain_parallel();
        assert_eq!(want.deliveries.len(), 2 * 96 * 16);
        let mut split = synth_loaded(seed, 2);
        assert_eq!(split.shard_count(), 2);
        let got = split.drain_parallel();
        assert_eq!(got.violations, 0, "seed={seed}");
        assert_eq!(got.events, want.events, "seed={seed}: event count diverged");
        assert_eq!(
            got.deliveries, want.deliveries,
            "seed={seed}: deliveries diverged"
        );
        assert_eq!(split.stats(), base.stats(), "seed={seed}: MAC statistics");
        assert_eq!(split.flows(), base.flows(), "seed={seed}: node flows");
        assert_eq!(split.errors(), base.errors(), "seed={seed}: errors");
        // One frame a round crosses, all from sw0.
        let sent: Vec<u64> = got.per_shard.iter().map(|s| s.crossings_sent).collect();
        assert_eq!(sent, [2 * 96, 0], "seed={seed}");
        // The whole load is enqueued before the drain and a frame holds
        // one scheduled event at a time, so an event list peaks at once —
        // except sw1's, which takes in the crossers as fast as sw0's
        // thread sends them.
        let peak = |o: &fxnet::shard::DrainOutcome| -> Vec<u64> {
            o.per_shard.iter().map(|s| s.pending_high_water).collect()
        };
        assert_eq!(peak(&want), [2 * 96 * 16], "seed={seed}");
        let split_peak = peak(&got);
        assert_eq!(split_peak[0], 96 * 16, "seed={seed}");
        assert!(
            (96 * 16..=96 * 16 + 2 * 96).contains(&split_peak[1]),
            "seed={seed}: {split_peak:?}"
        );
    }
}

/// The heap as an oracle. Drive the synth load through one whole fabric
/// and through two scoped ones (least next key first, crossings injected
/// at once — what the drain's merge reproduces), give every processed
/// event's key to a `KeyedQueue`, and require the heap to pop them in the
/// order the lanes released them; the deliveries are the threaded
/// drain's.
#[test]
fn lanes_release_events_in_the_keyed_heaps_pop_order_at_shard_counts_1_2() {
    let ether = EtherConfig::default();
    for shards in [1usize, 2] {
        let spec = synth_spec();
        let part = Partition::new(&spec, shards);
        assert_eq!(part.shards, shards);
        let mut fabs: Vec<CompositeFabric> = (0..shards)
            .map(|s| {
                let mut fab = CompositeFabric::new(spec.clone(), &ether, 1998);
                if shards > 1 {
                    fab.set_scope(part.owned_mask(s));
                }
                fab
            })
            .collect();
        let mut stamp = 0;
        offer_synth(&spec, |nic, frame, t| {
            fabs[part.host_shard[nic.0 as usize]].enqueue_stamped(nic, frame, t, stamp);
            stamp += 1;
        });
        let mut oracle = KeyedQueue::new();
        let (mut deliveries, mut crossed) = (Vec::new(), Vec::new());
        while let Some((_, s)) = (0..shards)
            .filter_map(|s| fabs[s].next_key().map(|k| (k, s)))
            .min()
        {
            let key = fabs[s].advance_keyed(&mut deliveries).expect("peeked");
            oracle.push(key, oracle.len());
            fabs[s].drain_outbox(&mut crossed);
            for cf in crossed.drain(..) {
                fabs[part.node_shard[cf.node()]].inject(cf);
            }
        }
        let processed = oracle.len();
        let popped: Vec<usize> = std::iter::from_fn(|| oracle.pop())
            .map(|(_, i)| i)
            .collect();
        assert!(
            popped.iter().copied().eq(0..processed),
            "{shards} shard(s): the heap pops the processed keys in another order"
        );
        let want = synth_loaded(1998, shards).drain_parallel();
        assert_eq!(processed as u64, want.events, "{shards} shard(s)");
        assert_eq!(deliveries, want.deliveries, "{shards} shard(s)");
    }
}
