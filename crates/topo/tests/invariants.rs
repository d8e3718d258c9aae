//! Property tests for the composite fabric's cross-topology invariants:
//! over arbitrary offered loads on the four canonical topologies and the
//! one-switch star, per-hop `FrameMeta` accounting sums exactly to
//! end-to-end elapsed time, every switch and router conserves frames and
//! bytes, protocol tokens survive the transit-slab swap, and runs are a
//! pure function of the seed. The star is also held to the stand-alone
//! switch model it replaced, kept here as a reference.

use fxnet_sim::{
    EtherConfig, Frame, FrameKind, HostId, NicId, SimTime, RATE_100M, RATE_10M, RATE_1G,
};
use fxnet_topo::spec::DEFAULT_SWITCH_LATENCY;
use fxnet_topo::{CompositeFabric, NodeKind, TopologySpec};
use proptest::prelude::*;
use std::collections::HashMap;

const HOSTS: u32 = 6;

/// One of the four canonical sweep topologies, or the one-switch star,
/// at one of the three sweep rates, by index.
fn spec_for(topo: usize, rate: usize) -> TopologySpec {
    let rate = [RATE_10M, RATE_100M, RATE_1G][rate % 3];
    let mut pool = TopologySpec::sweep_set(HOSTS, rate);
    pool.push(TopologySpec::single_switch(HOSTS, rate));
    pool.swap_remove(topo % 5)
}

/// An offered load: `(src, dst offset, payload, enqueue time µs)` per
/// frame. The destination offset is nonzero so no frame is self-addressed.
type Load = Vec<(u32, u32, u32, u64)>;

fn drive(spec: TopologySpec, seed: u64, load: &Load) -> CompositeFabric {
    let mut fab = CompositeFabric::new(spec, &EtherConfig::default(), seed);
    for (i, &(src, off, payload, at)) in load.iter().enumerate() {
        let src = src % HOSTS;
        let dst = (src + 1 + off % (HOSTS - 1)) % HOSTS;
        let f = Frame::tcp(
            HostId(src),
            HostId(dst),
            FrameKind::Data,
            payload,
            i as u64 + 1,
        );
        fab.enqueue(NicId(src), f, SimTime::from_micros(at));
    }
    fab
}

/// The stand-alone store-and-forward switch that `single_switch`
/// replaced, as a model: `(delivery time, token)` of every frame of
/// `load` (`(frame, enqueue time)`, offered in order), in the order that
/// fabric delivered them. Uplinks serialise in enqueue order; the switch
/// takes arrivals by `(time, enqueue order)` and queues each on its
/// destination's downlink; deliveries at one instant come out in the
/// order their arrivals were taken — where the compiled fabric orders
/// them by enqueue order (fabric-entry stamp), the one difference.
fn reference_switch(hosts: u32, load: &[(Frame, SimTime)]) -> Vec<(SimTime, u64)> {
    let mut up = vec![SimTime::ZERO; hosts as usize];
    let mut down = up.clone();
    let mut arrivals: Vec<(SimTime, usize)> = Vec::new();
    for (seq, &(f, now)) in load.iter().enumerate() {
        let port = &mut up[f.src.0 as usize];
        *port = (*port).max(now) + f.tx_time(RATE_10M);
        arrivals.push((*port + DEFAULT_SWITCH_LATENCY, seq));
    }
    arrivals.sort_unstable();
    let mut delivered: Vec<(SimTime, usize, u64)> = Vec::new();
    for (taken, &(at, seq)) in arrivals.iter().enumerate() {
        let f = load[seq].0;
        let port = &mut down[f.dst.0 as usize];
        *port = (*port).max(at) + f.tx_time(RATE_10M);
        delivered.push((*port, taken, f.token));
    }
    delivered.sort_unstable();
    delivered.into_iter().map(|(t, _, tok)| (t, tok)).collect()
}

/// `load` through the compiled one-switch star: `(delivery time, token)`
/// in delivery order.
fn compiled_switch(hosts: u32, load: &[(Frame, SimTime)]) -> Vec<(SimTime, u64)> {
    let spec = TopologySpec::single_switch(hosts, RATE_10M);
    let mut fab = CompositeFabric::new(spec, &EtherConfig::default(), 1);
    for &(f, now) in load {
        fab.enqueue(NicId(f.src.0), f, now);
    }
    let out = fab.run_to_idle();
    out.iter().map(|d| (d.time, d.frame.token)).collect()
}

/// The residual, pinned: two frames leave the switch at the same
/// nanosecond on different ports. `b` entered the fabric first but
/// queued behind `x` on its uplink, so `a` reached the switch before it.
/// The old fabric delivered `a` first (arrival order), the compiled one
/// delivers `b` first (entry order). SOR's switched trace has such pairs
/// (DESIGN.md §8); nothing downstream reads the order inside an instant.
#[test]
fn deliveries_at_one_instant_go_by_entry_order_not_arrival_order() {
    let data = |src, dst, payload, token| {
        Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, payload, token)
    };
    let (x, b, a) = (
        data(0, 1, 1460, 1),
        data(0, 2, 1000, 2),
        data(3, 4, 1460, 3),
    );
    // `a` starts late by exactly what `b` loses: 2 × tx(b) − tx(a).
    let late = b.tx_time(RATE_10M) + b.tx_time(RATE_10M) - a.tx_time(RATE_10M);
    let load = [(x, SimTime::ZERO), (b, SimTime::ZERO), (a, late)];
    let (old, new) = (reference_switch(5, &load), compiled_switch(5, &load));
    assert_eq!(old[1].0, old[2].0, "a and b leave together");
    assert_eq!([old[1].1, old[2].1], [3, 2]);
    assert_eq!([new[1].1, new[2].1], [2, 3]);
    assert_eq!((old[0], old[1].0), (new[0], new[1].0));
}

proptest! {
    /// `queue_ns + backoff_ns + tx_ns` equals the frame's end-to-end
    /// elapsed time to the nanosecond, on every topology, and every
    /// enqueued token comes back exactly once (delivered or errored).
    #[test]
    fn per_hop_meta_sums_to_end_to_end_elapsed(
        topo in 0usize..5,
        rate in 0usize..3,
        load in prop::collection::vec((0u32..HOSTS, 0u32..8, 0u32..1400, 0u64..150_000), 1..48),
    ) {
        let mut fab = drive(spec_for(topo, rate), 17, &load);
        let entered: HashMap<u64, SimTime> = load
            .iter()
            .enumerate()
            .map(|(i, &(_, _, _, at))| (i as u64 + 1, SimTime::from_micros(at)))
            .collect();
        let out = fab.run_to_idle();
        prop_assert!(fab.idle());
        let mut seen: Vec<u64> = out.iter().map(|d| d.frame.token).collect();
        for d in &out {
            let e = entered[&d.frame.token];
            prop_assert_eq!(
                d.meta.queue_ns + d.meta.backoff_ns + d.meta.tx_ns,
                (d.time - e).as_nanos(),
                "token {}", d.frame.token
            );
        }
        seen.extend(fab.errors().iter().map(|(_, f, _)| f.token));
        seen.sort_unstable();
        let expected: Vec<u64> = (1..=load.len() as u64).collect();
        prop_assert_eq!(seen, expected, "every token exactly once");
    }

    /// Once drained, every switch and router node conserves frames and
    /// bytes exactly: what finished arriving equals what was handed on.
    #[test]
    fn switches_and_routers_conserve_frames_and_bytes(
        topo in 0usize..5,
        rate in 0usize..3,
        load in prop::collection::vec((0u32..HOSTS, 0u32..8, 0u32..1400, 0u64..150_000), 1..48),
    ) {
        let spec = spec_for(topo, rate);
        let kinds: Vec<NodeKind> = spec.nodes.iter().map(|n| n.kind).collect();
        let label = spec.label();
        let mut fab = drive(spec, 23, &load);
        let _ = fab.run_to_idle();
        prop_assert!(fab.idle());
        for (n, flow) in fab.flows().iter().enumerate() {
            if kinds[n] != NodeKind::Segment {
                prop_assert_eq!(flow.frames_in, flow.frames_out, "{} node {}", label, n);
                prop_assert_eq!(flow.bytes_in, flow.bytes_out, "{} node {}", label, n);
            }
        }
    }

    /// Deliveries (time, frame and meta) are a pure function of
    /// (spec, seed, load): the determinism `--jobs` fan-out relies on.
    #[test]
    fn runs_are_a_pure_function_of_the_seed(
        topo in 0usize..5,
        seed in 0u64..1_000,
        load in prop::collection::vec((0u32..HOSTS, 0u32..8, 0u32..1400, 0u64..150_000), 1..32),
    ) {
        let run = |seed| drive(spec_for(topo, 0), seed, &load).run_to_idle();
        prop_assert_eq!(run(seed), run(seed));
    }

    /// The compiled one-switch star against the model of the fabric it
    /// replaced, on 2–8 hosts: the same frames delivered at the same
    /// nanoseconds, in an order that differs at most inside a group of
    /// equal delivery times.
    #[test]
    fn single_switch_delivers_when_the_old_switch_fabric_did(
        hosts in 2u32..9,
        load in prop::collection::vec((0u32..8, 0u32..8, 0u32..1400, 0u64..40_000), 1..64),
    ) {
        // Enqueue times rise, as the protocol stack's clock does.
        let mut now = 0;
        let load: Vec<(Frame, SimTime)> = load
            .iter()
            .enumerate()
            .map(|(i, &(src, off, payload, gap))| {
                let src = src % hosts;
                let dst = (src + 1 + off % (hosts - 1)) % hosts;
                now += gap * (i as u64 % 3);
                let f = Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, payload, i as u64);
                (f, SimTime::from_nanos(now))
            })
            .collect();
        let (mut old, mut new) = (reference_switch(hosts, &load), compiled_switch(hosts, &load));
        let times = |v: &[(SimTime, u64)]| v.iter().map(|&(t, _)| t).collect::<Vec<_>>();
        prop_assert_eq!(times(&old), times(&new), "same instants, in order");
        old.sort_unstable();
        new.sort_unstable();
        prop_assert_eq!(old, new, "every frame at its old time");
    }
}
