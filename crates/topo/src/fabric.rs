//! The composite fabric: a [`TopologySpec`] compiled into a running
//! multi-segment network behind the exact pull interface `fxnet-proto`
//! already drives (`enqueue` / `next_event_time` / `advance` / `idle`,
//! promiscuous trace, live [`FrameTap`], surfaced transmit errors).
//!
//! Element reuse: every `Segment` node *is* an [`EtherBus`] — the full
//! CSMA/CD machine with its own deterministic RNG stream — while switch
//! and router ports and inter-node trunks share one store-and-forward
//! discipline (a free-time scalar per simplex link, output queuing under
//! the explicit [`EventKey`] order) over arbitrary hop counts; its
//! smallest case, [`TopologySpec::single_switch`], is the DESIGN.md §8
//! switch counterfactual. The key order — time, then
//! calendar-before-bus, then fabric-entry stamp and per-frame hop — is a
//! pure function of the offered load, which is what lets `fxnet-shard`
//! split one fabric across worker threads and still merge a
//! byte-identical event stream.
//!
//! The event list is a [`LaneQueue`] with one lane per simplex link:
//! lane `h` is host `h`'s uplink, `hosts + h` its downlink, and
//! `2 * hosts + 2 * trunk + dir` one trunk direction (fed by `forward`
//! when the hop is local, by `inject` when the trunk is cut). A link's
//! free-time scalar moves forward by a positive transmit time at every
//! use, so the keys pushed on one lane strictly increase, which is all
//! the lanes need to merge into the key order (DESIGN.md §11).
//!
//! Token smuggling: the protocol layer correlates deliveries through
//! `Frame::token`, but a multi-hop frame needs composite-side bookkeeping
//! between hops. On entry every frame's token is swapped for a transit id
//! into a side slab (original token, entry time, accumulated
//! [`FrameMeta`], bottleneck candidates); the original token is restored
//! at final delivery — and on surfaced errors — so the layer above never
//! sees the swap. `FrameRecord` carries no token, so the promiscuous
//! trace is unaffected: a single-segment topology reproduces the legacy
//! shared-bus trace byte for byte.
//!
//! Timing accounting is exact: at final delivery
//! `meta.queue_ns + meta.backoff_ns + meta.tx_ns` equals the frame's
//! end-to-end elapsed time to the nanosecond. Fixed per-hop costs
//! (forwarding latency, trunk propagation) are charged to `queue_ns`;
//! wire occupancy of every hop sums into `tx_ns`; CSMA/CD backoff on
//! segments sums into `backoff_ns`. The trunk whose queue out-waited
//! every access hop is recorded in `meta.trunk` so causal critical paths
//! can name the contended inter-node link.

use crate::spec::{NodeKind, TopologySpec, Trunk};
use fxnet_sim::ethernet::Delivery;
use fxnet_sim::{
    EtherBus, EtherConfig, EtherStats, EventKey, Frame, FrameMeta, FrameRecord, FrameTap,
    LaneQueue, LinkProbe, LinkStats, NicId, SimRng, SimTime, TxError,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-frame state while it crosses the fabric.
#[derive(Debug)]
struct Transit {
    /// The protocol layer's original token, restored at delivery.
    token: u64,
    /// Fabric-entry stamp: the global enqueue sequence number, the major
    /// calendar tie-break of the frame's [`EventKey`]s.
    stamp: u64,
    /// Scheduled-event counter for this transit (the minor tie-break).
    hop: u64,
    /// Entry time (the `enqueue` instant), for the exact-sum invariant.
    entered: SimTime,
    /// Accumulated timing across hops.
    meta: FrameMeta,
    /// Worst access-hop wait seen (bus queue+backoff, port queue), ns.
    best_access_ns: u64,
    /// Worst trunk wait seen: `(wait_ns, trunk_code)`.
    best_trunk: Option<(u64, u32)>,
}

/// A frame mid-flight across a cut trunk: everything the receiving
/// shard's fabric needs to resume the transit as if the hop had been
/// local. Produced by a scoped fabric's outbox, consumed by
/// [`CompositeFabric::inject`].
#[derive(Debug)]
pub struct CrossFrame {
    /// When the frame finishes arriving at the far node (trunk tx done +
    /// propagation + far node's store-and-forward latency).
    arrival: SimTime,
    /// The far node (owned by the receiving shard).
    node: usize,
    /// The arrival event's key — identical to the key the hop would have
    /// used had it stayed local, so merged event order is shard-blind.
    key: EventKey,
    /// The cut trunk the frame crossed.
    trunk: usize,
    /// Direction on that trunk: 0 = a→b, 1 = b→a.
    dir: usize,
    /// The frame; its token field is reassigned by `inject`.
    frame: Frame,
    /// The transit record, carried across (token = original protocol
    /// token).
    transit: Transit,
}

impl CrossFrame {
    /// Arrival instant at the receiving shard.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// Global index of the receiving node.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The arrival event's key.
    pub fn key(&self) -> EventKey {
        self.key
    }

    /// The cut trunk crossed.
    pub fn trunk(&self) -> usize {
        self.trunk
    }

    /// Direction on that trunk: 0 = a→b, 1 = b→a.
    pub fn dir(&self) -> usize {
        self.dir
    }
}

/// Shard scoping of a fabric: the owned-node mask, the outbox of frames
/// that crossed a cut trunk toward another shard, and the exit
/// bookkeeping behind the threaded drain's lookahead. A cut-trunk
/// direction is named by its *slot*, `2 * trunk + dir`.
struct ShardScope {
    owned: Vec<bool>,
    outbox: Vec<CrossFrame>,
    /// `exit_of[n][d]`: the slot through which a frame at owned node `n`
    /// bound for node `d` leaves this shard, `None` when its route ends
    /// inside. Static: the forwarding tables walked until the first
    /// hop onto a node that is not owned.
    exit_of: Vec<Vec<Option<usize>>>,
    /// Per slot, one entry for every frame inside the shard that will
    /// leave through it: a time before which the frame has no event (its
    /// scheduled arrival at a node, or the instant it was queued on a
    /// segment). An entry is released when that event fires, so it and
    /// everything below it are at or below the shard clock by then; the
    /// drain clamps the minimum up to the next local event, which makes
    /// such entries interchangeable — releasing always pops the minimum.
    pending_exits: Vec<BinaryHeap<Reverse<SimTime>>>,
    /// `(entry slot, exit slot)` pairs: some destination routes a frame
    /// in over the entry and on out through the exit.
    feeds: Vec<(usize, usize)>,
}

/// Direction (0 = a→b) and far end of `trunk` as seen from node `from`.
fn trunk_hop(trunk: &Trunk, from: usize) -> (usize, usize) {
    if trunk.a == from {
        (0, trunk.b)
    } else {
        (1, trunk.a)
    }
}

/// Passive per-link samplers (the fabric weather-map feed): one
/// [`LinkProbe`] per trunk direction and per switch/router host port.
/// Purely observational — no RNG draws, no scheduled events, no effect
/// on frame timing — so a sampled run's trace is byte-identical to an
/// unsampled one.
struct FabricProbes {
    /// Per trunk, per direction (0 = a→b).
    trunks: Vec<[LinkProbe; 2]>,
    /// Per host: dedicated uplink / downlink (switch/router attachments
    /// only; segment-attached hosts share their bus's sampler).
    up: Vec<LinkProbe>,
    down: Vec<LinkProbe>,
}

/// One scheduled fabric event.
enum TopoEvent {
    /// Frame fully received at `node` (store-and-forward complete);
    /// forward it toward its destination.
    AtNode { node: usize, frame: Frame },
    /// Final access-link transmission finished: deliver to the host.
    Deliver { frame: Frame },
}

/// Per-node frame/byte flow counters (conservation bookkeeping).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeFlow {
    /// Frames/bytes that finished arriving at this node.
    pub frames_in: u64,
    pub bytes_in: u64,
    /// Frames/bytes this node finished handing onward (next link or
    /// final delivery).
    pub frames_out: u64,
    pub bytes_out: u64,
}

/// A [`TopologySpec`] compiled and running.
pub struct CompositeFabric {
    spec: TopologySpec,
    /// `next_hop[n][d]` = trunk index out of node `n` toward node `d`.
    next_hop: Vec<Vec<Option<usize>>>,
    /// One `EtherBus` per `Segment` node (`None` for switches/routers).
    buses: Vec<Option<EtherBus>>,
    /// Host → NIC on its segment's bus (unused for switch-attached hosts).
    host_nic: Vec<NicId>,
    /// Per node: bridge NIC for each trunk interface, keyed by trunk
    /// index (segments only).
    bridge_nic: Vec<Vec<(usize, NicId)>>,
    /// Per host: next instant its dedicated uplink / downlink is free
    /// (switch/router attachments only).
    up_free: Vec<SimTime>,
    down_free: Vec<SimTime>,
    /// Per trunk, per direction (0 = a→b): next free instant.
    trunk_free: Vec<[SimTime; 2]>,
    /// The event list, one lane per simplex link (see the module docs).
    events: LaneQueue<TopoEvent>,
    /// Next fabric-entry stamp (when not overridden by a sharded owner).
    next_stamp: u64,
    /// Time of the last processed event (monotone; causality guard for
    /// [`CompositeFabric::inject`]).
    clock: SimTime,
    /// Shard scoping, when this fabric is one shard of a partition.
    scope: Option<ShardScope>,
    transits: Vec<Option<Transit>>,
    transit_free: Vec<u32>,
    /// Per-bus count of errors already drained into `errors`.
    bus_errors_seen: Vec<usize>,
    errors: Vec<(SimTime, Frame, TxError)>,
    flows: Vec<NodeFlow>,
    promiscuous: bool,
    trace: Vec<FrameRecord>,
    tap: Option<FrameTap>,
    frames_delivered: u64,
    bytes_delivered: u64,
    /// Wire occupancy of non-bus links (ports and trunks), ns.
    link_busy_ns: u64,
    /// Per-link sample probes, when sampling is enabled.
    probes: Option<FabricProbes>,
    scratch: Vec<Delivery>,
}

impl CompositeFabric {
    /// Compile `spec` into a running fabric. Segment `EtherBus` instances
    /// clone `ether` with the node's rate; node 0's RNG stream is seeded
    /// with `seed` exactly (single-segment byte-identity with the legacy
    /// bus), further segments derive independent streams from it.
    ///
    /// # Panics
    /// If the spec fails [`TopologySpec::validate`].
    pub fn new(spec: TopologySpec, ether: &EtherConfig, seed: u64) -> CompositeFabric {
        spec.validate().unwrap_or_else(|e| panic!("topology: {e}"));
        let next_hop = spec.forwarding();
        let n = spec.nodes.len();
        let hosts = spec.host_count();
        let mut buses: Vec<Option<EtherBus>> = Vec::with_capacity(n);
        for (i, node) in spec.nodes.iter().enumerate() {
            buses.push(match node.kind {
                NodeKind::Segment => {
                    let cfg = EtherConfig {
                        bandwidth_bps: node.rate_bps,
                        ..ether.clone()
                    };
                    let node_seed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64);
                    Some(EtherBus::new(cfg, SimRng::new(node_seed)))
                }
                NodeKind::Switch | NodeKind::Router => None,
            });
        }
        // NIC layout per segment: attached hosts in global host order,
        // then one bridge NIC per incident trunk in trunk-index order.
        // (On a single segment this reproduces the legacy NicId(h) map.)
        let mut host_nic = vec![NicId(0); hosts];
        for (h, &node) in spec.attachments.iter().enumerate() {
            if let Some(bus) = &mut buses[node] {
                host_nic[h] = bus.attach();
            }
        }
        let mut bridge_nic: Vec<Vec<(usize, NicId)>> = vec![Vec::new(); n];
        for (ti, t) in spec.trunks.iter().enumerate() {
            for end in [t.a, t.b] {
                if let Some(bus) = &mut buses[end] {
                    bridge_nic[end].push((ti, bus.attach()));
                }
            }
        }
        CompositeFabric {
            next_hop,
            buses,
            host_nic,
            bridge_nic,
            up_free: vec![SimTime::ZERO; hosts],
            down_free: vec![SimTime::ZERO; hosts],
            trunk_free: vec![[SimTime::ZERO; 2]; spec.trunks.len()],
            events: LaneQueue::new(2 * hosts + 2 * spec.trunks.len()),
            next_stamp: 0,
            clock: SimTime::ZERO,
            scope: None,
            transits: Vec::new(),
            transit_free: Vec::new(),
            bus_errors_seen: vec![0; n],
            errors: Vec::new(),
            flows: vec![NodeFlow::default(); n],
            promiscuous: false,
            trace: Vec::new(),
            tap: None,
            frames_delivered: 0,
            bytes_delivered: 0,
            link_busy_ns: 0,
            probes: None,
            scratch: Vec::new(),
            spec,
        }
    }

    /// Enable or disable passive per-link sampling into
    /// [`fxnet_sim::LINK_WINDOW_NS`] windows. Sampling covers
    /// every trunk direction, every segment bus, and every switch/router
    /// host port; it is strictly observational and leaves the trace
    /// byte-identical.
    pub fn set_link_sampling(&mut self, on: bool) {
        for bus in self.buses.iter_mut().flatten() {
            bus.set_link_sampling(on);
        }
        let hosts = self.spec.host_count();
        self.probes = on.then(|| FabricProbes {
            trunks: vec![<[LinkProbe; 2]>::default(); self.spec.trunks.len()],
            up: vec![LinkProbe::new(); hosts],
            down: vec![LinkProbe::new(); hosts],
        });
    }

    /// Take the accumulated per-link sample series (resetting every
    /// probe), labeled in a fixed deterministic order: trunks
    /// (`trunk:n{a}-n{b}:fwd` then `:rev`, trunk-index order), segments
    /// (`seg:{name}`, node order), then switch/router host ports
    /// (`host:h{h}:up` / `:down`, host order). `None` when sampling is
    /// disabled.
    pub fn take_link_stats(&mut self) -> Option<LinkStats> {
        let mut p = self.probes.take()?;
        let mut links = Vec::new();
        for (ti, t) in self.spec.trunks.iter().enumerate() {
            let label = format!("trunk:n{}-n{}", t.a, t.b);
            links.push((format!("{label}:fwd"), p.trunks[ti][0].take()));
            links.push((format!("{label}:rev"), p.trunks[ti][1].take()));
        }
        for (i, node) in self.spec.nodes.iter().enumerate() {
            if let Some(bus) = &mut self.buses[i] {
                if let Some(s) = bus.take_link_series() {
                    links.push((format!("seg:{}", node.name), s));
                }
            }
        }
        for (h, &node) in self.spec.attachments.iter().enumerate() {
            if self.spec.nodes[node].kind != NodeKind::Segment {
                links.push((format!("host:h{h}:up"), p.up[h].take()));
                links.push((format!("host:h{h}:down"), p.down[h].take()));
            }
        }
        self.probes = Some(p);
        Some(LinkStats { links })
    }

    /// The compiled spec.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// Number of hosts on the LAN.
    pub fn host_count(&self) -> usize {
        self.spec.host_count()
    }

    /// Per-node flow counters. At idle every switch/router node conserves
    /// frames exactly: `frames_in == frames_out`.
    pub fn flows(&self) -> &[NodeFlow] {
        &self.flows
    }

    /// Errors surfaced for frames the fabric destroyed (excessive
    /// collisions or corruption on a segment), with the *original*
    /// protocol-layer tokens restored. Grows monotonically, like
    /// [`EtherBus::errors`].
    pub fn errors(&self) -> &[(SimTime, Frame, TxError)] {
        &self.errors
    }

    /// Enable the promiscuous capture (the tracing workstation; on a
    /// multi-segment fabric, a mirror of every final delivery).
    pub fn set_promiscuous(&mut self, on: bool) {
        self.promiscuous = on;
    }

    /// Install (or remove) a live frame tap at the capture point.
    pub fn set_tap(&mut self, tap: Option<FrameTap>) {
        self.tap = tap;
    }

    /// Captured trace so far.
    pub fn trace(&self) -> &[FrameRecord] {
        &self.trace
    }

    /// Take ownership of the captured trace.
    pub fn take_trace(&mut self) -> Vec<FrameRecord> {
        std::mem::take(&mut self.trace)
    }

    /// Aggregate MAC statistics: delivery counters are end-to-end
    /// (frames counted once, not per hop); contention counters sum over
    /// the segment buses; busy time sums bus occupancy and every port and
    /// trunk transmission.
    pub fn stats(&self) -> EtherStats {
        let mut s = EtherStats {
            frames_delivered: self.frames_delivered,
            bytes_delivered: self.bytes_delivered,
            busy_ns: self.link_busy_ns,
            ..EtherStats::default()
        };
        for bus in self.buses.iter().flatten() {
            let b = bus.stats();
            s.collisions += b.collisions;
            s.backoffs += b.backoffs;
            s.frames_dropped += b.frames_dropped;
            s.busy_ns += b.busy_ns;
        }
        s
    }

    fn transit_insert(&mut self, t: Transit) -> u64 {
        let slot = match self.transit_free.pop() {
            Some(s) => {
                self.transits[s as usize] = Some(t);
                s as usize
            }
            None => {
                self.transits.push(Some(t));
                self.transits.len() - 1
            }
        };
        slot as u64 + 1
    }

    fn transit_remove(&mut self, id: u64) -> Option<Transit> {
        let idx = usize::try_from(id.checked_sub(1)?).ok()?;
        let t = self.transits.get_mut(idx)?.take()?;
        self.transit_free.push(idx as u32);
        Some(t)
    }

    fn transit_mut(&mut self, id: u64) -> &mut Transit {
        self.transits[(id - 1) as usize]
            .as_mut()
            .expect("live transit")
    }

    /// Event-list lane of direction `dir` of trunk `trunk`.
    fn trunk_lane(&self, trunk: usize, dir: usize) -> usize {
        2 * self.spec.host_count() + 2 * trunk + dir
    }

    /// Allocate the calendar key for the transit behind `token` at
    /// scheduled time `time`, bumping the transit's hop counter.
    fn calendar_key(&mut self, token: u64, time: SimTime) -> EventKey {
        let t = self.transit_mut(token);
        let hop = t.hop;
        t.hop += 1;
        EventKey::calendar(time, t.stamp, hop)
    }

    /// Queue a frame from host `nic.0` at time `now` — the entry point
    /// the protocol stack drives, identical in shape to
    /// [`EtherBus::enqueue`]. The fabric-entry stamp is drawn from this
    /// fabric's own counter; a sharded owner uses
    /// [`CompositeFabric::enqueue_stamped`] to keep stamps global.
    pub fn enqueue(&mut self, nic: NicId, frame: Frame, now: SimTime) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.enqueue_stamped(nic, frame, now, stamp);
    }

    /// Queue a frame with an externally allocated fabric-entry `stamp`.
    /// Stamps order equal-time calendar events, so a sharded fabric must
    /// hand every shard stamps from one global counter — in the exact
    /// order the sequential fabric would have assigned them.
    pub fn enqueue_stamped(&mut self, nic: NicId, frame: Frame, now: SimTime, stamp: u64) {
        let host = nic.0 as usize;
        let src_node = self.spec.attachments[host];
        let dst_node = self.spec.attachments[frame.dst.0 as usize];
        let mut f = frame;
        f.token = self.transit_insert(Transit {
            token: frame.token,
            stamp,
            hop: 0,
            entered: now,
            meta: FrameMeta::default(),
            best_access_ns: 0,
            best_trunk: None,
        });
        match self.spec.nodes[src_node].kind {
            NodeKind::Segment => {
                // Contend on the shared medium; the bus hop's wait, backoff,
                // and wire time are accumulated when the bus delivers.
                if let Some(bus) = &mut self.buses[src_node] {
                    bus.enqueue(self.host_nic[host], f, now);
                }
                self.hold_exit(src_node, dst_node, now);
            }
            NodeKind::Switch | NodeKind::Router => {
                // Dedicated uplink at the node's port rate, then the
                // node's store-and-forward latency.
                let rate = self.spec.nodes[src_node].rate_bps;
                let tx = f.tx_time(rate);
                let start = self.up_free[host].max(now);
                let done = start + tx;
                self.up_free[host] = done;
                self.link_busy_ns += tx.as_nanos();
                let latency = self.spec.latency(src_node);
                let wait = (start - now).as_nanos();
                if let Some(p) = &mut self.probes {
                    p.up[host].record(now, done, u64::from(f.wire_len()), tx.as_nanos(), wait);
                }
                let t = self.transit_mut(f.token);
                t.meta.queue_ns += wait + latency.as_nanos();
                t.meta.tx_ns += tx.as_nanos();
                t.best_access_ns = t.best_access_ns.max(wait);
                let key = self.calendar_key(f.token, done + latency);
                self.events.push(
                    host,
                    key,
                    TopoEvent::AtNode {
                        node: src_node,
                        frame: f,
                    },
                );
                self.hold_exit(src_node, dst_node, key.time);
            }
        }
    }

    /// Note that a frame now held at owned `node`, bound for `dst_node`,
    /// has no event before `at`. Nothing to note when the fabric is
    /// unscoped or the frame's route ends inside this shard.
    fn hold_exit(&mut self, node: usize, dst_node: usize, at: SimTime) {
        if let Some(scope) = &mut self.scope {
            if let Some(slot) = scope.exit_of[node][dst_node] {
                scope.pending_exits[slot].push(Reverse(at));
            }
        }
    }

    /// Release the entry of a frame held at owned `node`, bound for
    /// `dst_node`, whose event just fired (it moved on, or a segment
    /// destroyed it).
    fn release_exit(&mut self, node: usize, dst_node: usize) {
        if let Some(scope) = &mut self.scope {
            if let Some(slot) = scope.exit_of[node][dst_node] {
                scope.pending_exits[slot].pop();
            }
        }
    }

    /// Forward `f` (carrying a transit token) onward from `node` at time
    /// `now`: out the next-hop trunk, down the destination access link,
    /// or onto the destination segment's bus.
    fn forward(&mut self, node: usize, f: Frame, now: SimTime) {
        let wire = u64::from(f.wire_len());
        self.flows[node].frames_in += 1;
        self.flows[node].bytes_in += wire;
        let dst_host = f.dst.0 as usize;
        let dst_node = self.spec.attachments[dst_host];
        if node == dst_node {
            match self.spec.nodes[node].kind {
                NodeKind::Segment => {
                    // Bridge egress: transmit onto the destination
                    // collision domain, contending like any station.
                    // The bus delivery finalizes the frame.
                    if let Some(bus) = &mut self.buses[node] {
                        // A frame only re-enters a segment from a trunk,
                        // so a bridge NIC always exists here.
                        let nic = self.bridge_nic[node][0].1;
                        bus.enqueue(nic, f, now);
                    }
                }
                NodeKind::Switch | NodeKind::Router => {
                    let rate = self.spec.nodes[node].rate_bps;
                    let tx = f.tx_time(rate);
                    let start = self.down_free[dst_host].max(now);
                    let done = start + tx;
                    self.down_free[dst_host] = done;
                    self.link_busy_ns += tx.as_nanos();
                    let wait = (start - now).as_nanos();
                    if let Some(p) = &mut self.probes {
                        p.down[dst_host].record(now, done, wire, tx.as_nanos(), wait);
                    }
                    let t = self.transit_mut(f.token);
                    t.meta.queue_ns += wait;
                    t.meta.tx_ns += tx.as_nanos();
                    t.best_access_ns = t.best_access_ns.max(wait);
                    let key = self.calendar_key(f.token, done);
                    self.events.push(
                        self.spec.host_count() + dst_host,
                        key,
                        TopoEvent::Deliver { frame: f },
                    );
                }
            }
            self.flows[node].frames_out += 1;
            self.flows[node].bytes_out += wire;
            return;
        }
        // The event that held the frame here has fired.
        self.release_exit(node, dst_node);
        // Trunk hop toward the destination's node. Validation guarantees
        // host-bearing nodes are connected, so the table entry exists.
        let ti = self.next_hop[node][dst_node].expect("validated path");
        let trunk = self.spec.trunks[ti];
        let (dir, far) = trunk_hop(&trunk, node);
        let tx = f.tx_time(trunk.rate_bps);
        let start = self.trunk_free[ti][dir].max(now);
        let done = start + tx;
        self.trunk_free[ti][dir] = done;
        self.link_busy_ns += tx.as_nanos();
        let latency = self.spec.latency(far);
        let wait = (start - now).as_nanos();
        if let Some(p) = &mut self.probes {
            p.trunks[ti][dir].record(now, done, wire, tx.as_nanos(), wait);
        }
        let t = self.transit_mut(f.token);
        t.meta.queue_ns += wait + trunk.prop_delay.as_nanos() + latency.as_nanos();
        t.meta.tx_ns += tx.as_nanos();
        let code = FrameMeta::trunk_code(trunk.a as u32, trunk.b as u32);
        if t.best_trunk.is_none_or(|(w, _)| wait > w) {
            t.best_trunk = Some((wait, code));
        }
        self.flows[node].frames_out += 1;
        self.flows[node].bytes_out += wire;
        let arrival = done + trunk.prop_delay + latency;
        let key = self.calendar_key(f.token, arrival);
        if self.scope.as_ref().is_some_and(|s| !s.owned[far]) {
            // The far node belongs to another shard: this is a cut
            // trunk. All sender-side accounting above is final; the
            // frame travels with its transit record and its arrival
            // event's key, so the receiving shard resumes it exactly
            // where a local hop would have.
            let transit = self.transit_remove(f.token).expect("live transit");
            let scope = self.scope.as_mut().expect("scoped");
            scope.outbox.push(CrossFrame {
                arrival,
                node: far,
                key,
                trunk: ti,
                dir,
                frame: f,
                transit,
            });
        } else {
            self.events.push(
                self.trunk_lane(ti, dir),
                key,
                TopoEvent::AtNode {
                    node: far,
                    frame: f,
                },
            );
            self.hold_exit(far, dst_node, arrival);
        }
    }

    /// Finalize a frame at `now`: restore the original token, settle the
    /// bottleneck-trunk verdict, capture the trace record, and hand the
    /// delivery up.
    fn finalize(&mut self, now: SimTime, mut f: Frame, out: &mut Vec<Delivery>) {
        let t = self.transit_remove(f.token).expect("live transit");
        f.token = t.token;
        let mut meta = t.meta;
        debug_assert_eq!(
            meta.queue_ns + meta.backoff_ns + meta.tx_ns,
            now.saturating_sub(t.entered).as_nanos(),
            "per-hop accounting must sum to end-to-end elapsed"
        );
        // The bottleneck trunk is recorded only when it out-waited every
        // access hop (ties favor the trunk: the inter-node link is the
        // shared, scarcer resource).
        meta.trunk = match t.best_trunk {
            Some((wait, code)) if wait >= t.best_access_ns => code,
            _ => 0,
        };
        self.frames_delivered += 1;
        self.bytes_delivered += u64::from(f.wire_len());
        if self.promiscuous || self.tap.is_some() {
            let record = FrameRecord::capture(now, &f);
            if let Some(tap) = &mut self.tap {
                tap(&record);
            }
            if self.promiscuous {
                self.trace.push(record);
            }
        }
        out.push(Delivery {
            time: now,
            frame: f,
            meta,
        });
    }

    /// Drain newly surfaced errors from segment `node`'s bus, restoring
    /// original tokens.
    fn reap_bus_errors(&mut self, node: usize) {
        loop {
            let Some(bus) = &self.buses[node] else { return };
            let errs = bus.errors();
            let Some(&(time, frame, err)) = errs.get(self.bus_errors_seen[node]) else {
                return;
            };
            self.bus_errors_seen[node] += 1;
            let mut f = frame;
            if let Some(t) = self.transit_remove(f.token) {
                f.token = t.token;
            }
            self.release_exit(node, self.spec.attachments[f.dst.0 as usize]);
            self.errors.push((time, f, err));
        }
    }

    /// Whether nothing is pending anywhere in the fabric (including the
    /// shard outbox, when scoped).
    pub fn idle(&self) -> bool {
        self.events.is_empty()
            && self.buses.iter().flatten().all(EtherBus::idle)
            && self.scope.as_ref().is_none_or(|s| s.outbox.is_empty())
    }

    /// Key of the next fabric event: the calendar head against every
    /// segment's next bus event, under the global [`EventKey`] order —
    /// calendar first at equal times, then segments by node index.
    pub fn next_key(&self) -> Option<EventKey> {
        let mut k = self.events.peek_key();
        for (n, bus) in self.buses.iter().enumerate() {
            if let Some(t) = bus.as_ref().and_then(EtherBus::next_event_time) {
                let bk = EventKey::bus(t, n as u64);
                k = Some(match k {
                    Some(x) if x < bk => x,
                    _ => bk,
                });
            }
        }
        k
    }

    /// Time of the next fabric event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.next_key().map(|k| k.time)
    }

    /// Process exactly one fabric event, appending any final delivery.
    /// Simultaneous events resolve deterministically by [`EventKey`]:
    /// the calendar queue first (stamp, then hop), then segments by node
    /// index — an order that is a pure function of the offered load, so
    /// it is identical at every shard count.
    pub fn advance(&mut self, out: &mut Vec<Delivery>) -> Option<SimTime> {
        self.advance_keyed(out).map(|k| k.time)
    }

    /// [`CompositeFabric::advance`], returning the processed event's key
    /// so a sharded owner can merge per-shard output streams globally.
    pub fn advance_keyed(&mut self, out: &mut Vec<Delivery>) -> Option<EventKey> {
        let k = self.next_key()?;
        self.advance_at(k, out);
        Some(k)
    }

    /// Process the next event, given its key: `k` must be what
    /// [`CompositeFabric::next_key`] returns now. For a driver that has
    /// already looked at the key to decide whether to advance (a sharded
    /// owner picking the minimal shard, a drain worker checking its
    /// horizon), so the scan over the segments is made once per event.
    pub fn advance_at(&mut self, k: EventKey, out: &mut Vec<Delivery>) {
        debug_assert_eq!(Some(k), self.next_key(), "stale event key");
        self.clock = k.time;
        if k.class == 0 {
            let (_, ev) = self.events.pop().expect("calendar key has its event");
            match ev {
                TopoEvent::AtNode { node, frame } => self.forward(node, frame, k.time),
                TopoEvent::Deliver { frame } => self.finalize(k.time, frame, out),
            }
            return;
        }
        let node = usize::try_from(k.major).expect("node index");
        self.scratch.clear();
        let mut deliveries = std::mem::take(&mut self.scratch);
        if let Some(bus) = &mut self.buses[node] {
            bus.advance(&mut deliveries);
        }
        self.reap_bus_errors(node);
        for d in deliveries.drain(..) {
            // Fold the bus hop's exact timing into the transit record.
            let dst_node = self.spec.attachments[d.frame.dst.0 as usize];
            {
                let tr = self.transit_mut(d.frame.token);
                tr.meta.queue_ns += d.meta.queue_ns;
                tr.meta.backoff_ns += d.meta.backoff_ns;
                tr.meta.tx_ns += d.meta.tx_ns;
                tr.meta.attempts += d.meta.attempts;
                tr.best_access_ns = tr.best_access_ns.max(d.meta.queue_ns + d.meta.backoff_ns);
            }
            if dst_node == node {
                // The destination heard it on its own segment: final.
                // (If it re-entered via a bridge, `forward` already
                // counted it through this node's flow.)
                self.finalize(d.time, d.frame, out);
            } else {
                // A bridge picks it up and forwards out the next trunk.
                self.forward(node, d.frame, d.time);
            }
        }
        self.scratch = deliveries;
    }

    /// Scope this fabric to the nodes where `owned[n]` is true: frames
    /// forwarded across a trunk whose far end is not owned are diverted
    /// to the outbox as [`CrossFrame`]s instead of being scheduled
    /// locally. `owned.len()` must equal the node count. Call it before
    /// the first `enqueue`: the exit bookkeeping starts empty.
    pub fn set_scope(&mut self, owned: Vec<bool>) {
        let n = self.spec.nodes.len();
        assert_eq!(owned.len(), n, "mask covers all nodes");
        let trunks = &self.spec.trunks;
        // Walk the forwarding tables from every owned node toward every
        // destination until the route leaves the block or ends in it.
        // Hop distance falls at every step, so the walk terminates.
        let exit_of: Vec<Vec<Option<usize>>> = (0..n)
            .map(|from| {
                (0..n)
                    .map(|dst| {
                        let mut at = from;
                        while owned[at] {
                            let ti = self.next_hop[at][dst]?;
                            let (dir, far) = trunk_hop(&trunks[ti], at);
                            if !owned[far] {
                                return Some(2 * ti + dir);
                            }
                            at = far;
                        }
                        None
                    })
                    .collect()
            })
            .collect();
        // A frame is on an inbound cut trunk only if that trunk is its
        // sender's next hop toward the destination; from the trunk's far
        // end it leaves through `exit_of`, if at all.
        let mut feeds = Vec::new();
        for (ti, t) in trunks.iter().enumerate() {
            for (dir, near, far) in [(0, t.a, t.b), (1, t.b, t.a)] {
                if owned[near] || !owned[far] {
                    continue;
                }
                // Destination by destination: over this trunk at `near`,
                // out through `exit` from `far`.
                for (hop, exit) in self.next_hop[near].iter().zip(&exit_of[far]) {
                    if let (Some(hop), Some(exit)) = (hop, exit) {
                        if *hop == ti {
                            feeds.push((2 * ti + dir, *exit));
                        }
                    }
                }
            }
        }
        self.scope = Some(ShardScope {
            owned,
            outbox: Vec::new(),
            exit_of,
            pending_exits: vec![BinaryHeap::new(); 2 * trunks.len()],
            feeds,
        });
    }

    /// Shard-only (the `fxnet-shard` drain worker's lookahead): a time
    /// before which no frame now inside this scoped fabric moves toward
    /// leaving over cut trunk `trunk` in direction `dir`, or `None` when
    /// no frame inside will leave that way. The value may lie below the
    /// next local event; the caller takes the later of the two.
    pub fn pending_exit(&self, trunk: usize, dir: usize) -> Option<SimTime> {
        let heap = &self.scope.as_ref()?.pending_exits[2 * trunk + dir];
        heap.peek().map(|&Reverse(t)| t)
    }

    /// Shard-only: whether the static forwarding tables can route a frame
    /// that enters this scoped fabric over cut-trunk direction `entry`
    /// on out through cut-trunk direction `exit` (each `(trunk, dir)`).
    /// Never true on `trunk2`, where no shortest path recrosses the
    /// trunk; true for leaf → root → leaf transit at a `tree2` root shard.
    pub fn exit_fed_by(&self, exit: (usize, usize), entry: (usize, usize)) -> bool {
        let slot = |(trunk, dir): (usize, usize)| 2 * trunk + dir;
        self.scope
            .as_ref()
            .is_some_and(|s| s.feeds.contains(&(slot(entry), slot(exit))))
    }

    /// Drain the outbox of frames bound for other shards (empty when the
    /// fabric is unscoped).
    pub fn drain_outbox(&mut self, into: &mut Vec<CrossFrame>) {
        if let Some(scope) = &mut self.scope {
            into.append(&mut scope.outbox);
        }
    }

    /// Accept a frame that crossed a cut trunk from another shard:
    /// re-slab its transit locally and schedule its arrival event under
    /// the key the sending shard computed. The conservative protocol
    /// guarantees `cf.arrival` has not been passed yet.
    pub fn inject(&mut self, cf: CrossFrame) {
        debug_assert!(
            cf.arrival >= self.clock,
            "causality: injected frame arrives at {:?} but shard clock is {:?}",
            cf.arrival,
            self.clock,
        );
        let mut f = cf.frame;
        f.token = self.transit_insert(cf.transit);
        self.events.push(
            self.trunk_lane(cf.trunk, cf.dir),
            cf.key,
            TopoEvent::AtNode {
                node: cf.node,
                frame: f,
            },
        );
        self.hold_exit(cf.node, self.spec.attachments[f.dst.0 as usize], cf.arrival);
    }

    /// Time of the last processed event (the shard-local clock).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Most scheduled events ever pending at once, summed over the
    /// lanes of the event list (frames waiting on a segment's bus are
    /// that bus's to count).
    pub fn pending_high_water(&self) -> usize {
        self.events.high_water()
    }

    /// Drain every pending event (test helper).
    pub fn run_to_idle(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while self.advance(&mut out).is_some() {}
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TopologySpec;
    use fxnet_sim::{EtherConfig, FrameKind, HostId, RATE_10M};
    use std::collections::HashMap;

    fn tcp(src: u32, dst: u32, payload: u32, token: u64) -> Frame {
        Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, payload, token)
    }

    /// The tentpole equivalence: a single-segment topology is the legacy
    /// shared bus — identical deliveries (time, frame, meta) and an
    /// identical promiscuous trace, under contention and collisions.
    #[test]
    fn single_segment_matches_legacy_bus_exactly() {
        let ether = EtherConfig::default();
        let spec = TopologySpec::single_segment(4, ether.bandwidth_bps);
        let mut fab = CompositeFabric::new(spec, &ether, 42);
        fab.set_promiscuous(true);
        let mut bus = EtherBus::new(ether.clone(), SimRng::new(42));
        let nics: Vec<NicId> = (0..4).map(|_| bus.attach()).collect();
        bus.set_promiscuous(true);
        for i in 0..24u32 {
            let f = tcp(i % 4, (i + 1) % 4, 64 + i * 53, u64::from(i) + 1);
            // Bursts of simultaneous enqueues force collisions, so the
            // equivalence covers the RNG-driven backoff path too.
            let t = SimTime::from_micros(u64::from(i / 4) * 900);
            fab.enqueue(NicId(i % 4), f, t);
            bus.enqueue(nics[(i % 4) as usize], f, t);
        }
        let a = fab.run_to_idle();
        let b = bus.run_to_idle();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.time, y.time);
            assert_eq!(x.frame, y.frame);
            assert_eq!(x.meta, y.meta);
        }
        assert_eq!(fab.trace(), bus.trace());
        assert_eq!(fab.stats().collisions, bus.stats().collisions);
    }

    /// Per-hop accounting sums exactly to end-to-end elapsed time, and
    /// original tokens come back out, across a switched trunk.
    #[test]
    fn multi_hop_meta_sums_to_elapsed() {
        let ether = EtherConfig::default();
        let spec = TopologySpec::two_switches_trunk(4, RATE_10M);
        let mut fab = CompositeFabric::new(spec, &ether, 7);
        let mut entered = HashMap::new();
        for i in 0..12u32 {
            let token = u64::from(i) + 1;
            let t = SimTime::from_micros(u64::from(i) * 10);
            entered.insert(token, t);
            fab.enqueue(NicId(i % 2), tcp(i % 2, 2 + (i % 2), 400, token), t);
        }
        let out = fab.run_to_idle();
        assert_eq!(out.len(), 12);
        for d in &out {
            let e = entered[&d.frame.token];
            assert_eq!(
                d.meta.queue_ns + d.meta.backoff_ns + d.meta.tx_ns,
                (d.time - e).as_nanos(),
                "token {}",
                d.frame.token
            );
        }
    }

    /// Saturating the inter-switch trunk makes it the recorded bottleneck
    /// of (at least the later) cross-switch frames.
    #[test]
    fn contended_trunk_is_named_as_bottleneck() {
        let ether = EtherConfig::default();
        let spec = TopologySpec::two_switches_trunk(4, RATE_10M);
        let mut fab = CompositeFabric::new(spec, &ether, 7);
        // Both sw0 hosts blast full frames at sw1 hosts simultaneously:
        // uplinks are dedicated, so all queueing lands on the trunk.
        for i in 0..10u32 {
            fab.enqueue(
                NicId(i % 2),
                tcp(i % 2, 2 + (i % 2), 1400, u64::from(i) + 1),
                SimTime::ZERO,
            );
        }
        let out = fab.run_to_idle();
        let named: Vec<_> = out.iter().filter(|d| d.meta.trunk != 0).collect();
        assert!(!named.is_empty(), "trunk queueing must be attributed");
        for d in &named {
            assert_eq!(d.meta.trunk_label().as_deref(), Some("trunk:n0-n1"));
        }
    }

    /// Link sampling is purely observational: a sampled run delivers the
    /// same frames at the same times with the same meta and an identical
    /// trace — and the trunk series conserves cross-trunk wire bytes.
    #[test]
    fn link_sampling_is_pure_and_conserves_trunk_bytes() {
        let ether = EtherConfig::default();
        for spec in TopologySpec::sweep_set(6, RATE_10M) {
            let run = |sample: bool| {
                let mut fab = CompositeFabric::new(spec.clone(), &ether, 11);
                fab.set_promiscuous(true);
                if sample {
                    fab.set_link_sampling(true);
                }
                for i in 0..30u32 {
                    fab.enqueue(
                        NicId(i % 6),
                        tcp(i % 6, (i + 1) % 6, 100 + i, u64::from(i) + 1),
                        SimTime::from_micros(u64::from(i) * 7),
                    );
                }
                let out = fab.run_to_idle();
                let stats = fab.take_link_stats();
                (out, fab.take_trace(), stats)
            };
            let (plain_out, plain_trace, none) = run(false);
            let (out, trace, stats) = run(true);
            assert!(none.is_none());
            assert_eq!(plain_out, out, "{}", spec.label());
            assert_eq!(plain_trace, trace, "{}", spec.label());
            let stats = stats.expect("sampling enabled");
            let labels: Vec<&str> = stats.links.iter().map(|(l, _)| l.as_str()).collect();
            for (t, _) in &stats.links {
                assert!(
                    t.starts_with("trunk:") || t.starts_with("seg:") || t.starts_with("host:"),
                    "label {t}"
                );
            }
            if spec.label().starts_with("trunk2") {
                assert!(labels.contains(&"trunk:n0-n1:fwd"), "{labels:?}");
                assert!(labels.contains(&"host:h0:up"), "{labels:?}");
                // Every byte the trunk series saw is a byte some frame
                // carried across it.
                let carried: u64 = ["trunk:n0-n1:fwd", "trunk:n0-n1:rev"]
                    .iter()
                    .map(|l| stats.series(l).expect("trunk series").total().bytes)
                    .sum();
                let cross: u64 = out
                    .iter()
                    .filter(|d| {
                        let a = spec.attachments[usize::try_from(d.frame.src.0).unwrap()];
                        let b = spec.attachments[usize::try_from(d.frame.dst.0).unwrap()];
                        a != b
                    })
                    .map(|d| u64::from(d.frame.wire_len()))
                    .sum();
                assert_eq!(carried, cross, "{}", spec.label());
            }
        }
    }

    /// Every switch and router conserves frames and bytes exactly once
    /// the fabric drains.
    #[test]
    fn switches_and_routers_conserve_frames() {
        let ether = EtherConfig::default();
        for spec in TopologySpec::sweep_set(6, RATE_10M) {
            let label = spec.label();
            let kinds: Vec<NodeKind> = spec.nodes.iter().map(|n| n.kind).collect();
            let mut fab = CompositeFabric::new(spec, &ether, 9);
            for i in 0..18u32 {
                fab.enqueue(
                    NicId(i % 6),
                    tcp(i % 6, (i + 3) % 6, 200, u64::from(i) + 1),
                    SimTime::from_micros(u64::from(i) * 25),
                );
            }
            let out = fab.run_to_idle();
            assert!(fab.idle());
            assert_eq!(out.len(), 18, "{label}");
            for (n, flow) in fab.flows().iter().enumerate() {
                if kinds[n] != NodeKind::Segment {
                    assert_eq!(flow.frames_in, flow.frames_out, "{label} node {n}");
                    assert_eq!(flow.bytes_in, flow.bytes_out, "{label} node {n}");
                }
            }
        }
    }

    /// Same seed, same offered load → byte-identical deliveries and
    /// trace, for every canonical topology.
    #[test]
    fn runs_are_deterministic() {
        let ether = EtherConfig::default();
        for spec in TopologySpec::sweep_set(6, RATE_10M) {
            let run = |seed: u64| {
                let mut fab = CompositeFabric::new(spec.clone(), &ether, seed);
                fab.set_promiscuous(true);
                for i in 0..30u32 {
                    fab.enqueue(
                        NicId(i % 6),
                        tcp(i % 6, (i + 1) % 6, 100 + i, u64::from(i) + 1),
                        SimTime::from_micros(u64::from(i) * 7),
                    );
                }
                let out = fab.run_to_idle();
                (out, fab.take_trace())
            };
            let (a_out, a_trace) = run(11);
            let (b_out, b_trace) = run(11);
            assert_eq!(a_out, b_out, "{}", spec.label());
            assert_eq!(a_trace, b_trace, "{}", spec.label());
        }
    }

    /// Cross-subnet frames traverse the routed path and pay the router's
    /// larger forwarding latency relative to a switch.
    #[test]
    fn routed_subnets_deliver_across_the_router() {
        let ether = EtherConfig::default();
        let spec = TopologySpec::routed_two_subnets(4, RATE_10M);
        let mut fab = CompositeFabric::new(spec, &ether, 3);
        fab.enqueue(NicId(0), tcp(0, 3, 500, 77), SimTime::ZERO);
        let out = fab.run_to_idle();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].frame.token, 77);
        // Two trunk tx + two segment tx of wire time, plus the router
        // hop: strictly slower than the same frame on one segment.
        let mut single = CompositeFabric::new(TopologySpec::single_segment(4, RATE_10M), &ether, 3);
        single.enqueue(NicId(0), tcp(0, 3, 500, 77), SimTime::ZERO);
        let s = single.run_to_idle();
        assert!(out[0].time > s[0].time);
        // Router (node 2) conserved the frame.
        assert_eq!(fab.flows()[2].frames_in, 1);
        assert_eq!(fab.flows()[2].frames_out, 1);
    }

    /// A fabric scoped to shard `s` of `spec` cut into `shards` blocks.
    fn scoped(
        spec: &TopologySpec,
        ether: &EtherConfig,
        shards: usize,
        s: usize,
    ) -> CompositeFabric {
        let mut fab = CompositeFabric::new(spec.clone(), ether, 5);
        fab.set_scope(crate::Partition::new(spec, shards).owned_mask(s));
        fab
    }

    /// Drive `spec` cut into `shards` blocks in the order the threaded
    /// drain's merge reproduces — advance the shard whose next key is
    /// least, inject what crossed a cut at once — and return every
    /// processed key in order.
    fn processed_keys(spec: &TopologySpec, ether: &EtherConfig, shards: usize) -> Vec<EventKey> {
        let part = crate::Partition::new(spec, shards);
        let mut fabs: Vec<CompositeFabric> = (0..part.shards)
            .map(|s| {
                if part.shards > 1 {
                    scoped(spec, ether, shards, s)
                } else {
                    CompositeFabric::new(spec.clone(), ether, 5)
                }
            })
            .collect();
        // Every host sends to its mirror across the middle of the host
        // list, four at an instant: every frame crosses every cut on its
        // path, and uplinks, trunks and downlinks all queue.
        let hosts = spec.host_count() as u32;
        for i in 0..20 * hosts {
            let src = i % hosts;
            let f = tcp(src, (src + hosts / 2) % hosts, 60 + (i * 131) % 1200, 1);
            let t = SimTime::from_micros(u64::from(i / (4 * hosts)) * 300);
            fabs[part.host_shard[src as usize]].enqueue_stamped(NicId(src), f, t, u64::from(i));
        }
        let (mut keys, mut out, mut crossed) = (Vec::new(), Vec::new(), Vec::new());
        while let Some((_, s)) = (0..fabs.len())
            .filter_map(|s| fabs[s].next_key().map(|k| (k, s)))
            .min()
        {
            keys.push(fabs[s].advance_keyed(&mut out).expect("peeked event"));
            fabs[s].drain_outbox(&mut crossed);
            for cf in crossed.drain(..) {
                fabs[part.node_shard[cf.node()]].inject(cf);
            }
        }
        let label = format!("{} @ {shards}", spec.label());
        assert!(fabs.iter().all(CompositeFabric::idle), "{label}");
        let lost: usize = fabs.iter().map(|f| f.errors().len()).sum();
        assert_eq!(out.len() + lost, 20 * hosts as usize, "{label}");
        assert_eq!(lost > 0, ether.drop_prob > 0.0, "{label}");
        if spec.id == "trunk2" && shards == 1 {
            // Every frame is enqueued before the first event runs and
            // holds one scheduled event at a time.
            assert_eq!(fabs[0].pending_high_water(), 20 * hosts as usize);
        }
        keys
    }

    /// The lanes merge to one strictly increasing key sequence on every
    /// canonical topology and the one-switch star — on `routed2` with a
    /// fifth of the segment frames lost, and with every trunk cut so that
    /// `inject` feeds the trunk lanes — and the cut fabric processes the
    /// very keys the whole one does. (An out-of-order push would already
    /// have panicked in `LaneQueue::push`.)
    #[test]
    fn processed_keys_strictly_increase_whole_and_cut() {
        let mut specs = TopologySpec::sweep_set(4, RATE_10M);
        specs.push(TopologySpec::single_switch(4, RATE_10M));
        for spec in specs {
            let ether = EtherConfig {
                drop_prob: if spec.id == "routed2" { 0.2 } else { 0.0 },
                ..EtherConfig::default()
            };
            let whole = processed_keys(&spec, &ether, 1);
            assert!(!whole.is_empty());
            for pair in whole.windows(2) {
                assert!(pair[0] < pair[1], "{}: {pair:?}", spec.label());
            }
            let cut = processed_keys(&spec, &ether, spec.nodes.len());
            assert_eq!(cut, whole, "{}", spec.label());
        }
    }

    /// The entry → exit relation is read off the forwarding tables:
    /// nothing that crossed the `trunk2` trunk goes back over it, while
    /// the `tree2` root passes leaf0's frames on to leaf1 only.
    #[test]
    fn exit_feeding_relation_follows_the_forwarding_tables() {
        let ether = EtherConfig::default();
        let trunk2 = TopologySpec::two_switches_trunk(4, RATE_10M);
        for s in 0..2 {
            let fab = scoped(&trunk2, &ether, 2, s);
            for exit in [(0, 0), (0, 1)] {
                for entry in [(0, 0), (0, 1)] {
                    assert!(
                        !fab.exit_fed_by(exit, entry),
                        "shard {s} {entry:?}->{exit:?}"
                    );
                }
            }
        }
        // tree2 trunks run leaf → root in direction 0: trunk 0 from leaf0,
        // trunk 1 from leaf1. Shard 2 is the root.
        let tree2 = TopologySpec::two_level_tree(4, RATE_10M);
        let root = scoped(&tree2, &ether, 3, 2);
        assert!(
            root.exit_fed_by((1, 1), (0, 0)),
            "leaf0->root feeds root->leaf1"
        );
        assert!(!root.exit_fed_by((0, 1), (0, 0)), "and never root->leaf0");
        assert!(
            root.exit_fed_by((0, 1), (1, 0)),
            "leaf1->root feeds root->leaf0"
        );
        // A leaf is where frames end: what comes down feeds nothing.
        let leaf0 = scoped(&tree2, &ether, 3, 0);
        assert!(!leaf0.exit_fed_by((0, 0), (0, 1)));
        // An unscoped fabric has no cuts at all.
        let whole = CompositeFabric::new(tree2, &ether, 5);
        assert!(!whole.exit_fed_by((1, 1), (0, 0)));
        assert_eq!(whole.pending_exit(0, 0), None);
    }

    /// The pending-exit bound is absent while no frame inside is bound
    /// across the cut, names the earliest crosser's scheduled event while
    /// some are, rises as they leave, and is absent again once all have.
    #[test]
    fn pending_exit_rises_as_crossers_leave() {
        let ether = EtherConfig::default();
        let spec = TopologySpec::two_switches_trunk(4, RATE_10M);
        let mut fab = scoped(&spec, &ether, 2, 0);
        // Hosts 0 and 1 live on sw0; 2 and 3 across the trunk.
        for i in 0..6u32 {
            let t = SimTime::from_micros(u64::from(i) * 300);
            fab.enqueue(NicId(0), tcp(0, 1, 200, u64::from(i) + 1), t);
        }
        assert_eq!(fab.pending_exit(0, 0), None, "only local frames inside");
        for i in 0..5u32 {
            let t = SimTime::from_micros(u64::from(i) * 2_000);
            fab.enqueue(NicId(1), tcp(1, 2, 200, u64::from(i) + 100), t);
        }
        assert_eq!(
            fab.pending_exit(0, 1),
            None,
            "nothing leaves sw0 in reverse"
        );
        let mut out = Vec::new();
        let mut crossed = Vec::new();
        let mut last = fab.pending_exit(0, 0).expect("crossers are inside");
        // The first crosser's only event inside the shard is its arrival
        // at sw0, after the uplink transmission and the switch latency.
        let uplink = tcp(1, 2, 200, 0).tx_time(RATE_10M) + spec.latency(0);
        assert_eq!(last, uplink);
        while let Some(k) = fab.advance_keyed(&mut out) {
            fab.drain_outbox(&mut crossed);
            match fab.pending_exit(0, 0) {
                Some(bound) => {
                    assert!(bound >= last, "bound fell from {last:?} to {bound:?}");
                    assert!(crossed.len() < 5);
                    last = bound;
                }
                None => assert_eq!(crossed.len(), 5, "at {:?}", k.time),
            }
        }
        assert_eq!(crossed.len(), 5);
        assert_eq!(out.len(), 6, "local frames delivered inside the shard");
    }

    /// A cross-bound frame destroyed on its segment releases its
    /// pending-exit entry: the bound does not outlive the frames.
    #[test]
    fn destroyed_crossers_release_their_exit_entries() {
        let ether = EtherConfig {
            attempt_limit: 0,
            defer_jitter: SimTime::ZERO,
            ..EtherConfig::default()
        };
        let spec = TopologySpec::routed_two_subnets(4, ether.bandwidth_bps);
        // Shard 0 of three is seg0; trunk 0 runs seg0 → rt0 in direction 0.
        let mut fab = scoped(&spec, &ether, 3, 0);
        for i in 0..6u32 {
            fab.enqueue(
                NicId(i % 2),
                tcp(i % 2, 3, 300, u64::from(i) + 100),
                SimTime::ZERO,
            );
        }
        assert_eq!(fab.pending_exit(0, 0), Some(SimTime::ZERO));
        let _ = fab.run_to_idle();
        let mut crossed = Vec::new();
        fab.drain_outbox(&mut crossed);
        assert!(!fab.errors().is_empty(), "simultaneous senders collide");
        assert_eq!(crossed.len() + fab.errors().len(), 6);
        assert_eq!(fab.pending_exit(0, 0), None);
    }

    /// A frame destroyed by excessive collisions on a segment surfaces
    /// through `errors()` with its original token restored.
    #[test]
    fn bus_errors_surface_with_original_tokens() {
        let ether = EtherConfig {
            attempt_limit: 0,
            defer_jitter: SimTime::ZERO,
            ..EtherConfig::default()
        };
        let spec = TopologySpec::routed_two_subnets(4, ether.bandwidth_bps);
        let mut fab = CompositeFabric::new(spec, &ether, 5);
        // Simultaneous senders on seg0 collide deterministically (no
        // defer jitter); with attempt_limit 0 any collision destroys the
        // colliders.
        for i in 0..6u32 {
            fab.enqueue(
                NicId(i % 2),
                tcp(i % 2, 3, 300, u64::from(i) + 100),
                SimTime::ZERO,
            );
        }
        let _ = fab.run_to_idle();
        assert!(!fab.errors().is_empty());
        for (_, f, err) in fab.errors() {
            assert!(*err == TxError::ExcessiveCollisions);
            assert!((100..106).contains(&f.token), "token {}", f.token);
        }
    }
}
