//! The composite fabric: a [`TopologySpec`] compiled into a running
//! multi-segment network behind the exact pull interface `fxnet-proto`
//! already drives (`enqueue` / `next_event_time` / `advance` / `idle`,
//! surfaced transmit errors). Like [`EtherBus`], it keeps no trace: the
//! final deliveries it hands back are what the protocol layer captures.
//!
//! Element reuse: every `Segment` node *is* an [`EtherBus`] — the full
//! CSMA/CD machine with its own deterministic RNG stream — while switch
//! and router ports and inter-node trunks share one store-and-forward
//! discipline (a free-time scalar per simplex link, output queuing under
//! the explicit [`EventKey`] order) over arbitrary hop counts; its
//! smallest case, [`TopologySpec::single_switch`], is the DESIGN.md §8
//! switch counterfactual. The key order — time, then
//! calendar-before-bus, then fabric-entry stamp and per-frame hop — is a
//! pure function of the offered load, so a run is deterministic per seed.
//!
//! The event list is a [`LaneQueue`] with one lane per simplex link:
//! lane `h` is host `h`'s uplink, `hosts + h` its downlink, and
//! `2 * hosts + 2 * trunk + dir` one trunk direction. A link's
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
//! sees the swap: a single-segment topology reproduces the legacy shared
//! bus's deliveries (time, frame and meta) exactly.
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
    EtherBus, EtherConfig, EtherStats, EventKey, Frame, FrameMeta, LaneQueue, LinkProbe, LinkStats,
    NicId, SimRng, SimTime, TxError,
};

/// Per-frame state while it crosses the fabric.
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
/// on frame timing — so a sampled run's deliveries are byte-identical
/// to an unsampled one's.
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
    /// Next fabric-entry stamp.
    next_stamp: u64,
    transits: Vec<Option<Transit>>,
    transit_free: Vec<u32>,
    /// Per-bus count of errors already drained into `errors`.
    bus_errors_seen: Vec<usize>,
    errors: Vec<(SimTime, Frame, TxError)>,
    flows: Vec<NodeFlow>,
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
            transits: Vec::new(),
            transit_free: Vec::new(),
            bus_errors_seen: vec![0; n],
            errors: Vec::new(),
            flows: vec![NodeFlow::default(); n],
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
    /// host port; it is strictly observational and leaves the
    /// deliveries byte-identical.
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
    /// [`EtherBus::enqueue`]. The fabric-entry stamp, which orders
    /// equal-time calendar events, is the frame's place in enqueue order.
    pub fn enqueue(&mut self, nic: NicId, frame: Frame, now: SimTime) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let host = nic.0 as usize;
        let src_node = self.spec.attachments[host];
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
        self.events.push(
            self.trunk_lane(ti, dir),
            key,
            TopoEvent::AtNode {
                node: far,
                frame: f,
            },
        );
    }

    /// Finalize a frame at `now`: restore the original token, settle the
    /// bottleneck-trunk verdict, and hand the delivery up.
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
            self.errors.push((time, f, err));
        }
    }

    /// Whether nothing is pending anywhere in the fabric.
    pub fn idle(&self) -> bool {
        self.events.is_empty() && self.buses.iter().flatten().all(EtherBus::idle)
    }

    /// Key of the next fabric event: the calendar head against every
    /// segment's next bus event, under the global [`EventKey`] order —
    /// calendar first at equal times, then segments by node index.
    fn next_key(&self) -> Option<EventKey> {
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
    /// index — an order that is a pure function of the offered load.
    pub fn advance(&mut self, out: &mut Vec<Delivery>) -> Option<SimTime> {
        self.advance_keyed(out).map(|k| k.time)
    }

    /// [`CompositeFabric::advance`], returning the processed event's key:
    /// the order the tests hold the lanes to.
    pub fn advance_keyed(&mut self, out: &mut Vec<Delivery>) -> Option<EventKey> {
        let k = self.next_key()?;
        if k.class == 0 {
            let (_, ev) = self.events.pop().expect("calendar key has its event");
            match ev {
                TopoEvent::AtNode { node, frame } => self.forward(node, frame, k.time),
                TopoEvent::Deliver { frame } => self.finalize(k.time, frame, out),
            }
            return Some(k);
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
        Some(k)
    }

    /// Drain every pending event and return the deliveries in event
    /// order: the batch drain of a load enqueued up front.
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
    /// shared bus — identical deliveries (time, frame, meta), under
    /// contention and collisions.
    #[test]
    fn single_segment_matches_legacy_bus_exactly() {
        let ether = EtherConfig::default();
        let spec = TopologySpec::single_segment(4, ether.bandwidth_bps);
        let mut fab = CompositeFabric::new(spec, &ether, 42);
        let mut bus = EtherBus::new(ether.clone(), SimRng::new(42));
        let nics: Vec<NicId> = (0..4).map(|_| bus.attach()).collect();
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
        assert!(!a.is_empty());
        assert_eq!(a, b);
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
    /// same frames at the same times with the same meta — and the trunk
    /// series conserves cross-trunk wire bytes.
    #[test]
    fn link_sampling_is_pure_and_conserves_trunk_bytes() {
        let ether = EtherConfig::default();
        for spec in TopologySpec::sweep_set(6, RATE_10M) {
            let run = |sample: bool| {
                let mut fab = CompositeFabric::new(spec.clone(), &ether, 11);
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
                (out, fab.take_link_stats())
            };
            let (plain_out, none) = run(false);
            let (out, stats) = run(true);
            assert!(none.is_none());
            assert_eq!(plain_out, out, "{}", spec.label());
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

    /// Same seed, same offered load → byte-identical deliveries (time,
    /// frame and meta), for every canonical topology.
    #[test]
    fn runs_are_deterministic() {
        let ether = EtherConfig::default();
        for spec in TopologySpec::sweep_set(6, RATE_10M) {
            let run = |seed: u64| {
                let mut fab = CompositeFabric::new(spec.clone(), &ether, seed);
                for i in 0..30u32 {
                    fab.enqueue(
                        NicId(i % 6),
                        tcp(i % 6, (i + 1) % 6, 100 + i, u64::from(i) + 1),
                        SimTime::from_micros(u64::from(i) * 7),
                    );
                }
                fab.run_to_idle()
            };
            let a = run(11);
            assert!(!a.is_empty(), "{}", spec.label());
            assert_eq!(a, run(11), "{}", spec.label());
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

    /// Drive `spec` with every host sending to its mirror across the
    /// middle of the host list, four at an instant, so that uplinks,
    /// trunks and downlinks all queue; return every processed key in
    /// order.
    fn processed_keys(spec: &TopologySpec, ether: &EtherConfig) -> Vec<EventKey> {
        let mut fab = CompositeFabric::new(spec.clone(), ether, 5);
        let hosts = spec.host_count() as u32;
        for i in 0..20 * hosts {
            let src = i % hosts;
            let f = tcp(src, (src + hosts / 2) % hosts, 60 + (i * 131) % 1200, 1);
            let t = SimTime::from_micros(u64::from(i / (4 * hosts)) * 300);
            fab.enqueue(NicId(src), f, t);
        }
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        while let Some(k) = fab.advance_keyed(&mut out) {
            keys.push(k);
        }
        let label = spec.label();
        assert!(fab.idle(), "{label}");
        let lost = fab.errors().len();
        assert_eq!(out.len() + lost, 20 * hosts as usize, "{label}");
        assert_eq!(lost > 0, ether.drop_prob > 0.0, "{label}");
        if spec.id == "trunk2" {
            // Every frame is enqueued before the first event runs and
            // holds one scheduled event at a time.
            assert_eq!(fab.events.high_water(), 20 * hosts as usize);
        }
        keys
    }

    /// The lanes merge to one strictly increasing key sequence on every
    /// canonical topology and the one-switch star, and on `routed2` with
    /// a fifth of the segment frames lost. (An out-of-order push would
    /// already have panicked in `LaneQueue::push`.)
    #[test]
    fn processed_keys_strictly_increase_whole_and_cut() {
        let mut specs = TopologySpec::sweep_set(4, RATE_10M);
        specs.push(TopologySpec::single_switch(4, RATE_10M));
        for spec in specs {
            let ether = EtherConfig {
                drop_prob: if spec.id == "routed2" { 0.2 } else { 0.0 },
                ..EtherConfig::default()
            };
            let keys = processed_keys(&spec, &ether);
            assert!(!keys.is_empty());
            for pair in keys.windows(2) {
                assert!(pair[0] < pair[1], "{}: {pair:?}", spec.label());
            }
        }
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
