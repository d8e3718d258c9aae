//! # fxnet-shard
//!
//! The conservative threaded drain of a partitioned fabric: one
//! [`TopologySpec`] split by a [`Partition`] into scoped
//! [`CompositeFabric`] shards, each owning the segments, switch ports
//! and event lanes of its node block, exchanging frames that cross cut
//! trunks as [`CrossFrame`]s.
//!
//! There is one mode, [`ShardedFabric::drain_parallel`], for batch
//! workloads without delivery-time feedback (`repro analysis-scale`'s
//! trace synthesis, `repro bench`'s shard leg, `benchmark/`'s
//! `fabric-synth`, fabric soak tests): enqueue the whole offered load,
//! then drain it with one worker thread per shard, a bounded SPSC ring
//! per directed cut-trunk channel, and a lower-bound-timestamp protocol.
//! Each channel carries a published LBTS, a lower bound on the arrival
//! of every frame not yet pushed onto it, and a shard only processes
//! events strictly below the minimum LBTS of its incoming channels. The
//! protocol stack does not run on this crate: TCP feedback makes every
//! delivery a synchronization point, so a program's compiled topology is
//! one sequential `CompositeFabric` (DESIGN.md §13).
//!
//! The bound is *exit-aware*. The whole offered load is enqueued before
//! the workers start and the forwarding tables are static, so a shard
//! knows which of the frames it holds will leave through which channel,
//! and which incoming channels can feed which outgoing ones. It
//! publishes, per outgoing channel, the earliest event at which a frame
//! bound for *that* channel can next move — or the earliest arrival
//! still to come on a channel that feeds it — plus the channel's
//! lookahead (minimum-frame wire time, trunk propagation and the far
//! node's store-and-forward latency: strictly positive). A channel
//! nothing is bound for publishes ∞ at once, so a shard never waits on a
//! neighbour that has nothing to send it, and quiet gaps are crossed in
//! one step. Bounds are published from inside the run loop, at every
//! crossing and every `PUBLISH_EVERY` events. The per-worker docs
//! (`DrainWorker`) give the rule, its soundness and its progress
//! argument; DESIGN.md §13 has the measurements.
//!
//! Deliveries and surfaced errors are tagged with their [`EventKey`] and
//! k-way merged afterwards: every shard orders its events by the
//! explicit key and stamps come from one global counter, so the result
//! equals the sequential fabric's order exactly, at any shard count.

use fxnet_sim::ethernet::Delivery;
use fxnet_sim::{
    ring, EtherConfig, EtherStats, EventKey, Frame, NicId, RingReceiver, RingSender, SimTime,
    TxError,
};
use fxnet_topo::{CompositeFabric, CrossFrame, NodeFlow, Partition, ShardChannel, TopologySpec};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bounded capacity of each inter-shard ring. A full ring backpressures
/// the producer (it yields and retries), so memory stays bounded even
/// when one shard runs far ahead of a neighbor.
const RING_CAPACITY: usize = 1024;

/// Most events a drain worker processes between two publications of its
/// outgoing bounds: few enough that a waiting peer is released within
/// microseconds, many enough that the shared cache lines stay cold.
const PUBLISH_EVERY: u32 = 64;

/// Outcome of a threaded drain: the merged deliveries plus the
/// protocol's health counters.
#[derive(Debug)]
pub struct DrainOutcome {
    /// All final deliveries, merged into global [`EventKey`] order —
    /// byte-identical to the sequential event loop's output.
    pub deliveries: Vec<Delivery>,
    /// Fabric events processed across all shards.
    pub events: u64,
    /// Causality violations observed at injection (a frame arriving
    /// before the receiving shard's clock). Always zero when the
    /// lookahead is sound; tests assert it.
    pub violations: u64,
    /// Outer protocol rounds that processed no event (null-message-only
    /// rounds: the shard re-published its LBTS and yielded).
    pub null_rounds: u64,
    /// The protocol's health shard by shard, in shard order. `events` and
    /// `crossings_sent` are functions of the offered load; the other two
    /// depend on thread timing.
    pub per_shard: Vec<ShardDrainStats>,
}

/// One shard worker's share of a threaded drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardDrainStats {
    /// Fabric events this shard processed.
    pub events: u64,
    /// Rounds in which it processed none: it was waiting on a peer's
    /// LBTS.
    pub null_rounds: u64,
    /// Frames it pushed across cut trunks.
    pub crossings_sent: u64,
    /// Pushes that found the outgoing ring full and had to be retried.
    pub ring_full_stalls: u64,
    /// Most events ever pending at once in its fabric's event list
    /// ([`CompositeFabric::pending_high_water`]), enqueue phase included.
    /// A function of the offered load at one shard; with more, injected
    /// frames arrive as thread timing has it.
    pub pending_high_water: u64,
}

/// A partitioned [`CompositeFabric`]: load it with
/// [`ShardedFabric::enqueue`], empty it with
/// [`ShardedFabric::drain_parallel`].
pub struct ShardedFabric {
    spec: TopologySpec,
    partition: Partition,
    shards: Vec<CompositeFabric>,
    /// Global fabric-entry stamp counter — one sequence across all
    /// shards, in driver enqueue order, exactly as the sequential fabric
    /// would assign.
    next_stamp: u64,
    /// Frames currently inside the fabric (enqueued, not yet delivered
    /// or errored) — the drain's termination counter.
    live: u64,
    errors: Vec<(SimTime, Frame, TxError)>,
    errors_seen: Vec<usize>,
}

impl ShardedFabric {
    /// Compile `spec` into at most `shards` scoped shards (clamped by
    /// the partitioner). Every shard holds the full compiled topology —
    /// identical NIC layout and per-segment RNG streams — but only
    /// *owns* (and ever drives) the nodes of its block, so per-bus
    /// behavior is bit-identical to the sequential fabric's.
    pub fn new(spec: TopologySpec, ether: &EtherConfig, seed: u64, shards: usize) -> ShardedFabric {
        let partition = Partition::new(&spec, shards);
        let built: Vec<CompositeFabric> = (0..partition.shards)
            .map(|s| {
                let mut fab = CompositeFabric::new(spec.clone(), ether, seed);
                // One shard owns everything and nothing ever leaves it:
                // it stays unscoped and keeps no exit bookkeeping.
                if partition.shards > 1 {
                    fab.set_scope(partition.owned_mask(s));
                }
                fab
            })
            .collect();
        let n = built.len();
        ShardedFabric {
            spec,
            partition,
            shards: built,
            next_stamp: 0,
            live: 0,
            errors: Vec::new(),
            errors_seen: vec![0; n],
        }
    }

    /// The compiled spec.
    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    /// The node/host/trunk partition in effect.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Actual shard count after clamping.
    pub fn shard_count(&self) -> usize {
        self.partition.shards
    }

    /// Number of hosts on the LAN.
    pub fn host_count(&self) -> usize {
        self.spec.host_count()
    }

    /// Merged surfaced errors, in global event order, original tokens
    /// restored.
    pub fn errors(&self) -> &[(SimTime, Frame, TxError)] {
        &self.errors
    }

    /// Aggregate MAC statistics summed across shards (non-owned elements
    /// stay idle, so the sum equals the sequential fabric's).
    pub fn stats(&self) -> EtherStats {
        let mut total = EtherStats::default();
        for s in &self.shards {
            let st = s.stats();
            total.frames_delivered += st.frames_delivered;
            total.bytes_delivered += st.bytes_delivered;
            total.collisions += st.collisions;
            total.backoffs += st.backoffs;
            total.frames_dropped += st.frames_dropped;
            total.busy_ns += st.busy_ns;
        }
        total
    }

    /// Per-node flow counters, summed across shards (each node's counts
    /// accumulate only on its owner).
    pub fn flows(&self) -> Vec<NodeFlow> {
        let mut merged = vec![NodeFlow::default(); self.spec.nodes.len()];
        for s in &self.shards {
            for (m, f) in merged.iter_mut().zip(s.flows()) {
                m.frames_in += f.frames_in;
                m.bytes_in += f.bytes_in;
                m.frames_out += f.frames_out;
                m.bytes_out += f.bytes_out;
            }
        }
        merged
    }

    /// Queue a frame from host `nic.0` at time `now`, assigning the next
    /// global fabric-entry stamp and routing to the owner shard.
    pub fn enqueue(&mut self, nic: NicId, frame: Frame, now: SimTime) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let s = self.partition.host_shard[nic.0 as usize];
        self.shards[s].enqueue_stamped(nic, frame, now, stamp);
        self.live += 1;
    }

    /// Whether nothing is pending on any shard.
    pub fn idle(&self) -> bool {
        self.shards.iter().all(CompositeFabric::idle)
    }

    /// Drain every pending event with one worker thread per shard under
    /// the conservative exit-aware lookahead protocol, and merge the
    /// deliveries into global event order.
    pub fn drain_parallel(&mut self) -> DrainOutcome {
        let n = self.partition.shards;
        if n <= 1 {
            // One shard: the protocol degenerates to the sequential loop,
            // whose deliveries and errors are already in event order.
            let fab = &mut self.shards[0];
            let mut deliveries = Vec::new();
            let mut events = 0u64;
            while fab.advance_keyed(&mut deliveries).is_some() {
                events += 1;
            }
            self.errors
                .extend_from_slice(&fab.errors()[self.errors_seen[0]..]);
            self.errors_seen[0] = fab.errors().len();
            self.live = 0;
            return DrainOutcome {
                deliveries,
                events,
                violations: 0,
                null_rounds: 0,
                per_shard: vec![ShardDrainStats {
                    events,
                    pending_high_water: fab.pending_high_water() as u64,
                    ..ShardDrainStats::default()
                }],
            };
        }

        // One bounded SPSC ring and one LBTS cell per directed channel.
        // Before anything runs, no crossing can arrive sooner than one
        // lookahead after time zero.
        let channels = &self.partition.channels;
        let mut channel_of = vec![[usize::MAX; 2]; self.spec.trunks.len()];
        for (c, ch) in channels.iter().enumerate() {
            channel_of[ch.trunk][ch.dir] = c;
        }
        let shared = DrainShared {
            channels,
            channel_of,
            lbts: channels
                .iter()
                .map(|c| AtomicU64::new(c.lookahead.as_nanos()))
                .collect(),
            live: AtomicU64::new(self.live),
        };
        let mut rx: Vec<Vec<Incoming>> = (0..n).map(|_| Vec::new()).collect();
        let mut tx: Vec<Vec<Option<RingSender<CrossFrame>>>> = (0..n)
            .map(|_| channels.iter().map(|_| None).collect())
            .collect();
        for (c, ch) in channels.iter().enumerate() {
            let (sender, ring) = ring(RING_CAPACITY);
            tx[ch.from][c] = Some(sender);
            rx[ch.to].push(Incoming {
                channel: c,
                ring,
                lbts_seen: 0,
            });
        }

        let shared_ref = &shared;
        let errors_seen = &self.errors_seen;
        let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .zip(errors_seen)
                .zip(rx)
                .zip(tx)
                .map(|(((fab, &seen), rx), tx)| {
                    let worker = DrainWorker::new(fab, shared_ref, rx, tx, seen);
                    scope.spawn(move || worker.run())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });

        self.live = shared.live.load(Ordering::Acquire);
        let mut out = DrainOutcome {
            deliveries: Vec::new(),
            events: 0,
            violations: 0,
            null_rounds: 0,
            per_shard: Vec::with_capacity(n),
        };
        let mut delivery_runs = Vec::with_capacity(n);
        let mut error_runs = Vec::with_capacity(n);
        for (s, o) in outcomes.into_iter().enumerate() {
            out.events += o.stats.events;
            out.violations += o.violations;
            out.null_rounds += o.stats.null_rounds;
            out.per_shard.push(o.stats);
            delivery_runs.push(o.deliveries);
            error_runs.push(o.errors);
            self.errors_seen[s] = self.shards[s].errors().len();
        }
        self.errors.append(&mut merge_runs(&error_runs));
        out.deliveries = merge_runs(&delivery_runs);
        out
    }
}

/// Merge per-shard runs, each already in [`EventKey`] order, into one
/// exactly sized vector in global key order. Every event belongs to one
/// shard, so equal keys only ever meet inside a run, whose own order
/// stands.
fn merge_runs<T: Copy>(runs: &[Vec<(EventKey, T)>]) -> Vec<T> {
    let mut merged = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut at = vec![0usize; runs.len()];
    while let Some((_, i)) = (0..runs.len())
        .filter_map(|i| runs[i].get(at[i]).map(|&(k, _)| (k, i)))
        .min()
    {
        merged.push(runs[i][at[i]].1);
        at[i] += 1;
    }
    merged
}

/// What all workers of one drain share: the channel table and, per
/// channel, the published lower bound on the arrival of any frame not
/// yet pushed (its LBTS), plus the live-frame termination counter.
struct DrainShared<'a> {
    channels: &'a [ShardChannel],
    /// `channel_of[trunk][dir]` → channel index, for outbox routing.
    channel_of: Vec<[usize; 2]>,
    /// One cell per channel, written only by the channel's sender
    /// (`Release`) and read by its receiver (`Acquire`): a push made
    /// before the store is in the ring for whoever reads the store.
    lbts: Vec<AtomicU64>,
    live: AtomicU64,
}

/// The receiving end of a channel as its shard's worker holds it.
struct Incoming {
    channel: usize,
    ring: RingReceiver<CrossFrame>,
    /// The channel's LBTS as read before the ring was last drained at the
    /// top of a round: every frame still to come over it arrives at or
    /// after this.
    lbts_seen: u64,
}

/// The sending end of a channel as its shard's worker holds it.
struct Outgoing {
    channel: usize,
    /// Positions in the worker's `rx` of the channels whose frames can be
    /// routed on through this one (static; see
    /// [`CompositeFabric::exit_fed_by`]).
    feeders: Vec<usize>,
    /// Last bound stored in the channel's LBTS cell.
    published: u64,
}

struct WorkerOutcome {
    deliveries: Vec<(EventKey, Delivery)>,
    errors: Vec<(EventKey, (SimTime, Frame, TxError))>,
    violations: u64,
    stats: ShardDrainStats,
}

/// One shard's side of the drain protocol. A round reads the incoming
/// LBTS cells, drains the rings, processes events strictly below the
/// minimum LBTS read, and publishes its own bounds; the worker stops
/// when the global live-frame counter is zero and nothing is pending.
///
/// **What is published.** On outgoing channel `c`,
/// `min(E_c, T_c) + lookahead_c`:
///
/// * `E_c` bounds the frames already inside the shard: the later of the
///   next local event and the earliest pending event of a frame that
///   will leave through `c` ([`CompositeFabric::pending_exit`]), or ∞
///   when no frame inside will. The whole load is enqueued before the
///   workers start and the forwarding tables are static, so the fabric
///   knows this for every frame it holds.
/// * `T_c` bounds the frames still to be injected: the minimum
///   `lbts_seen` over the incoming channels that feed `c`, or ∞ when
///   none does. A frame not yet injected arrives at or after the LBTS
///   read before the drain that missed it.
///
/// A crossing emitted at event time `t` arrives at or after
/// `t + lookahead_c`, and `t` is at or after the frame's pending event
/// (inside) or its arrival (still to come), so the bound is sound. It is
/// never below `min(next_local, horizon) + lookahead_c`, the bound with
/// every frame and every channel feeding every exit, so strictly
/// positive lookahead still lets the globally minimal shard advance.
/// Without the `max` with the next local event, two shards that each
/// hold a long-queued crosser publish bounds below each other's next
/// event forever.
struct DrainWorker<'a> {
    fab: &'a mut CompositeFabric,
    shared: &'a DrainShared<'a>,
    rx: Vec<Incoming>,
    /// Senders by channel index; `None` where another shard sends.
    tx: Vec<Option<RingSender<CrossFrame>>>,
    out: Vec<Outgoing>,
    /// Frames finished (delivered or destroyed) since the shared `live`
    /// counter was last brought up to date.
    retired: u64,
    errors_seen: usize,
    scratch: Vec<Delivery>,
    crossings: Vec<CrossFrame>,
    done: WorkerOutcome,
}

impl<'a> DrainWorker<'a> {
    fn new(
        fab: &'a mut CompositeFabric,
        shared: &'a DrainShared<'a>,
        rx: Vec<Incoming>,
        tx: Vec<Option<RingSender<CrossFrame>>>,
        errors_seen: usize,
    ) -> DrainWorker<'a> {
        let way = |c: usize| (shared.channels[c].trunk, shared.channels[c].dir);
        let out = (0..tx.len())
            .filter(|&c| tx[c].is_some())
            .map(|c| Outgoing {
                channel: c,
                feeders: (0..rx.len())
                    .filter(|&i| fab.exit_fed_by(way(c), way(rx[i].channel)))
                    .collect(),
                published: shared.channels[c].lookahead.as_nanos(),
            })
            .collect();
        DrainWorker {
            fab,
            shared,
            rx,
            tx,
            out,
            retired: 0,
            errors_seen,
            scratch: Vec::new(),
            crossings: Vec::new(),
            done: WorkerOutcome {
                deliveries: Vec::new(),
                errors: Vec::new(),
                violations: 0,
                stats: ShardDrainStats::default(),
            },
        }
    }

    fn run(mut self) -> WorkerOutcome {
        loop {
            // Read every LBTS before draining: anything pushed after the
            // read arrives at or beyond it, so processing strictly below
            // the minimum is safe.
            let mut horizon = u64::MAX;
            for i in &mut self.rx {
                i.lbts_seen = self.shared.lbts[i.channel].load(Ordering::Acquire);
                horizon = horizon.min(i.lbts_seen);
            }
            self.absorb();
            let before = self.done.stats.events;
            // A shard whose horizon is ∞ never leaves the inner loop, so
            // the bounds its peers wait on are published from inside it:
            // when one jumps (a crosser left) and at least every
            // `PUBLISH_EVERY` events. No next event reads as ∞, which no
            // horizon exceeds.
            let mut since_publish = 0u32;
            let mut due = false;
            let next_local = loop {
                let key = self.fab.next_key();
                let next = key.map_or(u64::MAX, |k| k.time.as_nanos());
                let Some(key) = key.filter(|_| next < horizon) else {
                    break next;
                };
                if due {
                    self.publish(next);
                    since_publish = 0;
                }
                let crossed = self.step(key);
                since_publish += 1;
                due = crossed || since_publish >= PUBLISH_EVERY;
            };
            self.publish(next_local);
            if self.shared.live.load(Ordering::Acquire) == 0
                && self.fab.idle()
                && self.rx.iter().all(|i| i.ring.is_empty())
            {
                self.done.stats.pending_high_water = self.fab.pending_high_water() as u64;
                return self.done;
            }
            if self.done.stats.events == before {
                self.done.stats.null_rounds += 1;
                std::thread::yield_now();
            }
        }
    }

    /// Inject everything waiting in the incoming rings. Safe at any
    /// point between events: what a ring holds arrives at or after the
    /// LBTS read before an earlier drain, and the clock is below that.
    fn absorb(&mut self) {
        for i in &self.rx {
            while let Some(cf) = i.ring.try_pop() {
                if cf.arrival() < self.fab.clock() {
                    self.done.violations += 1;
                }
                self.fab.inject(cf);
            }
        }
    }

    /// Process the next event, whose key is `key`; returns whether it
    /// sent a frame across a cut.
    fn step(&mut self, key: EventKey) -> bool {
        self.fab.advance_at(key, &mut self.scratch);
        self.done.stats.events += 1;
        self.retired += self.scratch.len() as u64;
        self.done
            .deliveries
            .extend(self.scratch.drain(..).map(|d| (key, d)));
        let errors = &self.fab.errors()[self.errors_seen..];
        if !errors.is_empty() {
            self.retired += errors.len() as u64;
            self.errors_seen += errors.len();
            self.done.errors.extend(errors.iter().map(|&e| (key, e)));
        }
        let mut crossings = std::mem::take(&mut self.crossings);
        self.fab.drain_outbox(&mut crossings);
        let crossed = !crossings.is_empty();
        for cf in crossings.drain(..) {
            self.send(cf);
        }
        self.crossings = crossings;
        crossed
    }

    /// Push `cf` onto its channel's ring. While the ring is full, keep
    /// emptying our own incoming rings: the receiver may itself be
    /// blocked pushing to us, and two workers that only wait for each
    /// other's ring to drain never finish.
    fn send(&mut self, cf: CrossFrame) {
        let c = self.shared.channel_of[cf.trunk()][cf.dir()];
        let mut pending = cf;
        loop {
            let ring = self.tx[c]
                .as_ref()
                .expect("crossing leaves over an owned channel");
            match ring.try_push(pending) {
                Ok(()) => break,
                Err(back) => {
                    pending = back;
                    self.done.stats.ring_full_stalls += 1;
                    self.absorb();
                    std::thread::yield_now();
                }
            }
        }
        self.done.stats.crossings_sent += 1;
    }

    /// Bring the shared live counter up to date and raise the LBTS of
    /// every outgoing channel whose bound rose (see the type's docs for
    /// the bound). Called only after an event's crossings are pushed, so
    /// a bound that assumes a crosser has left is never visible before
    /// the crosser is. `next_local` is the time of the next local event,
    /// ∞ when there is none.
    fn publish(&mut self, next_local: u64) {
        if self.retired > 0 {
            self.shared.live.fetch_sub(self.retired, Ordering::AcqRel);
            self.retired = 0;
        }
        for o in &mut self.out {
            let ch = &self.shared.channels[o.channel];
            let inside = self
                .fab
                .pending_exit(ch.trunk, ch.dir)
                .map_or(u64::MAX, |t| t.as_nanos().max(next_local));
            let to_come = o
                .feeders
                .iter()
                .map(|&i| self.rx[i].lbts_seen)
                .min()
                .unwrap_or(u64::MAX);
            let bound = inside.min(to_come).saturating_add(ch.lookahead.as_nanos());
            if bound > o.published {
                self.shared.lbts[o.channel].store(bound, Ordering::Release);
                o.published = bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::{FrameKind, HostId, RATE_10M};
    use proptest::prelude::*;

    fn tcp(src: u32, dst: u32, payload: u32, token: u64) -> Frame {
        Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, payload, token)
    }

    fn specs() -> Vec<TopologySpec> {
        vec![
            TopologySpec::single_segment(4, RATE_10M),
            TopologySpec::two_switches_trunk(4, RATE_10M),
            TopologySpec::two_level_tree(4, RATE_10M),
            TopologySpec::routed_two_subnets(4, RATE_10M),
        ]
    }

    /// Drive an all-pairs burst load through whatever `enqueue` is given.
    fn offer(mut enqueue: impl FnMut(NicId, Frame, SimTime), hosts: u32, frames: u32) {
        for i in 0..frames {
            let src = i % hosts;
            let dst = (i + 1 + (i / hosts)) % hosts;
            let dst = if dst == src { (dst + 1) % hosts } else { dst };
            let f = tcp(src, dst, 120 + (i * 97) % 900, u64::from(i) + 1);
            let t = SimTime::from_micros(u64::from(i / hosts) * 450);
            enqueue(NicId(src), f, t);
        }
    }

    /// Every host sends to its mirror across the middle of the host
    /// list, all at once, round after round: every frame crosses every
    /// cut on its path, in both directions, and at three shards of
    /// `tree2`/`routed2` every frame transits the root/router shard.
    fn offer_crossing(mut enqueue: impl FnMut(NicId, Frame, SimTime), hosts: u32, frames: u32) {
        for i in 0..frames {
            let src = i % hosts;
            let f = tcp(
                src,
                (src + hosts / 2) % hosts,
                60 + (i * 131) % 1200,
                u64::from(i) + 1,
            );
            let t = SimTime::from_micros(u64::from(i / hosts) * 300);
            enqueue(NicId(src), f, t);
        }
    }

    type Load = fn(&mut dyn FnMut(NicId, Frame, SimTime), u32, u32);

    /// The offered-load shapes the drain tests sweep.
    fn loads() -> [(&'static str, Load); 2] {
        [
            ("all-pairs", |e, h, n| offer(e, h, n)),
            ("crossing", |e, h, n| offer_crossing(e, h, n)),
        ]
    }

    /// Hops over cut trunks the load's frames make on their routes: the
    /// crossings a drain has to send.
    fn cut_hops(spec: &TopologySpec, cuts: &[usize], load: Load, hosts: u32, frames: u32) -> u64 {
        let fwd = spec.forwarding();
        let mut hops = 0;
        let mut count = |_: NicId, f: Frame, _: SimTime| {
            let mut at = spec.attachments[f.src.0 as usize];
            let dst = spec.attachments[f.dst.0 as usize];
            while let Some(t) = fwd[at][dst] {
                hops += u64::from(cuts.contains(&t));
                let trunk = spec.trunks[t];
                at = if trunk.a == at { trunk.b } else { trunk.a };
            }
        };
        load(&mut count, hosts, frames);
        hops
    }

    /// Run `drain_parallel` on a helper thread and fail, instead of
    /// hanging the suite, when it does not come back.
    fn drain_within(
        mut fab: ShardedFabric,
        secs: u64,
        label: &str,
    ) -> (ShardedFabric, DrainOutcome) {
        let (done, wait) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = fab.drain_parallel();
            let _ = done.send((fab, outcome));
        });
        wait.recv_timeout(std::time::Duration::from_secs(secs))
            .unwrap_or_else(|_| panic!("{label}: drain did not terminate within {secs} s"))
    }

    fn assert_same_deliveries(got: &[Delivery], want: &[Delivery], label: &str) {
        assert_eq!(got.len(), want.len(), "{label}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.time, w.time, "{label}");
            assert_eq!(g.frame, w.frame, "{label}");
            assert_eq!(g.meta, w.meta, "{label}");
        }
    }

    /// The offered load on the sequential fabric the drain is held to:
    /// the fabric, idle, and everything it delivered.
    fn sequential(
        spec: &TopologySpec,
        ether: &EtherConfig,
        seed: u64,
        load: Load,
        frames: u32,
    ) -> (CompositeFabric, Vec<Delivery>) {
        let mut seq = CompositeFabric::new(spec.clone(), ether, seed);
        load(&mut |nic, f, t| seq.enqueue(nic, f, t), 4, frames);
        let want = seq.run_to_idle();
        (seq, want)
    }

    /// The threaded drain merges to exactly the sequential fabric's
    /// delivery stream — per-hop `meta` included — with the same surfaced
    /// errors, MAC statistics and per-node flows and zero causality
    /// violations, on every sweep topology under all-pairs and
    /// all-crossing loads. (Named for its first reference, the
    /// cooperative pull loop, which was itself held to this one.)
    #[test]
    fn drain_parallel_matches_pull_mode() {
        let ether = EtherConfig::default();
        for spec in specs() {
            for (shape, load) in loads() {
                let (seq, want) = sequential(&spec, &ether, 23, load, 40);
                for shards in [1usize, 2, 4] {
                    let mut par = ShardedFabric::new(spec.clone(), &ether, 23, shards);
                    load(&mut |nic, f, t| par.enqueue(nic, f, t), 4, 40);
                    let outcome = par.drain_parallel();
                    let label = format!("{} {shape} @ {shards} shards", spec.label());
                    assert_eq!(outcome.violations, 0, "{label}");
                    assert_same_deliveries(&outcome.deliveries, &want, &label);
                    assert_eq!(par.stats(), seq.stats(), "{label}");
                    assert_eq!(par.errors(), seq.errors(), "{label}");
                    assert_eq!(par.flows(), seq.flows(), "{label}");
                    assert!(par.idle(), "{label}");
                    // The per-shard health counters add up, and count
                    // every hop a frame makes across a cut.
                    let per_shard = &outcome.per_shard;
                    assert_eq!(per_shard.len(), par.shard_count(), "{label}");
                    let sum = |f: fn(&ShardDrainStats) -> u64| per_shard.iter().map(f).sum::<u64>();
                    assert_eq!(sum(|s| s.events), outcome.events, "{label}");
                    assert_eq!(sum(|s| s.null_rounds), outcome.null_rounds, "{label}");
                    let hops = cut_hops(&spec, &par.partition().cut_trunks, load, 4, 40);
                    assert_eq!(sum(|s| s.crossings_sent), hops, "{label}");
                }
            }
        }
    }

    /// Thread scheduling must not leak into the result: repeated
    /// threaded drains of the same offered load are identical.
    #[test]
    fn drain_parallel_is_deterministic_across_runs() {
        let ether = EtherConfig::default();
        let spec = TopologySpec::two_level_tree(4, RATE_10M);
        let mut runs = Vec::new();
        for _ in 0..3 {
            let mut fab = ShardedFabric::new(spec.clone(), &ether, 5, 3);
            offer(|nic, f, t| fab.enqueue(nic, f, t), 4, 60);
            let out = fab.drain_parallel();
            assert_eq!(out.violations, 0);
            runs.push(
                out.deliveries
                    .iter()
                    .map(|d| (d.time, d.frame, d.meta))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    /// More simultaneous crossings in each direction than two rings hold:
    /// a worker blocked on a full outgoing ring must keep draining its
    /// incoming ones, or both sides wait on each other forever.
    #[test]
    fn full_rings_in_both_directions_do_not_deadlock() {
        let hosts = 4200u32;
        assert!(hosts as usize / 2 > 2 * RING_CAPACITY);
        let spec = TopologySpec::two_switches_trunk(hosts, RATE_10M);
        let mut fab = ShardedFabric::new(spec, &EtherConfig::default(), 1, 2);
        for h in 0..hosts {
            let f = tcp(h, (h + hosts / 2) % hosts, 1, u64::from(h) + 1);
            fab.enqueue(NicId(h), f, SimTime::ZERO);
        }
        let (fab, outcome) = drain_within(fab, 60, "4200 mirrored senders");
        assert_eq!(outcome.violations, 0);
        assert_eq!(outcome.deliveries.len(), hosts as usize);
        assert!(fab.idle());
        for s in &outcome.per_shard {
            assert_eq!(s.crossings_sent, u64::from(hosts / 2));
        }
    }

    /// Frames destroyed on a segment — cross-bound ones included — leave
    /// no pending-exit entry behind to hold a peer back: every drain of a
    /// lossy routed fabric terminates, and equals the sequential fabric
    /// on deliveries, surfaced errors, MAC statistics and flows. (Named
    /// for its first reference, as `drain_parallel_matches_pull_mode`.)
    #[test]
    fn lossy_segments_drain_like_pull_mode() {
        let ether = EtherConfig {
            drop_prob: 0.2,
            ..EtherConfig::default()
        };
        let spec = TopologySpec::routed_two_subnets(4, RATE_10M);
        for (shape, load) in loads() {
            let (seq, want) = sequential(&spec, &ether, 31, load, 80);
            assert!(!seq.errors().is_empty(), "{shape}: the load loses frames");
            assert_eq!(want.len() + seq.errors().len(), 80, "{shape}");
            for shards in [1usize, 2, 3] {
                let label = format!("{} {shape} @ {shards} shards", spec.label());
                let mut par = ShardedFabric::new(spec.clone(), &ether, 31, shards);
                load(&mut |nic, f, t| par.enqueue(nic, f, t), 4, 80);
                let (par, outcome) = drain_within(par, 60, &label);
                assert_eq!(outcome.violations, 0, "{label}");
                assert_same_deliveries(&outcome.deliveries, &want, &label);
                assert_eq!(par.errors(), seq.errors(), "{label}");
                assert_eq!(par.stats(), seq.stats(), "{label}");
                assert_eq!(par.flows(), seq.flows(), "{label}");
                assert!(par.idle(), "{label}");
            }
        }
    }

    proptest! {
        /// The conservative lookahead never admits a frame earlier than
        /// the receiving shard's local clock, and the merge is the
        /// sequential fabric's stream: zero violations and equal
        /// deliveries for random offered loads of both shapes on every
        /// sweep topology.
        #[test]
        fn lookahead_never_violates_causality(
            seed in 0u64..1_000,
            frames in 1u32..48,
            shards in 1usize..5,
        ) {
            let ether = EtherConfig::default();
            for spec in specs() {
                for (shape, load) in loads() {
                    let (_, want) = sequential(&spec, &ether, seed, load, frames);
                    let mut par = ShardedFabric::new(spec.clone(), &ether, seed, shards);
                    load(&mut |nic, f, t| par.enqueue(nic, f, t), 4, frames);
                    let out = par.drain_parallel();
                    prop_assert_eq!(out.violations, 0);
                    let label = format!("{} {shape} @ {shards} shards", spec.label());
                    assert_same_deliveries(&out.deliveries, &want, &label);
                }
            }
        }
    }
}
