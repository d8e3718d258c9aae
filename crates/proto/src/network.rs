//! The protocol engine: hosts, TCP connections, UDP, and timers over one
//! fabric (the paper's shared bus or a compiled topology), and the one
//! promiscuous capture point: every final delivery the fabric hands up
//! becomes one [`FrameRecord`], fed in delivery order to the trace, the
//! live [`FrameTap`] and the causal log.

use crate::tcp::{ConnId, ConnState, Dir, TcpConn, WriteChunk};
use bytes::Bytes;
use fxnet_sim::{
    ethernet::Delivery, CausalEvent, CauseId, EtherBus, EtherConfig, EtherStats, EventQueue, Frame,
    FrameKind, FrameMeta, FrameRecord, FrameTap, HostId, LinkStats, NicId, ProtoCause, SimRng,
    SimTime, BUS_LINK, RATE_10M,
};
use fxnet_topo::{CompositeFabric, TopologySpec};
/// Maximum TCP payload per segment (1500 B MTU − 40 B headers).
pub const MSS: u32 = 1460;
/// Maximum UDP payload per datagram (1500 B MTU − 28 B headers).
pub const MAX_UDP: usize = 1472;

/// Link-layer selection: the paper's shared bus, the switched-fabric
/// counterfactual (DESIGN.md §8 ablation), or a declarative
/// multi-segment topology (DESIGN.md §11).
#[derive(Debug, Clone)]
pub enum LinkKind {
    /// Single CSMA/CD collision domain (the measured environment).
    SharedBus,
    /// One store-and-forward switch with a full-duplex 10 Mb/s port per
    /// host: [`TopologySpec::single_switch`] over however many hosts the
    /// stack is built with.
    Switched,
    /// A compiled multi-segment topology: segments, switches, routers,
    /// and trunks (`fxnet-topo`). A single-segment spec reproduces the
    /// `SharedBus` trace byte for byte.
    Topology(TopologySpec),
}

/// Stack configuration. Defaults model the paper's OSF/1-era environment.
#[derive(Debug, Clone)]
pub struct NetConfig {
    pub ether: EtherConfig,
    /// Which link layer carries the frames.
    pub link: LinkKind,
    /// TCP maximum segment size.
    pub mss: u32,
    /// Fixed send window in bytes (default socket buffer of the era).
    pub window: u32,
    /// Acknowledge immediately after this many unacknowledged segments.
    pub ack_every: u32,
    /// Delayed-ACK timeout for sub-threshold data.
    pub delack: SimTime,
    /// Retransmission timeout (go-back-N; lossy-bus extension only).
    pub rto: SimTime,
    /// Seed for the MAC backoff RNG.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            ether: EtherConfig::default(),
            link: LinkKind::SharedBus,
            mss: MSS,
            window: 32 * 1024,
            ack_every: 2,
            delack: SimTime::from_millis(200),
            rto: SimTime::from_millis(1000),
            seed: 0x5EED,
        }
    }
}

/// Events surfaced to the layer above (PVM).
#[derive(Debug, Clone)]
pub enum AppEvent {
    /// In-order TCP payload bytes arrived.
    TcpData {
        time: SimTime,
        conn: ConnId,
        dir: Dir,
        data: Bytes,
    },
    /// Three-way handshake completed.
    TcpEstablished { time: SimTime, conn: ConnId },
    /// A UDP datagram arrived.
    Udp {
        time: SimTime,
        src: HostId,
        dst: HostId,
        data: Bytes,
    },
}

#[derive(Debug)]
enum TokenInfo {
    Data {
        conn: ConnId,
        dir: Dir,
        seq: u64,
        bytes: Bytes,
        /// Cause of the application write this segment was cut from. A
        /// retransmission keeps the original cause.
        cause: CauseId,
        /// Whether this frame is a go-back-N retransmission.
        retx: bool,
    },
    Ack {
        conn: ConnId,
        /// Direction of the *data* being acknowledged.
        dir: Dir,
        upto: u64,
    },
    Syn {
        conn: ConnId,
        stage: u8,
    },
    Udp {
        src: HostId,
        dst: HostId,
        bytes: Bytes,
        /// Cause of the datagram (app op, heartbeat, or daemon ACK).
        cause: CauseId,
    },
}

/// Slab of in-flight frame payloads keyed by [`Frame::token`].
///
/// Token 0 means "no token"; a live token encodes its slot index plus
/// one, so lookup is a bounds-checked `Vec` index rather than a hash.
/// Slots freed on delivery (or bus reaping) are recycled through a free
/// list, so the table stays as small as the peak number of frames
/// simultaneously on the wire instead of growing with every frame ever
/// sent. Recycling is safe because a token is only looked up while its
/// frame is in flight, and in-flight tokens are unique.
#[derive(Debug, Default)]
struct TokenTable {
    slots: Vec<Option<TokenInfo>>,
    free: Vec<u32>,
}

impl TokenTable {
    fn insert(&mut self, info: TokenInfo) -> u64 {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(info);
                s as usize
            }
            None => {
                self.slots.push(Some(info));
                self.slots.len() - 1
            }
        };
        slot as u64 + 1
    }

    fn remove(&mut self, token: u64) -> Option<TokenInfo> {
        let idx = usize::try_from(token.checked_sub(1)?).ok()?;
        let info = self.slots.get_mut(idx)?.take()?;
        self.free.push(idx as u32);
        Some(info)
    }
}

#[derive(Debug, Clone, Copy)]
enum Timer {
    DelAck {
        conn: ConnId,
        dir: Dir,
    },
    Rto {
        conn: ConnId,
        dir: Dir,
        epoch: u64,
    },
    /// Handshake retransmission: stage 0 retries the SYN while the
    /// connection is still `SynSent`; stage 1 retries the SYN-ACK while
    /// still `SynAckSent`.
    SynRetry {
        conn: ConnId,
        stage: u8,
    },
}

/// The frame-carrying fabric beneath the stack. (The bus variant is much
/// larger than the box; exactly one Fabric exists per Network, so the
/// size difference is irrelevant.)
#[allow(clippy::large_enum_variant)]
enum Fabric {
    Bus(EtherBus),
    Topo(Box<CompositeFabric>),
}

impl Fabric {
    fn enqueue(&mut self, nic: NicId, frame: Frame, now: SimTime) {
        match self {
            Fabric::Bus(b) => b.enqueue(nic, frame, now),
            Fabric::Topo(t) => t.enqueue(nic, frame, now),
        }
    }

    fn next_event_time(&self) -> Option<SimTime> {
        match self {
            Fabric::Bus(b) => b.next_event_time(),
            Fabric::Topo(t) => t.next_event_time(),
        }
    }

    fn advance(&mut self, out: &mut Vec<Delivery>) -> Option<SimTime> {
        match self {
            Fabric::Bus(b) => b.advance(out),
            Fabric::Topo(t) => t.advance(out),
        }
    }

    fn idle(&self) -> bool {
        match self {
            Fabric::Bus(b) => b.idle(),
            Fabric::Topo(t) => t.idle(),
        }
    }

    fn stats(&self) -> EtherStats {
        match self {
            Fabric::Bus(b) => b.stats(),
            Fabric::Topo(t) => t.stats(),
        }
    }

    fn host_count(&self) -> usize {
        match self {
            Fabric::Bus(b) => b.nic_count(),
            Fabric::Topo(t) => t.host_count(),
        }
    }

    /// Errors surfaced for frames the fabric destroyed.
    fn errors(&self) -> &[(SimTime, Frame, fxnet_sim::TxError)] {
        match self {
            Fabric::Bus(b) => b.errors(),
            Fabric::Topo(t) => t.errors(),
        }
    }

    /// Enable/disable passive per-link sampling.
    fn set_link_sampling(&mut self, on: bool) {
        match self {
            Fabric::Bus(b) => b.set_link_sampling(on),
            Fabric::Topo(t) => t.set_link_sampling(on),
        }
    }

    /// Take the accumulated per-link sample series, if sampling is on.
    fn take_link_stats(&mut self) -> Option<LinkStats> {
        match self {
            Fabric::Bus(b) => Some(LinkStats {
                links: vec![(BUS_LINK.to_string(), b.take_link_series()?)],
            }),
            Fabric::Topo(t) => t.take_link_stats(),
        }
    }
}

/// Aggregate TCP-layer counters, snapshot via [`Network::tcp_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TcpStats {
    /// Data segments handed to the MAC layer (first transmissions only).
    pub data_segments: u64,
    /// Pure cumulative ACK frames sent.
    pub acks_sent: u64,
    /// Delayed-ACK timers that fired while still armed (the 200 ms clock
    /// the paper blames for half-window stalls).
    pub delayed_ack_fires: u64,
    /// SYN frames sent, including handshake retries.
    pub syn_frames: u64,
    /// Go-back-N retransmission bursts across all connections.
    pub retransmits: u64,
}

/// The protocol stack: every host's TCP/UDP endpoints over one fabric.
pub struct Network {
    cfg: NetConfig,
    fabric: Fabric,
    conns: Vec<TcpConn>,
    timers: EventQueue<Timer>,
    tokens: TokenTable,
    errors_seen: usize,
    scratch: Vec<Delivery>,
    tcp_stats: TcpStats,
    /// Whether every delivery's record is kept in `trace`.
    promiscuous: bool,
    /// The promiscuous trace: one record per final delivery, in delivery
    /// order.
    trace: Vec<FrameRecord>,
    /// Live observer of every delivery's record, promiscuous or not.
    tap: Option<FrameTap>,
    /// Tagged delivery log, `Some` while causal capture is enabled. One
    /// event per delivered frame, in exactly delivery (= trace) order.
    causal: Option<Vec<CausalEvent>>,
}

impl Network {
    /// Build a stack with `hosts` stations attached to a fresh fabric of
    /// the configured [`LinkKind`].
    pub fn new(cfg: NetConfig, hosts: usize) -> Network {
        // `Switched` learns its port count here, as `SharedBus` does.
        let spec = match &cfg.link {
            LinkKind::SharedBus => None,
            LinkKind::Switched => Some(TopologySpec::single_switch(hosts as u32, RATE_10M)),
            LinkKind::Topology(spec) => Some(spec.clone()),
        };
        let fabric = match spec {
            None => {
                let mut b = EtherBus::new(cfg.ether.clone(), SimRng::new(cfg.seed));
                for _ in 0..hosts {
                    b.attach();
                }
                Fabric::Bus(b)
            }
            Some(spec) => {
                assert!(
                    spec.host_count() >= hosts,
                    "topology '{}' attaches {} hosts but the stack needs {hosts}",
                    spec.id,
                    spec.host_count(),
                );
                // A `single_segment` spec is `EtherBus` byte for byte, so
                // one type could carry both variants and this enum could
                // go. Tried and measured in PR 15, with a since-deleted
                // pull-capable sharded fabric as the carrier: every
                // `benchmark/expected.json` digest held, but `bulk-bus`
                // `wall_s` rose 3.4–4.9 % in the median (minimum 3.37 →
                // 3.55 s, 3.42 → 3.84 s over 6 + 8 alternating pairs on 2
                // vCPUs) and `airshed-trunk2` 2.12 → 2.27 s — the engine,
                // PVM and TCP each peek the fabric once per event, so
                // whatever the peek costs over the bus's is paid three
                // times (ROADMAP, Parked).
                Fabric::Topo(Box::new(CompositeFabric::new(spec, &cfg.ether, cfg.seed)))
            }
        };
        Network {
            cfg,
            fabric,
            conns: Vec::new(),
            timers: EventQueue::new(),
            tokens: TokenTable::default(),
            errors_seen: 0,
            scratch: Vec::new(),
            tcp_stats: TcpStats::default(),
            promiscuous: false,
            trace: Vec::new(),
            tap: None,
            causal: None,
        }
    }

    /// Enable or disable causal capture. Tagging rides the token
    /// side-table only, so the schedule, the RNG, and the promiscuous
    /// trace are byte-identical either way.
    pub fn set_causal(&mut self, on: bool) {
        self.causal = on.then(Vec::new);
    }

    /// Take ownership of the causal event log (if capture was enabled).
    pub fn take_causal(&mut self) -> Option<Vec<CausalEvent>> {
        self.causal.as_mut().map(std::mem::take)
    }

    /// Number of hosts on the LAN.
    pub fn host_count(&self) -> usize {
        self.fabric.host_count()
    }

    /// Enable the promiscuous trace (the tcpdump workstation).
    pub fn set_promiscuous(&mut self, on: bool) {
        self.promiscuous = on;
    }

    /// Install a live frame tap at the promiscuous capture point (see
    /// [`fxnet_sim::FrameTap`]); `None` removes it.
    pub fn set_tap(&mut self, tap: Option<FrameTap>) {
        self.tap = tap;
    }

    /// The promiscuous trace so far.
    pub fn trace(&self) -> &[FrameRecord] {
        &self.trace
    }

    /// Take ownership of the promiscuous trace.
    pub fn take_trace(&mut self) -> Vec<FrameRecord> {
        std::mem::take(&mut self.trace)
    }

    /// MAC statistics.
    pub fn ether_stats(&self) -> EtherStats {
        self.fabric.stats()
    }

    /// Enable or disable passive per-link sampling — the fabric
    /// weather-map feed, in [`fxnet_sim::LINK_WINDOW_NS`] windows.
    /// Strictly observational: the schedule, RNG, and promiscuous trace
    /// are byte-identical either way.
    pub fn set_link_sampling(&mut self, on: bool) {
        self.fabric.set_link_sampling(on);
    }

    /// Take the accumulated per-link sample series, if sampling is on.
    pub fn take_link_stats(&mut self) -> Option<LinkStats> {
        self.fabric.take_link_stats()
    }

    /// Bytes host `h` has committed to TCP but not yet had acknowledged:
    /// unsent write-queue bytes plus in-flight segments, summed over its
    /// connections. This models the sender-side socket buffer occupancy a
    /// blocking `write` checks against.
    pub fn host_tcp_backlog(&self, h: HostId) -> u64 {
        let half_backlog = |half: &crate::tcp::Half| -> u64 {
            let unsent: usize = half.sndq.iter().map(|c| c.data.len() - c.sent).sum();
            unsent as u64 + half.inflight()
        };
        self.conns
            .iter()
            .map(|c| {
                let mut b = 0;
                if c.a == h {
                    b += half_backlog(&c.ab);
                }
                if c.b == h {
                    b += half_backlog(&c.ba);
                }
                b
            })
            .sum()
    }

    /// Total retransmitted bursts across all connections (lossy extension).
    pub fn total_retransmits(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.ab.retransmits + c.ba.retransmits)
            .sum()
    }

    /// Snapshot of the TCP-layer counters.
    pub fn tcp_stats(&self) -> TcpStats {
        TcpStats {
            retransmits: self.total_retransmits(),
            ..self.tcp_stats
        }
    }

    /// Largest number of protocol timers ever pending at once.
    pub fn timer_high_water(&self) -> usize {
        self.timers.high_water()
    }

    fn token(&mut self, info: TokenInfo) -> u64 {
        self.tokens.insert(info)
    }

    fn nic(h: HostId) -> NicId {
        NicId(h.0)
    }

    /// Initiate a TCP connection from `a` to `b` (SYN at time `now`).
    pub fn connect(&mut self, a: HostId, b: HostId, now: SimTime) -> ConnId {
        assert_ne!(a, b, "loopback connections never reach the wire");
        let id = ConnId(self.conns.len() as u32);
        self.conns.push(TcpConn::new(a, b, now));
        let tok = self.token(TokenInfo::Syn { conn: id, stage: 0 });
        self.tcp_stats.syn_frames += 1;
        self.fabric
            .enqueue(Self::nic(a), Frame::tcp(a, b, FrameKind::Syn, 0, tok), now);
        self.timers
            .push(now + self.cfg.rto, Timer::SynRetry { conn: id, stage: 0 });
        id
    }

    /// Queue application bytes on `conn` from host `from` at time `now`.
    ///
    /// Each call is one socket write: it is segmented independently
    /// (`TCP_NODELAY`), never coalesced with neighbouring writes.
    pub fn tcp_write(&mut self, conn: ConnId, from: HostId, data: Bytes, now: SimTime) {
        self.tcp_write_caused(conn, from, data, now, CauseId::NONE);
    }

    /// [`Network::tcp_write`] with a causal tag: every segment cut from
    /// this write (including retransmissions) carries `cause`.
    pub fn tcp_write_caused(
        &mut self,
        conn: ConnId,
        from: HostId,
        data: Bytes,
        now: SimTime,
        cause: CauseId,
    ) {
        if data.is_empty() {
            return;
        }
        let dir = self.conns[conn.0 as usize].dir_from(from);
        self.conns[conn.0 as usize]
            .half_mut(dir)
            .sndq
            .push_back(WriteChunk {
                data,
                sent: 0,
                cause,
            });
        self.try_emit(conn, dir, now);
    }

    /// Send a UDP datagram tagged with `cause`. Payload must fit one MTU;
    /// the PVM daemon layer fragments above this.
    pub fn udp_send_caused(
        &mut self,
        src: HostId,
        dst: HostId,
        data: Bytes,
        now: SimTime,
        cause: CauseId,
    ) {
        assert!(data.len() <= MAX_UDP, "datagram exceeds MTU");
        assert_ne!(src, dst);
        let len = data.len() as u32;
        let tok = self.token(TokenInfo::Udp {
            src,
            dst,
            bytes: data,
            cause,
        });
        self.fabric
            .enqueue(Self::nic(src), Frame::udp(src, dst, len, tok), now);
    }

    /// Emit as many segments as the window allows for `conn`/`dir`.
    fn try_emit(&mut self, conn: ConnId, dir: Dir, now: SimTime) {
        let (window, mss) = (u64::from(self.cfg.window), self.cfg.mss as usize);
        loop {
            let c = &mut self.conns[conn.0 as usize];
            if c.state != ConnState::Established {
                return;
            }
            let (src, dst) = (c.src(dir), c.dst(dir));
            let h = c.half_mut(dir);
            if h.inflight() >= window || !h.has_pending() {
                break;
            }
            let Some(chunk) = h.sndq.front_mut() else {
                break;
            };
            let n = mss.min(chunk.data.len() - chunk.sent);
            let payload = chunk.data.slice(chunk.sent..chunk.sent + n);
            let cause = chunk.cause;
            chunk.sent += n;
            let done = chunk.sent == chunk.data.len();
            if done {
                h.sndq.pop_front();
            }
            let seq = {
                let h = self.conns[conn.0 as usize].half_mut(dir);
                let seq = h.snd_next;
                h.snd_next += n as u64;
                h.unacked.push_back((seq, payload.clone(), cause));
                seq
            };
            let tok = self.token(TokenInfo::Data {
                conn,
                dir,
                seq,
                bytes: payload,
                cause,
                retx: false,
            });
            self.tcp_stats.data_segments += 1;
            self.fabric.enqueue(
                Self::nic(src),
                Frame::tcp(src, dst, FrameKind::Data, n as u32, tok),
                now,
            );
            self.arm_rto_if_needed(conn, dir, now);
        }
    }

    fn arm_rto_if_needed(&mut self, conn: ConnId, dir: Dir, now: SimTime) {
        let rto = self.cfg.rto;
        let h = self.conns[conn.0 as usize].half_mut(dir);
        if !h.rto_armed && h.inflight() > 0 {
            h.rto_armed = true;
            h.rto_epoch += 1;
            let epoch = h.rto_epoch;
            self.timers.push(now + rto, Timer::Rto { conn, dir, epoch });
        }
    }

    /// Send a pure cumulative ACK for data flowing in `dir` on `conn`.
    fn send_ack(&mut self, conn: ConnId, dir: Dir, now: SimTime) {
        let c = &mut self.conns[conn.0 as usize];
        // The ACK travels opposite to the data.
        let (from, to) = (c.dst(dir), c.src(dir));
        let upto = {
            let h = c.half_mut(dir);
            h.segs_since_ack = 0;
            h.delack_armed = false;
            h.rcv_next
        };
        let tok = self.token(TokenInfo::Ack { conn, dir, upto });
        self.tcp_stats.acks_sent += 1;
        self.fabric.enqueue(
            Self::nic(from),
            Frame::tcp(from, to, FrameKind::Ack, 0, tok),
            now,
        );
    }

    /// Time of the next protocol or MAC event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        match (self.fabric.next_event_time(), self.timers.peek_time()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether nothing is pending anywhere in the stack.
    pub fn idle(&self) -> bool {
        self.fabric.idle() && self.timers.is_empty()
    }

    /// Process exactly one event, appending application events to `out`.
    /// Returns the event time, or `None` if the stack is idle.
    pub fn advance(&mut self, out: &mut Vec<AppEvent>) -> Option<SimTime> {
        let t_fabric = self.fabric.next_event_time();
        let t_tmr = self.timers.peek_time();
        let fabric_first = match (t_fabric, t_tmr) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(tf), Some(tt)) => tf <= tt,
        };
        if fabric_first {
            self.scratch.clear();
            let mut deliveries = std::mem::take(&mut self.scratch);
            let t = self.fabric.advance(&mut deliveries);
            self.reap_fabric_errors();
            let capture = self.promiscuous || self.tap.is_some() || self.causal.is_some();
            for d in &deliveries {
                // A reaped or stale token leaves its frame no info.
                let info = self.tokens.remove(d.frame.token);
                if capture {
                    self.capture(d, info.as_ref());
                }
                if let Some(info) = info {
                    self.handle_frame(d.time, info, out);
                }
            }
            self.scratch = deliveries;
            t
        } else {
            let (t, timer) = self.timers.pop()?;
            self.handle_timer(t, timer);
            Some(t)
        }
    }

    /// Drain every pending event up to quiescence, collecting app events.
    pub fn run_to_idle(&mut self) -> Vec<AppEvent> {
        let mut out = Vec::new();
        while self.advance(&mut out).is_some() {}
        out
    }

    /// The promiscuous capture of one final delivery: its record goes to
    /// the tap and, in promiscuous mode, to the trace, and its causal
    /// event to the causal log, so event `i` describes trace row `i`.
    fn capture(&mut self, d: &Delivery, info: Option<&TokenInfo>) {
        let record = FrameRecord::capture(d.time, &d.frame);
        if let Some(tap) = &mut self.tap {
            tap(&record);
        }
        if self.promiscuous {
            self.trace.push(record);
        }
        if let Some(log) = &mut self.causal {
            log.push(Self::causal_event(info, d.meta));
        }
    }

    /// Drop token-table entries for frames the fabric destroyed
    /// (collision overflow or corruption) so the table does not leak.
    /// Works across fabrics: the composite topology surfaces segment
    /// losses with original tokens restored.
    fn reap_fabric_errors(&mut self) {
        let errs = self.fabric.errors();
        while self.errors_seen < errs.len() {
            let (_, frame, _) = errs[self.errors_seen];
            self.tokens.remove(frame.token);
            self.errors_seen += 1;
        }
    }

    fn handle_timer(&mut self, now: SimTime, timer: Timer) {
        match timer {
            Timer::DelAck { conn, dir } => {
                if self.conns[conn.0 as usize].half(dir).delack_armed {
                    self.tcp_stats.delayed_ack_fires += 1;
                    self.send_ack(conn, dir, now);
                }
            }
            Timer::SynRetry { conn, stage } => {
                let rto = self.cfg.rto;
                let (a, b, state) = {
                    let c = &self.conns[conn.0 as usize];
                    (c.a, c.b, c.state)
                };
                let retry = match (stage, state) {
                    (0, ConnState::SynSent) => Some((a, b)),
                    (1, ConnState::SynAckSent) => Some((b, a)),
                    _ => None, // handshake progressed; stop retrying
                };
                if let Some((from, to)) = retry {
                    let tok = self.token(TokenInfo::Syn { conn, stage });
                    self.tcp_stats.syn_frames += 1;
                    self.fabric.enqueue(
                        Self::nic(from),
                        Frame::tcp(from, to, FrameKind::Syn, 0, tok),
                        now,
                    );
                    self.timers.push(now + rto, Timer::SynRetry { conn, stage });
                }
            }
            Timer::Rto { conn, dir, epoch } => {
                let rto = self.cfg.rto;
                let c = &mut self.conns[conn.0 as usize];
                let (src, dst) = (c.src(dir), c.dst(dir));
                let h = c.half_mut(dir);
                if !h.rto_armed || h.rto_epoch != epoch {
                    return; // stale
                }
                if h.inflight() == 0 {
                    h.rto_armed = false;
                    return;
                }
                // Go-back-N: retransmit everything outstanding. Each
                // resent segment keeps its original cause, flagged as a
                // retransmission (the causal `Retransmit` edge).
                h.retransmits += 1;
                let resend: Vec<(u64, Bytes, CauseId)> = h.unacked.iter().cloned().collect();
                h.rto_epoch += 1;
                let epoch = h.rto_epoch;
                for (seq, bytes, cause) in resend {
                    let n = bytes.len() as u32;
                    let tok = self.token(TokenInfo::Data {
                        conn,
                        dir,
                        seq,
                        bytes,
                        cause,
                        retx: true,
                    });
                    self.fabric.enqueue(
                        Self::nic(src),
                        Frame::tcp(src, dst, FrameKind::Data, n, tok),
                        now,
                    );
                }
                self.timers.push(now + rto, Timer::Rto { conn, dir, epoch });
            }
        }
    }

    /// The causal event of a delivered frame whose token carried `info`;
    /// a frame without one is untagged. Pure bookkeeping, so timing is
    /// untouched.
    fn causal_event(info: Option<&TokenInfo>, meta: FrameMeta) -> CausalEvent {
        let (cause, retx, conn, dir, seq) = match info {
            Some(&TokenInfo::Data {
                conn,
                dir,
                seq,
                cause,
                retx,
                ..
            }) => (cause, retx, conn.0, dir as u8, seq),
            Some(&TokenInfo::Ack { conn, dir, upto }) => {
                let ack = CauseId::protocol(ProtoCause::Ack);
                (ack, false, conn.0, dir as u8, upto)
            }
            Some(&TokenInfo::Syn { conn, stage }) => {
                let syn = CauseId::protocol(ProtoCause::Syn);
                (syn, false, conn.0, 0, u64::from(stage))
            }
            Some(&TokenInfo::Udp { cause, .. }) => (cause, false, 0, 0, 0),
            None => (CauseId::NONE, false, 0, 0, 0),
        };
        CausalEvent {
            cause,
            retx,
            conn,
            dir,
            seq,
            meta,
        }
    }

    fn handle_frame(&mut self, now: SimTime, info: TokenInfo, out: &mut Vec<AppEvent>) {
        match info {
            TokenInfo::Udp {
                src, dst, bytes, ..
            } => {
                out.push(AppEvent::Udp {
                    time: now,
                    src,
                    dst,
                    data: bytes,
                });
            }
            TokenInfo::Syn { conn, stage } => self.handle_syn(now, conn, stage, out),
            TokenInfo::Ack { conn, dir, upto } => self.handle_ack(now, conn, dir, upto),
            TokenInfo::Data {
                conn,
                dir,
                seq,
                bytes,
                ..
            } => self.handle_data(now, conn, dir, seq, bytes, out),
        }
    }

    fn handle_syn(&mut self, now: SimTime, conn: ConnId, stage: u8, out: &mut Vec<AppEvent>) {
        let (a, b, state) = {
            let c = &self.conns[conn.0 as usize];
            (c.a, c.b, c.state)
        };
        match stage {
            0 => {
                // SYN arrived at the acceptor; reply SYN-ACK (duplicates
                // from retries re-trigger the SYN-ACK, which is harmless).
                if state == ConnState::SynSent {
                    self.conns[conn.0 as usize].state = ConnState::SynAckSent;
                    self.timers
                        .push(now + self.cfg.rto, Timer::SynRetry { conn, stage: 1 });
                }
                let tok = self.token(TokenInfo::Syn { conn, stage: 1 });
                self.fabric
                    .enqueue(Self::nic(b), Frame::tcp(b, a, FrameKind::Syn, 0, tok), now);
            }
            1 => {
                // SYN-ACK back at the initiator: established; send final ACK
                // and flush any writes queued during the handshake.
                if state != ConnState::Established {
                    self.conns[conn.0 as usize].state = ConnState::Established;
                    out.push(AppEvent::TcpEstablished { time: now, conn });
                }
                let tok = self.token(TokenInfo::Syn { conn, stage: 2 });
                self.fabric
                    .enqueue(Self::nic(a), Frame::tcp(a, b, FrameKind::Ack, 0, tok), now);
                self.try_emit(conn, Dir::AtoB, now);
                self.try_emit(conn, Dir::BtoA, now);
            }
            _ => {
                // Final handshake ACK at the acceptor: the connection is
                // fully open on both ends (data arriving earlier would
                // also have promoted it).
                if state == ConnState::SynAckSent {
                    self.conns[conn.0 as usize].state = ConnState::Established;
                    self.try_emit(conn, Dir::BtoA, now);
                }
            }
        }
    }

    fn handle_ack(&mut self, now: SimTime, conn: ConnId, dir: Dir, upto: u64) {
        let advanced = {
            let h = self.conns[conn.0 as usize].half_mut(dir);
            if upto <= h.snd_acked {
                false
            } else {
                h.snd_acked = upto;
                while let Some(&(seq, ref b, _)) = h.unacked.front() {
                    if seq + b.len() as u64 <= upto {
                        h.unacked.pop_front();
                    } else {
                        break;
                    }
                }
                // Re-arm or disarm the retransmission clock.
                h.rto_epoch += 1;
                h.rto_armed = false;
                true
            }
        };
        if advanced {
            self.arm_rto_if_needed(conn, dir, now);
            self.try_emit(conn, dir, now);
        }
    }

    fn handle_data(
        &mut self,
        now: SimTime,
        conn: ConnId,
        dir: Dir,
        seq: u64,
        bytes: Bytes,
        out: &mut Vec<AppEvent>,
    ) {
        let ack_every = self.cfg.ack_every;
        let delack = self.cfg.delack;
        enum AckAction {
            Now,
            Delay,
            None,
        }
        // Data implies the peer saw our SYN-ACK even if the final ACK was
        // lost: promote to Established.
        if self.conns[conn.0 as usize].state == ConnState::SynAckSent {
            self.conns[conn.0 as usize].state = ConnState::Established;
            self.try_emit(conn, Dir::BtoA, now);
        }
        let action = {
            let h = self.conns[conn.0 as usize].half_mut(dir);
            if seq == h.rcv_next {
                h.rcv_next += bytes.len() as u64;
                out.push(AppEvent::TcpData {
                    time: now,
                    conn,
                    dir,
                    data: bytes,
                });
                h.segs_since_ack += 1;
                if h.segs_since_ack >= ack_every {
                    AckAction::Now
                } else if !h.delack_armed {
                    h.delack_armed = true;
                    AckAction::Delay
                } else {
                    AckAction::None
                }
            } else {
                // Duplicate (retransmission overlap) or gap (loss ahead):
                // re-assert the cumulative ACK immediately.
                AckAction::Now
            }
        };
        match action {
            AckAction::Now => self.send_ack(conn, dir, now),
            AckAction::Delay => self.timers.push(now + delack, Timer::DelAck { conn, dir }),
            AckAction::None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::Proto;

    fn net(hosts: usize) -> Network {
        Network::new(NetConfig::default(), hosts)
    }

    fn collect_tcp_data(events: &[AppEvent]) -> Vec<u8> {
        let mut v = Vec::new();
        for e in events {
            if let AppEvent::TcpData { data, .. } = e {
                v.extend_from_slice(data);
            }
        }
        v
    }

    #[test]
    fn handshake_is_three_58_byte_frames() {
        let mut n = net(2);
        n.set_promiscuous(true);
        n.connect(HostId(0), HostId(1), SimTime::ZERO);
        let ev = n.run_to_idle();
        assert!(matches!(ev[0], AppEvent::TcpEstablished { .. }));
        let tr = n.trace();
        assert_eq!(tr.len(), 3);
        assert!(tr.iter().all(|r| r.wire_len == 58 && r.proto == Proto::Tcp));
        assert_eq!(tr[0].src, HostId(0));
        assert_eq!(tr[1].src, HostId(1));
        assert_eq!(tr[2].src, HostId(0));
    }

    #[test]
    fn single_write_segments_trimodally() {
        let mut n = net(2);
        n.set_promiscuous(true);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        n.tcp_write(c, HostId(0), Bytes::from(vec![7u8; 4000]), SimTime::ZERO);
        let ev = n.run_to_idle();
        assert_eq!(collect_tcp_data(&ev), vec![7u8; 4000]);
        let sizes: Vec<u32> = n
            .trace()
            .iter()
            .filter(|r| r.kind == FrameKind::Data)
            .map(|r| r.wire_len)
            .collect();
        // 4000 = 1460 + 1460 + 1080 → 1518, 1518, 1138.
        assert_eq!(sizes, vec![1518, 1518, 1138]);
        // ACKs: one immediate (after 2 segments) + one delayed for the tail.
        let acks = n
            .trace()
            .iter()
            .filter(|r| r.kind == FrameKind::Ack && r.src == HostId(1))
            .count();
        assert_eq!(acks, 2);
    }

    #[test]
    fn separate_writes_are_not_coalesced() {
        let mut n = net(2);
        n.set_promiscuous(true);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        n.tcp_write(c, HostId(0), Bytes::from(vec![1u8; 100]), SimTime::ZERO);
        n.tcp_write(c, HostId(0), Bytes::from(vec![2u8; 200]), SimTime::ZERO);
        let ev = n.run_to_idle();
        assert_eq!(collect_tcp_data(&ev).len(), 300);
        let sizes: Vec<u32> = n
            .trace()
            .iter()
            .filter(|r| r.kind == FrameKind::Data)
            .map(|r| r.wire_len)
            .collect();
        assert_eq!(sizes, vec![158, 258]);
    }

    #[test]
    fn delayed_ack_fires_at_200ms() {
        let mut n = net(2);
        n.set_promiscuous(true);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        n.tcp_write(c, HostId(0), Bytes::from(vec![0u8; 10]), SimTime::ZERO);
        n.run_to_idle();
        let data_t = n
            .trace()
            .iter()
            .find(|r| r.kind == FrameKind::Data)
            .unwrap()
            .time;
        let ack = n
            .trace()
            .iter()
            .find(|r| r.kind == FrameKind::Ack && r.src == HostId(1))
            .unwrap();
        let lag = ack.time - data_t;
        assert!(
            lag >= SimTime::from_millis(200) && lag < SimTime::from_millis(201),
            "delack lag {lag}"
        );
    }

    #[test]
    fn window_limits_inflight_but_all_delivered() {
        let cfg = NetConfig {
            window: 2 * MSS, // two segments
            ..NetConfig::default()
        };
        let mut n = Network::new(cfg, 2);
        n.set_promiscuous(true);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        let payload: Vec<u8> = (0..20_000u32).map(|i| i as u8).collect();
        n.tcp_write(c, HostId(0), Bytes::from(payload.clone()), SimTime::ZERO);
        let ev = n.run_to_idle();
        assert_eq!(collect_tcp_data(&ev), payload);
    }

    #[test]
    fn writes_before_establishment_flush_after() {
        let mut n = net(2);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        // Queue data immediately; handshake has not completed yet.
        n.tcp_write(c, HostId(0), Bytes::from(vec![9u8; 500]), SimTime::ZERO);
        let ev = n.run_to_idle();
        assert_eq!(collect_tcp_data(&ev), vec![9u8; 500]);
    }

    #[test]
    fn duplex_data_flows_both_ways() {
        let mut n = net(2);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        n.tcp_write(c, HostId(0), Bytes::from_static(b"ping"), SimTime::ZERO);
        n.tcp_write(c, HostId(1), Bytes::from_static(b"pong"), SimTime::ZERO);
        let ev = n.run_to_idle();
        let ab: Vec<u8> = ev
            .iter()
            .filter_map(|e| match e {
                AppEvent::TcpData {
                    dir: Dir::AtoB,
                    data,
                    ..
                } => Some(data.to_vec()),
                _ => None,
            })
            .flatten()
            .collect();
        let ba: Vec<u8> = ev
            .iter()
            .filter_map(|e| match e {
                AppEvent::TcpData {
                    dir: Dir::BtoA,
                    data,
                    ..
                } => Some(data.to_vec()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(ab, b"ping");
        assert_eq!(ba, b"pong");
    }

    #[test]
    fn udp_datagram_delivered() {
        let mut n = net(3);
        n.set_promiscuous(true);
        let data = Bytes::from(vec![5u8; 64]);
        n.udp_send_caused(HostId(0), HostId(2), data, SimTime::ZERO, CauseId::NONE);
        let ev = n.run_to_idle();
        assert_eq!(ev.len(), 1);
        match &ev[0] {
            AppEvent::Udp { src, dst, data, .. } => {
                assert_eq!(*src, HostId(0));
                assert_eq!(*dst, HostId(2));
                assert_eq!(data.len(), 64);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(n.trace()[0].wire_len, 18 + 20 + 8 + 64);
        assert_eq!(n.trace()[0].proto, Proto::Udp);
    }

    #[test]
    fn lossy_bus_recovers_via_retransmission() {
        let cfg = NetConfig {
            ether: EtherConfig {
                drop_prob: 0.2,
                ..EtherConfig::default()
            },
            rto: SimTime::from_millis(300),
            ..NetConfig::default()
        };
        let mut n = Network::new(cfg, 2);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i * 7) as u8).collect();
        n.tcp_write(c, HostId(0), Bytes::from(payload.clone()), SimTime::ZERO);
        let ev = n.run_to_idle();
        assert_eq!(collect_tcp_data(&ev), payload, "stream must survive loss");
        assert!(n.total_retransmits() > 0, "loss must have triggered GBN");
    }

    #[test]
    fn deterministic_trace_for_same_seed() {
        let run = || {
            let mut n = net(4);
            n.set_promiscuous(true);
            let c1 = n.connect(HostId(0), HostId(1), SimTime::ZERO);
            let c2 = n.connect(HostId(2), HostId(3), SimTime::ZERO);
            for i in 0..10u64 {
                let t = SimTime::from_micros(i * 500);
                n.tcp_write(c1, HostId(0), Bytes::from(vec![1u8; 3000]), t);
                n.tcp_write(c2, HostId(2), Bytes::from(vec![2u8; 1000]), t);
            }
            n.run_to_idle();
            n.take_trace()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ack_only_population_is_58_bytes() {
        let mut n = net(2);
        n.set_promiscuous(true);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        n.tcp_write(c, HostId(0), Bytes::from(vec![0u8; 30_000]), SimTime::ZERO);
        n.run_to_idle();
        let acks: Vec<u32> = n
            .trace()
            .iter()
            .filter(|r| r.kind == FrameKind::Ack)
            .map(|r| r.wire_len)
            .collect();
        assert!(!acks.is_empty());
        assert!(acks.iter().all(|&s| s == 58));
    }

    #[test]
    fn switched_fabric_carries_tcp() {
        let cfg = NetConfig {
            link: LinkKind::Switched,
            ..NetConfig::default()
        };
        let mut n = Network::new(cfg, 4);
        assert_eq!(n.host_count(), 4);
        n.set_promiscuous(true);
        let c1 = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        let c2 = n.connect(HostId(2), HostId(3), SimTime::ZERO);
        let payload: Vec<u8> = (0..30_000u32).map(|i| i as u8).collect();
        n.tcp_write(c1, HostId(0), Bytes::from(payload.clone()), SimTime::ZERO);
        n.tcp_write(c2, HostId(2), Bytes::from(payload.clone()), SimTime::ZERO);
        let ev = n.run_to_idle();
        let mut got1 = Vec::new();
        let mut got2 = Vec::new();
        for e in &ev {
            if let AppEvent::TcpData { conn, data, .. } = e {
                if *conn == c1 {
                    got1.extend_from_slice(data);
                } else {
                    got2.extend_from_slice(data);
                }
            }
        }
        assert_eq!(got1, payload);
        assert_eq!(got2, payload);
        // No collisions on a switch.
        assert_eq!(n.ether_stats().collisions, 0);
        assert!(!n.take_trace().is_empty());
    }

    #[test]
    fn single_segment_topology_matches_shared_bus_byte_for_byte() {
        let run = |link: LinkKind| {
            let cfg = NetConfig {
                link,
                ..NetConfig::default()
            };
            let mut n = Network::new(cfg, 4);
            n.set_promiscuous(true);
            let c1 = n.connect(HostId(0), HostId(1), SimTime::ZERO);
            let c2 = n.connect(HostId(2), HostId(3), SimTime::ZERO);
            for i in 0..8u64 {
                let t = SimTime::from_micros(i * 300);
                n.tcp_write(c1, HostId(0), Bytes::from(vec![1u8; 4000]), t);
                n.tcp_write(c2, HostId(2), Bytes::from(vec![2u8; 2500]), t);
            }
            n.run_to_idle();
            (n.take_trace(), n.ether_stats())
        };
        let rate = EtherConfig::default().bandwidth_bps;
        let (bus_trace, bus_stats) = run(LinkKind::SharedBus);
        let (topo_trace, topo_stats) =
            run(LinkKind::Topology(TopologySpec::single_segment(4, rate)));
        assert_eq!(bus_trace, topo_trace);
        assert_eq!(bus_stats, topo_stats);
    }

    #[test]
    fn topology_fabric_carries_tcp_across_a_trunk() {
        let cfg = NetConfig {
            link: LinkKind::Topology(fxnet_topo::TopologySpec::two_switches_trunk(
                4,
                fxnet_sim::RATE_10M,
            )),
            ..NetConfig::default()
        };
        let mut n = Network::new(cfg, 4);
        n.set_promiscuous(true);
        // Host 0 (sw0) to host 3 (sw1): every frame crosses the trunk.
        let c = n.connect(HostId(0), HostId(3), SimTime::ZERO);
        let payload: Vec<u8> = (0..40_000u32).map(|i| i as u8).collect();
        n.tcp_write(c, HostId(0), Bytes::from(payload.clone()), SimTime::ZERO);
        let ev = n.run_to_idle();
        assert_eq!(collect_tcp_data(&ev), payload);
        // Switched segments: no collisions anywhere.
        assert_eq!(n.ether_stats().collisions, 0);
    }

    #[test]
    fn ack_every_one_acks_each_segment() {
        let cfg = NetConfig {
            ack_every: 1,
            ..NetConfig::default()
        };
        let mut n = Network::new(cfg, 2);
        n.set_promiscuous(true);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        n.tcp_write(
            c,
            HostId(0),
            Bytes::from(vec![0u8; 5 * 1460]),
            SimTime::ZERO,
        );
        n.run_to_idle();
        let data = n
            .trace()
            .iter()
            .filter(|r| r.kind == FrameKind::Data)
            .count();
        let acks = n
            .trace()
            .iter()
            .filter(|r| r.kind == FrameKind::Ack && r.src == HostId(1))
            .count();
        assert_eq!(data, 5);
        assert_eq!(acks, 5, "every segment must be acknowledged immediately");
    }

    #[test]
    fn backlog_accounting_tracks_writes_and_drains() {
        let mut n = net(2);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        assert_eq!(n.host_tcp_backlog(HostId(0)), 0);
        n.tcp_write(c, HostId(0), Bytes::from(vec![0u8; 10_000]), SimTime::ZERO);
        assert_eq!(n.host_tcp_backlog(HostId(0)), 10_000);
        n.run_to_idle();
        assert_eq!(n.host_tcp_backlog(HostId(0)), 0);
        assert_eq!(n.host_tcp_backlog(HostId(1)), 0);
    }

    #[test]
    #[should_panic(expected = "datagram exceeds MTU")]
    fn oversized_datagram_rejected() {
        let mut n = net(2);
        let data = Bytes::from(vec![0u8; 2000]);
        n.udp_send_caused(HostId(0), HostId(1), data, SimTime::ZERO, CauseId::NONE);
    }

    #[test]
    fn empty_write_is_a_no_op() {
        let mut n = net(2);
        n.set_promiscuous(true);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        n.tcp_write(c, HostId(0), Bytes::new(), SimTime::ZERO);
        n.run_to_idle();
        // Handshake only, no data frames.
        assert!(n.trace().iter().all(|r| r.kind != FrameKind::Data));
    }

    #[test]
    fn syn_loss_is_recovered_by_retry() {
        // Guarantee the very first frame is corrupted: drop_prob 1.0 would
        // kill everything, so use a high rate and verify establishment
        // still happens via SYN retries.
        let cfg = NetConfig {
            ether: EtherConfig {
                drop_prob: 0.4,
                ..EtherConfig::default()
            },
            rto: SimTime::from_millis(100),
            ..NetConfig::default()
        };
        let mut n = Network::new(cfg, 2);
        let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
        n.tcp_write(c, HostId(0), Bytes::from(vec![7u8; 5000]), SimTime::ZERO);
        let ev = n.run_to_idle();
        assert_eq!(collect_tcp_data(&ev), vec![7u8; 5000]);
    }

    #[test]
    fn timers_armed_for_the_same_nanosecond_fire_in_arm_order() {
        // Every frame is lost, so both SYNs of host 0 time out, and their
        // retry timers were armed for the same instant. A NIC transmits
        // in FIFO order, so the order the retries are lost on the wire
        // is the order the timers fired. Destinations run 2 then 1 so
        // that no ordering by connection endpoint gives the same answer.
        let cfg = NetConfig {
            ether: EtherConfig {
                drop_prob: 1.0,
                ..EtherConfig::default()
            },
            ..NetConfig::default()
        };
        let rto = cfg.rto;
        let mut n = Network::new(cfg, 3);
        n.connect(HostId(0), HostId(2), SimTime::ZERO);
        n.connect(HostId(0), HostId(1), SimTime::ZERO);
        let mut out = Vec::new();
        while n.next_event_time().is_some_and(|t| t < rto + rto) {
            n.advance(&mut out);
        }
        assert_eq!(n.timer_high_water(), 2);
        let lost: Vec<(bool, HostId)> = n
            .fabric
            .errors()
            .iter()
            .map(|&(t, frame, _)| (t >= rto, frame.dst))
            .collect();
        assert_eq!(
            lost,
            [
                (false, HostId(2)),
                (false, HostId(1)),
                (true, HostId(2)),
                (true, HostId(1)),
            ]
        );
    }

    /// The link kinds the capture tests run on: the paper's bus, and a
    /// compiled topology whose frames cross a trunk.
    fn capture_links() -> [LinkKind; 2] {
        [
            LinkKind::SharedBus,
            LinkKind::Topology(TopologySpec::two_switches_trunk(4, RATE_10M)),
        ]
    }

    /// A four-host stack on `link` offered one TCP stream across the
    /// trunk (host 0 to 3) and five datagrams beside it.
    fn offered(link: &LinkKind) -> Network {
        let cfg = NetConfig {
            link: link.clone(),
            ..NetConfig::default()
        };
        let mut n = Network::new(cfg, 4);
        let c = n.connect(HostId(0), HostId(3), SimTime::ZERO);
        n.tcp_write(c, HostId(0), Bytes::from(vec![1u8; 6000]), SimTime::ZERO);
        for i in 0..5u32 {
            let (src, dst) = if i % 2 == 0 { (1, 3) } else { (2, 0) };
            let t = SimTime::from_micros(u64::from(i) * 100);
            let data = Bytes::from(vec![2u8; 500]);
            n.udp_send_caused(HostId(src), HostId(dst), data, t, CauseId::NONE);
        }
        n
    }

    #[test]
    fn promiscuous_trace_records_every_delivery() {
        for link in capture_links() {
            let mut n = offered(&link);
            n.set_promiscuous(true);
            let ev = n.run_to_idle();
            let tr = n.trace();
            assert_eq!(
                tr.len() as u64,
                n.ether_stats().frames_delivered,
                "{link:?}"
            );
            assert!(tr.windows(2).all(|w| w[0].time <= w[1].time), "{link:?}");
            let udp_rows: Vec<_> = tr
                .iter()
                .filter(|r| r.proto == Proto::Udp)
                .map(|r| (r.time, r.src, r.dst, r.wire_len))
                .collect();
            let udp_events: Vec<_> = ev
                .iter()
                .filter_map(|e| match e {
                    AppEvent::Udp {
                        time,
                        src,
                        dst,
                        data,
                    } => Some((*time, *src, *dst, 46 + data.len() as u32)),
                    _ => None,
                })
                .collect();
            assert_eq!(udp_rows.len(), 5, "{link:?}");
            assert_eq!(udp_rows, udp_events, "{link:?}");
        }
    }

    #[test]
    fn tap_sees_every_delivery_without_perturbing_the_trace() {
        use std::sync::{Arc, Mutex};
        for link in capture_links() {
            let run = |observed: bool| {
                let mut n = offered(&link);
                n.set_promiscuous(true);
                let seen = Arc::new(Mutex::new(Vec::new()));
                if observed {
                    let sink = Arc::clone(&seen);
                    n.set_tap(Some(Box::new(move |r: &FrameRecord| {
                        sink.lock().unwrap().push(*r);
                    })));
                    n.set_causal(true);
                }
                n.run_to_idle();
                let tapped = std::mem::take(&mut *seen.lock().unwrap());
                let causal = n.take_causal().unwrap_or_default();
                (n.take_trace(), tapped, causal)
            };
            let (plain, _, _) = run(false);
            let (traced, tapped, causal) = run(true);
            assert!(!plain.is_empty(), "{link:?}");
            assert_eq!(plain, traced, "{link:?}: tap must not perturb the trace");
            assert_eq!(
                tapped, traced,
                "{link:?}: tap sees exactly the captured records"
            );
            // The causal log has one event per trace row, and event `i`
            // names a cause row `i`'s kind allows: the offered load is
            // untagged, and the handshake's last ACK is the SYN's.
            assert_eq!(causal.len(), traced.len(), "{link:?}");
            let (ack, syn) = (ProtoCause::Ack, ProtoCause::Syn);
            for (e, r) in causal.iter().zip(&traced) {
                let causes = match r.kind {
                    FrameKind::Ack => vec![CauseId::protocol(ack), CauseId::protocol(syn)],
                    FrameKind::Syn => vec![CauseId::protocol(syn)],
                    FrameKind::Data | FrameKind::Datagram => vec![CauseId::NONE],
                };
                assert!(causes.contains(&e.cause), "{link:?}: {r:?} {e:?}");
            }
        }
    }

    #[test]
    fn tap_fires_even_when_promiscuous_is_off() {
        use std::sync::{Arc, Mutex};
        for link in capture_links() {
            let mut n = offered(&link);
            let seen = Arc::new(Mutex::new(0u64));
            let sink = Arc::clone(&seen);
            n.set_tap(Some(Box::new(move |_: &FrameRecord| {
                *sink.lock().unwrap() += 1;
            })));
            n.run_to_idle();
            let delivered = n.ether_stats().frames_delivered;
            assert!(delivered > 0, "{link:?}");
            assert_eq!(*seen.lock().unwrap(), delivered, "{link:?}");
            assert!(
                n.trace().is_empty(),
                "{link:?}: no trace without promiscuous mode"
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn tcp_delivers_exact_bytes_in_order(
                writes in prop::collection::vec(1usize..5000, 1..12),
                seed in 0u64..1000,
            ) {
                let cfg = NetConfig { seed, ..NetConfig::default() };
                let mut n = Network::new(cfg, 2);
                let c = n.connect(HostId(0), HostId(1), SimTime::ZERO);
                let mut expect = Vec::new();
                for (i, &w) in writes.iter().enumerate() {
                    let chunk: Vec<u8> = (0..w).map(|j| (i * 31 + j) as u8).collect();
                    expect.extend_from_slice(&chunk);
                    n.tcp_write(c, HostId(0), Bytes::from(chunk), SimTime::from_micros(i as u64));
                }
                let ev = n.run_to_idle();
                prop_assert_eq!(collect_tcp_data(&ev), expect);
            }

            #[test]
            fn trace_times_are_nondecreasing(
                writes in prop::collection::vec(1usize..3000, 1..8),
            ) {
                let mut n = net(3);
                n.set_promiscuous(true);
                let c1 = n.connect(HostId(0), HostId(2), SimTime::ZERO);
                let c2 = n.connect(HostId(1), HostId(2), SimTime::ZERO);
                for (i, &w) in writes.iter().enumerate() {
                    let conn = if i % 2 == 0 { c1 } else { c2 };
                    let from = if i % 2 == 0 { HostId(0) } else { HostId(1) };
                    n.tcp_write(conn, from, Bytes::from(vec![i as u8; w]), SimTime::ZERO);
                }
                n.run_to_idle();
                let tr = n.trace();
                prop_assert!(tr.windows(2).all(|w| w[0].time <= w[1].time));
            }
        }
    }
}
