//! The PVM system: tasks, routing, daemons, and the event pump.

use crate::message::{
    le_u32, put_le_words, Message, MessageBuilder, OutMessage, StreamParser, WireMessage, MAGIC,
};
use bytes::Bytes;
use fxnet_proto::{AppEvent, ConnId, Dir, NetConfig, Network};
use fxnet_sim::{CausalEvent, CauseId, EtherStats, FrameRecord, HostId, ProtoCause, SimTime};
use std::collections::{HashMap, HashSet, VecDeque};

/// Identifier of a PVM task (one per compute host in our runs; task `t`
/// lives on host `t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// Message routing mode (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Task-to-task TCP connections, established lazily on first send.
    /// "All of the Fx kernels and AIRSHED use this mechanism."
    Direct,
    /// Relay through the per-host daemons over UDP with stop-and-wait
    /// reliability: scalable but "tends to be somewhat slow".
    Daemon,
}

/// Magic opening a daemon-level acknowledgment datagram.
const MAGIC_ACK: u32 = 0x7076_6D41; // "pvmA"
/// Magic opening a daemon heartbeat datagram.
const MAGIC_HB: u32 = 0x7076_6D48; // "pvmH"

/// PVM layer configuration.
#[derive(Debug, Clone)]
pub struct PvmConfig {
    pub net: NetConfig,
    pub route: Route,
    /// Spacing between successive fragment writes of one message,
    /// modelling per-write syscall and copy cost at the sender. This is
    /// what spreads T2DFFT's fragments out on the wire.
    pub frag_stagger: SimTime,
    /// Period of daemon status datagrams to the master daemon
    /// (`None` disables the chatter).
    pub heartbeat: Option<SimTime>,
    /// Payload bytes of a heartbeat datagram.
    pub heartbeat_payload: usize,
    /// Local IPC hop cost for the daemon route (task↔daemon copies).
    pub ipc_latency: SimTime,
    /// Maximum data bytes per daemon-route UDP datagram.
    pub daemon_frag: usize,
    /// Daemon per-datagram processing cost (context switch + copy), paid
    /// when acknowledging an inbound datagram and when launching the next
    /// one. This is what makes the daemon route "somewhat slow" (§4).
    pub daemon_proc: SimTime,
}

impl Default for PvmConfig {
    fn default() -> Self {
        PvmConfig {
            net: NetConfig::default(),
            route: Route::Direct,
            frag_stagger: SimTime::from_micros(50),
            heartbeat: Some(SimTime::from_secs(30)),
            heartbeat_payload: 32,
            ipc_latency: SimTime::from_micros(200),
            daemon_frag: 1400,
            daemon_proc: SimTime::from_micros(500),
        }
    }
}

/// A completed message handed to the SPMD runtime.
#[derive(Debug, Clone)]
pub struct MsgDelivery {
    pub time: SimTime,
    pub src: TaskId,
    pub dst: TaskId,
    pub msg: Message,
}

/// Aggregate PVM-layer counters, snapshot via [`PvmSystem::pvm_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PvmStats {
    /// Messages accepted by [`PvmSystem::send`].
    pub messages_sent: u64,
    /// Direct-route fragments written to TCP.
    pub fragments_sent: u64,
    /// Application payload bytes packed across all sent messages.
    pub pack_bytes: u64,
    /// Daemon-route datagrams launched on the wire.
    pub daemon_datagrams: u64,
    /// Daemon-route stop-and-wait acks sent.
    pub daemon_acks: u64,
    /// Daemon heartbeat datagrams emitted.
    pub heartbeats: u64,
}

/// The PVM "parallel virtual machine": all tasks, daemons, and routing
/// state over one simulated LAN.
pub struct PvmSystem {
    cfg: PvmConfig,
    net: Network,
    n_tasks: u32,
    /// Lazily opened direct-route connections, keyed by unordered pair.
    conns: HashMap<(u32, u32), ConnId>,
    conn_ends: HashMap<ConnId, (HostId, HostId)>,
    parsers: HashMap<(u32, u8), StreamParser>,
    msg_seq: u32,
    /// Daemon route: pending datagrams (with their causes) per
    /// (src_host, dst_host).
    daemon_out: HashMap<(u32, u32), VecDeque<(Bytes, CauseId)>>,
    /// Daemon route: pairs with a datagram in flight (stop-and-wait).
    daemon_wait: HashSet<(u32, u32)>,
    daemon_parsers: HashMap<(u32, u32), StreamParser>,
    next_heartbeat: Option<SimTime>,
    events_scratch: Vec<AppEvent>,
    stats: PvmStats,
}

impl PvmSystem {
    /// Create a virtual machine with `n_tasks` tasks on the first
    /// `n_tasks` of `n_hosts` workstations (extra hosts model the idle
    /// office machines sharing the paper's LAN, including the tracer).
    pub fn new(cfg: PvmConfig, n_tasks: u32, n_hosts: u32) -> PvmSystem {
        // Task `t` lives on host `t`, so every task needs a host of its own.
        assert!(
            n_tasks >= 1 && n_hosts >= n_tasks,
            "{n_tasks} tasks need 1..={n_hosts} hosts"
        );
        let net = Network::new(cfg.net.clone(), n_hosts as usize);
        let next_heartbeat = cfg.heartbeat;
        PvmSystem {
            cfg,
            net,
            n_tasks,
            conns: HashMap::new(),
            conn_ends: HashMap::new(),
            parsers: HashMap::new(),
            msg_seq: 0,
            daemon_out: HashMap::new(),
            daemon_wait: HashSet::new(),
            daemon_parsers: HashMap::new(),
            next_heartbeat,
            events_scratch: Vec::new(),
            stats: PvmStats::default(),
        }
    }

    /// Number of tasks in the virtual machine.
    pub fn n_tasks(&self) -> u32 {
        self.n_tasks
    }

    /// Host a task runs on.
    pub fn host_of(&self, t: TaskId) -> HostId {
        // A task id past the machine would name an idle host, not a task.
        assert!(t.0 < self.n_tasks, "no task {} of {}", t.0, self.n_tasks);
        HostId(t.0)
    }

    /// Enable the promiscuous tracer workstation.
    pub fn set_promiscuous(&mut self, on: bool) {
        self.net.set_promiscuous(on);
    }

    /// Install a live frame tap at the tracer's capture point; `None`
    /// removes it. The tap observes delivered frames only — it cannot
    /// perturb the simulation.
    pub fn set_tap(&mut self, tap: Option<fxnet_sim::FrameTap>) {
        self.net.set_tap(tap);
    }

    /// Captured trace so far.
    pub fn trace(&self) -> &[FrameRecord] {
        self.net.trace()
    }

    /// Take ownership of the captured trace.
    pub fn take_trace(&mut self) -> Vec<FrameRecord> {
        self.net.take_trace()
    }

    /// Enable or disable passive per-link sampling (see
    /// [`Network::set_link_sampling`]).
    pub fn set_link_sampling(&mut self, on: bool) {
        self.net.set_link_sampling(on);
    }

    /// Take the accumulated per-link sample series, if sampling is on.
    pub fn take_link_stats(&mut self) -> Option<fxnet_sim::LinkStats> {
        self.net.take_link_stats()
    }

    /// Enable or disable causal capture (see [`Network::set_causal`]).
    pub fn set_causal(&mut self, on: bool) {
        self.net.set_causal(on);
    }

    /// Take ownership of the causal event log, if capture was enabled.
    pub fn take_causal(&mut self) -> Option<Vec<CausalEvent>> {
        self.net.take_causal()
    }

    /// MAC layer statistics.
    pub fn ether_stats(&self) -> EtherStats {
        self.net.ether_stats()
    }

    /// TCP layer statistics.
    pub fn tcp_stats(&self) -> fxnet_proto::TcpStats {
        self.net.tcp_stats()
    }

    /// PVM layer statistics.
    pub fn pvm_stats(&self) -> PvmStats {
        self.stats
    }

    /// Largest number of TCP timers ever pending at once.
    pub fn timer_high_water(&self) -> usize {
        self.net.timer_high_water()
    }

    /// Sender-side TCP backlog of the task's host (socket-buffer
    /// occupancy), used by the SPMD engine to block fast senders the way
    /// a real blocking socket write does.
    pub fn sender_backlog(&self, t: TaskId) -> u64 {
        self.net.host_tcp_backlog(HostId(t.0))
    }

    /// Stop daemon heartbeats (end of measurement run).
    pub fn stop_heartbeats(&mut self) {
        self.next_heartbeat = None;
    }

    fn direct_conn(&mut self, a: HostId, b: HostId, now: SimTime) -> ConnId {
        let key = (a.0.min(b.0), a.0.max(b.0));
        if let Some(&c) = self.conns.get(&key) {
            return c;
        }
        let c = self.net.connect(a, b, now);
        self.conns.insert(key, c);
        self.conn_ends.insert(c, (a, b));
        c
    }

    /// Send `msg` from `src` to `dst`, with fragment writes beginning at
    /// simulated time `now`. Its fragment headers carry the message's
    /// number in this system.
    pub fn send(&mut self, now: SimTime, src: TaskId, dst: TaskId, msg: OutMessage) {
        let msg = msg.seal(src.0, self.msg_seq + 1);
        self.send_caused(now, src, dst, msg, CauseId::NONE);
    }

    /// [`PvmSystem::send`] of a message its sender has already stamped,
    /// with a causal tag: every transport byte of the message carries
    /// `cause` down to the MAC. The direct route writes the stamped
    /// fragments as they are, whatever sequence word the sender chose
    /// (reassembly never reads it). Returns the number of
    /// transport-payload bytes committed (message payload plus fragment
    /// headers — and, on the daemon route, the re-fragmented gram
    /// headers), which is what causal conservation checks against.
    pub fn send_caused(
        &mut self,
        now: SimTime,
        src: TaskId,
        dst: TaskId,
        msg: WireMessage,
        cause: CauseId,
    ) -> u64 {
        // No connection or daemon pair exists from a host to itself.
        assert_ne!(src, dst, "self-sends are host-local IPC, never on the wire");
        debug_assert_eq!(msg.src_task, src.0, "stamped by another task");
        self.msg_seq += 1;
        let seq = self.msg_seq;
        self.stats.messages_sent += 1;
        self.stats.pack_bytes += msg.payload_len() as u64;
        let mut transport_bytes = 0u64;
        match self.cfg.route {
            Route::Direct => {
                let (ha, hb) = (self.host_of(src), self.host_of(dst));
                let conn = self.direct_conn(ha, hb, now);
                let stagger = self.cfg.frag_stagger;
                self.stats.fragments_sent += msg.frag_count() as u64;
                for (i, wire) in msg.frags.into_iter().enumerate() {
                    let t = now + SimTime(stagger.as_nanos() * i as u64);
                    transport_bytes += wire.len() as u64;
                    self.net.tcp_write_caused(conn, ha, wire, t, cause);
                }
            }
            Route::Daemon => {
                // The local daemon re-fragments the flattened message into
                // MTU-sized datagrams, each a fragment with the same header,
                // and relays them with stop-and-wait.
                let mut body = Vec::with_capacity(msg.payload_len());
                for data in msg.payloads() {
                    body.extend_from_slice(data);
                }
                let mut relay = MessageBuilder::new(msg.tag).multi_pack();
                for c in body.chunks(self.cfg.daemon_frag) {
                    relay.pack_bytes(c);
                }
                let grams = relay.finish().into_wire(src.0, seq).map(|gram| {
                    transport_bytes += gram.len() as u64;
                    (gram, cause)
                });
                let key = (src.0, dst.0);
                self.daemon_out.entry(key).or_default().extend(grams);
                // First hop: task → local daemon costs one IPC latency.
                self.pump_daemon_pair(key, now + self.cfg.ipc_latency);
            }
        }
        transport_bytes
    }

    /// If the pair has no datagram in flight, launch the next one.
    fn pump_daemon_pair(&mut self, key: (u32, u32), now: SimTime) {
        if self.daemon_wait.contains(&key) {
            return;
        }
        let q = match self.daemon_out.get_mut(&key) {
            Some(q) => q,
            None => return,
        };
        if let Some((gram, cause)) = q.pop_front() {
            self.daemon_wait.insert(key);
            self.stats.daemon_datagrams += 1;
            self.net
                .udp_send_caused(HostId(key.0), HostId(key.1), gram, now, cause);
        }
    }

    /// Time of the next event anywhere in the stack.
    pub fn next_event_time(&self) -> Option<SimTime> {
        match (self.net.next_event_time(), self.next_heartbeat) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Process exactly one event, appending completed message deliveries.
    /// Returns the event time, or `None` when idle.
    pub fn advance(&mut self, out: &mut Vec<MsgDelivery>) -> Option<SimTime> {
        let t_net = self.net.next_event_time();
        let hb_first = self
            .next_heartbeat
            .filter(|&th| t_net.is_none_or(|tn| th < tn));
        if let Some(t) = hb_first {
            self.emit_heartbeats(t);
            self.next_heartbeat = self.cfg.heartbeat.map(|p| t + p);
            return Some(t);
        }
        let mut events = std::mem::take(&mut self.events_scratch);
        events.clear();
        let t = self.net.advance(&mut events);
        for e in &events {
            self.handle_event(e, out);
        }
        self.events_scratch = events;
        t
    }

    /// Drain every pending event, disabling further heartbeats first.
    pub fn finish(&mut self) -> Vec<MsgDelivery> {
        self.stop_heartbeats();
        let mut out = Vec::new();
        while self.advance(&mut out).is_some() {}
        out
    }

    fn emit_heartbeats(&mut self, t: SimTime) {
        // Every slave daemon reports to the master daemon on host 0.
        let payload_len = self.cfg.heartbeat_payload.max(8);
        let n_hosts = self.net.host_count() as u32;
        for h in 1..n_hosts {
            let mut b = vec![0; payload_len];
            put_le_words(&mut b, &[MAGIC_HB, h]);
            self.stats.heartbeats += 1;
            self.net.udp_send_caused(
                HostId(h),
                HostId(0),
                Bytes::from(b),
                t,
                CauseId::protocol(ProtoCause::Heartbeat),
            );
        }
    }

    fn handle_event(&mut self, e: &AppEvent, out: &mut Vec<MsgDelivery>) {
        match e {
            AppEvent::TcpEstablished { .. } => {}
            AppEvent::TcpData {
                time,
                conn,
                dir,
                data,
            } => {
                let key = (conn.0, matches!(dir, Dir::BtoA) as u8);
                let msgs = self.parsers.entry(key).or_default().feed(data);
                if msgs.is_empty() {
                    return;
                }
                let (a, b) = self.conn_ends[conn];
                let dst_host = match dir {
                    Dir::AtoB => b,
                    Dir::BtoA => a,
                };
                for m in msgs {
                    out.push(MsgDelivery {
                        time: *time,
                        src: TaskId(m.src_task),
                        dst: TaskId(dst_host.0),
                        msg: m,
                    });
                }
            }
            AppEvent::Udp {
                time,
                src,
                dst,
                data,
            } => {
                // Every datagram on this stack comes from this module and
                // opens with a magic word, so it is at least four bytes.
                let magic = le_u32(data, 0);
                if magic == MAGIC_HB {
                    return; // state chatter only
                }
                if magic == MAGIC_ACK {
                    // Ack arrives back at the *sender* (dst of the ack).
                    let key = (dst.0, src.0);
                    self.daemon_wait.remove(&key);
                    let t = *time + self.cfg.daemon_proc;
                    self.pump_daemon_pair(key, t);
                    return;
                }
                // Heartbeats, acks and relayed fragments are the only datagrams.
                debug_assert_eq!(magic, MAGIC);
                // A relayed fragment at the destination daemon: ack it and
                // feed the reassembler.
                let mut ack = vec![0; 12];
                put_le_words(&mut ack, &[MAGIC_ACK, le_u32(data, 4), 0]);
                self.stats.daemon_acks += 1;
                self.net.udp_send_caused(
                    *dst,
                    *src,
                    Bytes::from(ack),
                    *time + self.cfg.daemon_proc,
                    CauseId::protocol(ProtoCause::DaemonAck),
                );
                let msgs = self
                    .daemon_parsers
                    .entry((src.0, dst.0))
                    .or_default()
                    .feed(data);
                let ipc = self.cfg.ipc_latency;
                for m in msgs {
                    out.push(MsgDelivery {
                        // Final hop: daemon → task IPC.
                        time: *time + ipc,
                        src: TaskId(m.src_task),
                        dst: TaskId(dst.0),
                        msg: m,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::{FrameKind, Proto};

    fn direct_cfg() -> PvmConfig {
        PvmConfig {
            heartbeat: None,
            ..PvmConfig::default()
        }
    }

    fn msg_of(tag: i32, data: &[f64]) -> OutMessage {
        let mut b = MessageBuilder::new(tag);
        b.pack_f64(data);
        b.finish()
    }

    #[test]
    fn direct_route_delivers_content() {
        let mut p = PvmSystem::new(direct_cfg(), 2, 2);
        let data: Vec<f64> = (0..1000).map(f64::from).collect();
        p.send(SimTime::ZERO, TaskId(0), TaskId(1), msg_of(7, &data));
        let out = p.finish();
        assert_eq!(out.len(), 1);
        let d = &out[0];
        assert_eq!(d.src, TaskId(0));
        assert_eq!(d.dst, TaskId(1));
        assert_eq!(d.msg.tag, 7);
        assert_eq!(d.msg.reader().f64s(1000), data);
    }

    #[test]
    fn connection_reused_across_sends() {
        let mut p = PvmSystem::new(direct_cfg(), 2, 2);
        p.set_promiscuous(true);
        p.send(SimTime::ZERO, TaskId(0), TaskId(1), msg_of(1, &[1.0]));
        let mut out = Vec::new();
        while p.advance(&mut out).is_some() {}
        p.send(
            SimTime::from_secs(1),
            TaskId(1),
            TaskId(0),
            msg_of(2, &[2.0]),
        );
        let _ = p.finish();
        let syns = p
            .trace()
            .iter()
            .filter(|r| r.kind == FrameKind::Syn)
            .count();
        // One handshake total (SYN + SYN-ACK; the final ACK is FrameKind::Ack).
        assert_eq!(syns, 2);
    }

    #[test]
    fn copy_loop_message_is_trimodal_on_wire() {
        let mut p = PvmSystem::new(direct_cfg(), 2, 2);
        p.set_promiscuous(true);
        // 1000 f64s = 8024 wire bytes = 5×1460 + 724.
        p.send(
            SimTime::ZERO,
            TaskId(0),
            TaskId(1),
            msg_of(0, &vec![1.0; 1000]),
        );
        p.finish();
        let mut sizes: Vec<u32> = p
            .trace()
            .iter()
            .filter(|r| r.kind == FrameKind::Data)
            .map(|r| r.wire_len)
            .collect();
        let tail = sizes.pop().unwrap();
        assert!(sizes.iter().all(|&s| s == 1518), "full segments first");
        assert_eq!(tail, 58 + 8024 - 5 * 1460);
    }

    #[test]
    fn multi_pack_message_spreads_fragments() {
        let mut p = PvmSystem::new(direct_cfg(), 2, 2);
        p.set_promiscuous(true);
        let mut b = MessageBuilder::new(3).multi_pack();
        for _ in 0..8 {
            b.pack_f32(&vec![0.5f32; 128]); // 512-byte fragments
        }
        p.send(SimTime::ZERO, TaskId(0), TaskId(1), b.finish());
        let out = p.finish();
        assert_eq!(out[0].msg.n_frags, 8);
        let data_frames: Vec<u32> = p
            .trace()
            .iter()
            .filter(|r| r.kind == FrameKind::Data)
            .map(|r| r.wire_len)
            .collect();
        // Each 536-byte fragment write becomes its own 594-byte frame.
        assert_eq!(data_frames.len(), 8);
        assert!(data_frames.iter().all(|&s| s == 58 + 536));
    }

    #[test]
    fn seq_element_frame_is_90_bytes() {
        let mut p = PvmSystem::new(direct_cfg(), 2, 2);
        p.set_promiscuous(true);
        p.send(SimTime::ZERO, TaskId(0), TaskId(1), msg_of(0, &[42.0]));
        p.finish();
        let d = p
            .trace()
            .iter()
            .find(|r| r.kind == FrameKind::Data)
            .unwrap();
        assert_eq!(d.wire_len, 90);
    }

    #[test]
    fn daemon_route_delivers_and_uses_udp_only() {
        let cfg = PvmConfig {
            route: Route::Daemon,
            heartbeat: None,
            ..PvmConfig::default()
        };
        let mut p = PvmSystem::new(cfg, 2, 2);
        p.set_promiscuous(true);
        let data: Vec<f64> = (0..2000).map(|i| f64::from(i) * 0.5).collect();
        p.send(SimTime::ZERO, TaskId(0), TaskId(1), msg_of(9, &data));
        let out = p.finish();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.reader().f64s(2000), data);
        assert!(p.trace().iter().all(|r| r.proto == Proto::Udp));
        // Stop-and-wait: one ack per data datagram.
        let datagrams = p.trace().len();
        assert!(
            datagrams >= 2 && datagrams.is_multiple_of(2),
            "{datagrams} datagrams"
        );
    }

    #[test]
    fn daemon_route_delivers_the_direct_routes_bodies() {
        let run = |route| {
            let cfg = PvmConfig {
                route,
                heartbeat: None,
                daemon_frag: 1000,
                ..PvmConfig::default()
            };
            let mut p = PvmSystem::new(cfg, 3, 3);
            let mut multi = MessageBuilder::new(4).multi_pack();
            for i in 0..7u32 {
                multi.pack_u32(&vec![i; 359]);
            }
            let msgs = [
                msg_of(1, &(0..500).map(f64::from).collect::<Vec<_>>()),
                MessageBuilder::new(2).finish(),
                msg_of(3, &[2.5]),
                multi.finish(),
            ];
            for (i, m) in msgs.into_iter().enumerate() {
                let t = SimTime::from_millis(i as u64);
                p.send(t, TaskId(i as u32 % 2), TaskId(2), m);
            }
            let mut got: Vec<(u32, i32, Bytes)> = p
                .finish()
                .into_iter()
                .map(|d| (d.src.0, d.msg.tag, d.msg.body))
                .collect();
            got.sort_by_key(|&(_, tag, _)| tag);
            got
        };
        let direct = run(Route::Direct);
        assert_eq!(direct.len(), 4);
        assert_eq!(direct[3].2.len(), 7 * 359 * 4);
        assert_eq!(run(Route::Daemon), direct);
    }

    #[test]
    fn daemon_route_is_slower_than_direct() {
        let run = |route| {
            let cfg = PvmConfig {
                route,
                heartbeat: None,
                ..PvmConfig::default()
            };
            let mut p = PvmSystem::new(cfg, 2, 2);
            p.send(
                SimTime::ZERO,
                TaskId(0),
                TaskId(1),
                msg_of(0, &vec![1.0; 20_000]),
            );
            let out = p.finish();
            out[0].time
        };
        let direct = run(Route::Direct);
        let daemon = run(Route::Daemon);
        assert!(
            daemon > direct,
            "daemon {daemon} should be slower than direct {direct}"
        );
    }

    #[test]
    fn heartbeats_appear_periodically() {
        let cfg = PvmConfig {
            heartbeat: Some(SimTime::from_secs(2)),
            ..PvmConfig::default()
        };
        let mut p = PvmSystem::new(cfg, 2, 4);
        p.set_promiscuous(true);
        // Pump until three heartbeat rounds have fired.
        let mut out = Vec::new();
        while let Some(t) = p.advance(&mut out) {
            if t > SimTime::from_secs(7) {
                break;
            }
        }
        let hb = p
            .trace()
            .iter()
            .filter(|r| r.proto == Proto::Udp && r.dst == HostId(0))
            .count();
        // 3 rounds × 3 slave daemons.
        assert_eq!(hb, 9);
    }

    #[test]
    fn interleaved_bidirectional_sends() {
        let mut p = PvmSystem::new(direct_cfg(), 3, 3);
        for i in 0..5u32 {
            let t = SimTime::from_millis(u64::from(i));
            p.send(t, TaskId(0), TaskId(1), msg_of(i as i32, &[f64::from(i)]));
            p.send(
                t,
                TaskId(1),
                TaskId(0),
                msg_of(100 + i as i32, &[f64::from(i)]),
            );
            p.send(
                t,
                TaskId(2),
                TaskId(0),
                msg_of(200 + i as i32, &[f64::from(i)]),
            );
        }
        let out = p.finish();
        assert_eq!(out.len(), 15);
        let to0 = out.iter().filter(|d| d.dst == TaskId(0)).count();
        assert_eq!(to0, 10);
        // Per-pair FIFO: tags increase along each (src,dst) stream.
        for (s, d) in [(1u32, 0u32), (0, 1), (2, 0)] {
            let tags: Vec<i32> = out
                .iter()
                .filter(|m| m.src == TaskId(s) && m.dst == TaskId(d))
                .map(|m| m.msg.tag)
                .collect();
            let mut sorted = tags.clone();
            sorted.sort_unstable();
            assert_eq!(tags, sorted, "FIFO violated for {s}->{d}");
        }
    }

    #[test]
    fn empty_message_crosses_the_wire() {
        let mut p = PvmSystem::new(direct_cfg(), 2, 2);
        p.set_promiscuous(true);
        p.send(
            SimTime::ZERO,
            TaskId(0),
            TaskId(1),
            MessageBuilder::new(9).finish(),
        );
        let out = p.finish();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg.tag, 9);
        assert_eq!(out[0].msg.body.len(), 0);
        // Header-only fragment: 58 + 24 = 82-byte frame.
        let d = p
            .trace()
            .iter()
            .find(|r| r.kind == FrameKind::Data)
            .unwrap();
        assert_eq!(d.wire_len, 82);
    }

    #[test]
    fn fragment_stagger_spreads_writes_in_time() {
        let cfg = PvmConfig {
            heartbeat: None,
            frag_stagger: SimTime::from_millis(5),
            ..PvmConfig::default()
        };
        let mut p = PvmSystem::new(cfg, 2, 2);
        // Warm the connection up first: writes queued during the TCP
        // handshake flush together, hiding the stagger.
        p.send(SimTime::ZERO, TaskId(0), TaskId(1), msg_of(0, &[0.0]));
        let mut sink = Vec::new();
        while p.advance(&mut sink).is_some() {}
        p.set_promiscuous(true);
        let mut b = MessageBuilder::new(0).multi_pack();
        for _ in 0..4 {
            b.pack_u32(&[1, 2, 3]);
        }
        p.send(SimTime::from_secs(1), TaskId(0), TaskId(1), b.finish());
        p.finish();
        let data: Vec<SimTime> = p
            .trace()
            .iter()
            .filter(|r| r.kind == FrameKind::Data)
            .map(|r| r.time)
            .collect();
        assert_eq!(data.len(), 4);
        for w in data.windows(2) {
            let gap = w[1] - w[0];
            assert!(
                gap >= SimTime::from_millis(4),
                "fragments must be staggered, gap {gap}"
            );
        }
    }

    #[test]
    fn daemon_route_fragments_large_messages() {
        let cfg = PvmConfig {
            route: Route::Daemon,
            heartbeat: None,
            daemon_frag: 1000,
            ..PvmConfig::default()
        };
        let mut p = PvmSystem::new(cfg, 2, 2);
        p.set_promiscuous(true);
        let data: Vec<f64> = (0..500).map(f64::from).collect(); // 4000 B
        p.send(SimTime::ZERO, TaskId(0), TaskId(1), msg_of(1, &data));
        let out = p.finish();
        assert_eq!(out[0].msg.reader().f64s(500), data);
        // 4 data datagrams (1000 B each) + 4 acks.
        let forward = p.trace().iter().filter(|r| r.dst == HostId(1)).count();
        assert_eq!(forward, 4);
    }

    #[test]
    fn sender_backlog_reflects_queued_bytes() {
        let mut p = PvmSystem::new(direct_cfg(), 2, 2);
        assert_eq!(p.sender_backlog(TaskId(0)), 0);
        p.send(
            SimTime::ZERO,
            TaskId(0),
            TaskId(1),
            msg_of(0, &vec![0.0; 10_000]),
        );
        assert!(p.sender_backlog(TaskId(0)) >= 80_000);
        p.finish();
        assert_eq!(p.sender_backlog(TaskId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_rejected() {
        let mut p = PvmSystem::new(direct_cfg(), 2, 2);
        p.send(SimTime::ZERO, TaskId(0), TaskId(0), msg_of(0, &[1.0]));
    }

    #[test]
    fn deterministic_trace() {
        let run = || {
            let mut p = PvmSystem::new(PvmConfig::default(), 4, 5);
            p.set_promiscuous(true);
            for i in 0..4u32 {
                for j in 0..4u32 {
                    if i != j {
                        p.send(
                            SimTime::from_micros(u64::from(i * 7 + j)),
                            TaskId(i),
                            TaskId(j),
                            msg_of(0, &vec![1.0; 500]),
                        );
                    }
                }
            }
            p.finish();
            p.take_trace()
        };
        assert_eq!(run(), run());
    }
}
