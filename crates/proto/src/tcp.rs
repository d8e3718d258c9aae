//! TCP connection state.

use bytes::Bytes;
use fxnet_sim::{CauseId, HostId, SimTime};
use std::collections::VecDeque;

/// Identifier of an established (or establishing) TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u32);

/// Direction of data flow within a duplex connection; `dir as u8` is
/// the code a causal event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// From the connecting host (`a`) to the accepting host (`b`).
    AtoB = 0,
    /// From `b` to `a`.
    BtoA = 1,
}

/// Connection establishment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// SYN-ACK sent by the acceptor, awaiting the final ACK.
    SynAckSent,
    /// Three-way handshake complete; data may flow.
    Established,
}

/// One application write, segmented independently (`TCP_NODELAY` model).
#[derive(Debug)]
pub(crate) struct WriteChunk {
    pub data: Bytes,
    /// Bytes of this chunk already emitted as segments.
    pub sent: usize,
    /// Cause of the write; inherited by every segment cut from it.
    pub cause: CauseId,
}

/// Send/receive state for one direction of a connection.
#[derive(Debug)]
pub(crate) struct Half {
    /// Pending application writes not yet fully segmented.
    pub sndq: VecDeque<WriteChunk>,
    /// Next sequence number to assign (bytes since connection start).
    pub snd_next: u64,
    /// Highest cumulative ACK received.
    pub snd_acked: u64,
    /// Segments emitted but not yet cumulatively acknowledged, kept for
    /// go-back-N retransmission: `(seq, payload, cause)`. A retransmitted
    /// segment keeps the *original* cause.
    pub unacked: VecDeque<(u64, Bytes, CauseId)>,
    /// Receiver: next expected sequence number.
    pub rcv_next: u64,
    /// Receiver: full segments received since the last ACK was sent.
    pub segs_since_ack: u32,
    /// Receiver: whether a delayed-ACK timer is armed.
    pub delack_armed: bool,
    /// Sender: whether a retransmission timer is armed.
    pub rto_armed: bool,
    /// Sender: epoch counter, bumped whenever the RTO is re-armed so stale
    /// timer events can be ignored.
    pub rto_epoch: u64,
    /// Last time the retransmit fired, for tests/statistics.
    pub retransmits: u64,
}

impl Half {
    pub(crate) fn new() -> Half {
        Half {
            sndq: VecDeque::new(),
            snd_next: 0,
            snd_acked: 0,
            unacked: VecDeque::new(),
            rcv_next: 0,
            segs_since_ack: 0,
            delack_armed: false,
            rto_armed: false,
            rto_epoch: 0,
            retransmits: 0,
        }
    }

    /// Bytes in flight (sent and not yet acknowledged).
    pub(crate) fn inflight(&self) -> u64 {
        self.snd_next - self.snd_acked
    }

    /// Whether the sender has queued data not yet emitted.
    pub(crate) fn has_pending(&self) -> bool {
        self.sndq.front().is_some_and(|c| c.sent < c.data.len())
    }
}

/// A duplex TCP connection between two hosts.
#[derive(Debug)]
pub(crate) struct TcpConn {
    pub a: HostId,
    pub b: HostId,
    pub state: ConnState,
    pub ab: Half,
    pub ba: Half,
    /// Time the connection was initiated, for diagnostics.
    #[allow(dead_code)]
    pub opened: SimTime,
}

impl TcpConn {
    pub(crate) fn new(a: HostId, b: HostId, opened: SimTime) -> TcpConn {
        TcpConn {
            a,
            b,
            state: ConnState::SynSent,
            ab: Half::new(),
            ba: Half::new(),
            opened,
        }
    }

    /// The half carrying data in direction `dir`.
    pub(crate) fn half(&self, dir: Dir) -> &Half {
        match dir {
            Dir::AtoB => &self.ab,
            Dir::BtoA => &self.ba,
        }
    }

    pub(crate) fn half_mut(&mut self, dir: Dir) -> &mut Half {
        match dir {
            Dir::AtoB => &mut self.ab,
            Dir::BtoA => &mut self.ba,
        }
    }

    /// Source host for data flowing in `dir`.
    pub(crate) fn src(&self, dir: Dir) -> HostId {
        match dir {
            Dir::AtoB => self.a,
            Dir::BtoA => self.b,
        }
    }

    /// Destination host for data flowing in `dir`.
    pub(crate) fn dst(&self, dir: Dir) -> HostId {
        match dir {
            Dir::AtoB => self.b,
            Dir::BtoA => self.a,
        }
    }

    /// Direction of data sent *from* `h` on this connection.
    pub(crate) fn dir_from(&self, h: HostId) -> Dir {
        if h == self.a {
            Dir::AtoB
        } else {
            debug_assert_eq!(h, self.b);
            Dir::BtoA
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_inflight_accounting() {
        let mut h = Half::new();
        assert_eq!(h.inflight(), 0);
        h.snd_next = 100;
        h.snd_acked = 40;
        assert_eq!(h.inflight(), 60);
        assert!(!h.has_pending());
        h.sndq.push_back(WriteChunk {
            data: Bytes::from_static(b"xyz"),
            sent: 0,
            cause: CauseId::NONE,
        });
        assert!(h.has_pending());
        h.sndq.front_mut().unwrap().sent = 3;
        assert!(!h.has_pending());
    }

    #[test]
    fn conn_direction_mapping() {
        let c = TcpConn::new(HostId(3), HostId(7), SimTime::ZERO);
        assert_eq!(c.src(Dir::AtoB), HostId(3));
        assert_eq!(c.dst(Dir::AtoB), HostId(7));
        assert_eq!(c.src(Dir::BtoA), HostId(7));
        assert_eq!(c.dir_from(HostId(3)), Dir::AtoB);
        assert_eq!(c.dir_from(HostId(7)), Dir::BtoA);
    }
}
