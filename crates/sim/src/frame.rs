//! Ethernet frames and promiscuous-mode trace records.
//!
//! The paper's methodology (§5.3) records, for every frame on the shared
//! LAN: a timestamp, the frame size — counting "the data portion, TCP or
//! UDP header, IP header, and Ethernet header and trailer" — the protocol,
//! and the source and destination. [`FrameRecord`] reproduces exactly that
//! schema. With this accounting the minimum observed frame is 58 bytes
//! (14 B Ethernet header + 20 B IP + 20 B TCP + 4 B trailer, a pure ACK)
//! and the maximum is 1518 bytes, matching Figures 3 and 8.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a simulated workstation on the LAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Transport protocol carried by a frame, as a tcpdump-style classifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Proto {
    /// TCP: PVM direct-route message passing and its ACK stream.
    Tcp,
    /// UDP: traffic between the PVM daemons.
    Udp,
}

/// Finer-grained classification of what the frame carries. Not part of the
/// paper's record schema (tcpdump would not know), but useful for tests and
/// for the packet-size population analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameKind {
    /// TCP segment carrying payload bytes.
    Data,
    /// Pure TCP acknowledgment (no payload).
    Ack,
    /// TCP connection establishment (SYN / SYN-ACK).
    Syn,
    /// UDP datagram.
    Datagram,
}

/// Ethernet header (14 B) plus trailer/FCS (4 B).
pub const ETHER_OVERHEAD: u32 = 18;
/// IP header bytes.
pub const IP_HEADER: u32 = 20;
/// TCP header bytes (no options, as in the paper's 58-byte minimum).
pub const TCP_HEADER: u32 = 20;
/// UDP header bytes.
pub const UDP_HEADER: u32 = 8;
/// Smallest frame under the paper's size accounting: a pure TCP ACK.
pub const MIN_FRAME: u32 = ETHER_OVERHEAD + IP_HEADER + TCP_HEADER; // 58
/// Largest Ethernet frame (1500 B MTU + header + trailer).
pub const MAX_FRAME: u32 = 1518;
/// Preamble + start-frame delimiter, occupying the wire but not counted in
/// the recorded frame size (tcpdump does not see it).
pub const PREAMBLE: u32 = 8;

/// A frame queued for transmission on the bus.
///
/// Frames do not carry payload bytes; the protocol layer keeps payload in a
/// side table keyed by `token` and the bus only models occupancy and
/// delivery. This keeps the MAC layer independent of everything above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    pub src: HostId,
    pub dst: HostId,
    pub proto: Proto,
    pub kind: FrameKind,
    /// Bytes above the Ethernet layer (IP header + transport header + data).
    pub ip_len: u32,
    /// Opaque correlation token for the protocol layer.
    pub token: u64,
}

impl Frame {
    /// Build a TCP frame carrying `payload` data bytes.
    pub fn tcp(src: HostId, dst: HostId, kind: FrameKind, payload: u32, token: u64) -> Frame {
        debug_assert!(payload <= MAX_FRAME - MIN_FRAME);
        Frame {
            src,
            dst,
            proto: Proto::Tcp,
            kind,
            ip_len: IP_HEADER + TCP_HEADER + payload,
            token,
        }
    }

    /// Build a UDP frame carrying `payload` data bytes.
    pub fn udp(src: HostId, dst: HostId, payload: u32, token: u64) -> Frame {
        debug_assert!(payload <= MAX_FRAME - ETHER_OVERHEAD - IP_HEADER - UDP_HEADER);
        Frame {
            src,
            dst,
            proto: Proto::Udp,
            kind: FrameKind::Datagram,
            ip_len: IP_HEADER + UDP_HEADER + payload,
            token,
        }
    }

    /// Total recorded frame size: data + transport header + IP header +
    /// Ethernet header and trailer (the paper's accounting).
    #[inline]
    pub fn wire_len(&self) -> u32 {
        ETHER_OVERHEAD + self.ip_len
    }

    /// Payload bytes above the transport header.
    #[inline]
    pub fn payload_len(&self) -> u32 {
        let hdr = match self.proto {
            Proto::Tcp => IP_HEADER + TCP_HEADER,
            Proto::Udp => IP_HEADER + UDP_HEADER,
        };
        self.ip_len - hdr
    }

    /// Wire occupancy time at `bps` bits/second, including the preamble.
    #[inline]
    pub fn tx_time(&self, bps: u64) -> SimTime {
        let bits = u64::from(self.wire_len() + PREAMBLE) * 8;
        SimTime::from_nanos(bits * 1_000_000_000 / bps)
    }
}

/// One line of the promiscuous-mode trace: the paper's tcpdump record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Time at which the frame finished transmitting (the capture time).
    pub time: SimTime,
    /// Recorded size: data + transport + IP + Ethernet header and trailer.
    pub wire_len: u32,
    pub proto: Proto,
    pub kind: FrameKind,
    pub src: HostId,
    pub dst: HostId,
}

/// A live observer of delivered frames, invoked at the one promiscuous
/// capture point: `fxnet-proto`'s `Network`, once per final delivery the
/// fabric hands it, in delivery order.
///
/// The tap sees the same [`FrameRecord`] the promiscuous trace stores,
/// whether or not tracing is enabled, and runs strictly outside the
/// fabric: installing one cannot perturb timing, RNG draws, or the
/// captured trace — the same non-perturbation guarantee
/// `fxnet-telemetry` makes.
pub type FrameTap = Box<dyn FnMut(&FrameRecord) + Send>;

impl FrameRecord {
    /// Build the trace record for a frame delivered at `time`.
    pub fn capture(time: SimTime, frame: &Frame) -> FrameRecord {
        FrameRecord {
            time,
            wire_len: frame.wire_len(),
            proto: frame.proto,
            kind: frame.kind,
            src: frame.src,
            dst: frame.dst,
        }
    }
}

/// Row-by-row read access to a captured trace, whatever holds it: the
/// engine's `[FrameRecord]` or a columnar store. Analyses that pair the
/// causal log with the trace (`events[i]` describes row `i`) read the
/// rows through it, so neither side is copied.
pub trait TraceRows {
    /// Rows in the trace.
    fn len(&self) -> usize;
    /// Whether the trace holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Row `i`; panics when `i >= self.len()`.
    fn get(&self, i: usize) -> FrameRecord;
}

impl TraceRows for [FrameRecord] {
    fn len(&self) -> usize {
        <[FrameRecord]>::len(self)
    }

    fn get(&self, i: usize) -> FrameRecord {
        self[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_ack_is_58_bytes() {
        let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Ack, 0, 0);
        assert_eq!(f.wire_len(), 58);
        assert_eq!(f.payload_len(), 0);
    }

    #[test]
    fn full_segment_is_1518_bytes() {
        let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, 1460, 0);
        assert_eq!(f.wire_len(), MAX_FRAME);
        assert_eq!(f.payload_len(), 1460);
    }

    #[test]
    fn udp_accounting() {
        let f = Frame::udp(HostId(2), HostId(3), 100, 9);
        assert_eq!(f.wire_len(), 18 + 20 + 8 + 100);
        assert_eq!(f.payload_len(), 100);
    }

    #[test]
    fn tx_time_at_10mbps() {
        // 1518 B frame + 8 B preamble = 1526 B = 12208 bits = 1.2208 ms.
        let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, 1460, 0);
        assert_eq!(f.tx_time(10_000_000), SimTime::from_nanos(1_220_800));
        // pure ACK: 66 B with preamble = 528 bits = 52.8 us.
        let a = Frame::tcp(HostId(0), HostId(1), FrameKind::Ack, 0, 0);
        assert_eq!(a.tx_time(10_000_000), SimTime::from_nanos(52_800));
    }

    #[test]
    fn capture_copies_fields() {
        let f = Frame::tcp(HostId(4), HostId(5), FrameKind::Data, 10, 77);
        let r = FrameRecord::capture(SimTime::from_millis(3), &f);
        assert_eq!(r.wire_len, 68);
        assert_eq!(r.src, HostId(4));
        assert_eq!(r.dst, HostId(5));
        assert_eq!(r.proto, Proto::Tcp);
        assert_eq!(r.time, SimTime::from_millis(3));
    }
}
