//! Causal provenance identifiers and the tagged frame stream.
//!
//! Every frame the simulator delivers can be traced back to the thing
//! that caused it: an application-level operation (a collective's send on
//! some rank, identified by tenant / rank / phase-span / op sequence) or
//! a protocol artifact the stack generated on its own (a TCP ACK or SYN,
//! a PVM daemon ACK, a heartbeat). The identifier is a single packed
//! `u64` that rides in the protocol layer's token side-table — never in
//! the [`crate::Frame`] itself — so tagging is invisible to the MAC, the
//! trace, and the clock: a tagged run produces a byte-identical trace to
//! an untagged run (asserted like the watch tap's non-perturbation).
//!
//! Layout of [`CauseId`] (bit 63 downwards):
//!
//! ```text
//! tag=01 | tenant:8 | rank:8 | phase:16 | op:30      application op
//! tag=10 | 0...                        | kind:8     protocol artifact
//! all zero                                          none
//! ```

use serde::{Deserialize, Serialize};

const TAG_SHIFT: u32 = 62;
const TAG_APP: u64 = 0b01;
const TAG_PROTO: u64 = 0b10;
const TENANT_SHIFT: u32 = 54;
const RANK_SHIFT: u32 = 46;
const PHASE_SHIFT: u32 = 30;
const OP_MASK: u64 = (1 << 30) - 1;

/// Compact cause identifier carried through the protocol stack.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CauseId(pub u64);

/// A decoded application-op cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AppCause {
    /// Tenant (group) index in spec order.
    pub tenant: u32,
    /// Global rank (task id) that issued the op.
    pub rank: u32,
    /// Phase-span sequence number on that rank (0 outside any span).
    pub phase: u32,
    /// Op sequence number on that rank.
    pub op: u32,
}

/// Protocol artifacts the stack emits without an application op behind
/// them; their cause chains terminate here instead of at an app op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProtoCause {
    /// Pure TCP acknowledgment.
    Ack,
    /// TCP connection establishment (SYN / SYN-ACK / final ACK).
    Syn,
    /// PVM daemon keep-alive heartbeat.
    Heartbeat,
    /// PVM daemon stop-and-wait acknowledgment datagram.
    DaemonAck,
}

impl ProtoCause {
    pub fn label(self) -> &'static str {
        match self {
            ProtoCause::Ack => "tcp-ack",
            ProtoCause::Syn => "tcp-syn",
            ProtoCause::Heartbeat => "pvm-heartbeat",
            ProtoCause::DaemonAck => "pvm-daemon-ack",
        }
    }

    const ALL: [ProtoCause; 4] = [
        ProtoCause::Ack,
        ProtoCause::Syn,
        ProtoCause::Heartbeat,
        ProtoCause::DaemonAck,
    ];
}

/// A fully decoded [`CauseId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Untagged (the token predates tagging, or tagging was off).
    None,
    /// An application operation.
    App(AppCause),
    /// A protocol artifact.
    Protocol(ProtoCause),
}

impl CauseId {
    /// The untagged cause.
    pub const NONE: CauseId = CauseId(0);

    /// Encode an application-op cause. Fields saturate at their bit
    /// widths (8/8/16/30) rather than corrupting neighboring fields.
    pub fn app(tenant: u32, rank: u32, phase: u32, op: u32) -> CauseId {
        let tenant = u64::from(tenant.min(0xFF));
        let rank = u64::from(rank.min(0xFF));
        let phase = u64::from(phase.min(0xFFFF));
        let op = u64::from(op) & OP_MASK;
        CauseId(
            (TAG_APP << TAG_SHIFT)
                | (tenant << TENANT_SHIFT)
                | (rank << RANK_SHIFT)
                | (phase << PHASE_SHIFT)
                | op,
        )
    }

    /// Encode a protocol-artifact cause.
    pub fn protocol(kind: ProtoCause) -> CauseId {
        CauseId((TAG_PROTO << TAG_SHIFT) | kind as u64)
    }

    /// Decode.
    pub fn decode(self) -> Cause {
        match self.0 >> TAG_SHIFT {
            t if t == TAG_APP => Cause::App(AppCause {
                tenant: ((self.0 >> TENANT_SHIFT) & 0xFF) as u32,
                rank: ((self.0 >> RANK_SHIFT) & 0xFF) as u32,
                phase: ((self.0 >> PHASE_SHIFT) & 0xFFFF) as u32,
                op: (self.0 & OP_MASK) as u32,
            }),
            t if t == TAG_PROTO => {
                let kind = (self.0 & 0xFF) as usize;
                ProtoCause::ALL
                    .get(kind)
                    .map_or(Cause::None, |&k| Cause::Protocol(k))
            }
            _ => Cause::None,
        }
    }

    /// The decoded application cause, if this is one.
    pub fn as_app(self) -> Option<AppCause> {
        match self.decode() {
            Cause::App(a) => Some(a),
            _ => None,
        }
    }

    /// Whether this id carries any cause at all.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// Passive MAC-layer timing metadata for one delivered frame. Collected
/// as pure bookkeeping alongside the existing state machine — recording
/// it draws no RNG values and schedules nothing, so timing is untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FrameMeta {
    /// Time spent waiting in the sender's queue before transmission
    /// started, excluding backoff (deference, IFG, jam, head-of-line).
    /// On a multi-hop fabric this sums every hop's wait plus fixed
    /// per-hop latencies, so `queue + backoff + tx` still equals the
    /// frame's end-to-end elapsed time exactly.
    pub queue_ns: u64,
    /// Time spent in collision backoff before this transmission.
    pub backoff_ns: u64,
    /// Wire occupancy of the transmission itself (summed over hops on a
    /// multi-hop fabric).
    pub tx_ns: u64,
    /// Collisions this frame experienced before getting through.
    pub attempts: u32,
    /// Bottleneck inter-node trunk, encoded with [`FrameMeta::trunk_code`].
    /// 0 when the frame crossed no trunk, or when an access hop (its own
    /// segment or port) out-waited every trunk it crossed. A fabric with
    /// no trunk ([`crate::EtherBus`], a one-switch topology) always
    /// leaves it 0.
    pub trunk: u32,
}

impl FrameMeta {
    /// Encode the trunk between topology nodes `a` and `b` as a nonzero
    /// code that survives serialization without a name table: bit 31 set,
    /// node indices packed 15/16 bits.
    #[must_use]
    pub fn trunk_code(a: u32, b: u32) -> u32 {
        (1 << 31) | ((a & 0x7FFF) << 16) | (b & 0xFFFF)
    }

    /// Decode a trunk code back to its `(a, b)` node indices.
    #[must_use]
    pub fn trunk_nodes(code: u32) -> Option<(u32, u32)> {
        (code & (1 << 31) != 0).then_some(((code >> 16) & 0x7FFF, code & 0xFFFF))
    }

    /// The canonical display name of this frame's bottleneck trunk
    /// (`"trunk:n2-n3"`), if one is recorded.
    #[must_use]
    pub fn trunk_label(&self) -> Option<String> {
        Self::trunk_nodes(self.trunk).map(|(a, b)| format!("trunk:n{a}-n{b}"))
    }
}

/// One tagged delivery: what the trace row of a frame does not say, its
/// cause, TCP identity and MAC timing. Emitted by the protocol layer in
/// exactly trace order, so index `i` of the causal stream describes row
/// `i` of the promiscuous trace, which holds the frame's record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CausalEvent {
    /// What caused the frame.
    pub cause: CauseId,
    /// Whether this delivery is a TCP retransmission of earlier bytes
    /// (the `Retransmit` edge: the cause is the *original* op's).
    pub retx: bool,
    /// TCP connection id (0 for UDP).
    pub conn: u32,
    /// TCP direction within the connection (0 = a→b, 1 = b→a).
    pub dir: u8,
    /// TCP sequence number of the segment's first payload byte (0 for
    /// UDP); distinct `(conn, dir, seq)` triples identify distinct bytes,
    /// deduplicating retransmitted copies.
    pub seq: u64,
    /// MAC timing metadata.
    pub meta: FrameMeta,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_round_trips() {
        let id = CauseId::app(3, 12, 417, 90_210);
        assert!(id.is_some());
        assert_eq!(
            id.decode(),
            Cause::App(AppCause {
                tenant: 3,
                rank: 12,
                phase: 417,
                op: 90_210
            })
        );
        assert_eq!(
            id.as_app(),
            Some(AppCause {
                tenant: 3,
                rank: 12,
                phase: 417,
                op: 90_210
            })
        );
    }

    #[test]
    fn protocol_round_trips() {
        for kind in ProtoCause::ALL {
            let id = CauseId::protocol(kind);
            assert!(id.is_some());
            assert_eq!(id.decode(), Cause::Protocol(kind));
            assert_eq!(id.as_app(), None);
        }
    }

    #[test]
    fn none_decodes_to_none() {
        assert!(!CauseId::NONE.is_some());
        assert_eq!(CauseId::NONE.decode(), Cause::None);
    }

    #[test]
    fn fields_saturate_instead_of_bleeding() {
        let id = CauseId::app(9_999, 9_999, 1_000_000, u32::MAX);
        match id.decode() {
            Cause::App(a) => {
                assert_eq!(a.tenant, 0xFF);
                assert_eq!(a.rank, 0xFF);
                assert_eq!(a.phase, 0xFFFF);
                assert_eq!(a.op, (1 << 30) - 1);
            }
            other => panic!("expected app cause, got {other:?}"),
        }
    }

    #[test]
    fn distinct_ops_get_distinct_ids() {
        let a = CauseId::app(0, 1, 2, 3);
        let b = CauseId::app(0, 1, 2, 4);
        let c = CauseId::app(0, 1, 3, 3);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, CauseId::protocol(ProtoCause::Ack));
    }
}
