//! FNV-1a digests of the program's outputs, for the correctness gate.

use fxnet::sim::{FrameKind, Proto};
use fxnet::FrameRecord;

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of raw bytes (a rendered transcript, a trace file).
pub fn bytes_digest(bytes: &[u8]) -> String {
    Fnv::default().bytes(bytes).hex()
}

/// Digest of the rank return values of one program run.
pub fn results_digest(results: &[u64]) -> String {
    let mut h = Fnv::default();
    for r in results {
        h.bytes(&r.to_le_bytes());
    }
    h.hex()
}

/// Digest over `(time_ns, wire_len, proto, kind, src, dst)` of every
/// record, in trace order.
pub fn records_digest(records: impl IntoIterator<Item = FrameRecord>) -> String {
    let mut h = Fnv::default();
    for r in records {
        let proto = match r.proto {
            Proto::Tcp => 0u8,
            Proto::Udp => 1,
        };
        let kind = match r.kind {
            FrameKind::Data => 0u8,
            FrameKind::Ack => 1,
            FrameKind::Syn => 2,
            FrameKind::Datagram => 3,
        };
        h.bytes(&r.time.as_nanos().to_le_bytes())
            .bytes(&r.wire_len.to_le_bytes())
            .bytes(&[proto, kind])
            .bytes(&r.src.0.to_le_bytes())
            .bytes(&r.dst.0.to_le_bytes());
    }
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet::sim::Frame;
    use fxnet::{HostId, SimTime};

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(bytes_digest(b""), "cbf29ce484222325");
        assert_eq!(bytes_digest(b"a"), "af63dc4c8601ec8c");
        assert_eq!(bytes_digest(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn records_digest_sees_every_field_and_the_order() {
        let rec = |t: u64, payload: u32, src: u32, dst: u32| {
            let f = Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, payload, 0);
            FrameRecord::capture(SimTime::from_nanos(t), &f)
        };
        let base = records_digest([rec(10, 100, 0, 1), rec(20, 200, 1, 0)]);
        assert_eq!(
            base,
            records_digest([rec(10, 100, 0, 1), rec(20, 200, 1, 0)])
        );
        assert_ne!(
            base,
            records_digest([rec(20, 200, 1, 0), rec(10, 100, 0, 1)])
        );
        assert_ne!(
            base,
            records_digest([rec(11, 100, 0, 1), rec(20, 200, 1, 0)])
        );
        assert_ne!(
            base,
            records_digest([rec(10, 101, 0, 1), rec(20, 200, 1, 0)])
        );
        assert_ne!(
            base,
            records_digest([rec(10, 100, 2, 1), rec(20, 200, 1, 0)])
        );
        assert_ne!(
            base,
            records_digest([rec(10, 100, 0, 2), rec(20, 200, 1, 0)])
        );
        let mut udp = rec(10, 100, 0, 1);
        udp.proto = Proto::Udp;
        assert_ne!(base, records_digest([udp, rec(20, 200, 1, 0)]));
        let mut ack = rec(10, 100, 0, 1);
        ack.kind = FrameKind::Ack;
        assert_ne!(base, records_digest([ack, rec(20, 200, 1, 0)]));
    }
}
