//! The cross-layer cause DAG and conservation-checked frame provenance.

use fxnet_fx::CausalRun;
use fxnet_sim::frame::{ETHER_OVERHEAD, IP_HEADER, TCP_HEADER, UDP_HEADER};
use fxnet_sim::{CauseId, FrameKind, FrameRecord, Proto, ProtoCause, TraceRows};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Where one delivered frame came from, resolved through the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Caused by the application op at this index in the run's `ops`.
    /// `retransmitted` marks copies that reached the wire again after a
    /// TCP timeout — the chain passes through a `Retransmit` edge but
    /// still terminates at the original op.
    Op { op: usize, retransmitted: bool },
    /// A protocol artifact with no application op behind it.
    Protocol(ProtoCause),
    /// Untagged (capture was off when the frame's token was minted).
    Unknown,
}

/// Aggregate counts from a successful conservation check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConservationReport {
    /// Application ops checked.
    pub ops: usize,
    /// Distinct delivered data bytes attributed to ops (retransmitted
    /// copies deduplicated by TCP sequence range).
    pub data_bytes: u64,
    /// Delivered frames whose chain terminates at an application op.
    pub app_frames: usize,
    /// App frames that were retransmitted copies.
    pub retransmitted_frames: usize,
    /// Frames whose chain terminates at a protocol artifact.
    pub protocol_frames: usize,
    /// Frames with no cause at all.
    pub untagged_frames: usize,
}

/// One op whose delivered bytes did not match what it committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConservationError {
    /// Index into the run's `ops`.
    pub op: usize,
    /// The op's cause id.
    pub cause: CauseId,
    /// Transport bytes the op committed at send time.
    pub expected: u64,
    /// Distinct data bytes actually delivered under the op's cause.
    pub delivered: u64,
}

impl fmt::Display for ConservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op {} (cause {:#x}) committed {} transport bytes but {} were delivered",
            self.op, self.cause.0, self.expected, self.delivered
        )
    }
}

/// A causal log that does not describe the trace beside it: event `i`
/// must describe row `i`, so the two have one length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMismatch {
    /// Events in the causal log.
    pub events: usize,
    /// Rows in the trace.
    pub rows: usize,
}

impl fmt::Display for RowMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} causal events beside {} trace rows",
            self.events, self.rows
        )
    }
}

/// The per-run causal DAG, borrowing the capture and the trace it was
/// built from.
///
/// Nodes are the run's application ops and its delivered frames (its
/// `events`, in exact trace order — event `i` describes row `i` of the
/// promiscuous trace). Edges are op →
/// frame emissions ([`CauseDag::emits`]) and frame → frame retransmits
/// ([`CauseDag::retransmit_edges`]). Protocol artifacts (ACK, SYN,
/// heartbeat, daemon ACK) are terminal causes of their own.
#[derive(Debug)]
pub struct CauseDag<'a, R: TraceRows + ?Sized = [FrameRecord]> {
    /// The causal capture: op nodes in recording order, frame nodes in
    /// trace order.
    pub(crate) run: &'a CausalRun,
    /// The trace the capture describes, one row per frame node.
    pub(crate) rows: &'a R,
    /// Per-op emission edges: indices into the run's `events` of the
    /// frames the op put on the wire directly (first transmissions and
    /// UDP grams).
    pub emits: Vec<Vec<usize>>,
    /// Retransmit edges `(original, copy)`: the copy carries the same
    /// bytes — and the same cause — as the earlier delivery.
    pub retransmit_edges: Vec<(usize, usize)>,
    op_of_event: Vec<Option<usize>>,
}

impl<'a, R: TraceRows + ?Sized> CauseDag<'a, R> {
    /// Build the DAG from a causal capture and the trace it describes.
    ///
    /// # Errors
    /// [`RowMismatch`] when the log and the trace differ in length.
    pub fn build(run: &'a CausalRun, rows: &'a R) -> Result<CauseDag<'a, R>, RowMismatch> {
        let (events, n) = (run.events.len(), rows.len());
        if events != n {
            return Err(RowMismatch { events, rows: n });
        }
        let op_index: HashMap<CauseId, usize> = run
            .ops
            .iter()
            .enumerate()
            .map(|(i, o)| (o.cause, i))
            .collect();
        let mut emits = vec![Vec::new(); run.ops.len()];
        let mut retransmit_edges = Vec::new();
        let mut op_of_event = Vec::with_capacity(run.events.len());
        // Most recent delivered copy of each (conn, dir, seq) segment.
        let mut last_copy: HashMap<(u32, u8, u64), usize> = HashMap::new();
        for (i, e) in run.events.iter().enumerate() {
            let op = op_index.get(&e.cause).copied();
            op_of_event.push(op);
            if let Some(oi) = op {
                if e.retx {
                    match last_copy.get(&(e.conn, e.dir, e.seq)) {
                        Some(&orig) => retransmit_edges.push((orig, i)),
                        // The original copy was dropped by the MAC
                        // before delivery; this copy is the op's first.
                        None => emits[oi].push(i),
                    }
                } else {
                    emits[oi].push(i);
                }
                if rows.get(i).kind == FrameKind::Data {
                    last_copy.insert((e.conn, e.dir, e.seq), i);
                }
            }
        }
        Ok(CauseDag {
            run,
            rows,
            emits,
            retransmit_edges,
            op_of_event,
        })
    }

    /// Resolve the cause chain of frame `i` (trace row `i`).
    pub fn provenance(&self, i: usize) -> Provenance {
        let e = &self.run.events[i];
        match self.op_of_event[i] {
            Some(op) => Provenance::Op {
                op,
                retransmitted: e.retx,
            },
            None => match e.cause.decode() {
                fxnet_sim::Cause::Protocol(k) => Provenance::Protocol(k),
                _ => Provenance::Unknown,
            },
        }
    }

    /// Check byte conservation: for every op, the distinct data bytes
    /// delivered under its cause (TCP segments deduplicated by
    /// `(conn, dir, seq)`; UDP grams delivered exactly once) must equal
    /// the transport bytes the op committed at send time.
    ///
    /// # Errors
    /// The first op whose delivered bytes disagree with its commitment.
    pub fn check_conservation(&self) -> Result<ConservationReport, ConservationError> {
        let ops = &self.run.ops;
        let mut delivered = vec![0u64; ops.len()];
        let mut seen: HashSet<(usize, u32, u8, u64)> = HashSet::new();
        let mut report = ConservationReport {
            ops: ops.len(),
            ..ConservationReport::default()
        };
        for (i, e) in self.run.events.iter().enumerate() {
            match self.op_of_event[i] {
                Some(oi) => {
                    report.app_frames += 1;
                    if e.retx {
                        report.retransmitted_frames += 1;
                    }
                    let record = self.rows.get(i);
                    let bytes = data_payload(&record);
                    match record.kind {
                        FrameKind::Data => {
                            if seen.insert((oi, e.conn, e.dir, e.seq)) {
                                delivered[oi] += bytes;
                            }
                        }
                        FrameKind::Datagram => delivered[oi] += bytes,
                        FrameKind::Ack | FrameKind::Syn => {}
                    }
                }
                None => {
                    if e.cause.is_some() {
                        report.protocol_frames += 1;
                    } else {
                        report.untagged_frames += 1;
                    }
                }
            }
        }
        for (oi, op) in ops.iter().enumerate() {
            if delivered[oi] != op.wire_bytes {
                return Err(ConservationError {
                    op: oi,
                    cause: op.cause,
                    expected: op.wire_bytes,
                    delivered: delivered[oi],
                });
            }
            report.data_bytes += delivered[oi];
        }
        Ok(report)
    }
}

/// Transport payload bytes of a delivered frame (bytes above the
/// TCP/UDP header — what the protocol layer's write committed).
pub(crate) fn data_payload(rec: &FrameRecord) -> u64 {
    let hdr = match rec.proto {
        Proto::Tcp => ETHER_OVERHEAD + IP_HEADER + TCP_HEADER,
        Proto::Udp => ETHER_OVERHEAD + IP_HEADER + UDP_HEADER,
    };
    u64::from(rec.wire_len.saturating_sub(hdr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_fx::AppOp;
    use fxnet_sim::{CausalEvent, FrameMeta, HostId, SimTime};

    /// A delivered TCP data segment: its causal event and its trace row.
    fn data_frame(
        cause: CauseId,
        seq: u64,
        payload: u32,
        retx: bool,
    ) -> (CausalEvent, FrameRecord) {
        let event = CausalEvent {
            cause,
            retx,
            conn: 1,
            dir: 0,
            seq,
            meta: FrameMeta::default(),
        };
        let record = FrameRecord {
            time: SimTime::from_micros(seq),
            wire_len: ETHER_OVERHEAD + IP_HEADER + TCP_HEADER + payload,
            proto: Proto::Tcp,
            kind: FrameKind::Data,
            src: HostId(0),
            dst: HostId(1),
        };
        (event, record)
    }

    /// A capture of `ops` delivering `frames`, and its trace.
    fn capture(
        ops: Vec<AppOp>,
        frames: impl IntoIterator<Item = (CausalEvent, FrameRecord)>,
    ) -> (CausalRun, Vec<FrameRecord>) {
        let (events, rows) = frames.into_iter().unzip();
        (CausalRun { ops, events }, rows)
    }

    fn op(cause: CauseId, wire_bytes: u64) -> AppOp {
        AppOp {
            cause,
            dst: 1,
            time: SimTime::ZERO,
            payload_bytes: wire_bytes,
            wire_bytes,
        }
    }

    #[test]
    fn retransmitted_copy_keeps_its_cause_and_adds_an_edge() {
        let c = CauseId::app(0, 0, 1, 0);
        let (run, rows) = capture(
            vec![op(c, 300)],
            [
                data_frame(c, 0, 100, false),
                data_frame(c, 100, 200, false),
                data_frame(c, 100, 200, true), // timeout copy of seq 100
            ],
        );
        let dag = CauseDag::build(&run, &rows[..]).unwrap();
        assert_eq!(dag.emits[0], vec![0, 1]);
        assert_eq!(dag.retransmit_edges, vec![(1, 2)]);
        assert_eq!(
            dag.provenance(2),
            Provenance::Op {
                op: 0,
                retransmitted: true
            }
        );
        // Conservation deduplicates the retransmitted bytes.
        let rep = dag.check_conservation().unwrap();
        assert_eq!(rep.data_bytes, 300);
        assert_eq!(rep.retransmitted_frames, 1);
    }

    #[test]
    fn protocol_and_untagged_frames_terminate_off_the_op_table() {
        let (run, rows) = capture(
            vec![],
            [
                data_frame(CauseId::protocol(ProtoCause::Ack), 0, 0, false),
                data_frame(CauseId::NONE, 0, 0, false),
            ],
        );
        let dag = CauseDag::build(&run, &rows[..]).unwrap();
        assert_eq!(dag.provenance(0), Provenance::Protocol(ProtoCause::Ack));
        assert_eq!(dag.provenance(1), Provenance::Unknown);
        let rep = dag.check_conservation().unwrap();
        assert_eq!(rep.protocol_frames, 1);
        assert_eq!(rep.untagged_frames, 1);
    }

    #[test]
    fn short_delivery_fails_conservation() {
        let c = CauseId::app(0, 2, 1, 7);
        let (run, rows) = capture(vec![op(c, 500)], [data_frame(c, 0, 100, false)]);
        let dag = CauseDag::build(&run, &rows[..]).unwrap();
        let err = dag.check_conservation().unwrap_err();
        assert_eq!(err.expected, 500);
        assert_eq!(err.delivered, 100);
        assert!(err.to_string().contains("500"));
    }

    #[test]
    fn a_log_that_is_not_the_traces_length_is_rejected() {
        let c = CauseId::app(0, 0, 1, 0);
        let (run, rows) = capture(
            vec![op(c, 300)],
            [data_frame(c, 0, 100, false), data_frame(c, 100, 200, false)],
        );
        let err = CauseDag::build(&run, &rows[..1]).unwrap_err();
        assert_eq!(err, RowMismatch { events: 2, rows: 1 });
        assert_eq!(err.to_string(), "2 causal events beside 1 trace rows");
        assert!(CauseDag::build(&CausalRun::default(), &rows[..]).is_err());
    }
}
