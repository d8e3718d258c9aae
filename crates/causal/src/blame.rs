//! Violation blame: resolve a watcher event's flight-recorder frames to
//! the tenant → rank → op chains that caused them.

use fxnet_fx::CausalRun;
use fxnet_pvm::TenantMap;
use fxnet_sim::{SimTime, TraceRows};
use fxnet_watch::WatchEvent;
use std::collections::{BTreeMap, BTreeSet};

/// One causing chain: a tenant's rank and what it contributed to the
/// flight-recorder window.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct BlameChain {
    /// Tenant display name (or `tenant-N` if the map does not cover the
    /// cause's tenant index).
    pub tenant: String,
    /// Global rank that issued the causing ops.
    pub rank: u32,
    /// Distinct application ops behind this rank's frames.
    pub ops: u32,
    /// Frames in the window caused by this rank (retransmitted copies
    /// included — they occupied the wire too).
    pub frames: u32,
    /// Wire bytes those frames put on the medium.
    pub bytes: u64,
}

/// A contract violation resolved to its causes. Serializes as
/// `blame.json`'s `blame`: `accused_tenant`, `time_ns`, `window_frames`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct ViolationBlame {
    /// The tenant the watcher accused.
    #[serde(rename = "accused_tenant")]
    pub tenant: String,
    /// Which contract check fired.
    pub check: String,
    /// When it fired.
    #[serde(rename = "time_ns")]
    pub time: SimTime,
    /// Flight-recorder frames in the event.
    #[serde(rename = "window_frames")]
    pub window: usize,
    /// Whether the recorder window was located in the trace. The watcher
    /// and the trace observe the same delivery stream, so this only
    /// fails if the event came from another run.
    pub matched: bool,
    /// Window frames with protocol causes (ACKs, SYNs, heartbeats).
    pub protocol_frames: u32,
    /// Causing chains, heaviest wire-byte contributor first.
    pub chains: Vec<BlameChain>,
}

impl ViolationBlame {
    /// The heaviest contributor, if any chain matched.
    pub fn top(&self) -> Option<&BlameChain> {
        self.chains.first()
    }
}

/// Resolve `event`'s flight recorder against the run's causal stream.
///
/// The recorder is a contiguous window of the delivery stream ending at
/// the triggering frame, and `rows` is that stream as the trace holds
/// it; event `i` of `run` describes row `i`. The window is located by
/// exact record match in `rows`, and each frame in it is attributed
/// through its event's cause chain, grouped by (tenant, rank).
pub fn blame_violation<R: TraceRows + ?Sized>(
    event: &WatchEvent,
    run: &CausalRun,
    rows: &R,
    map: &TenantMap,
) -> ViolationBlame {
    let recorder = &event.flight_recorder;
    let n = recorder.len();
    let len = rows.len().min(run.events.len());
    let window = (n > 0 && n <= len)
        .then(|| (0..=len - n).find(|&s| (s..).zip(recorder).all(|(i, r)| rows.get(i) == *r)))
        .flatten();

    let mut grouped: BTreeMap<(u32, u32), (BTreeSet<u64>, u32, u64)> = BTreeMap::new();
    let mut protocol_frames = 0u32;
    if let Some(start) = window {
        for (i, e) in (start..).zip(&run.events[start..start + n]) {
            match e.cause.as_app() {
                Some(a) => {
                    let entry = grouped.entry((a.tenant, a.rank)).or_default();
                    entry.0.insert(e.cause.0);
                    entry.1 += 1;
                    entry.2 += u64::from(rows.get(i).wire_len);
                }
                None => {
                    if e.cause.is_some() {
                        protocol_frames += 1;
                    }
                }
            }
        }
    }

    let mut chains: Vec<BlameChain> = grouped
        .into_iter()
        .map(|((tenant, rank), (ops, frames, bytes))| BlameChain {
            tenant: map
                .slices()
                .get(tenant as usize)
                .map_or_else(|| format!("tenant-{tenant}"), |s| s.name.clone()),
            rank,
            ops: ops.len() as u32,
            frames,
            bytes,
        })
        .collect();
    chains.sort_by(|a, b| {
        b.bytes
            .cmp(&a.bytes)
            .then_with(|| a.tenant.cmp(&b.tenant))
            .then_with(|| a.rank.cmp(&b.rank))
    });

    ViolationBlame {
        tenant: event.tenant.clone(),
        check: event.check.clone(),
        time: event.time,
        window: n,
        matched: window.is_some(),
        chains,
        protocol_frames,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_fx::AppOp;
    use fxnet_sim::{
        CausalEvent, CauseId, FrameKind, FrameMeta, FrameRecord, HostId, Proto, ProtoCause,
    };
    use fxnet_watch::EventKind;

    fn record(t_us: u64, len: u32, src: u32) -> FrameRecord {
        FrameRecord {
            time: SimTime::from_micros(t_us),
            wire_len: len,
            proto: Proto::Tcp,
            kind: FrameKind::Data,
            src: HostId(src),
            dst: HostId(src + 1),
        }
    }

    fn ev(cause: CauseId, seq: u64) -> CausalEvent {
        CausalEvent {
            cause,
            retx: false,
            conn: 1,
            dir: 0,
            seq,
            meta: FrameMeta::default(),
        }
    }

    #[test]
    fn window_is_located_and_grouped_by_heaviest_contributor() {
        let map = TenantMap::pack([("honest".to_string(), 2), ("liar".to_string(), 2)]);
        let liar0 = CauseId::app(1, 2, 1, 0);
        let liar1 = CauseId::app(1, 2, 1, 1);
        let honest = CauseId::app(0, 0, 1, 0);
        let rows = [
            record(1, 500, 0),
            record(2, 1518, 2),
            record(3, 1518, 2),
            record(4, 58, 3),
        ];
        let events = vec![
            ev(honest, 0),
            ev(liar0, 0),
            ev(liar1, 1460),
            ev(CauseId::protocol(ProtoCause::Ack), 0),
        ];
        let ops = vec![
            AppOp {
                cause: honest,
                dst: 1,
                time: SimTime::ZERO,
                payload_bytes: 442,
                wire_bytes: 442,
            },
            AppOp {
                cause: liar0,
                dst: 3,
                time: SimTime::ZERO,
                payload_bytes: 1460,
                wire_bytes: 1460,
            },
            AppOp {
                cause: liar1,
                dst: 3,
                time: SimTime::ZERO,
                payload_bytes: 1460,
                wire_bytes: 1460,
            },
        ];
        let run = CausalRun { ops, events };
        // Recorder holds the last three deliveries.
        let event = WatchEvent {
            kind: EventKind::ContractViolation,
            tenant: "liar".to_string(),
            time: SimTime::from_micros(4),
            check: "burst-volume".to_string(),
            measured: 2.0,
            limit: 1.0,
            detail: String::new(),
            flight_recorder: vec![record(2, 1518, 2), record(3, 1518, 2), record(4, 58, 3)],
        };
        let blame = blame_violation(&event, &run, &rows[..], &map);
        assert!(blame.matched);
        assert_eq!(blame.window, 3);
        assert_eq!(blame.protocol_frames, 1);
        let top = blame.top().expect("chains");
        assert_eq!(top.tenant, "liar");
        assert_eq!(top.rank, 2);
        assert_eq!(top.ops, 2);
        assert_eq!(top.frames, 2);
        assert_eq!(top.bytes, 2 * 1518);
    }

    #[test]
    fn foreign_recorder_does_not_match() {
        let map = TenantMap::pack([("t".to_string(), 1)]);
        let run = CausalRun {
            ops: vec![],
            events: vec![ev(CauseId::NONE, 0)],
        };
        let rows = [record(1, 500, 0)];
        let event = WatchEvent {
            kind: EventKind::ContractViolation,
            tenant: "t".to_string(),
            time: SimTime::ZERO,
            check: "mean-bandwidth".to_string(),
            measured: 2.0,
            limit: 1.0,
            detail: String::new(),
            flight_recorder: vec![record(99, 999, 5)],
        };
        let blame = blame_violation(&event, &run, &rows[..], &map);
        assert!(!blame.matched);
        assert!(blame.chains.is_empty());
    }
}
