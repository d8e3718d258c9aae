//! Deterministic JSON and Chrome trace-event exports.
//!
//! [`CollectivePath`] and [`crate::ViolationBlame`] serialize
//! themselves; here the cause DAG is laid out as derived row types and
//! the critical paths as [`TraceEvent`] slices, which load directly in
//! Perfetto (`ui.perfetto.dev`) or `chrome://tracing`. The serializer
//! keeps field order, so the same run always yields the same text.

use crate::critical::CollectivePath;
use crate::dag::{CauseDag, Provenance};
use fxnet_pvm::TenantMap;
use fxnet_sim::{FrameKind, Proto, SimTime, TraceRows};
use fxnet_telemetry::TraceEvent;
use serde::Serialize;

fn kind_label(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::Data => "data",
        FrameKind::Ack => "ack",
        FrameKind::Syn => "syn",
        FrameKind::Datagram => "datagram",
    }
}

fn tenant_name(map: &TenantMap, tenant: u32) -> String {
    map.slices()
        .get(tenant as usize)
        .map_or_else(|| format!("tenant-{tenant}"), |s| s.name.clone())
}

/// The exported cause DAG, as [`dag_value`] lays it out: the op table,
/// one row per delivered frame, the retransmit edges and the
/// conservation summary, serialized in that order.
#[derive(Serialize)]
pub struct DagJson {
    ops: Vec<OpRow>,
    frames: Vec<FrameRow>,
    retransmit_edges: Vec<(usize, usize)>,
    conservation: ConservationRow,
}

#[derive(Serialize)]
struct OpRow {
    op: usize,
    tenant: String,
    rank: u32,
    phase: u32,
    seq: u32,
    dst: u32,
    time_ns: SimTime,
    payload_bytes: u64,
    wire_bytes: u64,
    frames: Vec<usize>,
}

#[derive(Serialize)]
struct FrameRow {
    frame: usize,
    time_ns: SimTime,
    src: u32,
    dst: u32,
    proto: &'static str,
    frame_kind: &'static str,
    wire_len: u32,
    cause: CauseRow,
    queue_ns: u64,
    backoff_ns: u64,
    tx_ns: u64,
    collisions: u32,
}

/// A frame's provenance: `kind` is `op` (with `op` and
/// `retransmitted`), `protocol` (with `artifact`) or `none`.
#[derive(Default, Serialize)]
struct CauseRow {
    kind: &'static str,
    #[serde(skip_serializing_if = "Option::is_none")]
    op: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    retransmitted: Option<bool>,
    #[serde(skip_serializing_if = "Option::is_none")]
    artifact: Option<&'static str>,
}

/// The conservation check: the report's counts when it `holds`, the
/// `violation` when it does not.
#[derive(Default, Serialize)]
struct ConservationRow {
    holds: bool,
    #[serde(skip_serializing_if = "Option::is_none")]
    ops: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    data_bytes: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    app_frames: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    retransmitted_frames: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    protocol_frames: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    untagged_frames: Option<usize>,
    #[serde(skip_serializing_if = "Option::is_none")]
    violation: Option<String>,
}

/// The cause DAG as deterministic JSON rows: the op table, one entry
/// per delivered frame with its resolved provenance, the retransmit
/// edges, and the conservation summary.
pub fn dag_value<R: TraceRows + ?Sized>(dag: &CauseDag<'_, R>, map: &TenantMap) -> DagJson {
    let ops = dag
        .run
        .ops
        .iter()
        .zip(&dag.emits)
        .enumerate()
        .map(|(i, (op, emits))| {
            let a = op.cause.as_app().expect("ops carry app causes");
            OpRow {
                op: i,
                tenant: tenant_name(map, a.tenant),
                rank: a.rank,
                phase: a.phase,
                seq: a.op,
                dst: op.dst,
                time_ns: op.time,
                payload_bytes: op.payload_bytes,
                wire_bytes: op.wire_bytes,
                frames: emits.clone(),
            }
        })
        .collect();
    let frames = dag
        .run
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let record = dag.rows.get(i);
            let cause = match dag.provenance(i) {
                Provenance::Op { op, retransmitted } => CauseRow {
                    kind: "op",
                    op: Some(op),
                    retransmitted: Some(retransmitted),
                    ..CauseRow::default()
                },
                Provenance::Protocol(k) => CauseRow {
                    kind: "protocol",
                    artifact: Some(k.label()),
                    ..CauseRow::default()
                },
                Provenance::Unknown => CauseRow {
                    kind: "none",
                    ..CauseRow::default()
                },
            };
            FrameRow {
                frame: i,
                time_ns: record.time,
                src: record.src.0,
                dst: record.dst.0,
                proto: match record.proto {
                    Proto::Tcp => "tcp",
                    Proto::Udp => "udp",
                },
                frame_kind: kind_label(record.kind),
                wire_len: record.wire_len,
                cause,
                queue_ns: e.meta.queue_ns,
                backoff_ns: e.meta.backoff_ns,
                tx_ns: e.meta.tx_ns,
                collisions: e.meta.attempts,
            }
        })
        .collect();
    let conservation = match dag.check_conservation() {
        Ok(rep) => ConservationRow {
            holds: true,
            ops: Some(rep.ops),
            data_bytes: Some(rep.data_bytes),
            app_frames: Some(rep.app_frames),
            retransmitted_frames: Some(rep.retransmitted_frames),
            protocol_frames: Some(rep.protocol_frames),
            untagged_frames: Some(rep.untagged_frames),
            violation: None,
        },
        Err(e) => ConservationRow {
            violation: Some(e.to_string()),
            ..ConservationRow::default()
        },
    };
    DagJson {
        ops,
        frames,
        retransmit_edges: dag.retransmit_edges.clone(),
        conservation,
    }
}

/// The critical paths as Chrome trace events (Perfetto-loadable): one
/// complete (`ph:"X"`) slice per collective instance on track
/// `pid = tenant index, tid = straggler rank`, with its six segments
/// laid out as child slices, plus process-name metadata per tenant.
pub fn chrome_trace(paths: &[CollectivePath], map: &TenantMap) -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = map
        .slices()
        .iter()
        .enumerate()
        .map(|(i, slice)| TraceEvent::process_name(i as u64, &slice.name))
        .collect();
    for p in paths {
        let pid = map
            .slices()
            .iter()
            .position(|s| s.name == p.tenant)
            .unwrap_or(map.slices().len()) as u64;
        let tid = u64::from(p.straggler_rank);
        events.push(TraceEvent::slice(
            format!("{}#{}", p.name, p.instance),
            p.begin.as_nanos(),
            p.elapsed_ns,
            pid,
            tid,
        ));
        let s = &p.segments;
        let mut cursor = p.begin.as_nanos();
        for (label, dur) in [
            ("compute", s.compute_ns),
            ("serialization", s.serialization_ns),
            ("queue", s.queue_ns),
            ("backoff", s.backoff_ns),
            ("wire", s.wire_ns),
            ("retransmit", s.retransmit_ns),
        ] {
            if dur > 0 {
                events.push(TraceEvent::slice(label.to_string(), cursor, dur, pid, tid));
            }
            cursor += dur;
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::SegmentBreakdown;
    use fxnet_fx::CausalRun;
    use fxnet_sim::SimTime;

    fn path() -> CollectivePath {
        CollectivePath {
            tenant: "SOR".to_string(),
            name: "boundary_exchange".to_string(),
            instance: 0,
            straggler_rank: 2,
            begin: SimTime::from_micros(100),
            end: SimTime::from_micros(160),
            elapsed_ns: 60_000,
            frames: 3,
            segments: SegmentBreakdown {
                compute_ns: 10_000,
                serialization_ns: 5_000,
                wire_ns: 20_000,
                queue_ns: 25_000,
                backoff_ns: 0,
                retransmit_ns: 0,
            },
            blocking_link: Some("h2->h3".to_string()),
        }
    }

    #[test]
    fn exports_are_deterministic_text() {
        let map = TenantMap::pack([("SOR".to_string(), 4)]);
        let (run, rows) = (CausalRun::default(), Vec::new());
        let dag = CauseDag::build(&run, &rows[..]).expect("both empty");
        let a = serde::json::to_string(&dag_value(&dag, &map));
        let b = serde::json::to_string(&dag_value(&dag, &map));
        assert_eq!(a, b);
        let p = vec![path()];
        assert_eq!(serde::json::to_string(&p), serde::json::to_string(&p));
    }

    #[test]
    fn absent_provenance_and_counts_are_left_out() {
        let none = CauseRow {
            kind: "none",
            ..CauseRow::default()
        };
        assert_eq!(serde::json::to_string(&none), r#"{"kind":"none"}"#);
        let broken = ConservationRow {
            violation: Some("op 3 short".to_string()),
            ..ConservationRow::default()
        };
        assert_eq!(
            serde::json::to_string(&broken),
            r#"{"holds":false,"violation":"op 3 short"}"#
        );
    }

    #[test]
    fn paths_and_blame_serialize_under_their_artifact_keys() {
        let text = serde::json::to_string(&path());
        assert!(text.starts_with(r#"{"tenant":"SOR","collective":"boundary_exchange","#));
        assert!(text.contains(r#""begin_ns":100000,"end_ns":160000,"#));
        let blame = crate::ViolationBlame {
            tenant: "2DFFT".to_string(),
            check: "burst-volume".to_string(),
            time: SimTime::from_micros(5),
            window: 2,
            matched: true,
            protocol_frames: 1,
            chains: Vec::new(),
        };
        assert_eq!(
            serde::json::to_string(&blame),
            r#"{"accused_tenant":"2DFFT","check":"burst-volume","time_ns":5000,"window_frames":2,"matched":true,"protocol_frames":1,"chains":[]}"#
        );
    }

    #[test]
    fn chrome_trace_slices_tile_the_window() {
        let map = TenantMap::pack([("SOR".to_string(), 4)]);
        let events = chrome_trace(&[path()], &map);
        // Metadata + parent + 4 non-empty segments.
        assert_eq!(events.len(), 6);
        let parent = &events[1];
        assert_eq!(parent.ph, "X");
        assert_eq!(parent.ts, Some(100.0));
        assert_eq!(parent.dur, Some(60.0));
        // Child slices tile [100, 160] µs without gaps.
        let mut cursor = 100.0;
        for e in &events[2..] {
            assert_eq!(e.ts, Some(cursor));
            cursor += e.dur.expect("slices have a duration");
        }
        assert_eq!(cursor, 160.0);
    }
}
