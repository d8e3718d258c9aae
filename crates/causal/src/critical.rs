//! Collective critical paths: per-instance straggler attribution with
//! an exact decomposition of the straggler's elapsed time.

use fxnet_fx::CausalRun;
use fxnet_pvm::TenantMap;
use fxnet_sim::{SimTime, TraceRows};
use fxnet_telemetry::{SpanKind, SpanRecord};
use std::collections::HashMap;

/// The straggler's elapsed time split into six exhaustive segments.
/// By construction the six fields sum exactly to the instance's
/// `elapsed_ns` — nothing is dropped and nothing is double-counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize)]
pub struct SegmentBreakdown {
    /// Local computation inside the collective window.
    pub compute_ns: u64,
    /// Time neither computing nor blocked: message assembly and the
    /// per-send software overheads (the paper's copy loop).
    pub serialization_ns: u64,
    /// Blocked time covered by this rank's own frames occupying the
    /// wire (first transmissions).
    pub wire_ns: u64,
    /// Blocked time spent queued behind other traffic (deference, IFG,
    /// head-of-line, switch queues) or waiting on peers.
    pub queue_ns: u64,
    /// Blocked time covered by collision backoff of this rank's frames.
    pub backoff_ns: u64,
    /// Blocked time covered by retransmitted copies on the wire.
    pub retransmit_ns: u64,
}

impl SegmentBreakdown {
    /// Sum of all six segments; always equals the path's `elapsed_ns`.
    pub fn total_ns(&self) -> u64 {
        self.compute_ns
            + self.serialization_ns
            + self.wire_ns
            + self.queue_ns
            + self.backoff_ns
            + self.retransmit_ns
    }
}

/// The critical path of one collective instance: the rank every other
/// participant waited for, and where its time went.
/// Serializes as a `blame.json` critical path: `name` under
/// `collective`, the window as `begin_ns` / `end_ns`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct CollectivePath {
    /// Tenant (group) display name.
    pub tenant: String,
    /// Collective span name ("boundary_exchange", "transpose", ...).
    #[serde(rename = "collective")]
    pub name: String,
    /// Zero-based occurrence of this collective on the tenant's ranks.
    pub instance: u32,
    /// The global rank whose span ended last — the one the collective
    /// waited for.
    pub straggler_rank: u32,
    /// Straggler window start.
    #[serde(rename = "begin_ns")]
    pub begin: SimTime,
    /// Straggler window end (= the collective's completion).
    #[serde(rename = "end_ns")]
    pub end: SimTime,
    /// Straggler span duration.
    pub elapsed_ns: u64,
    /// Frames the straggler's sends in this phase put on the wire.
    pub frames: u32,
    /// Exact decomposition of `elapsed_ns`.
    pub segments: SegmentBreakdown,
    /// The `hSRC->hDST` link whose frame waited longest (queue plus
    /// backoff) among the straggler's frames — the contended link.
    pub blocking_link: Option<String>,
}

/// Per-rank span bookkeeping: collective spans in phase order (the
/// engine increments the rank's phase counter on every span begin, so
/// begin order reproduces phase numbering), plus clipping sources.
struct RankSpans<'a> {
    /// `(phase_number, span)` for collective spans, in begin order.
    collectives: Vec<(u32, &'a SpanRecord)>,
    compute: Vec<&'a SpanRecord>,
    blocked: Vec<&'a SpanRecord>,
}

fn overlap_ns(s: &SpanRecord, wb: SimTime, we: SimTime) -> u64 {
    let b = s.begin.max(wb);
    let e = s.end.min(we);
    e.saturating_sub(b).as_nanos()
}

/// Compute the critical path of every collective instance in the run.
///
/// `rows` is the trace `run` describes (event `i` is row `i`); `spans`
/// is the run's telemetry span list (causal capture forces telemetry on,
/// so it is always present in a causal run); `map` names the tenants the
/// cause ids index.
pub fn collective_paths<R: TraceRows + ?Sized>(
    run: &CausalRun,
    rows: &R,
    spans: &[SpanRecord],
    map: &TenantMap,
) -> Vec<CollectivePath> {
    // Index the tagged frames by (sender rank, phase).
    let mut events_at: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for (i, e) in run.events.iter().enumerate() {
        if let Some(a) = e.cause.as_app() {
            events_at.entry((a.rank, a.phase)).or_default().push(i);
        }
    }

    // Per-rank span lists; collective spans get their phase numbers by
    // begin order (ties: the longer span began first on the stack).
    let mut per_rank: HashMap<u32, RankSpans<'_>> = HashMap::new();
    for s in spans {
        let r = per_rank.entry(s.rank).or_insert_with(|| RankSpans {
            collectives: Vec::new(),
            compute: Vec::new(),
            blocked: Vec::new(),
        });
        match s.kind {
            SpanKind::Collective => r.collectives.push((0, s)),
            SpanKind::Compute => r.compute.push(s),
            SpanKind::BlockedRecv | SpanKind::BlockedSend | SpanKind::Barrier => r.blocked.push(s),
        }
    }
    for r in per_rank.values_mut() {
        r.collectives
            .sort_by_key(|(_, s)| (s.begin, std::cmp::Reverse(s.end)));
        for (i, (phase, _)) in r.collectives.iter_mut().enumerate() {
            *phase = i as u32 + 1;
        }
    }

    let mut keyed: Vec<((u64, usize, String, u32), CollectivePath)> = Vec::new();
    for (ti, slice) in map.slices().iter().enumerate() {
        let ranks: Vec<u32> = (slice.base..slice.base + slice.p).collect();
        // Collective names in first-seen order across the tenant.
        let mut names: Vec<&str> = Vec::new();
        for &r in &ranks {
            if let Some(rs) = per_rank.get(&r) {
                for (_, s) in &rs.collectives {
                    if !names.contains(&s.name.as_str()) {
                        names.push(&s.name);
                    }
                }
            }
        }
        for name in names {
            // k-th occurrence of `name` on each participating rank.
            let occurrences: Vec<Vec<(u32, &SpanRecord)>> = ranks
                .iter()
                .map(|r| {
                    per_rank
                        .get(r)
                        .map(|rs| {
                            rs.collectives
                                .iter()
                                .filter(|(_, s)| s.name == name)
                                .map(|&(ph, s)| (ph, s))
                                .collect()
                        })
                        .unwrap_or_default()
                })
                .collect();
            let instances = occurrences.iter().map(Vec::len).max().unwrap_or(0);
            for k in 0..instances {
                // Straggler: latest end; ties go to the lowest rank.
                let members = ranks
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &r)| occurrences[i].get(k).map(|&(ph, s)| (r, ph, s)));
                let Some((rank, phase, span)) =
                    members.max_by_key(|&(r, _, s)| (s.end, std::cmp::Reverse(r)))
                else {
                    continue;
                };
                let (wb, we) = (span.begin, span.end);
                let elapsed = we.saturating_sub(wb).as_nanos();
                let rs = per_rank.get(&rank).expect("straggler has spans");
                let compute_raw: u64 = rs.compute.iter().map(|s| overlap_ns(s, wb, we)).sum();
                let blocked_raw: u64 = rs.blocked.iter().map(|s| overlap_ns(s, wb, we)).sum();
                let idxs = events_at.get(&(rank, phase)).map_or(&[][..], Vec::as_slice);
                let retx_tx: u64 = idxs
                    .iter()
                    .filter(|&&i| run.events[i].retx)
                    .map(|&i| run.events[i].meta.tx_ns)
                    .sum();
                let first_tx: u64 = idxs
                    .iter()
                    .filter(|&&i| !run.events[i].retx)
                    .map(|&i| run.events[i].meta.tx_ns)
                    .sum();
                let backoff_raw: u64 = idxs.iter().map(|&i| run.events[i].meta.backoff_ns).sum();

                // Budget cascade: clamp each bucket to what remains so
                // the six segments sum to `elapsed` exactly.
                let mut rem = elapsed;
                let compute_ns = compute_raw.min(rem);
                rem -= compute_ns;
                let blocked = blocked_raw.min(rem);
                let serialization_ns = rem - blocked;
                let mut brem = blocked;
                let retransmit_ns = retx_tx.min(brem);
                brem -= retransmit_ns;
                let backoff_ns = backoff_raw.min(brem);
                brem -= backoff_ns;
                let wire_ns = first_tx.min(brem);
                brem -= wire_ns;
                let queue_ns = brem;

                // The contended link: where the worst-waiting frame was
                // held up. On a multi-segment fabric the frame's meta
                // names the bottleneck trunk when an inter-node link
                // out-waited the access hops; otherwise the host pair
                // identifies the (single-hop or access) link.
                let blocking_link = idxs
                    .iter()
                    .max_by_key(|&&i| {
                        let m = run.events[i].meta;
                        (m.queue_ns + m.backoff_ns, std::cmp::Reverse(i))
                    })
                    .map(|&i| {
                        run.events[i].meta.trunk_label().unwrap_or_else(|| {
                            let r = rows.get(i);
                            format!("h{}->h{}", r.src.0, r.dst.0)
                        })
                    });

                keyed.push((
                    (wb.as_nanos(), ti, name.to_string(), k as u32),
                    CollectivePath {
                        tenant: slice.name.clone(),
                        name: name.to_string(),
                        instance: k as u32,
                        straggler_rank: rank,
                        begin: wb,
                        end: we,
                        elapsed_ns: elapsed,
                        frames: idxs.len() as u32,
                        segments: SegmentBreakdown {
                            compute_ns,
                            serialization_ns,
                            wire_ns,
                            queue_ns,
                            backoff_ns,
                            retransmit_ns,
                        },
                        blocking_link,
                    },
                ));
            }
        }
    }
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, p)| p).collect()
}

/// The simulated-time intervals during which `link` was the blocking
/// link of some collective critical path: the `[begin, end)` windows of
/// every path blaming `link`, sorted and merged (overlapping or abutting
/// windows coalesce). This is the causal side of the fabric-health
/// cross-check — the weather map's hotspot windows must overlap these.
pub fn contended_intervals(paths: &[CollectivePath], link: &str) -> Vec<(SimTime, SimTime)> {
    let mut spans: Vec<(SimTime, SimTime)> = paths
        .iter()
        .filter(|p| p.blocking_link.as_deref() == Some(link))
        .map(|p| (p.begin, p.end))
        .collect();
    spans.sort();
    let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
    for (b, e) in spans {
        match merged.last_mut() {
            Some((_, le)) if b <= *le => *le = (*le).max(e),
            _ => merged.push((b, e)),
        }
    }
    merged
}

/// Whether two sorted interval sets share any positive-length overlap.
/// Both inputs are `[begin, end)` lists sorted by begin (the shape
/// [`contended_intervals`] returns).
pub fn intervals_overlap(a: &[(SimTime, SimTime)], b: &[(SimTime, SimTime)]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ab, ae) = a[i];
        let (bb, be) = b[j];
        if ab.max(bb) < ae.min(be) {
            return true;
        }
        if ae <= be {
            i += 1;
        } else {
            j += 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_fx::AppOp;
    use fxnet_sim::frame::{ETHER_OVERHEAD, IP_HEADER, TCP_HEADER};
    use fxnet_sim::{CausalEvent, CauseId, FrameKind, FrameMeta, FrameRecord, HostId, Proto};

    fn span(rank: u32, name: &str, kind: SpanKind, begin_us: u64, end_us: u64) -> SpanRecord {
        SpanRecord {
            rank,
            name: name.to_string(),
            kind,
            begin: SimTime::from_micros(begin_us),
            end: SimTime::from_micros(end_us),
        }
    }

    fn row(rank: u32) -> FrameRecord {
        FrameRecord {
            time: SimTime::from_micros(10),
            wire_len: ETHER_OVERHEAD + IP_HEADER + TCP_HEADER + 100,
            proto: Proto::Tcp,
            kind: FrameKind::Data,
            src: HostId(rank),
            dst: HostId(rank + 1),
        }
    }

    fn event(rank: u32, phase: u32, op: u32, meta: FrameMeta) -> CausalEvent {
        CausalEvent {
            cause: CauseId::app(0, rank, phase, op),
            retx: false,
            conn: 1,
            dir: 0,
            seq: u64::from(op) * 100,
            meta,
        }
    }

    #[test]
    fn straggler_is_found_and_segments_sum_exactly() {
        let map = TenantMap::pack([("T".to_string(), 2)]);
        // Rank 1 ends later: it is the straggler of instance 0.
        let spans = vec![
            span(0, "exchange", SpanKind::Collective, 0, 50),
            span(1, "exchange", SpanKind::Collective, 0, 100),
            span(1, "compute", SpanKind::Compute, 0, 20),
            span(1, "recv", SpanKind::BlockedRecv, 30, 90),
        ];
        let meta = FrameMeta {
            queue_ns: 5_000,
            backoff_ns: 10_000,
            tx_ns: 20_000,
            attempts: 1,
            trunk: 0,
        };
        let run = CausalRun {
            ops: vec![AppOp {
                cause: CauseId::app(0, 1, 1, 0),
                dst: 0,
                time: SimTime::from_micros(25),
                payload_bytes: 100,
                wire_bytes: 100,
            }],
            events: vec![event(1, 1, 0, meta)],
        };
        let paths = collective_paths(&run, &[row(1)][..], &spans, &map);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.straggler_rank, 1);
        assert_eq!(p.elapsed_ns, 100_000);
        assert_eq!(p.segments.total_ns(), p.elapsed_ns);
        assert_eq!(p.segments.compute_ns, 20_000);
        // Blocked 60 µs: 10 backoff + 20 wire + 30 residual queue.
        assert_eq!(p.segments.backoff_ns, 10_000);
        assert_eq!(p.segments.wire_ns, 20_000);
        assert_eq!(p.segments.queue_ns, 30_000);
        assert_eq!(p.segments.retransmit_ns, 0);
        // 100 − 20 compute − 60 blocked = 20 µs serialization.
        assert_eq!(p.segments.serialization_ns, 20_000);
        assert_eq!(p.blocking_link.as_deref(), Some("h1->h2"));
        assert_eq!(p.frames, 1);
    }

    #[test]
    fn contended_intervals_merge_and_overlap() {
        let mk = |link: Option<&str>, b_us: u64, e_us: u64| CollectivePath {
            tenant: "T".into(),
            name: "x".into(),
            instance: 0,
            straggler_rank: 0,
            begin: SimTime::from_micros(b_us),
            end: SimTime::from_micros(e_us),
            elapsed_ns: (e_us - b_us) * 1000,
            frames: 0,
            segments: SegmentBreakdown::default(),
            blocking_link: link.map(String::from),
        };
        let paths = vec![
            mk(Some("trunk:n0-n1"), 0, 10),
            mk(Some("trunk:n0-n1"), 5, 20),
            mk(Some("h0->h1"), 15, 25),
            mk(Some("trunk:n0-n1"), 40, 50),
            mk(None, 60, 70),
        ];
        let ivs = contended_intervals(&paths, "trunk:n0-n1");
        assert_eq!(
            ivs,
            vec![
                (SimTime::from_micros(0), SimTime::from_micros(20)),
                (SimTime::from_micros(40), SimTime::from_micros(50)),
            ]
        );
        let hot = vec![(SimTime::from_micros(18), SimTime::from_micros(22))];
        assert!(intervals_overlap(&ivs, &hot));
        let cold = vec![(SimTime::from_micros(20), SimTime::from_micros(40))];
        assert!(!intervals_overlap(&ivs, &cold), "abutting is not overlap");
        assert!(contended_intervals(&paths, "nowhere").is_empty());
        assert!(!intervals_overlap(&[], &hot));
    }

    #[test]
    fn instances_pair_by_occurrence_across_ranks() {
        let map = TenantMap::pack([("T".to_string(), 2)]);
        let spans = vec![
            span(0, "x", SpanKind::Collective, 0, 10),
            span(1, "x", SpanKind::Collective, 0, 5),
            span(0, "x", SpanKind::Collective, 20, 30),
            span(1, "x", SpanKind::Collective, 20, 40),
        ];
        let run = CausalRun::default();
        let paths = collective_paths(&run, &[][..], &spans, &map);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].straggler_rank, 0);
        assert_eq!(paths[1].straggler_rank, 1);
        assert_eq!(paths[1].instance, 1);
        for p in &paths {
            assert_eq!(p.segments.total_ns(), p.elapsed_ns);
        }
    }
}
