//! Phase-attributed traffic breakdown: the cross-layer join of the
//! packet trace and the engine's phase spans.
//!
//! The paper argues causally — SOR's bursts *are* its boundary
//! exchanges, SEQ's 4 Hz component *is* its per-row broadcast loop — but
//! measures only the aggregate wire. This module makes the causal link
//! explicit: every captured frame is attributed to the *named collective
//! span most recently begun on its source rank* at capture time, and the
//! trace is then broken down per phase: frames, bytes, share of
//! simulated rank-time spent inside the phase, and the peak binned
//! bandwidth the phase alone produced.
//!
//! The rule is causal, not containment: TCP ACK clocking and buffered
//! sends put frames on the wire after the collective that caused them
//! has returned on the sending rank, and those trailing frames still
//! belong to that collective. Frames from hosts that run no rank (the
//! idle workstations whose PVM daemons heartbeat), and frames sent
//! before the first collective (connection establishment), stay
//! unattributed.

use crate::store::TraceView;
use fxnet_sim::{FrameKind, SimTime};
use fxnet_telemetry::{SpanKind, SpanRecord};
use serde::Serialize;

/// One named phase's share of the run and of the wire.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseRow {
    /// Collective span name (e.g. `boundary_exchange`).
    pub name: String,
    /// Completed span instances across all ranks.
    pub spans: u64,
    /// Fraction of total rank-time (P × run length) spent inside this
    /// phase, summed over ranks.
    pub sim_time_share: f64,
    /// Frames attributed to this phase.
    pub frames: u64,
    /// Wire bytes attributed to this phase.
    pub bytes: u64,
    /// Peak binned bandwidth of this phase's frames alone, in
    /// bytes/second (max over the breakdown's static bins).
    pub peak_bandwidth: f64,
}

/// A full per-phase decomposition of one run's trace.
#[derive(Debug, Clone, Serialize)]
pub struct PhaseBreakdown {
    /// Bin length the peak bandwidths were computed over.
    pub bin: SimTime,
    /// One row per distinct collective span name, ordered by first begin.
    pub rows: Vec<PhaseRow>,
    /// Frames no collective span claims (daemon chatter from idle hosts,
    /// connection establishment before the first phase).
    pub unattributed_frames: u64,
    /// Wire bytes of the unattributed frames.
    pub unattributed_bytes: u64,
    /// Fraction of `FrameKind::Data` wire bytes attributed to a named
    /// phase — the acceptance figure for the causal claim.
    pub data_attribution_fraction: f64,
}

impl PhaseBreakdown {
    /// Attribute the frames of `view` against `spans` (ranks `0..ranks`
    /// live on hosts `0..ranks`) and aggregate per phase, computing peak
    /// bandwidth on static `bin`-long intervals (the paper's 10 ms). One
    /// bounds pass over the time column, then one pass over the view.
    pub fn compute(
        view: TraceView<'_>,
        spans: &[SpanRecord],
        ranks: u32,
        bin: SimTime,
    ) -> PhaseBreakdown {
        let collective = |s: &&SpanRecord| s.kind == SpanKind::Collective && s.rank < ranks;

        // The per-rank span index: each rank's collectives as
        // `(begin ns, phase)` in begin order, phases numbered by first
        // begin on the wire clock.
        let mut rows: Vec<PhaseRow> = Vec::new();
        let mut begun: Vec<Vec<(u64, usize)>> = vec![Vec::new(); ranks as usize];
        let mut ordered: Vec<&SpanRecord> = spans.iter().filter(collective).collect();
        ordered.sort_by_key(|s| (s.begin, s.rank));
        for span in ordered {
            let phase = match rows.iter().position(|r| r.name == span.name) {
                Some(i) => i,
                None => {
                    rows.push(PhaseRow {
                        name: span.name.clone(),
                        spans: 0,
                        sim_time_share: 0.0,
                        frames: 0,
                        bytes: 0,
                        peak_bandwidth: 0.0,
                    });
                    rows.len() - 1
                }
            };
            begun[span.rank as usize].push((span.begin.as_nanos(), phase));
        }

        // The run ends when the last span closes or the last frame lands.
        let run_end = spans
            .iter()
            .map(|s| s.end)
            .chain(view.time_bounds().map(|(_, last)| last))
            .max()
            .unwrap_or(SimTime::ZERO);
        let total_rank_time = u64::from(ranks) as f64 * run_end.as_secs_f64();
        for span in spans.iter().filter(collective) {
            let row = rows
                .iter_mut()
                .find(|r| r.name == span.name)
                .expect("every collective is indexed");
            row.spans += 1;
            if total_rank_time > 0.0 {
                row.sim_time_share += span.duration().as_secs_f64() / total_rank_time;
            }
        }

        // Label, bin and count every frame in one pass.
        let bin_ns = bin.as_nanos().max(1);
        let nbins = (run_end.as_nanos() / bin_ns + 1) as usize;
        let mut binned = vec![0u64; rows.len() * nbins];
        let mut unattributed_frames = 0u64;
        let mut unattributed_bytes = 0u64;
        let mut data_bytes = 0u64;
        let mut attributed_data_bytes = 0u64;
        for frame in view.iter() {
            let t = frame.time.as_nanos();
            let len = u64::from(frame.wire_len);
            let data = frame.kind == FrameKind::Data;
            if data {
                data_bytes += len;
            }
            // The last collective begun on the source rank at or before
            // the capture; none off the ranks' hosts.
            let phase = begun.get(frame.src.0 as usize).and_then(|b| {
                let pos = b.partition_point(|&(begin, _)| begin <= t);
                pos.checked_sub(1).map(|p| b[p].1)
            });
            match phase {
                Some(phase) => {
                    let row = &mut rows[phase];
                    row.frames += 1;
                    row.bytes += len;
                    binned[phase * nbins + (t / bin_ns) as usize] += len;
                    if data {
                        attributed_data_bytes += len;
                    }
                }
                None => {
                    unattributed_frames += 1;
                    unattributed_bytes += len;
                }
            }
        }
        for (phase, row) in rows.iter_mut().enumerate() {
            let peak = binned[phase * nbins..(phase + 1) * nbins]
                .iter()
                .max()
                .copied()
                .unwrap_or(0);
            row.peak_bandwidth = peak as f64 / bin.as_secs_f64();
        }

        PhaseBreakdown {
            bin,
            rows,
            unattributed_frames,
            unattributed_bytes,
            data_attribution_fraction: if data_bytes == 0 {
                1.0
            } else {
                attributed_data_bytes as f64 / data_bytes as f64
            },
        }
    }

    /// Render the breakdown as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>6} {:>8} {:>8} {:>12} {:>14}\n",
            "phase", "spans", "time%", "frames", "bytes", "peak B/s"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<22} {:>6} {:>7.2}% {:>8} {:>12} {:>14.0}\n",
                row.name,
                row.spans,
                100.0 * row.sim_time_share,
                row.frames,
                row.bytes,
                row.peak_bandwidth,
            ));
        }
        out.push_str(&format!(
            "{:<22} {:>6} {:>8} {:>8} {:>12} {:>14}\n",
            "(unattributed)", "-", "-", self.unattributed_frames, self.unattributed_bytes, "-"
        ));
        out.push_str(&format!(
            "data bytes attributed to a named phase: {:.1}%\n",
            100.0 * self.data_attribution_fraction
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TraceStore;
    use fxnet_sim::{Frame, FrameRecord, HostId};

    fn span(rank: u32, name: &str, kind: SpanKind, begin_us: u64, end_us: u64) -> SpanRecord {
        SpanRecord {
            rank,
            name: name.into(),
            kind,
            begin: SimTime::from_micros(begin_us),
            end: SimTime::from_micros(end_us),
        }
    }

    fn frame(src: u32, at_us: u64, len: u32) -> FrameRecord {
        FrameRecord::capture(
            SimTime::from_micros(at_us),
            &Frame::tcp(HostId(src), HostId(1), FrameKind::Data, len, 0),
        )
    }

    #[test]
    fn breakdown_aggregates_per_phase() {
        let spans = vec![
            span(0, "exchange", SpanKind::Collective, 0, 20_000),
            span(0, "reduce", SpanKind::Collective, 40_000, 60_000),
            span(1, "exchange", SpanKind::Collective, 0, 20_000),
        ];
        let store = TraceStore::from_records(&[
            frame(0, 5_000, 1000),  // exchange
            frame(0, 15_000, 1000), // exchange (same 10 ms bin? no: bins 0 and 1)
            frame(0, 45_000, 500),  // reduce
            frame(7, 45_000, 500),  // idle host -> unattributed
        ]);
        let bd = PhaseBreakdown::compute(store.view(), &spans, 4, SimTime::from_millis(10));
        assert_eq!(bd.rows.len(), 2);
        let ex = &bd.rows[0];
        assert_eq!(
            (ex.name.as_str(), ex.spans, ex.frames, ex.bytes),
            ("exchange", 2, 2, 2116)
        );
        // One 1058-byte frame per 10 ms bin.
        assert!((ex.peak_bandwidth - 105_800.0).abs() < 1e-6);
        assert_eq!(bd.rows[1].name, "reduce");
        assert_eq!(bd.unattributed_frames, 1);
        // 60 ms run, 4 ranks: exchange covers 2×20 ms / 240 ms.
        assert!((ex.sim_time_share - 40.0 / 240.0).abs() < 1e-12);
        let table = bd.table();
        assert!(table.contains("exchange") && table.contains("(unattributed)"));
    }

    #[test]
    fn frames_attribute_to_last_begun_collective() {
        let spans = vec![
            span(0, "compute", SpanKind::Compute, 0, 100),
            span(0, "exchange", SpanKind::Collective, 100, 200),
            span(0, "reduce", SpanKind::Collective, 400, 500),
        ];
        let store = TraceStore::from_records(&[
            frame(0, 50, 1460),  // before any collective -> unattributed
            frame(0, 150, 1460), // inside exchange
            frame(0, 250, 1460), // trailing after exchange returned
            frame(0, 450, 1460), // inside reduce
            frame(5, 450, 1460), // non-rank host -> unattributed
        ]);
        let bd = PhaseBreakdown::compute(store.view(), &spans, 4, SimTime::from_millis(10));
        let rows: Vec<(&str, u64, u64)> = bd
            .rows
            .iter()
            .map(|r| (r.name.as_str(), r.frames, r.bytes))
            .collect();
        assert_eq!(rows, vec![("exchange", 2, 2 * 1518), ("reduce", 1, 1518)]);
        assert_eq!(
            (bd.unattributed_frames, bd.unattributed_bytes),
            (2, 2 * 1518)
        );
        let frac = bd.data_attribution_fraction;
        assert!((frac - 3.0 / 5.0).abs() < 1e-12, "{frac}");
        // A row subset joins the same way: the trailing exchange frame
        // and the idle host's frame alone.
        let rows = [2u32, 4];
        let bd = PhaseBreakdown::compute(store.select(&rows), &spans, 4, SimTime::from_millis(10));
        assert_eq!((bd.rows[0].frames, bd.rows[1].frames), (1, 0));
        assert_eq!(bd.unattributed_frames, 1);
    }

    #[test]
    fn empty_trace_is_fully_attributed() {
        // Phases that put nothing on the wire: rows, no frames, and no
        // data byte left unattributed.
        let spans = vec![span(0, "exchange", SpanKind::Collective, 100, 200)];
        let store = TraceStore::default();
        let bd = PhaseBreakdown::compute(store.view(), &spans, 4, SimTime::from_millis(10));
        assert_eq!(bd.rows.len(), 1);
        assert_eq!((bd.rows[0].spans, bd.rows[0].frames), (1, 0));
        assert_eq!(bd.data_attribution_fraction, 1.0);
    }

    #[test]
    fn empty_run_is_benign() {
        let store = TraceStore::default();
        let bd = PhaseBreakdown::compute(store.view(), &[], 4, SimTime::from_millis(10));
        assert!(bd.rows.is_empty());
        assert_eq!(bd.data_attribution_fraction, 1.0);
    }
}
