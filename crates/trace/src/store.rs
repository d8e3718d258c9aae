//! Columnar trace storage: structure-of-arrays columns, a one-pass
//! connection index, and zero-copy analysis views.
//!
//! The paper's methodology is post-hoc analysis of one promiscuous
//! capture: per-program *and per-connection* size statistics,
//! interarrivals, binned/sliding bandwidth, periodograms (§5.3, §6).
//! The legacy representation — an array-of-structs `Vec<FrameRecord>` —
//! makes every one of those a strided walk over 24-byte records, and
//! extracting a connection *copies* the matching frames for each of the
//! O(P²) host pairs. Following the columnar shape of the
//! hundred-billion-packet network telescope analyses (PAPERS.md),
//! [`TraceStore`] instead keeps one column per field:
//!
//! * `time_ns: Vec<u64>` — capture timestamps (absolute in memory; the
//!   binary file format in [`crate::io`] delta-encodes them, where the
//!   redundancy actually pays for itself),
//! * `wire_len: Vec<u32>` — on-wire frame sizes,
//! * `tag: Vec<u8>` — [`Proto`] and [`FrameKind`] packed into one byte,
//! * `src`/`dst: Vec<u32>` — host ids.
//!
//! Construction also builds the **connection index** in the same pass:
//! for every `(src, dst)` host pair, the list of row numbers carrying
//! that pair, concatenated into one `rows` array with per-pair ranges.
//! [`TraceStore::connection`] is then a binary search plus a slice
//! borrow — a [`TraceView`] over the store, no copying — and
//! [`TraceStore::host_pairs`] reads the index directly instead of
//! re-counting frames.
//!
//! [`TraceView`] is the unit of analysis: either all rows or an indexed
//! subset (a connection, a demuxed tenant). Its kernels are the crate's
//! analysis API, each a single pass over the columns through the one
//! accumulator the report fold and the live observer share for that
//! quantity; `tests/columnar_equiv.rs` holds them, `to_bits`, to
//! record-wise reference code of its own.
//!
//! `Vec<FrameRecord>` remains the compatibility edge:
//! [`TraceStore::from_records`] / [`TraceStore::to_records`] and the
//! `From`/`FromIterator` impls convert losslessly in both directions.
//!
//! Row numbers are `u32`: a trace is bounded well below 4 billion frames
//! (the 100 Mb/s mixes top out in the tens of millions).

use crate::bandwidth::{binned_from, Lifetime};
use crate::bursts::{Burst, BurstProfile, BurstSegmenter};
use crate::stats::{Interarrivals, Stats, Welford};
use crate::stream::SlidingBandwidth;
use fxnet_sim::{FrameKind, FrameRecord, HostId, Proto, SimTime, TraceRows};
use std::collections::BTreeMap;

/// Pack a frame's protocol and kind into one byte: bit 0 is the
/// protocol, bits 1–2 the kind. The fields are independent in
/// [`FrameRecord`], so all eight combinations must survive the round
/// trip; the same packing is the binary file format's tag column.
pub(crate) fn pack_tag(proto: Proto, kind: FrameKind) -> u8 {
    let p = match proto {
        Proto::Tcp => 0u8,
        Proto::Udp => 1,
    };
    let k = match kind {
        FrameKind::Data => 0u8,
        FrameKind::Ack => 1,
        FrameKind::Syn => 2,
        FrameKind::Datagram => 3,
    };
    (k << 1) | p
}

/// Inverse of [`pack_tag`]; `None` for bytes outside the valid range
/// (the binary loader treats those as corruption).
pub(crate) fn unpack_tag(tag: u8) -> Option<(Proto, FrameKind)> {
    if tag > 0b111 {
        return None;
    }
    let proto = if tag & 1 == 0 { Proto::Tcp } else { Proto::Udp };
    let kind = match tag >> 1 {
        0 => FrameKind::Data,
        1 => FrameKind::Ack,
        2 => FrameKind::Syn,
        _ => FrameKind::Datagram,
    };
    Some((proto, kind))
}

/// Per-host-pair row index: `pairs` is sorted ascending, and the rows
/// carrying `pairs[i]` are `rows[starts[i]..starts[i + 1]]`, ascending
/// (capture order).
#[derive(Debug, Clone, Default, PartialEq)]
struct ConnIndex {
    pairs: Vec<(u32, u32)>,
    starts: Vec<usize>,
    rows: Vec<u32>,
}

impl ConnIndex {
    fn build(src: &[u32], dst: &[u32]) -> ConnIndex {
        let n = src.len();
        // Pass 1: a stable id per pair, assigned on first sight. Real
        // traces are bursty — consecutive frames usually share a pair —
        // so a last-pair cache resolves most rows with one compare;
        // misses binary-search the sorted pair set.
        let mut sorted: Vec<((u32, u32), u32)> = Vec::new(); // (pair, id), pair-ordered
        let mut slot_of_row: Vec<u32> = Vec::with_capacity(n);
        let mut last: Option<((u32, u32), u32)> = None;
        for (&s, &d) in src.iter().zip(dst) {
            let p = (s, d);
            let id = match last {
                Some((lp, id)) if lp == p => id,
                _ => {
                    let id = match sorted.binary_search_by_key(&p, |&(q, _)| q) {
                        Ok(k) => sorted[k].1,
                        Err(k) => {
                            let id = sorted.len() as u32;
                            sorted.insert(k, (p, id));
                            id
                        }
                    };
                    last = Some((p, id));
                    id
                }
            };
            slot_of_row.push(id);
        }
        // Pass 2: counting sort of the rows into pair-ordered groups;
        // iterating rows in trace order keeps each group ascending.
        let np = sorted.len();
        let mut counts = vec![0u32; np];
        for &id in &slot_of_row {
            counts[id as usize] += 1;
        }
        let mut pos_of_id = vec![0u32; np];
        let mut starts = vec![0usize; np + 1];
        for (k, &(_, id)) in sorted.iter().enumerate() {
            pos_of_id[id as usize] = k as u32;
            starts[k + 1] = counts[id as usize] as usize;
        }
        for k in 0..np {
            starts[k + 1] += starts[k];
        }
        let mut cursor = starts[..np].to_vec();
        let mut rows = vec![0u32; n];
        for (i, &id) in slot_of_row.iter().enumerate() {
            let k = pos_of_id[id as usize] as usize;
            rows[cursor[k]] = i as u32;
            cursor[k] += 1;
        }
        let pairs = sorted.into_iter().map(|(q, _)| q).collect();
        ConnIndex {
            pairs,
            starts,
            rows,
        }
    }

    fn rows_of(&self, src: u32, dst: u32) -> &[u32] {
        match self.pairs.binary_search(&(src, dst)) {
            Ok(i) => &self.rows[self.starts[i]..self.starts[i + 1]],
            Err(_) => &[],
        }
    }
}

/// A packet trace stored as structure-of-arrays columns with a built-in
/// connection index. See the module docs for the layout rationale.
#[derive(Clone, Default)]
pub struct TraceStore {
    pub(crate) time_ns: Vec<u64>,
    pub(crate) wire_len: Vec<u32>,
    pub(crate) tag: Vec<u8>,
    pub(crate) src: Vec<u32>,
    pub(crate) dst: Vec<u32>,
    index: ConnIndex,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("frames", &self.len())
            .field("host_pairs", &self.index.pairs.len())
            .finish()
    }
}

impl PartialEq for TraceStore {
    fn eq(&self, other: &Self) -> bool {
        // The index is a pure function of the columns.
        self.time_ns == other.time_ns
            && self.wire_len == other.wire_len
            && self.tag == other.tag
            && self.src == other.src
            && self.dst == other.dst
    }
}

impl TraceStore {
    /// Build a store (columns + connection index) from records in
    /// capture order. One pass over the input.
    pub fn from_records(trace: &[FrameRecord]) -> TraceStore {
        let n = trace.len();
        let mut time_ns = Vec::with_capacity(n);
        let mut wire_len = Vec::with_capacity(n);
        let mut tag = Vec::with_capacity(n);
        let mut src = Vec::with_capacity(n);
        let mut dst = Vec::with_capacity(n);
        for r in trace {
            time_ns.push(r.time.as_nanos());
            wire_len.push(r.wire_len);
            tag.push(pack_tag(r.proto, r.kind));
            src.push(r.src.0);
            dst.push(r.dst.0);
        }
        Self::from_columns(time_ns, wire_len, tag, src, dst)
    }

    /// Assemble a store from raw columns (the binary loader's entry
    /// point). All columns must have equal length and every tag byte
    /// must be valid — both checked.
    pub(crate) fn from_columns(
        time_ns: Vec<u64>,
        wire_len: Vec<u32>,
        tag: Vec<u8>,
        src: Vec<u32>,
        dst: Vec<u32>,
    ) -> TraceStore {
        let n = time_ns.len();
        assert!(
            wire_len.len() == n && tag.len() == n && src.len() == n && dst.len() == n,
            "column length mismatch"
        );
        assert!(tag.iter().all(|&t| unpack_tag(t).is_some()), "invalid tag");
        let index = ConnIndex::build(&src, &dst);
        TraceStore {
            time_ns,
            wire_len,
            tag,
            src,
            dst,
            index,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.time_ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.time_ns.is_empty()
    }

    /// Reassemble row `i` as a [`FrameRecord`]. Panics when out of
    /// bounds.
    pub fn get(&self, i: usize) -> FrameRecord {
        let (proto, kind) = unpack_tag(self.tag[i]).expect("store tags validated on construction");
        FrameRecord {
            time: SimTime::from_nanos(self.time_ns[i]),
            wire_len: self.wire_len[i],
            proto,
            kind,
            src: HostId(self.src[i]),
            dst: HostId(self.dst[i]),
        }
    }

    /// Iterate the trace as [`FrameRecord`]s in capture order — the
    /// compatibility edge for record-oriented consumers.
    pub fn iter(&self) -> impl Iterator<Item = FrameRecord> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Materialize the whole trace as records (lossless inverse of
    /// [`TraceStore::from_records`]).
    pub fn to_records(&self) -> Vec<FrameRecord> {
        self.iter().collect()
    }

    /// A zero-copy view over every row.
    pub fn view(&self) -> TraceView<'_> {
        TraceView {
            store: self,
            rows: Rows::All,
        }
    }

    /// A zero-copy view over an explicit ascending row subset (a demuxed
    /// tenant, a sampled slice). Panics if any row is out of bounds.
    pub fn select<'s>(&'s self, rows: &'s [u32]) -> TraceView<'s> {
        assert!(
            rows.iter().all(|&r| (r as usize) < self.len()),
            "row index out of bounds"
        );
        TraceView {
            store: self,
            rows: Rows::Idx(rows),
        }
    }

    /// The *connection* `src → dst` (the paper's simplex channel: TCP
    /// data that direction, UDP daemon traffic, and the ACKs of the
    /// reverse channel) as a zero-copy view via the connection index.
    pub fn connection(&self, src: HostId, dst: HostId) -> TraceView<'_> {
        TraceView {
            store: self,
            rows: Rows::Idx(self.index.rows_of(src.0, dst.0)),
        }
    }

    /// All `(src, dst)` pairs carrying traffic with frame counts,
    /// ascending — read straight off the connection index, O(pairs).
    pub fn host_pairs(&self) -> Vec<((HostId, HostId), usize)> {
        self.index
            .pairs
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| {
                (
                    (HostId(s), HostId(d)),
                    self.index.starts[i + 1] - self.index.starts[i],
                )
            })
            .collect()
    }
}

impl TraceRows for TraceStore {
    fn len(&self) -> usize {
        TraceStore::len(self)
    }

    fn get(&self, i: usize) -> FrameRecord {
        TraceStore::get(self, i)
    }
}

impl From<&[FrameRecord]> for TraceStore {
    fn from(trace: &[FrameRecord]) -> TraceStore {
        TraceStore::from_records(trace)
    }
}

impl From<Vec<FrameRecord>> for TraceStore {
    fn from(trace: Vec<FrameRecord>) -> TraceStore {
        TraceStore::from_records(&trace)
    }
}

impl From<&TraceStore> for Vec<FrameRecord> {
    fn from(store: &TraceStore) -> Vec<FrameRecord> {
        store.to_records()
    }
}

impl FromIterator<FrameRecord> for TraceStore {
    fn from_iter<I: IntoIterator<Item = FrameRecord>>(iter: I) -> TraceStore {
        let records: Vec<FrameRecord> = iter.into_iter().collect();
        TraceStore::from_records(&records)
    }
}

#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    All,
    Idx(&'a [u32]),
}

/// A zero-copy analysis window over a [`TraceStore`]: either the whole
/// trace or an indexed row subset. Every kernel below is one pass over
/// the columns.
///
/// Views of a capture are in time order, and the time-series kernels
/// rely on it: [`TraceView::interarrivals_ms`] and
/// [`TraceView::sliding_window_bandwidth`] panic on a frame earlier than
/// its predecessor, and [`TraceView::detect_bursts`] lets such a frame
/// join the open burst. [`TraceView::time_bounds`],
/// [`TraceView::average_bandwidth`] and [`TraceView::binned_bandwidth`]
/// accept any order.
#[derive(Debug, Clone, Copy)]
pub struct TraceView<'a> {
    store: &'a TraceStore,
    rows: Rows<'a>,
}

impl<'a> TraceView<'a> {
    /// Frames in the view.
    pub fn len(&self) -> usize {
        match self.rows {
            Rows::All => self.store.len(),
            Rows::Idx(idx) => idx.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying store.
    pub fn store(&self) -> &'a TraceStore {
        self.store
    }

    fn row(&self, pos: usize) -> usize {
        match self.rows {
            Rows::All => pos,
            Rows::Idx(idx) => idx[pos] as usize,
        }
    }

    /// Store row numbers of the view, in view order.
    pub fn row_ids(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(move |pos| self.row(pos))
    }

    /// `(time_ns, wire_len)` samples in view order — the input shape of
    /// the time-series kernels and of the report fold.
    pub fn samples(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.row_ids()
            .map(move |i| (self.store.time_ns[i], self.store.wire_len[i]))
    }

    /// Reassemble the view's `pos`-th frame.
    pub fn record(&self, pos: usize) -> FrameRecord {
        self.store.get(self.row(pos))
    }

    /// Iterate the view as [`FrameRecord`]s.
    pub fn iter(&self) -> impl Iterator<Item = FrameRecord> + '_ {
        self.row_ids().map(move |i| self.store.get(i))
    }

    /// Copy the view out as records (the compatibility edge).
    pub fn to_records(&self) -> Vec<FrameRecord> {
        self.iter().collect()
    }

    /// Earliest and latest capture times in the view, in one pass over
    /// the time column; the view need not be time-ordered. `None` for an
    /// empty view.
    pub fn time_bounds(&self) -> Option<(SimTime, SimTime)> {
        self.lifetime().bounds()
    }

    fn lifetime(&self) -> Lifetime {
        let mut life = Lifetime::new();
        for (t, len) in self.samples() {
            life.push(t, len);
        }
        life
    }

    /// Total bytes carried by the view's frames.
    pub fn bytes(&self) -> u64 {
        self.row_ids()
            .map(|i| u64::from(self.store.wire_len[i]))
            .sum()
    }

    /// Packet-size statistics in bytes (Figures 3 and 8); one pass over
    /// the size column.
    pub fn packet_sizes(&self) -> Option<Stats> {
        let mut w = Welford::new();
        for i in self.row_ids() {
            w.push(f64::from(self.store.wire_len[i]));
        }
        w.finish()
    }

    /// Packet interarrival statistics in milliseconds (Figures 4 and 9);
    /// one pass over the time column. Needs at least two packets. Panics
    /// if the view is not in time order.
    pub fn interarrivals_ms(&self) -> Option<Stats> {
        let mut gaps = Interarrivals::new();
        for (t, _) in self.samples() {
            gaps.push(t);
        }
        gaps.finish()
    }

    /// Lifetime average bandwidth in bytes/second (Figure 5): min/max
    /// time and byte total folded into one pass, in any frame order.
    /// `None` for views spanning zero time.
    pub fn average_bandwidth(&self) -> Option<f64> {
        self.lifetime().average()
    }

    /// Bandwidth binned on static `bin`-long intervals starting at the
    /// first packet (bytes/second per bin), the spectra's input series:
    /// "because a power spectrum computation requires evenly spaced
    /// input data, the input bandwidth was computed along static 10 ms
    /// intervals by including all packets that arrived during the
    /// interval" (§6.1). One pass through [`crate::StreamBinner`] for a
    /// time-ordered view; any other view is binned from its earliest
    /// frame after a sort.
    pub fn binned_bandwidth(&self, bin: SimTime) -> Vec<f64> {
        binned_from(|| self.samples(), bin)
    }

    /// Instantaneous bandwidth over a `window` sliding one packet at a
    /// time (Figures 6 and 10): for each packet arrival `t`, the bytes
    /// received in `(t − window, t]` divided by the window length, via
    /// the same streaming ring as the live observer. Panics if the view
    /// is not in time order.
    pub fn sliding_window_bandwidth(&self, window: SimTime) -> Vec<(SimTime, f64)> {
        let mut ring = SlidingBandwidth::new(window);
        self.samples()
            .map(|(t, len)| {
                let time = SimTime::from_nanos(t);
                (time, ring.push(time, len))
            })
            .collect()
    }

    /// Segment the view into bursts: consecutive packets no more than
    /// `gap` apart belong to the same burst.
    pub fn detect_bursts(&self, gap: SimTime) -> Vec<Burst> {
        let mut segmenter = BurstSegmenter::new(gap);
        let mut bursts: Vec<Burst> = self
            .samples()
            .filter_map(|(t, len)| segmenter.push(SimTime::from_nanos(t), len))
            .collect();
        bursts.extend(segmenter.finish());
        bursts
    }

    /// Burst-level summary; `None` for an empty view.
    pub fn burst_profile(&self, gap: SimTime) -> Option<BurstProfile> {
        BurstProfile::of_bursts(self.detect_bursts(gap))
    }

    /// Exact packet-size population `(wire size, count)`, ascending. Used
    /// to verify the trimodal distributions of §6.1.
    pub fn size_population(&self) -> Vec<(u32, usize)> {
        let mut m: BTreeMap<u32, usize> = BTreeMap::new();
        for i in self.row_ids() {
            *m.entry(self.store.wire_len[i]).or_insert(0) += 1;
        }
        m.into_iter().collect()
    }

    /// Host pairs of the view with frame counts, ascending. A whole-store
    /// view reads the connection index; subset views count in one pass.
    pub fn host_pairs(&self) -> Vec<((HostId, HostId), usize)> {
        match self.rows {
            Rows::All => self.store.host_pairs(),
            Rows::Idx(idx) => {
                let mut m: BTreeMap<(u32, u32), usize> = BTreeMap::new();
                for &r in idx {
                    let i = r as usize;
                    *m.entry((self.store.src[i], self.store.dst[i])).or_insert(0) += 1;
                }
                m.into_iter()
                    .map(|((s, d), c)| ((HostId(s), HostId(d)), c))
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::Frame;

    fn rec(src: u32, dst: u32, size: u32, t_us: u64) -> FrameRecord {
        let f = Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, size - 58, 0);
        FrameRecord::capture(SimTime::from_micros(t_us), &f)
    }

    fn mixed_trace() -> Vec<FrameRecord> {
        let mut tr = Vec::new();
        for i in 0..40u64 {
            tr.push(rec(0, 1, 1518, 10 * i));
            tr.push(rec(1, 0, 58, 10 * i + 3));
            if i % 4 == 0 {
                tr.push(rec(2, 3, 700, 10 * i + 5));
            }
        }
        tr
    }

    #[test]
    fn tag_packing_round_trips_all_combinations() {
        for proto in [Proto::Tcp, Proto::Udp] {
            for kind in [
                FrameKind::Data,
                FrameKind::Ack,
                FrameKind::Syn,
                FrameKind::Datagram,
            ] {
                assert_eq!(unpack_tag(pack_tag(proto, kind)), Some((proto, kind)));
            }
        }
        assert_eq!(unpack_tag(0b1000), None);
        assert_eq!(unpack_tag(0xff), None);
    }

    #[test]
    fn records_round_trip_through_store() {
        let tr = mixed_trace();
        let store = TraceStore::from_records(&tr);
        assert_eq!(store.len(), tr.len());
        assert_eq!(store.to_records(), tr);
        assert_eq!(store.get(0), tr[0]);
        let back: Vec<FrameRecord> = store.iter().collect();
        assert_eq!(back, tr);
        // Conversion traits agree.
        assert_eq!(TraceStore::from(tr.clone()), store);
        assert_eq!(Vec::<FrameRecord>::from(&store), tr);
        assert_eq!(tr.iter().copied().collect::<TraceStore>(), store);
    }

    /// Every `src → dst` frame, copied out of the records.
    fn copied_connection(tr: &[FrameRecord], s: u32, d: u32) -> Vec<FrameRecord> {
        tr.iter()
            .filter(|r| r.src == HostId(s) && r.dst == HostId(d))
            .copied()
            .collect()
    }

    #[test]
    fn connection_view_matches_legacy_copy() {
        let tr = mixed_trace();
        let store = TraceStore::from_records(&tr);
        for (s, d) in [(0u32, 1u32), (1, 0), (2, 3), (3, 2), (7, 9)] {
            let legacy = copied_connection(&tr, s, d);
            let view = store.connection(HostId(s), HostId(d));
            assert_eq!(view.to_records(), legacy, "connection {s}->{d}");
            assert_eq!(
                view.packet_sizes(),
                Stats::of(legacy.iter().map(|r| f64::from(r.wire_len)))
            );
            assert_eq!(
                view.interarrivals_ms(),
                Stats::of(
                    legacy
                        .windows(2)
                        .map(|w| (w[1].time - w[0].time).as_millis_f64())
                )
            );
        }
    }

    #[test]
    fn host_pairs_come_from_the_index() {
        let tr = mixed_trace();
        let store = TraceStore::from_records(&tr);
        let mut counted: BTreeMap<(HostId, HostId), usize> = BTreeMap::new();
        for r in &tr {
            *counted.entry((r.src, r.dst)).or_insert(0) += 1;
        }
        let counted: Vec<_> = counted.into_iter().collect();
        assert_eq!(store.host_pairs(), counted);
        assert_eq!(store.view().host_pairs(), counted);
        // A subset view recounts only its rows.
        let conn = store.connection(HostId(2), HostId(3));
        assert_eq!(conn.host_pairs(), vec![((HostId(2), HostId(3)), 10)]);
    }

    /// The record-wise definitions live in `tests/columnar_equiv.rs`;
    /// here the whole-store view (`Rows::All`) is held to an indexed view
    /// of every row (`Rows::Idx`), the two ways a view reads the columns.
    #[test]
    fn whole_view_kernels_match_legacy() {
        let tr = mixed_trace();
        let store = TraceStore::from_records(&tr);
        let all: Vec<u32> = (0..tr.len() as u32).collect();
        let (v, idx) = (store.view(), store.select(&all));
        let bin = SimTime::from_millis(1);
        let gap = SimTime::from_micros(20);
        assert_eq!(v.to_records(), idx.to_records());
        assert_eq!(v.packet_sizes(), idx.packet_sizes());
        assert_eq!(v.interarrivals_ms(), idx.interarrivals_ms());
        assert_eq!(v.average_bandwidth(), idx.average_bandwidth());
        assert_eq!(v.binned_bandwidth(bin), idx.binned_bandwidth(bin));
        assert_eq!(
            v.sliding_window_bandwidth(bin),
            idx.sliding_window_bandwidth(bin)
        );
        assert_eq!(v.detect_bursts(gap), idx.detect_bursts(gap));
        assert_eq!(v.size_population(), idx.size_population());
        assert_eq!(v.host_pairs(), idx.host_pairs());
        assert_eq!(v.bytes(), tr.iter().map(|r| u64::from(r.wire_len)).sum());
        assert_eq!(idx.bytes(), v.bytes());
    }

    #[test]
    fn empty_and_single_frame_views() {
        let empty = TraceStore::from_records(&[]);
        assert!(empty.is_empty());
        assert!(empty.view().packet_sizes().is_none());
        assert!(empty.view().average_bandwidth().is_none());
        assert!(empty
            .view()
            .binned_bandwidth(SimTime::from_millis(10))
            .is_empty());
        assert!(empty.host_pairs().is_empty());

        let one = TraceStore::from_records(&[rec(0, 1, 500, 42)]);
        let v = one.view();
        assert_eq!(v.len(), 1);
        assert_eq!(v.packet_sizes().unwrap().count, 1);
        assert!(v.interarrivals_ms().is_none());
        assert!(v.average_bandwidth().is_none());
        assert_eq!(v.binned_bandwidth(SimTime::from_millis(10)).len(), 1);
        assert_eq!(v.detect_bursts(SimTime::from_millis(1)).len(), 1);
    }

    #[test]
    fn connection_is_directional() {
        let tr = vec![
            rec(0, 1, 100, 0),
            rec(1, 0, 100, 1),
            rec(0, 1, 200, 2),
            rec(0, 2, 300, 3),
        ];
        let store = TraceStore::from_records(&tr);
        let c = store.connection(HostId(0), HostId(1));
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|r| r.src == HostId(0) && r.dst == HostId(1)));
    }

    #[test]
    fn host_pairs_counts() {
        let tr = vec![rec(0, 1, 100, 0), rec(0, 1, 100, 1), rec(2, 3, 100, 2)];
        let store = TraceStore::from_records(&tr);
        assert_eq!(
            store.view().host_pairs(),
            vec![((HostId(0), HostId(1)), 2), ((HostId(2), HostId(3)), 1)]
        );
    }

    #[test]
    fn size_population_ascending() {
        let tr = vec![rec(0, 1, 1518, 0), rec(0, 1, 58, 1), rec(0, 1, 1518, 2)];
        let store = TraceStore::from_records(&tr);
        assert_eq!(store.view().size_population(), vec![(58, 1), (1518, 2)]);
    }

    #[test]
    fn empty_trace() {
        let store = TraceStore::from_records(&[]);
        assert!(store.view().host_pairs().is_empty());
        assert!(store.view().size_population().is_empty());
    }

    #[test]
    fn select_panics_on_out_of_bounds_rows() {
        let store = TraceStore::from_records(&[rec(0, 1, 500, 0)]);
        let rows = [5u32];
        let result = std::panic::catch_unwind(|| store.select(&rows).len());
        assert!(result.is_err());
    }
}
