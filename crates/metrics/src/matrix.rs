//! Hypersparse per-window traffic matrices, Kepner style.
//!
//! Each sample window gets a src×dst traffic matrix stored
//! doubly-compressed: the host-pair id space is a single sorted vector
//! of the `(src, dst)` pairs that *ever* carried traffic (exactly the
//! sorted pair order `fxnet_trace::TraceStore`'s connection index
//! builds), and a window's matrix is the ascending list of pair ids
//! active in it with packet and byte counts. Hosts and pairs that are
//! silent in a window cost nothing — the common case at millisecond
//! resolution, where a 9-host LAN has 72 possible pairs and a window
//! typically touches one or two.
//!
//! Matrices are kept at the same resolution ladder as the link rings,
//! each coarse window the exact merge of its fine windows, and the
//! per-scale [`ScalingRelation`] summaries report how packets per
//! window, distinct pairs and the max-degree host grow with window
//! width — the scaling relations hypersparse traffic analysis plots.
//!
//! Two accumulators fill the ladder. [`MatrixAccum`] keeps every
//! touched window in maps and is the reference: the weather map reads
//! its matrices, and its summaries are the oracle. [`ScalingAccum`]
//! emits the same summaries from a time-ordered stream while holding
//! one open window per scale, each as ascending `(pair, packets)` runs:
//! the finest is built by sorting the frames' packed keys once when it
//! closes, each coarser one by merging the closed windows of the scale
//! below it.

use fxnet_sim::SimTime;
use fxnet_trace::TraceStore;
use std::collections::BTreeMap;

/// The sorted host-pair id space: pair id = index into the sorted,
/// deduplicated `(src, dst)` vector. Matches the pair ordering of
/// [`TraceStore::host_pairs`] so matrix rows and connection-index rows
/// agree on numbering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairSpace {
    pairs: Vec<(u32, u32)>,
}

impl PairSpace {
    /// Build from any pair list (sorted and deduplicated here).
    pub fn from_pairs(mut pairs: Vec<(u32, u32)>) -> PairSpace {
        pairs.sort_unstable();
        pairs.dedup();
        PairSpace { pairs }
    }

    /// The pair space of a stored trace, read straight off its
    /// connection index.
    pub fn from_store(store: &TraceStore) -> PairSpace {
        // host_pairs() iterates the connection index ascending, so the
        // vector arrives sorted and deduplicated already.
        PairSpace {
            pairs: store
                .host_pairs()
                .iter()
                .map(|&((s, d), _)| (s.0, d.0))
                .collect(),
        }
    }

    /// Number of pairs in the space.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The id of `(src, dst)`, if it carried traffic.
    pub fn id(&self, src: u32, dst: u32) -> Option<u32> {
        self.pairs.binary_search(&(src, dst)).ok().map(|i| i as u32)
    }

    /// The `(src, dst)` pair of id `id`.
    pub fn pair(&self, id: u32) -> (u32, u32) {
        self.pairs[id as usize]
    }

    /// Sorted iteration over the pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.pairs.iter().copied()
    }
}

/// One window's hypersparse matrix: ascending active pair ids with
/// packet/byte counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WindowMatrix {
    /// Active pair ids, ascending.
    pub pair_ids: Vec<u32>,
    /// Packets per active pair.
    pub packets: Vec<u64>,
    /// Wire bytes per active pair.
    pub bytes: Vec<u64>,
}

impl WindowMatrix {
    /// Number of active pairs (stored nonzeros).
    pub fn nnz(&self) -> usize {
        self.pair_ids.len()
    }

    /// Total packets in the window.
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    /// Total wire bytes in the window.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Merge another window's matrix in (sorted-merge; counts add).
    pub fn fold(&mut self, o: &WindowMatrix) {
        let (mut ids, mut pk, mut by) = (Vec::new(), Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < self.pair_ids.len() || j < o.pair_ids.len() {
            let a = self.pair_ids.get(i).copied().unwrap_or(u32::MAX);
            let b = o.pair_ids.get(j).copied().unwrap_or(u32::MAX);
            match a.cmp(&b) {
                std::cmp::Ordering::Less => {
                    ids.push(a);
                    pk.push(self.packets[i]);
                    by.push(self.bytes[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    ids.push(b);
                    pk.push(o.packets[j]);
                    by.push(o.bytes[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    ids.push(a);
                    pk.push(self.packets[i] + o.packets[j]);
                    by.push(self.bytes[i] + o.bytes[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        self.pair_ids = ids;
        self.packets = pk;
        self.bytes = by;
    }

    /// The host with the most distinct partners (in-degree plus
    /// out-degree over active pairs) in this window, with its degree;
    /// smallest host id wins ties. `None` when the window is empty.
    pub fn max_degree(&self, space: &PairSpace) -> Option<(u32, u32)> {
        let pairs = self.pair_ids.iter().map(|&id| space.pair(id));
        max_degree_of(pairs, &mut Vec::new())
    }
}

/// The host on the most of `pairs` (each distinct; a pair counts for
/// its source and for its destination) with that degree, the smallest
/// host id winning ties; `None` for no pairs. `hosts` is scratch.
fn max_degree_of(
    pairs: impl Iterator<Item = (u32, u32)>,
    hosts: &mut Vec<u32>,
) -> Option<(u32, u32)> {
    hosts.clear();
    for (s, d) in pairs {
        hosts.push(s);
        hosts.push(d);
    }
    hosts.sort_unstable();
    let mut best: Option<(u32, u32)> = None;
    for run in hosts.chunk_by(|a, b| a == b) {
        let degree = run.len() as u32;
        // Hosts ascend, so only a strictly greater degree displaces.
        if best.is_none_or(|(_, d)| degree > d) {
            best = Some((run[0], degree));
        }
    }
    best
}

/// The matrices of one resolution: window index (at this scale) →
/// matrix, sparse and sorted.
#[derive(Debug, Clone, Default)]
pub struct ScaleMatrices {
    /// Width multiple of the base window.
    pub scale: u64,
    /// Touched windows only, ascending.
    pub windows: BTreeMap<u64, WindowMatrix>,
}

/// Per-scale summary: how traffic concentrates as the window widens —
/// the numbers a scaling-relation plot needs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScalingRelation {
    /// Width multiple of the base window.
    pub scale: u64,
    /// Window width, ns.
    pub window_ns: u64,
    /// Nonempty windows at this scale.
    pub windows: u64,
    /// Total packets (identical at every scale — conservation).
    pub total_packets: u64,
    /// Largest packets-per-window.
    pub max_packets: u64,
    /// Mean packets over nonempty windows.
    pub mean_packets: f64,
    /// Largest distinct-pair count in one window.
    pub max_distinct_pairs: u64,
    /// Mean distinct pairs over nonempty windows.
    pub mean_distinct_pairs: f64,
    /// Largest host degree (distinct partners, in+out) in one window.
    pub max_degree: u32,
    /// The host that reached `max_degree` (smallest id on ties).
    pub max_degree_host: u32,
}

/// The complete multi-temporal matrix set of one run.
#[derive(Debug, Clone, Default)]
pub struct TrafficMatrices {
    /// Base window width, ns.
    pub bin_ns: u64,
    /// The global sorted host-pair id space.
    pub space: PairSpace,
    /// Matrices per resolution, finest first.
    pub scales: Vec<ScaleMatrices>,
}

impl TrafficMatrices {
    /// The per-scale scaling-relation summaries, finest first.
    pub fn summaries(&self) -> Vec<ScalingRelation> {
        self.scales
            .iter()
            .map(|sm| {
                let n = sm.windows.len() as u64;
                let total: u64 = sm.windows.values().map(WindowMatrix::total_packets).sum();
                let max_packets = sm
                    .windows
                    .values()
                    .map(WindowMatrix::total_packets)
                    .max()
                    .unwrap_or(0);
                let max_nnz = sm
                    .windows
                    .values()
                    .map(WindowMatrix::nnz)
                    .max()
                    .unwrap_or(0);
                let sum_nnz: usize = sm.windows.values().map(WindowMatrix::nnz).sum();
                let (max_degree_host, max_degree) = sm
                    .windows
                    .values()
                    .filter_map(|w| w.max_degree(&self.space))
                    .max_by_key(|&(h, d)| (d, std::cmp::Reverse(h)))
                    .unwrap_or((0, 0));
                ScalingRelation {
                    scale: sm.scale,
                    window_ns: window_ns(self.bin_ns, sm.scale),
                    windows: n,
                    total_packets: total,
                    max_packets,
                    mean_packets: if n == 0 { 0.0 } else { total as f64 / n as f64 },
                    max_distinct_pairs: max_nnz as u64,
                    mean_distinct_pairs: if n == 0 {
                        0.0
                    } else {
                        sum_nnz as f64 / n as f64
                    },
                    max_degree,
                    max_degree_host,
                }
            })
            .collect()
    }

    /// The matrices of the finest scale.
    pub fn base(&self) -> &ScaleMatrices {
        &self.scales[0]
    }
}

/// Panic unless `scales` is a ladder both accumulators can fill:
/// non-empty, starting at 1 or more, every scale a proper multiple of
/// the one below it, so that each coarse window is a whole number of
/// fine ones.
fn check_ladder(scales: &[u64]) {
    let first = *scales.first().expect("a scale ladder needs a scale");
    assert!(
        first >= 1,
        "a scale ladder starts at 1 or more, not {first}"
    );
    for w in scales.windows(2) {
        assert!(
            w[1] > w[0] && w[1] % w[0] == 0,
            "each scale must be a proper multiple of the one below it: {} follows {}",
            w[1],
            w[0]
        );
    }
}

/// Width of a window `scale` base windows wide.
fn window_ns(bin_ns: u64, scale: u64) -> u64 {
    bin_ns
        .checked_mul(scale)
        .unwrap_or_else(|| panic!("a window of {scale} x {bin_ns} ns overflows u64"))
}

/// Per-pair packet and byte counts of one accumulating window.
type PairCounts = BTreeMap<(u32, u32), (u64, u64)>;

/// Streaming accumulator fed one frame at a time (the frame-tap path);
/// [`MatrixAccum::finalize`] builds the pair space and the full ladder.
#[derive(Debug, Default)]
pub struct MatrixAccum {
    bin_ns: u64,
    windows: BTreeMap<u64, PairCounts>,
}

impl MatrixAccum {
    /// An empty accumulator over base windows of `bin_ns`.
    pub fn new(bin_ns: u64) -> MatrixAccum {
        MatrixAccum {
            bin_ns: bin_ns.max(1),
            windows: BTreeMap::new(),
        }
    }

    /// Count one delivered frame.
    pub fn record(&mut self, time: SimTime, src: u32, dst: u32, wire: u64) {
        let w = time.as_nanos() / self.bin_ns;
        let cell = self
            .windows
            .entry(w)
            .or_default()
            .entry((src, dst))
            .or_default();
        cell.0 += 1;
        cell.1 += wire;
    }

    /// Total frames recorded so far.
    pub fn frames(&self) -> u64 {
        self.windows
            .values()
            .flat_map(|m| m.values())
            .map(|&(p, _)| p)
            .sum()
    }

    /// Build the pair space and the matrix ladder. `scales` must start
    /// at 1 or more, each a proper multiple of the one below it.
    pub fn finalize(self, scales: &[u64]) -> TrafficMatrices {
        check_ladder(scales);
        let space = PairSpace::from_pairs(
            self.windows
                .values()
                .flat_map(|m| m.keys().copied())
                .collect(),
        );
        let mut out: Vec<ScaleMatrices> = scales
            .iter()
            .map(|&scale| ScaleMatrices {
                scale,
                windows: BTreeMap::new(),
            })
            .collect();
        for (w, cells) in &self.windows {
            // Cells arrive in sorted pair order from the BTreeMap, so
            // the per-window vectors are ascending by construction.
            let mut m = WindowMatrix::default();
            for (&(s, d), &(pk, by)) in cells {
                m.pair_ids.push(space.id(s, d).expect("pair in space"));
                m.packets.push(pk);
                m.bytes.push(by);
            }
            for sm in &mut out {
                sm.windows.entry(w / sm.scale).or_default().fold(&m);
            }
        }
        TrafficMatrices {
            bin_ns: self.bin_ns,
            space,
            scales: out,
        }
    }
}

/// Spill-free scaling-relation fold for the out-of-core scan.
///
/// [`MatrixAccum`] keeps every touched base window until `finalize` —
/// O(span) memory, which at ten million frames over minutes of
/// simulated time is the store all over again. This accumulator
/// produces the **same** [`ScalingRelation`] vector while holding only
/// the *open* window of each scale. Frames must arrive in
/// non-decreasing time order (the capture invariant), so a window is
/// complete the moment a frame lands beyond its last nanosecond.
///
/// **Sorted runs.** A frame costs one push of its packed key
/// (`src << 32 | dst`) onto the key buffer of the open finest window;
/// whether it belongs there is one comparison against that window's
/// cached last nanosecond. When the finest window closes the buffer is
/// sorted and run-length encoded into ascending `(pair, packets)` runs
/// — the window's hypersparse matrix built from sorted tuples in one
/// step.
///
/// **The cascade.** A closing window is summarised from its runs and
/// then merged, two sorted lists into one, into the open window of the
/// scale above, which closes in turn once the frame lies beyond it too.
/// Every coarse window is therefore the sum of its fine windows — the
/// coarse-from-fine merge `MatrixAccum::finalize` performs, without the
/// windows kept — and the 1 s window is touched once per 100 ms window,
/// not once per frame. The ladder must nest for that: every scale a
/// multiple of the one below it.
///
/// **Why the result is bitwise equal.** Per scale the summary is a
/// handful of integers — windows, packets, distinct pairs and their
/// maxima — plus the max-degree host. The integers count the same sets
/// whichever order the counts were added in, the two means divide the
/// same integers, windows close in ascending order so the later window
/// still wins degree ties, and within a window `max_degree_of` is the
/// count `WindowMatrix::max_degree` uses.
///
/// **Memory.** The key buffer has a fixed capacity and compacts itself
/// into the finest window's runs whenever it fills, so a million frames
/// sharing one millisecond cost no more than their distinct pairs. Peak
/// memory is that buffer plus O(pairs active in the widest open window)
/// — bounded by the host-pair space, independent of trace length.
#[derive(Debug)]
pub struct ScalingAccum {
    /// Packed keys of the frames pushed since the last compaction, all
    /// inside the open finest window; never grows past `KEY_CAPACITY`.
    keys: Vec<u64>,
    scales: Vec<ScaleAccum>,
    /// The key buffer's runs, on their way into the finest window.
    fresh: Vec<PairRun>,
    /// Merge scratch, swapped with the window it is merged into.
    merged: Vec<PairRun>,
    /// Degree-count scratch.
    hosts: Vec<u32>,
    prev_ns: u64,
    frames: u64,
}

/// Frames buffered before the key buffer compacts itself (32 KiB).
const KEY_CAPACITY: usize = 4096;

/// A packed host pair (`src << 32 | dst`, so runs sort in `(src, dst)`
/// order) and its packets in one window.
type PairRun = (u64, u64);

/// One scale's open window and running summary. A scale always has an
/// open window — the one holding time zero until a frame moves it — and
/// a window without frames closes without being counted.
#[derive(Debug)]
struct ScaleAccum {
    scale: u64,
    window_ns: u64,
    /// The last nanosecond inside the open window, saturating: a window
    /// reaching past `u64::MAX` holds every later frame.
    last_ns: u64,
    /// The open window's matrix, ascending by pair.
    runs: Vec<PairRun>,
    windows: u64,
    total_packets: u64,
    max_packets: u64,
    sum_nnz: u64,
    max_nnz: u64,
    /// Best (host, degree) so far, under the same `(degree,
    /// Reverse(host))` order `TrafficMatrices::summaries` maximizes.
    best: Option<(u32, u32)>,
}

impl ScaleAccum {
    /// Fold the open window's runs into the running summary.
    fn summarise_open(&mut self, hosts: &mut Vec<u32>) {
        let packets: u64 = self.runs.iter().map(|&(_, n)| n).sum();
        let nnz = self.runs.len() as u64;
        self.windows += 1;
        self.total_packets += packets;
        self.max_packets = self.max_packets.max(packets);
        self.sum_nnz += nnz;
        self.max_nnz = self.max_nnz.max(nnz);
        let pairs = self.runs.iter().map(|&(key, _)| unpack(key));
        if let Some((h, d)) = max_degree_of(pairs, hosts) {
            // Windows close in ascending order, so taking the later
            // window on ties replicates max_by_key's last-max-wins over
            // the window sequence.
            let better = match self.best {
                None => true,
                Some((bh, bd)) => (d, std::cmp::Reverse(h)) >= (bd, std::cmp::Reverse(bh)),
            };
            if better {
                self.best = Some((h, d));
            }
        }
    }

    /// Move the open window to the one holding `time_ns`.
    fn open_at(&mut self, time_ns: u64) {
        let start = time_ns - time_ns % self.window_ns;
        self.last_ns = start.saturating_add(self.window_ns - 1);
    }
}

fn pack(src: u32, dst: u32) -> u64 {
    u64::from(src) << 32 | u64::from(dst)
}

fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Add the ascending runs of `from` into the ascending runs of `into`,
/// through `scratch`.
fn merge_runs(into: &mut Vec<PairRun>, from: &[PairRun], scratch: &mut Vec<PairRun>) {
    scratch.clear();
    let (mut i, mut j) = (0, 0);
    while i < into.len() && j < from.len() {
        let (a, b) = (into[i], from[j]);
        match a.0.cmp(&b.0) {
            std::cmp::Ordering::Less => {
                scratch.push(a);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                scratch.push(b);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                scratch.push((a.0, a.1 + b.1));
                i += 1;
                j += 1;
            }
        }
    }
    scratch.extend_from_slice(&into[i..]);
    scratch.extend_from_slice(&from[j..]);
    std::mem::swap(into, scratch);
}

impl ScalingAccum {
    /// An empty accumulator over base windows of `bin_ns` at the given
    /// width-multiple ladder (starting at 1 or more, every scale a
    /// proper multiple of the one below it).
    pub fn new(bin_ns: u64, scales: &[u64]) -> ScalingAccum {
        check_ladder(scales);
        let bin_ns = bin_ns.max(1);
        let scales: Vec<ScaleAccum> = scales
            .iter()
            .map(|&scale| {
                let window_ns = window_ns(bin_ns, scale);
                ScaleAccum {
                    scale,
                    window_ns,
                    last_ns: window_ns - 1,
                    runs: Vec::new(),
                    windows: 0,
                    total_packets: 0,
                    max_packets: 0,
                    sum_nnz: 0,
                    max_nnz: 0,
                    best: None,
                }
            })
            .collect();
        ScalingAccum {
            keys: Vec::with_capacity(KEY_CAPACITY),
            scales,
            fresh: Vec::new(),
            merged: Vec::new(),
            hosts: Vec::new(),
            prev_ns: 0,
            frames: 0,
        }
    }

    /// Count one delivered frame. Frames must arrive in non-decreasing
    /// time order — the spill-free window retirement depends on it.
    pub fn record(&mut self, time_ns: u64, src: u32, dst: u32) {
        self.record_columns(&[time_ns], &[src], &[dst]);
    }

    /// Count one decoded chunk of columns, a whole same-window run of
    /// frames at a time.
    pub fn record_columns(&mut self, time_ns: &[u64], src: &[u32], dst: &[u32]) {
        assert!(time_ns.len() == src.len() && time_ns.len() == dst.len());
        let mut at = 0;
        while at < time_ns.len() {
            // A frame beyond the open window is later than every frame
            // in it; one out of order lands in a run, and is caught there.
            if time_ns[at] > self.scales[0].last_ns {
                self.roll(time_ns[at]);
            }
            let last_ns = self.scales[0].last_ns;
            let rest = &time_ns[at..];
            let run = rest.iter().position(|&t| t > last_ns).unwrap_or(rest.len());
            self.check_order(&rest[..run]);
            self.push_keys(&src[at..at + run], &dst[at..at + run]);
            at += run;
        }
        self.frames += time_ns.len() as u64;
    }

    /// Panic unless `times` carries on from the last frame in
    /// non-decreasing order.
    fn check_order(&mut self, times: &[u64]) {
        for &t in times {
            assert!(
                t >= self.prev_ns,
                "ScalingAccum requires time-ordered frames ({t} after {})",
                self.prev_ns
            );
            self.prev_ns = t;
        }
    }

    /// Buffer the keys of frames inside the open finest window,
    /// compacting whenever the buffer fills.
    fn push_keys(&mut self, mut src: &[u32], mut dst: &[u32]) {
        while !src.is_empty() {
            let take = src.len().min(KEY_CAPACITY - self.keys.len());
            self.keys.extend(
                src[..take]
                    .iter()
                    .zip(&dst[..take])
                    .map(|(&s, &d)| pack(s, d)),
            );
            (src, dst) = (&src[take..], &dst[take..]);
            if self.keys.len() == KEY_CAPACITY {
                self.compact();
            }
        }
    }

    /// Sort and run-length encode the buffered keys and add them to
    /// the finest window's runs.
    fn compact(&mut self) {
        self.keys.sort_unstable();
        self.fresh.clear();
        let runs = self.keys.chunk_by(|a, b| a == b);
        self.fresh
            .extend(runs.map(|run| (run[0], run.len() as u64)));
        self.keys.clear();
        merge_runs(&mut self.scales[0].runs, &self.fresh, &mut self.merged);
    }

    /// Close every window `time_ns` lies beyond, finest first, and open
    /// the windows holding it. The ladder nests, so the first scale
    /// whose open window still holds `time_ns` ends the walk.
    fn roll(&mut self, time_ns: u64) {
        self.compact();
        for k in 0..self.scales.len() {
            if time_ns <= self.scales[k].last_ns {
                break;
            }
            self.close(k);
            self.scales[k].open_at(time_ns);
        }
    }

    /// Summarise scale `k`'s open window and hand its runs to the scale
    /// above.
    fn close(&mut self, k: usize) {
        let (lower, upper) = self.scales.split_at_mut(k + 1);
        let closing = &mut lower[k];
        if closing.runs.is_empty() {
            return;
        }
        closing.summarise_open(&mut self.hosts);
        if let Some(above) = upper.first_mut() {
            merge_runs(&mut above.runs, &closing.runs, &mut self.merged);
        }
        closing.runs.clear();
    }

    /// Total frames recorded so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Close the open windows and emit the per-scale summaries, finest
    /// first — equal to `MatrixAccum::finalize(scales).summaries()` on
    /// the same frames.
    pub fn finalize(mut self) -> Vec<ScalingRelation> {
        self.compact();
        for k in 0..self.scales.len() {
            self.close(k);
        }
        self.scales
            .iter()
            .map(|sa| {
                let (max_degree_host, max_degree) = sa.best.unwrap_or((0, 0));
                ScalingRelation {
                    scale: sa.scale,
                    window_ns: sa.window_ns,
                    windows: sa.windows,
                    total_packets: sa.total_packets,
                    max_packets: sa.max_packets,
                    mean_packets: if sa.windows == 0 {
                        0.0
                    } else {
                        sa.total_packets as f64 / sa.windows as f64
                    },
                    max_distinct_pairs: sa.max_nnz,
                    mean_distinct_pairs: if sa.windows == 0 {
                        0.0
                    } else {
                        sa.sum_nnz as f64 / sa.windows as f64
                    },
                    max_degree,
                    max_degree_host,
                }
            })
            .collect()
    }

    /// Allocated capacity of the key buffer.
    #[cfg(test)]
    fn key_capacity(&self) -> usize {
        self.keys.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_sim::{FrameKind, FrameRecord, HostId, Proto};
    use proptest::prelude::*;

    fn record_all(acc: &mut MatrixAccum, trace: &[FrameRecord]) {
        for r in trace {
            acc.record(r.time, r.src.0, r.dst.0, u64::from(r.wire_len));
        }
    }

    fn rec(ms: u64, src: u32, dst: u32, len: u32) -> FrameRecord {
        FrameRecord {
            time: SimTime::from_millis(ms),
            wire_len: len,
            proto: Proto::Tcp,
            kind: FrameKind::Data,
            src: HostId(src),
            dst: HostId(dst),
        }
    }

    #[test]
    fn pair_space_matches_trace_store_index() {
        let trace = vec![
            rec(0, 3, 1, 100),
            rec(1, 0, 2, 200),
            rec(2, 3, 1, 100),
            rec(3, 2, 0, 60),
        ];
        let mut acc = MatrixAccum::new(1_000_000);
        record_all(&mut acc, &trace);
        let m = acc.finalize(&[1]);
        let store = TraceStore::from_records(&trace);
        assert_eq!(m.space, PairSpace::from_store(&store));
        assert_eq!(m.space.len(), 3);
        assert_eq!(m.space.id(0, 2), Some(0));
        assert_eq!(m.space.pair(2), (3, 1));
    }

    #[test]
    fn window_matrices_are_hypersparse_and_fold_exactly() {
        let mut acc = MatrixAccum::new(1_000_000);
        // Windows 0 and 1 (1 ms), then a lone frame at 15 ms.
        record_all(
            &mut acc,
            &[
                rec(0, 0, 1, 100),
                rec(0, 1, 0, 60),
                rec(1, 0, 1, 100),
                rec(15, 2, 3, 500),
            ],
        );
        let m = acc.finalize(&[1, 10]);
        assert_eq!(m.base().windows.len(), 3);
        assert_eq!(m.scales[1].windows.len(), 2);
        // The 10 ms bucket 0 merges base windows 0 and 1.
        let coarse = &m.scales[1].windows[&0];
        assert_eq!(coarse.nnz(), 2);
        assert_eq!(coarse.total_packets(), 3);
        assert_eq!(coarse.total_bytes(), 260);
        // Degree: host 0 and 1 both have 2 partnerships; smallest wins.
        assert_eq!(coarse.max_degree(&m.space), Some((0, 2)));
    }

    #[test]
    fn scaling_relations_conserve_and_widen() {
        let mut acc = MatrixAccum::new(1_000_000);
        for ms in 0..50 {
            record_all(
                &mut acc,
                &[rec(ms, ms as u32 % 4, (ms as u32 + 1) % 4, 100)],
            );
        }
        let m = acc.finalize(&[1, 10]);
        let s = m.summaries();
        assert_eq!(s[0].total_packets, 50);
        assert_eq!(s[1].total_packets, 50, "packets conserved across scales");
        assert!(s[1].mean_packets > s[0].mean_packets);
        assert!(s[1].mean_distinct_pairs >= s[0].mean_distinct_pairs);
        assert_eq!(s[0].window_ns, 1_000_000);
        assert_eq!(s[1].window_ns, 10_000_000);
    }

    /// Feed both accumulators the same frames and hold the streamed
    /// summaries to the materialized ones, means to the bit.
    fn assert_matches_oracle(bin_ns: u64, scales: &[u64], frames: &[(u64, u32, u32)]) {
        let mut acc = MatrixAccum::new(bin_ns);
        let mut stream = ScalingAccum::new(bin_ns, scales);
        for &(t, s, d) in frames {
            acc.record(SimTime::from_nanos(t), s, d, 60);
            stream.record(t, s, d);
        }
        assert_eq!(stream.frames(), frames.len() as u64);
        let want = acc.finalize(scales).summaries();
        let got = stream.finalize();
        assert_eq!(got, want);
        // Means must match to the bit, not approximately.
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.mean_packets.to_bits(), b.mean_packets.to_bits());
            assert_eq!(
                a.mean_distinct_pairs.to_bits(),
                b.mean_distinct_pairs.to_bits()
            );
        }
    }

    #[test]
    fn scaling_accum_matches_materialized_summaries() {
        let frames: Vec<(u64, u32, u32)> = (0..500u64)
            .map(|ms| {
                let t = SimTime::from_millis(ms) + SimTime::from_micros(ms % 900);
                let (s, d) = ((ms % 5) as u32, ((ms % 5 + 1 + ms % 3) % 5) as u32);
                (t.as_nanos(), s, d)
            })
            .collect();
        assert_matches_oracle(1_000_000, &[1, 10, 100, 1000], &frames);
    }

    #[test]
    fn scaling_accum_column_feed_matches_per_frame_feed() {
        let times: Vec<u64> = (0..300u64).map(|i| i * 777_000).collect();
        let src: Vec<u32> = (0..300u32).map(|i| i % 4).collect();
        let dst: Vec<u32> = (0..300u32).map(|i| (i + 1 + i % 2) % 4).collect();
        let mut whole = ScalingAccum::new(1_000_000, &[1, 10]);
        whole.record_columns(&times, &src, &dst);
        let mut chunked = ScalingAccum::new(1_000_000, &[1, 10]);
        for at in (0..300).step_by(37) {
            let end = (at + 37).min(300);
            chunked.record_columns(&times[at..end], &src[at..end], &dst[at..end]);
        }
        assert_eq!(whole.finalize(), chunked.finalize());
    }

    #[test]
    fn empty_scaling_accum_matches_empty_materialized() {
        let want = MatrixAccum::new(1_000_000).finalize(&[1, 10]).summaries();
        assert_eq!(ScalingAccum::new(1_000_000, &[1, 10]).finalize(), want);
    }

    #[test]
    #[should_panic(expected = "time-ordered frames (4999999 after 5000000)")]
    fn scaling_accum_rejects_time_travel() {
        let mut s = ScalingAccum::new(1_000_000, &[1]);
        s.record(5_000_000, 0, 1);
        s.record(4_999_999, 0, 1);
    }

    #[test]
    #[should_panic(expected = "time-ordered frames (4999999 after 5000000)")]
    fn scaling_accum_rejects_time_travel_inside_a_chunk() {
        let mut s = ScalingAccum::new(1_000_000, &[1, 10]);
        s.record_columns(&[1_000, 5_000_000, 4_999_999], &[0; 3], &[1; 3]);
    }

    #[test]
    #[should_panic(expected = "time-ordered frames (4999999 after 5000000)")]
    fn scaling_accum_rejects_time_travel_across_chunks() {
        let mut s = ScalingAccum::new(1_000_000, &[1, 10]);
        s.record_columns(&[1_000, 5_000_000], &[0; 2], &[1; 2]);
        s.record_columns(&[4_999_999, 6_000_000], &[0; 2], &[1; 2]);
    }

    #[test]
    #[should_panic(expected = "starts at 1 or more, not 0")]
    fn a_ladder_starting_at_zero_is_rejected() {
        ScalingAccum::new(1_000_000, &[0]);
    }

    #[test]
    #[should_panic(expected = "starts at 1 or more, not 0")]
    fn a_materialized_ladder_starting_at_zero_is_rejected() {
        MatrixAccum::new(1_000_000).finalize(&[0]);
    }

    #[test]
    #[should_panic(expected = "proper multiple of the one below it: 20 follows 15")]
    fn a_ladder_that_does_not_nest_is_rejected() {
        ScalingAccum::new(1_000_000, &[1, 15, 20]);
    }

    #[test]
    #[should_panic(expected = "proper multiple of the one below it: 1 follows 10")]
    fn a_descending_ladder_is_rejected() {
        ScalingAccum::new(1_000_000, &[10, 1]);
    }

    #[test]
    fn a_window_of_one_million_frames_stays_bounded() {
        const N: usize = 1_000_000;
        let pairs = [(7u32, 2u32), (0, 9), (7, 7)];
        let times = vec![3_500_000u64; N];
        let src: Vec<u32> = (0..N).map(|i| pairs[i % 3].0).collect();
        let dst: Vec<u32> = (0..N).map(|i| pairs[i % 3].1).collect();
        let scales = [1u64, 10];
        let mut stream = ScalingAccum::new(1_000_000, &scales);
        let capacity = stream.key_capacity();
        assert!((KEY_CAPACITY..N / 100).contains(&capacity));
        stream.record_columns(&times, &src, &dst);
        assert_eq!(
            stream.key_capacity(),
            capacity,
            "the key buffer compacts, it does not grow"
        );
        let mut acc = MatrixAccum::new(1_000_000);
        for i in 0..N {
            acc.record(SimTime::from_nanos(times[i]), src[i], dst[i], 60);
        }
        assert_eq!(stream.finalize(), acc.finalize(&scales).summaries());
    }

    #[test]
    fn a_chunk_cut_anywhere_matches_the_per_frame_feed() {
        // 2.5 frames to the millisecond: cuts fall inside base windows,
        // on their edges, and on 10 ms edges.
        let times: Vec<u64> = (0..60u64).map(|i| i * 400_000).collect();
        let src: Vec<u32> = (0..60u32).map(|i| i % 4).collect();
        let dst: Vec<u32> = (0..60u32).map(|i| (i + 1 + i % 3) % 5).collect();
        let scales = [1u64, 10];
        let mut per_frame = ScalingAccum::new(1_000_000, &scales);
        for i in 0..60 {
            per_frame.record(times[i], src[i], dst[i]);
        }
        let want = per_frame.finalize();
        for cut in 0..=60 {
            let mut cols = ScalingAccum::new(1_000_000, &scales);
            cols.record_columns(&times[..cut], &src[..cut], &dst[..cut]);
            cols.record_columns(&times[cut..], &src[cut..], &dst[cut..]);
            assert_eq!(cols.frames(), 60);
            assert_eq!(cols.finalize(), want, "cut at {cut}");
        }
    }

    #[test]
    fn windows_reaching_the_end_of_time_saturate() {
        // One window is all of time but its last nanosecond.
        let late = [
            (0, 1, 2),
            (5, 2, 1),
            (u64::MAX - 1, 1, 2),
            (u64::MAX, 3, 1),
            (u64::MAX, 1, 3),
        ];
        assert_matches_oracle(u64::MAX, &[1], &late);
        // The last millisecond, and the coarser windows holding it, end
        // past u64::MAX.
        let end = [
            (u64::MAX - 2_000_000, 0, 1),
            (u64::MAX - 1, 1, 0),
            (u64::MAX, 1, 0),
            (u64::MAX, 0, 1),
        ];
        assert_matches_oracle(1_000_000, &[1, 10, 100, 1000], &end);
    }

    proptest! {
        /// The streaming scaling fold equals the materialized ladder's
        /// summaries on arbitrary time-ordered traffic: hosts at both
        /// ends of each half of the packed key, self-pairs, and gaps
        /// that skip whole windows of every scale.
        #[test]
        fn scaling_accum_equals_materialized_on_arbitrary_traffic(
            frames in prop::collection::vec((0u64..9, 0u64..3_000_000, 0usize..6, 0usize..6), 0..150),
        ) {
            const HOSTS: [u32; 6] = [0, 1, 5, 65_535, 65_536, u32::MAX];
            let mut t = 0u64;
            let frames: Vec<(u64, u32, u32)> = frames
                .iter()
                .map(|&(kind, ns, s, d)| {
                    // Mostly inside a few base windows; otherwise past
                    // whole 10 ms, 100 ms or 1 s windows.
                    t += match kind {
                        0..=5 => ns,
                        6 => 10_000_000 + 10 * ns,
                        7 => 100_000_000 + 100 * ns,
                        _ => 1_000_000_000 + 1000 * ns,
                    };
                    (t, HOSTS[s], HOSTS[d])
                })
                .collect();
            assert_matches_oracle(1_000_000, &[1, 10, 100, 1000], &frames);
        }

        /// Conservation across the ladder on arbitrary traffic: every
        /// scale carries exactly the recorded packets and bytes, and
        /// every coarse window is the merge of its fine windows.
        #[test]
        fn ladder_conserves_arbitrary_traffic(
            frames in prop::collection::vec((0u64..200, 0u32..6, 0u32..6, 60u32..1500), 1..120),
        ) {
            let mut acc = MatrixAccum::new(1_000_000);
            let mut packets = 0u64;
            let mut bytes = 0u64;
            for &(ms, s, d, len) in &frames {
                if s == d { continue; }
                acc.record(SimTime::from_millis(ms), s, d, u64::from(len));
                packets += 1;
                bytes += u64::from(len);
            }
            let m = acc.finalize(&[1, 10, 100]);
            for sm in &m.scales {
                let p: u64 = sm.windows.values().map(WindowMatrix::total_packets).sum();
                let b: u64 = sm.windows.values().map(WindowMatrix::total_bytes).sum();
                prop_assert_eq!(p, packets);
                prop_assert_eq!(b, bytes);
            }
            // Coarse = exact merge of fine.
            for lvl in 1..m.scales.len() {
                let ratio = m.scales[lvl].scale / m.scales[lvl - 1].scale;
                for (&cw, coarse) in &m.scales[lvl].windows {
                    let mut fold = WindowMatrix::default();
                    for (_, fine) in m.scales[lvl - 1].windows.range(cw * ratio..(cw + 1) * ratio) {
                        fold.fold(fine);
                    }
                    prop_assert_eq!(&fold, coarse);
                }
            }
        }
    }
}
