//! Hypersparse per-window traffic matrices, Kepner style, reduced to
//! their scaling relations.
//!
//! Each sample window has a src×dst traffic matrix: the `(src, dst)`
//! pairs active in it with their packet counts. Hosts and pairs that
//! are silent in a window cost nothing — the common case at millisecond
//! resolution, where a 9-host LAN has 72 possible pairs and a window
//! typically touches one or two.
//!
//! Matrices are formed at a ladder of window widths, each coarse window
//! the exact merge of its fine windows, and the per-scale
//! [`ScalingRelation`] summaries report how packets per window,
//! distinct pairs and the max-degree host grow with window width — the
//! scaling relations hypersparse traffic analysis plots.
//!
//! [`ScalingAccum`] fills the ladder from a time-ordered stream while
//! holding one open window per scale, each as ascending
//! `(pair, packets)` runs: the finest is built by sorting the frames'
//! packed keys once when it closes, each coarser one by merging the
//! closed windows of the scale below it. The weather map's frame tap
//! and the streamed trace scan both run it.

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

/// Panic unless `scales` is a ladder [`ScalingAccum`] can fill:
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

/// Spill-free scaling-relation fold.
///
/// Keeping every touched base window until the end costs O(span)
/// memory, which at ten million frames over minutes of simulated time
/// is the store all over again. This accumulator produces the **same**
/// [`ScalingRelation`] vector while holding only the *open* window of
/// each scale. Frames must arrive in
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
/// Every coarse window is therefore the sum of its fine windows, without
/// the windows kept, and the 1 s window is touched once per 100 ms window,
/// not once per frame. The ladder must nest for that: every scale a
/// multiple of the one below it.
///
/// **Why the result is bitwise equal** to summaries taken over every
/// window kept whole (the tests' reference). Per scale the summary is a
/// handful of integers — windows, packets, distinct pairs and their
/// maxima — plus the max-degree host. The integers count the same sets
/// whichever order the counts were added in, the two means divide the
/// same integers, and windows close in ascending order so the later
/// window still wins degree ties.
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
    /// Best (host, degree) so far, maximizing `(degree, Reverse(host))`.
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
    /// first.
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
    use fxnet_sim::SimTime;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BTreeMap;

    /// The reference the accumulator is held to: every window of every
    /// scale kept whole, each scale bucketed straight from the frames,
    /// as a map from pair to packets, then summarised window by window.
    fn reference(bin_ns: u64, scales: &[u64], frames: &[(u64, u32, u32)]) -> Vec<ScalingRelation> {
        scales
            .iter()
            .map(|&scale| {
                let width = window_ns(bin_ns, scale);
                let mut windows: BTreeMap<u64, BTreeMap<(u32, u32), u64>> = BTreeMap::new();
                for &(t, s, d) in frames {
                    *windows
                        .entry(t / width)
                        .or_default()
                        .entry((s, d))
                        .or_default() += 1;
                }
                let n = windows.len() as u64;
                let packets = windows.values().map(|m| m.values().sum::<u64>());
                let total: u64 = packets.clone().sum();
                let sum_nnz: usize = windows.values().map(BTreeMap::len).sum();
                // A pair counts once for its source and once for its
                // destination; the later window wins ties.
                let best = windows
                    .values()
                    .filter_map(|m| {
                        let mut degree: BTreeMap<u32, u32> = BTreeMap::new();
                        for &(s, d) in m.keys() {
                            *degree.entry(s).or_default() += 1;
                            *degree.entry(d).or_default() += 1;
                        }
                        degree.into_iter().max_by_key(|&(h, d)| (d, Reverse(h)))
                    })
                    .max_by_key(|&(h, d)| (d, Reverse(h)));
                let (max_degree_host, max_degree) = best.unwrap_or((0, 0));
                let mean = |x: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
                ScalingRelation {
                    scale,
                    window_ns: width,
                    windows: n,
                    total_packets: total,
                    max_packets: packets.max().unwrap_or(0),
                    mean_packets: mean(total),
                    max_distinct_pairs: windows.values().map(BTreeMap::len).max().unwrap_or(0)
                        as u64,
                    mean_distinct_pairs: mean(sum_nnz as u64),
                    max_degree,
                    max_degree_host,
                }
            })
            .collect()
    }

    #[test]
    fn scaling_relations_conserve_and_widen() {
        let mut acc = ScalingAccum::new(1_000_000, &[1, 10]);
        for ms in 0..50u64 {
            acc.record(ms * 1_000_000, ms as u32 % 4, (ms as u32 + 1) % 4);
        }
        let s = acc.finalize();
        assert_eq!(s[0].total_packets, 50);
        assert_eq!(s[1].total_packets, 50, "packets conserved across scales");
        assert!(s[1].mean_packets > s[0].mean_packets);
        assert!(s[1].mean_distinct_pairs >= s[0].mean_distinct_pairs);
        assert_eq!(s[0].window_ns, 1_000_000);
        assert_eq!(s[1].window_ns, 10_000_000);
    }

    /// Feed the accumulator `frames` and hold its summaries to the
    /// reference's, means to the bit.
    fn assert_matches_oracle(bin_ns: u64, scales: &[u64], frames: &[(u64, u32, u32)]) {
        let mut stream = ScalingAccum::new(bin_ns, scales);
        for &(t, s, d) in frames {
            stream.record(t, s, d);
        }
        assert_eq!(stream.frames(), frames.len() as u64);
        let want = reference(bin_ns, scales, frames);
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
        let want = reference(1_000_000, &[1, 10], &[]);
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
        let frames: Vec<(u64, u32, u32)> = (0..N).map(|i| (times[i], src[i], dst[i])).collect();
        assert_eq!(stream.finalize(), reference(1_000_000, &scales, &frames));
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
        /// scale carries exactly the recorded packets, and the coarse
        /// windows the accumulator merges from fine ones summarise as
        /// the reference's windows bucketed straight from the frames.
        #[test]
        fn ladder_conserves_arbitrary_traffic(
            frames in prop::collection::vec((0u64..200, 0u32..6, 0u32..6), 1..120),
        ) {
            let mut frames: Vec<(u64, u32, u32)> = frames
                .iter()
                .filter(|&&(_, s, d)| s != d)
                .map(|&(ms, s, d)| (ms * 1_000_000, s, d))
                .collect();
            frames.sort_by_key(|&(t, _, _)| t);
            let scales = [1u64, 10, 100];
            let mut acc = ScalingAccum::new(1_000_000, &scales);
            for &(t, s, d) in &frames {
                acc.record(t, s, d);
            }
            let got = acc.finalize();
            for scale in &got {
                prop_assert_eq!(scale.total_packets, frames.len() as u64);
            }
            prop_assert_eq!(got, reference(1_000_000, &scales, &frames));
        }
    }
}
