//! The out-of-core analytics scan: one streamed pass over a chunked
//! (FXTC v2) trace.
//!
//! The scan computes one analysis bundle — the [`TraceReport`] fold,
//! the sliding-window bandwidth peak, Goertzel powers at the contract
//! harmonics, and the Kepner-style [`ScalingRelation`] ladder over
//! multi-temporal host-pair matrices — and renders it to one canonical
//! transcript. Two contracts hold on the transcript:
//!
//! * it is **byte-identical at any `--jobs`**: chunks are *decoded* in
//!   parallel but *folded* strictly in directory order — Welford and
//!   the burst merge are order-sensitive, so parallelism is confined to
//!   the side with no float arithmetic;
//! * it equals, byte for byte, what loading the whole trace and running
//!   one view-kernel pass per quantity over it produces — the oracle in
//!   this file's test module, which shares none of the folds' loops.
//!
//! Peak memory is O(jobs · chunk): at most two decode rounds of chunks
//! are resident at once, however long the trace.
//!
//! The file is outside input: a payload that fails to decode comes back
//! as the [`TraceIoError`] the decoder raised, frames out of capture
//! order (which every fold below requires) as one naming the chunk, and
//! a time span too long to bin as one naming the span — never a panic
//! or an allocation the file's length does not justify.

use fxnet::metrics::{ScalingAccum, ScalingRelation};
use fxnet::spectral::harmonic_powers;
use fxnet::trace::{
    read_chunk, read_chunk_directory, ChunkBuf, ChunkMeta, ReportOptions, SlidingPeak,
    StreamingReport, TraceIoError, TraceReport,
};
use fxnet::SimTime;
use fxnet_harness::Pool;
use std::path::Path;

/// Frames per chunk the `analysis-scale` writer uses: the size
/// a saved store is cut at, so every `.fxb` scans in the same rounds.
pub const SCAN_CHUNK_FRAMES: usize = fxnet::trace::io::SAVE_CHUNK_FRAMES;

/// Base matrix window: 1 ms, the finest rung of the ladder.
pub const MATRIX_BASE_NS: u64 = 1_000_000;

/// The multi-temporal ladder, in base-window multiples:
/// 1 ms → 10 ms → 100 ms → 1 s.
pub const MATRIX_SCALES: [u64; 4] = [1, 10, 100, 1000];

/// What to compute and how to label it.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Report label (appears in the rendered transcript).
    pub label: String,
    /// Report options: bin width, burst gap, spectral floor.
    pub opts: ReportOptions,
    /// Sliding-bandwidth window for the peak gauge.
    pub window: SimTime,
    /// Fundamental the harmonic probe is anchored at, Hz.
    pub base_hz: f64,
    /// Harmonic multiples of `base_hz` to probe with Goertzel.
    pub harmonics: Vec<u32>,
    /// Finest matrix window, ns.
    pub matrix_base_ns: u64,
    /// Matrix ladder in base-window multiples (strictly increasing).
    pub matrix_scales: Vec<u64>,
}

impl ScanConfig {
    /// The `analysis-scale` defaults: the paper's 10 ms bin and
    /// window, the 1 ms → 1 s matrix ladder, and the first four
    /// harmonics of `base_hz`.
    pub fn new(label: impl Into<String>, base_hz: f64) -> ScanConfig {
        let opts = ReportOptions::default();
        ScanConfig {
            label: label.into(),
            window: opts.bin,
            opts,
            base_hz,
            harmonics: vec![1, 2, 3, 4],
            matrix_base_ns: MATRIX_BASE_NS,
            matrix_scales: MATRIX_SCALES.to_vec(),
        }
    }
}

/// The scan's full result: the analysis bundle, its canonical
/// rendering, and the peak resident working set.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// Frames analyzed.
    pub frames: u64,
    /// Chunks in the trace directory.
    pub chunks: usize,
    pub report: TraceReport,
    /// `(frequency_hz, power)` at each probed harmonic.
    pub harmonics: Vec<(f64, f64)>,
    /// Peak sliding-window bandwidth, `None` on an empty trace.
    pub sliding_peak: Option<f64>,
    /// The multi-temporal scaling ladder.
    pub relations: Vec<ScalingRelation>,
    /// Canonical transcript — the byte-identity artifact.
    pub rendered: String,
    /// Peak bytes of decoded frame columns held at once (the in-flight
    /// decode rounds).
    pub peak_resident_bytes: u64,
}

/// Render the analysis bundle to the canonical transcript. Floats are
/// printed with `{:?}` (shortest round-trip), so two transcripts match
/// byte-for-byte exactly when every number matches bit-for-bit.
fn render(
    cfg: &ScanConfig,
    frames: u64,
    report: &TraceReport,
    sliding_peak: Option<f64>,
    harmonics: &[(f64, f64)],
    relations: &[ScalingRelation],
) -> String {
    use std::fmt::Write as _;
    let mut out = format!("# analysis-scale scan — {} ({frames} frames)\n", cfg.label);
    out.push_str(&TraceReport::markdown_header());
    out.push('\n');
    out.push_str(&report.markdown_row());
    out.push('\n');
    writeln!(out, "report {report:?}").expect("write");
    writeln!(
        out,
        "sliding peak {sliding_peak:?} (window {:?})",
        cfg.window
    )
    .expect("write");
    for (h, (freq, power)) in cfg.harmonics.iter().zip(harmonics) {
        writeln!(
            out,
            "harmonic {h}x{:?} Hz -> {freq:?} Hz power {power:?}",
            cfg.base_hz
        )
        .expect("write");
    }
    for r in relations {
        writeln!(out, "scaling {r:?}").expect("write");
    }
    out
}

/// Most bandwidth bins one trace file may ask for. A bin vector
/// grows with the *span* of the timestamps, not with the frame count,
/// so a two-frame file can ask for any allocation it likes; 2^22 bins
/// is 11.6 h of capture at the paper's 10 ms bin, six times its longest
/// trace (AIRSHED's 100 simulated hours).
const MAX_SCAN_BINS: u64 = 1 << 22;

/// `Corrupt`, naming the span, if the time span the directory
/// advertises would need more than [`MAX_SCAN_BINS`] bins of `bin_ns`:
/// the one bound on a bin vector sized from timestamps a file supplied.
/// Decode holds every chunk to its directory entry and the fold takes
/// chunks only in capture order, so no folded timestamp lies outside
/// the span checked here.
fn check_span(chunks: &[ChunkMeta], bin_ns: u64) -> Result<(), TraceIoError> {
    let lo = chunks.iter().map(|c| c.t_min_ns).min().unwrap_or(0);
    let hi = chunks.iter().map(|c| c.t_max_ns).max().unwrap_or(0);
    let bins = hi.saturating_sub(lo) / bin_ns + 1;
    if bins > MAX_SCAN_BINS {
        return Err(TraceIoError::Corrupt(format!(
            "time span {lo}..{hi} ns needs {bins} bins of {bin_ns} ns (at most {MAX_SCAN_BINS} are binned)"
        )));
    }
    Ok(())
}

/// Sum of decoded column bytes across a decode round.
fn resident(bufs: &[ChunkBuf]) -> u64 {
    bufs.iter().map(ChunkBuf::resident_bytes).sum()
}

/// `Corrupt`, naming chunk `index`, unless `time_ns` continues capture
/// order from `after_ns`. The report, sliding-window and matrix folds
/// all assert that order; this check is what stands between them and a
/// hostile file.
fn check_capture_order(index: usize, after_ns: u64, time_ns: &[u64]) -> Result<u64, TraceIoError> {
    let mut prev = after_ns;
    for &t in time_ns {
        if t < prev {
            return Err(TraceIoError::Corrupt(format!(
                "chunk {index} is out of capture order ({t} ns follows {prev} ns)"
            )));
        }
        prev = t;
    }
    Ok(prev)
}

/// One streamed pass over a chunked trace: chunks are decoded in
/// rounds of `pool.jobs()` on the worker pool while the previous round
/// is folded — **in directory order, on one thread** — into the fused
/// streaming kernels. The fold order is fixed by the directory, never
/// by scheduling, so the outcome is byte-identical at any job count;
/// parallelism and double-buffering only move wall-clock time.
pub fn streamed_scan(
    path: &Path,
    cfg: &ScanConfig,
    pool: &Pool,
) -> Result<ScanOutcome, TraceIoError> {
    let dir = read_chunk_directory(path)?;
    let frames = dir.frames();
    let chunks = dir.chunks.len();
    let batch = pool.jobs().max(1);

    let mut report = StreamingReport::new(&cfg.label, &cfg.opts);
    // After `new`, which asserts the bin width this divides by.
    check_span(&dir.chunks, cfg.opts.bin.as_nanos())?;
    let mut sliding = SlidingPeak::new(cfg.window);
    let mut matrices = ScalingAccum::new(cfg.matrix_base_ns, &cfg.matrix_scales);
    let mut peak_resident = 0u64;
    let mut folded = 0usize;
    let mut last_ns = 0u64;

    let decode = |round: &[ChunkMeta]| -> Result<Vec<ChunkBuf>, TraceIoError> {
        pool.map(round.to_vec(), |meta| {
            let mut buf = ChunkBuf::default();
            read_chunk(path, &meta, &mut buf).map(|()| buf)
        })
        .into_iter()
        .collect()
    };

    let mut rounds = dir.chunks.chunks(batch);
    let mut current = rounds.next().map(decode).transpose()?;
    while let Some(bufs) = current {
        let next_metas = rounds.next();
        // Decode the next round on the pool while this thread folds the
        // current one; the scope joins before anything is reordered (and
        // before an error leaves it).
        let next = std::thread::scope(|s| {
            let prefetch = next_metas.map(|nm| s.spawn(|| decode(nm)));
            for buf in &bufs {
                last_ns = check_capture_order(folded, last_ns, &buf.time_ns)?;
                folded += 1;
                report.push_chunk(&buf.time_ns, &buf.wire_len);
                for (&t, &len) in buf.time_ns.iter().zip(&buf.wire_len) {
                    sliding.push(SimTime::from_nanos(t), len);
                }
                matrices.record_columns(&buf.time_ns, &buf.src, &buf.dst);
            }
            prefetch
                .map(|h| h.join().expect("decode round"))
                .transpose()
        })?;
        let in_flight = resident(&bufs) + next.as_deref().map_or(0, resident);
        peak_resident = peak_resident.max(in_flight);
        current = next;
    }

    let (trace_report, series, _) = report.finish_parts();
    let harmonics = harmonic_powers(&series, cfg.opts.bin, cfg.base_hz, &cfg.harmonics);
    let sliding_peak = sliding.peak();
    let relations = matrices.finalize();
    let rendered = render(
        cfg,
        frames,
        &trace_report,
        sliding_peak,
        &harmonics,
        &relations,
    );
    Ok(ScanOutcome {
        frames,
        chunks,
        report: trace_report,
        harmonics,
        sliding_peak,
        relations,
        rendered,
        peak_resident_bytes: peak_resident,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::multipass_report;
    use fxnet::trace::{load_store, save_store_chunked, ChunkedWriter, TraceStore};
    use fxnet::FrameRecord;
    use fxnet::{sim::Frame, sim::FrameKind, HostId};

    /// The scan's oracle: materialize the whole trace, then run the
    /// multi-pass analyses over its view — the report composed from the
    /// view kernels, a pass for the harmonic series, the full
    /// `sliding_window_bandwidth` vector reduced to its peak, and the
    /// matrix ladder fed frame by frame from the view. Its kernels share
    /// none of [`streamed_scan`]'s folds, at O(trace) peak memory; the
    /// ladder is the same `ScalingAccum`, so here it checks that the
    /// scan's chunked feed equals one whole-trace fold (its equality to
    /// every window kept whole is held in `fxnet-metrics`).
    fn materialized_scan(path: &Path, cfg: &ScanConfig) -> Result<ScanOutcome, TraceIoError> {
        let store = load_store(path)?;
        let view = store.view();
        let trace_report = multipass_report(&cfg.label, view, &cfg.opts);
        let series = view.binned_bandwidth(cfg.opts.bin);
        let harmonics = harmonic_powers(&series, cfg.opts.bin, cfg.base_hz, &cfg.harmonics);

        let sliding = view.sliding_window_bandwidth(cfg.window);
        let sliding_peak = (!sliding.is_empty()).then(|| {
            sliding
                .iter()
                .fold(f64::NEG_INFINITY, |m, &(_, bw)| m.max(bw))
        });

        let mut matrices = ScalingAccum::new(cfg.matrix_base_ns, &cfg.matrix_scales);
        for r in view.iter() {
            matrices.record(r.time.as_nanos(), r.src.0, r.dst.0);
        }
        let relations = matrices.finalize();

        let frames = store.len() as u64;
        let rendered = render(
            cfg,
            frames,
            &trace_report,
            sliding_peak,
            &harmonics,
            &relations,
        );
        Ok(ScanOutcome {
            frames,
            chunks: 0,
            report: trace_report,
            harmonics,
            sliding_peak,
            relations,
            rendered,
            // The five resident columns: 8 + 4 + 1 + 4 + 4 bytes a frame.
            peak_resident_bytes: store.len() as u64 * 21,
        })
    }

    fn bursty_records(n: usize) -> Vec<FrameRecord> {
        (0..n)
            .map(|i| {
                let group = i / 40;
                let t = SimTime::from_micros((group * 500_000 + (i % 40) * 700) as u64);
                let f = Frame::tcp(
                    HostId((i % 7) as u32),
                    // Offsets 1..=5 are never 0 mod 7, so src != dst.
                    HostId(((i % 7) + 1 + (i / 11) % 5) as u32 % 7),
                    FrameKind::Data,
                    (100 + (i * 37) % 1100) as u32,
                    i as u64 + 1,
                );
                FrameRecord::capture(t, &f)
            })
            .collect()
    }

    fn bursty_store(n: usize) -> TraceStore {
        TraceStore::from_records(&bursty_records(n))
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fxnet-scan-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn streamed_scan_matches_materialized_bytes() {
        let dir = scratch_dir("match");
        let path = dir.join("scan.fxb");
        let store = bursty_store(5_000);
        save_store_chunked(&path, &store, 257).unwrap();

        let cfg = ScanConfig::new("scan-test", 2.0);
        let streamed = streamed_scan(&path, &cfg, &Pool::new(4)).unwrap();
        let serial = streamed_scan(&path, &cfg, &Pool::serial()).unwrap();
        let mat = materialized_scan(&path, &cfg).unwrap();

        assert_eq!(streamed.frames, 5_000);
        assert!(streamed.chunks > 1);
        assert_eq!(
            streamed.rendered, serial.rendered,
            "parallel streamed scan must match --jobs 1 byte for byte"
        );
        assert_eq!(
            streamed.rendered, mat.rendered,
            "streamed scan must match the materialized baseline byte for byte"
        );
        // Spot-check the rendered transcript carries every section.
        assert!(streamed.rendered.contains("sliding peak Some"));
        assert!(streamed.rendered.contains("harmonic 1x"));
        assert!(streamed.rendered.contains("scaling ScalingRelation"));
        // The streamed working set is bounded by in-flight rounds, the
        // baseline holds all columns.
        assert!(streamed.peak_resident_bytes <= mat.peak_resident_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_chunked_trace_scans_cleanly() {
        let dir = scratch_dir("empty");
        let path = dir.join("empty.fxb");
        save_store_chunked(&path, &TraceStore::from_records(&[]), 64).unwrap();
        let cfg = ScanConfig::new("empty", 1.0);
        let streamed = streamed_scan(&path, &cfg, &Pool::new(2)).unwrap();
        let mat = materialized_scan(&path, &cfg).unwrap();
        assert_eq!(streamed.frames, 0);
        assert_eq!(streamed.sliding_peak, None);
        assert!(streamed.harmonics.is_empty());
        assert_eq!(streamed.rendered, mat.rendered);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_flipped_payload_byte_is_an_error_not_a_panic() {
        let dir = scratch_dir("flip");
        let path = dir.join("flip.fxb");
        let directory = save_store_chunked(&path, &bursty_store(120), 40).unwrap();
        let good = std::fs::read(&path).unwrap();
        let cfg = ScanConfig::new("flip", 2.0);
        let clean = streamed_scan(&path, &cfg, &Pool::new(2)).unwrap().rendered;

        // Every payload byte in turn. Most flips break a structural
        // check (block id, length, varint framing, the directory's time
        // span, capture order) and come back `Corrupt`; a flip confined
        // to a size or host varint decodes to a different valid trace.
        // What no flip may do is panic — on the pool or on this thread.
        let (start, end) = (
            directory.chunks[0].offset as usize,
            (directory.chunks[2].offset + directory.chunks[2].len) as usize,
        );
        let mut rejected = 0usize;
        for at in start..end {
            let mut bad = good.clone();
            bad[at] ^= 0x55;
            std::fs::write(&path, &bad).unwrap();
            for pool in [Pool::serial(), Pool::new(2)] {
                match streamed_scan(&path, &cfg, &pool) {
                    Err(TraceIoError::Corrupt(_)) => rejected += 1,
                    Err(e) => panic!("byte {at}: expected Corrupt, got {e}"),
                    Ok(_) => {}
                }
            }
        }
        // The first byte of each chunk is a block id, and a time-delta
        // byte shifts every later timestamp off the directory's span.
        assert!(rejected >= 2 * directory.len());
        for at in [start, directory.chunks[1].offset as usize, start + 9] {
            let mut bad = good.clone();
            bad[at] ^= 0x55;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(
                    streamed_scan(&path, &cfg, &Pool::new(2)),
                    Err(TraceIoError::Corrupt(_))
                ),
                "byte {at}"
            );
        }

        // A block length of all ones must not overflow the cursor.
        let mut bad = good.clone();
        bad[start + 1..start + 9].fill(0xff);
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            streamed_scan(&path, &cfg, &Pool::serial()),
            Err(TraceIoError::Corrupt(_))
        ));

        // And the untouched bytes still scan to the same transcript.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(
            streamed_scan(&path, &cfg, &Pool::new(2)).unwrap().rendered,
            clean
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_absurd_time_span_is_an_error_not_an_allocation() {
        let dir = scratch_dir("span");
        let path = dir.join("span.fxb");
        let at = |ns: u64| {
            let f = Frame::tcp(HostId(0), HostId(1), FrameKind::Data, 1460, 1);
            FrameRecord::capture(SimTime::from_nanos(ns), &f)
        };
        let cfg = ScanConfig::new("span", 2.0);
        let far = 1u64 << 62;
        // Structurally valid files — they load — whose frames are 146
        // years apart: in one chunk, in two, and with the far frame in a
        // middle chunk where the first and last entries alone would hide
        // it. Folding any of them would ask for 4.6e11 bins (3.7 TB).
        let layouts: [&[&[u64]]; 3] = [&[&[0, far]], &[&[0], &[far]], &[&[0], &[far], &[5]]];
        for chunks in layouts {
            let mut w = ChunkedWriter::create(&path).unwrap();
            for times in chunks {
                let records: Vec<FrameRecord> = times.iter().map(|&ns| at(ns)).collect();
                w.append_records(&records).unwrap();
            }
            w.finish().unwrap();
            assert_eq!(load_store(&path).unwrap().len(), chunks.concat().len());
            for pool in [Pool::serial(), Pool::new(2)] {
                match streamed_scan(&path, &cfg, &pool) {
                    Err(TraceIoError::Corrupt(what)) => {
                        assert!(what.contains("time span"), "{what}");
                        assert!(what.contains(&far.to_string()), "{what}");
                    }
                    other => panic!("expected Corrupt, got {other:?}"),
                }
            }
        }
        // The bound is on the span, not on where the trace starts.
        let mut w = ChunkedWriter::create(&path).unwrap();
        w.append_records(&[at(far), at(far + 1_000_000)]).unwrap();
        w.finish().unwrap();
        assert_eq!(
            streamed_scan(&path, &cfg, &Pool::serial()).unwrap().frames,
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunks_out_of_capture_order_are_an_error_naming_the_chunk() {
        let dir = scratch_dir("order");
        let path = dir.join("order.fxb");
        let recs = bursty_records(80);
        let mut w = ChunkedWriter::create(&path).unwrap();
        w.append_records(&recs[40..]).unwrap();
        w.append_records(&recs[..40]).unwrap();
        w.finish().unwrap();
        // The container itself is sound — it loads — but no fold can
        // take its second chunk after its first.
        assert_eq!(load_store(&path).unwrap().len(), 80);
        let cfg = ScanConfig::new("order", 2.0);
        for pool in [Pool::serial(), Pool::new(3)] {
            match streamed_scan(&path, &cfg, &pool) {
                Err(TraceIoError::Corrupt(what)) => {
                    assert!(what.contains("chunk 1"), "{what}");
                    assert!(what.contains("capture order"), "{what}");
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }

        // Disorder inside one chunk is caught the same way.
        let mut shuffled = recs[..40].to_vec();
        shuffled.swap(5, 30);
        let mut w = ChunkedWriter::create(&path).unwrap();
        w.append_records(&shuffled).unwrap();
        w.finish().unwrap();
        assert!(matches!(
            streamed_scan(&path, &cfg, &Pool::serial()),
            Err(TraceIoError::Corrupt(what)) if what.contains("chunk 0")
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
