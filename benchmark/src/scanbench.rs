//! `trace-scan`: no simulator at all. A read pass, a write and a
//! streamed scan over a chunked trace far larger than the last-level
//! cache, so that a read gain paid for by writes shows.

use crate::bench::{add, timed, Bench, Ctx, Layers, PassStats, Res, ScratchFile};
use crate::digest::{bytes_digest, records_digest};
use crate::span::Tracer;
use crate::synth::{Synth, BASE_HZ};
use fxnet::metrics::ScalingAccum;
use fxnet::trace::{
    load_store, save_store_chunked, ChunkBuf, ChunkCursor, Periodogram, ReportOptions,
};
use fxnet::SimTime;
use fxnet_bench::{
    analysis_suite_columnar, streamed_scan, ScanConfig, MATRIX_BASE_NS, MATRIX_SCALES,
    SCAN_CHUNK_FRAMES,
};
use fxnet_harness::Pool;
use std::hint::black_box;

/// Waves in the input file: 4,194,304 frames at full scale.
const WAVES: u32 = 8;
/// The figure suite keeps its periodogram input under this many bins.
const SUITE_MAX_BINS: u64 = 1 << 12;

pub struct ScanBench {
    input: ScratchFile,
    rewrite: ScratchFile,
    config: ScanConfig,
    pool: Pool,
    frames: u64,
    chunks: usize,
    /// Simulated seconds the input trace covers.
    sim_s: f64,
    /// Record digest of the input, which a rewrite must reload to.
    input_digest: String,
}

impl ScanBench {
    /// Set-up: the `fabric-synth` generator, at one shard, writes the
    /// input file.
    pub fn new(seed: u64, rounds: u32, jobs: usize) -> Res<ScanBench> {
        let input = ScratchFile::new("scan_input.fxb")?;
        let written = Synth::new(seed, rounds).write(&input.0, WAVES, 1, &mut Tracer::default())?;
        if written.violations != 0 || written.errors != 0 {
            return Err("the input generator lost frames".into());
        }
        let input_digest = records_digest(load_store(&input.0)?.iter());
        Ok(ScanBench {
            input,
            rewrite: ScratchFile::new("scan_rewrite.fxb")?,
            config: ScanConfig::new("trace-scan", BASE_HZ),
            pool: Pool::new(jobs),
            frames: written.directory.frames(),
            chunks: written.directory.len(),
            sim_s: written.last_ns as f64 / 1e9,
            input_digest,
        })
    }
}

impl Bench for ScanBench {
    fn pass(&mut self, ctx: &mut Ctx) -> Res<PassStats> {
        let (outcome, wall_s, cpu_s) = timed(&mut ctx.tracer, |tracer| -> Res<_> {
            let store = tracer.span("trace.load", |_| load_store(&self.input.0))?;
            let figures = tracer.span("bench.figures", |_| {
                analysis_suite_columnar("trace-scan", &store)
            });
            tracer.span("trace.chunk_write", |_| {
                save_store_chunked(&self.rewrite.0, &store, SCAN_CHUNK_FRAMES)
            })?;
            drop(store);
            let scan = tracer.span("bench.stream_scan", |_| {
                streamed_scan(&self.input.0, &self.config, &self.pool)
            })?;
            Ok((figures, scan))
        })?;
        let (figures, scan) = outcome?;

        ctx.checks.same(
            "trace-scan.figures",
            format!(
                "frames={} transcript={}",
                self.frames,
                bytes_digest(figures.as_bytes())
            ),
        );
        ctx.checks.same(
            "trace-scan.stream_scan",
            format!(
                "frames={} transcript={}",
                scan.frames,
                bytes_digest(scan.rendered.as_bytes())
            ),
        );
        ctx.checks
            .same("trace-scan.input", self.input_digest.clone());
        ctx.checks.require(
            records_digest(load_store(&self.rewrite.0)?.iter()) == self.input_digest,
            "the rewritten file reloads to the input's digest",
        );

        let file_bytes = std::fs::metadata(&self.input.0)?.len();
        let mut counts = Layers::new();
        add(
            &mut counts,
            "bench.stream_resident_bytes",
            scan.peak_resident_bytes as f64,
        );
        add(&mut counts, "trace.file_bytes", file_bytes as f64);
        add(
            &mut counts,
            "trace.bytes_per_frame",
            file_bytes as f64 / self.frames as f64,
        );
        add(&mut counts, "trace.chunks", self.chunks as f64);
        Ok(PassStats {
            wall_s,
            cpu_s,
            frames: self.frames,
            sim_s: self.sim_s,
            counts,
        })
    }

    fn ladder(&mut self, ctx: &mut Ctx, layers: &mut Layers, _wall_s: f64) -> Res<()> {
        // The periodogram as the figure suite computes it: over the
        // binned series, the bin widened until 4096 bins cover the trace.
        let store = load_store(&self.input.0)?;
        let view = store.view();
        let span_ns = view
            .time_bounds()
            .map_or(0, |(lo, hi)| hi.saturating_sub(lo).as_nanos());
        let mut bin = ReportOptions::default().bin;
        if span_ns / bin.as_nanos() > SUITE_MAX_BINS {
            bin = SimTime::from_nanos(span_ns.div_ceil(SUITE_MAX_BINS));
        }
        let series = view.binned_bandwidth(bin);
        ctx.tracer.span("spectral.periodogram", |_| {
            black_box(Periodogram::compute(black_box(&series), bin));
        });
        drop(store);

        // The multi-temporal ladder alone, over columns decoded up front.
        let mut cursor = ChunkCursor::open(&self.input.0)?;
        let mut chunks: Vec<ChunkBuf> = Vec::new();
        while let Some((_, buf)) = cursor.next_chunk()? {
            chunks.push(buf.clone());
        }
        ctx.tracer.span("metrics.scaling_accum", |_| {
            let mut accum = ScalingAccum::new(MATRIX_BASE_NS, &MATRIX_SCALES);
            for c in &chunks {
                accum.record_columns(&c.time_ns, &c.src, &c.dst);
            }
            black_box(accum.finalize());
        });
        add(
            layers,
            "apps.unattributed_share",
            ctx.tracer.uncovered_share_of_passes(),
        );
        Ok(())
    }
}
