//! Shared experiment-harness code for the `repro` binary and
//! `benchmark/`: the kernel/AIRSHED runs of one process, table
//! formatting, the figure suite and the streamed chunk scan.
//!
//! The experiment index lives in DESIGN.md §4; `repro --help` lists the
//! experiment ids. Paper-vs-measured numbers are recorded in
//! EXPERIMENTS.md.

pub mod scan;

pub use scan::{
    streamed_scan, ScanConfig, ScanOutcome, MATRIX_BASE_NS, MATRIX_SCALES, SCAN_CHUNK_FRAMES,
};

use fxnet::apps::airshed::AirshedParams;
use fxnet::telemetry::RunTelemetry;
use fxnet::trace::{ReportOptions, Stats, StreamingReport, TraceStore};
use fxnet::{HostId, KernelKind, SimTime, TestbedBuilder};
use fxnet_harness::Pool;

/// One of the six measured programs: a kernel or AIRSHED.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    Kernel(KernelKind),
    Airshed,
}

impl Program {
    /// Every measured program: the five kernels, then AIRSHED.
    pub const ALL: [Program; 6] = [
        Program::Kernel(KernelKind::Sor),
        Program::Kernel(KernelKind::Fft2d),
        Program::Kernel(KernelKind::T2dfft),
        Program::Kernel(KernelKind::Seq),
        Program::Kernel(KernelKind::Hist),
        Program::Airshed,
    ];

    /// What the program is called in `[run]` lines and snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Program::Kernel(k) => k.name(),
            Program::Airshed => "AIRSHED",
        }
    }

    /// Snapshot order: kernels by name, then AIRSHED.
    fn snapshot_key(self) -> (bool, &'static str) {
        (self == Program::Airshed, self.name())
    }
}

impl From<KernelKind> for Program {
    fn from(k: KernelKind) -> Program {
        Program::Kernel(k)
    }
}

/// One measured program as the analyses read it: its trace as columns,
/// when its last rank finished, and its telemetry when that was on.
#[derive(Debug)]
pub struct ProgramRun {
    /// The promiscuous trace.
    pub store: TraceStore,
    /// Simulated time at which the last rank finished.
    pub finished_at: SimTime,
    /// Spans and counters, when the harness collects telemetry.
    pub telemetry: Option<RunTelemetry>,
}

/// The measured programs of one harness process, each simulated once by
/// [`Experiments::prewarm`] and kept as one [`ProgramRun`].
pub struct Experiments {
    /// Outer-iteration divisor (1 = full paper scale).
    pub div: usize,
    /// AIRSHED hours (paper: 100).
    pub hours: usize,
    /// Output directory for series/spectrum files.
    pub out_dir: std::path::PathBuf,
    seed: u64,
    telemetry: bool,
    /// In snapshot order.
    runs: Vec<(Program, ProgramRun)>,
}

impl Experiments {
    /// A harness writing into `out_dir`, scaling iteration counts by
    /// `1/div` and AIRSHED to `hours`.
    pub fn new(div: usize, hours: usize, out_dir: impl Into<std::path::PathBuf>) -> Experiments {
        Experiments {
            div: div.max(1),
            hours: hours.max(1),
            out_dir: out_dir.into(),
            seed: 1998,
            telemetry: false,
            runs: Vec::new(),
        }
    }

    /// Collect telemetry (phase spans + counter registry) on every run.
    /// Must be set before [`Experiments::prewarm`]; the packet traces are
    /// identical either way.
    pub fn with_telemetry(mut self, on: bool) -> Experiments {
        self.telemetry = on;
        self
    }

    /// Override the simulation seed (default 1998, the paper's year).
    /// Must be set before [`Experiments::prewarm`]: same seed, same
    /// byte-identical traces and tables.
    pub fn with_seed(mut self, seed: u64) -> Experiments {
        self.seed = seed;
        self
    }

    /// The simulation seed runs are made with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Simulate every program of `programs` not yet run, fanned across
    /// `pool`.
    ///
    /// Each program is an independent run of a fixed `(seed, config)`
    /// kept under its program, so the analyses that later read them
    /// print the same tables and write the same artifacts regardless of
    /// `pool.jobs()`. Only the `[run]` progress lines on stderr may
    /// interleave differently.
    pub fn prewarm(&mut self, pool: &Pool, programs: &[Program]) {
        let mut jobs: Vec<Program> = Vec::new();
        for &p in programs {
            if !jobs.contains(&p) && !self.runs.iter().any(|(q, _)| *q == p) {
                jobs.push(p);
            }
        }
        // Longest-job-first keeps the pool's makespan near the longest
        // single run (AIRSHED, then the talkative kernels).
        jobs.sort_by_key(|p| match p {
            Program::Airshed => 0,
            Program::Kernel(KernelKind::T2dfft) => 1,
            Program::Kernel(KernelKind::Fft2d) => 2,
            Program::Kernel(KernelKind::Seq) => 3,
            Program::Kernel(KernelKind::Sor) => 4,
            Program::Kernel(KernelKind::Hist) => 5,
        });
        let this = &*self;
        let done = pool.map(jobs, |p| (p, this.simulate(p)));
        self.runs.extend(done);
        self.runs.sort_by_key(|(p, _)| p.snapshot_key());
    }

    /// Simulate one program on a fresh paper testbed, report it on
    /// stderr, and keep its trace as columns; the record `Vec` is
    /// dropped here, in the pool worker.
    fn simulate(&self, program: Program) -> ProgramRun {
        let name = program.name();
        let t0 = std::time::Instant::now();
        let tb = TestbedBuilder::paper()
            .seed(self.seed)
            .telemetry_enabled(self.telemetry)
            .build();
        let run = match program {
            Program::Kernel(k) => tb.run_kernel(k, self.div),
            Program::Airshed => tb.run_airshed(AirshedParams {
                hours: self.hours,
                ..AirshedParams::paper()
            }),
        }
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        eprintln!(
            "[run] {name}: {} frames, {:.1} s simulated, {:.1} s wall",
            run.trace.len(),
            run.finished_at.as_secs_f64(),
            t0.elapsed().as_secs_f64()
        );
        ProgramRun {
            store: TraceStore::from_records(&run.trace),
            finished_at: run.finished_at,
            telemetry: run.telemetry,
        }
    }

    /// The run of `program`. Panics if [`Experiments::prewarm`] did not
    /// make it.
    pub fn run(&self, program: Program) -> &ProgramRun {
        self.runs
            .iter()
            .find(|(p, _)| *p == program)
            .map(|(_, run)| run)
            .unwrap_or_else(|| panic!("{} was not prewarmed", program.name()))
    }

    /// The representative host pair the paper analyzes for a kernel, if
    /// the pattern has one (§6.1): an arbitrary pair for the symmetric
    /// patterns, a cross-partition pair for T2DFFT, none for SEQ/HIST.
    pub fn representative_pair(k: KernelKind) -> Option<(HostId, HostId)> {
        match k {
            KernelKind::Sor => Some((HostId(1), HostId(2))),
            KernelKind::Fft2d => Some((HostId(0), HostId(1))),
            KernelKind::T2dfft => Some((HostId(0), HostId(2))),
            KernelKind::Seq | KernelKind::Hist => None,
        }
    }

    /// Deterministic telemetry JSON (spans + counter registry) for every
    /// run, keyed by program name in snapshot order. Runs made without
    /// telemetry are omitted.
    pub fn telemetry_value(&self) -> serde::Value {
        serde::Value::Object(
            self.runs
                .iter()
                .filter_map(|(p, run)| {
                    Some((p.name().to_string(), run.telemetry.as_ref()?.to_value()))
                })
                .collect(),
        )
    }

    /// Ensure the output directory exists and return a path inside it.
    pub fn out_path(&self, name: &str) -> std::path::PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create output dir");
        self.out_dir.join(name)
    }

    /// Every run — kernels in sorted name order, then AIRSHED — for
    /// uniform metrics snapshots over whatever the selected experiments
    /// ran.
    pub fn runs(&self) -> impl Iterator<Item = (&'static str, &ProgramRun)> {
        self.runs.iter().map(|(p, run)| (p.name(), run))
    }
}

/// Format one table row of size/interarrival statistics.
pub fn stats_row(label: &str, s: Option<Stats>) -> String {
    match s {
        Some(s) => format!(
            "{label:<10} {:>8.1} {:>9.1} {:>9.1} {:>9.1}",
            s.min, s.max, s.avg, s.sd
        ),
        None => format!("{label:<10} {:>8} {:>9} {:>9} {:>9}", "-", "-", "-", "-"),
    }
}

/// Format one average-bandwidth row (KB/s).
pub fn bandwidth_row_bw(label: &str, bw: Option<f64>) -> String {
    match bw {
        Some(bw) => format!("{label:<10} {:>10.1}", bw / 1000.0),
        None => format!("{label:<10} {:>10}", "-"),
    }
}

// --------------------------------------------------------------------
// The analysis suite: one program's full offline analysis, rendered to
// one deterministic string.

/// Longest periodogram input the suite allows. The report and spike
/// analyses clamp their bin so the series stays under this length —
/// letting a 10-hour AIRSHED trace expand to millions of bins would
/// only drown the signal in FFT time.
const SUITE_MAX_BINS: u64 = 1 << 12;

fn suite_opts(span: SimTime) -> ReportOptions {
    let mut opts = ReportOptions::default();
    let bins = span.as_nanos() / opts.bin.as_nanos().max(1);
    if bins > SUITE_MAX_BINS {
        opts.bin = SimTime::from_nanos(span.as_nanos().div_ceil(SUITE_MAX_BINS));
    }
    opts
}

struct SuiteConnRow {
    src: u32,
    dst: u32,
    frames: usize,
    sizes: Option<Stats>,
    avg_bw: Option<f64>,
}

struct Suite {
    name: String,
    frames: usize,
    bin_ns: u64,
    sizes: Option<Stats>,
    inter: Option<Stats>,
    avg_bw: Option<f64>,
    bursts: usize,
    flatness: Option<f64>,
    spikes: Vec<(f64, f64)>,
    report: String,
    conns: Vec<SuiteConnRow>,
}

impl Suite {
    fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("## {} — {} frames\n", self.name, self.frames);
        writeln!(out, "bin {} ns", self.bin_ns).expect("write");
        writeln!(out, "{}", stats_row("sizes B", self.sizes)).expect("write");
        writeln!(out, "{}", stats_row("inter ms", self.inter)).expect("write");
        writeln!(out, "{}", bandwidth_row_bw("avg KB/s", self.avg_bw)).expect("write");
        writeln!(out, "bursts {}", self.bursts).expect("write");
        match self.flatness {
            Some(f) => writeln!(out, "flatness {f:.6}").expect("write"),
            None => writeln!(out, "flatness -").expect("write"),
        }
        for (hz, power) in &self.spikes {
            writeln!(out, "spike {hz:.4} Hz power {power:.6e}").expect("write");
        }
        writeln!(out, "{}", self.report).expect("write");
        writeln!(out, "### connections").expect("write");
        for c in &self.conns {
            writeln!(
                out,
                "{:>2}->{:<2} {:>7}  {}  {}",
                c.src,
                c.dst,
                c.frames,
                stats_row("sz", c.sizes),
                bandwidth_row_bw("bw", c.avg_bw)
            )
            .expect("write");
        }
        out
    }
}

/// One program's analysis suite over its columnar store: a bounds pass
/// to size the bin, then **one** pass of the report fold, which hands
/// back every aggregate quantity together with the periodogram the
/// spike table reads; per-connection rows come from zero-copy views off
/// the connection index.
pub fn analysis_suite_columnar(name: &str, store: &TraceStore) -> String {
    let v = store.view();
    let span = v
        .time_bounds()
        .map_or(SimTime::ZERO, |(lo, hi)| hi.saturating_sub(lo));
    let opts = suite_opts(span);
    let mut fold = StreamingReport::new(name, &opts);
    fold.push_view(v);
    let (report, _series, spec) = fold.finish_parts();
    let conns = store
        .host_pairs()
        .into_iter()
        .map(|((s, d), n)| {
            let cv = store.connection(s, d); // an index lookup, no copy
            SuiteConnRow {
                src: s.0,
                dst: d.0,
                frames: n,
                sizes: cv.packet_sizes(),
                avg_bw: cv.average_bandwidth(),
            }
        })
        .collect();
    Suite {
        name: name.to_string(),
        frames: v.len(),
        bin_ns: opts.bin.as_nanos(),
        sizes: report.sizes,
        inter: report.interarrivals_ms,
        avg_bw: report.avg_bandwidth,
        bursts: report.bursts.as_ref().map_or(0, |b| b.count),
        flatness: report.flatness,
        spikes: spec
            .map(|p| {
                p.top_spikes(6, 0.25)
                    .into_iter()
                    .map(|s| (s.freq, s.power))
                    .collect()
            })
            .unwrap_or_default(),
        report: report.markdown_row(),
        conns,
    }
    .render()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fxnet::trace::{load_store, save_store, Periodogram, TraceReport, TraceView};

    /// The report composed from the view kernels, one pass over the view
    /// per quantity: the oracle for everything in this crate that takes
    /// its report from the fold.
    pub(crate) fn multipass_report(
        label: &str,
        view: TraceView<'_>,
        opts: &ReportOptions,
    ) -> TraceReport {
        let spec = (!view.is_empty())
            .then(|| Periodogram::compute(&view.binned_bandwidth(opts.bin), opts.bin));
        TraceReport {
            label: label.to_string(),
            frames: view.len(),
            span_s: view
                .time_bounds()
                .map_or(0.0, |(a, b)| (b - a).as_secs_f64()),
            sizes: view.packet_sizes(),
            interarrivals_ms: view.interarrivals_ms(),
            avg_bandwidth: view.average_bandwidth(),
            bursts: view.burst_profile(opts.burst_gap),
            dominant_hz: spec
                .as_ref()
                .and_then(|s| s.dominant_frequency(opts.min_hz)),
            flatness: spec.as_ref().map(Periodogram::flatness),
        }
    }

    /// The suite the multi-pass way: every aggregate quantity is its own
    /// pass of a view kernel instead of one pass of the fold. It renders
    /// through the same [`Suite`], so byte-identical output is
    /// bitwise-identical numbers.
    fn analysis_suite_multipass(name: &str, store: &TraceStore) -> String {
        let v = store.view();
        let span = v
            .time_bounds()
            .map_or(SimTime::ZERO, |(lo, hi)| hi.saturating_sub(lo));
        let opts = suite_opts(span);
        let binned = v.binned_bandwidth(opts.bin);
        let spec = (!binned.is_empty()).then(|| Periodogram::compute(&binned, opts.bin));
        let report = multipass_report(name, v, &opts);
        Suite {
            name: name.to_string(),
            frames: v.len(),
            bin_ns: opts.bin.as_nanos(),
            sizes: report.sizes,
            inter: report.interarrivals_ms,
            avg_bw: report.avg_bandwidth,
            bursts: report.bursts.as_ref().map_or(0, |b| b.count),
            flatness: spec.as_ref().map(Periodogram::flatness),
            spikes: spec
                .iter()
                .flat_map(|p| p.top_spikes(6, 0.25))
                .map(|s| (s.freq, s.power))
                .collect(),
            report: report.markdown_row(),
            conns: v
                .host_pairs()
                .into_iter()
                .map(|((s, d), n)| {
                    let c = store.connection(s, d);
                    SuiteConnRow {
                        src: s.0,
                        dst: d.0,
                        frames: n,
                        sizes: c.packet_sizes(),
                        avg_bw: c.average_bandwidth(),
                    }
                })
                .collect(),
        }
        .render()
    }

    /// A harness at `--div 100` with `programs` prewarmed on `pool`.
    fn warmed(pool: &Pool, programs: &[Program]) -> Experiments {
        let mut e = Experiments::new(100, 1, std::env::temp_dir().join("fxnet-test-out"));
        e.prewarm(pool, programs);
        e
    }

    #[test]
    fn harness_caches_runs() {
        let hist = Program::Kernel(KernelKind::Hist);
        let mut e = warmed(&Pool::serial(), &[hist, hist]);
        let n1 = e.run(hist).store.len();
        e.prewarm(&Pool::serial(), &[hist]);
        assert_eq!(e.runs().count(), 1, "a prewarmed program is not run again");
        assert_eq!(e.run(hist).store.len(), n1);
        assert!(n1 > 0);
    }

    #[test]
    #[should_panic(expected = "SEQ was not prewarmed")]
    fn a_program_not_prewarmed_panics() {
        warmed(&Pool::serial(), &[KernelKind::Hist.into()]).run(KernelKind::Seq.into());
    }

    #[test]
    fn prewarm_matches_the_lazy_serial_fill() {
        let programs = [
            KernelKind::Hist.into(),
            Program::Airshed,
            KernelKind::Seq.into(),
        ];
        let serial = warmed(&Pool::serial(), &programs);
        let warm = warmed(&Pool::new(3), &programs);
        for p in programs {
            assert_eq!(
                serial.run(p).store,
                warm.run(p).store,
                "{}: prewarmed runs must be byte-identical",
                p.name()
            );
        }
        // Snapshot order: kernels by name, then AIRSHED.
        let names: Vec<&str> = warm.runs().map(|(name, _)| name).collect();
        assert_eq!(names, ["HIST", "SEQ", "AIRSHED"]);
    }

    #[test]
    fn row_formatting_handles_missing_stats() {
        let row = stats_row("X", None);
        assert!(row.contains('-'));
        let row = stats_row("Y", Stats::of([1.0, 2.0]));
        assert!(row.starts_with('Y'));
    }

    #[test]
    fn analysis_suites_are_byte_identical_and_survive_both_formats() {
        let dir = std::env::temp_dir().join(format!("fxnet-suite-{}", std::process::id()));
        let hist = Program::Kernel(KernelKind::Hist);
        let store = warmed(&Pool::serial(), &[hist]).run(hist).store.clone();
        let aos = analysis_suite_multipass("HIST", &store);
        let col = analysis_suite_columnar("HIST", &store);
        assert_eq!(
            aos, col,
            "multi-pass and fold suites must render identically"
        );
        assert!(aos.contains("### connections"));

        // Round trip through the on-disk container; the reloaded suite
        // must also match byte for byte.
        std::fs::create_dir_all(&dir).expect("create dir");
        let bin = dir.join("suite.fxb");
        save_store(&bin, &store).expect("save binary");
        let from_bin = load_store(&bin).expect("load binary");
        assert_eq!(from_bin, store);
        assert_eq!(analysis_suite_columnar("HIST", &from_bin), aos);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn representative_connections_follow_the_paper() {
        let sor = Program::Kernel(KernelKind::Sor);
        let e = warmed(&Pool::serial(), &[sor]);
        assert!(Experiments::representative_pair(KernelKind::Seq).is_none());
        assert!(Experiments::representative_pair(KernelKind::Hist).is_none());
        let (src, dst) = Experiments::representative_pair(KernelKind::Sor).unwrap();
        assert_eq!((src, dst), (HostId(1), HostId(2)));
        let conn = e.run(sor).store.connection(src, dst);
        assert!(!conn.is_empty());
        assert!(conn
            .to_records()
            .iter()
            .all(|r| r.src == src && r.dst == dst));
    }

    #[test]
    fn representative_pairs_match_the_materialized_connections() {
        let sor = Program::Kernel(KernelKind::Sor);
        let e = warmed(&Pool::serial(), &[sor]);
        let (src, dst) = Experiments::representative_pair(KernelKind::Sor).unwrap();
        // The same run's records, filtered the record-oriented way.
        let conn: Vec<_> = TestbedBuilder::paper()
            .seed(e.seed())
            .build()
            .run_kernel(KernelKind::Sor, e.div)
            .unwrap()
            .trace
            .into_iter()
            .filter(|r| r.src == src && r.dst == dst)
            .collect();
        assert_eq!(e.run(sor).store.connection(src, dst).to_records(), conn);
    }
}
