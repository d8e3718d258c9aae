//! One workload in one process: the runner forks itself per workload, so
//! that each has a fresh `VmHWM`, its own CPU affinity and no allocator
//! state left by another.

use crate::affinity;
use crate::bench::{out_dir, Bench, Ctx, Layers, PassStats, Res};
use crate::checks::Checks;
use crate::fabricbench::FabricBench;
use crate::procfs;
use crate::scanbench::ScanBench;
use crate::simbench::{Pinning, Program, SimBench};
use crate::span::Tracer;
use crate::stats::{iqr, median, range};
use crate::synth::ROUNDS_PER_WAVE;
use crate::workload::Workload;
use fxnet::telemetry::write_json_artifact;
use fxnet::KernelKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Work is divided by this in `--smoke`.
const SMOKE_SCALE: u32 = 20;
/// Fewest timed passes a median is taken over, however slow the host.
const MIN_PASSES: usize = 3;
/// Fewest pairs of an untraced and a traced pass in a traced run.
const MIN_PAIRS: usize = 2;

#[derive(Debug, Clone, PartialEq)]
pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    /// Stop after set-up: one more cold sample of `setup_s` and of
    /// `peak_rss_mb`.
    pub setup_only: bool,
}

/// What a child prints, as one line of JSON, for the runner to read.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct ChildReport {
    /// Child start to the end of the warm-up pass.
    pub setup_s: f64,
    /// `VmHWM` at that point.
    pub peak_rss_kb: u64,
    pub cores: u64,
    /// The CPU the child restricted itself to, if it did.
    pub pinned_cpu: Option<u64>,
    /// Per untraced timed pass.
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    /// Per traced pass; empty in an untraced run.
    pub traced_wall_s: Vec<f64>,
    pub frames: u64,
    pub sim_s: f64,
    pub checks_attempted: u64,
    pub failures: Vec<String>,
    pub observed: BTreeMap<String, String>,
    /// Per-layer numbers by name; empty in an untraced run.
    pub layers: Layers,
}

fn build(
    args: &ChildArgs,
    scale: u32,
    cores: usize,
    pinning: Option<Pinning>,
) -> Res<Box<dyn Bench>> {
    let rounds = ROUNDS_PER_WAVE / scale;
    // Never more runnable threads than the host has cores.
    let threads = cores.min(2);
    let sim = |programs: Vec<Program>, trunk2: bool| -> Res<Box<dyn Bench>> {
        Ok(Box::new(SimBench {
            programs,
            trunk2,
            seed: args.seed,
            scale: scale as usize,
            pinning: pinning.ok_or("simulation workloads run pinned")?,
        }))
    };
    let kernels = |ks: &[KernelKind]| ks.iter().map(|&k| Program::Kernel(k)).collect();
    Ok(match args.workload {
        Workload::BulkBus => sim(kernels(&[KernelKind::Fft2d, KernelKind::T2dfft]), false)?,
        Workload::ChattyBus => sim(
            kernels(&[KernelKind::Seq, KernelKind::Sor, KernelKind::Hist]),
            false,
        )?,
        Workload::AirshedTrunk2 => sim(vec![Program::Airshed], true)?,
        Workload::FabricSynth => Box::new(FabricBench::new(args.seed, rounds, threads)?),
        Workload::TraceScan => Box::new(ScanBench::new(args.seed, rounds, threads)?),
    })
}

/// Restrict this process to the last CPU it may use; failing to is an
/// error, never a silently unpinned measurement.
fn pin(allowed: &[usize]) -> Res<Pinning> {
    let cpu = *allowed.last().ok_or("no CPU to pin to")?;
    affinity::set_cpus(&[cpu])?;
    if affinity::allowed_cpus()? != [cpu] {
        return Err(format!("could not restrict affinity to cpu {cpu}").into());
    }
    Ok(Pinning {
        cpu,
        allowed: allowed.to_vec(),
    })
}

/// Closed loop, one client: `one(n)` runs back to back, at least
/// `at_least` times, until the next would overrun `budget`. It returns
/// the seconds it took.
fn timed_passes(
    mut one: impl FnMut(usize) -> Res<f64>,
    budget: Duration,
    at_least: usize,
) -> Res<()> {
    let start = Instant::now();
    for n in 0.. {
        let last_s = one(n)?;
        if n + 1 >= at_least && start.elapsed() + Duration::from_secs_f64(last_s) > budget {
            break;
        }
    }
    Ok(())
}

pub fn run(args: &ChildArgs) -> Res<ChildReport> {
    let started = Instant::now();
    let allowed = affinity::allowed_cpus()?;
    let pinning = args.workload.pinned().then(|| pin(&allowed)).transpose()?;
    let mut report = ChildReport {
        cores: allowed.len() as u64,
        pinned_cpu: pinning.as_ref().map(|p| p.cpu as u64),
        ..ChildReport::default()
    };

    let scale = if args.smoke { SMOKE_SCALE } else { 1 };
    let mut ctx = Ctx {
        tracer: Tracer::default(),
        checks: Checks::new(args.workload.name(), args.seed, u64::from(scale)),
    };
    let mut bench = build(args, scale, allowed.len(), pinning)?;
    // The warm-up pass: caches fill and lazy set-up finishes untimed.
    bench.pass(&mut ctx)?;
    report.setup_s = started.elapsed().as_secs_f64();
    // Read here, after the same work in every child: how many passes fit
    // into `--seconds` afterwards must not move the number.
    report.peak_rss_kb = procfs::peak_rss_kb()?;

    let mut untraced: Vec<PassStats> = Vec::new();
    let mut traced: Vec<PassStats> = Vec::new();
    // `--smoke` has no time to fill: two passes prove pass-to-pass
    // identity, one pair exercises the tracer.
    let (budget, passes, pairs) = if args.smoke {
        (Duration::ZERO, 2, 1)
    } else {
        (Duration::from_secs(args.seconds), MIN_PASSES, MIN_PAIRS)
    };
    if args.setup_only {
        // Nothing more: the runner only wants `setup_s` and the peak.
    } else if !args.traced {
        timed_passes(
            |_| {
                ctx.checks.pass += 1;
                untraced.push(bench.pass(&mut ctx)?);
                Ok(untraced.last().expect("just pushed").wall_s)
            },
            budget,
            passes,
        )?;
    } else {
        // Untraced and traced passes alternate, so that drift of the
        // host falls on both sides of `run.trace_overhead_ratio`. Half
        // the budget is theirs; the ladder takes about as long again.
        timed_passes(
            |n| {
                ctx.checks.pass += 1;
                untraced.push(bench.pass(&mut ctx)?);
                ctx.checks.pass += 1;
                ctx.tracer.enabled = true;
                ctx.tracer.pass = Some(n as u32);
                traced.push(bench.pass(&mut ctx)?);
                ctx.tracer.enabled = false;
                Ok(untraced[n].wall_s + traced[n].wall_s)
            },
            budget / 2,
            pairs,
        )?;
        ctx.tracer.enabled = true;
        ctx.tracer.pass = None;
        report.layers = layers(args, &report, bench.as_mut(), &mut ctx, &untraced, &traced)?;
        let path = out_dir().join(format!("trace_{}.json", args.workload.name()));
        write_json_artifact(path, &ctx.tracer.to_value(args.workload.name()))?;
    }

    if let Some(first) = untraced.first() {
        report.frames = first.frames;
        report.sim_s = first.sim_s;
    }
    report.wall_s = untraced.iter().map(|p| p.wall_s).collect();
    report.cpu_s = untraced.iter().map(|p| p.cpu_s).collect();
    report.traced_wall_s = traced.iter().map(|p| p.wall_s).collect();
    report.checks_attempted = ctx.checks.attempted;
    report.failures = ctx.checks.failures;
    report.observed = ctx.checks.observed;
    Ok(report)
}

/// The per-layer numbers of a traced run: the counts the program
/// exported, the harness's own, the ladder's, and every span by name.
fn layers(
    args: &ChildArgs,
    report: &ChildReport,
    bench: &mut dyn Bench,
    ctx: &mut Ctx,
    untraced: &[PassStats],
    traced: &[PassStats],
) -> Res<Layers> {
    let mut layers = Layers::new();
    let names: std::collections::BTreeSet<&String> =
        traced.iter().flat_map(|p| p.counts.keys()).collect();
    for name in names {
        let per_pass: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.counts.get(name).copied())
            .collect();
        layers.insert(name.clone(), median(&per_pass));
    }

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let wall_s = median(&walls);
    let (min, max) = range(&walls);
    for (name, value) in [
        ("run.passes", traced.len() as f64),
        ("run.wall_min_s", min),
        ("run.wall_max_s", max),
        ("run.wall_iqr_s", iqr(&walls)),
        ("run.cores", report.cores as f64),
        ("run.pinned", f64::from(u8::from(args.workload.pinned()))),
        ("run.trace_overhead_ratio", median(&traced_walls) / wall_s),
    ] {
        layers.insert(name.to_string(), value);
    }

    bench.ladder(ctx, &mut layers, wall_s)?;
    for (span, seconds) in ctx.tracer.seconds_by_name() {
        layers.insert(format!("{span}_s"), seconds);
    }
    Ok(layers)
}
