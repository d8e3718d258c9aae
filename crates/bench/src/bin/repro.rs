//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p fxnet-bench --bin repro -- all --div 10
//! cargo run --release -p fxnet-bench --bin repro -- fig3 fig7 --jobs 4
//! cargo run --release -p fxnet-bench --bin repro -- --list
//! ```
//!
//! Every experiment lives in one declarative [`REGISTRY`] entry — a
//! stable id, a one-line description, which selection sets it belongs
//! to, the programs whose runs it reads, and the runner
//! — so `--list`, `--help`, dispatch, and prewarming all derive from
//! the same table (DESIGN.md §4).
//!
//! `--div N` scales the kernels' outer iteration counts by 1/N (default
//! 1 = full paper scale); `--hours H` sets AIRSHED hours (default 100);
//! `--out DIR` sets the series/spectra output directory (default
//! `out/`); `--seed N` sets the simulation seed (default 1998) — the
//! same seed reproduces every trace and table byte for byte. `--jobs N`
//! fans the independent simulations (the shared program runs, the ablation
//! and admission sweeps) across N workers; output stays byte-identical
//! to `--jobs 1` because results are collected in job order, never
//! completion order.
//!
//! Extras (run only when named): phases, summary, the ablations,
//! `all-extras` (all of those), the multi-tenant experiments `mix`
//! and `mix-admit`, the live-observability experiment `watch`
//! (streaming contract compliance; writes Prometheus-text metrics and a
//! JSONL event log, directed by `--metrics-out DIR`, default `--out`),
//! `fabric-sweep` (the six programs across the four canonical
//! topologies at 10/100/1000 Mb/s; fits burst period vs provided
//! bandwidth, checks `c` stability and single-segment byte-identity,
//! writes `out/fabric_sweep.json`), and `analysis-scale` (out-of-core
//! analytics: synthesizes a chunked 10M-frame trace through the
//! two-switch trunk fabric — `--div N` scales it down to a floor of 500k —
//! then runs the streamed one-pass chunk scan, asserting `--jobs 1`
//! transcript identity and O(chunk) peak memory; its two artifacts are
//! seed-deterministic). Speed — of the synthesis drain, the scan, the
//! figure suite, trace IO, the fabrics — is measured by `benchmark/`,
//! not here: `repro` writes no wall-clock artifact.
//!
//! Every figure comes from a run this process simulated: `repro` keeps
//! no trace on disk between invocations, so a rerun into the same
//! `--out` prints and writes the same bytes as the first run.

use fxnet::fx::Pattern;
use fxnet::mix::TenantProgram;
use fxnet::qos::{negotiate, AppDescriptor, QosNetwork};
use fxnet::sim::SimRng;
use fxnet::spectral::generate::SynthConfig;
use fxnet::spectral::{
    hurst_aggregated_variance, onoff_vbr_trace, self_similar_trace, synthesize_trace, FourierModel,
};
use fxnet::telemetry::{write_json_artifact, TraceEvent};
use fxnet::trace::PhaseBreakdown;
use fxnet::trace::{Periodogram, TraceStore};
use fxnet::{KernelKind, SimTime};
use fxnet_bench::{bandwidth_row_bw, stats_row, Experiments, Program, ProgramRun};
use fxnet_harness::{timed, Pool};
use serde::Value;
use std::io::Write;
use std::num::NonZeroUsize;

const BIN: SimTime = SimTime(10_000_000); // the paper's 10 ms window

/// Everything an experiment runner gets: the shared program runs, the
/// worker pool, the raw CLI knobs, and the experiment being run.
struct Ctx {
    exps: Experiments,
    exp: &'static Experiment,
    pool: Pool,
    div: usize,
    hours: usize,
    seed: u64,
    metrics_out: Option<String>,
}

/// One experiment: a stable id, what it is, which selection sets it
/// belongs to, which shared program runs it reads, and how to run
/// it. The whole CLI — `--list`, dispatch order, prewarming — derives
/// from this table.
struct Experiment {
    id: &'static str,
    desc: &'static str,
    /// Member of the default `all` set.
    in_all: bool,
    /// Member of `all-extras`.
    extra: bool,
    /// The programs whose shared runs the runner reads.
    needs: &'static [Program],
    run: fn(&mut Ctx),
}

impl Ctx {
    /// The shared run of `program`, which the running experiment must
    /// declare in its `needs`.
    fn run(&self, program: impl Into<Program>) -> &ProgramRun {
        let program = program.into();
        assert!(
            self.exp.needs.contains(&program),
            "experiment `{}` reads {} but does not declare it in `needs`",
            self.exp.id,
            program.name()
        );
        self.exps.run(program)
    }

    /// The trace of `program`'s shared run, as columns.
    fn store(&self, program: impl Into<Program>) -> &TraceStore {
        &self.run(program).store
    }
}

/// The five kernels, in the paper's order.
const KERNELS: [Program; 5] = [
    Program::Kernel(KernelKind::Sor),
    Program::Kernel(KernelKind::Fft2d),
    Program::Kernel(KernelKind::T2dfft),
    Program::Kernel(KernelKind::Seq),
    Program::Kernel(KernelKind::Hist),
];

/// Registry shorthand: no shared program runs needed.
const NONE: Experiment = Experiment {
    id: "",
    desc: "",
    in_all: false,
    extra: false,
    needs: &[],
    run: fig1,
};

/// The experiment registry, in execution order.
const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "fig1",
        desc: "Fx communication patterns (P = 8)",
        in_all: true,
        run: fig1,
        ..NONE
    },
    Experiment {
        id: "fig3",
        desc: "packet size statistics for Fx kernels",
        in_all: true,
        needs: &KERNELS,
        run: fig3,
        ..NONE
    },
    Experiment {
        id: "fig4",
        desc: "packet interarrival statistics for Fx kernels",
        in_all: true,
        needs: &KERNELS,
        run: fig4,
        ..NONE
    },
    Experiment {
        id: "fig5",
        desc: "average bandwidth for Fx kernels",
        in_all: true,
        needs: &KERNELS,
        run: fig5,
        ..NONE
    },
    Experiment {
        id: "fig6",
        desc: "instantaneous bandwidth of Fx kernels (series files)",
        in_all: true,
        needs: &KERNELS,
        run: fig6,
        ..NONE
    },
    Experiment {
        id: "fig7",
        desc: "power spectra of kernel bandwidth (spectrum files)",
        in_all: true,
        needs: &KERNELS,
        run: fig7,
        ..NONE
    },
    Experiment {
        id: "fig8",
        desc: "packet size statistics for AIRSHED",
        in_all: true,
        needs: &[Program::Airshed],
        run: fig8,
        ..NONE
    },
    Experiment {
        id: "fig9",
        desc: "packet interarrival statistics for AIRSHED",
        in_all: true,
        needs: &[Program::Airshed],
        run: fig9,
        ..NONE
    },
    Experiment {
        id: "airshed-avg",
        desc: "AIRSHED average bandwidth (§6.2)",
        in_all: true,
        needs: &[Program::Airshed],
        run: airshed_avg,
        ..NONE
    },
    Experiment {
        id: "fig10",
        desc: "instantaneous bandwidth of AIRSHED (series files)",
        in_all: true,
        needs: &[Program::Airshed],
        run: fig10,
        ..NONE
    },
    Experiment {
        id: "fig11",
        desc: "power spectrum of AIRSHED bandwidth",
        in_all: true,
        needs: &[Program::Airshed],
        run: fig11,
        ..NONE
    },
    Experiment {
        id: "model",
        desc: "truncated Fourier-series models of kernel bandwidth (§7.2)",
        in_all: true,
        needs: &[
            Program::Kernel(KernelKind::Fft2d),
            Program::Kernel(KernelKind::Hist),
            Program::Kernel(KernelKind::Seq),
        ],
        run: model,
        ..NONE
    },
    Experiment {
        id: "qos",
        desc: "QoS negotiation: t_bi vs P (§7.3)",
        in_all: true,
        run: qos,
        ..NONE
    },
    Experiment {
        id: "baseline",
        desc: "parallel-program vs media traffic (§1/§8)",
        in_all: true,
        needs: &[
            Program::Kernel(KernelKind::Fft2d),
            Program::Kernel(KernelKind::Hist),
        ],
        run: baseline,
        ..NONE
    },
    Experiment {
        id: "phases",
        desc: "per-phase traffic attribution (span × trace join; needs telemetry)",
        extra: true,
        needs: &Program::ALL,
        run: phases,
        ..NONE
    },
    Experiment {
        id: "summary",
        desc: "one-page markdown summary of every measured program",
        extra: true,
        needs: &Program::ALL,
        run: summary,
        ..NONE
    },
    Experiment {
        id: "ablate-switch",
        desc: "ablation: shared CSMA/CD bus vs store-and-forward switch",
        extra: true,
        run: ablate_switch,
        ..NONE
    },
    Experiment {
        id: "ablate-route",
        desc: "ablation: PVM direct TCP route vs daemon UDP relay",
        extra: true,
        run: ablate_route,
        ..NONE
    },
    Experiment {
        id: "ablate-p",
        desc: "ablation: processor-count sweep vs the §7.3 model",
        extra: true,
        run: ablate_p,
        ..NONE
    },
    Experiment {
        id: "mix",
        desc: "multi-tenant: SOR + 2DFFT + HIST sharing one wire",
        run: mix_kernels,
        ..NONE
    },
    Experiment {
        id: "mix-admit",
        desc: "multi-tenant: QoS admission under rising offered load",
        run: mix_admit,
        ..NONE
    },
    Experiment {
        id: "watch",
        desc: "live observability: streaming contract compliance",
        run: watch_live,
        ..NONE
    },
    Experiment {
        id: "blame",
        desc: "causal provenance: violation blame and collective critical paths",
        run: blame_attrib,
        ..NONE
    },
    Experiment {
        id: "fabric-sweep",
        desc: "fabric sweep: burst period vs provided bandwidth across topologies",
        run: fabric_sweep,
        ..NONE
    },
    Experiment {
        id: "fabric-health",
        desc: "fabric health: multi-resolution weather map + hotspot flagging on the hot trunk",
        run: fabric_health,
        ..NONE
    },
    Experiment {
        id: "analysis-scale",
        desc: "out-of-core analytics: streamed chunk scan of a synthesized chunked trace",
        run: analysis_scale,
        ..NONE
    },
];

/// The uniform `--metrics-out` snapshot: one Prometheus-text file per
/// experiment, carrying the run parameters and, for every program run
/// so far, its frame count and finish time — plus, when `--telemetry`
/// is on, the engine's counter registry under a `prog` label.
/// Deterministic: runs are listed in sorted order and jobs never enter
/// the snapshot, so the bytes match at any `--jobs` and across reruns
/// into the same directory.
fn write_metrics_snapshot(ctx: &Ctx, id: &str, dir: &str) {
    use fxnet::telemetry::{labeled, write_prometheus, TelemetryRegistry};
    let mut reg = TelemetryRegistry::new();
    reg.set_gauge("repro_div", ctx.div as f64);
    reg.set_gauge("repro_hours", ctx.hours as f64);
    reg.set_gauge("repro_seed", ctx.seed as f64);
    for (name, run) in ctx.exps.runs() {
        let l = [("prog", name)];
        reg.set_counter(
            labeled("repro_run_frames_total", &l),
            run.store.len() as u64,
        );
        reg.set_gauge(
            labeled("repro_run_finished_seconds", &l),
            run.finished_at.as_secs_f64(),
        );
        if let Some(tel) = &run.telemetry {
            for (k, v) in tel.registry.counters() {
                reg.set_counter(labeled(k, &l), v);
            }
            for (k, v) in tel.registry.gauges() {
                reg.set_gauge(labeled(k, &l), v);
            }
        }
    }
    let path = std::path::Path::new(dir).join(format!("repro_{id}.prom"));
    write_prometheus(&path, &reg).expect("write metrics snapshot");
    println!("wrote {}", path.display());
}

fn list_experiments() {
    println!("experiments (run with `repro <id>...`):");
    for e in REGISTRY {
        let set = if e.in_all {
            "all"
        } else if e.extra {
            "extras"
        } else {
            "named"
        };
        println!("  {:<14} [{set:<6}] {}", e.id, e.desc);
    }
    println!("\nsets: `all` (the default), `all-extras`; everything else runs only when named");
}

/// The value that follows `flag`, parsed. A missing or unreadable value
/// is a usage error, exit 2: falling back to the default would let a
/// typo in a determinism check compare a run with itself.
fn flag_value<T>(flag: &str, args: &mut impl Iterator<Item = String>) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let Some(raw) = args.next() else {
        eprintln!("{flag} needs a value — see `repro --help`");
        std::process::exit(2);
    };
    raw.parse().unwrap_or_else(|e| {
        eprintln!("{flag}: cannot read `{raw}`: {e}");
        std::process::exit(2)
    })
}

fn main() {
    let mut div = 1usize;
    let mut hours = 100usize;
    let mut out = "out".to_string();
    let mut metrics_out: Option<String> = None;
    let mut seed = 1998u64;
    let mut telemetry = false;
    let mut jobs = 1usize;
    let mut exps: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            // Zero is a usage error too: the runners divide by `Ctx.div`.
            "--div" => div = flag_value::<NonZeroUsize>(&a, &mut args).get(),
            "--hours" => hours = flag_value::<NonZeroUsize>(&a, &mut args).get(),
            "--out" => out = flag_value(&a, &mut args),
            "--metrics-out" => metrics_out = Some(flag_value(&a, &mut args)),
            "--seed" => seed = flag_value(&a, &mut args),
            "--jobs" => jobs = flag_value(&a, &mut args),
            "--telemetry" => telemetry = true,
            "--list" => {
                list_experiments();
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--div N] [--hours H] [--out DIR] [--metrics-out DIR] [--seed N] [--jobs N] [--telemetry] [--list] <exp>...\n\
                     `repro --list` prints every experiment id with its description\n\
                     sets: all (default) = every figure/table of the paper; all-extras = phases ablate-switch ablate-route ablate-p summary\n\
                     --seed N sets the simulation seed (default 1998); same seed, byte-identical output\n\
                     --jobs N fans independent runs across N workers (0 = all CPUs); output is byte-identical to --jobs 1\n\
                     --metrics-out DIR directs the watch/blame/fabric-health artifacts (default: the --out dir)\n\
                     \u{20}                 and writes a Prometheus snapshot repro_<exp>.prom per selected experiment\n\
                     --telemetry collects spans/counters and writes out/telemetry_<exp>.json"
                );
                return;
            }
            other => exps.push(other.to_string()),
        }
    }
    if exps.is_empty() {
        exps.push("all".into());
    }
    let known = |id: &str| id == "all" || id == "all-extras" || REGISTRY.iter().any(|e| e.id == id);
    let unknown: Vec<&str> = exps
        .iter()
        .map(String::as_str)
        .filter(|e| !known(e))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id(s): {} — see `repro --list`",
            unknown.join(", ")
        );
        std::process::exit(2);
    }
    let all = exps.iter().any(|e| e == "all");
    let extras = exps.iter().any(|e| e == "all-extras");
    // Selection preserves registry order, which is the execution order.
    let selected: Vec<&Experiment> = REGISTRY
        .iter()
        .filter(|e| (all && e.in_all) || (extras && e.extra) || exps.iter().any(|x| x == e.id))
        .collect();

    // The phases experiment is the span × trace join; it needs telemetry.
    if selected.iter().any(|e| e.id == "phases") && !telemetry {
        eprintln!("note: `phases` needs telemetry; enabling --telemetry\n");
        telemetry = true;
    }

    let mut ctx = Ctx {
        exps: Experiments::new(div, hours, &out)
            .with_seed(seed)
            .with_telemetry(telemetry),
        exp: &REGISTRY[0], // replaced by each selected experiment below
        pool: Pool::new(jobs),
        div,
        hours,
        seed,
        metrics_out,
    };
    if div != 1 {
        println!(
            "note: kernel iteration counts scaled by 1/{div} (pass --div 1 for full paper scale)\n"
        );
    }

    // Prewarm the union of the programs the selected experiments read,
    // fanned across the pool. Runs are keyed by program, so every
    // analysis afterwards prints the same bytes at any --jobs; only the
    // [run] progress lines on stderr interleave.
    let programs: Vec<Program> = selected.iter().flat_map(|e| e.needs).copied().collect();
    ctx.exps.prewarm(&ctx.pool, &programs);

    for e in selected {
        ctx.exp = e;
        (e.run)(&mut ctx);
        // The uniform `--metrics-out` contract: every experiment in the
        // registry leaves a Prometheus snapshot behind, not just the
        // watch/blame/fabric-health runners with bespoke artifacts.
        if let Some(dir) = ctx.metrics_out.clone() {
            write_metrics_snapshot(&ctx, e.id, &dir);
        }
    }

    // Telemetry artifacts: one deterministic JSON (spans + counter
    // registry of every run) per requested experiment id.
    // `phases` writes its own, richer artifact.
    if telemetry {
        for e in exps.iter().filter(|e| e.as_str() != "phases") {
            let path = ctx.exps.out_path(&format!("telemetry_{e}.json"));
            write_json_artifact(&path, &ctx.exps.telemetry_value())
                .expect("write telemetry artifact");
            println!("wrote {}", path.display());
        }
    }
}

// --------------------------------------------------------------------
// Per-phase traffic attribution: the span × trace join.

fn phases(c: &mut Ctx) {
    header("Per-phase traffic attribution (10 ms peak bins)");
    let ranks = fxnet::Testbed::paper().config().p;
    #[derive(serde::Serialize)]
    struct ProgramPhases {
        phases: PhaseBreakdown,
        telemetry: Value,
    }
    let mut entries: Vec<(String, Value)> = Vec::new();
    for p in Program::ALL {
        let run = c.run(p);
        let tel = run.telemetry.as_ref().expect("phases runs with telemetry");
        let phases = PhaseBreakdown::compute(run.store.view(), &tel.spans, ranks, BIN);
        println!("\n{}:", p.name());
        print!("{}", phases.table());
        let entry = ProgramPhases {
            phases,
            telemetry: tel.to_value(),
        };
        entries.push((p.name().to_string(), serde::Serialize::to_value(&entry)));
    }
    let path = c.exps.out_path("telemetry_phases.json");
    write_json_artifact(&path, &Value::Object(entries)).expect("write telemetry artifact");
    println!("\nwrote {}", path.display());
}

// --------------------------------------------------------------------
// One-page markdown summary of every measured program.

fn summary(c: &mut Ctx) {
    header("Summary: all measured programs (markdown)");
    use fxnet::trace::{markdown_table_views, ReportOptions};
    let rows: Vec<(&str, fxnet::trace::TraceView)> = Program::ALL
        .iter()
        .map(|&p| (p.name(), c.store(p).view()))
        .collect();
    println!("{}", markdown_table_views(rows, &ReportOptions::default()));
}

// --------------------------------------------------------------------
// DESIGN.md §8 ablations.

fn kernel_row(label: &str, run: &fxnet::RunResult<u64>) -> String {
    let store = TraceStore::from_records(&run.trace);
    let v = store.view();
    let bw = v.average_bandwidth().unwrap_or(0.0) / 1000.0;
    let series = v.binned_bandwidth(BIN);
    let spec = Periodogram::compute(&series, BIN);
    format!(
        "{label:<22} {:>8.1}s {:>9.1} KB/s   {:>6.2} Hz   {:>6} collisions",
        run.finished_at.as_secs_f64(),
        bw,
        spec.dominant_frequency(0.15).unwrap_or(0.0),
        run.ether.collisions
    )
}

fn ablate_switch(c: &mut Ctx) {
    header("Ablation: shared CSMA/CD bus vs store-and-forward switch");
    use fxnet::TestbedBuilder;
    let (div, seed) = (c.div, c.seed);
    // Four independent (kernel, fabric) runs; the pool returns them in
    // input order, so the table reads the same at any --jobs.
    let runs = c.pool.map(
        [KernelKind::Fft2d, KernelKind::Hist]
            .into_iter()
            .flat_map(|k| [(k, false), (k, true)])
            .collect(),
        |(k, switched)| {
            let mut b = TestbedBuilder::paper().seed(seed);
            if switched {
                b = b.switched_fabric();
            }
            b.build().run_kernel(k, div.max(5)).unwrap()
        },
    );
    for (pair, k) in runs.chunks(2).zip([KernelKind::Fft2d, KernelKind::Hist]) {
        println!(
            "
{}:",
            k.name()
        );
        println!("{}", kernel_row("  shared bus", &pair[0]));
        println!("{}", kernel_row("  switched fabric", &pair[1]));
    }
    println!(
        "
(shape: the switch removes collisions and parallelizes disjoint transfers,"
    );
    println!(" raising bandwidth and the burst fundamental — but the quiet/burst alternation");
    println!(" persists: it is program structure, not MAC contention.)");
}

fn ablate_route(c: &mut Ctx) {
    header("Ablation: PVM direct TCP route vs daemon UDP relay");
    use fxnet::pvm::Route;
    use fxnet::TestbedBuilder;
    let (div, seed) = (c.div, c.seed);
    let runs = c.pool.map(
        [KernelKind::Fft2d, KernelKind::Hist]
            .into_iter()
            .flat_map(|k| [(k, Route::Direct), (k, Route::Daemon)])
            .collect(),
        |(k, route)| {
            TestbedBuilder::paper()
                .seed(seed)
                .route(route)
                .build()
                .run_kernel(k, div.max(5))
                .unwrap()
        },
    );
    for (pair, k) in runs.chunks(2).zip([KernelKind::Fft2d, KernelKind::Hist]) {
        println!(
            "
{}:",
            k.name()
        );
        println!("{}", kernel_row("  direct (TCP)", &pair[0]));
        println!("{}", kernel_row("  daemon (UDP relay)", &pair[1]));
    }
    println!(
        "
(the daemon route is scalable but \"somewhat slow\" (§4): stop-and-wait"
    );
    println!(" relaying stretches every communication phase.)");
}

fn ablate_p(c: &mut Ctx) {
    header("Ablation: processor-count sweep vs the §7.3 model");
    use fxnet::pvm::MessageBuilder;
    use fxnet::TestbedBuilder;
    let work = SimTime::from_secs(8);
    let n_bytes = 200_000usize;
    let seed = c.seed;
    println!(
        "shift pattern, W = {}s total work, N = {} KB bursts:",
        work.as_secs_f64(),
        n_bytes / 1000
    );
    println!("    P    model t_bi    measured t_bi");
    // One run per P; the pool returns rows in input order no matter
    // which worker finishes first.
    let rows = c.pool.map(vec![2u32, 4, 8], move |p| {
        let run = TestbedBuilder::quiet(p).seed(seed).build().run(move |ctx| {
            let me = ctx.rank();
            let np = ctx.nprocs();
            let per_rank = SimTime::from_nanos(work.as_nanos() / u64::from(np));
            for i in 0..8usize {
                ctx.compute_time(per_rank);
                let mut b = MessageBuilder::new(i as i32);
                b.pack_bytes(&vec![0u8; n_bytes]);
                ctx.send((me + 1) % np, b.finish());
                let _ = ctx.recv((me + np - 1) % np);
            }
        });
        let profile = TraceStore::from_records(&run.trace)
            .view()
            .burst_profile(SimTime::from_millis(300))
            .expect("bursts");
        let measured = profile.intervals.map_or(f64::NAN, |i| i.avg);
        let app = AppDescriptor::scalable(Pattern::Shift { k: 1 }, work.as_secs_f64(), move |_| {
            n_bytes as u64
        });
        let net = QosNetwork::ethernet_10mbps();
        let bw = net.offer(app.concurrent_connections(p)).expect("offer");
        let model = app.timing(p, bw).t_interval;
        format!("   {p:>2}    {model:>9.2}s    {measured:>12.2}s")
    });
    for row in rows {
        println!("{row}");
    }
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

// --------------------------------------------------------------------
// Multi-tenant experiments: the mixed workload and the admission sweep.

fn mix_kernels(c: &mut Ctx) {
    header("Mixed workload: SOR + 2DFFT + HIST sharing one wire");
    use fxnet::mix::MixTenant;
    use fxnet::TestbedBuilder;
    let ctx = &c.exps;
    let div = ctx.div;
    // 2DFFT alone presents a ~1.4 MB/s mean load — more than the paper's
    // whole 10 Mb/s Ethernet — so the admission controller would
    // (correctly) refuse the three-way mix there; see `mix-admit` for
    // that regime. The co-scheduling experiment runs on a 100 Mb/s
    // fabric instead.
    println!("(fabric: 100 Mb/s shared; the 10 Mb/s saturation regime is `mix-admit`)");
    let out = TestbedBuilder::paper()
        .seed(ctx.seed())
        .bandwidth_bps(fxnet::sim::RATE_100M)
        .build()
        .mix()
        .network(QosNetwork::of_rate(fxnet::sim::RATE_100M))
        .tenant(MixTenant::kernel(
            "SOR",
            KernelKind::Sor,
            div,
            4,
            SimTime::ZERO,
        ))
        .tenant(MixTenant::kernel(
            "2DFFT",
            KernelKind::Fft2d,
            div,
            4,
            SimTime::from_millis(250),
        ))
        .tenant(MixTenant::kernel(
            "HIST",
            KernelKind::Hist,
            div,
            4,
            SimTime::from_millis(500),
        ))
        .run();
    let total = out.check_conservation();
    print!("{}", out.report());

    println!("\n-- demuxed packet sizes: mixed vs solo (bytes) --");
    println!("              min       max       avg        sd");
    for t in &out.tenants {
        println!("{}", stats_row(&t.name, t.sizes));
        println!("{}", stats_row("  solo", t.solo_sizes));
    }
    println!("\n-- average bandwidth: mixed vs solo (KB/s) --");
    for t in &out.tenants {
        println!(
            "{:<10} {:>10.1}   solo {:>10.1}",
            t.name,
            t.avg_bw.unwrap_or(0.0) / 1000.0,
            t.solo_avg_bw.unwrap_or(0.0) / 1000.0
        );
    }

    // The combined spectrum of the shared wire: three periodic programs
    // superpose; their fundamentals coexist in one periodogram.
    let series = out.store.view().binned_bandwidth(BIN);
    let spec = Periodogram::compute(&series, BIN);
    println!("\n-- combined spectrum of the shared wire --");
    println!(
        "dominant {:.2} Hz, flatness {:.4}",
        spec.dominant_frequency(0.15).unwrap_or(0.0),
        spec.flatness()
    );
    for s in spec.top_spikes(6, 0.25) {
        println!("    spike {:>6.2} Hz  power {:.2e}", s.freq, s.power);
    }
    println!(
        "\nconservation: {} + {} background = {} frames total (exact)",
        out.tenants
            .iter()
            .map(|t| t.frames.to_string())
            .collect::<Vec<_>>()
            .join(" + "),
        out.background,
        total
    );
}

fn mix_admit(c: &mut Ctx) {
    header("QoS admission under rising offered load (shift tenants, P=4)");
    use fxnet::mix::MixTenant;
    use fxnet::TestbedBuilder;
    use std::fmt::Write as _;
    let seed = c.seed;
    println!("offered  admitted  rejected  residual KB/s");
    // Each offered-load level is an independent mix run; the pool
    // returns them in input order, so the report prints in order.
    let blocks = c.pool.map((1..=4usize).collect(), move |offered| {
        // Identical §7.3 shift tenants: 2 s of work per cycle,
        // 400 KB bursts. Each admission commits its negotiated mean
        // load, so the residual shrinks until the burst-bandwidth
        // floor (50 KB/s) refuses the next.
        let tenant = |i: usize| MixTenant::shift(&format!("T{}", i + 1), 2.0, 400_000, 3, 4);
        let net = || QosNetwork::ethernet_10mbps().with_min_burst_bw(50_000.0);
        let mut b = TestbedBuilder::paper()
            .seed(seed)
            .heartbeats(false)
            .build()
            .mix()
            .network(net())
            .solo_baselines(offered == 2);
        for i in 0..offered {
            b = b.tenant(tenant(i));
        }
        let out = b.run();
        let committed: f64 = out.tenants.iter().map(|t| t.negotiation.mean_load).sum();
        let mut s = String::new();
        writeln!(
            s,
            "{offered:>7}  {:>8}  {:>8}  {:>13.1}",
            out.tenants.len(),
            out.rejected.len(),
            (net().capacity() - committed) / 1000.0
        )
        .expect("write row");
        for r in &out.rejected {
            writeln!(s, "         {r}").expect("write row");
        }
        if offered == 2 {
            writeln!(
                s,
                "         measured vs predicted slowdown at offered load 2:"
            )
            .expect("write row");
            for t in &out.tenants {
                writeln!(
                    s,
                    "           {}: measured {:.3}  QoS-model predicted {:.3}",
                    t.name,
                    t.measured_slowdown.unwrap_or(f64::NAN),
                    t.predicted_slowdown
                )
                .expect("write row");
            }
        }
        (s, !out.rejected.is_empty())
    });
    let mut any_rejected = false;
    for (block, rejected) in blocks {
        print!("{block}");
        any_rejected |= rejected;
    }
    assert!(
        any_rejected,
        "the sweep must exhaust the residual bandwidth and reject"
    );
    println!("\n(the model splits burst bandwidth over every admitted tenant's concurrent");
    println!(" connections; the measured slowdown comes from actually sharing the wire.)");
}

// --------------------------------------------------------------------
// Live observability: the streaming watcher on the mixed workload.

/// The over-driver mix `watch` and `blame` run: on a 100 Mb/s shared
/// wire, SOR honestly declares its compile-time descriptor while 2DFFT,
/// starting 250 ms later, presents only 1/8 of its true burst sizes at
/// admission, and the streaming watcher is on. With `causal`, every
/// frame also carries a compact cause tag through pvm, TCP
/// segmentation/retransmission and the MAC; the tag rides a side-table,
/// so the trace is the same either way.
fn over_driver_mix(ctx: &Experiments, causal: bool) -> fxnet::mix::MixOutcome {
    use fxnet::mix::MixTenant;
    use fxnet::TestbedBuilder;
    TestbedBuilder::paper()
        .seed(ctx.seed())
        .bandwidth_bps(fxnet::sim::RATE_100M)
        .build()
        .mix()
        .network(QosNetwork::of_rate(fxnet::sim::RATE_100M))
        .solo_baselines(false)
        .causal(causal)
        .tenant(MixTenant::kernel(
            "SOR",
            KernelKind::Sor,
            ctx.div,
            4,
            SimTime::ZERO,
        ))
        .tenant(
            MixTenant::kernel(
                "2DFFT",
                KernelKind::Fft2d,
                ctx.div,
                4,
                SimTime::from_millis(250),
            )
            .with_claim_scale(0.125),
        )
        .watch()
        .run()
}

fn watch_live(c: &mut Ctx) {
    header("Live watch: streaming contract compliance on the shared wire");
    use fxnet::telemetry::write_prometheus;
    let metrics_out = c.metrics_out.as_deref();
    let ctx = &c.exps;
    // Offline analysis would catch the over-driver after the run — the
    // streaming watcher catches it while the frames are still going by,
    // from the same frame tap that feeds the trace (zero perturbation:
    // the trace is byte-identical with the watcher off).
    println!("(fabric: 100 Mb/s shared; 2DFFT claims 1/8 of its true burst sizes)");
    let out = over_driver_mix(ctx, false);
    for r in &out.rejected {
        println!("rejected: {r}");
    }
    let report = out.watch.as_ref().expect("watch was enabled");
    print!("{}", report.summary());

    let dir = metrics_out
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| ctx.out_dir.clone());
    std::fs::create_dir_all(&dir).expect("create metrics dir");
    let prom = dir.join("watch.prom");
    write_prometheus(&prom, &report.registry).expect("write prometheus metrics");
    let jsonl = dir.join("watch_events.jsonl");
    std::fs::write(&jsonl, report.events_jsonl()).expect("write event log");
    println!("\nwrote {} and {}", prom.display(), jsonl.display());

    assert_eq!(
        report.violations_for("2DFFT"),
        1,
        "the over-driver must be caught (one latched violation)"
    );
    assert_eq!(
        report.violations_for("SOR"),
        0,
        "the honest tenant must stay clean"
    );
    println!("caught: 2DFFT latched 1 ContractViolation; SOR stayed clean");
}

// --------------------------------------------------------------------
// Causal provenance: blame the violation, extract the critical paths.

fn blame_attrib(c: &mut Ctx) {
    header("Causal provenance: who caused the violation, where the time went");
    use fxnet::causal::{
        blame_violation, chrome_trace, collective_paths, dag_value, CauseDag, CollectivePath,
        DagJson, ViolationBlame,
    };
    use fxnet::mix::MixTenant;
    use fxnet::TestbedBuilder;
    let metrics_out = c.metrics_out.as_deref();
    let ctx = &c.exps;
    let div = ctx.div;
    println!("(the `watch` scenario, with every frame tagged by its causing op)");
    let out = over_driver_mix(ctx, true);
    let report = out.watch.as_ref().expect("watch was enabled");
    let run = out.causal.as_ref().expect("causal capture was enabled");

    let dag = CauseDag::build(run, &out.store).expect("one causal event per trace row");
    let conservation = dag
        .check_conservation()
        .unwrap_or_else(|e| panic!("byte conservation must hold: {e}"));
    assert_eq!(
        conservation.untagged_frames, 0,
        "every delivered frame must carry a cause"
    );
    println!(
        "cause DAG: {} ops -> {} frames ({} retransmitted, {} protocol); {} data bytes conserved",
        conservation.ops,
        run.events.len(),
        conservation.retransmitted_frames,
        conservation.protocol_frames,
        conservation.data_bytes,
    );

    let event = report
        .events
        .iter()
        .find(|e| e.tenant == "2DFFT")
        .expect("the over-driver latches a violation");
    let blame = blame_violation(event, run, &out.store, &out.map);
    assert!(
        blame.matched,
        "the flight recorder must be located in the causal stream"
    );
    let top = blame.top().expect("violation has causing chains");
    assert_eq!(
        top.tenant, "2DFFT",
        "blame must land on the over-driving tenant"
    );
    println!(
        "violation `{}` at {:.3} ms, {}-frame window:",
        blame.check,
        blame.time.as_nanos() as f64 / 1e6,
        blame.window,
    );
    for chain in &blame.chains {
        println!(
            "  {} rank {}: {} ops -> {} frames, {} wire bytes",
            chain.tenant, chain.rank, chain.ops, chain.frames, chain.bytes
        );
    }
    println!(
        "blamed: {} (rank {}) with {} wire bytes",
        top.tenant, top.rank, top.bytes
    );

    let spans = &out
        .telemetry
        .as_ref()
        .expect("causal capture forces telemetry")
        .spans;
    let paths = collective_paths(run, &out.store, spans, &out.map);
    assert!(!paths.is_empty(), "the kernels run collective spans");
    for p in &paths {
        assert_eq!(
            p.segments.total_ns(),
            p.elapsed_ns,
            "{}/{}#{}: segments must sum exactly to elapsed",
            p.tenant,
            p.name,
            p.instance
        );
    }
    let sor = paths
        .iter()
        .filter(|p| p.tenant == "SOR")
        .max_by_key(|p| p.elapsed_ns)
        .expect("SOR runs boundary exchanges");
    let sor_link = sor
        .blocking_link
        .as_ref()
        .expect("SOR's critical path names the contended link");
    println!(
        "SOR critical path: {}#{} straggler rank {}, contended link {}",
        sor.name, sor.instance, sor.straggler_rank, sor_link
    );
    let heavy = paths
        .iter()
        .max_by_key(|p| p.elapsed_ns)
        .expect("paths is non-empty");
    println!(
        "{} collective critical paths; heaviest: {}/{}#{} straggler rank {} ({:.3} ms{})",
        paths.len(),
        heavy.tenant,
        heavy.name,
        heavy.instance,
        heavy.straggler_rank,
        heavy.elapsed_ns as f64 / 1e6,
        heavy
            .blocking_link
            .as_ref()
            .map_or_else(String::new, |l| format!(", blocked on {l}")),
    );

    // The same attribution machinery on a multi-segment fabric: pin the
    // kernel's ranks alternately across two switches joined by an
    // oversubscribed trunk (fast edge ports, slow backbone), so every
    // neighbor exchange crosses the inter-switch link and the critical
    // paths name the contended trunk.
    println!("\n-- trunked topology: naming the contended trunk --");
    let spec = oversubscribed_trunk2(9);
    let trunked = TestbedBuilder::paper()
        .seed(ctx.seed())
        .topology(spec)
        .build()
        .mix()
        .solo_baselines(false)
        .causal(true)
        .tenant(MixTenant::kernel(
            "SOR",
            KernelKind::Sor,
            div,
            4,
            SimTime::ZERO,
        ))
        .run();
    let trun = trunked.causal.as_ref().expect("causal capture was enabled");
    let tspans = &trunked
        .telemetry
        .as_ref()
        .expect("causal capture forces telemetry")
        .spans;
    let tpaths = collective_paths(trun, &trunked.store, tspans, &trunked.map);
    let trunk_paths: Vec<_> = tpaths
        .iter()
        .filter(|p| {
            p.blocking_link
                .as_deref()
                .is_some_and(|l| l.starts_with("trunk:"))
        })
        .collect();
    assert!(
        !trunk_paths.is_empty(),
        "cross-switch collectives must be blocked on the trunk"
    );
    let worst = trunk_paths
        .iter()
        .max_by_key(|p| p.elapsed_ns)
        .expect("non-empty");
    let trunk_link = worst.blocking_link.clone().expect("filtered on the link");
    println!(
        "contended trunk named: {trunk_link} ({} of {} collective paths blocked on it; worst {}#{} straggler rank {})",
        trunk_paths.len(),
        tpaths.len(),
        worst.name,
        worst.instance,
        worst.straggler_rank,
    );

    let dir = metrics_out
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| ctx.out_dir.clone());
    std::fs::create_dir_all(&dir).expect("create artifacts dir");
    #[derive(serde::Serialize)]
    struct BlameReport {
        blame: ViolationBlame,
        critical_paths: Vec<CollectivePath>,
        dag: DagJson,
        trunk: TrunkBlame,
    }
    #[derive(serde::Serialize)]
    struct TrunkBlame {
        link: String,
        paths_blocked: usize,
        paths_total: usize,
    }
    let trace_path = dir.join("blame_trace.json");
    write_json_artifact(&trace_path, &chrome_trace(&paths, &out.map)).expect("write chrome trace");
    let blame_path = dir.join("blame.json");
    let trunk = TrunkBlame {
        link: trunk_link,
        paths_blocked: trunk_paths.len(),
        paths_total: tpaths.len(),
    };
    let report = BlameReport {
        blame,
        critical_paths: paths,
        dag: dag_value(&dag, &out.map),
        trunk,
    };
    write_json_artifact(&blame_path, &report).expect("write blame report");
    println!(
        "wrote {} and {} (load the trace at ui.perfetto.dev)",
        blame_path.display(),
        trace_path.display()
    );
}

// --------------------------------------------------------------------
// Figure 1: the communication patterns.

fn fig1(_c: &mut Ctx) {
    header("Figure 1: Fx communication patterns (P = 8)");
    for pat in [
        Pattern::Neighbor,
        Pattern::AllToAll,
        Pattern::Partition,
        Pattern::Broadcast { root: 0 },
        Pattern::TreeUp,
        Pattern::TreeDown,
    ] {
        let sched = pat.schedule(8);
        println!(
            "\n{} — {} connections, {} round(s):",
            pat.name(),
            pat.connection_count(8),
            sched.len()
        );
        for (i, round) in sched.iter().enumerate() {
            let pairs: Vec<String> = round.iter().map(|(s, d)| format!("{s}->{d}")).collect();
            println!("  round {i}: {}", pairs.join(" "));
        }
    }
}

// --------------------------------------------------------------------
// Figures 3–5: kernel tables.

fn fig3(c: &mut Ctx) {
    header("Figure 3: packet size statistics for Fx kernels (bytes)");
    println!("-- aggregate --     min       max       avg        sd");
    for k in KernelKind::ALL {
        let s = c.store(k).view().packet_sizes();
        println!("{}", stats_row(k.name(), s));
    }
    println!("-- connection --    min       max       avg        sd");
    for k in KernelKind::ALL {
        // A zero-copy connection view: an index lookup, not a filter.
        let s = Experiments::representative_pair(k)
            .and_then(|(a, b)| c.store(k).connection(a, b).packet_sizes());
        println!("{}", stats_row(k.name(), s));
    }
    println!("(paper aggregate: SOR 58/1518/473/568, 2DFFT 58/1518/969/678, T2DFFT 58/1518/912/663, SEQ 58/90/75/14, HIST 58/1518/499/575)");
}

fn fig4(c: &mut Ctx) {
    header("Figure 4: packet interarrival time statistics for Fx kernels (ms)");
    println!("-- aggregate --     min       max       avg        sd");
    for k in KernelKind::ALL {
        let s = c.store(k).view().interarrivals_ms();
        println!("{}", stats_row(k.name(), s));
    }
    println!("-- connection --    min       max       avg        sd");
    for k in KernelKind::ALL {
        let s = Experiments::representative_pair(k)
            .and_then(|(a, b)| c.store(k).connection(a, b).interarrivals_ms());
        println!("{}", stats_row(k.name(), s));
    }
    println!("(paper aggregate avg: SOR 82.1, 2DFFT 1.3, T2DFFT 1.5, SEQ 1.3, HIST 16.5)");
}

fn fig5(c: &mut Ctx) {
    header("Figure 5: average bandwidth for Fx kernels (KB/s)");
    println!("-- aggregate --      KB/s");
    for k in KernelKind::ALL {
        let bw = c.store(k).view().average_bandwidth();
        println!("{}", bandwidth_row_bw(k.name(), bw));
    }
    println!("-- connection --     KB/s");
    for k in KernelKind::ALL {
        match Experiments::representative_pair(k) {
            Some((a, b)) => {
                let bw = c.store(k).connection(a, b).average_bandwidth();
                println!("{}", bandwidth_row_bw(k.name(), bw));
            }
            None => println!("{:<10} {:>10}", k.name(), "-"),
        }
    }
    println!("(paper aggregate: SOR 5.6, 2DFFT 754.8, T2DFFT 607.1, SEQ 58.3, HIST 29.6)");
}

// --------------------------------------------------------------------
// Figures 6–7: instantaneous bandwidth + spectra.

// Both dumps write through a `BufWriter` (one `write` per 8 KiB, not per
// line) and flush it explicitly, so a failed final write still panics
// instead of being dropped with the writer.

fn dump_series(path: &std::path::Path, series: &[(SimTime, f64)], max_t: f64) {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create series file"));
    for (t, v) in series {
        let ts = t.as_secs_f64();
        if ts > max_t {
            break;
        }
        writeln!(f, "{ts:.4} {:.2}", v / 1000.0).expect("write");
    }
    f.flush().expect("write");
}

fn dump_spectrum(path: &std::path::Path, spec: &Periodogram, max_hz: f64) {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).expect("create spectrum file"));
    for i in 0..spec.power.len() {
        let hz = spec.freq(i);
        if hz > max_hz {
            break;
        }
        writeln!(f, "{hz:.5} {:.4e}", spec.power[i]).expect("write");
    }
    f.flush().expect("write");
}

fn fig6(c: &mut Ctx) {
    header("Figure 6: instantaneous bandwidth of Fx kernels (10 ms window)");
    for k in KernelKind::ALL {
        let win = c.store(k).view().sliding_window_bandwidth(BIN);
        let path = c.exps.out_path(&format!("{}.all.winbw", k.name()));
        dump_series(&path, &win, 10.0);
        println!(
            "wrote {} ({} points, 10 s span)",
            path.display(),
            win.len().min(10_000)
        );
        if let Some((a, b)) = Experiments::representative_pair(k) {
            let win = c.store(k).connection(a, b).sliding_window_bandwidth(BIN);
            let path = c.exps.out_path(&format!("{}.conn.winbw", k.name()));
            dump_series(&path, &win, 10.0);
            println!("wrote {}", path.display());
        }
    }
}

fn fig7(c: &mut Ctx) {
    header("Figure 7: power spectra of kernel bandwidth (10 ms bins)");
    let paper = [
        ("SOR", "conn ~5 Hz fundamental; aggregate less clean"),
        ("2DFFT", "aggregate 0.5 Hz fundamental, declining harmonics"),
        ("T2DFFT", "least clean spectra of all kernels"),
        ("SEQ", "4 Hz harmonic dominant"),
        ("HIST", "5 Hz fundamental, linearly declining harmonics"),
    ];
    for (k, (_, note)) in KernelKind::ALL.into_iter().zip(paper) {
        let series = c.store(k).view().binned_bandwidth(BIN);
        let spec = Periodogram::compute(&series, BIN);
        let path = c.exps.out_path(&format!("{}.all.spectrum", k.name()));
        dump_spectrum(&path, &spec, 50.0);
        let dom = spec.dominant_frequency(0.15).unwrap_or(0.0);
        println!(
            "\n{}: aggregate dominant {:.2} Hz, flatness {:.4}  [paper: {note}]",
            k.name(),
            dom,
            spec.flatness()
        );
        for s in spec.top_spikes(4, 0.25) {
            println!("    spike {:>6.2} Hz  power {:.2e}", s.freq, s.power);
        }
        if let Some((a, b)) = Experiments::representative_pair(k) {
            let cs = c.store(k).connection(a, b).binned_bandwidth(BIN);
            let cspec = Periodogram::compute(&cs, BIN);
            let path = c.exps.out_path(&format!("{}.conn.spectrum", k.name()));
            dump_spectrum(&path, &cspec, 50.0);
            println!(
                "    connection dominant {:.2} Hz, flatness {:.4}",
                cspec.dominant_frequency(0.15).unwrap_or(0.0),
                cspec.flatness()
            );
        }
    }
}

// --------------------------------------------------------------------
// Figures 8–11 + §6.2: AIRSHED.

fn fig8(c: &mut Ctx) {
    header("Figure 8: packet size statistics for AIRSHED (bytes)");
    let store = c.store(Program::Airshed);
    println!("{}", stats_row("aggregate", store.view().packet_sizes()));
    let conn = store.connection(fxnet::HostId(0), fxnet::HostId(1));
    println!("{}", stats_row("connection", conn.packet_sizes()));
    println!("(paper: aggregate 58/1518/899/693; connection 58/1518/889/688)");
}

fn fig9(c: &mut Ctx) {
    header("Figure 9: packet interarrival statistics for AIRSHED (ms)");
    let store = c.store(Program::Airshed);
    println!(
        "{}",
        stats_row("aggregate", store.view().interarrivals_ms())
    );
    let conn = store.connection(fxnet::HostId(0), fxnet::HostId(1));
    println!("{}", stats_row("connection", conn.interarrivals_ms()));
    println!("(paper: aggregate 0/23448.6/26.8/513.3; connection 0/37018.5/317.4/2353.6)");
}

fn airshed_avg(c: &mut Ctx) {
    header("§6.2: AIRSHED average bandwidth");
    let store = c.store(Program::Airshed);
    let agg = store.view().average_bandwidth().unwrap_or(0.0) / 1000.0;
    let cbw = store
        .connection(fxnet::HostId(0), fxnet::HostId(1))
        .average_bandwidth()
        .unwrap_or(0.0)
        / 1000.0;
    println!("aggregate  {agg:>8.1} KB/s   (paper: 32.7)");
    println!("connection {cbw:>8.1} KB/s   (paper:  2.7)");
}

fn fig10(c: &mut Ctx) {
    header("Figure 10: instantaneous bandwidth of AIRSHED (10 ms window)");
    let total = c.run(Program::Airshed).finished_at.as_secs_f64();
    let win = c
        .store(Program::Airshed)
        .view()
        .sliding_window_bandwidth(BIN);
    let p500 = c.exps.out_path("AIRSHED.all.winbw.500s");
    dump_series(&p500, &win, 500.0f64.min(total));
    let p60 = c.exps.out_path("AIRSHED.all.winbw.60s");
    dump_series(&p60, &win, 60.0f64.min(total));
    println!("wrote {} and {}", p500.display(), p60.display());
    let cw = c
        .store(Program::Airshed)
        .connection(fxnet::HostId(0), fxnet::HostId(1))
        .sliding_window_bandwidth(BIN);
    let pc = c.exps.out_path("AIRSHED.conn.winbw.500s");
    dump_series(&pc, &cw, 500.0f64.min(total));
    println!("wrote {}", pc.display());
}

fn fig11(c: &mut Ctx) {
    header("Figure 11: power spectrum of AIRSHED bandwidth");
    let series = c.store(Program::Airshed).view().binned_bandwidth(BIN);
    let spec = Periodogram::compute(&series, BIN);
    for (suffix, max_hz) in [("0.1hz", 0.1), ("1hz", 1.0), ("20hz", 20.0)] {
        let path = c.exps.out_path(&format!("AIRSHED.spectrum.{suffix}"));
        dump_spectrum(&path, &spec, max_hz);
        println!("wrote {}", path.display());
    }
    println!("\nband peaks (paper: ≈0.015 Hz hour, ≈0.2 Hz chem step, ≈5 Hz transport):");
    for (label, lo, hi) in [
        ("hour  ", 0.005, 0.05),
        ("step  ", 0.08, 0.8),
        ("trans ", 1.0, 20.0),
    ] {
        let mut best = (0.0, 0.0);
        for i in 1..spec.power.len() {
            let f = spec.freq(i);
            if f >= lo && f < hi && spec.power[i] > best.1 {
                best = (f, spec.power[i]);
            }
        }
        println!(
            "  {label} {:.4} Hz (period {:>6.1} s)  power {:.2e}",
            best.0,
            1.0 / best.0.max(1e-9),
            best.1
        );
    }
}

// --------------------------------------------------------------------
// §7.2 model, §7.3 QoS, §1/§8 baseline comparison.

fn model(c: &mut Ctx) {
    header("§7.2: truncated Fourier-series models of kernel bandwidth");
    for k in [KernelKind::Fft2d, KernelKind::Hist, KernelKind::Seq] {
        let series = c.store(k).view().binned_bandwidth(BIN);
        let spec = Periodogram::compute(&series, BIN);
        println!(
            "\n{}:  spikes  captured-power  reconstruction-RMS",
            k.name()
        );
        for n in [1usize, 2, 4, 8, 16, 32, 64] {
            let m = FourierModel::from_periodogram(&spec, n, 0.05);
            println!(
                "        {n:>5}  {:>13.1}%  {:>17.3}",
                m.captured_power_fraction(&spec) * 100.0,
                m.reconstruction_error(&series, BIN)
            );
        }
        // Regenerate synthetic traffic from the 16-spike model.
        let m = FourierModel::from_periodogram(&spec, 16, 0.05);
        let mut rng = SimRng::new(1998);
        let synth = synthesize_trace(
            &m,
            SimTime::from_secs_f64((series.len() as f64 * 0.01).min(120.0)),
            &SynthConfig::default(),
            &mut rng,
        );
        if !synth.is_empty() {
            let series = TraceStore::from_records(&synth)
                .view()
                .binned_bandwidth(BIN);
            let sp = Periodogram::compute(&series, BIN);
            println!(
                "        regenerated: dominant {:.2} Hz vs measured {:.2} Hz",
                sp.dominant_frequency(0.15).unwrap_or(0.0),
                spec.dominant_frequency(0.15).unwrap_or(0.0)
            );
        }
    }
}

fn qos(_c: &mut Ctx) {
    header("§7.3: QoS negotiation (t_bi vs P; the network returns P)");
    let net = QosNetwork::ethernet_10mbps();
    let apps: Vec<(&str, AppDescriptor)> = vec![
        (
            "2DFFT-like (all-to-all)",
            AppDescriptor::scalable(Pattern::AllToAll, 24.0, |p| (512 / u64::from(p)).pow(2) * 8),
        ),
        (
            "SOR-like (neighbor)",
            AppDescriptor::scalable(Pattern::Neighbor, 60.0, |_| 4096),
        ),
        (
            "shift, 1 MB bursts",
            AppDescriptor::scalable(Pattern::Shift { k: 1 }, 8.0, |_| 1_000_000),
        ),
    ];
    for (label, app) in &apps {
        println!("\n{label}:");
        println!("    P   B/conn KB/s     t_b s    t_bi s");
        for p in [2u32, 4, 8, 16] {
            if let Some(bw) = net.offer(app.concurrent_connections(p)) {
                let t = app.timing(p, bw);
                println!(
                    "   {p:>2}   {:>11.1}  {:>8.3}  {:>8.3}",
                    bw / 1000.0,
                    t.t_burst,
                    t.t_interval
                );
            }
        }
        match negotiate(app, &net, 1..=16) {
            Some(n) => println!("   -> network returns P = {}", n.p),
            None => println!("   -> rejected"),
        }
    }
}

fn baseline(c: &mut Ctx) {
    header("§1/§8: parallel-program vs media traffic");
    let mut rows: Vec<(String, f64, f64, Option<f64>)> = Vec::new();
    for k in [KernelKind::Fft2d, KernelKind::Hist] {
        let v = c.store(k).view();
        let series = v.binned_bandwidth(BIN);
        let spec = Periodogram::compute(&series, BIN);
        let conc = FourierModel::from_periodogram(&spec, 8, 0.1).captured_power_fraction(&spec);
        let coarse = v.binned_bandwidth(SimTime::from_millis(50));
        rows.push((
            k.name().to_string(),
            spec.flatness(),
            conc,
            hurst_aggregated_variance(&coarse),
        ));
    }
    let mut rng = SimRng::new(77);
    let dur = SimTime::from_secs(120);
    let vbr = onoff_vbr_trace(400_000.0, 0.4, 0.6, 1000, dur, &mut rng);
    let ss = self_similar_trace(16, 40_000.0, 1.5, 0.5, 800, dur, &mut rng);
    for (name, tr) in [("VBR on/off", vbr), ("self-similar", ss)] {
        let store = TraceStore::from_records(&tr);
        let series = store.view().binned_bandwidth(BIN);
        let spec = Periodogram::compute(&series, BIN);
        let conc = FourierModel::from_periodogram(&spec, 8, 0.1).captured_power_fraction(&spec);
        let coarse = store.view().binned_bandwidth(SimTime::from_millis(50));
        rows.push((
            name.to_string(),
            spec.flatness(),
            conc,
            hurst_aggregated_variance(&coarse),
        ));
    }
    println!("source         flatness   8-spike-power   Hurst");
    for (name, flat, conc, h) in rows {
        let h = h.map_or("   -".to_string(), |v| format!("{v:.2}"));
        println!("{name:<14} {flat:>8.4}   {:>12.1}%   {h}", conc * 100.0);
    }
    println!("(expected shape: kernels = low flatness, high spike concentration; media = the reverse; self-similar H > 0.6)");
}

// --------------------------------------------------------------------
// The fabric bandwidth sweep: burst period vs provided bandwidth.

/// One of the six measured programs, parameterized by the fabric it
/// runs on.
#[derive(Clone, Copy)]
enum SweepProg {
    Kernel(KernelKind),
    /// The §7.3 shift pattern: 2 s of work over 4 ranks (500 ms of local
    /// computation per rank) between 100 KB exchanges, so the burst period is dominated by `l(P)` plus
    /// a clearly bandwidth-dependent `N/B` term.
    Shift,
}

impl SweepProg {
    const ALL: [SweepProg; 6] = [
        SweepProg::Kernel(KernelKind::Sor),
        SweepProg::Kernel(KernelKind::Fft2d),
        SweepProg::Kernel(KernelKind::T2dfft),
        SweepProg::Kernel(KernelKind::Seq),
        SweepProg::Kernel(KernelKind::Hist),
        SweepProg::Shift,
    ];

    fn name(self) -> &'static str {
        match self {
            SweepProg::Kernel(k) => k.name(),
            SweepProg::Shift => "SHIFT",
        }
    }

    /// Host count of the program's testbed: the paper LAN for kernels,
    /// the quiet 4-host LAN for the shift pattern.
    fn hosts(self) -> u32 {
        match self {
            SweepProg::Kernel(_) => 9,
            SweepProg::Shift => 4,
        }
    }

    /// The program at the sweep's scale: kernel scale is floored so the
    /// 72-cell grid stays tractable at `--div 1` while still producing
    /// several bursts per run.
    fn program(self, div: usize) -> TenantProgram {
        match self {
            SweepProg::Kernel(k) => TenantProgram::Kernel {
                kind: k,
                div: if k == KernelKind::Seq {
                    div.max(5)
                } else {
                    div.max(20)
                },
            },
            SweepProg::Shift => TenantProgram::Shift {
                work_s: 2.0,
                bytes: 100_000,
                rounds: 6,
            },
        }
    }

    /// The program's testbed: the paper LAN for kernels, the quiet
    /// 4-host LAN for the shift pattern.
    fn testbed(self, seed: u64) -> fxnet::TestbedBuilder {
        match self {
            SweepProg::Kernel(_) => fxnet::TestbedBuilder::paper(),
            SweepProg::Shift => fxnet::TestbedBuilder::quiet(4),
        }
        .seed(seed)
    }

    /// Run on the legacy shared bus (`None`) or a compiled topology.
    fn run(
        self,
        seed: u64,
        div: usize,
        spec: Option<fxnet::TopologySpec>,
    ) -> fxnet::RunResult<u64> {
        let mut b = self.testbed(seed);
        if let Some(s) = spec {
            b = b.topology(s);
        }
        let prog = self.program(div).rank_program();
        b.build().run(move |ctx| prog(ctx))
    }

    /// The same program as a single mix tenant — for runs that need the
    /// mix plumbing (tenant map, causal capture, QoS contract terms).
    fn mix_tenant(self, div: usize) -> fxnet::mix::MixTenant {
        fxnet::mix::MixTenant {
            name: self.name().to_string(),
            program: self.program(div),
            p: 4,
            start: SimTime::ZERO,
            claim_scale: 1.0,
        }
    }
}

/// Everything a sweep worker reports back about one (program, topology,
/// rate) cell.
struct SweepCell {
    frames: usize,
    wire_bytes: u64,
    collisions: u64,
    bursts: usize,
    /// Measured burst period `t_bi` (mean start-to-start interval, s).
    period: Option<f64>,
    /// The communication pattern `c`: the sorted set of TCP host pairs.
    pairs: Vec<(u32, u32)>,
    /// Full trace, kept only for the single-segment 10 Mb/s cell (the
    /// byte-identity check against the legacy paper path).
    trace: Option<Vec<fxnet::FrameRecord>>,
}

/// Least-squares fit of `t_bi = l + N / B` over `(1/B, t_bi)` points:
/// returns `(l seconds, N bytes)`.
fn fit_burst_model(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mt = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - mt)).sum();
    let var: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let slope = if var > 0.0 { cov / var } else { 0.0 };
    (mt - slope * mx, slope)
}

fn fabric_sweep(c: &mut Ctx) {
    header("Fabric sweep: burst period vs provided bandwidth");
    use fxnet::sim::rates::{bytes_per_sec, rate_label, SWEEP_RATES};
    use fxnet::sim::{Proto, RATE_10M};
    use fxnet::TopologySpec;
    let seed = c.exps.seed();
    let div = c.div;
    let topo_ids: Vec<String> = TopologySpec::sweep_set(4, RATE_10M)
        .into_iter()
        .map(|s| s.id)
        .collect();
    println!(
        "(grid: {} programs x {{{}}} x {{10, 100, 1000 Mb/s}})",
        SweepProg::ALL.len(),
        topo_ids.join(", "),
    );

    // The legacy shared-bus trace per program: the paper path the
    // single-segment 10 Mb/s cell must reproduce byte for byte.
    let baselines = c.pool.map(SweepProg::ALL.to_vec(), move |p| {
        p.run(seed, div, None).trace
    });

    // The full grid in (program, topology, rate) order; the pool returns
    // results in input order, so every table and the artifact are
    // byte-identical at any --jobs.
    let mut grid = Vec::new();
    for &p in &SweepProg::ALL {
        for ti in 0..topo_ids.len() {
            for &rate in &SWEEP_RATES {
                grid.push((p, ti, rate));
            }
        }
    }
    let cells = c.pool.map(grid, |(p, ti, rate)| {
        let spec = TopologySpec::sweep_set(p.hosts(), rate).swap_remove(ti);
        let keep_trace = ti == 0 && rate == RATE_10M;
        let run = p.run(seed, div, Some(spec));
        let profile = TraceStore::from_records(&run.trace)
            .view()
            .burst_profile(SimTime::from_millis(120));
        let mut pairs: Vec<(u32, u32)> = run
            .trace
            .iter()
            .filter(|r| r.proto == Proto::Tcp)
            .map(|r| (r.src.0, r.dst.0))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        SweepCell {
            frames: run.trace.len(),
            wire_bytes: run.trace.iter().map(|r| u64::from(r.wire_len)).sum(),
            collisions: run.ether.collisions,
            bursts: profile.as_ref().map_or(0, |b| b.count),
            period: profile.as_ref().and_then(|b| b.intervals.map(|i| i.avg)),
            pairs,
            trace: keep_trace.then_some(run.trace),
        }
    });

    let fmt_period = |p: Option<f64>| p.map_or_else(|| "--".to_string(), |v| format!("{v:.4}"));
    let n_rates = SWEEP_RATES.len();
    let per_prog = topo_ids.len() * n_rates;
    #[derive(serde::Serialize)]
    struct SweepReport {
        rates_bps: Vec<u64>,
        topologies: Vec<String>,
        programs: Vec<SweepProgram>,
    }
    #[derive(serde::Serialize)]
    struct SweepProgram {
        name: &'static str,
        connections: usize,
        pattern_stable: bool,
        baseline_identical: bool,
        topologies: Vec<SweepTopology>,
    }
    #[derive(serde::Serialize)]
    struct SweepTopology {
        topology: String,
        fit_local_s: f64,
        fit_burst_bytes: f64,
        cells: Vec<SweepRate>,
    }
    #[derive(serde::Serialize)]
    struct SweepRate {
        rate: String,
        rate_bps: u64,
        frames: usize,
        wire_bytes: u64,
        collisions: u64,
        bursts: usize,
        burst_period_s: Option<f64>,
    }
    let mut violations: Vec<String> = Vec::new();
    let mut programs = Vec::new();
    println!("\nfitted burst-period/bandwidth table (t_bi in seconds):");
    println!("program   topology    t_bi@10M   t_bi@100M     t_bi@1G   fit l(s)   fit N(KB)");
    for (pi, p) in SweepProg::ALL.iter().enumerate() {
        let prog = &cells[pi * per_prog..(pi + 1) * per_prog];
        // `c` stability: the communication pattern must not change with
        // the fabric or its bandwidth.
        let stable = prog.iter().all(|cell| cell.pairs == prog[0].pairs);
        assert!(stable, "{}: pattern c must be fabric-invariant", p.name());
        // Byte-identity: single-segment @ 10 Mb/s is the paper path.
        let identical = prog[0].trace.as_deref() == Some(&baselines[pi][..]);
        assert!(
            identical,
            "{}: single@10M must reproduce the legacy bus trace",
            p.name()
        );
        let mut topologies = Vec::new();
        for (ti, id) in topo_ids.iter().enumerate() {
            let row = &prog[ti * n_rates..(ti + 1) * n_rates];
            let points: Vec<(f64, f64)> = row
                .iter()
                .zip(&SWEEP_RATES)
                .filter_map(|(cell, &r)| cell.period.map(|t| (1.0 / bytes_per_sec(r), t)))
                .collect();
            let (fit_l, fit_n) = fit_burst_model(&points);
            for (pair, rates) in row.windows(2).zip(SWEEP_RATES.windows(2)) {
                if let (Some(slow), Some(fast)) = (pair[0].period, pair[1].period) {
                    if fast > slow * (1.0 + 1e-9) {
                        violations.push(format!(
                            "{} on {id}: t_bi rose {slow:.6} -> {fast:.6} from {} to {}",
                            p.name(),
                            rate_label(rates[0]),
                            rate_label(rates[1]),
                        ));
                    }
                }
            }
            println!(
                "{:<8}  {:<8}  {:>10}  {:>10}  {:>10}  {:>9.4}  {:>10.1}",
                p.name(),
                id,
                fmt_period(row[0].period),
                fmt_period(row[1].period),
                fmt_period(row[2].period),
                fit_l,
                fit_n / 1000.0,
            );
            let cells = row
                .iter()
                .zip(&SWEEP_RATES)
                .map(|(cell, &r)| SweepRate {
                    rate: rate_label(r),
                    rate_bps: r,
                    frames: cell.frames,
                    wire_bytes: cell.wire_bytes,
                    collisions: cell.collisions,
                    bursts: cell.bursts,
                    burst_period_s: cell.period,
                })
                .collect();
            topologies.push(SweepTopology {
                topology: id.clone(),
                fit_local_s: fit_l,
                fit_burst_bytes: fit_n,
                cells,
            });
        }
        programs.push(SweepProgram {
            name: p.name(),
            connections: prog[0].pairs.len(),
            pattern_stable: stable,
            baseline_identical: identical,
            topologies,
        });
    }
    assert!(
        violations.is_empty(),
        "burst period must shrink with provided bandwidth:\n{}",
        violations.join("\n")
    );
    println!("\npattern c stable across every fabric and rate: yes");
    println!("single@10M reproduces the paper-path trace byte for byte: yes");
    println!("burst period shrinks monotonically with provided bandwidth: yes");

    let report = SweepReport {
        rates_bps: SWEEP_RATES.to_vec(),
        topologies: topo_ids,
        programs,
    };
    let path = c.exps.out_path("fabric_sweep.json");
    write_json_artifact(&path, &report).expect("write fabric sweep artifact");
    println!("wrote {}", path.display());
}

// --------------------------------------------------------------------
// Out-of-core analytics at scale: the streamed chunk scan over a
// synthesized 10M-frame trace.

/// Hosts on the analysis-scale synthesis fabric.
const SCALE_HOSTS: u32 = 16;
/// Rounds (one frame per host each) per synthesis wave: ~512k frames.
const SCALE_ROUNDS_PER_WAVE: u32 = 32_768;
/// Rounds per burst group; a quiet gap follows each group, so the
/// trace has a genuine burst fundamental for the harmonic probe.
const SCALE_ROUNDS_PER_GROUP: u32 = 256;
/// In-group round spacing, µs.
const SCALE_ROUND_US: u64 = 700;
/// Quiet gap closing each group, µs (> the 120 ms burst gap).
const SCALE_GAP_US: u64 = 300_000;

fn analysis_scale(c: &mut Ctx) {
    use fxnet::sim::{EtherConfig, Frame, FrameKind, HostId, NicId};
    use fxnet_bench::{streamed_scan, ScanConfig, SCAN_CHUNK_FRAMES};

    header("analysis-scale: streamed chunk scan of a chunked trace");
    let jobs = c.pool.jobs();
    let frames_target = (10_000_000 / c.div).max(500_000) as u64;

    // Synthesize the trace in waves through the trunk fabric: each wave
    // drains grouped bursts (SCALE_ROUNDS_PER_GROUP rounds of one frame
    // per host, then a quiet gap) with every 16th frame crossing the
    // trunk. Deliveries come out in event order, so the trace — and
    // every analysis below — is seed-deterministic.
    let spec = fxnet::TopologySpec::two_switches_trunk(SCALE_HOSTS, fxnet::sim::RATE_10M);
    let ether = EtherConfig::default();
    let switch_of = &spec.attachments;
    let group_period_us = u64::from(SCALE_ROUNDS_PER_GROUP) * SCALE_ROUND_US + SCALE_GAP_US;
    // The burst-group fundamental anchors the Goertzel harmonic probe.
    let base_hz = 1.0 / (group_period_us as f64 * 1e-6);
    let groups_per_wave = u64::from(SCALE_ROUNDS_PER_WAVE / SCALE_ROUNDS_PER_GROUP);
    // One spare group period of margin keeps waves disjoint in time.
    let wave_period_ns = (groups_per_wave + 1) * group_period_us * 1_000;
    let path = c.exps.out_path("analysis_scale.fxb");
    println!(
        "synthesizing >= {frames_target} frames through {} ...",
        spec.label()
    );
    let (dir, t_synth) = timed(|| {
        let mut w = fxnet::trace::ChunkedWriter::create(&path).expect("create chunked trace");
        let mut wave = 0u64;
        while w.frames() < frames_target {
            let offset_ns = wave * wave_period_ns;
            let mut fab = fxnet::topo::CompositeFabric::new(spec.clone(), &ether, c.seed);
            for i in 0..(SCALE_ROUNDS_PER_WAVE * SCALE_HOSTS) {
                let src = i % SCALE_HOSTS;
                let dst = if i % 16 == 0 {
                    // Cross the trunk: the far switch's mirror host.
                    let d = (src + SCALE_HOSTS / 2) % SCALE_HOSTS;
                    if d == src {
                        (d + 1) % SCALE_HOSTS
                    } else {
                        d
                    }
                } else {
                    // Nearest neighbor on the same switch.
                    let mut d = (src + 1) % SCALE_HOSTS;
                    while d == src || switch_of[d as usize] != switch_of[src as usize] {
                        d = (d + 1) % SCALE_HOSTS;
                    }
                    d
                };
                let f = Frame::tcp(
                    HostId(src),
                    HostId(dst),
                    FrameKind::Data,
                    200 + (i * 97) % 1200,
                    u64::from(i) + 1,
                );
                let round = u64::from(i / SCALE_HOSTS);
                let t_us = (round / u64::from(SCALE_ROUNDS_PER_GROUP)) * group_period_us
                    + (round % u64::from(SCALE_ROUNDS_PER_GROUP)) * SCALE_ROUND_US;
                fab.enqueue(NicId(src), f, SimTime::from_micros(t_us));
            }
            let records: Vec<fxnet::FrameRecord> = fab
                .run_to_idle()
                .iter()
                .map(|d| {
                    fxnet::FrameRecord::capture(
                        SimTime::from_nanos(d.time.as_nanos() + offset_ns),
                        &d.frame,
                    )
                })
                .collect();
            for batch in records.chunks(SCAN_CHUNK_FRAMES) {
                w.append_records(batch).expect("append chunk");
            }
            wave += 1;
        }
        w.finish().expect("finish chunked trace")
    });
    let frames = dir.frames();
    // Wall-clock readings go to stderr: stdout is the same on every run.
    eprintln!("synthesized in {:.1}s", t_synth.as_secs_f64());
    println!(
        "synthesized {frames} frames / {} chunks -> {}",
        dir.len(),
        path.display()
    );

    // The scan at --jobs and again at --jobs 1: the transcript may not
    // depend on how many workers decoded the chunks.
    let cfg = ScanConfig::new("analysis-scale", base_hz);
    println!("streamed scan (at --jobs, then at --jobs 1) ...");
    let (streamed, t_stream) =
        timed(|| streamed_scan(&path, &cfg, &c.pool).expect("streamed scan"));
    let serial = streamed_scan(&path, &cfg, &Pool::serial()).expect("serial streamed scan");
    assert_eq!(streamed.frames, frames);
    assert_eq!(
        streamed.rendered, serial.rendered,
        "streamed scan at --jobs {jobs} must be byte-identical to --jobs 1"
    );
    let streamed_path = c.exps.out_path("analysis_scale_streamed.md");
    std::fs::write(&streamed_path, &streamed.rendered).expect("write streamed transcript");
    println!("wrote {}", streamed_path.display());

    // Structural O(chunk) bound, enforced at every scale: at most two
    // decode rounds of `jobs` chunks are ever resident at once.
    let per_worker_bound = 2 * dir.max_chunk_frames() * 21;
    let chunk_bytes_bound = jobs.max(1) as u64 * per_worker_bound;
    assert!(
        streamed.peak_resident_bytes <= chunk_bytes_bound,
        "streamed scan held {} bytes resident, over the two-round bound {chunk_bytes_bound}",
        streamed.peak_resident_bytes
    );
    eprintln!(
        "streamed {:.2}s; peak resident {:.1} MB",
        t_stream.as_secs_f64(),
        streamed.peak_resident_bytes as f64 / 1e6
    );
    println!(
        "peak resident within the two-round bound ({:.1} MB per decode worker) of {:.1} MB of columns; transcript byte-identical at --jobs 1",
        per_worker_bound as f64 / 1e6,
        (frames * 21) as f64 / 1e6,
    );
}

// --------------------------------------------------------------------
// Fabric health: the weather map on the oversubscribed trunk.

/// The backbone link of [`oversubscribed_trunk2`], known-contended by
/// construction: fast edge ports funneling into a 10 Mb/s trunk.
const HOT_TRUNK: &str = "trunk:n0-n1";

/// The oversubscribed two-switch fabric the blame experiment
/// introduced: 100 Mb/s edge ports, the inter-switch trunk throttled
/// to 10 Mb/s, and ranks pinned alternately across the switches so
/// every exchange crosses the backbone.
fn oversubscribed_trunk2(hosts: u32) -> fxnet::TopologySpec {
    let mut spec = fxnet::TopologySpec::two_switches_trunk(hosts, fxnet::sim::RATE_100M);
    spec.trunks[0].rate_bps = fxnet::sim::RATE_10M;
    spec.attachments = (0..hosts as usize).map(|h| h % 2).collect();
    spec
}

/// Everything a fabric-health worker reports about one program.
struct HealthCell {
    prog: &'static str,
    frames: usize,
    report: fxnet::metrics::WeatherReport,
    /// Critical-path intervals blocked on the hot trunk.
    contended: Vec<(SimTime, SimTime)>,
    trunk_paths: usize,
    paths_total: usize,
    admitted_load: f64,
    measured_bw: f64,
    headroom: f64,
    /// Perfetto events: critical-path slices + weather counter tracks.
    trace_events: Vec<TraceEvent>,
}

/// Run one program alone on the oversubscribed trunk2 fabric, twice:
/// once bare (the purity baseline), once with the full weather map
/// attached (frame tap + per-link sampling + causal capture). Asserts
/// the traces byte-identical, then distills the instrumented run.
fn health_cell(prog: SweepProg, seed: u64, div: usize) -> HealthCell {
    use fxnet::causal::{chrome_trace, collective_paths, contended_intervals};
    use fxnet::metrics::{counter_events, FabricSampler, HotspotConfig};
    let spec = oversubscribed_trunk2(prog.hosts());
    let build = |spec: &fxnet::TopologySpec| {
        let tb = prog.testbed(seed).topology(spec.clone()).build();
        let cost = tb.config().cost.clone();
        let mix = tb
            .mix()
            .network(QosNetwork::of_rate(fxnet::sim::RATE_100M))
            .solo_baselines(false)
            .causal(true)
            .tenant(prog.mix_tenant(div));
        (mix, cost)
    };

    // Reference run with the sampler detached.
    let (mix, _) = build(&spec);
    let plain = mix.run();

    // The instrumented run: every observation channel attached. The
    // hotspot latch requires 8 consecutive hot 10 ms windows: an edge
    // port saturates only for the tens of milliseconds one burst takes
    // to drain at 100 Mb/s, while the oversubscribed trunk stays pinned
    // for entire communication epochs — so 80 ms of sustained heat
    // separates the congested backbone from ordinary burst traffic.
    let sampler = FabricSampler::with_hotspot(HotspotConfig {
        k: 8,
        ..HotspotConfig::default()
    });
    let (mix, cost) = build(&spec);
    let out = mix.tap(sampler.tap()).sample_links(true).run();
    assert_eq!(
        plain.store,
        out.store,
        "{}: the weather map perturbed the trace",
        prog.name()
    );
    assert_eq!(plain.finished_at, out.finished_at);

    let mut sampler = sampler;
    sampler.ingest_links(out.link_stats.as_ref().expect("link sampling on"));
    let causal = out.causal.as_ref().expect("causal capture on");
    sampler.ingest_causal(&causal.events, &out.store, Some(&spec));
    let report = sampler.finalize(Some(&spec));

    let spans = &out
        .telemetry
        .as_ref()
        .expect("causal capture forces telemetry")
        .spans;
    let paths = collective_paths(causal, &out.store, spans, &out.map);
    let contended = contended_intervals(&paths, HOT_TRUNK);
    let trunk_paths = paths
        .iter()
        .filter(|p| p.blocking_link.as_deref() == Some(HOT_TRUNK))
        .count();

    // QoS cross-check: the tenant's admitted contract headroom next to
    // the link gauges, so over-driving and fabric congestion can be
    // told apart.
    let t = &out.tenants[0];
    let terms = prog
        .mix_tenant(div)
        .claimed_descriptor(&cost)
        .terms(&t.negotiation);
    let measured_bw = t.avg_bw.unwrap_or(0.0);
    let headroom = terms.headroom(measured_bw);

    let mut trace_events = chrome_trace(&paths, &out.map);
    trace_events.extend(counter_events(&report));

    HealthCell {
        prog: prog.name(),
        frames: out.store.len(),
        report,
        contended,
        trunk_paths,
        paths_total: paths.len(),
        admitted_load: terms.mean_load,
        measured_bw,
        headroom,
        trace_events,
    }
}

fn fabric_health(c: &mut Ctx) {
    header("Fabric health: the weather map on the oversubscribed trunk");
    use fxnet::causal::intervals_overlap;
    use fxnet::metrics::{fill_registry, report_jsonl, FabricRollup, ScalingRelation};
    use fxnet::telemetry::{labeled, write_prometheus, TelemetryRegistry};
    let div = c.div;
    let seed = c.exps.seed();
    println!(
        "(six programs, each alone on trunk2: 100 Mb/s edges, 10 Mb/s trunk, ranks split across the switches)"
    );

    let cells = c
        .pool
        .map(SweepProg::ALL.to_vec(), move |p| health_cell(p, seed, div));

    // The weather map and the causal layer must agree: across all six
    // programs the oversubscribed trunk is the one and only flagged
    // hotspot, and its flagged windows overlap the critical paths'
    // contended-link intervals.
    let mut flagged: Vec<&str> = cells
        .iter()
        .flat_map(|cell| cell.report.rollup.hotspots.iter().map(|h| h.link.as_str()))
        .collect();
    flagged.sort_unstable();
    flagged.dedup();
    assert_eq!(
        flagged,
        vec![HOT_TRUNK],
        "the oversubscribed trunk must be the unique flagged hotspot"
    );

    println!(
        "{:<6} {:>7} {:>9} {:>10} {:>6} {:>12} {:>9} {:>12}",
        "prog", "frames", "hot wins", "peak util", "depth", "trunk paths", "headroom", "flagged at"
    );
    let mut overlaps = 0usize;
    for cell in &cells {
        let hot = cell.report.hotspot(HOT_TRUNK);
        println!(
            "{:<6} {:>7} {:>9} {:>10} {:>6} {:>12} {:>8.1}% {:>12}",
            cell.prog,
            cell.frames,
            hot.map_or(0, |h| h.windows.len()),
            hot.map_or_else(|| "-".to_string(), |h| format!("{:.3}", h.peak_utilization)),
            hot.map_or(0, |h| h.peak_depth),
            format!("{}/{}", cell.trunk_paths, cell.paths_total),
            cell.headroom * 100.0,
            hot.map_or_else(
                || "-".to_string(),
                |h| format!("{:.3} ms", h.flagged_at.as_nanos() as f64 / 1e6)
            ),
        );
        if let Some(h) = hot {
            if !cell.contended.is_empty() {
                assert!(
                    intervals_overlap(&h.intervals, &cell.contended),
                    "{}: hotspot windows must overlap the contended critical-path intervals",
                    cell.prog
                );
                overlaps += 1;
            }
        }
    }
    assert!(
        overlaps > 0,
        "at least one program must confirm the hotspot against its critical paths"
    );
    let hot_programs = cells
        .iter()
        .filter(|cell| cell.report.hotspot(HOT_TRUNK).is_some())
        .count();
    println!(
        "hotspot {HOT_TRUNK} latched by {hot_programs}/{} programs ({overlaps} cross-checked against critical paths); no other link ever flagged",
        cells.len()
    );

    let dir = c
        .metrics_out
        .as_deref()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| c.exps.out_dir.clone());
    std::fs::create_dir_all(&dir).expect("create artifacts dir");

    // fabric_health.jsonl: the full weather stream — meta header,
    // per-window link lines, scaling lines, hotspot lines — of the
    // program that heated the trunk the most.
    let hottest = cells
        .iter()
        .max_by_key(|cell| {
            cell.report
                .hotspot(HOT_TRUNK)
                .map_or(0, |h| h.windows.len())
        })
        .expect("six cells");
    let jsonl_path = dir.join("fabric_health.jsonl");
    std::fs::write(&jsonl_path, report_jsonl(&hottest.report)).expect("write weather stream");

    // fabric_health.prom: one registry, every program's weather
    // snapshot under a `prog` label, plus the per-tenant contract
    // headroom next to the link gauges (qos × metrics).
    let mut reg = TelemetryRegistry::new();
    for cell in &cells {
        fill_registry(&cell.report, &mut reg, &[("prog", cell.prog)]);
        let l = [("prog", cell.prog)];
        reg.set_gauge(labeled("fabric_tenant_headroom", &l), cell.headroom);
        reg.set_gauge(
            labeled("fabric_tenant_admitted_load_bytes_per_sec", &l),
            cell.admitted_load,
        );
        reg.set_gauge(
            labeled("fabric_tenant_measured_bw_bytes_per_sec", &l),
            cell.measured_bw,
        );
    }
    let prom_path = dir.join("fabric_health.prom");
    write_prometheus(&prom_path, &reg).expect("write prometheus snapshot");

    // fabric_health_trace.json: one Perfetto file, six processes — each
    // program's critical-path slices with the weather counter tracks
    // (util/depth per link) underneath them.
    let events: Vec<TraceEvent> = cells
        .iter()
        .enumerate()
        .flat_map(|(i, cell)| {
            cell.trace_events.iter().map(move |e| TraceEvent {
                pid: i as u64,
                ..e.clone()
            })
        })
        .collect();
    let trace_path = dir.join("fabric_health_trace.json");
    write_json_artifact(&trace_path, &events).expect("write perfetto trace");

    // fabric_health.json: the summary — per program the rollup (link /
    // node / fabric health + hotspots), the scaling relations, the
    // contended intervals, and the tenant's contract headroom. The
    // per-window ring stream goes to the JSONL instead. Written last, it
    // takes the cells' reports over.
    #[derive(serde::Serialize)]
    struct HealthReport {
        fabric: &'static str,
        hotspot: &'static str,
        programs: Vec<HealthProgram>,
    }
    #[derive(serde::Serialize)]
    struct HealthProgram {
        prog: &'static str,
        frames: usize,
        trunk_paths: usize,
        paths_total: usize,
        contended_intervals_ns: Vec<(SimTime, SimTime)>,
        tenant: TenantHeadroom,
        scaling: Vec<ScalingRelation>,
        rollup: FabricRollup,
    }
    #[derive(serde::Serialize)]
    struct TenantHeadroom {
        admitted_mean_load: f64,
        measured_mean_bw: f64,
        headroom: f64,
    }
    let programs = cells
        .into_iter()
        .map(|cell| HealthProgram {
            prog: cell.prog,
            frames: cell.frames,
            trunk_paths: cell.trunk_paths,
            paths_total: cell.paths_total,
            contended_intervals_ns: cell.contended,
            tenant: TenantHeadroom {
                admitted_mean_load: cell.admitted_load,
                measured_mean_bw: cell.measured_bw,
                headroom: cell.headroom,
            },
            scaling: cell.report.scaling,
            rollup: cell.report.rollup,
        })
        .collect();
    let json = HealthReport {
        fabric: "trunk2:oversubscribed",
        hotspot: HOT_TRUNK,
        programs,
    };
    let json_path = dir.join("fabric_health.json");
    write_json_artifact(&json_path, &json).expect("write fabric health report");

    println!(
        "wrote {}, {}, {} and {} (load the trace at ui.perfetto.dev)",
        json_path.display(),
        jsonl_path.display(),
        prom_path.display(),
        trace_path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shift_is_the_fabric_health_tenant() {
        let (seed, div) = (1998, 50);
        let swept = SweepProg::Shift.run(seed, div, None);
        let tenant = SweepProg::Shift
            .testbed(seed)
            .build()
            .mix()
            .solo_baselines(false)
            .tenant(SweepProg::Shift.mix_tenant(div))
            .run();
        assert_eq!(tenant.tenants.len(), 1, "the tenant is admitted");
        assert_eq!(swept.trace, tenant.store.iter().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "experiment `fig8` reads SOR but does not declare it")]
    fn an_undeclared_program_names_the_experiment() {
        let ctx = Ctx {
            exps: Experiments::new(100, 1, std::env::temp_dir().join("fxnet-test-out")),
            exp: REGISTRY.iter().find(|e| e.id == "fig8").expect("fig8"),
            pool: Pool::serial(),
            div: 100,
            hours: 1,
            seed: 1998,
            metrics_out: None,
        };
        ctx.store(KernelKind::Sor);
    }
}
