//! The parent: forks one child per workload, turns what they report into
//! the named metrics, prints them and writes `out/results.json`.

use crate::args::Options;
use crate::bench::{out_dir, Res};
use crate::child::ChildReport;
use crate::stats::{iqr, median, range, tail_percentile};
use crate::workload::{MetricDef, Workload, END_TO_END, PER_LAYER};
use fxnet::telemetry::write_json_artifact;
use serde::{Serialize, Value};
use std::process::{Command, Stdio};

/// Cold set-ups per untraced run; `setup_s` and `peak_rss_mb` are their
/// medians. Each is a process of its own, so every sample pays for a
/// cold start and has its own heap layout.
const SETUPS: usize = 3;

pub struct WorkloadResult {
    pub workload: Workload,
    pub report: ChildReport,
    pub setup_samples: Vec<f64>,
    pub rss_kb_samples: Vec<f64>,
    /// Every metric of the run's kind, in table order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl WorkloadResult {
    pub fn failed(&self) -> u64 {
        self.report.failures.len() as u64
    }

    pub fn metric(&self, name: &str) -> f64 {
        let found = self.metrics.iter().find(|(def, _)| def.name == name);
        found.map_or(0.0, |(_, value)| *value)
    }

    fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.report.checks_attempted.max(1) as f64
    }

    /// `{"<name>": {"value": .., "unit": ".."}, ..}`: the shape the driver
    /// reads, to which `results.json` adds each metric's direction.
    fn metrics_value(&self, with_direction: bool) -> Value {
        let entry = |def: &MetricDef, value: f64| {
            let mut fields = vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(def.unit.to_string())),
            ];
            if with_direction {
                fields.push(("better".to_string(), Value::Str(def.better.to_string())));
            }
            Value::Object(fields)
        };
        Value::Object(
            self.metrics
                .iter()
                .map(|(def, value)| (def.name.to_string(), entry(def, *value)))
                .collect(),
        )
    }

    /// The line the driver reads: the last of a one-workload run.
    fn contract_line(&self) -> String {
        serde::json::to_string(&Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.failed() == 0)),
            (
                "attempted".to_string(),
                Value::U64(self.report.checks_attempted),
            ),
            ("failed".to_string(), Value::U64(self.failed())),
            ("metrics".to_string(), self.metrics_value(false)),
        ]))
    }

    fn to_value(&self) -> Value {
        let floats = |v: &[f64]| Value::Array(v.iter().map(|x| Value::F64(*x)).collect());
        let r = &self.report;
        Value::Object(vec![
            ("cores".to_string(), Value::U64(r.cores)),
            ("pinned".to_string(), Value::Bool(r.pinned_cpu.is_some())),
            ("pinned_cpu".to_string(), r.pinned_cpu.to_value()),
            ("passes".to_string(), Value::U64(r.wall_s.len() as u64)),
            (
                "traced_passes".to_string(),
                Value::U64(r.traced_wall_s.len() as u64),
            ),
            ("frames_per_pass".to_string(), Value::U64(r.frames)),
            ("sim_s_per_pass".to_string(), Value::F64(r.sim_s)),
            ("wall_s_samples".to_string(), floats(&r.wall_s)),
            ("cpu_s_samples".to_string(), floats(&r.cpu_s)),
            (
                "traced_wall_s_samples".to_string(),
                floats(&r.traced_wall_s),
            ),
            ("setup_s_samples".to_string(), floats(&self.setup_samples)),
            (
                "peak_rss_kb_samples".to_string(),
                floats(&self.rss_kb_samples),
            ),
            (
                "checks_attempted".to_string(),
                Value::U64(r.checks_attempted),
            ),
            ("checks_failed".to_string(), Value::U64(self.failed())),
            ("failed_share".to_string(), Value::F64(self.failed_share())),
            ("failures".to_string(), r.failures.to_value()),
            ("observed".to_string(), r.observed.to_value()),
            ("metrics".to_string(), self.metrics_value(true)),
        ])
    }

    fn print(&self, options: &Options) {
        let r = &self.report;
        let placement = match r.pinned_cpu {
            Some(cpu) => format!("pinned to cpu {cpu}"),
            None => "unpinned".to_string(),
        };
        println!(
            "== {} ({placement}, {} cores, seed {}, {} timed passes{}) ==",
            self.workload.name(),
            r.cores,
            options.seed,
            r.wall_s.len(),
            if options.traced {
                format!(" + {} traced", r.traced_wall_s.len())
            } else {
                String::new()
            },
        );
        for (def, value) in &self.metrics {
            let mut line = format!("  {:<32} {:>16.6} {}", def.name, value, def.unit);
            if def.name == "wall_s" {
                let (min, max) = range(&r.wall_s);
                line += &format!(
                    "   (min {min:.4} max {max:.4} iqr {:.4} n {})",
                    iqr(&r.wall_s),
                    r.wall_s.len()
                );
                if let Some((pct, v)) = tail_percentile(&r.wall_s) {
                    line += &format!(" p{pct} {v:.4}");
                }
            }
            println!("{line}");
        }
        println!(
            "  {:<32} {:>16.6} ratio   ({} of {} checks failed)",
            "failed_share",
            self.failed_share(),
            self.failed(),
            r.checks_attempted
        );
        for failure in &r.failures {
            println!("  FAILED {failure}");
        }
        println!("{}", self.contract_line());
    }
}

fn spawn_child(options: &Options, workload: Workload, setup_only: bool) -> Res<ChildReport> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--child", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if options.traced { "1" } else { "0" }]);
    if options.smoke {
        cmd.arg("--smoke");
    }
    if setup_only {
        cmd.arg("--setup-only");
    }
    // `output` waits for the child, so none outlives the runner.
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    if !out.status.success() {
        return Err(format!("the {} child failed: {}", workload.name(), out.status).into());
    }
    let stdout = String::from_utf8(out.stdout)?;
    let line = stdout.lines().last().ok_or("the child printed nothing")?;
    Ok(serde::json::from_str(line)?)
}

fn run_workload(options: &Options, workload: Workload) -> Res<WorkloadResult> {
    let report = spawn_child(options, workload, false)?;
    let mut setup_samples = vec![report.setup_s];
    let mut rss_kb_samples = vec![report.peak_rss_kb as f64];
    if !options.traced && !options.smoke {
        for _ in 1..SETUPS {
            let cold = spawn_child(options, workload, true)?;
            setup_samples.push(cold.setup_s);
            rss_kb_samples.push(cold.peak_rss_kb as f64);
        }
    }
    let metrics = if options.traced {
        PER_LAYER
            .iter()
            .map(|def| (def, report.layers.get(def.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let wall_s = median(&report.wall_s);
        let mean_cpu_s = report.cpu_s.iter().sum::<f64>() / report.cpu_s.len() as f64;
        END_TO_END
            .iter()
            .map(|(def, _)| {
                let value = match def.name {
                    "setup_s" => median(&setup_samples),
                    "wall_s" => wall_s,
                    "frames_per_s" => report.frames as f64 / wall_s,
                    "wall_per_sim_s" => wall_s / report.sim_s,
                    "cpu_s" => mean_cpu_s,
                    "peak_rss_mb" => median(&rss_kb_samples) / 1024.0,
                    other => unreachable!("no definition for end-to-end metric {other}"),
                };
                (def, value)
            })
            .collect()
    };
    Ok(WorkloadResult {
        workload,
        report,
        setup_samples,
        rss_kb_samples,
        metrics,
    })
}

/// First line of a command's output, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn write_results(options: &Options, results: &[WorkloadResult]) -> Res<()> {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let cores = results.first().map_or(0, |r| r.report.cores);
    let env = Value::Object(vec![
        (
            "git_rev".to_string(),
            Value::Str(tool_line(
                "git",
                &["-C", manifest_dir, "rev-parse", "--short", "HEAD"],
            )),
        ),
        ("rustc".to_string(), Value::Str(tool_line("rustc", &["-V"]))),
        ("profile".to_string(), Value::Str("release".to_string())),
        ("seed".to_string(), Value::U64(options.seed)),
        ("cores".to_string(), Value::U64(cores)),
        ("seconds".to_string(), Value::U64(options.seconds)),
        ("traced".to_string(), Value::Bool(options.traced)),
        ("smoke".to_string(), Value::Bool(options.smoke)),
    ]);
    let workloads = results
        .iter()
        .map(|r| (r.workload.name().to_string(), r.to_value()))
        .collect();
    let root = Value::Object(vec![
        ("env".to_string(), env),
        ("workloads".to_string(), Value::Object(workloads)),
    ]);
    let path = out_dir().join("results.json");
    write_json_artifact(&path, &root)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// Run every selected workload, print and record the results.
pub fn run(options: &Options) -> Res<Vec<WorkloadResult>> {
    let mut results = Vec::new();
    for &workload in &options.workloads {
        let result = run_workload(options, workload)?;
        result.print(options);
        results.push(result);
    }
    write_results(options, &results)?;
    Ok(results)
}

/// Two full sets back to back, untraced and traced: every end-to-end
/// median must repeat within its bound and every program count exactly.
/// Returns whether they did.
pub fn repeat_check(options: &Options) -> Res<bool> {
    let set = |traced: bool| {
        run(&Options {
            traced,
            ..options.clone()
        })
    };
    let (first, first_traced) = (set(false)?, set(true)?);
    let (second, second_traced) = (set(false)?, set(true)?);

    let mut ok = true;
    println!("== repeat check: second set against first ==");
    for (a, b) in first.iter().zip(&second) {
        for (def, bound) in END_TO_END {
            let (x, y) = (a.metric(def.name), b.metric(def.name));
            let gap = (y - x).abs() / x;
            let verdict = if gap <= *bound { "ok" } else { "OVER" };
            ok &= gap <= *bound;
            println!(
                "  {:<16} {:<16} {x:>14.4} {y:>14.4}  gap {gap:.4}  bound {bound:.2}  {verdict}",
                a.workload.name(),
                def.name,
            );
        }
    }
    for (a, b) in first_traced.iter().zip(&second_traced) {
        for def in PER_LAYER.iter().filter(|def| def.exact) {
            let (x, y) = (a.metric(def.name), b.metric(def.name));
            if x != y {
                ok = false;
                println!(
                    "  {:<16} {:<28} {x} then {y}: a count did not repeat",
                    a.workload.name(),
                    def.name
                );
            }
        }
    }
    let all = [&first, &first_traced, &second, &second_traced];
    let failed: u64 = all.iter().flat_map(|s| s.iter()).map(|r| r.failed()).sum();
    ok &= failed == 0;
    println!(
        "repeat check {}: {failed} failed checks",
        if ok { "passed" } else { "FAILED" }
    );
    Ok(ok)
}
