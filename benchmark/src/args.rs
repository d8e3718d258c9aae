//! The command line. Anything not understood is refused with exit
//! code 2: there are no silent defaults for a flag that was given.

use crate::child::ChildArgs;
use crate::workload::Workload;

/// Seconds of timed passes per workload unless `--seconds` says
/// otherwise; `run_seconds` in `BENCHMARK.json` is the same number.
pub const DEFAULT_SECONDS: u64 = 12;
pub const DEFAULT_SEED: u64 = 1998;

#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub seed: u64,
    pub workloads: Vec<Workload>,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
}

#[derive(Debug, PartialEq)]
pub enum Command {
    Run(Options),
    RepeatCheck(Options),
    Child(ChildArgs),
}

pub const USAGE: &str = "usage: fxnet-benchmark [--seed N] [--workload W]... [--seconds 1..60] \
[--trace 0|1] [--smoke] [--repeat-check]
  workloads: bulk-bus chatty-bus airshed-trunk2 fabric-synth trace-scan (default: all)";

pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut options = Options {
        seed: DEFAULT_SEED,
        workloads: Vec::new(),
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
    };
    let (mut repeat_check, mut child, mut setup_only) = (false, None, false);

    let workload =
        |name: &str| Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                options.seed = v
                    .parse()
                    .map_err(|_| format!("`--seed {v}`: not an unsigned integer"))?;
            }
            "--seconds" => {
                let v = value()?;
                options.seconds = match v.parse() {
                    Ok(s @ 1..=60) => s,
                    _ => return Err(format!("`--seconds {v}`: not a whole number from 1 to 60")),
                };
            }
            "--trace" => {
                options.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("`--trace {v}`: must be 0 or 1")),
                };
            }
            "--workload" => options.workloads.push(workload(value()?)?),
            "--child" => child = Some(workload(value()?)?),
            "--smoke" => options.smoke = true,
            "--repeat-check" => repeat_check = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    if let Some(workload) = child {
        if repeat_check || !options.workloads.is_empty() {
            return Err("`--child` runs one workload and nothing else".to_string());
        }
        return Ok(Command::Child(ChildArgs {
            workload,
            seed: options.seed,
            seconds: options.seconds,
            traced: options.traced,
            smoke: options.smoke,
            setup_only,
        }));
    }
    if setup_only {
        return Err("`--setup-only` belongs to `--child`".to_string());
    }
    if options.workloads.is_empty() {
        options.workloads = Workload::ALL.to_vec();
    }
    Ok(if repeat_check {
        Command::RepeatCheck(options)
    } else {
        Command::Run(options)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Command, String> {
        parse(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_invocation_parses() {
        let cmd = parse_words(&[
            "--workload",
            "chatty-bus",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            cmd,
            Ok(Command::Run(Options {
                seed: 7,
                workloads: vec![Workload::ChattyBus],
                seconds: 10,
                traced: true,
                smoke: false,
            }))
        );
    }

    #[test]
    fn no_arguments_means_every_workload_at_the_default_seed() {
        let Ok(Command::Run(o)) = parse_words(&[]) else {
            panic!("expected a run");
        };
        assert_eq!(o.workloads, Workload::ALL.to_vec());
        assert_eq!(
            (o.seed, o.seconds, o.traced, o.smoke),
            (1998, 12, false, false)
        );
        assert!(matches!(
            parse_words(&["--repeat-check", "--smoke"]),
            Ok(Command::RepeatCheck(Options { smoke: true, .. }))
        ));
    }

    #[test]
    fn what_is_not_understood_is_refused() {
        for bad in [
            &["--seed", "banana"][..],
            &["--seed", "-1"],
            &["--seed"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--seconds", "2.5"],
            &["--trace", "yes"],
            &["--trace"],
            &["--workload", "bulk"],
            &["--workload"],
            &["--traced"],
            &["bulk-bus"],
            &["--setup-only"],
            &["--child", "bulk-bus", "--workload", "trace-scan"],
            &["--child", "nothing"],
        ] {
            assert!(parse_words(bad).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn the_runner_can_address_its_children() {
        let cmd = parse_words(&["--child", "trace-scan", "--smoke", "--setup-only"]);
        assert_eq!(
            cmd,
            Ok(Command::Child(ChildArgs {
                workload: Workload::TraceScan,
                seed: 1998,
                seconds: 12,
                traced: false,
                smoke: true,
                setup_only: true,
            }))
        );
    }
}
