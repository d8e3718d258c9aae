//! `fxnet-benchmark`: absolute frames/s on five named workloads, and a
//! per-layer traced run. See `README.md` beside `Cargo.toml`.

mod affinity;
mod args;
mod bench;
mod checks;
mod child;
mod digest;
mod fabricbench;
mod procfs;
mod runner;
mod scanbench;
mod simbench;
mod span;
mod stats;
mod synth;
mod workload;

use args::Command;
use std::process::ExitCode;

/// A bad command line, or a build this binary refuses to measure.
const EXIT_REFUSED: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&args) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("fxnet-benchmark: {message}\n{}", args::USAGE);
            return ExitCode::from(EXIT_REFUSED);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("fxnet-benchmark: refusing to measure a debug build; use --release");
        return ExitCode::from(EXIT_REFUSED);
    }
    let outcome = match command {
        Command::Child(child_args) => child::run(&child_args).map(|report| {
            println!("{}", serde::json::to_string(&report));
            true
        }),
        Command::Run(options) => {
            runner::run(&options).map(|results| results.iter().all(|r| r.failed() == 0))
        }
        Command::RepeatCheck(options) => runner::repeat_check(&options),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("fxnet-benchmark: {error}");
            ExitCode::FAILURE
        }
    }
}
