//! `repro`'s command line, process by process: a flag whose value is
//! missing or does not parse is a usage error (exit 2, the flag and the
//! value named on stderr, nothing run), never a silent default — a typo
//! in a determinism check must not compare a run with itself.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn a_bad_flag_value_exits_2_naming_flag_and_value() {
    for (flag, bad) in [
        ("--seed", "banana"),
        ("--div", "1.5"),
        ("--jobs", "-1"),
        ("--hours", "ten"),
        // Zero would divide the iteration counts by nothing.
        ("--div", "0"),
        ("--hours", "0"),
    ] {
        let out = repro(&[flag, bad, "fig6"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {err}");
        assert!(
            err.contains(flag) && err.contains(bad),
            "{flag} {bad}: {err}"
        );
        assert!(out.stdout.is_empty(), "{flag} {bad}: ran anyway");
    }
}

#[test]
fn a_missing_flag_value_exits_2_naming_the_flag() {
    for flag in [
        "--seed",
        "--div",
        "--jobs",
        "--hours",
        "--out",
        "--metrics-out",
    ] {
        let out = repro(&["fig6", flag]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(err.contains(flag), "{flag}: {err}");
        assert!(out.stdout.is_empty(), "{flag}: ran anyway");
    }
}

#[test]
fn good_values_are_taken() {
    // `mix-admit`, the QoS admission sweep, prewarms nothing and takes
    // well under a second.
    let dir = std::env::temp_dir().join(format!("fxnet-repro-cli-{}", std::process::id()));
    let out_dir = dir.to_str().expect("utf-8 temp dir");
    let out = repro(&[
        "--seed",
        "42",
        "--div",
        "50",
        "--jobs",
        "2",
        "--hours",
        "1",
        "--out",
        out_dir,
        "mix-admit",
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1/50"), "--div 50 is announced:\n{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag that no longer exists is a usage error like any unknown
/// argument: exit 2, the flag named on stderr, nothing run.
fn assert_removed_flag_is_rejected(flag: &str, values: &[&str]) {
    for value in values {
        let out = repro(&[flag, value, "fig6"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {err}");
        assert!(err.contains(flag), "{flag} {value}: {err}");
        assert!(out.stdout.is_empty(), "{flag} {value}: ran anyway");
    }
}

#[test]
fn the_removed_trace_format_flag_is_rejected() {
    // There is one trace format (`.fxb`); the knob that chose it is
    // gone and must not be swallowed as if it still meant something.
    assert_removed_flag_is_rejected("--trace-format", &["binary", "text"]);
}

#[test]
fn the_removed_shards_flag_is_rejected() {
    // Every compiled topology runs on the one sequential fabric; a shard
    // count must not be swallowed as if it still selected something.
    assert_removed_flag_is_rejected("--shards", &["1", "2"]);
}

#[test]
fn the_removed_date_flag_is_rejected() {
    // `repro` writes no wall-clock ledger; the flag that dated its lines
    // must not be swallowed as if something still recorded it.
    assert_removed_flag_is_rejected("--date", &["2026-10-02"]);
}

#[test]
fn the_removed_bench_experiment_is_an_unknown_id() {
    // Speed is `benchmark/`'s job: `bench` is not an experiment.
    let out = repro(&["bench"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown experiment id(s): bench"), "{err}");
    assert!(out.stdout.is_empty(), "ran anyway");

    let list = repro(&["--list"]);
    assert_eq!(list.status.code(), Some(0));
    let listed = String::from_utf8_lossy(&list.stdout);
    let ids: Vec<&str> = listed
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(ids.contains(&"analysis-scale"), "{ids:?}");
    assert!(!ids.contains(&"bench"), "{ids:?}");
}
