//! The public API is what non-test code calls.
//!
//! Every `pub fn`, `pub const`/`static` and `pub struct`/`enum`/`trait`/
//! `type` defined in non-test code under `crates/*/src` must be named by
//! non-test code somewhere else, or be on [`ALLOWED`] with a reason; an
//! entry whose item is gone, or is named by non-test code, fails too.
//! Non-test code is `crates/*/src` above each file's first column-0
//! `#[cfg(test)]` (a file declared as a `#[cfg(test)] mod x;` is all
//! test), `examples/` and `benchmark/src`. Comments and `use` statements
//! do not count as naming an item. The match is textual, by identifier:
//! a name used anywhere keeps every item of that name. `pub` fields and
//! enum variants are not scanned.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// `pub` items that no non-test code names, kept on purpose:
/// `(file under the repository root, item name, reason)`. A reference
/// that another crate's tests compare against lives here, once, beside
/// the code it checks: a `tests/` support module cannot serve both a
/// crate's unit tests and `tests/integration_*` without a second copy.
const ALLOWED: &[(&str, &str, &str)] = &[
    (
        "crates/apps/src/sor.rs",
        "sor_sequential",
        "bit-exact oracle: integration_failures::deschedule_preserves_results and \
         integration_kernels::kernels_scale_to_other_processor_counts",
    ),
    (
        "crates/apps/src/fft2d.rs",
        "fft2d_sequential",
        "bit-exact oracle: integration_kernels::kernels_scale_to_other_processor_counts",
    ),
    (
        "crates/apps/src/hist.rs",
        "hist_sequential",
        "bit-exact oracle: integration_routes::daemon_route_gives_identical_results and \
         integration_kernels::kernels_scale_to_other_processor_counts",
    ),
    (
        "crates/apps/src/sor.rs",
        "tiny",
        "fixture: integration_kernels::rank_checksums_are_pinned, integration_failures",
    ),
    (
        "crates/apps/src/fft2d.rs",
        "tiny",
        "fixture: integration_kernels::rank_checksums_are_pinned",
    ),
    (
        "crates/apps/src/t2dfft.rs",
        "tiny",
        "fixture: integration_kernels::rank_checksums_are_pinned",
    ),
    (
        "crates/apps/src/seq.rs",
        "tiny",
        "fixture: integration_kernels::rank_checksums_are_pinned",
    ),
    (
        "crates/apps/src/hist.rs",
        "tiny",
        "fixture: integration_kernels::rank_checksums_are_pinned, integration_routes",
    ),
    (
        "crates/apps/src/airshed.rs",
        "tiny",
        "fixture: integration_airshed::rank_checksums_are_pinned, fxnet-causal's provenance",
    ),
    (
        "crates/telemetry/src/prometheus.rs",
        "parse_prometheus",
        "round-trip oracle of the renderer: fxnet-metrics' export_golden::export_bytes_match_the_golden_table",
    ),
    (
        "crates/qos/src/estimate.rs",
        "estimate_traffic",
        "§7.3 batch estimate: integration_ablations::descriptor_estimated_from_a_real_trace_predicts_the_run",
    ),
    (
        "crates/qos/src/estimate.rs",
        "estimate_descriptor",
        "§7.3 descriptor fit: integration_ablations::descriptor_estimated_from_a_real_trace_predicts_the_run",
    ),
    (
        "crates/spectral/src/media.rs",
        "cbr_trace",
        "media-traffic contrast: integration_spectral::cbr_has_single_spectral_line_not_burst_harmonics",
    ),
    (
        "crates/trace/src/spectrum.rs",
        "autocorrelation",
        "§6.1 periodicity: integration_kernels::sor_connection_traffic_is_strongly_periodic",
    ),
    (
        "crates/trace/src/coherence.rs",
        "mean_connection_correlation",
        "§7.1 in-phase connections: integration_kernels::all_to_all_connections_act_in_phase",
    ),
];

/// One `pub` definition in non-test code.
#[derive(Debug)]
struct Item {
    file: String,
    line: usize,
    kind: &'static str,
    name: String,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repository root")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// The name after `mod` in a `mod x;` declaration.
fn mod_decl(line: &str) -> Option<&str> {
    let t = line.trim();
    let t = t
        .strip_prefix("pub(crate) ")
        .or(t.strip_prefix("pub "))
        .unwrap_or(t);
    t.strip_prefix("mod ")?.strip_suffix(';')
}

/// Where `mod name;` declared in `file` lives.
fn mod_file(file: &Path, name: &str) -> PathBuf {
    let dir = file.parent().expect("source dir");
    let stem = file.file_stem().expect("file stem");
    if ["lib", "main", "mod"].iter().any(|s| stem == *s) {
        dir.join(format!("{name}.rs"))
    } else {
        dir.join(stem).join(format!("{name}.rs"))
    }
}

/// A source file's non-test lines, with its path under the root, and
/// whether its `pub` items are scanned (`crates/*/src`) or it only
/// calls them (`examples/`, `benchmark/src`).
struct Source {
    file: String,
    lines: Vec<String>,
    defines: bool,
}

/// Every non-test source. Files under `crates/*/src` end at their first
/// column-0 `#[cfg(test)]` that is not a `mod x;` declaration; the
/// declared files are dropped.
fn non_test_sources(root: &Path) -> Vec<Source> {
    let rel = |p: &Path| {
        p.strip_prefix(root)
            .expect("under root")
            .to_string_lossy()
            .into_owned()
    };
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .collect();
    crates.sort();
    let mut crate_files = Vec::new();
    for c in crates {
        rust_files(&c.join("src"), &mut crate_files);
    }
    let mut test_mods = Vec::new();
    let mut sources = Vec::new();
    for f in &crate_files {
        let text = fs::read_to_string(f).expect("read source");
        let lines: Vec<&str> = text.lines().collect();
        let mut end = lines.len();
        for (i, l) in lines.iter().enumerate() {
            if !l.starts_with("#[cfg(test)]") {
                continue;
            }
            match lines.get(i + 1).and_then(|n| mod_decl(n)) {
                Some(name) => test_mods.push(mod_file(f, name)),
                None => {
                    end = i;
                    break;
                }
            }
        }
        sources.push(Source {
            file: rel(f),
            lines: lines[..end].iter().map(|s| s.to_string()).collect(),
            defines: true,
        });
    }
    let test_mods: Vec<String> = test_mods.iter().map(|f| rel(f)).collect();
    sources.retain(|s| !test_mods.contains(&s.file));
    let mut other_files = Vec::new();
    rust_files(&root.join("examples"), &mut other_files);
    rust_files(&root.join("benchmark/src"), &mut other_files);
    for f in &other_files {
        let text = fs::read_to_string(f).expect("read source");
        sources.push(Source {
            file: rel(f),
            lines: text.lines().map(str::to_string).collect(),
            defines: false,
        });
    }
    sources
}

fn code_of(line: &str) -> &str {
    line.find("//").map_or(line, |i| &line[..i])
}

fn identifiers(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.bytes().next().is_some_and(|b| !b.is_ascii_digit()))
}

/// The `(kind, name)` a line defines, if it opens a `pub` item.
fn definition(line: &str) -> Option<(&'static str, &str)> {
    let rest = code_of(line).trim_start().strip_prefix("pub ")?;
    let rest = rest
        .strip_prefix("const ")
        .filter(|r| r.starts_with("fn "))
        .unwrap_or(rest);
    ["fn", "const", "static", "struct", "enum", "trait", "type"]
        .into_iter()
        .find_map(|kind| {
            let r = rest.strip_prefix(kind)?.strip_prefix(' ')?;
            let r = r.strip_prefix("mut ").unwrap_or(r);
            Some((kind, identifiers(r).next()?))
        })
}

/// Every `pub` item of non-test code, and how often non-test code names
/// each identifier outside comments, `use` statements and the item's own
/// definition line.
fn scan(root: &Path) -> (Vec<Item>, BTreeMap<String, usize>) {
    let mut items = Vec::new();
    let mut names: BTreeMap<String, usize> = BTreeMap::new();
    for src in non_test_sources(root) {
        let mut in_use = false;
        for (i, line) in src.lines.iter().enumerate() {
            let code = code_of(line).trim();
            if !in_use {
                let stmt = code
                    .strip_prefix("pub(crate) ")
                    .or(code.strip_prefix("pub "))
                    .unwrap_or(code);
                in_use = stmt.starts_with("use ");
            }
            if in_use {
                in_use = !code.ends_with(';');
                continue;
            }
            let def = if src.defines { definition(line) } else { None };
            let mut skip = def.map(|(_, n)| n);
            for w in identifiers(code) {
                if skip == Some(w) {
                    skip = None;
                    continue;
                }
                *names.entry(w.to_string()).or_insert(0) += 1;
            }
            if let Some((kind, name)) = def {
                items.push(Item {
                    file: src.file.clone(),
                    line: i + 1,
                    kind,
                    name: name.to_string(),
                });
            }
        }
    }
    (items, names)
}

#[test]
fn every_public_item_has_a_non_test_caller_or_a_listed_reason() {
    let root = repo_root();
    let (items, names) = scan(&root);
    assert!(
        items.len() > 100,
        "the scan found only {} public items under {}",
        items.len(),
        root.display()
    );
    let called = |name: &str| names.get(name).copied().unwrap_or(0) > 0;
    let listed = |it: &Item| {
        ALLOWED
            .iter()
            .any(|&(f, n, _)| f == it.file && n == it.name)
    };

    let unlisted: Vec<String> = items
        .iter()
        .filter(|it| !called(&it.name) && !listed(it))
        .map(|it| format!("{}:{} pub {} {}", it.file, it.line, it.kind, it.name))
        .collect();
    let mut stale = Vec::new();
    for &(file, name, reason) in ALLOWED {
        assert!(!reason.trim().is_empty(), "{file} {name}: no reason given");
        if !items.iter().any(|it| it.file == file && it.name == name) {
            stale.push(format!("{file} {name}: no such public item"));
        } else if called(name) {
            stale.push(format!("{file} {name}: non-test code names it now"));
        }
    }
    println!(
        "{} public items scanned, {} allow-listed",
        items.len(),
        ALLOWED.len()
    );
    assert!(
        unlisted.is_empty() && stale.is_empty(),
        "public items with no non-test caller (call them, make them private or \
         #[cfg(test)], delete them, or list them with a reason):\n  {}\n\
         stale allow-list entries:\n  {}",
        unlisted.join("\n  "),
        stale.join("\n  ")
    );
}
