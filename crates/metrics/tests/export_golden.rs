//! Golden bytes of every exported artifact.
//!
//! One small fixed run — SOR honest and 2DFFT over-driving a claim of
//! 1/8 of its true bursts, on two switches joined by an oversubscribed
//! 10 Mb/s trunk, with the watcher, causal capture and per-link
//! sampling all attached, its weather map read from the captured trace
//! after the run — is exported every way the
//! artifacts are written: the rollup and scaling JSON of
//! `fabric_health.json`, the weather JSONL, the Perfetto critical-path
//! slices and weather counter tracks, and the cause DAG, critical
//! paths and violation blame of `blame.json`, and the Prometheus
//! snapshot `fill_registry` makes of it. Each text is pinned by
//! length and FNV-1a digest in [`GOLDEN`], recorded from the hand-built
//! renderers these artifacts came from first. A change to how an
//! artifact is rendered must leave every row unchanged.
//!
//! Every JSON document and every JSONL line must also parse back
//! through `serde::json` and re-render to the same text, and every
//! Prometheus sample must parse back to the registry's value.
//!
//! On a mismatch the test prints the whole table as it now reads.

use fxnet::causal::{blame_violation, chrome_trace, collective_paths, dag_value, CauseDag};
use fxnet::metrics::{counter_events, fill_registry, report_jsonl, FabricSampler};
use fxnet::mix::MixTenant;
use fxnet::qos::QosNetwork;
use fxnet::sim::{RATE_100M, RATE_10M};
use fxnet::telemetry::{parse_prometheus, prometheus_text, TelemetryRegistry};
use fxnet::{KernelKind, SimTime, TestbedBuilder, TopologySpec};

/// `(artifact, bytes, FNV-1a 64 of the text)`.
const GOLDEN: [(&str, usize, u64); 9] = [
    ("rollup", 6930, 0x63fb8a63136cd213),
    ("scaling", 789, 0x37d46e185b051414),
    ("weather_jsonl", 86820, 0xf816b1d04f31056f),
    ("perfetto_slices", 718, 0xcd3771bf8253ee8a),
    ("perfetto_counters", 90194, 0x5f4668436f7df879),
    ("dag", 368181, 0xf58afc1b5093cd3b),
    ("paths", 613, 0xb88a32c4d46e7b93),
    ("blame", 375, 0xd6f7bd0953a5fb22),
    ("prometheus", 9352, 0x131e5b38542f2dda),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Parse `doc` back and require the re-rendered text to be identical.
fn round_trips(name: &str, doc: &str) {
    let v = serde::json::parse(doc).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(serde::json::to_string(&v), doc, "{name}: re-render differs");
}

/// Parse the snapshot back and require every sample, in order, to be
/// the registry's value to the bit: counters first, then gauges.
fn prometheus_round_trips(reg: &TelemetryRegistry, text: &str) {
    let parsed = parse_prometheus(text).unwrap_or_else(|e| panic!("prometheus: {e}"));
    let want: Vec<(String, f64)> = reg
        .counters()
        .map(|(name, v)| (name.to_string(), v as f64))
        .chain(reg.gauges().map(|(name, v)| (name.to_string(), v)))
        .collect();
    assert_eq!(parsed.len(), want.len(), "prometheus: one sample per value");
    for ((got_name, got), (name, v)) in parsed.iter().zip(&want) {
        assert_eq!(got_name, name, "prometheus: sample order");
        assert_eq!(got.to_bits(), v.to_bits(), "prometheus: {name}");
    }
}

fn exports() -> (Vec<(&'static str, String)>, TelemetryRegistry) {
    let mut spec = TopologySpec::two_switches_trunk(9, RATE_100M);
    spec.trunks[0].rate_bps = RATE_10M;
    spec.attachments = (0..9).map(|h| h % 2).collect();
    let out = TestbedBuilder::paper()
        .seed(1998)
        .topology(spec.clone())
        .build()
        .mix()
        .network(QosNetwork::of_rate(RATE_100M))
        .solo_baselines(false)
        .causal(true)
        .tenant(MixTenant::kernel(
            "SOR",
            KernelKind::Sor,
            200,
            4,
            SimTime::ZERO,
        ))
        .tenant(
            MixTenant::kernel("2DFFT", KernelKind::Fft2d, 200, 4, SimTime::from_millis(50))
                .with_claim_scale(0.125),
        )
        .watch()
        .sample_links(true)
        .run();

    let mut sampler = FabricSampler::new();
    sampler.ingest_trace(&out.store);
    sampler.ingest_links(out.link_stats.as_ref().expect("link sampling on"));
    let causal = out.causal.as_ref().expect("causal capture on");
    sampler.ingest_causal(&causal.events, &out.store, Some(&spec));
    let report = sampler.finalize(Some(&spec));

    let spans = &out.telemetry.as_ref().expect("telemetry on").spans;
    let paths = collective_paths(causal, &out.store, spans, &out.map);
    let event = out
        .watch
        .as_ref()
        .expect("watch on")
        .events
        .iter()
        .find(|e| e.tenant == "2DFFT")
        .expect("the over-driver latches a violation");
    let blame = blame_violation(event, causal, &out.store, &out.map);
    let dag = CauseDag::build(causal, &out.store).expect("one event per row");
    let mut reg = TelemetryRegistry::new();
    fill_registry(&report, &mut reg, &[]);

    let texts = vec![
        ("rollup", serde::json::to_string(&report.rollup)),
        ("scaling", serde::json::to_string(&report.scaling)),
        ("weather_jsonl", report_jsonl(&report)),
        (
            "perfetto_slices",
            serde::json::to_string(&chrome_trace(&paths, &out.map)),
        ),
        (
            "perfetto_counters",
            serde::json::to_string(&counter_events(&report)),
        ),
        ("dag", serde::json::to_string(&dag_value(&dag, &out.map))),
        ("paths", serde::json::to_string(&paths)),
        ("blame", serde::json::to_string(&blame)),
        ("prometheus", prometheus_text(&reg)),
    ];
    (texts, reg)
}

#[test]
fn export_bytes_match_the_golden_table() {
    let (got, reg) = exports();
    for (name, text) in &got {
        if *name == "prometheus" {
            prometheus_round_trips(&reg, text);
        } else if name.ends_with("jsonl") {
            assert!(text.ends_with('\n'), "{name}: one line per record");
            for line in text.lines() {
                round_trips(name, line);
            }
        } else {
            round_trips(name, text);
        }
    }
    let table: Vec<(&str, usize, u64)> = got
        .iter()
        .map(|(name, text)| (*name, text.len(), fnv1a(text)))
        .collect();
    if table != GOLDEN {
        for (name, len, digest) in &table {
            println!("    ({name:?}, {len}, {digest:#018x}),");
        }
        panic!("export bytes moved; the table above is what they now read");
    }
}
