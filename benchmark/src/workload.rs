//! The five workloads and the metric tables. `BENCHMARK.json` at the
//! repo root repeats these names; a unit test keeps the two in step.

/// One named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkBus,
    ChattyBus,
    AirshedTrunk2,
    FabricSynth,
    TraceScan,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BulkBus,
        Workload::ChattyBus,
        Workload::AirshedTrunk2,
        Workload::FabricSynth,
        Workload::TraceScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkBus => "bulk-bus",
            Workload::ChattyBus => "chatty-bus",
            Workload::AirshedTrunk2 => "airshed-trunk2",
            Workload::FabricSynth => "fabric-synth",
            Workload::TraceScan => "trace-scan",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Full simulated programs run with affinity restricted to one CPU:
    /// the engine never has two runnable threads (see `affinity.rs`).
    pub fn pinned(self) -> bool {
        matches!(
            self,
            Workload::BulkBus | Workload::ChattyBus | Workload::AirshedTrunk2
        )
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher": which way the metric improves.
    pub better: &'static str,
    /// A count made by the program: for one seed it repeats exactly,
    /// and `--repeat-check` insists that it does.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        exact: false,
    }
}

/// A program count: less work for the same output is better.
const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        exact: true,
    }
}

/// What a user of the system sees, from untraced passes, each with the
/// share by which its median may worsen before that is a regression.
///
/// The bounds were calibrated on a 2-core box as `README.md` tells: ten
/// runs per workload, each on another seed, in sets an hour apart. On
/// the bus workloads the seed alone moves a pass by several percent (it
/// decides every collision), the host itself drifted by up to 12 %
/// between sets, and a bound is kept twice as wide as the widest spread
/// or gap seen.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (lower("setup_s", "s"), 0.25),
    (lower("wall_s", "s"), 0.25),
    (higher("frames_per_s", "frames/s"), 0.25),
    (lower("wall_per_sim_s", "s/s"), 0.25),
    (lower("cpu_s", "s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.20),
];

/// Single layers, from the traced run. The prefix is the crate. A layer
/// a workload never enters reads 0 there. Sizes carry the direction in
/// which less work is done for the same output. `shard.null_rounds`
/// depends on thread timing, so it is no `count`.
pub const PER_LAYER: &[MetricDef] = &[
    higher("run.passes", "count"),
    lower("run.wall_min_s", "s"),
    lower("run.wall_max_s", "s"),
    lower("run.wall_iqr_s", "s"),
    higher("run.cores", "count"),
    higher("run.pinned", "count"),
    lower("run.trace_overhead_ratio", "ratio"),
    lower("apps.SOR.wall_s", "s"),
    lower("apps.2DFFT.wall_s", "s"),
    lower("apps.T2DFFT.wall_s", "s"),
    lower("apps.SEQ.wall_s", "s"),
    lower("apps.HIST.wall_s", "s"),
    lower("apps.AIRSHED.wall_s", "s"),
    count("apps.SOR.frames", "frames"),
    count("apps.2DFFT.frames", "frames"),
    count("apps.T2DFFT.frames", "frames"),
    count("apps.SEQ.frames", "frames"),
    count("apps.HIST.frames", "frames"),
    count("apps.AIRSHED.frames", "frames"),
    lower("apps.unattributed_share", "ratio"),
    count("fx.requests", "count"),
    count("fx.net_advance_events", "count"),
    lower("fx.net_advance_s", "s"),
    lower("fx.send_s", "s"),
    lower("fx.recv_s", "s"),
    lower("fx.span_s", "s"),
    lower("fx.rank_wait_s", "s"),
    lower("fx.handoff_ns", "ns"),
    lower("fx.handoff_unpinned_ns", "ns"),
    lower("fx.handoff_share", "ratio"),
    lower("numerics.fft_s", "s"),
    lower("numerics.sor_s", "s"),
    lower("numerics.hist_s", "s"),
    lower("numerics.lu_s", "s"),
    count("pvm.messages_sent", "count"),
    count("pvm.fragments_sent", "count"),
    count("pvm.pack_bytes", "B"),
    count("pvm.heartbeats", "count"),
    lower("pvm.pack_s", "s"),
    lower("pvm.replay_s", "s"),
    count("proto.data_segments", "count"),
    count("proto.acks_sent", "count"),
    count("proto.delayed_ack_fires", "count"),
    count("proto.retransmits", "count"),
    lower("proto.replay_s", "s"),
    count("sim.frames_delivered", "frames"),
    count("sim.bytes_delivered", "B"),
    count("sim.collisions", "count"),
    count("sim.backoffs", "count"),
    count("sim.frames_dropped", "frames"),
    lower("sim.replay_s", "s"),
    higher("sim.replay_frames_per_s", "frames/s"),
    higher("sim.keyed_queue_ops_per_s", "1/s"),
    higher("sim.calendar_queue_ops_per_s", "1/s"),
    lower("topo.replay_s", "s"),
    higher("topo.replay_frames_per_s", "frames/s"),
    higher("shard.shards", "count"),
    lower("shard.enqueue_s", "s"),
    lower("shard.drain_s", "s"),
    count("shard.events", "count"),
    higher("shard.events_per_s", "1/s"),
    lower("shard.null_rounds", "count"),
    count("shard.violations", "count"),
    lower("shard.drain_s1_s", "s"),
    lower("trace.capture_s", "s"),
    lower("trace.chunk_write_s", "s"),
    lower("trace.load_s", "s"),
    lower("trace.store_build_s", "s"),
    lower("trace.file_bytes", "B"),
    lower("trace.bytes_per_frame", "B"),
    lower("trace.chunks", "count"),
    lower("bench.figures_s", "s"),
    lower("bench.stream_scan_s", "s"),
    lower("bench.stream_resident_bytes", "B"),
    lower("spectral.periodogram_s", "s"),
    lower("metrics.scaling_accum_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn names_round_trip_and_unknown_ones_are_refused() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bulk"), None);
        assert_eq!(Workload::parse(""), None);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the runner emits. They must name the same things.
    #[test]
    fn benchmark_json_names_what_the_runner_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = serde::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            json.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let declared = |defs: &[&MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect()
        };
        let end_to_end: Vec<&MetricDef> = END_TO_END.iter().map(|(def, _)| def).collect();
        assert_eq!(listed("end_to_end"), declared(&end_to_end));
        assert_eq!(
            listed("per_layer"),
            declared(&PER_LAYER.iter().collect::<Vec<_>>())
        );
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        let bounds: Vec<f64> = json
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("bound").and_then(Value::as_f64).unwrap())
            .collect();
        let declared_bounds: Vec<f64> = END_TO_END.iter().map(|(_, bound)| *bound).collect();
        assert_eq!(bounds, declared_bounds);
        assert_eq!(
            json.get("run_seconds").and_then(Value::as_u64),
            Some(crate::args::DEFAULT_SECONDS)
        );
    }
}
