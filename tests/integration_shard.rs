//! Cross-crate integration for the sharded DES core (`fxnet-shard`
//! behind `TestbedBuilder::shards`): every observable artifact of a run
//! — the promiscuous trace, program timing, MAC statistics, the causal
//! capture, the streaming watcher's event log and metrics, and the
//! violation-blame export — is byte-identical at shard counts 1, 2,
//! and 4 on every fabric, for all six measured programs and across
//! seeds. Shard count 1 takes the legacy sequential fabric path, so
//! these equalities also pin the sharded core to the pre-shard
//! behavior bit for bit. The threaded drain, which no program runs, is
//! held to the same rule on the load `repro analysis-scale` and the
//! benchmark's `fabric-synth` offer it — and on that load the order in
//! which the fabric's per-link lanes release events is held to the pop
//! order of `KeyedQueue`, the one heap the fabric ran on before.

use fxnet::causal::{blame_value, blame_violation};
use fxnet::mix::MixTenant;
use fxnet::shard::ShardedFabric;
use fxnet::sim::{EtherConfig, Frame, FrameKind, KeyedQueue, NicId};
use fxnet::telemetry::prometheus_text;
use fxnet::topo::{CompositeFabric, Partition};
use fxnet::watch::WatchConfig;
use fxnet::{HostId, KernelKind, RunOptions, RunResult, SimTime, TestbedBuilder, TopologySpec};

/// A measured program as a function of the fabric and the shard count.
type Program = Box<dyn Fn(TopologySpec, usize) -> RunResult<u64>>;

/// The six measured programs (§5) at reduced scale, parameterized by
/// fabric and shard count: the five Fx kernels plus the §7.3 shift
/// pattern. Determinism is scale-independent, so the divisors are
/// chosen for suite wall clock, not fidelity.
fn programs(seed: u64) -> Vec<(&'static str, Program)> {
    let kernel = |k: KernelKind, div: usize| {
        Box::new(move |spec: TopologySpec, shards: usize| {
            TestbedBuilder::paper()
                .seed(seed)
                .topology(spec)
                .shards(shards)
                .build()
                .run_kernel(k, div)
                .unwrap()
        }) as Program
    };
    vec![
        ("SOR", kernel(KernelKind::Sor, 50)),
        ("2DFFT", kernel(KernelKind::Fft2d, 50)),
        ("T2DFFT", kernel(KernelKind::T2dfft, 50)),
        ("SEQ", kernel(KernelKind::Seq, 10)),
        ("HIST", kernel(KernelKind::Hist, 50)),
        (
            "SHIFT",
            Box::new(move |spec: TopologySpec, shards: usize| {
                TestbedBuilder::quiet(4)
                    .seed(seed)
                    .topology(spec)
                    .shards(shards)
                    .build()
                    .run(move |ctx| {
                        let payload = vec![1u8; 40_000];
                        for round in 0..3i32 {
                            ctx.compute_time(SimTime::from_millis(30));
                            let _ = fxnet::fx::shift(ctx, round, 1, &payload);
                        }
                        0u64
                    })
            }),
        ),
    ]
}

/// The fabrics the determinism contract is pinned on: the degenerate
/// single segment (one shard no matter what is requested), the
/// two-switch trunk (cut into 2 blocks), and the two-level tree (3).
fn fabrics(hosts: u32) -> Vec<TopologySpec> {
    vec![
        TopologySpec::single_segment(hosts, fxnet::sim::RATE_10M),
        TopologySpec::two_switches_trunk(hosts, fxnet::sim::RATE_10M),
        TopologySpec::two_level_tree(hosts, fxnet::sim::RATE_10M),
    ]
}

fn hosts_of(name: &str) -> u32 {
    if name == "SHIFT" {
        4
    } else {
        9
    }
}

#[test]
fn six_programs_are_byte_identical_at_shard_counts_1_2_4() {
    for seed in [7u64, 1998] {
        for (name, run) in programs(seed) {
            for spec in fabrics(hosts_of(name)) {
                // shards=1 takes the legacy sequential fabric path.
                let base = run(spec.clone(), 1);
                for shards in [2usize, 4] {
                    let got = run(spec.clone(), shards);
                    let label = format!("{name} on {} seed={seed} shards={shards}", spec.label());
                    assert_eq!(base.trace, got.trace, "{label}: trace diverged");
                    assert_eq!(
                        base.finished_at, got.finished_at,
                        "{label}: program timing diverged"
                    );
                    assert_eq!(base.ether, got.ether, "{label}: MAC statistics diverged");
                    assert_eq!(base.results, got.results, "{label}: results diverged");
                }
            }
        }
    }
}

#[test]
fn causal_capture_is_byte_identical_across_shard_counts() {
    let run_at = |shards: usize| {
        let out = TestbedBuilder::paper()
            .seed(7)
            .topology(TopologySpec::two_switches_trunk(9, fxnet::sim::RATE_10M))
            .shards(shards)
            .build()
            .run_kernel_opts(
                KernelKind::Hist,
                50,
                RunOptions {
                    causal: true,
                    ..RunOptions::default()
                },
            )
            .unwrap();
        serde::json::to_string(&out.causal.expect("causal capture on"))
    };
    let base = run_at(1);
    assert_eq!(base, run_at(2), "2 shards: causal capture diverged");
    assert_eq!(base, run_at(4), "4 shards: causal capture diverged");
}

/// The watched two-tenant mix on a trunked fabric — one honest shift
/// tenant, one claiming a tenth of its true burst sizes — with causal
/// capture attached. Returns the three artifacts repro serializes:
/// the watcher's JSONL event log (flight recorder included), the
/// Prometheus metrics snapshot, and the violation-blame JSON.
fn watched_artifacts(shards: usize) -> (String, String, String) {
    let mut spec = TopologySpec::two_switches_trunk(4, fxnet::sim::RATE_10M);
    spec.attachments = vec![0, 1, 0, 1]; // both tenants span the trunk
    let mut liar = MixTenant::shift("liar", 0.05, 30_000, 4, 2).with_claim_scale(0.1);
    liar.start = SimTime::from_millis(30);
    let out = TestbedBuilder::quiet(4)
        .seed(11)
        .topology(spec)
        .shards(shards)
        .build()
        .mix()
        .solo_baselines(false)
        .causal(true)
        .tenant(MixTenant::shift("honest", 0.05, 30_000, 4, 2))
        .tenant(liar)
        .watch(WatchConfig::default())
        .run();
    let report = out.watch.as_ref().expect("watch was enabled");
    let run = out.causal.as_ref().expect("causal capture was enabled");
    let event = report
        .events
        .iter()
        .find(|e| e.tenant == "liar")
        .expect("the over-driver latches a violation");
    let blame = blame_violation(event, run, &out.map);
    assert!(
        blame.matched,
        "flight recorder located in the causal stream"
    );
    (
        report.events_jsonl(),
        prometheus_text(&report.registry),
        serde::json::to_string(&blame_value(&blame)),
    )
}

#[test]
fn watch_events_metrics_and_blame_are_byte_identical_across_shard_counts() {
    let base = watched_artifacts(1);
    assert_eq!(base, watched_artifacts(2), "2 shards: artifacts diverged");
    assert_eq!(base, watched_artifacts(4), "4 shards: artifacts diverged");
}

/// Hosts of the synth-shaped load, eight to a switch.
const HOSTS: u32 = 16;

fn synth_spec() -> TopologySpec {
    TopologySpec::two_switches_trunk(HOSTS, fxnet::sim::RATE_10M)
}

/// The synth-shaped batch load: 16 hosts on two switches, rounds of one
/// frame per host 700 µs apart in two burst groups 300 ms apart, every
/// 16th frame to the mirror host across the trunk and the rest to a
/// neighbour on the sender's own switch.
fn offer_synth(spec: &TopologySpec, mut enqueue: impl FnMut(NicId, Frame, SimTime)) {
    const ROUNDS_PER_GROUP: u32 = 96;
    for i in 0..2 * ROUNDS_PER_GROUP * HOSTS {
        let src = i % HOSTS;
        let dst = if i % 16 == 0 {
            (src + HOSTS / 2) % HOSTS
        } else {
            let half = HOSTS / 2;
            src / half * half + (src + 1) % half
        };
        assert_eq!(
            spec.attachments[src as usize] == spec.attachments[dst as usize],
            i % 16 != 0
        );
        let frame = Frame::tcp(
            HostId(src),
            HostId(dst),
            FrameKind::Data,
            200 + (i * 97) % 1200,
            u64::from(i) + 1,
        );
        let round = u64::from(i / HOSTS);
        let group = u64::from(ROUNDS_PER_GROUP);
        let t_us = (round / group) * (group * 700 + 300_000) + (round % group) * 700;
        enqueue(NicId(src), frame, SimTime::from_micros(t_us));
    }
}

fn synth_loaded(seed: u64, shards: usize) -> ShardedFabric {
    let spec = synth_spec();
    let mut fab = ShardedFabric::new(spec.clone(), &EtherConfig::default(), seed, shards);
    offer_synth(&spec, |nic, frame, t| fab.enqueue(nic, frame, t));
    fab
}

#[test]
fn threaded_drain_of_the_synth_load_is_identical_at_shard_counts_1_2() {
    for seed in [7u64, 1998] {
        let mut base = synth_loaded(seed, 1);
        let want = base.drain_parallel();
        assert_eq!(want.deliveries.len(), 2 * 96 * 16);
        let mut split = synth_loaded(seed, 2);
        assert_eq!(split.shard_count(), 2);
        let got = split.drain_parallel();
        assert_eq!(got.violations, 0, "seed={seed}");
        assert_eq!(got.events, want.events, "seed={seed}: event count diverged");
        assert_eq!(
            got.deliveries, want.deliveries,
            "seed={seed}: deliveries diverged"
        );
        assert_eq!(split.stats(), base.stats(), "seed={seed}: MAC statistics");
        assert_eq!(split.flows(), base.flows(), "seed={seed}: node flows");
        assert_eq!(split.errors(), base.errors(), "seed={seed}: errors");
        // One frame a round crosses, all from sw0.
        let sent: Vec<u64> = got.per_shard.iter().map(|s| s.crossings_sent).collect();
        assert_eq!(sent, [2 * 96, 0], "seed={seed}");
        // The whole load is enqueued before the drain and a frame holds
        // one scheduled event at a time, so an event list peaks at once —
        // except sw1's, which takes in the crossers as fast as sw0's
        // thread sends them.
        let peak = |o: &fxnet::shard::DrainOutcome| -> Vec<u64> {
            o.per_shard.iter().map(|s| s.pending_high_water).collect()
        };
        assert_eq!(peak(&want), [2 * 96 * 16], "seed={seed}");
        let split_peak = peak(&got);
        assert_eq!(split_peak[0], 96 * 16, "seed={seed}");
        assert!(
            (96 * 16..=96 * 16 + 2 * 96).contains(&split_peak[1]),
            "seed={seed}: {split_peak:?}"
        );
    }
}

/// The heap as an oracle. Drive the synth load through one whole fabric
/// and through two scoped ones (least next key first, crossings injected
/// at once — what the drain's merge reproduces), give every processed
/// event's key to a `KeyedQueue`, and require the heap to pop them in the
/// order the lanes released them; the deliveries are the threaded
/// drain's.
#[test]
fn lanes_release_events_in_the_keyed_heaps_pop_order_at_shard_counts_1_2() {
    let ether = EtherConfig::default();
    for shards in [1usize, 2] {
        let spec = synth_spec();
        let part = Partition::new(&spec, shards);
        assert_eq!(part.shards, shards);
        let mut fabs: Vec<CompositeFabric> = (0..shards)
            .map(|s| {
                let mut fab = CompositeFabric::new(spec.clone(), &ether, 1998);
                if shards > 1 {
                    fab.set_scope(part.owned_mask(s));
                }
                fab
            })
            .collect();
        let mut stamp = 0;
        offer_synth(&spec, |nic, frame, t| {
            fabs[part.host_shard[nic.0 as usize]].enqueue_stamped(nic, frame, t, stamp);
            stamp += 1;
        });
        let mut oracle = KeyedQueue::new();
        let (mut deliveries, mut crossed) = (Vec::new(), Vec::new());
        while let Some((_, s)) = (0..shards)
            .filter_map(|s| fabs[s].next_key().map(|k| (k, s)))
            .min()
        {
            let key = fabs[s].advance_keyed(&mut deliveries).expect("peeked");
            oracle.push(key, oracle.len());
            fabs[s].drain_outbox(&mut crossed);
            for cf in crossed.drain(..) {
                fabs[part.node_shard[cf.node()]].inject(cf);
            }
        }
        let processed = oracle.len();
        let popped: Vec<usize> = std::iter::from_fn(|| oracle.pop())
            .map(|(_, i)| i)
            .collect();
        assert!(
            popped.iter().copied().eq(0..processed),
            "{shards} shard(s): the heap pops the processed keys in another order"
        );
        let want = synth_loaded(1998, shards).drain_parallel();
        assert_eq!(processed as u64, want.events, "{shards} shard(s)");
        assert_eq!(deliveries, want.deliveries, "{shards} shard(s)");
    }
}
