//! The synthetic offered load of `repro analysis-scale`, seeded: waves
//! of grouped bursts on a 16-host two-switch fabric, every 16th frame
//! crossing the trunk. `fabric-synth` times it; `trace-scan` uses it to
//! make its input file.

use crate::span::Tracer;
use fxnet::shard::ShardedFabric;
use fxnet::sim::{EtherConfig, EtherStats, Frame, FrameKind, NicId, RATE_10M};
use fxnet::trace::{ChunkDirectory, ChunkedWriter};
use fxnet::{FrameRecord, HostId, SimTime, TopologySpec};
use fxnet_bench::SCAN_CHUNK_FRAMES;
use std::path::Path;

const HOSTS: u32 = 16;
/// Rounds (one frame per host each) per wave at full scale.
pub const ROUNDS_PER_WAVE: u32 = 32_768;
/// Rounds per burst group; a quiet gap closes each group, so the trace
/// has a burst fundamental for the scan's harmonic probe.
const ROUNDS_PER_GROUP: u32 = 256;
const ROUND_US: u64 = 700;
/// Longer than the report's 120 ms burst gap.
const GAP_US: u64 = 300_000;
const GROUP_PERIOD_US: u64 = ROUNDS_PER_GROUP as u64 * ROUND_US + GAP_US;

/// The burst-group fundamental, Hz.
pub const BASE_HZ: f64 = 1e6 / GROUP_PERIOD_US as f64;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One wave's offered load and the fabric it is offered to.
pub struct Synth {
    spec: TopologySpec,
    ether: EtherConfig,
    seed: u64,
    load: Vec<(NicId, Frame, SimTime)>,
    /// Offset between waves: one spare group period keeps them disjoint.
    wave_period_ns: u64,
}

/// What synthesizing a file did, summed over its waves.
pub struct SynthOutcome {
    pub directory: ChunkDirectory,
    pub shards: usize,
    pub events: u64,
    pub violations: u64,
    pub null_rounds: u64,
    /// Frames the fabric destroyed instead of delivering.
    pub errors: usize,
    pub ether: EtherStats,
    /// Capture time of the last frame, ns.
    pub last_ns: u64,
}

impl Synth {
    /// The load of one wave of `rounds` rounds: payload lengths of
    /// 200–1399 B drawn from `seed`, destinations the nearest neighbour
    /// on the same switch, except that every 16th frame goes to the
    /// mirror host across the trunk.
    pub fn new(seed: u64, rounds: u32) -> Synth {
        let spec = TopologySpec::two_switches_trunk(HOSTS, RATE_10M);
        let mut rng = seed;
        let load = (0..rounds * HOSTS)
            .map(|i| {
                let src = i % HOSTS;
                let dst = if i % 16 == 0 {
                    (src + HOSTS / 2) % HOSTS
                } else {
                    let same_switch =
                        |d: u32| spec.attachments[d as usize] == spec.attachments[src as usize];
                    let mut d = (src + 1) % HOSTS;
                    while d == src || !same_switch(d) {
                        d = (d + 1) % HOSTS;
                    }
                    d
                };
                let payload = 200 + (splitmix64(&mut rng) % 1200) as u32;
                let frame = Frame::tcp(
                    HostId(src),
                    HostId(dst),
                    FrameKind::Data,
                    payload,
                    u64::from(i) + 1,
                );
                let round = u64::from(i / HOSTS);
                let group = u64::from(ROUNDS_PER_GROUP);
                let t_us = (round / group) * GROUP_PERIOD_US + (round % group) * ROUND_US;
                (NicId(src), frame, SimTime::from_micros(t_us))
            })
            .collect();
        let groups = u64::from(rounds.div_ceil(ROUNDS_PER_GROUP));
        Synth {
            spec,
            ether: EtherConfig::default(),
            seed,
            load,
            wave_period_ns: (groups + 1) * GROUP_PERIOD_US * 1_000,
        }
    }

    /// A fresh fabric at `shards` with one wave enqueued.
    pub fn loaded_fabric(&self, shards: usize) -> ShardedFabric {
        let mut fab = ShardedFabric::new(self.spec.clone(), &self.ether, self.seed, shards);
        for (nic, frame, t) in &self.load {
            fab.enqueue(*nic, *frame, *t);
        }
        fab
    }

    /// Drain `waves` waves through the fabric at `shards` and append the
    /// captured deliveries to a chunked trace at `path`.
    pub fn write(
        &self,
        path: &Path,
        waves: u32,
        shards: usize,
        tracer: &mut Tracer,
    ) -> std::io::Result<SynthOutcome> {
        let mut writer = ChunkedWriter::create(path)?;
        let mut out = SynthOutcome {
            directory: ChunkDirectory { chunks: Vec::new() },
            shards: 0,
            events: 0,
            violations: 0,
            null_rounds: 0,
            errors: 0,
            ether: EtherStats::default(),
            last_ns: 0,
        };
        for wave in 0..u64::from(waves) {
            let mut fab = tracer.span("shard.enqueue", |_| self.loaded_fabric(shards));
            let drained = tracer.span("shard.drain", |_| fab.drain_parallel());
            let offset_ns = wave * self.wave_period_ns;
            let records: Vec<FrameRecord> = tracer.span("trace.capture", |_| {
                drained
                    .deliveries
                    .iter()
                    .map(|d| {
                        let t = SimTime::from_nanos(d.time.as_nanos() + offset_ns);
                        FrameRecord::capture(t, &d.frame)
                    })
                    .collect()
            });
            tracer.span("trace.chunk_write", |_| {
                records
                    .chunks(SCAN_CHUNK_FRAMES)
                    .try_for_each(|batch| writer.append_records(batch))
            })?;
            out.shards = fab.shard_count();
            out.events += drained.events;
            out.violations += drained.violations;
            out.null_rounds += drained.null_rounds;
            out.errors += fab.errors().len();
            let stats = fab.stats();
            out.ether.frames_delivered += stats.frames_delivered;
            out.ether.bytes_delivered += stats.bytes_delivered;
            out.ether.collisions += stats.collisions;
            out.ether.backoffs += stats.backoffs;
            out.ether.frames_dropped += stats.frames_dropped;
            out.last_ns = records.last().map_or(out.last_ns, |r| r.time.as_nanos());
        }
        out.directory = tracer.span("trace.chunk_write", |_| writer.finish())?;
        Ok(out)
    }
}
