//! The three workloads that simulate whole programs: `bulk-bus`,
//! `chatty-bus` and `airshed-trunk2`.

use crate::affinity;
use crate::bench::{add, queue_rates, timed, Bench, Ctx, Layers, PassStats, Res};
use crate::digest::{records_digest, results_digest};
use crate::span::Tracer;
use bytes::Bytes;
use fxnet::apps::airshed::{airshed_rank, AirshedParams};
use fxnet::apps::{fft2d, hist, sor, t2dfft};
use fxnet::numerics::fft::fft;
use fxnet::numerics::hist::local_histogram;
use fxnet::numerics::linalg::{stiffness_matrix, Lu};
use fxnet::numerics::sor::sor_sweep_block;
use fxnet::numerics::Complex;
use fxnet::proto::Network;
use fxnet::pvm::{MessageBuilder, OutMessage, PvmSystem, TaskId, FRAG_HEADER};
use fxnet::sim::{EtherBus, Frame, NicId, Proto, SimRng, RATE_10M};
use fxnet::telemetry::EventClass;
use fxnet::topo::CompositeFabric;
use fxnet::trace::TraceStore;
use fxnet::{
    AppOp, FrameRecord, HostId, KernelKind, RunOptions, RunResult, SimTime, SpmdConfig, Testbed,
    TestbedBuilder, TopologySpec,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Ranks the paper's programs are compiled for.
const P: usize = 4;
/// `compute_time` requests of the bare-engine hand-off drive.
const HANDOFF_REQUESTS: u32 = 50_000;
/// Fewer when unpinned, where one round trip can cost ten times more.
const HANDOFF_REQUESTS_UNPINNED: u32 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    Kernel(KernelKind),
    Airshed,
}

impl Program {
    fn name(self) -> &'static str {
        match self {
            Program::Kernel(k) => k.name(),
            Program::Airshed => "AIRSHED",
        }
    }
}

/// The CPU a pinned child runs on, and the ones it could run on.
pub struct Pinning {
    pub cpu: usize,
    pub allowed: Vec<usize>,
}

pub struct SimBench {
    pub programs: Vec<Program>,
    /// Two switches and a trunk in place of the paper's shared bus.
    pub trunk2: bool,
    pub seed: u64,
    /// Divides outer iteration counts and AIRSHED hours; 1 = paper scale.
    pub scale: usize,
    pub pinning: Pinning,
}

/// Registry counters the program exports, and the metric each feeds.
const COUNTERS: [(&str, &str); 13] = [
    ("sim.frames_delivered", "mac.frames_delivered"),
    ("sim.bytes_delivered", "mac.bytes_delivered"),
    ("sim.collisions", "mac.collisions"),
    ("sim.backoffs", "mac.backoffs"),
    ("sim.frames_dropped", "mac.frames_dropped"),
    ("proto.data_segments", "tcp.data_segments"),
    ("proto.acks_sent", "tcp.acks_sent"),
    ("proto.delayed_ack_fires", "tcp.delayed_ack_fires"),
    ("proto.retransmits", "tcp.retransmits"),
    ("pvm.messages_sent", "pvm.messages_sent"),
    ("pvm.fragments_sent", "pvm.fragments_sent"),
    ("pvm.pack_bytes", "pvm.pack_bytes"),
    ("pvm.heartbeats", "pvm.heartbeats"),
];

impl SimBench {
    fn testbed(&self, telemetry: bool) -> Testbed {
        let mut builder = TestbedBuilder::paper()
            .seed(self.seed)
            .telemetry_enabled(telemetry);
        if self.trunk2 {
            builder = builder.topology(TopologySpec::two_switches_trunk(9, RATE_10M));
        }
        builder.build()
    }

    fn airshed_params(&self) -> AirshedParams {
        let mut params = AirshedParams::paper();
        params.hours = (params.hours / self.scale).max(1);
        params
    }

    fn run(&self, tb: &Testbed, program: Program) -> Res<RunResult<u64>> {
        Ok(match program {
            Program::Kernel(k) => tb.run_kernel(k, self.scale)?,
            Program::Airshed => tb.run_airshed(self.airshed_params())?,
        })
    }

    /// The same run with every send recorded in the causal ledger.
    fn run_with_ledger(&self, tb: &Testbed, program: Program) -> Res<RunResult<u64>> {
        let opts = RunOptions {
            causal: true,
            ..RunOptions::default()
        };
        Ok(match program {
            Program::Kernel(k) => tb.run_kernel_opts(k, self.scale, opts)?,
            Program::Airshed => {
                let params = self.airshed_params();
                tb.try_run_opts(move |ctx| airshed_rank(ctx, &params), opts)?
            }
        })
    }

    /// Nanoseconds per rank↔sequencer round trip: a one-rank program of
    /// `requests` one-nanosecond `compute_time` calls on a silent LAN.
    fn handoff_ns(requests: u32) -> Res<f64> {
        let tb = TestbedBuilder::quiet(1).build();
        let t0 = Instant::now();
        tb.try_run(move |ctx| {
            for _ in 0..requests {
                ctx.compute_time(SimTime::from_nanos(1));
            }
        })?;
        Ok(t0.elapsed().as_nanos() as f64 / f64::from(requests))
    }

    /// The program's numerics at its sizes and iteration counts, called
    /// directly: no engine, no messages.
    fn numerics(&self, program: Program, tracer: &mut Tracer) {
        let scaled = |iters: usize| (iters / self.scale).max(1);
        match program {
            Program::Kernel(k @ (KernelKind::Fft2d | KernelKind::T2dfft)) => {
                let (n, iters) = if k == KernelKind::Fft2d {
                    let p = fft2d::FftParams::paper();
                    (p.n, p.iters)
                } else {
                    let p = t2dfft::T2dfftParams::paper();
                    (p.n, p.iters)
                };
                let row: Vec<Complex> = fft2d::initial_block(n, 0, 1)
                    .chunks_exact(2)
                    .map(|c| Complex::new(f64::from(c[0]), f64::from(c[1])))
                    .collect();
                let mut buf = row.clone();
                // n row transforms and n column transforms per iteration.
                tracer.span("numerics.fft", |_| {
                    for _ in 0..2 * n * scaled(iters) {
                        buf.copy_from_slice(&row);
                        fft(black_box(&mut buf));
                    }
                });
            }
            Program::Kernel(KernelKind::Sor) => {
                let p = sor::SorParams::paper();
                let mut block: Vec<Vec<f64>> =
                    (1..=p.n / P).map(|r| sor::initial_row(p.n, r)).collect();
                let halo = sor::initial_row(p.n, 1);
                tracer.span("numerics.sor", |_| {
                    for _ in 0..P * scaled(p.steps) {
                        block =
                            sor_sweep_block(black_box(&block), Some(&halo), Some(&halo), p.omega);
                    }
                });
            }
            Program::Kernel(KernelKind::Hist) => {
                let p = hist::HistParams::paper();
                let values: Vec<f64> = (0..p.n / P)
                    .flat_map(|r| (0..p.n).map(move |c| hist::pixel(p.n, r, c)))
                    .collect();
                tracer.span("numerics.hist", |_| {
                    for _ in 0..P * scaled(p.iters) {
                        black_box(local_histogram(black_box(&values), p.bins, 0.0, 256.0));
                    }
                });
            }
            Program::Kernel(KernelKind::Seq) => {}
            Program::Airshed => {
                let p = self.airshed_params();
                let mut rhs = vec![1.0f64; p.fe_dim];
                tracer.span("numerics.lu", |_| {
                    for _ in 0..p.hours {
                        let lus: Vec<Lu> = (0..p.layers)
                            .map(|l| {
                                let stiffness = stiffness_matrix(p.fe_dim, 0.5 + 0.1 * l as f64);
                                Lu::factor(stiffness).expect("diagonally dominant")
                            })
                            .collect();
                        // Two transport phases per step, one backsolve
                        // per layer and species in each.
                        for _ in 0..2 * p.steps * p.species {
                            for lu in &lus {
                                rhs.fill(1.0);
                                lu.solve(black_box(&mut rhs));
                            }
                        }
                    }
                });
            }
        }
    }

    /// Drive every layer under one captured run of `program`.
    fn program_ladder(&self, program: Program, ctx: &mut Ctx) -> Res<()> {
        let name = program.name();
        let tb = self.testbed(false);
        let cfg = tb.config();
        let run = ctx.tracer.span(&format!("capture.{name}"), |_| {
            self.run_with_ledger(&tb, program)
        })?;
        let ledger = &run.causal.as_ref().expect("causal capture").ops;
        let captured = records_digest(run.trace.iter().copied());

        self.numerics(program, &mut ctx.tracer);
        ctx.tracer.span("trace.store_build", |_| {
            black_box(TraceStore::from_records(&run.trace));
        });

        let scratch =
            vec![0.0f32; ledger.iter().map(|op| op.payload_bytes).max().unwrap_or(0) as usize / 4];
        ctx.tracer.span("pvm.pack", |_| {
            for op in ledger {
                black_box(build_message(op, &scratch));
            }
        });

        let replayed = ctx.tracer.span("pvm.replay", |_| {
            pvm_replay(cfg, ledger, &scratch, run.finished_at)
        });
        ctx.checks.require(
            records_digest(replayed) == captured,
            &format!("the pvm replay of {name} reproduces its captured trace"),
        );

        let segments = ctx
            .tracer
            .span("proto.replay", |_| proto_replay(cfg, ledger));
        let registry = &run
            .telemetry
            .as_ref()
            .expect("causal runs collect telemetry")
            .registry;
        ctx.checks.require(
            segments == registry.counter("tcp.data_segments"),
            &format!("the proto replay of {name} cuts as many data segments as the run"),
        );

        let offered = run.trace.len();
        let bps = cfg.pvm.net.ether.bandwidth_bps;
        let (span, delivered, lost) = if self.trunk2 {
            let spec = TopologySpec::two_switches_trunk(cfg.hosts, RATE_10M);
            let mut fabric = CompositeFabric::new(spec, &cfg.pvm.net.ether, cfg.pvm.net.seed);
            offer(&run.trace, bps, |nic, frame, t| {
                fabric.enqueue(nic, frame, t)
            });
            let delivered = ctx.tracer.span("topo.replay", |_| fabric.run_to_idle());
            ("topo.replay", delivered.len(), fabric.errors().len())
        } else {
            let mut bus = EtherBus::new(cfg.pvm.net.ether.clone(), SimRng::new(cfg.pvm.net.seed));
            for _ in 0..cfg.hosts {
                bus.attach();
            }
            offer(&run.trace, bps, |nic, frame, t| bus.enqueue(nic, frame, t));
            let delivered = ctx.tracer.span("sim.replay", |_| bus.run_to_idle());
            ("sim.replay", delivered.len(), bus.errors().len())
        };
        ctx.checks.require(
            delivered + lost == offered,
            &format!("{span} of {name} accounts for every captured frame"),
        );
        Ok(())
    }
}

/// Payload bytes of each fragment of the message behind `op`, from its
/// byte counts: equal-sized but for the last, as T2DFFT packs them.
fn fragment_lens(op: &AppOp) -> impl Iterator<Item = usize> {
    let frags = ((op.wire_bytes - op.payload_bytes) as usize / FRAG_HEADER).max(1);
    let payload = op.payload_bytes as usize;
    let per_frag = (payload / 4).div_ceil(frags).max(1) * 4;
    (0..frags).map(move |i| per_frag.min(payload.saturating_sub(i * per_frag)))
}

/// The message an op of the ledger sent, rebuilt.
fn build_message(op: &AppOp, scratch: &[f32]) -> OutMessage {
    let mut builder = MessageBuilder::new(0);
    if op.wire_bytes - op.payload_bytes > FRAG_HEADER as u64 {
        builder = builder.multi_pack();
    }
    for len in fragment_lens(op) {
        builder.pack_f32(&scratch[..len / 4]);
    }
    builder.finish()
}

fn sender(op: &AppOp) -> u32 {
    op.cause.as_app().expect("ledger ops carry app causes").rank
}

/// Re-send the ledger in its order through a bare `PvmSystem`, advancing
/// the network between sends exactly as the engine's sequencer would;
/// returns the trace the replay captured.
fn pvm_replay(
    cfg: &SpmdConfig,
    ledger: &[AppOp],
    scratch: &[f32],
    end: SimTime,
) -> Vec<FrameRecord> {
    let mut pvm = PvmSystem::new(cfg.pvm.clone(), cfg.p, cfg.hosts);
    pvm.set_promiscuous(true);
    let mut delivered = Vec::new();
    let mut advance = |pvm: &mut PvmSystem| {
        delivered.clear();
        pvm.advance(&mut delivered);
    };
    // Ranks whose last send overfilled their socket buffer: the engine
    // holds such a rank until the event that drains the buffer, and only
    // then sequences its next request.
    let mut blocked = vec![false; cfg.p as usize];
    for op in ledger {
        let src = TaskId(sender(op));
        let msg = build_message(op, scratch);
        if std::mem::take(&mut blocked[src.0 as usize]) {
            while pvm.sender_backlog(src) > cfg.socket_buf {
                advance(&mut pvm);
            }
        }
        // A rank's request goes before any event not earlier than its
        // clock, which read the send's wire time less its overhead.
        let clock = op.time.saturating_sub(cfg.cost.send_overhead(&msg));
        while pvm.next_event_time().is_some_and(|t| t < clock) {
            advance(&mut pvm);
        }
        pvm.send(op.time, src, TaskId(op.dst), msg);
        blocked[src.0 as usize] = pvm.sender_backlog(src) > cfg.socket_buf;
    }
    // As the engine ends a run: the events inside the program's
    // lifetime, then what is still on the wire, the heartbeats stopped.
    while pvm.next_event_time().is_some_and(|t| t <= end) {
        advance(&mut pvm);
    }
    pvm.finish();
    pvm.take_trace()
}

/// The ledger's transport bytes as `tcp_write`s into a bare `Network`,
/// one write per fragment; returns the data segments it cut.
fn proto_replay(cfg: &SpmdConfig, ledger: &[AppOp]) -> u64 {
    let mut net = Network::new(cfg.pvm.net.clone(), cfg.hosts as usize);
    let longest = ledger.iter().map(|op| op.wire_bytes).max().unwrap_or(0);
    let zeros = Bytes::from(vec![0u8; longest as usize]);
    let mut conns = HashMap::new();
    let mut events = Vec::new();
    for op in ledger {
        let (src, dst) = (HostId(sender(op)), HostId(op.dst));
        while net.next_event_time().is_some_and(|t| t < op.time) {
            events.clear();
            net.advance(&mut events);
        }
        let conn = *conns
            .entry((src.0.min(dst.0), src.0.max(dst.0)))
            .or_insert_with(|| net.connect(src, dst, op.time));
        for (i, len) in fragment_lens(op).enumerate() {
            let at = op.time + SimTime::from_nanos(cfg.pvm.frag_stagger.as_nanos() * i as u64);
            net.tcp_write(conn, src, zeros.slice(0..FRAG_HEADER + len), at);
        }
    }
    net.run_to_idle();
    net.tcp_stats().data_segments
}

/// Offer every captured frame to a bare fabric at the instant it must
/// have started transmitting to be captured when it was.
fn offer(trace: &[FrameRecord], bps: u64, mut enqueue: impl FnMut(NicId, Frame, SimTime)) {
    for (i, r) in trace.iter().enumerate() {
        let token = i as u64 + 1;
        let frame = match r.proto {
            Proto::Tcp => {
                let headers = Frame::tcp(r.src, r.dst, r.kind, 0, token).wire_len();
                Frame::tcp(r.src, r.dst, r.kind, r.wire_len - headers, token)
            }
            Proto::Udp => {
                let headers = Frame::udp(r.src, r.dst, 0, token).wire_len();
                Frame::udp(r.src, r.dst, r.wire_len - headers, token)
            }
        };
        let start = r.time.saturating_sub(frame.tx_time(bps));
        enqueue(NicId(r.src.0), frame, start);
    }
}

impl Bench for SimBench {
    fn pass(&mut self, ctx: &mut Ctx) -> Res<PassStats> {
        let traced = ctx.tracer.enabled;
        let (runs, wall_s, cpu_s) = timed(&mut ctx.tracer, |tracer| {
            let tb = self.testbed(traced);
            self.programs
                .iter()
                .map(|&p| tracer.span(&format!("apps.{}.wall", p.name()), |_| self.run(&tb, p)))
                .collect::<Res<Vec<_>>>()
        })?;
        let runs = runs?;

        let mut stats = PassStats {
            wall_s,
            cpu_s,
            frames: 0,
            sim_s: 0.0,
            counts: Layers::new(),
        };
        for (program, run) in self.programs.iter().zip(&runs) {
            let name = program.name();
            // A frame lost to sixteen collisions is CSMA/CD at work, and TCP
            // recovers: the count is pinned, not required to be zero.
            ctx.checks.same(
                name,
                format!(
                    "frames={} dropped={} finished_at_ns={} trace={} results={}",
                    run.trace.len(),
                    run.ether.frames_dropped,
                    run.finished_at.as_nanos(),
                    records_digest(run.trace.iter().copied()),
                    results_digest(&run.results),
                ),
            );
            stats.frames += run.trace.len() as u64;
            stats.sim_s += run.finished_at.as_secs_f64();

            let counts = &mut stats.counts;
            add(
                counts,
                &format!("apps.{name}.frames"),
                run.trace.len() as f64,
            );
            let Some(telemetry) = &run.telemetry else {
                continue;
            };
            for (metric, counter) in COUNTERS {
                add(counts, metric, telemetry.registry.counter(counter) as f64);
            }
            let profile = telemetry
                .profile
                .as_ref()
                .expect("telemetry carries a profile");
            let mut classed_s = 0.0;
            for (class, histogram) in EventClass::ALL.iter().zip(&profile.histograms) {
                let seconds = histogram.total_ns as f64 / 1e9;
                classed_s += seconds;
                match class {
                    EventClass::NetAdvance => {
                        add(counts, "fx.net_advance_events", histogram.count as f64);
                        add(counts, "fx.net_advance_s", seconds);
                    }
                    _ => add(counts, "fx.requests", histogram.count as f64),
                }
                match class {
                    EventClass::Send => add(counts, "fx.send_s", seconds),
                    EventClass::Recv => add(counts, "fx.recv_s", seconds),
                    EventClass::Span => add(counts, "fx.span_s", seconds),
                    _ => {}
                }
            }
            // What the sequencer spent in no event class: waiting for
            // rank threads to compute, pack and ask again.
            add(
                counts,
                "fx.rank_wait_s",
                profile.wall.as_secs_f64() - classed_s,
            );
        }
        Ok(stats)
    }

    fn ladder(&mut self, ctx: &mut Ctx, layers: &mut Layers, wall_s: f64) -> Res<()> {
        for &program in &self.programs {
            self.program_ladder(program, ctx)?;
        }
        queue_rates(&mut ctx.tracer, layers);

        let pinned = ctx
            .tracer
            .span("fx.handoff", |_| Self::handoff_ns(HANDOFF_REQUESTS))?;
        // The cross-core wake lottery the pinned passes are spared.
        affinity::set_cpus(&self.pinning.allowed)?;
        let unpinned = ctx.tracer.span("fx.handoff_unpinned", |_| {
            Self::handoff_ns(HANDOFF_REQUESTS_UNPINNED)
        });
        affinity::set_cpus(&[self.pinning.cpu])?;
        let unpinned = unpinned?;
        add(layers, "fx.handoff_ns", pinned);
        add(layers, "fx.handoff_unpinned_ns", unpinned);

        let by_name = ctx.tracer.seconds_by_name();
        let seconds = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
        let requests = layers.get("fx.requests").copied().unwrap_or(0.0);
        let handoff_s = requests * pinned / 1e9;
        add(layers, "fx.handoff_share", handoff_s / wall_s);
        // The pvm replay runs the proto and sim layers beneath it and
        // packs every message, so the ladder's self times sum to it plus
        // the numerics and the hand-offs.
        let numerics_s: f64 = ["fft", "sor", "hist", "lu"]
            .iter()
            .map(|n| seconds(&format!("numerics.{n}")))
            .sum();
        let attributed_s = numerics_s + seconds("pvm.replay") + handoff_s;
        add(
            layers,
            "apps.unattributed_share",
            1.0 - attributed_s / wall_s,
        );
        for fabric in ["sim", "topo"] {
            let replay_s = seconds(&format!("{fabric}.replay"));
            if replay_s > 0.0 {
                let frames: f64 = self
                    .programs
                    .iter()
                    .map(|p| layers[&format!("apps.{}.frames", p.name())])
                    .sum();
                add(
                    layers,
                    &format!("{fabric}.replay_frames_per_s"),
                    frames / replay_s,
                );
            }
        }
        Ok(())
    }
}
