//! The sequencing oracle: seeded random SPMD programs whose every
//! observable outcome is pinned by digest.
//!
//! The engine's sequencer decides the order of every compute phase,
//! send, receive, barrier and network event, and nothing else in the
//! repository states that order except the handful of paper programs in
//! `benchmark/expected.json`. Here a seeded generator builds small
//! programs that reach every corner of it — 2–5 ranks per group, two
//! staggered groups, compute/send/recv/barrier/phase mixes, messages on
//! both sides of a 4 KB socket buffer and bursts of small sends that
//! overflow it together — and pins, per program, the packet trace,
//! `finished_at`, the rank results, the sorted telemetry spans, the
//! counter registry, and the causal op ledger. The digests in [`GOLDEN`]
//! were recorded from a sequencer that waited for every rank's next
//! request before each decision, the order today's sequencer must
//! reproduce while ranks still run; they move only with a change that
//! is meant to move them.
//!
//! On a mismatch the test prints the whole table as it now reads.
//!
//! `every_offer_order_sequences_as_the_threaded_run` records each
//! program's requests once through the threaded driver, then replays them
//! on the bare sequencer, single-threaded, in seeded offer orders. Every
//! order must take the same steps and give the threaded, golden outcome.
//! That needs the crate-private sequencer, so this module lives in the
//! crate rather than under `tests/`.

use crate::engine::{drive, sequencer};
use crate::sequencer::{Request, Step as Decision};
use crate::SpmdConfig;
use crate::{run, AppOp, DescheduleConfig, GroupSpec, RankCtx, RunOptions, RunResult};
use fxnet_pvm::{Message, MessageBuilder, Route};
use fxnet_sim::{CausalEvent, FrameRecord, SimRng, SimTime};
use fxnet_telemetry::{EventClass, SpanRecord, TelemetryRegistry};

/// One statement of a generated SPMD program; every rank of a group runs
/// the same list.
#[derive(Debug, Clone)]
enum Step {
    /// Every rank computes `base_ns + rank * skew_ns`.
    Compute {
        base_ns: u64,
        skew_ns: u64,
    },
    /// `from` sends `count` messages of `bytes` to `to`, computing
    /// `gap_ns` before each; `to` computes `late_ns`, then receives them.
    Burst {
        from: u32,
        to: u32,
        count: u32,
        bytes: usize,
        gap_ns: u64,
        late_ns: u64,
    },
    /// Every rank sends `bytes` to every other, then receives from each.
    AllToAll {
        bytes: usize,
    },
    Barrier,
    Phase(&'static str, Vec<Step>),
}

const PHASES: [&str; 3] = ["alpha", "beta", "gamma"];
const SOCKET_BUF: u64 = 4096;

/// A message size: eight bytes, small, medium, or alone above the
/// socket buffer.
fn size(rng: &mut SimRng) -> usize {
    match rng.below(4) {
        0 => 8,
        1 => 8 + rng.below(300) as usize,
        2 => 1000 + rng.below(2500) as usize,
        _ => SOCKET_BUF as usize + 100 + rng.below(6000) as usize,
    }
}

fn burst(rng: &mut SimRng, p: u32) -> Step {
    let from = rng.below(u64::from(p)) as u32;
    let to = (from + 1 + rng.below(u64::from(p - 1)) as u32) % p;
    // Half the bursts are many small sends that only together overflow
    // the socket buffer.
    let (count, bytes) = if rng.chance(0.5) {
        (20 + rng.below(50) as u32, 100 + rng.below(200) as usize)
    } else {
        (1 + rng.below(4) as u32, size(rng))
    };
    let gap_ns = if rng.chance(0.5) {
        rng.below(200_000)
    } else {
        0
    };
    let late_ns = if rng.chance(0.5) {
        rng.below(20_000_000)
    } else {
        0
    };
    Step::Burst {
        from,
        to,
        count,
        bytes,
        gap_ns,
        late_ns,
    }
}

fn steps(rng: &mut SimRng, p: u32, depth: u32) -> Vec<Step> {
    let n = 3 + rng.below(7);
    (0..n)
        .map(|_| match rng.below(if depth == 0 { 7 } else { 6 }) {
            0 => Step::Compute {
                base_ns: rng.below(3_000_000),
                skew_ns: rng.below(1_000_000),
            },
            1..=3 => burst(rng, p),
            4 => Step::AllToAll { bytes: size(rng) },
            5 => Step::Barrier,
            _ => Step::Phase(
                PHASES[rng.below(PHASES.len() as u64) as usize],
                steps(rng, p, depth + 1),
            ),
        })
        .collect()
}

/// Per-rank state while interpreting a program.
struct Rank {
    /// FNV-1a over every received tag and body, in receive order.
    acc: u64,
    /// Tag of the next message this rank sends.
    tag: i32,
}

fn payload(ctx: &RankCtx, st: &mut Rank, bytes: usize) -> fxnet_pvm::OutMessage {
    let mut b = MessageBuilder::new(st.tag);
    let salt = ctx.rank().wrapping_mul(31).wrapping_add(st.tag as u32);
    let body: Vec<u8> = (0..bytes)
        .map(|i| (salt.wrapping_add(i as u32 * 7)) as u8)
        .collect();
    b.pack_bytes(&body);
    st.tag += 1;
    b.finish()
}

fn fold(st: &mut Rank, m: &Message) {
    st.acc = fnv(st.acc, &m.tag.to_le_bytes());
    st.acc = fnv(st.acc, &m.body);
}

fn exec(ctx: &mut RankCtx, program: &[Step], st: &mut Rank) {
    let (me, p) = (ctx.rank(), ctx.nprocs());
    for step in program {
        match step {
            Step::Compute { base_ns, skew_ns } => {
                ctx.compute_time(SimTime::from_nanos(base_ns + skew_ns * u64::from(me)));
            }
            &Step::Burst {
                from,
                to,
                count,
                bytes,
                gap_ns,
                late_ns,
            } => {
                if me == from {
                    for _ in 0..count {
                        ctx.compute_time(SimTime::from_nanos(gap_ns));
                        let m = payload(ctx, st, bytes);
                        ctx.send(to, m);
                    }
                } else if me == to {
                    ctx.compute_time(SimTime::from_nanos(late_ns));
                    for _ in 0..count {
                        let m = ctx.recv(from);
                        fold(st, &m);
                    }
                }
            }
            &Step::AllToAll { bytes } => {
                for d in (0..p).filter(|&d| d != me) {
                    let m = payload(ctx, st, bytes);
                    ctx.send(d, m);
                }
                for s in (0..p).filter(|&s| s != me) {
                    let m = ctx.recv(s);
                    fold(st, &m);
                }
            }
            Step::Barrier => ctx.barrier(),
            Step::Phase(name, inner) => ctx.phase(name, |c| exec(c, inner, st)),
        }
    }
}

/// One generated scenario: its groups and the configuration they share.
struct Scenario {
    cfg: SpmdConfig,
    groups: Vec<(u32, SimTime, Vec<Step>)>,
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = SimRng::new(seed);
    let n_groups = 1 + rng.below(2) as usize;
    let groups: Vec<(u32, SimTime, Vec<Step>)> = (0..n_groups)
        .map(|g| {
            let p = 2 + rng.below(if n_groups == 1 { 4 } else { 2 }) as u32;
            let start = if g == 0 {
                SimTime::ZERO
            } else {
                SimTime::from_nanos(rng.below(30_000_000))
            };
            (p, start, steps(&mut rng, p, 0))
        })
        .collect();
    let total: u32 = groups.iter().map(|g| g.0).sum();
    let mut cfg = SpmdConfig {
        p: total,
        hosts: total + rng.below(2) as u32,
        seed: rng.below(1 << 32),
        socket_buf: SOCKET_BUF,
        telemetry: true,
        ..SpmdConfig::default()
    };
    if rng.chance(0.5) {
        cfg.pvm.heartbeat = None;
    }
    if rng.chance(0.2) {
        cfg.pvm.route = Route::Daemon;
    }
    if rng.chance(0.3) {
        cfg.deschedule = Some(DescheduleConfig {
            mean_cpu_between: SimTime::from_millis(2),
            duration: SimTime::from_micros(700),
        });
    }
    Scenario { cfg, groups }
}

fn run_scenario(sc: &Scenario, causal: bool) -> RunResult<u64> {
    let specs = sc
        .groups
        .iter()
        .enumerate()
        .map(|(g, (p, start, program))| {
            let program = program.clone();
            GroupSpec::new(format!("g{g}"), *p, *start, move |ctx: &mut RankCtx| {
                let mut st = Rank {
                    acc: FNV_OFFSET,
                    tag: 0,
                };
                exec(ctx, &program, &mut st);
                st.acc
            })
        })
        .collect();
    let opts = RunOptions {
        causal,
        ..RunOptions::default()
    };
    run(sc.cfg.clone(), specs, opts).expect("generated programs terminate")
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    items
        .into_iter()
        .fold(FNV_OFFSET, |h, x| fnv(h, format!("{x:?}\n").as_bytes()))
}

/// The pinned line for one seed.
fn golden_line(seed: u64) -> String {
    let sc = scenario(seed);
    let res = run_scenario(&sc, false);
    let causal = run_scenario(&sc, true);
    assert_eq!(
        res.trace, causal.trace,
        "seed {seed}: causal capture moved the trace"
    );
    let ops = &causal.causal.as_ref().expect("causal capture on").ops;
    pinned_line(seed, &res, ops)
}

/// The pinned line of a run and the ops of its causal capture.
fn pinned_line(seed: u64, res: &RunResult<u64>, ops: &[AppOp]) -> String {
    let tel = res.telemetry.as_ref().expect("telemetry on");
    let finished: Vec<u64> = res.group_finished_at.iter().map(|t| t.as_nanos()).collect();
    format!(
        "{seed} frames={} end={} groups={finished:?} trace={:016x} results={:016x} spans={:016x} counters={:016x} ops={:016x}",
        res.trace.len(),
        res.finished_at.as_nanos(),
        digest(&res.trace),
        digest((0..res.map.len()).map(|g| res.group_results(g))),
        digest(&tel.spans),
        digest(tel.registry.counters()),
        digest(ops),
    )
}

const SEEDS: u64 = 32;

const GOLDEN: [&str; SEEDS as usize] = [
    "0 frames=344 end=149729651 groups=[149729651, 114699526] trace=3208de8cdcc0d545 results=3a9531a9014e762c spans=08bc4903ca77a220 counters=b29f5aa1875152fc ops=7898e48404ec5cd6",
    "1 frames=360 end=155047016 groups=[60555455, 155047016] trace=7583b5ee378d02b7 results=47f56ee3c75f87a5 spans=bc0bb775f338858a counters=9526a5c5b1789976 ops=b22f6f66dcfb0506",
    "2 frames=69 end=23099801 groups=[23099801] trace=6a0e3bf77a317399 results=138c1950e38f753b spans=592a21ce0e9b9958 counters=14f092bf03b6f0ed ops=74b3952a8c32ea2b",
    "3 frames=143 end=68175938 groups=[15916281, 68175938] trace=f6c3e7ad4d74dd77 results=1bf211b32bb85317 spans=eca25f9101b058ba counters=ac36a82cdc2a6794 ops=239111d9a45ed691",
    "4 frames=236 end=165946711 groups=[165946711, 48009765] trace=0a47c910adeb576e results=5cc0748a48e32afd spans=e7b367e90bee675c counters=4f4ec5a46f19ba67 ops=1aff9408358fec17",
    "5 frames=230 end=131948367 groups=[131948367] trace=debfa5e6edd9c4bd results=4a023bcfdddc363e spans=943e1d8bc5f70a89 counters=17cbf9ed397626f8 ops=8b40f3e4a9cea9c0",
    "6 frames=323 end=144800426 groups=[144800426] trace=07084e5783ba99d3 results=694759ba54072fbf spans=da7caf45ada6a816 counters=6961d648762e8960 ops=8f78a619856d7ea9",
    "7 frames=418 end=147238383 groups=[18116183, 147238383] trace=65c6c098f93a5377 results=2421bbdb5c85d4f8 spans=635aba84175fa4ed counters=f65d25e1ea92a58f ops=4189c3c1e6500cde",
    "8 frames=205 end=64083327 groups=[64083327] trace=5c856db6cb093124 results=35716e407f4ee010 spans=789f57d35341e9f3 counters=0665cec78f72b407 ops=7d4c2b12c8c0ef95",
    "9 frames=252 end=104093499 groups=[44297306, 104093499] trace=4d90dabde82a5e66 results=0247c4b14421e1fe spans=f9e7af44e25a9991 counters=890557788d918b63 ops=68144f407039ff30",
    "10 frames=445 end=178488223 groups=[178488223] trace=953c804802399d91 results=b1224f1ee88babd3 spans=b11e41a8e8035214 counters=4eb9b1788bea06a0 ops=0950a48425b5394d",
    "11 frames=204 end=49050679 groups=[49050679] trace=339717c870ffd5fc results=e8dddfe84b557306 spans=c3d9df1b212843fd counters=456cfc4973a9bec1 ops=d7c130148b6b2359",
    "12 frames=435 end=147648053 groups=[11678119, 147648053] trace=926673e924bc6400 results=57e48f44580b4509 spans=8d349eab3c1c54c6 counters=b3cb89ec36d22d30 ops=a2e869a32207c38b",
    "13 frames=730 end=238780509 groups=[204983331, 238780509] trace=6d9107184d969abb results=39851b25bfe3d654 spans=1622e9245f436503 counters=fec21200af6977e7 ops=980a2607d4b0e581",
    "14 frames=428 end=141088883 groups=[17345272, 141088883] trace=93b7c5c31653bf0b results=1d8e592e0aa16605 spans=a6ab9d8a24c4d249 counters=71ed3b1d9023ba91 ops=383b826ab568ac82",
    "15 frames=478 end=278738231 groups=[278738231, 84585176] trace=fa31c7a4333b82a5 results=c6b747ec591a9261 spans=b7311df3001f53f4 counters=be712fbeeba5984f ops=d86a38aa08e3e9c8",
    "16 frames=265 end=75205069 groups=[21622082, 75205069] trace=19e4d22095687208 results=289733ee7cb0a9c1 spans=f1df979e80b22531 counters=10c84c2ce14d40e5 ops=644ff6a733bc996b",
    "17 frames=564 end=182934014 groups=[182934014, 129688018] trace=669bc3fa2988f1e2 results=454255af600feadd spans=0c8d319427f83841 counters=e24bd4e584644ecb ops=671f5a5f6705b6a2",
    "18 frames=332 end=165117364 groups=[165117364, 117192275] trace=14ebe68dd4fad47c results=910da7ffb582ea8f spans=f3f8175cdeb9f736 counters=6dbbd30afff8bd32 ops=bdb506946ac1fb9d",
    "19 frames=168 end=101152490 groups=[101152490] trace=220dce3af1660fb8 results=41765f68d0d11c34 spans=cd7a007708db4730 counters=1730768ed82a36e2 ops=b7000c64d706379a",
    "20 frames=50 end=44554683 groups=[44554683] trace=d05cf39cb9aa4453 results=ee13906bf70a2d21 spans=1faa1330b26c6865 counters=0a5a8038a634866f ops=ac5316a57566e4e5",
    "21 frames=284 end=158733013 groups=[158733013] trace=c87ddb2216325441 results=df5bef5b4563d601 spans=35a59dab38838d06 counters=5cab8af36ed49301 ops=f194cb6469ace8de",
    "22 frames=764 end=342720811 groups=[277526520, 342720811] trace=45d480dd9f7033e0 results=0c9d1d7c5d8548a1 spans=dd5e590a0056b42d counters=81f0ba5be2037326 ops=3e1186b1e095aa5d",
    "23 frames=278 end=72790646 groups=[72790646] trace=4779d9e3713d9412 results=6c595a1ac92700cc spans=a3d9c2ba7c813c7d counters=d4545514238b7644 ops=dc8eebad1b3446cb",
    "24 frames=474 end=115165702 groups=[62039615, 115165702] trace=5f0e57d8ee535076 results=36f912077e01c81d spans=6da67f5b93d10220 counters=98d1317196c570c3 ops=7ae5451ecde28567",
    "25 frames=144 end=39785628 groups=[39785628] trace=7eb4dcfe67292365 results=0477edceeffbd3c0 spans=50772874ab663217 counters=94cd59693ac3577b ops=c9f4a012d2dfbc57",
    "26 frames=110 end=41155339 groups=[16704750, 41155339] trace=14f797f9bf2e25ec results=c21a59cfd645157c spans=77008f246abdd0ed counters=32567785ab6cf049 ops=5c7a047d977ca36b",
    "27 frames=71 end=35989212 groups=[35989212] trace=967af4e08e9aa980 results=2b8cc4c613fd3b34 spans=cecb3c1cf463db15 counters=df600a57bbe7d570 ops=b811945d1bf94c29",
    "28 frames=579 end=146699447 groups=[146699447] trace=6aed3f199fda6f74 results=cb548c46f18d2d38 spans=1d39082a511917f3 counters=06356dff6ae5ea71 ops=22e87531821e8323",
    "29 frames=426 end=113428423 groups=[113428423] trace=25ad7590af6f3c9d results=25df1514aa1ee39d spans=852ab5d62b2a9216 counters=92fb8ad8df9ca91f ops=44198a93938f4293",
    "30 frames=22 end=27455100 groups=[8988051, 27455100] trace=ad2c655b8769f016 results=2325a7879ecb3084 spans=90baf1a6db378902 counters=e133d0ba736dd74b ops=36f01376b7a989da",
    "31 frames=286 end=87388776 groups=[87388776] trace=a5832711f8eac943 results=c04851ff0a5292a9 spans=d174cc831ab280c9 counters=0aeaade4d73e4962 ops=130fed9e6311a891",
];

#[test]
fn generated_programs_sequence_exactly_as_pinned() {
    let got: Vec<String> = (0..SEEDS).map(golden_line).collect();
    let table = got.join("\n");
    let moved: Vec<String> = got
        .iter()
        .zip(GOLDEN)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {SEEDS} programs sequenced differently:\n{}\nthe table now reads:\n{table}",
        moved.len(),
        moved.join("\n")
    );
}

#[test]
fn generator_reaches_every_corner() {
    // The oracle is only as good as what it exercises: both group
    // shapes, every rank count, sends alone above the socket buffer and
    // bursts that overflow it only together.
    let scenarios: Vec<Scenario> = (0..SEEDS).map(scenario).collect();
    let mut ranks = [false; 6];
    let (mut two_groups, mut big, mut small_overflow) = (false, false, false);
    fn walk(steps: &[Step], big: &mut bool, small_overflow: &mut bool) {
        for s in steps {
            match s {
                &Step::Burst { count, bytes, .. } => {
                    *big |= bytes as u64 > SOCKET_BUF;
                    *small_overflow |= bytes < 400 && count as usize * bytes > SOCKET_BUF as usize;
                }
                Step::AllToAll { bytes } => *big |= *bytes as u64 > SOCKET_BUF,
                Step::Phase(_, inner) => walk(inner, big, small_overflow),
                _ => {}
            }
        }
    }
    for sc in &scenarios {
        two_groups |= sc.groups.len() == 2;
        for (p, _, program) in &sc.groups {
            ranks[*p as usize] = true;
            walk(program, &mut big, &mut small_overflow);
        }
    }
    assert!(two_groups && big && small_overflow);
    assert!(ranks[2..=5].iter().all(|&r| r), "{ranks:?}");
}

/// Seeded offer orders each program is replayed in; fewer unoptimised,
/// where a replay is ten times slower.
const INTERLEAVINGS: u64 = if cfg!(debug_assertions) { 20 } else { 200 };

/// The groups of `run_scenario`, and the options of its causal run.
fn specs(sc: &Scenario) -> (Vec<GroupSpec<u64>>, RunOptions) {
    let specs = (sc.groups.iter().enumerate())
        .map(|(g, (p, start, program))| {
            let program = program.clone();
            GroupSpec::new(format!("g{g}"), *p, *start, move |ctx: &mut RankCtx| {
                let mut st = Rank {
                    acc: FNV_OFFSET,
                    tag: 0,
                };
                exec(ctx, &program, &mut st);
                st.acc
            })
        })
        .collect();
    let opts = RunOptions {
        causal: true,
        ..RunOptions::default()
    };
    (specs, opts)
}

/// The causal run of `sc` through the threaded driver, and every rank's
/// requests in program order.
fn record(sc: &Scenario) -> (RunResult<u64>, Vec<Vec<Request>>) {
    let (specs, opts) = specs(sc);
    let mut logs = vec![Vec::new(); specs.iter().map(|g| g.p as usize).sum()];
    let res = drive(sc.cfg.clone(), specs, opts, |r, req| {
        logs[r].push(req.clone())
    });
    (res.expect("generated programs terminate"), logs)
}

/// One step as the interleaving test compares it: its class, then one
/// entry per answer naming the rank answered (`usize::MAX` opens a step).
type StepLog = Vec<(EventClass, usize)>;

/// Replay `logs` on a sequencer of no threads, offering requests in an
/// order `rng` draws. Each rank's requests go in program order, and one
/// after a `recv` only once that `recv` is answered, as a rank's thread
/// would post it. An order offers eagerly or only when the sequencer
/// starves, or anything between. Each rank's result is refolded from the
/// messages its `recv`s were answered with, as the program folds them.
fn replay(sc: &Scenario, logs: &[Vec<Request>], rng: &mut SimRng) -> (StepLog, RunResult<u64>) {
    let (specs, opts) = specs(sc);
    let mut seq = sequencer(sc.cfg.clone(), &specs, opts).expect("valid config");
    let n = logs.len();
    let (mut next, mut in_recv) = (vec![0; n], vec![false; n]);
    let mut ranks: Vec<Rank> = (0..n)
        .map(|_| Rank {
            acc: FNV_OFFSET,
            tag: 0,
        })
        .collect();
    let eagerness = rng.below(5);
    let mut steps = StepLog::new();
    loop {
        let open: Vec<usize> = (0..n)
            .filter(|&r| !in_recv[r] && next[r] < logs[r].len())
            .collect();
        if open.is_empty() || rng.below(4) >= eagerness {
            match seq.step().expect("the threaded run succeeded") {
                Decision::Ran { class, answers } => {
                    steps.push((class, usize::MAX));
                    for (r, msg) in answers {
                        steps.push((class, r));
                        if let Some(m) = msg {
                            fold(&mut ranks[r], &m);
                            in_recv[r] = false;
                        }
                    }
                    continue;
                }
                Decision::NeedPost(_) | Decision::NeedAnyPost => {
                    assert!(!open.is_empty(), "starved with nothing left to offer");
                }
                Decision::Finished => break,
            }
        }
        let r = open[rng.below(open.len() as u64) as usize];
        let req = logs[r][next[r]].clone();
        in_recv[r] = matches!(req, Request::Recv { .. });
        next[r] += 1;
        seq.offer(r, req);
    }
    assert!(
        (0..n).all(|r| next[r] == logs[r].len()),
        "a rank finished early"
    );
    (steps, seq.finish(ranks.iter().map(|st| st.acc)))
}

/// The pinned line of one causal run, which carries every digest.
fn causal_line(seed: u64, res: &RunResult<u64>) -> String {
    pinned_line(
        seed,
        res,
        &res.causal.as_ref().expect("causal capture on").ops,
    )
}

/// Everything of a run that the offer order must not move: the trace,
/// `finished_at`, each group's results and end, the sorted spans, the
/// counter registry, and the causal ops and frame causes.
type Outcome = (
    Vec<FrameRecord>,
    SimTime,
    Vec<u64>,
    Vec<SimTime>,
    Vec<SpanRecord>,
    TelemetryRegistry,
    Vec<AppOp>,
    Vec<CausalEvent>,
);

fn outcome(res: RunResult<u64>) -> Outcome {
    let tel = res.telemetry.expect("telemetry on");
    let causal = res.causal.expect("causal capture on");
    (
        res.trace,
        res.finished_at,
        res.results,
        res.group_finished_at,
        tel.spans,
        tel.registry,
        causal.ops,
        causal.events,
    )
}

#[test]
fn every_offer_order_sequences_as_the_threaded_run() {
    // The sequencer's decisions may not depend on the order in which
    // ranks' requests reach it: every interleaving must take the same
    // steps and give the threaded run's outcome, which is the golden one.
    for seed in 0..SEEDS {
        let sc = scenario(seed);
        let (threaded, logs) = record(&sc);
        let line = causal_line(seed, &threaded);
        assert_eq!(line, GOLDEN[seed as usize], "seed {seed}: the threaded run");
        let want = outcome(threaded);
        let mut rng = SimRng::new(seed);
        let mut first: Option<StepLog> = None;
        for order in 0..INTERLEAVINGS {
            let (steps, res) = replay(&sc, &logs, &mut rng);
            let at = format!("seed {seed}, offer order {order}");
            assert!(outcome(res) == want, "{at}: the outcome moved");
            match &first {
                Some(first) => assert!(steps == *first, "{at}: the steps moved"),
                None => first = Some(steps),
            }
        }
    }
}
