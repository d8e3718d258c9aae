//! The SPMD rank engine: rank threads around one sequencer.
//!
//! Each rank runs as an OS thread executing straight-line SPMD code
//! against a [`RankCtx`] and *posts* its requests; one that carries
//! nothing back (compute, send, barrier, span) returns at once. [`run`]
//! is only the driver: it offers the posts to the crate's `sequencer`,
//! which alone decides the order of every request and network event
//! whatever order posts arrive in, hands its answers back to the ranks,
//! parks while the sequencer needs a post it does not have, and joins
//! the ranks. So two runs with the same configuration produce
//! byte-identical packet traces however the host schedules the threads.
//! [`DescheduleConfig`] injects the paper's §6 involuntary deschedules.

use crate::cost::CostModel;
use crate::sequencer::{Request, Sequencer, Step};
use crossbeam::channel::{unbounded, Sender};
use fxnet_pvm::{Message, OutMessage, PvmConfig, TenantMap};
use fxnet_sim::{CausalEvent, CauseId, EtherStats, FrameRecord, FxnetError, FxnetResult, SimTime};
use fxnet_telemetry::{RunTelemetry, SimProfile};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::Instant;

/// Posts a rank may have unanswered. A rank that fills the window waits
/// until at most half of it is unanswered.
const POST_WINDOW: usize = 64;

/// Where the driver answers one rank's posts, in the order posted.
///
/// A rank that must wait publishes in `need` the `answered` count it
/// waits for, looks at `answered` once more and parks. The driver bumps
/// `answered` with each answer and unparks the rank only when the count
/// equals `need`, so a rank waiting for 32 answers wakes once. Both
/// sides store before they load, `SeqCst`: either the rank's last look
/// sees the answer or the driver sees the `need`.
#[derive(Default)]
struct AnswerBox {
    /// Posts answered so far.
    answered: AtomicU64,
    /// The `answered` count the rank last waited for. A count already
    /// reached never matches again, so a stale `need` wakes nobody.
    need: AtomicU64,
    /// The message answering the rank's `recv`, left before `answered`
    /// counts it. Only ever replaced or taken whole, so a poisoned lock
    /// still holds a valid value.
    slot: Mutex<Option<Message>>,
    /// The rank's thread, set when it is spawned.
    rank: OnceLock<Thread>,
}

impl AnswerBox {
    /// Driver side: answer the oldest unanswered post, with the message
    /// a `recv` waits for.
    fn answer(&self, msg: Option<Message>) {
        if msg.is_some() {
            *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = msg;
        }
        let answered = self.answered.fetch_add(1, SeqCst) + 1;
        if self.need.load(SeqCst) == answered {
            if let Some(rank) = self.rank.get() {
                rank.unpark();
            }
        }
    }

    /// Rank side: wait until `target` posts are answered. Returns the
    /// count answered and whether the rank had to park.
    fn wait(&self, target: u64) -> (u64, bool) {
        let mut parked = false;
        loop {
            let answered = self.answered.load(SeqCst);
            if answered >= target {
                return (answered, parked);
            }
            self.need.store(target, SeqCst);
            let answered = self.answered.load(SeqCst);
            if answered >= target {
                return (answered, parked);
            }
            parked = true;
            std::thread::park();
        }
    }
}

/// A rank's next request, or its program's panic payload, which ends the run.
type Post = Result<Request, Box<dyn Any + Send>>;

/// The bell's `need` while the driver is not parked.
const NOBODY: usize = usize::MAX;
/// The bell's `need` when any rank's post can decide the next step.
const ANY_POST: usize = usize::MAX - 1;

/// How a rank wakes the driver when the sequencer needs a post. The
/// driver publishes in `need` the global rank whose post it is parked for
/// (or [`ANY_POST`]), fences, and looks at the request channel once more
/// before parking. A rank sends its post, fences, and unparks the driver
/// if `need` names it or any post; a rank's last post always does.
struct SequencerBell {
    need: AtomicUsize,
    driver: Thread,
}

/// Involuntary OS descheduling model.
#[derive(Debug, Clone)]
pub struct DescheduleConfig {
    /// Mean CPU time between deschedule events (exponentially distributed).
    pub mean_cpu_between: SimTime,
    /// Length of each descheduled interval.
    pub duration: SimTime,
}

/// Configuration for one SPMD run.
#[derive(Debug, Clone)]
pub struct SpmdConfig {
    /// Number of SPMD ranks (the paper compiles for 4).
    pub p: u32,
    /// Total workstations on the LAN (the paper's testbed had 9; the
    /// extras are idle except for daemon chatter and one is the tracer).
    pub hosts: u32,
    /// PVM and network stack configuration.
    pub pvm: PvmConfig,
    /// Compute cost model.
    pub cost: CostModel,
    /// Optional deschedule injection.
    pub deschedule: Option<DescheduleConfig>,
    /// Engine RNG seed (deschedule sampling).
    pub seed: u64,
    /// Sender-side socket buffer: a rank's `send` blocks while its host's
    /// TCP backlog exceeds this, pacing fast senders with the network as
    /// blocking socket writes do (64 KB was a typical OSF/1 default).
    pub socket_buf: u64,
    /// Abort if any rank's clock, or the network while ranks are blocked,
    /// passes this (runaway guard).
    pub max_sim_time: SimTime,
    /// Collect telemetry (phase spans, counter registry, sim profile).
    /// Span requests never advance a rank's clock, so the packet trace is
    /// byte-identical with telemetry on or off.
    pub telemetry: bool,
}

impl Default for SpmdConfig {
    fn default() -> Self {
        SpmdConfig {
            p: 4,
            hosts: 9,
            pvm: PvmConfig::default(),
            cost: CostModel::default(),
            deschedule: None,
            seed: 42,
            socket_buf: 64 * 1024,
            max_sim_time: SimTime::from_secs(24 * 3600),
            telemetry: false,
        }
    }
}

/// Outcome of a run of one or more programs: every rank's return value,
/// the one shared promiscuous trace, and each group's time span.
#[derive(Debug)]
pub struct RunResult<T> {
    /// Rank return values, in global task order: each group's ranks in
    /// spec order (see [`RunResult::group_results`]).
    pub results: Vec<T>,
    /// The promiscuous packet trace (the paper's tcpdump capture).
    pub trace: Vec<FrameRecord>,
    /// MAC statistics.
    pub ether: EtherStats,
    /// Simulated time at which the last rank of any group finished.
    pub finished_at: SimTime,
    /// Telemetry captured for the run, when [`SpmdConfig::telemetry`] is on.
    pub telemetry: Option<RunTelemetry>,
    /// Causal capture, when [`RunOptions::causal`] was set.
    pub causal: Option<CausalRun>,
    /// Per-link sample series, when [`RunOptions::sample_links`] was set.
    pub link_stats: Option<fxnet_sim::LinkStats>,
    /// Each group's name and task-id block, in spec order, for trace
    /// demultiplexing.
    pub map: TenantMap,
    /// Each group's start time, indexed like `map.slices()`.
    pub group_starts: Vec<SimTime>,
    /// Simulated time at which each group's last rank finished, indexed
    /// like `map.slices()`.
    pub group_finished_at: Vec<SimTime>,
}

impl<T> RunResult<T> {
    /// The results of group `g` (indexed like `map.slices()`), by local
    /// rank.
    pub fn group_results(&self, g: usize) -> &[T] {
        let slice = &self.map.slices()[g];
        &self.results[slice.base as usize..(slice.base + slice.p) as usize]
    }
}

/// One application-level send operation recorded during a causal run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AppOp {
    /// The op's causal id; decodes to (tenant, global rank, phase-span
    /// sequence, op sequence).
    pub cause: CauseId,
    /// Destination global task id.
    pub dst: u32,
    /// Simulated time the op committed its first byte to the transport.
    pub time: SimTime,
    /// Application payload bytes packed in the message.
    pub payload_bytes: u64,
    /// Transport bytes committed on behalf of the op (payload plus
    /// fragment headers — and daemon-route gram headers, where the
    /// message is re-fragmented). Causal conservation checks each op's
    /// delivered data bytes against exactly this number.
    pub wire_bytes: u64,
}

/// The causal capture of one run: every application op plus the tagged
/// delivery stream (one [`CausalEvent`] per trace row, in trace order).
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct CausalRun {
    /// Application send ops, in sequencing order.
    pub ops: Vec<AppOp>,
    /// Tagged frame deliveries, in delivery (= trace) order.
    pub events: Vec<CausalEvent>,
}

/// The per-rank handle SPMD program code runs against.
///
/// Ranks are always *group-local*: a program sees ids `0..nprocs()`
/// regardless of where its group's task-id block sits in a multi-program
/// run ([`run`]). The context translates to global task ids at the
/// request boundary, so cross-group sends are impossible by construction.
pub struct RankCtx {
    rank: u32,
    p: u32,
    /// First global task id of this rank's group (0 for single-program runs).
    base: u32,
    cost: CostModel,
    telemetry: bool,
    /// [`SpmdConfig::socket_buf`]: the send bytes this rank may have
    /// posted and not yet seen sequenced.
    socket_buf: u64,
    /// To the driver: this rank's global id and its next post.
    tx: Sender<(u32, Post)>,
    bell: Arc<SequencerBell>,
    answers: Arc<AnswerBox>,
    /// Posts submitted so far, `recv`s included.
    posts: u64,
    /// Send `wire_len` of each post not yet seen answered, oldest first
    /// (0 for a post that is not a send).
    unanswered: VecDeque<u64>,
    /// Sum of `unanswered`.
    unanswered_bytes: u64,
    /// Most posts and most send bytes ever unanswered at once.
    #[cfg(test)]
    high_water: (usize, u64),
    /// Waits that had to park.
    #[cfg(test)]
    parks: u64,
}

impl RankCtx {
    /// This rank's id, `0..nprocs()`.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of SPMD ranks.
    pub fn nprocs(&self) -> u32 {
        self.p
    }

    /// The cost model in effect (for apps that precompute durations).
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Hand a request, or the payload of the program's panic, to the
    /// driver, waking it if it is parked for this rank's post. Once a run
    /// is abandoned the channel is closed: the post goes nowhere and the
    /// rank parks at its next wait.
    fn submit(&self, post: Post) {
        let me = (self.base + self.rank) as usize;
        let terminal = matches!(post, Ok(Request::Done) | Err(_));
        if self.tx.send((me as u32, post)).is_err() {
            return;
        }
        // Pairs with the driver's fence between publishing `need` and its
        // last look at the channel.
        fence(SeqCst);
        let need = self.bell.need.load(SeqCst);
        if terminal || need == me || need == ANY_POST {
            self.bell.driver.unpark();
        }
    }

    /// Post a request that carries nothing back, `bytes` being its send
    /// `wire_len`. It returns without waiting for the sequencer unless
    /// [`POST_WINDOW`] posts are unanswered or the post would leave more
    /// than `socket_buf` send bytes unanswered. Then it waits until the
    /// post fits and at most half a window is unanswered, so a rank
    /// streaming posts parks once per `POST_WINDOW / 2` answers. A send
    /// larger than the whole buffer waits for its own answer.
    fn post(&mut self, r: Request, bytes: u64) {
        if !self.unanswered.is_empty()
            && (self.unanswered.len() >= POST_WINDOW
                || self.unanswered_bytes + bytes > self.socket_buf)
        {
            let (mut keep, mut held) = (self.unanswered.len(), self.unanswered_bytes);
            for &oldest in &self.unanswered {
                if keep <= POST_WINDOW / 2 && held + bytes <= self.socket_buf {
                    break;
                }
                keep -= 1;
                held -= oldest;
            }
            self.await_answers(self.posts - keep as u64);
        }
        self.submit(Ok(r));
        self.posts += 1;
        self.unanswered.push_back(bytes);
        self.unanswered_bytes += bytes;
        #[cfg(test)]
        {
            self.high_water.0 = self.high_water.0.max(self.unanswered.len());
            self.high_water.1 = self.high_water.1.max(self.unanswered_bytes);
        }
        if self.unanswered_bytes > self.socket_buf {
            self.drain();
        }
    }

    /// Wait until the first `target` posts are answered, and forget the
    /// send bytes of every post seen answered.
    fn await_answers(&mut self, target: u64) {
        #[cfg_attr(not(test), allow(unused_variables))]
        let (answered, parked) = self.answers.wait(target);
        #[cfg(test)]
        {
            self.parks += u64::from(parked);
        }
        let retired = self.unanswered.len() - (self.posts - answered) as usize;
        self.unanswered_bytes -= self.unanswered.drain(..retired).sum::<u64>();
    }

    /// Wait until every post is answered.
    fn drain(&mut self) {
        self.await_answers(self.posts);
    }

    /// The most posts and most send bytes this rank has had unanswered.
    #[cfg(test)]
    fn high_water(&self) -> (usize, u64) {
        self.high_water
    }

    /// How many of this rank's waits had to park.
    #[cfg(test)]
    fn parks(&self) -> u64 {
        self.parks
    }

    /// Spend a local computation phase of `n` floating-point operations.
    pub fn compute_flops(&mut self, n: u64) {
        let d = self.cost.flops(n);
        self.compute_time(d);
    }

    /// Spend a memory-bound phase moving `bytes` through memory.
    pub fn compute_mem(&mut self, bytes: u64) {
        let d = self.cost.mem(bytes);
        self.compute_time(d);
    }

    /// Spend an explicit amount of local computation time.
    ///
    /// A one-way post: the sequencer advances the rank's clock (and adds
    /// any deschedule delay) in program order, so the rank's own code
    /// never needs the answer.
    pub fn compute_time(&mut self, d: SimTime) {
        if d == SimTime::ZERO {
            return;
        }
        self.post(Request::Compute(d), 0);
    }

    /// Send a message to `dst` (asynchronous, PVM semantics: the message
    /// is handed to the transport in program order).
    ///
    /// A one-way post, so a rank runs ahead by at most one
    /// [`SpmdConfig::socket_buf`] of sends: the blocking socket write the
    /// sequencer models by holding a send while the host's TCP backlog
    /// exceeds the buffer.
    pub fn send(&mut self, dst: u32, msg: OutMessage) {
        assert!(dst < self.p && dst != self.rank);
        let dst = self.base + dst;
        let bytes = msg.wire_len() as u64;
        self.post(Request::Send { dst, msg }, bytes);
    }

    /// Block until a message from `src` arrives.
    pub fn recv(&mut self, src: u32) -> Message {
        assert!(src < self.p && src != self.rank);
        let src = self.base + src;
        self.submit(Ok(Request::Recv { src }));
        self.posts += 1;
        self.unanswered.push_back(0);
        self.drain();
        // The driver answers a `recv` only by leaving its message in the
        // slot, and this rank takes each message once.
        self.answers
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("a recv is answered with its message")
    }

    /// Barrier across the ranks of this rank's group.
    ///
    /// A one-way post: the rank's code runs on past it at once, while the
    /// sequencer holds the rank's later requests until every rank of the
    /// group has reached the barrier in simulated time.
    pub fn barrier(&mut self) {
        self.post(Request::Barrier, 0);
    }

    /// Open a named collective phase span (telemetry). Spans cost no
    /// simulated time; when telemetry is off this is a no-op, otherwise a
    /// one-way post.
    pub fn phase_begin(&mut self, name: &'static str) {
        if self.telemetry {
            self.post(Request::SpanBegin(name), 0);
        }
    }

    /// Close the most recently opened phase span on this rank.
    pub fn phase_end(&mut self) {
        if self.telemetry {
            self.post(Request::SpanEnd, 0);
        }
    }

    /// Run `f` inside a named collective phase span.
    pub fn phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.phase_begin(name);
        let out = f(self);
        self.phase_end();
        out
    }
}

/// Per-call options for [`run`] that are not part of the simulated
/// configuration proper: observation hooks that must not force the
/// config out of `Clone + Debug` (taps are neither) and that callers
/// routinely want to vary without rebuilding a [`SpmdConfig`].
#[derive(Default)]
pub struct RunOptions {
    /// Live frame tap installed at the tracer's capture point for the
    /// duration of the run (the `fxnet-watch` hook). The tap observes
    /// every delivered frame as it is captured; it cannot perturb the
    /// simulation, so the trace is byte-identical with and without one.
    pub tap: Option<fxnet_sim::FrameTap>,
    /// Capture causal provenance: tag every frame with the application
    /// op (or protocol artifact) that caused it and record every send op.
    /// Forces telemetry on (phase spans carry the phase sequence the
    /// cause ids reference). Tagging rides the token side-table, so the
    /// trace stays byte-identical with capture on or off.
    pub causal: bool,
    /// Enable passive per-link sampling in [`fxnet_sim::LINK_WINDOW_NS`]
    /// windows — the `fxnet-metrics` weather-map feed. Strictly
    /// observational: the trace is byte-identical with sampling on or
    /// off.
    pub sample_links: bool,
}

/// One program (tenant) of a multi-program run: a rank group with its own
/// task-id block and start time on the shared network.
pub struct GroupSpec<T> {
    /// Display name ("SOR", "tenant-2", ...), also the tenant name in the
    /// returned [`TenantMap`].
    pub name: String,
    /// Ranks in this group; local ids are `0..p`.
    pub p: u32,
    /// Simulated time at which the group's ranks begin executing
    /// (staggered starts model tenants arriving at different times).
    pub start: SimTime,
    /// The SPMD program, invoked once per rank.
    pub program: Arc<dyn Fn(&mut RankCtx) -> T + Send + Sync + 'static>,
}

impl<T> GroupSpec<T> {
    /// A named group starting at time `start`.
    pub fn new(
        name: impl Into<String>,
        p: u32,
        start: SimTime,
        f: impl Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    ) -> GroupSpec<T> {
        GroupSpec {
            name: name.into(),
            p,
            start,
            program: Arc::new(f),
        }
    }

    /// The single-program shape: one group named "main" starting at time
    /// zero — the shape [`run_single`] builds internally.
    pub fn single(p: u32, f: impl Fn(&mut RankCtx) -> T + Send + Sync + 'static) -> GroupSpec<T> {
        GroupSpec::new("main", p, SimTime::ZERO, f)
    }
}

/// Sugar for the single-program case of [`run`]: one group named "main"
/// with `cfg.p` ranks starting at time zero. Unlike the multi-group
/// path, `cfg.p` is honoured and `cfg.hosts < cfg.p` is rejected (idle
/// hosts are part of the paper's testbed shape, missing hosts are a
/// config error).
pub fn run_single<T, F>(cfg: SpmdConfig, f: F, opts: RunOptions) -> FxnetResult<RunResult<T>>
where
    T: Send + 'static,
    F: Fn(&mut RankCtx) -> T + Send + Sync + 'static,
{
    if cfg.p == 0 || cfg.hosts < cfg.p {
        return Err(FxnetError::InvalidConfig(format!(
            "p = {} with hosts = {}",
            cfg.p, cfg.hosts
        )));
    }
    let p = cfg.p;
    run(cfg, vec![GroupSpec::single(p, f)], opts)
}

/// The unified engine entry point: run one or more SPMD programs on a
/// shared virtual machine and LAN.
///
/// A single program is a one-element group list (see
/// [`GroupSpec::single`] and [`run_single`]), and the tap, telemetry,
/// deschedule, and causal hooks travel in [`RunOptions`].
///
/// Each [`GroupSpec`] receives a contiguous block of global task ids (and
/// therefore hosts), packed in spec order from task 0; `cfg.p` is ignored
/// and `cfg.hosts` is raised to the total rank count if smaller, so idle
/// hosts beyond the packed blocks keep contributing daemon chatter.
/// Groups are fully isolated at the message layer (local rank spaces,
/// per-group barriers) but share the wire, the MAC, and the tracer.
/// Determinism is preserved: same config and groups → byte-identical
/// trace, on any host thread — per-run state is fully owned, so
/// independent `run` calls may execute concurrently (the basis of
/// `fxnet-harness`).
///
/// # Errors
/// [`FxnetError::InvalidConfig`] for an empty group list, a zero-rank
/// group, a deschedule with a zero mean, a zero bus bandwidth, a loss
/// probability that is NaN or outside `[0, 1]`, or a topology that fails
/// `TopologySpec::validate` or attaches too few hosts;
/// [`FxnetError::Deadlock`] when no rank can run and the network is idle;
/// [`FxnetError::SimTimeExceeded`] when a rank's clock, or the network's
/// next event while ranks are blocked, passes
/// `cfg.max_sim_time`; [`FxnetError::Io`] when a rank thread cannot be
/// spawned. A panic *inside a rank's program* is re-raised on
/// the calling thread with the rank's own payload, and the other ranks are
/// abandoned (it is a bug in the caller's code, not a simulation outcome).
pub fn run<T>(
    cfg: SpmdConfig,
    groups: Vec<GroupSpec<T>>,
    opts: RunOptions,
) -> FxnetResult<RunResult<T>>
where
    T: Send + 'static,
{
    drive(cfg, groups, opts, |_, _| {})
}

/// Check a run's configuration and build its sequencer. Causal capture
/// forces telemetry on, whose phase spans number the cause ids.
pub(crate) fn sequencer<T>(
    mut cfg: SpmdConfig,
    groups: &[GroupSpec<T>],
    opts: RunOptions,
) -> FxnetResult<Sequencer> {
    cfg.telemetry |= opts.causal;
    let invalid = |why: String| Err(FxnetError::InvalidConfig(why));
    if groups.is_empty() {
        return invalid("need at least one group".into());
    }
    if let Some(g) = groups.iter().find(|g| g.p == 0) {
        return invalid(format!("group \"{}\" has zero ranks", g.name));
    }
    // A zero mean leaves the deschedule sampler's exponential no rate.
    if (cfg.deschedule.as_ref()).is_some_and(|d| d.mean_cpu_between == SimTime::ZERO) {
        return invalid("deschedule mean_cpu_between is zero".into());
    }
    // A frame's wire time divides by the bandwidth, and the loss draw
    // is a probability: NaN would never drop, above 1 always.
    let ether = &cfg.pvm.net.ether;
    if ether.bandwidth_bps == 0 {
        return invalid("bus bandwidth_bps is zero".into());
    }
    if !(0.0..=1.0).contains(&ether.drop_prob) {
        let p = ether.drop_prob;
        return invalid(format!("loss probability {p} is outside [0, 1]"));
    }
    cfg.hosts = cfg.hosts.max(groups.iter().map(|g| g.p).sum());
    // A declarative topology must compile and fixes host placement: it
    // must attach every workstation the run stands up.
    if let fxnet_proto::LinkKind::Topology(spec) = &cfg.pvm.net.link {
        if let Err(e) = spec.validate() {
            return invalid(format!("topology '{}': {e}", spec.id));
        }
        let (id, attached, hosts) = (&spec.id, spec.host_count(), cfg.hosts);
        if (attached as u32) < hosts {
            return invalid(format!(
                "topology '{id}' attaches {attached} hosts but the run needs {hosts}"
            ));
        }
    }
    Ok(Sequencer::new(cfg, groups, opts))
}

/// [`run`], showing `seen` each rank's requests in the order they are
/// offered to the sequencer.
///
/// A run that fails, at spawning or sequencing, or re-raises a rank's
/// panic, abandons the rank threads by dropping their handles: a rank
/// waiting for an answer parks on its answer box forever, and one still
/// running finds the channel closed and parks at its next wait. Leaking
/// the threads is the accepted cost of an error; a panicking teardown
/// would spray every rank's panic output over the caller's terminal.
pub(crate) fn drive<T>(
    cfg: SpmdConfig,
    groups: Vec<GroupSpec<T>>,
    opts: RunOptions,
    mut seen: impl FnMut(usize, &Request),
) -> FxnetResult<RunResult<T>>
where
    T: Send + 'static,
{
    let mut seq = sequencer(cfg, &groups, opts)?;
    let cfg = &seq.cfg;
    let (req_tx, req_rx) = unbounded();
    let bell = Arc::new(SequencerBell {
        need: AtomicUsize::new(NOBODY),
        driver: std::thread::current(),
    });
    let (mut boxes, mut handles, mut base) = (Vec::new(), Vec::new(), 0);
    for g in &groups {
        for local in 0..g.p {
            let answer_box = Arc::new(AnswerBox::default());
            let mut ctx = RankCtx {
                rank: local,
                p: g.p,
                base,
                cost: cfg.cost.clone(),
                telemetry: cfg.telemetry,
                socket_buf: cfg.socket_buf,
                tx: req_tx.clone(),
                bell: Arc::clone(&bell),
                answers: Arc::clone(&answer_box),
                posts: 0,
                unanswered: VecDeque::new(),
                unanswered_bytes: 0,
                #[cfg(test)]
                high_water: (0, 0),
                #[cfg(test)]
                parks: 0,
            };
            let program = Arc::clone(&g.program);
            let handle = std::thread::Builder::new()
                .name(format!("spmd-rank-{}", base + local))
                .spawn(move || {
                    // Every rank ends with exactly one terminal post, so
                    // the driver never waits on a rank that is gone.
                    let (out, last) =
                        match std::panic::catch_unwind(AssertUnwindSafe(|| program(&mut ctx))) {
                            Ok(out) => {
                                ctx.drain();
                                (Some(out), Ok(Request::Done))
                            }
                            Err(payload) => (None, Err(payload)),
                        };
                    ctx.submit(last);
                    out
                })?;
            answer_box.rank.get_or_init(|| handle.thread().clone());
            handles.push(handle);
            boxes.push(answer_box);
        }
        base += g.p;
    }
    drop(req_tx);

    let run_start = Instant::now();
    let mut profile = SimProfile::default();
    // Set while the sequencer waits for a post: the rank whose post it
    // needs, or `ANY_POST`.
    let mut starved_for: Option<usize> = None;
    loop {
        // Offer every post that has arrived; a rank's panic is re-raised
        // at once. A starved driver published whose post it needs before
        // this look, and parks unless that post is among them.
        let mut arrived = false;
        while let Ok((rank, post)) = req_rx.try_recv() {
            let req = post.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            let rank = rank as usize;
            arrived |= starved_for.is_some_and(|need| need == rank || need == ANY_POST);
            seen(rank, &req);
            seq.offer(rank, req);
        }
        if starved_for.is_some() {
            if !arrived {
                std::thread::park();
                continue;
            }
            bell.need.store(NOBODY, SeqCst);
            starved_for = None;
        }

        let t0 = seq.cfg.telemetry.then(Instant::now);
        let need = match seq.step()? {
            Step::Ran { class, answers } => {
                for (rank, msg) in answers {
                    boxes[rank].answer(msg);
                }
                if let Some(t0) = t0 {
                    profile.record(class, t0.elapsed());
                }
                continue;
            }
            Step::NeedPost(rank) => rank,
            Step::NeedAnyPost => ANY_POST,
            Step::Finished => break,
        };
        starved_for = Some(need);
        bell.need.store(need, SeqCst);
        // Pairs with the fence between a rank's send and its `need` look.
        fence(SeqCst);
    }

    // A rank posts `Done` only from the `Ok` arm of its `catch_unwind`,
    // which then returns the result it holds.
    let joined = handles.into_iter().map(|h| h.join().ok().flatten());
    let mut res = seq.finish(joined.map(|r| r.expect("a rank that posted Done returns it")));
    if let Some(tel) = &mut res.telemetry {
        profile.wall = run_start.elapsed();
        profile.sim_seconds = res.finished_at.as_secs_f64();
        tel.profile = Some(profile);
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_pvm::MessageBuilder;
    use fxnet_telemetry::{SpanKind, SpanRecord};

    fn quiet_cfg(p: u32) -> SpmdConfig {
        let mut cfg = SpmdConfig {
            p,
            hosts: p,
            ..SpmdConfig::default()
        };
        cfg.pvm.heartbeat = None;
        cfg
    }

    fn f64_msg(tag: i32, v: &[f64]) -> OutMessage {
        let mut b = MessageBuilder::new(tag);
        b.pack_f64(v);
        b.finish()
    }

    /// Single-program run through the unified entry point.
    fn run_one<T: Send + 'static>(
        cfg: SpmdConfig,
        f: impl Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    ) -> RunResult<T> {
        let p = cfg.p;
        run(cfg, vec![GroupSpec::single(p, f)], RunOptions::default()).expect("valid config")
    }

    /// Multi-group run through the unified entry point.
    fn run_groups<T: Send + 'static>(cfg: SpmdConfig, groups: Vec<GroupSpec<T>>) -> RunResult<T> {
        run(cfg, groups, RunOptions::default()).expect("valid config")
    }

    #[test]
    fn ping_pong_content_and_causality() {
        let res = run_one(quiet_cfg(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, f64_msg(1, &[3.5, 4.5]));
                let back = ctx.recv(1);
                back.reader().f64s(2)
            } else {
                let m = ctx.recv(0);
                let mut v = m.reader().f64s(2);
                for x in &mut v {
                    *x *= 2.0;
                }
                ctx.send(0, f64_msg(2, &v));
                v
            }
        });
        assert_eq!(res.results[0], vec![7.0, 9.0]);
        assert_eq!(res.results[1], vec![7.0, 9.0]);
        // One program is the one-group case.
        assert_eq!(res.map.slices().len(), 1);
        assert_eq!(res.group_finished_at, [res.finished_at]);
        assert!(res.finished_at > SimTime::ZERO);
        assert!(!res.trace.is_empty());
    }

    #[test]
    fn compute_advances_only_local_clock() {
        let res = run_one(quiet_cfg(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.compute_time(SimTime::from_millis(500));
            }
            ctx.barrier();
        });
        // The barrier aligns both ranks at ≥ 500 ms.
        assert!(res.finished_at >= SimTime::from_millis(500));
        assert!(res.finished_at < SimTime::from_millis(502));
    }

    #[test]
    fn messages_queue_when_receiver_is_late() {
        let res = run_one(quiet_cfg(2), |ctx| {
            if ctx.rank() == 0 {
                for i in 0..5 {
                    ctx.send(1, f64_msg(i, &[f64::from(i)]));
                }
                0.0
            } else {
                ctx.compute_time(SimTime::from_secs(1));
                let mut sum = 0.0;
                for _ in 0..5 {
                    sum += ctx.recv(0).reader().f64s(1)[0];
                }
                sum
            }
        });
        assert_eq!(res.results[1], 10.0);
    }

    #[test]
    fn recv_before_send_blocks_until_delivery() {
        let res = run_one(quiet_cfg(2), |ctx| {
            if ctx.rank() == 1 {
                let m = ctx.recv(0);
                m.reader().f64s(1)[0]
            } else {
                ctx.compute_time(SimTime::from_millis(300));
                ctx.send(1, f64_msg(0, &[9.0]));
                0.0
            }
        });
        assert_eq!(res.results[1], 9.0);
        assert!(res.finished_at >= SimTime::from_millis(300));
    }

    #[test]
    fn deterministic_trace_across_threaded_runs() {
        let run = || {
            run_one(quiet_cfg(4), |ctx| {
                let me = ctx.rank();
                ctx.compute_flops(u64::from(me + 1) * 100_000);
                for d in 0..4 {
                    if d != me {
                        ctx.send(d, f64_msg(0, &vec![f64::from(me); 200]));
                    }
                }
                for s in 0..4 {
                    if s != me {
                        let _ = ctx.recv(s);
                    }
                }
            })
            .trace
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn deadlock_is_detected() {
        let err = run(
            quiet_cfg(2),
            vec![GroupSpec::single(2, |ctx: &mut RankCtx| {
                if ctx.rank() == 0 {
                    let _ = ctx.recv(1); // nobody ever sends
                }
            })],
            RunOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, FxnetError::Deadlock(_)), "{err:?}");
        assert!(err.to_string().contains("SPMD deadlock"));
    }

    #[test]
    fn deschedule_injection_slows_the_run() {
        let base = run_one(quiet_cfg(2), |ctx| {
            ctx.compute_time(SimTime::from_secs(10));
            ctx.barrier();
        })
        .finished_at;
        let mut cfg = quiet_cfg(2);
        cfg.deschedule = Some(DescheduleConfig {
            mean_cpu_between: SimTime::from_secs(1),
            duration: SimTime::from_millis(100),
        });
        let slowed = run_one(cfg, |ctx| {
            ctx.compute_time(SimTime::from_secs(10));
            ctx.barrier();
        })
        .finished_at;
        assert!(slowed > base, "{slowed} vs {base}");
    }

    #[test]
    fn barrier_synchronizes_staggered_ranks() {
        let res = run_one(quiet_cfg(3), |ctx| {
            ctx.compute_time(SimTime::from_millis(u64::from(ctx.rank()) * 100));
            ctx.barrier();
            // After the barrier all clocks are equal; a second barrier
            // should not reorder anything.
            ctx.barrier();
        });
        assert!(res.finished_at >= SimTime::from_millis(200));
    }

    #[test]
    fn runaway_guard_trips() {
        let mut cfg = quiet_cfg(1);
        cfg.max_sim_time = SimTime::from_secs(1);
        let err = run(
            cfg,
            vec![GroupSpec::single(1, |ctx: &mut RankCtx| {
                for _ in 0..10 {
                    ctx.compute_time(SimTime::from_secs(1));
                }
            })],
            RunOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, FxnetError::SimTimeExceeded { rank: 0, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("max_sim_time"));
    }

    #[test]
    fn runaway_guard_trips_on_a_request_queued_behind_posts() {
        // Rank 0 holds the sequencer at t = 0 (it is waiting with the
        // lower id) while rank 1 posts all ten computes; the third of
        // them crosses the limit from the intake queue. The sleep only
        // makes that schedule likely: the error is the same under any.
        let mut cfg = quiet_cfg(2);
        cfg.max_sim_time = SimTime::from_secs(1);
        let err = run(
            cfg,
            vec![GroupSpec::single(2, |ctx: &mut RankCtx| {
                if ctx.rank() == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                } else {
                    for _ in 0..10 {
                        ctx.compute_time(SimTime::from_secs(1));
                    }
                }
            })],
            RunOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                FxnetError::SimTimeExceeded { rank: 1, at, .. } if at == SimTime::from_secs(2)
            ),
            "{err:?}"
        );
    }

    #[test]
    fn deadlock_waits_for_a_rank_still_computing() {
        // Ranks 0 and 1 block on each other at once; rank 2 is still busy
        // on the host. The run must neither hang nor call the deadlock
        // before rank 2 has finished. The outcome must hold under every
        // schedule; the sleep makes the hard one, rank 2 still running
        // after the others have blocked, the likely one.
        let err = run(
            quiet_cfg(3),
            vec![GroupSpec::single(3, |ctx: &mut RankCtx| match ctx.rank() {
                0 => drop(ctx.recv(1)),
                1 => drop(ctx.recv(0)),
                _ => {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    ctx.compute_time(SimTime::from_secs(1));
                }
            })],
            RunOptions::default(),
        )
        .unwrap_err();
        let FxnetError::Deadlock(who) = &err else {
            panic!("{err:?}")
        };
        assert!(who.contains("rank 0: BlockedRecv(1)"), "{who}");
        assert!(who.contains("rank 1: BlockedRecv(0)"), "{who}");
        assert!(!who.contains("rank 2"), "{who}");
    }

    #[test]
    fn blocked_ranks_wait_for_a_rank_still_computing() {
        // The same shape without the bug: the late rank is the one both
        // others wait for, so declaring a deadlock early would be wrong.
        let res = run_one(quiet_cfg(3), |ctx| {
            if ctx.rank() == 2 {
                std::thread::sleep(std::time::Duration::from_millis(50));
                ctx.compute_time(SimTime::from_secs(1));
                ctx.send(0, f64_msg(0, &[1.0]));
                ctx.send(1, f64_msg(0, &[2.0]));
                0.0
            } else {
                ctx.recv(2).reader().f64s(1)[0]
            }
        });
        assert_eq!(res.results, vec![1.0, 2.0, 0.0]);
        assert!(res.finished_at > SimTime::from_secs(1));
    }

    #[test]
    fn one_way_posts_stay_within_the_window_and_the_socket_buffer() {
        // 100,000 eight-byte sends and nobody receiving: the sender runs
        // ahead of the sequencer, but never by more than the post window
        // or, with a buffer below 64 such sends, by more than the buffer.
        // The window fills before the rank first looks for answers, so
        // the high waters are exact under any schedule.
        for (socket_buf, expected) in [(64 * 1024, (64, 2048)), (1000, (31, 992))] {
            let mut cfg = quiet_cfg(2);
            cfg.socket_buf = socket_buf;
            let res = run_one(cfg, |ctx| {
                if ctx.rank() == 0 {
                    for i in 0..100_000 {
                        ctx.send(1, f64_msg(i, &[0.0]));
                    }
                }
                ctx.high_water()
            });
            assert_eq!(res.results[0], expected, "socket_buf {socket_buf}");
        }
        // A message larger than the whole buffer is its own round trip.
        let mut cfg = quiet_cfg(2);
        cfg.socket_buf = 1000;
        let res = run_one(cfg, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..5 {
                    ctx.compute_time(SimTime::from_millis(1));
                    ctx.send(1, f64_msg(i, &[0.0; 200]));
                }
            } else {
                for _ in 0..5 {
                    let _ = ctx.recv(0);
                }
            }
            ctx.high_water()
        });
        assert_eq!(res.results[0], (1, 1600 + 24));
    }

    #[test]
    fn a_streaming_sender_parks_once_per_half_window() {
        // A full window waits until half of it is answered, so 10,000
        // posts cost one park per 32 answers (and one for the drain
        // before `Done`), not one per answer.
        let sends = 10_000u64;
        let res = run_one(quiet_cfg(2), move |ctx| {
            if ctx.rank() == 0 {
                for i in 0..sends {
                    ctx.send(1, f64_msg(i as i32, &[0.0]));
                }
            }
            ctx.parks()
        });
        let half = (POST_WINDOW / 2) as u64;
        let bound = sends.div_ceil(half) + 2;
        assert!(
            res.results[0] <= bound,
            "{} parks > {bound}",
            res.results[0]
        );
    }

    #[test]
    fn recv_ping_pong_beside_a_streaming_sender_never_loses_a_wakeup() {
        // Ranks 0 and 1 play 20,000 round trips, each rank parking on its
        // answer box for every message, while rank 2 streams sends
        // against a 1000 B socket buffer and parks whenever its credit
        // runs out. A wakeup lost by either park protocol hangs the test;
        // repeating it gives the race more chances.
        const ROUND_TRIPS: u32 = 20_000;
        const STREAMED: u32 = 5_000;
        for _ in 0..3 {
            let mut cfg = quiet_cfg(3);
            cfg.socket_buf = 1000;
            let res = run_one(cfg, |ctx| match ctx.rank() {
                0 => {
                    let mut v = 0.0;
                    for i in 0..ROUND_TRIPS {
                        ctx.send(1, f64_msg(i as i32, &[v]));
                        v = ctx.recv(1).reader().f64s(1)[0];
                    }
                    let streamed: f64 =
                        (0..STREAMED).map(|_| ctx.recv(2).reader().f64s(1)[0]).sum();
                    (v, streamed)
                }
                1 => {
                    for i in 0..ROUND_TRIPS {
                        let v = ctx.recv(0).reader().f64s(1)[0];
                        ctx.send(0, f64_msg(i as i32, &[v + 1.0]));
                    }
                    (0.0, 0.0)
                }
                _ => {
                    for i in 0..STREAMED {
                        ctx.send(0, f64_msg(i as i32, &[1.0]));
                    }
                    (0.0, 0.0)
                }
            });
            assert_eq!(
                res.results[0],
                (f64::from(ROUND_TRIPS), f64::from(STREAMED))
            );
        }
    }

    #[test]
    fn a_deadlock_under_heartbeats_is_an_error_not_a_hang() {
        // The paper testbed's daemons send heartbeats, so the network is
        // never idle and the deadlock is never declared; the runaway
        // guard must stop the network at `max_sim_time` instead.
        let cfg = SpmdConfig {
            p: 2,
            ..SpmdConfig::default()
        };
        assert!(cfg.pvm.heartbeat.is_some());
        let limit = cfg.max_sim_time;
        let err = run(
            cfg,
            vec![GroupSpec::single(2, |ctx: &mut RankCtx| {
                if ctx.rank() == 0 {
                    let _ = ctx.recv(1); // nobody ever sends
                }
            })],
            RunOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, FxnetError::SimTimeExceeded { rank: 0, at, limit: l } if at > limit && l == limit),
            "{err:?}"
        );
    }

    /// The message a rank's panic carried, as `run` re-raised it.
    fn panic_text(payload: Box<dyn Any + Send>) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a string payload")
    }

    #[test]
    fn a_panicking_rank_is_re_raised_not_hung() {
        let caught = std::panic::catch_unwind(|| {
            run(
                quiet_cfg(2),
                vec![GroupSpec::single(2, |ctx: &mut RankCtx| {
                    if ctx.rank() == 0 {
                        let _ = ctx.recv(1);
                    } else {
                        panic!("rank 1 gave up");
                    }
                })],
                RunOptions::default(),
            )
        });
        assert_eq!(panic_text(caught.unwrap_err()), "rank 1 gave up");
    }

    #[test]
    fn a_panic_right_after_a_one_way_send_is_re_raised() {
        // The send may be sequenced after the rank has unwound; its
        // answer then finds no one, which must not mask the panic.
        let caught = std::panic::catch_unwind(|| {
            run(
                quiet_cfg(2),
                vec![GroupSpec::single(2, |ctx: &mut RankCtx| {
                    if ctx.rank() == 0 {
                        ctx.send(1, f64_msg(0, &[1.0]));
                        panic!("rank {} broke after sending", ctx.rank());
                    }
                    let _ = ctx.recv(0);
                })],
                RunOptions::default(),
            )
        });
        assert_eq!(
            panic_text(caught.unwrap_err()),
            "rank 0 broke after sending"
        );
    }

    #[test]
    fn per_pair_fifo_order() {
        let res = run_one(quiet_cfg(2), |ctx| {
            if ctx.rank() == 0 {
                for i in 0..20 {
                    ctx.send(1, f64_msg(i, &[f64::from(i)]));
                }
                Vec::new()
            } else {
                (0..20).map(|_| ctx.recv(0).msg_tag_and_val()).collect()
            }
        });
        let got = &res.results[1];
        for (i, (tag, v)) in got.iter().enumerate() {
            assert_eq!(*tag, i as i32);
            assert_eq!(*v, i as f64);
        }
    }

    trait TagVal {
        fn msg_tag_and_val(&self) -> (i32, f64);
    }
    impl TagVal for Message {
        fn msg_tag_and_val(&self) -> (i32, f64) {
            (self.tag, self.reader().f64s(1)[0])
        }
    }

    #[test]
    fn blocking_send_paces_a_fast_sender() {
        // A sender blasting far more than the socket buffer must be paced
        // by the wire: its messages cannot all be timestamped at ~0.
        let big = 512 * 1024; // bytes per message, » 64 KB socket buffer
        let res = run_one(quiet_cfg(2), move |ctx| {
            if ctx.rank() == 0 {
                for i in 0..4 {
                    let mut b = MessageBuilder::new(i);
                    b.pack_bytes(&vec![0u8; big]);
                    ctx.send(1, b.finish());
                }
                SimTime::ZERO
            } else {
                for _ in 0..4 {
                    let _ = ctx.recv(0);
                }
                SimTime::from_nanos(1)
            }
        });
        // 4 × 512 KB at ≤1.25 MB/s needs ≥ 1.6 s of simulated time.
        assert!(
            res.finished_at > SimTime::from_millis(1500),
            "run finished implausibly fast at {} — sender was not paced",
            res.finished_at
        );
    }

    #[test]
    fn small_sends_do_not_block() {
        // Below the socket buffer, sends are asynchronous: a sender can
        // race far ahead of a sleeping receiver.
        let res = run_one(quiet_cfg(2), |ctx| {
            if ctx.rank() == 0 {
                for i in 0..10 {
                    ctx.send(1, f64_msg(i, &[1.0]));
                }
                // All sends complete in software-overhead time only.
                SimTime::ZERO
            } else {
                ctx.compute_time(SimTime::from_secs(5));
                for _ in 0..10 {
                    let _ = ctx.recv(0);
                }
                SimTime::ZERO
            }
        });
        assert!(res.finished_at >= SimTime::from_secs(5));
        assert!(res.finished_at < SimTime::from_secs(6));
    }

    #[test]
    fn cost_model_is_visible_to_ranks() {
        let res = run_one(quiet_cfg(1), |ctx| ctx.cost().flops(8_000_000).as_nanos());
        // Default model: 8 MFLOP at 8 MFLOP/s = 1 s.
        assert_eq!(res.results[0], 1_000_000_000);
    }

    #[test]
    fn trace_is_sorted_and_complete() {
        let res = run_one(quiet_cfg(3), |ctx| {
            let me = ctx.rank();
            ctx.send((me + 1) % 3, f64_msg(0, &vec![2.0; 500]));
            let _ = ctx.recv((me + 2) % 3);
        });
        assert!(res.trace.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(res.ether.frames_dropped, 0);
        assert!(res.ether.frames_delivered as usize >= res.trace.len());
    }

    #[test]
    fn barrier_after_a_rank_exits_is_a_deadlock() {
        // A barrier can never complete once some rank has finished: the
        // engine must detect it rather than hang.
        let err = run(
            quiet_cfg(2),
            vec![GroupSpec::single(2, |ctx: &mut RankCtx| {
                if ctx.rank() == 0 {
                    ctx.barrier();
                }
            })],
            RunOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, FxnetError::Deadlock(_)), "{err:?}");
    }

    #[test]
    fn empty_group_list_is_invalid_config() {
        let err = run::<()>(quiet_cfg(2), Vec::new(), RunOptions::default()).unwrap_err();
        assert!(matches!(err, FxnetError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn zero_rank_group_is_invalid_config() {
        let err = run(
            quiet_cfg(2),
            vec![GroupSpec::new(
                "empty",
                0,
                SimTime::ZERO,
                |_ctx: &mut RankCtx| {},
            )],
            RunOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, FxnetError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("empty"));
    }

    #[test]
    fn run_options_override_telemetry() {
        let mut cfg = quiet_cfg(1);
        assert!(!cfg.telemetry);
        cfg.telemetry = true;
        let res = run(
            cfg,
            vec![GroupSpec::single(1, |ctx: &mut RankCtx| {
                ctx.phase("solve", |c| c.compute_time(SimTime::from_millis(1)));
            })],
            RunOptions::default(),
        )
        .expect("valid config");
        let tel = res.telemetry.expect("telemetry switched on in the config");
        assert!(tel.spans.iter().any(|s| s.name == "compute"));
    }

    #[test]
    fn run_options_tap_sees_every_traced_frame() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let prog = |ctx: &mut RankCtx| {
            if ctx.rank() == 0 {
                ctx.send(1, f64_msg(0, &vec![1.0; 200]));
            } else {
                let _ = ctx.recv(0);
            }
        };
        let res = run(
            quiet_cfg(2),
            vec![GroupSpec::single(2, prog)],
            RunOptions {
                tap: Some(Box::new(move |_r| {
                    seen2.fetch_add(1, Ordering::Relaxed);
                })),
                ..RunOptions::default()
            },
        )
        .expect("valid config");
        assert_eq!(seen.load(Ordering::Relaxed), res.trace.len());
        assert!(!res.trace.is_empty());
    }

    fn group<T>(
        name: &str,
        p: u32,
        start: SimTime,
        f: impl Fn(&mut RankCtx) -> T + Send + Sync + 'static,
    ) -> GroupSpec<T> {
        GroupSpec {
            name: name.to_string(),
            p,
            start,
            program: Arc::new(f),
        }
    }

    #[test]
    fn multi_groups_are_message_isolated() {
        // Two ping-pong pairs; each group only ever names local ranks 0/1,
        // and each group's answer depends only on its own traffic.
        let mk = |scale: f64| {
            move |ctx: &mut RankCtx| {
                if ctx.rank() == 0 {
                    ctx.send(1, f64_msg(1, &[scale]));
                    ctx.recv(1).reader().f64s(1)[0]
                } else {
                    let v = ctx.recv(0).reader().f64s(1)[0];
                    ctx.send(0, f64_msg(2, &[v * 10.0]));
                    v
                }
            }
        };
        let res = run_groups(
            quiet_cfg(2),
            vec![
                group("A", 2, SimTime::ZERO, mk(1.0)),
                group("B", 2, SimTime::ZERO, mk(5.0)),
            ],
        );
        assert_eq!(res.group_results(0), [10.0, 1.0]);
        assert_eq!(res.group_results(1), [50.0, 5.0]);
        // The flat results are the groups' results in spec order.
        assert_eq!(res.results, [10.0, 1.0, 50.0, 5.0]);
        assert_eq!(res.map.total_ranks(), 4);
        assert_eq!(res.map.slices()[1].base, 2);
        // All four hosts put frames on the shared wire.
        assert!(!res.trace.is_empty());
    }

    #[test]
    fn multi_group_barriers_do_not_couple_groups() {
        // Group A barriers while group B computes for much longer; A must
        // finish long before B despite sharing the engine.
        let res = run_groups(
            quiet_cfg(2),
            vec![
                group("fast", 2, SimTime::ZERO, |ctx: &mut RankCtx| {
                    ctx.compute_time(SimTime::from_millis(10));
                    ctx.barrier();
                }),
                group("slow", 2, SimTime::ZERO, |ctx: &mut RankCtx| {
                    ctx.compute_time(SimTime::from_secs(5));
                    ctx.barrier();
                }),
            ],
        );
        assert!(res.group_finished_at[0] < SimTime::from_secs(1));
        assert!(res.group_finished_at[1] >= SimTime::from_secs(5));
        assert_eq!(res.results.len(), 4);
    }

    #[test]
    fn staggered_start_delays_a_group() {
        let res = run_groups(
            quiet_cfg(1),
            vec![
                group("early", 1, SimTime::ZERO, |ctx: &mut RankCtx| {
                    ctx.compute_time(SimTime::from_millis(100));
                }),
                group("late", 1, SimTime::from_secs(2), |ctx: &mut RankCtx| {
                    ctx.compute_time(SimTime::from_millis(100));
                }),
            ],
        );
        assert!(res.group_finished_at[0] < SimTime::from_secs(1));
        assert!(res.group_finished_at[1] >= SimTime::from_secs(2));
        assert_eq!(res.finished_at, res.group_finished_at[1]);
        assert_eq!(res.group_starts, [SimTime::ZERO, SimTime::from_secs(2)]);
    }

    #[test]
    fn multi_run_is_deterministic() {
        let run = || {
            let mk = || {
                move |ctx: &mut RankCtx| {
                    let me = ctx.rank();
                    let np = ctx.nprocs();
                    ctx.compute_flops(u64::from(me + 1) * 50_000);
                    ctx.send((me + 1) % np, f64_msg(0, &vec![1.0; 300]));
                    let _ = ctx.recv((me + np - 1) % np);
                }
            };
            run_groups(
                quiet_cfg(2),
                vec![
                    group("A", 3, SimTime::ZERO, mk()),
                    group("B", 3, SimTime::from_millis(50), mk()),
                ],
            )
            .trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_group_multi_matches_single_run_trace() {
        // run_single is the single-group special case; the two entry
        // points must produce identical traffic.
        let prog = |ctx: &mut RankCtx| {
            if ctx.rank() == 0 {
                ctx.send(1, f64_msg(0, &vec![2.0; 400]));
            } else {
                let _ = ctx.recv(0);
            }
        };
        let a = run_one(quiet_cfg(2), prog).trace;
        let b = run_groups(quiet_cfg(2), vec![group("main", 2, SimTime::ZERO, prog)]).trace;
        assert_eq!(a, b);
    }

    #[test]
    fn single_rank_program_needs_no_network() {
        let res = run_one(quiet_cfg(1), |ctx| {
            ctx.compute_flops(1000);
            ctx.barrier();
            42u32
        });
        assert_eq!(res.results, vec![42]);
        assert!(res.trace.is_empty());
    }

    /// Rank `r`'s blocked time, summed over its blocked spans.
    fn blocked_spans_ns(spans: &[SpanRecord], r: u32) -> u64 {
        spans
            .iter()
            .filter(|s| {
                s.rank == r
                    && matches!(
                        s.kind,
                        SpanKind::BlockedRecv | SpanKind::BlockedSend | SpanKind::Barrier
                    )
            })
            .map(|s| s.duration().as_nanos())
            .sum()
    }

    #[test]
    fn blocked_time_counters_sum_the_blocked_spans() {
        // Two tenants: a ping-pong pair blocks in `recv`, and a staggered
        // trio blocks in barriers and behind a 4 KB socket buffer.
        let mut cfg = quiet_cfg(2);
        cfg.telemetry = true;
        cfg.socket_buf = 4096;
        let res = run_groups(
            cfg,
            vec![
                group("pp", 2, SimTime::ZERO, |ctx: &mut RankCtx| {
                    for i in 0..5 {
                        if ctx.rank() == 0 {
                            ctx.send(1, f64_msg(i, &[1.0]));
                            let _ = ctx.recv(1);
                        } else {
                            let _ = ctx.recv(0);
                            ctx.compute_time(SimTime::from_millis(1));
                            ctx.send(0, f64_msg(i, &[2.0]));
                        }
                    }
                    ctx.barrier();
                }),
                group("trio", 3, SimTime::from_millis(3), |ctx: &mut RankCtx| {
                    ctx.compute_time(SimTime::from_millis(u64::from(ctx.rank()) * 4));
                    ctx.barrier();
                    let next = (ctx.rank() + 1) % 3;
                    ctx.send(next, f64_msg(0, &[0.5; 2000]));
                    let _ = ctx.recv((ctx.rank() + 2) % 3);
                    ctx.barrier();
                }),
            ],
        );
        assert_eq!(res.results.len(), 5);
        assert_eq!(res.group_results(1).len(), 3);
        let tel = res.telemetry.expect("telemetry switched on in the config");
        for kind in [
            SpanKind::BlockedRecv,
            SpanKind::BlockedSend,
            SpanKind::Barrier,
        ] {
            assert!(tel.spans.iter().any(|s| s.kind == kind), "no {kind:?} span");
        }
        for g in res.map.slices() {
            let mut tenant = 0;
            for r in g.base..g.base + g.p {
                let want = blocked_spans_ns(&tel.spans, r);
                assert!(want > 0, "rank {r} never blocked");
                let key = format!("engine.rank{r}.blocked_ns");
                assert_eq!(tel.registry.counter(&key), want, "{key}");
                tenant += want;
            }
            let key = format!("tenant.{}.blocked_ns", g.name);
            assert_eq!(tel.registry.counter(&key), tenant, "{key}");
        }
    }
}
