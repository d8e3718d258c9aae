//! The deterministic SPMD rank engine.
//!
//! Each rank runs as a real OS thread executing straight-line SPMD code
//! against a [`RankCtx`]. A conservative sequencer on the calling thread
//! owns the simulated clock. Ranks *post* requests: one that carries
//! nothing back (compute, send, barrier, span) returns at once, so a rank
//! runs ahead of the sequencer until it needs a message, has 64 posts
//! unanswered, or would have more than a socket buffer of sends
//! unanswered. The sequencer keeps one record per rank: its clock, its
//! state and an intake queue of the posts that have arrived, in program
//! order. A rank is *ready* when it is waiting with an admitted request,
//! the post at the front of its intake. The sequencer executes the ready
//! rank's request with the earliest `(clock, rank)` or advances the
//! network by one event, whichever is earlier in simulated time — as
//! soon as that choice is decided. A waiting rank whose next post has
//! not arrived will run it at the clock its last answer fixed, so
//! whatever is strictly earlier goes ahead without it. The decisions and
//! their order are exactly those of a sequencer that first collects
//! every rank's next request, so however the host schedules the threads,
//! two runs with the same configuration produce byte-identical packet
//! traces.
//!
//! Every answer follows one resume rule: end the rank's blocked interval
//! (a span of the kind of the state it leaves), set its clock, mark it
//! waiting and answer its box.
//!
//! Threads wake only when they can proceed. The sequencer answers a
//! rank's posts by counting them in the rank's answer box and unparks
//! the rank only at the count it waits for; a starved sequencer parks
//! until the one post that can decide its next step arrives.
//!
//! The engine also implements *deschedule injection*: the paper observed
//! (§6) that when the OS deschedules one processor, the fixed synchronous
//! communication schedule stalls until that processor returns, merging
//! adjacent traffic bursts. Enabling [`DescheduleConfig`] inserts
//! exponentially spaced involuntary delays into compute phases.

use crate::cost::CostModel;
use crossbeam::channel::{unbounded, Receiver, Sender};
use fxnet_pvm::{Message, MsgDelivery, OutMessage, PvmConfig, PvmSystem, TaskId, TenantMap};
use fxnet_sim::{
    CausalEvent, CauseId, EtherStats, FrameRecord, FxnetError, FxnetResult, SimRng, SimTime,
};
use fxnet_telemetry::{EventClass, RunTelemetry, SimProfile, SpanKind, SpanRecord};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::Instant;

/// Posts a rank may have unanswered. A rank that fills the window waits
/// until at most half of it is unanswered.
const POST_WINDOW: usize = 64;

/// Where the sequencer answers one rank's posts, in the order posted.
///
/// A rank that must wait publishes in `need` the `answered` count it
/// waits for, looks at `answered` once more and parks. The sequencer
/// bumps `answered` with each answer and unparks the rank only when the
/// count equals `need`, so a rank waiting for 32 answers wakes once.
/// Both sides store before they load, `SeqCst`: either the rank's last
/// look sees the answer or the sequencer sees the `need`.
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
    /// Sequencer side: answer the oldest unanswered post, with the
    /// message a `recv` waits for.
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
            #[cfg(test)]
            jitter::point();
            std::thread::park();
        }
    }
}

/// The bell's `need` while the sequencer is not parked.
const NOBODY: usize = usize::MAX;
/// The bell's `need` when any rank's post can decide the next step.
const ANY_POST: usize = usize::MAX - 1;

/// How a rank wakes a starved sequencer. The sequencer publishes in
/// `need` the global rank whose post it is parked for (or [`ANY_POST`]),
/// fences, and looks at the request channel once more before parking. A
/// rank sends its post, fences, and unparks the sequencer if `need` names
/// it or any post; `Done` and `Panicked` always do.
struct SequencerBell {
    need: AtomicUsize,
    sequencer: Thread,
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

/// Outcome of a run: per-rank return values plus the captured trace.
#[derive(Debug)]
pub struct RunResult<T> {
    /// Rank return values, indexed by rank.
    pub results: Vec<T>,
    /// The promiscuous packet trace (the paper's tcpdump capture).
    pub trace: Vec<FrameRecord>,
    /// MAC statistics.
    pub ether: EtherStats,
    /// Simulated time at which the last rank finished.
    pub finished_at: SimTime,
    /// Telemetry captured for the run, when [`SpmdConfig::telemetry`] is on.
    pub telemetry: Option<RunTelemetry>,
    /// Causal capture, when [`RunOptions::causal`] was set.
    pub causal: Option<CausalRun>,
    /// Per-link sample series, when [`RunOptions::sample_links`] was set.
    pub link_stats: Option<fxnet_sim::LinkStats>,
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

enum Request {
    Compute(SimTime),
    Send {
        dst: u32,
        msg: OutMessage,
    },
    Recv {
        src: u32,
    },
    Barrier,
    /// Open a named collective span at the rank's current clock.
    SpanBegin(&'static str),
    /// Close the most recent open span on this rank.
    SpanEnd,
    /// The program returned and every earlier post was answered.
    Done,
    /// The program panicked; the run re-raises this payload.
    Panicked(Box<dyn Any + Send>),
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
    tx: Sender<(u32, Request)>,
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

    /// Hand a request to the sequencer, waking it if it is parked for
    /// this rank's post. Once a run is abandoned the channel is closed:
    /// the post goes nowhere and the rank parks at its next wait.
    fn submit(&self, r: Request) {
        #[cfg(test)]
        jitter::point();
        let me = (self.base + self.rank) as usize;
        let terminal = matches!(r, Request::Done | Request::Panicked(_));
        if self.tx.send((me as u32, r)).is_err() {
            return;
        }
        // Pairs with the sequencer's fence between publishing `need` and
        // its last look at the channel.
        fence(SeqCst);
        let need = self.bell.need.load(SeqCst);
        if terminal || need == me || need == ANY_POST {
            self.bell.sequencer.unpark();
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
        self.submit(r);
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
    /// Returns as soon as the request is posted: the rank's clock (and
    /// any deschedule delay) is advanced by the sequencer in program
    /// order, so the rank's own code never needs the answer. Like every
    /// one-way post, it waits only when 64 earlier posts are unanswered,
    /// and then until half of them are answered.
    pub fn compute_time(&mut self, d: SimTime) {
        if d == SimTime::ZERO {
            return;
        }
        self.post(Request::Compute(d), 0);
    }

    /// Send a message to `dst` (asynchronous, PVM semantics: the message
    /// is handed to the transport in program order).
    ///
    /// Returns before the send is sequenced, unless 64 posts are
    /// unanswered or this message would leave more than
    /// [`SpmdConfig::socket_buf`] bytes of this rank's sends unanswered:
    /// then it waits for earlier posts first, and a message larger than
    /// the whole buffer waits for its own answer. A rank therefore runs
    /// ahead by at most one socket buffer, the blocking socket write the
    /// sequencer already models by holding a send while the host's TCP
    /// backlog exceeds the buffer.
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
        self.submit(Request::Recv { src });
        self.posts += 1;
        self.unanswered.push_back(0);
        self.drain();
        // The sequencer answers a `recv` only by leaving its message in
        // the slot, and this rank takes each message once.
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RankState {
    /// The last request is answered. The next one runs at the rank's
    /// current clock; the rank is ready once it is admitted, at the front
    /// of the rank's intake.
    Waiting,
    /// Blocked in `recv(src)`.
    BlockedRecv(u32),
    /// Blocked in `send` waiting for socket-buffer space.
    BlockedSend,
    /// Blocked in `barrier()`.
    BlockedBarrier,
    /// Finished.
    Done,
}

/// The sequencer's record of one rank.
struct Rank {
    /// Global rank.
    id: u32,
    /// Index of the rank's group in the spec list.
    group: usize,
    clock: SimTime,
    state: RankState,
    /// Posts that have arrived and are not yet executed, in program order.
    intake: VecDeque<Request>,
    answers: Arc<AnswerBox>,
    desched: Option<Deschedule>,
    /// The clock at which the rank finished.
    done_at: SimTime,
    /// Causal: the sequence number of the rank's next send op, and of its
    /// last phase span.
    op_seq: u32,
    phase_seq: u32,
    /// Telemetry: the collective spans still open, where the current
    /// blocked interval began, the time blocked so far and the closed
    /// spans. All stay empty when telemetry is off.
    open_spans: Vec<(&'static str, SimTime)>,
    blocked_since: Option<SimTime>,
    blocked_ns: u64,
    spans: Vec<SpanRecord>,
}

impl Rank {
    /// Waiting, with its next request admitted.
    fn ready(&self) -> bool {
        self.state == RankState::Waiting && !self.intake.is_empty()
    }

    /// Block the rank in `state` from its clock on.
    fn block(&mut self, state: RankState, telemetry: bool) {
        self.state = state;
        if telemetry {
            self.blocked_since = Some(self.clock);
        }
    }

    /// The resume rule: answer the rank's request at `at`, with the
    /// message a `recv` waits for. A blocked interval ends at `at`, as a
    /// span of the kind of the state the rank leaves.
    fn resume(&mut self, at: SimTime, msg: Option<Message>) {
        self.clock = at;
        if let Some(begin) = self.blocked_since.take() {
            let kind = match self.state {
                RankState::BlockedRecv(_) => SpanKind::BlockedRecv,
                RankState::BlockedSend => SpanKind::BlockedSend,
                // Only `block` sets `blocked_since`: a barrier.
                _ => SpanKind::Barrier,
            };
            self.blocked_ns += (at - begin).as_nanos();
            self.span(kind, kind.label(), begin);
        }
        self.state = RankState::Waiting;
        self.answers.answer(msg);
    }

    /// Resume a rank whose `recv` is answered by `msg`, delivered at `t`.
    fn deliver(&mut self, t: SimTime, msg: Message, cost: &CostModel) {
        let at = self.clock.max(t) + cost.recv_overhead(msg.body.len());
        self.resume(at, Some(msg));
    }

    /// Close a span of `kind` that began at `begin`, at the rank's clock.
    fn span(&mut self, kind: SpanKind, name: &str, begin: SimTime) {
        self.spans.push(SpanRecord {
            rank: self.id,
            name: name.to_string(),
            kind,
            begin,
            end: self.clock,
        });
    }
}

struct Deschedule {
    rng: SimRng,
    mean_s: f64,
    duration: SimTime,
    /// CPU seconds consumed so far.
    cpu_acc: f64,
    /// CPU-time threshold of the next involuntary deschedule.
    next_at: f64,
}

impl Deschedule {
    fn new(cfg: &DescheduleConfig, mut rng: SimRng) -> Deschedule {
        let mean_s = cfg.mean_cpu_between.as_secs_f64();
        let first = rng.exponential(mean_s);
        Deschedule {
            rng,
            mean_s,
            duration: cfg.duration,
            cpu_acc: 0.0,
            next_at: first,
        }
    }

    /// Extra wall time injected into a compute phase of length `d`.
    fn extra_for(&mut self, d: SimTime) -> SimTime {
        self.cpu_acc += d.as_secs_f64();
        let mut extra = SimTime::ZERO;
        while self.cpu_acc >= self.next_at {
            extra += self.duration;
            self.next_at += self.rng.exponential(self.mean_s);
        }
        extra
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

impl RunOptions {
    /// Options with just a frame tap installed.
    pub fn tapped(tap: fxnet_sim::FrameTap) -> RunOptions {
        RunOptions {
            tap: Some(tap),
            ..RunOptions::default()
        }
    }
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

/// Per-group outcome of a multi-program run.
#[derive(Debug)]
pub struct GroupRunResult<T> {
    /// The group's name as given in its [`GroupSpec`].
    pub name: String,
    /// First global task id of the group's block.
    pub base: u32,
    /// Ranks in the group.
    pub p: u32,
    /// The group's start time.
    pub start: SimTime,
    /// Rank return values, indexed by local rank.
    pub results: Vec<T>,
    /// Simulated time at which the group's last rank finished.
    pub finished_at: SimTime,
}

/// Outcome of a multi-program run: per-group results plus the single
/// shared promiscuous trace.
#[derive(Debug)]
pub struct MultiRunResult<T> {
    /// Per-group results, in spec order.
    pub groups: Vec<GroupRunResult<T>>,
    /// Task-id/host ownership of each group, for trace demultiplexing.
    pub map: TenantMap,
    /// The promiscuous packet trace of the whole shared network.
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
}

impl<T> MultiRunResult<T> {
    /// Collapse a single-group result into the flat [`RunResult`] shape.
    ///
    /// # Panics
    /// If the run had more than one group (their results would be
    /// silently discarded).
    pub fn into_single(self) -> RunResult<T> {
        assert_eq!(
            self.groups.len(),
            1,
            "into_single on a {}-group result",
            self.groups.len()
        );
        // The assertion above leaves exactly one group.
        let g = self.groups.into_iter().next().expect("one group");
        RunResult {
            results: g.results,
            trace: self.trace,
            ether: self.ether,
            finished_at: self.finished_at,
            telemetry: self.telemetry,
            causal: self.causal,
            link_stats: self.link_stats,
        }
    }
}

/// Abandon a failed run: detach the rank threads. A rank waiting for an
/// answer — in `recv`, behind a full post window or socket-buffer credit,
/// or draining before `Done` — parks on its answer box forever, and a
/// rank still running finds the request channel closed when it next
/// posts and parks at its next wait. Posts still filed for sequencing are
/// dropped unexecuted. The threads are leaked — an accepted cost on the
/// error path, where the run's outcome is already lost; a panicking
/// teardown would spray every rank's panic output over the caller's
/// terminal instead.
fn abandon<T>(handles: Vec<std::thread::JoinHandle<T>>) {
    drop(handles);
}

/// File every post that has arrived into its rank's intake queue, in
/// order. Returns how many, or the payload of a rank's panic, which ends
/// the run.
fn file_posts(
    rx: &Receiver<(u32, Request)>,
    ranks: &mut [Rank],
) -> Result<usize, Box<dyn Any + Send>> {
    let mut filed = 0;
    while let Ok((rank, req)) = rx.try_recv() {
        if let Request::Panicked(payload) = req {
            return Err(payload);
        }
        ranks[rank as usize].intake.push_back(req);
        filed += 1;
    }
    Ok(filed)
}

/// Sugar for the single-program case of [`run`]: one group named "main"
/// with `cfg.p` ranks starting at time zero, collapsed to the flat
/// [`RunResult`] shape. Unlike the multi-group path, `cfg.p` is honoured
/// and `cfg.hosts < cfg.p` is rejected (idle hosts are part of the
/// paper's testbed shape, missing hosts are a config error).
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
    Ok(run(cfg, vec![GroupSpec::single(p, f)], opts)?.into_single())
}

/// The unified engine entry point: run one or more SPMD programs on a
/// shared virtual machine and LAN.
///
/// A single program is a one-element group list (see
/// [`GroupSpec::single`] and [`MultiRunResult::into_single`]), and the
/// tap, telemetry, deschedule, and causal hooks travel in [`RunOptions`].
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
    mut cfg: SpmdConfig,
    groups: Vec<GroupSpec<T>>,
    opts: RunOptions,
) -> FxnetResult<MultiRunResult<T>>
where
    T: Send + 'static,
{
    let causal = opts.causal;
    if causal {
        // Cause ids reference phase-span sequence numbers, which only
        // flow when telemetry is on. Telemetry is itself non-perturbing,
        // so the trace stays byte-identical.
        cfg.telemetry = true;
    }
    let tap = opts.tap;
    if groups.is_empty() {
        return Err(FxnetError::InvalidConfig("need at least one group".into()));
    }
    if let Some(g) = groups.iter().find(|g| g.p == 0) {
        return Err(FxnetError::InvalidConfig(format!(
            "group \"{}\" has zero ranks",
            g.name
        )));
    }
    // A zero mean would ask the deschedule sampler for an exponential
    // with no rate.
    if cfg
        .deschedule
        .as_ref()
        .is_some_and(|d| d.mean_cpu_between == SimTime::ZERO)
    {
        return Err(FxnetError::InvalidConfig(
            "deschedule mean_cpu_between is zero".into(),
        ));
    }
    // A frame's wire time divides by the bandwidth, and the loss draw
    // is a probability: NaN would never drop, above 1 always.
    let ether = &cfg.pvm.net.ether;
    if ether.bandwidth_bps == 0 {
        return Err(FxnetError::InvalidConfig(
            "bus bandwidth_bps is zero".into(),
        ));
    }
    if !(0.0..=1.0).contains(&ether.drop_prob) {
        return Err(FxnetError::InvalidConfig(format!(
            "loss probability {} is outside [0, 1]",
            ether.drop_prob
        )));
    }
    let map = TenantMap::pack(groups.iter().map(|g| (g.name.clone(), g.p)));
    let total = map.total_ranks();
    let hosts = cfg.hosts.max(total);
    // A declarative topology must compile, and it fixes host placement:
    // its attachment list must cover every workstation this run will
    // stand up, or rank→NIC mapping would fall off the spec.
    if let fxnet_proto::LinkKind::Topology(spec) = &cfg.pvm.net.link {
        spec.validate()
            .map_err(|e| FxnetError::InvalidConfig(format!("topology '{}': {e}", spec.id)))?;
        if (spec.host_count() as u32) < hosts {
            return Err(FxnetError::InvalidConfig(format!(
                "topology '{}' attaches {} hosts but the run needs {hosts}",
                spec.id,
                spec.host_count(),
            )));
        }
    }
    let mut pvm = PvmSystem::new(cfg.pvm.clone(), total, hosts);
    pvm.set_promiscuous(true);
    pvm.set_tap(tap);
    pvm.set_causal(causal);
    pvm.set_link_sampling(opts.sample_links);

    let p = total as usize;
    let (req_tx, req_rx) = unbounded::<(u32, Request)>();
    let bell = Arc::new(SequencerBell {
        need: AtomicUsize::new(NOBODY),
        sequencer: std::thread::current(),
    });
    let mut engine_rng = SimRng::new(cfg.seed);
    let mut ranks: Vec<Rank> = Vec::with_capacity(p);
    let mut handles = Vec::with_capacity(p);
    for (gi, slice) in map.slices().iter().enumerate() {
        let program = Arc::clone(&groups[gi].program);
        for local in 0..slice.p {
            let id = slice.base + local;
            let answer_box = Arc::new(AnswerBox::default());
            let mut ctx = RankCtx {
                rank: local,
                p: slice.p,
                base: slice.base,
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
            let program = Arc::clone(&program);
            #[cfg(test)]
            let jitter = jitter::fork(u64::from(id));
            // A rank thread that cannot be spawned fails the run; the
            // ranks already running are abandoned as on any error.
            let handle = std::thread::Builder::new()
                .name(format!("spmd-rank-{id}"))
                .spawn(move || {
                    #[cfg(test)]
                    jitter::install(jitter);
                    // Every rank ends with exactly one terminal post, so
                    // the sequencer never waits on a rank that is gone.
                    match std::panic::catch_unwind(AssertUnwindSafe(|| program(&mut ctx))) {
                        Ok(out) => {
                            ctx.drain();
                            ctx.submit(Request::Done);
                            Some(out)
                        }
                        Err(payload) => {
                            ctx.submit(Request::Panicked(payload));
                            None
                        }
                    }
                })?;
            answer_box.rank.get_or_init(|| handle.thread().clone());
            handles.push(handle);
            ranks.push(Rank {
                id,
                group: gi,
                clock: groups[gi].start,
                state: RankState::Waiting,
                intake: VecDeque::new(),
                answers: answer_box,
                desched: cfg
                    .deschedule
                    .as_ref()
                    .map(|d| Deschedule::new(d, engine_rng.fork(u64::from(id)))),
                done_at: SimTime::ZERO,
                op_seq: 0,
                phase_seq: 0,
                open_spans: Vec::new(),
                blocked_since: None,
                blocked_ns: 0,
                spans: Vec::new(),
            });
        }
    }
    drop(req_tx);

    let mut mailbox: HashMap<(u32, u32), VecDeque<(SimTime, Message)>> = HashMap::new();
    let mut barrier_waiters: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
    let mut deliveries: Vec<MsgDelivery> = Vec::new();
    // Causal ops; empty when capture is off.
    let mut ops: Vec<AppOp> = Vec::new();

    // Telemetry state; all of it stays empty when cfg.telemetry is off.
    let run_start = Instant::now();
    let mut event_counts = [0u64; EventClass::ALL.len()];
    let mut profile = SimProfile::default();
    let mut mailbox_high_water = 0usize;
    let mut mailbox_len = 0usize;

    // Set when the last turn could decide nothing without another post:
    // the rank whose post it needs, or `ANY_POST`.
    let mut starved_for: Option<usize> = None;
    loop {
        // Intake: file every post that has arrived. A panic ends the run
        // at once. A starved sequencer published whose post it needs
        // before this look, and parks unless that post is among them.
        #[cfg(test)]
        jitter::point();
        let filed = match file_posts(&req_rx, &mut ranks) {
            Ok(filed) => filed,
            Err(payload) => {
                abandon(handles);
                std::panic::resume_unwind(payload);
            }
        };
        if let Some(need) = starved_for {
            let arrived = if need == ANY_POST {
                filed > 0
            } else {
                !ranks[need].intake.is_empty()
            };
            if !arrived {
                std::thread::park();
                continue;
            }
            bell.need.store(NOBODY, SeqCst);
            starved_for = None;
        }

        // One pass over the records. A waiting rank whose next post is
        // `Done` finishes. Of the ranks left, the horizon is the least
        // `(clock, rank)` of those waiting with no post, `best` the least
        // of the ready ones, and the run is engaged while a rank is ready
        // or blocked.
        let mut horizon: Option<(SimTime, usize)> = None;
        let mut best: Option<(SimTime, usize)> = None;
        let (mut engaged, mut all_done) = (false, true);
        for (r, rk) in ranks.iter_mut().enumerate() {
            if rk.state == RankState::Waiting && matches!(rk.intake.front(), Some(Request::Done)) {
                rk.intake.pop_front();
                rk.state = RankState::Done;
                rk.done_at = rk.clock;
            }
            let at = (rk.clock, r);
            match rk.state {
                RankState::Done => continue,
                RankState::Waiting if rk.intake.is_empty() => {
                    horizon = Some(horizon.map_or(at, |h| h.min(at)));
                }
                RankState::Waiting => {
                    best = Some(best.map_or(at, |b| b.min(at)));
                    engaged = true;
                }
                _ => engaged = true,
            }
            all_done = false;
        }

        // All ranks finished: stop sequencing (the network may still hold
        // events — e.g. periodic daemon chatter — which are drained up to
        // the program's end time below, never past it).
        if all_done {
            break;
        }

        // Pick the next action in simulated-time order, but only once it
        // is decided. A rank waiting with no post runs its next request at
        // its current clock, so the horizon bounds both choices from
        // below: a ready rank goes first only if it beats the horizon in
        // `(clock, rank)` order, and the network only if its next event
        // is strictly earlier than the horizon's clock. Advancing the
        // network also needs the run to be engaged; with only waiting
        // ranks left, they may all be about to finish, and then the event
        // belongs to the uncounted drain after the loop.
        let t_net = pvm.next_event_time();
        let rank_first =
            best.filter(|&b| horizon.is_none_or(|h| b < h) && t_net.is_none_or(|t| b.0 <= t));
        if rank_first.is_none() {
            let net_first = engaged && t_net.is_some_and(|t| horizon.is_none_or(|(c, _)| t < c));
            if !net_first {
                if let Some((_, h)) = horizon {
                    // While the run is engaged, only the horizon rank's
                    // post can decide the next step (DESIGN.md §7);
                    // otherwise any rank's post can make it ready.
                    let need = if engaged { h } else { ANY_POST };
                    starved_for = Some(need);
                    bell.need.store(need, SeqCst);
                    // Pairs with the fence between a rank's send and its
                    // look at `need`.
                    fence(SeqCst);
                    continue;
                }
                let blocked: Vec<String> = ranks
                    .iter()
                    .enumerate()
                    .filter(|(_, rk)| rk.state != RankState::Done)
                    .map(|(r, rk)| format!("rank {r}: {:?} at {}", rk.state, rk.clock))
                    .collect();
                abandon(handles);
                return Err(FxnetError::Deadlock(blocked.join("\n")));
            }
        }

        let t0 = if cfg.telemetry {
            Some(Instant::now())
        } else {
            None
        };
        let mut class = EventClass::NetAdvance;
        if let Some((_, r)) = rank_first {
            let rk = &mut ranks[r];
            let req = rk.intake.pop_front().expect("a ready rank has a request");
            if rk.clock > cfg.max_sim_time {
                abandon(handles);
                return Err(FxnetError::SimTimeExceeded {
                    rank: r as u32,
                    at: rk.clock,
                    limit: cfg.max_sim_time,
                });
            }
            match req {
                Request::Compute(d) => {
                    class = EventClass::Compute;
                    let begin = rk.clock;
                    let extra = rk
                        .desched
                        .as_mut()
                        .map_or(SimTime::ZERO, |ds| ds.extra_for(d));
                    rk.clock += d + extra;
                    if cfg.telemetry {
                        rk.span(SpanKind::Compute, "compute", begin);
                    }
                    rk.resume(rk.clock, None);
                }
                Request::Send { dst, msg } => {
                    class = EventClass::Send;
                    let t_wire = rk.clock + cfg.cost.send_overhead(&msg);
                    let src = TaskId(rk.id);
                    if causal {
                        let phase = if rk.open_spans.is_empty() {
                            0
                        } else {
                            rk.phase_seq
                        };
                        let cause = CauseId::app(rk.group as u32, rk.id, phase, rk.op_seq);
                        rk.op_seq += 1;
                        let payload_bytes = msg.payload_len() as u64;
                        let wire_bytes = pvm.send_caused(t_wire, src, TaskId(dst), msg, cause);
                        ops.push(AppOp {
                            cause,
                            dst,
                            time: t_wire,
                            payload_bytes,
                            wire_bytes,
                        });
                    } else {
                        pvm.send(t_wire, src, TaskId(dst), msg);
                    }
                    // A blocking socket write: the rank stalls while its
                    // host's TCP backlog exceeds the socket buffer.
                    if pvm.sender_backlog(src) > cfg.socket_buf {
                        rk.clock = t_wire;
                        rk.block(RankState::BlockedSend, cfg.telemetry);
                    } else {
                        rk.resume(t_wire, None);
                    }
                }
                Request::Recv { src } => {
                    class = EventClass::Recv;
                    let queued = mailbox.get_mut(&(src, rk.id)).and_then(VecDeque::pop_front);
                    if let Some((t_d, msg)) = queued {
                        mailbox_len -= 1;
                        rk.deliver(t_d, msg, &cfg.cost);
                    } else {
                        rk.block(RankState::BlockedRecv(src), cfg.telemetry);
                    }
                }
                Request::Barrier => {
                    class = EventClass::Barrier;
                    rk.block(RankState::BlockedBarrier, cfg.telemetry);
                    // Barriers are group-local: only the requesting rank's
                    // group synchronizes; other tenants are unaffected.
                    let gi = rk.group;
                    let waiters = &mut barrier_waiters[gi];
                    waiters.push(r);
                    if waiters.len() == groups[gi].p as usize {
                        let t = waiters
                            .iter()
                            .map(|&w| ranks[w].clock)
                            .fold(SimTime::ZERO, SimTime::max)
                            + cfg.cost.per_message;
                        for w in waiters.drain(..) {
                            ranks[w].resume(t, None);
                        }
                    }
                }
                Request::SpanBegin(name) => {
                    class = EventClass::Span;
                    rk.phase_seq += 1;
                    rk.open_spans.push((name, rk.clock));
                    rk.resume(rk.clock, None);
                }
                Request::SpanEnd => {
                    class = EventClass::Span;
                    if let Some((name, begin)) = rk.open_spans.pop() {
                        rk.span(SpanKind::Collective, name, begin);
                    }
                    rk.resume(rk.clock, None);
                }
                // The pass over the records retires `Done` without making
                // the rank ready, and `file_posts` never files `Panicked`.
                Request::Done | Request::Panicked(_) => unreachable!("never a ready request"),
            }
        } else {
            // The runaway guard holds for the network too: with heartbeats
            // on, a deadlocked program would otherwise advance them
            // forever. No rank can act before `t`: each one left is
            // blocked until the network moves or has a later clock. A
            // network step needs a ready or blocked rank; name the first
            // blocked one, else the first ready one.
            if let Some(t) = t_net.filter(|&t| t > cfg.max_sim_time) {
                let rank = ranks
                    .iter()
                    .position(|rk| !matches!(rk.state, RankState::Waiting | RankState::Done))
                    .or_else(|| ranks.iter().position(Rank::ready))
                    .unwrap_or_default();
                abandon(handles);
                return Err(FxnetError::SimTimeExceeded {
                    rank: rank as u32,
                    at: t,
                    limit: cfg.max_sim_time,
                });
            }
            deliveries.clear();
            let event_time = pvm.advance(&mut deliveries);
            for d in deliveries.drain(..) {
                let rk = &mut ranks[d.dst.0 as usize];
                if rk.state == RankState::BlockedRecv(d.src.0) {
                    rk.deliver(d.time, d.msg, &cfg.cost);
                } else {
                    mailbox
                        .entry((d.src.0, d.dst.0))
                        .or_default()
                        .push_back((d.time, d.msg));
                    mailbox_len += 1;
                    mailbox_high_water = mailbox_high_water.max(mailbox_len);
                }
            }
            // Network drain may have freed socket-buffer space.
            if let Some(t) = event_time {
                for rk in &mut ranks {
                    if rk.state == RankState::BlockedSend
                        && pvm.sender_backlog(TaskId(rk.id)) <= cfg.socket_buf
                    {
                        rk.resume(rk.clock.max(t), None);
                    }
                }
            }
        }
        if let Some(t0) = t0 {
            // `EventClass::ALL` lists the classes in declaration order.
            event_counts[class as usize] += 1;
            profile.record(class, t0.elapsed());
        }
    }

    // All ranks done. First advance the network through events scheduled
    // within the program's lifetime (periodic daemon chatter a compute-
    // heavy program never yielded to), then let trailing wire activity
    // (delayed ACKs, in-flight frames) complete so the trace is whole.
    let finished_at = ranks
        .iter()
        .map(|rk| rk.clock)
        .max()
        .unwrap_or(SimTime::ZERO);
    while let Some(t) = pvm.next_event_time() {
        if t > finished_at {
            break;
        }
        deliveries.clear();
        pvm.advance(&mut deliveries);
    }
    let _ = pvm.finish();
    let mut results: VecDeque<T> = handles
        .into_iter()
        .map(|h| {
            // A rank posts `Done` only from the `Ok` arm of its
            // `catch_unwind`, which then returns the result it holds.
            h.join()
                .ok()
                .flatten()
                .expect("a rank that posted Done returns its result")
        })
        .collect();
    let group_results: Vec<GroupRunResult<T>> = groups
        .iter()
        .zip(map.slices())
        .map(|(g, slice)| {
            let members = &ranks[slice.base as usize..(slice.base + slice.p) as usize];
            GroupRunResult {
                name: g.name.clone(),
                base: slice.base,
                p: slice.p,
                start: g.start,
                results: results.drain(..slice.p as usize).collect(),
                finished_at: members.iter().map(|rk| rk.done_at).max().unwrap_or(g.start),
            }
        })
        .collect();

    let telemetry = if cfg.telemetry {
        let mut spans = Vec::new();
        for rk in &mut ranks {
            // Close any span the application never ended.
            while let Some((name, begin)) = rk.open_spans.pop() {
                rk.span(SpanKind::Collective, name, begin);
            }
            spans.append(&mut rk.spans);
        }
        spans.sort_by(|a, b| {
            (a.begin, a.rank, &a.name, a.end).cmp(&(b.begin, b.rank, &b.name, b.end))
        });

        let mut reg = fxnet_telemetry::TelemetryRegistry::new();
        let mac = pvm.ether_stats();
        reg.set_counter("mac.frames_delivered", mac.frames_delivered);
        reg.set_counter("mac.bytes_delivered", mac.bytes_delivered);
        reg.set_counter("mac.collisions", mac.collisions);
        reg.set_counter("mac.backoffs", mac.backoffs);
        reg.set_counter("mac.frames_dropped", mac.frames_dropped);
        reg.set_counter("mac.busy_ns", mac.busy_ns);
        let tcp = pvm.tcp_stats();
        reg.set_counter("tcp.data_segments", tcp.data_segments);
        reg.set_counter("tcp.acks_sent", tcp.acks_sent);
        reg.set_counter("tcp.delayed_ack_fires", tcp.delayed_ack_fires);
        reg.set_counter("tcp.syn_frames", tcp.syn_frames);
        reg.set_counter("tcp.retransmits", tcp.retransmits);
        let pstats = pvm.pvm_stats();
        reg.set_counter("pvm.messages_sent", pstats.messages_sent);
        reg.set_counter("pvm.fragments_sent", pstats.fragments_sent);
        reg.set_counter("pvm.pack_bytes", pstats.pack_bytes);
        reg.set_counter("pvm.daemon_datagrams", pstats.daemon_datagrams);
        reg.set_counter("pvm.daemon_acks", pstats.daemon_acks);
        reg.set_counter("pvm.heartbeats", pstats.heartbeats);
        for (class, &n) in EventClass::ALL.iter().zip(&event_counts) {
            reg.set_counter(format!("engine.events.{}", class.label()), n);
        }
        reg.set_counter(
            "engine.timer_queue_high_water",
            pvm.timer_high_water() as u64,
        );
        reg.set_counter("engine.mailbox_high_water", mailbox_high_water as u64);
        for rk in &ranks {
            reg.set_counter(format!("engine.rank{}.blocked_ns", rk.id), rk.blocked_ns);
        }
        // Per-tenant registry scoping: in multi-program runs, roll the
        // rank-level counters up under each tenant's name so a tenant's
        // share of engine time is legible without knowing its task block.
        if map.len() > 1 {
            for (gi, slice) in map.slices().iter().enumerate() {
                let members = &ranks[slice.base as usize..(slice.base + slice.p) as usize];
                let name = &slice.name;
                reg.set_counter(format!("tenant.{name}.ranks"), u64::from(slice.p));
                reg.set_counter(format!("tenant.{name}.base_task"), u64::from(slice.base));
                reg.set_counter(
                    format!("tenant.{name}.blocked_ns"),
                    members.iter().map(|rk| rk.blocked_ns).sum(),
                );
                reg.set_counter(
                    format!("tenant.{name}.start_ns"),
                    groups[gi].start.as_nanos(),
                );
                reg.set_counter(
                    format!("tenant.{name}.finished_ns"),
                    group_results[gi].finished_at.as_nanos(),
                );
            }
        }

        profile.wall = run_start.elapsed();
        profile.sim_seconds = finished_at.as_secs_f64();
        Some(RunTelemetry {
            spans,
            registry: reg,
            profile: Some(profile),
        })
    } else {
        None
    };

    Ok(MultiRunResult {
        groups: group_results,
        map,
        trace: pvm.take_trace(),
        ether: pvm.ether_stats(),
        finished_at,
        telemetry,
        causal: if causal {
            Some(CausalRun {
                ops,
                events: pvm.take_causal().unwrap_or_default(),
            })
        } else {
            None
        },
        link_stats: pvm.take_link_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxnet_pvm::MessageBuilder;

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
        run(cfg, vec![GroupSpec::single(p, f)], RunOptions::default())
            .expect("valid config")
            .into_single()
    }

    /// Multi-group run through the unified entry point.
    fn run_groups<T: Send + 'static>(
        cfg: SpmdConfig,
        groups: Vec<GroupSpec<T>>,
    ) -> MultiRunResult<T> {
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
            RunOptions::tapped(Box::new(move |_r| {
                seen2.fetch_add(1, Ordering::Relaxed);
            })),
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
        assert_eq!(res.groups[0].results, vec![10.0, 1.0]);
        assert_eq!(res.groups[1].results, vec![50.0, 5.0]);
        assert_eq!(res.map.total_ranks(), 4);
        assert_eq!(res.groups[1].base, 2);
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
        assert!(res.groups[0].finished_at < SimTime::from_secs(1));
        assert!(res.groups[1].finished_at >= SimTime::from_secs(5));
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
        assert!(res.groups[0].finished_at < SimTime::from_secs(1));
        assert!(res.groups[1].finished_at >= SimTime::from_secs(2));
        assert_eq!(res.finished_at, res.groups[1].finished_at);
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
        let tel = res.telemetry.expect("telemetry switched on in the config");
        for kind in [
            SpanKind::BlockedRecv,
            SpanKind::BlockedSend,
            SpanKind::Barrier,
        ] {
            assert!(tel.spans.iter().any(|s| s.kind == kind), "no {kind:?} span");
        }
        for g in &res.groups {
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

    /// Everything of a run that the host's thread schedule must not move:
    /// the trace, `finished_at`, the results, the sorted spans and the
    /// counter registry.
    type Outcome = (
        Vec<FrameRecord>,
        SimTime,
        Vec<Vec<u64>>,
        Vec<SpanRecord>,
        fxnet_telemetry::TelemetryRegistry,
    );

    fn outcome(res: MultiRunResult<u64>) -> Outcome {
        let tel = res.telemetry.expect("telemetry on");
        let results = res.groups.into_iter().map(|g| g.results).collect();
        (res.trace, res.finished_at, results, tel.spans, tel.registry)
    }

    fn recv_f64(ctx: &mut RankCtx, src: u32) -> f64 {
        ctx.recv(src).reader().f64s(1)[0]
    }

    /// Small programs for the jitter test; between them they exercise
    /// every rule of the sequencer.
    fn jitter_programs() -> Vec<(&'static str, SpmdConfig, Vec<GroupSpec<u64>>)> {
        let cfg = |p: u32, socket_buf: u64| SpmdConfig {
            telemetry: true,
            socket_buf,
            ..quiet_cfg(p)
        };
        let ping_pong = |ctx: &mut RankCtx| {
            let mut v = 0.0;
            for i in 0..20 {
                if ctx.rank() == 0 {
                    ctx.send(1, f64_msg(i, &[v]));
                    v = recv_f64(ctx, 1);
                } else {
                    v = recv_f64(ctx, 0) + 1.0;
                    ctx.compute_time(SimTime::from_micros(50));
                    ctx.send(0, f64_msg(i, &[v]));
                }
            }
            v as u64
        };
        let all_to_all = |ctx: &mut RankCtx| {
            let (me, np) = (ctx.rank(), ctx.nprocs());
            let mut sum = 0.0;
            for round in 0..2 {
                ctx.compute_flops(u64::from(me + 1) * 20_000);
                for d in (0..np).filter(|&d| d != me) {
                    let len = if d % 2 == 0 { 300 } else { 3 };
                    ctx.send(d, f64_msg(round, &vec![f64::from(me); len]));
                }
                for s in (0..np).filter(|&s| s != me) {
                    sum += recv_f64(ctx, s);
                }
            }
            sum as u64
        };
        let mut heartbeats = SpmdConfig {
            telemetry: true,
            deschedule: Some(DescheduleConfig {
                mean_cpu_between: SimTime::from_millis(3),
                duration: SimTime::from_millis(1),
            }),
            ..quiet_cfg(3)
        };
        heartbeats.pvm = SpmdConfig::default().pvm;
        vec![
            (
                "recv ping-pong",
                cfg(2, 64 * 1024),
                vec![GroupSpec::single(2, ping_pong)],
            ),
            (
                "small sends that overflow the socket buffer only together",
                cfg(2, 1000),
                vec![GroupSpec::single(2, |ctx: &mut RankCtx| {
                    if ctx.rank() == 0 {
                        for i in 0..60 {
                            ctx.send(1, f64_msg(i, &[f64::from(i)]));
                        }
                        0
                    } else {
                        ctx.compute_time(SimTime::from_millis(20));
                        (0..60).map(|_| recv_f64(ctx, 0)).sum::<f64>() as u64
                    }
                })],
            ),
            (
                "all-to-all",
                cfg(4, 4096),
                vec![GroupSpec::single(4, all_to_all)],
            ),
            (
                "barrier with staggered compute",
                cfg(3, 64 * 1024),
                vec![GroupSpec::single(3, |ctx: &mut RankCtx| {
                    let me = ctx.rank();
                    ctx.compute_time(SimTime::from_millis(u64::from(me)));
                    ctx.barrier();
                    ctx.send((me + 1) % 3, f64_msg(0, &[f64::from(me)]));
                    let v = recv_f64(ctx, (me + 2) % 3);
                    ctx.compute_time(SimTime::from_micros(u64::from(3 - me) * 300));
                    ctx.barrier();
                    v as u64
                })],
            ),
            (
                "two staggered groups",
                cfg(2, 4096),
                vec![
                    group("ring", 3, SimTime::ZERO, all_to_all),
                    group("pair", 2, SimTime::from_millis(2), ping_pong),
                ],
            ),
            (
                "spans",
                cfg(2, 64 * 1024),
                vec![GroupSpec::single(2, |ctx: &mut RankCtx| {
                    let other = 1 - ctx.rank();
                    let v = ctx.phase("outer", |ctx| {
                        ctx.phase("inner", |ctx| ctx.compute_time(SimTime::from_micros(200)));
                        ctx.send(other, f64_msg(0, &[f64::from(other)]));
                        recv_f64(ctx, other)
                    });
                    // Left open: the engine closes it at the rank's end.
                    ctx.phase_begin("tail");
                    ctx.compute_time(SimTime::from_micros(100));
                    v as u64
                })],
            ),
            (
                "sends paced by the wire",
                cfg(2, 4096),
                vec![GroupSpec::single(2, |ctx: &mut RankCtx| {
                    if ctx.rank() == 0 {
                        for i in 0..4 {
                            ctx.send(1, f64_msg(i, &[1.0; 2500]));
                        }
                        0
                    } else {
                        (0..4).map(|_| recv_f64(ctx, 0)).sum::<f64>() as u64
                    }
                })],
            ),
            (
                "a late receiver under heartbeats and deschedules",
                heartbeats,
                vec![GroupSpec::single(3, |ctx: &mut RankCtx| {
                    let me = ctx.rank();
                    if me == 2 {
                        ctx.compute_time(SimTime::from_millis(30));
                        (0..10)
                            .map(|_| recv_f64(ctx, 0) + recv_f64(ctx, 1))
                            .sum::<f64>() as u64
                    } else {
                        for i in 0..10 {
                            ctx.compute_time(SimTime::from_millis(u64::from(me) + 1));
                            ctx.send(2, f64_msg(i, &[f64::from(i)]));
                        }
                        0
                    }
                })],
            ),
        ]
    }

    #[test]
    fn seeded_jitter_moves_no_decision() {
        // A seeded delay where the threads meet reorders when posts
        // arrive, waits park and the sequencer looks; none of that may
        // reach anything the run shows.
        for (name, cfg, groups) in jitter_programs() {
            let run_with = |jitter_seed: Option<u64>| {
                jitter::install(jitter_seed.map(SimRng::new));
                let groups = groups
                    .iter()
                    .map(|g| GroupSpec {
                        name: g.name.clone(),
                        program: Arc::clone(&g.program),
                        ..*g
                    })
                    .collect();
                let out = outcome(run(cfg.clone(), groups, RunOptions::default()).expect(name));
                jitter::install(None);
                out
            };
            let want = run_with(None);
            for seed in 1..=20 {
                assert!(run_with(Some(seed)) == want, "{name}: jitter seed {seed}");
            }
        }
    }
}

/// A seeded delay at the points where a run's threads meet: before a
/// rank posts, before a waiting rank parks and before the sequencer files
/// posts. A test turns it on for its own thread; `run` hands each rank
/// thread it spawns a stream forked from the caller's, so tests running
/// beside it are not slowed.
#[cfg(test)]
mod jitter {
    use fxnet_sim::SimRng;
    use std::cell::RefCell;
    use std::time::Duration;

    thread_local! {
        static RNG: RefCell<Option<SimRng>> = const { RefCell::new(None) };
    }

    /// Turn this thread's jitter on with `rng`, or off with `None`.
    pub(super) fn install(rng: Option<SimRng>) {
        RNG.set(rng);
    }

    /// A stream for a thread this one spawns, or `None` while this
    /// thread's jitter is off.
    pub(super) fn fork(label: u64) -> Option<SimRng> {
        RNG.with_borrow_mut(|rng| rng.as_mut().map(|rng| rng.fork(label)))
    }

    /// Go on, yield, or sleep 0–50 µs, as this thread's stream says.
    pub(super) fn point() {
        let draw = RNG.with_borrow_mut(|rng| rng.as_mut().map(|rng| rng.below(53)));
        match draw {
            None | Some(0) => {}
            Some(1) => std::thread::yield_now(),
            Some(us) => std::thread::sleep(Duration::from_micros(us - 2)),
        }
    }
}
