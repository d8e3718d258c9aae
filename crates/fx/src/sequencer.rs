//! The rank engine's decision rule, as a state machine with no threads.
//!
//! [`Sequencer::offer`] files a rank's next request behind its earlier
//! ones; [`Sequencer::step`] makes one decision or names the request it
//! needs. A rank is *waiting* once its last request is answered, and
//! *ready* when waiting with a request filed. A waiting rank with none
//! filed will run its next request at its current clock, which nothing
//! can move; the least `(clock, rank)` of such ranks is the *horizon*.
//! After retiring every waiting rank whose next request is `Done`, a step
//! - runs the ready rank with the least `(clock, rank)` if that pair is
//!   below the horizon and its clock is at most the network's next event
//!   time `t_net`;
//! - else advances the network one event if `t_net` is strictly below the
//!   horizon's clock and some rank is ready or blocked;
//! - else needs the horizon rank's request while a rank is ready or
//!   blocked, any rank's otherwise, and with no rank waiting the run is
//!   deadlocked.
//!
//! So each decision is one no later request can change: the decisions and
//! their order are those of a sequencer that first collects every rank's
//! next request (DESIGN.md §7), whatever order requests are offered in.

use crate::engine::{AppOp, CausalRun, DescheduleConfig, RunResult};
use crate::engine::{GroupSpec, RunOptions, SpmdConfig};
use fxnet_pvm::{MsgDelivery, PvmSystem, TaskId, TenantMap, WireMessage};
use fxnet_sim::{CauseId, FxnetError, FxnetResult, SimRng, SimTime};
use fxnet_telemetry::{EventClass, RunTelemetry, SpanKind, SpanRecord, TelemetryRegistry};
use std::collections::{HashMap, VecDeque};

/// One request of a rank's program, in the order the rank made them.
#[derive(Clone)]
pub(crate) enum Request {
    Compute(SimTime),
    Send {
        dst: u32,
        msg: WireMessage,
    },
    Recv {
        src: u32,
    },
    Barrier,
    /// Open a named collective span at the rank's current clock.
    SpanBegin(&'static str),
    /// Close the most recent open span on this rank.
    SpanEnd,
    /// The program returned and every earlier request was answered.
    Done,
}

/// What one [`Sequencer::step`] did.
pub(crate) enum Step<'a> {
    /// It made one decision of `class`, which answered the oldest
    /// unanswered request of each of these global ranks.
    Ran {
        class: EventClass,
        answers: std::vec::Drain<'a, usize>,
    },
    /// Only this global rank's next request can decide the next step.
    NeedPost(usize),
    /// Any rank's next request may decide the next step.
    NeedAnyPost,
    /// Every rank is done.
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum RankState {
    /// The last request is answered; the next one runs at the clock.
    #[default]
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
#[derive(Default)]
struct Rank {
    /// Global rank.
    id: u32,
    /// Index of the rank's group in the spec list.
    group: usize,
    clock: SimTime,
    state: RankState,
    /// Requests offered and not yet executed, in program order.
    intake: VecDeque<Request>,
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
    /// Block the rank in `state` from its clock on.
    fn block(&mut self, state: RankState, telemetry: bool) {
        self.state = state;
        if telemetry {
            self.blocked_since = Some(self.clock);
        }
    }

    /// The resume rule: answer the rank's request at `at`. A blocked
    /// interval ends at `at`, as a span of the kind of the state the rank
    /// leaves.
    fn resume(&mut self, at: SimTime, answers: &mut Vec<usize>) {
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
        answers.push(self.id as usize);
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
        Deschedule {
            next_at: rng.exponential(mean_s),
            rng,
            mean_s,
            duration: cfg.duration,
            cpu_acc: 0.0,
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

/// The decision state of one run.
pub(crate) struct Sequencer {
    /// The configuration the run uses.
    pub(crate) cfg: SpmdConfig,
    causal: bool,
    pvm: PvmSystem,
    map: TenantMap,
    /// Each group's start time.
    starts: Vec<SimTime>,
    /// Indexed by global rank.
    ranks: Vec<Rank>,
    /// The delivery time and body length of each delivered message no
    /// `recv` has taken yet, per (src, dst). The bodies travel rank to
    /// rank; a `recv` here needs only when and how long.
    mailbox: HashMap<(u32, u32), VecDeque<(SimTime, usize)>>,
    mailbox_len: usize,
    mailbox_high_water: usize,
    /// Per group, the ranks blocked in its barrier.
    barrier_waiters: Vec<Vec<usize>>,
    deliveries: Vec<MsgDelivery>,
    /// The global ranks answered in the current step.
    answers: Vec<usize>,
    /// Each posted message not yet delivered, per (src, dst), as its
    /// receiver reassembles it: every delivery is checked against it.
    #[cfg(debug_assertions)]
    posted: HashMap<(u32, u32), VecDeque<fxnet_pvm::Message>>,
    /// Causal ops; empty when capture is off.
    ops: Vec<AppOp>,
    /// Steps per class, in `EventClass::ALL` order.
    event_counts: [u64; EventClass::ALL.len()],
}

impl Sequencer {
    /// The sequencer of a run of `groups`, packed in spec order from task
    /// 0, each rank waiting at its group's start with nothing offered.
    pub(crate) fn new<T>(cfg: SpmdConfig, groups: &[GroupSpec<T>], opts: RunOptions) -> Sequencer {
        let map = TenantMap::pack(groups.iter().map(|g| (g.name.clone(), g.p)));
        let mut pvm = PvmSystem::new(cfg.pvm.clone(), map.total_ranks(), cfg.hosts);
        pvm.set_promiscuous(true);
        pvm.set_tap(opts.tap);
        pvm.set_causal(opts.causal);
        pvm.set_link_sampling(opts.sample_links);
        let mut rng = SimRng::new(cfg.seed);
        let mut ranks = Vec::new();
        for (group, slice) in map.slices().iter().enumerate() {
            for id in slice.base..slice.base + slice.p {
                let desched = cfg.deschedule.as_ref();
                ranks.push(Rank {
                    id,
                    group,
                    clock: groups[group].start,
                    desched: desched.map(|d| Deschedule::new(d, rng.fork(u64::from(id)))),
                    ..Rank::default()
                });
            }
        }
        Sequencer {
            causal: opts.causal,
            pvm,
            barrier_waiters: vec![Vec::new(); map.len()],
            map,
            starts: groups.iter().map(|g| g.start).collect(),
            ranks,
            mailbox: HashMap::new(),
            mailbox_len: 0,
            mailbox_high_water: 0,
            deliveries: Vec::new(),
            answers: Vec::new(),
            #[cfg(debug_assertions)]
            posted: HashMap::new(),
            ops: Vec::new(),
            event_counts: [0; EventClass::ALL.len()],
            cfg,
        }
    }

    /// File global rank `rank`'s next request, after every earlier one.
    pub(crate) fn offer(&mut self, rank: usize, req: Request) {
        self.ranks[rank].intake.push_back(req);
    }

    /// Make the next decision, if the requests offered so far decide it.
    ///
    /// # Errors
    /// [`FxnetError::Deadlock`] when no rank can run, none is waiting and
    /// the network is idle; [`FxnetError::SimTimeExceeded`] when the
    /// request to run starts past `max_sim_time`, or the network event
    /// to run lies past it.
    pub(crate) fn step(&mut self) -> FxnetResult<Step<'_>> {
        // One pass over the records: the horizon, the least ready rank,
        // and whether a rank is ready or blocked (the run is engaged).
        let (mut horizon, mut best) = (None::<(SimTime, usize)>, None::<(SimTime, usize)>);
        let (mut engaged, mut all_done) = (false, true);
        for (r, rk) in self.ranks.iter_mut().enumerate() {
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
        // The network may still hold events (periodic daemon chatter);
        // `finish` drains them up to the programs' end, never past it.
        if all_done {
            return Ok(Step::Finished);
        }

        // With only waiting ranks left they may all be about to finish,
        // and then the network event belongs to `finish`'s drain: a
        // network step needs the run engaged.
        let t_net = self.pvm.next_event_time();
        let rank_first =
            best.filter(|&b| horizon.is_none_or(|h| b < h) && t_net.is_none_or(|t| b.0 <= t));
        let class = match (rank_first, t_net) {
            (Some((_, r)), _) => self.execute(r)?,
            (None, Some(t)) if engaged && horizon.is_none_or(|(c, _)| t < c) => {
                self.advance(t)?;
                EventClass::NetAdvance
            }
            _ => {
                return match horizon {
                    Some((_, h)) if engaged => Ok(Step::NeedPost(h)),
                    Some(_) => Ok(Step::NeedAnyPost),
                    None => Err(FxnetError::Deadlock(
                        (self.ranks.iter().enumerate())
                            .filter(|(_, rk)| rk.state != RankState::Done)
                            .map(|(r, rk)| format!("rank {r}: {:?} at {}", rk.state, rk.clock))
                            .collect::<Vec<_>>()
                            .join("\n"),
                    )),
                }
            }
        };
        self.event_counts[class as usize] += 1;
        Ok(Step::Ran {
            class,
            answers: self.answers.drain(..),
        })
    }

    /// Run ready rank `r`'s next request.
    fn execute(&mut self, r: usize) -> FxnetResult<EventClass> {
        let (cfg, answers, pvm) = (&self.cfg, &mut self.answers, &mut self.pvm);
        let rk = &mut self.ranks[r];
        let req = rk.intake.pop_front().expect("a ready rank has a request");
        if rk.clock > cfg.max_sim_time {
            return Err(FxnetError::SimTimeExceeded {
                rank: r as u32,
                at: rk.clock,
                limit: cfg.max_sim_time,
            });
        }
        Ok(match req {
            Request::Compute(d) => {
                let begin = rk.clock;
                let extra = (rk.desched.as_mut()).map_or(SimTime::ZERO, |ds| ds.extra_for(d));
                rk.clock += d + extra;
                if cfg.telemetry {
                    rk.span(SpanKind::Compute, "compute", begin);
                }
                rk.resume(rk.clock, answers);
                EventClass::Compute
            }
            Request::Send { dst, msg } => {
                let t_wire = rk.clock + cfg.cost.sealed_send_overhead(&msg);
                let src = TaskId(rk.id);
                #[cfg(debug_assertions)]
                (self.posted.entry((rk.id, dst)).or_default()).push_back(msg.message());
                if self.causal {
                    let phase = if rk.open_spans.is_empty() {
                        0
                    } else {
                        rk.phase_seq
                    };
                    let cause = CauseId::app(rk.group as u32, rk.id, phase, rk.op_seq);
                    rk.op_seq += 1;
                    let payload_bytes = msg.payload_len() as u64;
                    let wire_bytes = pvm.send_caused(t_wire, src, TaskId(dst), msg, cause);
                    self.ops.push(AppOp {
                        cause,
                        dst,
                        time: t_wire,
                        payload_bytes,
                        wire_bytes,
                    });
                } else {
                    pvm.send_caused(t_wire, src, TaskId(dst), msg, CauseId::NONE);
                }
                // A blocking socket write: the rank stalls while its
                // host's TCP backlog exceeds the socket buffer.
                if pvm.sender_backlog(src) > cfg.socket_buf {
                    rk.clock = t_wire;
                    rk.block(RankState::BlockedSend, cfg.telemetry);
                } else {
                    rk.resume(t_wire, answers);
                }
                EventClass::Send
            }
            Request::Recv { src } => {
                let queued = (self.mailbox.get_mut(&(src, rk.id))).and_then(VecDeque::pop_front);
                if let Some((t_d, len)) = queued {
                    self.mailbox_len -= 1;
                    let at = rk.clock.max(t_d) + cfg.cost.recv_overhead(len);
                    rk.resume(at, answers);
                } else {
                    rk.block(RankState::BlockedRecv(src), cfg.telemetry);
                }
                EventClass::Recv
            }
            Request::Barrier => {
                rk.block(RankState::BlockedBarrier, cfg.telemetry);
                // Barriers are group-local: only the requesting rank's
                // group synchronizes; other tenants are unaffected.
                let gi = rk.group;
                let waiters = &mut self.barrier_waiters[gi];
                waiters.push(r);
                if waiters.len() == self.map.slices()[gi].p as usize {
                    let ranks = &mut self.ranks;
                    let t = (waiters.iter().map(|&w| ranks[w].clock))
                        .fold(SimTime::ZERO, SimTime::max)
                        + cfg.cost.per_message;
                    for w in waiters.drain(..) {
                        ranks[w].resume(t, answers);
                    }
                }
                EventClass::Barrier
            }
            Request::SpanBegin(name) => {
                rk.phase_seq += 1;
                rk.open_spans.push((name, rk.clock));
                rk.resume(rk.clock, answers);
                EventClass::Span
            }
            Request::SpanEnd => {
                if let Some((name, begin)) = rk.open_spans.pop() {
                    rk.span(SpanKind::Collective, name, begin);
                }
                rk.resume(rk.clock, answers);
                EventClass::Span
            }
            // The pass over the records retires `Done` without making the
            // rank ready.
            Request::Done => unreachable!("never a ready request"),
        })
    }

    /// Advance the network by its next event, at `t`.
    fn advance(&mut self, t: SimTime) -> FxnetResult<()> {
        let (cfg, pvm, ranks) = (&self.cfg, &mut self.pvm, &mut self.ranks);
        // The runaway guard holds for the network too: with heartbeats
        // on, a deadlocked program would otherwise advance them forever.
        // No rank can act before `t`: each one left is blocked until the
        // network moves or has a later clock. A network step needs a
        // ready or blocked rank; name the first blocked one, else the
        // first ready one.
        if t > cfg.max_sim_time {
            let rank = (ranks.iter())
                .position(|rk| !matches!(rk.state, RankState::Waiting | RankState::Done))
                .or_else(|| ranks.iter().position(|rk| !rk.intake.is_empty()))
                .unwrap_or_default();
            return Err(FxnetError::SimTimeExceeded {
                rank: rank as u32,
                at: t,
                limit: cfg.max_sim_time,
            });
        }
        self.deliveries.clear();
        let event_time = pvm.advance(&mut self.deliveries);
        for d in self.deliveries.drain(..) {
            #[cfg(debug_assertions)]
            check_delivery(&mut self.posted, &d, cfg.pvm.route);
            let rk = &mut ranks[d.dst.0 as usize];
            let len = d.msg.body.len();
            if rk.state == RankState::BlockedRecv(d.src.0) {
                let at = rk.clock.max(d.time) + cfg.cost.recv_overhead(len);
                rk.resume(at, &mut self.answers);
            } else {
                (self.mailbox.entry((d.src.0, d.dst.0)).or_default()).push_back((d.time, len));
                self.mailbox_len += 1;
                self.mailbox_high_water = self.mailbox_high_water.max(self.mailbox_len);
            }
        }
        // Network drain may have freed socket-buffer space.
        if let Some(t) = event_time {
            for rk in ranks.iter_mut() {
                if rk.state == RankState::BlockedSend
                    && pvm.sender_backlog(TaskId(rk.id)) <= cfg.socket_buf
                {
                    rk.resume(rk.clock.max(t), &mut self.answers);
                }
            }
        }
        Ok(())
    }

    /// End a finished run: advance the network through the events due
    /// by the programs' end (daemon chatter a compute-heavy program never
    /// yielded to), then let trailing wire activity complete so the trace
    /// is whole. The result holds the ranks' `results`, in global rank
    /// order, and telemetry without a profile (the driver times steps).
    pub(crate) fn finish<T>(mut self, results: impl IntoIterator<Item = T>) -> RunResult<T> {
        let finished_at = (self.ranks.iter().map(|rk| rk.clock).max()).unwrap_or(SimTime::ZERO);
        while (self.pvm.next_event_time()).is_some_and(|t| t <= finished_at) {
            self.deliveries.clear();
            self.pvm.advance(&mut self.deliveries);
        }
        let _ = self.pvm.finish();
        let ends: Vec<SimTime> = (self.map.slices().iter().zip(&self.starts))
            .map(|(g, &start)| {
                let done = self.members(g.base, g.p).iter().map(|rk| rk.done_at);
                done.max().unwrap_or(start)
            })
            .collect();
        let telemetry = self.cfg.telemetry.then(|| self.telemetry(&ends));
        RunResult {
            results: results.into_iter().collect(),
            trace: self.pvm.take_trace(),
            ether: self.pvm.ether_stats(),
            finished_at,
            telemetry,
            causal: self.causal.then(|| CausalRun {
                ops: std::mem::take(&mut self.ops),
                events: self.pvm.take_causal().unwrap_or_default(),
            }),
            link_stats: self.pvm.take_link_stats(),
            map: self.map,
            group_starts: self.starts,
            group_finished_at: ends,
        }
    }

    /// The records of a group's ranks.
    fn members(&self, base: u32, p: u32) -> &[Rank] {
        &self.ranks[base as usize..(base + p) as usize]
    }

    /// The run's sorted spans and its counter registry.
    fn telemetry(&mut self, ends: &[SimTime]) -> RunTelemetry {
        let mut spans = Vec::new();
        for rk in &mut self.ranks {
            // Close any span the application never ended.
            while let Some((name, begin)) = rk.open_spans.pop() {
                rk.span(SpanKind::Collective, name, begin);
            }
            spans.append(&mut rk.spans);
        }
        spans.sort_by(|a, b| {
            (a.begin, a.rank, &a.name, a.end).cmp(&(b.begin, b.rank, &b.name, b.end))
        });

        let mut reg = TelemetryRegistry::new();
        let mac = self.pvm.ether_stats();
        reg.set_counter("mac.frames_delivered", mac.frames_delivered);
        reg.set_counter("mac.bytes_delivered", mac.bytes_delivered);
        reg.set_counter("mac.collisions", mac.collisions);
        reg.set_counter("mac.backoffs", mac.backoffs);
        reg.set_counter("mac.frames_dropped", mac.frames_dropped);
        reg.set_counter("mac.busy_ns", mac.busy_ns);
        let tcp = self.pvm.tcp_stats();
        reg.set_counter("tcp.data_segments", tcp.data_segments);
        reg.set_counter("tcp.acks_sent", tcp.acks_sent);
        reg.set_counter("tcp.delayed_ack_fires", tcp.delayed_ack_fires);
        reg.set_counter("tcp.syn_frames", tcp.syn_frames);
        reg.set_counter("tcp.retransmits", tcp.retransmits);
        let pstats = self.pvm.pvm_stats();
        reg.set_counter("pvm.messages_sent", pstats.messages_sent);
        reg.set_counter("pvm.fragments_sent", pstats.fragments_sent);
        reg.set_counter("pvm.pack_bytes", pstats.pack_bytes);
        reg.set_counter("pvm.daemon_datagrams", pstats.daemon_datagrams);
        reg.set_counter("pvm.daemon_acks", pstats.daemon_acks);
        reg.set_counter("pvm.heartbeats", pstats.heartbeats);
        for (class, &n) in EventClass::ALL.iter().zip(&self.event_counts) {
            reg.set_counter(format!("engine.events.{}", class.label()), n);
        }
        let (timers, mailbox) = (self.pvm.timer_high_water(), self.mailbox_high_water);
        reg.set_counter("engine.timer_queue_high_water", timers as u64);
        reg.set_counter("engine.mailbox_high_water", mailbox as u64);
        for rk in &self.ranks {
            reg.set_counter(format!("engine.rank{}.blocked_ns", rk.id), rk.blocked_ns);
        }
        // Per-tenant registry scoping: in multi-program runs, roll the
        // rank-level counters up under each tenant's name so a tenant's
        // share of engine time is legible without knowing its task block.
        if self.map.len() > 1 {
            let groups = self.map.slices().iter().zip(&self.starts);
            for ((g, start), finished_at) in groups.zip(ends) {
                let name = &g.name;
                reg.set_counter(format!("tenant.{name}.ranks"), u64::from(g.p));
                reg.set_counter(format!("tenant.{name}.base_task"), u64::from(g.base));
                let blocked_ns = self
                    .members(g.base, g.p)
                    .iter()
                    .map(|rk| rk.blocked_ns)
                    .sum();
                reg.set_counter(format!("tenant.{name}.blocked_ns"), blocked_ns);
                reg.set_counter(format!("tenant.{name}.start_ns"), start.as_nanos());
                let finished_ns = finished_at.as_nanos();
                reg.set_counter(format!("tenant.{name}.finished_ns"), finished_ns);
            }
        }
        RunTelemetry {
            spans,
            registry: reg,
            profile: None,
        }
    }
}

/// Check that `d` is the oldest message its sender posted to its receiver
/// and not yet delivered: the one its receiver took rank to rank. The
/// daemon route re-fragments a message, so only the direct route keeps
/// the sender's fragment count.
#[cfg(debug_assertions)]
fn check_delivery(
    posted: &mut HashMap<(u32, u32), VecDeque<fxnet_pvm::Message>>,
    d: &MsgDelivery,
    route: fxnet_pvm::Route,
) {
    let key = (d.src.0, d.dst.0);
    let sent = (posted.get_mut(&key)).and_then(VecDeque::pop_front);
    let sent = sent.unwrap_or_else(|| panic!("{key:?} delivered a message nobody posted"));
    let got = &d.msg;
    let same = (sent.tag, sent.src_task, &sent.body) == (got.tag, got.src_task, &got.body);
    let frags_kept = route == fxnet_pvm::Route::Daemon || sent.n_frags == got.n_frags;
    assert!(
        same && frags_kept,
        "{key:?} delivered {got:?}, but its sender posted {sent:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::sequencer;
    use fxnet_pvm::MessageBuilder;

    /// What one step did, its answers reduced to the ranks answered.
    #[derive(Debug, PartialEq)]
    enum Did {
        Ran(EventClass, Vec<usize>),
        Need(usize),
        NeedAny,
        Finished,
    }

    fn step(seq: &mut Sequencer) -> Did {
        match seq.step().expect("the program is sound") {
            Step::Ran { class, answers } => Did::Ran(class, answers.collect()),
            Step::NeedPost(r) => Did::Need(r),
            Step::NeedAnyPost => Did::NeedAny,
            Step::Finished => Did::Finished,
        }
    }

    #[test]
    fn a_starved_sequencer_asks_for_the_horizon_ranks_post() {
        // DESIGN.md §7: while a rank is ready or blocked, only the horizon
        // rank's post can decide the next step; otherwise any post can.
        let mut cfg = SpmdConfig {
            p: 3,
            hosts: 3,
            ..SpmdConfig::default()
        };
        cfg.pvm.heartbeat = None;
        let groups = [GroupSpec::single(3, |_| ())];
        let mut seq = sequencer(cfg, &groups, RunOptions::default()).expect("valid config");
        let ms = SimTime::from_millis;
        assert_eq!(step(&mut seq), Did::NeedAny, "nobody ready or blocked");

        // Rank 1 is ready at (0, 1), but rank 0 may still post at (0, 0).
        seq.offer(1, Request::Recv { src: 2 });
        assert_eq!(step(&mut seq), Did::Need(0));
        seq.offer(2, Request::Compute(ms(1)));
        assert_eq!(
            step(&mut seq),
            Did::Need(0),
            "another rank's post decides nothing"
        );

        seq.offer(0, Request::Compute(ms(5)));
        assert_eq!(step(&mut seq), Did::Ran(EventClass::Compute, vec![0]));
        assert_eq!(step(&mut seq), Did::Ran(EventClass::Recv, vec![]));
        assert_eq!(step(&mut seq), Did::Ran(EventClass::Compute, vec![2]));
        // Waiting: rank 0 at 5 ms, rank 2 at 1 ms; rank 1 is blocked. The
        // horizon is the least (clock, rank), rank 2, not the least rank.
        assert_eq!(step(&mut seq), Did::Need(2));
        seq.offer(0, Request::Compute(ms(1)));
        assert_eq!(
            step(&mut seq),
            Did::Need(2),
            "rank 0 posts past the horizon"
        );

        // The rest of the program runs to its end with no other request.
        let msg = MessageBuilder::new(0).finish().seal(2, 1);
        seq.offer(2, Request::Send { dst: 1, msg });
        for r in [1, 2, 0] {
            seq.offer(r, Request::Done);
        }
        let mut answered = Vec::new();
        loop {
            match step(&mut seq) {
                Did::Ran(_, ranks) => answered.extend(ranks),
                Did::Finished => break,
                starved => panic!("{starved:?} with every request offered"),
            }
        }
        answered.sort_unstable();
        assert_eq!(
            answered,
            [0, 1, 2],
            "the send, the recv and rank 0's compute"
        );
    }
}
