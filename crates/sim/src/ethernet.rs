//! Shared-bus Ethernet with CSMA/CD.
//!
//! Models the paper's testbed network: a multi-segment bridged Ethernet
//! where "all machines shared a common collision domain and an aggregate
//! 1.25 MB/s of bandwidth" (§5.1). Stations carrier-sense, defer while the
//! medium is busy, wait the 9.6 µs inter-frame gap, and — because the
//! simulated propagation delay is zero — collide exactly when two or more
//! deferring stations begin transmitting at the same instant. Colliding
//! stations jam for 3.2 µs and back off a uniformly random number of
//! 51.2 µs slot times, doubling the range per attempt (truncated binary
//! exponential backoff, range capped at 2^10, frame dropped after 16
//! attempts, per IEEE 802.3).
//!
//! The bus is pull-driven: the owner asks for [`EtherBus::next_event_time`]
//! and calls [`EtherBus::advance`] to process exactly one MAC event,
//! collecting any delivered frame. The bus keeps no trace: the paper's
//! tcpdump workstation is the owner's, which turns each [`Delivery`] it
//! is handed into a [`crate::FrameRecord`] (`fxnet-proto`'s `Network`).

use crate::cause::FrameMeta;
use crate::frame::Frame;
use crate::linkstats::LinkSeries;
use crate::rng::SimRng;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Identifier of a network interface attached to the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NicId(pub u32);

/// MAC-layer configuration. Defaults model 10 Mb/s Ethernet.
#[derive(Debug, Clone)]
pub struct EtherConfig {
    /// Raw signalling rate in bits per second.
    pub bandwidth_bps: u64,
    /// Backoff slot time (512 bit times).
    pub slot: SimTime,
    /// Inter-frame gap (96 bit times).
    pub ifg: SimTime,
    /// Jam duration after a collision (32 bit times).
    pub jam: SimTime,
    /// Backoff exponent cap (attempt count is clamped to this for the
    /// `2^k` range computation).
    pub max_backoff_exp: u32,
    /// Attempts before a frame is dropped ("excessive collisions").
    pub attempt_limit: u32,
    /// Probability that a successfully transmitted frame is corrupted and
    /// discarded by the receiver. 0 in the paper's environment; nonzero
    /// only in the lossy-bus extension.
    pub drop_prob: f64,
    /// Stations beginning transmission within this window of each other
    /// cannot sense one another's carrier yet (propagation + sensing
    /// latency) and collide.
    pub collision_window: SimTime,
    /// Uniform per-contention-round jitter on each station's deference
    /// end (oscillator and MAC timing skew). Wider than the collision
    /// window, so deferred stations usually resolve without colliding —
    /// without it, zero-propagation simulation re-ties every waiter at
    /// exactly `free + IFG` forever.
    pub defer_jitter: SimTime,
}

impl Default for EtherConfig {
    fn default() -> Self {
        EtherConfig {
            bandwidth_bps: crate::rates::RATE_10M,
            slot: SimTime::from_nanos(51_200),
            ifg: SimTime::from_nanos(9_600),
            jam: SimTime::from_nanos(3_200),
            max_backoff_exp: 10,
            attempt_limit: 16,
            drop_prob: 0.0,
            collision_window: SimTime::from_nanos(4_000),
            defer_jitter: SimTime::from_nanos(48_000),
        }
    }
}

/// Error surfaced by the bus for a frame that could not be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// Dropped after exceeding the collision attempt limit.
    ExcessiveCollisions,
    /// Corrupted on the wire (lossy-bus extension).
    Corrupted,
}

/// Aggregate MAC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EtherStats {
    pub frames_delivered: u64,
    pub bytes_delivered: u64,
    pub collisions: u64,
    /// Individual station backoff rounds entered (one collision event
    /// backs off every collider).
    pub backoffs: u64,
    pub frames_dropped: u64,
    /// Total time the medium was occupied (transmissions + jams), in ns.
    pub busy_ns: u64,
}

#[derive(Debug)]
struct Nic {
    /// Pending frames, each with the earliest instant it may start
    /// (its enqueue time — a frame written "in the future" by a paced
    /// sender must not transmit early just because the line is free).
    queue: VecDeque<(Frame, SimTime)>,
    /// Backoff expiry after collisions (applies to the head frame).
    backoff_until: SimTime,
    attempts: u32,
    /// This contention round's deference jitter (re-rolled every round).
    jitter: SimTime,
    /// Backoff time the head frame has accumulated so far (bookkeeping
    /// only; never read by the state machine).
    backoff_acc: u64,
}

#[derive(Debug)]
struct CurrentTx {
    nic: usize,
    frame: Frame,
    end: SimTime,
    meta: FrameMeta,
}

/// One delivered frame, handed back to the protocol layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    pub time: SimTime,
    pub frame: Frame,
    /// Passive MAC timing metadata (queue / backoff / tx split).
    pub meta: FrameMeta,
}

/// The shared collision domain.
pub struct EtherBus {
    cfg: EtherConfig,
    nics: Vec<Nic>,
    current: Option<CurrentTx>,
    /// Earliest instant the medium is free (end of last tx or jam).
    free_at: SimTime,
    rng: SimRng,
    stats: EtherStats,
    errors: Vec<(SimTime, Frame, TxError)>,
    /// Scratch list of stations starting at the earliest instant, reused
    /// across `advance` calls so the per-event hot path allocates nothing.
    starters: Vec<usize>,
    /// Per-window sample series when link sampling is enabled. Purely
    /// observational — reads the same quantities the MAC stats already
    /// track, draws no RNG, schedules nothing — so the trace is
    /// byte-identical with sampling on or off.
    sampling: Option<LinkSeries>,
}

impl EtherBus {
    /// Create a bus with the given MAC configuration and RNG stream.
    pub fn new(cfg: EtherConfig, rng: SimRng) -> Self {
        EtherBus {
            cfg,
            nics: Vec::new(),
            current: None,
            free_at: SimTime::ZERO,
            rng,
            stats: EtherStats::default(),
            errors: Vec::new(),
            starters: Vec::new(),
            sampling: None,
        }
    }

    /// Enable or disable passive link sampling into
    /// [`crate::LINK_WINDOW_NS`] windows. Has no effect on MAC
    /// behavior or the trace.
    pub fn set_link_sampling(&mut self, on: bool) {
        self.sampling = on.then(LinkSeries::new);
    }

    /// Take the accumulated sample series, if sampling is enabled.
    pub fn take_link_series(&mut self) -> Option<LinkSeries> {
        self.sampling.as_mut().map(std::mem::take)
    }

    /// Attach a station; returns its interface id.
    pub fn attach(&mut self) -> NicId {
        let id = NicId(self.nics.len() as u32);
        self.nics.push(Nic {
            queue: VecDeque::new(),
            backoff_until: SimTime::ZERO,
            attempts: 0,
            jitter: SimTime::ZERO,
            backoff_acc: 0,
        });
        id
    }

    /// Number of attached stations.
    pub fn nic_count(&self) -> usize {
        self.nics.len()
    }

    /// MAC statistics so far.
    pub fn stats(&self) -> EtherStats {
        self.stats
    }

    /// Frames that could not be delivered, with the reason.
    pub fn errors(&self) -> &[(SimTime, Frame, TxError)] {
        &self.errors
    }

    /// Queue a frame for transmission by `nic` at time `now`.
    pub fn enqueue(&mut self, nic: NicId, frame: Frame, now: SimTime) {
        let jitter = self.roll_jitter();
        let n = &mut self.nics[nic.0 as usize];
        if n.queue.is_empty() {
            n.attempts = 0;
            n.backoff_until = SimTime::ZERO;
            n.jitter = jitter;
            n.backoff_acc = 0;
        }
        n.queue.push_back((frame, now));
        if let Some(series) = &mut self.sampling {
            let depth: usize = self.nics.iter().map(|n| n.queue.len()).sum();
            let w = series.window_at(now);
            w.depth_max = w.depth_max.max(depth as u32);
        }
    }

    fn roll_jitter(&mut self) -> SimTime {
        let j = self.cfg.defer_jitter.as_nanos();
        if j == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_nanos(self.rng.below(j))
        }
    }

    /// Begin a new contention round: every waiting station re-times its
    /// deference end.
    fn reroll_all_jitters(&mut self) {
        for i in 0..self.nics.len() {
            if !self.nics[i].queue.is_empty() {
                let j = self.roll_jitter();
                self.nics[i].jitter = j;
            }
        }
    }

    /// Whether nothing is in flight and all transmit queues are empty.
    pub fn idle(&self) -> bool {
        self.current.is_none() && self.nics.iter().all(|n| n.queue.is_empty())
    }

    /// Effective transmission start instant for station `i`, if it has a
    /// frame pending: it must be ready, the medium must be free, and the
    /// inter-frame gap observed.
    fn effective_start(&self, i: usize) -> Option<SimTime> {
        let n = &self.nics[i];
        if n.queue.is_empty() {
            return None;
        }
        if let Some(tx) = &self.current {
            if tx.nic == i {
                return None; // already transmitting its head frame
            }
        }
        let head_ready = n.queue.front()?.1;
        let after_medium = self.free_at + self.cfg.ifg;
        Some(head_ready.max(n.backoff_until).max(after_medium) + n.jitter)
    }

    fn medium_busy_until(&self) -> Option<SimTime> {
        self.current.as_ref().map(|t| t.end)
    }

    /// Time of the next MAC event (a transmission completing or a station
    /// starting to transmit), or `None` if the bus is idle.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let mut t = self.medium_busy_until();
        for i in 0..self.nics.len() {
            if let Some(s) = self.effective_start(i) {
                // A deferring station cannot start before an in-flight
                // transmission ends; effective_start already ensures this.
                t = Some(t.map_or(s, |cur| cur.min(s)));
            }
        }
        t
    }

    /// Process exactly one MAC event, appending any delivered frame to
    /// `out`. Returns the event time, or `None` if the bus is idle.
    pub fn advance(&mut self, out: &mut Vec<Delivery>) -> Option<SimTime> {
        let tx_end = self.medium_busy_until();
        let mut starters = std::mem::take(&mut self.starters);
        starters.clear();
        let mut t_start = SimTime::MAX;
        for i in 0..self.nics.len() {
            if let Some(s) = self.effective_start(i) {
                match s.cmp(&t_start) {
                    std::cmp::Ordering::Less => {
                        t_start = s;
                        starters.clear();
                        starters.push(i);
                    }
                    std::cmp::Ordering::Equal => starters.push(i),
                    std::cmp::Ordering::Greater => {}
                }
            }
        }

        // Stations starting within the collision window of the earliest
        // starter cannot sense its carrier yet and join the collision.
        if !starters.is_empty() {
            let horizon = t_start + self.cfg.collision_window;
            for i in 0..self.nics.len() {
                if starters.contains(&i) {
                    continue;
                }
                if let Some(s) = self.effective_start(i) {
                    if s <= horizon {
                        starters.push(i);
                    }
                }
            }
            starters.sort_unstable();
        }

        let complete_first = match (tx_end, starters.is_empty()) {
            (None, true) => {
                self.starters = starters;
                return None;
            }
            (None, false) => false,
            (Some(_), true) => true,
            (Some(end), false) => end <= t_start,
        };

        let result = if complete_first {
            // Current transmission completes and the frame is delivered.
            // `complete_first` implies an in-flight transmission, so the
            // take cannot fail; degrade to idle rather than abort if it
            // ever did.
            self.current.take().map(|tx| {
                let end = tx.end;
                self.free_at = end;
                self.reroll_all_jitters();
                self.stats.frames_delivered += 1;
                self.stats.bytes_delivered += u64::from(tx.frame.wire_len());
                if let Some(series) = &mut self.sampling {
                    let w = series.window_at(end);
                    w.bytes += u64::from(tx.frame.wire_len());
                    w.frames += 1;
                    w.busy_ns += tx.meta.tx_ns;
                    w.wait_ns += tx.meta.queue_ns;
                    w.backoff_ns += tx.meta.backoff_ns;
                }
                if self.cfg.drop_prob > 0.0 && self.rng.chance(self.cfg.drop_prob) {
                    self.errors.push((end, tx.frame, TxError::Corrupted));
                } else {
                    out.push(Delivery {
                        time: end,
                        frame: tx.frame,
                        meta: tx.meta,
                    });
                }
                end
            })
        } else {
            // One or more stations begin transmitting at t_start.
            if starters.len() == 1 {
                let i = starters[0];
                // Starters always hold their head frame; the if-let keeps
                // the hot path free of panicking unwraps.
                if let Some((frame, enq)) = self.nics[i].queue.pop_front() {
                    let end = t_start + frame.tx_time(self.cfg.bandwidth_bps);
                    let backoff_ns = self.nics[i].backoff_acc;
                    let waited = t_start.saturating_sub(enq).as_nanos();
                    let meta = FrameMeta {
                        queue_ns: waited.saturating_sub(backoff_ns),
                        backoff_ns,
                        tx_ns: (end - t_start).as_nanos(),
                        attempts: self.nics[i].attempts,
                        trunk: 0,
                    };
                    self.nics[i].attempts = 0;
                    self.nics[i].backoff_until = SimTime::ZERO;
                    self.nics[i].backoff_acc = 0;
                    self.stats.busy_ns += (end - t_start).as_nanos();
                    self.current = Some(CurrentTx {
                        nic: i,
                        frame,
                        end,
                        meta,
                    });
                    self.free_at = end;
                }
            } else {
                // Collision: jam, then each collider backs off.
                self.stats.collisions += 1;
                if let Some(series) = &mut self.sampling {
                    series.window_at(t_start).collisions += 1;
                }
                let jam_end = t_start + self.cfg.collision_window + self.cfg.jam;
                self.free_at = jam_end;
                self.stats.busy_ns += (self.cfg.jam + self.cfg.collision_window).as_nanos();
                for &i in &starters {
                    let n = &mut self.nics[i];
                    n.attempts += 1;
                    if n.attempts > self.cfg.attempt_limit {
                        n.attempts = 0;
                        n.backoff_until = SimTime::ZERO;
                        n.backoff_acc = 0;
                        if let Some((frame, _)) = n.queue.pop_front() {
                            self.stats.frames_dropped += 1;
                            self.errors
                                .push((jam_end, frame, TxError::ExcessiveCollisions));
                        }
                    } else {
                        let exp = n.attempts.min(self.cfg.max_backoff_exp);
                        let k = self.rng.below(1u64 << exp);
                        n.backoff_until = jam_end + SimTime(self.cfg.slot.as_nanos() * k);
                        n.backoff_acc += self.cfg.slot.as_nanos() * k;
                        self.stats.backoffs += 1;
                    }
                }
                self.reroll_all_jitters();
            }
            Some(t_start)
        };
        self.starters = starters;
        result
    }

    /// Drain every pending MAC event, returning all deliveries. Useful in
    /// tests; the protocol layer instead interleaves `advance` with its own
    /// timers.
    pub fn run_to_idle(&mut self) -> Vec<Delivery> {
        let mut out = Vec::new();
        while self.advance(&mut out).is_some() {}
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameKind, HostId};

    fn bus(n: usize) -> EtherBus {
        let mut b = EtherBus::new(EtherConfig::default(), SimRng::new(1));
        for _ in 0..n {
            b.attach();
        }
        b
    }

    fn data(src: u32, dst: u32, payload: u32, token: u64) -> Frame {
        Frame::tcp(HostId(src), HostId(dst), FrameKind::Data, payload, token)
    }

    /// A bus with deterministic (zero) deference jitter for exact-timing
    /// assertions.
    fn exact_bus(n: usize) -> EtherBus {
        let cfg = EtherConfig {
            defer_jitter: SimTime::ZERO,
            ..EtherConfig::default()
        };
        let mut b = EtherBus::new(cfg, SimRng::new(1));
        for _ in 0..n {
            b.attach();
        }
        b
    }

    #[test]
    fn single_frame_delivery_time() {
        let mut b = exact_bus(2);
        b.enqueue(NicId(0), data(0, 1, 1460, 1), SimTime::ZERO);
        let out = b.run_to_idle();
        assert_eq!(out.len(), 1);
        // Starts after the initial IFG, occupies 1.2208 ms.
        assert_eq!(
            out[0].time,
            SimTime::from_nanos(9_600) + SimTime::from_nanos(1_220_800)
        );
        assert_eq!(out[0].frame.token, 1);
        assert!(b.idle());
    }

    #[test]
    fn back_to_back_frames_respect_ifg() {
        let mut b = exact_bus(2);
        b.enqueue(NicId(0), data(0, 1, 0, 1), SimTime::ZERO);
        b.enqueue(NicId(0), data(0, 1, 0, 2), SimTime::ZERO);
        let out = b.run_to_idle();
        assert_eq!(out.len(), 2);
        let gap = out[1].time - out[0].time;
        // Second frame begins one IFG after the first ends.
        assert_eq!(
            gap,
            SimTime::from_nanos(9_600) + data(0, 1, 0, 0).tx_time(10_000_000)
        );
    }

    #[test]
    fn deferring_station_waits_for_medium() {
        let mut b = bus(3);
        b.enqueue(NicId(0), data(0, 2, 1000, 1), SimTime::ZERO);
        let mut out = Vec::new();
        // Start NIC0's transmission.
        b.advance(&mut out);
        assert!(out.is_empty());
        // NIC1 becomes ready mid-transmission; it must defer.
        b.enqueue(NicId(1), data(1, 2, 0, 2), SimTime::from_micros(100));
        let all = b.run_to_idle();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].frame.token, 1);
        assert_eq!(all[1].frame.token, 2);
        assert!(all[1].time > all[0].time);
    }

    #[test]
    fn simultaneous_starters_collide_then_resolve() {
        // Zero jitter forces an exact tie → guaranteed collision.
        let mut b = exact_bus(3);
        // Both ready at t=0 → both attempt at IFG → collision.
        b.enqueue(NicId(0), data(0, 2, 100, 1), SimTime::ZERO);
        b.enqueue(NicId(1), data(1, 2, 100, 2), SimTime::ZERO);
        let out = b.run_to_idle();
        assert_eq!(out.len(), 2, "both frames eventually delivered");
        assert!(b.stats().collisions >= 1);
        assert_eq!(b.stats().frames_dropped, 0);
    }

    #[test]
    fn aggregate_bandwidth_capped_at_line_rate() {
        // Saturate the bus from two stations and check goodput ≲ 1.25 MB/s.
        let mut b = bus(3);
        let nframes = 200u64;
        for i in 0..nframes {
            b.enqueue(
                NicId((i % 2) as u32),
                data((i % 2) as u32, 2, 1460, i),
                SimTime::ZERO,
            );
        }
        let out = b.run_to_idle();
        assert_eq!(out.len() as u64, nframes);
        let span = out.last().unwrap().time.as_secs_f64();
        let bytes: u64 = out.iter().map(|d| u64::from(d.frame.wire_len())).sum();
        let rate = bytes as f64 / span;
        assert!(rate < 1_250_000.0, "rate {rate} exceeds line rate");
        assert!(
            rate > 1_000_000.0,
            "rate {rate} suspiciously low for saturation"
        );
    }

    #[test]
    fn excessive_collisions_drop_frame() {
        // With attempt_limit 0 any collision drops both frames.
        let cfg = EtherConfig {
            attempt_limit: 0,
            defer_jitter: SimTime::ZERO,
            ..EtherConfig::default()
        };
        let mut b = EtherBus::new(cfg, SimRng::new(3));
        for _ in 0..2 {
            b.attach();
        }
        b.enqueue(NicId(0), data(0, 1, 10, 1), SimTime::ZERO);
        b.enqueue(NicId(1), data(1, 0, 10, 2), SimTime::ZERO);
        let out = b.run_to_idle();
        assert!(out.is_empty());
        assert_eq!(b.stats().frames_dropped, 2);
        assert_eq!(b.errors().len(), 2);
        assert!(matches!(b.errors()[0].2, TxError::ExcessiveCollisions));
    }

    #[test]
    fn lossy_bus_corrupts_some_frames() {
        let cfg = EtherConfig {
            drop_prob: 0.5,
            ..EtherConfig::default()
        };
        let mut b = EtherBus::new(cfg, SimRng::new(5));
        for _ in 0..2 {
            b.attach();
        }
        for i in 0..100 {
            b.enqueue(NicId(0), data(0, 1, 10, i), SimTime::ZERO);
        }
        let out = b.run_to_idle();
        let corrupted = b
            .errors()
            .iter()
            .filter(|e| matches!(e.2, TxError::Corrupted))
            .count();
        assert_eq!(out.len() + corrupted, 100);
        assert!(corrupted > 20 && corrupted < 80, "corrupted {corrupted}");
    }

    #[test]
    fn jitter_bounds_delivery_time() {
        // With default jitter the first frame starts within
        // [IFG, IFG + defer_jitter).
        let mut b = bus(2);
        b.enqueue(NicId(0), data(0, 1, 0, 1), SimTime::ZERO);
        let out = b.run_to_idle();
        let t = out[0].time;
        let min = SimTime::from_nanos(9_600) + data(0, 1, 0, 0).tx_time(10_000_000);
        assert!(t >= min, "{t} < {min}");
        assert!(t < min + SimTime::from_nanos(48_000));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut b = EtherBus::new(EtherConfig::default(), SimRng::new(seed));
            for _ in 0..4 {
                b.attach();
            }
            for i in 0..50u64 {
                b.enqueue(
                    NicId((i % 3) as u32),
                    data((i % 3) as u32, 3, (i * 37 % 1400) as u32, i),
                    SimTime::from_micros(i * 3),
                );
            }
            b.run_to_idle()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn link_sampling_does_not_perturb_and_conserves_bytes() {
        let run = |sample: bool| {
            let mut b = bus(4);
            if sample {
                b.set_link_sampling(true);
            }
            for i in 0..40u64 {
                b.enqueue(
                    NicId((i % 3) as u32),
                    data((i % 3) as u32, 3, 700, i),
                    SimTime::from_micros(i * 11),
                );
            }
            let out = b.run_to_idle();
            let series = b.take_link_series();
            (out, b.stats(), series)
        };
        let (plain, _, none) = run(false);
        let (sampled, stats, series) = run(true);
        assert!(none.is_none());
        assert_eq!(plain, sampled, "sampling must not perturb the deliveries");
        let s = series.expect("sampling enabled");
        let total = s.total();
        assert_eq!(total.bytes, stats.bytes_delivered);
        assert_eq!(total.frames, stats.frames_delivered);
        assert_eq!(total.collisions, stats.collisions);
        assert!(total.depth_max >= 1);
        assert!(s.len() >= 2, "windows spread over the run");
    }

    #[test]
    fn busy_time_less_than_span() {
        let mut b = bus(2);
        for i in 0..20 {
            b.enqueue(NicId(0), data(0, 1, 1000, i), SimTime::ZERO);
        }
        let out = b.run_to_idle();
        let span = out.last().unwrap().time.as_nanos();
        assert!(b.stats().busy_ns <= span);
        assert!(b.stats().busy_ns > 0);
    }
}
