//! Time-ordered event queues: one heap and one lane merge.
//!
//! [`EventQueue`] and [`KeyedQueue`] are the same `BinaryHeap` under two
//! key disciplines; [`LaneQueue`] is a k-way merge of sorted runs. Which
//! serves what:
//!
//! * [`EventQueue`] — TCP timers (`fxnet-proto`), and nothing else. The
//!   key is `(time, push sequence)`, so events scheduled for the same
//!   instant pop in FIFO (push) order. Delayed-ACK and retransmit timers
//!   sit 200 ms and 1 s out, with tens to a few hundred pending at once:
//!   the traffic a plain heap is good at. Until PR 23 this type was a
//!   calendar queue (a 2.1 ms ring of 1 µs buckets plus an overflow
//!   heap), sized for the MAC-scale events that have since moved to the
//!   fabrics; every timer push landed beyond its horizon. Two
//!   measurements disagreed about it. `benchmark/`'s hold model (1024
//!   pending, MAC-scale offsets) read about 52 M ops/s for the calendar
//!   against 26 M for this heap; replaying 2DFFT + T2DFFT's TCP traffic
//!   through a bare `Network` (`proto.replay_s`) took about 0.34 s on
//!   the calendar against 0.25 s on the heap. The program is the one
//!   that counts, so the heap is the queue.
//! * [`LaneQueue`] — the compiled fabric (`fxnet-topo`'s
//!   `CompositeFabric`, and through it every `fxnet-shard` shard): its
//!   only event list. Every event the fabric schedules is the
//!   completion of a transmission on one simplex link, and a link
//!   serialises one frame at a time, so each link's events are pushed
//!   in strictly increasing key order. The pending set is therefore a
//!   k-way merge of sorted runs: one FIFO ring per link (*lane*) and a
//!   small heap holding only each non-empty lane's head key.
//! * [`KeyedQueue`] — oracle for [`LaneQueue`]: the heap keyed by an
//!   explicit [`EventKey`], so pop order is a pure function of the
//!   pushed keys. The proptest below and `tests/integration_shard.rs`
//!   hold the lanes to its pop order; nothing in `src/` runs on it.
//!
//! Deterministic tie-breaking is essential: the whole simulator must be
//! a pure function of its seed, and heap order alone is not stable.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

/// One pending event of a heap-backed queue, ordered by `key` alone and
/// inverted: `BinaryHeap` is a max-heap and the queues pop the least key.
struct Pending<K, E> {
    key: K,
    event: E,
}

impl<K: Ord, E> PartialEq for Pending<K, E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<K: Ord, E> Eq for Pending<K, E> {}
impl<K: Ord, E> PartialOrd for Pending<K, E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, E> Ord for Pending<K, E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// Earliest-first event queue with stable FIFO order at equal times: a
/// heap keyed by `(time, push sequence)`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Pending<(SimTime, u64), E>>,
    next_seq: u64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Schedule `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let key = (time, self.next_seq);
        self.next_seq += 1;
        self.heap.push(Pending { key, event });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.key.0)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.key.0, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of events ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// Explicit, history-independent total order for fabric events.
///
/// The plain [`EventQueue`] breaks equal-time ties by *push order*, which
/// is deterministic for a single sequential driver but depends on the
/// global interleaving of pushes — exactly the thing a sharded simulation
/// cannot cheaply reproduce. `EventKey` replaces insertion order with an
/// explicit composite key derived only from the frame's own history:
///
/// * `time` — the scheduled instant;
/// * `class` — 0 for calendar (scheduled store-and-forward) events,
///   1 for shared-medium (bus) events, preserving the fabric's
///   "calendar first, then segments" tie rule;
/// * `major` — the frame's fabric-entry stamp (calendar) or the global
///   node index of the segment (bus);
/// * `minor` — the frame's per-hop counter (calendar) so one frame's
///   successive events stay unique, or an intra-event emission index.
///
/// Two fabrics that process the same offered load therefore agree on the
/// event order *by construction*, regardless of how many shards the work
/// is split across.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Scheduled instant.
    pub time: SimTime,
    /// 0 = calendar event, 1 = bus event; calendar wins ties.
    pub class: u8,
    /// Fabric-entry stamp (calendar) or global node index (bus).
    pub major: u64,
    /// Per-transit hop counter (calendar) or emission index (bus).
    pub minor: u64,
}

impl EventKey {
    /// Key for a scheduled (calendar) event of the transit identified by
    /// its fabric-entry `stamp`, at its `hop`-th scheduled event.
    pub fn calendar(time: SimTime, stamp: u64, hop: u64) -> EventKey {
        EventKey {
            time,
            class: 0,
            major: stamp,
            minor: hop,
        }
    }

    /// Key for the head event of the shared-medium bus at global node
    /// index `node`.
    pub fn bus(time: SimTime, node: u64) -> EventKey {
        EventKey {
            time,
            class: 1,
            major: node,
            minor: 0,
        }
    }
}

/// An event queue ordered by explicit [`EventKey`] rather than insertion
/// order — the shard-safe counterpart of [`EventQueue`]. Pop order is a
/// pure function of the pushed keys, so any partitioning of the pushes
/// across shards that merges by key reproduces the sequential order.
/// One heap of every pending entry: the reference [`LaneQueue`] is
/// tested against.
pub struct KeyedQueue<E> {
    heap: BinaryHeap<Pending<EventKey, E>>,
    high_water: usize,
}

impl<E> Default for KeyedQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> KeyedQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        KeyedQueue {
            heap: BinaryHeap::new(),
            high_water: 0,
        }
    }

    /// Schedule `event` under `key`. Keys must be unique per queue — the
    /// fabric guarantees this via the (stamp, hop) pair.
    pub fn push(&mut self, key: EventKey, event: E) {
        self.heap.push(Pending { key, event });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Key of the earliest pending event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|e| e.key)
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.key.time)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        self.heap.pop().map(|e| (e.key, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Largest number of events ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// An [`EventKey`]-ordered queue for events that arrive as a fixed
/// number of sorted runs (*lanes*): a FIFO ring per lane, and a heap of
/// `(head key, lane)` with at most one entry per non-empty lane. Pop
/// order is that of a [`KeyedQueue`] given the same pushes, but the heap
/// that a pop sifts is as deep as the lane count, not the pending count.
pub struct LaneQueue<E> {
    lanes: Vec<VecDeque<(EventKey, E)>>,
    /// The head key of every non-empty lane.
    heads: BinaryHeap<Reverse<(EventKey, usize)>>,
    len: usize,
    high_water: usize,
}

impl<E> LaneQueue<E> {
    /// An empty queue of `lanes` lanes.
    pub fn new(lanes: usize) -> Self {
        LaneQueue {
            lanes: (0..lanes).map(|_| VecDeque::new()).collect(),
            heads: BinaryHeap::with_capacity(lanes),
            len: 0,
            high_water: 0,
        }
    }

    /// Schedule `event` under `key` on `lane`.
    ///
    /// # Panics
    /// If `key` does not exceed the key last pushed on `lane` while that
    /// push is still pending: the merge is only correct over sorted
    /// lanes, so an out-of-order push is a bug in the caller.
    pub fn push(&mut self, lane: usize, key: EventKey, event: E) {
        let ring = &mut self.lanes[lane];
        match ring.back() {
            Some(&(tail, _)) => assert!(
                key > tail,
                "lane {lane}: pushed {key:?} behind its tail {tail:?}"
            ),
            None => self.heads.push(Reverse((key, lane))),
        }
        ring.push_back((key, event));
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Key of the earliest pending event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heads.peek().map(|&Reverse((key, _))| key)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let mut head = self.heads.peek_mut()?;
        let Reverse((head_key, lane)) = &mut *head;
        let ring = &mut self.lanes[*lane];
        let popped = ring.pop_front().expect("a lane in the heap is non-empty");
        // Re-key the lane's slot in place: one sift instead of a pop and
        // a push.
        match ring.front() {
            Some(&(next, _)) => *head_key = next,
            None => {
                PeekMut::pop(head);
            }
        }
        self.len -= 1;
        Some(popped)
    }

    /// Number of pending events, across all lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of events ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), "c");
        q.push(SimTime::from_millis(1), "a");
        q.push(SimTime::from_millis(3), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_at_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(2);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(9), ());
        q.push(SimTime::from_micros(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(4)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(4));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn far_future_timers_interleave_with_near_events() {
        // RTO- and delayed-ACK-scale events next to a microsecond one.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1000), "rto");
        q.push(SimTime::from_micros(3), "mac");
        q.push(SimTime::from_millis(200), "delack");
        assert_eq!(q.pop().unwrap().1, "mac");
        assert_eq!(q.pop().unwrap().1, "delack");
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1000)));
        assert_eq!(q.pop().unwrap().1, "rto");
        assert!(q.is_empty());
    }

    #[test]
    fn push_earlier_than_the_last_pop_still_orders_correctly() {
        // Pop past t=0, then push an "old" timestamp: it must pop
        // before everything later-scheduled that remains.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), "later");
        q.push(SimTime::from_millis(1), "first");
        assert_eq!(q.pop().unwrap().1, "first");
        q.push(SimTime::from_micros(10), "past");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn high_water_counts_near_and_far_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(1), 0);
        q.push(SimTime::from_secs(5), 1);
        q.push(SimTime::from_secs(9), 2);
        assert_eq!(q.high_water(), 3);
        while q.pop().is_some() {}
        assert_eq!(q.high_water(), 3);
        assert_eq!(q.len(), 0);
    }

    proptest! {
        #[test]
        fn pop_order_is_nondecreasing(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_nanos(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        #[test]
        fn equal_time_events_preserve_insertion_order(n in 1usize..100) {
            let mut q = EventQueue::new();
            let t = SimTime::from_secs(1);
            for i in 0..n {
                q.push(t, i);
            }
            let mut prev = None;
            while let Some((_, i)) = q.pop() {
                if let Some(p) = prev {
                    prop_assert!(i > p);
                }
                prev = Some(i);
            }
        }

        /// Pop order against an independent oracle: the pending
        /// `(time, push index)` pairs kept in push order and stably
        /// sorted by time alone, so ties stay in push order with no
        /// sequence number and no heap involved. Pushes (same-instant
        /// ties, microseconds, timer distances, and instants earlier
        /// than the last pop) interleave with pops — same `peek_time`,
        /// same pop, same `len` at every step, same `high_water`.
        #[test]
        fn pop_order_matches_a_stable_sort(
            ops in prop::collection::vec(
                // (push-vs-pop selector, time-offset class, raw offset)
                (0u8..100, 0u8..4, 0u64..4_000),
                1..300,
            )
        ) {
            let mut q = EventQueue::new();
            let mut pending: Vec<(SimTime, usize)> = Vec::new();
            let mut high_water = 0;
            let mut clock = 0u64; // time of the last pop
            for (id, (sel, class, raw)) in ops.into_iter().enumerate() {
                if sel < 65 {
                    let t = match class {
                        0 => clock + raw % 8,
                        1 => clock + raw * 500,                // ≤ 2 ms
                        2 => clock + 10_000_000 + raw * 1_000, // ≥ 10 ms out
                        _ => clock.saturating_sub(raw * 500),  // before the last pop
                    };
                    q.push(SimTime::from_nanos(t), id);
                    pending.push((SimTime::from_nanos(t), id));
                    high_water = high_water.max(pending.len());
                } else {
                    pending.sort_by_key(|&(t, _)| t);
                    prop_assert_eq!(q.peek_time(), pending.first().map(|&(t, _)| t));
                    let want = (!pending.is_empty()).then(|| pending.remove(0));
                    prop_assert_eq!(q.pop(), want);
                    if let Some((t, _)) = want {
                        clock = t.as_nanos();
                    }
                }
                prop_assert_eq!(q.len(), pending.len());
                prop_assert_eq!(q.is_empty(), pending.is_empty());
            }
            prop_assert_eq!(q.high_water(), high_water);
            pending.sort_by_key(|&(t, _)| t);
            for want in pending {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert!(q.is_empty() && q.pop().is_none());
        }

        /// Merge-by-key is partition-independent: splitting a set of
        /// keyed events across any number of queues and merging by
        /// `peek_key` reproduces the single-queue pop order exactly.
        #[test]
        fn keyed_merge_is_partition_independent(
            events in prop::collection::vec(
                // Last field packs (minor sub-key, home-shard selector).
                (0u64..1_000, 0u8..2, 0u64..16, 0u64..16),
                1..150,
            )
        ) {
            // Deduplicate keys: the fabric guarantees uniqueness.
            let mut seen = std::collections::HashSet::new();
            let events: Vec<_> = events
                .into_iter()
                .filter(|&(t, class, major, packed)| {
                    seen.insert((t, class, major, packed % 4))
                })
                .collect();
            let key_of = |&(t, class, major, packed): &(u64, u8, u64, u64)| EventKey {
                time: SimTime::from_nanos(t),
                class,
                major,
                minor: packed % 4,
            };
            let mut single = KeyedQueue::new();
            for (i, e) in events.iter().enumerate() {
                single.push(key_of(e), i);
            }
            for shards in [1usize, 2, 4] {
                let mut qs: Vec<KeyedQueue<usize>> =
                    (0..shards).map(|_| KeyedQueue::new()).collect();
                for (i, e) in events.iter().enumerate() {
                    qs[(e.3 / 4) as usize % shards].push(key_of(e), i);
                }
                let mut merged = Vec::new();
                loop {
                    let best = (0..shards)
                        .filter_map(|s| qs[s].peek_key().map(|k| (k, s)))
                        .min();
                    match best {
                        Some((_, s)) => merged.push(qs[s].pop().unwrap()),
                        None => break,
                    }
                }
                let mut reference = KeyedQueue::new();
                for (i, e) in events.iter().enumerate() {
                    reference.push(key_of(e), i);
                }
                let mut expect = Vec::new();
                while let Some(x) = reference.pop() {
                    expect.push(x);
                }
                prop_assert_eq!(&merged, &expect, "shards={}", shards);
            }
        }

        /// The lanes against the heap they replaced: any number of
        /// lanes, keys strictly increasing within a lane and tying
        /// across lanes on time, on time and class, and on time, class
        /// and major, pushes and pops interleaved — same `peek_key`,
        /// same pop, same `len` at every step.
        #[test]
        fn lane_queue_matches_keyed_queue(
            lanes in 1usize..9,
            ops in prop::collection::vec(
                // (push-vs-pop selector, lane selector, time step, sub-keys)
                (0u8..100, 0usize..64, 0u64..3, 0u64..32),
                1..400,
            )
        ) {
            // `minor % MAX_LANES` names the lane, so keys stay unique
            // across lanes, as the fabric's (stamp, hop) pairs are.
            const MAX_LANES: u64 = 8;
            let mut laned = LaneQueue::new(lanes);
            let mut heap = KeyedQueue::new();
            let mut tails: Vec<Option<EventKey>> = vec![None; lanes];
            for (id, (sel, lane, dt, sub)) in ops.into_iter().enumerate() {
                if sel < 60 {
                    let lane = lane % lanes;
                    let tail = tails[lane];
                    let time = tail.map_or(0, |k| k.time.as_nanos()) + dt;
                    let mut key = EventKey {
                        time: SimTime::from_nanos(time),
                        class: (sub % 2) as u8,
                        major: sub / 2 % 4,
                        minor: sub / 8 * MAX_LANES + lane as u64,
                    };
                    if let Some(tail) = tail.filter(|&tail| key <= tail) {
                        key = EventKey { minor: tail.minor + MAX_LANES, ..tail };
                    }
                    tails[lane] = Some(key);
                    laned.push(lane, key, id);
                    heap.push(key, id);
                } else {
                    prop_assert_eq!(laned.peek_key(), heap.peek_key());
                    prop_assert_eq!(laned.pop(), heap.pop());
                }
                prop_assert_eq!(laned.len(), heap.len());
                prop_assert_eq!(laned.is_empty(), heap.is_empty());
            }
            prop_assert_eq!(laned.high_water(), heap.high_water());
            while let Some(want) = heap.pop() {
                prop_assert_eq!(laned.peek_key(), Some(want.0));
                prop_assert_eq!(laned.pop(), Some(want));
            }
            prop_assert!(laned.is_empty() && laned.pop().is_none());
        }
    }

    #[test]
    fn event_key_orders_time_then_class_then_subkeys() {
        let t = SimTime::from_micros(5);
        let cal = EventKey::calendar(t, 9, 0);
        let bus = EventKey::bus(t, 0);
        assert!(cal < bus, "calendar wins equal-time ties");
        assert!(EventKey::calendar(t, 1, 3) < EventKey::calendar(t, 2, 0));
        assert!(EventKey::calendar(t, 1, 0) < EventKey::calendar(t, 1, 1));
        assert!(EventKey::bus(t, 0) < EventKey::bus(t, 3));
        assert!(EventKey::bus(SimTime::from_micros(4), 7) < cal);
    }

    #[test]
    fn keyed_queue_pops_by_key() {
        let mut q = KeyedQueue::new();
        let t = SimTime::from_micros(1);
        q.push(EventKey::bus(t, 2), "bus2");
        q.push(EventKey::calendar(t, 5, 1), "cal5");
        q.push(EventKey::calendar(SimTime::ZERO, 9, 0), "early");
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "cal5");
        assert_eq!(q.pop().unwrap().1, "bus2");
        assert!(q.pop().is_none());
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn lane_queue_merges_lanes_and_reuses_a_drained_lane() {
        let mut q = LaneQueue::new(3);
        let at = |us, stamp| EventKey::calendar(SimTime::from_micros(us), stamp, 0);
        q.push(0, at(4, 0), "a4");
        q.push(2, at(1, 1), "c1");
        q.push(0, at(9, 2), "a9");
        q.push(2, at(4, 3), "c4");
        assert_eq!((q.len(), q.high_water()), (4, 4));
        assert_eq!(q.peek_key(), Some(at(1, 1)));
        assert_eq!(q.pop().unwrap().1, "c1");
        // Equal times: the lower stamp first, whatever the lane.
        assert_eq!(q.pop().unwrap().1, "a4");
        assert_eq!(q.pop().unwrap().1, "c4");
        // Lane 2 is empty, so nothing pending constrains its next key.
        q.push(2, at(2, 4), "c2");
        assert_eq!(q.pop().unwrap().1, "c2");
        assert_eq!(q.pop().unwrap().1, "a9");
        assert!(q.is_empty() && q.pop().is_none() && q.peek_key().is_none());
        assert_eq!(q.high_water(), 4);
    }

    #[test]
    #[should_panic(expected = "behind its tail")]
    fn lane_queue_refuses_an_out_of_order_push() {
        let mut q = LaneQueue::new(2);
        q.push(1, EventKey::calendar(SimTime::from_micros(5), 0, 0), ());
        q.push(0, EventKey::calendar(SimTime::from_micros(3), 1, 0), ());
        q.push(1, EventKey::calendar(SimTime::from_micros(4), 2, 0), ());
    }
}
