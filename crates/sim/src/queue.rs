//! Time-ordered event queues.
//!
//! Three types, two orders. [`EventQueue`] pops earliest `(time, seq)`
//! first, so events scheduled for the same instant pop in FIFO (push)
//! order; [`LaneQueue`] and [`KeyedQueue`] pop by an explicit
//! [`EventKey`], so pop order is a pure function of the pushed keys.
//! Which serves what:
//!
//! * [`EventQueue`] — TCP timers (`fxnet-proto`), and nothing else. A
//!   calendar (bucket-ring) queue tuned to the simulator's nanosecond
//!   timebase. Events within a ~2 ms horizon land in a ring of 1 µs-wide
//!   buckets (push O(1), pop scans one sparse bucket); far-future events
//!   (TCP delayed-ACK and RTO timers live hundreds of milliseconds out)
//!   sit in a binary-heap overflow and are consulted on every pop so
//!   ordering is exact even when the horizon has advanced past an
//!   overflow entry's slot. The current minimum is cached so `peek_time`
//!   — called on every sequencer iteration — is a field read. Its
//!   oracle, a plain heap keyed by `(time, seq)`, lives in this module's
//!   tests: the equivalence proptest drives both with the same schedule
//!   and demands identical pop order.
//! * [`LaneQueue`] — the compiled fabric (`fxnet-topo`'s
//!   `CompositeFabric`, and through it every `fxnet-shard` shard): its
//!   only event list. Every event the fabric schedules is the
//!   completion of a transmission on one simplex link, and a link
//!   serialises one frame at a time, so each link's events are pushed
//!   in strictly increasing key order. The pending set is therefore a
//!   k-way merge of sorted runs: one FIFO ring per link (*lane*) and a
//!   small heap holding only each non-empty lane's head key.
//! * [`KeyedQueue`] — oracle for [`LaneQueue`]: one `BinaryHeap` of
//!   every pending `(EventKey, event)`. The proptest below and
//!   `tests/integration_shard.rs` hold the lanes to its pop order;
//!   nothing in `src/` runs on it.
//!
//! Deterministic tie-breaking is essential: the whole simulator must be
//! a pure function of its seed, and heap or bucket order alone is not
//! stable.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// log2 of the bucket width in nanoseconds: 2^10 ns ≈ 1 µs. One 10 Mb/s
/// bit time is 100 ns, a minimum frame 57.6 µs, a maximum frame 1.2 ms —
/// so MAC- and segment-scale events spread across many buckets while a
/// full frame transmission still fits inside the ring horizon.
const BUCKET_SHIFT: u32 = 10;
/// Ring size (power of two). Horizon = 2048 × 1 µs ≈ 2.1 ms.
const NUM_BUCKETS: usize = 2048;

/// Where the cached minimum entry currently lives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MinLoc {
    Ring(usize),
    Overflow,
}

#[derive(Clone, Copy)]
struct CachedMin {
    time: SimTime,
    seq: u64,
    loc: MinLoc,
}

/// Earliest-first event queue with stable FIFO order at equal times —
/// the calendar-queue implementation (see the module docs for the
/// design).
pub struct EventQueue<E> {
    /// Ring of buckets; bucket `i` holds events whose tick maps to `i`.
    buckets: Vec<Vec<Entry<E>>>,
    /// Tick (`time >> BUCKET_SHIFT`) of the cursor bucket.
    base_tick: u64,
    /// Ring index of the bucket holding tick `base_tick`.
    cursor: usize,
    /// Events pending in the ring.
    ring_len: usize,
    /// Far-future events (tick ≥ base_tick + NUM_BUCKETS at push time).
    overflow: BinaryHeap<Entry<E>>,
    /// Cached minimum of the whole queue; `None` only when empty.
    min: Option<CachedMin>,
    next_seq: u64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

fn tick_of(t: SimTime) -> u64 {
    t.as_nanos() >> BUCKET_SHIFT
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, Vec::new);
        EventQueue {
            buckets,
            base_tick: 0,
            cursor: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            min: None,
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Schedule `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Clamp ticks before the cursor into the cursor bucket: every
        // earlier bucket is empty by invariant, the per-bucket min scan
        // orders by (time, seq), so a "late" push still pops in exact
        // global order relative to everything still pending.
        let tick = tick_of(time).max(self.base_tick);
        let loc = if tick < self.base_tick + NUM_BUCKETS as u64 {
            let b = (tick % NUM_BUCKETS as u64) as usize;
            self.buckets[b].push(Entry { time, seq, event });
            self.ring_len += 1;
            MinLoc::Ring(b)
        } else {
            self.overflow.push(Entry { time, seq, event });
            MinLoc::Overflow
        };
        match self.min {
            Some(m) if (m.time, m.seq) <= (time, seq) => {}
            _ => self.min = Some(CachedMin { time, seq, loc }),
        }
        self.high_water = self.high_water.max(self.len());
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.min.map(|m| m.time)
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let m = self.min.take()?;
        let out = match m.loc {
            MinLoc::Ring(b) => {
                let bucket = &mut self.buckets[b];
                let i = bucket
                    .iter()
                    .position(|e| e.seq == m.seq)
                    .expect("cached min present in its bucket");
                let e = bucket.swap_remove(i);
                self.ring_len -= 1;
                (e.time, e.event)
            }
            MinLoc::Overflow => {
                let e = self.overflow.pop().expect("cached min in overflow");
                (e.time, e.event)
            }
        };
        self.recompute_min();
        Some(out)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest number of events ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Rebuild the cached minimum after a pop: advance the cursor to the
    /// first non-empty bucket (rebasing the ring onto the overflow heap
    /// when the ring drains), min-scan that bucket, and compare against
    /// the overflow head — an overflow entry can precede ring entries
    /// once the horizon has advanced past its original slot.
    fn recompute_min(&mut self) {
        if self.ring_len == 0 {
            // Rebase: jump the ring to the overflow's earliest tick and
            // pull everything within the new horizon into buckets. Each
            // event migrates at most once, so the cost amortizes.
            if let Some(head) = self.overflow.peek() {
                self.base_tick = tick_of(head.time);
                self.cursor = (self.base_tick % NUM_BUCKETS as u64) as usize;
                let horizon = self.base_tick + NUM_BUCKETS as u64;
                while self
                    .overflow
                    .peek()
                    .is_some_and(|e| tick_of(e.time) < horizon)
                {
                    let e = self.overflow.pop().expect("peeked");
                    let b = (tick_of(e.time) % NUM_BUCKETS as u64) as usize;
                    self.buckets[b].push(e);
                    self.ring_len += 1;
                }
            } else {
                self.min = None;
                return;
            }
        }
        // Advance the cursor to the first non-empty bucket. Total cursor
        // movement per ring sweep is NUM_BUCKETS, amortized over pops.
        while self.buckets[self.cursor].is_empty() {
            self.cursor = (self.cursor + 1) % NUM_BUCKETS;
            self.base_tick += 1;
        }
        let bucket = &self.buckets[self.cursor];
        let mut best = (bucket[0].time, bucket[0].seq);
        for e in &bucket[1..] {
            if (e.time, e.seq) < best {
                best = (e.time, e.seq);
            }
        }
        let mut min = CachedMin {
            time: best.0,
            seq: best.1,
            loc: MinLoc::Ring(self.cursor),
        };
        if let Some(h) = self.overflow.peek() {
            if (h.time, h.seq) < (min.time, min.seq) {
                min = CachedMin {
                    time: h.time,
                    seq: h.seq,
                    loc: MinLoc::Overflow,
                };
            }
        }
        self.min = Some(min);
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

struct KeyedEntry<E> {
    key: EventKey,
    event: E,
}

impl<E> PartialEq for KeyedEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for KeyedEntry<E> {}
impl<E> PartialOrd for KeyedEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for KeyedEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap; invert for earliest-key-first.
        other.key.cmp(&self.key)
    }
}

/// An event queue ordered by explicit [`EventKey`] rather than insertion
/// order — the shard-safe counterpart of [`EventQueue`]. Pop order is a
/// pure function of the pushed keys, so any partitioning of the pushes
/// across shards that merges by key reproduces the sequential order.
/// One heap of every pending entry: the reference [`LaneQueue`] is
/// tested against.
pub struct KeyedQueue<E> {
    heap: BinaryHeap<KeyedEntry<E>>,
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
        self.heap.push(KeyedEntry { key, event });
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

    /// The original event queue, one heap keyed by `(time, seq)`: the
    /// reference [`EventQueue`] is held to in
    /// `calendar_matches_binary_heap`.
    struct BinaryHeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
    }

    impl<E> BinaryHeapQueue<E> {
        fn new() -> Self {
            BinaryHeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }
        }

        fn push(&mut self, time: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { time, seq, event });
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }

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
    fn far_future_timers_cross_the_horizon() {
        // RTO-scale events land in the overflow and must interleave
        // exactly with ring events as the cursor advances to them.
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
    fn push_before_cursor_still_orders_correctly() {
        // Advance the cursor past t=0, then push an "old" timestamp: it
        // must pop before everything later-scheduled that remains.
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), "later");
        q.push(SimTime::from_millis(1), "first");
        assert_eq!(q.pop().unwrap().1, "first");
        q.push(SimTime::from_micros(10), "past");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn high_water_counts_ring_and_overflow() {
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

        /// The tentpole equivalence property: an interleaved schedule of
        /// pushes (spanning sub-bucket ties, ring distances, and
        /// overflow-horizon distances) and pops drives the calendar
        /// queue and the reference heap identically — same pop order,
        /// same times, same lengths, including ties.
        #[test]
        fn calendar_matches_binary_heap(
            ops in prop::collection::vec(
                // (push-vs-pop selector, time-offset class, raw offset)
                (0u8..100, 0u8..3, 0u64..4_000),
                1..300,
            )
        ) {
            let mut cal = EventQueue::new();
            let mut heap = BinaryHeapQueue::new();
            let mut clock = 0u64; // monotone base, like the simulator's
            let mut id = 0usize;
            for (sel, class, raw) in ops {
                if sel < 65 {
                    // Class 0: same-bucket ties; 1: within the ring
                    // horizon; 2: far future (overflow).
                    let offset = match class {
                        0 => raw % 8,
                        1 => raw * 500,                // ≤ 2 ms
                        _ => 10_000_000 + raw * 1_000, // ≥ 10 ms out
                    };
                    let t = SimTime::from_nanos(clock + offset);
                    cal.push(t, id);
                    heap.push(t, id);
                    id += 1;
                } else {
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                    let a = cal.pop();
                    let b = heap.pop();
                    match (a, b) {
                        (Some((ta, ea)), Some((tb, eb))) => {
                            prop_assert_eq!(ta, tb);
                            prop_assert_eq!(ea, eb);
                            clock = clock.max(ta.as_nanos());
                        }
                        (None, None) => {}
                        other => prop_assert!(false, "diverged: {other:?}"),
                    }
                }
                prop_assert_eq!(cal.len(), heap.len());
            }
            // Drain both; the full remaining order must agree.
            while let (Some((ta, ea)), Some((tb, eb))) = (cal.pop(), heap.pop()) {
                prop_assert_eq!(ta, tb);
                prop_assert_eq!(ea, eb);
            }
            prop_assert!(cal.is_empty() && heap.is_empty());
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
