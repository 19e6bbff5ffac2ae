//! The engine's event queue: sorted lanes merged at their heads.
//!
//! Pending events live in **lanes**, FIFOs whose keys strictly increase,
//! plus one spill heap. A push joins the lane whose tail is the largest key
//! below its own (greedy best fit, as in patience sorting); a pop takes the
//! smaller of the least lane head and the spill heap's top. Each costs a
//! scan or a sift over at most `MAX_LANES` keys, however much is queued.
//!
//! The engine's traffic suits this. It pushes `now + delay` from a few
//! delay classes (a link latency, a timer period) and pops in key order, so
//! each class's pushes arrive sorted and one lane holds the class: on
//! `storm_100k` a 102 400-packet tie wave is one lane's run, not a heap's
//! worth of sifts (DESIGN.md §9, "What the queue holds"). With no pops in
//! between, best fit opens as many lanes as the pushed keys' longest
//! descending subsequence has keys. A push that fits none once `MAX_LANES`
//! are open spills to the heap: order stays exact for any keys, only the
//! cost changes.
//!
//! Storage follows what is live. A long lane chains `CHUNK`-entry chunks
//! from one pool, trimmed to `max(live, KEEP_FLOOR)` entries' worth. A
//! lane's only chunk grows by doubling; an emptied lane keeps it while
//! small, so a sparse lane refills without allocating. A drained spill heap
//! drops a buffer larger than the pool's bound.
//!
//! Every item carries an [`EventKey`] `(at, src, seq)`; pops are globally
//! ordered by that key. The key is execution-order-independent — `src`
//! identifies the event's source stream and `seq` is per-source — which is
//! what lets the sharded engine (see `engine/`) produce identical pop
//! orders regardless of how events were interleaved when pushed.
//!
//! The module is public for one outside caller, `benchmark/src/layers.rs`,
//! which prices `netsim.queue_ns_per_event` with it. That caller is why the
//! type keeps the name `CalendarQueue` and [`CalendarQueue::new`] the two
//! geometry arguments of the calendar queue it replaced, now ignored.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

/// Lanes a queue may open; a push that fits none of them spills.
const MAX_LANES: usize = 32;

/// Entries per full lane chunk. (16-entry chunks held the same entries but
/// read ≈ 20 MiB more peak RSS on `storm_100k`: more allocator holes.)
const CHUNK: usize = 256;

/// Capacity an emptied lane may keep in its only chunk.
const KEEP_SHORT: usize = 16;

/// Entries' worth of storage the pool (or a drained spill heap) may keep
/// however little is live; above it, never more than is live.
const KEEP_FLOOR: usize = 512;

/// Total order for events: time, then source stream, then per-source
/// sequence number. Keys are assigned so that the full set of (key, item)
/// pairs produced by a run is independent of execution interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Due time in nanoseconds.
    pub at: u64,
    /// Source stream id (the engine uses 0 for externally scheduled
    /// timers and `node_id + 1` for node-generated events).
    pub src: u32,
    /// Sequence number within the source stream.
    pub seq: u64,
}

/// A keyed item; ordered by key alone so payloads need no `Ord`, and
/// *reversed*, so the spill `BinaryHeap` (a max-heap) pops the smallest key.
struct Entry<T> {
    key: EventKey,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// An event queue of sorted lanes plus a spill heap (see the module docs).
pub struct CalendarQueue<T> {
    /// The last key pushed to each lane, kept after it empties: all a
    /// push's best-fit scan reads.
    tails: Vec<EventKey>,
    /// Each lane's chunks, oldest first, keys strictly increasing. A lane
    /// holds at least one chunk (perhaps unallocated), at most [`CHUNK`]
    /// entries in each, and is empty exactly when its first chunk is.
    lanes: Vec<VecDeque<VecDeque<Entry<T>>>>,
    /// `(head key, lane)` of every non-empty lane.
    heads: BinaryHeap<Reverse<(EventKey, usize)>>,
    /// Pushes that fit no lane once [`MAX_LANES`] are open.
    spill: BinaryHeap<Entry<T>>,
    /// Empty full-size chunks.
    pool: Vec<VecDeque<Entry<T>>>,
    len: usize,
}

impl<T> CalendarQueue<T> {
    /// Create an empty queue. Both arguments are ignored (see the module
    /// docs).
    pub fn new(_bucket_width_ns: u64, _buckets: usize) -> CalendarQueue<T> {
        CalendarQueue {
            tails: Vec::new(),
            lanes: Vec::new(),
            heads: BinaryHeap::new(),
            spill: BinaryHeap::new(),
            pool: Vec::new(),
            len: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queue `item` under `key`.
    pub fn push(&mut self, key: EventKey, item: T) {
        self.len += 1;
        let entry = Entry { key, item };
        let lane = match self.best_fit(key) {
            Some(lane) => lane,
            None => match self.lanes.iter().position(|l| l[0].is_empty()) {
                Some(lane) => lane,
                None if self.lanes.len() < MAX_LANES => {
                    self.lanes.push(VecDeque::from([VecDeque::new()]));
                    self.tails.push(key);
                    self.lanes.len() - 1
                }
                None => return self.spill.push(entry),
            },
        };
        let chunks = &mut self.lanes[lane];
        if chunks[0].is_empty() {
            self.heads.push(Reverse((key, lane)));
        }
        if chunks.back().is_some_and(|c| c.len() == CHUNK) {
            chunks.push_back(self.pool.pop().unwrap_or_else(|| VecDeque::with_capacity(CHUNK)));
        }
        chunks.back_mut().expect("a lane keeps a chunk").push_back(entry);
        self.tails[lane] = key;
    }

    /// The lane whose tail is the largest key below `key`, if any.
    fn best_fit(&self, key: EventKey) -> Option<usize> {
        let mut best: Option<(usize, EventKey)> = None;
        for (i, &tail) in self.tails.iter().enumerate() {
            if tail < key && best.is_none_or(|(_, b)| tail > b) {
                best = Some((i, tail));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The smallest key queued, if any.
    pub fn peek(&self) -> Option<EventKey> {
        let head = self.heads.peek().map(|Reverse((key, _))| *key);
        head.into_iter().chain(self.spill.peek().map(|e| e.key)).min()
    }

    /// Remove and return the smallest-keyed item.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        let head = self.heads.peek().map(|Reverse((key, _))| *key);
        let entry = match (head, self.spill.peek().map(|e| e.key)) {
            (None, None) => return None,
            (Some(head), spilled) if spilled.is_none_or(|s| head < s) => self.pop_lane(),
            _ => self.spill.pop().expect("peeked"),
        };
        self.len -= 1;
        let keep = self.len.max(KEEP_FLOOR);
        self.pool.truncate(keep / CHUNK);
        if self.spill.is_empty() && self.spill.capacity() > keep {
            self.spill = BinaryHeap::new();
        }
        Some((entry.key, entry.item))
    }

    /// Pop the least lane head, then re-key or retire its `heads` entry.
    fn pop_lane(&mut self) -> Entry<T> {
        let mut top = self.heads.peek_mut().expect("caller saw a lane head");
        let chunks = &mut self.lanes[top.0 .1];
        let entry = chunks[0].pop_front().expect("a listed lane is non-empty");
        // A drained chunk leaves its lane unless it is the lane's only one
        // and small; full-size ones go to the pool.
        if chunks[0].is_empty() {
            let drained = match chunks.len() {
                1 if chunks[0].capacity() > KEEP_SHORT => Some(mem::take(&mut chunks[0])),
                1 => None,
                _ => chunks.pop_front(),
            };
            self.pool.extend(drained.filter(|c| c.capacity() >= CHUNK));
        }
        match chunks[0].front() {
            Some(next) => top.0 .0 = next.key,
            None => drop(PeekMut::pop(top)),
        }
        entry
    }

    /// Capacity, in entries, of every buffer the queue keeps: lane chunks,
    /// the pool and the spill heap.
    #[cfg(test)]
    pub(crate) fn retained_capacity(&self) -> usize {
        let chunks = self.lanes.iter().flatten().chain(&self.pool);
        chunks.map(VecDeque::capacity).sum::<usize>() + self.spill.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, src: u32, seq: u64) -> EventKey {
        EventKey { at, src, seq }
    }

    /// `(lanes open, lanes empty, entries spilled)` of `q`.
    fn shape<T>(q: &CalendarQueue<T>) -> (usize, usize, usize) {
        let empty = q.lanes.iter().filter(|l| l[0].is_empty()).count();
        (q.lanes.len(), empty, q.spill.len())
    }

    #[test]
    fn pops_in_key_order_across_buckets_and_overflow() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new(64, 8);
        // Same time, different src/seq; near future; far future.
        let keys = [
            key(10, 2, 0),
            key(10, 0, 5),
            key(10, 2, 1),
            key(500, 1, 0),
            key(65, 3, 0),
            key(1_000_000, 1, 1),
            key(999_999, 9, 9),
            key(0, 0, 0),
        ];
        for (i, k) in keys.iter().enumerate() {
            q.push(*k, i as u64);
        }
        let mut sorted = keys.to_vec();
        sorted.sort();
        let mut popped = Vec::new();
        while let Some((k, _)) = q.pop() {
            popped.push(k);
        }
        assert_eq!(popped, sorted);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        // Deterministic pseudo-random workload compared against a plain
        // BinaryHeap reference: zero-delay, near and far-future pushes.
        let mut q: CalendarQueue<u64> = CalendarQueue::new(128, 16);
        let mut reference: BinaryHeap<Reverse<EventKey>> = BinaryHeap::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut now = 0u64;
        let mut seq = 0u64;
        for round in 0..5000u64 {
            let r = lcg();
            if r % 3 != 0 || reference.is_empty() {
                // Push: mostly near future, sometimes far future, always
                // at or after `now` (time never runs backwards).
                let delta = match r % 7 {
                    0 => 0,
                    1..=4 => r % 900,
                    5 => r % 20_000,
                    _ => 100_000 + r % 1_000_000,
                };
                let k = key(now + delta, (r % 5) as u32, seq);
                seq += 1;
                q.push(k, round);
                reference.push(Reverse(k));
            } else {
                let got = q.pop().map(|(k, _)| k);
                let want = reference.pop().map(|Reverse(k)| k);
                assert_eq!(got, want, "divergence at round {round}");
                if let Some(k) = got {
                    now = k.at;
                }
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(q.pop().map(|(k, _)| k), Some(want));
        }
        assert_eq!(q.pop().map(|(k, _)| k), None);
    }

    #[test]
    fn overflow_jump_then_ring_reuse() {
        // Two far-apart keys pushed in descending order, then a key
        // between them after the first pop: each pops in key order,
        // however far apart the times are.
        let mut q: CalendarQueue<&str> = CalendarQueue::new(64, 8);
        q.push(key(1 << 50, 1, 0), "far-b");
        q.push(key(1 << 40, 1, 1), "far-a");
        assert_eq!(q.pop(), Some((key(1 << 40, 1, 1), "far-a")));
        q.push(key((1 << 40) + 100, 2, 0), "near");
        assert_eq!(q.pop(), Some((key((1 << 40) + 100, 2, 0), "near")));
        assert_eq!(q.pop(), Some((key(1 << 50, 1, 0), "far-b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ring_horizon_boundary_is_inclusive() {
        // Keys one nanosecond past consecutive multiples of a former
        // bucket width, pushed out of order: they pop in key order.
        let mut q: CalendarQueue<u32> = CalendarQueue::new(64, 4);
        q.push(key(64 * 4 + 1, 0, 0), 1);
        q.push(key(64 * 5 + 1, 0, 1), 2);
        q.push(key(1, 0, 2), 0);
        assert_eq!(q.pop(), Some((key(1, 0, 2), 0)));
        assert_eq!(q.pop(), Some((key(64 * 4 + 1, 0, 0), 1)));
        assert_eq!(q.pop(), Some((key(64 * 5 + 1, 0, 1), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn same_slot_different_revolutions_stay_separated() {
        // Two keys whose times differ by a multiple of a former ring's
        // span: the later one never pops first.
        let mut q: CalendarQueue<&str> = CalendarQueue::new(64, 4);
        q.push(key(64 + 1, 0, 0), "rev0");
        q.push(key(64 * 5 + 1, 0, 1), "rev1");
        assert_eq!(q.pop(), Some((key(64 + 1, 0, 0), "rev0")));
        assert_eq!(q.pop(), Some((key(64 * 5 + 1, 0, 1), "rev1")));
        assert!(q.is_empty());
    }

    #[test]
    fn zero_delay_push_into_the_current_bucket_keeps_order() {
        // A node handling an event at `t` may schedule another event at
        // the same `t` (zero-delay self-send), with a key below a queued
        // one: it must pop in (src, seq) order with its peers.
        let mut q: CalendarQueue<u32> = CalendarQueue::new(64, 4);
        q.push(key(1000, 5, 0), 0);
        q.push(key(1000, 7, 0), 1);
        assert_eq!(q.pop(), Some((key(1000, 5, 0), 0)));
        // "Now" is 1000; a same-time push from a lower source stream must
        // still pop before the queued higher-stream event.
        q.push(key(1000, 6, 0), 2);
        assert_eq!(q.pop(), Some((key(1000, 6, 0), 2)));
        assert_eq!(q.pop(), Some((key(1000, 7, 0), 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn equal_time_ties_drain_by_source_then_sequence() {
        // Many events due at the same instant, pushed in descending key
        // order, so each opens a lane of its own: pop order must be
        // exactly (src, seq) — the canonical order the sharded engine's
        // determinism proof leans on.
        let mut q: CalendarQueue<usize> = CalendarQueue::new(64, 8);
        let mut keys = Vec::new();
        for src in (0..6u32).rev() {
            for seq in (0..3u64).rev() {
                keys.push(key(128, src, seq));
            }
        }
        for (i, k) in keys.iter().enumerate() {
            q.push(*k, i);
        }
        let mut want = keys.clone();
        want.sort();
        let mut got = Vec::new();
        while let Some((k, _)) = q.pop() {
            got.push(k);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn peek_agrees_with_pop() {
        let mut q: CalendarQueue<&str> = CalendarQueue::new(1, 4);
        q.push(key(1 << 40, 0, 0), "far");
        q.push(key(3, 0, 1), "near");
        assert_eq!(q.peek(), Some(key(3, 0, 1)));
        assert_eq!(q.pop(), Some((key(3, 0, 1), "near")));
        assert_eq!(q.peek(), Some(key(1 << 40, 0, 0)));
        assert_eq!(q.pop(), Some((key(1 << 40, 0, 0), "far")));
        assert_eq!(q.peek(), None);
    }

    /// Deterministic generator for the dense tests.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    /// A queue built the way `benchmark/src/layers.rs` builds one.
    fn engine_queue() -> CalendarQueue<u64> {
        CalendarQueue::new(4096, 512)
    }

    type Oracle = BinaryHeap<Reverse<(EventKey, u64)>>;

    /// Pop from both, check they agree, and return the key.
    fn pop_both(q: &mut CalendarQueue<u64>, oracle: &mut Oracle, at: usize) -> Option<EventKey> {
        let got = q.pop();
        let want = oracle.pop().map(|Reverse(e)| e);
        assert_eq!(got, want, "divergence at op {at}");
        got.map(|(k, _)| k)
    }

    /// Hold `live` entries due within 4 µs, then run `ops` pops, each
    /// followed by a push (and now and then an extra push or pop),
    /// against a `BinaryHeap` oracle. Keys fall in equal-`at` groups of
    /// shuffled sources, on and just before 4096 ns edges; pushes come at
    /// zero delay, within a few µs and milliseconds out; every pop and
    /// peek is checked.
    fn dense_model(live: usize, ops: usize, seed: u64) {
        let mut q = engine_queue();
        let mut oracle = Oracle::new();
        let mut rng = Lcg(seed);
        let mut seq = 0u64;
        let mut push = |q: &mut CalendarQueue<u64>, oracle: &mut Oracle, at: u64, r: u64| {
            // Sources spread over 1000 streams, so an equal-`at` group pops
            // in a (src, seq) order unrelated to push order.
            let k = key(at, (r % 1000) as u32, seq);
            q.push(k, seq);
            oracle.push(Reverse((k, seq)));
            seq += 1;
        };
        let delay = |now: u64, r: u64| match r % 100 {
            0..=9 => 0,                                  // zero-delay self-send
            10..=59 => (r >> 8) % 4096,                  // within 4 µs
            60..=79 => 4096 - now % 4096 - (r >> 8) % 2, // on or just before an edge
            80..=98 => 4096 + (r >> 8) % 8192,           // 4–12 µs
            _ => 3_000_000 + (r >> 8) % 10_000_000,      // milliseconds out
        };
        // Fill: every entry due inside one 4096 ns span, on few distinct
        // times.
        for _ in 0..live {
            let r = rng.next();
            let at = match r % 4 {
                0 => 1024,                 // one big tie group
                1 => 64 * ((r >> 8) % 64), // 64 smaller ones
                2 => 4095,                 // the span's last nanosecond
                _ => (r >> 8) % 4096,
            };
            push(&mut q, &mut oracle, 4096 + at, r);
        }
        assert_eq!(q.peek(), oracle.peek().map(|Reverse((k, _))| *k));
        for op in 0..ops {
            let r = rng.next();
            if r.is_multiple_of(16) {
                assert_eq!(q.peek(), oracle.peek().map(|Reverse((k, _))| *k), "peek at op {op}");
            }
            let Some(k) = pop_both(&mut q, &mut oracle, op) else { break };
            let now = k.at;
            let pushes = match r % 32 {
                0 => 0,
                1 => 2,
                _ => 1,
            };
            for _ in 0..pushes {
                let r = rng.next();
                push(&mut q, &mut oracle, now + delay(now, r), r);
            }
            assert_eq!(q.len(), oracle.len());
        }
        while let Some(Reverse(want)) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn dense_bucket_matches_reference_heap() {
        dense_model(60_000, 150_000, 0x5EED);
    }

    /// `streams` delay classes (more than [`MAX_LANES`]) against a
    /// `BinaryHeap` oracle. The fill walks the classes from the longest
    /// delay down, over and over, so consecutive pushes descend and each
    /// class wants a lane of its own. Then each op pops one entry and
    /// pushes at `now + a random class's delay`: about one push per pop for
    /// `ops / 8` ops, none until only `streams / 2` entries are left (lanes
    /// empty), then a descending pair per pop until `live` are queued
    /// again. Checks every pop and peek, and that lanes filled, the spill
    /// heap took pushes and emptied lanes took new ones.
    fn lane_model(live: usize, ops: usize, streams: u64, seed: u64) {
        assert!(streams as usize > MAX_LANES);
        let mut q = engine_queue();
        let mut oracle = Oracle::new();
        let mut rng = Lcg(seed);
        let mut seq = 0u64;
        let mut push = |q: &mut CalendarQueue<u64>, oracle: &mut Oracle, now: u64, stream: u64| {
            let k = key(now + 100 + 37 * stream, (seq % 997) as u32, seq);
            q.push(k, seq);
            oracle.push(Reverse((k, seq)));
            seq += 1;
        };
        for i in 0..live as u64 {
            push(&mut q, &mut oracle, 0, streams - 1 - i % streams);
        }
        let (mut spilled, mut full_with_empty, mut reused) = (false, None, false);
        let hold = (ops / 8).max(1);
        // 0: hold, 1: drain, 2: refill; `since` is when the hold began.
        let (mut stage, mut since) = (0, 0);
        for op in 0..ops {
            let r = rng.next();
            if r.is_multiple_of(8) {
                assert_eq!(q.peek(), oracle.peek().map(|Reverse((k, _))| *k), "peek at op {op}");
            }
            let Some(k) = pop_both(&mut q, &mut oracle, op) else { break };
            stage = match stage {
                0 if op - since >= hold => 1,
                1 if q.len() <= streams as usize / 2 => 2,
                2 if q.len() >= live => {
                    since = op;
                    0
                }
                s => s,
            };
            let pushes = match (stage, r % 8) {
                (1, _) | (0, 0) => 0,
                (2, _) | (0, 1) => 2,
                _ => 1,
            };
            let top = (r >> 8) % streams;
            for s in 0..pushes {
                push(&mut q, &mut oracle, k.at, top.saturating_sub(s));
            }
            let (lanes, empty, spill) = shape(&q);
            spilled |= spill > 0;
            if lanes == MAX_LANES {
                reused |= full_with_empty.is_some_and(|e| empty < e);
                full_with_empty = Some(empty);
            }
        }
        while let Some(Reverse(want)) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
        assert!(spilled, "no push spilled");
        assert!(full_with_empty.is_some(), "lanes never filled");
        assert!(reused, "no emptied lane took a push");
    }

    #[test]
    fn more_streams_than_lanes_match_reference_heap() {
        lane_model(2_000, 40_000, 40, 0x1A4E);
    }

    #[test]
    #[ignore = "deep soak: run with --release --ignored (scripts/contract.sh soak stage)"]
    fn dense_bucket_soak_at_200k_live() {
        for seed in [1, 2] {
            dense_model(200_000, 1_000_000, seed);
            lane_model(200_000, 1_000_000, 48, seed);
        }
    }

    /// A rack-ring echo storm in miniature (rdvperf's `storm_100k` on
    /// `build_rack_ring`): node ids, link latencies and serialization times
    /// as there, every send admitted on its link direction the way the
    /// engine's `Direction::admit` does.
    struct Storm {
        q: CalendarQueue<StormEv>,
        oracle: BinaryHeap<Reverse<EventKey>>,
        /// Per node: next sequence number, and when its uplink (host) or
        /// trunk (switch) transmitter is free.
        seq: Vec<u64>,
        up_free: Vec<u64>,
        /// Per host: when its switch's port towards it is free.
        down_free: Vec<u64>,
        /// Per host: echoes left to re-send.
        bounces: Vec<u64>,
        spilled: usize,
        max_lanes: usize,
    }

    /// A delivery: destination node, and the hops a trunk lap has left.
    type StormEv = (usize, Option<u64>);

    const STORM_RACKS: usize = 32;
    const STORM_HOSTS: usize = 24;
    const STORM_LAPS: u64 = 16;
    const STORM_HOPS: u64 = 32;
    const STORM_BOUNCES: u64 = 6;
    /// `(serialization, latency)` ns: 64 B at 8 Gb/s over 500 ns, and
    /// 128 B at 40 Gb/s over 2 µs.
    const HOST_LINK: (u64, u64) = (64, 500);
    const TRUNK_LINK: (u64, u64) = (25, 2000);

    impl Storm {
        fn switch(rack: usize) -> usize {
            rack * (STORM_HOSTS + 1)
        }

        fn send(
            &mut self,
            now: u64,
            from: usize,
            down_to: Option<usize>,
            link: (u64, u64),
            ev: StormEv,
        ) {
            let free = match down_to {
                Some(host) => &mut self.down_free[host],
                None => &mut self.up_free[from],
            };
            *free = (*free).max(now) + link.0;
            let k = key(*free + link.1, from as u32 + 1, self.seq[from]);
            self.seq[from] += 1;
            self.q.push(k, ev);
            self.oracle.push(Reverse(k));
            let (lanes, _, spilled) = shape(&self.q);
            self.spilled = self.spilled.max(spilled);
            self.max_lanes = self.max_lanes.max(lanes);
        }
    }

    /// Pushes in `on_start` order — each switch's 16 laps 25 ns apart, then
    /// its hosts' two packets 64 ns apart, rack by rack — then echo rounds.
    /// Each wave of ties rides one lane: nothing spills, at most 24 lanes
    /// open, and every pop is in key order.
    #[test]
    fn storm_pushes_ride_lanes() {
        let nodes = STORM_RACKS * (STORM_HOSTS + 1);
        let mut s = Storm {
            q: CalendarQueue::new(4096, 512),
            oracle: BinaryHeap::new(),
            seq: vec![0; nodes],
            up_free: vec![0; nodes],
            down_free: vec![0; nodes],
            bounces: vec![STORM_BOUNCES; nodes],
            spilled: 0,
            max_lanes: 0,
        };
        let next_switch = |node: usize| Storm::switch((node / (STORM_HOSTS + 1) + 1) % STORM_RACKS);
        for r in 0..STORM_RACKS {
            let sw = Storm::switch(r);
            for _ in 0..STORM_LAPS {
                s.send(0, sw, None, TRUNK_LINK, (next_switch(sw), Some(STORM_HOPS)));
            }
            for h in sw + 1..=sw + STORM_HOSTS {
                for _ in 0..2 {
                    s.send(0, h, None, HOST_LINK, (sw, None));
                }
            }
        }
        let mut events = 0;
        while let Some((k, (to, hops))) = s.q.pop() {
            assert_eq!(Some(k), s.oracle.pop().map(|Reverse(k)| k), "pop {events}");
            events += 1;
            let from = k.src as usize - 1;
            match hops {
                Some(0) => {}
                Some(hops) => s.send(k.at, to, None, TRUNK_LINK, (next_switch(to), Some(hops - 1))),
                None if to % (STORM_HOSTS + 1) == 0 => {
                    s.send(k.at, to, Some(from), HOST_LINK, (from, None))
                }
                None if s.bounces[to] > 0 => {
                    s.bounces[to] -= 1;
                    s.send(k.at, to, None, HOST_LINK, (from, None));
                }
                None => {}
            }
        }
        assert!(s.oracle.is_empty());
        let per_rack = STORM_LAPS * (STORM_HOPS + 1) + STORM_HOSTS as u64 * 2 * (2 + STORM_BOUNCES);
        assert_eq!(events, STORM_RACKS as u64 * per_rack);
        assert_eq!(s.spilled, 0, "a push spilled");
        assert!(s.max_lanes <= 24, "{} lanes", s.max_lanes);
    }

    #[test]
    fn retained_capacity_follows_live_entries() {
        let mut q = engine_queue();
        let mut rng = Lcg(7);
        let mut seq = 0u64;
        // A 200 k burst of shuffled keys within 4096 ns, then drain it.
        for _ in 0..200_000 {
            q.push(key(rng.next() % 4096, 1, seq), seq);
            seq += 1;
        }
        let burst = q.retained_capacity();
        assert!(burst >= 200_000);
        while q.pop().is_some() {}
        // 2 ms of a hold model at 100 live entries.
        let live = 100;
        let start = 4096;
        for _ in 0..live {
            q.push(key(start + rng.next() % 4096, 1, seq), seq);
            seq += 1;
        }
        let mut now = start;
        while now < start + 2 * 512 * 4096 {
            let (k, _) = q.pop().expect("population is constant");
            now = k.at;
            q.push(key(now + rng.next() % (3 * 4096), 1, seq), seq);
            seq += 1;
        }
        assert_eq!(q.len(), live);
        let retained = q.retained_capacity();
        let bound = 8 * live + KEEP_FLOOR.max(live);
        assert!(
            retained <= bound,
            "retained {retained} entries at {live} live (bound {bound}, burst {burst})"
        );
    }
}
