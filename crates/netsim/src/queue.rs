//! Bucketed calendar queue for near-future events.
//!
//! The engine's hot path is dominated by event-queue churn: almost every
//! event scheduled is due within a few link latencies of *now*, which a
//! binary heap pays `O(log n)` comparisons to order even though the time
//! axis already orders it nearly for free. A calendar queue exploits that
//! locality: the near future is a ring of fixed-width buckets (push is an
//! `O(1)` append), only the *current* bucket is kept heap-ordered, and
//! far-future items (long timers, scenario deadlines) fall back to an
//! overflow heap so the ring stays small.
//!
//! What the queue holds stays proportional to what is live (DESIGN.md §9,
//! "What the queue holds"): a bucket that becomes current is heapified in
//! place from its own buffer, and once drained that buffer goes to a small
//! free list that the next empty bucket to receive a push takes from. No
//! ring slot keeps the largest buffer it ever held.
//!
//! Every item carries an [`EventKey`] `(at, src, seq)`; pops are globally
//! ordered by that key. The key is execution-order-independent — `src`
//! identifies the event's source stream and `seq` is per-source — which is
//! what lets the sharded engine (see `engine/`) produce identical pop
//! orders regardless of how events were interleaved when pushed.
//!
//! The module is public for one outside caller, `benchmark/src/layers.rs`,
//! which replays the engine's queue geometry to price
//! `netsim.queue_ns_per_event`; it is not otherwise part of the
//! simulator's API surface.

use std::collections::BinaryHeap;
use std::mem;

/// Drained buffers kept for reuse.
const SPARE_BUFFERS: usize = 8;

/// Entries' worth of buffers the free list may keep however little is
/// live; above it, never more than are live.
const SPARE_FLOOR: usize = 512;

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
/// *reversed*, so `BinaryHeap` (a max-heap) pops the smallest key and a
/// bucket's `Vec<Entry>` becomes a heap in place.
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

/// A bucketed calendar queue: `O(1)` push for events due within
/// `buckets × bucket_width` of the current bucket, heap ordering only
/// within the bucket being drained, overflow heap for everything later.
pub struct CalendarQueue<T> {
    /// log2 of the bucket width in ns.
    shift: u32,
    /// Heap of items in the current bucket (and any pushed for the past —
    /// time holds still between pops, so "the past" only arises from
    /// zero-delay self-schedules, which land here and stay ordered).
    cur: BinaryHeap<Entry<T>>,
    /// Absolute index of the current bucket.
    cur_bucket: u64,
    /// Ring of unsorted future buckets: bucket `b` lives in slot
    /// `b % ring.len()` while `b - cur_bucket ≤ ring.len()`. An empty slot
    /// holds no buffer.
    ring: Vec<Vec<Entry<T>>>,
    /// Items currently stored in the ring.
    ring_len: usize,
    /// Far-future items, beyond the ring horizon at push time.
    overflow: BinaryHeap<Entry<T>>,
    /// Drained buffers waiting for an empty slot to receive a push: at most
    /// [`SPARE_BUFFERS`] of them, and never more entries' worth than are
    /// live (or [`SPARE_FLOOR`]).
    spare: Vec<Vec<Entry<T>>>,
    len: usize,
}

impl<T> CalendarQueue<T> {
    /// Create a queue with `buckets` ring buckets of width
    /// `bucket_width_ns` (rounded up to a power of two).
    pub fn new(bucket_width_ns: u64, buckets: usize) -> CalendarQueue<T> {
        assert!(buckets >= 1, "calendar queue needs at least one bucket");
        let width = bucket_width_ns.max(1).next_power_of_two();
        CalendarQueue {
            shift: width.trailing_zeros(),
            cur: BinaryHeap::new(),
            cur_bucket: 0,
            ring: (0..buckets).map(|_| Vec::new()).collect(),
            ring_len: 0,
            overflow: BinaryHeap::new(),
            spare: Vec::new(),
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
        let bucket = key.at >> self.shift;
        let entry = Entry { key, item };
        if bucket <= self.cur_bucket {
            self.cur.push(entry);
        } else if bucket - self.cur_bucket <= self.ring.len() as u64 {
            let slot = (bucket % self.ring.len() as u64) as usize;
            let slot = &mut self.ring[slot];
            if slot.capacity() == 0 {
                if let Some(buf) = self.spare.pop() {
                    *slot = buf;
                }
            }
            slot.push(entry);
            self.ring_len += 1;
        } else {
            self.overflow.push(entry);
        }
    }

    /// The smallest key queued, if any. `&mut` because peeking may advance
    /// the calendar to the next non-empty bucket.
    pub fn peek(&mut self) -> Option<EventKey> {
        self.advance();
        self.cur.peek().map(|e| e.key)
    }

    /// Remove and return the smallest-keyed item.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        self.advance();
        self.cur.pop().map(|e| {
            self.len -= 1;
            (e.key, e.item)
        })
    }

    /// Ensure the current bucket holds the globally smallest keys: step
    /// (or jump) the calendar forward until `cur` is non-empty, pulling
    /// ring buckets and due overflow items in as their buckets come up.
    fn advance(&mut self) {
        while self.cur.is_empty() && self.len > 0 {
            if self.ring_len == 0 {
                // Nothing in the ring: jump straight to the overflow's
                // first bucket instead of stepping through empty ones.
                let head = self.overflow.peek().expect("len > 0 with empty ring");
                self.cur_bucket = head.key.at >> self.shift;
            } else {
                self.cur_bucket += 1;
            }
            let slot = (self.cur_bucket % self.ring.len() as u64) as usize;
            let mut buf = mem::take(&mut self.ring[slot]);
            self.ring_len -= buf.len();
            while self.overflow.peek().is_some_and(|e| e.key.at >> self.shift <= self.cur_bucket) {
                buf.push(self.overflow.pop().expect("peeked"));
            }
            if !buf.is_empty() {
                let spent = mem::replace(&mut self.cur, BinaryHeap::from(buf));
                self.put_spare(spent.into_vec());
            }
        }
    }

    /// Offer an emptied buffer to the free list; the smallest spares go
    /// first when it is over a bound.
    fn put_spare(&mut self, buf: Vec<Entry<T>>) {
        debug_assert!(buf.is_empty());
        if buf.capacity() == 0 {
            return;
        }
        self.spare.push(buf);
        let limit = self.len.max(SPARE_FLOOR);
        while self.spare.len() > SPARE_BUFFERS
            || self.spare.iter().map(Vec::capacity).sum::<usize>() > limit
        {
            let smallest = (0..self.spare.len()).min_by_key(|&i| self.spare[i].capacity());
            self.spare.swap_remove(smallest.expect("over a bound, so non-empty"));
        }
    }

    /// Capacity, in entries, of every buffer the queue keeps.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        self.cur.capacity()
            + self.overflow.capacity()
            + self.ring.iter().chain(&self.spare).map(Vec::capacity).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    fn key(at: u64, src: u32, seq: u64) -> EventKey {
        EventKey { at, src, seq }
    }

    #[test]
    fn pops_in_key_order_across_buckets_and_overflow() {
        let mut q: CalendarQueue<u64> = CalendarQueue::new(64, 8);
        // Same time, different src/seq; near future; far future (overflow).
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
        // BinaryHeap reference, including pushes into the current bucket
        // (zero-delay), the ring, and the overflow.
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
        // Only far-future items: the calendar must jump straight to the
        // overflow's first bucket instead of stepping the ring through
        // millions of empty buckets — and after the jump, new pushes must
        // still resolve ring slots relative to the new current bucket.
        let mut q: CalendarQueue<&str> = CalendarQueue::new(64, 8);
        q.push(key(1 << 50, 1, 0), "far-b");
        q.push(key(1 << 40, 1, 1), "far-a");
        assert_eq!(q.pop(), Some((key(1 << 40, 1, 1), "far-a")));
        // The queue now sits at bucket (1<<40)>>shift; a near-future push
        // relative to that time must land in the ring, not the overflow,
        // and pop before the remaining far item.
        q.push(key((1 << 40) + 100, 2, 0), "near");
        assert_eq!(q.pop(), Some((key((1 << 40) + 100, 2, 0), "near")));
        assert_eq!(q.pop(), Some((key(1 << 50, 1, 0), "far-b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ring_horizon_boundary_is_inclusive() {
        // With width 64 and 4 buckets, an item exactly `buckets` ahead is
        // the last one the ring accepts; one bucket further overflows.
        // Both must pop in key order regardless of which store they hit —
        // this pins the `<=` in the horizon check, where an off-by-one
        // would misfile the boundary bucket and (with a slot collision)
        // drain it a full ring revolution early.
        let mut q: CalendarQueue<u32> = CalendarQueue::new(64, 4);
        q.push(key(64 * 4 + 1, 0, 0), 1); // last ring bucket
        q.push(key(64 * 5 + 1, 0, 1), 2); // first overflow bucket
        q.push(key(1, 0, 2), 0);
        assert_eq!(q.pop(), Some((key(1, 0, 2), 0)));
        assert_eq!(q.pop(), Some((key(64 * 4 + 1, 0, 0), 1)));
        assert_eq!(q.pop(), Some((key(64 * 5 + 1, 0, 1), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn same_slot_different_revolutions_stay_separated() {
        // Buckets `cur+1` and `cur+1+len` map to the same ring slot on
        // consecutive revolutions. The second lives in the overflow until
        // the first revolution passes; popping must never surface it a
        // revolution early.
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
        // the same `t` (zero-delay self-send). That push targets a bucket
        // the calendar has already advanced into; it must land in the
        // current heap and pop in (src, seq) order with its peers.
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
        // order, spread so the tie group crosses the ring→current-heap
        // transfer: pop order must be exactly (src, seq) — the canonical
        // order the sharded engine's determinism proof leans on.
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

    /// The engine's geometry (`engine/mod.rs`): 4096 ns × 512.
    fn engine_queue() -> CalendarQueue<u64> {
        CalendarQueue::new(4096, 512)
    }

    /// Hold `live` entries in one 4096 ns ring bucket, then run `ops` pops,
    /// each followed by a push (and now and then an extra push or pop),
    /// against a `BinaryHeap` oracle. Keys fall in equal-`at` groups of
    /// shuffled sources, on and just before bucket edges; pushes come at
    /// zero delay, into the current bucket, into the ring and beyond its
    /// horizon; every pop and peek is checked.
    fn dense_model(live: usize, ops: usize, seed: u64) {
        let mut q = engine_queue();
        let mut oracle: BinaryHeap<Reverse<(EventKey, u64)>> = BinaryHeap::new();
        let mut rng = Lcg(seed);
        let mut seq = 0u64;
        let mut push = |q: &mut CalendarQueue<u64>, oracle: &mut BinaryHeap<_>, at: u64, r: u64| {
            // Sources spread over 1000 streams, so an equal-`at` group pops
            // in a (src, seq) order unrelated to push order.
            let k = key(at, (r % 1000) as u32, seq);
            q.push(k, seq);
            oracle.push(Reverse((k, seq)));
            seq += 1;
        };
        let delay = |now: u64, r: u64| match r % 100 {
            0..=9 => 0,                                  // zero-delay self-send
            10..=59 => (r >> 8) % 4096,                  // this bucket or the next
            60..=79 => 4096 - now % 4096 - (r >> 8) % 2, // on or just before an edge
            80..=98 => 4096 + (r >> 8) % 8192,           // the ring
            _ => 3_000_000 + (r >> 8) % 10_000_000,      // past the 2.1 ms horizon
        };
        // Fill: every entry due inside bucket 1, on few distinct times.
        for _ in 0..live {
            let r = rng.next();
            let at = match r % 4 {
                0 => 1024,                 // one big tie group
                1 => 64 * ((r >> 8) % 64), // 64 smaller ones
                2 => 4095,                 // the bucket's last nanosecond
                _ => (r >> 8) % 4096,
            };
            push(&mut q, &mut oracle, 4096 + at, r);
        }
        assert_eq!(q.peek(), oracle.peek().map(|Reverse((k, _))| *k));
        assert_eq!(q.cur.len(), live, "the fill is one bucket, heapified whole");
        for op in 0..ops {
            let r = rng.next();
            if r.is_multiple_of(16) {
                assert_eq!(q.peek(), oracle.peek().map(|Reverse((k, _))| *k), "peek at op {op}");
            }
            let got = q.pop();
            let want = oracle.pop().map(|Reverse(e)| e);
            assert_eq!(got, want, "divergence at op {op}");
            let Some((k, _)) = got else { break };
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

    #[test]
    #[ignore = "deep soak: run with --release --ignored (scripts/contract.sh soak stage)"]
    fn dense_bucket_soak_at_200k_live() {
        for seed in [1, 2] {
            dense_model(200_000, 1_000_000, seed);
        }
    }

    #[test]
    fn retained_capacity_follows_live_entries() {
        let mut q = engine_queue();
        let mut rng = Lcg(7);
        let mut seq = 0u64;
        // A 200 k burst in one bucket, then drain it.
        for _ in 0..200_000 {
            q.push(key(rng.next() % 4096, 1, seq), seq);
            seq += 1;
        }
        let burst = q.retained_capacity();
        assert!(burst >= 200_000);
        while q.pop().is_some() {}
        // A full ring revolution at 100 live entries.
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
        let bound = 8 * live + SPARE_FLOOR.max(live);
        assert!(
            retained <= bound,
            "retained {retained} entries at {live} live (bound {bound}, burst {burst})"
        );
    }
}
